"""Process set-up shared by the benchmark scripts.

Import this module before numpy: it pins the BLAS thread pools and puts the
checkout's ``src`` directory first on ``sys.path``, so the benchmark always
measures the source tree it sits in, never an installed copy.
"""
import os
import sys
from pathlib import Path

# One BLAS thread: the hot dense operations are 93 x 93 or smaller, where a
# second thread only adds contention on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingSourceError(RuntimeError):
    """The checkout holds no robinshape sources to benchmark."""


def use_checkout_sources() -> None:
    """Make ``import robinshape`` load ``<checkout>/src/robinshape``."""
    if not (SRC / "robinshape" / "__init__.py").is_file():
        raise MissingSourceError(f"no robinshape package under {SRC}")
    sys.path.insert(0, str(SRC))


def blas_description() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}, {BLAS_THREADS} thread(s)"
