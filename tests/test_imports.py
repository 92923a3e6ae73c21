import os
import subprocess
import sys

import robinshape

# the library needs scipy.linalg, scipy.sparse and scipy.special only;
# each of these would add hundreds of milliseconds to every cold start
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.interpolate",
         "scipy.spatial", "scipy.ndimage")


def test_import_graph_stays_lean():
    src = os.path.dirname(os.path.dirname(os.path.abspath(robinshape.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, robinshape, robinshape.cli\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
