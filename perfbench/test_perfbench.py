"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import benchenv

benchenv.use_checkout_sources()

from scipy.signal import lfilter  # noqa: E402

from workloads import ess_batch_means  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = ["map-laplace", "mala-desk", "mala-surrogate"]


def ar1(rng, rho, n, k, warmup=1000):
    """k independent AR(1) series x_t = rho x_{t-1} + e_t, e_t ~ N(0, 1)."""
    e = rng.standard_normal((n + warmup, k))
    return lfilter([1.0], [1.0, -rho], e, axis=0)[warmup:]


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ess_matches_ar1_closed_form(rho):
    n = 200_000
    ess = ess_batch_means(ar1(np.random.default_rng(17), rho, n, 20))
    expected = n * (1.0 - rho) / (1.0 + rho)
    # 447 batches give each estimate a relative sd near 7 %; the mean of 20
    # independent coordinates is good to about 1.5 %
    assert abs(ess.mean() / expected - 1.0) < 0.05
    assert np.all(np.abs(ess / expected - 1.0) < 0.3)


def run_bench(*args, cwd=None):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          cwd=cwd or HERE.parent)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    """Every workload and every check, at reduced length."""
    done = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, done.stderr
    spec_metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                             "unit": m["unit"]} for m in spec_metrics}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(np.isfinite(values))
    if not trace:
        assert all(v > 0 for v in values)


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "map-laplace", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
