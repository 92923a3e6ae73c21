"""Reference figures for perfbench/README.md, measured once and not gated.

    python3 perfbench/reference.py

Prints one JSON object:
- the full desk pipeline ``ExperimentConfig(seed=1)`` run until the MCSE
  stopping rule fires: time per phase, steps to stop, minimum ESS per second,
  the size of ``chain.csv`` and the peak resident memory (about 8 minutes);
- ``potential_and_gradient`` and ``jacobian`` on a refined 153 x 14
  inversion mesh;
- the line count of ``src/``.
"""
import json
import resource
import statistics
import time

import benchenv

benchenv.use_checkout_sources()

import numpy as np  # noqa: E402

from robinshape import harness  # noqa: E402
from robinshape.harness import ExperimentConfig, MeshSpec  # noqa: E402

from workloads import ess_batch_means  # noqa: E402


def desk_pipeline() -> dict:
    out = benchenv.OUT / "reference"
    cfg = ExperimentConfig(seed=1, output_dir=str(out))
    t0 = time.perf_counter()
    dataset = harness.generate_data(cfg)
    t1 = time.perf_counter()
    map_result = harness.run_map(cfg, dataset)
    t2 = time.perf_counter()
    mc = harness.run_mcmc(cfg, dataset, map_result)
    t3 = time.perf_counter()
    chain = mc.chain
    steps = chain.n_burn_in + chain.n_recorded
    ess_min = float(ess_batch_means(chain.samples).min())
    return {
        "generate_data_s": t1 - t0,
        "map_laplace_s": t2 - t1,
        "mcmc_s": t3 - t2,
        "total_s": t3 - t0,
        "converged": chain.converged,
        "burn_in": chain.n_burn_in,
        "recorded_steps": chain.n_recorded,
        "ms_per_step": 1e3 * (t3 - t2) / steps,
        "acceptance": chain.acceptance_rate,
        "ess_min": ess_min,
        "ess_min_per_s": ess_min / (t3 - t2),
        "chain_csv_bytes": (out / "chain.csv").stat().st_size,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def refined_mesh(repeats: int = 30) -> dict:
    cfg = ExperimentConfig(seed=1, inversion_mesh=MeshSpec(nx=153, ny=14))
    dataset = harness.generate_data(ExperimentConfig(seed=1))
    problem = harness.build_problem(cfg, dataset)
    m = problem.prior_mean
    problem.jacobian(m)  # warm-up
    pg, jac = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        problem.potential_and_gradient(m)
        pg.append(time.perf_counter() - t0)
    for _ in range(max(3, repeats // 10)):
        t0 = time.perf_counter()
        problem.jacobian(m)
        jac.append(time.perf_counter() - t0)
    return {"inversion_mesh": "153x14", "n_parameters": problem.n,
            "potential_and_gradient_ms": 1e3 * statistics.median(pg),
            "jacobian_ms": 1e3 * statistics.median(jac)}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(benchenv.SRC.rglob("*.py")))


def main():
    report = {"blas": benchenv.blas_description(), "src_lines": src_lines(),
              "refined_mesh": refined_mesh(), "desk_pipeline": desk_pipeline()}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
