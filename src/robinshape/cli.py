"""Command-line interface.  Every command composes the stages `_write_data`,
`_run_map` and `_run_map_and_mcmc`.

Exit codes: 0 success, 1 invalid configuration, a file that cannot be
read or written, or an array too large to allocate, 2 numerical failure
(including a MAP that did not converge), 3 sampler step cap reached
without convergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import harness
from .fem import SolverError
from .harness import ConfigError, ExperimentConfig, SyntheticDataset


def _load_config(path: str | None, example: int | None = None) -> ExperimentConfig:
    """The config file at path, or the defaults writing to out/exampleN for
    an example; an example sets the truth profile either way."""
    if path is not None:
        config = ExperimentConfig.from_json_file(path)
    else:
        config = ExperimentConfig(output_dir=f"out/example{example}" if example else "out")
    return config if example is None else dataclasses.replace(
        config, truth_profile=f"example{example}")


def _dataset_path(config: ExperimentConfig) -> str:
    return os.path.join(config.output_dir, "dataset.json")


def _write_data(config: ExperimentConfig) -> SyntheticDataset:
    """Generate the data; write them and the config to config.output_dir."""
    dataset = harness.generate_data(config)
    dataset.to_file(_dataset_path(config))
    harness.atomic_write(os.path.join(config.output_dir, "config.json"), config.to_json())
    print(f"wrote {_dataset_path(config)} (delta_e={dataset.delta_e:.6g})")
    return dataset


def _run_map(config: ExperimentConfig, dataset: SyntheticDataset) -> harness.MapResult:
    result = harness.run_map(config, dataset)
    print(f"Gauss-Newton: {result.report.reason} after {result.report.n_iters} iterations")
    return result


def _run_map_and_mcmc(config: ExperimentConfig, dataset: SyntheticDataset) -> int:
    """MAP, then MALA from it: exit 2 if the MAP did not converge, else 3 if
    the chain reached its step cap, else 0."""
    map_result = _run_map(config, dataset)
    mc = harness.run_mcmc(config, dataset, map_result)
    print(f"MCMC: recorded {mc.chain.n_recorded} steps, acceptance "
          f"{mc.chain.acceptance_rate:.3f}, converged={mc.chain.converged}")
    if not map_result.report.converged:
        return 2
    return 0 if mc.chain.converged else 3


def cmd_generate_data(args) -> int:
    _write_data(_load_config(args.config))
    return 0


def cmd_map(args) -> int:
    config = _load_config(args.config)
    dataset = SyntheticDataset.from_file(_dataset_path(config))
    return 0 if _run_map(config, dataset).report.converged else 2


def cmd_sample(args) -> int:
    config = _load_config(args.config)
    return _run_map_and_mcmc(config, SyntheticDataset.from_file(_dataset_path(config)))


def cmd_diagnose(args) -> int:
    print(json.dumps(harness.diagnose(args.chains), indent=2))
    return 0


def cmd_reproduce_example(args) -> int:
    config = _load_config(args.config, example=args.example)
    return _run_map_and_mcmc(config, _write_data(config))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robinshape",
                                     description="Joint Robin-coefficient and "
                                                 "boundary-shape estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
            ("generate-data", cmd_generate_data, "synthesize noisy boundary data"),
            ("map", cmd_map, "MAP estimate and Laplace approximation"),
            ("sample", cmd_sample, "full posterior sampling with MALA")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("diagnose", help="convergence diagnostics from chain files")
    p.add_argument("chains", nargs="+")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("reproduce-example", help="full pipeline for one example")
    p.add_argument("example", type=int, choices=(1, 2, 3))
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_reproduce_example)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
