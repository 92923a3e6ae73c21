"""Joint estimation of a Robin boundary coefficient and the shape of an
inaccessible boundary for the 2-D Poisson problem, computed entirely on a
fixed reference slab via a push-forward transform."""

from .harness import ExperimentConfig, generate_data, run_map, run_mcmc

__all__ = ["ExperimentConfig", "generate_data", "run_map", "run_mcmc"]
