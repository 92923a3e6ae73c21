"""Joint estimation of a Robin boundary coefficient and the shape of an
inaccessible boundary for the 2-D Poisson problem, computed entirely on a
fixed reference slab via a push-forward transform."""

from .geometry import BoundaryShape, InvalidShapeError, SampledProfile
from .mesh import (InvalidMeshError, SlabMesh, TraceMesh, build_slab_mesh,
                   trace_of_top)
from .fem import (AssembledSystem, ForwardState, SolverError, assemble,
                  forward, neumann_load, solve_deformed)
from .priors import (GaussianPrior, build_alpha_prior, build_beta_prior,
                     joint_prior)
from .inverse import Problem
from .optimize import (GaussNewtonOptions, GaussNewtonReport,
                       LaplaceApproximation, gauss_newton, laplace)
from .mala import (ChainOutput, ChainState, AdaptState, MalaSettings, adapt,
                   gelman_rubin, make_adapt_state, mala_step, mcse_batch_means,
                   run_chain, stopping_rule)
from .harness import (ExperimentConfig, SyntheticDataset, generate_data,
                      run_map, run_mcmc, truth_profiles)

__all__ = [name for name in dir() if not name.startswith("_")]
