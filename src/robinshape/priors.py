"""Gaussian priors, each one `GaussianPrior` (mean, precision, lower Cholesky
factor of the precision): a diagonal spectrum for the Fourier coefficients,
a 1-D elliptic-operator precision (with endpoint Robin closure) for the
log-admittance on the trace mesh, and `joint_prior`, the block-diagonal join
of independent blocks into the prior of the stacked parameter vector."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .mesh import TraceMesh


@dataclass(frozen=True)
class GaussianPrior:
    mean: np.ndarray
    precision: np.ndarray          # dense (n, n)
    chol_precision: np.ndarray     # lower Cholesky factor of the precision

    @property
    def covariance(self) -> np.ndarray:
        return sla.cho_solve((self.chol_precision, True), np.eye(self.mean.size))

    def potential(self, m: np.ndarray) -> float:
        d = np.asarray(m) - self.mean
        return 0.5 * float(d @ self.precision @ d)

    def sample(self, rng: np.random.Generator, xi: np.ndarray | None = None) -> np.ndarray:
        # precision = L L^T  =>  cov factor is L^{-T}
        if xi is None:
            xi = rng.standard_normal(self.mean.size)
        return self.mean + sla.solve_triangular(self.chol_precision, xi,
                                                lower=True, trans="T")


def joint_prior(*blocks: GaussianPrior) -> GaussianPrior:
    """The prior of the stacked vector of independent blocks."""
    return GaussianPrior(mean=np.concatenate([b.mean for b in blocks]),
                         precision=sla.block_diag(*(b.precision for b in blocks)),
                         chol_precision=sla.block_diag(*(b.chol_precision for b in blocks)))


def build_alpha_prior(p: int, sigma_alpha2: float, s_alpha: float) -> GaussianPrior:
    """Frequency-n coefficient pairs get variance sigma_alpha2 * (n+1)^s_alpha."""
    if sigma_alpha2 <= 0:
        raise ValueError("sigma_alpha2 must be positive")
    n_freq = np.concatenate([[0], np.repeat(np.arange(1, p + 1), 2)])
    precision = 1.0 / (sigma_alpha2 * (n_freq + 1.0) ** s_alpha)
    return GaussianPrior(mean=np.zeros(2 * p + 1), precision=np.diag(precision),
                         chol_precision=np.diag(np.sqrt(precision)))


def trace_fem_matrices(trace: TraceMesh):
    """1-D P1 stiffness and (unit-coefficient) mass matrices on the trace."""
    q = trace.n_nodes
    h = np.diff(trace.s)
    K = np.zeros((q, q))
    M = np.zeros((q, q))
    for e, he in enumerate(h):
        i, j = e, e + 1
        K[i, i] += 1.0 / he
        K[j, j] += 1.0 / he
        K[i, j] -= 1.0 / he
        K[j, i] -= 1.0 / he
        M[i, i] += he / 3.0
        M[j, j] += he / 3.0
        M[i, j] += he / 6.0
        M[j, i] += he / 6.0
    return K, M


def build_beta_prior(trace: TraceMesh, delta_beta2: float, corr_l: float) -> GaussianPrior:
    """Covariance delta_beta^2 (K + l^2 M + R)^{-1} with the rank-2 endpoint
    correction R = l * (e_first e_first^T + e_last e_last^T)."""
    if delta_beta2 <= 0 or corr_l <= 0:
        raise ValueError("delta_beta2 and corr_l must be positive")
    K, M = trace_fem_matrices(trace)
    A = K + corr_l ** 2 * M
    A[0, 0] += corr_l
    A[-1, -1] += corr_l
    precision = A / delta_beta2
    chol = sla.cholesky(precision, lower=True)
    return GaussianPrior(mean=np.zeros(trace.n_nodes), precision=precision,
                         chol_precision=chol)
