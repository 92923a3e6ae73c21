"""Gaussian priors: diagonal spectrum for the Fourier coefficients, and a
1-D elliptic-operator precision (with endpoint Robin closure) for the
log-admittance on the trace mesh."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .mesh import TraceMesh


@dataclass(frozen=True)
class AlphaPrior:
    mean: np.ndarray
    variances: np.ndarray

    @property
    def n(self) -> int:
        return self.mean.size

    @property
    def precision_diag(self) -> np.ndarray:
        return 1.0 / self.variances

    def potential(self, alpha: np.ndarray) -> float:
        d = np.asarray(alpha) - self.mean
        return 0.5 * float(d @ (d / self.variances))

    def sample(self, rng: np.random.Generator, xi: np.ndarray | None = None) -> np.ndarray:
        if xi is None:
            xi = rng.standard_normal(self.n)
        return self.mean + np.sqrt(self.variances) * xi


@dataclass(frozen=True)
class BetaPrior:
    mean: np.ndarray
    precision: np.ndarray          # dense (q, q), includes the delta_beta^2 scaling
    chol_precision: np.ndarray     # lower Cholesky factor of the precision

    @property
    def n(self) -> int:
        return self.mean.size

    @property
    def covariance(self) -> np.ndarray:
        return sla.cho_solve((self.chol_precision, True), np.eye(self.n))

    def potential(self, beta: np.ndarray) -> float:
        d = np.asarray(beta) - self.mean
        return 0.5 * float(d @ self.precision @ d)

    def sample(self, rng: np.random.Generator, xi: np.ndarray | None = None) -> np.ndarray:
        # precision = L L^T  =>  cov factor is L^{-T}
        if xi is None:
            xi = rng.standard_normal(self.n)
        return self.mean + sla.solve_triangular(self.chol_precision, xi,
                                                lower=True, trans="T")


def build_alpha_prior(p: int, sigma_alpha2: float, s_alpha: float) -> AlphaPrior:
    """Frequency-n coefficient pairs get variance sigma_alpha2 * (n+1)^s_alpha."""
    if sigma_alpha2 <= 0:
        raise ValueError("sigma_alpha2 must be positive")
    n_freq = np.concatenate([[0], np.repeat(np.arange(1, p + 1), 2)])
    variances = sigma_alpha2 * (n_freq + 1.0) ** s_alpha
    return AlphaPrior(mean=np.zeros(2 * p + 1), variances=variances)


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


def build_beta_prior(trace: TraceMesh, delta_beta2: float, corr_l: float) -> BetaPrior:
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
    return BetaPrior(mean=np.zeros(trace.n_nodes), precision=precision,
                     chol_precision=chol)

