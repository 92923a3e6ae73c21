"""MAP estimation by Gauss-Newton with Armijo backtracking, and the local
Gaussian (Laplace) posterior approximation at the MAP point.  Gauss-Newton
reports the GN Hessian at the iterate it returns, and the Laplace covariance
is its inverse, so the MAP point is linearised once."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla


_C1 = 1e-4  # Armijo sufficient-decrease constant
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-14
# declare convergence when no decrease beyond roundoff scale is possible
# (covers restarts at an already-converged point, where a purely relative
# gradient-reduction rule can never fire again)
_STATIONARY_TOL = 1e-15


@dataclass
class GaussNewtonOptions:
    """gauss_newton's settings: exactly the keys of a config's "gn" object."""

    max_iters: int = 100
    grad_reduction: float = 1e5

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral) or isinstance(self.max_iters, bool):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if (isinstance(self.grad_reduction, bool)
                or not (math.isfinite(self.grad_reduction) and self.grad_reduction >= 1)):
            raise ValueError("grad_reduction must be a finite number of at least 1")


@dataclass
class GaussNewtonReport:
    J_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    converged: bool = False
    reason: str = ""
    n_iters: int = 0
    hessian: np.ndarray | None = None  # GN Hessian at the returned iterate

    def to_dict(self) -> dict:
        return {"J_values": [float(v) for v in self.J_values],
                "grad_norms": [float(v) for v in self.grad_norms],
                "step_sizes": [float(v) for v in self.step_sizes],
                "converged": self.converged, "reason": self.reason,
                "n_iters": self.n_iters}


@dataclass
class LaplaceApproximation:
    mean: np.ndarray
    covariance: np.ndarray
    chol_covariance: np.ndarray  # lower

    @property
    def marginal_std(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def _gn_system(problem, m: np.ndarray):
    """(J, gradient, GN Hessian) at m, or (inf, None, None) at invalid shapes."""
    J, pred, G = problem.linearize(m)
    if not np.isfinite(J):
        return np.inf, None, None
    grad = (problem.inv_noise_var * (G.T @ (pred - problem.data))
            + problem.prior_precision @ (m - problem.prior_mean))
    H = problem.inv_noise_var * (G.T @ G) + problem.prior_precision
    return J, grad, H


def gauss_newton(problem, m0: np.ndarray,
                 opts: GaussNewtonOptions | None = None):
    """Minimize the posterior potential; terminate when the gradient norm has
    dropped by opts.grad_reduction.  Returns (m_map, report), with the GN
    Hessian at m_map in report.hessian."""
    opts = opts or GaussNewtonOptions()
    m = np.asarray(m0, dtype=float).copy()
    report = GaussNewtonReport()

    J, grad, H = _gn_system(problem, m)
    if not np.isfinite(J):
        raise ValueError("initial iterate has an invalid shape")
    gnorm0 = float(np.linalg.norm(grad))
    gtol = gnorm0 / opts.grad_reduction

    for it in range(opts.max_iters + 1):
        gnorm = float(np.linalg.norm(grad))
        report.J_values.append(J)
        report.grad_norms.append(gnorm)
        if it > 0 and J_prev - J <= _STATIONARY_TOL * (1.0 + abs(J_prev)):
            report.reason = "stationary point"
            break
        if gnorm <= gtol:
            report.reason = "gradient reduction reached"
            break
        if it == opts.max_iters:
            report.reason = "iteration cap"
            break

        delta = sla.cho_solve(sla.cho_factor(H), -grad)
        slope = float(grad @ delta)
        if -slope <= _STATIONARY_TOL * (1.0 + abs(J)):
            report.reason = "stationary point"
            break

        step = 1.0
        while step >= _MIN_STEP:
            trial = m + step * delta
            J_trial = problem.potential_value(trial)
            if np.isfinite(J_trial) and J_trial <= J + _C1 * step * slope:
                break
            step *= _BACKTRACK_FACTOR
        else:  # no acceptable step down to _MIN_STEP
            report.reason = "line-search failure"
            break
        report.step_sizes.append(step)
        m = trial
        J_prev = J
        J, grad, H = _gn_system(problem, m)

    report.converged = report.reason in ("gradient reduction reached", "stationary point")
    report.n_iters = it
    report.hessian = H
    return m, report


def laplace(m_map: np.ndarray, hessian: np.ndarray) -> LaplaceApproximation:
    """Gaussian posterior approximation at m_map: covariance = inverse of the
    GN Hessian there, such as gauss_newton's report.hessian."""
    chol_H = sla.cholesky(hessian, lower=True)
    cov = sla.cho_solve((chol_H, True), np.eye(hessian.shape[0]))
    cov = 0.5 * (cov + cov.T)
    chol_cov = sla.cholesky(cov, lower=True)
    return LaplaceApproximation(mean=np.asarray(m_map, dtype=float).copy(),
                                covariance=cov, chol_covariance=chol_cov)
