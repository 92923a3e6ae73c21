"""MAP estimation by Gauss-Newton with Armijo backtracking, and the local
Gaussian (Laplace) posterior approximation at the MAP point."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla


@dataclass
class GaussNewtonOptions:
    max_iters: int = 100
    grad_reduction: float = 1e5
    c1: float = 1e-4
    backtrack_factor: float = 0.5
    min_step: float = 1e-14
    # declare convergence when no decrease beyond roundoff scale is possible
    # (covers restarts at an already-converged point, where a purely relative
    # gradient-reduction rule can never fire again)
    stationary_tol: float = 1e-15


@dataclass
class GaussNewtonReport:
    J_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    converged: bool = False
    reason: str = ""
    n_iters: int = 0

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
    dropped by opts.grad_reduction.  Returns (m_map, report)."""
    opts = opts or GaussNewtonOptions()
    m = np.asarray(m0, dtype=float).copy()
    report = GaussNewtonReport()

    J, grad, H = _gn_system(problem, m)
    if not np.isfinite(J):
        raise ValueError("initial iterate has an invalid shape")
    gnorm0 = float(np.linalg.norm(grad))
    gtol = gnorm0 / opts.grad_reduction

    for it in range(opts.max_iters):
        gnorm = float(np.linalg.norm(grad))
        report.J_values.append(J)
        report.grad_norms.append(gnorm)
        if gnorm <= gtol:
            report.converged = True
            report.reason = "gradient reduction reached"
            report.n_iters = it
            return m, report

        delta = sla.solve(H, -grad, assume_a="pos")
        slope = float(grad @ delta)
        if -slope <= opts.stationary_tol * (1.0 + abs(J)):
            report.converged = True
            report.reason = "stationary point"
            report.n_iters = it
            return m, report

        step = 1.0
        while True:
            trial = m + step * delta
            J_trial = problem.potential_value(trial)
            if np.isfinite(J_trial) and J_trial <= J + opts.c1 * step * slope:
                break
            step *= opts.backtrack_factor
            if step < opts.min_step:
                report.reason = "line-search failure"
                report.n_iters = it
                return m, report
        report.step_sizes.append(step)
        m = trial
        J_prev = J
        J, grad, H = _gn_system(problem, m)
        if J_prev - J <= opts.stationary_tol * (1.0 + abs(J_prev)):
            report.J_values.append(J)
            report.grad_norms.append(float(np.linalg.norm(grad)))
            report.converged = True
            report.reason = "stationary point"
            report.n_iters = it + 1
            return m, report

    report.J_values.append(J)
    report.grad_norms.append(float(np.linalg.norm(grad)))
    report.converged = float(np.linalg.norm(grad)) <= gtol
    report.reason = "gradient reduction reached" if report.converged else "iteration cap"
    report.n_iters = opts.max_iters
    return m, report


def laplace(problem, m_map: np.ndarray) -> LaplaceApproximation:
    """Gaussian posterior approximation: covariance = inverse GN Hessian."""
    _, _, H = _gn_system(problem, np.asarray(m_map, dtype=float))
    if H is None:
        raise ValueError("cannot build a Laplace approximation at an invalid shape")
    chol_H = sla.cholesky(H, lower=True)
    cov = sla.cho_solve((chol_H, True), np.eye(H.shape[0]))
    cov = 0.5 * (cov + cov.T)
    chol_cov = sla.cholesky(cov, lower=True)
    return LaplaceApproximation(mean=np.asarray(m_map, dtype=float).copy(),
                                covariance=cov, chol_covariance=chol_cov)
