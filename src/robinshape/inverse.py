"""Posterior potential, adjoint gradient, and sensitivity Jacobian.

The parameter vector stacks the Fourier block (length 2p+1) and the nodal
log-admittance block (length q).  One assembly and one factorization per
evaluation are shared by the forward and adjoint solves.  The gradient and
the Jacobian pull products of forward and adjoint solutions back through the
derivative of the system matrix by two independent reductions:

- the gradient is the exact transpose of the assembly: each load's
  solution times its residual adjoint, summed over loads on the band of the
  system, goes back to the assembly features [f, df, 1/f, df^2/f, wq]
  through the transpose of the fused operator `FemWorkspace.F`, then by the
  chain rule to the profile on the slab's abscissae, where the Fourier basis
  is cached, and through the interpolation of beta to the top-edge points;
- the Jacobian folds each load's solution into the derivative of the
  assembly coefficients on the elements, as (n_alpha, 2, T) with the
  triangle axis innermost on the volume, and contracts the folds with the
  n_sensors sensor adjoints (32 solves at the default size, where the direct
  sensitivity method needed n * n_loads = 744) in one GEMM per load; the top
  edge takes one GEMM for all loads.

The gradient has one load-summed pair, the Jacobian 32 pairs per load.  On a
2-core VM with one BLAS thread a band transpose took the desk gradient
from 0.73-1.04 ms to 0.45-0.68 ms, but a desk Jacobian through it (256 band
vectors) took 16 ms against 5-7 ms on the elements.  So each keeps its
own reduction, and the gradient/Jacobian agreement check (acceptance
criterion 3) compares two independent ones.  The shape reaches both only as
the profile (f, df) on the abscissae kept by the assembly, and both take the
volume quadrature from `fem`: the gradient through F's transpose, the
Jacobian as products of the quadrature operator M's blocks with the basis
times the features' partials on the abscissae, the same partials as the
gradient's chain rule (`FourierOperators`).  Only the admittance derivative
is taken pointwise, at the top-edge points.

`Problem` works on a shared per-mesh `fem.FemWorkspace`, reads the loads,
the sensor operator and the `FourierOperators` of its configuration from the
workspace's read-only caches, and keeps its last evaluation of the
potential, keyed by a copy of the parameter vector: the Gauss-Newton line
search evaluates the point it accepts, and linearising there reuses that
assembly, factorization and forward solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
# pushforward_alpha_entries_from stays importable from this module: the
# Jacobian takes the s22 partials from the quadrature operator, and
# perfbench/tracer.py wraps inverse.pushforward_alpha_entries_from by name
from .geometry import (InvalidShapeError,  # noqa: F401
                       admittance_alpha_entries_from, fourier_basis,
                       pushforward_alpha_entries_from)
from .priors import GaussianPrior


@dataclass
class PotentialEvaluation:
    """J = misfit + prior at a point, with the forward state and the prior's
    gradient prior_precision @ (m - prior_mean), which the potential forms on
    the way; both are None at an invalid point."""

    J: float
    misfit: float
    prior: float
    state: fem.ForwardState | None = None
    prior_grad: np.ndarray | None = None


@dataclass
class FourierOperators:
    """The profile's Fourier basis on a workspace, shared read-only by every
    problem with the same p (`fourier_operators`).

    Vx and dVx are the basis and its derivative at the abscissae ws.x1, Vs
    the basis at the trace nodes.  The Jacobian's volume alpha-derivatives
    are the volume quadrature M (`fem.FemWorkspace.quadrature_operator`)
    times the features' partials times the basis: D11t and D12t (n_alpha, T)
    of S11 and S12 are constant, and that of S22 is formed per call from
    M22, M's S22 block over the [1/f, df^2/f] columns."""

    Vx: np.ndarray
    dVx: np.ndarray
    Vs: np.ndarray
    D11t: np.ndarray
    D12t: np.ndarray
    M22: sp.csr_matrix

    def s22_derivative(self, f: np.ndarray, df: np.ndarray) -> np.ndarray:
        """(n_alpha, T): the alpha-derivative of S22 at the profile (f, df),
        M22 times the partials of 1/f and df^2/f, as in the gradient."""
        inv_f = 1.0 / f
        a = -inv_f * inv_f
        return np.ascontiguousarray((self.M22 @ np.concatenate([
            a[:, None] * self.Vx,
            (a * df * df)[:, None] * self.Vx + (2.0 * df * inv_f)[:, None] * self.dVx])).T)


def fourier_operators(ws: fem.FemWorkspace, p: int) -> FourierOperators:
    """The FourierOperators of order p on ws, built once per workspace."""
    def build():
        nx, T = ws.x1.size, ws.areas.size
        Vx, dVx = fourier_basis(p, ws.mesh.L, ws.x1)
        M = ws.quadrature_operator()
        return FourierOperators(
            Vx=Vx, dVx=dVx, Vs=fourier_basis(p, ws.mesh.L, ws.trace.s)[0],
            D11t=np.ascontiguousarray((M[:T, :nx] @ Vx).T),
            D12t=np.ascontiguousarray((M[T:2 * T, nx:2 * nx] @ dVx).T),
            M22=M[2 * T:, 2 * nx:])
    return ws.memo(("fourier", p), build)


def top_edge_rows(tu: np.ndarray, tw: np.ndarray, D_top: np.ndarray) -> np.ndarray:
    """(K, S, n): entry (k, s) is sum_e tu[e, k] tw[e, s] D_top[e] over the
    top-edge points e, for the point values tu (2E, K) of the loads' solutions
    and tw (2E, S) of the sensor adjoints; one GEMM for every pair."""
    pairs = np.multiply(tu.T[:, None, :], tw.T[None, :, :])
    return (pairs.reshape(-1, tu.shape[0]) @ D_top).reshape(tu.shape[1], tw.shape[1], -1)


class Problem:
    """Inverse problem context on a fixed inversion mesh.

    Exposes potential / gradient / Jacobian of
    J(m) = 0.5 |y - G(m)|^2 / delta_e^2 + prior potential.

    Everything that does not depend on the data (loads, sensor operator,
    Fourier operators, and the prior, which the caller passes in) is shared
    read-only between the problems of one configuration; a problem holds the
    data, the noise level and its kept evaluation.
    """

    def __init__(self, ws: fem.FemWorkspace, p: int, prior: GaussianPrior,
                 data: np.ndarray, noise_std: float, sensor_x1: np.ndarray,
                 n_loads: int):
        self.ws = ws
        self.mesh = ws.mesh
        self.trace = self.ws.trace
        self.p = p
        self.n_alpha = 2 * p + 1
        self.q = self.trace.n_nodes
        self.n = self.n_alpha + self.q
        if prior.mean.shape != (self.n,):
            raise ValueError(f"prior must be over {self.n} parameters")
        self.prior = prior
        self.prior_mean = prior.mean
        self.prior_precision = prior.precision
        self.data = np.asarray(data, dtype=float)
        self.noise_std = float(noise_std)
        if not self.noise_std > 0.0:
            raise ValueError(f"noise level must be positive, got {self.noise_std!r}")
        self.inv_noise_var = 1.0 / self.noise_std ** 2
        self.sensor_x1 = np.asarray(sensor_x1, dtype=float)
        self.n_loads = int(n_loads)
        self.B = ws.sensor_operator(self.sensor_x1)
        self.m_obs = self.sensor_x1.size * self.n_loads
        if self.data.shape != (self.m_obs,):
            raise ValueError("data length does not match sensors x loads")
        self.loads = ws.loads(self.n_loads)
        self.basis = fourier_operators(ws, p)
        self._kept = None  # (copy of m, its PotentialEvaluation)

    # -- parameter layout ---------------------------------------------------

    def split(self, m: np.ndarray):
        m = np.asarray(m, dtype=float)
        if m.shape != (self.n,):
            raise ValueError(f"parameter vector must have length {self.n}")
        return m[:self.n_alpha], m[self.n_alpha:]

    # -- forward machinery --------------------------------------------------

    def forward(self, m: np.ndarray) -> fem.ForwardState:
        """Assemble, solve all loads, observe.  Raises InvalidShapeError or
        fem.SolverError."""
        alpha, beta = self.split(m)
        system = fem.assemble(self.ws, (1.0 + self.basis.Vx @ alpha, self.basis.dVx @ alpha),
                              beta)
        return fem.forward(system, self.loads, self.B)

    def potential(self, m: np.ndarray) -> PotentialEvaluation:
        """Evaluate J at m.  The last evaluation is kept, keyed by a copy of
        m, and returned again for an equal m: Gauss-Newton linearises at the
        point its line search has just evaluated and accepted."""
        if self._kept is not None and np.array_equal(m, self._kept[0]):
            return self._kept[1]
        m = np.array(m, dtype=float)
        try:
            if not np.isfinite(m).all():  # rejected before anything is assembled
                raise InvalidShapeError("parameters are not finite")
            state = self.forward(m)
        except (InvalidShapeError, fem.SolverError):
            ev = PotentialEvaluation(J=np.inf, misfit=np.inf, prior=np.nan)
        else:
            r = self.data - state.y
            misfit = 0.5 * self.inv_noise_var * float(r @ r)
            d = m - self.prior_mean
            prior_grad = self.prior_precision @ d
            prior = 0.5 * float(d @ prior_grad)
            ev = PotentialEvaluation(J=misfit + prior, misfit=misfit, prior=prior,
                                     state=state, prior_grad=prior_grad)
        self._kept = (m, ev)
        return ev

    def potential_value(self, m: np.ndarray) -> float:
        return self.potential(m).J

    # -- sensitivities ------------------------------------------------------

    def gradient(self, m: np.ndarray) -> np.ndarray:
        """Full gradient of J: sum_l v_l^T (dA/dm) u_l over the forward
        solutions u_l and their residual adjoints v_l, plus the prior.

        The exact transpose of `fem.assemble`: the load-summed pair products
        on the band, mapped to the features [f, df, 1/f, df^2/f, wq] by the
        transpose of the fused operator, then the chain rule on the
        abscissae ws.x1, where the Fourier basis is cached, and through the
        interpolation of beta onto the top-edge points.  1/f, the admittance
        factor and the prior's gradient are read from the kept evaluation."""
        ev = self.potential(m)
        if not np.isfinite(ev.J):
            raise InvalidShapeError("cannot differentiate at an invalid shape")
        system, ws = ev.state.system, self.ws
        r = (self.data - ev.state.y).reshape(self.n_loads, -1)  # (loads, sensors)
        V = system.solve(self.inv_noise_var * self.B.adjoint(r.T))
        z = ws.FT @ ws.band_pairs(ev.state.solutions, V)
        nx = ws.x1.size
        z_f, z_df, z_inv, z_sq = z[:4 * nx].reshape(4, nx)
        z_wr = z[4 * nx:].reshape(ws.top_at.shape) * system.robin
        _, df = system.profile
        inv_f = system.inv_f
        # sensitivities to f and df on the abscissae: the volume features
        # f, df, 1/f and df^2/f, then wq = robin * admittance(df) at the
        # top-edge points, each of which has an abscissa of its own
        g_f = z_f - (z_inv + z_sq * df * df) * inv_f * inv_f
        g_df = z_df + 2.0 * z_sq * df * inv_f
        g_df[ws.top_at] += z_wr * admittance_alpha_entries_from(df[ws.top_at], self.mesh.H)
        # beta through its interpolation onto the top-edge points, back to
        # the two trace nodes at the ends of each edge
        g_beta = np.bincount(ws.top_trace.ravel(),
                             ((z_wr * system.admittance) @ fem.EDGE_PHI).ravel(), minlength=self.q)
        return (np.concatenate([g_f @ self.basis.Vx + g_df @ self.basis.dVx, g_beta])
                + ev.prior_grad)

    def potential_and_gradient(self, m: np.ndarray):
        """(J, grad) with grad None when the shape is invalid (MALA target)."""
        ev = self.potential(m)
        if not np.isfinite(ev.J):
            return np.inf, None
        return ev.J, self.gradient(m)

    def jacobian(self, m: np.ndarray) -> np.ndarray:
        """Dense (m_obs, n) Jacobian of the observation map.

        Row (k, s) is -w_s^T (dA/dm) u_k with w_s = A^-1 B^T e_s the adjoint of
        sensor s: n_sensors solves with the forward factorization.  The top
        edge contributes u_k w_s dq/dm at each top-edge point, so one GEMM
        contracts the point products of every (load, sensor adjoint) pair
        (K S, 2E) with the admittance derivatives D_top (2E, n).  On the
        volume, load k is folded into the coefficient derivatives,
        (dS/dalpha) grad(u_k) per triangle as (n_alpha, 2, T) with the
        triangle axis innermost, and one GEMM per load contracts the fold
        with the stacked gradients (2T, n_sensors) of the sensor adjoints.
        The fold is written in place, one load at a time, so the transient
        memory stays at one load's share.
        """
        ev = self.potential(m)
        if not np.isfinite(ev.J):
            raise InvalidShapeError("cannot linearize at an invalid shape")
        system, ws, ops = ev.state.system, self.ws, self.basis
        W = system.solve(self.B.adjoint(np.eye(self.B.block.shape[0])))  # (n_free, sensors)
        # triangle gradients (2T, k), x1 then x2, and top-edge point values (2E, k)
        gu, tu = ws.grad_op @ ev.state.solutions, ws.top_op @ ev.state.solutions
        gw, tw = ws.grad_op @ W, ws.top_op @ W
        K, S, T, na = gu.shape[1], gw.shape[1], ws.areas.size, self.n_alpha
        f, df = system.profile
        df_top = df[ws.top_at]
        # volume part, alpha only: grad(w) . (dS/dalpha) grad(u), with the
        # constant D11t and D12t and the shape-dependent D22
        D22 = ops.s22_derivative(f, df)
        # boundary part: exp(beta) times the admittance factor, differentiated
        # in alpha through the factor and in beta through the trace hat
        # functions, EDGE_PHI at the two trace nodes of each top edge
        E = df_top.shape[0]
        D_top = np.zeros((E, 2, self.n))
        D_top[..., :na] = ((system.robin * admittance_alpha_entries_from(df_top, self.mesh.H))
                           [..., None] * ops.dVx[ws.top_at])
        wq = system.robin * system.admittance
        for a in range(2):
            D_top[np.arange(E), :, na + ws.top_trace[:, a]] = wq * fem.EDGE_PHI[:, a]
        G = top_edge_rows(tu, tw, D_top.reshape(2 * E, self.n))
        # fold[i, c] = (dS/dalpha_i) grad(u_k), component c, with the
        # triangle axis innermost
        fold = np.empty((na, 2, T))
        part = np.empty((na, T))
        for k, (ux, uy) in enumerate(np.ascontiguousarray(gu.T).reshape(K, 2, 1, T)):
            np.multiply(ux, ops.D11t, out=fold[:, 0])
            fold[:, 0] += np.multiply(uy, ops.D12t, out=part)
            np.multiply(ux, ops.D12t, out=fold[:, 1])
            fold[:, 1] += np.multiply(uy, D22, out=part)
            G[k, :, :na] += (fold.reshape(na, 2 * T) @ gw).T
        return np.negative(G, out=G).reshape(K * S, self.n)

    def linearize(self, m: np.ndarray):
        """(J, predicted observations, Jacobian) in one evaluation."""
        ev = self.potential(m)
        if not np.isfinite(ev.J):
            return np.inf, None, None
        return ev.J, ev.state.y, self.jacobian(m)

