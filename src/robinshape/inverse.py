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
the profile (f, df) on the abscissae kept by the assembly; the Jacobian
gathers it onto the quadrature points and pulls the pointwise derivatives of
the tensor and the admittance factor back through the basis gathered there.

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
from .geometry import (InvalidShapeError,
                       admittance_alpha_entries_from, admittance_factor_from,
                       fourier_basis, pushforward_alpha_entries_from)
from .priors import GaussianPrior


@dataclass
class PotentialEvaluation:
    J: float
    misfit: float
    prior: float
    state: fem.ForwardState | None = None


@dataclass
class FourierOperators:
    """The profile's Fourier basis on a workspace, shared read-only by every
    problem with the same p (`fourier_operators`).

    Vx and dVx are the basis and its derivative at the abscissae ws.x1, and
    Vb = [Vx; dVx] stacks them; dVt gathers dVx onto the top-edge points.
    D11t and D12t are the Jacobian's volume alpha-derivative sums of s11 and
    s12, which do not depend on the shape: the s11 derivative is the basis
    itself and the s12 derivative is -x2 * basis', quadrature-weighted and
    summed per triangle.  The s22 sums do depend on it, and the Jacobian
    forms them as Q @ Vb with the sparse quadrature-sum matrix Q (T, 2 nx),
    whose fixed pattern (q_indices, q_indptr) puts the weights wg * a and
    wg * b of triangle t's points on their abscissae in Vx and dVx."""

    Vx: np.ndarray
    dVx: np.ndarray
    Vb: np.ndarray
    dVt: np.ndarray
    wg: np.ndarray
    D11t: np.ndarray
    D12t: np.ndarray
    q_indices: np.ndarray
    q_indptr: np.ndarray

    def s22_sums(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(n_alpha, T): sum over the points g of triangle t of
        wg (a Vx + b dVx) at g's abscissa, for the pointwise partials a, b
        (T, 3) of s22 in f and df; one sparse product Q @ Vb."""
        T = self.wg.shape[0]
        q = np.empty((T, 6))
        np.multiply(self.wg, a, out=q[:, :3])
        np.multiply(self.wg, b, out=q[:, 3:])
        Q = sp.csr_matrix((q.ravel(), self.q_indices, self.q_indptr), shape=(T, self.Vb.shape[0]))
        return np.ascontiguousarray((Q @ self.Vb).T)


def fourier_operators(ws: fem.FemWorkspace, p: int) -> FourierOperators:
    """The FourierOperators of order p on ws, built once per workspace."""
    def build():
        nx, T = ws.x1.size, ws.areas.size
        Vx, dVx = fourier_basis(p, ws.mesh.L, ws.x1)
        x2q = ws.quad_pts[..., 1]
        wg = np.broadcast_to(ws.areas[:, None] / 3.0, x2q.shape)
        return FourierOperators(
            Vx=Vx, dVx=dVx, Vb=np.concatenate([Vx, dVx]), dVt=dVx[ws.top_at], wg=wg,
            D11t=np.einsum("tg,tgi->it", wg, Vx[ws.vol_at], order="C"),
            D12t=-np.einsum("tg,tgi->it", wg * x2q, dVx[ws.vol_at], order="C"),
            q_indices=np.concatenate([ws.vol_at, nx + ws.vol_at], axis=1).ravel().astype(np.int32),
            q_indptr=np.arange(0, 6 * T + 1, 6, dtype=np.int32))
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
        # BT, a column-major view, is also the Jacobian's sensor right-hand sides
        self.B = ws.sensor_operator(self.sensor_x1, dense=True)
        self.BT = self.B.T
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
            state = self.forward(m)
        except (InvalidShapeError, fem.SolverError):
            ev = PotentialEvaluation(J=np.inf, misfit=np.inf, prior=np.nan)
        else:
            r = self.data - state.y
            misfit = 0.5 * self.inv_noise_var * float(r @ r)
            prior = self.prior.potential(m)
            ev = PotentialEvaluation(J=misfit + prior, misfit=misfit, prior=prior,
                                     state=state)
        self._kept = (m, ev)
        return ev

    def potential_value(self, m: np.ndarray) -> float:
        return self.potential(m).J

    # -- sensitivities ------------------------------------------------------

    def _element_values(self, X: np.ndarray):
        """Stacked triangle gradients (2T, k), x1 then x2 component, and
        top-edge point values (2E, k) of the free-node columns X."""
        return self.ws.grad_op @ X, self.ws.top_op @ X

    def gradient(self, m: np.ndarray) -> np.ndarray:
        """Full gradient of J: sum_l v_l^T (dA/dm) u_l over the forward
        solutions u_l and their residual adjoints v_l, plus the prior.

        The exact transpose of `fem.assemble`: the load-summed pair products
        on the band, mapped to the features [f, df, 1/f, df^2/f, wq] by the
        transpose of the fused operator, then the chain rule on the
        abscissae ws.x1, where the Fourier basis is cached, and through the
        interpolation of beta onto the top-edge points."""
        ev = self.potential(m)
        if not np.isfinite(ev.J):
            raise InvalidShapeError("cannot differentiate at an invalid shape")
        system, ws = ev.state.system, self.ws
        r = (self.data - ev.state.y).reshape(self.n_loads, -1)  # (loads, sensors)
        V = system.solve(self.inv_noise_var * (self.BT @ r.T))
        z = ws.FT @ ws.band_pairs(ev.state.solutions, V)
        nx = ws.x1.size
        z_f, z_df, z_inv, z_sq = z[:4 * nx].reshape(4, nx)
        z_w = z[4 * nx:].reshape(ws.top_at.shape)
        f, df = system.profile
        inv_f = 1.0 / f
        df_top = df[ws.top_at]
        # sensitivities to f and df on the abscissae: the volume features
        # f, df, 1/f and df^2/f, then wq = robin * admittance(df) at the
        # top-edge points, each of which has an abscissa of its own
        g_f = z_f - (z_inv + z_sq * df * df) * inv_f * inv_f
        g_df = z_df + 2.0 * z_sq * df * inv_f
        g_df[ws.top_at] += z_w * system.robin * admittance_alpha_entries_from(df_top, self.mesh.H)
        g_beta = (z_w * system.robin * admittance_factor_from(df_top, self.mesh.H)).ravel()
        return (np.concatenate([g_f @ self.basis.Vx + g_df @ self.basis.dVx,
                                g_beta @ ws.top_interp])
                + self.prior_precision @ (m - self.prior_mean))

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
        W = system.solve(self.BT)  # (n_free, sensors)
        gu, tu = self._element_values(ev.state.solutions)
        gw, tw = self._element_values(W)
        K, S, T, na = gu.shape[1], gw.shape[1], ws.areas.size, self.n_alpha
        f, df = system.profile
        f_vol, df_vol, df_top = f[ws.vol_at], df[ws.vol_at], df[ws.top_at]
        # volume part, alpha only: grad(w) . (dS/dalpha) grad(u).  s22
        # depends on alpha through f and df: ds22/dalpha = a * basis + b * basis',
        # summed per triangle by the quadrature-sum matrix Q over [Vx; dVx]
        D22 = ops.s22_sums(*pushforward_alpha_entries_from(f_vol, df_vol, ws.quad_pts[..., 1]))
        # boundary part: exp(beta) times the admittance factor, differentiated
        # in alpha through the factor and in beta through the trace hat functions
        D_top = np.concatenate([
            (system.robin * admittance_alpha_entries_from(df_top, self.mesh.H))[..., None] * ops.dVt,
            (system.robin * admittance_factor_from(df_top, self.mesh.H))[..., None]
            * ws.top_interp.reshape(*df_top.shape, self.q)],
            axis=2).reshape(-1, self.n)
        G = top_edge_rows(tu, tw, D_top)
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

