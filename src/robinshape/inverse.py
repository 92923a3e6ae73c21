"""Posterior potential, adjoint gradient, and sensitivity Jacobian.

The parameter vector stacks the Fourier block (length 2p+1) and the nodal
log-admittance block (length q).  One assembly and one factorization per
evaluation are shared by the forward and adjoint solves.  The gradient and
the Jacobian pull products of forward and adjoint solutions back through the
derivative of the system matrix by two independent reductions:

- the gradient is the discrete adjoint of the assembly: each load's solution
  times its residual adjoint, summed over loads on the band of the system,
  goes back to the assembly coefficients through the transpose of
  `FemWorkspace.K` and from there to the parameters;
- the Jacobian folds each load's solution into the derivative of the
  assembly coefficients on the elements, as (n_alpha, 2, T) with the
  triangle axis innermost on the volume and (2E, n) on the top edge, and
  contracts the folds with the n_sensors sensor adjoints (32 solves at the
  default size, where the direct sensitivity method needed n * n_loads =
  744) in two GEMMs per load.

The gradient has one load-summed pair, the Jacobian 32 pairs per load.  On a
2-core VM with one BLAS thread the band transpose took the desk gradient
from 0.73-1.04 ms to 0.45-0.68 ms, but a desk Jacobian through it (256 band
vectors) took 16 ms against 5-7 ms on the elements.  So each keeps its
own reduction, and the gradient/Jacobian agreement check (acceptance
criterion 3) compares two independent ones.  The shape reaches both only as
the profile (f, df) kept by the assembly: the pointwise derivatives of the
tensor and the admittance factor in (f, df) are pulled back to the Fourier
coefficients through the basis cached at the slab's abscissae.

`Problem` works on a shared per-mesh `fem.FemWorkspace` and keeps its last
evaluation of the potential, keyed by a copy of the parameter vector: the
Gauss-Newton line search evaluates the point it accepts, and linearising
there reuses that assembly, factorization and forward solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


class Problem:
    """Inverse problem context on a fixed inversion mesh.

    Exposes potential / gradient / Jacobian of
    J(m) = 0.5 |y - G(m)|^2 / delta_e^2 + prior potential.
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
        self.B = fem.bottom_interpolator(self.ws, self.sensor_x1)
        self.BT = self.B.T.tocsr()
        self.m_obs = self.sensor_x1.size * self.n_loads
        if self.data.shape != (self.m_obs,):
            raise ValueError("data length does not match sensors x loads")
        self.loads = fem.all_loads(self.ws, self.n_loads)
        # Fourier basis cached at the distinct quadrature abscissae, so each
        # evaluation of f and df reduces to a matrix-vector product; Vq, dVq
        # and dVt are its gathers onto the volume and top-edge points
        self.Vx, self.dVx = fourier_basis(p, self.mesh.L, self.ws.x1)
        self.Vq, self.dVq = self.Vx[self.ws.vol_at], self.dVx[self.ws.vol_at]
        self.dVt = self.dVx[self.ws.top_at]
        # shape-independent pieces of the volume alpha-derivative sums:
        # the s11 derivative is the basis itself and the s12 derivative is
        # -x2 * basis', so their quadrature-weighted sums are constant
        x2q = self.ws.quad_pts[..., 1]
        self.wg = np.broadcast_to(self.ws.areas[:, None] / 3.0, x2q.shape)
        self.D11t = np.einsum("tg,tgi->it", self.wg, self.Vq, order="C")
        self.D12t = -np.einsum("tg,tgi->it", self.wg * x2q, self.dVq, order="C")
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
        system = fem.assemble(self.ws, (1.0 + self.Vx @ alpha, self.dVx @ alpha), beta)
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

        The discrete adjoint of `fem._factor`: the load-summed pair products
        on the band, mapped to the coefficients c = [S11, S12, S22, wq] by the
        transpose of the assembly operator, then pulled back to the
        parameters.  The s22 and Robin sensitivities are first reduced onto
        the distinct abscissae ws.x1, where the Fourier basis is cached."""
        ev = self.potential(m)
        if not np.isfinite(ev.J):
            raise InvalidShapeError("cannot differentiate at an invalid shape")
        system, ws = ev.state.system, self.ws
        r = (self.data - ev.state.y).reshape(self.n_loads, -1)  # (loads, sensors)
        V = system.solve(self.inv_noise_var * (self.BT @ r.T))
        z = ws.KT @ ws.band_pairs(ev.state.solutions, V)
        T, nx = ws.areas.size, ws.x1.size
        z22 = self.wg * z[2 * T:3 * T, None]
        zq = system.robin * z[3 * T:].reshape(-1, 2)
        f_vol, df_vol, df_top = system.profile
        a, b = pushforward_alpha_entries_from(f_vol, df_vol, ws.quad_pts[..., 1])
        slope = (np.bincount(ws.vol_at.ravel(), (z22 * b).ravel(), nx)
                 + np.bincount(ws.top_at.ravel(), (zq * admittance_alpha_entries_from(
                     df_top, self.mesh.H)).ravel(), nx))
        g_alpha = (self.D11t @ z[:T] + self.D12t @ z[T:2 * T]
                   + np.bincount(ws.vol_at.ravel(), (z22 * a).ravel(), nx) @ self.Vx
                   + slope @ self.dVx)
        g_beta = ((zq * admittance_factor_from(df_top, self.mesh.H)).ravel()
                  @ ws.hat_t.reshape(-1, self.q))
        return (np.concatenate([g_alpha, g_beta])
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
        sensor s: n_sensors solves with the forward factorization.  Load k
        is folded into the coefficient derivatives, (dS/dalpha) grad(u_k)
        per triangle as (n_alpha, 2, T) with the triangle axis innermost and
        u_k dq/dm per top-edge point as (2E, n), and two GEMMs contract the
        folds with the stacked gradients (2T, n_sensors) and the top-edge
        values (2E, n_sensors) of every sensor adjoint, giving the rows of
        load k.  Folding one load at a time keeps every temporary at one
        load's share, so the transient memory stays small and is reused.
        """
        ev = self.potential(m)
        if not np.isfinite(ev.J):
            raise InvalidShapeError("cannot linearize at an invalid shape")
        system = ev.state.system
        W = system.solve(self.BT.toarray())  # (n_free, sensors)
        gu, tu = self._element_values(ev.state.solutions)
        gw, tw = self._element_values(W)
        K, S, T, na = gu.shape[1], gw.shape[1], self.ws.areas.size, self.n_alpha
        f_vol, df_vol, df_top = system.profile
        # volume part, alpha only: grad(w) . (dS/dalpha) grad(u).  s22
        # depends on alpha through f and df: ds22/dalpha = a * basis + b * basis'
        a, b = pushforward_alpha_entries_from(f_vol, df_vol, self.ws.quad_pts[..., 1])
        D22 = np.einsum("tg,tgi->it", self.wg * a, self.Vq, order="C")
        D22 += np.einsum("tg,tgi->it", self.wg * b, self.dVq, order="C")
        # boundary part: exp(beta) times the admittance factor, differentiated
        # in alpha through the factor and in beta through the trace hat functions
        D_top = np.concatenate([
            (system.robin * admittance_alpha_entries_from(df_top, self.mesh.H))[..., None] * self.dVt,
            (system.robin * admittance_factor_from(df_top, self.mesh.H))[..., None] * self.ws.hat_t],
            axis=2).reshape(-1, self.n)
        # one load at a time, so that every temporary is one load's share
        # and the fold buffer is reused: fold[i, c] = (dS/dalpha_i) grad(u_k),
        # component c, with the triangle axis innermost
        G = np.empty((K, S, self.n))
        fold = np.empty((na, 2, T))
        for k, (ux, uy) in enumerate(np.ascontiguousarray(gu.T).reshape(K, 2, 1, T)):
            fold[:, 0] = ux * self.D11t + uy * self.D12t
            fold[:, 1] = ux * self.D12t + uy * D22
            G[k] = tw.T @ (tu[:, k, None] * D_top)
            G[k, :, :na] += (fold.reshape(na, 2 * T) @ gw).T
        return -G.reshape(K * S, self.n)

    def linearize(self, m: np.ndarray):
        """(J, predicted observations, Jacobian) in one evaluation."""
        ev = self.potential(m)
        if not np.isfinite(ev.J):
            return np.inf, None, None
        return ev.J, ev.state.y, self.jacobian(m)

