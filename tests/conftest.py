"""Shared builders for the test suite."""
from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import settings

from robinshape import fem
from robinshape.geometry import admittance_alpha_entries_from, fourier_basis
from robinshape.inverse import Problem, top_edge_rows
from robinshape.priors import build_alpha_prior, build_beta_prior, joint_prior

# property tests draw their examples from a fixed seed and keep no example
# database, so every run checks the same examples; max_examples bounds their
# share of the suite's run time
settings.register_profile("robinshape", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("robinshape")


@dataclass(frozen=True)
class BoundaryShape:
    """Dimensionless height profile f(x1) = 1 + alpha . basis(x1)."""

    alpha: np.ndarray
    L: float = 1.0
    H: float = 0.05
    p: int = field(init=False)

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.ndim != 1 or alpha.size % 2 != 1:
            raise ValueError("alpha must be a vector of odd length 2p+1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "p", (alpha.size - 1) // 2)

    def eval(self, x1):
        """Return (f, df/dx1) at x1 (scalar or array)."""
        vals, dvals = fourier_basis(self.p, self.L, x1)
        return 1.0 + vals @ self.alpha, dvals @ self.alpha

    def min_f(self) -> float:
        f, _ = self.eval(np.linspace(0.0, self.L, 16 * (self.p + 1), endpoint=False))
        return float(np.min(f))


def small_problem(nx=24, ny=3, p=3, n_loads=4, n_sensors=16, noise_std=0.005,
                  data=None, seed=0):
    """A downsized but fully featured inverse problem for fast unit tests."""
    ws = fem.workspace(1.0, 0.05, nx, ny)
    prior = joint_prior(build_alpha_prior(p, 0.01, -1.0),
                        build_beta_prior(ws.trace, 50.0, 10.0))
    sensors = (np.arange(n_sensors) + 0.5) / n_sensors
    if data is None:
        rng = np.random.default_rng(seed)
        data = 0.01 * rng.standard_normal(n_sensors * n_loads)
    return Problem(ws=ws, p=p, prior=prior, data=data, noise_std=noise_std,
                   sensor_x1=sensors, n_loads=n_loads)


def random_valid_parameters(problem, rng, alpha_scale=0.02, beta_scale=0.3):
    """A random parameter vector whose shape is safely positive."""
    while True:
        m = np.concatenate([alpha_scale * rng.standard_normal(problem.n_alpha),
                            beta_scale * rng.standard_normal(problem.q)])
        shape = BoundaryShape(alpha=m[:problem.n_alpha], L=problem.mesh.L, H=problem.mesh.H)
        if shape.min_f() > 0.3:
            return m


def self_consistent_problem(**kwargs):
    """Problem whose data is the exact noise-free forward map of m_true."""
    rng = np.random.default_rng(kwargs.pop("seed", 3))
    prob = small_problem(data=None, seed=0, **kwargs)
    m_true = random_valid_parameters(prob, rng)
    y0 = prob.forward(m_true).y
    prob = Problem(ws=prob.ws, p=prob.p, prior=prob.prior, data=y0,
                   noise_std=prob.noise_std, sensor_x1=prob.sensor_x1,
                   n_loads=prob.n_loads)
    return prob, m_true


def dense_top_edge_derivatives(problem, system):
    """The derivatives (2E, n) of the Robin weights wq = robin * admittance
    at the top-edge points, as one dense matrix: the alpha block through the
    admittance factor, then the beta block, robin * admittance scattered by
    the hat values EDGE_PHI onto the two trace nodes top_trace of each edge.
    A reference for `inverse.top_edge_rows`, which never forms it."""
    ws, na = problem.ws, problem.n_alpha
    df_top = system.profile[1][ws.top_at]
    E = df_top.shape[0]
    D_top = np.zeros((E, 2, problem.n))
    D_top[..., :na] = ((system.robin * admittance_alpha_entries_from(df_top, problem.mesh.H))
                       [..., None] * problem.basis.dVx[ws.top_at])
    wq = system.robin * system.admittance
    for a in range(2):
        D_top[np.arange(E), :, na + ws.top_trace[:, a]] = wq * fem.EDGE_PHI[:, a]
    return D_top.reshape(2 * E, problem.n)


def per_load_jacobian(problem, m):
    """The Jacobian of `problem` at m with one volume GEMM per load: load k
    folded into one reused (n_alpha, 2, T) buffer by the two einsums, then
    contracted with the sensor adjoints' triangle gradients and added into
    the alpha rows of its columns.  A reference for `Problem.jacobian`,
    which stacks every load's fold and contracts them in one GEMM."""
    ev = problem.potential(m)
    system, ws, ops = ev.state.system, problem.ws, problem.basis
    W = system.solve(problem.B.adjoint(np.eye(problem.B.block.shape[0])))
    K, S, T, na = problem.n_loads, W.shape[1], ws.areas.size, problem.n_alpha
    UW = np.hstack([ev.state.solutions, W])
    g, t = ws.grad_op @ UW, ws.top_op @ UW
    G = top_edge_rows(ws, system, ops.dVx, t[:, :K], t[:, K:])
    D2 = ops.D2(*system.profile)
    fold = np.empty((na, 2, T))
    G_alpha, gw = G[:na].reshape(na, K, S), g[:, K:]
    for k, u in enumerate(np.ascontiguousarray(g[:, :K].T).reshape(K, 2, T)):
        np.einsum("ct,ict->it", u, ops.D1, out=fold[:, 0])
        np.einsum("ct,ict->it", u, D2, out=fold[:, 1])
        G_alpha[:, k] += fold.reshape(na, 2 * T) @ gw
    return np.negative(G.T, out=np.empty((K * S, problem.n)))


@dataclass
class LinearGaussianProblem:
    """Linear surrogate y = G m + e with Gaussian prior; same duck-typed
    surface as Problem where the optimizer needs it."""

    G: np.ndarray
    data: np.ndarray
    noise_std: float
    prior_mean: np.ndarray
    prior_precision: np.ndarray

    def __post_init__(self):
        self.n = self.prior_mean.size
        self.inv_noise_var = 1.0 / self.noise_std ** 2

    def potential_value(self, m: np.ndarray) -> float:
        r = self.data - self.G @ m
        d = m - self.prior_mean
        return 0.5 * self.inv_noise_var * float(r @ r) + 0.5 * float(d @ self.prior_precision @ d)

    def linearize(self, m: np.ndarray):
        return self.potential_value(m), self.G @ m, self.G

    def exact_posterior(self):
        """Analytic Gaussian conditioning (mean, covariance)."""
        H = self.inv_noise_var * self.G.T @ self.G + self.prior_precision
        cov = sla.inv(H)
        mean = cov @ (self.inv_noise_var * self.G.T @ self.data
                      + self.prior_precision @ self.prior_mean)
        return mean, cov


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
