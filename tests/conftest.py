"""Shared builders for the test suite."""
import numpy as np
import pytest

from robinshape import build_alpha_prior, build_beta_prior, build_slab_mesh, joint_prior
from robinshape import fem
from robinshape.geometry import BoundaryShape
from robinshape.inverse import Problem
from robinshape.mesh import trace_of_top


def small_problem(nx=24, ny=3, p=3, n_loads=4, n_sensors=16, noise_std=0.005,
                  data=None, seed=0):
    """A downsized but fully featured inverse problem for fast unit tests."""
    mesh = build_slab_mesh(1.0, 0.05, nx, ny)
    trace = trace_of_top(mesh)
    prior = joint_prior(build_alpha_prior(p, 0.01, -1.0),
                        build_beta_prior(trace, 50.0, 10.0))
    sensors = (np.arange(n_sensors) + 0.5) / n_sensors
    if data is None:
        rng = np.random.default_rng(seed)
        data = 0.01 * rng.standard_normal(n_sensors * n_loads)
    return Problem(mesh=mesh, p=p, prior=prior, data=data, noise_std=noise_std,
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
    prob = Problem(mesh=prob.mesh, p=prob.p, prior=prob.prior, data=y0,
                   noise_std=prob.noise_std, sensor_x1=prob.sensor_x1,
                   n_loads=prob.n_loads)
    return prob, m_true


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
