import numpy as np
import pytest

from robinshape.optimize import (GaussNewtonOptions, _gn_system, gauss_newton,
                                 laplace)

from conftest import LinearGaussianProblem, self_consistent_problem, small_problem


def linear_gaussian(rng, n=12, m=30):
    G = rng.standard_normal((m, n))
    prec = np.diag(rng.uniform(0.5, 2.0, n))
    mean = rng.standard_normal(n)
    data = G @ rng.standard_normal(n) + 0.05 * rng.standard_normal(m)
    return LinearGaussianProblem(G=G, data=data, noise_std=0.05,
                                 prior_mean=mean, prior_precision=prec)


def test_linear_gaussian_one_step_exact(rng):
    prob = linear_gaussian(rng)
    mean, cov = prob.exact_posterior()
    m0 = prob.prior_mean + rng.standard_normal(prob.n)
    m_map, report = gauss_newton(prob, m0)
    scale = np.max(np.abs(mean))
    np.testing.assert_allclose(m_map, mean, atol=1e-10 * scale)
    assert report.converged
    assert report.n_iters <= 2  # one GN step plus the terminating check

    lap = laplace(m_map, report.hessian)
    np.testing.assert_allclose(lap.covariance, cov, atol=1e-10)
    np.testing.assert_allclose(lap.chol_covariance @ lap.chol_covariance.T,
                               cov, atol=1e-10)


def test_zero_jacobian_returns_prior(rng):
    prob = linear_gaussian(rng)
    prob.G = np.zeros_like(prob.G)
    lap = laplace(prob.prior_mean, _gn_system(prob, prob.prior_mean)[2])
    np.testing.assert_allclose(lap.covariance,
                               np.linalg.inv(prob.prior_precision), atol=1e-12)


def test_posterior_never_wider_than_prior(rng):
    prob = linear_gaussian(rng)
    lap = laplace(prob.prior_mean, _gn_system(prob, prob.prior_mean)[2])
    prior_cov = np.linalg.inv(prob.prior_precision)
    assert np.all(np.diag(lap.covariance) <= np.diag(prior_cov) + 1e-12)
    # precision gap is PSD
    gap = np.linalg.inv(lap.covariance) - prob.prior_precision
    assert np.min(np.linalg.eigvalsh(0.5 * (gap + gap.T))) >= -1e-8


def test_nonlinear_descent_and_convergence():
    prob, _ = self_consistent_problem()
    m_map, report = gauss_newton(prob, prob.prior_mean)
    assert report.converged
    assert report.reason == "gradient reduction reached"
    Js = report.J_values
    assert all(a >= b - 1e-12 for a, b in zip(Js, Js[1:]))
    assert report.grad_norms[-1] <= report.grad_norms[0] / 1e5


def recentered_problem():
    """Noise-free data with the prior centered at the truth: the posterior
    potential has an exact zero at m_true."""
    import dataclasses
    from robinshape.inverse import Problem
    prob, m_true = self_consistent_problem()
    prior = dataclasses.replace(prob.prior, mean=m_true)
    prob2 = Problem(ws=prob.ws, p=prob.p, prior=prior, data=prob.data,
                    noise_std=prob.noise_std, sensor_x1=prob.sensor_x1,
                    n_loads=prob.n_loads)
    return prob2, m_true


def test_start_at_minimizer_stops_immediately():
    prob, m_true = recentered_problem()
    _, report = gauss_newton(prob, m_true)
    assert report.converged and report.n_iters <= 1


def test_restart_at_map_converges_cheaply():
    prob, _ = self_consistent_problem()
    m_map, first = gauss_newton(prob, prob.prior_mean)
    m2, report = gauss_newton(prob, m_map)
    assert first.converged and report.converged
    assert report.n_iters <= 10  # stalls at roundoff instead of iterating to cap
    # refines, never worsens, and stays near the first answer
    assert report.J_values[-1] <= first.J_values[-1] + 1e-12
    np.testing.assert_allclose(m2, m_map, atol=1e-2)


def test_map_recovers_truth_when_prior_centered_there():
    prob2, m_true = recentered_problem()
    m_map, report = gauss_newton(prob2, prob2.prior_mean)
    assert report.converged
    np.testing.assert_allclose(m_map, m_true, atol=1e-6)


def test_line_search_failure_reported():
    class Inconsistent:
        """Reports an ascent direction as the gradient: Armijo cannot hold."""

        n = 2
        inv_noise_var = 1.0
        data = np.zeros(2)
        prior_mean = np.zeros(2)
        prior_precision = np.zeros((2, 2))

        def potential_value(self, m):
            return 1.0 + float(m @ m)

        def linearize(self, m):
            # true gradient is 2m; report -3m, an ascent direction
            return self.potential_value(m), -3.0 * np.asarray(m), np.eye(2)

    m, report = gauss_newton(Inconsistent(), np.array([1.0, 1.0]))
    assert not report.converged
    assert report.reason == "line-search failure"


def test_backtracking_rejects_invalid_shapes():
    # a huge noise-free residual forces a large first GN step; the optimizer
    # must backtrack through invalid trial shapes rather than crash
    prob, m_true = self_consistent_problem()
    prob.data = prob.data + 5.0
    m_map, report = gauss_newton(prob, prob.prior_mean,
                                 GaussNewtonOptions(max_iters=30))
    assert np.all(np.isfinite(m_map))
