import numpy as np
import pytest
import scipy.linalg as sla

from robinshape.mesh import build_slab_mesh, trace_of_top
from robinshape.priors import (build_alpha_prior, build_beta_prior,
                               joint_prior, trace_fem_matrices)


def make_trace(nx=77):
    return trace_of_top(build_slab_mesh(1.0, 0.05, nx, 2))


def variances(prior):
    """Marginal variances of a prior with diagonal precision."""
    return 1.0 / np.diag(prior.precision)


def test_alpha_variance_spectrum():
    prior = build_alpha_prior(7, 0.01, -1.0)
    var = variances(prior)
    assert var.size == 15
    assert var[0] == 0.01
    np.testing.assert_allclose(var[1:3], 0.005)
    np.testing.assert_allclose(var[13:15], 0.01 / 8)
    # coefficients of one frequency share their variance
    np.testing.assert_allclose(var[1::2], var[2::2])


def test_alpha_flat_spectrum_and_errors():
    prior = build_alpha_prior(1, 1.0, 0.0)
    np.testing.assert_allclose(variances(prior), 1.0)
    with pytest.raises(ValueError):
        build_alpha_prior(7, -0.5, -1.0)


def test_trace_fem_matrices_uniform_grid():
    trace = make_trace(nx=4)
    K, M = trace_fem_matrices(trace)
    h = 0.25
    assert np.isclose(K[1, 1], 2 / h) and np.isclose(K[1, 2], -1 / h)
    assert np.isclose(M[1, 1], 2 * h / 3) and np.isclose(M[1, 2], h / 6)
    # stiffness annihilates constants, mass integrates them
    ones = np.ones(trace.n_nodes)
    np.testing.assert_allclose(K @ ones, 0.0, atol=1e-14)
    assert np.isclose(ones @ M @ ones, 1.0)


def test_beta_prior_structure():
    trace = make_trace()
    prior = build_beta_prior(trace, 50.0, 10.0)
    assert prior.precision.shape == (78, 78)
    np.testing.assert_allclose(prior.precision, prior.precision.T)
    assert np.min(sla.eigvalsh(prior.precision)) > 0
    # endpoint closure: exactly two extra entries of size l
    K, M = trace_fem_matrices(trace)
    R = prior.precision * 50.0 - (K + 100.0 * M)
    nz = np.argwhere(np.abs(R) > 1e-9)
    assert {tuple(ij) for ij in nz} == {(0, 0), (77, 77)}
    np.testing.assert_allclose(R[0, 0], 10.0)
    np.testing.assert_allclose(R[77, 77], 10.0)


def test_beta_prior_homogeneous_marginals():
    prior = build_beta_prior(make_trace(), 50.0, 10.0)
    d = np.diag(prior.covariance)
    assert d.max() / d.min() <= 1.1


def test_prior_potential_values():
    trace = make_trace(nx=10)
    ap = build_alpha_prior(3, 0.01, -1.0)
    bp = build_beta_prior(trace, 50.0, 10.0)
    assert ap.potential(ap.mean) + bp.potential(bp.mean) == 0.0

    rng = np.random.default_rng(1)
    a = rng.standard_normal(7)
    b = rng.standard_normal(trace.n_nodes)
    v1 = ap.potential(a) + bp.potential(b)
    # doubling the alpha offset quadruples the alpha term
    v2 = ap.potential(2 * a) + bp.potential(b)
    beta_term = bp.potential(b)
    np.testing.assert_allclose(v2 - beta_term, 4 * (v1 - beta_term), rtol=1e-12)
    # dense quadratic-form oracle
    oracle = (0.5 * a @ np.diag(1 / variances(ap)) @ a
              + 0.5 * b @ bp.precision @ b)
    np.testing.assert_allclose(v1, oracle, rtol=1e-10)
    with pytest.raises(ValueError):
        ap.potential(a[:-1])


def test_sampling_mean_and_degenerate_draw():
    trace = make_trace(nx=10)
    ap = build_alpha_prior(3, 0.01, -1.0)
    bp = build_beta_prior(trace, 50.0, 10.0)
    rng = np.random.default_rng(0)
    np.testing.assert_allclose(ap.sample(rng, xi=np.zeros(7)), ap.mean)
    np.testing.assert_allclose(bp.sample(rng, xi=np.zeros(trace.n_nodes)),
                               bp.mean)


def test_joint_prior_is_the_block_diagonal_join():
    trace = make_trace(nx=10)
    ap = build_alpha_prior(3, 0.01, -1.0)
    bp = build_beta_prior(trace, 50.0, 10.0)
    joint = joint_prior(ap, bp)
    np.testing.assert_array_equal(joint.mean, np.zeros(7 + trace.n_nodes))
    np.testing.assert_array_equal(joint.precision, sla.block_diag(ap.precision, bp.precision))
    np.testing.assert_allclose(joint.chol_precision @ joint.chol_precision.T,
                               joint.precision, rtol=1e-12)
    rng = np.random.default_rng(2)
    a = rng.standard_normal(7)
    b = rng.standard_normal(trace.n_nodes)
    m = np.concatenate([a, b])
    np.testing.assert_allclose(joint.potential(m), ap.potential(a) + bp.potential(b),
                               rtol=1e-12)
    np.testing.assert_allclose(joint.sample(rng, xi=m),
                               np.concatenate([ap.sample(rng, xi=a), bp.sample(rng, xi=b)]),
                               rtol=1e-12)
    np.testing.assert_allclose(joint.covariance,
                               sla.block_diag(ap.covariance, bp.covariance), rtol=1e-12,
                               atol=1e-15)


def test_alpha_sampling_variance_monte_carlo():
    ap = build_alpha_prior(7, 0.01, -1.0)
    rng = np.random.default_rng(42)
    draws = np.array([ap.sample(rng) for _ in range(100_000)])
    np.testing.assert_allclose(draws.var(axis=0, ddof=1), variances(ap), rtol=0.03)


def test_beta_sampling_covariance_monte_carlo():
    trace = make_trace(nx=24)
    bp = build_beta_prior(trace, 50.0, 10.0)
    rng = np.random.default_rng(7)
    draws = np.array([bp.sample(rng) for _ in range(10_000)])
    np.testing.assert_allclose(draws.var(axis=0, ddof=1), np.diag(bp.covariance),
                               rtol=0.10)


def test_increments_shrink_with_correlation_length():
    # mean-square increment over one interval, computed exactly and by MC
    trace = make_trace(nx=40)
    rng = np.random.default_rng(11)
    exact, mc = [], []
    for l in (2.0, 10.0, 50.0):
        bp = build_beta_prior(trace, 50.0, l)
        C = bp.covariance
        d = np.arange(trace.n_nodes - 1)
        exact.append(np.mean(C[d, d] + C[d + 1, d + 1] - 2 * C[d, d + 1]))
        draws = np.array([bp.sample(rng) for _ in range(2000)])
        mc.append(np.mean(np.diff(draws, axis=1) ** 2))
    assert exact[0] > exact[1] > exact[2]
    assert mc[0] > mc[1] > mc[2]
    np.testing.assert_allclose(mc, exact, rtol=0.1)


def test_invalid_hyperparameters():
    trace = make_trace(nx=5)
    with pytest.raises(ValueError):
        build_beta_prior(trace, 0.0, 10.0)
    with pytest.raises(ValueError):
        build_beta_prior(trace, 50.0, -1.0)
