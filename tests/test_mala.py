import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import stats

from conftest import LinearGaussianProblem
from robinshape import mala
from robinshape.mala import (_T_OFFSET, ChainState, MalaSettings, adapt,
                             gelman_rubin, make_adapt_state, mala_step,
                             mcse_batch_means, mcse_halfwidth, run_chain,
                             skewness, stopping_rule)


def gaussian_target(mean, cov):
    prec = np.linalg.inv(cov)

    def target(m):
        d = m - mean
        return 0.5 * float(d @ prec @ d), prec @ d

    return target


def fresh_state(m0, target):
    J, g = target(m0)
    return ChainState(m=np.asarray(m0, dtype=float).copy(), J=J, grad=g)


def test_quadratic_form_matches_inverse():
    # the whitened kernels give the textbook MALA ratio written with inv(A)
    rng = np.random.default_rng(0)
    B = rng.standard_normal((5, 5))
    target = gaussian_target(rng.standard_normal(5), B @ B.T + np.eye(5))
    G = rng.standard_normal((5, 5))
    A = G @ G.T + 2 * np.eye(5)
    A_inv, C = np.linalg.inv(A), np.linalg.cholesky(A)
    ad = make_adapt_state(A, np.zeros(5), MalaSettings(tau_init=0.05))
    tau = ad.tau

    def log_q(to, frm, grad):
        d = to - frm + tau * A @ grad
        return -(d @ A_inv @ d) / (4 * tau)

    below_one = 0
    for _ in range(10):
        state = fresh_state(rng.standard_normal(5), target)
        m, J, g = state.m.copy(), state.J, state.grad
        xi = rng.standard_normal(5)
        ap = mala_step(state, ad, target, rng, xi=xi)
        m_prop = m - tau * A @ g + np.sqrt(2 * tau) * C @ xi
        J_prop, g_prop = target(m_prop)
        log_ratio = J - J_prop + log_q(m, m_prop, g_prop) - log_q(m_prop, m, g)
        expected = min(1.0, np.exp(log_ratio))
        assert abs(ap - expected) <= 1e-12 * expected
        below_one += expected < 1.0
    assert below_one >= 3


@pytest.mark.parametrize("grad_prop", [[1e308, 1e308], [np.nan, 0.0]],
                         ids=["overflow", "nan"])
def test_reverse_kernel_overflow_is_counted_rejection(grad_prop):
    # a finite but huge gradient at the proposal overflows the reverse term;
    # a NaN gradient with a finite potential must not be accepted either
    m0 = np.zeros(2)

    def target(m):
        return 0.0, np.zeros(2) if np.array_equal(m, m0) else np.array(grad_prop)

    ad = make_adapt_state(np.array([[1.0, 0.9], [0.9, 1.0]]), m0, MalaSettings(tau_init=0.5))
    state = fresh_state(m0, target)
    log_tau = ad.log_tau
    with np.errstate(over="ignore", invalid="ignore"):
        ap = mala_step(state, ad, target, np.random.default_rng(13))
    assert ap == 0.0
    assert (state.n_steps, state.n_invalid, state.n_accepted) == (1, 1, 0)
    np.testing.assert_array_equal(state.m, m0)
    adapt(ad, state.m, ap)
    assert ad.log_tau < log_tau


def test_flat_target_always_accepts():
    # constant potential: forward and reverse kernels coincide exactly
    def target(m):
        return 0.0, np.zeros_like(m)

    rng = np.random.default_rng(1)
    ad = make_adapt_state(np.eye(3), np.zeros(3), MalaSettings(tau_init=0.5))
    state = fresh_state(np.zeros(3), target)
    for _ in range(50):
        ap = mala_step(state, ad, target, rng)
        assert ap == 1.0
    assert state.n_accepted == 50


def test_drift_only_proposal():
    # with xi = 0 the proposal is the deterministic drift m - tau * A * grad
    mean = np.array([1.0, -2.0])
    target = gaussian_target(mean, np.eye(2))
    rng = np.random.default_rng(2)
    ad = make_adapt_state(np.diag([2.0, 0.5]), np.zeros(2), MalaSettings(tau_init=0.05))
    m0 = np.array([3.0, 3.0])
    state = fresh_state(m0, target)
    expected = m0 - ad.tau * (ad.chol_A @ ad.chol_A.T) @ state.grad
    ap = mala_step(state, ad, target, rng, xi=np.zeros(2))
    assert state.n_accepted == 1  # downhill drift with small tau is accepted
    np.testing.assert_allclose(state.m, expected, rtol=1e-14)
    assert 0.0 < ap <= 1.0


def test_invalid_proposal_auto_rejects():
    def target(m):
        if np.any(m > 1.5):
            return np.inf, None
        return 0.0, np.zeros_like(m)

    rng = np.random.default_rng(3)
    ad = make_adapt_state(np.eye(1), np.zeros(1), MalaSettings(tau_init=0.5))
    state = fresh_state(np.array([1.49]), target)
    m_before = state.m.copy()
    rejected = 0
    for _ in range(200):
        ap = mala_step(state, ad, target, rng)
        if state.n_invalid > rejected:
            rejected = state.n_invalid
            assert ap == 0.0
    assert state.n_invalid > 0
    assert np.all(state.m <= 1.5)
    assert state.n_steps == 200
    del m_before


def test_one_dim_standard_normal_moments():
    target = gaussian_target(np.zeros(1), np.eye(1))
    rng = np.random.default_rng(4)
    ad = make_adapt_state(np.eye(1), np.zeros(1), MalaSettings(tau_init=0.01))
    state = fresh_state(np.zeros(1), target)
    n = 60_000
    xs = np.empty(n)
    accepts = 0
    for i in range(n):
        mala_step(state, ad, target, rng)
        xs[i] = state.m[0]
    accepts = state.n_accepted
    assert accepts / n > 0.9  # tiny steps are nearly always accepted
    mcse = mcse_batch_means(xs[:, None])[0]
    assert abs(xs.mean()) < 4 * mcse
    # second moment, with its own batch-means error bar
    mcse2 = mcse_batch_means((xs ** 2)[:, None])[0]
    assert abs(np.mean(xs ** 2) - 1.0) < 4 * mcse2


def test_detailed_balance_frozen_proposal():
    # long frozen-proposal run on a correlated Gaussian reproduces covariance
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    target = gaussian_target(np.zeros(2), cov)
    rng = np.random.default_rng(5)
    ad = make_adapt_state(cov, np.zeros(2), MalaSettings(tau_init=0.4))
    state = fresh_state(np.zeros(2), target)
    n = 120_000
    xs = np.empty((n, 2))
    for i in range(n):
        mala_step(state, ad, target, rng)
        xs[i] = state.m
    emp = np.cov(xs.T)
    np.testing.assert_allclose(emp, cov, atol=0.05)


def test_step_size_adaptation_direction():
    ad = make_adapt_state(np.eye(2), np.zeros(2), MalaSettings(tau_init=0.1))
    lt0 = ad.log_tau
    for _ in range(50):
        adapt(ad, np.zeros(2), accept_prob=1.0)
    assert ad.log_tau > lt0  # accepting everything drives the step size up
    ad2 = make_adapt_state(np.eye(2), np.zeros(2), MalaSettings(tau_init=0.1))
    for _ in range(50):
        adapt(ad2, np.zeros(2), accept_prob=0.0)
    assert ad2.log_tau < lt0


def test_covariance_adaptation_converges():
    rng = np.random.default_rng(6)
    C_true = np.array([[2.0, -0.8], [-0.8, 1.0]])
    L = sla.cholesky(C_true, lower=True)
    ad = make_adapt_state(np.eye(2), np.zeros(2),
                          MalaSettings(tau_init=0.1, refresh_every=100))
    for _ in range(100_000):
        adapt(ad, L @ rng.standard_normal(2), accept_prob=0.574)
    err = np.linalg.norm(ad.chol_A @ ad.chol_A.T - C_true) / np.linalg.norm(C_true)
    assert err < 0.05


def test_batched_covariance_update_is_exact():
    # the refresh-time update against the per-step running-average recursion
    rng = np.random.default_rng(12)
    n, k = 4, 100
    L = np.tril(rng.standard_normal((n, n))) + 3 * np.eye(n)
    A0 = np.diag([1.0, 2.0, 0.5, 1.5])
    ad = make_adapt_state(A0, np.ones(n), MalaSettings(refresh_every=k))
    mean, cov = np.ones(n), A0.copy()

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    for t in range(1, 1051):
        x = L @ rng.standard_normal(n) + 2.0
        cov_before = ad.cov.copy()
        adapt(ad, x, accept_prob=0.5)
        gamma = 1.0 / (t + _T_OFFSET)
        mean = mean + gamma * (x - mean)
        d = x - mean
        cov = cov + gamma * (np.outer(d, d) - cov)
        assert rel(ad.mean, mean) <= 1e-12
        if t % k == 0:
            assert rel(ad.cov, cov) <= 1e-12
            A = cov + 1e-10 * np.trace(cov) / n * np.eye(n)
            assert rel(ad.chol_A @ ad.chol_A.T, A) <= 1e-12
        else:
            np.testing.assert_array_equal(ad.cov, cov_before)
    assert ad.t == 1050 and rel(ad.cov, cov) > 1e-6  # the last 50 still wait


def test_mcse_iid_and_constant():
    rng = np.random.default_rng(7)
    xs = rng.standard_normal(1_000_000)
    mcse = mcse_batch_means(xs[:, None])[0]
    assert abs(mcse - 1e-3) < 0.2e-3
    assert mcse_batch_means(np.full((400, 1), 3.0))[0] == 0.0
    with pytest.raises(ValueError):
        mcse_batch_means(np.zeros((99, 1)))


def test_mcse_one_dimensional_series():
    xs = np.random.default_rng(10).standard_normal(1000)
    np.testing.assert_array_equal(mcse_batch_means(xs), mcse_batch_means(xs[:, None]))
    np.testing.assert_array_equal(mcse_halfwidth(xs), mcse_halfwidth(xs[:, None]))


def test_mcse_ar1_inflation():
    # AR(1) with phi = 0.9: asymptotic MCSE = sd * sqrt((1+phi)/(1-phi)) / sqrt(n)
    from scipy.signal import lfilter
    rng = np.random.default_rng(8)
    phi = 0.9
    n = 400_000
    xs = lfilter([1.0], [1.0, -phi], rng.standard_normal(n))
    sd = xs.std(ddof=1)
    truth = sd * np.sqrt((1 + phi) / (1 - phi)) / np.sqrt(n)
    mcse = mcse_batch_means(xs[:, None])[0]
    assert abs(mcse - truth) / truth < 0.25


def test_stopping_rule_cases():
    rng = np.random.default_rng(9)
    iid = rng.standard_normal((5000, 2))
    assert stopping_rule(iid, threshold=0.1)
    assert not stopping_rule(iid, threshold=0.001)
    # a drifting chain has huge batch-mean spread relative to its std
    drift = np.linspace(0.0, 1.0, 5000)[:, None]
    assert not stopping_rule(drift, threshold=0.1)
    hw = mcse_halfwidth(iid)
    assert np.all(hw > 0) and hw.shape == (2,)


@pytest.mark.parametrize("n", [100, 10_000, 85_000])
def test_mcse_halfwidth_matches_scipy_stats_t(n):
    # scipy.stats stays out of the library; it is the oracle here
    samples = np.random.default_rng(n).standard_normal((n, 3)).cumsum(axis=0)
    n_b = int(np.floor(np.sqrt(n)))
    expected = stats.t.ppf(0.99, n_b - 1) * mcse_batch_means(samples)
    assert mcse_halfwidth(samples).tobytes() == expected.tobytes()


def test_skewness_matches_scipy_stats_skew():
    rng = np.random.default_rng(11)
    x = np.hstack([rng.gamma(2.0, size=(500, 3)), -rng.gamma(0.5, size=(500, 2)),
                   rng.standard_normal((500, 2)) + 40.0,
                   np.full((500, 1), 1.5), np.zeros((500, 1))])
    with warnings.catch_warnings():
        # scipy warns of catastrophic cancellation on the constant columns
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = stats.skew(x, axis=0)
    got = skewness(x)
    assert got.tobytes() == expected.tobytes()
    assert np.all(got[:3] > 0) and np.all(got[3:5] < 0)
    assert np.isnan(got[-2:]).all()  # a constant column has no skewness


def test_gelman_rubin_behaviour():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((100_000, 2))
    b = rng.standard_normal((100_000, 2))
    r = gelman_rubin([a, b])
    assert np.all(r < 1.01)
    np.testing.assert_allclose(gelman_rubin([a, a]), 1.0, atol=0.01)
    assert np.all(gelman_rubin([a, b + 10.0]) > 1.1)
    with pytest.raises(ValueError):
        gelman_rubin([a])


def test_run_chain_gaussian_converges():
    rng = np.random.default_rng(11)
    mean = np.array([1.0, -0.5, 2.0])
    cov = np.diag([1.0, 0.25, 4.0])
    target = gaussian_target(mean, cov)
    out = run_chain(np.zeros(3), np.eye(3), target, rng,
                    burn_in=2000, max_steps=100_000, check_interval=2000)
    assert out.converged
    std = np.sqrt(np.diag(cov))
    assert np.all(np.abs(out.samples.mean(axis=0) - mean) < 0.1 * std)
    assert 0.3 < out.acceptance_rate < 0.85
    assert out.mcse.shape == (3,) and out.n_recorded == out.samples.shape[0]


def test_run_chain_rejects_invalid_start():
    def target(m):
        return np.inf, None

    with pytest.raises(ValueError):
        run_chain(np.zeros(2), np.eye(2), target, np.random.default_rng(0))


def recomputing_step(state, adapt_state, target, rng):
    """mala_step's formulas with C^T grad J(m) recomputed at every step
    instead of kept in the chain state."""
    tau = adapt_state.tau
    C = adapt_state.chol_A
    xi = rng.standard_normal(state.m.size)
    u = np.sqrt(2.0 * tau) * xi
    step = u - tau * (C.T @ state.grad)
    proposal = state.m + C @ step
    J_prop, grad_prop = target(proposal)
    state.n_steps += 1
    log_ratio = math.nan
    if math.isfinite(J_prop) and grad_prop is not None:
        r = step - tau * (C.T @ grad_prop)
        log_ratio = state.J - J_prop - (float(r @ r) - float(u @ u)) / (4.0 * tau)
    if not math.isfinite(log_ratio):
        state.n_invalid += 1
        return 0.0
    accept_prob = float(min(1.0, np.exp(min(log_ratio, 0.0))))
    if np.log(rng.uniform()) < log_ratio:
        state.m, state.J, state.grad = proposal, J_prop, grad_prop
        state.n_accepted += 1
    return accept_prob


def test_kept_whitened_gradient_matches_recomputed_step():
    # keeping w = C^T grad J(m) from the accepted proposal, and recomputing
    # it only after a refresh has replaced C, gives bitwise the chain of a
    # step that recomputes it at every step
    rng = np.random.default_rng(21)
    n = 93
    prob = LinearGaussianProblem(G=rng.standard_normal((120, n)), data=rng.standard_normal(120),
                                 noise_std=2.0, prior_mean=np.zeros(n),
                                 prior_precision=np.eye(n))

    def target(m):
        grad = (prob.inv_noise_var * (prob.G.T @ (prob.G @ m - prob.data))
                + prob.prior_precision @ (m - prob.prior_mean))
        return prob.potential_value(m), grad

    settings = MalaSettings(refresh_every=7, tau_init=0.01)
    runs = []
    for step in (mala_step, recomputing_step):
        chain_rng = np.random.default_rng(5)
        ad = make_adapt_state(np.eye(n) / n, np.zeros(n), settings)
        state = fresh_state(np.zeros(n), target)
        trace = []
        for _ in range(300):
            ap = step(state, ad, target, chain_rng)
            adapt(ad, state.m, ap)
            trace.append((ap, state.m.copy(), state.J, ad.chol_A.copy()))
        runs.append((trace, (state.n_steps, state.n_accepted, state.n_invalid)))
    (kept, counts), (recomputed, counts_ref) = runs
    assert counts == counts_ref
    assert 30 < counts[1] < 270  # both accepts and rejects, across 42 refreshes
    for (ap, m, J, chol), (ap_ref, m_ref, J_ref, chol_ref) in zip(kept, recomputed):
        assert ap == ap_ref and J == J_ref
        assert np.array_equal(m, m_ref) and np.array_equal(chol, chol_ref)


def reference_step(state, adapt_state, target, rng, xi=None):
    """mala_step as it was written before its accept test was trimmed: C^T
    grad through C.T, min and exp for every ratio, and rng.uniform()."""
    tau = adapt_state.tau
    C = adapt_state.chol_A
    if state.w_chol is not C:
        state.w, state.w_chol = C.T @ state.grad, C
    if xi is None:
        xi = rng.standard_normal(state.m.size)
    u = np.sqrt(2.0 * tau) * xi
    step = u - tau * state.w
    proposal = state.m + C @ step
    J_prop, grad_prop = target(proposal)
    state.n_steps += 1
    log_ratio = math.nan
    if math.isfinite(J_prop) and grad_prop is not None:
        w_prop = C.T @ grad_prop
        r = step - tau * w_prop
        log_ratio = state.J - J_prop - (float(r @ r) - float(u @ u)) / (4.0 * tau)
    if not math.isfinite(log_ratio):
        state.n_invalid += 1
        return 0.0
    accept_prob = float(min(1.0, np.exp(min(log_ratio, 0.0))))
    if np.log(rng.uniform()) < log_ratio:
        state.m = proposal
        state.J = J_prop
        state.grad = grad_prop
        state.w = w_prop
        state.n_accepted += 1
    return accept_prob


def test_run_chain_is_bitwise_the_reference_step(monkeypatch):
    # the trimmed accept test (rng.random(), grad @ C, no exp for a ratio
    # of at least one) changes no bit of a chain, an invalid proposal included
    rng = np.random.default_rng(31)
    n = 12
    B = rng.standard_normal((n, n))
    gaussian = gaussian_target(rng.standard_normal(n), B @ B.T / n + 0.5 * np.eye(n))

    def run():
        calls = []

        def target(m):
            calls.append(None)
            # one proposal whose potential overflowed
            return (np.inf, None) if len(calls) == 40 else gaussian(m)

        return run_chain(np.zeros(n), np.eye(n) / n, target, np.random.default_rng(8),
                         burn_in=200, max_steps=1000, check_interval=500, refresh_every=50)

    out = run()
    monkeypatch.setattr(mala, "mala_step", reference_step)
    ref = run()
    assert out.n_invalid == ref.n_invalid == 1
    assert 0.2 < out.acceptance_rate < 0.95  # ratios above and below one
    assert out.samples.tobytes() == ref.samples.tobytes()
    assert out.J_trace.tobytes() == ref.J_trace.tobytes()
    assert np.array_equal(out.accept_flags, ref.accept_flags)
    assert out.final_tau == ref.final_tau and out.converged == ref.converged


def test_rejected_rows_repeat_the_row_above():
    # a rejected step, an invalid proposal included, leaves the state and J
    # untouched, so every recorded row after the first whose flag is 0 is
    # bitwise the row above: chain_csv reuses that row's text
    n = 4
    gaussian = gaussian_target(np.zeros(n), np.eye(n))
    calls = []

    def target(m):
        calls.append(None)
        # every seventh proposal is invalid: an overflowed potential
        return (np.inf, None) if len(calls) % 7 == 0 else gaussian(m)

    out = run_chain(np.zeros(n), np.eye(n), target, np.random.default_rng(3),
                    burn_in=50, max_steps=600, check_interval=600, refresh_every=20)
    assert out.n_invalid >= 600 // 7
    flags = out.accept_flags
    assert 0 < flags.sum() < flags.size
    rows = np.column_stack([out.samples, out.J_trace])
    repeated = np.flatnonzero(~flags[1:]) + 1
    assert rows[repeated].tobytes() == rows[repeated - 1].tobytes()
