import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from robinshape import fem, geometry, inverse, optimize
from robinshape.geometry import InvalidShapeError
from robinshape.harness import ExperimentConfig, build_problem, generate_data

from conftest import (BoundaryShape, dense_top_edge_derivatives, per_load_jacobian,
                      random_valid_parameters, self_consistent_problem, small_problem)


def test_parameter_layout():
    prob = small_problem()
    assert prob.n == prob.n_alpha + prob.q
    m = np.arange(prob.n, dtype=float)
    a, b = prob.split(m)
    np.testing.assert_array_equal(np.concatenate([a, b]), m)
    with pytest.raises(ValueError):
        prob.split(m[:-1])


def test_potential_recomposition(rng):
    prob = small_problem()
    m = random_valid_parameters(prob, rng)
    ev = prob.potential(m)
    r = prob.data - prob.forward(m).y
    misfit = 0.5 * float(r @ r) / prob.noise_std ** 2
    prior = prob.prior.potential(m)
    assert abs(ev.J - (misfit + prior)) <= 1e-12 * ev.J
    assert np.isclose(ev.misfit, misfit) and np.isclose(ev.prior, prior)


def test_potential_keeps_its_last_evaluation(rng):
    # the kept evaluation is returned only for a vector equal to the last
    # one; a caller that changes its array in place gets a new evaluation
    prob = small_problem()
    m, m2 = random_valid_parameters(prob, rng), random_valid_parameters(prob, rng)
    for x in (m, m2, m):
        assert prob.potential(x).J == small_problem().potential(x).J
    assert prob.potential(m.copy()) is prob.potential(m)
    x = m.copy()
    J = prob.potential(x).J
    x[0] += 1e-3
    assert prob.potential(x).J == small_problem().potential(x).J != J


def test_noise_scaling_quarters_misfit(rng):
    prob = small_problem(noise_std=0.004)
    prob2 = small_problem(noise_std=0.008)
    m = random_valid_parameters(prob, rng)
    assert np.isclose(prob.potential(m).misfit, 4.0 * prob2.potential(m).misfit)


def test_self_consistent_minimum():
    prob, m_true = self_consistent_problem()
    ev = prob.potential(np.concatenate(prob.split(m_true)))
    assert ev.misfit == 0.0
    # gradient at the truth is the pure prior gradient
    g = prob.gradient(m_true)
    g_prior = prob.prior_precision @ (m_true - prob.prior_mean)
    np.testing.assert_allclose(g, g_prior, atol=1e-10 * np.max(np.abs(g_prior)))


def test_gradient_directional_fd_v_shape(rng):
    prob = small_problem()
    m = random_valid_parameters(prob, rng)
    J, g = prob.potential_and_gradient(m)
    v = rng.standard_normal(prob.n)
    v /= np.linalg.norm(v)
    exact = g @ v
    errs = []
    for h in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        fd = (prob.potential_value(m + h * v) - prob.potential_value(m - h * v)) / (2 * h)
        errs.append(abs(fd - exact) / abs(exact))
    assert min(errs) <= 1e-7
    # characteristic V-shape: interior minimum, growth at both extremes
    k = int(np.argmin(errs))
    assert 0 < k < len(errs) - 1
    assert errs[0] > errs[k] and errs[-1] > errs[k]


def test_gradient_coordinates_fd(rng):
    prob = small_problem()
    m = random_valid_parameters(prob, rng)
    _, g = prob.potential_and_gradient(m)
    idx = list(range(prob.n_alpha)) + [prob.n_alpha, prob.n - 1,
                                       prob.n_alpha + prob.q // 2]
    for i in idx:
        best = np.inf
        for h0 in (1e-4, 1e-5, 1e-6):
            h = h0 * (1 + abs(m[i]))
            e = np.zeros(prob.n)
            e[i] = h
            fd = (prob.potential_value(m + e) - prob.potential_value(m - e)) / (2 * h)
            best = min(best, abs(fd - g[i]) / max(abs(fd), 1e-12))
        assert best <= 1e-4


def check_adjoint_matches_jacobian(prob, rng, n_points):
    for _ in range(n_points):
        m = random_valid_parameters(prob, rng)
        ev = prob.potential(m)
        g_adj = prob.gradient(m)
        G = prob.jacobian(m)
        g_prior = prob.prior_precision @ (m - prob.prior_mean)
        g_jac = G.T @ (ev.state.y - prob.data) / prob.noise_std ** 2 + g_prior
        np.testing.assert_allclose(g_adj, g_jac,
                                   atol=1e-8 * np.max(np.abs(g_adj)))
        # directional agreement of the misfit parts
        for _ in range(20):
            d = rng.standard_normal(prob.n)
            lhs = (g_adj - g_prior) @ d
            rhs = (G @ d) @ (ev.state.y - prob.data) / prob.noise_std ** 2
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


def test_adjoint_matches_jacobian_gradient(rng):
    check_adjoint_matches_jacobian(small_problem(), rng, 3)


def desk_problem():
    """The default inversion size: 77 x 7 mesh, p = 7, 8 loads, 32 sensors."""
    return small_problem(nx=77, ny=7, p=7, n_loads=8, n_sensors=32)


def test_adjoint_matches_jacobian_gradient_desk(rng):
    # the gradient sums over loads before its pull-back, the Jacobian folds
    # every load into the coefficient derivatives: the two reductions must
    # agree at full size
    check_adjoint_matches_jacobian(desk_problem(), rng, 2)


def test_desk_jacobian_memory_is_bounded(rng):
    # the volume temporaries are the loads' folded coefficient derivatives,
    # never a product per load and sensor pair: all 8 x 32 pair products at
    # once peaked at 13.1-13.8 MB of live NumPy memory; the stacked fold
    # (n_loads, n_alpha, 2, T) that the one GEMM reads takes 8 x 15 x 2 x
    # 1078 x 8 bytes = 2.07 MB, and with it the whole desk Jacobian peaked
    # at 4.0 MB
    prob = desk_problem()
    m = random_valid_parameters(prob, rng)
    prob.potential(m)  # kept, so the traced call only linearizes
    tracemalloc.start()
    try:
        G = prob.jacobian(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == (256, 93)
    assert peak < 6e6


@pytest.mark.parametrize("profile, seed", [("example1", 1), ("example3", 2)])
def test_desk_jacobian_is_bitwise_the_per_load_reference(profile, seed, rng):
    # the stacked fold's one GEMM adds each (load, alpha) row into G in the
    # per-load loop's place, so at the desk MAPs and at random desk points
    # the Jacobian is bitwise the reference's
    cfg = ExperimentConfig(seed=seed, truth_profile=profile)
    prob = build_problem(cfg, generate_data(cfg))
    m_map, _ = optimize.gauss_newton(prob, prob.prior_mean, cfg.gn)
    for m in (m_map, random_valid_parameters(prob, rng)):
        G = prob.jacobian(m)
        assert G.flags.c_contiguous
        assert np.array_equal(G, per_load_jacobian(prob, m))


@pytest.mark.parametrize("n_loads", [1, 3])
def test_jacobian_matches_the_per_load_reference(n_loads, rng):
    # one load, and a load count that differs from n_alpha = 7, so a
    # swapped load/alpha axis of the stacked fold shows
    prob = small_problem(n_loads=n_loads, n_sensors=5)
    for _ in range(3):
        m = random_valid_parameters(prob, rng)
        G, ref = prob.jacobian(m), per_load_jacobian(prob, m)
        assert G.shape == ref.shape == (n_loads * 5, prob.n)
        assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_loads, n_sensors", [(4, 16), (1, 1), (3, 5)])
def test_jacobian_columns_fd(rng, n_loads, n_sensors):
    # a single pair and counts that do not divide each other catch a
    # swapped load/sensor layout of the rows
    prob = small_problem(n_loads=n_loads, n_sensors=n_sensors)
    m = random_valid_parameters(prob, rng)
    _, pred, G = prob.linearize(m)
    h = 1e-6
    for i in range(prob.n):
        e = np.zeros(prob.n)
        e[i] = h
        fd = (prob.forward(m + e).y - prob.forward(m - e).y) / (2 * h)
        np.testing.assert_allclose(G[:, i], fd, rtol=1e-5,
                                   atol=1e-5 * np.max(np.abs(fd)))


def test_jacobian_vertical_shift_sensitivity():
    prob = small_problem()
    m = np.zeros(prob.n)
    _, _, G = prob.linearize(m)
    assert np.max(np.abs(G[:, 0])) > 1e-6  # thickness changes the data


def test_invalid_shape_handling():
    prob = small_problem()
    m = np.zeros(prob.n)
    m[0] = -1.5  # f <= 0 everywhere
    ev = prob.potential(m)
    assert ev.J == np.inf
    J, g = prob.potential_and_gradient(m)
    assert J == np.inf and g is None
    with pytest.raises(InvalidShapeError):
        prob.gradient(m)
    m[0] = np.nan
    assert prob.potential_value(m) == np.inf
    # a non-finite coefficient makes f non-finite at every abscissa
    m[0] = 0.0
    for bad in (np.nan, np.inf):
        m[3] = bad
        assert prob.potential(m).J == np.inf


def test_overflowed_robin_coefficient_is_rejected():
    # exp(1000) overflows, the factorization fails, and the point must read
    # as invalid rather than raise out of a sampler or line search
    prob = small_problem()
    m = np.zeros(prob.n)
    m[prob.n_alpha + 10] = 1000.0
    assert prob.potential(m).J == np.inf
    assert prob.potential_and_gradient(m) == (np.inf, None)
    assert prob.linearize(m)[0] == np.inf


def test_target_goes_through_the_traced_entry_points(rng, monkeypatch):
    # perfbench/tracer.py counts assemblies and solved columns by wrapping
    # fem.assemble and AssembledSystem.solve, and wraps the partials below
    # by their module attribute names
    prob = desk_problem()
    m = random_valid_parameters(prob, rng)
    assembled, solved = [], []
    orig_assemble, orig_solve = fem.assemble, fem.AssembledSystem.solve

    def assemble(*args):
        assembled.append(1)
        return orig_assemble(*args)

    def solve(self, rhs):
        solved.append(rhs.shape[1])
        return orig_solve(self, rhs)

    monkeypatch.setattr(fem, "assemble", assemble)
    monkeypatch.setattr(fem.AssembledSystem, "solve", solve)
    J, g = prob.potential_and_gradient(m)
    assert np.isfinite(J) and g.shape == (prob.n,)
    assert assembled == [1] and solved == [8, 8]
    assert fem.pushforward_entries_from is geometry.pushforward_entries_from
    assert inverse.pushforward_alpha_entries_from is geometry.pushforward_alpha_entries_from
    assert inverse.admittance_alpha_entries_from is geometry.admittance_alpha_entries_from


@pytest.mark.parametrize("nx, ny", [(77, 7), (229, 10)])
def test_volume_derivatives_match_the_pointwise_einsums(nx, ny, rng):
    # the stacks [D11t, D12t] and [D12t, D22] from the quadrature operator M
    # against einsums of the pointwise partials of the tensor entries with
    # the basis gathered onto the volume quadrature points: s11 = f and
    # s12 = -x2 df have the partials 1 and -x2, s22 those of
    # pushforward_alpha_entries_from
    ws = fem.workspace(1.0, 0.05, nx, ny)
    ops = inverse.fourier_operators(ws, 7)
    shape = BoundaryShape(alpha=0.05 * rng.standard_normal(15), L=1.0, H=0.05)
    f, df = shape.eval(ws.x1)
    w, x2 = ws.areas[:, None] / 3.0 * np.ones(3), ws.quad_pts[..., 1]
    Vg, dVg = ops.Vx[ws.vol_at], ops.dVx[ws.vol_at]
    a, b = geometry.pushforward_alpha_entries_from(f[ws.vol_at], df[ws.vol_at], x2)
    refs = (np.einsum("tg,tgi->it", w, Vg), np.einsum("tg,tgi->it", -w * x2, dVg),
            np.einsum("tg,tgi->it", w * a, Vg) + np.einsum("tg,tgi->it", w * b, dVg))
    D2 = ops.D2(f, df)
    for D in (ops.D1, D2):
        assert D.shape == (15, 2, ws.areas.size) and D.flags.c_contiguous
    for D, ref in zip((ops.D1[:, 0], ops.D1[:, 1], D2[:, 0], D2[:, 1]), refs[:2] + refs[1:]):
        assert np.max(np.abs(D - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("nx, ny", [(77, 7), (229, 10)])
def test_top_edge_rows_match_the_dense_reference(nx, ny, rng):
    # the alpha rows from a GEMM on the alpha columns and the beta rows
    # through the interpolation's nonzeros, against one GEMM of every (load,
    # sensor adjoint) point product with the dense derivatives (2E, n), on
    # the point values of real solutions and sensor adjoints
    prob = small_problem(nx=nx, ny=ny, p=7, n_loads=8, n_sensors=32)
    ev = prob.potential(random_valid_parameters(prob, rng))
    system = ev.state.system
    tu = prob.ws.top_op @ ev.state.solutions
    tw = prob.ws.top_op @ system.solve(prob.B.adjoint(np.eye(32)))
    pairs = (tu.T[:, None, :] * tw.T[None, :, :]).reshape(-1, tu.shape[0])
    ref = (pairs @ dense_top_edge_derivatives(prob, system)).T
    rows = inverse.top_edge_rows(prob.ws, system, prob.basis.dVx, tu, tw)
    assert rows.shape == (prob.n, 8 * 32)
    for block in (slice(None, prob.n_alpha), slice(prob.n_alpha, None)):
        assert np.max(np.abs(rows[block] - ref[block])) <= 1e-14 * np.max(np.abs(ref[block]))


@given(nx=st.integers(2, 10), ny=st.integers(1, 3), p=st.integers(0, 7),
       n_loads=st.integers(1, 4), n_sensors=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_jacobian_contracts_to_the_gradient_across_shapes(nx, ny, p, n_loads, n_sensors, seed):
    # on any mesh, order and layout, the Jacobian's rows contract to the
    # adjoint gradient (criterion 3 and its tolerance), and a few of its
    # columns match central differences of the observation map
    prob = small_problem(nx=nx, ny=ny, p=p, n_loads=n_loads, n_sensors=n_sensors, seed=seed)
    rng = np.random.default_rng(seed)
    m = random_valid_parameters(prob, rng)
    ev = prob.potential(m)
    g, G = prob.gradient(m), prob.jacobian(m)
    assert G.shape == (n_loads * n_sensors, prob.n)
    g_ref = G.T @ (ev.state.y - prob.data) / prob.noise_std ** 2 + ev.prior_grad
    assert np.max(np.abs(g - g_ref)) <= 1e-8 * np.max(np.abs(g_ref))
    h = 1e-6
    for i in (0, rng.integers(prob.n_alpha), rng.integers(prob.n_alpha, prob.n)):
        e = np.zeros(prob.n)
        e[i] = h
        fd = (prob.forward(m + e).y - prob.forward(m - e).y) / (2 * h)
        np.testing.assert_allclose(G[:, i], fd, rtol=1e-5, atol=1e-5 * np.max(np.abs(G)))
