import numpy as np
import pytest

from robinshape.geometry import (InvalidShapeError, admittance_alpha_entries_from,
                                 admittance_factor_from, fourier_basis,
                                 pushforward_alpha_entries_from, pushforward_entries_from)

from conftest import BoundaryShape


def tensor(shape, x1, x2):
    """The symmetric 2x2 push-forward conductivity at a reference point."""
    s11, s12, s22 = pushforward_entries_from(*shape.eval(x1), x2)
    return np.array([[s11, s12], [s12, s22]])


def random_shape(rng, p=4, scale=0.05, min_f=0.1):
    while True:
        alpha = scale * rng.standard_normal(2 * p + 1)
        shape = BoundaryShape(alpha=alpha, L=1.0, H=0.05)
        if shape.min_f() > min_f:
            return shape


def test_eval_flat():
    shape = BoundaryShape(alpha=np.zeros(7))
    f, df = shape.eval(np.array([0.0, 0.3, 1.0]))
    np.testing.assert_allclose(f, 1.0)
    np.testing.assert_allclose(df, 0.0)


def test_eval_pure_cosine():
    alpha = np.zeros(7)
    alpha[2] = 0.1  # frequency-1 cosine
    shape = BoundaryShape(alpha=alpha)
    f, df = shape.eval(0.0)
    assert np.isclose(f, 1.1)
    assert np.isclose(df, 0.0, atol=1e-14)


def test_eval_derivative_fd(rng):
    shape = random_shape(rng)
    x = rng.uniform(0, 1, 20)
    h = 1e-6
    _, df = shape.eval(x)
    fd = (shape.eval(x + h)[0] - shape.eval(x - h)[0]) / (2 * h)
    np.testing.assert_allclose(df, fd, rtol=1e-8, atol=1e-8)


def test_fourier_basis_ordering():
    vals, dvals = fourier_basis(2, 1.0, np.array([0.25]))
    # [1, sin(2pi x), cos(2pi x), sin(4pi x), cos(4pi x)] at x = 1/4
    np.testing.assert_allclose(vals[0], [1.0, 1.0, 0.0, 0.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(dvals[0, 0], 0.0)
    np.testing.assert_allclose(dvals[0, 1], 0.0, atol=1e-12)


def test_pushforward_identity_for_flat_shape():
    shape = BoundaryShape(alpha=np.zeros(5))
    T = tensor(shape, 0.4, 0.02)
    np.testing.assert_allclose(T, np.eye(2), atol=1e-15)


def test_pushforward_determinant_one(rng):
    for _ in range(50):
        shape = random_shape(rng)
        T = tensor(shape, rng.uniform(0, 1), rng.uniform(0, 0.05))
        assert abs(np.linalg.det(T) - 1.0) <= 1e-12


def test_pushforward_spd(rng):
    for _ in range(30):
        shape = random_shape(rng, scale=0.1)
        T = tensor(shape, rng.uniform(0, 1), rng.uniform(0, 0.05))
        np.testing.assert_allclose(T, T.T)
        assert np.min(np.linalg.eigvalsh(T)) > 0


def test_pushforward_matches_fd_jacobian(rng):
    # oracle: sigma_tilde = J J^T / det(J) for the map psi(x) = (x1, x2/f(x1)),
    # with J finite-differenced componentwise at the physical preimage
    shape = random_shape(rng)
    xt1, xt2 = 0.37, 0.021
    f, _ = shape.eval(xt1)
    x = np.array([xt1, xt2 * f])  # physical point mapping to (xt1, xt2)

    def psi(x):
        fv, _ = shape.eval(x[0])
        return np.array([x[0], x[1] / fv])

    h = 1e-7
    J = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        J[:, j] = (psi(x + e) - psi(x - e)) / (2 * h)
    oracle = J @ J.T / abs(np.linalg.det(J))
    T = tensor(shape, xt1, xt2)
    np.testing.assert_allclose(T, oracle, rtol=1e-6, atol=1e-8)


def test_pushforward_rejects_nonpositive_f():
    shape = BoundaryShape(alpha=np.array([-1.5, 0.0, 0.0]))
    with pytest.raises(InvalidShapeError):
        pushforward_entries_from(*shape.eval(np.array([0.5])), np.array([0.01]))


def test_admittance_flat():
    shape = BoundaryShape(alpha=np.zeros(5))
    _, df = shape.eval(np.linspace(0, 1, 7))
    np.testing.assert_allclose(admittance_factor_from(df, shape.H), 1.0)


def test_admittance_slope_twenty():
    # slope df/ds = 20 with H = 0.05 gives sqrt(1 + 1) = sqrt(2)
    alpha = np.zeros(3)
    alpha[1] = 20.0 / (2 * np.pi)  # sine term: f'(0) = alpha_1 * 2 pi
    shape = BoundaryShape(alpha=alpha, H=0.05)
    _, df = shape.eval(0.0)
    assert np.isclose(df, 20.0)
    assert np.isclose(admittance_factor_from(df, shape.H), np.sqrt(2.0))


def test_admittance_is_arc_length_element(rng):
    shape = random_shape(rng)
    s = 0.613
    ds = 1e-5
    grid = np.linspace(s - ds / 2, s + ds / 2, 200)
    f, _ = shape.eval(grid)
    curve = np.column_stack([grid, shape.H * f])
    arc = np.sum(np.linalg.norm(np.diff(curve, axis=0), axis=1))
    np.testing.assert_allclose(admittance_factor_from(shape.eval(s)[1], shape.H),
                               arc / ds, rtol=1e-6)


def test_admittance_at_least_one(rng):
    shape = random_shape(rng)
    _, df = shape.eval(rng.uniform(0, 1, 50))
    assert np.all(admittance_factor_from(df, shape.H) >= 1.0)


def central_fd(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def test_tensor_profile_partials_fd(rng):
    f, df = rng.uniform(0.5, 1.5, 20), rng.uniform(-2.0, 2.0, 20)
    x2 = rng.uniform(0.0, 1.0, 20)
    a, b = pushforward_alpha_entries_from(f, df, x2)
    np.testing.assert_allclose(
        a, central_fd(lambda v: pushforward_entries_from(v, df, x2)[2], f), rtol=1e-6)
    np.testing.assert_allclose(
        b, central_fd(lambda v: pushforward_entries_from(f, v, x2)[2], df),
        rtol=1e-6, atol=1e-10)


def test_tensor_alpha_derivative_flat_shift():
    # at the flat profile a shift of f lowers s22 = 1/f at unit rate for
    # every x2, and the slope has no first-order effect
    a, b = pushforward_alpha_entries_from(np.ones(3), np.zeros(3), np.array([0.0, 0.5, 1.0]))
    np.testing.assert_array_equal(a, -1.0)
    np.testing.assert_array_equal(b, 0.0)


def test_tensor_alpha_derivative_fd(rng):
    # chain rule through the Fourier basis: d(s11, s12, s22)/dalpha_i =
    # (basis_i, -x2 basis_i', a basis_i + b basis_i')
    shape = random_shape(rng)
    x1, x2 = np.array(0.42), np.array(0.033)
    h = 1e-6
    c, dc = fourier_basis(shape.p, shape.L, x1)
    a, b = pushforward_alpha_entries_from(*shape.eval(x1), x2)
    for i in range(shape.alpha.size):
        d12 = -x2 * dc[i]
        D = np.array([[c[i], d12], [d12, a * c[i] + b * dc[i]]])
        ap, am = shape.alpha.copy(), shape.alpha.copy()
        ap[i] += h
        am[i] -= h
        Tp = tensor(BoundaryShape(alpha=ap), x1, x2)
        Tm = tensor(BoundaryShape(alpha=am), x1, x2)
        np.testing.assert_allclose(D, (Tp - Tm) / (2 * h), rtol=1e-6, atol=1e-8)


def test_admittance_alpha_derivative_trivial():
    # the factor is even in the slope: its derivative vanishes at df = 0 and
    # is odd in df
    df = np.array([0.0, 0.7, -0.7, 3.0, -3.0])
    d = admittance_alpha_entries_from(df, 0.05)
    assert d[0] == 0.0
    np.testing.assert_array_equal(d[1::2], -d[2::2])


def test_admittance_alpha_derivative_fd(rng):
    df = rng.uniform(-20.0, 20.0, 20)
    np.testing.assert_allclose(
        admittance_alpha_entries_from(df, 0.05),
        central_fd(lambda v: admittance_factor_from(v, 0.05), df), rtol=1e-6, atol=1e-10)


def test_shape_validation():
    with pytest.raises(ValueError):
        BoundaryShape(alpha=np.zeros(4))  # even length
    with pytest.raises(ValueError):
        BoundaryShape(alpha=np.zeros((3, 1)))
