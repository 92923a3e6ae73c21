import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from robinshape import fem
from robinshape.geometry import (InvalidShapeError, admittance_factor_from,
                                 pushforward_entries_from)
from robinshape.mesh import build_slab_mesh, trace_of_top

from conftest import BoundaryShape


def flat_shape(p=2):
    return BoundaryShape(alpha=np.zeros(2 * p + 1), L=1.0, H=0.05)


def forward(ws, system, n_loads, sensors=(0.5,)):
    """fem.forward for load patterns 1..n_loads, read at bottom-edge sensors."""
    return fem.forward(system, fem.all_loads(ws, n_loads),
                       ws.sensor_operator(sensors))


def hand_stiffness(mesh):
    """Independent P1 stiffness assembly with explicit per-triangle algebra."""
    n = mesh.n_nodes
    A = np.zeros((n, n))
    for tri in mesh.triangles:
        p0, p1, p2 = mesh.nodes[tri]
        e1, e2 = p1 - p0, p2 - p0
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        # gradients of the barycentric hats
        b = np.array([p1[1] - p2[1], p2[1] - p0[1], p0[1] - p1[1]])
        c = np.array([p2[0] - p1[0], p0[0] - p2[0], p1[0] - p0[0]])
        for a in range(3):
            for d in range(3):
                A[tri[a], tri[d]] += (b[a] * b[d] + c[a] * c[d]) / (4 * area)
    return A


def banded_upper(band):
    """Dense upper triangle of a matrix in LAPACK upper banded storage."""
    u, n = band.shape[0] - 1, band.shape[1]
    return sum(np.diag(band[u - d, d:], d) for d in range(u + 1))


def dense(system):
    """The reduced system of an AssembledSystem as a dense symmetric matrix."""
    upper = banded_upper(system.band)
    return upper + np.triu(upper, 1).T


def test_flat_assembly_matches_hand_stiffness():
    mesh = build_slab_mesh(1.0, 0.05, 3, 1)
    ws = fem.FemWorkspace(mesh)
    beta = np.full(ws.trace.n_nodes, -50.0)  # exp(beta) ~ 0: pure stiffness
    system = fem.assemble(ws, flat_shape().eval(ws.x1), beta)
    A_hand = hand_stiffness(mesh)[np.ix_(ws.free, ws.free)]
    np.testing.assert_allclose(dense(system), A_hand, atol=1e-12)


def test_flat_assembly_robin_block():
    # with beta = 0 and a flat shape the top term is the 1-D P1 mass matrix
    mesh = build_slab_mesh(1.0, 0.05, 4, 1)
    ws = fem.FemWorkspace(mesh)
    beta = np.zeros(ws.trace.n_nodes)
    diff = (dense(fem.assemble(ws, flat_shape().eval(ws.x1), beta))
            - dense(fem.assemble(ws, flat_shape().eval(ws.x1), np.full_like(beta, -60.0))))
    h = 0.25
    mass_full = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for a, b in mesh.edge_groups["top"]:
        mass_full[a, a] += h / 3
        mass_full[b, b] += h / 3
        mass_full[a, b] += h / 6
        mass_full[b, a] += h / 6
    np.testing.assert_allclose(diff, mass_full[np.ix_(ws.free, ws.free)],
                               atol=1e-12)


def test_cholesky_factor_reproduces_system(rng):
    mesh = build_slab_mesh(1.0, 0.05, 12, 3)
    ws = fem.FemWorkspace(mesh)
    alpha = 0.03 * rng.standard_normal(5)
    beta = rng.standard_normal(ws.trace.n_nodes)
    system = fem.assemble(ws, BoundaryShape(alpha=alpha).eval(ws.x1), beta)
    assert ws.band_u == mesh.ny + 2
    A = dense(system)
    R = banded_upper(system.chol)
    assert np.linalg.norm(R.T @ R - A) <= 1e-12 * np.linalg.norm(A)


@pytest.mark.parametrize("nx, ny, band_u", [(77, 7, 9), (229, 10, 12)])
def test_column_major_bandwidth(nx, ny, band_u):
    # the inversion and data meshes of the default config; row-major
    # numbering would give a half-bandwidth near nx
    assert fem.FemWorkspace(build_slab_mesh(1.0, 0.05, nx, ny)).band_u == band_u


@pytest.mark.parametrize("nx, ny", [(12, 3), (77, 7)])
def test_band_operator_matches_local_scatter(nx, ny, rng):
    # reference: per-element local matrices scattered into the upper band
    # with bincount, the assembly that the coefficient operator replaces
    mesh = build_slab_mesh(1.0, 0.05, nx, ny)
    ws = fem.FemWorkspace(mesh)
    T, E = mesh.triangles.shape[0], ws.top_edges.shape[0]
    # |S12| < sqrt(S11 S22) on every triangle keeps the system SPD
    S11, S22 = rng.uniform(0.5, 2.0, (2, T)) * ws.areas
    S12 = rng.uniform(-0.4, 0.4, T) * ws.areas
    wq = rng.uniform(0.0, 1.0, (E, 2))
    gx, gy = ws.grads[..., 0], ws.grads[..., 1]
    k_loc = (S11[:, None, None] * gx[:, :, None] * gx[:, None, :]
             + S12[:, None, None] * (gx[:, :, None] * gy[:, None, :]
                                     + gy[:, :, None] * gx[:, None, :])
             + S22[:, None, None] * gy[:, :, None] * gy[:, None, :])
    m_loc = np.einsum("eg,ga,gb->eab", wq, fem.EDGE_PHI, fem.EDGE_PHI)
    tri = mesh.triangles
    rows = np.concatenate([np.repeat(tri, 3, axis=1).ravel(),
                           np.repeat(ws.top_edges, 2, axis=1).ravel()])
    cols = np.concatenate([np.tile(tri, (1, 3)).ravel(),
                           np.tile(ws.top_edges, (1, 2)).ravel()])
    r, c = ws.full_to_free[rows], ws.full_to_free[cols]
    keep = (r >= 0) & (c >= 0) & (r <= c)
    n = ws.free.size
    ref = np.bincount(((ws.band_u + r - c) * n + c)[keep],
                      weights=np.concatenate([k_loc.ravel(), m_loc.ravel()])[keep],
                      minlength=(ws.band_u + 1) * n)
    band = ws.coefficient_operator() @ np.concatenate([S11, S12, S22, wq.ravel()])
    assert np.max(np.abs(band - ref)) <= 1e-14 * np.max(np.abs(ref))


def element_products(ws, U, V):
    """Per-element products of the free-node columns of U and V, summed over
    columns, one per coefficient [S11, S12, S22, wq] of the band; with the
    full-node gradient (T, 2, k) and top-edge point value (E, 2, k) maps."""
    mesh, k = ws.mesh, U.shape[1]
    Uf, Vf = np.zeros((2, mesh.n_nodes, k))
    Uf[ws.free], Vf[ws.free] = U, V
    grad = lambda X: np.einsum("tad,tak->tdk", ws.grads, X[mesh.triangles])
    top = lambda X: np.einsum("ga,eak->egk", fem.EDGE_PHI, X[ws.top_edges])
    gu, gv = grad(Uf), grad(Vf)
    ref = np.concatenate([
        np.sum(gu[:, 0] * gv[:, 0], axis=1),
        np.sum(gu[:, 0] * gv[:, 1] + gu[:, 1] * gv[:, 0], axis=1),
        np.sum(gu[:, 1] * gv[:, 1], axis=1),
        np.sum(top(Uf) * top(Vf), axis=2).ravel()])
    return ref, grad(Uf), top(Uf)


def random_profile(ws, rng):
    """Random (f, df) at the abscissae ws.x1, f positive, with a random beta."""
    f = rng.uniform(0.5, 1.5, ws.x1.size)
    df = rng.standard_normal(ws.x1.size)
    return (f, df), rng.standard_normal(ws.trace.n_nodes)


@pytest.mark.parametrize("nx, ny", [(77, 7), (229, 10)])
def test_band_transpose_matches_element_products(nx, ny, rng):
    # the coefficient-level adjoint: K^T @ band_pairs(U, V) against the
    # per-element products of the columns of U and V, summed over columns
    mesh = build_slab_mesh(1.0, 0.05, nx, ny)
    ws = fem.FemWorkspace(mesh)
    assert sorted(ws.offsets) == [0, 1, ny + 1, ny + 2]
    n, k = ws.free.size, 5
    U, V = rng.standard_normal((2, n, k))
    z = ws.coefficient_operator().T @ ws.band_pairs(U, V)

    ref, gu, tu = element_products(ws, U, V)
    assert np.max(np.abs(z - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the free-node element operators against the same full-node references
    for got, want in ((ws.grad_op @ U, gu.transpose(1, 0, 2)), (ws.top_op @ U, tu)):
        assert np.max(np.abs(got - want.reshape(got.shape))) <= 1e-14 * np.max(np.abs(want))

    # sum_l v_l^T A u_l == c . (K^T @ p) on an assembled system
    T, E = mesh.triangles.shape[0], ws.top_edges.shape[0]
    S11, S22 = rng.uniform(0.5, 2.0, (2, T)) * ws.areas
    S12 = rng.uniform(-0.4, 0.4, T) * ws.areas
    wq = rng.uniform(0.0, 1.0, (E, 2))
    c = np.concatenate([S11, S12, S22, wq.ravel()])
    band, _ = fem._factor(ws, ws.coefficient_operator() @ c)
    upper = sp.diags([band[ws.band_u - d, d:] for d in range(ws.band_u + 1)],
                     range(ws.band_u + 1))
    A = upper + sp.triu(upper, 1).T
    vAu = np.sum(V * (A @ U))
    assert abs(c @ z - vAu) <= 1e-12 * np.sum(np.abs(V * (A @ U)))


@pytest.mark.parametrize("nx, ny", [(77, 7), (229, 10)])
def test_fused_band_matches_coefficient_path(nx, ny, rng):
    # assemble's one product ws.F @ phi against K @ c, with the coefficients
    # c integrated from the tensor entries at the volume quadrature points
    ws = fem.FemWorkspace(build_slab_mesh(1.0, 0.05, nx, ny))
    K = ws.coefficient_operator()
    for _ in range(3):
        (f, df), beta = random_profile(ws, rng)
        x2 = ws.quad_pts[..., 1]
        s11, s12, s22 = pushforward_entries_from(f[ws.vol_at], df[ws.vol_at], x2)
        S11, S12, S22 = (ws.areas / 3.0 * np.sum(s, axis=1) for s in (s11, s12, s22))
        wq = (np.exp(np.interp(ws.top_squad, ws.trace.s, beta)) * ws.top_lw
              * admittance_factor_from(df[ws.top_at], ws.mesh.H))
        ref = K @ np.concatenate([S11, S12, S22, wq.ravel()])
        band = fem.assemble(ws, (f, df), beta).band.ravel()
        assert np.max(np.abs(band - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("nx, ny", [(77, 7), (229, 10)])
def test_fused_transpose_matches_element_products(nx, ny, rng):
    # the gradient's exact transpose: FT @ band_pairs(U, V) against the
    # element products pulled back through the quadrature to the features
    # [f, df, 1/f, df^2/f] at the abscissae and the Robin weights wq
    ws = fem.FemWorkspace(build_slab_mesh(1.0, 0.05, nx, ny))
    U, V = rng.standard_normal((2, ws.free.size, 5))
    z = ws.FT @ ws.band_pairs(U, V)
    ref, _, _ = element_products(ws, U, V)
    T, nx1 = ws.areas.size, ws.x1.size
    w, x2 = ws.areas[:, None] / 3.0 * np.ones(3), ws.quad_pts[..., 1]
    z11, z12, z22 = ref[:T, None], ref[T:2 * T, None], ref[2 * T:3 * T, None]
    at = ws.vol_at.ravel()
    want = np.concatenate([np.bincount(at, (w * v).ravel(), nx1)
                           for v in (z11, -x2 * z12, z22, x2 ** 2 * z22)] + [ref[3 * T:]])
    assert np.max(np.abs(z - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("nx, ny, stretched", [(24, 3, False), (77, 7, False),
                                               (229, 10, False), (77, 7, True)])
def test_top_pullback_is_the_exact_transpose_of_the_gather(nx, ny, stretched, rng):
    # top_gather carries beta to the top-edge points, and top_pullback
    # takes point sensitivities back: z . gather(beta) ==
    # (top_pullback @ z) . beta; the gather is the piecewise-linear
    # interpolation of beta, also on solve_deformed's copy of the mesh
    # stretched by f, whose top edge is slanted
    mesh = build_slab_mesh(1.0, 0.05, nx, ny)
    if stretched:
        f, _ = BoundaryShape(alpha=np.array([0.0, 0.04, -0.06, 0.02, 0.03])).eval(mesh.nodes[:, 0])
        mesh = dataclasses.replace(mesh, nodes=mesh.nodes * np.column_stack([np.ones_like(f), f]))
    ws = fem.FemWorkspace(mesh)
    beta, z = rng.standard_normal(ws.trace.n_nodes), rng.standard_normal(ws.top_squad.size)
    gather = ws.top_gather(beta).ravel()
    assert ws.top_pullback.shape == (beta.size, z.size) and ws.top_pullback.nnz == 2 * z.size
    assert abs(z @ gather - (ws.top_pullback @ z) @ beta) <= 1e-14 * (np.abs(z) @ np.abs(gather))
    # np.interp rounds x1 to its local coordinate with an error of order
    # eps / h, times the slope of beta over h: a smooth field, like a
    # truth's nodal values, keeps that at the rounding of the values
    smooth = 1.0 + 0.5 * np.sin(2 * np.pi * ws.trace.s)
    gather = ws.top_gather(smooth).ravel()
    interp = np.interp(ws.top_squad, ws.trace.s, smooth).ravel()
    assert np.max(np.abs(gather - interp)) <= 1e-15 * np.max(np.abs(interp))


def test_beta_of_another_trace_is_rejected():
    # both solvers read beta through the one gather, which checks its length
    mesh = build_slab_mesh(1.0, 0.05, 24, 3)
    ws = fem.FemWorkspace(mesh)
    for beta in (np.zeros(ws.trace.n_nodes - 1), np.zeros(ws.trace.n_nodes + 1)):
        with pytest.raises(ValueError, match="beta length"):
            fem.assemble(ws, flat_shape().eval(ws.x1), beta)
        with pytest.raises(ValueError, match="beta length"):
            fem.solve_deformed(mesh, flat_shape(), beta, 2, [0.5])

def test_indefinite_system_raises_solver_error():
    ws = fem.FemWorkspace(build_slab_mesh(1.0, 0.05, 12, 3))
    c = np.concatenate([-ws.areas, 0 * ws.areas, -ws.areas, np.zeros(ws.top_squad.size)])
    with pytest.raises(fem.SolverError):
        fem._factor(ws, ws.coefficient_operator() @ c)


def test_assemble_precomputed_evaluations_match():
    # the profile at the distinct abscissae, gathered back, is the profile at
    # every volume and top-edge quadrature point
    mesh = build_slab_mesh(1.0, 0.05, 77, 7)
    ws = fem.FemWorkspace(mesh)
    assert ws.x1.size == 4 * mesh.nx + 1 == 309
    shape = BoundaryShape(alpha=np.array([0.02, -0.04, 0.05, 0.01, -0.03]))
    f, df = shape.eval(ws.x1)
    f_vol, df_vol = shape.eval(ws.quad_pts[..., 0])
    _, df_top = shape.eval(ws.top_squad)
    assert np.array_equal(f[ws.vol_at], f_vol) and np.array_equal(df[ws.vol_at], df_vol)
    assert np.array_equal(df[ws.top_at], df_top)
    assert np.array_equal(ws.x1[ws.vol_at], ws.quad_pts[..., 0])
    assert np.array_equal(ws.x1[ws.top_at], ws.top_squad)


def test_assemble_rejects_invalid_shape():
    mesh = build_slab_mesh(1.0, 0.05, 8, 2)
    ws = fem.FemWorkspace(mesh)
    beta = np.zeros(ws.trace.n_nodes)
    with pytest.raises(InvalidShapeError):
        fem.assemble(ws, BoundaryShape(alpha=np.array([-1.2, 0.0, 0.0])).eval(ws.x1), beta)
    with pytest.raises(ValueError):
        fem.assemble(ws, flat_shape().eval(ws.x1), np.zeros(3))
    with pytest.raises(ValueError):
        fem.assemble(ws, flat_shape().eval(ws.quad_pts[..., 0]), beta)


def test_assemble_rejects_profile_nonpositive_at_one_top_abscissa():
    ws = fem.FemWorkspace(build_slab_mesh(1.0, 0.05, 8, 2))
    f, df = np.ones_like(ws.x1), np.zeros_like(ws.x1)
    k = ws.top_at[3, 1]
    assert k not in ws.vol_at  # no volume point sees this abscissa
    f[k] = 0.0
    with pytest.raises(InvalidShapeError):
        fem.assemble(ws, (f, df), np.zeros(ws.trace.n_nodes))


def test_neumann_load_zero_sum():
    mesh = build_slab_mesh(1.0, 0.05, 30, 3)
    for k in range(1, 9):
        F = fem.neumann_load(fem.FemWorkspace(mesh), k)
        # hats sum to one on the bottom edge, and the sine integrates to zero;
        # Dirichlet zeroing removes a symmetric pair of end contributions
        assert abs(F.sum()) < 1e-10


def test_neumann_load_against_dense_quadrature():
    from scipy.integrate import quad
    mesh = build_slab_mesh(1.0, 0.05, 256, 2)
    ws = fem.FemWorkspace(mesh)
    F = fem.neumann_load(ws, 1)
    h = 1.0 / 256
    for node in (3, 77, 130, 200):  # bottom row nodes come first
        xm = mesh.nodes[node, 0]
        hat = lambda s: max(0.0, 1.0 - abs(s - xm) / h)
        oracle = quad(lambda s: np.sin(2 * np.pi * s) * hat(s),
                      xm - h, xm + h, limit=200)[0]
        assert abs(F[ws.full_to_free[node]] - oracle) < 1e-10


def test_load_count():
    mesh = build_slab_mesh(1.0, 0.05, 64, 2)
    ws = fem.FemWorkspace(mesh)
    loads = fem.all_loads(ws, 8)
    assert loads.shape[1] == 8
    assert np.linalg.matrix_rank(loads) == 8


def test_solve_linearity():
    mesh = build_slab_mesh(1.0, 0.05, 16, 2)
    ws = fem.FemWorkspace(mesh)
    beta = np.zeros(ws.trace.n_nodes)
    system = fem.assemble(ws, flat_shape().eval(ws.x1), beta)
    assert np.all(system.solve(np.zeros(ws.free.size)) == 0.0)
    F = fem.neumann_load(ws, 2)
    u = system.solve(F)
    np.testing.assert_allclose(system.solve(3.0 * F), 3.0 * u, rtol=1e-12,
                               atol=1e-14 * np.max(np.abs(u)))


def test_solve_residual_and_energy():
    mesh = build_slab_mesh(1.0, 0.05, 24, 3)
    ws = fem.FemWorkspace(mesh)
    alpha = np.array([0.0, 0.03, -0.02, 0.01, 0.02])
    beta = 0.4 * np.sin(2 * np.pi * ws.trace.s)
    system = fem.assemble(ws, BoundaryShape(alpha=alpha).eval(ws.x1), beta)
    state = forward(ws, system, 4)
    F = fem.all_loads(ws, 4)
    A = dense(system)
    for k in range(4):
        u_free = state.solutions[:, k]
        resid = A @ u_free - F[:, k]
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(F[:, k])
        energy = u_free @ (A @ u_free)
        assert np.isclose(energy, F[:, k] @ state.solutions[:, k], rtol=1e-10)


def test_large_admittance_suppresses_top_potential():
    mesh = build_slab_mesh(1.0, 0.05, 24, 3)
    ws = fem.FemWorkspace(mesh)
    tops = ws.full_to_free[ws.trace.parent_nodes]
    tops = tops[tops >= 0]  # the two Dirichlet corners hold zero
    sup = []
    for b in (-2.0, 0.0, 2.0, 4.0, 7.0):
        system = fem.assemble(ws, flat_shape().eval(ws.x1), np.full(ws.trace.n_nodes, b))
        state = forward(ws, system, 1)
        sup.append(np.max(np.abs(state.solutions[tops, 0])))
    assert all(a > b for a, b in zip(sup, sup[1:]))


def test_observe_at_nodes_and_midpoints():
    mesh = build_slab_mesh(1.0, 0.05, 8, 2)
    ws = fem.FemWorkspace(mesh)
    system = fem.assemble(ws, flat_shape().eval(ws.x1), np.zeros(ws.trace.n_nodes))
    state = forward(ws, system, 2, np.array([0.25, 0.3125]))
    u = np.zeros((mesh.n_nodes, 2))
    u[ws.free] = state.solutions
    # bottom row nodes are 0..8 at spacing 1/8
    assert np.isclose(state.y[0], u[2, 0])
    assert np.isclose(state.y[1], 0.5 * (u[2, 0] + u[3, 0]))
    assert state.y.size == 4
    # load-major layout: second half is load 2
    assert np.isclose(state.y[2], u[2, 1])


def test_observe_layout_and_range_check():
    mesh = build_slab_mesh(1.0, 0.05, 16, 2)
    ws = fem.FemWorkspace(mesh)
    system = fem.assemble(ws, flat_shape().eval(ws.x1), np.zeros(ws.trace.n_nodes))
    state = forward(ws, system, 8, (np.arange(32) + 0.5) / 32)
    assert state.y.size == 256
    with pytest.raises(ValueError):
        forward(ws, system, 8, np.array([-0.1]))
    # a solution that overflows is a solver failure, not data
    loads = fem.all_loads(ws, 2)
    loads[:, 1] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(fem.SolverError):
        fem.forward(system, loads, ws.sensor_operator([0.5]))


def test_pushforward_invariance_moderate():
    rng = np.random.default_rng(5)
    alpha = np.array([0.0, 0.04, -0.06, 0.02, 0.03])
    shape = BoundaryShape(alpha=alpha)
    mesh = build_slab_mesh(1.0, 0.05, 64, 4)
    ws = fem.FemWorkspace(mesh)
    beta = 1.0 + 0.5 * np.sin(2 * np.pi * ws.trace.s)
    sensors = (np.arange(16) + 0.5) / 16
    ref = forward(ws, fem.assemble(ws, shape.eval(ws.x1), beta), 3, sensors)
    deformed = fem.solve_deformed(mesh, shape, beta, 3, sensors)
    rel = (np.linalg.norm(ref.y - deformed.y) / np.linalg.norm(deformed.y))
    assert rel < 1e-3


def test_flat_shape_deformed_solve_matches_pushforward():
    # with f = 1 the deformed and reference geometries coincide, so both
    # callers of the shared factorization routine build the same system
    mesh = build_slab_mesh(1.0, 0.05, 24, 3)
    ws = fem.FemWorkspace(mesh)
    beta = 0.5 * np.sin(2 * np.pi * ws.trace.s)
    sensors = (np.arange(16) + 0.5) / 16
    ref = forward(ws, fem.assemble(ws, flat_shape().eval(ws.x1), beta), 4, sensors)
    deformed = fem.solve_deformed(mesh, flat_shape(), beta, 4, sensors)
    assert np.linalg.norm(ref.y - deformed.y) <= 1e-12 * np.linalg.norm(ref.y)


def test_overflowed_robin_coefficient_raises_solver_error():
    # exp(1000) overflows to inf, which the factorization rejects; both
    # solvers report it as SolverError
    mesh = build_slab_mesh(1.0, 0.05, 24, 3)
    ws = fem.FemWorkspace(mesh)
    beta = np.zeros(ws.trace.n_nodes)
    beta[10] = 1000.0
    sensors = (np.arange(16) + 0.5) / 16
    with np.errstate(over="ignore"):
        with pytest.raises(fem.SolverError):
            fem.assemble(ws, flat_shape().eval(ws.x1), beta)
        with pytest.raises(fem.SolverError):
            fem.solve_deformed(mesh, flat_shape(), beta, 2, sensors)
