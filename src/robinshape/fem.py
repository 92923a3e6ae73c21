"""P1 finite element solver for the transformed Poisson problem on the slab.

Volume terms use a 3-point (degree-2 exact) barycentric Gauss rule, edge
terms a 2-point Gauss rule.  Dirichlet side conditions are imposed by
elimination so the reduced system stays symmetric positive definite.  The
free nodes are numbered column by column (x1 first), which keeps the reduced
system banded with half-bandwidth ny + 2; one banded Cholesky factorization
is shared by all loads and adjoint solves.

The boundary shape enters `assemble` only through the profile (f, df/dx1) at
the workspace's distinct quadrature abscissae `FemWorkspace.x1`: the slab is a
tensor-product mesh, so its volume and top-edge quadrature points share a few
hundred x1 values.  `assemble` (push-forward tensor on the reference slab) and
the verification path `solve_deformed` (isotropic operator on the stretched
mesh, chord lengths on the slanted top edge) share `_factor`: one product with
the per-mesh operator `FemWorkspace.K`, then one banded Cholesky factorization.
`forward` solves every load and reads the bottom-edge sensors out load-major;
the data generator, the inverse problem and `solve_deformed` all go through it.
`workspace` builds the workspace of a slab mesh once and shares it between
the data generator and every inverse problem on that mesh.

The free nodes are the only vector space this module hands out: loads,
solutions, the sensor operator and the element operators `grad_op` and
`top_op` all live on the free nodes in `FemWorkspace.free` order.  The
Dirichlet values are zero, so no caller ever needs the full nodal vector.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .geometry import (InvalidShapeError, admittance_factor_from,
                       pushforward_entries_from)
from .mesh import SlabMesh, build_slab_mesh, trace_of_top, triangle_areas


class SolverError(Exception):
    """Factorization or solve failure."""


# 2-point Gauss rule on [-1, 1]
_EDGE_XI = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_EDGE_W = np.array([0.5, 0.5])  # weights on the unit-length reference edge
# P1 hat values at the two edge quadrature points: (2 gauss, 2 local nodes)
_EDGE_PHI = np.column_stack([(1.0 - _EDGE_XI) / 2.0, (1.0 + _EDGE_XI) / 2.0])


class FemWorkspace:
    """Precomputed geometry shared by all assemblies on one mesh."""

    def __init__(self, mesh: SlabMesh):
        self.mesh = mesh
        p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
        self.areas = triangle_areas(mesh)
        if np.any(self.areas <= 0):
            raise SolverError("mesh contains non-positively-oriented triangles")
        # constant P1 gradients: grad_a = rot(edge opposite a) / (2 area)
        e0 = p[:, 2] - p[:, 1]
        e1 = p[:, 0] - p[:, 2]
        e2 = p[:, 1] - p[:, 0]
        rot = lambda v: np.column_stack([-v[:, 1], v[:, 0]])
        self.grads = np.stack([rot(e0), rot(e1), rot(e2)], axis=1)
        self.grads /= (2.0 * self.areas)[:, None, None]
        # edge-midpoint quadrature points, weight areas/3 each
        self.quad_pts = 0.5 * (p + np.roll(p, -1, axis=1))  # (T, 3, 2)

        self.trace = trace_of_top(mesh)
        self.top_edges = self._sorted_edges(mesh.edge_groups["top"])
        self.bottom_edges = self._sorted_edges(mesh.edge_groups["bottom"])

        x1 = mesh.nodes[:, 0]
        free_mask = (x1 != 0.0) & (x1 != mesh.L)
        # column-major order keeps the reduced system banded; it also holds on
        # the deformed mesh, where x1 is unchanged and x2 scales by f > 0
        free = np.flatnonzero(free_mask)
        self.free = free[np.lexsort((mesh.nodes[free, 1], x1[free]))]
        self.full_to_free = -np.ones(mesh.n_nodes, dtype=np.int64)
        self.full_to_free[self.free] = np.arange(self.free.size)

        # The reduced system in LAPACK upper banded storage is linear in the
        # coefficients c = [S11 (T), S12 (T), S22 (T), wq (2E)], so every
        # assembly is one product with the sparse operator K from c to the
        # flattened band.  The local matrices are exactly symmetric, so the
        # upper triangle (r <= c) holds all of the system.
        self.top_squad, self.top_len = self.edge_quad(self.top_edges)
        tri = mesh.triangles
        T, E = tri.shape[0], self.top_edges.shape[0]
        rows = np.concatenate([np.repeat(tri, 3, axis=1).ravel(),
                               np.repeat(self.top_edges, 2, axis=1).ravel()])
        cols = np.concatenate([np.tile(tri, (1, 3)).ravel(),
                               np.tile(self.top_edges, (1, 2)).ravel()])
        r, c = self.full_to_free[rows], self.full_to_free[cols]
        keep = free_mask[rows] & free_mask[cols] & (r <= c)
        self.band_u = int(np.max((c - r)[keep], initial=0))
        pos = np.where(keep, (self.band_u + r - c) * self.free.size + c, -1)
        # K's triplets (band position, coefficient, value): the local entries
        # of triangle t carry the gradient outer products for t, T + t, 2T + t,
        # those of top edge e the hat products at its point g for 3T + 2e + g
        gx, gy = self.grads[..., 0], self.grads[..., 1]
        vol, top = pos[:9 * T], pos[9 * T:]
        of_tri, of_edge = np.repeat(np.arange(T), 9), 3 * T + 2 * np.repeat(np.arange(E), 4)
        triplets = [(vol, of_tri, gx[:, :, None] * gx[:, None, :]),
                    (vol, T + of_tri, gx[:, :, None] * gy[:, None, :] + gy[:, :, None] * gx[:, None, :]),
                    (vol, 2 * T + of_tri, gy[:, :, None] * gy[:, None, :])]
        triplets += [(top, of_edge + g, np.tile(np.outer(phi, phi), (E, 1)))
                     for g, phi in enumerate(_EDGE_PHI)]
        at, j, v = (np.concatenate([np.ravel(t[i]) for t in triplets]) for i in range(3))
        self.K = sp.csr_matrix((v[at >= 0], (at[at >= 0], j[at >= 0])),
                               shape=((self.band_u + 1) * self.free.size, 3 * T + 2 * E))
        # the band diagonals K writes, ascending from the main one
        written = np.unique(np.flatnonzero(np.diff(self.K.indptr)) // self.free.size)
        self.offsets = self.band_u - written[::-1]

        # distinct x1 of the volume and top-edge quadrature points, with the
        # gathers vol_at (T, 3) and top_at (E, 2) back onto the points
        xq = np.concatenate([self.quad_pts[..., 0].ravel(), self.top_squad.ravel()])
        self.x1, at = np.unique(xq, return_inverse=True)
        n_vol = self.quad_pts[..., 0].size
        self.vol_at = at[:n_vol].reshape(self.quad_pts.shape[:2])
        self.top_at = at[n_vol:].reshape(self.top_squad.shape)

    @functools.cached_property
    def KT(self) -> sp.csr_matrix:
        """CSR copy of K's transpose, which maps band sensitivities back to
        the coefficients (`band_pairs`); built on first use, so a workspace
        that never differentiates holds none."""
        return self.K.T.tocsr()

    @functools.cached_property
    def grad_op(self) -> sp.csr_matrix:
        """P1 gradient operator (2T, n_free): row c * T + t of grad_op @ u is
        component c of grad(u) on triangle t, for free-node values u."""
        T = self.areas.size
        rows = np.arange(2 * T).reshape(2, T, 1).repeat(3, axis=2)
        cols = np.broadcast_to(self.mesh.triangles, rows.shape)
        return self._on_free(self.grads.transpose(2, 0, 1), rows, cols)

    @functools.cached_property
    def top_op(self) -> sp.csr_matrix:
        """Top-edge point values (2E, n_free): row 2 * e + g of top_op @ u is
        u at quadrature point g of top edge e, for free-node values u."""
        E = self.top_edges.shape[0]
        rows = np.arange(2 * E).reshape(E, 2, 1).repeat(2, axis=2)
        cols = np.broadcast_to(self.top_edges[:, None, :], rows.shape)
        return self._on_free(np.broadcast_to(_EDGE_PHI, rows.shape), rows, cols)

    def _on_free(self, vals, rows, cols) -> sp.csr_matrix:
        # an operator on the nodal values, restricted to the free-node
        # columns: the Dirichlet values are zero, so dropping them is exact
        full = sp.csr_matrix((np.ravel(vals), (rows.ravel(), cols.ravel())),
                             shape=(rows.max(initial=-1) + 1, self.mesh.n_nodes))
        return full[:, self.free]

    @functools.cached_property
    def hat_t(self) -> np.ndarray:
        """Trace hat functions at the top-edge quadrature points (E, 2, q)."""
        on_node = self.top_edges[..., None] == self.trace.parent_nodes
        return np.einsum("ga,eaj->egj", _EDGE_PHI, on_node.astype(float))

    def band_pairs(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The flattened band p with p . band = sum_l V[:, l]^T A U[:, l] for
        free-node columns U, V (N, k): the column-summed symmetric pair
        products on the diagonals K writes.  Since band = K c, KT @ p is the
        sensitivity of that sum to the coefficients c of `_factor`."""
        p = np.zeros((self.band_u + 1, self.free.size))
        ones = np.ones(U.shape[1])  # `@ ones` sums the columns faster than np.sum
        p[self.band_u] = (U * V) @ ones
        for d in self.offsets[1:]:
            p[self.band_u - d, d:] = (U[:-d] * V[d:] + V[:-d] * U[d:]) @ ones
        return p.ravel()

    def _sorted_edges(self, edges: np.ndarray) -> np.ndarray:
        # orient each edge so x1 increases, then order edges by x1
        x1 = self.mesh.nodes[:, 0]
        edges = edges.copy()
        flip = x1[edges[:, 0]] > x1[edges[:, 1]]
        edges[flip] = edges[flip][:, ::-1]
        return edges[np.argsort(x1[edges[:, 0]])]

    def edge_quad(self, edges: np.ndarray):
        """Quadrature x1-coordinates (E, 2) and reference lengths (E,) of edges."""
        x1 = self.mesh.nodes[:, 0]
        a, b = x1[edges[:, 0]], x1[edges[:, 1]]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid[:, None] + half[:, None] * _EDGE_XI[None, :], b - a


@functools.lru_cache(maxsize=4)
def workspace(L: float, H: float, nx: int, ny: int) -> FemWorkspace:
    """The workspace of the nx x ny slab mesh of size L x H, built once per
    mesh and shared by every caller on it: the data generator on the fine
    mesh and every inverse problem on the inversion mesh.  Nothing writes to
    a workspace after construction except its cached operators."""
    return FemWorkspace(build_slab_mesh(L, H, nx, ny))


@dataclass
class AssembledSystem:
    """Reduced SPD system in upper banded storage (band[u + i - j, j] =
    A[i, j] for i <= j, free nodes in ws.free order) with its banded Cholesky
    factor.  profile (f and df at the volume quadrature points, df at the
    top-edge quadrature points) and robin (exp(beta) * w_g * len at the
    top-edge quadrature points) are kept for the sensitivity kernel; the
    deformed-domain system carries neither."""

    band: np.ndarray
    chol: np.ndarray
    profile: tuple | None = None
    robin: np.ndarray | None = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for free-node right-hand sides rhs, (n_free,) or (n_free, k)."""
        return la.cho_solve_banded((self.chol, False), rhs)


@dataclass
class ForwardState:
    solutions: np.ndarray  # (n_free, n_loads)
    system: AssembledSystem
    y: np.ndarray  # sensor values, load-major: length n_loads * n_sensors


def _factor(ws: FemWorkspace, S11, S12, S22, wq):
    """Assemble and factor the reduced system: the one assembly path.

    S11, S12, S22 are the per-triangle integrals (T,) of the conductivity
    entries, wq the Robin weights at the top-edge quadrature points (E, 2),
    which ws.K maps to the band.  Returns (band, chol), the upper banded
    system and its Cholesky factor.
    """
    c = np.concatenate([S11, S12, S22, np.ravel(wq)])
    band = (ws.K @ c).reshape(ws.band_u + 1, ws.free.size)
    try:
        chol = la.cholesky_banded(band)
    except ValueError as exc:
        # non-finite entries (an overflowed exp(beta)), or LinAlgError, a
        # ValueError subclass: the system is not positive definite
        raise SolverError(f"banded Cholesky factorization failed: {exc}") from exc
    return band, chol


def assemble(ws: FemWorkspace, profile, beta: np.ndarray) -> AssembledSystem:
    """Assemble the transformed Poisson system for a profile and Robin field.

    profile is (f, df/dx1) at the abscissae ws.x1, and f must be finite and
    positive at every one of them; beta holds nodal log-admittance values on
    the workspace's top trace.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (ws.trace.n_nodes,):
        raise ValueError("beta length does not match its trace mesh")
    f, df = (np.asarray(v, dtype=float) for v in profile)
    if f.shape != ws.x1.shape or df.shape != ws.x1.shape:
        raise ValueError("profile values do not match the workspace abscissae")
    if not np.all(np.isfinite(f) & (f > 0.0)):
        raise InvalidShapeError("height profile f is not finite and positive "
                                "at the quadrature abscissae")
    f_vol, df_vol, df_top = f[ws.vol_at], df[ws.vol_at], df[ws.top_at]
    s11, s12, s22 = pushforward_entries_from(f_vol, df_vol, ws.quad_pts[..., 1])

    # per-triangle integrals; `@ ones` sums the 3 points faster than np.sum
    S11, S12, S22 = ws.areas / 3.0 * (np.stack([s11, s12, s22]) @ np.ones(3))
    coeff = np.exp(np.interp(ws.top_squad, ws.trace.s, beta))
    lw = _EDGE_W[None, :] * ws.top_len[:, None]
    band, chol = _factor(ws, S11, S12, S22,
                         coeff * admittance_factor_from(df_top, ws.mesh.H) * lw)
    return AssembledSystem(band=band, chol=chol,
                           profile=(f_vol, df_vol, df_top), robin=coeff * lw)


def neumann_load(ws: FemWorkspace, k: int) -> np.ndarray:
    """Free-node load vector for the bottom-edge current sin(2 pi k s / L)."""
    squad, lengths = ws.edge_quad(ws.bottom_edges)
    g = np.sin(2.0 * np.pi * k * squad / ws.mesh.L)
    wq = g * (_EDGE_W[None, :] * lengths[:, None])
    f_loc = wq @ _EDGE_PHI  # (E, 2)
    return np.bincount(ws.bottom_edges.ravel(), f_loc.ravel(), ws.mesh.n_nodes)[ws.free]


def all_loads(ws: FemWorkspace, n_loads: int) -> np.ndarray:
    return np.column_stack([neumann_load(ws, k) for k in range(1, n_loads + 1)])


def bottom_interpolator(ws: FemWorkspace, sensor_x1: np.ndarray) -> sp.csr_matrix:
    """Sparse operator (n_sensors, n_free) mapping free-node values to
    bottom-edge sensor values."""
    sensor_x1 = np.asarray(sensor_x1, dtype=float)
    if np.any(sensor_x1 < 0.0) or np.any(sensor_x1 > ws.mesh.L):
        raise ValueError("sensor locations must lie in [0, L]")
    bottom_nodes = np.unique(ws.bottom_edges)
    order = np.argsort(ws.mesh.nodes[bottom_nodes, 0])
    bottom_nodes = bottom_nodes[order]
    xs = ws.mesh.nodes[bottom_nodes, 0]
    seg = np.clip(np.searchsorted(xs, sensor_x1, side="right") - 1, 0, xs.size - 2)
    t = (sensor_x1 - xs[seg]) / (xs[seg + 1] - xs[seg])
    rows = np.repeat(np.arange(sensor_x1.size), 2)
    cols = np.column_stack([bottom_nodes[seg], bottom_nodes[seg + 1]])
    return ws._on_free(np.column_stack([1.0 - t, t]), rows, cols)


def forward(system: AssembledSystem, loads: np.ndarray, B) -> ForwardState:
    """Solve the assembled system for every load column (n_free, n_loads) and read
    the solutions out through the sensor operator B: the one forward map."""
    U = system.solve(loads)
    if not np.all(np.isfinite(U)):
        raise SolverError("non-finite forward solution")
    return ForwardState(solutions=U, system=system, y=(B @ U).T.ravel())


def solve_deformed(mesh: SlabMesh, shape, beta: np.ndarray, n_loads: int,
                   sensor_x1) -> ForwardState:
    """Direct solve on the physically deformed domain (verification path).

    The structured slab mesh is stretched vertically so that node row j sits
    at height H * f(x1) * j / ny, and the isotropic problem is assembled on
    that geometry with exp(beta) on the (slanted) top edge.
    """
    nodes = mesh.nodes.copy()
    f, _ = shape.eval(nodes[:, 0])
    nodes[:, 1] *= f
    deformed = SlabMesh(nodes=nodes, triangles=mesh.triangles,
                        edge_groups=mesh.edge_groups, L=mesh.L, H=mesh.H,
                        nx=mesh.nx, ny=mesh.ny)
    ws = FemWorkspace(deformed)
    pa = deformed.nodes[ws.top_edges[:, 0]]
    pb = deformed.nodes[ws.top_edges[:, 1]]
    lengths = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    # the deformed trace keeps the reference x1 parameterisation of beta
    wq = np.exp(np.interp(ws.top_squad, ws.trace.s, np.asarray(beta, dtype=float))) * (
        _EDGE_W[None, :] * lengths[:, None])
    band, chol = _factor(ws, ws.areas, np.zeros_like(ws.areas), ws.areas, wq)
    return forward(AssembledSystem(band=band, chol=chol), all_loads(ws, n_loads),
                   bottom_interpolator(ws, sensor_x1))
