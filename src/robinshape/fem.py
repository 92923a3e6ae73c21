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
hundred x1 values.  The push-forward tensor is linear in the features
[f, df, 1/f, df^2/f] at those abscissae, so `assemble` is one product of the
features and the top-edge Robin weights with the fused per-mesh operator
`FemWorkspace.F`, which composes the volume quadrature M
(`FemWorkspace.quadrature_operator`) with the coefficient-to-band operator K
(`FemWorkspace.coefficient_operator`); its transpose `FT` is the exact
adjoint the gradient uses, and M's blocks give the Jacobian's volume
derivatives.  The verification path `solve_deformed` (isotropic operator on
the stretched mesh, chord lengths on the slanted top edge) goes through K
directly.  Both end in `_factor`, the one banded Cholesky factorization,
called straight through LAPACK.  The Robin field reaches the top-edge points
by a gather of the two trace nodes of each top edge (`FemWorkspace.top_gather`),
and sensitivities there go back by its transpose `FemWorkspace.top_pullback`.
`forward` solves every load and reads the bottom-edge sensors out load-major;
the data generator, the inverse problem and `solve_deformed` all go through it.
The sensors (`Sensors`) are the few free rows they touch and a dense block of
their weights there, so that every read and every adjoint right-hand side
touches two rows per sensor.
`workspace` builds the workspace of a slab mesh once and shares it between
the data generator and every inverse problem on that mesh; its operators,
and what a configuration adds to the mesh, are built once per workspace
through `FemWorkspace.memo` and shared read-only.

The free nodes are the only vector space this module hands out: loads,
solutions, the sensors and the element operators `grad_op` and `top_op` all
live on the free nodes in `FemWorkspace.free` order.  The Dirichlet values
are zero, so no caller ever needs the full nodal vector.
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

# pushforward_entries_from stays importable from this module: the fused
# operator F replaces its pointwise use, and perfbench/tracer.py wraps
# fem.pushforward_entries_from by name
from .geometry import (InvalidShapeError, admittance_factor_from,  # noqa: F401
                       pushforward_entries_from)
from .mesh import SlabMesh, build_slab_mesh, trace_of_top, triangle_areas


class SolverError(Exception):
    """Factorization or solve failure."""


# 2-point Gauss rule on [-1, 1]
_EDGE_XI = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_EDGE_W = np.array([0.5, 0.5])  # weights on the unit-length reference edge
# P1 hat values at the two edge quadrature points: (2 gauss, 2 local nodes);
# with FemWorkspace.top_trace they are the interpolation of the Robin field
# onto the top-edge points
EDGE_PHI = np.column_stack([(1.0 - _EDGE_XI) / 2.0, (1.0 + _EDGE_XI) / 2.0])


def _memoised(build):
    """A workspace property built by build(ws) once, through `FemWorkspace.memo`."""
    return property(lambda ws: ws.memo((build.__name__,), lambda: build(ws)), doc=build.__doc__)


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
        # (left node, right node), sorted by x1, as build_slab_mesh emits them
        self.top_edges = mesh.edge_groups["top"]
        self.bottom_edges = mesh.edge_groups["bottom"]
        # the trace nodes (E, 2) at the ends of each top edge, which
        # `top_gather` reads, and that gather's exact transpose (q, 2E)
        self.top_trace = np.searchsorted(self.trace.parent_nodes, self.top_edges)
        E = self.top_edges.shape[0]
        self.top_pullback = _frozen(sp.csr_matrix((
            np.tile(EDGE_PHI, (E, 1)).ravel(),
            (self.top_trace.repeat(2, axis=0).ravel(), np.arange(2 * E).repeat(2))),
            shape=(self.trace.n_nodes, 2 * E)))

        x1 = mesh.nodes[:, 0]
        free_mask = (x1 != 0.0) & (x1 != mesh.L)
        # column-major order keeps the reduced system banded; it also holds on
        # the deformed mesh, where x1 is unchanged and x2 scales by f > 0
        free = np.flatnonzero(free_mask)
        self.free = free[np.lexsort((mesh.nodes[free, 1], x1[free]))]
        self.full_to_free = -np.ones(mesh.n_nodes, dtype=np.int64)
        self.full_to_free[self.free] = np.arange(self.free.size)

        # The reduced system in LAPACK upper banded storage is linear in the
        # coefficients c = [S11 (T), S12 (T), S22 (T), wq (2E)] (see
        # coefficient_operator).  The local matrices are exactly symmetric,
        # so the upper triangle (r <= c) holds all of the system.
        self.top_squad, self.top_len = self.edge_quad(self.top_edges)
        r, c, keep = self._local_pairs()
        # the band diagonals the local entries write, ascending from the main one
        self.offsets = np.unique((c - r)[keep])
        self.band_u = int(np.max(self.offsets, initial=0))

        # distinct x1 of the volume and top-edge quadrature points, with the
        # gathers vol_at (T, 3) and top_at (E, 2) back onto the points; the
        # Gauss points lie inside disjoint edges, so top_at has no repeats
        xq = np.concatenate([self.quad_pts[..., 0].ravel(), self.top_squad.ravel()])
        self.x1, at = np.unique(xq, return_inverse=True)
        n_vol = self.quad_pts[..., 0].size
        self.vol_at = at[:n_vol].reshape(self.quad_pts.shape[:2])
        self.top_at = at[n_vol:].reshape(self.top_squad.shape)
        self.top_lw = _EDGE_W[None, :] * self.top_len[:, None]
        self._memo = {}

    def memo(self, key, build):
        """build() for key, built on the first call and shared read-only
        after it: every array it holds, directly, as a dataclass field or as
        a sparse matrix's storage, is made unwriteable.  The entries live as long as the workspace, one
        per distinct key, so `workspace`'s bound on meshes bounds them too."""
        if key not in self._memo:
            self._memo[key] = _frozen(build())
        return self._memo[key]

    def top_gather(self, beta) -> np.ndarray:
        """beta, nodal values on the trace, at the top-edge points (E, 2):
        point g of edge e carries sum_a EDGE_PHI[g, a] beta[top_trace[e, a]]."""
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (self.trace.n_nodes,):
            raise ValueError("beta length does not match its trace mesh")
        return beta[self.top_trace] @ EDGE_PHI.T

    def loads(self, n_loads: int) -> np.ndarray:
        """The free-node loads of currents 1..n_loads (n_free, n_loads), built
        once per workspace and shared read-only."""
        return self.memo(("loads", n_loads), lambda: all_loads(self, n_loads))

    def sensor_operator(self, sensor_x1) -> "Sensors":
        """The bottom-edge sensors at sensor_x1, each the linear
        interpolation of its two neighbouring bottom nodes, built once per
        workspace and layout.  Sensors on a Dirichlet node read its zero
        value, so their weight there is dropped."""
        x = np.asarray(sensor_x1, dtype=float)
        if np.any(x < 0.0) or np.any(x > self.mesh.L):
            raise ValueError("sensor locations must lie in [0, L]")

        def build():
            bottom = np.unique(self.bottom_edges)  # numbered in x1 order
            xs = self.mesh.nodes[bottom, 0]
            seg = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
            t = (x - xs[seg]) / (xs[seg + 1] - xs[seg])
            sensor = np.repeat(np.arange(x.size), 2)
            node = self.full_to_free[np.column_stack([bottom[seg], bottom[seg + 1]]).ravel()]
            weight = np.column_stack([1.0 - t, t]).ravel()
            on = node >= 0
            rows, col = np.unique(node[on], return_inverse=True)
            block = np.zeros((x.size, rows.size))
            block[sensor[on], col] = weight[on]
            return Sensors(rows=rows, block=block, n_free=self.free.size)
        return self.memo(("sensors", x.shape, x.tobytes()), build)

    def _local_pairs(self):
        """Free-node row and column (r, c) of every local matrix entry, the
        triangles' 3 x 3 entries then the top edges' 2 x 2, and the mask of
        the entries in the upper band of the reduced system."""
        tri = self.mesh.triangles
        rows = np.concatenate([np.repeat(tri, 3, axis=1).ravel(),
                               np.repeat(self.top_edges, 2, axis=1).ravel()])
        cols = np.concatenate([np.tile(tri, (1, 3)).ravel(),
                               np.tile(self.top_edges, (1, 2)).ravel()])
        r, c = self.full_to_free[rows], self.full_to_free[cols]
        return r, c, (r >= 0) & (c >= 0) & (r <= c)

    def coefficient_operator(self) -> sp.csr_matrix:
        """The sparse operator K from the coefficients c to the flattened
        band: band = K @ c.  Built on each call: only F's build and the
        deformed-domain solve use it, so no shared workspace keeps it."""
        T, E = self.areas.size, self.top_edges.shape[0]
        r, c, keep = self._local_pairs()
        pos = (self.band_u + r - c) * self.free.size + c
        # K's triplets (band position, coefficient, value) for the entries in
        # the band: entry a, b of triangle t carries the gradient outer
        # products for t, T + t, 2T + t, entry a, b of top edge e the hat
        # products at its point g for 3T + 2e + g
        vol, top = np.flatnonzero(keep[:9 * T]), np.flatnonzero(keep[9 * T:])
        t, e = vol // 9, top // 4
        gx, gy = self.grads[..., 0], self.grads[..., 1]
        outer = lambda u, w: (u[:, :, None] * w[:, None, :]).ravel()[vol]
        hat = [np.tile(np.outer(phi, phi).ravel(), E)[top] for phi in EDGE_PHI]
        at = np.concatenate([np.tile(pos[vol], 3), np.tile(pos[9 * T + top], 2)])
        j = np.concatenate([t, T + t, 2 * T + t, 3 * T + 2 * e, 3 * T + 2 * e + 1])
        v = np.concatenate([outer(gx, gx), outer(gx, gy) + outer(gy, gx), outer(gy, gy), *hat])
        return sp.csr_matrix((v, (at, j)), shape=((self.band_u + 1) * self.free.size, 3 * T + 2 * E))

    def quadrature_operator(self) -> sp.csr_matrix:
        """The volume quadrature M (3T, 4 nx) from the features
        [f, df, 1/f, df^2/f] at the abscissae x1 to the coefficients
        S11 = sum_g areas/3 f, S12 = sum_g -areas/3 x2 df and
        S22 = sum_g areas/3 (1/f + x2^2 df^2/f) over each triangle's points g.
        Built on each call, like K, so no workspace keeps it."""
        T, nx = self.areas.size, self.x1.size
        w = np.broadcast_to(self.areas[:, None] / 3.0, self.vol_at.shape)
        x2 = self.quad_pts[..., 1]
        tri = np.broadcast_to(np.arange(T)[:, None], self.vol_at.shape)
        rows = np.concatenate([tri, T + tri, 2 * T + tri, 2 * T + tri]).ravel()
        cols = np.concatenate([self.vol_at + k * nx for k in range(4)]).ravel()
        vals = np.concatenate([w, -w * x2, w, w * x2 ** 2]).ravel()
        return sp.csr_matrix((vals, (rows, cols)), shape=(3 * T, 4 * nx))

    @_memoised
    def F(self) -> sp.csr_matrix:
        """The fused assembly operator K block_diag(M, I), built on first
        use: band = F @ phi for the features phi, [f, df, 1/f, df^2/f] at
        the abscissae x1 and then the top-edge Robin weights wq (2E)."""
        M = sp.block_diag([self.quadrature_operator(), sp.identity(self.top_squad.size)])
        # the copy drops the slack of the product's over-allocated buffers
        return (self.coefficient_operator() @ M).tocsr().copy()

    @_memoised
    def FT(self) -> sp.csr_matrix:
        """CSR copy of F's transpose, which maps band sensitivities back to
        the features (`band_pairs`); built on first use, so a workspace that
        never differentiates holds none."""
        return self.F.T.tocsr()

    @_memoised
    def grad_op(self) -> sp.csr_matrix:
        """P1 gradient operator (2T, n_free): row c * T + t of grad_op @ u is
        component c of grad(u) on triangle t, for free-node values u."""
        rows = np.arange(2 * self.areas.size).reshape(2, -1, 1).repeat(3, axis=2)
        cols = np.broadcast_to(self.mesh.triangles, rows.shape)
        return self._on_free(self.grads.transpose(2, 0, 1), rows, cols)

    @_memoised
    def top_op(self) -> sp.csr_matrix:
        """Top-edge point values (2E, n_free): row 2 * e + g of top_op @ u is
        u at quadrature point g of top edge e, for free-node values u: the
        gather top_pullback.T with its trace-node columns moved to the free
        nodes."""
        gather = self.top_pullback.T.tocoo()
        return self._on_free(gather.data, gather.row, self.trace.parent_nodes[gather.col])

    def _on_free(self, vals, rows, cols) -> sp.csr_matrix:
        # an operator on the nodal values, restricted to the free-node
        # columns: the Dirichlet values are zero, so dropping them is exact
        full = sp.csr_matrix((np.ravel(vals), (rows.ravel(), cols.ravel())),
                             shape=(rows.max(initial=-1) + 1, self.mesh.n_nodes))
        return full[:, self.free]

    def band_pairs(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The flattened band p with p . band = sum_l V[:, l]^T A U[:, l] for
        free-node columns U, V (N, k): the column-summed symmetric pair
        products on the band's written diagonals.  Since band = F phi, FT @ p is the
        sensitivity of that sum to the features phi of `assemble`."""
        n, k = U.shape
        p = np.zeros((self.band_u + 1, n))
        ones = np.ones(k)  # `ones @` sums the columns faster than np.sum
        # products of the columns laid end to end (the solves return them
        # column-major), so every product is contiguous: entry l * n + i of
        # buf pairs row i with row i + d of column l, and the last d entries
        # of each column, which pair two columns, are dropped
        u, v = U.ravel("F"), V.ravel("F")
        buf = u * v
        p[self.band_u] = ones @ buf.reshape(k, n)
        for d in self.offsets[1:]:
            np.multiply(u[:-d], v[d:], out=buf[:-d])
            buf[:-d] += v[:-d] * u[d:]
            p[self.band_u - d, d:] = ones @ buf.reshape(k, n)[:, :n - d]
        return p.ravel()

    def edge_quad(self, edges: np.ndarray):
        """Quadrature x1-coordinates (E, 2) and reference lengths (E,) of edges."""
        x1 = self.mesh.nodes[:, 0]
        a, b = x1[edges[:, 0]], x1[edges[:, 1]]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid[:, None] + half[:, None] * _EDGE_XI[None, :], b - a


def _frozen(value):
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif sp.issparse(value):
        for a in (value.data, value.indices, value.indptr):
            a.flags.writeable = False
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _frozen(getattr(value, f.name))
    return value


@functools.lru_cache(maxsize=4)
def workspace(L: float, H: float, nx: int, ny: int) -> FemWorkspace:
    """The workspace of the nx x ny slab mesh of size L x H, built once per
    mesh and shared by every caller on it: the data generator on the fine
    mesh and every inverse problem on the inversion mesh.  Nothing writes to
    a workspace after construction except its memoised operators."""
    return FemWorkspace(build_slab_mesh(L, H, nx, ny))


@dataclass
class Sensors:
    """Sensors that read free-node values by a few rows: the sensor values
    of free-node columns U (n_free, k) are block @ U[rows], with rows the
    free nodes any sensor touches, ascending, and block (n_sensors, rows)
    the sensors' weights there.  Two rows per sensor keep the block small
    where the dense (n_sensors, n_free) operator would be nearly all zeros."""

    rows: np.ndarray
    block: np.ndarray
    n_free: int

    def read(self, U: np.ndarray) -> np.ndarray:
        """Sensor values (n_sensors, k) of free-node columns U (n_free, k)."""
        return self.block @ U[self.rows]

    def adjoint(self, R: np.ndarray) -> np.ndarray:
        """The free-node right-hand sides B^T R (n_free, k), column-major as
        the banded solve takes them, for sensor weights R (n_sensors, k)."""
        rhs = np.zeros((self.n_free, R.shape[1]), order="F")
        rhs[self.rows] = self.block.T @ R
        return rhs


@dataclass
class AssembledSystem:
    """Reduced SPD system in upper banded storage (band[u + i - j, j] =
    A[i, j] for i <= j, free nodes in ws.free order) with its banded Cholesky
    factor.  The features `assemble` forms are kept for the sensitivities:
    profile (f and df at the abscissae ws.x1) with inv_f = 1/f there, robin
    (exp(beta) * w_g * len at the top-edge quadrature points, (E, 2)) and
    admittance, the admittance factor at those points; the deformed-domain
    system carries none of them."""

    band: np.ndarray
    chol: np.ndarray
    profile: tuple | None = None
    inv_f: np.ndarray | None = None
    robin: np.ndarray | None = None
    admittance: np.ndarray | None = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for free-node right-hand sides rhs, (n_free,) or (n_free, k)."""
        x, info = dpbtrs(self.chol, rhs)
        if info != 0:
            raise SolverError(f"banded triangular solve failed (info {info})")
        return x


@dataclass
class ForwardState:
    solutions: np.ndarray  # (n_free, n_loads)
    system: AssembledSystem
    y: np.ndarray  # sensor values, load-major: length n_loads * n_sensors


def _factor(ws: FemWorkspace, band: np.ndarray):
    """Factor the reduced system: the one factorization path.

    band is the flattened upper band, ws.F @ phi from `assemble` or K @ c
    from `solve_deformed`, with K = ws.coefficient_operator(), with c = [S11, S12, S22, wq] the per-triangle
    integrals (T,) of the conductivity entries and the Robin weights at the
    top-edge quadrature points (E, 2).  Returns (band, chol), the upper
    banded system and its Cholesky factor.
    """
    band = band.reshape(ws.band_u + 1, ws.free.size)
    # LAPACK accepts an infinite diagonal (an overflowed exp(beta)) and
    # returns a factor with it, so non-finite entries are rejected first
    if not np.isfinite(band).all():
        raise SolverError("banded Cholesky factorization failed: non-finite system entries")
    chol, info = dpbtrf(band)
    if info != 0:
        raise SolverError(f"banded Cholesky factorization failed: leading minor {info} "
                          "is not positive definite")
    return band, chol


def assemble(ws: FemWorkspace, profile, beta: np.ndarray) -> AssembledSystem:
    """Assemble the transformed Poisson system for a profile and Robin field.

    profile is (f, df/dx1) at the abscissae ws.x1, and f must be finite and
    positive at every one of them; beta holds nodal log-admittance values on
    the workspace's top trace.  The band is one product of the fused
    operator ws.F with the features [f, df, 1/f, df^2/f, wq].
    """
    f, df = (np.asarray(v, dtype=float) for v in profile)
    if f.shape != ws.x1.shape or df.shape != ws.x1.shape:
        raise ValueError("profile values do not match the workspace abscissae")
    if not np.all(np.isfinite(f) & (f > 0.0)):
        raise InvalidShapeError("height profile f is not finite and positive "
                                "at the quadrature abscissae")
    inv_f = 1.0 / f
    # an overflowed exp(beta) is rejected by _factor's finite-band check
    with np.errstate(over="ignore"):
        robin = np.exp(ws.top_gather(beta)) * ws.top_lw
    admittance = admittance_factor_from(df[ws.top_at], ws.mesh.H)
    wq = robin * admittance
    band, chol = _factor(ws, ws.F @ np.concatenate([f, df, inv_f, df * df * inv_f, wq.ravel()]))
    return AssembledSystem(band=band, chol=chol, profile=(f, df), inv_f=inv_f, robin=robin,
                           admittance=admittance)


def neumann_load(ws: FemWorkspace, k: int) -> np.ndarray:
    """Free-node load vector for the bottom-edge current sin(2 pi k s / L)."""
    squad, lengths = ws.edge_quad(ws.bottom_edges)
    g = np.sin(2.0 * np.pi * k * squad / ws.mesh.L)
    wq = g * (_EDGE_W[None, :] * lengths[:, None])
    f_loc = wq @ EDGE_PHI  # (E, 2)
    return np.bincount(ws.bottom_edges.ravel(), f_loc.ravel(), ws.mesh.n_nodes)[ws.free]


def all_loads(ws: FemWorkspace, n_loads: int) -> np.ndarray:
    return np.column_stack([neumann_load(ws, k) for k in range(1, n_loads + 1)])


def forward(system: AssembledSystem, loads: np.ndarray, sensors: Sensors) -> ForwardState:
    """Solve the assembled system for every load column (n_free, n_loads) and read
    the solutions out through the sensors: the one forward map."""
    U = system.solve(loads)
    if not np.all(np.isfinite(U)):
        raise SolverError("non-finite forward solution")
    return ForwardState(solutions=U, system=system, y=sensors.read(U).T.ravel())


def solve_deformed(mesh: SlabMesh, shape, beta: np.ndarray, n_loads: int,
                   sensor_x1) -> ForwardState:
    """Direct solve on the physically deformed domain (verification path).

    The structured slab mesh is stretched vertically so that node row j sits
    at height H * f(x1) * j / ny, and the isotropic problem is assembled on
    that geometry with exp(beta) on the (slanted) top edge.  The stretched
    copy shares the mesh's edge arrays, and x1 is unchanged, so its edges
    keep their order.
    """
    nodes = mesh.nodes.copy()
    f, _ = shape.eval(nodes[:, 0])
    nodes[:, 1] *= f
    ws = FemWorkspace(dataclasses.replace(mesh, nodes=nodes))
    lengths = np.hypot(*(nodes[ws.top_edges[:, 1]] - nodes[ws.top_edges[:, 0]]).T)
    # the deformed trace keeps the reference x1 parameterisation of beta
    wq = np.exp(ws.top_gather(beta)) * (_EDGE_W[None, :] * lengths[:, None])
    c = np.concatenate([ws.areas, np.zeros_like(ws.areas), ws.areas, wq.ravel()])
    band, chol = _factor(ws, ws.coefficient_operator() @ c)
    return forward(AssembledSystem(band=band, chol=chol), all_loads(ws, n_loads),
                   ws.sensor_operator(sensor_x1))
