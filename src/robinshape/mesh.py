"""Structured triangulations of the reference slab and the 1-D top-edge trace."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidMeshError(Exception):
    """Mesh violates a structural requirement (e.g. no tagged top edge)."""


@dataclass(frozen=True)
class SlabMesh:
    """Triangulation of the reference slab (0,L) x (0,H).

    nodes: (N, 2) coordinates; each grid row's nodes are numbered in x1 order.
    triangles: (T, 3) node indices, counter-clockwise.
    edge_groups: maps 'bottom' / 'top' / 'sides' to (E, 2) boundary edge
    arrays; every bottom and top edge is (left node, right node), and the
    edges are sorted by x1.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    edge_groups: dict
    L: float
    H: float
    nx: int
    ny: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class TraceMesh:
    """1-D mesh of the top edge, parameterised by arc-coordinate s in [0, L].

    parent_nodes maps each trace node to its SlabMesh node index.
    """

    s: np.ndarray
    parent_nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.s.shape[0]


def build_slab_mesh(L: float, H: float, nx: int, ny: int) -> SlabMesh:
    """Build a structured right-triangle grid of (nx+1) x (ny+1) nodes.

    Each grid cell is split along the same diagonal; boundary edges are
    tagged bottom / top / sides.  Node j (nx + 1) + i is column i of row j,
    so each row is numbered in x1 order; the bottom and top edges are
    (left node, right node), sorted by x1, and the workspace reads them so.
    """
    if L <= 0 or H <= 0:
        raise ValueError(f"slab dimensions must be positive, got L={L}, H={H}")
    if nx < 1 or ny < 1:
        raise ValueError(f"need nx >= 1 and ny >= 1, got nx={nx}, ny={ny}")

    xs = np.linspace(0.0, L, nx + 1)
    ys = np.linspace(0.0, H, ny + 1)
    # exact boundary coordinates
    xs[0], xs[-1] = 0.0, L
    ys[0], ys[-1] = 0.0, H
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    triangles = np.asarray(tris, dtype=np.int64)

    bottom = np.array([(nid(i, 0), nid(i + 1, 0)) for i in range(nx)], dtype=np.int64)
    top = np.array([(nid(i, ny), nid(i + 1, ny)) for i in range(nx)], dtype=np.int64)
    left = [(nid(0, j), nid(0, j + 1)) for j in range(ny)]
    right = [(nid(nx, j), nid(nx, j + 1)) for j in range(ny)]
    sides = np.asarray(left + right, dtype=np.int64)

    return SlabMesh(nodes=nodes, triangles=triangles,
                    edge_groups={"bottom": bottom, "top": top, "sides": sides},
                    L=float(L), H=float(H), nx=int(nx), ny=int(ny))


def triangle_areas(mesh: SlabMesh) -> np.ndarray:
    """Signed areas of all triangles (positive for CCW orientation)."""
    p = mesh.nodes[mesh.triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def trace_of_top(mesh: SlabMesh) -> TraceMesh:
    """Extract the top-edge trace mesh, ordered by x1: the top row's nodes,
    which `build_slab_mesh` numbers in x1 order."""
    top = mesh.edge_groups.get("top")
    if top is None or len(top) == 0:
        raise InvalidMeshError("mesh has no tagged top edges")
    parents = np.unique(top)
    return TraceMesh(s=mesh.nodes[parents, 0].copy(), parent_nodes=parents)
