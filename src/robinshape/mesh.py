"""Structured triangulations of the reference slab and the 1-D top-edge trace."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SlabMesh:
    """Triangulation of the reference slab (0,L) x (0,H).

    nodes: (N, 2) coordinates.
    triangles: (T, 3) node indices, counter-clockwise.
    edge_groups: maps 'bottom' / 'top' to (nx, 2) boundary edge arrays,
    each edge (left node, right node), sorted by x1.
    grid: (ny+1, nx+1) node numbers, grid[j, i] the node of column i in
    row j; the numbering's one statement, which every structural fact
    (edges, free nodes, trace, sensors) is a slice of.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    edge_groups: dict
    grid: np.ndarray
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


def row_edges(row: np.ndarray) -> np.ndarray:
    """The edges (row[i], row[i + 1]) between neighbours of a grid row."""
    return np.column_stack([row[:-1], row[1:]])


def build_slab_mesh(L: float, H: float, nx: int, ny: int) -> SlabMesh:
    """Build a structured right-triangle grid of (nx+1) x (ny+1) nodes.

    Node j (nx + 1) + i is column i of row j (`SlabMesh.grid`).  Each grid
    cell (a, b, c, d), counter-clockwise from its lower left node, is split
    into (a, b, c) and (a, c, d); the bottom and top rows' edges are tagged.
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

    grid = np.arange((ny + 1) * (nx + 1), dtype=np.int64).reshape(ny + 1, nx + 1)
    a, b, c, d = grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:, :-1]
    # cell by cell, row by row: (ny, nx, 2 triangles, 3 nodes)
    triangles = np.stack([np.stack([a, b, c], axis=-1), np.stack([a, c, d], axis=-1)],
                         axis=2).reshape(-1, 3)

    return SlabMesh(nodes=nodes, triangles=triangles,
                    edge_groups={"bottom": row_edges(grid[0]), "top": row_edges(grid[-1])},
                    grid=grid, L=float(L), H=float(H), nx=int(nx), ny=int(ny))


def triangle_areas(mesh: SlabMesh) -> np.ndarray:
    """Signed areas of all triangles (positive for CCW orientation)."""
    p = mesh.nodes[mesh.triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def trace_of_top(mesh: SlabMesh) -> TraceMesh:
    """The top-edge trace mesh: the grid's top row, in x1 order."""
    parents = mesh.grid[-1]
    return TraceMesh(s=mesh.nodes[parents, 0], parent_nodes=parents)
