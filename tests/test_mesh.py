import types

import numpy as np
import pytest

from robinshape import fem
from robinshape.mesh import build_slab_mesh, trace_of_top, triangle_areas


def test_smallest_grid():
    mesh = build_slab_mesh(1.0, 0.05, 1, 1)
    assert mesh.n_nodes == 4
    assert mesh.triangles.shape == (2, 3)
    assert len(mesh.edge_groups["bottom"]) == 1
    assert len(mesh.edge_groups["top"]) == 1


def test_two_cell_grid_area():
    mesh = build_slab_mesh(1.0, 0.05, 2, 1)
    assert mesh.n_nodes == 6
    assert mesh.triangles.shape == (4, 3)
    assert np.isclose(triangle_areas(mesh).sum(), 0.05, rtol=0, atol=1e-15)


def test_node_count_and_exact_area():
    mesh = build_slab_mesh(1.0, 0.05, 64, 8)
    assert mesh.n_nodes == 585
    total = triangle_areas(mesh).sum()
    assert abs(total - 0.05) <= 1e-12 * 0.05


def test_positive_orientation_and_tag_exactness():
    mesh = build_slab_mesh(2.0, 0.1, 13, 4)
    assert np.all(triangle_areas(mesh) > 0)
    nodes = mesh.nodes
    for a, b in mesh.edge_groups["bottom"]:
        assert nodes[a, 1] == 0.0 and nodes[b, 1] == 0.0
    for a, b in mesh.edge_groups["top"]:
        assert nodes[a, 1] == 0.1 and nodes[b, 1] == 0.1


def test_tags_partition_boundary():
    mesh = build_slab_mesh(1.0, 0.05, 9, 3)
    # collect boundary edges as those belonging to exactly one triangle
    from collections import Counter
    count = Counter()
    for tri in mesh.triangles:
        for k in range(3):
            e = tuple(sorted((tri[k], tri[(k + 1) % 3])))
            count[e] += 1
    boundary = {e for e, c in count.items() if c == 1}
    tagged = [tuple(sorted(e)) for g in mesh.edge_groups.values() for e in g]
    assert len(tagged) == len(set(tagged))  # no edge tagged twice
    assert set(tagged) <= boundary
    # the untagged boundary edges are the Dirichlet sides, at x1 = 0 or L
    x1 = mesh.nodes[:, 0]
    sides = boundary - set(tagged)
    assert len(sides) == 2 * mesh.ny
    assert all(x1[a] == x1[b] and x1[a] in (0.0, mesh.L) for a, b in sides)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_slab_mesh(-1.0, 0.05, 4, 2)
    with pytest.raises(ValueError):
        build_slab_mesh(1.0, 0.0, 4, 2)
    with pytest.raises(ValueError):
        build_slab_mesh(1.0, 0.05, 0, 2)
    with pytest.raises(ValueError):
        build_slab_mesh(1.0, 0.05, 4, 0)


def test_trace_small():
    mesh = build_slab_mesh(1.0, 0.05, 2, 1)
    trace = trace_of_top(mesh)
    np.testing.assert_allclose(trace.s, [0.0, 0.5, 1.0])


def test_trace_default_inversion_size():
    mesh = build_slab_mesh(1.0, 0.05, 77, 7)
    trace = trace_of_top(mesh)
    assert trace.n_nodes == 78
    assert mesh.n_nodes == 624


def test_trace_parent_map_and_lengths():
    mesh = build_slab_mesh(1.0, 0.05, 11, 2)
    trace = trace_of_top(mesh)
    top_nodes = np.flatnonzero(mesh.nodes[:, 1] == 0.05)
    assert set(trace.parent_nodes) == set(top_nodes)
    assert len(set(trace.parent_nodes)) == trace.n_nodes  # injective
    assert np.all(np.diff(trace.s) > 0)
    assert trace.s[0] == 0.0 and trace.s[-1] == 1.0
    assert abs(np.diff(trace.s).sum() - 1.0) <= 1e-12


def stretched(mesh, monkeypatch):
    """The stretched copy of mesh that fem.solve_deformed assembles on,
    taken from the workspace it builds."""
    meshes = []

    class Recording(fem.FemWorkspace):
        def __init__(self, m):
            meshes.append(m)
            super().__init__(m)

    monkeypatch.setattr(fem, "FemWorkspace", Recording)
    shape = types.SimpleNamespace(eval=lambda x: (1.0 - 0.3 * np.sin(np.pi * x), None))
    fem.solve_deformed(mesh, shape, np.zeros(mesh.nx + 1), 1, [0.5])
    (deformed,) = meshes
    assert not np.array_equal(deformed.nodes, mesh.nodes)
    return deformed


@pytest.mark.parametrize("nx, ny", [(24, 3), (77, 7), (229, 10)])
@pytest.mark.parametrize("deformed", [False, True], ids=["slab", "stretched"])
def test_bottom_and_top_edges_in_x1_order(nx, ny, deformed, monkeypatch):
    # top_trace and the edge quadrature (lengths x1[b] - x1[a]) rely on this order
    mesh = build_slab_mesh(1.0, 0.05, nx, ny)
    if deformed:
        mesh = stretched(mesh, monkeypatch)
    x1 = mesh.nodes[:, 0]
    for group in ("bottom", "top"):
        edges = mesh.edge_groups[group]
        assert edges.shape == (nx, 2)
        assert np.all(x1[edges[:, 0]] < x1[edges[:, 1]])  # (left node, right node)
        assert np.all(np.diff(x1[edges[:, 0]]) > 0)      # sorted by x1
        assert np.all(np.diff(x1[np.unique(edges)]) > 0)  # nodes numbered in x1 order


# -- the constructions the grid slices replaced, kept as oracles -------------

def loop_mesh_arrays(nx, ny):
    """Triangles and bottom and top edges numbered by loops over the cells."""
    def nid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    bottom = np.array([(nid(i, 0), nid(i + 1, 0)) for i in range(nx)], dtype=np.int64)
    top = np.array([(nid(i, ny), nid(i + 1, ny)) for i in range(nx)], dtype=np.int64)
    return np.asarray(tris, dtype=np.int64), bottom, top


def sorted_free_nodes(mesh):
    """The nodes off x1 = 0 and x1 = L, sorted by x1 and then by x2."""
    x1 = mesh.nodes[:, 0]
    free = np.flatnonzero((x1 != 0.0) & (x1 != mesh.L))
    return free[np.lexsort((mesh.nodes[free, 1], x1[free]))]


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


MESHES = [(1, 1), (2, 1), (13, 4), (24, 3), (77, 7), (229, 10)]


@pytest.mark.parametrize("nx, ny, deformed", [
    *((nx, ny, False) for nx, ny in MESHES),
    # one column has no free node, so solve_deformed cannot solve on (1, 1)
    *((nx, ny, True) for nx, ny in MESHES if nx > 1)])
def test_grid_slices_are_bitwise_the_sorted_constructions(nx, ny, deformed, monkeypatch):
    # the mesh arrays, free nodes, trace and sensors' bottom row are slices
    # of SlabMesh.grid; the loops, sorts and searches they replaced agree
    mesh = build_slab_mesh(1.0, 0.05, nx, ny)
    if deformed:
        mesh = stretched(mesh, monkeypatch)
    tris, bottom, top = loop_mesh_arrays(nx, ny)
    assert_bitwise(mesh.triangles, tris)
    assert_bitwise(mesh.edge_groups["bottom"], bottom)
    assert_bitwise(mesh.edge_groups["top"], top)
    assert sorted(mesh.edge_groups) == ["bottom", "top"]
    ws = fem.FemWorkspace(mesh)
    assert_bitwise(ws.free, sorted_free_nodes(mesh))
    parents = np.unique(top)
    assert_bitwise(ws.trace.parent_nodes, parents)
    assert_bitwise(ws.trace.s, mesh.nodes[parents, 0])
    assert_bitwise(ws.top_trace, np.searchsorted(parents, top))
    assert_bitwise(mesh.grid[0], np.unique(bottom))
