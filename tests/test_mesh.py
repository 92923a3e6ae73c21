import types

import numpy as np
import pytest

from robinshape import fem
from robinshape.mesh import (InvalidMeshError, SlabMesh, build_slab_mesh,
                             trace_of_top, triangle_areas)


def test_smallest_grid():
    mesh = build_slab_mesh(1.0, 0.05, 1, 1)
    assert mesh.n_nodes == 4
    assert mesh.triangles.shape == (2, 3)
    assert len(mesh.edge_groups["bottom"]) == 1
    assert len(mesh.edge_groups["top"]) == 1
    assert len(mesh.edge_groups["sides"]) == 2


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
    for a, b in mesh.edge_groups["sides"]:
        assert nodes[a, 0] in (0.0, 2.0) and nodes[a, 0] == nodes[b, 0]


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
    assert set(tagged) == boundary


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


def test_trace_requires_top_group():
    mesh = build_slab_mesh(1.0, 0.05, 4, 2)
    stripped = SlabMesh(nodes=mesh.nodes, triangles=mesh.triangles,
                        edge_groups={"bottom": mesh.edge_groups["bottom"],
                                     "sides": mesh.edge_groups["sides"]},
                        L=mesh.L, H=mesh.H, nx=mesh.nx, ny=mesh.ny)
    with pytest.raises(InvalidMeshError):
        trace_of_top(stripped)


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
    # the workspace, the trace and the sensors read these orders unsorted
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
