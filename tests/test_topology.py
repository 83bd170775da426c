import numpy as np
import pytest

from netadmm.topology import (
    Graph,
    build_cluster,
    build_complete,
    build_graph,
    build_ring,
)


def test_complete_small():
    g = build_complete(3)
    assert g.neighbors == ((1, 2), (0, 2), (0, 1))


def test_complete_single_node():
    g = build_complete(1)
    assert g.num_nodes == 1
    assert g.neighbors == ((),)


def test_complete_degrees():
    g = build_complete(20)
    assert all(g.degree(i) == 19 for i in range(20))


def test_complete_rejects_zero():
    with pytest.raises(ValueError):
        build_complete(0)


def test_ring_four():
    g = build_ring(4)
    assert g.neighbors == ((1, 3), (0, 2), (1, 3), (0, 2))


def test_ring_three_equals_complete():
    assert build_ring(3).neighbors == build_complete(3).neighbors


def test_ring_degrees():
    g = build_ring(20)
    assert all(g.degree(i) == 2 for i in range(20))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_ring_rejects_small(n):
    with pytest.raises(ValueError):
        build_ring(n)


def test_cluster_four():
    g = build_cluster(4)
    edges = {(i, j) for i, j in g.directed_edges() if i < j}
    assert edges == {(0, 1), (2, 3), (1, 2)}


def test_cluster_six_bridge():
    g = build_cluster(6)
    assert g.neighbors[2] == (0, 1, 3)


def test_cluster_twenty_degrees():
    g = build_cluster(20)
    for i in range(20):
        expected = 10 if i in (9, 10) else 9
        assert g.degree(i) == expected
    assert g.num_undirected_edges() == 2 * (10 * 9 // 2) + 1


@pytest.mark.parametrize("n", [2, 5, 7])
def test_cluster_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        build_cluster(n)


@pytest.mark.parametrize(
    "topology,n",
    [("complete", n) for n in (1, 2, 3, 8, 20)]
    + [("ring", n) for n in (3, 4, 20)]
    + [("cluster", n) for n in (4, 6, 20)],
)
def test_built_graphs_satisfy_invariants(topology, n):
    g = build_graph(topology, n)
    g.validate()
    for i in range(n):
        nbs = g.neighbors[i]
        assert i not in nbs
        assert list(nbs) == sorted(nbs)
        for j in nbs:
            assert i in g.neighbors[j]
    assert g.is_connected()


def test_build_graph_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown topology"):
        build_graph("torus", 9)


def test_validate_catches_asymmetry():
    g = Graph(3, ((1,), (0, 2), ()))
    with pytest.raises(ValueError, match="asymmetric"):
        g.validate()


def test_validate_catches_self_loop():
    g = Graph(2, ((0, 1), (0,)))
    with pytest.raises(ValueError, match="self-loop"):
        g.validate()


def test_validate_catches_disconnection():
    g = Graph(4, ((1,), (0,), (3,), (2,)))
    with pytest.raises(ValueError, match="not connected"):
        g.validate()


def test_edge_layout_and_node_sums_on_ragged_graph():
    # cluster(6) has degrees 2, 2, 3, 3, 2, 2
    g = build_cluster(6)
    edges = list(g.directed_edges())
    sources, targets = g.edge_arrays()
    assert list(zip(sources.tolist(), targets.tolist())) == edges
    assert g.degrees.tolist() == [g.degree(i) for i in range(6)]
    assert g.offsets.tolist() == [0, 2, 4, 7, 10, 12, 14]
    values = [0.1 * k + 1.0 / (k + 3) for k in range(len(edges))]
    want = [sum(v for (i, _), v in zip(edges, values) if i == node) for node in range(6)]
    assert g.node_sums(np.array(values)).tolist() == want
    matrix = np.zeros((6, 6))
    for (i, j), v in zip(edges, values):
        matrix[i, j] = v
    np.testing.assert_array_equal(g.weights(np.array(values)), matrix)
    np.testing.assert_array_equal(g.adjacency, matrix != 0)
    # On complete(20) the sums of 19 log-normal values tell summation
    # orders apart: a row-wise sum of the weight matrix differs from
    # Python's left-to-right sum on some nodes, node_sums on none.
    g = build_complete(20)
    values = np.random.default_rng(1).lognormal(size=20 * 19)
    want = [sum(values[g.offsets[i] : g.offsets[i + 1]].tolist()) for i in range(20)]
    assert g.node_sums(values).tolist() == want
    assert g.weights(values).sum(axis=1).tolist() != want

