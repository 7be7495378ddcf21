import numpy as np
import pytest

from etcsim.graph import (
    BENCHMARK_EDGES,
    Graph,
    benchmark_topology,
    is_weight_balanced,
    laplacian,
)


def components(g):
    """Connected components of an undirected graph: the multiplicity of
    the Laplacian's zero eigenvalue, the agreement directions."""
    return int(np.sum(np.abs(np.linalg.eigvalsh(laplacian(g))) < 1e-9))


def test_benchmark_topology_shape():
    g = benchmark_topology()
    assert g.n == 8
    assert len(g.edges) == 20  # 10 undirected edges, mirrored
    assert components(g) == 1
    assert is_weight_balanced(g)


def test_benchmark_neighbor_counts():
    # degrees read off the edge list by hand
    g = benchmark_topology()
    assert g.neighbor_counts.tolist() == [2, 3, 3, 2, 3, 2, 2, 3]


def test_laplacian_rows_sum_to_zero():
    g = benchmark_topology()
    L = laplacian(g)
    assert np.allclose(L.sum(axis=1), 0.0)
    assert np.array_equal(L, L.T)
    assert np.array_equal(np.diag(L), g.out_degrees)


def test_laplacian_small_path():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)], undirected=True)
    L = laplacian(g)
    expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    assert np.array_equal(L, expected)


def test_directed_weight_balance():
    # 3-cycle with equal weights is weight balanced; breaking one weight is not
    cyc = Graph.from_edge_list(3, [(0, 1), (1, 2), (2, 0)], undirected=False)
    assert is_weight_balanced(cyc)
    lop = Graph.from_edge_list(3, [(0, 1, 2.0), (1, 2, 1.0), (2, 0, 1.0)], undirected=False)
    assert not is_weight_balanced(lop)


def test_neighbors():
    g = benchmark_topology()
    # agent 0 (label 1) connects to labels 2 and 8
    assert g.in_neighbors(0).tolist() == [1, 7]
    assert g.out_neighbors(0).tolist() == [1, 7]


def test_validation_errors():
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 0, 1.0),))
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 1, -1.0),))
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 3, 1.0),))
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 1, 1.0),), undirected=True)  # missing mirror


def test_disconnected_detected():
    g = Graph.from_edge_list(4, [(0, 1), (2, 3)], undirected=True)
    assert components(g) == 2


def test_one_based_offset():
    g = Graph.from_edge_list(2, [(1, 2)], undirected=True, one_based=True)
    assert g.adjacency[0, 1] == 1.0
    assert g.adjacency[1, 0] == 1.0


def test_adjacency_immutable():
    g = benchmark_topology()
    with pytest.raises(ValueError):
        g.adjacency[0, 0] = 5.0
