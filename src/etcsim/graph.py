"""Weighted communication graphs and Laplacian utilities.

Graphs are stored as directed weighted edge lists. An undirected edge is
inserted as two directed edges with equal weight, so a single code path
serves undirected topologies and weight-balanced digraphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "laplacian",
    "is_weight_balanced",
    "benchmark_topology",
    "BENCHMARK_EDGES",
]

# 8-agent undirected benchmark topology (unit weights, 1-based labels).
BENCHMARK_EDGES = (
    (1, 2),
    (1, 8),
    (2, 3),
    (2, 7),
    (3, 4),
    (3, 6),
    (4, 5),
    (5, 6),
    (5, 8),
    (7, 8),
)


@dataclass(frozen=True)
class Graph:
    """Weighted digraph over agents 0..n-1.

    ``edges`` holds directed (from, to, weight) triples with strictly
    positive weights and no self-loops. Immutable after construction;
    safe to share across concurrent scenario runs.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    undirected: bool = False
    adjacency: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adj = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"weight {w} on edge ({i},{j}) must be finite and positive")
            adj[i, j] = w
        if self.undirected and not np.array_equal(adj, adj.T):
            raise ValueError("undirected graph has asymmetric adjacency")
        object.__setattr__(self, "adjacency", adj)
        adj.setflags(write=False)

    @classmethod
    def from_edge_list(
        cls,
        n: int,
        edges: list[tuple[int, int]] | list[tuple[int, int, float]],
        undirected: bool = True,
        one_based: bool = False,
    ) -> "Graph":
        """Build a graph, mirroring each edge when ``undirected``. An edge,
        or its mirror, may repeat with its weight but not with another."""
        off = 1 if one_based else 0
        directed: dict[tuple[int, int], float] = {}
        for edge in edges:
            i, j = edge[0] - off, edge[1] - off
            w = float(edge[2]) if len(edge) > 2 else 1.0
            for key in ((i, j), (j, i)) if undirected else ((i, j),):
                if key in directed and directed[key] != w:
                    raise ValueError(f"edge {key} given with weights {directed[key]} and {w}")
                directed[key] = w
        triples = tuple(sorted((i, j, w) for (i, j), w in directed.items()))
        return cls(n=n, edges=triples, undirected=undirected)

    @property
    def out_degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    @property
    def in_degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=0)

    @property
    def neighbor_counts(self) -> np.ndarray:
        """Number of in-neighbors per agent (edge count, not weight sum)."""
        return (self.adjacency.T != 0).sum(axis=1)

    def in_neighbors(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[:, i])

    def out_neighbors(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[i, :])


def laplacian(g: Graph) -> np.ndarray:
    """Out-degree Laplacian L = D_out - A. Rows sum to zero."""
    return np.diag(g.out_degrees) - g.adjacency


def is_weight_balanced(g: Graph) -> bool:
    """True iff every node's out-degree equals its in-degree."""
    return bool(np.array_equal(g.out_degrees, g.in_degrees))


def benchmark_topology() -> Graph:
    """The 8-agent undirected unit-weight benchmark topology.

    Agents 1, 4, 6, 7 have two neighbors; agents 2, 3, 5, 8 have three.
    """
    return Graph.from_edge_list(8, list(BENCHMARK_EDGES), undirected=True, one_based=True)
