"""Communication graphs for the round-synchronous consensus simulator.

Three benchmark topologies are supported: complete, ring, and cluster
(two complete halves linked by a single bridge edge). Graphs are
undirected, connected, and immutable once built; penalties elsewhere in
the package are addressed per *directed* edge ``(i, j)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

__all__ = [
    "Graph",
    "TOPOLOGIES",
    "build_complete",
    "build_ring",
    "build_cluster",
    "build_graph",
]

TOPOLOGIES = ("complete", "ring", "cluster")


@dataclass(frozen=True)
class Graph:
    """Undirected communication graph over nodes ``0 .. num_nodes-1``.

    Attributes:
        num_nodes: Number of nodes.
        neighbors: Tuple indexed by node id; entry ``i`` is the sorted
            tuple of node i's one-hop neighbors.

    Directed edges are ordered as ``directed_edges()`` yields them, node by
    node; ``degrees``, ``offsets``, ``edge_arrays()``, ``by_slot``,
    ``neighbor_rows`` and ``node_sums`` give that layout as arrays,
    computed once per graph.
    """

    num_nodes: int
    neighbors: tuple[tuple[int, ...], ...]

    def degree(self, node: int) -> int:
        return len(self.neighbors[node])

    def directed_edges(self) -> Iterator[tuple[int, int]]:
        """Yield every directed edge (i, j), j a neighbor of i."""
        for i in range(self.num_nodes):
            for j in self.neighbors[i]:
                yield (i, j)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Every node's degree, by node id."""
        return _frozen(np.array([len(nbs) for nbs in self.neighbors], dtype=int))

    @cached_property
    def offsets(self) -> np.ndarray:
        """Node i's outgoing edges are ``offsets[i]:offsets[i + 1]`` in edge order."""
        return _frozen(np.concatenate([[0], np.cumsum(self.degrees)]))

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        sources = np.repeat(np.arange(self.num_nodes), self.degrees)
        targets = np.array([j for nbs in self.neighbors for j in nbs], dtype=int)
        return _frozen(sources), _frozen(targets)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sources and targets of the directed edges, in ``directed_edges()`` order."""
        return self._edges

    @cached_property
    def _slots(self) -> np.ndarray:
        # _slots[s, i] is node i's s-th outgoing edge, or the out-of-range
        # index len(sources) past its degree.
        sources, _ = self._edges
        slots = np.full((self.degrees.max(initial=0), self.num_nodes), len(sources))
        slots[np.arange(len(sources)) - self.offsets[sources], sources] = np.arange(len(sources))
        return _frozen(slots)

    def by_slot(self, values: np.ndarray) -> np.ndarray:
        """Per-edge values (leading axis in edge order) laid out by node.

        Entry ``[s, i]`` of the (max degree, num_nodes, ...) result is the
        value of node i's s-th outgoing edge, or zero past its degree.
        """
        padded = np.concatenate([values, np.zeros((1,) + values.shape[1:])])
        return padded[self._slots]

    @cached_property
    def _slot_targets(self) -> np.ndarray:
        # The neighbor behind each slot, or num_nodes past the node's degree.
        _, targets = self._edges
        return _frozen(np.append(targets, self.num_nodes)[self._slots])

    def neighbor_rows(self, node_values: np.ndarray) -> np.ndarray:
        """Per-node values (leading axis by node id) laid out by edge slot.

        Entry ``[s, i]`` of the (max degree, num_nodes, ...) result is the
        value of node i's s-th neighbor, or zero past its degree: the same
        as ``by_slot(node_values[targets])`` without the per-edge copy.
        """
        padded = np.concatenate([node_values, np.zeros((1,) + node_values.shape[1:])])
        return padded[self._slot_targets]

    def node_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum each node's outgoing-edge values (leading axis) in edge order.

        The sum runs left to right, one slot at a time, as Python's ``sum``
        over the node's edges would; an isolated node sums to 0.
        """
        return self.by_slot(values).sum(axis=0)

    def num_undirected_edges(self) -> int:
        return sum(self.degree(i) for i in range(self.num_nodes)) // 2

    def is_connected(self) -> bool:
        """Breadth-first reachability of all nodes from node 0."""
        if self.num_nodes == 0:
            return False
        seen = {0}
        queue = deque([0])
        while queue:
            cur = queue.popleft()
            for nb in self.neighbors[cur]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        return len(seen) == self.num_nodes

    def validate(self) -> None:
        """Raise ValueError unless the graph is simple, symmetric, and connected."""
        if self.num_nodes < 1:
            raise ValueError("graph must have at least one node")
        if len(self.neighbors) != self.num_nodes:
            raise ValueError("neighbor table length does not match num_nodes")
        for i, nbs in enumerate(self.neighbors):
            if i in nbs:
                raise ValueError(f"self-loop at node {i}")
            if list(nbs) != sorted(set(nbs)):
                raise ValueError(f"neighbor list of node {i} not sorted and unique")
            for j in nbs:
                if not 0 <= j < self.num_nodes:
                    raise ValueError(f"edge ({i}, {j}) references unknown node")
                if i not in self.neighbors[j]:
                    raise ValueError(f"asymmetric edge ({i}, {j})")
        if not self.is_connected():
            raise ValueError("graph is not connected")


def _frozen(array: np.ndarray) -> np.ndarray:
    # Layout arrays are cached on the immutable graph and shared.
    array.flags.writeable = False
    return array


def _from_adjacency(adjacency: dict[int, set[int]], n: int) -> Graph:
    graph = Graph(n, tuple(tuple(sorted(adjacency[i])) for i in range(n)))
    graph.validate()
    return graph


def build_complete(n: int) -> Graph:
    """Complete graph: every node is linked to all other n-1 nodes.

    n = 1 is allowed and yields the degenerate single-node graph.
    """
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    if n == 1:
        return Graph(1, ((),))
    return _from_adjacency({i: set(range(n)) - {i} for i in range(n)}, n)


def build_ring(n: int) -> Graph:
    """Cycle graph: node i is linked to (i-1) mod n and (i+1) mod n."""
    if n < 3:
        raise ValueError(f"ring graph needs n >= 3, got {n}")
    return _from_adjacency({i: {(i - 1) % n, (i + 1) % n} for i in range(n)}, n)


def build_cluster(n: int) -> Graph:
    """Two complete halves joined by one bridge edge.

    Nodes ``0 .. n/2-1`` and ``n/2 .. n-1`` each form a complete graph;
    the bridge connects nodes ``n/2 - 1`` and ``n/2`` (fixed choice so
    runs are reproducible). Requires even n >= 4.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"cluster graph needs even n >= 4, got {n}")
    half = n // 2
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for block in (range(0, half), range(half, n)):
        for i in block:
            adjacency[i] = set(block) - {i}
    adjacency[half - 1].add(half)
    adjacency[half].add(half - 1)
    return _from_adjacency(adjacency, n)


def build_graph(topology: str, n: int) -> Graph:
    """Build a named topology ("complete", "ring", or "cluster")."""
    builders = {
        "complete": build_complete,
        "ring": build_ring,
        "cluster": build_cluster,
    }
    if topology not in builders:
        raise ValueError(
            f"unknown topology {topology!r}, expected one of {', '.join(TOPOLOGIES)}"
        )
    return builders[topology](n)
