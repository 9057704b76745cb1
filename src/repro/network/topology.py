"""Network topologies connecting QPUs.

The paper assumes a line topology ("the simplest connectivity", Sec 2.5) and
counts one physical Bell pair per hop when long-range pairs are stitched by
entanglement swapping.  Ring / star / all-to-all variants are provided for
the topology-ablation benchmark (the paper's Sec 7 lists network topology as
the main architecture-side extension).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from typing import NamedTuple

from .qpu import validate_qpu_names

__all__ = ["Topology", "line_topology", "ring_topology", "star_topology", "complete_topology"]


class Links(NamedTuple):
    """A plain graph: nodes in order, and undirected edges."""

    nodes: tuple
    edges: tuple


class Topology:
    """A connectivity graph over named QPUs with hop-distance queries.

    ``graph`` is anything with ``nodes`` and ``edges`` — :class:`Links`, or
    a ``networkx.Graph``.  The topology keeps its own adjacency lists (in
    edge insertion order), so answering hop and path queries needs no graph
    library.
    """

    def __init__(self, graph, name: str):
        nodes = list(graph.nodes)
        if not nodes:
            raise ValueError("topology needs at least one node")
        if hasattr(graph, "adj"):  # a networkx graph keeps its own order
            adjacency = {node: dict.fromkeys(graph.adj[node]) for node in nodes}
        else:
            adjacency = {node: {} for node in nodes}
            for a, b in graph.edges:
                adjacency[a][b] = None
                adjacency[b][a] = None
        self.graph = graph
        self.name = name
        self._adj = adjacency
        self._dist = {node: self._hops_from(node) for node in nodes}
        if len(self._dist[nodes[0]]) != len(nodes):
            raise ValueError("topology must be connected")

    def _hops_from(self, source) -> dict:
        """Breadth-first hop counts from ``source``."""
        hops = {source: 0}
        frontier = [source]
        while frontier:
            following = []
            for node in frontier:
                for neighbour in self._adj[node]:
                    if neighbour not in hops:
                        hops[neighbour] = hops[node] + 1
                        following.append(neighbour)
            frontier = following
        return hops

    @property
    def nodes(self) -> list:
        """QPU names in insertion order."""
        return list(self._adj)

    def distance(self, a, b) -> int:
        """Hop count between two QPUs."""
        try:
            return self._dist[a][b]
        except KeyError as exc:
            raise KeyError(f"unknown QPU in distance query: {a!r} or {b!r}") from exc

    def are_adjacent(self, a, b) -> bool:
        """Whether two QPUs share a direct link."""
        return b in self._adj.get(a, ())

    def path(self, a, b) -> list:
        """One shortest path between two QPUs.

        A bidirectional breadth-first search that grows the smaller
        frontier first, visiting neighbours in edge insertion order; among
        equally short paths it picks the one ``networkx.shortest_path``
        picks.
        """
        self.distance(a, b)  # unknown QPUs raise here
        pred, succ, meet = {a: None}, {b: None}, a
        forward, reverse = [a], [b]
        while a != b and meet not in succ:
            if len(forward) <= len(reverse):
                forward, meet = self._grow(forward, pred, succ)
            else:
                reverse, meet = self._grow(reverse, succ, pred)
        path = []
        node = meet
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[path[-1]]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def _grow(self, fringe: list, seen: dict, other: dict) -> tuple[list, object]:
        """Expand one search frontier; stop at the first node ``other`` saw."""
        grown = []
        for node in fringe:
            for neighbour in self._adj[node]:
                if neighbour not in seen:
                    grown.append(neighbour)
                    seen[neighbour] = node
                if neighbour in other:
                    return grown, neighbour
        return grown, None

    def swapping_cost(self, a, b) -> int:
        """Physical Bell pairs consumed to produce one a—b pair.

        Entanglement swapping stitches one nearest-neighbour pair per hop
        (Sec 2.5), so the cost equals the hop distance.
        """
        return self.distance(a, b)

    def __repr__(self) -> str:
        return f"Topology({self.name!r}, nodes={len(self._adj)})"


def line_topology(names: Sequence) -> Topology:
    """QPUs on a line, adjacent indices connected."""
    names = validate_qpu_names(names)
    return Topology(Links(tuple(names), tuple(zip(names, names[1:]))), "line")


def ring_topology(names: Sequence) -> Topology:
    """Line plus a wrap-around link."""
    names = validate_qpu_names(names)
    edges = tuple(zip(names, names[1:]))
    if len(names) > 2:
        edges += ((names[-1], names[0]),)
    return Topology(Links(tuple(names), edges), "ring")


def star_topology(names: Sequence) -> Topology:
    """First QPU is a hub connected to all others."""
    names = validate_qpu_names(names)
    return Topology(
        Links(tuple(names), tuple((names[0], other) for other in names[1:])), "star"
    )


def complete_topology(names: Sequence) -> Topology:
    """All-to-all links."""
    names = validate_qpu_names(names)
    return Topology(Links(tuple(names), tuple(combinations(names, 2))), "complete")
