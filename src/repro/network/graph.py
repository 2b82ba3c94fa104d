"""The road-network graph.

A directed graph tailored to stochastic routing: dense integer edge ids (so
per-edge data — histograms, model features — lives in flat arrays) and
constant-time out/in adjacency.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..derived import Memo, rebind
from .categories import RoadCategory
from .types import Edge, Vertex

__all__ = ["RoadNetwork"]


class RoadNetwork:
    """A directed road-network graph.

    Vertices and edges are added once (the network is static during routing);
    adjacency is maintained incrementally.  Edge ids are assigned densely in
    insertion order, so ``network.edges[i].id == i``.
    """

    def __init__(self) -> None:
        self._vertices: dict[int, Vertex] = {}
        self._edges: list[Edge] = []
        self._out: dict[int, list[Edge]] = {}
        self._in: dict[int, list[Edge]] = {}
        self._by_endpoints: dict[tuple[int, int], Edge] = {}
        #: Mutation counter; bumped whenever a vertex or edge is added.
        #: Graph-derived state (vertex indexing, CSR arrays) hangs off
        #: :meth:`derived`, which a topology edit drops.
        self.version = 0
        self._derived: tuple | None = None  # (version, memo)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_vertex(self, vertex_id: int, x: float, y: float) -> Vertex:
        """Add a vertex; re-adding an existing id must not move it."""
        existing = self._vertices.get(vertex_id)
        if existing is not None:
            if existing.x != x or existing.y != y:
                raise ValueError(f"vertex {vertex_id} already exists at different coordinates")
            return existing
        vertex = Vertex(vertex_id, float(x), float(y))
        self._vertices[vertex_id] = vertex
        self._out[vertex_id] = []
        self._in[vertex_id] = []
        self.version += 1
        self._derived = None
        return vertex

    def add_edge(
        self,
        source: int,
        target: int,
        *,
        length: float | None = None,
        category: RoadCategory = RoadCategory.TERTIARY,
    ) -> Edge:
        """Add a directed edge; ``length`` defaults to the Euclidean distance.

        Parallel edges between the same endpoints are rejected — the paper's
        model keys pair statistics by ``(edge, edge)`` and a multigraph would
        make those keys ambiguous.
        """
        if source not in self._vertices:
            raise KeyError(f"unknown source vertex {source}")
        if target not in self._vertices:
            raise KeyError(f"unknown target vertex {target}")
        if source == target:
            raise ValueError(f"self-loop at vertex {source} not allowed")
        if (source, target) in self._by_endpoints:
            raise ValueError(f"duplicate edge {source}->{target}")
        if length is None:
            length = self._vertices[source].distance_to(self._vertices[target])
        edge = Edge(len(self._edges), source, target, float(length), category)
        self._edges.append(edge)
        self._out[source].append(edge)
        self._in[target].append(edge)
        self._by_endpoints[(source, target)] = edge
        self.version += 1
        self._derived = None
        return edge

    def derived(self) -> Memo:
        """The holder of everything computed from the current topology version."""
        version = self.version
        bound = self._derived
        while bound is None or bound[0] != version:
            bound = rebind(self, bound, (version,))
        return bound[1]

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_derived": None}  # derived state never pickles

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> Sequence[Edge]:
        """All edges, indexable by edge id."""
        return self._edges

    def vertex(self, vertex_id: int) -> Vertex:
        return self._vertices[vertex_id]

    def vertex_ids(self) -> Iterator[int]:
        return iter(self._vertices.keys())

    def edge(self, edge_id: int) -> Edge:
        return self._edges[edge_id]

    def out_edges(self, vertex_id: int) -> Sequence[Edge]:
        return self._out[vertex_id]

    def in_edges(self, vertex_id: int) -> Sequence[Edge]:
        return self._in[vertex_id]

    def out_degree(self, vertex_id: int) -> int:
        return len(self._out[vertex_id])

    def in_degree(self, vertex_id: int) -> int:
        return len(self._in[vertex_id])

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"RoadNetwork(vertices={self.num_vertices}, edges={self.num_edges})"
