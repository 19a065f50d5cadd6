"""Result object of a temporal-simple-path-graph query.

Every algorithm in the library (VUG and all baselines) returns a
:class:`PathGraph`, so results are directly comparable and the analysis
utilities (upper-bound ratios, correctness cross-checks) operate on a single
type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from ..graph.edge import TemporalEdge, TimeInterval, Timestamp, Vertex, as_edge, as_interval
from ..graph.temporal_graph import TemporalGraph
from ..graph.views import SubgraphView

EdgeTuple = Tuple[Vertex, Vertex, Timestamp]


@dataclass(frozen=True)
class PathGraph:
    """An (s, t, interval)-labelled subgraph — the ``tspG`` or an upper bound of it.

    Attributes
    ----------
    source, target:
        Query endpoints ``s`` and ``t``.
    interval:
        Query time interval ``[τb, τe]``.
    vertices:
        Frozen set of vertices in the path graph.
    edges:
        Frozen set of ``(u, v, τ)`` tuples.
    """

    source: Vertex
    target: Vertex
    interval: TimeInterval
    vertices: FrozenSet[Vertex]
    edges: FrozenSet[EdgeTuple]

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, source: Vertex, target: Vertex, interval) -> "PathGraph":
        """The empty result (no temporal simple path exists)."""
        return cls(
            source=source,
            target=target,
            interval=as_interval(interval),
            vertices=frozenset(),
            edges=frozenset(),
        )

    @classmethod
    def from_members(
        cls,
        source: Vertex,
        target: Vertex,
        interval,
        vertices: Iterable[Vertex],
        edges: Iterable,
    ) -> "PathGraph":
        """Build a result from vertex and edge collections."""
        edge_tuples = frozenset(as_edge(edge).as_tuple() for edge in edges)
        return cls(
            source=source,
            target=target,
            interval=as_interval(interval),
            vertices=frozenset(vertices),
            edges=edge_tuples,
        )

    @classmethod
    def from_edges(cls, source: Vertex, target: Vertex, interval, edges: Iterable) -> "PathGraph":
        """Build a result from edges only; the vertex set is induced."""
        edge_tuples = frozenset(as_edge(edge).as_tuple() for edge in edges)
        vertices: Set[Vertex] = set()
        for u, v, _ in edge_tuples:
            vertices.add(u)
            vertices.add(v)
        return cls(
            source=source,
            target=target,
            interval=as_interval(interval),
            vertices=frozenset(vertices),
            edges=edge_tuples,
        )

    @classmethod
    def from_graph(cls, source: Vertex, target: Vertex, interval, graph: TemporalGraph) -> "PathGraph":
        """Wrap an existing :class:`TemporalGraph` as a result."""
        return cls(
            source=source,
            target=target,
            interval=as_interval(interval),
            vertices=frozenset(graph.vertices()),
            edges=frozenset(graph.edge_tuples()),
        )

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the path graph."""
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        """Number of edges in the path graph."""
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        """``True`` when the path graph has no edges."""
        return not self.edges

    @cached_property
    def ordered_edges(self) -> Tuple[EdgeTuple, ...]:
        """The edges sorted by ``(τ, str(u), str(v))``, computed once.

        The deterministic order the serving tier writes ``include_edges``
        answers in.  A result is immutable and a cache hit shares it, so
        the sort runs once per answer rather than once per response.
        """
        return tuple(
            sorted(self.edges, key=lambda item: (item[2], str(item[0]), str(item[1])))
        )

    def temporal_edges(self) -> Iterator[TemporalEdge]:
        """Iterate edges as :class:`TemporalEdge` objects."""
        for u, v, t in self.edges:
            yield TemporalEdge(u, v, t)

    def to_temporal_graph(self) -> TemporalGraph:
        """Materialise the path graph as a :class:`TemporalGraph`."""
        graph = TemporalGraph(vertices=self.vertices)
        for u, v, t in self.edges:
            graph.add_edge(u, v, t)
        return graph

    def contains_edge(self, edge) -> bool:
        """``True`` iff ``edge`` belongs to the path graph."""
        return as_edge(edge).as_tuple() in self.edges

    def contains_vertex(self, vertex: Vertex) -> bool:
        """``True`` iff ``vertex`` belongs to the path graph."""
        return vertex in self.vertices

    def is_subgraph_of(self, other: "PathGraph") -> bool:
        """``True`` iff this graph's vertices and edges are contained in ``other``'s."""
        return self.vertices <= other.vertices and self.edges <= other.edges

    def same_members(self, other: "PathGraph") -> bool:
        """``True`` iff both results have identical vertex and edge sets."""
        return self.vertices == other.vertices and self.edges == other.edges

    def edge_difference(self, other: "PathGraph") -> Tuple[Set[EdgeTuple], Set[EdgeTuple]]:
        """Return ``(edges only here, edges only in other)`` — debugging helper."""
        return (set(self.edges) - set(other.edges), set(other.edges) - set(self.edges))

    def summary(self) -> Dict[str, object]:
        """Small dict used by the CLI and the benchmark reports."""
        return {
            "source": self.source,
            "target": self.target,
            "interval": self.interval.as_tuple(),
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
        }

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[EdgeTuple]:
        return iter(self.edges)

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PathGraph(s={self.source!r}, t={self.target!r}, "
            f"interval={self.interval}, |V|={self.num_vertices}, |E|={self.num_edges})"
        )


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent in each phase of VUG (Exp-4)."""

    quick_ubg: float = 0.0
    tight_ubg: float = 0.0
    eev: float = 0.0

    @property
    def total(self) -> float:
        """Total time across the three phases."""
        return self.quick_ubg + self.tight_ubg + self.eev

    def as_dict(self) -> Dict[str, float]:
        """Plain dict (phase name → seconds)."""
        return {
            "QuickUBG": self.quick_ubg,
            "TightUBG": self.tight_ubg,
            "EEV": self.eev,
            "total": self.total,
        }

    def accumulate(self, other: "PhaseTimings") -> None:
        """Add another query's phase timings into this accumulator."""
        self.quick_ubg += other.quick_ubg
        self.tight_ubg += other.tight_ubg
        self.eev += other.eev


@dataclass
class VUGReport:
    """Full VUG output: exact result, intermediate graphs and phase timings.

    ``upper_bound_quick`` / ``upper_bound_tight`` expose ``Gq`` and ``Gt`` so
    the upper-bound-ratio experiments (Table II / Fig. 10) and the EEV-only
    experiments (Fig. 11) can reuse the intermediate products without
    recomputing them.  Both are edge-mask
    :class:`~repro.graph.views.SubgraphView` objects (the read API of a
    graph; call ``.materialize()`` for a mutable :class:`TemporalGraph`).
    """

    result: PathGraph
    upper_bound_quick: Optional[SubgraphView] = None
    upper_bound_tight: Optional[SubgraphView] = None
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    space_cost: int = 0
    eev_statistics: Optional[object] = None
    #: ``True`` when a cooperative :class:`~repro.core.deadline.Deadline`
    #: cut the pipeline off before the exact result was produced; the
    #: ``result`` is then the empty path graph, never a partial one.
    timed_out: bool = False

    @property
    def tspg(self) -> PathGraph:
        """Alias for :attr:`result`."""
        return self.result
