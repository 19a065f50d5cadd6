"""Escaped edges verification (Algorithms 6 and 7 of the paper).

``EEV`` turns the tight upper-bound graph ``Gt`` into the exact ``tspG``
without enumerating all temporal simple paths:

1. Edges incident to ``s`` or ``t`` are confirmed directly (Lemma 2), and so
   are edges one hop away from them via a cheap timestamp comparison
   (Lemma 10).
2. Every remaining ("escaped") edge is verified at most once: a bidirectional
   DFS (Algorithm 7) searches for a single temporal simple path through it;
   when one is found, every edge of that path *and* every parallel replacement
   edge allowed by Lemma 11 is confirmed in one batch, so edges shared by many
   paths are never re-processed.

Two optimisations from Section V are implemented:

* *Prioritisation of search direction* — the longer of the two half-searches
  (estimated from ``τ - τb`` vs ``τe - τ``) runs first, so failures are
  discovered before effort is spent on the easier half.
* *Neighbour exploration order* — the forward search explores out-neighbours
  in non-ascending temporal order and the backward search in-neighbours in
  non-descending temporal order, biasing the DFS towards short witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from ..graph.edge import TemporalEdge, TimeInterval, Timestamp, Vertex, as_interval
from ..graph.temporal_graph import TemporalGraph
from ..graph.views import SubgraphView
from ..paths.temporal_path import TemporalPath
from .deadline import Deadline, DeadlineExpired
from .result import PathGraph


class EEVDeadlineExpired(DeadlineExpired):
    """Raised by :func:`escaped_edges_verification` when its deadline expires.

    The cooperative cut-off signal of the EEV phase: the caller (VUG's
    pipeline) catches it and reports the query as ``timed_out``.  Raised at
    most one node expansion past the deadline instant — the search polls at
    every expansion — so the cut-off slack is bounded by a single edge
    expansion, not by a whole witness search.
    """

EdgeTuple = Tuple[Vertex, Vertex, Timestamp]

#: EEV consumes only the read API shared by graphs and edge-mask views
#: (``sorted_edges``/``num_edges``/``out_neighbors_view``/``in_neighbors_view``),
#: so VUG feeds it ``Gt`` as a mask view and the tests may pass a graph.
TightGraph = Union[TemporalGraph, SubgraphView]


@dataclass
class EEVStatistics:
    """Counters describing how the verification work was distributed."""

    edges_total: int = 0
    confirmed_by_lemma2: int = 0
    confirmed_by_lemma10: int = 0
    confirmed_by_search: int = 0
    confirmed_by_replacement: int = 0
    rejected_by_search: int = 0
    searches_performed: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view used by benchmark reports."""
        return {
            "edges_total": self.edges_total,
            "confirmed_by_lemma2": self.confirmed_by_lemma2,
            "confirmed_by_lemma10": self.confirmed_by_lemma10,
            "confirmed_by_search": self.confirmed_by_search,
            "confirmed_by_replacement": self.confirmed_by_replacement,
            "rejected_by_search": self.rejected_by_search,
            "searches_performed": self.searches_performed,
        }


def escaped_edges_verification(
    tight_graph: TightGraph,
    source: Vertex,
    target: Vertex,
    interval,
    use_lemma10: bool = True,
    collect_statistics: bool = False,
    deadline: Optional[Deadline] = None,
) -> PathGraph | Tuple[PathGraph, EEVStatistics]:
    """Algorithm 6: produce the exact ``tspG`` from the tight upper-bound graph.

    Parameters
    ----------
    tight_graph:
        The tight upper-bound graph ``Gt`` (or any upper bound of the ``tspG``
        that is itself a subgraph of ``Gq`` — see the Lemma 10 note below).
        Accepts a :class:`TemporalGraph` or a zero-copy
        :class:`~repro.graph.views.SubgraphView`; per-vertex adjacency of a
        view is materialised lazily and cached inside the view, so the
        bidirectional searches below pay no repeated mask scans.
    use_lemma10:
        Enable the one-hop confirmation shortcut.  Its proof relies on the
        input being the tight upper-bound graph of the same query; disable it
        when verifying edges of an arbitrary upper bound.
    collect_statistics:
        Also return an :class:`EEVStatistics` with per-rule counters.
    deadline:
        Optional cooperative cut-off.  Polled before every escaped-edge
        search *and* at every node expansion inside the bidirectional
        search; on expiry :class:`EEVDeadlineExpired` is raised promptly
        (slack: one edge expansion).  Queries that finish before the
        deadline produce bit-identical results to a deadline-free run —
        the polls are read-only.
    """
    window = as_interval(interval)
    stats = EEVStatistics(edges_total=tight_graph.num_edges)

    result_vertices: Set[Vertex] = set()
    result_edges: Set[EdgeTuple] = set()
    verified: Set[EdgeTuple] = set()

    ordered_edges = tight_graph.sorted_edges()

    # ------------------------------------------------------------------
    # Lines 2-5: direct confirmation via Lemmas 2 and 10.
    # ------------------------------------------------------------------
    earliest_from_source: Dict[Vertex, Timestamp] = {}
    latest_into_target: Dict[Vertex, Timestamp] = {}
    for v, timestamp in tight_graph.out_neighbors_view(source):
        if window.contains(timestamp):
            current = earliest_from_source.get(v)
            if current is None or timestamp < current:
                earliest_from_source[v] = timestamp
    for u, timestamp in tight_graph.in_neighbors_view(target):
        if window.contains(timestamp):
            current = latest_into_target.get(u)
            if current is None or timestamp > current:
                latest_into_target[u] = timestamp

    for edge in ordered_edges:
        u, v, timestamp = edge.source, edge.target, edge.timestamp
        key = (u, v, timestamp)
        if u == source or v == target:
            verified.add(key)
            result_edges.add(key)
            result_vertices.update((u, v))
            stats.confirmed_by_lemma2 += 1
            continue
        if not use_lemma10:
            continue
        direct_in = earliest_from_source.get(u)
        direct_out = latest_into_target.get(v)
        if (direct_in is not None and direct_in < timestamp) or (
            direct_out is not None and timestamp < direct_out
        ):
            verified.add(key)
            result_edges.add(key)
            result_vertices.update((u, v))
            stats.confirmed_by_lemma10 += 1

    # ------------------------------------------------------------------
    # Lines 6-19: bidirectional search for each remaining escaped edge.
    # ------------------------------------------------------------------
    searcher = BidirectionalSearcher(
        tight_graph, source, target, window, deadline=deadline
    )
    for edge in ordered_edges:
        key = edge.as_tuple()
        if key in verified:
            continue
        if deadline is not None and deadline.expired():
            raise EEVDeadlineExpired(
                f"deadline expired after {stats.searches_performed} of the "
                f"escaped-edge searches"
            )
        stats.searches_performed += 1
        witness = searcher.find_witness_path(edge)
        if witness is None:
            # The edge lies on no temporal simple path; remember the verdict
            # so later iterations do not retry it.
            verified.add(key)
            stats.rejected_by_search += 1
            continue
        newly_confirmed = _confirm_path_and_replacements(
            tight_graph, witness, window, verified, result_vertices, result_edges
        )
        stats.confirmed_by_search += 1
        stats.confirmed_by_replacement += max(0, newly_confirmed - len(witness))

    tspg = PathGraph.from_members(source, target, window, result_vertices, result_edges)
    if collect_statistics:
        return tspg, stats
    return tspg


def _confirm_path_and_replacements(
    graph: TightGraph,
    witness: TemporalPath,
    window: TimeInterval,
    verified: Set[EdgeTuple],
    result_vertices: Set[Vertex],
    result_edges: Set[EdgeTuple],
) -> int:
    """Add the witness path and its Lemma 11 replacement edges to the result.

    For the ``i``-th hop ``(u_{i-1}, u_i)`` of the witness, any parallel edge
    whose timestamp lies strictly between the neighbouring hops' timestamps
    (with the interval bounds at the path ends) also completes a temporal
    simple path and is confirmed in the same batch.  Returns the number of
    edges newly confirmed.
    """
    edges = list(witness.edges)
    vertices = witness.vertices()
    result_vertices.update(vertices)
    confirmed = 0
    for index, edge in enumerate(edges):
        lower = window.begin - 1 if index == 0 else edges[index - 1].timestamp
        upper = window.end + 1 if index == len(edges) - 1 else edges[index + 1].timestamp
        for neighbor, timestamp in graph.out_neighbors_view(edge.source):
            if neighbor != edge.target:
                continue
            if not (lower < timestamp < upper):
                continue
            key = (edge.source, edge.target, timestamp)
            if key not in result_edges:
                confirmed += 1
            result_edges.add(key)
            verified.add(key)
    return confirmed


class BidirectionalSearcher:
    """Algorithm 7: bidirectional DFS for one temporal simple path through an edge."""

    def __init__(
        self,
        graph: TightGraph,
        source: Vertex,
        target: Vertex,
        interval: TimeInterval,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self._graph = graph
        self._source = source
        self._target = target
        self._interval = interval
        self._deadline = deadline

    def _check_deadline(self) -> None:
        """Cooperative poll, one per node expansion (no-op without a deadline).

        A single witness search can visit exponentially many states on an
        adversarial graph, so polling only *between* searches would leave
        the cut-off slack unbounded; polling at every expansion bounds it
        by one edge expansion.
        """
        if self._deadline is not None and self._deadline.expired():
            raise EEVDeadlineExpired("deadline expired inside a witness search")

    # ------------------------------------------------------------------
    def find_witness_path(self, edge: TemporalEdge) -> Optional[TemporalPath]:
        """Return a temporal simple path ``s → … → t`` through ``edge`` (or ``None``).

        The search space is the graph the searcher was built with; because the
        ``tspG`` is a subgraph of any upper bound, searching inside ``Gt`` is
        both sound and complete.
        """
        u, v, timestamp = edge.source, edge.target, edge.timestamp
        if not self._interval.contains(timestamp):
            return None
        if u == self._source and v == self._target:
            return TemporalPath([edge])

        visited: Set[Vertex] = {u, v}
        forward_needed = v != self._target
        backward_needed = u != self._source

        # Optimisation i): run the potentially longer half first.
        forward_first = (timestamp - self._interval.begin) > (self._interval.end - timestamp)

        def run_forward_then_backward() -> Optional[TemporalPath]:
            if not forward_needed:
                backward = self._first_backward_path(u, timestamp, visited)
                if backward is None:
                    return None
                return TemporalPath(backward + [edge])
            for forward in self._forward_paths(v, timestamp, visited):
                if not backward_needed:
                    return TemporalPath([edge] + forward)
                backward = self._first_backward_path(u, timestamp, visited)
                if backward is not None:
                    return TemporalPath(backward + [edge] + forward)
            return None

        def run_backward_then_forward() -> Optional[TemporalPath]:
            if not backward_needed:
                forward = self._first_forward_path(v, timestamp, visited)
                if forward is None:
                    return None
                return TemporalPath([edge] + forward)
            for backward in self._backward_paths(u, timestamp, visited):
                if not forward_needed:
                    return TemporalPath(backward + [edge])
                forward = self._first_forward_path(v, timestamp, visited)
                if forward is not None:
                    return TemporalPath(backward + [edge] + forward)
            return None

        if forward_first:
            return run_forward_then_backward()
        return run_backward_then_forward()

    # ------------------------------------------------------------------
    # forward half: simple paths  vertex → … → t  with ascending timestamps
    # ------------------------------------------------------------------
    def _forward_paths(self, vertex: Vertex, last_time: Timestamp, visited: Set[Vertex]):
        """Yield forward half-paths as edge lists; ``visited`` reflects the current path."""
        self._check_deadline()
        # Non-ascending exploration order (optimisation ii).
        entries = [
            (w, ts)
            for w, ts in self._graph.out_neighbors_view(vertex)
            if last_time < ts <= self._interval.end
        ]
        for w, ts in sorted(entries, key=lambda item: -item[1]):
            hop = TemporalEdge(vertex, w, ts)
            if w == self._target:
                yield [hop]
                continue
            if w in visited or w == self._source:
                continue
            visited.add(w)
            for rest in self._forward_paths(w, ts, visited):
                yield [hop] + rest
            visited.discard(w)

    def _first_forward_path(
        self, vertex: Vertex, last_time: Timestamp, visited: Set[Vertex]
    ) -> Optional[List[TemporalEdge]]:
        for path in self._forward_paths(vertex, last_time, visited):
            return path
        return None

    # ------------------------------------------------------------------
    # backward half: simple paths  s → … → vertex  with ascending timestamps
    # ------------------------------------------------------------------
    def _backward_paths(self, vertex: Vertex, next_time: Timestamp, visited: Set[Vertex]):
        """Yield backward half-paths (already oriented s → … → vertex)."""
        self._check_deadline()
        # Non-descending exploration order (optimisation ii).
        entries = [
            (w, ts)
            for w, ts in self._graph.in_neighbors_view(vertex)
            if self._interval.begin <= ts < next_time
        ]
        for w, ts in sorted(entries, key=lambda item: item[1]):
            hop = TemporalEdge(w, vertex, ts)
            if w == self._source:
                yield [hop]
                continue
            if w in visited or w == self._target:
                continue
            visited.add(w)
            for rest in self._backward_paths(w, ts, visited):
                yield rest + [hop]
            visited.discard(w)

    def _first_backward_path(
        self, vertex: Vertex, next_time: Timestamp, visited: Set[Vertex]
    ) -> Optional[List[TemporalEdge]]:
        for path in self._backward_paths(vertex, next_time, visited):
            return path
        return None
