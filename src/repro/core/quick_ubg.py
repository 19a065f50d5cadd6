"""Quick upper-bound graph generation (Algorithm 2 of the paper).

Given the polarity times of a query, an edge ``e(u, v, τ)`` lies on at least
one temporal path from ``s`` to ``t`` within ``[τb, τe]`` iff
``A(u) < τ < D(v)`` (Lemma 1).  Keeping exactly those edges yields the *quick
upper-bound graph* ``Gq`` — a superset of the final ``tspG`` that already
removes every edge violating the temporal constraint.

Zero-materialization kernel: instead of inserting every surviving edge into a
fresh :class:`~repro.graph.temporal_graph.TemporalGraph` (per-edge sorted
insertion + cache invalidation), :func:`quick_mask_kernel` walks the out-CSR
of the vertices the forward polarity sweep reached, from each one's arrival
time to ``τe``, tests ``τ < D(v)`` there, and returns an edge-mask
:class:`~repro.graph.views.SubgraphView` — no edge storage is copied.  An
edge whose tail was never reached has ``A(u) = ∞`` and is never read, so the
cost is the out-edges of reached vertices after their arrival time plus a
sort of the survivors, not the query window's edge count.  Call
``.materialize()`` on the result when a real graph is needed.

The pre-refactor materializing implementation is retained as
:func:`quick_upper_bound_graph_materializing`; it is the reference the
randomized equivalence tests compare the kernel against.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Optional, Set, Union

from ..graph.edge import TimeInterval, Vertex, as_interval
from ..graph.temporal_graph import TemporalGraph
from ..graph.views import GraphView, SubgraphView
from .deadline import POLL_INTERVAL, Deadline, poll
from .polarity import INFINITY, NEG_INFINITY, PolarityTimes, compute_polarity_times

GraphLike = Union[TemporalGraph, GraphView]


def _as_view(graph: GraphLike) -> GraphView:
    """Coerce the input into the frozen columnar view of its graph."""
    if isinstance(graph, GraphView):
        return graph
    return graph.view()


def quick_upper_bound_graph(
    graph: GraphLike,
    source: Vertex,
    target: Vertex,
    interval,
    polarity: Optional[PolarityTimes] = None,
) -> SubgraphView:
    """Compute the quick upper-bound graph ``Gq`` (Algorithm 2).

    Parameters
    ----------
    graph:
        The temporal graph ``G`` (or its :class:`GraphView` directly).
    polarity:
        Pre-computed polarity times; when omitted they are computed here
        (Algorithm 3).  Passing them explicitly lets the VUG driver time the
        two steps separately.

    Returns
    -------
    SubgraphView
        An edge-mask view over ``graph`` whose surviving edges all satisfy
        ``A(u) < τ < D(v)``; its vertices are exactly the endpoints of
        surviving edges (Definition of an induced subgraph in Section II).
        The view implements the read API of a graph — materialize it
        explicitly with ``.materialize()`` if a mutable graph is required.

    .. versionchanged:: 1.2
       Returns a zero-copy :class:`SubgraphView` instead of a freshly built
       :class:`TemporalGraph` (see
       :func:`quick_upper_bound_graph_materializing` for the old behaviour).
    """
    window = as_interval(interval)
    if polarity is None:
        if isinstance(graph, GraphView):
            raise TypeError(
                "polarity times must be supplied when querying a GraphView "
                "directly (they are computed over the parent TemporalGraph)"
            )
        polarity = compute_polarity_times(graph, source, target, window)
    view = _as_view(graph)
    # Re-key the finite polarity entries from vertex labels to interned
    # ids: the kernel's tables are sparse, an absent id meaning ±inf.
    index_of = view.index_of
    arrival = {
        index_of[label]: time
        for label, time in polarity.arrival.items()
        if time < INFINITY and label in index_of
    }
    departure = {
        index_of[label]: time
        for label, time in polarity.departure.items()
        if time > NEG_INFINITY and label in index_of
    }
    return quick_mask_kernel(view, arrival, departure, window)


def _derive_frontier(
    view: GraphView, arrival: Dict[int, int], window: TimeInterval
) -> Dict[int, int]:
    """The mask kernel's frontier, derived from a sparse arrival table.

    Maps every vertex with ``A(u) < τe`` to the first out-CSR position with
    ``τ > max(A(u), τb - 1)``, walking only the table's reached entries.
    :func:`~repro.core.polarity.compute_polarity_id_arrays` returns the
    same map straight from its forward sweep; this derivation serves
    callers that only hold the tables.
    """
    offsets, out_ts = view.out_offsets, view.out_ts
    window_end = window.end
    floor = window.begin - 1
    frontier: Dict[int, int] = {}
    for u, time in arrival.items():
        if time < window_end:
            frontier[u] = bisect_right(
                out_ts, time if time > floor else floor,
                offsets[u], offsets[u + 1],
            )
    return frontier


def quick_mask_kernel(
    view: GraphView,
    arrival: Dict[int, int],
    departure: Dict[int, int],
    window,
    frontier: Optional[Dict[int, int]] = None,
    deadline: Optional[Deadline] = None,
) -> SubgraphView:
    """The Lemma 1 edge mask over interned columns (Algorithm 2).

    ``arrival`` and ``departure`` are the sparse id-space polarity tables
    of :func:`~repro.core.polarity.compute_polarity_id_arrays` (an absent
    id means ``+inf`` / ``-inf``).  ``frontier`` maps each vertex ``u`` the
    forward sweep reached to the out-CSR position where its edges with
    ``τ > A(u)`` begin; when omitted it is derived from ``arrival`` by
    :func:`_derive_frontier`.  Each run ends at ``τe`` (one bisect), and
    an edge in it survives iff ``τ < D(v)`` — the ``A(u) < τ`` half of
    Lemma 1 holds by construction, and every survivor lies in
    ``[τb, τe]``.  The cost is the out-edges of reached vertices after
    their arrival time plus a sort of the survivors into the ascending
    order :class:`SubgraphView` expects; in-window edges out of unreached
    vertices are never read.  Both loops poll ``deadline`` every
    :data:`~repro.core.deadline.POLL_INTERVAL` iterations and raise
    :class:`~repro.core.deadline.DeadlineExpired` past it.
    """
    window = as_interval(window)
    if frontier is None:
        frontier = _derive_frontier(view, arrival, window)
    offsets, out_ts, out_dst = view.out_offsets, view.out_ts, view.out_dst
    out_edges = view.out_edges
    window_end = window.end
    indices: list = []
    append = indices.append
    vids: Set[int] = set()
    add_vid = vids.add
    ticks = POLL_INTERVAL
    for u, start in frontier.items():
        ticks -= 1
        if not ticks:
            ticks = poll(deadline)
        stop = bisect_right(out_ts, window_end, start, offsets[u + 1])
        kept = len(indices)
        for position in range(start, stop):
            ticks -= 1
            if not ticks:
                ticks = poll(deadline)
            v = out_dst[position]
            if v in departure and out_ts[position] < departure[v]:
                append(out_edges[position])
                add_vid(v)
        if len(indices) != kept:
            add_vid(u)
    indices.sort()
    return SubgraphView(view, indices, vids)


def quick_upper_bound_graph_materializing(
    graph: TemporalGraph,
    source: Vertex,
    target: Vertex,
    interval,
    polarity: Optional[PolarityTimes] = None,
) -> TemporalGraph:
    """Pre-refactor QuickUBG: build ``Gq`` as a fresh :class:`TemporalGraph`.

    Kept as the reference implementation the randomized equivalence tests
    compare the zero-materialization kernel against; new code should use
    :func:`quick_upper_bound_graph`.
    """
    window = as_interval(interval)
    if polarity is None:
        polarity = compute_polarity_times(graph, source, target, window)
    quick = TemporalGraph()
    arrival = polarity.arrival
    departure = polarity.departure
    infinity = float("inf")
    neg_infinity = float("-inf")
    for u, v, timestamp in graph.edge_tuples():
        if arrival.get(u, infinity) < timestamp < departure.get(v, neg_infinity):
            quick.add_edge(u, v, timestamp)
    return quick


def quick_upper_bound_with_polarity(
    graph: TemporalGraph, source: Vertex, target: Vertex, interval
) -> tuple[SubgraphView, PolarityTimes]:
    """Convenience wrapper returning both ``Gq`` and the polarity tables."""
    window = as_interval(interval)
    polarity = compute_polarity_times(graph, source, target, window)
    return (
        quick_upper_bound_graph(graph, source, target, window, polarity=polarity),
        polarity,
    )
