"""Quick upper-bound graph generation (Algorithm 2 of the paper).

Given the polarity times of a query, an edge ``e(u, v, τ)`` lies on at least
one temporal path from ``s`` to ``t`` within ``[τb, τe]`` iff
``A(u) < τ < D(v)`` (Lemma 1).  Keeping exactly those edges yields the *quick
upper-bound graph* ``Gq`` — a superset of the final ``tspG`` that already
removes every edge violating the temporal constraint.

QuickUBG is two kernels over the graph's frozen CSR view, the same two calls
:meth:`repro.core.vug.VUG.run` makes: the id-space polarity sweeps
(:func:`~repro.core.polarity.compute_polarity_id_arrays`) and
:func:`quick_mask_kernel`, which walks the out-CSR of ``s`` and of the
reached vertices that can still depart towards ``t`` after arriving, from
each one's arrival time to ``τe``, tests ``τ < D(v)`` there, and returns an
edge-mask :class:`~repro.graph.views.SubgraphView` — no edge storage is
copied.  An edge whose tail was never reached has ``A(u) = ∞`` and is never
read, so the cost is those out-edges plus a sort of the survivors, not the
query window's edge count.  Call
``.materialize()`` on the result when a real graph is needed.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Optional, Set, Union

from ..graph.edge import Vertex, as_interval
from ..graph.temporal_graph import TemporalGraph
from ..graph.views import GraphView, SubgraphView
from .deadline import POLL_INTERVAL, Deadline, poll
from .polarity import compute_polarity_id_arrays


def quick_upper_bound_graph(
    graph: Union[TemporalGraph, GraphView],
    source: Vertex,
    target: Vertex,
    interval,
) -> SubgraphView:
    """Compute the quick upper-bound graph ``Gq`` (Algorithm 2).

    Parameters
    ----------
    graph:
        The temporal graph ``G`` (or its :class:`GraphView` directly).

    Returns
    -------
    SubgraphView
        An edge-mask view over ``graph`` whose surviving edges all satisfy
        ``A(u) < τ < D(v)``; its vertices are exactly the endpoints of
        surviving edges (Definition of an induced subgraph in Section II).
        The view implements the read API of a graph — materialize it
        explicitly with ``.materialize()`` if a mutable graph is required.
    """
    window = as_interval(interval)
    view = graph if isinstance(graph, GraphView) else graph.view()
    arrival, departure, frontier = compute_polarity_id_arrays(
        view, source, target, window
    )
    return quick_mask_kernel(view, arrival, departure, window, frontier)


def quick_mask_kernel(
    view: GraphView,
    arrival: Dict[int, int],
    departure: Dict[int, int],
    window,
    frontier: Dict[int, int],
    deadline: Optional[Deadline] = None,
) -> SubgraphView:
    """The Lemma 1 edge mask over interned columns (Algorithm 2).

    ``arrival``, ``departure`` and ``frontier`` are what
    :func:`~repro.core.polarity.compute_polarity_id_arrays` returns: the
    sparse id-space arrival table, the pruned departure table
    ``{t: τe + 1} ∪ {v: D(v) | A(v) < D(v)}`` (an absent id reads as
    ``-inf``) and, for ``s`` and each table vertex the forward sweep
    expanded, the out-CSR position where its edges with ``τ > A(u)``
    begin.  Each run ends at ``τe`` (one bisect), and an edge in it
    survives iff ``τ < D(v)`` — the ``A(u) < τ`` half of Lemma 1 holds by
    construction (so ``arrival`` itself is not read), and every survivor
    lies in ``[τb, τe]``.  The pruned table answers that test as the full
    ``D(·)`` would: ``A(v) ≤ τ`` for ``v ≠ t``, so ``τ < D(v)`` implies
    ``A(v) < D(v)`` and ``v`` is in it; and a vertex left out of
    ``frontier`` has no edge that could survive.  The cost is the
    out-edges of those vertices after their arrival time plus a sort of
    the survivors into the ascending order :class:`SubgraphView` expects;
    in-window edges out of unreached vertices are never read.  Both loops
    poll ``deadline`` every
    :data:`~repro.core.deadline.POLL_INTERVAL` iterations and raise
    :class:`~repro.core.deadline.DeadlineExpired` past it.
    """
    window = as_interval(window)
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
