"""Tight upper-bound graph generation (Algorithm 5 of the paper).

Starting from the quick upper-bound graph ``Gq`` and the time-stream common
vertices, an edge ``e(u, v, τ)`` with ``u ≠ s`` and ``v ≠ t`` survives into the
tight upper-bound graph ``Gt`` iff

``TCV_τl(s, u) ∩ TCV_τr(v, t) = ∅``

where ``τl`` is the largest in-timestamp of ``u`` below ``τ`` and ``τr`` the
smallest out-timestamp of ``v`` above ``τ`` (Lemma 8 shows this single
intersection subsumes all other timestamp combinations).  Edges leaving ``s``
or entering ``t`` are kept unconditionally (Lemma 2).  The result is still an
upper bound of the ``tspG`` (Lemma 3 is necessary but not sufficient), but a
much tighter one than ``Gq`` because it also encodes the simple-path
constraint.

``Gq`` arrives as the edge-mask :class:`~repro.graph.views.SubgraphView`
QuickUBG returns, and the filter *refines the mask* — the surviving edges
share the parent's columnar storage and no per-edge insertion happens.
"""

from __future__ import annotations

from typing import Optional, Set

from ..graph.edge import Vertex, as_interval
from ..graph.views import SubgraphView
from .deadline import POLL_INTERVAL, Deadline, poll
from .tcv import TimeStreamCommonVertices, compute_time_stream_common_vertices


def tight_upper_bound_graph(
    quick_graph: SubgraphView,
    source: Vertex,
    target: Vertex,
    interval,
    tcv: Optional[TimeStreamCommonVertices] = None,
    deadline: Optional[Deadline] = None,
) -> SubgraphView:
    """Compute the tight upper-bound graph ``Gt`` (Algorithm 5).

    Parameters
    ----------
    quick_graph:
        The quick upper-bound graph ``Gq``: the edge-mask
        :class:`SubgraphView` that
        :func:`~repro.core.quick_ubg.quick_upper_bound_graph` returns.
        Anything else raises :class:`TypeError`.
    tcv:
        Pre-computed time-stream common vertices; computed here (Algorithm 4)
        when omitted.
    deadline:
        Polled every :data:`~repro.core.deadline.POLL_INTERVAL` edges of the
        mask refinement (and of the TCV scans when they run here);
        :class:`~repro.core.deadline.DeadlineExpired` is raised past it.

    Returns
    -------
    SubgraphView
        The refined mask over the same base view (zero copies).
    """
    if not isinstance(quick_graph, SubgraphView):
        raise TypeError(
            "tight_upper_bound_graph refines the edge-mask SubgraphView that "
            f"quick_upper_bound_graph returns, not a {type(quick_graph).__name__}"
        )
    window = as_interval(interval)
    if tcv is None:
        tcv = compute_time_stream_common_vertices(
            quick_graph, source, target, window, deadline=deadline
        )
    base = quick_graph.base
    labels, src, dst, ts = base.labels, base.src, base.dst, base.ts
    source_id = base.index_of.get(source, -1)
    target_id = base.index_of.get(target, -1)
    indices: list = []
    vids: Set[int] = set()
    ticks = POLL_INTERVAL
    for index in quick_graph.iter_indices():
        ticks -= 1
        if not ticks:
            ticks = poll(deadline)
        u = src[index]
        v = dst[index]
        if u != source_id and v != target_id:
            # Lemma 9 condition i) via the Algorithm 5 defaults.
            if not _passes_tcv_filter(tcv, labels[u], labels[v], ts[index]):
                continue
        # else: Lemma 2 / Algorithm 5 lines 4-6 — edges incident to the
        # query endpoints are always part of some temporal simple path.
        indices.append(index)
        vids.add(u)
        vids.add(v)
    return SubgraphView(base, indices, vids)


def _passes_tcv_filter(
    tcv: TimeStreamCommonVertices, u: Vertex, v: Vertex, timestamp: int
) -> bool:
    """Lemma 9 condition i): keep the edge iff the two TCV sets are disjoint.

    Looking the source side up at ``timestamp - 1`` and the target side at
    ``timestamp + 1`` is equivalent to using ``τl`` / ``τr`` directly
    (Lemma 5), with the Algorithm 5 defaults ``{u}`` / ``{v}`` when no entry
    applies.
    """
    from_source = tcv.from_source_or_default(u, timestamp - 1)
    to_target = tcv.to_target_or_default(v, timestamp + 1)
    return not (from_source & to_target)
