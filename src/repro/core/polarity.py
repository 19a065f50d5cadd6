"""Polarity time computation (Algorithm 3 of the paper).

For a query ``(s, t, [τb, τe])`` the *polarity times* of a vertex ``u`` are

* the earliest arrival time ``A(u)``: the smallest arrival timestamp over all
  temporal paths from ``s`` to ``u`` within the interval that do **not** pass
  through ``t`` (``+inf`` when none exists), with the convention
  ``A(s) = τb - 1``;
* the latest departure time ``D(u)``: the largest departure timestamp over all
  temporal paths from ``u`` to ``t`` within the interval that do **not** pass
  through ``s`` (``-inf`` when none exists), with ``D(t) = τe + 1``.

Both sweeps run in ``O(n + m)`` time using a FIFO queue and the monotone
relaxations of Algorithm 3, avoiding the ``O(log n)`` priority-queue factor of
the Dijkstra-based ``tgTSG`` baseline — this is the asymptotic (and measured,
Fig. 9) advantage of QuickUBG over tgTSG.

The sweeps VUG serves run in interned-id space over the graph's CSR view
(:func:`compute_polarity_id_arrays`).  Their backward sweep departs from
Algorithm 3 as printed: it stays inside the forward sweep's reach, so its
table holds ``D(v)`` only where Lemma 1 can read it, and ``Gq`` is
unchanged.  :func:`compute_polarity_times` is Definition 4 in full, keyed by
vertex label, from the reference sweeps of :mod:`repro.paths.reachability`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..graph.edge import TimeInterval, Vertex, as_interval
from ..graph.temporal_graph import TemporalGraph
from ..graph.views import GraphView
from ..paths.reachability import earliest_arrival_times, latest_departure_times
from .deadline import POLL_INTERVAL, Deadline, poll

INFINITY = float("inf")
NEG_INFINITY = float("-inf")


@dataclass(frozen=True)
class PolarityTimes:
    """The two polarity-time tables of a query (Definition 4), keyed by label.

    The tables are sparse: they hold only the vertices the sweeps reached,
    so every stored value is finite, and the accessors return ``+inf`` /
    ``-inf`` for every other vertex.
    """

    arrival: Dict[Vertex, int]
    departure: Dict[Vertex, int]
    source: Vertex
    target: Vertex
    interval: TimeInterval

    def earliest_arrival(self, vertex: Vertex) -> float:
        """``A(vertex)`` (``+inf`` when unreachable from ``s``)."""
        return self.arrival.get(vertex, INFINITY)

    def latest_departure(self, vertex: Vertex) -> float:
        """``D(vertex)`` (``-inf`` when ``t`` is unreachable from ``vertex``)."""
        return self.departure.get(vertex, NEG_INFINITY)

    def admits_edge(self, source: Vertex, target: Vertex, timestamp: int) -> bool:
        """Lemma 1: the edge lies on some temporal s-t path iff ``A(u) < τ < D(v)``."""
        return self.earliest_arrival(source) < timestamp < self.latest_departure(target)


def compute_polarity_times(
    graph: TemporalGraph,
    source: Vertex,
    target: Vertex,
    interval,
) -> PolarityTimes:
    """Compute ``A(·)`` and ``D(·)`` of a query, keyed by vertex label (Definition 4).

    The full tables, from the reachability sweeps
    ``earliest_arrival_times(..., forbidden=t)`` and
    ``latest_departure_times(..., forbidden=s)``; only finite entries are
    stored.  The served kernel's departure table is pruned to what Lemma 1
    reads (:func:`compute_polarity_id_arrays`), so it is not this one.
    """
    window = as_interval(interval)
    arrival = earliest_arrival_times(graph, source, window, forbidden=target)
    departure = latest_departure_times(graph, target, window, forbidden=source)
    return PolarityTimes(
        arrival={v: time for v, time in arrival.items() if time != INFINITY},
        departure={
            v: time for v, time in departure.items() if time != NEG_INFINITY
        },
        source=source,
        target=target,
        interval=window,
    )


def compute_polarity_id_arrays(
    view: GraphView,
    source: Vertex,
    target: Vertex,
    interval,
    deadline: Optional[Deadline] = None,
) -> Tuple[Dict[int, int], Dict[int, int], Dict[int, int]]:
    """Algorithm 3 over the frozen CSR view, in interned-id space.

    Returns ``(arrival, departure, frontier)``, sparse maps keyed by
    interned vertex id, each vertex's timestamp run bisected *in place* on
    the view's CSR-aligned ``out_ts``/``in_ts`` columns.  A query therefore
    allocates in proportion to what its sweeps reach, never to ``|V|`` of
    the view.

    * ``arrival`` is ``A(v)`` for every vertex the forward sweep reached
      (an absent id means ``+inf``).
    * ``departure`` is exactly ``{t: τe + 1} ∪ {v: D(v) | A(v) < D(v)}``:
      the backward sweep runs only inside the forward sweep's reach
      (:func:`_sweep_departure_ids`).  This departs from Algorithm 3 as
      printed, which fills ``D(v)`` for every vertex that reaches ``t``,
      but Lemma 1 reads ``D(v)`` only as ``τ < D(v)`` for an edge
      ``(u, v, τ)`` with ``A(u) < τ``, so ``A(v) ≤ τ`` (``v ≠ t``), and
      ``τ < D(v)`` then puts ``v`` in the table: ``Gq`` is unchanged.
    * ``frontier`` maps ``s`` and every vertex of the departure table the
      forward sweep expanded to the first out-CSR position with
      ``τ > max(A(u), τb - 1)`` — where ``u``'s Lemma 1 candidates begin.
      Any other expanded vertex ``u ≠ s`` has none: an out-edge with
      ``A(u) < τ < D(v)`` would give ``D(u) ≥ τ > A(u)``, putting ``u`` in
      the table.  :func:`~repro.core.quick_ubg.quick_mask_kernel` reads
      only these runs.

    Both sweeps poll ``deadline`` every
    :data:`~repro.core.deadline.POLL_INTERVAL` iterations of each of their
    loops and raise :class:`~repro.core.deadline.DeadlineExpired` past it.
    """
    window = as_interval(interval)
    source_id = view.index_of.get(source)
    target_id = view.index_of.get(target)
    arrival, expanded = _sweep_arrival_ids(
        view, source_id, target_id, window, deadline
    )
    departure = _sweep_departure_ids(
        view, source_id, target_id, window, arrival, deadline
    )
    # Every table vertex but t was expanded (it leaves at D(v) > A(v)).
    frontier = {
        u: expanded[u] for u in (source_id, *departure) if u in expanded
    }
    return arrival, departure, frontier


def _sweep_arrival_ids(
    view: GraphView,
    source_id,
    target_id,
    window: TimeInterval,
    deadline: Optional[Deadline] = None,
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Forward sweep from ``s``: ``A(·)`` without expanding through ``t``.

    Returns the sparse arrival table and the ``processed_from`` frontier of
    every expanded vertex.
    """
    arrival: Dict[int, int] = {}
    # Lowest out-CSR position already relaxed per vertex (exclusive stop).
    # A vertex is re-expanded whenever its arrival drops below τe, so once
    # the sweep ends this is the first position with τ > max(A(u), τb - 1)
    # for every expanded vertex: the start of its Lemma 1 candidates.
    processed_from: Dict[int, int] = {}
    if source_id is None:
        return arrival, processed_from
    arrival[source_id] = window.begin - 1
    queue = deque([source_id])
    queued = {source_id}
    offsets, out_ts, out_dst = view.out_offsets, view.out_ts, view.out_dst
    window_end = window.end
    floor = window.begin - 1
    # Both loops count down to the next poll: a queue of vertices with
    # nothing left to relax is as long a stretch as one long run.
    ticks = POLL_INTERVAL
    while queue:
        ticks -= 1
        if not ticks:
            ticks = poll(deadline)
        u = queue.popleft()
        queued.discard(u)
        current = arrival[u]
        begin, end = offsets[u], offsets[u + 1]
        stop = processed_from.get(u, end)
        bound = current if current > floor else floor
        start = bisect_right(out_ts, bound, begin, end)
        if start >= stop:
            continue
        processed_from[u] = start
        for position in range(start, stop):
            ticks -= 1
            if not ticks:
                ticks = poll(deadline)
            timestamp = out_ts[position]
            if timestamp > window_end:
                break
            v = out_dst[position]
            if v == target_id:
                # Algorithm 3 line 6: do not expand through the target.
                continue
            if v in arrival and timestamp >= arrival[v]:
                continue
            arrival[v] = timestamp
            # Algorithm 3 line 9: nothing leaves v strictly after τe.
            if timestamp != window_end and v not in queued:
                queue.append(v)
                queued.add(v)
    return arrival, processed_from


def _sweep_departure_ids(
    view: GraphView,
    source_id,
    target_id,
    window: TimeInterval,
    arrival: Dict[int, int],
    deadline: Optional[Deadline] = None,
) -> Dict[int, int]:
    """Backward sweep from ``t`` inside the forward sweep's reach.

    ``arrival`` is the forward sweep's table.  The sweep relaxes an
    in-edge ``(w, x, τ′)`` only when ``A(w) < τ′`` (never for ``w = s``),
    and scans ``x``'s in-run from ``A(x)`` (``τb`` for ``t``) up to
    ``D(x)``: an earlier in-edge would need ``A(w) < τ′ < A(x)``, which the
    forward sweep rules out.  Every stored value is therefore ``> A(v)``,
    and the table is exactly ``{t: τe + 1} ∪ {v: D(v) | A(v) < D(v)}``:
    along a latest-departure path that leaves ``v`` after ``A(v)``, every
    edge ``(w, x, τ′)`` has ``A(w) < τ′`` and ``τ′ ≥ A(x)`` by induction,
    so this sweep still relaxes every edge of that path.
    """
    departure: Dict[int, int] = {}
    if target_id is None:
        return departure
    departure[target_id] = window.end + 1
    queue = deque([target_id])
    queued = {target_id}
    # Highest in-CSR position (exclusive) already relaxed per vertex.
    processed_to: Dict[int, int] = {}
    offsets, in_ts, in_src = view.in_offsets, view.in_ts, view.in_src
    window_begin = window.begin
    # Stands in for A(w) = +inf: no in-window τ′ exceeds it.
    unreached = window.end + 1
    ticks = POLL_INTERVAL
    while queue:
        ticks -= 1
        if not ticks:
            ticks = poll(deadline)
        x = queue.popleft()
        queued.discard(x)
        begin, end = offsets[x], offsets[x + 1]
        start = processed_to.get(x)
        if start is None:
            start = bisect_left(in_ts, arrival.get(x, window_begin), begin, end)
        stop = bisect_left(in_ts, departure[x], start, end)
        if stop <= start:
            continue
        processed_to[x] = stop
        for position in range(start, stop):
            ticks -= 1
            if not ticks:
                ticks = poll(deadline)
            timestamp = in_ts[position]
            w = in_src[position]
            if arrival.get(w, unreached) >= timestamp or w == source_id:
                # Unreached, reached too late, or s (never expanded through).
                continue
            if w in departure and timestamp <= departure[w]:
                continue
            departure[w] = timestamp
            if w not in queued:
                queue.append(w)
                queued.add(w)
    return departure
