"""Time-stream common vertices (Definition 5 and Algorithm 4 of the paper).

For a vertex ``u`` and timestamp ``τ``, the time-stream common vertices
``TCV_τ(s, u)`` are the vertices (other than ``s``) shared by *every* temporal
simple path from ``s`` to ``u`` within ``[τb, τ]`` that does not contain ``t``;
``TCV_τ(u, t)`` is the mirror notion for paths from ``u`` to ``t`` within
``[τ, τe]`` that do not contain ``s``.

Key facts exploited by the implementation (all proved in the paper):

* **Lemma 5** — only one entry per *distinct* in-timestamp of ``u`` (for the
  source side) / out-timestamp (for the target side) needs to be stored; the
  value at any other timestamp equals the nearest stored entry at or below
  (resp. at or above) it.
* **Lemma 6** — the intersection may be taken over temporal *paths* rather
  than temporal *simple* paths, which makes the recursion over in-neighbours
  (Equations 3 and 4) exact.
* **Lemma 7** — once an entry degenerates to ``{u}`` every later (resp.
  earlier) entry equals ``{u}``, so the per-vertex computation can stop
  ("completed" vertices); lookups past the last stored entry return the
  stored ``{u}``.

The computation runs a single forward scan of the quick upper-bound graph's
edges in non-descending temporal order (and a single backward scan for the
target side), intersecting incrementally; total cost ``O(n + θ·m)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..graph.edge import TimeInterval, Timestamp, Vertex, as_interval
from .deadline import POLL_INTERVAL, Deadline, poll

Entry = Tuple[Timestamp, FrozenSet[Vertex]]


@dataclass
class TCVIndex:
    """Per-vertex sorted entry lists for one side (source or target).

    ``entries[u]`` is a list of ``(timestamp, vertex set)`` pairs sorted by
    timestamp ascending.  For the source side the timestamps are (a prefix of)
    the distinct in-timestamps of ``u`` in ``Gq``; for the target side a
    suffix of the distinct out-timestamps.
    """

    anchor: Vertex
    side: str  # "source" or "target"
    entries: Dict[Vertex, List[Entry]] = field(default_factory=dict)

    def lookup(self, vertex: Vertex, timestamp: Timestamp) -> Optional[FrozenSet[Vertex]]:
        """Value of ``TCV_timestamp`` for ``vertex`` (``None`` when undefined).

        Source side: nearest stored entry at or *below* ``timestamp``
        (Lemma 5); target side: nearest stored entry at or *above* it.  The
        anchor vertex itself always maps to the empty set (base case of the
        recursion).
        """
        if vertex == self.anchor:
            return frozenset()
        stored = self.entries.get(vertex)
        if not stored:
            return None
        times = [ts for ts, _ in stored]
        if self.side == "source":
            idx = bisect_right(times, timestamp) - 1
            if idx < 0:
                return None
            return stored[idx][1]
        idx = bisect_left(times, timestamp)
        if idx >= len(stored):
            return None
        return stored[idx][1]

    def stored_entries(self, vertex: Vertex) -> List[Entry]:
        """All stored entries of ``vertex`` (copy) — used by tests."""
        return list(self.entries.get(vertex, ()))

    def num_entries(self) -> int:
        """Total number of stored entries (the space term of Theorem 3)."""
        return sum(len(stored) for stored in self.entries.values())

    def total_set_size(self) -> int:
        """Sum of entry set sizes — the ``θ·m`` space term of Theorem 3."""
        return sum(len(value) for stored in self.entries.values() for _, value in stored)


@dataclass
class TimeStreamCommonVertices:
    """Both TCV indexes of a query plus the defaults of Algorithm 5."""

    source_index: TCVIndex
    target_index: TCVIndex
    interval: TimeInterval

    def from_source(self, vertex: Vertex, timestamp: Timestamp) -> Optional[FrozenSet[Vertex]]:
        """``TCV_timestamp(s, vertex)`` or ``None`` when no entry applies."""
        return self.source_index.lookup(vertex, timestamp)

    def to_target(self, vertex: Vertex, timestamp: Timestamp) -> Optional[FrozenSet[Vertex]]:
        """``TCV_timestamp(vertex, t)`` or ``None`` when no entry applies."""
        return self.target_index.lookup(vertex, timestamp)

    def from_source_or_default(self, vertex: Vertex, timestamp: Timestamp) -> FrozenSet[Vertex]:
        """Lookup with the Algorithm 5 default ``{vertex}`` when undefined."""
        value = self.from_source(vertex, timestamp)
        return value if value is not None else frozenset({vertex})

    def to_target_or_default(self, vertex: Vertex, timestamp: Timestamp) -> FrozenSet[Vertex]:
        """Lookup with the Algorithm 5 default ``{vertex}`` when undefined."""
        value = self.to_target(vertex, timestamp)
        return value if value is not None else frozenset({vertex})

    def space_cost(self) -> int:
        """Total number of vertex slots stored across both indexes."""
        return self.source_index.total_set_size() + self.target_index.total_set_size()


def compute_time_stream_common_vertices(
    quick_graph,
    source: Vertex,
    target: Vertex,
    interval,
    deadline: Optional[Deadline] = None,
) -> TimeStreamCommonVertices:
    """Algorithm 4: compute ``TCV_·(s, ·)`` and ``TCV_·(·, t)`` over ``Gq``.

    ``quick_graph`` may be a :class:`TemporalGraph` or an edge-mask
    :class:`~repro.graph.views.SubgraphView` — both scans consume only the
    timestamp-sorted ``edge_tuples`` sequence.  Both scans poll
    ``deadline`` every :data:`~repro.core.deadline.POLL_INTERVAL` edges
    and raise :class:`~repro.core.deadline.DeadlineExpired` past it.
    """
    window = as_interval(interval)
    source_index = _compute_source_side(quick_graph, source, target, deadline)
    target_index = _compute_target_side(quick_graph, source, target, deadline)
    return TimeStreamCommonVertices(
        source_index=source_index,
        target_index=target_index,
        interval=window,
    )


def _compute_source_side(
    quick_graph, source: Vertex, target: Vertex, deadline: Optional[Deadline]
) -> TCVIndex:
    """Forward scan computing ``TCV_·(s, u)`` for every vertex ``u``."""
    index = TCVIndex(anchor=source, side="source")
    completed: set = set()
    ticks = POLL_INTERVAL
    # Plain-tuple iteration over the timestamp-sorted sequence: works
    # identically for a TemporalGraph and an edge-mask SubgraphView, and
    # allocates no TemporalEdge objects on the hot path.
    for v, u, timestamp in quick_graph.edge_tuples():
        ticks -= 1
        if not ticks:
            ticks = poll(deadline)
        if u == target or u == source or u in completed:
            # Algorithm 4 line 8: no entries are maintained for t, and
            # completed vertices already degenerated to {u} (Lemma 7).
            continue
        base = index.lookup(v, timestamp - 1)
        if base is None:
            # Algorithm 4 line 15: a missing entry means the in-neighbour was
            # completed (or is not reached before τ); its value is {v}.
            base = frozenset({v})
        term = base | {u}
        stored = index.entries.setdefault(u, [])
        if stored and stored[-1][0] == timestamp:
            # Another in-edge of u at the same timestamp: continue the
            # running intersection for the current entry (Algorithm 4 case i).
            stored[-1] = (timestamp, stored[-1][1] & term)
        elif stored:
            # First in-edge of u at a strictly larger timestamp: the previous
            # entry is final; the new entry inherits it (TCV_τ ⊆ TCV_{τ-1})
            # and intersects the new term (Algorithm 4 case ii).
            stored.append((timestamp, stored[-1][1] & term))
        else:
            # Very first entry of u (Algorithm 4 line 17).
            stored.append((timestamp, term))
        if stored[-1][1] == frozenset({u}):
            completed.add(u)
    return index


def _compute_target_side(
    quick_graph, source: Vertex, target: Vertex, deadline: Optional[Deadline]
) -> TCVIndex:
    """Backward scan computing ``TCV_·(u, t)`` for every vertex ``u``."""
    index = TCVIndex(anchor=target, side="target")
    completed: set = set()
    ticks = POLL_INTERVAL
    # Entries are produced in descending timestamp order; collect per vertex
    # and reverse at the end so the stored lists are ascending for lookups.
    descending: Dict[Vertex, List[Entry]] = {}
    for u, v, timestamp in reversed(quick_graph.edge_tuples()):
        ticks -= 1
        if not ticks:
            ticks = poll(deadline)
        if u == source or u == target or u in completed:
            continue
        stored_v = descending.get(v)
        base = _lookup_descending(stored_v, timestamp + 1) if v != target else frozenset()
        if base is None:
            base = frozenset({v})
        term = base | {u}
        stored = descending.setdefault(u, [])
        if stored and stored[-1][0] == timestamp:
            stored[-1] = (timestamp, stored[-1][1] & term)
        elif stored:
            stored.append((timestamp, stored[-1][1] & term))
        else:
            stored.append((timestamp, term))
        if stored[-1][1] == frozenset({u}):
            completed.add(u)
    for vertex, stored in descending.items():
        index.entries[vertex] = list(reversed(stored))
    return index


def _lookup_descending(
    stored: Optional[List[Entry]], timestamp: Timestamp
) -> Optional[FrozenSet[Vertex]]:
    """Nearest entry at or above ``timestamp`` in a descending-ordered list."""
    if not stored:
        return None
    # ``stored`` is ordered by descending timestamp; find the last element
    # whose timestamp is still >= the requested one.
    result: Optional[FrozenSet[Vertex]] = None
    for ts, value in stored:
        if ts >= timestamp:
            result = value
        else:
            break
    return result
