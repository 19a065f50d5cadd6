"""The directed temporal multigraph used by every algorithm in the library.

A graph keeps its edges in one place, its frozen CSR
:class:`~repro.graph.views.GraphView`, which is already the structure the
paper's algorithms walk:

* the per-vertex *out* and *in* neighbour lists ``N_out(u)`` / ``N_in(u)``,
  sorted by timestamp ascending (Algorithm 3 maintains per-vertex pointers
  over them), are the view's CSR slices and their aligned timestamp and
  endpoint columns;
* the flat edge list in non-descending temporal order (Algorithms 4–6 scan
  edges forward/backward in temporal order) is the view's edge columns;
* the distinct-timestamp views ``T_out(u)`` / ``T_in(u)`` of the
  time-stream-common-vertices machinery (Lemma 5 / Lemma 8) are the distinct
  values of a slice's timestamp column.

Equal-timestamp edges are ordered by :func:`_edge_sort_key`, so every read
order is a function of the edge set alone, whatever order the edges were
added in.  Beside the view the graph keeps its mutation epoch, its distinct
timestamps, a bounded log of :class:`EdgeDelta` records and whatever the
legacy mutators (:meth:`TemporalGraph.add_vertex` / ``add_edge`` /
``add_edges``) staged since the last read; the next read folds the staged
rows into a new view.

The graph is a *multigraph*: several edges may connect the same ordered vertex
pair at different timestamps, which is exactly what Lemma 11's "replacement
edges" batching exploits.  Exact duplicate edges (same endpoints and same
timestamp) are stored once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .edge import TemporalEdge, TimeInterval, Timestamp, Vertex, as_edge, as_interval
from .views import GraphView

NeighborEntry = Tuple[Vertex, Timestamp]
EdgeTuple = Tuple[Vertex, Vertex, Timestamp]


def _edge_sort_key(edge: EdgeTuple):
    """Total order of a graph's edges: timestamp, then vertex reprs.

    The view's edge columns are sorted by this key, and its CSR slices keep
    that order, so ``edge_tuples()``, ``out_neighbors(u)`` (equal
    timestamps by target ``repr``) and ``in_neighbors(v)`` (by source
    ``repr``) are pure functions of the edge *set*: stable across insertion
    orders, processes, hash seeds and machines, and so are snapshot bytes.
    Tie-breaking on ``repr`` is needed because vertices may be arbitrary
    hashables (ints, strings, tuples) that cannot be compared directly.
    """
    source, target, timestamp = edge
    # Caveat: repr must be value-based for the guarantee to hold.  Every
    # vertex type the library ships (ints, strings, tuples of those) is;
    # a custom vertex class relying on the default object repr (memory
    # address) falls back to stable-sort input order for its ties.
    return (timestamp, repr(source), repr(target))


def _last_sort_key(view: GraphView):
    """:func:`_edge_sort_key` of ``view``'s last edge row."""
    labels = view.labels
    last = view.num_edges - 1
    return (view.ts[last], repr(labels[view.src[last]]), repr(labels[view.dst[last]]))


def _merged_timestamps(base: List[Timestamp], rows) -> List[Timestamp]:
    """Distinct sorted timestamps of ``base`` plus those of ``rows``."""
    fresh = sorted({t for (_, _, t) in rows})
    if not base or not fresh:
        return base or fresh
    if fresh[0] > base[-1]:
        return base + fresh
    return sorted(set(base).union(fresh))


def _new_rows(edges: Iterable, has_edge) -> Dict[EdgeTuple, None]:
    """The distinct rows of ``edges`` that ``has_edge`` does not know, in
    input order (an ordered set).  Raises on a self loop anywhere in
    ``edges`` before the caller adds anything."""
    batch: Dict[EdgeTuple, None] = {}
    for edge in edges:
        e = as_edge(edge)
        if e.source == e.target:
            raise ValueError(f"self loops are not allowed: {e.source!r}")
        key = (e.source, e.target, e.timestamp)
        if key not in batch and not has_edge(*key):
            batch[key] = None
    return batch


def _entries(labels, ends, times, lo: int, hi: int) -> List[NeighborEntry]:
    """``(labels[ends[j]], times[j])`` for CSR positions ``lo <= j < hi``."""
    return list(zip(map(labels.__getitem__, ends[lo:hi]), times[lo:hi]))


class EdgeDelta:
    """A structured mutation record produced by :meth:`TemporalGraph.append_edges`.

    Where the legacy mutators collapse every change into an opaque epoch
    bump (forcing derived state — caches, snapshots — to rebuild
    wholesale), an :class:`EdgeDelta` says exactly *what* changed: the new
    rows in deterministic :func:`_edge_sort_key` order, the epoch
    transition, the edge-count transition, the timestamp range touched and
    the vertices that did not exist before.  Consumers use it to extend
    instead of rebuild: :meth:`GraphView.extended_with` merges the rows
    into the frozen columns, the store appends it to the snapshot's
    ``*.tspgjournal`` sidecar, and the service drops only the cache
    entries whose query window intersects ``[min_timestamp, max_timestamp]``.

    ``append_only`` is ``True`` when every new row sorts at or after the
    last existing row — the fast path where epoch N's columns are copied
    once and extended, never re-sorted.  An empty delta (every staged edge
    was a duplicate) has ``rows == ()`` and ``old_epoch == new_epoch``.
    """

    __slots__ = (
        "rows",
        "old_epoch",
        "new_epoch",
        "old_num_edges",
        "new_num_edges",
        "append_only",
        "min_timestamp",
        "max_timestamp",
        "new_vertices",
    )

    def __init__(
        self,
        *,
        rows: Tuple[EdgeTuple, ...],
        old_epoch: int,
        new_epoch: int,
        old_num_edges: int,
        new_num_edges: int,
        append_only: bool,
        min_timestamp: Optional[Timestamp],
        max_timestamp: Optional[Timestamp],
        new_vertices: Tuple[Vertex, ...],
    ) -> None:
        self.rows = rows
        self.old_epoch = old_epoch
        self.new_epoch = new_epoch
        self.old_num_edges = old_num_edges
        self.new_num_edges = new_num_edges
        self.append_only = append_only
        self.min_timestamp = min_timestamp
        self.max_timestamp = max_timestamp
        self.new_vertices = new_vertices

    @classmethod
    def between(
        cls,
        view: GraphView,
        rows: Iterable[EdgeTuple],
        new_vertices: Iterable[Vertex],
        *,
        old_epoch: int,
        new_epoch: int,
    ) -> "EdgeDelta":
        """The delta that adds ``rows`` (in :func:`_edge_sort_key` order) and
        ``new_vertices`` to ``view``."""
        rows = tuple(rows)
        old_num = view.num_edges
        return cls(
            rows=rows,
            old_epoch=old_epoch,
            new_epoch=new_epoch,
            old_num_edges=old_num,
            new_num_edges=old_num + len(rows),
            append_only=not rows
            or not old_num
            or _edge_sort_key(rows[0]) >= _last_sort_key(view),
            min_timestamp=rows[0][2] if rows else None,
            max_timestamp=max(t for (_, _, t) in rows) if rows else None,
            new_vertices=tuple(new_vertices),
        )

    @property
    def num_rows(self) -> int:
        """Number of new edges this delta appends."""
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeDelta(rows={len(self.rows)}, epoch={self.old_epoch}->"
            f"{self.new_epoch}, append_only={self.append_only})"
        )


#: Bounded length of the per-graph delta log consulted by
#: :meth:`TemporalGraph.deltas_since`; beyond it, consumers fall back to
#: the wholesale rebuild path exactly as if a legacy mutator had run.
_DELTA_LOG_LIMIT = 64


class _Staged:
    """What the legacy mutators added since the last read, over ``base``.

    ``vertices`` and ``rows`` are insertion-ordered dicts used as ordered
    sets.  Readers that must not fold (membership and counts) consult
    ``base`` plus these, never the graph's current view, so a fold racing
    them cannot count a row twice.
    """

    __slots__ = ("base", "vertices", "rows")

    def __init__(self, base: GraphView) -> None:
        self.base = base
        self.vertices: Dict[Vertex, None] = {}
        self.rows: Dict[EdgeTuple, None] = {}


class TemporalGraph:
    """A directed temporal multigraph ``G = (V, E)``.

    Parameters
    ----------
    edges:
        Optional iterable of edges; each may be a :class:`TemporalEdge` or a
        ``(u, v, τ)`` triple.
    vertices:
        Optional iterable of vertices to add up front (isolated vertices are
        legal and are preserved by :meth:`copy`).

    Notes
    -----
    Vertices may be any hashable value (integers, strings such as transit stop
    names, tuples, ...).  Every edge lives in the frozen :meth:`view`; the
    neighbour accessors read its CSR slices, whose timestamp columns are
    sorted, so "neighbours with timestamp below/above τ" are binary
    searches.  The legacy mutators stage their rows and the next read folds
    them into a new view the way :meth:`GraphView.extended_with` extends one,
    so building a graph edge by edge stays linear.  :meth:`has_vertex`,
    :meth:`has_edge` and the counts answer without folding.
    """

    __slots__ = ("_view", "_epoch", "_timestamps", "_append_log", "_staged")

    def __init__(
        self,
        edges: Optional[Iterable] = None,
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        self._view = GraphView.empty()
        self._epoch: int = 0
        self._timestamps: List[Timestamp] = []
        # Recent EdgeDelta records (append_edges only), newest last.  A
        # legacy mutation clears it: the epoch gap it leaves is exactly the
        # "rebuild wholesale" signal deltas_since() reports as None.
        self._append_log: List[EdgeDelta] = []
        self._staged: Optional[_Staged] = None
        if vertices is not None:
            for vertex in vertices:
                self.add_vertex(vertex)
        if edges is not None:
            self.add_edges(edges)

    @classmethod
    def from_view(
        cls, view: GraphView, timestamps: Iterable[Timestamp]
    ) -> "TemporalGraph":
        """The graph whose edges are ``view``'s, at ``view.epoch``.

        ``timestamps`` are the distinct sorted timestamps of the view's
        rows, passed in so a snapshot boot over mapped columns reads none of
        them.  The view is adopted, not copied.
        """
        graph = cls()
        graph._view = view
        graph._epoch = view.epoch
        graph._timestamps = list(timestamps)
        return graph

    # ------------------------------------------------------------------
    # construction (staged, folded on the next read)
    # ------------------------------------------------------------------
    def _staging(self) -> _Staged:
        staged = self._staged
        if staged is None:
            staged = self._staged = _Staged(self._view)
        return staged

    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` (a no-op if it already exists)."""
        if not self.has_vertex(vertex):
            self._staging().vertices[vertex] = None
            self._epoch += 1

    def add_edge(self, source: Vertex, target: Vertex, timestamp: Timestamp) -> bool:
        """Add the directed temporal edge ``e(source, target, timestamp)``.

        Returns ``True`` if the edge was new, ``False`` if an identical edge
        (same endpoints and timestamp) was already present.  Self loops are
        rejected because no simple path can ever use them.
        """
        if source == target:
            raise ValueError(f"self loops are not allowed: {source!r}")
        timestamp = int(timestamp)
        if self.has_edge(source, target, timestamp):
            return False
        self.add_vertex(source)
        self.add_vertex(target)
        self._staging().rows[(source, target, timestamp)] = None
        self._mutated()
        return True

    def add_edges(self, edges: Iterable) -> int:
        """Add many edges; returns the number of *new* edges inserted.

        The batch is validated and de-duplicated first and bumps the epoch
        once for all its edges (plus once per new vertex, as
        :meth:`add_vertex` does).  It is atomic: a self loop anywhere in
        ``edges`` raises before any edge is added.
        """
        batch = _new_rows(edges, self.has_edge)
        if not batch:
            return 0
        for source, target, _ in batch:
            self.add_vertex(source)
            self.add_vertex(target)
        self._staging().rows.update(batch)
        self._mutated()
        return len(batch)

    def _mutated(self) -> None:
        """The epoch bump of a legacy edge mutation, which breaks the delta
        chain: consumers must rebuild (deltas_since() reports the gap)."""
        self._epoch += 1
        self._append_log.clear()

    def _fold(self, staged: _Staged) -> GraphView:
        """Fold the staged rows and vertices into a new view and adopt it.

        Reads only ``staged`` (never the current view), so two readers
        folding the same buffer build equal views and either may win.
        """
        delta = EdgeDelta.between(
            staged.base,
            sorted(staged.rows, key=_edge_sort_key),
            staged.vertices,
            old_epoch=staged.base.epoch,
            new_epoch=self._epoch,
        )
        view = staged.base.extended_with(delta)
        self._timestamps = _merged_timestamps(self._timestamps, delta.rows)
        self._view = view
        self._staged = None
        return view

    # ------------------------------------------------------------------
    # live ingest (structured mutation records)
    # ------------------------------------------------------------------
    def append_edges(self, edges: Iterable) -> EdgeDelta:
        """Append edges as a structured :class:`EdgeDelta` mutation record.

        Unlike :meth:`add_edges` — which bumps the epoch and breaks the delta
        chain — this path tells the rest of the stack *what* changed so it
        can extend instead of rebuild.  The view is replaced by
        :meth:`GraphView.extended_with`: append-mostly rows copy the old
        column bytes once (a mapped column into private memory; the file is
        never written) and splice the CSR, never re-sorting; out-of-order
        rows merge.

        Validation matches :meth:`add_edges`: exact duplicates are skipped,
        a self loop anywhere in ``edges`` raises before any edge is
        applied.  The epoch advances by exactly one per non-empty delta,
        and the delta is remembered in a bounded log so consumers
        (:meth:`deltas_since`) can invalidate selectively.
        """
        view = self.view()
        rows = sorted(_new_rows(edges, view.has_edge), key=_edge_sort_key)
        index_of = view.index_of
        new_vertices: Dict[Vertex, None] = {}
        for row in rows:
            for vertex in row[:2]:
                if vertex not in index_of:
                    new_vertices[vertex] = None
        old_epoch = self._epoch
        delta = EdgeDelta.between(
            view,
            rows,
            new_vertices,
            old_epoch=old_epoch,
            new_epoch=old_epoch + 1 if rows else old_epoch,
        )
        if not rows:
            return delta
        self._timestamps = _merged_timestamps(self._timestamps, delta.rows)
        self._view = view.extended_with(delta)
        self._epoch = delta.new_epoch
        self._append_log.append(delta)
        if len(self._append_log) > _DELTA_LOG_LIMIT:
            del self._append_log[: len(self._append_log) - _DELTA_LOG_LIMIT]
        return delta

    def deltas_since(self, epoch: int) -> Optional[List[EdgeDelta]]:
        """The contiguous :class:`EdgeDelta` chain from ``epoch`` to now.

        Returns ``[]`` when ``epoch`` is current, or ``None`` when the gap
        cannot be explained by logged appends alone (a legacy mutator ran,
        or the bounded log has already dropped part of the chain) — the
        caller must then fall back to wholesale invalidation.
        """
        if epoch == self._epoch:
            return []
        chain: List[EdgeDelta] = []
        cursor = self._epoch
        for delta in reversed(self._append_log):
            if delta.new_epoch != cursor:
                return None
            chain.append(delta)
            cursor = delta.old_epoch
            if cursor == epoch:
                chain.reverse()
                return chain
            if cursor < epoch:
                return None
        return None

    @property
    def epoch(self) -> int:
        """Monotonically increasing mutation counter.

        Every successful :meth:`add_vertex`, :meth:`add_edge` and
        :meth:`add_edges` call bumps the epoch (no-op duplicates do not).
        Consumers that derive state from the graph — warmed indices, memoized
        query results, shard partitions, on-disk snapshots — stamp what they
        build with the epoch and compare on use, so staleness is *detected*
        instead of relying on callers to invalidate manually.
        """
        return self._epoch

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``n = |V|``."""
        staged = self._staged
        if staged is None:
            return self._view.num_vertices
        return staged.base.num_vertices + len(staged.vertices)

    @property
    def num_edges(self) -> int:
        """``m = |E|``."""
        staged = self._staged
        if staged is None:
            return self._view.num_edges
        return staged.base.num_edges + len(staged.rows)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices in insertion order."""
        return iter(self.view().labels)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` iff ``vertex`` is in the graph."""
        staged = self._staged
        if staged is None:
            return vertex in self._view.index_of
        return vertex in staged.vertices or vertex in staged.base.index_of

    def has_edge(self, source: Vertex, target: Vertex, timestamp: Timestamp) -> bool:
        """Return ``True`` iff the exact edge ``e(source, target, timestamp)`` exists."""
        timestamp = int(timestamp)
        staged = self._staged
        if staged is None:
            return self._view.has_edge(source, target, timestamp)
        return (source, target, timestamp) in staged.rows or staged.base.has_edge(
            source, target, timestamp
        )

    def edges(self) -> Iterator[TemporalEdge]:
        """Iterate over all edges (in temporal order)."""
        for source, target, timestamp in self.edge_tuples():
            yield TemporalEdge(source, target, timestamp)

    def edge_tuples(self) -> Sequence[EdgeTuple]:
        """All edges as plain ``(u, v, τ)`` tuples, sorted temporally.

        A fresh tuple read off the view's edge columns: non-descending
        timestamp, ties in :func:`_edge_sort_key` order, which depends only
        on the edge set.  Callers needing set semantics should wrap the
        result in ``set(...)``.
        """
        view = self.view()
        label = view.labels.__getitem__
        return tuple(zip(map(label, view.src), map(label, view.dst), view.ts))

    def sorted_edges(self, reverse: bool = False) -> List[TemporalEdge]:
        """All edges sorted in non-descending temporal order.

        The forward order is the scan order of Algorithms 4–6; ``reverse=True``
        yields non-ascending order (used when computing ``TCV(·, t)``).
        """
        edges = [TemporalEdge(u, v, t) for (u, v, t) in self.edge_tuples()]
        if reverse:
            edges.reverse()
        return edges

    def timestamps(self) -> List[Timestamp]:
        """The sorted set ``T`` of distinct timestamps appearing in the graph."""
        self.view()
        return list(self._timestamps)

    @property
    def min_timestamp(self) -> Optional[Timestamp]:
        """Smallest timestamp in the graph (``None`` when edgeless)."""
        ts = self.timestamps()
        return ts[0] if ts else None

    @property
    def max_timestamp(self) -> Optional[Timestamp]:
        """Largest timestamp in the graph (``None`` when edgeless)."""
        ts = self.timestamps()
        return ts[-1] if ts else None

    # ------------------------------------------------------------------
    # neighbourhoods (CSR slices of the view)
    # ------------------------------------------------------------------
    def _out_range(self, vertex: Vertex) -> Tuple[GraphView, int, int]:
        view = self.view()
        vid = view.index_of.get(vertex)
        if vid is None:
            return view, 0, 0
        return view, view.out_offsets[vid], view.out_offsets[vid + 1]

    def _in_range(self, vertex: Vertex) -> Tuple[GraphView, int, int]:
        view = self.view()
        vid = view.index_of.get(vertex)
        if vid is None:
            return view, 0, 0
        return view, view.in_offsets[vid], view.in_offsets[vid + 1]

    def out_neighbors(self, vertex: Vertex) -> List[NeighborEntry]:
        """``N_out(u)``: list of ``(v, τ)`` sorted by timestamp ascending."""
        view, lo, hi = self._out_range(vertex)
        return _entries(view.labels, view.out_dst, view.out_ts, lo, hi)

    def in_neighbors(self, vertex: Vertex) -> List[NeighborEntry]:
        """``N_in(u)``: list of ``(v, τ)`` sorted by timestamp ascending."""
        view, lo, hi = self._in_range(vertex)
        return _entries(view.labels, view.in_src, view.in_ts, lo, hi)

    # The ``*_view`` names are the zero-copy accessors of SubgraphView; a
    # graph reads its slices into a fresh list either way.
    out_neighbors_view = out_neighbors
    in_neighbors_view = in_neighbors

    def out_degree(self, vertex: Vertex) -> int:
        """Number of out-going temporal edges of ``vertex``."""
        _, lo, hi = self._out_range(vertex)
        return hi - lo

    def in_degree(self, vertex: Vertex) -> int:
        """Number of in-coming temporal edges of ``vertex``."""
        _, lo, hi = self._in_range(vertex)
        return hi - lo

    def degree(self, vertex: Vertex) -> int:
        """Total temporal degree (in + out)."""
        return self.in_degree(vertex) + self.out_degree(vertex)

    def max_degree(self) -> int:
        """``d = max_u max(|N_in(u)|, |N_out(u)|)`` as defined in Section III."""
        view = self.view()
        return max(
            (
                offsets[vid + 1] - offsets[vid]
                for offsets in (view.out_offsets, view.in_offsets)
                for vid in range(view.num_vertices)
            ),
            default=0,
        )

    def out_timestamps(self, vertex: Vertex) -> List[Timestamp]:
        """``T_out(u)``: sorted distinct timestamps of out-going edges."""
        view, lo, hi = self._out_range(vertex)
        return sorted(set(view.out_ts[lo:hi]))

    def in_timestamps(self, vertex: Vertex) -> List[Timestamp]:
        """``T_in(u)``: sorted distinct timestamps of in-coming edges."""
        view, lo, hi = self._in_range(vertex)
        return sorted(set(view.in_ts[lo:hi]))

    def out_neighbors_after(
        self, vertex: Vertex, timestamp: Timestamp, strict: bool = True
    ) -> List[NeighborEntry]:
        """Out-neighbours reachable by an edge with timestamp ``> τ`` (or ``>=``)."""
        view, lo, hi = self._out_range(vertex)
        times = view.out_ts
        start = (bisect_right if strict else bisect_left)(times, timestamp, lo, hi)
        return _entries(view.labels, view.out_dst, times, start, hi)

    def in_neighbors_before(
        self, vertex: Vertex, timestamp: Timestamp, strict: bool = True
    ) -> List[NeighborEntry]:
        """In-neighbours with an edge whose timestamp is ``< τ`` (or ``<=``)."""
        view, lo, hi = self._in_range(vertex)
        times = view.in_ts
        stop = (bisect_left if strict else bisect_right)(times, timestamp, lo, hi)
        return _entries(view.labels, view.in_src, times, lo, stop)

    # ------------------------------------------------------------------
    # the view
    # ------------------------------------------------------------------
    def warm_indices(self) -> Dict[str, int]:
        """Fold anything staged, so no query builds the view.

        A long-lived query service calls this once per epoch up front, so no
        query — and in particular no *concurrently executing* query — folds
        staged rows.  Returns a small summary dict (counts) used by the
        service's index report.
        """
        view = self.view()
        return {
            "sorted_edges": view.num_edges,
            "distinct_timestamps": len(self._timestamps),
            "view_edges": view.num_edges,
        }

    def view(self) -> GraphView:
        """The frozen CSR columnar view that holds this graph's edges.

        The view is the zero-materialization substrate of the VUG hot path
        (see :mod:`repro.graph.views`): vertex-id interning, parallel
        ``src``/``dst``/``ts`` arrays sorted by :func:`_edge_sort_key`, and
        offset-indexed per-vertex out/in slices.  It is immutable and
        epoch-stamped.  Rows staged by the legacy mutators are folded into a
        new view first; :meth:`copy` shares the view and snapshots persist
        its columns.
        """
        staged = self._staged
        if staged is None:
            return self._view
        return self._fold(staged)

    def view_is_built(self) -> bool:
        """Whether a query over :meth:`view` would build nothing first.

        True when nothing is staged and the view's CSR-aligned columns
        exist (the first query after an append derives them again).  Reads
        two attributes and builds nothing, so an event loop may ask.
        """
        return self._staged is None and self._view.aligned_columns_built

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "TemporalGraph":
        """Return a copy of the graph (vertices, including isolated ones).

        The copy shares the frozen view (a mutation on either side builds
        its own), inherits the source's mutation :attr:`epoch` and delta
        log, and costs O(|T|).
        """
        clone = TemporalGraph.from_view(self.view(), self._timestamps)
        clone._epoch = self._epoch
        clone._append_log = list(self._append_log)
        return clone

    def project(self, interval) -> "TemporalGraph":
        """The projected graph ``G[τb, τe]`` (Section II).

        Keeps exactly the edges with timestamp in the closed interval and the
        vertices incident to at least one such edge.  The window is located
        with two bisects on the view's sorted ``ts`` column.
        """
        view = self.view()
        lo, hi = view.slice_bounds(as_interval(interval))
        label = view.labels.__getitem__
        return TemporalGraph(
            edges=zip(
                map(label, view.src[lo:hi]), map(label, view.dst[lo:hi]), view.ts[lo:hi]
            )
        )

    def edge_induced_subgraph(self, edges: Iterable) -> "TemporalGraph":
        """Subgraph induced by ``edges`` (must all exist in this graph)."""
        members = []
        for edge in edges:
            e = as_edge(edge)
            if not self.has_edge(e.source, e.target, e.timestamp):
                raise KeyError(f"edge {e!r} is not part of the graph")
            members.append(e)
        return TemporalGraph(edges=members)

    def reverse(self) -> "TemporalGraph":
        """Return the graph with every edge direction flipped (timestamps kept)."""
        return TemporalGraph(
            vertices=self.vertices(),
            edges=((v, u, t) for (u, v, t) in self.edge_tuples()),
        )

    def time_interval(self) -> Optional[TimeInterval]:
        """The interval spanned by all timestamps (``None`` for an edgeless graph)."""
        ts = self.timestamps()
        if not ts:
            return None
        return TimeInterval(ts[0], ts[-1])

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, item: object) -> bool:
        if isinstance(item, TemporalEdge):
            return self.has_edge(item.source, item.target, item.timestamp)
        if isinstance(item, tuple) and len(item) == 3:
            return self.has_edge(item[0], item[1], item[2])
        return self.has_vertex(item)

    def __len__(self) -> int:
        return self.num_vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            self.num_edges == other.num_edges
            and set(self.vertices()) == set(other.vertices())
            and set(self.edge_tuples()) == set(other.edge_tuples())
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("TemporalGraph objects are mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"|T|={len(self.timestamps())})"
        )
