"""The directed temporal multigraph used by every algorithm in the library.

The representation mirrors the access patterns of the paper's algorithms:

* per-vertex *out* and *in* neighbour lists ``N_out(u)`` / ``N_in(u)`` holding
  ``(neighbour, timestamp)`` pairs sorted by timestamp ascending (Algorithm 3
  maintains per-vertex pointers over these sorted lists);
* a flat edge list sorted in non-descending temporal order (Algorithms 4–6 scan
  edges forward/backward in temporal order);
* the distinct-timestamp views ``T_out(u)`` / ``T_in(u)`` needed by the
  time-stream-common-vertices machinery (Lemma 5 / Lemma 8).

The graph is a *multigraph*: several edges may connect the same ordered vertex
pair at different timestamps, which is exactly what Lemma 11's "replacement
edges" batching exploits.  Exact duplicate edges (same endpoints and same
timestamp) are stored once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort_right
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .edge import TemporalEdge, TimeInterval, Timestamp, Vertex, as_edge, as_interval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .views import GraphView

NeighborEntry = Tuple[Vertex, Timestamp]


def _entry_timestamp(entry: NeighborEntry) -> Timestamp:
    """Sort key of a neighbour entry (timestamp ascending, ties stable)."""
    return entry[1]


def _edge_sort_key(edge: Tuple[Vertex, Vertex, Timestamp]):
    """Total order for the sorted edge backing: timestamp, then vertex reprs.

    The backing is sorted out of ``_edge_set`` — a :class:`set`, whose
    iteration order varies with ``PYTHONHASHSEED`` for string vertices.  A
    timestamp-only key would make equal-timestamp tie order hash-seed
    dependent, so two graphs with identical edges (e.g. a
    ``SubgraphView.materialize()`` next to its source view) could disagree
    on ``edge_tuples()`` order between runs.  Tie-breaking on ``repr``
    (vertices may be arbitrary hashables — ints, strings, tuples — which
    cannot be compared directly) makes the sorted edge sequence (and the
    columnar view built from it) a pure function of the edge *set*:
    stable across processes, hash seeds and machines.  (Whole snapshot
    payloads are *not* byte-reproducible across differently-built graphs:
    the persisted adjacency dicts still carry insertion order.)
    """
    source, target, timestamp = edge
    # Caveat: repr must be value-based for the guarantee to hold.  Every
    # vertex type the library ships (ints, strings, tuples of those) is;
    # a custom vertex class relying on the default object repr (memory
    # address) falls back to stable-sort input order for its ties.
    return (timestamp, repr(source), repr(target))


class EdgeDelta:
    """A structured mutation record produced by :meth:`TemporalGraph.append_edges`.

    Where the legacy mutators collapse every change into an opaque epoch
    bump (forcing derived state — views, caches, snapshots — to rebuild
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
        rows: Tuple[Tuple[Vertex, Vertex, Timestamp], ...],
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


class LazyGraphBoot:
    """Deferred hydration state of an mmap-booted graph (snapshot v4).

    Bundles everything a :class:`TemporalGraph` built by
    :meth:`TemporalGraph.from_lazy_boot` needs to answer cheap queries
    without touching the snapshot payload, plus a ``load_adjacency``
    callable that decodes the pickled adjacency section on first demand.
    The graph drops its reference to this object once both hydration tiers
    (adjacency dicts, edge set) have run, releasing the loader closure.
    """

    __slots__ = (
        "view",
        "timestamps",
        "epoch",
        "num_edges",
        "load_adjacency",
        "_vertex_set",
    )

    def __init__(
        self,
        *,
        view: "GraphView",
        timestamps: List[Timestamp],
        epoch: int,
        num_edges: int,
        load_adjacency,
    ) -> None:
        self.view = view
        self.timestamps = timestamps
        self.epoch = epoch
        self.num_edges = num_edges
        self.load_adjacency = load_adjacency
        self._vertex_set: Optional[Set[Vertex]] = None

    @property
    def vertices(self) -> List[Vertex]:
        """All vertices in parent insertion order (the view's label table)."""
        return self.view.labels

    def vertex_set(self) -> Set[Vertex]:
        """Membership set over the label table (built once, on demand)."""
        if self._vertex_set is None:
            self._vertex_set = set(self.view.labels)
        return self._vertex_set


def _composed_adjacency_loader(base_loader, rows):
    """Wrap an adjacency loader so it replays journaled append rows.

    The lazy append path defers adjacency hydration; when a consumer
    finally touches the dict API, the base snapshot section is unpickled
    once and every delta accumulated since boot is merged in.  Rows are
    append-only (sorted, all at-or-after the base's last timestamp), so a
    plain append keeps each per-vertex list timestamp-sorted.  Touched
    per-vertex timestamp views are dropped and rebuild lazily.
    """

    def load_adjacency():
        state = base_loader()
        out, inn = state["out"], state["in"]
        out_ts, in_ts = state["out_timestamps"], state["in_timestamps"]
        for source, target, timestamp in rows:
            for vertex in (source, target):
                if vertex not in out:
                    out[vertex] = []
                    inn[vertex] = []
            out[source].append((target, timestamp))
            inn[target].append((source, timestamp))
            out_ts.pop(source, None)
            in_ts.pop(target, None)
        return state

    return load_adjacency


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
    names, tuples, ...).  All neighbour lists are kept sorted by timestamp so
    lookups of the form "neighbours with timestamp below/above τ" are binary
    searches.

    Lazy boot (snapshot format v4, ``mmap=True``)
    ---------------------------------------------
    A graph built by :meth:`from_lazy_boot` starts with *no* adjacency or
    edge-set storage: its frozen columnar view reads straight out of a
    memory-mapped snapshot, and the Python-side structures hydrate on first
    touch.  The six storage slots involved (``_out``/``_in``/``_edge_set``/
    ``_sorted_tuples_cache``/``_out_ts_cache``/``_in_ts_cache``) are
    therefore ``*_data`` slots behind properties of the original names —
    every internal read anywhere in this class funnels through the property
    getter, which is the single hydration choke point.  Hydration has two
    independent tiers: the adjacency dicts (unpickled from the snapshot's
    adjacency section) and the edge set / sorted backing (derived from the
    mapped columns, exact by construction).  Mutation fully hydrates first,
    so every epoch bump happens on a complete graph.  Concurrent first
    touches from threads are benign: both compute identical structures and
    the last assignment wins.
    """

    __slots__ = (
        "_out_data",
        "_in_data",
        "_edge_set_data",
        "_epoch",
        "_sorted_edges_cache",
        "_sorted_tuples_data",
        "_edge_tuples_cache",
        "_ts_cache",
        "_out_ts_data",
        "_in_ts_data",
        "_view_cache",
        "_lazy_boot",
        "_append_log",
    )

    def __init__(
        self,
        edges: Optional[Iterable] = None,
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        # Must be first: the storage properties below consult it on reads.
        self._lazy_boot: Optional[LazyGraphBoot] = None
        self._out: Dict[Vertex, List[NeighborEntry]] = {}
        self._in: Dict[Vertex, List[NeighborEntry]] = {}
        self._edge_set: Set[Tuple[Vertex, Vertex, Timestamp]] = set()
        self._epoch: int = 0
        self._sorted_edges_cache: Optional[List[TemporalEdge]] = None
        # Pre-sorted plain-tuple backing for the sorted-edge index.  Loaded
        # from snapshots (and carried by copies); when present, the
        # TemporalEdge list is materialised from it *without re-sorting*.
        self._sorted_tuples_cache: Optional[
            List[Tuple[Vertex, Vertex, Timestamp]]
        ] = None
        # Immutable tuple wrapper over the sorted backing, handed out by
        # :meth:`edge_tuples` (read-only, so no per-call copy is needed).
        self._edge_tuples_cache: Optional[
            Tuple[Tuple[Vertex, Vertex, Timestamp], ...]
        ] = None
        self._ts_cache: Optional[List[Timestamp]] = None
        self._out_ts_cache: Dict[Vertex, List[Timestamp]] = {}
        self._in_ts_cache: Dict[Vertex, List[Timestamp]] = {}
        # Frozen CSR columnar projection (see repro.graph.views); rebuilt
        # lazily after mutation, shared by copies, persisted by snapshots.
        self._view_cache: Optional["GraphView"] = None
        # Recent EdgeDelta records (append_edges only), newest last.  A
        # legacy mutation clears it: the epoch gap it leaves is exactly the
        # "rebuild wholesale" signal deltas_since() reports as None.
        self._append_log: List[EdgeDelta] = []
        if vertices is not None:
            for vertex in vertices:
                self.add_vertex(vertex)
        if edges is not None:
            self.add_edges(edges)

    # ------------------------------------------------------------------
    # lazy-boot storage indirection (see the class docstring)
    # ------------------------------------------------------------------
    # Each intercepted slot has a ``*_data`` storage twin; the getters
    # hydrate from the boot state on first touch, the setters write the
    # storage directly so every existing assignment keeps working.

    @property
    def _out(self) -> Dict[Vertex, List[NeighborEntry]]:
        if self._out_data is None and self._lazy_boot is not None:
            self._hydrate_adjacency()
        return self._out_data

    @_out.setter
    def _out(self, value) -> None:
        self._out_data = value

    @property
    def _in(self) -> Dict[Vertex, List[NeighborEntry]]:
        if self._in_data is None and self._lazy_boot is not None:
            self._hydrate_adjacency()
        return self._in_data

    @_in.setter
    def _in(self, value) -> None:
        self._in_data = value

    @property
    def _out_ts_cache(self) -> Dict[Vertex, List[Timestamp]]:
        if self._out_ts_data is None and self._lazy_boot is not None:
            self._hydrate_adjacency()
        return self._out_ts_data

    @_out_ts_cache.setter
    def _out_ts_cache(self, value) -> None:
        self._out_ts_data = value

    @property
    def _in_ts_cache(self) -> Dict[Vertex, List[Timestamp]]:
        if self._in_ts_data is None and self._lazy_boot is not None:
            self._hydrate_adjacency()
        return self._in_ts_data

    @_in_ts_cache.setter
    def _in_ts_cache(self, value) -> None:
        self._in_ts_data = value

    @property
    def _edge_set(self) -> Set[Tuple[Vertex, Vertex, Timestamp]]:
        if self._edge_set_data is None and self._lazy_boot is not None:
            self._hydrate_edges()
        return self._edge_set_data

    @_edge_set.setter
    def _edge_set(self, value) -> None:
        self._edge_set_data = value

    @property
    def _sorted_tuples_cache(self):
        if self._sorted_tuples_data is None and self._lazy_boot is not None:
            self._hydrate_edges()
        return self._sorted_tuples_data

    @_sorted_tuples_cache.setter
    def _sorted_tuples_cache(self, value) -> None:
        self._sorted_tuples_data = value

    @classmethod
    def from_lazy_boot(cls, boot: LazyGraphBoot) -> "TemporalGraph":
        """A graph whose columnar view is ``boot.view`` and whose Python-side
        adjacency/edge structures hydrate lazily on first touch.

        Used by the mmap snapshot boot (format v4): the view's columns are
        ``memoryview`` slices of the mapped file, so nothing beyond the
        small metadata section is resident until a consumer actually walks
        the graph.  The distinct-timestamp cache and the epoch come from the
        metadata, so :meth:`timestamps`, :attr:`epoch`, :attr:`num_vertices`,
        :attr:`num_edges`, :meth:`vertices`, :meth:`has_vertex`,
        :meth:`view` and :meth:`warm_indices` all answer without hydrating
        anything.
        """
        graph = cls()
        graph._out_data = None
        graph._in_data = None
        graph._out_ts_data = None
        graph._in_ts_data = None
        graph._edge_set_data = None
        graph._sorted_tuples_data = None
        graph._ts_cache = list(boot.timestamps)
        graph._epoch = int(boot.epoch)
        graph._view_cache = boot.view
        graph._lazy_boot = boot
        return graph

    def _hydrate_adjacency(self) -> None:
        """First hydration tier: unpickle the persisted adjacency dicts."""
        state = self._lazy_boot.load_adjacency()
        self._out_data = state["out"]
        self._in_data = state["in"]
        self._out_ts_data = state["out_timestamps"]
        self._in_ts_data = state["in_timestamps"]
        if self._edge_set_data is not None:
            self._lazy_boot = None

    def _hydrate_edges(self) -> None:
        """Second hydration tier: derive the edge set from the mapped columns.

        The view's edge columns are exactly the sorted tuple backing,
        interned (``(labels[src[i]], labels[dst[i]], ts[i])`` *is* the
        ``i``-th sorted edge — see :meth:`GraphView.from_graph`), so the
        reconstruction is exact and needs no re-sort.
        """
        view = self._view_cache
        labels = view.labels
        tuples = [
            (labels[s], labels[d], t)
            for s, d, t in zip(view.src, view.dst, view.ts)
        ]
        self._sorted_tuples_data = tuples
        self._edge_set_data = set(tuples)
        if self._out_data is not None:
            self._lazy_boot = None

    def _ensure_hydrated(self) -> None:
        """Fully hydrate a lazily-booted graph (mutation entry points)."""
        if self._lazy_boot is None:
            return
        if self._out_data is None:
            self._hydrate_adjacency()
        if self._edge_set_data is None:
            self._hydrate_edges()
        self._lazy_boot = None

    @property
    def is_lazily_booted(self) -> bool:
        """``True`` while an mmap boot still has unhydrated structures."""
        return self._lazy_boot is not None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` (a no-op if it already exists)."""
        self._ensure_hydrated()
        if vertex not in self._out:
            self._out[vertex] = []
            self._in[vertex] = []
            self._epoch += 1

    def add_edge(self, source: Vertex, target: Vertex, timestamp: Timestamp) -> bool:
        """Add the directed temporal edge ``e(source, target, timestamp)``.

        Returns ``True`` if the edge was new, ``False`` if an identical edge
        (same endpoints and timestamp) was already present.  Self loops are
        rejected because no simple path can ever use them.
        """
        if source == target:
            raise ValueError(f"self loops are not allowed: {source!r}")
        self._ensure_hydrated()
        timestamp = int(timestamp)
        key = (source, target, timestamp)
        if key in self._edge_set:
            return False
        self.add_vertex(source)
        self.add_vertex(target)
        self._edge_set.add(key)
        # ``insort_right`` keyed by timestamp preserves the historical tie
        # behaviour of the hand-rolled shift-insert: equal-timestamp entries
        # stay in insertion order.
        insort_right(self._out[source], (target, timestamp), key=_entry_timestamp)
        insort_right(self._in[target], (source, timestamp), key=_entry_timestamp)
        self._invalidate_caches()
        return True

    def add_edges(self, edges: Iterable) -> int:
        """Add many edges; returns the number of *new* edges inserted.

        Bulk fast path: the batch is validated and de-duplicated first, then
        applied with *one* append-and-sort pass per touched adjacency list
        (``list.sort`` is stable, so equal-timestamp entries keep the same
        order per-edge insertion would have produced) and one cache
        invalidation for the whole batch.  Graph builders and dataset loaders
        therefore pay O(E log E) once instead of O(E·d) shift-inserts.  The
        batch is atomic: a self loop anywhere in ``edges`` raises before any
        edge is applied.
        """
        self._ensure_hydrated()
        staged: List[Tuple[Vertex, Vertex, Timestamp]] = []
        staged_seen: Set[Tuple[Vertex, Vertex, Timestamp]] = set()
        for edge in edges:
            e = as_edge(edge)
            if e.source == e.target:
                raise ValueError(f"self loops are not allowed: {e.source!r}")
            key = (e.source, e.target, e.timestamp)
            if key in self._edge_set or key in staged_seen:
                continue
            staged_seen.add(key)
            staged.append(key)
        if not staged:
            return 0
        if len(staged) == 1:
            source, target, timestamp = staged[0]
            self.add_edge(source, target, timestamp)
            return 1
        touched_out: Set[Vertex] = set()
        touched_in: Set[Vertex] = set()
        for source, target, timestamp in staged:
            self.add_vertex(source)
            self.add_vertex(target)
            self._out[source].append((target, timestamp))
            self._in[target].append((source, timestamp))
            touched_out.add(source)
            touched_in.add(target)
        for vertex in touched_out:
            self._out[vertex].sort(key=_entry_timestamp)
        for vertex in touched_in:
            self._in[vertex].sort(key=_entry_timestamp)
        self._edge_set.update(staged)
        self._invalidate_caches()
        return len(staged)

    # ------------------------------------------------------------------
    # live ingest (structured mutation records)
    # ------------------------------------------------------------------
    def append_edges(self, edges: Iterable) -> EdgeDelta:
        """Append edges as a structured :class:`EdgeDelta` mutation record.

        Unlike :meth:`add_edges` — which bumps the epoch and invalidates
        every derived structure wholesale — this path tells the rest of the
        stack *what* changed so it can extend instead of rebuild:

        * the sorted tuple backing, the edge-tuple cache and the distinct
          timestamps are extended in place (merged for out-of-order rows),
          never discarded;
        * a cached :class:`GraphView` is replaced by
          :meth:`GraphView.extended_with` (append-mostly rows copy the old
          column bytes once and splice the CSR, never re-sorting);
        * on a lazily-booted (mmap) graph, an append-only delta does **not**
          hydrate: the delta is folded into the boot state (the adjacency
          loader replays it on eventual first touch) and the extended view
          copies the mapped columns into private memory.  Out-of-order rows
          degrade to full hydration + merge.

        Validation matches :meth:`add_edges`: exact duplicates are skipped,
        a self loop anywhere in ``edges`` raises before any edge is
        applied.  The epoch advances by exactly one per non-empty delta,
        and the delta is remembered in a bounded log so consumers
        (:meth:`deltas_since`) can invalidate selectively.
        """
        staged: List[Tuple[Vertex, Vertex, Timestamp]] = []
        staged_seen: Set[Tuple[Vertex, Vertex, Timestamp]] = set()
        lazy_membership = self._lazy_boot is not None and self._edge_set_data is None
        for edge in edges:
            e = as_edge(edge)
            if e.source == e.target:
                raise ValueError(f"self loops are not allowed: {e.source!r}")
            key = (e.source, e.target, e.timestamp)
            if key in staged_seen:
                continue
            if lazy_membership:
                if self._lazy_has_edge(key):
                    continue
            elif key in self._edge_set:
                continue
            staged_seen.add(key)
            staged.append(key)
        old_epoch = self._epoch
        old_num = self.num_edges
        if not staged:
            return EdgeDelta(
                rows=(),
                old_epoch=old_epoch,
                new_epoch=old_epoch,
                old_num_edges=old_num,
                new_num_edges=old_num,
                append_only=True,
                min_timestamp=None,
                max_timestamp=None,
                new_vertices=(),
            )
        staged.sort(key=_edge_sort_key)
        append_only = True
        if old_num:
            if _edge_sort_key(staged[0]) < self._last_sort_key():
                append_only = False
        new_vertices: List[Vertex] = []
        seen_new: Set[Vertex] = set()
        for source, target, _ in staged:
            for vertex in (source, target):
                if vertex in seen_new:
                    continue
                if not self.has_vertex(vertex):
                    seen_new.add(vertex)
                    new_vertices.append(vertex)
        delta = EdgeDelta(
            rows=tuple(staged),
            old_epoch=old_epoch,
            new_epoch=old_epoch + 1,
            old_num_edges=old_num,
            new_num_edges=old_num + len(staged),
            append_only=append_only,
            min_timestamp=staged[0][2],
            max_timestamp=max(t for (_, _, t) in staged),
            new_vertices=tuple(new_vertices),
        )
        if self._lazy_boot is not None and delta.append_only:
            self._apply_append_lazy(delta)
        else:
            self._ensure_hydrated()
            self._apply_append_eager(delta)
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

    def _last_sort_key(self):
        """Sort key of the last row of the sorted backing (lazy-boot safe)."""
        if self._sorted_tuples_data is not None:
            return _edge_sort_key(self._sorted_tuples_data[-1])
        if self._lazy_boot is not None:
            view = self._view_cache
            labels = view.labels
            last = len(view.ts) - 1
            return (
                view.ts[last],
                repr(labels[view.src[last]]),
                repr(labels[view.dst[last]]),
            )
        return _edge_sort_key(self._sorted_tuple_backing()[-1])

    def _lazy_has_edge(self, key: Tuple[Vertex, Vertex, Timestamp]) -> bool:
        """Exact-edge membership over the mapped columns, without hydrating.

        Two bisects on the sorted ``ts`` column plus a scan of the (usually
        tiny) equal-timestamp run — touches O(log E) pages instead of
        deriving the whole edge set.
        """
        source, target, timestamp = key
        view = self._view_cache
        index_of = view.index_of
        sid = index_of.get(source)
        tid = index_of.get(target)
        if sid is None or tid is None:
            return False
        lo = bisect_left(view.ts, timestamp)
        hi = bisect_right(view.ts, timestamp)
        src, dst = view.src, view.dst
        for row in range(lo, hi):
            if src[row] == sid and dst[row] == tid:
                return True
        return False

    def _apply_append_eager(self, delta: EdgeDelta) -> None:
        """Apply ``delta`` to fully-hydrated storage without cache discard."""
        from heapq import merge

        rows = delta.rows
        touched_out: Set[Vertex] = set()
        touched_in: Set[Vertex] = set()
        for source, target, timestamp in rows:
            for vertex in (source, target):
                if vertex not in self._out_data:
                    self._out_data[vertex] = []
                    self._in_data[vertex] = []
            if delta.append_only:
                # Globally append-only ⇒ every new timestamp is >= every
                # existing entry's, and rows arrive in sorted order, so a
                # plain append keeps each adjacency list sorted.
                self._out_data[source].append((target, timestamp))
                self._in_data[target].append((source, timestamp))
            else:
                insort_right(
                    self._out_data[source], (target, timestamp), key=_entry_timestamp
                )
                insort_right(
                    self._in_data[target], (source, timestamp), key=_entry_timestamp
                )
            touched_out.add(source)
            touched_in.add(target)
        self._edge_set_data.update(rows)
        if self._sorted_tuples_data is not None:
            if delta.append_only:
                self._sorted_tuples_data.extend(rows)
            else:
                self._sorted_tuples_data = list(
                    merge(self._sorted_tuples_data, rows, key=_edge_sort_key)
                )
        if self._edge_tuples_cache is not None:
            if delta.append_only:
                self._edge_tuples_cache = self._edge_tuples_cache + rows
            else:
                self._edge_tuples_cache = None
        # TemporalEdge materialisations rebuild lazily from the (extended)
        # tuple backing; dropping them loses no per-edge sort work.
        self._sorted_edges_cache = None
        if self._ts_cache is not None:
            self._ts_cache = self._merged_timestamps(delta)
        for vertex in touched_out:
            self._out_ts_data.pop(vertex, None)
        for vertex in touched_in:
            self._in_ts_data.pop(vertex, None)
        old_view = self._view_cache
        self._epoch = delta.new_epoch
        if old_view is not None:
            self._view_cache = old_view.extended_with(delta)
        else:
            self._view_cache = None

    def _apply_append_lazy(self, delta: EdgeDelta) -> None:
        """Fold an append-only ``delta`` into the boot state — no hydration.

        The extended view copies the mapped edge columns into private
        memory (the file is never written), and the adjacency loader is
        wrapped so an *eventual* first touch replays the delta after
        unpickling the base section.  Whatever has already hydrated (either
        tier) is extended in place.
        """
        boot = self._lazy_boot
        new_view = self._view_cache.extended_with(delta)
        rows = delta.rows
        if self._out_data is not None:
            # Adjacency tier already hydrated: extend it directly.
            for source, target, timestamp in rows:
                for vertex in (source, target):
                    if vertex not in self._out_data:
                        self._out_data[vertex] = []
                        self._in_data[vertex] = []
                self._out_data[source].append((target, timestamp))
                self._in_data[target].append((source, timestamp))
                self._out_ts_data.pop(source, None)
                self._in_ts_data.pop(target, None)
            load_adjacency = boot.load_adjacency
        else:
            load_adjacency = _composed_adjacency_loader(boot.load_adjacency, rows)
        if self._edge_set_data is not None:
            self._edge_set_data.update(rows)
            if self._sorted_tuples_data is not None:
                self._sorted_tuples_data.extend(rows)
            if self._edge_tuples_cache is not None:
                self._edge_tuples_cache = self._edge_tuples_cache + rows
        self._sorted_edges_cache = None
        new_boot = LazyGraphBoot(
            view=new_view,
            timestamps=self._merged_timestamps(delta),
            epoch=delta.new_epoch,
            num_edges=delta.new_num_edges,
            load_adjacency=load_adjacency,
        )
        self._lazy_boot = new_boot
        self._view_cache = new_view
        self._ts_cache = list(new_boot.timestamps)
        self._epoch = delta.new_epoch

    def _merged_timestamps(self, delta: EdgeDelta) -> List[Timestamp]:
        """Distinct sorted timestamps after ``delta`` (extends the cache)."""
        base = self._ts_cache if self._ts_cache is not None else []
        fresh = sorted({t for (_, _, t) in delta.rows})
        if not base:
            return fresh
        if fresh and fresh[0] > base[-1]:
            return list(base) + fresh
        known = set(base)
        merged = list(base) + [t for t in fresh if t not in known]
        merged.sort()
        return merged

    def _invalidate_caches(self) -> None:
        self._epoch += 1
        self._sorted_edges_cache = None
        self._sorted_tuples_cache = None
        self._edge_tuples_cache = None
        self._ts_cache = None
        self._out_ts_cache.clear()
        self._in_ts_cache.clear()
        self._view_cache = None
        # Legacy invalidate-everything contract: the delta chain is broken,
        # so consumers must rebuild (deltas_since() now reports the gap).
        self._append_log.clear()

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
        if self._out_data is None and self._lazy_boot is not None:
            return len(self._lazy_boot.vertices)
        return len(self._out_data)

    @property
    def num_edges(self) -> int:
        """``m = |E|``."""
        if self._edge_set_data is None and self._lazy_boot is not None:
            return self._lazy_boot.num_edges
        return len(self._edge_set_data)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices (insertion order, lazy-boot safe)."""
        if self._out_data is None and self._lazy_boot is not None:
            return iter(self._lazy_boot.vertices)
        return iter(self._out_data)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` iff ``vertex`` is in the graph."""
        if self._out_data is None and self._lazy_boot is not None:
            return vertex in self._lazy_boot.vertex_set()
        return vertex in self._out_data

    def has_edge(self, source: Vertex, target: Vertex, timestamp: Timestamp) -> bool:
        """Return ``True`` iff the exact edge ``e(source, target, timestamp)`` exists."""
        return (source, target, int(timestamp)) in self._edge_set

    def edges(self) -> Iterator[TemporalEdge]:
        """Iterate over all edges in no particular order."""
        for source, target, timestamp in self._edge_set:
            yield TemporalEdge(source, target, timestamp)

    def edge_tuples(self) -> Sequence[Tuple[Vertex, Vertex, Timestamp]]:
        """All edges as plain ``(u, v, τ)`` tuples, sorted temporally.

        Returns the sorted tuple backing as a *read-only sequence* (an
        immutable tuple shared across calls — no per-call copy), so
        iteration order is deterministic: non-descending timestamp, ties in
        a fixed order that depends only on the edge set (see
        :func:`_edge_sort_key` — stable across processes and hash seeds).
        Callers needing set semantics should wrap the result in ``set(...)``.
        """
        if self._edge_tuples_cache is None:
            self._edge_tuples_cache = tuple(self._sorted_tuple_backing())
        return self._edge_tuples_cache

    def sorted_edges(self, reverse: bool = False) -> List[TemporalEdge]:
        """All edges sorted in non-descending temporal order.

        The forward order is the scan order of Algorithms 4–6; ``reverse=True``
        yields non-ascending order (used when computing ``TCV(·, t)``).
        The ascending list is cached because the streaming algorithms consume
        it repeatedly.

        The index is two-stage: the sort happens on plain ``(u, v, τ)``
        tuples (cheaper to compare, and exactly what snapshots persist and
        load back pre-sorted), and the :class:`TemporalEdge` objects are
        materialised from that backing once, on first use — identically for
        cold-built and snapshot-loaded graphs.
        """
        if self._sorted_edges_cache is None:
            self._sorted_edges_cache = [
                TemporalEdge(u, v, t) for (u, v, t) in self._sorted_tuple_backing()
            ]
        if reverse:
            return list(reversed(self._sorted_edges_cache))
        return list(self._sorted_edges_cache)

    def _sorted_tuple_backing(self) -> List[Tuple[Vertex, Vertex, Timestamp]]:
        """The temporally sorted plain-tuple edge list (built on first use).

        Equal-timestamp ties follow :func:`_edge_sort_key`, so the order is
        a deterministic function of the edge set — identical across
        processes and hash seeds (snapshot-loaded graphs adopt their
        persisted backing as-is, which was produced by this same key).
        """
        if self._sorted_tuples_cache is None:
            self._sorted_tuples_cache = sorted(self._edge_set, key=_edge_sort_key)
        return self._sorted_tuples_cache

    def timestamps(self) -> List[Timestamp]:
        """The sorted set ``T`` of distinct timestamps appearing in the graph."""
        if self._ts_cache is None:
            self._ts_cache = sorted({t for (_, _, t) in self._edge_set})
        return list(self._ts_cache)

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
    # neighbourhoods
    # ------------------------------------------------------------------
    def out_neighbors(self, vertex: Vertex) -> List[NeighborEntry]:
        """``N_out(u)``: list of ``(v, τ)`` sorted by timestamp ascending."""
        return list(self._out.get(vertex, ()))

    def in_neighbors(self, vertex: Vertex) -> List[NeighborEntry]:
        """``N_in(u)``: list of ``(v, τ)`` sorted by timestamp ascending."""
        return list(self._in.get(vertex, ()))

    def out_neighbors_view(self, vertex: Vertex) -> Sequence[NeighborEntry]:
        """Internal sorted out-adjacency list (do not mutate)."""
        return self._out.get(vertex, ())

    def in_neighbors_view(self, vertex: Vertex) -> Sequence[NeighborEntry]:
        """Internal sorted in-adjacency list (do not mutate)."""
        return self._in.get(vertex, ())

    def out_degree(self, vertex: Vertex) -> int:
        """Number of out-going temporal edges of ``vertex``."""
        return len(self._out.get(vertex, ()))

    def in_degree(self, vertex: Vertex) -> int:
        """Number of in-coming temporal edges of ``vertex``."""
        return len(self._in.get(vertex, ()))

    def degree(self, vertex: Vertex) -> int:
        """Total temporal degree (in + out)."""
        return self.in_degree(vertex) + self.out_degree(vertex)

    def max_degree(self) -> int:
        """``d = max_u max(|N_in(u)|, |N_out(u)|)`` as defined in Section III."""
        best = 0
        for vertex in self._out:
            best = max(best, self.out_degree(vertex), self.in_degree(vertex))
        return best

    def out_timestamps(self, vertex: Vertex) -> List[Timestamp]:
        """``T_out(u)``: sorted distinct timestamps of out-going edges.

        Cached per vertex (and invalidated on mutation) because the
        time-stream-common-vertices machinery and the batch service consult
        these views once per query over an unchanging graph.
        """
        cached = self._out_ts_cache.get(vertex)
        if cached is None:
            cached = sorted({t for _, t in self._out.get(vertex, ())})
            self._out_ts_cache[vertex] = cached
        return list(cached)

    def in_timestamps(self, vertex: Vertex) -> List[Timestamp]:
        """``T_in(u)``: sorted distinct timestamps of in-coming edges."""
        cached = self._in_ts_cache.get(vertex)
        if cached is None:
            cached = sorted({t for _, t in self._in.get(vertex, ())})
            self._in_ts_cache[vertex] = cached
        return list(cached)

    def warm_indices(self) -> Dict[str, int]:
        """Eagerly build every lazily-cached per-graph index.

        The sorted edge list, the distinct-timestamp set and the per-vertex
        ``T_out(u)`` / ``T_in(u)`` views are all computed on first use and
        invalidated by mutation.  A long-lived query service warms them once
        up front so no query — and in particular no *concurrently executing*
        query — pays the construction cost or races to build them.

        Returns a small summary dict (counts of warmed entries) used by the
        service's index report.

        The warm edge index is the pre-sorted *tuple* backing (cold builds
        sort it here; snapshot loads adopt it as-is), from which the
        :class:`TemporalEdge` objects are materialised deterministically on
        first :meth:`sorted_edges` use.  Warming a snapshot-loaded graph is
        therefore O(V): every per-edge cost was already paid at save time.

        An mmap-booted graph (:meth:`from_lazy_boot`) short-circuits: every
        index it serves either lives in the mapped file (the columnar view,
        the CSR-aligned timestamp columns) or hydrates lazily on first
        touch, and eagerly building them here would defeat the boot's
        whole point.  The returned counts are derived from the graph's
        current state without hydrating anything, and equal what an eager
        warm of the same state reports.
        """
        if self._lazy_boot is not None:
            return {
                "sorted_edges": self.num_edges,
                "distinct_timestamps": len(self.timestamps()),
                "vertex_timestamp_views": 2 * self.num_vertices,
                "view_edges": self.view().num_edges,
            }
        num_sorted = len(self._sorted_tuple_backing())
        timestamps = self.timestamps()
        for vertex in self._out:
            self.out_timestamps(vertex)
            self.in_timestamps(vertex)
        view = self.view()
        return {
            "sorted_edges": num_sorted,
            "distinct_timestamps": len(timestamps),
            "vertex_timestamp_views": len(self._out_ts_cache) + len(self._in_ts_cache),
            "view_edges": view.num_edges,
        }

    def view(self) -> "GraphView":
        """The frozen CSR columnar projection of this graph (built lazily).

        The view is the zero-materialization substrate of the VUG hot path
        (see :mod:`repro.graph.views`): vertex-id interning, parallel
        ``src``/``dst``/``ts`` arrays sorted by timestamp, and offset-indexed
        per-vertex out/in slices.  It is immutable and epoch-stamped; any
        mutation of this graph invalidates the cached view and the next call
        rebuilds it.  :meth:`copy` shares the warmed view (safe — views are
        frozen) and snapshots persist it so a snapshot boot is view-servable
        without any rebuild.
        """
        if self._view_cache is None:
            from .views import GraphView  # deferred: views imports this module

            self._view_cache = GraphView.from_graph(self)
        return self._view_cache

    # Range queries over the sorted adjacency lists -----------------------
    def out_neighbors_after(
        self, vertex: Vertex, timestamp: Timestamp, strict: bool = True
    ) -> List[NeighborEntry]:
        """Out-neighbours reachable by an edge with timestamp ``> τ`` (or ``>=``)."""
        entries = self._out.get(vertex, ())
        idx = self._first_index_above(entries, timestamp, strict)
        return list(entries[idx:])

    def in_neighbors_before(
        self, vertex: Vertex, timestamp: Timestamp, strict: bool = True
    ) -> List[NeighborEntry]:
        """In-neighbours with an edge whose timestamp is ``< τ`` (or ``<=``)."""
        entries = self._in.get(vertex, ())
        idx = self._last_index_below(entries, timestamp, strict)
        return list(entries[:idx])

    @staticmethod
    def _first_index_above(
        entries: Sequence[NeighborEntry], timestamp: Timestamp, strict: bool
    ) -> int:
        times = [t for _, t in entries]
        if strict:
            return bisect_right(times, timestamp)
        return bisect_left(times, timestamp)

    @staticmethod
    def _last_index_below(
        entries: Sequence[NeighborEntry], timestamp: Timestamp, strict: bool
    ) -> int:
        times = [t for _, t in entries]
        if strict:
            return bisect_left(times, timestamp)
        return bisect_right(times, timestamp)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "TemporalGraph":
        """Return a deep copy of the graph (vertices, including isolated ones).

        Already-warmed caches are carried over instead of being rebuilt on the
        copy: the adjacency lists are cloned directly (they are sorted, so no
        re-insertion is needed) and the sorted-edge / timestamp views are
        shared or shallow-copied — all of them are rebuilt-on-mutation, so the
        clone and the original cannot alias each other's future state.  The
        clone also inherits the source's mutation :attr:`epoch`.

        A lazily-booted graph clones *lazy*: the boot state (frozen view,
        metadata, adjacency loader) is shared — it is immutable and its
        loader is idempotent — so copying an mmap boot neither faults the
        mapped columns nor unpickles the adjacency section.  Structures
        that already hydrated on the source are carried over hydrated.
        """
        if self._lazy_boot is not None:
            clone = TemporalGraph.from_lazy_boot(self._lazy_boot)
            clone._epoch = self._epoch
            if self._out_data is not None:
                clone._out_data = {
                    vertex: list(entries) for vertex, entries in self._out_data.items()
                }
                clone._in_data = {
                    vertex: list(entries) for vertex, entries in self._in_data.items()
                }
                clone._out_ts_data = {
                    v: list(ts) for v, ts in self._out_ts_data.items()
                }
                clone._in_ts_data = {v: list(ts) for v, ts in self._in_ts_data.items()}
            if self._edge_set_data is not None:
                clone._edge_set_data = set(self._edge_set_data)
                if self._sorted_tuples_data is not None:
                    clone._sorted_tuples_data = list(self._sorted_tuples_data)
            clone._edge_tuples_cache = self._edge_tuples_cache
            clone._append_log = list(self._append_log)
            return clone
        clone = TemporalGraph()
        clone._out = {vertex: list(entries) for vertex, entries in self._out.items()}
        clone._in = {vertex: list(entries) for vertex, entries in self._in.items()}
        clone._edge_set = set(self._edge_set)
        # Sorted-edge cache entries are immutable TemporalEdge objects and the
        # list itself is copied on every read, so sharing the warmed list (and
        # the timestamp views, which are copied on read too) is safe.
        if self._sorted_edges_cache is not None:
            clone._sorted_edges_cache = list(self._sorted_edges_cache)
        if self._sorted_tuples_cache is not None:
            clone._sorted_tuples_cache = list(self._sorted_tuples_cache)
        clone._edge_tuples_cache = self._edge_tuples_cache
        if self._ts_cache is not None:
            clone._ts_cache = list(self._ts_cache)
        clone._out_ts_cache = {v: list(ts) for v, ts in self._out_ts_cache.items()}
        clone._in_ts_cache = {v: list(ts) for v, ts in self._in_ts_cache.items()}
        # Views are frozen, so the clone can share the warmed columnar
        # projection outright; a mutation on either side rebuilds its own.
        clone._view_cache = self._view_cache
        clone._epoch = self._epoch
        clone._append_log = list(self._append_log)
        return clone

    # ------------------------------------------------------------------
    # warmed-state transfer (used by repro.store snapshots)
    # ------------------------------------------------------------------
    def warmed_state(self) -> Dict[str, object]:
        """Export vertices, edges and every warmed index as plain builtins.

        The result contains only dicts/lists/tuples of vertices and integer
        timestamps, which is what :mod:`repro.store` serializes.  The graph is
        fully warmed first so a snapshot always captures complete indices.
        """
        self.warm_indices()
        return {
            "out": {v: list(entries) for v, entries in self._out.items()},
            "in": {v: list(entries) for v, entries in self._in.items()},
            "sorted_edges": list(self._sorted_tuple_backing()),
            "timestamps": list(self._ts_cache),
            "out_timestamps": {v: list(ts) for v, ts in self._out_ts_cache.items()},
            "in_timestamps": {v: list(ts) for v, ts in self._in_ts_cache.items()},
            "view": self.view().columns(),
            "epoch": self._epoch,
        }

    @classmethod
    def from_warmed_state(
        cls, state: Dict[str, object], *, trust_order: bool = True
    ) -> "TemporalGraph":
        """Rebuild a fully-warmed graph from :meth:`warmed_state` output.

        Ownership of ``state`` transfers to the new graph (the containers are
        adopted, not copied — :meth:`warmed_state` always exports fresh
        ones).  Nothing is re-sorted and no per-edge insertion happens: the
        adjacency and timestamp views are used as-is and the sorted-edge
        index keeps the pre-sorted tuple list as its backing, materialising
        :class:`TemporalEdge` objects lazily on first use.  Reconstruction is
        therefore O(E) dict/set building in C instead of the
        O(E log E + E·d) cold build.

        ``trust_order=False`` (used for snapshots written by builds whose
        tie order was hash-seed dependent, i.e. format version < 3) skips
        adopting the sorted backing and the view: both rebuild lazily under
        the current deterministic :func:`_edge_sort_key`, at one
        O(E log E) pass on first use.
        """
        graph = cls()
        graph._out = dict(state["out"])
        graph._in = dict(state["in"])
        sorted_tuples = [tuple(edge) for edge in state["sorted_edges"]]
        graph._edge_set = set(sorted_tuples)
        graph._ts_cache = list(state["timestamps"])
        graph._out_ts_cache = dict(state["out_timestamps"])
        graph._in_ts_cache = dict(state["in_timestamps"])
        graph._epoch = int(state["epoch"])
        if trust_order:
            graph._sorted_tuples_cache = sorted_tuples
            view_columns = state.get("view")
            if view_columns is not None:
                from .views import GraphView  # deferred: views imports this

                graph._view_cache = GraphView.from_columns(
                    view_columns, epoch=graph._epoch
                )
        return graph

    def project(self, interval) -> "TemporalGraph":
        """The projected graph ``G[τb, τe]`` (Section II).

        Keeps exactly the edges with timestamp in the closed interval and the
        vertices incident to at least one such edge.  The window is located
        with two bisects on the temporally sorted backing and the slice is
        bulk-loaded (no per-edge sorted insertion).
        """
        window = as_interval(interval)
        backing = self._sorted_tuple_backing()
        times = [t for (_, _, t) in backing]
        lo = bisect_left(times, window.begin)
        hi = bisect_right(times, window.end)
        return TemporalGraph(edges=backing[lo:hi])

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
        rev = TemporalGraph(vertices=self._out.keys())
        rev.add_edges(TemporalEdge(v, u, t) for (u, v, t) in self._edge_set)
        return rev

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
            return (item[0], item[1], int(item[2])) in self._edge_set
        return self.has_vertex(item)

    def __len__(self) -> int:
        return self.num_vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            set(self._out.keys()) == set(other._out.keys())
            and self._edge_set == other._edge_set
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("TemporalGraph objects are mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"|T|={len(self.timestamps())})"
        )
