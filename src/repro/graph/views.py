"""Frozen, zero-copy read views over a temporal graph.

This module is the zero-materialization substrate of the VUG hot path.  Every
phase of the pipeline (QuickUBG → TightUBG → EEV) used to build a brand-new
:class:`~repro.graph.temporal_graph.TemporalGraph`, paying per-edge sorted
insertion and cache invalidation for subgraphs that exist only for the
duration of one query.  The two classes here remove that cost:

* :class:`GraphView` — the frozen, CSR-style *columnar* store of a graph's
  edges (a :class:`~repro.graph.temporal_graph.TemporalGraph` keeps them
  nowhere else): vertex-id interning plus parallel, timestamp-sorted
  ``src``/``dst``/``ts`` columns and offset-indexed per-vertex out/in edge
  slices with aligned timestamp/endpoint columns.  Every column is a
  builtin int64 buffer (an ``array('q')``, or a ``memoryview`` of a mapped
  snapshot; see :mod:`repro.graph.columns`).  One per graph epoch, shared
  by every query, persisted by snapshots.
* :class:`SubgraphView` — an *edge-mask* view over a :class:`GraphView`: a
  byte mask plus the ascending list of surviving edge indices (located
  inside an interval slice found by bisect) select the surviving edges
  without copying any edge storage.  It implements the read API of
  :class:`TemporalGraph` that the pipeline phases consume
  (``edge_tuples``/``sorted_edges``/``out_neighbors_view``/…), so the
  TightUBG and EEV kernels run on masks end to end.  Per-vertex adjacency
  is grouped lazily from the surviving indices in O(k) — independent of the
  parent's degrees.

A real :class:`TemporalGraph` is only built at the public-result boundary,
behind an explicit :meth:`SubgraphView.materialize` call.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .columns import extended_column, index_column, zeros_column
from .edge import TemporalEdge, TimeInterval, Timestamp, Vertex, as_interval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .temporal_graph import TemporalGraph

EdgeTuple = Tuple[Vertex, Vertex, Timestamp]
NeighborEntry = Tuple[Vertex, Timestamp]


class GraphView:
    """The frozen CSR-style columnar store of a temporal graph's edges.

    Attributes
    ----------
    labels:
        Interning table: ``labels[i]`` is the original vertex of id ``i``
        (insertion order of the graph, so ids are deterministic).
    index_of:
        Inverse mapping ``vertex -> interned id``.
    src, dst, ts:
        Parallel edge columns sorted by ``ts`` non-descending, equal
        timestamps in ``_edge_sort_key`` order (source, then target
        ``repr``).  ``ts`` being sorted is what lets a query window be
        sliced with two bisects.
    out_offsets, out_edges / in_offsets, in_edges:
        CSR adjacency: ``out_edges[out_offsets[u]:out_offsets[u + 1]]`` are
        the indices (into the edge columns) of ``u``'s out-edges, timestamp
        sorted (ties in edge-column order); mirror layout for in-edges.
    out_ts, out_dst / in_ts, in_src:
        Columns *aligned with the CSR slices*: ``out_ts[j]`` is the
        timestamp and ``out_dst[j]`` the head of the edge at CSR position
        ``j``.  Because each per-vertex slice of ``out_ts`` is sorted, the
        polarity sweeps (Algorithm 3) can bisect straight into the slice —
        no per-query per-vertex timestamp lists are ever built.  Derived
        lazily on first use (and then shared by every query); snapshots
        persist them, so a snapshot boot never derives them.
    epoch:
        The parent graph's mutation epoch at build time.

    The view is immutable; all mutating access goes through the owning
    :class:`TemporalGraph`, which replaces its view.
    """

    __slots__ = (
        "labels",
        "index_of",
        "src",
        "dst",
        "ts",
        "out_offsets",
        "out_edges",
        "_out_aligned",
        "in_offsets",
        "in_edges",
        "_in_aligned",
        "epoch",
    )

    def __init__(
        self,
        labels: List[Vertex],
        src: array,
        dst: array,
        ts: array,
        out_offsets: array,
        out_edges: array,
        in_offsets: array,
        in_edges: array,
        epoch: int,
    ) -> None:
        self.labels = labels
        self.index_of: Dict[Vertex, int] = {
            label: index for index, label in enumerate(labels)
        }
        self.src = src
        self.dst = dst
        self.ts = ts
        self.out_offsets = out_offsets
        self.out_edges = out_edges
        self.in_offsets = in_offsets
        self.in_edges = in_edges
        self._out_aligned: Optional[Tuple[array, array]] = None
        self._in_aligned: Optional[Tuple[array, array]] = None
        self.epoch = epoch

    @property
    def out_ts(self) -> array:
        """Timestamps aligned with ``out_edges`` (lazy, cached)."""
        if self._out_aligned is None:
            ts, dst = self.ts, self.dst
            self._out_aligned = (
                index_column(ts[e] for e in self.out_edges),
                index_column(dst[e] for e in self.out_edges),
            )
        return self._out_aligned[0]

    @property
    def out_dst(self) -> array:
        """Edge heads aligned with ``out_edges`` (lazy, cached)."""
        self.out_ts  # noqa: B018 — builds the cached pair
        return self._out_aligned[1]

    @property
    def in_ts(self) -> array:
        """Timestamps aligned with ``in_edges`` (lazy, cached)."""
        if self._in_aligned is None:
            ts, src = self.ts, self.src
            self._in_aligned = (
                index_column(ts[e] for e in self.in_edges),
                index_column(src[e] for e in self.in_edges),
            )
        return self._in_aligned[0]

    @property
    def in_src(self) -> array:
        """Edge tails aligned with ``in_edges`` (lazy, cached)."""
        self.in_ts  # noqa: B018 — builds the cached pair
        return self._in_aligned[1]

    @property
    def aligned_columns_built(self) -> bool:
        """Whether the lazy CSR-aligned columns exist (reading builds nothing)."""
        return self._out_aligned is not None and self._in_aligned is not None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "GraphView":
        """The view of the empty graph at epoch 0."""
        offsets = zeros_column(1)
        return cls(
            [], index_column(), index_column(), index_column(),
            offsets, index_column(), offsets, index_column(),
            epoch=0,
        )

    # ------------------------------------------------------------------
    # incremental extension (live ingest)
    # ------------------------------------------------------------------
    def extended_with(self, delta) -> "GraphView":
        """Epoch N+1's view built by merging an :class:`EdgeDelta` into N's.

        The receiver stays frozen (in-flight queries keep reading it); a
        *new* view is returned.  ``append_edges`` extends a graph's view
        this way, and so does the fold of the rows (and vertices) the
        legacy mutators staged.

        **Append-mostly fast path** (``delta.append_only``): the delta's
        rows sort at or after the last existing row, so each new
        ``src``/``dst``/``ts`` column is one copy of the old bytes plus the
        tail (a mapped column is copied into private memory, never
        written), and the CSR arrays are *spliced* — untouched per-vertex
        runs are bulk-copied between the O(delta) insertion points, never
        re-sorted or re-counted.  New vertices intern after the existing
        labels, so every old id stays valid.

        **Out-of-order fallback**: rows landing before the last existing
        timestamp cannot be appended without breaking the sorted-``ts``
        invariant every bisect relies on, so the merged row set is rebuilt
        (one O(E) merge of two sorted sequences — no re-sort — then a fresh
        intern + CSR pass).
        """
        if not delta.rows and not delta.new_vertices:
            return self
        if not delta.append_only or delta.old_num_edges != self.num_edges:
            return self._rebuilt_with(delta)
        old_num_edges = self.num_edges
        labels = list(self.labels)
        index_of = dict(self.index_of)
        for vertex in delta.new_vertices:
            index_of[vertex] = len(labels)
            labels.append(vertex)
        tail_len = len(delta.rows)
        src_tail = zeros_column(tail_len)
        dst_tail = zeros_column(tail_len)
        ts_tail = zeros_column(tail_len)
        for offset, (u, v, t) in enumerate(delta.rows):
            src_tail[offset] = index_of[u]
            dst_tail[offset] = index_of[v]
            ts_tail[offset] = t
        num_vertices = len(labels)
        out_offsets, out_edges = _csr_extended(
            self.out_offsets, self.out_edges, src_tail, old_num_edges, num_vertices
        )
        in_offsets, in_edges = _csr_extended(
            self.in_offsets, self.in_edges, dst_tail, old_num_edges, num_vertices
        )
        return GraphView(
            labels,
            extended_column(self.src, src_tail),
            extended_column(self.dst, dst_tail),
            extended_column(self.ts, ts_tail),
            out_offsets,
            out_edges,
            in_offsets,
            in_edges,
            epoch=delta.new_epoch,
        )

    def _rebuilt_with(self, delta) -> "GraphView":
        """Full rebuild over the merged (still-sorted) row sequence."""
        from heapq import merge

        from .temporal_graph import _edge_sort_key

        labels = list(self.labels)
        index_of = dict(self.index_of)
        for vertex in delta.new_vertices:
            index_of[vertex] = len(labels)
            labels.append(vertex)
        own_labels = self.labels
        base_rows = (
            (own_labels[s], own_labels[d], t)
            for s, d, t in zip(self.src, self.dst, self.ts)
        )
        num_edges = self.num_edges + len(delta.rows)
        src = zeros_column(num_edges)
        dst = zeros_column(num_edges)
        ts = zeros_column(num_edges)
        for index, (u, v, t) in enumerate(
            merge(base_rows, delta.rows, key=_edge_sort_key)
        ):
            src[index] = index_of[u]
            dst[index] = index_of[v]
            ts[index] = t
        num_vertices = len(labels)
        out_offsets, out_edges = _csr(src, num_vertices, num_edges)
        in_offsets, in_edges = _csr(dst, num_vertices, num_edges)
        return GraphView(
            labels, src, dst, ts, out_offsets, out_edges, in_offsets, in_edges,
            epoch=delta.new_epoch,
        )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``n = |V|`` of the graph."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """``m = |E|`` of the graph."""
        return len(self.ts)

    def slice_bounds(self, interval) -> Tuple[int, int]:
        """Edge-column index range ``[lo, hi)`` covering ``interval``.

        Two bisects on the sorted ``ts`` column.
        """
        window = as_interval(interval)
        return (
            bisect_left(self.ts, window.begin),
            bisect_right(self.ts, window.end),
        )

    def has_edge(self, source: Vertex, target: Vertex, timestamp: Timestamp) -> bool:
        """``True`` iff the exact edge is a row of the view.

        A bisect (keyed by ``ts``) into ``source``'s out-slice plus a scan
        of its equal-timestamp run; needs no CSR-aligned column.
        """
        index_of = self.index_of
        sid = index_of.get(source)
        tid = index_of.get(target)
        if sid is None or tid is None:
            return False
        edges, ts, dst = self.out_edges, self.ts, self.dst
        stop = self.out_offsets[sid + 1]
        position = bisect_left(
            edges, timestamp, self.out_offsets[sid], stop, key=ts.__getitem__
        )
        while position < stop:
            edge = edges[position]
            if ts[edge] != timestamp:
                return False
            if dst[edge] == tid:
                return True
            position += 1
        return False

    def out_slice(self, vid: int) -> array:
        """Edge indices of vertex id ``vid``'s out-edges (timestamp sorted)."""
        return self.out_edges[self.out_offsets[vid] : self.out_offsets[vid + 1]]

    def in_slice(self, vid: int) -> array:
        """Edge indices of vertex id ``vid``'s in-edges (timestamp sorted)."""
        return self.in_edges[self.in_offsets[vid] : self.in_offsets[vid + 1]]

    def full_view(self) -> "SubgraphView":
        """A :class:`SubgraphView` selecting every edge."""
        vids = {vid for vid in range(self.num_vertices)
                if self.out_offsets[vid] != self.out_offsets[vid + 1]
                or self.in_offsets[vid] != self.in_offsets[vid + 1]}
        return SubgraphView(self, list(range(self.num_edges)), vids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphView(n={self.num_vertices}, m={self.num_edges}, epoch={self.epoch})"


def _csr(column: array, num_vertices: int, num_edges: int) -> Tuple[array, array]:
    """Counting-sort ``column`` into CSR ``(offsets, edge_indices)`` arrays.

    Stability of the counting sort preserves the timestamp order of the edge
    columns inside every per-vertex slice.
    """
    counts = [0] * num_vertices
    for vid in column:
        counts[vid] += 1
    offsets = zeros_column(num_vertices + 1)
    running = 0
    for vid in range(num_vertices):
        offsets[vid] = running
        running += counts[vid]
    offsets[num_vertices] = running
    cursor = offsets[:num_vertices].tolist() if num_vertices else []
    edges = zeros_column(num_edges)
    for index in range(num_edges):
        vid = column[index]
        edges[cursor[vid]] = index
        cursor[vid] += 1
    return offsets, edges


def _append_run(dest: array, column, start: int, stop: int) -> None:
    """Bulk-append ``column[start:stop]`` to ``dest`` (one memcpy per run)."""
    if start < stop:
        dest.frombytes(memoryview(column)[start:stop].cast("B"))


def _csr_extended(
    offsets, edges, tail_vids, old_num_edges: int, num_vertices: int
):
    """Extend a frozen CSR with edge rows appended after ``old_num_edges``.

    ``tail_vids[j]`` is the key vertex of appended row ``old_num_edges + j``.
    Because the rows are append-only in timestamp order, each new edge index
    lands at the *end* of its vertex's bucket, so the new CSR is the old one
    with O(delta) splice points: offsets shift by the running count of
    insertions before each vertex (one O(V) integer pass), and the edge
    array is stitched from bulk-copied untouched runs plus the per-vertex
    insertions — no counting sort over the full edge set.
    """
    old_num_vertices = len(offsets) - 1
    buckets: Dict[int, List[int]] = {}
    for j, vid in enumerate(tail_vids):
        buckets.setdefault(vid, []).append(old_num_edges + j)
    new_offsets = zeros_column(num_vertices + 1)
    extra_before = 0
    for vid in range(old_num_vertices):
        new_offsets[vid] = offsets[vid] + extra_before
        bucket = buckets.get(vid)
        if bucket:
            extra_before += len(bucket)
    cursor = old_num_edges + extra_before
    for vid in range(old_num_vertices, num_vertices):
        new_offsets[vid] = cursor
        bucket = buckets.get(vid)
        if bucket:
            cursor += len(bucket)
    new_offsets[num_vertices] = cursor
    new_edges = index_column()
    prev = 0
    for vid in sorted(vid for vid in buckets if vid < old_num_vertices):
        stop = offsets[vid + 1]
        _append_run(new_edges, edges, prev, stop)
        new_edges.extend(buckets[vid])
        prev = stop
    _append_run(new_edges, edges, prev, old_num_edges)
    for vid in range(old_num_vertices, num_vertices):
        bucket = buckets.get(vid)
        if bucket:
            new_edges.extend(bucket)
    return new_offsets, new_edges


class SubgraphView:
    """An edge-mask view over a :class:`GraphView` — no edge storage copied.

    ``indices`` lists the surviving edge positions in the parent columns in
    ascending (= timestamp) order — the canonical representation the phase
    kernels produce.  The byte :attr:`mask` twin used for O(1) membership
    tests is derived from it lazily (``has_edge`` is off the pipeline's hot
    path, so queries that never ask for membership never pay the O(m)
    allocation).

    The class implements the read-side API of :class:`TemporalGraph` that
    the pipeline phases (TCV, TightUBG, EEV) and the analysis/validation
    helpers consume.  Per-vertex adjacency is grouped lazily from the
    surviving indices — one O(k) pass for the whole view (*not* one parent
    CSR scan per vertex), cached for the view's lifetime, i.e. one query.
    """

    __slots__ = (
        "base",
        "indices",
        "_mask",
        "_vids",
        "_out_adj",
        "_in_adj",
        "_tuples",
        "_edge_objects",
        "_ts_cache",
    )

    def __init__(
        self,
        base: GraphView,
        indices: List[int],
        vids: Set[int],
    ) -> None:
        self.base = base
        self.indices = indices
        self._mask: Optional[bytearray] = None
        self._vids = vids
        self._out_adj: Optional[Dict[int, List[NeighborEntry]]] = None
        self._in_adj: Optional[Dict[int, List[NeighborEntry]]] = None
        self._tuples: Optional[Tuple[EdgeTuple, ...]] = None
        self._edge_objects: Optional[List[TemporalEdge]] = None
        self._ts_cache: Optional[List[Timestamp]] = None

    @property
    def mask(self) -> bytearray:
        """Byte mask over the parent edge columns (lazy; do not mutate)."""
        if self._mask is None:
            mask = bytearray(self.base.num_edges)
            for index in self.indices:
                mask[index] = 1
            self._mask = mask
        return self._mask

    # ------------------------------------------------------------------
    # mask-level accessors (interned-id space; used by the kernels)
    # ------------------------------------------------------------------
    def iter_indices(self) -> Iterator[int]:
        """Indices of surviving edges into the parent columns, ts ascending."""
        return iter(self.indices)

    @property
    def epoch(self) -> int:
        """Mutation epoch of the parent graph the view was built from."""
        return self.base.epoch

    # ------------------------------------------------------------------
    # TemporalGraph-compatible read API (label space)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices incident to at least one surviving edge."""
        return len(self._vids)

    @property
    def num_edges(self) -> int:
        """Number of surviving edges."""
        return len(self.indices)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over the view's vertices (interned-id order)."""
        labels = self.base.labels
        return (labels[vid] for vid in sorted(self._vids))

    def has_vertex(self, vertex: Vertex) -> bool:
        """``True`` iff ``vertex`` is incident to a surviving edge."""
        vid = self.base.index_of.get(vertex)
        return vid is not None and vid in self._vids

    def has_edge(self, source: Vertex, target: Vertex, timestamp: Timestamp) -> bool:
        """``True`` iff the exact edge survives the mask."""
        index_of = self.base.index_of
        sid = index_of.get(source)
        tid = index_of.get(target)
        if sid is None or tid is None:
            return False
        timestamp = int(timestamp)
        base = self.base
        dst, ts, mask = base.dst, base.ts, self.mask
        for edge_index in base.out_slice(sid):
            if ts[edge_index] == timestamp and dst[edge_index] == tid and mask[edge_index]:
                return True
        return False

    def edges(self) -> Iterator[TemporalEdge]:
        """Iterate over surviving edges as :class:`TemporalEdge` objects."""
        for u, v, t in self.edge_tuples():
            yield TemporalEdge(u, v, t)

    def edge_tuples(self) -> Sequence[EdgeTuple]:
        """Surviving edges as plain tuples, timestamp sorted (read-only)."""
        if self._tuples is None:
            base = self.base
            labels, src, dst, ts = base.labels, base.src, base.dst, base.ts
            self._tuples = tuple(
                (labels[src[i]], labels[dst[i]], ts[i]) for i in self.indices
            )
        return self._tuples

    def sorted_edges(self, reverse: bool = False) -> List[TemporalEdge]:
        """Surviving edges in non-descending temporal order (list of edges)."""
        if self._edge_objects is None:
            self._edge_objects = [
                TemporalEdge(u, v, t) for (u, v, t) in self.edge_tuples()
            ]
        if reverse:
            return list(reversed(self._edge_objects))
        return list(self._edge_objects)

    def timestamps(self) -> List[Timestamp]:
        """Sorted distinct timestamps of surviving edges."""
        if self._ts_cache is None:
            ts = self.base.ts
            self._ts_cache = sorted({ts[i] for i in self.indices})
        return list(self._ts_cache)

    @property
    def min_timestamp(self) -> Optional[Timestamp]:
        """Smallest surviving timestamp (``None`` when the view is empty)."""
        ts = self.timestamps()
        return ts[0] if ts else None

    @property
    def max_timestamp(self) -> Optional[Timestamp]:
        """Largest surviving timestamp (``None`` when the view is empty)."""
        ts = self.timestamps()
        return ts[-1] if ts else None

    def time_interval(self) -> Optional[TimeInterval]:
        """Interval spanned by surviving timestamps (``None`` when empty)."""
        ts = self.timestamps()
        if not ts:
            return None
        return TimeInterval(ts[0], ts[-1])

    # Neighbourhoods ----------------------------------------------------
    def _group_by(self, key_column, label_column) -> Dict[int, List[NeighborEntry]]:
        """Group surviving edges by ``key_column`` into per-vertex entries.

        ``indices`` ascending = timestamp ascending (ties in backing order,
        matching the parent CSR slices), so every grouped list comes out
        timestamp-sorted for free.
        """
        labels, ts = self.base.labels, self.base.ts
        grouped = {}
        for i in self.indices:
            entry = (labels[label_column[i]], ts[i])
            vid = key_column[i]
            bucket = grouped.get(vid)
            if bucket is None:
                grouped[vid] = [entry]
            else:
                bucket.append(entry)
        return grouped

    def _group_out(self) -> Dict[int, List[NeighborEntry]]:
        if self._out_adj is None:
            self._out_adj = self._group_by(self.base.src, self.base.dst)
        return self._out_adj

    def _group_in(self) -> Dict[int, List[NeighborEntry]]:
        if self._in_adj is None:
            self._in_adj = self._group_by(self.base.dst, self.base.src)
        return self._in_adj

    def out_neighbors_view(self, vertex: Vertex) -> Sequence[NeighborEntry]:
        """``N_out(u)`` sorted by timestamp (cached; do not mutate)."""
        vid = self.base.index_of.get(vertex)
        if vid is None:
            return ()
        return self._group_out().get(vid, ())

    def in_neighbors_view(self, vertex: Vertex) -> Sequence[NeighborEntry]:
        """``N_in(u)`` sorted by timestamp (cached; do not mutate)."""
        vid = self.base.index_of.get(vertex)
        if vid is None:
            return ()
        return self._group_in().get(vid, ())

    def out_neighbors(self, vertex: Vertex) -> List[NeighborEntry]:
        """Copy of :meth:`out_neighbors_view` (mutation-safe)."""
        return list(self.out_neighbors_view(vertex))

    def in_neighbors(self, vertex: Vertex) -> List[NeighborEntry]:
        """Copy of :meth:`in_neighbors_view` (mutation-safe)."""
        return list(self.in_neighbors_view(vertex))

    def out_timestamps(self, vertex: Vertex) -> List[Timestamp]:
        """``T_out(u)``: sorted distinct timestamps of surviving out-edges."""
        return sorted({t for _, t in self.out_neighbors_view(vertex)})

    def in_timestamps(self, vertex: Vertex) -> List[Timestamp]:
        """``T_in(u)``: sorted distinct timestamps of surviving in-edges."""
        return sorted({t for _, t in self.in_neighbors_view(vertex)})

    def out_neighbors_after(
        self, vertex: Vertex, timestamp: Timestamp, strict: bool = True
    ) -> List[NeighborEntry]:
        """Out-neighbours reachable by an edge with timestamp ``> τ`` (or ``>=``)."""
        entries = self.out_neighbors_view(vertex)
        times = [t for _, t in entries]
        index = bisect_right(times, timestamp) if strict else bisect_left(times, timestamp)
        return list(entries[index:])

    def in_neighbors_before(
        self, vertex: Vertex, timestamp: Timestamp, strict: bool = True
    ) -> List[NeighborEntry]:
        """In-neighbours with an edge whose timestamp is ``< τ`` (or ``<=``)."""
        entries = self.in_neighbors_view(vertex)
        times = [t for _, t in entries]
        index = bisect_left(times, timestamp) if strict else bisect_right(times, timestamp)
        return list(entries[:index])

    def out_degree(self, vertex: Vertex) -> int:
        """Number of surviving out-edges of ``vertex``."""
        return len(self.out_neighbors_view(vertex))

    def in_degree(self, vertex: Vertex) -> int:
        """Number of surviving in-edges of ``vertex``."""
        return len(self.in_neighbors_view(vertex))

    def degree(self, vertex: Vertex) -> int:
        """Total surviving temporal degree (in + out)."""
        return self.in_degree(vertex) + self.out_degree(vertex)

    # ------------------------------------------------------------------
    # the materialization boundary
    # ------------------------------------------------------------------
    def materialize(self) -> "TemporalGraph":
        """Build a real :class:`TemporalGraph` from the surviving edges.

        This is the *only* place a view turns back into mutable edge
        storage; the pipeline keeps everything as masks until a caller
        explicitly crosses this boundary.  Uses the bulk ``add_edges`` fast
        path (sort-once, one cache invalidation).
        """
        from .temporal_graph import TemporalGraph  # deferred: import cycle

        return TemporalGraph(edges=self.edge_tuples())

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
        """Member equality with other views *and* real graphs."""
        if isinstance(other, SubgraphView):
            if self.base is other.base:
                return self._vids == other._vids and self.indices == other.indices
            return set(self.vertices()) == set(other.vertices()) and set(
                self.edge_tuples()
            ) == set(other.edge_tuples())
        # TemporalGraph (or anything graph-shaped): compare members.
        vertices = getattr(other, "vertices", None)
        edge_tuples = getattr(other, "edge_tuples", None)
        if vertices is None or edge_tuples is None:
            return NotImplemented
        return set(self.vertices()) == set(vertices()) and set(
            self.edge_tuples()
        ) == set(edge_tuples())

    def __hash__(self) -> int:  # pragma: no cover - views compare by value
        raise TypeError("SubgraphView objects are unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubgraphView(n={self.num_vertices}, m={self.num_edges}, "
            f"epoch={self.epoch})"
        )
