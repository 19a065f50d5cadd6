"""Time-range sharding: the N-shard router over one graph.

:class:`ShardedTspgService` partitions a temporal graph's timestamp span into
``num_shards`` contiguous ranges and routes every query to an engine over
one range's projected subgraph.  Correctness rests on a simple property of
every algorithm in the registry: the tspG of ``(s, t, [τb, τe])`` depends
only on the edges whose timestamp lies inside ``[τb, τe]``.  A shard whose
(overlap-widened) extent *covers* the query interval therefore contains
every edge the query can see and answers it bit-identically to the full
graph.  A flat :class:`~repro.service.service.TspgService` is the one-shard
case of the same router; this subclass adds only what sharding needs:

* **Partitioning and routing** — each query goes to the *narrowest* shard
  whose extent covers its interval; ties break towards the earlier shard.
  Shard extents are widened by ``overlap`` timestamps on both sides, so
  queries whose interval straddles a partition boundary by up to the
  overlap still stay on one shard.  Pick the workload's typical θ as the
  overlap to keep boundary-crossing fallbacks rare.  Mutating the source
  graph outside :meth:`~TspgService.ingest` bumps its epoch, and the next
  query repartitions.
* **Fallback** — a query no single shard covers (an interval wider than a
  shard extent) is answered by a lazily built engine over the full graph,
  so every query is always answerable.
* **The shard-set lifecycle** — :meth:`ShardedTspgService.save_shards`
  writes one current-format snapshot per shard extent plus a manifest
  (:class:`~repro.store.ShardSnapshotSet`), and
  :meth:`ShardedTspgService.from_shard_snapshots` boots a router from that
  directory in O(read) *without touching the full graph* (the fallback
  materialises the union of the shard graphs only if a spanning query ever
  needs it).  Ingests journal to the set's ``ingest.tspgjournal``, which a
  boot replays, and :meth:`ShardedTspgService.rewarm_shards` folds them
  into the next generation.

Batches, caching and pools are the service's own, written once
in :mod:`repro.service.service`; a pool worker boots from its shard's
snapshot file.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..graph.edge import TimeInterval, Vertex, as_edge, as_interval
from ..graph.temporal_graph import EdgeDelta, TemporalGraph, _edge_sort_key
from ..store.shard_set import ShardSetManifest, ShardSnapshotSet
from .pool import WorkerPool
from .service import (
    DEFAULT_CACHE_SIZE,
    FALLBACK_SHARD,
    BatchItem,
    BatchReport,
    TspgService,
    _Engine,
    _Topology,
)

@dataclass(frozen=True)
class ShardSpec:
    """One time-range shard: its partition cell and its widened extent."""

    index: int
    #: The partition cell — cells tile the graph's timestamp span disjointly.
    core: TimeInterval
    #: The cell widened by the overlap on both sides; the shard's graph holds
    #: exactly the edges with timestamps inside the extent.
    extent: TimeInterval
    num_edges: int = 0
    num_vertices: int = 0

    def covers(self, interval: TimeInterval) -> bool:
        """``True`` when a query over ``interval`` can be answered locally."""
        return self.extent.begin <= interval.begin and interval.end <= self.extent.end

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "shard": self.index,
            "core": self.core.as_tuple(),
            "extent": self.extent.as_tuple(),
            "vertices": self.num_vertices,
            "edges": self.num_edges,
        }


@dataclass
class ShardedBatchReport(BatchReport):
    """A merged batch report plus per-shard routing counts."""

    #: Queries answered per shard index (``-1`` is the full-graph fallback).
    routed: Dict[int, int] = field(default_factory=dict)

    @property
    def num_fallback(self) -> int:
        """Queries that no single shard covered."""
        return self.routed.get(FALLBACK_SHARD, 0)

    def as_row(self) -> Dict[str, object]:
        row = super().as_row()
        row["fallback"] = self.num_fallback
        return row


def partition_time_range(
    span: TimeInterval, num_shards: int, overlap: int
) -> List[Tuple[TimeInterval, TimeInterval]]:
    """Split ``span`` into ``num_shards`` (core, extent) interval pairs.

    Cores tile ``span`` in near-equal widths; extents widen each core by
    ``overlap`` on both sides, clipped to ``span``.  Exposed as a function so
    tests (and future vertex-partition strategies) can exercise the geometry
    without building graphs.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if overlap < 0:
        raise ValueError("overlap must be non-negative")
    width = span.span  # number of distinct integer timestamps covered
    num_shards = min(num_shards, width)  # never produce empty cores
    cell, remainder = divmod(width, num_shards)
    pairs: List[Tuple[TimeInterval, TimeInterval]] = []
    begin = span.begin
    for index in range(num_shards):
        size = cell + (1 if index < remainder else 0)
        core = TimeInterval(begin, begin + size - 1)
        extent = TimeInterval(
            max(span.begin, core.begin - overlap),
            min(span.end, core.end + overlap),
        )
        pairs.append((core, extent))
        begin = core.end + 1
    return pairs


def _stage_ingest_rows(edges) -> List[Tuple[Vertex, Vertex, int]]:
    """Validate and normalise an ingest batch for a snapshot-booted router.

    Mirrors :meth:`TemporalGraph.append_edges` staging — self loops raise
    before anything is applied, in-batch duplicates collapse, rows come
    back in deterministic sort-key order — without needing a union graph.
    Rows already present in some shard are *not* filtered here; each
    shard's own ``append_edges`` dedups them against its view.
    """
    staged: List[Tuple[Vertex, Vertex, int]] = []
    seen: set = set()
    for edge in edges:
        e = as_edge(edge)
        if e.source == e.target:
            raise ValueError(f"self loops are not allowed: {e.source!r}")
        key = (e.source, e.target, e.timestamp)
        if key in seen:
            continue
        seen.add(key)
        staged.append(key)
    staged.sort(key=_edge_sort_key)
    return staged


class ShardedTspgService(TspgService):
    """Route ``tspG`` queries across N time-range shards of one graph.

    Parameters
    ----------
    graph:
        The source graph.  Shard subgraphs are projections of it; the
        fallback engine queries it directly.
    num_shards:
        Number of time-range partitions (``1`` degenerates to a single shard
        covering everything plus the fallback).
    overlap:
        Widening (in timestamps) applied to each shard's extent on both
        sides so boundary-straddling intervals stay on one shard.

    The remaining options are :class:`TspgService`'s.  Batches run over an
    attached worker pool only with per-shard snapshots (:meth:`save_shards`
    / :meth:`from_shard_snapshots`), and serially otherwise.

    Examples
    --------
    >>> from repro import TemporalGraph
    >>> from repro.service import ShardedTspgService
    >>> from repro.queries.query import TspgQuery
    >>> graph = TemporalGraph(edges=[("s", "b", 2), ("b", "t", 6),
    ...                              ("b", "c", 3), ("c", "t", 7)])
    >>> router = ShardedTspgService(graph, num_shards=2, overlap=2)
    >>> outcome = router.submit(TspgQuery("s", "c", (2, 3)))
    >>> sorted(outcome.result.vertices)
    ['b', 'c', 's']
    """

    _NO_SNAPSHOT_REASON = (
        "no per-shard snapshots are attached (use save_shards / "
        "from_shard_snapshots or 'tspg warm --shards') so workers "
        "have nothing to boot from"
    )
    _STALE_SNAPSHOT_REASON = (
        "the graph mutated after the shard snapshots were written "
        "(stale epoch); re-run save_shards to re-attach"
    )
    #: The set journal sits beside the shard files, which worker boots
    #: read alone: after an ingest, batches run serially until
    #: :meth:`rewarm_shards` writes the next generation.
    _WORKERS_REPLAY_JOURNAL = False

    def __init__(
        self,
        graph: TemporalGraph,
        num_shards: int,
        *,
        overlap: int = 0,
        default_algorithm: str = "VUG",
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_workers: int = 1,
        pool: Optional[WorkerPool] = None,
        algorithm_options: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> None:
        self._init_router(num_shards, overlap)
        self._init_runtime(
            graph,
            default_algorithm=default_algorithm,
            cache_size=cache_size,
            max_workers=max_workers,
            pool=pool,
            algorithm_options=algorithm_options,
        )
        self._topology = self._build_topology()

    def _init_router(self, num_shards: int, overlap: int) -> None:
        """State only sharding adds (shared with :meth:`from_shard_snapshots`)."""
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if overlap < 0:
            raise ValueError("overlap must be non-negative")
        self._num_shards = num_shards
        self._overlap = overlap
        # The full-graph fallback engine is built lazily on first use (it
        # would otherwise double the warm-up cost even when every query is
        # shard-local) and survives repartitions: its own epoch tracking
        # makes it always current.
        self._fallback: Optional[_Engine] = None
        # Edge-less source vertices a snapshot boot carries outside the
        # shard projections; folded back in when the union materialises.
        self._extra_vertices: Tuple[Vertex, ...] = ()
        # The attached shard-set directory (booted from / saved to).
        self._shard_set_path: Optional[str] = None
        # Ingested rows outside every shard extent of a snapshot-booted
        # router: answerable via the fallback, folded into the next
        # generation by rewarm_shards.  The two sets beside them index the
        # rows and their endpoints, so dedup and has_vertex stay O(1).
        self._overflow_rows: List[Tuple[Vertex, Vertex, int]] = []
        self._overflow_row_set: set = set()
        self._overflow_vertices: set = set()

    # ------------------------------------------------------------------
    # per-shard snapshot persistence
    # ------------------------------------------------------------------
    @classmethod
    def from_shard_snapshots(
        cls,
        path,
        *,
        mmap: bool = False,
        default_algorithm: str = "VUG",
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_workers: int = 1,
        pool: Optional[WorkerPool] = None,
        algorithm_options: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> "ShardedTspgService":
        """Boot a router from a :class:`~repro.store.ShardSnapshotSet` directory.

        Each shard engine loads its own (already view-servable) snapshot in
        O(read); the full graph is **never** read or reconstructed up front.
        The full-graph fallback stays lazy: only a query wider than every
        shard extent materialises it, as the union of the shard graphs
        (shard extents cover the whole span, so the union is exactly the
        edge set the snapshots were cut from).

        ``mmap=True`` boots every shard through the zero-copy columnar
        path (see :meth:`TspgService.from_snapshot`): each shard's view
        columns are mapped straight out of its file, so router boot cost
        and resident memory scale with the pages queries touch.  A shard
        whose mapping fails degrades to the eager boot individually;
        :meth:`mmap_fallback_reasons` lists each degradation labelled with
        its shard.  Every shard file boots whole, eagerly or mapped, and
        is checked against its manifest counts either way.  The set-level
        ingest journal is replayed last.

        Raises :class:`~repro.store.SnapshotError` on a missing/malformed
        manifest, any per-shard count mismatch, or (eager boots) a
        per-shard checksum mismatch.
        """
        shard_set = ShardSnapshotSet(path)
        manifest = shard_set.manifest()
        router = cls.__new__(cls)
        router._init_router(max(1, manifest.num_shards), manifest.overlap)
        router._init_runtime(
            None,
            default_algorithm=default_algorithm,
            cache_size=cache_size,
            max_workers=max_workers,
            pool=pool,
            algorithm_options=algorithm_options,
        )
        router._snapshot_mmap_requested = bool(mmap)
        router._attach_set(path)
        router._adopt_generation(shard_set, manifest)
        router._replay_set_journal(manifest)
        return router

    def save_shards(self, path) -> ShardSetManifest:
        """Persist one snapshot per shard extent plus the manifest to ``path``.

        The written :class:`~repro.store.ShardSnapshotSet` lets
        :meth:`from_shard_snapshots` boot an identical router in O(read) and
        is immediately attached to *this* router too, so its batches can
        run on an attached worker pool without a reload.  Returns the
        manifest that was written.
        """
        topology = self._current_topology()
        shard_set = ShardSnapshotSet(path)
        # Shard projections only keep edge-incident vertices; whatever the
        # source graph holds beyond their union (edge-less vertices) rides
        # along in a separate snapshot so a booted union loses nothing.
        covered = set(self._extra_vertices)
        for engine in topology.engines:
            covered.update(engine.graph.vertices())
        source = self._graph
        stranded = (
            [v for v in source.vertices() if v not in covered]
            if source is not None
            else []
        )
        isolated = list(self._extra_vertices) + stranded
        manifest = shard_set.save(
            [
                (spec.core.as_tuple(), spec.extent.as_tuple(), engine.graph)
                for spec, engine in zip(topology.shards, topology.engines)
            ],
            span=None if topology.span is None else topology.span.as_tuple(),
            overlap=self._overlap,
            epoch=topology.epoch,
            isolated=TemporalGraph(vertices=isolated) if isolated else None,
        )
        for engine, entry in zip(topology.engines, manifest.shards):
            engine.snapshot_path = shard_set.file_path(entry.filename)
        self._snapshot_epoch = self._journal_epoch = topology.epoch
        self._attach_set(path)
        return manifest

    def _attach_set(self, path) -> None:
        # The set-level journal is ``<dir>/ingest.tspgjournal``, a name
        # ShardSnapshotSet.save's generation pruning never touches (it
        # only deletes ``*.tspgsnap`` files).
        self._shard_set_path = os.fspath(path)
        self._journal_base = os.path.join(self._shard_set_path, "ingest")

    def _adopt_generation(
        self, shard_set: ShardSnapshotSet, manifest: ShardSetManifest
    ) -> None:
        """Boot one manifest generation's shard engines and serve from them.

        Shared by :meth:`from_shard_snapshots` (initial boot) and the
        generation-swap re-warm, so both produce identically configured
        engines.  The new topology is published in one assignment.
        """
        mmap = self._snapshot_mmap_requested
        shards: List[ShardSpec] = []
        engines: List[_Engine] = []
        mmap_reasons: List[str] = []
        mmap_active = mmap and bool(manifest.shards)
        for entry in manifest.shards:
            boot = shard_set.boot_shard(entry, mmap=mmap)
            if mmap and not boot.mmap_active:
                mmap_active = False
                mmap_reasons.extend(
                    f"shard {entry.index} ({entry.filename}): {reason}"
                    for reason in boot.fallback_reasons
                )
            shards.append(
                ShardSpec(
                    index=entry.index,
                    core=TimeInterval(*entry.core),
                    extent=TimeInterval(*entry.extent),
                    num_edges=boot.graph.num_edges,
                    num_vertices=boot.graph.num_vertices,
                )
            )
            engine = self._new_engine(boot.graph)
            engine.snapshot_path = shard_set.file_path(entry.filename)
            engines.append(engine)
        self._topology = _Topology(
            tuple(shards),
            tuple(engines),
            None if manifest.span is None else TimeInterval(*manifest.span),
            manifest.epoch,
        )
        self._snapshot_mmap = mmap_active
        self._snapshot_mmap_reasons = mmap_reasons
        self._snapshot_epoch = self._journal_epoch = manifest.epoch
        self._extra_vertices = tuple(shard_set.load_isolated(manifest))
        self._overflow_rows = []
        self._overflow_row_set = set()
        self._overflow_vertices = set()

    # ------------------------------------------------------------------
    # live ingest and generation re-warm
    # ------------------------------------------------------------------
    def _replay_set_journal(self, manifest: ShardSetManifest) -> int:
        """Replay the set-level ingest journal onto a freshly booted topology.

        Called at the end of :meth:`from_shard_snapshots`.  Mirrors the
        flat snapshot rules: a journal whose base epoch matches the
        manifest epoch is replayed record by record (each record routed to
        the shard extents exactly like a live :meth:`ingest`); a *stale*
        journal (base epoch below the manifest's — a re-warm crashed after
        the manifest commit but before the journal unlink) is skipped; a
        journal *ahead* of the manifest raises.  Returns records applied.
        """
        from ..store.journal import journal_path, read_journal
        from ..store.snapshot import SnapshotError

        sidecar = journal_path(self._journal_base)
        if not os.path.exists(sidecar):
            return 0
        info, records = read_journal(sidecar)
        if info.base_epoch > manifest.epoch:
            raise SnapshotError(
                f"{sidecar}: ingest journal base epoch {info.base_epoch} is "
                f"ahead of manifest epoch {manifest.epoch}: the shard set "
                "regressed underneath its journal"
            )
        if info.base_epoch < manifest.epoch:
            return 0  # already folded into this generation by a re-warm
        topology = self._topology
        for record in records:
            topology = self._apply_ingest_rows(
                topology, list(record.rows), record.epoch_after
            )
        self._topology = topology
        self._journal_epoch = topology.epoch
        return len(records)

    def _apply_ingest_rows(
        self,
        topology: _Topology,
        rows: List[Tuple[Vertex, Vertex, int]],
        new_epoch: int,
    ) -> _Topology:
        """Route ``rows`` into the shard engines; return the next topology.

        Every shard whose *extent* covers a row's timestamp receives it
        (overlap regions duplicate rows across neighbours, exactly like the
        original projection; per-shard ``append_edges`` dedups).  Rows no
        extent covers go to the overflow list — they are answerable through
        the fallback because the published span is widened to cover them,
        so :meth:`_route_in` stops clipping their windows into a shard.
        The engines are reused as-is: their own epoch tracking runs the
        delta-aware cache invalidation on next query.
        """
        new_shards = list(topology.shards)
        for position, (spec, engine) in enumerate(
            zip(topology.shards, topology.engines)
        ):
            extent = spec.extent
            mine = [row for row in rows if extent.begin <= row[2] <= extent.end]
            if not mine:
                continue
            engine.graph.append_edges(mine)
            new_shards[position] = replace(
                spec,
                num_edges=engine.graph.num_edges,
                num_vertices=engine.graph.num_vertices,
            )
        if self._graph is None:
            for row in rows:
                if any(
                    spec.extent.begin <= row[2] <= spec.extent.end
                    for spec in topology.shards
                ):
                    continue
                if row not in self._overflow_row_set:
                    self._overflow_row_set.add(row)
                    self._overflow_rows.append(row)
                    self._overflow_vertices.update(row[:2])
        span = topology.span
        if rows:
            lo = min(row[2] for row in rows)
            hi = max(row[2] for row in rows)
            if span is None:
                span = TimeInterval(lo, hi)
            elif lo < span.begin or hi > span.end:
                span = TimeInterval(min(span.begin, lo), max(span.end, hi))
        return _Topology(tuple(new_shards), topology.engines, span, new_epoch)

    def _append(self, edges) -> Tuple[EdgeDelta, _Topology]:
        """Apply an ingest batch to the source graph (if any) and the shards.

        A snapshot-booted router without its union stages the rows itself
        and builds the delta against the published topology.
        """
        if self._graph is not None:
            topology = self._current_topology()
            delta = self._graph.append_edges(edges)
            rows = list(delta.rows)
        else:
            topology = self._topology
            rows = _stage_ingest_rows(edges)
            old_total = sum(spec.num_edges for spec in topology.shards)
            new_vertices = []
            seen: set = set()
            for source, target, _ in rows:
                for vertex in (source, target):
                    if vertex not in seen and not self.has_vertex(vertex):
                        seen.add(vertex)
                        new_vertices.append(vertex)
            delta = EdgeDelta(
                rows=tuple(rows),
                old_epoch=topology.epoch,
                new_epoch=topology.epoch + (1 if rows else 0),
                old_num_edges=old_total,
                new_num_edges=old_total + len(rows),
                append_only=(
                    topology.span is None
                    or (bool(rows) and rows[0][2] > topology.span.end)
                ),
                min_timestamp=rows[0][2] if rows else None,
                max_timestamp=max(r[2] for r in rows) if rows else None,
                new_vertices=tuple(new_vertices),
            )
        if not rows:
            return delta, topology
        return delta, self._apply_ingest_rows(topology, rows, delta.new_epoch)

    def rewarm_shards(
        self, *, num_shards: Optional[int] = None, background: bool = False
    ):
        """Fold journaled ingests into shard generation N+1 and swap to it.

        Re-partitions the current (post-ingest) graph over its widened
        span, writes one snapshot per new shard plus the manifest as a
        fresh generation of the attached
        :class:`~repro.store.ShardSnapshotSet` (the crash-safe scheme:
        generation files first, manifest committed atomically last), clears
        the set-level ingest journal, then boots the new generation and
        swaps the serving topology in one assignment.  Queries keep
        answering from generation N throughout the build.

        A crash before the manifest commit leaves generation N plus the
        journal fully serveable (the next boot replays the journal); a
        crash after it leaves generation N+1 with, at worst, a stale
        journal the next boot skips.

        With ``background=True`` the build runs on a daemon thread and the
        started :class:`threading.Thread` is returned (join it to observe
        completion); otherwise the new manifest is returned.
        """
        if self._shard_set_path is None:
            raise RuntimeError(
                "rewarm_shards needs an attached shard snapshot set "
                "(save_shards or from_shard_snapshots)"
            )
        if num_shards is not None and num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if background:
            thread = threading.Thread(
                target=self._rewarm_generation,
                kwargs={"num_shards": num_shards},
                name="tspg-rewarm",
                daemon=True,
            )
            thread.start()
            return thread
        return self._rewarm_generation(num_shards=num_shards)

    def _rewarm_generation(
        self, *, num_shards: Optional[int] = None
    ) -> ShardSetManifest:
        from ..store.journal import clear_journal  # deferred: cycle

        with self._rewarm_lock:
            shard_set = ShardSnapshotSet(self._shard_set_path)
            if num_shards is not None:
                self._num_shards = num_shards
            union = self.graph  # materialises ingested + overflow rows
            span = union.time_interval()
            members = []
            covered: set = set()
            if span is not None:
                for core, extent in partition_time_range(
                    span, self._num_shards, self._overlap
                ):
                    subgraph = union.project(extent)
                    covered.update(subgraph.vertices())
                    members.append(
                        (core.as_tuple(), extent.as_tuple(), subgraph)
                    )
            isolated = [v for v in union.vertices() if v not in covered]
            manifest = shard_set.save(
                members,
                span=None if span is None else span.as_tuple(),
                overlap=self._overlap,
                epoch=union.epoch,
                isolated=TemporalGraph(vertices=isolated) if isolated else None,
            )
            # The manifest commit is the generation swap's atomic point;
            # the journal's deltas are folded into it, so the sidecar goes.
            # (A crash between the two leaves a stale journal the next
            # boot recognises by its base epoch and skips.)
            clear_journal(self._journal_base)
            self._adopt_generation(shard_set, manifest)
        return manifest

    # ------------------------------------------------------------------
    # partitioning, routing and the fallback (the service's hooks)
    # ------------------------------------------------------------------
    def _build_topology(self) -> _Topology:
        """Partition the source graph's current epoch into shard engines."""
        shards: List[ShardSpec] = []
        engines: List[_Engine] = []
        span = self._graph.time_interval()
        if span is not None:
            for index, (core, extent) in enumerate(
                partition_time_range(span, self._num_shards, self._overlap)
            ):
                subgraph = self._graph.project(extent)
                shards.append(
                    ShardSpec(
                        index=index,
                        core=core,
                        extent=extent,
                        num_edges=subgraph.num_edges,
                        num_vertices=subgraph.num_vertices,
                    )
                )
                engines.append(self._new_engine(subgraph))
        return _Topology(tuple(shards), tuple(engines), span, self._graph.epoch)

    @staticmethod
    def _route_in(topology: _Topology, interval) -> int:
        """Routing against one topology snapshot (see :meth:`route`)."""
        window = as_interval(interval)
        if topology.span is not None:
            clipped = window.intersect(topology.span)
            if clipped is not None:
                window = clipped
            # A window fully outside the span sees no edges at all; any
            # engine answers it identically, so keep it on the fallback.
        best_index = FALLBACK_SHARD
        best_span: Optional[int] = None
        for shard in topology.shards:
            if not shard.covers(window):
                continue
            span = shard.extent.span
            if best_span is None or span < best_span:
                best_index = shard.index
                best_span = span
        return best_index

    def route(self, interval) -> int:
        """Shard index that will answer a query over ``interval``.

        Returns :data:`FALLBACK_SHARD` when no single shard extent covers the
        interval.  Among covering shards the *narrowest* extent wins (its
        projected subgraph is the smallest), ties breaking towards the
        earlier shard.  Coverage is tested on the interval clipped to the
        graph's timestamp span — no edge exists outside the span, so the
        clipped query sees exactly the same edges.
        """
        return self._route_in(self._current_topology(), interval)

    def _engine_in(
        self, topology: _Topology, index: int, build: bool = True
    ) -> Optional[_Engine]:
        """A shard engine, or the fallback (built on first use when ``build``)."""
        if index != FALLBACK_SHARD:
            return topology.engines[index]
        if self._fallback is None and build:
            with self._rewarm_lock:
                if self._fallback is None:
                    self._fallback = self._new_engine(self.graph)
        return self._fallback

    def _built_engines(self) -> List[_Engine]:
        engines = super()._built_engines()
        if self._fallback is not None:
            engines.append(self._fallback)
        return engines

    def _new_report(
        self, algorithm: str, items: List[BatchItem], workers: int, groups
    ) -> ShardedBatchReport:
        return ShardedBatchReport(
            algorithm=algorithm,
            items=items,
            num_workers=workers,
            routed={index: len(positions) for index, positions in groups.items()},
        )

    def _materialize_union(self) -> TemporalGraph:
        """Reconstruct the full graph as the union of the shard graphs.

        Only reached on a snapshot-booted router, and only when something
        actually needs the full graph (a fallback-routed query, or the
        :attr:`graph` accessor).  Shard extents cover the entire span, so
        the union holds exactly the edges the snapshots were cut from;
        overlap duplicates collapse in the edge set.
        """
        topology = self._topology
        union = TemporalGraph()
        for engine in topology.engines:
            union.add_edges(engine.graph.edge_tuples())
        if self._overflow_rows:
            # Ingested rows outside every shard extent live only here (and
            # in the set journal) until the next generation re-warm.
            union.add_edges(self._overflow_rows)
        for vertex in self._extra_vertices:
            union.add_vertex(vertex)
        # Pin the union to the manifest epoch the topology carries:
        # building it is a reconstruction, not a mutation, and must not
        # trigger a repartition.  (Private access is deliberate — the graph
        # API has no way to "set" an epoch, by design.)
        union._epoch = topology.epoch
        return union

    def _has_vertex_union_free(self, vertex: Vertex) -> bool:
        """Shard graphs hold every edge-incident vertex; the rest are known
        edge-less vertices or overflow endpoints."""
        if vertex in self._extra_vertices or vertex in self._overflow_vertices:
            return True
        return any(
            engine.graph.has_vertex(vertex) for engine in self._topology.engines
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shard partitions currently built."""
        return len(self._current_topology().shards)

    @property
    def shards(self) -> List[ShardSpec]:
        """The current shard specs (copy; order matches shard indices)."""
        return list(self._current_topology().shards)

    @property
    def overlap(self) -> int:
        """Extent widening applied on both sides of every shard core."""
        return self._overlap

    def describe(self) -> List[Dict[str, object]]:
        """One row per shard plus the fallback (for the CLI and reports).

        Until the lazy fallback engine is actually built its row reports
        ``built: False`` and zero counts — consistent with
        :attr:`index_stats` / :meth:`cache_stats`, which only aggregate
        over built engines.
        """
        rows = [
            dict(shard.as_row(), built=True)
            for shard in self._current_topology().shards
        ]
        fallback = self._fallback
        rows.append(
            {
                "shard": FALLBACK_SHARD,
                "core": None,
                "extent": None,
                "vertices": fallback.graph.num_vertices if fallback else 0,
                "edges": fallback.graph.num_edges if fallback else 0,
                "built": fallback is not None,
            }
        )
        return rows
