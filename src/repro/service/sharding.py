"""Time-range sharding: one graph, N shard services, one router.

:class:`ShardedTspgService` partitions a temporal graph's timestamp span into
``num_shards`` contiguous ranges and builds one
:class:`~repro.service.service.TspgService` per range over the projected
subgraph.  Correctness rests on a simple property of every algorithm in the
registry: the tspG of ``(s, t, [τb, τe])`` depends only on the edges whose
timestamp lies inside ``[τb, τe]``.  A shard whose (overlap-widened) extent
*covers* the query interval therefore contains every edge the query can see
and answers it bit-identically to the full graph.

* **Routing** — each query goes to the *narrowest* shard whose extent covers
  its interval; ties break towards the earlier shard.
* **Overlap** — shard extents are widened by ``overlap`` timestamps on both
  sides, so queries whose interval straddles a partition boundary by up to
  the overlap still stay on one shard.  Pick the workload's typical θ as the
  overlap to keep boundary-crossing fallbacks rare.
* **Fallback** — a query no single shard covers (an interval wider than a
  shard extent) is answered by a service over the full graph, so every query
  is always answerable.
* **Batches** — :meth:`ShardedTspgService.run_batch` groups a batch by
  routed shard, fans the groups out concurrently, and merges the per-shard
  :class:`~repro.service.service.BatchReport` objects into one report in the
  original submission order.
* **Persistence & process parallelism** — :meth:`ShardedTspgService.save_shards`
  writes one current-format snapshot per shard extent plus a manifest
  (:class:`~repro.store.ShardSnapshotSet`), and
  :meth:`ShardedTspgService.from_shard_snapshots` boots a router from that
  directory in O(read) *without touching the full graph* (the full-graph
  fallback is materialised lazily as the union of the shard graphs only if
  a spanning query ever needs it).  With shard snapshots attached,
  ``run_batch(executor="processes")`` fans the shard groups out over a
  ``ProcessPoolExecutor`` — each worker boots from its shard's snapshot
  file — sidestepping the GIL for the pure-Python hot path; it falls back
  to threads automatically when snapshots are absent or stale.

The router is epoch-aware like the flat service: mutating the source graph
bumps its :attr:`~repro.graph.temporal_graph.TemporalGraph.epoch`, and the
next query transparently rebuilds the shard partitions.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..algorithms import get_algorithm
from ..baselines.interface import AlgorithmResult, TspgAlgorithm
from ..core.deadline import Deadline
from ..graph.edge import TimeInterval, Vertex, as_edge, as_interval
from ..graph.temporal_graph import EdgeDelta, TemporalGraph, _edge_sort_key
from ..queries.query import QueryWorkload, TspgQuery
from ..store.shard_set import ShardSetManifest, ShardSnapshotSet
from .cache import CacheStats
from .pool import WorkerPool
from .service import (
    DEFAULT_CACHE_SIZE,
    AlgorithmSpec,
    BatchItem,
    BatchReport,
    TspgService,
    _chunk_positions,
    _common_fallback_reasons,
    _snapshot_worker_run_batch,
    _usable_pool,
    _validate_executor,
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


#: Routing key of the full-graph fallback service.
FALLBACK_SHARD = -1


@dataclass(frozen=True)
class _Topology:
    """One self-consistent shard build: specs, services, span and epoch.

    Swapped atomically on rebuild so concurrent readers never mix shard
    specs from one epoch with services from another.
    """

    shards: Tuple[ShardSpec, ...]
    services: Tuple[TspgService, ...]
    span: Optional[TimeInterval]
    epoch: int


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
    shard's own ``append_edges`` dedups them (lazily, without hydration).
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


def _boot_shard_generation(
    shard_set: ShardSnapshotSet,
    manifest: ShardSetManifest,
    *,
    mmap: bool,
    residency: bool,
    service_kwargs: Dict[str, object],
):
    """Boot one manifest generation's shard services from its files.

    Shared by :meth:`ShardedTspgService.from_shard_snapshots` (initial boot)
    and the generation-swap re-warm, so both paths produce identically
    configured services.  Returns ``(shards, services, policies,
    mmap_active, mmap_reasons)``.
    """
    from ..store.residency import ResidencyPolicy  # deferred: cycle

    shards: List[ShardSpec] = []
    services: List[TspgService] = []
    mmap_reasons: List[str] = []
    mmap_active = bool(mmap) and bool(manifest.shards)
    policies: List[ResidencyPolicy] = []
    for entry in manifest.shards:
        policy = ResidencyPolicy() if residency else None
        boot = shard_set.boot_shard(entry, mmap=mmap, residency=policy)
        graph = boot.graph
        if policy is not None:
            policy.advise_warm()
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
                num_edges=graph.num_edges,
                num_vertices=graph.num_vertices,
            )
        )
        services.append(TspgService(graph, **service_kwargs))
        if policy is not None:
            # Index warm-up (service construction) is the sequential
            # scan; from here on access is query-driven.
            policy.advise_serve()
            policies.append(policy)
    return shards, services, policies, mmap_active, mmap_reasons


class ShardedTspgService:
    """Route ``tspG`` queries across N time-range shards of one graph.

    Parameters
    ----------
    graph:
        The source graph.  Shard subgraphs are projections of it; the
        fallback service queries it directly.
    num_shards:
        Number of time-range partitions (``1`` degenerates to a single shard
        covering everything plus the fallback).
    overlap:
        Widening (in timestamps) applied to each shard's extent on both
        sides so boundary-straddling intervals stay on one shard.
    max_workers:
        Default fan-out width for :meth:`run_batch` (shard groups run
        concurrently, each group serially inside its shard service).
    executor:
        Default batch backend for :meth:`run_batch`: ``"threads"`` or
        ``"processes"`` (the latter needs per-shard snapshots — see
        :meth:`save_shards` / :meth:`from_shard_snapshots` — and degrades
        to threads otherwise).

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

    def __init__(
        self,
        graph: TemporalGraph,
        num_shards: int,
        *,
        overlap: int = 0,
        default_algorithm: str = "VUG",
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_workers: int = 1,
        executor: str = "threads",
        pool: Optional[WorkerPool] = None,
        algorithm_options: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if overlap < 0:
            raise ValueError("overlap must be non-negative")
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._init_runtime(
            graph=graph,
            num_shards=num_shards,
            overlap=overlap,
            default_algorithm=default_algorithm,
            cache_size=cache_size,
            max_workers=max_workers,
            executor=executor,
            pool=pool,
            algorithm_options=algorithm_options,
        )
        self._topology = self._build_topology()

    def _init_runtime(
        self,
        *,
        graph: Optional[TemporalGraph],
        num_shards: int,
        overlap: int,
        default_algorithm: str,
        cache_size: int,
        max_workers: int,
        executor: str,
        pool: Optional[WorkerPool],
        algorithm_options: Optional[Dict[str, Dict[str, object]]],
    ) -> None:
        """State shared by ``__init__`` and :meth:`from_shard_snapshots`."""
        self._graph = graph
        self._num_shards = num_shards
        self._overlap = overlap
        self._max_workers = max_workers
        self._default_executor = _validate_executor(executor)
        self._pool = pool
        self._service_kwargs: Dict[str, object] = {
            "default_algorithm": default_algorithm,
            "cache_size": cache_size,
            "algorithm_options": {
                name: dict(opts) for name, opts in (algorithm_options or {}).items()
            },
        }
        self._rebuild_lock = threading.Lock()
        self._fallback_lock = threading.Lock()
        # Guards the one-time union-graph materialisation of a
        # snapshot-booted router (separate from _fallback_lock: building
        # the fallback service reads the graph property while holding it).
        self._union_lock = threading.Lock()
        # The full-graph fallback service is built lazily on first use (it
        # would otherwise double the warm-up cost even when every query is
        # shard-local) and survives repartitions: its own epoch tracking
        # rewarm-on-mutation makes it always current.
        self._fallback_service: Optional[TspgService] = None
        # Where each shard's snapshot file lives (set by save_shards /
        # from_shard_snapshots) and the topology epoch those files describe;
        # the process batch backend boots its workers from them.
        self._shard_snapshot_paths: Optional[Tuple[str, ...]] = None
        self._shard_snapshot_epoch: Optional[int] = None
        # Whether the shard boots requested / all actually used the mmap
        # path, plus the per-shard degradation reasons when they did not.
        self._shard_snapshot_mmap_requested: bool = False
        self._shard_snapshot_mmap: bool = False
        self._shard_snapshot_mmap_reasons: List[str] = []
        # One page-advice policy per shard when the boot requested
        # residency tracking (empty otherwise).
        self._shard_residency: Tuple[object, ...] = ()
        # Edge-less source vertices a snapshot boot carries outside the
        # shard projections; folded back in when the union materialises.
        self._extra_vertices: Tuple[Vertex, ...] = ()
        # Live-ingest state.  The shard-set directory (when booted from /
        # saved to one) carries the set-level ``ingest.tspgjournal``;
        # ``_overflow_rows`` holds ingested rows outside every shard extent
        # of a snapshot-booted router (answerable via the fallback; folded
        # into the next generation by :meth:`rewarm_shards`).  The two sets
        # beside it index those rows and their endpoints, so dedup and
        # :meth:`has_vertex` stay O(1) however many rows accumulate.
        self._ingest_lock = threading.Lock()
        self._shard_set_path: Optional[str] = None
        self._shard_residency_requested: bool = False
        self._overflow_rows: List[Tuple[Vertex, Vertex, int]] = []
        self._overflow_row_set: set = set()
        self._overflow_vertices: set = set()
        # Mappings retired from superseded generations (survives the
        # per-generation policies being swapped out).
        self._residency_retired: int = 0

    # ------------------------------------------------------------------
    # per-shard snapshot persistence
    # ------------------------------------------------------------------
    @classmethod
    def from_shard_snapshots(
        cls,
        path,
        *,
        mmap: bool = False,
        residency: bool = False,
        default_algorithm: str = "VUG",
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_workers: int = 1,
        executor: str = "threads",
        pool: Optional[WorkerPool] = None,
        algorithm_options: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> "ShardedTspgService":
        """Boot a router from a :class:`~repro.store.ShardSnapshotSet` directory.

        Each shard service loads its own (already view-servable) snapshot in
        O(read); the full graph is **never** read or reconstructed up front.
        The full-graph fallback stays lazy: only a query wider than every
        shard extent materialises it, as the union of the shard graphs
        (shard extents cover the whole span, so the union is exactly the
        edge set the snapshots were cut from).

        ``mmap=True`` boots every shard through the v4 zero-copy columnar
        path (see :meth:`TspgService.from_snapshot`): each shard's view
        columns are mapped straight out of its file, so router boot cost
        and resident memory scale with the pages queries touch.  Shards
        whose file predates v4 degrade to the eager boot individually;
        :meth:`mmap_fallback_reasons` lists each degradation labelled with
        its shard.

        Shard boots are *extent-local*: each shard maps only the rows of
        its manifest time extent (a no-op for well-formed shard files,
        whose rows are exactly the extent — see
        :meth:`~repro.store.ShardSnapshotSet.boot_shard`).
        ``residency=True`` attaches one page-advice policy per shard;
        :meth:`residency_stats` aggregates their counters and
        :meth:`evict_cold_pages` drives periodic eviction across all of
        them.

        Raises :class:`~repro.store.SnapshotError` on a missing/malformed
        manifest or any per-shard checksum or count mismatch.
        """
        shard_set = ShardSnapshotSet(path)
        manifest = shard_set.manifest()
        router = cls.__new__(cls)
        router._init_runtime(
            graph=None,
            num_shards=max(1, manifest.num_shards),
            overlap=manifest.overlap,
            default_algorithm=default_algorithm,
            cache_size=cache_size,
            max_workers=max_workers,
            executor=executor,
            pool=pool,
            algorithm_options=algorithm_options,
        )
        shards, services, policies, mmap_active, mmap_reasons = (
            _boot_shard_generation(
                shard_set,
                manifest,
                mmap=mmap,
                residency=residency,
                service_kwargs=router._service_kwargs,
            )
        )
        router._shard_residency = tuple(policies)
        router._shard_snapshot_mmap_requested = bool(mmap)
        router._shard_snapshot_mmap = mmap_active
        router._shard_snapshot_mmap_reasons = mmap_reasons
        router._topology = _Topology(
            shards=tuple(shards),
            services=tuple(services),
            span=None if manifest.span is None else TimeInterval(*manifest.span),
            epoch=manifest.epoch,
        )
        router._shard_snapshot_paths = tuple(
            shard_set.file_path(entry.filename) for entry in manifest.shards
        )
        router._shard_snapshot_epoch = manifest.epoch
        router._shard_set_path = os.fspath(path)
        router._shard_residency_requested = bool(residency)
        router._extra_vertices = tuple(shard_set.load_isolated(manifest))
        router._replay_set_journal(manifest)
        return router

    def save_shards(self, path) -> ShardSetManifest:
        """Persist one snapshot per shard extent plus the manifest to ``path``.

        The written :class:`~repro.store.ShardSnapshotSet` lets
        :meth:`from_shard_snapshots` boot an identical router in O(read) and
        is immediately attached to *this* router too, enabling the
        ``executor="processes"`` batch backend without a reload.  Returns
        the manifest that was written.
        """
        topology = self._current_topology()
        shard_set = ShardSnapshotSet(path)
        # Shard projections only keep edge-incident vertices; whatever the
        # source graph holds beyond their union (edge-less vertices) rides
        # along in a separate snapshot so a booted union loses nothing.
        covered = set()
        for service in topology.services:
            covered.update(service.graph.vertices())
        covered.update(self._extra_vertices)
        source = self._graph
        stranded = (
            [v for v in source.vertices() if v not in covered]
            if source is not None
            else []
        )
        isolated = list(self._extra_vertices) + stranded
        manifest = shard_set.save(
            [
                (
                    spec.core.as_tuple(),
                    spec.extent.as_tuple(),
                    service.graph,
                )
                for spec, service in zip(topology.shards, topology.services)
            ],
            span=None if topology.span is None else topology.span.as_tuple(),
            overlap=self._overlap,
            epoch=topology.epoch,
            isolated=TemporalGraph(vertices=isolated) if isolated else None,
        )
        self._shard_snapshot_paths = tuple(
            shard_set.file_path(entry.filename) for entry in manifest.shards
        )
        self._shard_snapshot_epoch = topology.epoch
        self._shard_set_path = os.fspath(path)
        return manifest

    # ------------------------------------------------------------------
    # live ingest and generation re-warm
    # ------------------------------------------------------------------
    def _set_journal_base(self) -> Optional[str]:
        """Base path of the set-level ingest journal (``<dir>/ingest``).

        The journal module appends its suffix, yielding
        ``<dir>/ingest.tspgjournal`` — a name
        :meth:`~repro.store.ShardSnapshotSet.save`'s generation pruning
        never touches (it only deletes ``*.tspgsnap`` files).
        """
        if self._shard_set_path is None:
            return None
        return os.path.join(self._shard_set_path, "ingest")

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

        base = self._set_journal_base()
        if base is None:
            return 0
        sidecar = journal_path(base)
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
        return len(records)

    def _apply_ingest_rows(
        self,
        topology: "_Topology",
        rows: List[Tuple[Vertex, Vertex, int]],
        new_epoch: int,
    ) -> "_Topology":
        """Route ``rows`` into the shard services; return the next topology.

        Every shard whose *extent* covers a row's timestamp receives it
        (overlap regions duplicate rows across neighbours, exactly like the
        original projection; per-shard ``append_edges`` dedups).  Rows no
        extent covers go to the overflow list — they are answerable through
        the fallback because the published span is widened to cover them,
        so :meth:`_route_in` stops clipping their windows into a shard.
        The shard *services* are reused as-is: their own epoch tracking
        runs the delta-aware cache invalidation on next query.
        """
        new_shards = list(topology.shards)
        for position, (spec, service) in enumerate(
            zip(topology.shards, topology.services)
        ):
            extent = spec.extent
            mine = [row for row in rows if extent.begin <= row[2] <= extent.end]
            if not mine:
                continue
            graph = service.graph
            graph.append_edges(mine)
            new_shards[position] = ShardSpec(
                index=spec.index,
                core=spec.core,
                extent=extent,
                num_edges=graph.num_edges,
                num_vertices=graph.num_vertices,
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
        return _Topology(
            shards=tuple(new_shards),
            services=topology.services,
            span=span,
            epoch=new_epoch,
        )

    def ingest(self, edges) -> EdgeDelta:
        """Append edges to the live sharded deployment; serve on.

        The router counterpart of :meth:`TspgService.ingest`: each edge is
        applied to every shard whose extent covers its timestamp (shard
        caches invalidate delta-aware, untouched shards keep serving warm),
        the source/union graph — when one exists — is appended through the
        same structured-delta path, and the whole batch is recorded in the
        shard set's ``ingest.tspgjournal`` so a crash or re-boot replays
        it on top of the current generation.  Edges beyond every shard
        extent stay answerable via the fallback until the next
        :meth:`rewarm_shards` folds them into generation N+1.

        Returns the applied :class:`~repro.graph.temporal_graph.EdgeDelta`.
        """
        with self._ingest_lock:
            if self._graph is not None:
                topology = self._current_topology()
                delta = self._graph.append_edges(edges)
                rows = list(delta.rows)
                new_epoch = self._graph.epoch
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
                new_epoch = topology.epoch + (1 if rows else 0)
                delta = EdgeDelta(
                    rows=tuple(rows),
                    old_epoch=topology.epoch,
                    new_epoch=new_epoch,
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
                return delta
            new_topology = self._apply_ingest_rows(topology, rows, new_epoch)
            if (
                self._shard_set_path is not None
                and delta.old_epoch == topology.epoch
            ):
                # Journal only while generation + journal still reproduce
                # the live deployment (a legacy mutation of the source
                # graph breaks that chain and skips journaling).
                from ..store.journal import append_journal_delta  # deferred

                append_journal_delta(self._set_journal_base(), delta)
            with self._rebuild_lock:
                self._topology = new_topology
        return delta

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
        answering from generation N throughout the build; page-advice
        policies of the old generation are retired
        (:meth:`~repro.store.ResidencyPolicy.retire_all`) as part of the
        swap.

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
                name="tspg-shard-rewarm",
                daemon=True,
            )
            thread.start()
            return thread
        return self._rewarm_generation(num_shards=num_shards)

    def _rewarm_generation(
        self, *, num_shards: Optional[int] = None
    ) -> ShardSetManifest:
        from ..store.journal import clear_journal  # deferred: cycle

        with self._ingest_lock:
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
            clear_journal(self._set_journal_base())
            shards, services, policies, mmap_active, mmap_reasons = (
                _boot_shard_generation(
                    shard_set,
                    manifest,
                    mmap=self._shard_snapshot_mmap_requested,
                    residency=self._shard_residency_requested,
                    service_kwargs=self._service_kwargs,
                )
            )
            for policy in self._shard_residency:
                self._residency_retired += policy.retire_all()
            with self._rebuild_lock:
                self._topology = _Topology(
                    shards=tuple(shards),
                    services=tuple(services),
                    span=(
                        None
                        if manifest.span is None
                        else TimeInterval(*manifest.span)
                    ),
                    epoch=manifest.epoch,
                )
                self._shard_residency = tuple(policies)
                self._shard_snapshot_mmap = mmap_active
                self._shard_snapshot_mmap_reasons = mmap_reasons
                self._shard_snapshot_paths = tuple(
                    shard_set.file_path(entry.filename)
                    for entry in manifest.shards
                )
                self._shard_snapshot_epoch = manifest.epoch
                self._extra_vertices = tuple(shard_set.load_isolated(manifest))
                self._overflow_rows = []
                self._overflow_row_set = set()
                self._overflow_vertices = set()
        return manifest

    # ------------------------------------------------------------------
    # shard construction
    # ------------------------------------------------------------------
    def _build_topology(self) -> "_Topology":
        """Build the shard partitions and services for the current epoch.

        The result is published as ONE immutable tuple assignment
        (``self._topology``), so a reader racing a mutation-triggered
        rebuild always sees a matched (shards, services, span, epoch) set —
        never new specs over old services.
        """
        shards: List[ShardSpec] = []
        services: List[TspgService] = []
        span = self._graph.time_interval()
        epoch = self._graph.epoch
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
                services.append(TspgService(subgraph, **self._service_kwargs))
        return _Topology(tuple(shards), tuple(services), span, epoch)

    def _current_topology(self) -> "_Topology":
        """Return a self-consistent topology, repartitioning after mutations.

        A snapshot-booted router has no source graph until someone asks for
        it (``self._graph is None``); its topology is frozen at the manifest
        epoch, so there is nothing to compare against until the union graph
        is materialised (after which mutations of *that* graph repartition
        as usual).
        """
        topology = self._topology
        if self._graph is None or self._graph.epoch == topology.epoch:
            return topology
        with self._rebuild_lock:
            topology = self._topology
            if self._graph.epoch != topology.epoch:
                topology = self._build_topology()
                self._topology = topology
            return topology

    def _fallback_for(self) -> TspgService:
        """The lazily built full-graph service (epoch-safe by itself)."""
        service = self._fallback_service
        if service is None:
            with self._fallback_lock:
                service = self._fallback_service
                if service is None:
                    service = TspgService(self.graph, **self._service_kwargs)
                    self._fallback_service = service
        return service

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
        for service in topology.services:
            union.add_edges(service.graph.edge_tuples())
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

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TemporalGraph:
        """The full source graph (what the fallback service answers over).

        On a router booted by :meth:`from_shard_snapshots` the full graph
        does not exist until first asked for; this accessor materialises it
        as the union of the shard graphs.
        """
        if self._graph is None:
            with self._union_lock:
                if self._graph is None:
                    self._graph = self._materialize_union()
        return self._graph

    def has_vertex(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` exists in the served graph — union-free.

        On a snapshot-booted router the full graph is expensive (the
        :attr:`graph` accessor materialises the union of the shard
        graphs); membership is answerable from what is already in memory:
        the shard graphs cover every edge-incident vertex and
        ``_extra_vertices`` carries the edge-less ones.
        """
        if self._graph is not None:
            return self._graph.has_vertex(vertex)
        if vertex in self._extra_vertices:
            return True
        if vertex in self._overflow_vertices:
            return True
        return any(
            service.graph.has_vertex(vertex)
            for service in self._current_topology().services
        )

    @property
    def epoch(self) -> int:
        """Mutation epoch of the routed graph (union-free).

        Mirrors :attr:`TspgService.epoch` so the serving tier can stamp
        ``epoch_before`` / ``epoch_after`` onto responses without
        materialising a snapshot-booted router's full-graph union — the
        topology already carries the epoch its shards were built at.
        """
        if self._graph is not None:
            return self._graph.epoch
        return self._current_topology().epoch

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

    @property
    def default_algorithm(self) -> str:
        """Name of the algorithm used when none is given."""
        return str(self._service_kwargs["default_algorithm"])

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The attached persistent worker pool, if any."""
        return self._pool

    def attach_pool(self, pool: Optional[WorkerPool]) -> None:
        """Attach (or with ``None`` detach) a persistent worker pool.

        Shard-group chunks of ``executor="processes"`` batches are then
        submitted to the pool's long-lived workers (each keeps its booted
        per-shard services across batches) instead of a per-batch executor.
        The pool's lifecycle stays the caller's.
        """
        self._pool = pool

    def _active_pool(self) -> Optional[WorkerPool]:
        """The attached persistent pool, if it can still serve."""
        return _usable_pool(self._pool)

    def process_fallback_reasons(
        self,
        algorithm: Optional[AlgorithmSpec] = None,
        max_workers: Optional[int] = None,
    ) -> List[str]:
        """Why a ``processes`` batch request would degrade to threads.

        The sharded counterpart of
        :meth:`TspgService.process_fallback_reasons`; empty when the
        process backend would engage for shard-routed groups (fallback
        groups always stay on the parent's threads).
        """
        workers = max_workers if max_workers is not None else self._max_workers
        reasons = _common_fallback_reasons(workers, algorithm)
        topology = self._current_topology()
        if self._shard_snapshot_paths is None:
            reasons.append(
                "no per-shard snapshots are attached (use save_shards / "
                "from_shard_snapshots or 'tspg warm --shards') so workers "
                "have nothing to boot from"
            )
        elif (
            self._shard_snapshot_epoch != topology.epoch
            or len(self._shard_snapshot_paths) != len(topology.shards)
        ):
            reasons.append(
                "the graph mutated after the shard snapshots were written "
                "(stale epoch); re-run save_shards to re-attach"
            )
        return reasons

    @property
    def snapshot_mmap_active(self) -> bool:
        """Whether every shard booted over an mmap-backed snapshot."""
        return self._shard_snapshot_mmap

    def mmap_fallback_reasons(self) -> List[str]:
        """Why the shard boots are not mmap-backed (empty when all are).

        The sharded counterpart of
        :meth:`TspgService.mmap_fallback_reasons`: one reason per shard
        that degraded to the eager boot, labelled with its shard index and
        filename.  When mmap was never requested the single reason says
        so.
        """
        if not self._shard_snapshot_mmap_requested:
            return ["mmap boot was not requested (pass mmap=True / --mmap)"]
        return list(self._shard_snapshot_mmap_reasons)

    @property
    def residency(self) -> Tuple[object, ...]:
        """Per-shard page-advice policies (empty without ``residency=True``)."""
        return self._shard_residency

    def residency_stats(self) -> Optional[Dict[str, object]]:
        """Aggregated page-advice counters across every shard policy.

        The sharded counterpart of :meth:`TspgService.residency_stats`:
        one merged dict (see
        :meth:`~repro.store.ResidencyPolicy.merged_with`) over all shard
        policies, or ``None`` when the boot did not request residency
        tracking.
        """
        if not self._shard_residency:
            return None
        first = self._shard_residency[0]
        merged = first.merged_with(self._shard_residency[1:])
        # Fold in mappings retired from generations already swapped out —
        # their policies are gone from _shard_residency.
        merged["retirements"] = (
            int(merged.get("retirements", 0)) + self._residency_retired
        )
        return merged

    def evict_cold_pages(self) -> int:
        """Drop cold mapped pages on every shard (``MADV_DONTNEED``).

        Returns the total bytes advised; 0 when residency tracking is off
        or ``madvise`` is unavailable.  Safe to call from a serve loop —
        evicted pages re-fault from the shard files on the next access.
        """
        return sum(policy.evict_cold() for policy in self._shard_residency)

    def _all_services(self) -> List[TspgService]:
        services = list(self._current_topology().services)
        if self._fallback_service is not None:
            services.append(self._fallback_service)
        return services

    @property
    def index_stats(self) -> Dict[str, int]:
        """Summed warmed-index sizes across the built services."""
        totals: Dict[str, int] = {}
        for service in self._all_services():
            for key, value in service.index_stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def cache_stats(self) -> CacheStats:
        """Aggregated result-cache counters across every built service."""
        totals = CacheStats()
        for service in self._all_services():
            stats = service.cache_stats()
            totals.hits += stats.hits
            totals.misses += stats.misses
            totals.evictions += stats.evictions
            totals.size += stats.size
            totals.max_size += stats.max_size
        return totals

    def describe(self) -> List[Dict[str, object]]:
        """One row per shard plus the fallback (for the CLI and reports).

        The fallback row reports the warmed state faithfully: until the
        lazy full-graph service is actually built its ``built`` flag is
        ``False`` and its counts are 0 — consistent with
        :attr:`index_stats` / :meth:`cache_stats`, which only aggregate
        over built services.  (It previously advertised full-graph counts
        even when nothing had been warmed, misrepresenting a freshly
        booted router.)
        """
        rows = [dict(shard.as_row(), built=True) for shard in self._current_topology().shards]
        fallback = self._fallback_service
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

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @staticmethod
    def _route_in(topology: "_Topology", interval) -> int:
        """Routing against one topology snapshot (see :meth:`route`)."""
        window = as_interval(interval)
        if topology.span is not None:
            clipped = window.intersect(topology.span)
            if clipped is not None:
                window = clipped
            # A window fully outside the span sees no edges at all; any
            # service answers it identically, so keep it on the fallback.
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

    def _service_in(self, topology: "_Topology", index: int) -> TspgService:
        if index == FALLBACK_SHARD:
            return self._fallback_for()
        return topology.services[index]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_cached(self, query: TspgQuery, algorithm: Optional[str] = None) -> bool:
        """Whether :meth:`submit` would answer ``query`` from a cache now.

        The router side of :meth:`TspgService.has_cached`: it routes
        against the published topology and asks the routed service.  No
        lock, no repartition, and the lazy fallback is never built — a
        query ``submit`` would repartition for, or route to a fallback
        not built yet, answers ``False``.
        """
        topology = self._topology
        if self._graph is not None and self._graph.epoch != topology.epoch:
            return False
        index = self._route_in(topology, query.interval)
        if index == FALLBACK_SHARD:
            service = self._fallback_service
            if service is None:
                return False
        else:
            service = topology.services[index]
        return service.has_cached(query, algorithm)

    def submit(
        self,
        query: TspgQuery,
        algorithm: Optional[AlgorithmSpec] = None,
        *,
        use_cache: bool = True,
        deadline: Optional[Deadline] = None,
    ) -> AlgorithmResult:
        """Answer one query on its covering shard (or the fallback).

        ``deadline`` is forwarded to the shard service unchanged — routing
        costs microseconds, so the covering shard sees effectively the
        whole per-query budget.
        """
        topology = self._current_topology()
        service = self._service_in(topology, self._route_in(topology, query.interval))
        return service.submit(
            query, algorithm, use_cache=use_cache, deadline=deadline
        )

    def query(
        self,
        source: Vertex,
        target: Vertex,
        interval,
        algorithm: Optional[AlgorithmSpec] = None,
        *,
        use_cache: bool = True,
        deadline: Optional[Deadline] = None,
    ) -> AlgorithmResult:
        """Convenience wrapper building the :class:`TspgQuery` for the caller."""
        return self.submit(
            TspgQuery(source=source, target=target, interval=interval),
            algorithm,
            use_cache=use_cache,
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # batches
    # ------------------------------------------------------------------
    def run_batch(
        self,
        queries: Union[Sequence[TspgQuery], QueryWorkload],
        algorithm: Optional[AlgorithmSpec] = None,
        *,
        max_workers: Optional[int] = None,
        use_cache: bool = True,
        time_budget_seconds: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        executor: Optional[str] = None,
    ) -> ShardedBatchReport:
        """Fan a batch out across the shards and merge the reports.

        The batch is grouped by routed shard; the groups execute concurrently
        (bounded by ``max_workers``), each inside its shard's
        :class:`TspgService`, and the per-shard reports are merged into one
        :class:`ShardedBatchReport` whose items sit in the original
        submission order.  ``time_budget_seconds`` bounds the *whole* batch
        as one absolute :class:`~repro.core.deadline.Deadline` shared by
        every shard group, worker process and query — an in-flight query
        past the budget cuts itself off cooperatively, so the merged report
        lands no later than the budget plus the per-query cut-off slack.
        ``deadline`` passes an explicit absolute cut-off instead (the
        stricter of the two wins when both are given).

        ``executor="processes"`` runs each shard group in a worker *process*
        that boots from the shard's snapshot file — true multi-core
        parallelism for the GIL-bound hot path.  It needs current per-shard
        snapshots (:meth:`save_shards` or :meth:`from_shard_snapshots`) and
        a registry-name algorithm; otherwise the group silently runs on the
        thread backend (fallback-routed queries always do — the full graph
        has no per-shard file).  :attr:`BatchReport.executor` records the
        backend actually used.
        """
        topology = self._current_topology()
        query_list = list(queries)
        workers = max_workers if max_workers is not None else self._max_workers
        if workers < 1:
            raise ValueError("max_workers must be at least 1")
        executor_kind = _validate_executor(
            executor if executor is not None else self._default_executor
        )
        budget_deadline = Deadline.from_budget(time_budget_seconds)
        if budget_deadline is not None:
            deadline = budget_deadline.earlier(deadline)

        groups: Dict[int, List[int]] = {}
        for position, query in enumerate(query_list):
            groups.setdefault(
                self._route_in(topology, query.interval), []
            ).append(position)

        report = ShardedBatchReport(
            algorithm="",
            items=[BatchItem(query=query) for query in query_list],
            num_workers=workers,
            routed={index: len(positions) for index, positions in groups.items()},
        )
        started = time.perf_counter()

        ordered = sorted(groups.items())
        # Split the worker budget across groups proportionally to their size
        # (one worker minimum each): the outer threads only block on their
        # group's inner pool, so total live workers stay ≈ the requested
        # width while a dominant group keeps its share of the parallelism.
        inner_workers = {
            index: max(1, (workers * len(positions)) // len(query_list))
            for index, positions in ordered
        }

        use_processes = (
            executor_kind == "processes"
            and workers > 1  # workers=1 means serial, as on the flat service
            and self._shard_snapshot_paths is not None
            and self._shard_snapshot_epoch == topology.epoch
            and len(self._shard_snapshot_paths) == len(topology.shards)
            and not isinstance(algorithm, TspgAlgorithm)
        )
        # Shard groups are handed to the process pool from *this* thread,
        # before any fan-out thread exists (workers fork at first submit;
        # forking a process that is already running threads is fragile).
        # Only the fallback group — the full graph has no per-shard file —
        # stays on the thread path below.
        thread_groups = ordered
        process_pool: Optional[ProcessPoolExecutor] = None
        process_tasks: List[Tuple[int, List[int], Future]] = []
        persistent: Optional[WorkerPool] = None
        harvest = Future.result
        if use_processes:
            shard_groups = [g for g in ordered if g[0] != FALLBACK_SHARD]
            if shard_groups:
                thread_groups = [g for g in ordered if g[0] == FALLBACK_SHARD]
                # A skewed routing distribution must not degenerate to one
                # serial worker: each group is split into its proportional
                # share of the worker budget (inner_workers), every chunk
                # its own pool task — chunks of one shard share the worker
                # side's per-path booted service.  The parent shard
                # service's result cache stays authoritative: hits are
                # answered here, worker outcomes stored back on merge.
                chunks: List[Tuple[int, List[int]]] = []
                for index, positions in shard_groups:
                    service = topology.services[index]
                    resolved = service._resolve(algorithm)
                    report.algorithm = resolved.name
                    # Same admission contract as the flat service: no
                    # cache hit is served past the deadline.
                    if use_cache and not (
                        deadline is not None and deadline.expired()
                    ):
                        positions = [
                            position
                            for position in positions
                            if not service._cache_lookup(
                                report.items[position], resolved
                            )
                        ]
                    for chunk in _chunk_positions(
                        len(positions), inner_workers[index]
                    ):
                        if chunk:
                            chunks.append(
                                (index, [positions[offset] for offset in chunk])
                            )
                if chunks:
                    report.executor = "processes"
                    # The budget crosses as an absolute deadline: chunks
                    # beyond the pool width sit queued, and a duration
                    # captured now would let them overshoot the batch
                    # budget once they finally start.
                    deadline_at: Optional[float] = None
                    if deadline is not None:
                        deadline_at = deadline.at_monotonic
                    persistent = self._active_pool()
                    if persistent is None:
                        process_pool = ProcessPoolExecutor(
                            max_workers=min(workers, len(chunks))
                        )
                        submit = process_pool.submit
                    else:
                        submit = persistent.submit
                        harvest = persistent.harvest
                    for index, chunk in chunks:
                        process_tasks.append(
                            (
                                index,
                                chunk,
                                submit(
                                    _snapshot_worker_run_batch,
                                    self._shard_snapshot_paths[index],
                                    [query_list[position] for position in chunk],
                                    algorithm,
                                    default_algorithm=self.default_algorithm,
                                    algorithm_options=self._service_kwargs[
                                        "algorithm_options"
                                    ],
                                    use_cache=use_cache,
                                    deadline_at=deadline_at,
                                    # The *projection's* epoch — what the
                                    # shard file's header records — not
                                    # the manifest's source-graph epoch.
                                    snapshot_epoch=topology.services[
                                        index
                                    ].graph.epoch,
                                    snapshot_mmap=self._shard_snapshot_mmap,
                                    # Workers mirror the parent's
                                    # extent-local mapping so each maps
                                    # only its shard's rows (a no-op for
                                    # well-formed shard files, but it
                                    # bounds resident bytes either way).
                                    snapshot_interval=(
                                        topology.shards[index].extent.as_tuple()
                                        if self._shard_snapshot_mmap
                                        else None
                                    ),
                                    snapshot_residency=bool(
                                        self._shard_residency
                                    ),
                                ),
                            )
                        )

        def run_group(index: int, positions: List[int]) -> BatchReport:
            # The group shares the batch-wide absolute deadline; a group
            # that starts late (serial execution, or more groups than
            # workers) simply finds less of it remaining, and one starting
            # past the deadline skips outright.
            service = self._service_in(topology, index)
            return service.run_batch(
                [query_list[position] for position in positions],
                algorithm,
                max_workers=inner_workers[index],
                use_cache=use_cache,
                deadline=deadline,
            )

        try:
            if len(thread_groups) <= 1 or workers == 1:
                sub_reports = [
                    run_group(index, positions) for index, positions in thread_groups
                ]
            else:
                with ThreadPoolExecutor(
                    max_workers=min(workers, len(thread_groups)),
                    thread_name_prefix="tspg-shard",
                ) as thread_pool:
                    futures = [
                        thread_pool.submit(run_group, index, positions)
                        for index, positions in thread_groups
                    ]
                    sub_reports = [future.result() for future in futures]

            for (index, positions), sub_report in zip(thread_groups, sub_reports):
                report.algorithm = sub_report.algorithm
                report.timed_out = report.timed_out or sub_report.timed_out
                for position, item in zip(positions, sub_report.items):
                    report.items[position] = item
            for index, chunk, future in process_tasks:
                sub_report = harvest(future)  # re-raises worker exceptions
                report.algorithm = sub_report.algorithm
                report.timed_out = report.timed_out or sub_report.timed_out
                service = topology.services[index]
                resolved = service._resolve(algorithm)
                for position, item in zip(chunk, sub_report.items):
                    report.items[position] = item
                    if use_cache:
                        service._cache_store(item, resolved)
        finally:
            if process_pool is not None:
                # cancel_futures is a no-op on the success path (every
                # future already resolved); on an exception it stops queued
                # chunks from running to completion just to be discarded.
                # A persistent pool is never shut down here — its workers
                # (and their booted per-shard services) outlive the batch.
                process_pool.shutdown(cancel_futures=True)
            elif persistent is not None and process_tasks:
                # Persistent-pool analogue of cancel_futures: an aborted
                # merge must not leave this batch's queued chunks hogging
                # the shared workers (no-op for resolved futures).
                for _index, _chunk, future in process_tasks:
                    future.cancel()
                persistent.note_batch()

        if not report.algorithm:
            # Nothing ran (empty batch, or every query answered from the
            # parent-side caches) — resolve the name through the registry
            # anyway, so an unknown name raises the same KeyError the flat
            # service produces instead of silently succeeding, without
            # warming any service (building the fallback here would defeat
            # its laziness).
            if isinstance(algorithm, TspgAlgorithm):
                report.algorithm = algorithm.name
            else:
                name = algorithm or self.default_algorithm
                options = self._service_kwargs["algorithm_options"] or {}
                report.algorithm = get_algorithm(name, **options.get(name, {})).name
        report.wall_seconds = time.perf_counter() - started
        return report
