"""The batch query service: one graph, many queries, reusable work.

:class:`TspgService` is the serving layer over the VUG pipeline.  It owns one
:class:`~repro.graph.temporal_graph.TemporalGraph`, warms the per-graph
indices exactly once per epoch (sorted edge list, distinct timestamps,
per-vertex ``T_out``/``T_in`` views, and the frozen columnar
:class:`~repro.graph.views.GraphView` the zero-materialization query pipeline
runs on — previously rebuilt lazily on first use per query), memoizes
results in a bounded LRU keyed by
``(source, target, interval, algorithm)``, and executes batches either
serially or on a ``concurrent.futures`` worker pool with a per-batch
wall-clock budget (the paper's "INF" cut-off, applied to a batch instead of a
workload).

Two batch execution backends exist (``run_batch(executor=...)``):

* ``"threads"`` — a ``ThreadPoolExecutor`` sharing this process's warmed
  graph.  Zero start-up cost, but the pure-Python VUG hot path is GIL-bound,
  so threads only overlap the small C-level portions.
* ``"processes"`` — a ``ProcessPoolExecutor`` whose workers boot their own
  service from the binary index snapshot this service was started from
  (:meth:`TspgService.from_snapshot`), run a contiguous chunk of the batch
  serially, and return their pickled :class:`BatchReport`.  True multi-core
  parallelism for the GIL-bound hot path; falls back to threads
  automatically when no snapshot is attached (nothing for a worker to boot
  from), when the graph has mutated since the snapshot was taken, or when
  the algorithm was passed as an instance instead of a registry name.

The process backend's executor is per-batch by default (created and torn
down inside ``run_batch``); attaching a persistent
:class:`~repro.service.pool.WorkerPool` (the ``pool=`` constructor argument
or :meth:`TspgService.attach_pool`) makes repeated batches reuse the same
long-lived worker processes — and therefore their snapshot-booted services,
warmed views and worker-side caches — amortising the fork + boot cost to
zero after the first batch.  Batch budgets and per-query cut-offs travel as
cooperative :class:`~repro.core.deadline.Deadline` objects all the way into
the algorithms, so an expired query yields a ``timed_out`` row promptly
instead of squatting on a worker past the budget.

Every algorithm registered in :mod:`repro.algorithms` is available by name;
instances are created once per service and shared across worker threads —
legal because every :meth:`~repro.baselines.interface.TspgAlgorithm.compute`
implementation in the library keeps its state on the stack.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import (
    FIRST_EXCEPTION,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..algorithms import get_algorithm
from ..baselines.interface import AlgorithmResult, TspgAlgorithm
from ..core.deadline import Deadline
from ..graph.edge import Vertex
from ..graph.temporal_graph import TemporalGraph
from ..queries.query import QueryWorkload, TspgQuery
from .cache import CacheKey, CacheStats, ResultCache
from .pool import WorkerPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..store.graph_store import GraphStore

AlgorithmSpec = Union[str, TspgAlgorithm]

#: Default capacity of the per-service result cache.
DEFAULT_CACHE_SIZE = 1024

#: Batch execution backends accepted by ``run_batch(executor=...)``.
EXECUTOR_BACKENDS = ("threads", "processes")


def _validate_executor(executor: str) -> str:
    if executor not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of "
            f"{', '.join(EXECUTOR_BACKENDS)}"
        )
    return executor


def _usable_pool(pool: Optional[WorkerPool]) -> Optional[WorkerPool]:
    """``pool`` if it is attached and can still serve, else ``None``."""
    if pool is not None and not pool.closed:
        return pool
    return None


def _common_fallback_reasons(
    workers: int, algorithm: Optional[AlgorithmSpec]
) -> List[str]:
    """Degrade-to-threads reasons shared by the flat and sharded services.

    The snapshot-specific reasons differ per service and are appended by
    each ``process_fallback_reasons`` implementation; keeping the common
    wording here stops the two CLI notes from drifting apart.
    """
    reasons: List[str] = []
    if workers == 1:
        reasons.append("max_workers=1 requests a serial run")
    if isinstance(algorithm, TspgAlgorithm):
        reasons.append(
            "the algorithm is a configured instance, not a registry "
            "name, and cannot be shipped to worker processes"
        )
    return reasons


def _chunk_positions(count: int, chunks: int) -> List[List[int]]:
    """Split ``range(count)`` into ≤``chunks`` contiguous near-equal runs."""
    chunks = max(1, min(chunks, count))
    size, remainder = divmod(count, chunks)
    out: List[List[int]] = []
    begin = 0
    for index in range(chunks):
        end = begin + size + (1 if index < remainder else 0)
        out.append(list(range(begin, end)))
        begin = end
    return out


#: Per-worker-process cache of snapshot-booted services, keyed by
#: ``(snapshot path, expected epoch, algorithm options)``.  Lives only
#: inside pool workers (the parent never calls the worker function), so a
#: worker that receives several chunks of the same batch — or several
#: batches from the same pool — boots its service exactly once.  The epoch
#: and options are part of the key because a *persistent* pool outlives
#: service generations: re-warming a different graph over the same path
#: (or booting a same-path service with different options) must re-boot
#: here instead of silently serving the stale cached service.  Older
#: entries for the same path are evicted on insert, so the cache holds at
#: most one generation per file (differently-configured services sharing
#: one file coexist).  Each entry also carries the file's stat signature
#: from boot time, re-validated on every call: epochs are per-graph
#: counters and *can* coincide across different graphs, but a rewritten
#: file cannot keep its ``(mtime_ns, inode, size)``.
_WORKER_SERVICES: Dict[
    Tuple[str, Optional[int], str, str, bool, str, bool],
    Tuple["TspgService", Optional[Tuple[int, int, int]]],
] = {}


def _snapshot_file_signature(path: str):
    """Cheap identity of the snapshot's current bytes (None if gone).

    Covers the epoch-delta journal sidecar too: a journaled append changes
    what a boot of ``path`` produces without touching the snapshot file
    itself, so worker-side service caching must see the journal grow.
    """
    try:
        stat = os.stat(path)
    except OSError:
        return None
    signature = (stat.st_mtime_ns, stat.st_ino, stat.st_size)
    try:
        journal_stat = os.stat(path + ".tspgjournal")
    except OSError:
        return signature
    return signature + (
        journal_stat.st_mtime_ns,
        journal_stat.st_ino,
        journal_stat.st_size,
    )


def _snapshot_worker_run_batch(
    snapshot_path: str,
    queries: List[TspgQuery],
    algorithm: Optional[str],
    *,
    default_algorithm: str = "VUG",
    algorithm_options: Optional[Dict[str, Dict[str, object]]] = None,
    use_cache: bool = True,
    deadline_at: Optional[float] = None,
    snapshot_epoch: Optional[int] = None,
    snapshot_mmap: bool = False,
    snapshot_interval=None,
    snapshot_residency: bool = False,
    max_workers: int = 1,
) -> BatchReport:
    """Process-pool worker: boot from a snapshot, answer a sub-batch.

    Runs inside a ``ProcessPoolExecutor`` worker.  Everything crossing the
    process boundary is picklable by construction: the snapshot *path* in,
    frozen :class:`~repro.queries.query.TspgQuery` dataclasses in, and a
    plain :class:`BatchReport` of frozen results out.

    The batch budget crosses as an absolute ``deadline_at`` instant on the
    monotonic clock rather than a duration: a chunk may sit queued behind
    a full pool, and a duration captured at submit time would silently
    extend the whole batch past its budget.  ``time.monotonic()`` is
    system-wide per boot, so the reconstructed :class:`Deadline` marks the
    same instant in a (local) worker — and travels on into the
    algorithms, so a query the budget has expired on cuts itself off
    inside this worker too.

    In a persistent :class:`~repro.service.pool.WorkerPool` the module-level
    service cache outlives the batch: the second batch served by this
    worker finds its booted service (warmed view, result cache and all)
    already here.

    ``snapshot_mmap`` propagates the parent's active mmap boot: each
    worker then maps the same snapshot file instead of unpickling a
    private copy, so the column payload lives once in the page cache no
    matter how many workers serve from it.  ``snapshot_interval`` narrows
    the worker's boot to its time extent (extent-local mapping: the
    worker's address space holds its extent's rows, not the file), and
    ``snapshot_residency`` attaches a per-worker page-advice policy.
    """
    cache_key = (
        snapshot_path,
        snapshot_epoch,
        default_algorithm,
        repr(algorithm_options),
        bool(snapshot_mmap),
        repr(snapshot_interval),
        bool(snapshot_residency),
    )
    file_sig = _snapshot_file_signature(snapshot_path)
    cached = _WORKER_SERVICES.get(cache_key)
    if cached is not None and cached[1] == file_sig:
        service = cached[0]
    else:
        service = TspgService.from_snapshot(
            snapshot_path,
            mmap=snapshot_mmap,
            interval=snapshot_interval,
            residency=snapshot_residency,
            default_algorithm=default_algorithm,
            algorithm_options=algorithm_options,
        )
        if snapshot_epoch is not None and service.graph.epoch != snapshot_epoch:
            # The file was rewritten (by another writer) between the
            # parent attaching it and this worker booting: serving from
            # it would silently answer over a *different* graph than the
            # parent's.  Fail loudly instead — backends must stay
            # bit-identical.
            from ..store import SnapshotError  # deferred: cycle

            raise SnapshotError(
                f"{snapshot_path}: snapshot was rewritten since the "
                f"serving side attached it (worker booted epoch "
                f"{service.graph.epoch}, expected {snapshot_epoch}); "
                f"re-warm and re-attach before using the process backend"
            )
        # One generation per file: drop services booted from an *older
        # write* of this path.  Entries whose signature still matches the
        # file stay — two differently-configured services sharing a pool
        # (and a snapshot) must not evict each other's boots every batch.
        for key, entry in list(_WORKER_SERVICES.items()):
            if key[0] == snapshot_path and entry[1] != file_sig:
                del _WORKER_SERVICES[key]
        # Bound the same-signature variants too: repr() of exotic option
        # values (default object reprs embed addresses) changes per
        # pickle round-trip, which would otherwise grow one dead entry —
        # each holding a fully booted service — per batch, forever.
        same_path = [
            key
            for key, entry in _WORKER_SERVICES.items()
            if key[0] == snapshot_path
        ]
        while len(same_path) >= 4:  # insertion order ⇒ oldest first
            del _WORKER_SERVICES[same_path.pop(0)]
        _WORKER_SERVICES[cache_key] = (service, file_sig)
    deadline: Optional[Deadline] = None
    if deadline_at is not None:
        deadline = Deadline(at_monotonic=deadline_at)
    return service.run_batch(
        queries,
        algorithm,
        max_workers=max_workers,
        use_cache=use_cache,
        deadline=deadline,
    )


@dataclass
class BatchItem:
    """Outcome of one query inside a batch."""

    query: TspgQuery
    outcome: Optional[AlgorithmResult] = None
    cache_hit: bool = False
    skipped: bool = False
    elapsed_seconds: float = 0.0

    @property
    def completed(self) -> bool:
        """``True`` when the query produced a result within the batch budget.

        An in-flight query that the budget cut off may still populate
        :attr:`outcome` when its thread finishes (threads cannot be
        interrupted), but it stays ``skipped`` — and not completed — so the
        report reflects what the batch delivered on time.
        """
        return self.outcome is not None and not self.skipped


@dataclass
class BatchReport:
    """Aggregated outcome of one :meth:`TspgService.run_batch` call."""

    algorithm: str
    items: List[BatchItem] = field(default_factory=list)
    wall_seconds: float = 0.0
    num_workers: int = 1
    timed_out: bool = False
    #: Backend that actually executed the computed queries: ``"threads"``
    #: (also used for serial runs) or ``"processes"``.  Records the
    #: *effective* backend, which is ``"threads"`` for a ``processes``
    #: request whenever any of the degrade conditions held:
    #:
    #: * **no snapshot** — the service was not booted via
    #:   :meth:`TspgService.from_snapshot` (flat) /
    #:   ``save_shards``/``from_shard_snapshots`` (sharded), so workers
    #:   have no file to boot from;
    #: * **stale snapshot** — the graph mutated since the snapshot was
    #:   taken (the epoch guard), so workers would boot an old edge set;
    #: * **instance algorithm** — the algorithm was passed as a configured
    #:   instance rather than a registry name and cannot be shipped across
    #:   the process boundary;
    #: * **serial request** — ``max_workers=1`` (or a ≤1-query batch)
    #:   always runs serially, on no backend at all;
    #: * **all cache hits** — every query was answered from the
    #:   parent-side result cache, so no worker ever ran.
    #:
    #: :meth:`TspgService.process_fallback_reasons` reports which of these
    #: applied (the CLI's explanatory note is built from it); ``as_row()``
    #: exposes this field as the ``executor`` column.
    executor: str = "threads"

    @property
    def num_queries(self) -> int:
        return len(self.items)

    @property
    def num_completed(self) -> int:
        return sum(1 for item in self.items if item.completed)

    @property
    def num_cache_hits(self) -> int:
        return sum(1 for item in self.items if item.cache_hit)

    @property
    def num_timed_out(self) -> int:
        """Queries whose own run was cut off (deadline or algorithm budget).

        Distinct from ``skipped`` (never started because the batch budget
        was already gone): these ran, hit their cooperative deadline — or
        an algorithm-internal budget such as the enumeration baselines'
        ``max_paths`` — and reported a ``timed_out`` outcome.
        """
        return sum(
            1
            for item in self.items
            if item.outcome is not None
            and item.outcome.timed_out
            and not item.skipped
        )

    @property
    def queries_per_second(self) -> float:
        """Completed-query throughput over the batch's wall-clock time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.num_completed / self.wall_seconds

    def results(self) -> List[Optional[AlgorithmResult]]:
        """Per-query outcomes aligned with the submitted order (``None`` = skipped)."""
        return [item.outcome if item.completed else None for item in self.items]

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "algorithm": self.algorithm,
            "workers": self.num_workers,
            "executor": self.executor,
            "queries": f"{self.num_completed}/{self.num_queries}",
            "wall_s": round(self.wall_seconds, 4),
            "qps": round(self.queries_per_second, 1),
            "cache_hits": self.num_cache_hits,
            "timed_out": self.timed_out,
        }


class TspgService:
    """Serve many ``tspG`` queries over one temporal graph.

    Parameters
    ----------
    graph:
        The temporal graph every query runs against.  The service warms the
        graph's lazy indices on construction, so the first query (and every
        concurrent query) starts from fully-built sorted views.
    default_algorithm:
        Algorithm name used when a call does not specify one.
    cache_size:
        Capacity of the LRU result cache (``0`` disables memoization).
    max_workers:
        Default worker count for :meth:`run_batch`; ``1`` means serial.
    executor:
        Default batch backend for :meth:`run_batch`: ``"threads"`` or
        ``"processes"`` (the latter needs a snapshot to boot workers from —
        see :meth:`from_snapshot` — and silently degrades to threads
        otherwise).
    pool:
        Optional persistent :class:`~repro.service.pool.WorkerPool`.  When
        attached (and open), ``processes`` batches fan out over the pool's
        long-lived workers instead of building a per-batch
        ``ProcessPoolExecutor`` — repeat batches skip the fork + snapshot
        boot entirely.  A closed pool degrades back to the per-batch
        executor.
    algorithm_options:
        Per-algorithm constructor options, keyed by registry name.

    Examples
    --------
    >>> from repro import TemporalGraph
    >>> from repro.service import TspgService
    >>> from repro.queries.query import TspgQuery
    >>> graph = TemporalGraph(edges=[("s", "b", 2), ("b", "t", 6),
    ...                              ("b", "c", 3), ("c", "t", 7)])
    >>> service = TspgService(graph)
    >>> outcome = service.submit(TspgQuery("s", "t", (2, 7)))
    >>> sorted(outcome.result.vertices)
    ['b', 'c', 's', 't']
    """

    def __init__(
        self,
        graph: TemporalGraph,
        *,
        default_algorithm: str = "VUG",
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_workers: int = 1,
        executor: str = "threads",
        pool: Optional[WorkerPool] = None,
        algorithm_options: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._graph = graph
        self._default_algorithm = default_algorithm
        self._cache: ResultCache[AlgorithmResult] = ResultCache(cache_size)
        self._max_workers = max_workers
        self._default_executor = _validate_executor(executor)
        self._pool = pool
        # Set by from_snapshot: where process-pool workers can boot an
        # identical service from, and the graph epoch that file describes.
        self._snapshot_path: Optional[str] = None
        self._snapshot_epoch: Optional[int] = None
        # Whether the boot requested / actually used the mmap-backed
        # columnar path (snapshot format v4), plus why it degraded if not.
        self._snapshot_mmap_requested: bool = False
        self._snapshot_mmap: bool = False
        self._snapshot_mmap_reasons: List[str] = []
        # Page-advice policy over the boot's mappings (set by
        # from_snapshot when residency management was requested).
        self._residency = None
        self._snapshot_interval = None
        self._snapshot_boot = None
        self._algorithm_options = {
            name: dict(opts) for name, opts in (algorithm_options or {}).items()
        }
        self._algorithms: Dict[str, TspgAlgorithm] = {}
        self._algorithms_lock = threading.Lock()
        # Instances that took part in cache keys, pinned by id().  Keys embed
        # id(instance) so same-named but differently-configured algorithms
        # never share entries; pinning prevents id reuse after garbage
        # collection from aliasing a dead instance's entries.
        self._pinned_algorithms: Dict[int, TspgAlgorithm] = {}
        # Guards the rewarm transition so concurrent queries observing a
        # stale epoch rewarm exactly once.
        self._rewarm_lock = threading.Lock()
        #: Sizes of the indices warmed at construction time (see
        #: :meth:`TemporalGraph.warm_indices`).
        self.index_stats: Dict[str, int] = graph.warm_indices()
        # The graph epoch the warmed indices (and cache entries) describe.
        self._warmed_epoch: int = graph.epoch

    # ------------------------------------------------------------------
    # alternate constructors (the GraphStore layer)
    # ------------------------------------------------------------------
    @classmethod
    def from_store(cls, store: "GraphStore", **kwargs) -> "TspgService":
        """Build a service over the warmed graph a :class:`GraphStore` loads."""
        return cls(store.load(), **kwargs)

    @classmethod
    def from_snapshot(
        cls,
        path,
        *,
        mmap: bool = False,
        interval=None,
        residency=False,
        **kwargs,
    ) -> "TspgService":
        """Boot a service from a binary index snapshot in O(read).

        The snapshot (written by :func:`repro.store.save_snapshot` or the
        ``tspg warm`` command) already contains every warmed index, so no
        edge is re-inserted or re-sorted; construction cost is dominated by
        reading and decoding the file.  Raises
        :class:`~repro.store.SnapshotError` on a corrupt or incompatible
        file.

        ``mmap=True`` requests the zero-copy columnar boot (snapshot
        format v4): the file is mapped instead of decompressed and the
        view columns serve straight out of the page cache, so boot cost
        and resident memory scale with the pages queries actually touch.
        Pre-v4 snapshots degrade to the eager boot with the reasons
        recorded on :meth:`mmap_fallback_reasons` — a readable snapshot
        always boots.

        The snapshot path is remembered: it is what the
        ``executor="processes"`` batch backend hands to its pool workers so
        each can boot an identical service in O(read) — with ``mmap``
        active, workers map the very same file, sharing its page-cache
        pages instead of re-unpickling a private copy per process.  The
        association is epoch-guarded — mutating the graph afterwards
        disables the process backend (workers would boot a stale graph)
        until a fresh snapshot is attached.

        ``interval`` restricts the boot to that (inclusive) time range's
        edges — combined with ``mmap`` this is the extent-local boot that
        maps only the range's rows (see :func:`repro.store.boot_snapshot`).
        Queries whose window lies inside the interval answer bit-identically
        to an unrestricted boot.

        ``residency=True`` attaches a :class:`~repro.store.ResidencyPolicy`
        driving ``madvise`` page advice over the boot's mappings:
        ``MADV_SEQUENTIAL`` for the warm scan, ``MADV_RANDOM`` once
        serving starts, and :meth:`evict_cold_pages` for the serve loop's
        periodic ``MADV_DONTNEED``.  A pre-built policy may be passed
        instead of ``True``.  Advice degrades to a recorded no-op where
        unsupported — it never changes results, only paging behaviour.
        """
        from ..store.graph_store import SnapshotGraphStore  # deferred: cycle
        from ..store.residency import ResidencyPolicy  # deferred: cycle

        policy = None
        if residency:
            policy = (
                residency
                if isinstance(residency, ResidencyPolicy)
                else ResidencyPolicy()
            )
        store = SnapshotGraphStore(
            path, mmap=mmap, interval=interval, residency=policy
        )
        graph = store.load()
        if policy is not None:
            policy.advise_warm()  # sequential read-ahead for the warm scan
        service = cls(graph, **kwargs)
        if policy is not None:
            policy.advise_serve()  # point queries from here on
        service._snapshot_path = store.path
        service._snapshot_epoch = service.graph.epoch
        service._snapshot_mmap_requested = store.mmap_requested
        service._snapshot_mmap = store.mmap_active
        service._snapshot_mmap_reasons = (
            store.mmap_fallback_reasons() if mmap else []
        )
        service._residency = policy
        service._snapshot_interval = interval
        service._snapshot_boot = store.last_boot
        return service

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TemporalGraph:
        """The graph this service answers queries about."""
        return self._graph

    def has_vertex(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` exists in the served graph.

        Exists so callers that only need a membership probe (the CLI's
        vertex-label coercion) can treat flat and sharded services
        uniformly — the sharded counterpart answers without materialising
        its full-graph union.
        """
        return self._graph.has_vertex(vertex)

    @property
    def epoch(self) -> int:
        """Mutation epoch of the served graph.

        Part of the uniform flat/sharded surface: the serving tier stamps
        this onto every query response (``epoch_before`` /
        ``epoch_after``) so network clients can replay answers against a
        serial oracle while ingest runs concurrently.
        """
        return self._graph.epoch

    @property
    def default_algorithm(self) -> str:
        """Name of the algorithm used when none is given."""
        return self._default_algorithm

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the result cache."""
        return self._cache.stats()

    @property
    def warmed_epoch(self) -> int:
        """Graph epoch the currently warmed indices describe."""
        return self._warmed_epoch

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The attached persistent worker pool, if any."""
        return self._pool

    def attach_pool(self, pool: Optional[WorkerPool]) -> None:
        """Attach (or with ``None`` detach) a persistent worker pool.

        The pool's lifecycle stays the caller's: the service never closes
        it, and several services may share one pool (worker-side booted
        services are cached per snapshot path, so shards of different
        routers coexist in the same workers).
        """
        self._pool = pool

    def clear_cache(self) -> None:
        """Drop all memoized results (e.g. after mutating the graph)."""
        self._cache.clear()
        with self._algorithms_lock:
            self._pinned_algorithms.clear()

    def _ensure_current(self) -> None:
        """Rewarm indices and drop stale results when the graph has mutated.

        Every query entry point calls this: the graph's mutation
        :attr:`~TemporalGraph.epoch` is compared against the epoch stamped at
        warm time, so a cached result computed over the old edge set can
        never be served.  (Cache keys embed the epoch too, which also
        protects against a mutation racing a query already in flight.)

        When the gap is covered by structured append deltas
        (:meth:`TemporalGraph.deltas_since`), invalidation is *delta-aware*:
        an appended edge can only change a query whose window intersects the
        appended timestamps (the algorithms never look outside the window)
        or whose endpoints are among the newly added vertices.  Every other
        cached entry is provably still correct and is carried across the
        epoch bump re-keyed to the new warmed epoch.  Legacy mutators leave
        a gap in the delta log, and the rewarm falls back to the wholesale
        clear.
        """
        if self._graph.epoch == self._warmed_epoch:
            return
        with self._rewarm_lock:
            if self._graph.epoch == self._warmed_epoch:
                return  # another thread already rewarmed
            deltas = self._graph.deltas_since(self._warmed_epoch)
            if deltas:
                self._invalidate_for_deltas(deltas)
            else:
                self.clear_cache()
            self.index_stats = self._graph.warm_indices()
            self._warmed_epoch = self._graph.epoch

    def _invalidate_for_deltas(self, deltas) -> int:
        """Drop only the cache entries a batch of append deltas can affect.

        Returns the number of entries dropped.  Survivors are re-keyed to
        the current graph epoch so post-rewarm lookups (whose keys embed
        the new warmed epoch) still hit them.  Pinned algorithm instances
        are kept — surviving keys embed ``id(instance)``.
        """
        populated = [d for d in deltas if d.rows]
        if not populated:
            return 0
        lo = min(d.min_timestamp for d in populated)
        hi = max(d.max_timestamp for d in populated)
        fresh_vertices = set()
        for delta in populated:
            fresh_vertices.update(delta.new_vertices)
        new_epoch = self._graph.epoch

        def transform(key):
            source, target, interval, algorithm_id, _epoch = key
            begin, end = interval
            if end >= lo and begin <= hi:
                return None  # window sees appended timestamps
            if source in fresh_vertices or target in fresh_vertices:
                return None  # endpoint did not exist before the append
            return (source, target, interval, algorithm_id, new_epoch)

        return self._cache.rekey(transform)

    def ingest(self, edges) -> "EdgeDelta":
        """Append edges through the journaled delta path and serve on.

        The live-ingest entry point: applies ``edges`` via
        :meth:`TemporalGraph.append_edges` (an mmap-booted graph stays lazy
        and its columnar view is *extended*, not rebuilt), records the
        delta in the snapshot's ``*.tspgjournal`` sidecar when this service
        was booted from a snapshot, and runs the delta-aware cache rewarm.
        Returns the applied :class:`~repro.graph.temporal_graph.EdgeDelta`.

        Because a snapshot boot replays the journal, process-pool workers
        booting from the same path reconstruct the identical post-append
        graph — so the ``executor="processes"`` backend stays enabled
        across journaled ingests instead of degrading to threads.
        """
        with self._rewarm_lock:
            delta = self._graph.append_edges(edges)
            if (
                delta
                and self._snapshot_path is not None
                and self._snapshot_epoch == delta.old_epoch
            ):
                # Journal only while snapshot + journal still reproduce the
                # live graph; a legacy mutation in between broke that chain
                # (and already disabled the process backend).
                from ..store.journal import append_journal_delta  # deferred: cycle

                append_journal_delta(self._snapshot_path, delta)
                # Workers boot snapshot + journal and land on this epoch.
                self._snapshot_epoch = self._graph.epoch
        self._ensure_current()
        return delta

    def refresh_indices(self) -> Dict[str, int]:
        """Deprecated: staleness is now detected automatically via the epoch.

        Kept as an alias so pre-epoch callers keep working; it forces an
        immediate rewarm (harmless — the next query would have done the same)
        and returns the fresh index stats.

        .. deprecated:: 1.1
           Mutations bump :attr:`TemporalGraph.epoch` and the service rewarms
           transparently; there is nothing to call any more.
        """
        warnings.warn(
            "TspgService.refresh_indices() is deprecated: graph mutations are "
            "detected automatically via TemporalGraph.epoch",
            DeprecationWarning,
            stacklevel=2,
        )
        with self._rewarm_lock:
            self.clear_cache()
            self.index_stats = self._graph.warm_indices()
            self._warmed_epoch = self._graph.epoch
        return self.index_stats

    def _resolve(self, algorithm: Optional[AlgorithmSpec]) -> TspgAlgorithm:
        """Return a shared algorithm instance for a name (or pass one through)."""
        if isinstance(algorithm, TspgAlgorithm):
            return algorithm
        name = algorithm or self._default_algorithm
        with self._algorithms_lock:
            instance = self._algorithms.get(name)
            if instance is None:
                options = self._algorithm_options.get(name, {})
                instance = get_algorithm(name, **options)
                self._algorithms[name] = instance
        return instance

    def _cache_key(self, query: TspgQuery, algorithm: TspgAlgorithm) -> CacheKey:
        with self._algorithms_lock:
            self._pinned_algorithms.setdefault(id(algorithm), algorithm)
        return self._unpinned_key(query, algorithm)

    def _unpinned_key(self, query: TspgQuery, algorithm: TspgAlgorithm) -> CacheKey:
        # The warmed epoch is part of the key: entries written for an older
        # edge set can never satisfy a lookup issued after a mutation, even
        # if the write lands after the rewarm cleared the cache.
        return (
            query.source,
            query.target,
            query.interval.as_tuple(),
            f"{algorithm.name}@{id(algorithm)}",
            self._warmed_epoch,
        )

    # ------------------------------------------------------------------
    # single queries
    # ------------------------------------------------------------------
    def has_cached(self, query: TspgQuery, algorithm: Optional[str] = None) -> bool:
        """Whether :meth:`submit` would answer ``query`` from the cache now.

        A non-blocking probe for an event loop: it takes no lock and
        changes nothing — no rewarm, no algorithm instance built, no hit
        or miss counted, no LRU move.  It answers ``False`` whenever
        ``submit`` would first have to rewarm (the graph moved past the
        warmed epoch) or build the algorithm.  ``True`` is a hint, not a
        reservation: an ingest landing right after the probe turns the
        lookup into a miss, which ``submit`` then answers as usual.
        """
        if self._graph.epoch != self._warmed_epoch:
            return False
        instance = self._algorithms.get(algorithm or self._default_algorithm)
        if instance is None:
            return False
        return self._unpinned_key(query, instance) in self._cache

    def submit(
        self,
        query: TspgQuery,
        algorithm: Optional[AlgorithmSpec] = None,
        *,
        use_cache: bool = True,
        deadline: Optional[Deadline] = None,
    ) -> AlgorithmResult:
        """Answer one query, consulting and populating the result cache.

        On a cache hit the returned :class:`AlgorithmResult` shares the
        (immutable) ``result`` and ``space_cost`` of the original run but
        reports the *lookup* time as ``elapsed_seconds`` and carries
        ``extras["cache_hit"] = True``.  If the graph was mutated since the
        last query, the indices are transparently rewarmed and stale cached
        results dropped first.

        ``deadline`` is the cooperative per-query cut-off, forwarded into
        the algorithm (see :meth:`TspgAlgorithm.run`): an
        expired-on-arrival query returns a ``timed_out`` result before any
        phase — or even the cache — is touched, and an in-flight one cuts
        itself off at the algorithm's documented check points.  A
        ``timed_out`` outcome is never memoized.
        """
        self._ensure_current()
        resolved = self._resolve(algorithm)
        if deadline is not None and deadline.expired():
            # Deterministic admission refusal: even a cache hit is not
            # served past the deadline, so an expired query's outcome does
            # not depend on what happens to be cached.
            return resolved.run(
                self._graph, query.source, query.target, query.interval,
                deadline=deadline,
            )
        key: Optional[CacheKey] = None
        if use_cache:
            key = self._cache_key(query, resolved)
            started = time.perf_counter()
            cached = self._cache.get(key)
            if cached is not None:
                return AlgorithmResult(
                    algorithm=cached.algorithm,
                    result=cached.result,
                    elapsed_seconds=time.perf_counter() - started,
                    space_cost=cached.space_cost,
                    timed_out=cached.timed_out,
                    extras={**cached.extras, "cache_hit": True},
                )
        outcome = resolved.run(
            self._graph, query.source, query.target, query.interval,
            deadline=deadline,
        )
        # Never memoize a cut-off run: a timed-out (possibly partial) result
        # would be served for every future repeat of the query.
        if use_cache and not outcome.timed_out:
            self._cache.put(key, outcome)
        return outcome

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
    ) -> BatchReport:
        """Answer a batch of queries, optionally in parallel.

        Parameters
        ----------
        queries:
            The batch; a :class:`QueryWorkload` is accepted directly.
        max_workers:
            Worker-pool width; ``1`` (the default from the constructor)
            executes serially in submission order.
        time_budget_seconds:
            Wall-clock budget for the whole batch.  Queries that have not
            *started* when the budget expires are reported as skipped
            (``BatchItem.skipped``) and the report is flagged ``timed_out`` —
            the batch analogue of the paper's 12-hour "INF" cut-off.  The
            budget also travels into every query as a cooperative
            :class:`~repro.core.deadline.Deadline`, so an in-flight query
            cuts itself off promptly (a ``timed_out`` outcome) instead of
            occupying its worker past the budget.
        deadline:
            An explicit absolute cut-off, for callers that already hold a
            :class:`Deadline` (the serve loop's per-request deadlines).
            When both this and ``time_budget_seconds`` are given the
            stricter instant wins.
        executor:
            ``"threads"`` (default) or ``"processes"``.  The process backend
            fans contiguous chunks of the batch out to a
            ``ProcessPoolExecutor`` whose workers boot from this service's
            snapshot (:meth:`from_snapshot`) — true multi-core parallelism
            for the GIL-bound hot path.  It degrades to threads
            automatically when no current snapshot is attached or the
            algorithm is an unregistered instance;
            :attr:`BatchReport.executor` records the backend actually used.

        Returns
        -------
        BatchReport
            Per-query outcomes aligned with the input order plus wall-clock
            and throughput aggregates.  Results are identical regardless of
            worker count and backend: every query runs against the same
            immutable warmed graph (or a snapshot-booted copy of it), and
            result objects are frozen.
        """
        query_list = list(queries)
        self._ensure_current()
        resolved = self._resolve(algorithm)
        workers = max_workers if max_workers is not None else self._max_workers
        if workers < 1:
            raise ValueError("max_workers must be at least 1")
        executor_kind = _validate_executor(
            executor if executor is not None else self._default_executor
        )
        budget_deadline = Deadline.from_budget(time_budget_seconds)
        if budget_deadline is not None:
            deadline = budget_deadline.earlier(deadline)
        report = BatchReport(
            algorithm=resolved.name,
            items=[BatchItem(query=query) for query in query_list],
            num_workers=workers,
        )
        started = time.perf_counter()
        if workers == 1 or len(query_list) <= 1:
            self._run_batch_serial(report, resolved, use_cache, deadline)
        elif executor_kind == "processes" and self._process_backend_ready(algorithm):
            self._run_batch_processes(
                report, algorithm, resolved, workers, use_cache, deadline
            )
        else:
            self._run_batch_parallel(report, resolved, workers, use_cache, deadline)
        if deadline is not None and deadline.expired() and report.num_timed_out:
            # Queries the deadline cut off mid-flight are budget expiry too,
            # exactly like the skipped-before-start case.
            report.timed_out = True
        report.wall_seconds = time.perf_counter() - started
        return report

    def _process_backend_ready(self, algorithm: Optional[AlgorithmSpec]) -> bool:
        """Whether a ``processes`` request can actually use the process pool.

        Requires a snapshot taken at the current graph epoch (workers boot
        from it) and a registry-name algorithm (instances are configured
        in-process and are not shipped across the boundary).  When this is
        ``False`` the batch silently runs on the thread backend instead.
        """
        return (
            self._snapshot_path is not None
            and self._snapshot_epoch == self._graph.epoch
            and not isinstance(algorithm, TspgAlgorithm)
        )

    def _run_one(
        self,
        item: BatchItem,
        algorithm: TspgAlgorithm,
        use_cache: bool,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Execute one batch item in place (runs on a worker thread)."""
        started = time.perf_counter()
        outcome = self.submit(
            item.query, algorithm, use_cache=use_cache, deadline=deadline
        )
        item.outcome = outcome
        item.cache_hit = bool(outcome.extras.get("cache_hit"))
        item.elapsed_seconds = time.perf_counter() - started

    def _run_batch_serial(
        self,
        report: BatchReport,
        algorithm: TspgAlgorithm,
        use_cache: bool,
        deadline: Optional[Deadline],
    ) -> None:
        for item in report.items:
            if deadline is not None and deadline.expired():
                item.skipped = True
                report.timed_out = True
                continue
            self._run_one(item, algorithm, use_cache, deadline)

    def _run_batch_parallel(
        self,
        report: BatchReport,
        algorithm: TspgAlgorithm,
        workers: int,
        use_cache: bool,
        deadline: Optional[Deadline],
    ) -> None:
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="tspg-batch"
        ) as executor:
            futures: Dict[Future, BatchItem] = {
                executor.submit(
                    self._run_one, item, algorithm, use_cache, deadline
                ): item
                for item in report.items
            }
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline.remaining()
            #: Items still in flight at the budget cut-off (uncancellable).
            late: List[BatchItem] = []
            done, not_done = wait(futures, timeout=remaining, return_when=FIRST_EXCEPTION)
            failed = any(
                not future.cancelled() and future.exception() is not None
                for future in done
            )
            if failed:
                # A worker blew up: cancel whatever has not started so the
                # error surfaces promptly (raised below, after the pool
                # joins).  This is not a budget cut-off — neither `skipped`
                # nor `timed_out` is touched, so an error can never
                # masquerade as a clean budget skip.
                for future in not_done:
                    future.cancel()
            else:
                # `wait` only returns with pending futures (and no failure)
                # when the timeout fired, i.e. the budget actually expired.
                # Queries that never started (cancel succeeds) are true
                # budget skips.  In-flight ones finish (threads cannot be
                # interrupted): a cooperative algorithm cuts itself off
                # and delivers a `timed_out` row — the same label the
                # serial and process backends give it — while one that
                # runs to a late non-timed-out result is marked skipped
                # below, because the batch did not deliver it on time.
                for future in not_done:
                    if future.cancel():
                        futures[future].skipped = True
                    else:
                        late.append(futures[future])
                    report.timed_out = True
        # The pool has joined: every non-cancelled future — including ones
        # that were in flight at the budget cut-off — is finished, so worker
        # exceptions surface instead of masquerading as budget skips.
        for future in futures:
            if future.cancelled():
                continue
            exc = future.exception()
            if exc is not None:
                raise exc
        if not failed:
            for item in late:
                if item.outcome is not None and not item.outcome.timed_out:
                    item.skipped = True

    def _cache_lookup(self, item: BatchItem, resolved: TspgAlgorithm) -> bool:
        """Fill ``item`` from the result cache; ``True`` on a hit.

        The parent-side peek the process backend uses so memoized queries
        never cross the process boundary (worker processes cannot see this
        cache); mirrors :meth:`submit`'s hit path exactly.
        """
        key = self._cache_key(item.query, resolved)
        started = time.perf_counter()
        cached = self._cache.get(key)
        if cached is None:
            return False
        item.outcome = AlgorithmResult(
            algorithm=cached.algorithm,
            result=cached.result,
            elapsed_seconds=time.perf_counter() - started,
            space_cost=cached.space_cost,
            timed_out=cached.timed_out,
            extras={**cached.extras, "cache_hit": True},
        )
        item.cache_hit = True
        item.elapsed_seconds = item.outcome.elapsed_seconds
        return True

    def _cache_store(self, item: BatchItem, resolved: TspgAlgorithm) -> None:
        """Memoize a worker-computed outcome in the parent's cache.

        Counterpart of :meth:`_cache_lookup`: results shipped back from a
        worker process would otherwise die with its pool, making repeat
        batches recompute everything.  Skips, cut-offs and hits are never
        stored (same rules as :meth:`submit`).
        """
        outcome = item.outcome
        if outcome is None or outcome.timed_out or item.cache_hit or item.skipped:
            return
        self._cache.put(self._cache_key(item.query, resolved), outcome)

    def _active_pool(self) -> Optional[WorkerPool]:
        """The attached persistent pool, if it can still serve."""
        return _usable_pool(self._pool)

    def process_fallback_reasons(
        self,
        algorithm: Optional[AlgorithmSpec] = None,
        max_workers: Optional[int] = None,
    ) -> List[str]:
        """Why a ``processes`` batch request would degrade to threads.

        Returns human-readable reasons, empty when the process backend
        would engage.  The CLI renders these in its explanatory note; the
        degrade itself stays silent on the API (the report's
        :attr:`BatchReport.executor` field records what actually ran).
        """
        workers = max_workers if max_workers is not None else self._max_workers
        reasons = _common_fallback_reasons(workers, algorithm)
        if self._snapshot_path is None:
            reasons.append(
                "no snapshot is attached (boot via TspgService.from_snapshot "
                "or 'tspg warm') so workers have nothing to boot from"
            )
        elif self._snapshot_epoch != self._graph.epoch:
            reasons.append(
                "the graph mutated after the snapshot was taken (stale "
                "epoch); re-warm to re-attach"
            )
        return reasons

    @property
    def snapshot_mmap_active(self) -> bool:
        """Whether this service booted over an mmap-backed snapshot."""
        return self._snapshot_mmap

    @property
    def residency(self):
        """The attached :class:`~repro.store.ResidencyPolicy`, or ``None``."""
        return self._residency

    @property
    def snapshot_boot(self):
        """The :class:`~repro.store.SnapshotBoot` this service booted from.

        Carries the extent-local accounting (``row_range``,
        ``mapped_column_bytes``, ``total_column_bytes``); ``None`` for
        services not built by :meth:`from_snapshot`.
        """
        return self._snapshot_boot

    def residency_stats(self) -> Optional[Dict[str, object]]:
        """Page-advice counters, or ``None`` when no policy is attached."""
        if self._residency is None:
            return None
        stats = self._residency.stats()
        boot = self._snapshot_boot
        if boot is not None:
            stats["mapped_column_bytes"] = boot.mapped_column_bytes
            stats["total_column_bytes"] = boot.total_column_bytes
            stats["row_range"] = boot.row_range
        return stats

    def evict_cold_pages(self) -> int:
        """``MADV_DONTNEED`` the boot's mappings; returns bytes advised.

        The ``tspg serve`` loop calls this periodically so a long-running
        server's resident set tracks the recent query mix instead of
        accreting every page ever touched.  A no-op (returning 0) without a
        policy or on platforms without madvise support.
        """
        if self._residency is None:
            return 0
        return self._residency.evict_cold()

    def mmap_fallback_reasons(self) -> List[str]:
        """Why the boot is not mmap-backed (empty when it is).

        Mirrors :meth:`process_fallback_reasons`: human-readable reasons
        the CLI renders, never an exception.  When ``mmap=True`` was
        passed to :meth:`from_snapshot` but the boot degraded to eager,
        each degradation is listed (e.g. a pre-v4 snapshot); when mmap was
        never requested the single reason says so.
        """
        if not self._snapshot_mmap_requested:
            return ["mmap boot was not requested (pass mmap=True / --mmap)"]
        return list(self._snapshot_mmap_reasons)

    def _run_batch_processes(
        self,
        report: BatchReport,
        algorithm: Optional[AlgorithmSpec],
        resolved: TspgAlgorithm,
        workers: int,
        use_cache: bool,
        deadline: Optional[Deadline],
    ) -> None:
        """Fan contiguous chunks of the batch out to snapshot-booted processes.

        Each worker boots a :class:`TspgService` from :attr:`_snapshot_path`
        (cached per worker process), answers its chunk serially, and ships
        the sub-report back; chunks are merged in submission order, so the
        merged report is bit-identical to a serial run.  The parent's result
        cache stays authoritative: hits are answered here before anything is
        shipped, and worker outcomes are stored back on return, so repeat
        batches keep their dictionary-lookup cost.  Worker exceptions
        re-raise here via ``Future.result()``.

        With a persistent :class:`WorkerPool` attached the chunks are
        submitted to its long-lived workers (whose booted services survive
        from previous batches) and nothing is torn down afterwards;
        otherwise a per-batch ``ProcessPoolExecutor`` is built and shut
        down around the fan-out, as before.
        """
        name = algorithm if isinstance(algorithm, str) else None
        pending = list(range(len(report.items)))
        # Mirror submit()'s admission contract: past the deadline not even
        # a cache hit is served, so the refusal a worker will produce does
        # not depend on what happens to be cached (and the report matches
        # the thread/serial backends for identical input).
        if use_cache and not (deadline is not None and deadline.expired()):
            pending = [
                position
                for position in pending
                if not self._cache_lookup(report.items[position], resolved)
            ]
        if not pending:
            # Everything was answered from the cache — no worker ran, so
            # the report keeps the default backend label.
            return
        report.executor = "processes"
        deadline_at = deadline.at_monotonic if deadline is not None else None
        chunks = [
            [pending[offset] for offset in chunk]
            for chunk in _chunk_positions(len(pending), workers)
        ]
        persistent = self._active_pool()
        batch_pool: Optional[ProcessPoolExecutor] = None
        if persistent is None:
            batch_pool = ProcessPoolExecutor(max_workers=len(chunks))
            submit = batch_pool.submit
            harvest = Future.result
        else:
            submit = persistent.submit
            harvest = persistent.harvest
        submitted: List[Tuple[List[int], Future]] = []
        try:
            for chunk in chunks:
                submitted.append(
                    (
                        chunk,
                        submit(
                            _snapshot_worker_run_batch,
                            self._snapshot_path,
                            [report.items[position].query for position in chunk],
                            name,
                            default_algorithm=self._default_algorithm,
                            algorithm_options=self._algorithm_options,
                            use_cache=use_cache,
                            deadline_at=deadline_at,
                            snapshot_epoch=self._snapshot_epoch,
                            snapshot_mmap=self._snapshot_mmap,
                            snapshot_interval=self._snapshot_interval,
                            snapshot_residency=self._residency is not None,
                        ),
                    )
                )
            for chunk, future in submitted:
                sub_report = harvest(future)  # re-raises worker exceptions
                report.timed_out = report.timed_out or sub_report.timed_out
                for position, item in zip(chunk, sub_report.items):
                    report.items[position] = item
                    if use_cache:
                        self._cache_store(item, resolved)
        finally:
            if batch_pool is not None:
                # cancel_futures is a no-op on the success path (every
                # future already resolved); on an exception it stops queued
                # chunks from computing results that would only be
                # discarded.  A persistent pool is never shut down here —
                # keeping its workers (and their booted services) alive
                # across batches is its whole point.
                batch_pool.shutdown(cancel_futures=True)
            elif persistent is not None:
                # The persistent-pool analogue of cancel_futures: when an
                # exception aborts the merge, queued chunks of this batch
                # must not keep occupying the shared workers just to have
                # their results discarded.  cancel() is a no-op for
                # resolved futures, so the success path is unaffected.
                for _chunk, future in submitted:
                    future.cancel()
                persistent.note_batch()
