"""The batch query service: many queries over one graph, reusable work.

:class:`TspgService` is the serving layer over the VUG pipeline.  Under
the paper's temporal-path constraint a query's tspG uses only the edges
timestamped inside its window, so any engine whose graph holds every
edge of that window answers it exactly.  A service is therefore a
*router* over a tuple of engines: each engine warms one graph's indices
once per epoch (sorted edge list, distinct timestamps and the frozen
columnar :class:`~repro.graph.views.GraphView` the query pipeline runs
on), memoizes results in a bounded LRU keyed by ``(source, target,
interval, algorithm, epoch)``, and runs queries serially.
A flat service — this class's own constructors — is the one-shard case:
one engine over the source graph itself, with no projection, no
fallback and no union.  :class:`~repro.service.sharding.ShardedTspgService`
adds time-range partitioning, the lazy full-graph fallback and the
shard-set lifecycle; every other surface is written once, here.

Batches (:meth:`TspgService.run_batch`) are grouped by routed engine and
run one of two ways.  With an open :class:`~repro.service.pool.WorkerPool`
attached, a current snapshot behind every engine, ``max_workers > 1`` and
more than one query the parent's cache cannot answer (the exact rule is
on :meth:`TspgService.run_batch`), they fan out to the pool's long-lived
worker processes, which boot their own service from the snapshot file
each engine was booted from: true multi-core parallelism for the
GIL-bound hot path.  Otherwise they run serially on the calling thread.  Batch budgets and per-query
cut-offs travel as cooperative :class:`~repro.core.deadline.Deadline`
objects into the algorithms, so an expired query yields a ``timed_out``
row promptly instead of squatting on a worker past the budget.

Every algorithm registered in :mod:`repro.algorithms` is available by name;
instances are created once per service and shared across engines and
the serving tier's threads — legal because every
:meth:`~repro.baselines.interface.TspgAlgorithm.compute` implementation in
the library keeps its state on the stack.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..algorithms import get_algorithm
from ..baselines.interface import AlgorithmResult, TspgAlgorithm
from ..core.deadline import Deadline
from ..graph.edge import TimeInterval, Vertex
from ..graph.temporal_graph import EdgeDelta, TemporalGraph
from ..queries.query import QueryWorkload, TspgQuery
from .cache import CacheKey, CacheStats, ResultCache
from .pool import WorkerPool

AlgorithmSpec = Union[str, TspgAlgorithm]

#: Default capacity of each engine's result cache.
DEFAULT_CACHE_SIZE = 1024

#: Routing key of a router's full-graph fallback engine.
FALLBACK_SHARD = -1


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
#: and options are part of the key because the pool outlives
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
    Tuple[str, Optional[int], str, str, bool],
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
) -> BatchReport:
    """Pool worker: boot from a snapshot, answer a sub-batch serially.

    Runs inside a :class:`~repro.service.pool.WorkerPool` worker.
    Everything crossing the process boundary is picklable by construction:
    the snapshot *path* in, frozen :class:`~repro.queries.query.TspgQuery`
    dataclasses in, and a plain :class:`BatchReport` of frozen results out.

    The batch budget crosses as an absolute ``deadline_at`` instant on the
    monotonic clock rather than a duration: a chunk may sit queued behind
    a full pool, and a duration captured at submit time would silently
    extend the whole batch past its budget.  ``time.monotonic()`` is
    system-wide per boot, so the reconstructed :class:`Deadline` marks the
    same instant in a (local) worker — and travels on into the
    algorithms, so a query the budget has expired on cuts itself off
    inside this worker too.

    The module-level service cache outlives the batch: the second batch
    served by this worker finds its booted service (warmed view, result
    cache and all) already here.

    ``snapshot_mmap`` propagates the parent's active mmap boot: each
    worker then maps the same snapshot file instead of unpickling a
    private copy, so the column payload lives once in the page cache no
    matter how many workers serve from it.
    """
    cache_key = (
        snapshot_path,
        snapshot_epoch,
        default_algorithm,
        repr(algorithm_options),
        bool(snapshot_mmap),
    )
    file_sig = _snapshot_file_signature(snapshot_path)
    cached = _WORKER_SERVICES.get(cache_key)
    if cached is not None and cached[1] == file_sig:
        service = cached[0]
    else:
        service = TspgService.from_snapshot(
            snapshot_path,
            mmap=snapshot_mmap,
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
                f"re-warm and re-attach before running batches on the pool"
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
        queries, algorithm, use_cache=use_cache, deadline=deadline
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
        """``True`` when the query ran: it was not skipped by the batch budget.

        A query the budget cut off mid-run completes with a ``timed_out``
        outcome (see :attr:`BatchReport.num_timed_out`).
        """
        return self.outcome is not None


@dataclass
class BatchReport:
    """Aggregated outcome of one :meth:`TspgService.run_batch` call."""

    algorithm: str
    items: List[BatchItem] = field(default_factory=list)
    wall_seconds: float = 0.0
    num_workers: int = 1
    timed_out: bool = False
    #: Where the computed queries ran: ``"processes"`` when the batch fanned
    #: out over the service's attached :class:`~repro.service.pool.WorkerPool`,
    #: ``"serial"`` when it ran on the calling thread.  A batch runs
    #: serially whenever any of these holds:
    #:
    #: * **no open pool** — none is attached, or the attached one is closed;
    #: * **serial request** — ``max_workers=1``;
    #: * **instance algorithm** — the algorithm was passed as a configured
    #:   instance rather than a registry name and cannot be shipped across
    #:   the process boundary;
    #: * **no snapshot** — the service was not booted via
    #:   :meth:`TspgService.from_snapshot` (flat) /
    #:   ``save_shards``/``from_shard_snapshots`` (sharded), so workers
    #:   have no file to boot from;
    #: * **stale snapshot** — the graph mutated since the snapshot was
    #:   taken (the epoch guard), so workers would boot an old edge set;
    #: * **≤1 query left** — after the parent-side result cache answered
    #:   its hits, at most one query needed computing.
    #:
    #: :meth:`TspgService.process_fallback_reasons` reports which of the
    #: first five applies (the CLI's explanatory note is built from it);
    #: ``as_row()`` exposes this field as the ``executor`` column.
    executor: str = "serial"

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
            if item.outcome is not None and item.outcome.timed_out
        )

    @property
    def queries_per_second(self) -> float:
        """Completed-query throughput over the batch's wall-clock time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.num_completed / self.wall_seconds

    def results(self) -> List[Optional[AlgorithmResult]]:
        """Per-query outcomes aligned with the submitted order (``None`` = skipped)."""
        return [item.outcome for item in self.items]

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


@dataclass(frozen=True)
class _Topology:
    """One self-consistent routing table: shard specs, engines, span, epoch.

    Swapped in one assignment, so a reader never mixes the specs of one
    epoch with the engines of another.  A flat service's topology has no
    shard specs and exactly one engine; ``epoch`` is the service epoch
    the table describes.
    """

    shards: Tuple[object, ...]
    engines: Tuple["_Engine", ...]
    span: Optional[TimeInterval]
    epoch: int


class _Engine:
    """One warmed graph behind one result cache: what a service routes to.

    An engine has three jobs.  It *warms* its graph's indices, rewarming
    once per graph epoch with delta-aware cache invalidation.  It
    *caches* results in an LRU whose keys embed the warmed epoch, and
    answers the lock-free :meth:`ready_within` verdict.  It *runs* one
    query, or a batch serially, and keeps the time its caller recorded
    for its last miss.  The owning service resolves algorithm names and
    hands instances in.  ``snapshot_path`` names the file a pool worker
    boots an identical engine from; ``None`` when there is none.
    """

    def __init__(self, graph: TemporalGraph, cache_size: int) -> None:
        self.graph = graph
        self._cache: ResultCache[AlgorithmResult] = ResultCache(cache_size)
        # Guards the rewarm transition so concurrent queries observing a
        # stale epoch rewarm exactly once.  The owning service's ingest
        # holds it from the append to the epoch publish.
        self._rewarm_lock = threading.Lock()
        # Instances that took part in cache keys, pinned by id().  Keys embed
        # id(instance) so same-named but differently-configured algorithms
        # never share entries; pinning prevents id reuse after garbage
        # collection from aliasing a dead instance's entries.
        self._pinned: Dict[int, TspgAlgorithm] = {}
        self._pin_lock = threading.Lock()
        #: Sizes of the warmed indices (see :meth:`TemporalGraph.warm_indices`).
        self.index_stats: Dict[str, int] = graph.warm_indices()
        #: The graph epoch the warmed indices (and cache entries) describe.
        self.warmed_epoch: int = graph.epoch
        self.snapshot_path: Optional[str] = None
        #: Seconds the last recorded miss held its caller's thread (0.0
        #: until one is recorded); see :meth:`TspgService.record_miss`.
        self.last_miss_seconds: float = 0.0

    # ------------------------------------------------------------------
    # warm
    # ------------------------------------------------------------------
    def ensure_current(self) -> None:
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
        if self.graph.epoch == self.warmed_epoch:
            return
        with self._rewarm_lock:
            if self.graph.epoch == self.warmed_epoch:
                return  # another thread already rewarmed
            deltas = self.graph.deltas_since(self.warmed_epoch)
            if deltas:
                self._invalidate_for_deltas(deltas)
            else:
                self.clear_cache()
            self.index_stats = self.graph.warm_indices()
            self.warmed_epoch = self.graph.epoch

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
        new_epoch = self.graph.epoch

        def transform(key):
            source, target, interval, algorithm_id, _epoch = key
            begin, end = interval
            if end >= lo and begin <= hi:
                return None  # window sees appended timestamps
            if source in fresh_vertices or target in fresh_vertices:
                return None  # endpoint did not exist before the append
            return (source, target, interval, algorithm_id, new_epoch)

        return self._cache.rekey(transform)

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        self._cache.clear()
        with self._pin_lock:
            self._pinned.clear()

    def _cache_key(self, query: TspgQuery, algorithm: TspgAlgorithm) -> CacheKey:
        with self._pin_lock:
            self._pinned.setdefault(id(algorithm), algorithm)
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
            self.warmed_epoch,
        )

    def ready_within(
        self, query: TspgQuery, algorithm: TspgAlgorithm, seconds: float
    ) -> bool:
        """Lock-free, side-effect-free: see :meth:`TspgService.ready_within`."""
        graph = self.graph
        if graph.epoch != self.warmed_epoch:
            return False
        if self._unpinned_key(query, algorithm) in self._cache:
            return True
        return (
            algorithm.bounded_by_deadline
            and self.last_miss_seconds < seconds
            and graph.view_is_built()
        )

    def _lookup(self, key: CacheKey) -> Optional[AlgorithmResult]:
        """The cached outcome for ``key`` as a hit, timed as the lookup."""
        started = time.perf_counter()
        cached = self._cache.get(key)
        if cached is None:
            return None
        return AlgorithmResult(
            algorithm=cached.algorithm,
            result=cached.result,
            elapsed_seconds=time.perf_counter() - started,
            space_cost=cached.space_cost,
            timed_out=cached.timed_out,
            extras={**cached.extras, "cache_hit": True},
        )

    def cache_lookup(self, item: "BatchItem", algorithm: TspgAlgorithm) -> bool:
        """Fill ``item`` from the cache; ``True`` on a hit.

        The parent-side peek a pool batch takes so memoized queries never
        cross the process boundary (worker processes cannot see this
        cache); mirrors :meth:`submit`'s hit path exactly.
        """
        hit = self._lookup(self._cache_key(item.query, algorithm))
        if hit is None:
            return False
        item.outcome = hit
        item.cache_hit = True
        item.elapsed_seconds = hit.elapsed_seconds
        return True

    def cache_store(self, item: "BatchItem", algorithm: TspgAlgorithm) -> None:
        """Memoize a worker-computed outcome (same rules as :meth:`submit`).

        Results shipped back from a worker process would otherwise die with
        its pool, making repeat batches recompute everything.  Skips,
        cut-offs and hits are never stored.
        """
        outcome = item.outcome
        if outcome is None or outcome.timed_out or item.cache_hit:
            return
        self._cache.put(self._cache_key(item.query, algorithm), outcome)

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def submit(
        self,
        query: TspgQuery,
        algorithm: TspgAlgorithm,
        use_cache: bool = True,
        deadline: Optional[Deadline] = None,
        slice_seconds: Optional[float] = None,
        lookup: bool = True,
    ) -> AlgorithmResult:
        """Answer one query (see :meth:`TspgService.submit`)."""
        self.ensure_current()
        if deadline is not None and deadline.expired():
            # Deterministic admission refusal: even a cache hit is not
            # served past the deadline, so an expired query's outcome does
            # not depend on what happens to be cached.
            return algorithm.run(
                self.graph, query.source, query.target, query.interval,
                deadline=deadline,
            )
        key: Optional[CacheKey] = None
        if use_cache:
            # The key is taken before the run: it embeds the epoch the run
            # starts from, so a rewarm racing the run cannot re-label it.
            key = self._cache_key(query, algorithm)
            if lookup:
                hit = self._lookup(key)
                if hit is not None:
                    return hit
        run_deadline = deadline
        if slice_seconds is not None:
            run_deadline = Deadline.after(slice_seconds).earlier(deadline)
        outcome = algorithm.run(
            self.graph, query.source, query.target, query.interval,
            deadline=run_deadline,
        )
        # Never memoize a cut-off run: a timed-out (possibly partial) result
        # would be served for every future repeat of the query.
        if use_cache and not outcome.timed_out:
            self._cache.put(key, outcome)
        return outcome

    def run_batch(
        self,
        report: "BatchReport",
        algorithm: TspgAlgorithm,
        use_cache: bool,
        deadline: Optional[Deadline],
        lookup: bool = True,
    ) -> None:
        """Answer ``report``'s items in place, serially, in order.

        An item the deadline finds expired before it starts is skipped and
        flags the report ``timed_out``.  ``lookup=False`` (items whose
        cache lookup already missed) is passed on to :meth:`submit`.
        """
        for item in report.items:
            if deadline is not None and deadline.expired():
                item.skipped = True
                report.timed_out = True
                continue
            started = time.perf_counter()
            outcome = self.submit(
                item.query, algorithm, use_cache, deadline, lookup=lookup
            )
            item.outcome = outcome
            item.cache_hit = bool(outcome.extras.get("cache_hit"))
            item.elapsed_seconds = time.perf_counter() - started


class TspgService:
    """Serve many ``tspG`` queries over one temporal graph.

    A service routes every query to one of its engines (see the module
    docstring).  The constructors here build a *flat* service: one engine
    over ``graph`` itself.  :class:`~repro.service.ShardedTspgService`
    builds the N-shard router on the same surfaces.

    Parameters
    ----------
    graph:
        The temporal graph every query runs against.  The service warms the
        graph on construction (folding anything staged into its view), so
        the first query (and every concurrent query) starts from a built
        view.
    default_algorithm:
        Algorithm name used when a call does not specify one.
    cache_size:
        Capacity of the LRU result cache (``0`` disables memoization).
    max_workers:
        Default worker count for :meth:`run_batch`; ``1`` means serial.
    pool:
        Optional :class:`~repro.service.pool.WorkerPool`.  While it is
        attached and open, :meth:`run_batch` fans batches out over its
        long-lived workers whenever a current snapshot lets them boot the
        graph (see :meth:`from_snapshot`); without one, or once it is
        closed, batches run serially.
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

    #: How :meth:`process_fallback_reasons` names an absent or stale snapshot.
    _NO_SNAPSHOT_REASON = (
        "no snapshot is attached (boot via TspgService.from_snapshot "
        "or 'tspg warm') so workers have nothing to boot from"
    )
    _STALE_SNAPSHOT_REASON = (
        "the graph mutated after the snapshot was taken (stale "
        "epoch); re-warm to re-attach"
    )
    #: Whether pool workers replay the ingest journal.  A flat
    #: snapshot's journal is the file's own sidecar, which every boot of
    #: the file replays, so a journaled ingest keeps the workers current.
    _WORKERS_REPLAY_JOURNAL = True

    def __init__(
        self,
        graph: TemporalGraph,
        *,
        default_algorithm: str = "VUG",
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_workers: int = 1,
        pool: Optional[WorkerPool] = None,
        algorithm_options: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> None:
        self._init_runtime(
            graph,
            default_algorithm=default_algorithm,
            cache_size=cache_size,
            max_workers=max_workers,
            pool=pool,
            algorithm_options=algorithm_options,
        )
        self._topology = _Topology((), (self._new_engine(graph),), None, graph.epoch)

    def _init_runtime(
        self,
        graph: Optional[TemporalGraph],
        *,
        default_algorithm: str,
        cache_size: int,
        max_workers: int,
        pool: Optional[WorkerPool],
        algorithm_options: Optional[Dict[str, Dict[str, object]]],
    ) -> None:
        """State every service shape shares; the engines come after."""
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        # The source graph; None on a router booted from shard snapshots
        # until something needs the union of its shard graphs.
        self._graph = graph
        self._default_algorithm = default_algorithm
        self._cache_size = cache_size
        self._max_workers = max_workers
        self._pool = pool
        self._algorithm_options = {
            name: dict(opts) for name, opts in (algorithm_options or {}).items()
        }
        self._algorithms: Dict[str, TspgAlgorithm] = {}
        self._algorithms_lock = threading.Lock()
        # Orders the service's transitions: ingest, a repartition, the lazy
        # union and fallback builds, and a shard generation swap.  Ingest
        # also holds every engine's rewarm lock from the append through the
        # journal write to the epoch publish, so a query that needs the new
        # state waits for all of it.
        self._rewarm_lock = threading.RLock()
        # The service epoch the attached snapshot files reproduce for
        # pool workers (None: nothing attached) and how they booted.
        self._snapshot_epoch: Optional[int] = None
        self._snapshot_mmap_requested = False
        self._snapshot_mmap = False
        self._snapshot_mmap_reasons: List[str] = []
        # Where ingest journals its deltas, and the epoch the journal chain
        # ends at (None: not journaling).
        self._journal_base: Optional[str] = None
        self._journal_epoch: Optional[int] = None

    def _new_engine(self, graph: TemporalGraph) -> _Engine:
        return _Engine(graph, self._cache_size)

    # ------------------------------------------------------------------
    # alternate constructor: boot from a snapshot file
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(cls, path, *, mmap: bool = False, **kwargs) -> "TspgService":
        """Boot a service from a binary index snapshot in O(read).

        The snapshot (written by :func:`repro.store.save_snapshot` or the
        ``tspg warm`` command) already contains every warmed index, so no
        edge is re-inserted or re-sorted; construction cost is dominated by
        reading and decoding the file.  Raises
        :class:`~repro.store.SnapshotError` on a corrupt or incompatible
        file.

        ``mmap=True`` requests the zero-copy columnar boot: the file is
        mapped instead of read and the view columns serve straight out of
        the page cache, so boot cost and resident memory scale with the
        pages queries actually touch.  A boot that cannot map degrades to
        eager with the reasons recorded on :meth:`mmap_fallback_reasons` —
        a readable snapshot always boots, and always whole.

        The snapshot path is remembered: it is what :meth:`run_batch`
        hands to the attached pool's workers so each can boot an identical
        service in O(read) — with ``mmap`` active, workers map the very
        same file, sharing its page-cache pages instead of re-unpickling a
        private copy per process — and where :meth:`ingest` journals its
        deltas.  The association is epoch-guarded — mutating the graph
        outside :meth:`ingest` makes batches run serially (workers would
        boot a stale graph) until a fresh snapshot is attached.
        """
        from ..store import snapshot  # deferred: cycle

        path = os.fspath(path)
        # Looked up on the module at call time, where perfbench's traced
        # launcher wraps it.
        boot = snapshot.boot_snapshot(path, mmap=mmap)
        graph = boot.graph
        service = cls(graph, **kwargs)
        for engine in service._topology.engines:
            if engine.graph is graph:  # not a projection of it
                engine.snapshot_path = path
        service._snapshot_epoch = service._journal_epoch = graph.epoch
        service._journal_base = path
        service._snapshot_mmap_requested = bool(mmap)
        service._snapshot_mmap = boot.mmap_active
        service._snapshot_mmap_reasons = list(boot.fallback_reasons)
        return service

    # ------------------------------------------------------------------
    # routing hooks: the flat service is the one-shard case
    # ------------------------------------------------------------------
    def _build_topology(self) -> _Topology:
        """The topology for the source graph's current epoch.

        The flat service keeps its one engine, which rewarms itself; a
        router repartitions.
        """
        return replace(self._topology, epoch=self._graph.epoch)

    def _current_topology(self) -> _Topology:
        """A self-consistent topology, rebuilt once after a mutation.

        Only a source graph that moved past the published epoch (a
        mutation outside :meth:`ingest`) triggers a rebuild.  A router
        booted from shard snapshots has no source graph until the union is
        asked for; its published topology is always current.
        """
        topology = self._topology
        graph = self._graph
        if graph is None or graph.epoch == topology.epoch:
            return topology
        with self._rewarm_lock:
            topology = self._topology
            if self._graph.epoch != topology.epoch:
                topology = self._build_topology()
                self._topology = topology
            return topology

    @staticmethod
    def _route_in(topology: _Topology, interval) -> int:
        """Index of the engine that answers ``interval`` (flat: the one)."""
        return 0

    def _engine_in(
        self, topology: _Topology, index: int, build: bool = True
    ) -> Optional[_Engine]:
        """The engine behind route ``index``."""
        return topology.engines[index]

    def _built_engines(self) -> List[_Engine]:
        """Every engine built so far (what the stats aggregate over)."""
        return list(self._current_topology().engines)

    def _new_report(
        self, algorithm: str, items: List[BatchItem], workers: int, groups
    ) -> BatchReport:
        return BatchReport(algorithm=algorithm, items=items, num_workers=workers)

    def _append(self, edges) -> Tuple[EdgeDelta, _Topology]:
        """Apply an ingest batch; return its delta and the topology to publish."""
        delta = self._graph.append_edges(edges)
        return delta, self._build_topology()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TemporalGraph:
        """The graph this service answers queries about.

        A router booted by
        :meth:`~repro.service.ShardedTspgService.from_shard_snapshots` has
        none until first asked; this accessor then materialises it as the
        union of the shard graphs.
        """
        if self._graph is None:
            with self._rewarm_lock:
                if self._graph is None:
                    self._graph = self._materialize_union()
        return self._graph

    def has_vertex(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` exists in the served graph — union-free.

        Callers that only need a membership probe (the CLI's vertex-label
        coercion) use this instead of :attr:`graph`: a router booted from
        shard snapshots answers from its shard graphs without
        materialising their union.
        """
        graph = self._graph
        if graph is not None:
            return graph.has_vertex(vertex)
        return self._has_vertex_union_free(vertex)

    @property
    def epoch(self) -> int:
        """Mutation epoch of the served graph (union-free).

        The serving tier stamps this onto every query response
        (``epoch_before`` / ``epoch_after``) so network clients can replay
        answers against a serial oracle while ingest runs concurrently.
        """
        graph = self._graph
        if graph is not None:
            return graph.epoch
        return self._topology.epoch

    @property
    def default_algorithm(self) -> str:
        """Name of the algorithm used when none is given."""
        return self._default_algorithm

    @property
    def index_stats(self) -> Dict[str, int]:
        """Warmed-index sizes, summed over the built engines."""
        totals: Dict[str, int] = {}
        for engine in self._built_engines():
            for key, value in engine.index_stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def cache_stats(self) -> CacheStats:
        """Result-cache counters, summed over the built engines."""
        totals = CacheStats()
        for engine in self._built_engines():
            stats = engine._cache.stats()
            totals.hits += stats.hits
            totals.misses += stats.misses
            totals.evictions += stats.evictions
            totals.size += stats.size
            totals.max_size += stats.max_size
        return totals

    @property
    def warmed_epoch(self) -> int:
        """Graph epoch the warmed indices describe.

        A router's shard engines warm their own projections; this is the
        oldest of their epochs.
        """
        return min(
            (engine.warmed_epoch for engine in self._built_engines()),
            default=self.epoch,
        )

    def clear_cache(self) -> None:
        """Drop all memoized results."""
        for engine in self._built_engines():
            engine.clear_cache()

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

    def _resolve(self, algorithm: Optional[AlgorithmSpec]) -> TspgAlgorithm:
        """Return a shared algorithm instance for a name (or pass one through)."""
        if isinstance(algorithm, TspgAlgorithm):
            return algorithm
        name = algorithm or self._default_algorithm
        instance = self._algorithms.get(name)
        if instance is None:
            with self._algorithms_lock:
                instance = self._algorithms.get(name)
                if instance is None:
                    options = self._algorithm_options.get(name, {})
                    instance = get_algorithm(name, **options)
                    self._algorithms[name] = instance
        return instance

    # ------------------------------------------------------------------
    # single queries
    # ------------------------------------------------------------------
    def ready_within(
        self,
        query: TspgQuery,
        algorithm: Optional[str] = None,
        seconds: float = 0.0,
    ) -> bool:
        """Whether :meth:`submit` would answer ``query`` now, within ``seconds``.

        The readiness verdict an event loop asks before it answers a query
        itself.  ``True`` only when nothing is pending for the routed
        engine — no rewarm or repartition, no algorithm instance or
        fallback engine to build — and the engine either holds the answer
        or is ready to compute it quickly: the algorithm polls its
        deadline in every phase (``bounded_by_deadline``), the graph's
        view needs no column built (:meth:`TemporalGraph.view_is_built`),
        and the engine's last recorded miss (:meth:`record_miss`) took
        less than ``seconds`` — an engine with none recorded yet qualifies.
        With the default ``seconds=0`` it answers whether the answer is
        cached.

        A non-blocking probe: it takes no lock and changes nothing — no
        hit or miss counted, no LRU move.  ``True`` is a hint, not a
        reservation: an ingest landing right after the probe turns a
        lookup into a miss, which ``submit`` then answers as usual.
        """
        topology = self._topology
        graph = self._graph
        if graph is not None and graph.epoch != topology.epoch:
            return False
        instance = self._algorithms.get(algorithm or self._default_algorithm)
        if instance is None:
            return False
        engine = self._engine_in(
            topology, self._route_in(topology, query.interval), build=False
        )
        return engine is not None and engine.ready_within(query, instance, seconds)

    def record_miss(self, query: TspgQuery, seconds: float) -> None:
        """Note that answering a miss on ``query`` held its caller ``seconds``.

        :meth:`ready_within` compares the routed engine's last such time
        with its bound.  The caller times its whole :meth:`submit` call,
        so whatever held its thread counts; a run that was cut off held it
        at least as long as the slice or deadline that stopped it.
        Lock-free: one attribute write on the routed engine, and nothing
        is built when that engine does not exist yet.
        """
        topology = self._topology
        engine = self._engine_in(
            topology, self._route_in(topology, query.interval), build=False
        )
        if engine is not None:
            engine.last_miss_seconds = seconds

    def submit(
        self,
        query: TspgQuery,
        algorithm: Optional[AlgorithmSpec] = None,
        *,
        use_cache: bool = True,
        deadline: Optional[Deadline] = None,
        slice_seconds: Optional[float] = None,
        lookup: bool = True,
    ) -> AlgorithmResult:
        """Answer one query on its engine, consulting and filling its cache.

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

        ``slice_seconds`` bounds a miss's run without bounding the query:
        the algorithm runs under a deadline ``slice_seconds`` from the
        start of the run, or under ``deadline`` if that comes first, so a
        run the slice cuts off comes back ``timed_out`` while ``deadline``
        is still open.  ``lookup=False`` skips the cache lookup but still
        memoizes the result: it finishes a query whose lookup already
        missed without counting a second miss.
        """
        topology = self._current_topology()
        engine = self._engine_in(topology, self._route_in(topology, query.interval))
        return engine.submit(
            query, self._resolve(algorithm), use_cache, deadline,
            slice_seconds, lookup,
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
    # live ingest
    # ------------------------------------------------------------------
    def ingest(self, edges) -> EdgeDelta:
        """Append edges through the journaled delta path and serve on.

        The live-ingest entry point.  A flat service applies ``edges`` via
        :meth:`TemporalGraph.append_edges` (its columnar view is
        *extended*, not rebuilt); a router applies
        each edge to every shard whose extent covers its timestamp.  When
        the service was booted from (or saved to) files, the delta is then
        recorded in their journal — the snapshot's ``*.tspgjournal``
        sidecar, or a shard set's ``ingest.tspgjournal`` — so a reboot
        replays it.  Caches invalidate delta-aware.  Returns the applied
        :class:`~repro.graph.temporal_graph.EdgeDelta`.

        The append, the journal write and the epoch publish all happen
        under the lock a query takes to rewarm, so no answer carries an
        ingested edge under the pre-ingest epoch.  A flat snapshot's
        journal is replayed by every boot of the file, so batches keep
        running on the pool across journaled ingests instead of serially.
        """
        from ..store.journal import append_journal_delta  # deferred: cycle

        with self._rewarm_lock, ExitStack() as held:
            for engine in self._built_engines():
                held.enter_context(engine._rewarm_lock)
            delta, topology = self._append(edges)
            if delta and self._journal_epoch == delta.old_epoch:
                # Journal only while the files plus the journal still
                # reproduce the live service; a mutation outside ingest
                # broke that chain (and already sent batches to the
                # serial path).
                append_journal_delta(self._journal_base, delta)
                self._journal_epoch = delta.new_epoch
                if self._WORKERS_REPLAY_JOURNAL:
                    self._snapshot_epoch = delta.new_epoch
            self._topology = topology
        for engine in topology.engines:
            # The engine over the source graph itself (a flat service's
            # one engine) rewarms now; shard projections on their next query.
            if engine.graph is self._graph:
                engine.ensure_current()
        return delta

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
    ) -> BatchReport:
        """Answer a batch of queries, over the attached pool or serially.

        The batch is grouped by routed engine and every item lands back in
        submission order.  It runs over the attached, open
        :class:`~repro.service.pool.WorkerPool` when ``max_workers > 1``,
        the algorithm is a registry name, every engine's snapshot file
        reproduces the current epoch, and more than one query is left
        once the parent-side caches have answered their hits.  Each
        engine's remaining group is then cut into chunks by its share of
        ``max_workers``, and pool workers answer the chunks from services
        they boot from that engine's snapshot file, while a router's
        fallback group (no file) runs here.  Otherwise the batch runs
        serially on the calling thread, group by group.
        :attr:`BatchReport.executor` records which path ran; a router
        returns a :class:`~repro.service.ShardedBatchReport`.

        Parameters
        ----------
        queries:
            The batch; a :class:`QueryWorkload` is accepted directly.
        max_workers:
            How many pool workers the batch may use; ``1`` (the default
            from the constructor) runs it serially.
        time_budget_seconds:
            Wall-clock budget for the whole batch.  Queries that have not
            *started* when the budget expires are reported as skipped
            (``BatchItem.skipped``) and the report is flagged ``timed_out`` —
            the batch analogue of the paper's 12-hour "INF" cut-off.  The
            budget also travels into every query, group and worker process
            as one absolute :class:`~repro.core.deadline.Deadline`, so an
            in-flight query cuts itself off promptly (a ``timed_out``
            outcome) instead of occupying its worker past the budget.
        deadline:
            An explicit absolute cut-off, for callers that already hold a
            :class:`Deadline` (the serve loop's per-request deadlines).
            When both this and ``time_budget_seconds`` are given the
            stricter instant wins.

        Returns
        -------
        BatchReport
            Per-query outcomes aligned with the input order plus wall-clock
            and throughput aggregates.  Results are identical on both
            paths: every query runs against the same immutable warmed graph
            (or a snapshot-booted copy of it), and result objects are
            frozen.
        """
        query_list = list(queries)
        topology = self._current_topology()
        resolved = self._resolve(algorithm)
        workers = max_workers if max_workers is not None else self._max_workers
        if workers < 1:
            raise ValueError("max_workers must be at least 1")
        budget_deadline = Deadline.from_budget(time_budget_seconds)
        if budget_deadline is not None:
            deadline = budget_deadline.earlier(deadline)
        groups: Dict[int, List[int]] = {}
        for position, query in enumerate(query_list):
            groups.setdefault(
                self._route_in(topology, query.interval), []
            ).append(position)
        report = self._new_report(
            resolved.name, [BatchItem(query=query) for query in query_list],
            workers, groups,
        )
        started = time.perf_counter()
        ordered = sorted(groups.items())
        # (route, positions, lookup): what runs here, in group order.
        serial = [(index, positions, True) for index, positions in ordered]
        chunks: List[Tuple[_Engine, List[int]]] = []
        pool = self._pool
        if (
            pool is not None
            and not pool.closed
            and workers > 1
            and not isinstance(algorithm, TspgAlgorithm)
            and self._snapshots_current(topology)
        ):
            chunks, serial = self._pool_chunks(
                report, ordered, topology, resolved, workers, use_cache, deadline
            )
        # The budget crosses as an absolute instant: a chunk may sit queued
        # behind a full pool, and a duration captured now would let it
        # overshoot the batch budget once it starts.
        deadline_at = deadline.at_monotonic if deadline is not None else None
        tasks: List[Tuple[_Engine, List[int], Future]] = []
        try:
            for engine, chunk in chunks:
                future = pool.submit(
                    _snapshot_worker_run_batch,
                    engine.snapshot_path,
                    [query_list[position] for position in chunk],
                    algorithm,
                    default_algorithm=self._default_algorithm,
                    algorithm_options=self._algorithm_options,
                    use_cache=use_cache,
                    deadline_at=deadline_at,
                    snapshot_epoch=engine.graph.epoch,
                    snapshot_mmap=self._snapshot_mmap,
                )
                tasks.append((engine, chunk, future))
            if tasks:
                report.executor = "processes"
            # Whatever stays here runs while the workers compute: every
            # group shares the batch-wide absolute deadline, so one that
            # starts late finds less of it left.
            for index, positions, lookup in serial:
                part = BatchReport(
                    algorithm=report.algorithm,
                    items=[report.items[position] for position in positions],
                )
                self._engine_in(topology, index).run_batch(
                    part, resolved, use_cache, deadline, lookup
                )
                report.timed_out = report.timed_out or part.timed_out
            for engine, chunk, future in tasks:
                sub_report = pool.harvest(future)  # re-raises worker errors
                report.timed_out = report.timed_out or sub_report.timed_out
                for position, item in zip(chunk, sub_report.items):
                    report.items[position] = item
                    if use_cache:
                        engine.cache_store(item, resolved)
        finally:
            if tasks:
                # An aborted merge must not leave this batch's queued
                # chunks occupying the shared workers (a no-op for resolved
                # futures).
                for _engine, _chunk, future in tasks:
                    future.cancel()
                pool.note_batch()
        if deadline is not None and deadline.expired() and report.num_timed_out:
            # Queries the deadline cut off mid-flight are budget expiry too,
            # exactly like the skipped-before-start case.
            report.timed_out = True
        report.wall_seconds = time.perf_counter() - started
        return report

    @staticmethod
    def _pool_chunks(
        report: BatchReport,
        groups: List[Tuple[int, List[int]]],
        topology: _Topology,
        algorithm: TspgAlgorithm,
        workers: int,
        use_cache: bool,
        deadline: Optional[Deadline],
    ) -> Tuple[List[Tuple[_Engine, List[int]]], List[Tuple[int, List[int], bool]]]:
        """Split a pool-eligible batch into pool chunks and what runs here.

        The parent's caches stay authoritative: hits are answered here and
        worker outcomes stored back on merge.  Past the deadline not even a
        hit is served (as in :meth:`submit`), so the refusals the workers
        produce do not depend on what happens to be cached.  A router's
        fallback group has no snapshot file and stays here; so does
        everything when at most one query is left to compute, which no
        worker hand-off would speed up.
        """
        peek = use_cache and not (deadline is not None and deadline.expired())
        here: List[Tuple[int, List[int], bool]] = []
        left: List[Tuple[int, List[int]]] = []
        for index, positions in groups:
            if index == FALLBACK_SHARD:
                here.append((index, positions, True))
                continue
            engine = topology.engines[index]
            engine.ensure_current()
            if peek:
                positions = [
                    position
                    for position in positions
                    if not engine.cache_lookup(report.items[position], algorithm)
                ]
            left.append((index, positions))
        total = sum(len(positions) for _, positions in left)
        if total <= 1:
            # No second lookup: it would count a second miss for a query
            # that missed the peek (and is moot where the peek was off).
            return [], sorted(here + [(i, p, False) for i, p in left])
        chunks: List[Tuple[_Engine, List[int]]] = []
        for index, positions in left:
            # Each group's share of the workers, one chunk minimum.
            share = max(1, (workers * len(positions)) // total)
            chunks.extend(
                (topology.engines[index], [positions[offset] for offset in chunk])
                for chunk in _chunk_positions(len(positions), share)
                if chunk
            )
        return chunks, here

    def _snapshots_current(self, topology: _Topology) -> bool:
        """Whether every engine's snapshot file reproduces ``topology``."""
        return self._snapshot_epoch == topology.epoch and all(
            engine.snapshot_path is not None for engine in topology.engines
        )

    def process_fallback_reasons(
        self,
        algorithm: Optional[AlgorithmSpec] = None,
        max_workers: Optional[int] = None,
    ) -> List[str]:
        """Why a batch would run serially instead of over the worker pool.

        Returns human-readable reasons, empty when a batch of more than one
        uncached query would run on the pool (a router's fallback group
        always runs here).  The CLI renders these in its explanatory note;
        the API stays silent (the report's :attr:`BatchReport.executor`
        field records what actually ran).
        """
        workers = max_workers if max_workers is not None else self._max_workers
        reasons: List[str] = []
        if self._pool is None:
            reasons.append("no worker pool is attached")
        elif self._pool.closed:
            reasons.append("the attached worker pool is closed")
        if workers == 1:
            reasons.append("max_workers=1 requests a serial run")
        if isinstance(algorithm, TspgAlgorithm):
            reasons.append(
                "the algorithm is a configured instance, not a registry "
                "name, and cannot be shipped to worker processes"
            )
        if self._snapshot_epoch is None:
            reasons.append(self._NO_SNAPSHOT_REASON)
        elif not self._snapshots_current(self._current_topology()):
            reasons.append(self._STALE_SNAPSHOT_REASON)
        return reasons

    # ------------------------------------------------------------------
    # snapshot boot: mmap
    # ------------------------------------------------------------------
    @property
    def snapshot_mmap_active(self) -> bool:
        """Whether the service (every shard, on a router) booted over mmap."""
        return self._snapshot_mmap

    def mmap_fallback_reasons(self) -> List[str]:
        """Why the boot is not mmap-backed (empty when it is).

        Mirrors :meth:`process_fallback_reasons`: human-readable reasons
        the CLI renders, never an exception.  When ``mmap=True`` was
        passed but the boot degraded to eager, each degradation is listed
        (e.g. a refused mapping, labelled with its shard on a router);
        when mmap was never requested the single reason says so.
        """
        if not self._snapshot_mmap_requested:
            return ["mmap boot was not requested (pass mmap=True / --mmap)"]
        return list(self._snapshot_mmap_reasons)
