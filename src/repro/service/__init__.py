"""Batch query serving for temporal simple path graphs.

This package is the scale layer of the library: where
:func:`repro.generate_tspg` answers one query, :class:`TspgService` serves
*many* queries over the *same* graph efficiently.  A service routes each
query to an engine whose graph holds every edge of the query's window (the
tspG of ``[τb, τe]`` uses only edges timestamped inside it), and each
engine

* warms its graph's indices once per epoch instead of letting the first
  query of every workload rebuild them;
* memoizes results in a thread-safe LRU cache keyed by
  ``(source, target, interval, algorithm, epoch)`` — repeat queries are
  answered in dictionary-lookup time;
* runs batches serially, under an optional per-batch wall-clock budget
  (the batch analogue of the paper's 12-hour "INF" cut-off), or — with a
  :class:`WorkerPool` attached — hands them to worker processes that boot
  from the engine's snapshot file, sidestepping the GIL on the
  pure-Python hot path.

A flat :class:`TspgService` is the one-shard case: one engine over the
graph itself.  :class:`ShardedTspgService` is the same service over N
time-range shards; it adds only partitioning and routing, the lazy
full-graph fallback and the shard-set lifecycle.

Quickstart
----------
>>> from repro import TemporalGraph
>>> from repro.service import TspgService
>>> from repro.queries.query import TspgQuery
>>> graph = TemporalGraph(edges=[("s", "b", 2), ("b", "c", 3),
...                              ("b", "t", 6), ("c", "t", 7)])
>>> service = TspgService(graph, cache_size=256)
>>> batch = [TspgQuery("s", "t", (2, 7)), TspgQuery("b", "t", (3, 7))]
>>> report = service.run_batch(batch, max_workers=2)
>>> report.num_completed
2
>>> repeat = service.run_batch(batch)          # served from the cache
>>> repeat.num_cache_hits
2

A :class:`WorkerPool` keeps its workers — and their snapshot-booted
services, warmed views and caches — alive across batches (``tspg serve``
and ``tspg batch`` attach one when ``--workers > 1``), and batch budgets
travel as cooperative per-query
:class:`~repro.core.deadline.Deadline` objects so an expired query frees
its worker promptly.  See ``docs/serving.md`` for the full serving-layer
tour; the CLI exposes the same machinery as ``tspg batch`` / ``tspg serve``.
"""

from ..core.deadline import Deadline
from .cache import CacheStats, ResultCache
from .pool import WorkerPool, WorkerPoolError
from .service import (
    DEFAULT_CACHE_SIZE,
    BatchItem,
    BatchReport,
    TspgService,
)
from .server import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_MAX_LINE_BYTES,
    DEFAULT_MAX_PENDING_PER_CLIENT,
    LatencyHistogram,
    RequestCore,
    ServerStats,
    ServerThread,
    TspgClient,
    TspgServer,
)
from .sharding import (
    FALLBACK_SHARD,
    ShardedBatchReport,
    ShardedTspgService,
    ShardSpec,
    partition_time_range,
)

__all__ = [
    "TspgService",
    "BatchReport",
    "BatchItem",
    "ResultCache",
    "CacheStats",
    "Deadline",
    "DEFAULT_CACHE_SIZE",
    "WorkerPool",
    "WorkerPoolError",
    "ShardedTspgService",
    "ShardedBatchReport",
    "ShardSpec",
    "FALLBACK_SHARD",
    "partition_time_range",
    "RequestCore",
    "ServerStats",
    "ServerThread",
    "LatencyHistogram",
    "TspgClient",
    "TspgServer",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_MAX_LINE_BYTES",
    "DEFAULT_MAX_PENDING_PER_CLIENT",
]
