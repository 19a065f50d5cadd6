"""Executing query workloads against one or more algorithms.

The runner mirrors the paper's measurement protocol: it executes every query
of a workload with each algorithm, accumulates total response time and
max/min space cost per algorithm, and supports a per-workload time budget so
slow baselines can be cut off and reported as "INF" (the paper's 12-hour
cut-off, scaled down to seconds for the synthetic datasets).

Execution is delegated to :class:`~repro.service.TspgService`, which warms
the per-graph indices once per graph (instead of on the first query) and can
optionally memoize results.  The runner keeps result memoization *off* by
default: its job is measuring algorithm response time, and serving a repeat
query from a cache would report lookup time instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..baselines.interface import AlgorithmResult, TspgAlgorithm
from ..core.result import PathGraph
from ..graph.temporal_graph import TemporalGraph
from .query import QueryWorkload, TspgQuery

INF = float("inf")


@dataclass
class WorkloadResult:
    """Aggregated outcome of one algorithm over one workload."""

    algorithm: str
    workload: str
    total_seconds: float = 0.0
    num_queries: int = 0
    num_completed: int = 0
    timed_out: bool = False
    max_space: int = 0
    min_space: int = 0
    per_query_seconds: List[float] = field(default_factory=list)
    results: List[PathGraph] = field(default_factory=list)

    @property
    def is_inf(self) -> bool:
        """``True`` when the workload was cut off (the paper's "INF" marker)."""
        return self.timed_out

    @property
    def reported_seconds(self) -> float:
        """Total seconds, or ``inf`` when cut off."""
        return INF if self.timed_out else self.total_seconds

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "algorithm": self.algorithm,
            "workload": self.workload,
            "time_s": "INF" if self.timed_out else round(self.total_seconds, 4),
            "queries": f"{self.num_completed}/{self.num_queries}",
            "max_space": self.max_space,
            "min_space": self.min_space,
        }


@dataclass
class QueryRunner:
    """Runs workloads against algorithms with an optional per-workload budget.

    Parameters
    ----------
    time_budget_seconds:
        Wall-clock budget per (algorithm, workload) pair.  Once exceeded the
        remaining queries are skipped and the result is flagged ``timed_out``
        — the down-scaled analogue of the paper's 12-hour limit.
    keep_results:
        Store every query's :class:`PathGraph` (needed by correctness
        cross-checks, wasteful for pure timing runs).
    use_cache:
        Let the underlying service serve repeat queries from its result
        cache.  Off by default because memoization distorts the response-time
        measurements the runner exists to take.
    num_shards:
        When greater than 1, workloads run through a
        :class:`~repro.service.ShardedTspgService` that partitions each graph
        across this many time-range shards (``shard_overlap`` widens their
        extents).  Results are identical to the unsharded path; only the
        serving topology changes.

    Queries run one at a time through the service's :meth:`submit`.
    """

    time_budget_seconds: Optional[float] = None
    keep_results: bool = False
    use_cache: bool = False
    num_shards: int = 1
    shard_overlap: int = 0
    # One service per graph so index warming and (optional) memoization are
    # shared across run_workload/run_all/run_single calls.  Keyed by id();
    # the strong reference keeps each graph alive, so ids cannot be reused.
    _services: Dict[int, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _service_for(self, graph: TemporalGraph):
        from ..service import ShardedTspgService, TspgService  # deferred: cycle

        service = self._services.get(id(graph))
        if service is None:
            # The cache is always sized; `use_cache` gates lookups per
            # submit, so toggling it after the first call still works.
            if self.num_shards > 1:
                service = ShardedTspgService(
                    graph, self.num_shards, overlap=self.shard_overlap
                )
            else:
                service = TspgService(graph)
            self._services[id(graph)] = service
        return service

    def graph_from_snapshot(self, path) -> TemporalGraph:
        """Boot a graph (and its warmed service) from an index snapshot.

        The loaded graph is registered with the runner, so every subsequent
        ``run_workload``/``run_single`` call against it reuses the
        snapshot-warmed indices instead of rebuilding them — the O(read)
        cold-start path of :meth:`TspgService.from_snapshot`, kept behind the
        runner's one-service-per-graph bookkeeping.
        """
        from ..service import ShardedTspgService, TspgService  # deferred: cycle

        if self.num_shards > 1:
            from ..store import load_snapshot  # deferred: store imports graph

            graph = load_snapshot(path)
            self._services[id(graph)] = ShardedTspgService(
                graph, self.num_shards, overlap=self.shard_overlap
            )
        else:
            service = TspgService.from_snapshot(path)
            graph = service.graph
            self._services[id(graph)] = service
        return graph

    def graph_from_shard_snapshots(self, path) -> TemporalGraph:
        """Boot a sharded router from a per-shard snapshot set directory.

        The counterpart of :meth:`graph_from_snapshot` for
        :class:`~repro.store.ShardSnapshotSet` directories (written by
        ``tspg warm --shards N`` or
        :meth:`~repro.service.ShardedTspgService.save_shards`): the router
        boots one shard engine per snapshot file.

        Note the runner keys its service registry by graph identity and
        hands workloads the graph object, so *this* entry point
        materialises the full-graph union up front — callers that want the
        router's full-graph-free boot (the union built only if a spanning
        query ever needs it) should use
        :meth:`~repro.service.ShardedTspgService.from_shard_snapshots`
        directly.
        """
        from ..service import ShardedTspgService  # deferred: cycle

        router = ShardedTspgService.from_shard_snapshots(path)
        graph = router.graph
        self._services[id(graph)] = router
        return graph

    def run_workload(
        self,
        algorithm: TspgAlgorithm,
        graph: TemporalGraph,
        workload: QueryWorkload,
    ) -> WorkloadResult:
        """Execute every query of ``workload`` with ``algorithm``."""
        service = self._service_for(graph)
        outcome = WorkloadResult(
            algorithm=algorithm.name,
            workload=workload.name,
            num_queries=len(workload),
        )
        space_values: List[int] = []
        started = time.perf_counter()
        for query in workload:
            if (
                self.time_budget_seconds is not None
                and time.perf_counter() - started > self.time_budget_seconds
            ):
                outcome.timed_out = True
                break
            result = service.submit(query, algorithm, use_cache=self.use_cache)
            outcome.total_seconds += result.elapsed_seconds
            outcome.per_query_seconds.append(result.elapsed_seconds)
            outcome.num_completed += 1
            space_values.append(result.space_cost)
            if result.timed_out:
                outcome.timed_out = True
            if self.keep_results:
                outcome.results.append(result.result)
        if space_values:
            outcome.max_space = max(space_values)
            outcome.min_space = min(space_values)
        return outcome

    def run_all(
        self,
        algorithms: Sequence[TspgAlgorithm],
        graph: TemporalGraph,
        workload: QueryWorkload,
    ) -> List[WorkloadResult]:
        """Run every algorithm over the same workload (the Fig. 5 protocol)."""
        return [self.run_workload(algorithm, graph, workload) for algorithm in algorithms]

    def run_single(
        self,
        algorithm: TspgAlgorithm,
        graph: TemporalGraph,
        query: TspgQuery,
    ) -> AlgorithmResult:
        """Run a single query (used by the CLI and the examples).

        One-shot queries skip the service unless caching is on: warming every
        per-graph index to answer a single query would cost more than the
        query itself on large graphs.
        """
        if not self.use_cache:
            return algorithm.run(graph, query.source, query.target, query.interval)
        return self._service_for(graph).submit(query, algorithm, use_cache=True)
