"""Tests for the batch query service (TspgService, ResultCache, index warming)."""

from __future__ import annotations

import math
import time

import pytest

from repro.algorithms import get_algorithm
from repro.analysis.oracle import brute_force_tspg
from repro.baselines.interface import AlgorithmResult, TspgAlgorithm
from repro.core.result import PathGraph
from repro.graph.generators import uniform_random_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.queries.query import QueryWorkload, TspgQuery
from repro.queries.runner import QueryRunner
from repro.queries.workload import generate_workload
from repro.service import (
    FALLBACK_SHARD,
    ResultCache,
    ShardedTspgService,
    TspgService,
)


def _random_case(seed: int):
    """One randomized graph plus a reachable workload over it."""
    graph = uniform_random_temporal_graph(
        num_vertices=18, num_edges=120, num_timestamps=30, seed=seed
    )
    workload = generate_workload(
        graph, num_queries=12, theta=8, seed=seed, name=f"svc-{seed}"
    )
    return graph, list(workload)


class SlowAlgorithm(TspgAlgorithm):
    """Test double: sleeps per query so time budgets trigger deterministically."""

    name = "Slow"

    def __init__(self, delay: float = 0.05, timed_out: bool = False) -> None:
        self.delay = delay
        self.timed_out = timed_out
        self.calls = 0

    def compute(self, graph, source, target, interval) -> AlgorithmResult:
        self.calls += 1
        time.sleep(self.delay)
        return AlgorithmResult(
            algorithm=self.name,
            result=PathGraph.empty(source, target, interval),
            elapsed_seconds=self.delay,
            timed_out=self.timed_out,
        )


class FailingAlgorithm(TspgAlgorithm):
    """Test double: always raises from compute()."""

    name = "Failing"

    def compute(self, graph, source, target, interval) -> AlgorithmResult:
        raise RuntimeError("worker blew up")


# ----------------------------------------------------------------------
# oracle equivalence: serial, parallel and cached paths
# ----------------------------------------------------------------------
class TestServiceMatchesOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_serial_batch_matches_brute_force(self, seed):
        graph, queries = _random_case(seed)
        service = TspgService(graph)
        report = service.run_batch(queries, max_workers=1, use_cache=False)
        assert report.num_completed == len(queries)
        for item in report.items:
            oracle = brute_force_tspg(
                graph, item.query.source, item.query.target, item.query.interval
            )
            assert item.outcome.result.vertices == oracle.vertices
            assert item.outcome.result.edges == oracle.edges

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_parallel_batch_matches_serial_and_oracle(self, seed):
        graph, queries = _random_case(seed)
        service = TspgService(graph)
        serial = service.run_batch(queries, max_workers=1, use_cache=False)
        parallel = service.run_batch(queries, max_workers=4, use_cache=False)
        assert parallel.num_workers == 4
        assert parallel.num_completed == len(queries)
        for serial_item, parallel_item in zip(serial.items, parallel.items):
            assert parallel_item.outcome.result.same_members(serial_item.outcome.result)
        for item in parallel.items:
            oracle = brute_force_tspg(
                graph, item.query.source, item.query.target, item.query.interval
            )
            assert item.outcome.result.same_members(oracle)

    def test_cached_batch_matches_oracle(self):
        graph, queries = _random_case(seed=4)
        service = TspgService(graph)
        cold = service.run_batch(queries, use_cache=True)
        warm = service.run_batch(queries, use_cache=True)
        assert cold.num_cache_hits == 0
        assert warm.num_cache_hits == len(queries)
        for item in warm.items:
            oracle = brute_force_tspg(
                graph, item.query.source, item.query.target, item.query.interval
            )
            assert item.outcome.result.same_members(oracle)


# ----------------------------------------------------------------------
# single-query API and cache semantics
# ----------------------------------------------------------------------
class TestSubmit:
    def test_cache_hit_is_flagged_and_shares_result(self, paper_query):
        graph, source, target, interval = paper_query
        service = TspgService(graph)
        cold = service.query(source, target, interval)
        hit = service.query(source, target, interval)
        assert "cache_hit" not in cold.extras
        assert hit.extras["cache_hit"] is True
        assert hit.result is cold.result
        assert hit.space_cost == cold.space_cost

    def test_cache_key_separates_algorithms_and_intervals(self, paper_query):
        graph, source, target, interval = paper_query
        service = TspgService(graph)
        service.query(source, target, interval, algorithm="VUG")
        naive = service.query(source, target, interval, algorithm="Naive")
        assert "cache_hit" not in naive.extras
        shifted = service.query(source, target, (interval.begin, interval.end - 1))
        assert "cache_hit" not in shifted.extras

    def test_use_cache_false_bypasses_memoization(self, paper_query):
        graph, source, target, interval = paper_query
        service = TspgService(graph)
        service.query(source, target, interval, use_cache=False)
        again = service.query(source, target, interval, use_cache=False)
        assert "cache_hit" not in again.extras
        assert service.cache_stats().size == 0

    def test_algorithm_instances_are_shared(self, paper_query):
        graph, source, target, interval = paper_query
        service = TspgService(graph)
        first = service._resolve("VUG")
        second = service._resolve("VUG")
        assert first is second

    def test_timed_out_results_are_not_memoized(self, paper_query):
        graph, source, target, interval = paper_query
        service = TspgService(graph)
        flaky = SlowAlgorithm(delay=0.0, timed_out=True)
        query = TspgQuery(source, target, interval)
        service.submit(query, flaky)
        again = service.submit(query, flaky)
        assert "cache_hit" not in again.extras
        assert flaky.calls == 2

    def test_same_name_different_config_do_not_share_cache(self, paper_query):
        graph, source, target, interval = paper_query
        service = TspgService(graph)
        capped = get_algorithm("Naive", max_paths=1000)
        uncapped = get_algorithm("Naive")
        assert capped.name == uncapped.name
        service.query(source, target, interval, algorithm=capped)
        fresh = service.query(source, target, interval, algorithm=uncapped)
        assert "cache_hit" not in fresh.extras
        hit = service.query(source, target, interval, algorithm=capped)
        assert hit.extras["cache_hit"] is True


# ----------------------------------------------------------------------
# epoch-tracked invalidation
# ----------------------------------------------------------------------
class TestEpochTracking:
    def test_mutation_between_identical_queries_forces_recompute(self):
        # The acceptance scenario: edit the graph between two identical
        # queries; the second must recompute (not serve the stale cache)
        # and must see the new edge.
        graph = TemporalGraph(edges=[("s", "a", 1), ("a", "t", 3)])
        service = TspgService(graph)
        counting = SlowAlgorithm(delay=0.0)
        query = TspgQuery("s", "t", (1, 5))

        first = service.submit(query, counting)
        assert counting.calls == 1
        graph.add_edge("s", "b", 2)  # mutate between the two identical queries
        second = service.submit(query, counting)
        assert counting.calls == 2, "stale cached result was served"
        assert "cache_hit" not in second.extras

    def test_recomputed_result_reflects_the_new_edge(self):
        graph = TemporalGraph(edges=[("s", "a", 1), ("a", "t", 3)])
        service = TspgService(graph)
        before = service.query("s", "t", (1, 5))
        assert "b" not in before.result.vertices
        graph.add_edge("s", "b", 2)
        graph.add_edge("b", "t", 4)
        after = service.query("s", "t", (1, 5))
        assert "cache_hit" not in after.extras
        assert "b" in after.result.vertices
        oracle = brute_force_tspg(graph, "s", "t", (1, 5))
        assert after.result.same_members(oracle)

    def test_indices_rewarm_transparently(self):
        graph = TemporalGraph(edges=[("s", "a", 1), ("a", "t", 3)])
        service = TspgService(graph)
        assert service.index_stats["sorted_edges"] == 2
        graph.add_edge("a", "s", 2)
        service.query("s", "t", (1, 5))
        assert service.index_stats["sorted_edges"] == 3
        assert service.warmed_epoch == graph.epoch

    def test_unchanged_graph_still_hits_the_cache(self):
        graph = TemporalGraph(edges=[("s", "a", 1), ("a", "t", 3)])
        service = TspgService(graph)
        service.query("s", "t", (1, 5))
        hit = service.query("s", "t", (1, 5))
        assert hit.extras.get("cache_hit") is True

    def test_run_batch_detects_mutation(self):
        graph = TemporalGraph(edges=[("s", "a", 1), ("a", "t", 3)])
        service = TspgService(graph)
        queries = [TspgQuery("s", "t", (1, 5))]
        cold = service.run_batch(queries, use_cache=True)
        assert cold.num_cache_hits == 0
        graph.add_edge("s", "t", 2)
        recomputed = service.run_batch(queries, use_cache=True)
        assert recomputed.num_cache_hits == 0
        oracle = brute_force_tspg(graph, "s", "t", (1, 5))
        assert recomputed.items[0].outcome.result.same_members(oracle)

    def test_no_op_mutation_does_not_invalidate(self):
        graph = TemporalGraph(edges=[("s", "a", 1), ("a", "t", 3)])
        service = TspgService(graph)
        service.query("s", "t", (1, 5))
        graph.add_edge("s", "a", 1)  # duplicate: returns False, no epoch bump
        graph.add_vertex("s")  # existing vertex: no epoch bump
        hit = service.query("s", "t", (1, 5))
        assert hit.extras.get("cache_hit") is True

    def test_cache_keys_embed_the_epoch(self, paper_query):
        graph, source, target, interval = paper_query
        service = TspgService(graph)
        algorithm = service._resolve("VUG")
        (engine,) = service._topology.engines
        key_before = engine._cache_key(TspgQuery(source, target, interval), algorithm)
        graph.add_edge("brand-new-vertex", source, interval.begin)
        service.query(source, target, interval)  # triggers the rewarm
        key_after = engine._cache_key(TspgQuery(source, target, interval), algorithm)
        assert key_before != key_after


# ----------------------------------------------------------------------
# time budgets
# ----------------------------------------------------------------------
class TestTimeBudget:
    def _queries(self, count: int):
        return [TspgQuery("s", f"v{i}", (1, 10)) for i in range(count)]

    def _graph(self, count: int) -> TemporalGraph:
        return TemporalGraph(edges=[("s", f"v{i}", 1) for i in range(count)])

    def test_serial_budget_skips_remaining_queries(self):
        queries = self._queries(6)
        service = TspgService(self._graph(6))
        slow = SlowAlgorithm(delay=0.05)
        report = service.run_batch(
            queries, slow, max_workers=1, use_cache=False, time_budget_seconds=0.12
        )
        assert report.timed_out
        assert 0 < report.num_completed < len(queries)
        assert any(item.skipped for item in report.items)
        assert all(item.outcome is None for item in report.items if item.skipped)

    def test_parallel_budget_flags_timeout(self):
        queries = self._queries(8)
        service = TspgService(self._graph(8))
        slow = SlowAlgorithm(delay=0.1)
        report = service.run_batch(
            queries, slow, max_workers=2, use_cache=False, time_budget_seconds=0.15
        )
        assert report.timed_out
        assert any(item.skipped for item in report.items)

    def test_no_budget_completes_everything(self):
        queries = self._queries(3)
        service = TspgService(self._graph(3))
        report = service.run_batch(queries, SlowAlgorithm(delay=0.01), max_workers=2)
        assert not report.timed_out
        assert report.num_completed == 3

    def test_parallel_worker_exception_propagates(self):
        service = TspgService(self._graph(4))
        with pytest.raises(RuntimeError, match="worker blew up"):
            service.run_batch(self._queries(4), FailingAlgorithm(), max_workers=2)

    def test_parallel_exception_not_masked_by_budget(self):
        # A worker that raises after the budget expires must still surface
        # its exception instead of being reported as a clean budget skip.
        service = TspgService(self._graph(4))

        class LateFailure(SlowAlgorithm):
            def compute(self, graph, source, target, interval):
                time.sleep(0.05)
                raise RuntimeError("late failure")

        with pytest.raises(RuntimeError, match="late failure"):
            service.run_batch(
                self._queries(4),
                LateFailure(),
                max_workers=2,
                time_budget_seconds=0.01,
            )

    def test_worker_count_validation(self):
        service = TspgService(self._graph(2))
        with pytest.raises(ValueError):
            service.run_batch(self._queries(2), max_workers=0)
        with pytest.raises(ValueError):
            TspgService(self._graph(2), max_workers=0)


# ----------------------------------------------------------------------
# the LRU cache
# ----------------------------------------------------------------------
class TestResultCache:
    def _key(self, tag: str):
        return ("s", "t", (1, 2), tag)

    def test_lru_eviction_order(self):
        cache = ResultCache(max_size=2)
        cache.put(self._key("a"), "A")
        cache.put(self._key("b"), "B")
        assert cache.get(self._key("a")) == "A"  # refresh "a"
        cache.put(self._key("c"), "C")  # evicts "b", the least recently used
        assert cache.get(self._key("b")) is None
        assert cache.get(self._key("a")) == "A"
        assert cache.get(self._key("c")) == "C"
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2

    def test_counters_and_hit_rate(self):
        cache = ResultCache(max_size=4)
        assert cache.get(self._key("x")) is None
        cache.put(self._key("x"), "X")
        assert cache.get(self._key("x")) == "X"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_zero_capacity_disables_cache(self):
        cache = ResultCache(max_size=0)
        cache.put(self._key("a"), "A")
        assert cache.get(self._key("a")) is None
        assert not cache.enabled
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_size=-1)

    def test_overwrite_same_key_keeps_size(self):
        cache = ResultCache(max_size=2)
        cache.put(self._key("a"), "A1")
        cache.put(self._key("a"), "A2")
        assert cache.get(self._key("a")) == "A2"
        assert len(cache) == 1
        assert cache.stats().evictions == 0

    def test_clear_keeps_counters(self):
        cache = ResultCache(max_size=2)
        cache.put(self._key("a"), "A")
        cache.get(self._key("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_service_eviction_recomputes(self, paper_query):
        graph, source, target, interval = paper_query
        service = TspgService(graph, cache_size=1)
        service.query(source, target, interval)
        service.query(target, source, interval)  # evicts the first entry
        refetched = service.query(source, target, interval)
        assert "cache_hit" not in refetched.extras
        assert service.cache_stats().evictions >= 1


# ----------------------------------------------------------------------
# the lock-free readiness verdict (what the event loop asks first)
# ----------------------------------------------------------------------
def _probe_graph() -> TemporalGraph:
    return uniform_random_temporal_graph(
        num_vertices=16, num_edges=100, num_timestamps=30, seed=5
    )


@pytest.fixture(params=["flat", "mmap-router"])
def probed(request, tmp_path):
    """A flat service, or a router booted from mmap shard snapshots."""
    if request.param == "flat":
        return TspgService(_probe_graph())
    path = str(tmp_path / "shards")
    ShardedTspgService(_probe_graph(), 3, overlap=1).save_shards(path)
    return ShardedTspgService.from_shard_snapshots(path, mmap=True)


#: Routes to shard 0 of the three-shard router; (1, 30) spans them all.
SHARD_QUERY = TspgQuery(0, 5, (1, 6))
SPANNING_QUERY = TspgQuery(0, 5, (1, 30))


class TestCacheProbe:
    """``ready_within`` with its default ``seconds=0``: is the answer cached?"""

    def test_false_before_the_first_submit_true_after(self, probed):
        assert not probed.ready_within(SHARD_QUERY)
        probed.submit(SHARD_QUERY)
        assert probed.ready_within(SHARD_QUERY)
        assert probed.ready_within(SHARD_QUERY, "VUG")
        # Another algorithm (never built) and an unknown name find nothing.
        assert not probed.ready_within(SHARD_QUERY, "VUG-noTight")
        assert not probed.ready_within(SHARD_QUERY, "no-such-algorithm")
        assert not probed.ready_within(TspgQuery(5, 0, (1, 6)))

    def test_false_after_an_ingest_until_the_next_query(self, probed):
        probed.submit(SHARD_QUERY)
        probed.ingest([(100, 101, 3)])  # inside the query window
        assert not probed.ready_within(SHARD_QUERY)
        assert probed.submit(SHARD_QUERY).extras.get("cache_hit") is None
        assert probed.ready_within(SHARD_QUERY)

    def test_probing_counts_nothing_and_builds_nothing(self, probed):
        probed.submit(SHARD_QUERY)
        before = probed.cache_stats()
        for _ in range(3):
            assert probed.ready_within(SHARD_QUERY)
            assert not probed.ready_within(TspgQuery(1, 2, (1, 6)))
            assert not probed.ready_within(SHARD_QUERY, "VUG-noTight")
        after = probed.cache_stats()
        assert (after.hits, after.misses, after.size) == (
            before.hits, before.misses, before.size,
        )
        # Every engine of a service shares the service's algorithm instances.
        assert "VUG-noTight" not in probed._algorithms

    def test_flat_probe_is_false_while_the_graph_is_ahead_of_the_warm(self):
        service = TspgService(_probe_graph())
        service.submit(SHARD_QUERY)
        service.graph.append_edges([(100, 101, 29)])  # outside the window
        # submit would rewarm first, so the probe declines even though
        # the entry survives that rewarm.
        assert not service.ready_within(SHARD_QUERY)
        assert service.warmed_epoch != service.graph.epoch
        assert service.submit(SHARD_QUERY).extras.get("cache_hit") is True
        assert service.ready_within(SHARD_QUERY)

    def test_probing_keeps_lru_order(self):
        service = TspgService(_probe_graph(), cache_size=2)
        first, second = SHARD_QUERY, TspgQuery(1, 2, (1, 6))
        service.submit(first)
        service.submit(second)
        assert service.ready_within(first)  # a get() here would refresh it
        service.submit(TspgQuery(2, 3, (1, 6)))  # evicts the LRU entry
        assert not service.ready_within(first)
        assert service.ready_within(second)

    def test_router_probe_never_builds_the_fallback(self, tmp_path):
        path = str(tmp_path / "shards")
        ShardedTspgService(_probe_graph(), 3, overlap=1).save_shards(path)
        router = ShardedTspgService.from_shard_snapshots(path, mmap=True)
        assert router.route(SPANNING_QUERY.interval) == FALLBACK_SHARD
        assert not router.ready_within(SPANNING_QUERY)
        assert router.describe()[-1]["built"] is False
        assert router._graph is None  # nor materialised the union
        router.submit(SPANNING_QUERY)
        assert router.describe()[-1]["built"] is True
        assert router.ready_within(SPANNING_QUERY)

    def test_a_miss_is_ready_after_a_quick_one_on_its_engine(self, probed):
        other = TspgQuery(1, 2, (1, 6))  # same engine as SHARD_QUERY
        probed.submit(SHARD_QUERY)
        # No miss recorded yet: nothing says the engine's next one is slow.
        assert probed.ready_within(other, seconds=0.001)
        probed.record_miss(SHARD_QUERY, 0.002)
        assert probed.ready_within(other, seconds=0.005)
        assert not probed.ready_within(other, seconds=0.001)
        # A slow miss sends the next one elsewhere; a quick one brings it back.
        probed.record_miss(SHARD_QUERY, 0.02)
        assert not probed.ready_within(other, seconds=0.005)
        assert probed.ready_within(other, seconds=math.inf)
        assert probed.ready_within(SHARD_QUERY)  # still cached
        probed.record_miss(other, 0.001)
        assert probed.ready_within(other, seconds=0.005)

    def test_a_miss_waits_for_the_view_columns_an_ingest_dropped(self, probed):
        other = TspgQuery(1, 2, (1, 6))
        probed.submit(SHARD_QUERY)
        assert probed.ready_within(other, seconds=1.0)
        # Inside shard 0's extent, outside both query windows: the cached
        # answer survives the rewarm, but the view was extended.
        probed.ingest([(100, 101, 8)])
        assert probed.submit(SHARD_QUERY).extras.get("cache_hit") is True
        engine = probed._engine_in(
            probed._topology, probed._route_in(probed._topology, other.interval)
        )
        assert not engine.graph.view_is_built()
        assert probed.ready_within(SHARD_QUERY)
        assert not probed.ready_within(other, seconds=1.0)
        assert not engine.graph.view_is_built()  # asking built nothing
        probed.submit(TspgQuery(2, 3, (1, 6)))  # a miss derives the columns
        assert engine.graph.view_is_built()
        assert probed.ready_within(other, seconds=1.0)

    def test_only_misses_of_a_deadline_bounded_algorithm_are_ready(self):
        service = TspgService(_probe_graph())
        service.submit(SHARD_QUERY, "EPdtTSG")
        other = TspgQuery(1, 2, (1, 6))
        assert service.ready_within(SHARD_QUERY, "EPdtTSG")
        assert not service.ready_within(other, "EPdtTSG", seconds=1.0)
        service.submit(SHARD_QUERY)
        assert service.ready_within(other, "VUG", seconds=1.0)

    def test_recording_a_miss_never_builds_the_fallback(self, tmp_path):
        path = str(tmp_path / "shards")
        ShardedTspgService(_probe_graph(), 3, overlap=1).save_shards(path)
        router = ShardedTspgService.from_shard_snapshots(path, mmap=True)
        router.submit(SHARD_QUERY)
        router.record_miss(SPANNING_QUERY, 0.001)
        assert not router.ready_within(SPANNING_QUERY, seconds=1.0)
        assert router.describe()[-1]["built"] is False
        assert router._graph is None


# ----------------------------------------------------------------------
# index warming on the graph
# ----------------------------------------------------------------------
class TestIndexWarming:
    def test_warm_indices_reports_sizes(self, paper_graph):
        stats = paper_graph.warm_indices()
        assert stats["sorted_edges"] == paper_graph.num_edges
        assert stats["distinct_timestamps"] == len(paper_graph.timestamps())
        assert stats["view_edges"] == paper_graph.num_edges
        assert set(stats) == {"sorted_edges", "distinct_timestamps", "view_edges"}

    def test_timestamp_views_invalidate_on_mutation(self):
        graph = TemporalGraph(edges=[("a", "b", 1), ("a", "b", 3)])
        assert graph.out_timestamps("a") == [1, 3]
        graph.add_edge("a", "b", 2)
        assert graph.out_timestamps("a") == [1, 2, 3]
        assert graph.in_timestamps("b") == [1, 2, 3]

    def test_warm_views_are_defensive_copies(self):
        graph = TemporalGraph(edges=[("a", "b", 1)])
        graph.warm_indices()
        view = graph.out_timestamps("a")
        view.append(99)
        assert graph.out_timestamps("a") == [1]


# ----------------------------------------------------------------------
# the refactored runner delegates to the service
# ----------------------------------------------------------------------
class TestRunnerDelegation:
    def test_run_workload_semantics_preserved(self):
        graph, queries = _random_case(seed=9)
        workload = generate_workload(graph, num_queries=6, theta=8, seed=9, name="wl")
        runner = QueryRunner(keep_results=True)
        outcome = runner.run_workload(get_algorithm("VUG"), graph, workload)
        assert outcome.num_completed == len(workload)
        assert not outcome.timed_out
        assert len(outcome.results) == len(workload)
        for query, result in zip(workload, outcome.results):
            oracle = brute_force_tspg(graph, query.source, query.target, query.interval)
            assert result.same_members(oracle)
        assert outcome.max_space >= outcome.min_space > 0

    def test_runner_time_budget_still_cuts_off(self):
        graph = TemporalGraph(edges=[("s", f"v{i}", 1) for i in range(6)])
        queries = [TspgQuery("s", f"v{i}", (1, 10)) for i in range(6)]
        workload = QueryWorkload("budget", queries)
        runner = QueryRunner(time_budget_seconds=0.12)
        outcome = runner.run_workload(SlowAlgorithm(delay=0.05), graph, workload)
        assert outcome.timed_out
        assert outcome.num_completed < len(workload)
        assert outcome.reported_seconds == float("inf")

    def test_runner_reuses_service_per_graph(self):
        graph = TemporalGraph(edges=[("s", "t", 1), ("s", "a", 2), ("a", "t", 3)])
        runner = QueryRunner()
        first = runner._service_for(graph)
        second = runner._service_for(graph)
        assert first is second

    def test_runner_opt_in_cache(self):
        graph = TemporalGraph(edges=[("s", "a", 1), ("a", "t", 3)])
        workload = QueryWorkload("cached", [TspgQuery("s", "t", (1, 3))])
        runner = QueryRunner(use_cache=True)
        algorithm = get_algorithm("VUG")
        runner.run_workload(algorithm, graph, workload)
        runner.run_workload(algorithm, graph, workload)
        stats = runner._service_for(graph).cache_stats()
        assert stats.hits >= 1

    def test_runner_cache_toggle_after_first_run(self):
        graph = TemporalGraph(edges=[("s", "a", 1), ("a", "t", 3)])
        workload = QueryWorkload("toggle", [TspgQuery("s", "t", (1, 3))])
        runner = QueryRunner()  # use_cache=False builds the service first
        algorithm = get_algorithm("VUG")
        runner.run_workload(algorithm, graph, workload)
        runner.use_cache = True
        runner.run_workload(algorithm, graph, workload)
        runner.run_workload(algorithm, graph, workload)
        assert runner._service_for(graph).cache_stats().hits >= 1

    def test_run_single_skips_index_warming_when_uncached(self):
        graph = TemporalGraph(edges=[("s", "a", 1), ("a", "t", 3)])
        runner = QueryRunner()
        outcome = runner.run_single(get_algorithm("VUG"), graph, TspgQuery("s", "t", (1, 3)))
        assert outcome.result.num_edges == 2
        assert not runner._services  # no service (and no warming) was created
