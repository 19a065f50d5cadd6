"""Tests for per-shard snapshots, batches over a worker pool and the
exception-vs-timeout / empty-batch / describe() report fixes."""

from __future__ import annotations

import time

import pytest

from repro.algorithms import available_algorithms, get_algorithm
from repro.baselines.interface import AlgorithmResult, TspgAlgorithm
from repro.core.deadline import Deadline
from repro.core.result import PathGraph
from repro.graph.generators import uniform_random_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.queries.query import TspgQuery
from repro.queries.runner import QueryRunner
from repro.queries.workload import generate_workload
from repro.service import FALLBACK_SHARD, ShardedTspgService, TspgService
from repro.service.service import BatchItem, BatchReport
from repro.store import (
    SHARD_MANIFEST_NAME,
    ShardSnapshotSet,
    SnapshotError,
    save_snapshot,
)


def _random_case(seed: int, num_queries: int = 10, theta: int = 8):
    graph = uniform_random_temporal_graph(
        num_vertices=16, num_edges=100, num_timestamps=30, seed=seed
    )
    workload = generate_workload(
        graph, num_queries=num_queries, theta=theta, seed=seed, name=f"ps-{seed}"
    )
    return graph, list(workload)


class FailingAlgorithm(TspgAlgorithm):
    """Test double: always raises from compute()."""

    name = "Failing"

    def compute(self, graph, source, target, interval) -> AlgorithmResult:
        raise RuntimeError("worker blew up")


class SlowAlgorithm(TspgAlgorithm):
    """Test double: sleeps per query so budgets trigger deterministically."""

    name = "Slow"

    def __init__(self, delay: float = 0.05) -> None:
        self.delay = delay

    def compute(self, graph, source, target, interval) -> AlgorithmResult:
        time.sleep(self.delay)
        return AlgorithmResult(
            algorithm=self.name,
            result=PathGraph.empty(source, target, interval),
            elapsed_seconds=self.delay,
        )


def _star_graph(count: int) -> TemporalGraph:
    return TemporalGraph(edges=[("s", f"v{i}", 1) for i in range(count)])


def _star_queries(count: int):
    return [TspgQuery("s", f"v{i}", (1, 10)) for i in range(count)]


# ----------------------------------------------------------------------
# regression: worker exceptions must not masquerade as budget cut-offs
# ----------------------------------------------------------------------
class TestExceptionVsTimeout:
    def _run_direct(self, budget):
        """Drive the engine's run_batch with a report we keep a handle on."""
        (engine,) = TspgService(_star_graph(4))._topology.engines
        report = BatchReport(
            algorithm="Failing",
            items=[BatchItem(query=query) for query in _star_queries(4)],
            num_workers=2,
        )
        deadline = None if budget is None else Deadline.after(budget)
        with pytest.raises(RuntimeError, match="worker blew up"):
            engine.run_batch(report, FailingAlgorithm(), False, deadline)
        return report

    def test_exception_without_budget_leaves_report_clean(self):
        # An error is not a budget cut-off: it must not mark the queries
        # after it skipped or stamp timed_out=True.
        report = self._run_direct(budget=None)
        assert report.timed_out is False
        assert not any(item.skipped for item in report.items)

    def test_exception_with_unexpired_budget_leaves_report_clean(self):
        report = self._run_direct(budget=30.0)
        assert report.timed_out is False
        assert not any(item.skipped for item in report.items)

    def test_expired_budget_without_exception_still_flags_timeout(self):
        service = TspgService(_star_graph(6))
        report = service.run_batch(
            _star_queries(6), SlowAlgorithm(delay=0.05),
            max_workers=2, use_cache=False, time_budget_seconds=0.08,
        )
        assert report.timed_out is True
        assert any(item.skipped for item in report.items)

    def test_expired_budget_refuses_queries_before_they_run(self):
        # Admission control: a batch whose budget is already gone never
        # runs a query at all — the failing algorithm cannot raise because
        # it is never invoked, and every row reports the cut-off.
        service = TspgService(_star_graph(4))
        report = service.run_batch(
            _star_queries(4), FailingAlgorithm(),
            max_workers=2, use_cache=False, time_budget_seconds=0.0,
        )
        assert report.timed_out is True
        assert all(
            item.skipped or (item.outcome is not None and item.outcome.timed_out)
            for item in report.items
        )


# ----------------------------------------------------------------------
# regression: empty sharded batches must validate the algorithm name
# ----------------------------------------------------------------------
class TestShardedEmptyBatchValidation:
    def test_unknown_name_raises_like_the_flat_service(self):
        graph, _ = _random_case(seed=31)
        router = ShardedTspgService(graph, 2)
        flat = TspgService(graph)
        with pytest.raises(KeyError, match="unknown algorithm 'nope'"):
            flat.run_batch([], algorithm="nope")
        with pytest.raises(KeyError, match="unknown algorithm 'nope'"):
            router.run_batch([], algorithm="nope")

    def test_valid_name_and_instance_still_resolve(self):
        graph, _ = _random_case(seed=32)
        router = ShardedTspgService(graph, 2)
        assert router.run_batch([], "Naive").algorithm == "Naive"
        assert router.run_batch([]).algorithm == router.default_algorithm
        assert router.run_batch([], get_algorithm("VUG")).algorithm == "VUG"

    def test_empty_batch_does_not_build_the_fallback(self):
        graph, _ = _random_case(seed=33)
        router = ShardedTspgService(graph, 2)
        router.run_batch([], "VUG")
        assert router._fallback is None


# ----------------------------------------------------------------------
# regression: describe() must not advertise an unbuilt fallback as warmed
# ----------------------------------------------------------------------
class TestDescribeFallbackRow:
    def test_unbuilt_fallback_reports_zero_and_built_false(self):
        graph, _ = _random_case(seed=34)
        router = ShardedTspgService(graph, 3, overlap=4)
        row = router.describe()[-1]
        assert row["shard"] == FALLBACK_SHARD
        assert row["built"] is False
        assert row["vertices"] == 0
        assert row["edges"] == 0
        # index_stats aggregates only built services; the shard rows alone
        # must account for everything describe() claims is warmed.
        assert router.index_stats["sorted_edges"] == sum(
            r["edges"] for r in router.describe() if r["shard"] != FALLBACK_SHARD
        )

    def test_built_fallback_reports_full_graph_counts(self):
        graph, _ = _random_case(seed=35)
        router = ShardedTspgService(graph, 3)
        span = graph.time_interval()
        source, target = sorted(graph.vertices())[:2]
        # A span-wide interval no single shard covers forces the fallback.
        router.query(source, target, (span.begin, span.end))
        row = router.describe()[-1]
        assert row["built"] is True
        assert row["vertices"] == graph.num_vertices
        assert row["edges"] == graph.num_edges
        assert all(r["built"] is True for r in router.describe()[:-1])


# ----------------------------------------------------------------------
# the shard snapshot set: round trips and corruption
# ----------------------------------------------------------------------
class TestShardSnapshotSet:
    def test_save_shards_writes_manifest_and_per_shard_files(self, tmp_path):
        graph, _ = _random_case(seed=36)
        router = ShardedTspgService(graph, 3, overlap=5)
        manifest = router.save_shards(tmp_path / "shards")
        assert manifest.num_shards == 3
        assert manifest.overlap == 5
        assert manifest.epoch == graph.epoch
        assert manifest.span == graph.time_interval().as_tuple()
        shard_set = ShardSnapshotSet(tmp_path / "shards")
        assert shard_set.exists()
        names = sorted(p.name for p in (tmp_path / "shards").iterdir())
        assert names == sorted(
            [SHARD_MANIFEST_NAME] + [entry.filename for entry in manifest.shards]
        )
        for entry, shard_graph in shard_set.load_all():
            assert shard_graph.num_edges == entry.num_edges
            assert shard_graph.num_vertices == entry.num_vertices
            spec = router.shards[entry.index]
            assert entry.core == spec.core.as_tuple()
            assert entry.extent == spec.extent.as_tuple()

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot open shard manifest"):
            ShardSnapshotSet(tmp_path / "nowhere").manifest()

    def test_corrupt_shard_file_raises_checksum_mismatch(self, tmp_path):
        graph, _ = _random_case(seed=37)
        manifest = ShardedTspgService(graph, 2).save_shards(tmp_path / "shards")
        shard_set = ShardSnapshotSet(tmp_path / "shards")
        victim = tmp_path / "shards" / manifest.shards[1].filename
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            shard_set.load_all()

    @pytest.mark.parametrize(
        "boot",
        [
            lambda path: ShardSnapshotSet(path).load_all(),
            lambda path: ShardSnapshotSet(path).load_all(mmap=True),
            lambda path: ShardedTspgService.from_shard_snapshots(path, mmap=True),
        ],
        ids=["eager", "mmap", "router-mmap"],
    )
    def test_tampered_manifest_counts_raise(self, tmp_path, boot):
        graph, _ = _random_case(seed=38)
        ShardedTspgService(graph, 2).save_shards(tmp_path / "shards")
        manifest_path = tmp_path / "shards" / SHARD_MANIFEST_NAME
        text = manifest_path.read_text(encoding="utf-8")
        import json

        raw = json.loads(text)
        # The file CRC covers the snapshot bytes, not the manifest, so a
        # count edit slips past the checksum and must be caught by the
        # decoded-count cross-check, which an mmap boot runs too.
        raw["shards"][0]["num_edges"] += 1
        manifest_path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(SnapshotError, match="does not match its manifest"):
            boot(tmp_path / "shards")

    def test_resave_commits_a_new_generation_and_prunes_the_old(self, tmp_path):
        # Re-warming over a live set must never touch the files the current
        # manifest references: each save writes a fresh generation, commits
        # via the manifest swap, then prunes what is no longer referenced.
        graph, queries = _random_case(seed=56)
        router = ShardedTspgService(graph, 4, overlap=3)
        first = router.save_shards(tmp_path / "shards")
        second = ShardedTspgService(graph, 2, overlap=5).save_shards(
            tmp_path / "shards"
        )
        first_names = {entry.filename for entry in first.shards}
        second_names = {entry.filename for entry in second.shards}
        assert first_names.isdisjoint(second_names)
        remaining = {p.name for p in (tmp_path / "shards").iterdir()}
        assert remaining == second_names | {SHARD_MANIFEST_NAME}
        booted = ShardedTspgService.from_shard_snapshots(tmp_path / "shards")
        assert booted.num_shards == 2
        assert booted.overlap == 5
        flat = TspgService(graph)
        for query in queries[:3]:
            mine = booted.submit(query, use_cache=False)
            reference = flat.submit(query, use_cache=False)
            assert mine.result.edges == reference.result.edges

    def test_manifest_shard_count_mismatch_raises(self, tmp_path):
        graph, _ = _random_case(seed=39)
        ShardedTspgService(graph, 2).save_shards(tmp_path / "shards")
        manifest_path = tmp_path / "shards" / SHARD_MANIFEST_NAME
        import json

        raw = json.loads(manifest_path.read_text(encoding="utf-8"))
        raw["num_shards"] = 5
        manifest_path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(SnapshotError, match="claims 5 shards"):
            ShardSnapshotSet(tmp_path / "shards").manifest()


# ----------------------------------------------------------------------
# booting a router from shard snapshots alone
# ----------------------------------------------------------------------
class TestFromShardSnapshots:
    def test_boot_is_full_graph_free_until_fallback_needed(self, tmp_path):
        graph, queries = _random_case(seed=40)
        ShardedTspgService(graph, 3, overlap=8).save_shards(tmp_path / "shards")
        booted = ShardedTspgService.from_shard_snapshots(tmp_path / "shards")
        assert booted._graph is None  # nothing has forced the union yet
        assert booted.num_shards == 3
        assert booted.overlap == 8
        # Shard-coverable queries never materialise the full graph.
        flat = TspgService(graph)
        for query in queries:
            if booted.route(query.interval) == FALLBACK_SHARD:
                continue
            mine = booted.submit(query, use_cache=False)
            reference = flat.submit(query, use_cache=False)
            assert mine.result.vertices == reference.result.vertices
            assert mine.result.edges == reference.result.edges
        assert booted._graph is None

    def test_lazy_union_equals_source_graph(self, tmp_path):
        graph, _ = _random_case(seed=41)
        ShardedTspgService(graph, 4, overlap=3).save_shards(tmp_path / "shards")
        booted = ShardedTspgService.from_shard_snapshots(tmp_path / "shards")
        assert booted.graph == graph  # union of shard extents covers the span
        # Materialising the union is a reconstruction, not a mutation: the
        # topology must survive it without a repartition.
        assert booted.graph.epoch == booted._topology.epoch

    def test_isolated_vertices_survive_the_round_trip(self, tmp_path):
        # Shard projections only keep edge-incident vertices; the shard set
        # persists edge-less ones separately so the union loses nothing
        # (parity with the flat snapshot path, which keeps them).
        graph, _ = _random_case(seed=53)
        graph.add_vertex("isolated-stop")
        graph.add_vertex(("compound", 7))
        router = ShardedTspgService(graph, 3, overlap=4)
        manifest = router.save_shards(tmp_path / "shards")
        assert manifest.isolated is not None
        assert manifest.isolated[2] == 2
        booted = ShardedTspgService.from_shard_snapshots(tmp_path / "shards")
        assert booted.graph == graph
        assert booted.graph.has_vertex("isolated-stop")
        assert booted.graph.has_vertex(("compound", 7))

    def test_corrupt_isolated_file_raises(self, tmp_path):
        graph, _ = _random_case(seed=54)
        graph.add_vertex("lonely")
        manifest = ShardedTspgService(graph, 2).save_shards(tmp_path / "shards")
        victim = tmp_path / "shards" / manifest.isolated[0]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            ShardedTspgService.from_shard_snapshots(tmp_path / "shards")

    def test_fallback_query_on_booted_router_matches_flat(self, tmp_path):
        graph, _ = _random_case(seed=42)
        ShardedTspgService(graph, 3).save_shards(tmp_path / "shards")
        booted = ShardedTspgService.from_shard_snapshots(tmp_path / "shards")
        span = graph.time_interval()
        source, target = sorted(graph.vertices())[:2]
        wide = TspgQuery(source, target, (span.begin, span.end))
        assert booted.route(wide.interval) == FALLBACK_SHARD
        mine = booted.submit(wide, use_cache=False)
        reference = TspgService(graph).submit(wide, use_cache=False)
        assert mine.result.vertices == reference.result.vertices
        assert mine.result.edges == reference.result.edges


# ----------------------------------------------------------------------
# batches over a worker pool
# ----------------------------------------------------------------------
class TestProcessBackend:
    def test_oracle_serial_and_processes_every_algorithm(self, tmp_path, worker_pool):
        """Randomized oracle: serial and pool batches bit-identical, registry-wide."""
        graph, queries = _random_case(seed=43, num_queries=8)
        flat = TspgService(graph)
        router = ShardedTspgService(graph, 3, overlap=8, pool=worker_pool)
        router.save_shards(tmp_path / "shards")
        for name in available_algorithms():
            serial = flat.run_batch(queries, name, use_cache=False)
            routed = router.run_batch(queries, name, max_workers=1, use_cache=False)
            processed = router.run_batch(
                queries, name, max_workers=3, use_cache=False
            )
            assert routed.executor == "serial", name
            assert processed.executor == "processes", name
            assert routed.algorithm == processed.algorithm == serial.algorithm
            for base, routed_item, process_item in zip(
                serial.items, routed.items, processed.items
            ):
                for item in (routed_item, process_item):
                    assert item.outcome.result.vertices == base.outcome.result.vertices, name
                    assert item.outcome.result.edges == base.outcome.result.edges, name

    def test_flat_service_process_backend_matches_serial(self, tmp_path, worker_pool):
        graph, queries = _random_case(seed=44, num_queries=8)
        path = tmp_path / "flat.tspgsnap"
        save_snapshot(graph, path)
        service = TspgService.from_snapshot(path, pool=worker_pool)
        serial = service.run_batch(queries, use_cache=False)
        processed = service.run_batch(queries, max_workers=2, use_cache=False)
        assert serial.executor == "serial"
        assert processed.executor == "processes"
        for base, item in zip(serial.items, processed.items):
            assert item.outcome.result.vertices == base.outcome.result.vertices
            assert item.outcome.result.edges == base.outcome.result.edges

    def test_processes_fall_back_to_serial_without_snapshots(self, worker_pool):
        graph, queries = _random_case(seed=45, num_queries=6)
        service = TspgService(graph, pool=worker_pool)  # no snapshot attached
        report = service.run_batch(queries, max_workers=2, use_cache=False)
        assert report.executor == "serial"
        assert report.num_completed == len(queries)
        router = ShardedTspgService(graph, 2, pool=worker_pool)  # no save_shards
        sharded = router.run_batch(queries, max_workers=2, use_cache=False)
        assert sharded.executor == "serial"
        assert sharded.num_completed == len(queries)

    def test_processes_fall_back_for_algorithm_instances(self, tmp_path, worker_pool):
        graph, queries = _random_case(seed=46, num_queries=4)
        router = ShardedTspgService(graph, 2, overlap=8, pool=worker_pool)
        router.save_shards(tmp_path / "shards")
        report = router.run_batch(
            queries, get_algorithm("VUG"), max_workers=2, use_cache=False
        )
        assert report.executor == "serial"  # instances stay in-process
        assert report.num_completed == len(queries)

    def test_mutation_invalidates_shard_snapshots(self, tmp_path, worker_pool):
        graph, queries = _random_case(seed=47, num_queries=4)
        router = ShardedTspgService(graph, 2, overlap=8, pool=worker_pool)
        router.save_shards(tmp_path / "shards")
        graph.add_edge("fresh-u", "fresh-v", 999)
        report = router.run_batch(queries, max_workers=2, use_cache=False)
        # Stale shard files must not serve the mutated graph.
        assert report.executor == "serial"
        assert report.num_completed == len(queries)

    @pytest.mark.parametrize("shape", ["flat", "router"])
    @pytest.mark.parametrize("max_workers, num_queries", [(1, 4), (2, 1)])
    def test_workers_one_stays_serial_even_with_snapshots(
        self, tmp_path, max_workers, num_queries, shape, worker_pool
    ):
        # --workers 1, or a batch of one query, means serial on both
        # shapes; handing one query to a worker would only add latency.
        graph, queries = _random_case(seed=57, num_queries=4)
        if shape == "flat":
            save_snapshot(graph, tmp_path / "g.tspgsnap")
            service = TspgService.from_snapshot(
                tmp_path / "g.tspgsnap", pool=worker_pool
            )
        else:
            service = ShardedTspgService(graph, 2, overlap=8, pool=worker_pool)
            service.save_shards(tmp_path / "shards")
        report = service.run_batch(
            queries[:num_queries], max_workers=max_workers, use_cache=False
        )
        assert report.executor == "serial"
        assert report.num_completed == num_queries

    def test_worker_exception_propagates_from_processes(self, tmp_path, worker_pool):
        # An unknown option set makes the algorithm's registry lookup blow
        # up; the error must re-raise in the caller.
        graph, queries = _random_case(seed=49, num_queries=4)
        router = ShardedTspgService(
            graph, 2, overlap=8, pool=worker_pool,
            algorithm_options={"VUG": {"no_such_option": True}},
        )
        router.save_shards(tmp_path / "shards")
        with pytest.raises(TypeError):
            router.run_batch(queries, "VUG", max_workers=2, use_cache=False)

    def test_process_backend_serves_repeats_from_the_parent_cache(
        self, tmp_path, worker_pool
    ):
        # Pool workers keep their own caches, so memoization only helps
        # every caller if the parent's LRU stays authoritative: hits
        # answered before the fan-out, worker outcomes stored back on merge.
        graph, queries = _random_case(seed=55, num_queries=8)
        router = ShardedTspgService(graph, 3, overlap=8, pool=worker_pool)
        router.save_shards(tmp_path / "shards")
        cold = router.run_batch(queries, max_workers=3, use_cache=True)
        warm = router.run_batch(queries, max_workers=3, use_cache=True)
        assert cold.num_cache_hits == 0
        assert warm.num_cache_hits == len(queries)
        assert warm.algorithm == cold.algorithm
        assert cold.executor == "processes"
        # Fully cache-served: no worker ran, so the report must not claim
        # the pool executed anything.
        assert warm.executor == "serial"
        for cold_item, warm_item in zip(cold.items, warm.items):
            assert warm_item.outcome.result.vertices == cold_item.outcome.result.vertices
            assert warm_item.outcome.result.edges == cold_item.outcome.result.edges

        path = tmp_path / "flat.tspgsnap"
        save_snapshot(graph, path)
        flat = TspgService.from_snapshot(path, pool=worker_pool)
        flat_cold = flat.run_batch(queries, max_workers=2, use_cache=True)
        flat_warm = flat.run_batch(queries, max_workers=2, use_cache=True)
        assert flat_cold.num_cache_hits == 0
        assert flat_warm.num_cache_hits == len(queries)
        # One query left after the peek runs here, and misses once.
        first = queries[0]
        fresh = TspgQuery(
            first.source, first.target,
            (first.interval.begin, first.interval.end + 1),
        )
        misses = flat.cache_stats().misses
        one_left = flat.run_batch(
            [*queries, fresh], max_workers=2, use_cache=True
        )
        assert one_left.executor == "serial"
        assert one_left.num_cache_hits == len(queries)
        assert flat.cache_stats().misses == misses + 1

    def test_skewed_groups_are_subchunked_across_workers(self, tmp_path, worker_pool):
        # One shard receiving nearly the whole batch must still spread over
        # the worker budget (multiple pool tasks per group), not serialise
        # inside a single worker — and stay bit-identical doing so.
        graph = TemporalGraph(
            edges=[("s", f"v{i}", 1 + (i % 3)) for i in range(12)]
            + [("s", "far", 28), ("far", "wide", 29)]
        )
        queries = [TspgQuery("s", f"v{i}", (1, 4)) for i in range(12)]
        queries.append(TspgQuery("s", "wide", (27, 30)))
        router = ShardedTspgService(graph, 2, overlap=2, pool=worker_pool)
        router.save_shards(tmp_path / "shards")
        serial = TspgService(graph).run_batch(queries, use_cache=False)
        report = router.run_batch(queries, max_workers=4, use_cache=False)
        assert report.executor == "processes"
        assert report.num_completed == len(queries)
        for base, item in zip(serial.items, report.items):
            assert item.outcome.result.vertices == base.outcome.result.vertices
            assert item.outcome.result.edges == base.outcome.result.edges

    def test_process_backend_honours_time_budget(self, tmp_path, worker_pool):
        graph, queries = _random_case(seed=50, num_queries=6)
        router = ShardedTspgService(graph, 2, overlap=8, pool=worker_pool)
        router.save_shards(tmp_path / "shards")
        report = router.run_batch(
            queries, max_workers=2, use_cache=False, time_budget_seconds=0.0
        )
        assert report.timed_out is True
        assert all(item.skipped for item in report.items if item.outcome is None)


# ----------------------------------------------------------------------
# QueryRunner wiring
# ----------------------------------------------------------------------
class TestRunnerWiring:
    def test_runner_snapshot_boot_attaches_process_backend(self, tmp_path, worker_pool):
        # The runner's snapshot boot keeps the file attached, so its service
        # can run batches on a pool.
        graph, queries = _random_case(seed=51, num_queries=4)
        path = tmp_path / "runner.tspgsnap"
        save_snapshot(graph, path)
        runner = QueryRunner()
        loaded = runner.graph_from_snapshot(path)
        service = runner._service_for(loaded)
        service.attach_pool(worker_pool)
        report = service.run_batch(queries, max_workers=2, use_cache=False)
        assert report.executor == "processes"

    def test_runner_boots_router_from_shard_snapshots(self, tmp_path):
        graph, queries = _random_case(seed=52, num_queries=6)
        ShardedTspgService(graph, 2, overlap=8).save_shards(tmp_path / "shards")
        runner = QueryRunner(keep_results=True)
        loaded = runner.graph_from_shard_snapshots(tmp_path / "shards")
        assert loaded == graph
        service = runner._service_for(loaded)
        assert isinstance(service, ShardedTspgService)
        from repro.queries.query import QueryWorkload

        outcome = runner.run_workload(
            get_algorithm("VUG"), loaded, QueryWorkload("wl", queries)
        )
        reference = QueryRunner(keep_results=True).run_workload(
            get_algorithm("VUG"), graph, QueryWorkload("wl", queries)
        )
        assert outcome.num_completed == reference.num_completed
        for mine, theirs in zip(outcome.results, reference.results):
            assert mine.vertices == theirs.vertices
            assert mine.edges == theirs.edges
