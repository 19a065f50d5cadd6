"""WorkerPool lifecycle and the one batch path: serial, or over the pool.

* Without a pool a batch runs serially on the calling thread and starts
  no thread; with one attached it runs on the pool's worker processes;
  once the pool is closed it runs serially again.
* Batches routed through one pool reuse the same worker processes (and
  therefore their snapshot-booted services) instead of re-forking.
* ``close()`` is clean and idempotent, and the context manager closes.
* A worker death surfaces as a clear :class:`WorkerPoolError` (not the
  stdlib's opaque ``BrokenProcessPool``) and the pool recovers — the next
  batch forks fresh workers and succeeds.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.graph.generators import uniform_random_temporal_graph
from repro.queries.workload import generate_workload
from repro.service import (
    ShardedTspgService,
    TspgService,
    WorkerPool,
    WorkerPoolError,
)
from repro.store import SnapshotError, save_snapshot


def _die() -> None:  # pragma: no cover - runs (and dies) in a worker
    os._exit(1)


def _case(seed: int, num_queries: int = 10):
    graph = uniform_random_temporal_graph(
        num_vertices=14, num_edges=90, num_timestamps=30, seed=seed
    )
    queries = list(
        generate_workload(
            graph, num_queries=num_queries, theta=8, seed=seed,
            name=f"pool-{seed}",
        )
    )
    return graph, queries


def _answers(report):
    return [
        (item.outcome.result.vertices, item.outcome.result.edges)
        for item in report.items
    ]


@pytest.fixture
def shapes(tmp_path):
    """A snapshot-booted flat service, a 3-shard router booted from its
    shard set, the batch both answer and the serial answers to it."""
    graph, queries = _case(seed=79, num_queries=10)
    save_snapshot(graph, tmp_path / "g.tspgsnap")
    ShardedTspgService(graph, 3, overlap=8).save_shards(tmp_path / "shards")
    services = {
        "flat": TspgService.from_snapshot(tmp_path / "g.tspgsnap"),
        "router": ShardedTspgService.from_shard_snapshots(tmp_path / "shards"),
    }
    expected = _answers(TspgService(graph).run_batch(queries, use_cache=False))
    return services, queries, expected


class TestOneBatchPath:
    def test_without_a_pool_a_batch_runs_serially_and_starts_no_thread(
        self, shapes, monkeypatch
    ):
        services, queries, expected = shapes
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for name, service in services.items():
            serial = service.run_batch(queries, max_workers=1, use_cache=False)
            wide = service.run_batch(queries, max_workers=4, use_cache=False)
            assert serial.executor == wide.executor == "serial", name
            assert _answers(wide) == _answers(serial) == expected, name
        assert started == []

    def test_with_a_pool_the_same_batches_run_on_processes(self, shapes, worker_pool):
        services, queries, expected = shapes
        for name, service in services.items():
            service.attach_pool(worker_pool)
            assert service.process_fallback_reasons(max_workers=4) == []
            report = service.run_batch(queries, max_workers=4, use_cache=False)
            assert report.executor == "processes", name
            assert _answers(report) == expected, name

    def test_closed_pool_runs_batches_serially(self, shapes):
        services, queries, expected = shapes
        pool = WorkerPool(max_workers=2)
        for service in services.values():
            service.attach_pool(pool)
        assert services["flat"].run_batch(
            queries, max_workers=2, use_cache=False
        ).executor == "processes"
        pool.close()
        for name, service in services.items():
            report = service.run_batch(queries, max_workers=2, use_cache=False)
            assert report.executor == "serial", name
            assert _answers(report) == expected, name
            assert service.process_fallback_reasons(max_workers=2) == [
                "the attached worker pool is closed"
            ], name
        assert pool.stats()["batches_served"] == 1


class TestLifecycle:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)

    def test_workers_fork_lazily(self):
        pool = WorkerPool(max_workers=2)
        assert pool.stats()["live"] == 0
        assert pool.stats()["generation"] == 0
        pool.close()

    def test_close_is_clean_and_idempotent(self):
        pool = WorkerPool(max_workers=1)
        assert pool.harvest(pool.submit(os.getpid)) > 0
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(WorkerPoolError, match="closed"):
            pool.submit(os.getpid)

    def test_context_manager_closes(self):
        with WorkerPool(max_workers=1) as pool:
            assert not pool.closed
        assert pool.closed


class TestReuseAcrossBatches:
    def test_flat_service_reuses_one_worker_set(self, tmp_path):
        graph, queries = _case(seed=41)
        path = tmp_path / "g.tspgsnap"
        save_snapshot(graph, path)
        baseline = TspgService(graph).run_batch(queries, use_cache=False)
        with WorkerPool(max_workers=2) as pool:
            service = TspgService.from_snapshot(path, pool=pool)
            first = service.run_batch(queries, max_workers=2, use_cache=False)
            second = service.run_batch(queries, max_workers=2, use_cache=False)
            stats = pool.stats()
            # Two batches served by ONE worker set: no re-fork happened.
            assert stats["batches_served"] == 2
            assert stats["generation"] == 1
            # The long-lived workers keep answering exactly like threads.
            for report in (first, second):
                assert report.executor == "processes"
                for item, base in zip(report.items, baseline.items):
                    assert item.outcome.result.vertices == base.outcome.result.vertices
                    assert item.outcome.result.edges == base.outcome.result.edges

    def test_worker_processes_persist_across_submissions(self):
        with WorkerPool(max_workers=2) as pool:
            first = {pool.harvest(pool.submit(os.getpid)) for _ in range(6)}
            second = {pool.harvest(pool.submit(os.getpid)) for _ in range(6)}
            assert first, "no worker answered"
            # Same pool, same processes: nothing new was forked.
            assert second <= first | second
            assert len(first | second) <= 2
            assert pool.stats()["generation"] == 1

    def test_sharded_router_reuses_the_pool(self, tmp_path):
        graph, queries = _case(seed=43)
        shard_dir = tmp_path / "shards"
        ShardedTspgService(graph, 2, overlap=8).save_shards(shard_dir)
        baseline = TspgService(graph).run_batch(queries, use_cache=False)
        with WorkerPool(max_workers=2) as pool:
            router = ShardedTspgService.from_shard_snapshots(shard_dir, pool=pool)
            assert router.pool is pool
            for _ in range(2):
                report = router.run_batch(queries, max_workers=2, use_cache=False)
                assert report.executor == "processes"
                for item, base in zip(report.items, baseline.items):
                    assert item.outcome.result.edges == base.outcome.result.edges
            assert pool.stats()["batches_served"] == 2
            assert pool.stats()["generation"] == 1


class TestWorkerCacheStaleness:
    def test_rewarmed_snapshot_at_same_path_reboots_workers(self, tmp_path):
        # Regression: a persistent pool outlives service generations, so a
        # worker's cached booted service must not survive the snapshot
        # file being rewritten with a different graph.
        graph_a, queries = _case(seed=67)
        graph_b = uniform_random_temporal_graph(
            num_vertices=14, num_edges=90, num_timestamps=30, seed=68
        )
        path = tmp_path / "g.tspgsnap"
        with WorkerPool(max_workers=2) as pool:
            save_snapshot(graph_a, path)
            service_a = TspgService.from_snapshot(path, pool=pool)
            first = service_a.run_batch(queries, max_workers=2, use_cache=False)
            assert first.executor == "processes"
            # Re-warm a *different* graph over the same path and boot a
            # fresh parent service from it.
            save_snapshot(graph_b, path)
            service_b = TspgService.from_snapshot(path, pool=pool)
            second = service_b.run_batch(queries, max_workers=2, use_cache=False)
            assert second.executor == "processes"
            expected = TspgService(graph_b).run_batch(queries, use_cache=False)
            for item, base in zip(second.items, expected.items):
                assert item.outcome.result.vertices == base.outcome.result.vertices
                assert item.outcome.result.edges == base.outcome.result.edges


    def test_rewrite_under_a_live_parent_fails_loudly(self, tmp_path, worker_pool):
        # Regression (live-reproduced in review): if another writer
        # rewrites the snapshot a *still-attached* parent serves from,
        # workers must refuse to answer over the different graph — the
        # parent's epoch guard cannot see the file change, so the worker's
        # boot-epoch check is the last line of defence.
        graph_a, queries = _case(seed=73, num_queries=4)
        graph_b = uniform_random_temporal_graph(
            num_vertices=10, num_edges=40, num_timestamps=15, seed=74
        )
        path = tmp_path / "g.tspgsnap"
        save_snapshot(graph_a, path)
        service = TspgService.from_snapshot(path, pool=worker_pool)
        save_snapshot(graph_b, path)  # rewrite behind the live parent
        if service.graph.epoch == graph_b.epoch:
            pytest.skip("graphs coincidentally share an epoch")
        with pytest.raises(SnapshotError, match="rewritten since"):
            service.run_batch(queries, max_workers=2, use_cache=False)

    def test_shared_pool_respects_each_services_default_algorithm(self, tmp_path):
        # Regression: the worker-side service cache must key on the
        # default algorithm too — two services sharing one pool and one
        # snapshot must each get batches computed by *their* default.
        graph, queries = _case(seed=71, num_queries=4)
        path = tmp_path / "g.tspgsnap"
        save_snapshot(graph, path)
        with WorkerPool(max_workers=2) as pool:
            vug = TspgService.from_snapshot(
                path, default_algorithm="VUG", pool=pool
            )
            ept = TspgService.from_snapshot(
                path, default_algorithm="EPdtTSG", pool=pool
            )
            first = vug.run_batch(queries, max_workers=2, use_cache=False)
            second = ept.run_batch(queries, max_workers=2, use_cache=False)
            assert first.executor == second.executor == "processes"
            assert all(item.outcome.algorithm == "VUG" for item in first.items)
            assert all(item.outcome.algorithm == "EPdtTSG" for item in second.items)


class TestWorkerDeathRecovery:
    def test_death_surfaces_a_clear_error_and_pool_recovers(self, tmp_path):
        graph, queries = _case(seed=59, num_queries=6)
        path = tmp_path / "g.tspgsnap"
        save_snapshot(graph, path)
        with WorkerPool(max_workers=2) as pool:
            service = TspgService.from_snapshot(path, pool=pool)
            ok = service.run_batch(queries, max_workers=2, use_cache=False)
            assert ok.executor == "processes"
            with pytest.raises(WorkerPoolError, match="worker process died"):
                pool.harvest(pool.submit(_die))
            # The broken executor was discarded: the next batch forks a
            # fresh worker set and serves normally.
            recovered = service.run_batch(queries, max_workers=2, use_cache=False)
            assert recovered.executor == "processes"
            assert recovered.num_completed == len(queries)
            assert pool.stats()["generation"] == 2

    def test_attach_pool_after_construction(self, tmp_path):
        graph, queries = _case(seed=61, num_queries=6)
        path = tmp_path / "g.tspgsnap"
        save_snapshot(graph, path)
        service = TspgService.from_snapshot(path)
        with WorkerPool(max_workers=2) as pool:
            service.attach_pool(pool)
            assert service.pool is pool
            report = service.run_batch(queries, max_workers=2, use_cache=False)
            assert report.executor == "processes"
            assert pool.stats()["batches_served"] == 1
            service.attach_pool(None)
            assert service.pool is None
