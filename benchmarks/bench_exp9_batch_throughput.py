"""Exp-9 (new) — batch-service throughput: serial vs cached.

No paper analogue: this benchmark measures the serving layer added on top of
the reproduction.  One workload is pushed through
:class:`~repro.service.TspgService` serially with the cache off and then as
a fully-memoized repeat pass, and the queries/sec of each is reported
(batches over worker processes are exp13's subject).  The headline property
asserted here is the cache: a repeat query must be served at least an order
of magnitude faster than a cold run, which is what makes the service viable
under repeat-heavy traffic.

The aggregated series is written to ``results/exp9_batch_throughput.txt``.
"""

from __future__ import annotations

from repro.bench.experiments import exp9_batch_throughput
from repro.datasets.registry import get_dataset
from repro.queries.workload import generate_workload
from repro.service import TspgService

from bench_config import BENCH_NUM_QUERIES, BENCH_TIME_BUDGET_SECONDS

#: Dataset used for the throughput measurements (moderate size, VUG-friendly).
BENCH_DATASET = "D1"


def _service_and_queries(num_queries: int = BENCH_NUM_QUERIES):
    spec = get_dataset(BENCH_DATASET)
    graph = spec.load()
    workload = generate_workload(
        graph, num_queries=num_queries, theta=spec.default_theta, seed=7,
        name=f"{BENCH_DATASET}-batch-bench",
    )
    return TspgService(graph), list(workload)


def test_exp9_serial_batch(benchmark):
    """The cold regime of the throughput comparison: one serial batch."""
    service, queries = _service_and_queries()

    report = benchmark.pedantic(
        service.run_batch,
        args=(queries,),
        kwargs=dict(
            use_cache=False,
            time_budget_seconds=BENCH_TIME_BUDGET_SECONDS,
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["qps"] = round(report.queries_per_second, 1)
    assert report.num_completed == len(queries)


def test_exp9_cached_latency(benchmark):
    """Acceptance: cached repeat-query latency is ≥10× below cold latency."""
    service, queries = _service_and_queries()

    cold = service.run_batch(queries, max_workers=1, use_cache=True)
    cached = benchmark.pedantic(
        service.run_batch,
        args=(queries,),
        kwargs=dict(max_workers=1, use_cache=True),
        rounds=1,
        iterations=1,
    )
    assert cached.num_cache_hits == len(queries)
    cold_latency = cold.wall_seconds / cold.num_completed
    cached_latency = cached.wall_seconds / cached.num_completed
    benchmark.extra_info["cold_latency_s"] = round(cold_latency, 6)
    benchmark.extra_info["cached_latency_s"] = round(cached_latency, 6)
    assert cached_latency * 10 <= cold_latency, (
        f"cached latency {cached_latency:.6f}s is not 10x below "
        f"cold latency {cold_latency:.6f}s"
    )
    for cold_item, cached_item in zip(cold.items, cached.items):
        assert cached_item.outcome.result.same_members(cold_item.outcome.result)


def test_exp9_summary_table(benchmark, save_report):
    """The full Exp-9 row set (serial, cache warm-up, cached)."""
    report = benchmark.pedantic(
        exp9_batch_throughput,
        kwargs=dict(
            dataset_key=BENCH_DATASET,
            num_queries=BENCH_NUM_QUERIES,
            time_budget_seconds=BENCH_TIME_BUDGET_SECONDS,
        ),
        rounds=1,
        iterations=1,
    )
    save_report("exp9_batch_throughput", report, x_label="mode")
    by_mode = {row["mode"]: row for row in report.rows}
    # The cached pass must dominate every cold regime by a wide margin.
    assert by_mode["cached"]["qps"] >= 10 * by_mode["serial"]["qps"]
