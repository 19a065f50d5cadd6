"""Experiment drivers reproducing every table and figure of the paper.

Each function regenerates one artifact of Section VI on the synthetic dataset
analogues and returns an :class:`~repro.bench.reporting.ExperimentReport` with
the same rows/series shape as the paper:

========================  =======================================================
Function                  Paper artifact
========================  =======================================================
``table1_datasets``       TABLE I   — dataset statistics
``exp1_response_time``    Fig. 5    — total response time, all datasets
``exp2_vary_theta``       Fig. 6/14 — response time while varying θ
``exp3_space``            Fig. 7    — max/min space consumption per algorithm
``exp4_phases``           Fig. 8    — response time of each VUG phase
``exp5_upper_bound``      TABLE II  — average upper-bound ratio per method
``exp5_quick_vs_tgtsg``   Fig. 9    — response time of tgTSG vs QuickUBG
``exp5_vary_theta``       Fig. 10/15— upper-bound ratio and time while varying θ
``exp6_eev_vs_enum``      Fig. 11   — EEV vs enumeration on the tight bound
``exp7_edges_vs_paths``   Fig. 12   — #edges vs #paths in the tspG
``exp8_case_study``       Fig. 13   — SFMTA transit case study
``exp9_batch_throughput`` (new)     — batch service: serial vs cached
``exp13_serving_pool``    (new)     — worker pool vs serial + per-query deadlines
========================  =======================================================

All drivers take ``num_queries`` / dataset-key parameters so the pytest
benchmarks can run them at a laptop-friendly scale while the CLI can scale
them up.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from ..algorithms import PAPER_ALGORITHMS, get_algorithm
from ..analysis.upper_bound_ratio import UPPER_BOUND_METHODS, upper_bound_ratios_for_workload
from ..baselines.enumeration import EnumerationBudgetExceeded, tspg_by_enumeration
from ..baselines.reductions import tg_tsg_reduction
from ..core.quick_ubg import quick_upper_bound_graph
from ..core.vug import VUG, generate_tspg
from ..core.result import PhaseTimings
from ..core.eev import escaped_edges_verification
from ..core.tight_ubg import tight_upper_bound_graph
from ..datasets.registry import dataset_keys, get_dataset
from ..datasets.transit import (
    CASE_STUDY_QUERY,
    case_study_graph,
    describe_transfer_options,
    generate_transit_network,
)
from ..graph.temporal_graph import TemporalGraph
from ..paths.counting import count_temporal_simple_paths_capped
from ..queries.query import QueryWorkload
from ..queries.runner import QueryRunner
from ..queries.workload import generate_workload
from ..service import TspgService, WorkerPool
from ..service.pool import available_cpus
from ..store import save_snapshot
from .reporting import ExperimentReport

#: Default number of queries per workload used by the pytest benches.  The
#: paper uses 1000; the synthetic analogues are small enough that a few dozen
#: queries already produce stable orderings.
DEFAULT_NUM_QUERIES = 25

#: Per-(algorithm, workload) wall-clock budget replacing the paper's 12 h cap.
DEFAULT_TIME_BUDGET_SECONDS = 20.0


def _load(dataset_key: str) -> TemporalGraph:
    return get_dataset(dataset_key).load()


def _workload(
    graph: TemporalGraph,
    dataset_key: str,
    num_queries: int,
    theta: Optional[int] = None,
    seed: int = 7,
) -> QueryWorkload:
    spec = get_dataset(dataset_key)
    return generate_workload(
        graph,
        num_queries=num_queries,
        theta=theta if theta is not None else spec.default_theta,
        seed=seed,
        name=f"{dataset_key}-q{num_queries}",
    )


# ----------------------------------------------------------------------
# TABLE I
# ----------------------------------------------------------------------
def table1_datasets(keys: Optional[Sequence[str]] = None) -> ExperimentReport:
    """TABLE I: statistics of every dataset (paper values and synthetic analogue)."""
    report = ExperimentReport(
        experiment="Table I",
        description="Dataset statistics (paper original vs synthetic analogue)",
    )
    for key in keys or dataset_keys():
        spec = get_dataset(key)
        stats = spec.statistics()
        report.add_row(
            dataset=key,
            paper_name=spec.paper_name,
            paper_V=spec.paper_statistics.num_vertices,
            paper_E=spec.paper_statistics.num_edges,
            paper_T=spec.paper_statistics.num_timestamps,
            paper_theta=spec.paper_statistics.default_theta,
            synth_V=stats.num_vertices,
            synth_E=stats.num_edges,
            synth_T=stats.num_timestamps,
            synth_d=stats.max_degree,
        )
    report.add_note(
        "Synthetic analogues replace the (non-redistributable) SNAP/KONECT graphs; "
        "sizes are scaled down for the pure-Python build (see DESIGN.md)."
    )
    return report


# ----------------------------------------------------------------------
# Exp-1 (Fig. 5)
# ----------------------------------------------------------------------
def exp1_response_time(
    keys: Optional[Sequence[str]] = None,
    num_queries: int = DEFAULT_NUM_QUERIES,
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    time_budget_seconds: float = DEFAULT_TIME_BUDGET_SECONDS,
    seed: int = 7,
) -> ExperimentReport:
    """Fig. 5: total response time of every algorithm on every dataset."""
    report = ExperimentReport(
        experiment="Exp-1 (Fig. 5)",
        description=f"Total response time for {num_queries} random queries per dataset",
    )
    runner = QueryRunner(time_budget_seconds=time_budget_seconds)
    for key in keys or dataset_keys():
        graph = _load(key)
        workload = _workload(graph, key, num_queries, seed=seed)
        row: Dict[str, object] = {"dataset": key}
        for name in algorithms:
            outcome = runner.run_workload(get_algorithm(name), graph, workload)
            value = float("inf") if outcome.timed_out else round(outcome.total_seconds, 4)
            row[name] = value
            report.add_point(name, key, value)
        report.add_row(**row)
    return report


# ----------------------------------------------------------------------
# Exp-2 (Fig. 6 / Fig. 14)
# ----------------------------------------------------------------------
def exp2_vary_theta(
    dataset_key: str,
    thetas: Sequence[int],
    num_queries: int = DEFAULT_NUM_QUERIES,
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    time_budget_seconds: float = DEFAULT_TIME_BUDGET_SECONDS,
    seed: int = 7,
) -> ExperimentReport:
    """Fig. 6: total response time while varying the interval span θ."""
    report = ExperimentReport(
        experiment=f"Exp-2 (Fig. 6, {dataset_key})",
        description=f"Response time vs theta on {dataset_key}",
    )
    graph = _load(dataset_key)
    runner = QueryRunner(time_budget_seconds=time_budget_seconds)
    for theta in thetas:
        workload = _workload(graph, dataset_key, num_queries, theta=theta, seed=seed)
        row: Dict[str, object] = {"theta": theta}
        for name in algorithms:
            outcome = runner.run_workload(get_algorithm(name), graph, workload)
            value = float("inf") if outcome.timed_out else round(outcome.total_seconds, 4)
            row[name] = value
            report.add_point(name, theta, value)
        report.add_row(**row)
    return report


# ----------------------------------------------------------------------
# Exp-3 (Fig. 7)
# ----------------------------------------------------------------------
def exp3_space(
    keys: Optional[Sequence[str]] = None,
    num_queries: int = DEFAULT_NUM_QUERIES,
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    time_budget_seconds: float = DEFAULT_TIME_BUDGET_SECONDS,
    seed: int = 7,
) -> ExperimentReport:
    """Fig. 7: maximum and minimum per-query space cost of each algorithm."""
    report = ExperimentReport(
        experiment="Exp-3 (Fig. 7)",
        description="Space consumption (max/min across queries, element-count proxy)",
    )
    runner = QueryRunner(time_budget_seconds=time_budget_seconds)
    for key in keys or dataset_keys():
        graph = _load(key)
        workload = _workload(graph, key, num_queries, seed=seed)
        for name in algorithms:
            outcome = runner.run_workload(get_algorithm(name), graph, workload)
            report.add_row(
                dataset=key,
                algorithm=name,
                max_space=outcome.max_space,
                min_space=outcome.min_space,
                timed_out=outcome.timed_out,
            )
    report.add_note(
        "Space is reported as the number of graph elements an algorithm materialises "
        "(upper-bound graphs, TCV entries, enumerated path edges); see repro.analysis.memory."
    )
    return report


# ----------------------------------------------------------------------
# Exp-4 (Fig. 8)
# ----------------------------------------------------------------------
def exp4_phases(
    keys: Optional[Sequence[str]] = None,
    num_queries: int = DEFAULT_NUM_QUERIES,
    seed: int = 7,
) -> ExperimentReport:
    """Fig. 8: total response time of each phase of VUG (QuickUBG, TightUBG, EEV)."""
    report = ExperimentReport(
        experiment="Exp-4 (Fig. 8)",
        description="Per-phase response time of VUG",
    )
    engine = VUG()
    for key in keys or dataset_keys():
        graph = _load(key)
        workload = _workload(graph, key, num_queries, seed=seed)
        totals = PhaseTimings()
        for query in workload:
            run = engine.run(graph, query.source, query.target, query.interval)
            totals.accumulate(run.timings)
        report.add_row(
            dataset=key,
            QuickUBG=round(totals.quick_ubg, 4),
            TightUBG=round(totals.tight_ubg, 4),
            EEV=round(totals.eev, 4),
            total=round(totals.total, 4),
        )
        report.add_point("QuickUBG", key, round(totals.quick_ubg, 4))
        report.add_point("TightUBG", key, round(totals.tight_ubg, 4))
        report.add_point("EEV", key, round(totals.eev, 4))
    return report


# ----------------------------------------------------------------------
# Exp-5 (TABLE II, Fig. 9, Fig. 10 / Fig. 15)
# ----------------------------------------------------------------------
def exp5_upper_bound(
    keys: Optional[Sequence[str]] = None,
    num_queries: int = DEFAULT_NUM_QUERIES,
    seed: int = 7,
) -> ExperimentReport:
    """TABLE II: average upper-bound ratio of the five reduction methods."""
    report = ExperimentReport(
        experiment="Exp-5 (Table II)",
        description="Average upper-bound ratio (%) per method and dataset",
    )
    for key in keys or dataset_keys():
        graph = _load(key)
        workload = _workload(graph, key, num_queries, seed=seed)
        summaries = upper_bound_ratios_for_workload(graph, workload)
        row: Dict[str, object] = {"dataset": key}
        for method in UPPER_BOUND_METHODS:
            ratio = summaries[method].average_ratio
            row[method] = None if ratio is None else round(ratio, 1)
            report.add_point(method, key, row[method])
        report.add_row(**row)
    return report


def exp5_quick_vs_tgtsg(
    keys: Optional[Sequence[str]] = None,
    num_queries: int = DEFAULT_NUM_QUERIES,
    seed: int = 7,
) -> ExperimentReport:
    """Fig. 9: total upper-bound-generation time of tgTSG vs QuickUBG."""
    report = ExperimentReport(
        experiment="Exp-5 (Fig. 9)",
        description="Upper-bound generation time: tgTSG (Dijkstra) vs QuickUBG (BFS)",
    )
    for key in keys or dataset_keys():
        graph = _load(key)
        workload = _workload(graph, key, num_queries, seed=seed)
        tgtsg_total = 0.0
        quick_total = 0.0
        for query in workload:
            started = time.perf_counter()
            tg_tsg_reduction(graph, query.source, query.target, query.interval)
            tgtsg_total += time.perf_counter() - started
            started = time.perf_counter()
            quick_upper_bound_graph(graph, query.source, query.target, query.interval)
            quick_total += time.perf_counter() - started
        speedup = tgtsg_total / quick_total if quick_total else float("inf")
        report.add_row(
            dataset=key,
            tgTSG=round(tgtsg_total, 4),
            QuickUBG=round(quick_total, 4),
            speedup=round(speedup, 2),
        )
        report.add_point("tgTSG", key, round(tgtsg_total, 4))
        report.add_point("QuickUBG", key, round(quick_total, 4))
    return report


def exp5_vary_theta(
    dataset_key: str,
    thetas: Sequence[int],
    num_queries: int = DEFAULT_NUM_QUERIES,
    seed: int = 7,
) -> ExperimentReport:
    """Fig. 10 / Fig. 15: upper-bound ratio and generation time while varying θ."""
    report = ExperimentReport(
        experiment=f"Exp-5 (Fig. 10, {dataset_key})",
        description=f"Upper-bound ratio and phase time vs theta on {dataset_key}",
    )
    graph = _load(dataset_key)
    for theta in thetas:
        workload = _workload(graph, dataset_key, num_queries, theta=theta, seed=seed)
        quick_time = 0.0
        tight_time = 0.0
        quick_ratio_acc: List[float] = []
        tight_ratio_acc: List[float] = []
        for query in workload:
            started = time.perf_counter()
            quick = quick_upper_bound_graph(graph, query.source, query.target, query.interval)
            quick_time += time.perf_counter() - started
            started = time.perf_counter()
            tight = tight_upper_bound_graph(quick, query.source, query.target, query.interval)
            tight_time += time.perf_counter() - started
            tspg = escaped_edges_verification(tight, query.source, query.target, query.interval)
            if quick.num_edges:
                quick_ratio_acc.append(100.0 * tspg.num_edges / quick.num_edges)
            if tight.num_edges:
                tight_ratio_acc.append(100.0 * tspg.num_edges / tight.num_edges)
        quick_ratio = sum(quick_ratio_acc) / len(quick_ratio_acc) if quick_ratio_acc else None
        tight_ratio = sum(tight_ratio_acc) / len(tight_ratio_acc) if tight_ratio_acc else None
        report.add_row(
            theta=theta,
            QuickUBG_time=round(quick_time, 4),
            TightUBG_time=round(tight_time, 4),
            QuickUBG_ratio=None if quick_ratio is None else round(quick_ratio, 1),
            TightUBG_ratio=None if tight_ratio is None else round(tight_ratio, 1),
        )
        report.add_point("QuickUBG_ratio", theta, None if quick_ratio is None else round(quick_ratio, 1))
        report.add_point("TightUBG_ratio", theta, None if tight_ratio is None else round(tight_ratio, 1))
    return report


# ----------------------------------------------------------------------
# Exp-6 (Fig. 11)
# ----------------------------------------------------------------------
def exp6_eev_vs_enum(
    dataset_key: str,
    thetas: Sequence[int],
    num_queries: int = DEFAULT_NUM_QUERIES,
    enumeration_cap: Optional[int] = None,
    seed: int = 7,
) -> ExperimentReport:
    """Fig. 11: EEV vs explicit enumeration, both applied to the tight upper bound.

    ``enumeration_cap`` bounds the number of paths the enumeration-based
    verifier may produce per query; exceeding it marks the whole θ point as
    ``inf`` for the enumeration curve (the paper's time-out handling).
    """
    report = ExperimentReport(
        experiment=f"Exp-6 (Fig. 11, {dataset_key})",
        description=f"EEV vs enumeration on the tight upper-bound graph ({dataset_key})",
    )
    graph = _load(dataset_key)
    for theta in thetas:
        workload = _workload(graph, dataset_key, num_queries, theta=theta, seed=seed)
        eev_total = 0.0
        enum_total: float = 0.0
        enum_capped = False
        for query in workload:
            quick = quick_upper_bound_graph(graph, query.source, query.target, query.interval)
            tight = tight_upper_bound_graph(quick, query.source, query.target, query.interval)
            started = time.perf_counter()
            eev_result = escaped_edges_verification(
                tight, query.source, query.target, query.interval
            )
            eev_total += time.perf_counter() - started
            if enum_capped:
                continue
            started = time.perf_counter()
            try:
                enum_result = tspg_by_enumeration(
                    tight, query.source, query.target, query.interval,
                    max_paths=enumeration_cap,
                )
            except EnumerationBudgetExceeded:
                enum_capped = True
                enum_total = float("inf")
                report.add_note(
                    f"enumeration exceeded {enumeration_cap} paths at theta={theta}"
                )
                continue
            enum_total += time.perf_counter() - started
            if not eev_result.same_members(enum_result.result):
                report.add_note(
                    f"MISMATCH between EEV and enumeration on query {query.as_tuple()}"
                )
        enum_value = enum_total if enum_capped else round(enum_total, 4)
        report.add_row(
            theta=theta,
            EEV=round(eev_total, 4),
            Enumeration=enum_value,
        )
        report.add_point("EEV", theta, round(eev_total, 4))
        report.add_point("Enumeration", theta, enum_value)
    return report


# ----------------------------------------------------------------------
# Exp-7 (Fig. 12)
# ----------------------------------------------------------------------
def exp7_edges_vs_paths(
    dataset_key: str,
    thetas: Sequence[int],
    num_queries: int = DEFAULT_NUM_QUERIES,
    path_cap: int = 2_000_000,
    seed: int = 7,
) -> ExperimentReport:
    """Fig. 12: number of edges vs number of temporal simple paths in the tspG."""
    report = ExperimentReport(
        experiment=f"Exp-7 (Fig. 12, {dataset_key})",
        description=f"#edges and #paths contained in the tspG vs theta ({dataset_key})",
    )
    graph = _load(dataset_key)
    for theta in thetas:
        workload = _workload(graph, dataset_key, num_queries, theta=theta, seed=seed)
        total_edges = 0
        total_paths = 0
        capped = False
        for query in workload:
            tspg = generate_tspg(graph, query.source, query.target, query.interval)
            total_edges += tspg.num_edges
            count = count_temporal_simple_paths_capped(
                tspg.to_temporal_graph(), query.source, query.target, query.interval, cap=path_cap
            )
            total_paths += count.count
            capped = capped or count.capped
        report.add_row(
            theta=theta,
            tspg_edges=total_edges,
            tspg_paths=total_paths,
            path_count_capped=capped,
        )
        report.add_point("edges", theta, total_edges)
        report.add_point("paths", theta, total_paths)
    return report


# ----------------------------------------------------------------------
# Exp-8 (Fig. 13)
# ----------------------------------------------------------------------
def exp8_case_study(use_full_network: bool = True) -> ExperimentReport:
    """Fig. 13: the SFMTA transit case study (Silver Ave → 30th St, [9:20, 9:30])."""
    report = ExperimentReport(
        experiment="Exp-8 (Fig. 13)",
        description="Transit case study: transfer options from Silver Ave to 30th St",
    )
    source, target, interval = CASE_STUDY_QUERY
    graph = generate_transit_network() if use_full_network else case_study_graph()
    tspg = generate_tspg(graph, source, target, interval)
    report.add_row(
        network_edges=graph.num_edges,
        network_stops=graph.num_vertices,
        tspg_stops=tspg.num_vertices,
        tspg_trips=tspg.num_edges,
    )
    for line in describe_transfer_options(tspg):
        report.add_note(line)
    return report


# ----------------------------------------------------------------------
# Exp-9 (batch service throughput; no paper analogue)
# ----------------------------------------------------------------------
def exp9_batch_throughput(
    dataset_key: str = "D1",
    num_queries: int = DEFAULT_NUM_QUERIES,
    algorithm: str = "VUG",
    time_budget_seconds: float = DEFAULT_TIME_BUDGET_SECONDS,
    seed: int = 7,
) -> ExperimentReport:
    """Batch-service throughput: serial vs cache-served repeats.

    Runs the same workload through :class:`~repro.service.TspgService` —
    serially with the cache off, then a cache-filling pass and a second
    (fully memoized) pass — and reports wall-clock seconds and queries/sec
    per regime.  The cached row is the service's raison d'être: repeat
    queries cost a dictionary lookup instead of a VUG run.  Batches over
    worker processes are exp13's subject.
    """
    report = ExperimentReport(
        experiment=f"Exp-9 (batch throughput, {dataset_key})",
        description=(
            f"TspgService queries/sec for {num_queries} queries "
            f"({algorithm}): serial vs cached"
        ),
    )
    graph = _load(dataset_key)
    workload = _workload(graph, dataset_key, num_queries, seed=seed)
    queries = list(workload)

    def add_mode(mode: str, batch) -> None:
        report.add_row(
            mode=mode,
            wall_s=round(batch.wall_seconds, 4),
            qps=round(batch.queries_per_second, 1),
            completed=batch.num_completed,
            cache_hits=batch.num_cache_hits,
            timed_out=batch.timed_out,
        )
        report.add_point("qps", mode, round(batch.queries_per_second, 1))

    service = TspgService(graph, default_algorithm=algorithm)
    add_mode(
        "serial",
        service.run_batch(
            queries, max_workers=1, use_cache=False,
            time_budget_seconds=time_budget_seconds,
        ),
    )
    warm = service.run_batch(
        queries, max_workers=1, use_cache=True,
        time_budget_seconds=time_budget_seconds,
    )
    add_mode("cache-warmup", warm)
    add_mode("cached", service.run_batch(queries, max_workers=1, use_cache=True))
    stats = service.cache_stats()
    report.add_note(
        f"result cache: {stats.hits} hits / {stats.misses} misses "
        f"(hit rate {stats.hit_rate:.0%}), indices warmed once: {service.index_stats}"
    )
    return report


# ----------------------------------------------------------------------
# Exp-13 (worker pool vs serial + cooperative deadlines; no paper analogue)
# ----------------------------------------------------------------------
def exp13_serving_pool(
    dataset_key: str = "D10",
    num_queries: int = DEFAULT_NUM_QUERIES,
    algorithm: str = "VUG",
    workers: int = 4,
    num_batches: int = 2,
    snapshot_path: Optional[str] = None,
    time_budget_seconds: float = DEFAULT_TIME_BUDGET_SECONDS,
    seed: int = 7,
) -> ExperimentReport:
    """Exp-13: batches on a worker pool against serial, and per-query deadlines.

    One snapshot-booted service answers the *same* batch, with the result
    cache off, three ways:

    * ``serial`` — no pool attached, so the batch runs on the calling
      thread;
    * ``per-batch-boot-K`` — a fresh :class:`~repro.service.WorkerPool`
      per batch, so every batch pays worker fork, snapshot boot and
      shutdown (timed around the pool's whole life);
    * ``pool-K`` — one pool for every batch: batch 1 boots the workers,
      every later batch reuses them warm.

    The last per-batch-boot batch over the last pool batch is the
    amortisation the persistent pool exists for, and serial over the last
    pool batch is what the pool earns over not having one.  A fourth
    regime, ``deadline-cutoff``, runs the workload serially under a
    deliberately too-small budget and reports the cut-off *overshoot* —
    how far past the budget the batch ran — which the cooperative
    per-query deadlines keep within the documented slack (one
    uninterruptible phase of a single query) instead of one whole
    in-flight query of arbitrary cost.

    Every regime's in-budget results are cross-checked against the serial
    no-deadline batch (``identical`` column) — deadline polls are
    read-only, so finishing in budget must be bit-identical.
    """
    report = ExperimentReport(
        experiment=f"Exp-13 (serving pool, {dataset_key})",
        description=(
            f"Serial vs per-batch worker boot vs persistent pool, and "
            f"deadline cut-off promptness, for {num_batches}x{num_queries} "
            f"queries ({algorithm}, {workers} workers)"
        ),
    )
    graph = _load(dataset_key)
    queries = list(_workload(graph, dataset_key, num_queries, seed=seed))

    cleanup = snapshot_path is None
    if snapshot_path is None:
        handle, snapshot_path = tempfile.mkstemp(suffix=".tspgsnap")
        os.close(handle)
    try:
        save_snapshot(graph, snapshot_path)
        service = TspgService.from_snapshot(
            snapshot_path, default_algorithm=algorithm
        )

        def run_batch():
            # Caching is off: the point is measuring the compute path, and
            # a warm parent cache would short-circuit every repeat batch.
            return service.run_batch(
                queries, max_workers=workers, use_cache=False,
                time_budget_seconds=time_budget_seconds,
            )

        serial = run_batch()

        def matches_serial(batch) -> bool:
            return all(
                item.completed
                and base.completed
                and not item.outcome.timed_out
                and item.outcome.result.vertices == base.outcome.result.vertices
                and item.outcome.result.edges == base.outcome.result.edges
                for item, base in zip(batch.items, serial.items)
            )

        cold_batches = []
        for _ in range(num_batches):
            started = time.perf_counter()
            with WorkerPool(max_workers=workers) as fresh:
                service.attach_pool(fresh)
                batch = run_batch()
            # The regime's cost is the pool's whole life: fork, boot, the
            # batch and the shutdown.
            batch.wall_seconds = time.perf_counter() - started
            cold_batches.append(batch)
        with WorkerPool(max_workers=workers) as pool:
            service.attach_pool(pool)
            pool_batches = [run_batch() for _ in range(num_batches)]
            pool_stats = pool.stats()

        def add_row(mode: str, batch) -> None:
            report.add_row(
                mode=mode,
                executor=batch.executor,
                wall_s=round(batch.wall_seconds, 4),
                qps=round(batch.queries_per_second, 1),
                identical=matches_serial(batch),
                budget_s=None,
                overshoot_s=None,
            )
            report.add_point("wall_s", mode, round(batch.wall_seconds, 4))

        add_row("serial", serial)
        for prefix, batches in (
            ("per-batch-boot", cold_batches),
            ("pool", pool_batches),
        ):
            for index, batch in enumerate(batches, start=1):
                add_row(f"{prefix}-{index}", batch)

        warm_s = pool_batches[-1].wall_seconds
        warm_speedup = (
            cold_batches[-1].wall_seconds / warm_s if warm_s > 0 else float("inf")
        )
        serial_speedup = serial.wall_seconds / warm_s if warm_s > 0 else float("inf")
        report.add_note(
            f"warm pool batch is {warm_speedup:.2f}x the per-batch-boot "
            f"batch (pool generation {pool_stats['generation']}, "
            f"{pool_stats['batches_served']} batches served by one worker "
            f"set; per-batch boot re-forks and re-boots every time)"
        )
        report.add_note(
            f"warm pool batch is {serial_speedup:.2f}x the serial batch "
            f"({available_cpus()} CPUs visible)"
        )

        # Deadline promptness: a serial run under a budget that expires
        # mid-batch must land within one query's cut-off slack of it.
        budget = max(0.02, serial.wall_seconds / 3.0)
        cut = TspgService(graph, default_algorithm=algorithm).run_batch(
            queries, use_cache=False, time_budget_seconds=budget
        )
        overshoot = max(0.0, cut.wall_seconds - budget)
        refused = cut.num_timed_out + sum(1 for item in cut.items if item.skipped)
        report.add_row(
            mode="deadline-cutoff",
            executor=cut.executor,
            wall_s=round(cut.wall_seconds, 4),
            qps=round(cut.queries_per_second, 1),
            identical=None,
            budget_s=round(budget, 4),
            overshoot_s=round(overshoot, 4),
        )
        report.add_point("wall_s", "deadline-cutoff", round(cut.wall_seconds, 4))
        report.add_note(
            f"deadline-cutoff: budget {budget:.4f}s, finished "
            f"{overshoot:.4f}s past it with {refused} of {len(queries)} "
            f"queries refused/cut off (timed_out={cut.timed_out})"
        )
    finally:
        if cleanup and os.path.exists(snapshot_path):
            os.unlink(snapshot_path)
    return report


#: Registry used by the CLI ("run experiment by name").
EXPERIMENTS = {
    "table1": table1_datasets,
    "exp1": exp1_response_time,
    "exp2": exp2_vary_theta,
    "exp3": exp3_space,
    "exp4": exp4_phases,
    "exp5-table2": exp5_upper_bound,
    "exp5-fig9": exp5_quick_vs_tgtsg,
    "exp5-fig10": exp5_vary_theta,
    "exp6": exp6_eev_vs_enum,
    "exp7": exp7_edges_vs_paths,
    "exp8": exp8_case_study,
    "exp9": exp9_batch_throughput,
    "exp13": exp13_serving_pool,
}
