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
``exp9_batch_throughput`` (new)     — batch service: serial vs parallel vs cached
``exp10_store_and_shards`` (new)    — snapshot boot vs cold boot; sharded batches
``exp11_view_pipeline``   (new)     — zero-materialization vs materializing VUG
``exp12_process_shards``  (new)     — thread vs snapshot-booted process backend
``exp13_serving_pool``    (new)     — persistent worker pool + per-query deadlines
``exp15_mmap_boot``       (new)     — mmap-backed v4 columnar boot vs eager boots
``exp16_query_residency`` (new)     — extent-local mapping, page advice
``exp17_live_ingest``     (new)     — ingest-while-querying identity oracle
``exp18_serving_tier``    (new)     — TCP serving tier under concurrent replay
========================  =======================================================

All drivers take ``num_queries`` / dataset-key parameters so the pytest
benchmarks can run them at a laptop-friendly scale while the CLI can scale
them up.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence

from ..algorithms import PAPER_ALGORITHMS, available_algorithms, get_algorithm
from ..analysis.upper_bound_ratio import UPPER_BOUND_METHODS, upper_bound_ratios_for_workload
from ..baselines.enumeration import EnumerationBudgetExceeded, tspg_by_enumeration
from ..baselines.reductions import tg_tsg_reduction
from ..core.polarity import compute_polarity_times
from ..core.quick_ubg import quick_upper_bound_graph
from ..core.vug import VUG, generate_tspg
from ..core.result import PhaseTimings
from ..core.eev import escaped_edges_verification
from ..core.tight_ubg import tight_upper_bound_with_tcv
from ..datasets.registry import DATASETS, SYNTH_SCALE, dataset_keys, get_dataset
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
from ..service import (
    RequestCore,
    ServerThread,
    ShardedTspgService,
    TspgClient,
    TspgService,
    WorkerPool,
)
from ..store import (
    SnapshotGraphStore,
    boot_snapshot,
    inspect_snapshot,
    save_snapshot,
    write_legacy_snapshot,
)
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
            polarity = compute_polarity_times(graph, query.source, query.target, query.interval)
            quick_upper_bound_graph(
                graph, query.source, query.target, query.interval, polarity=polarity
            )
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
            tight, _ = tight_upper_bound_with_tcv(quick, query.source, query.target, query.interval)
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
            tight, _ = tight_upper_bound_with_tcv(quick, query.source, query.target, query.interval)
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
    workers: Sequence[int] = (1, 4),
    time_budget_seconds: float = DEFAULT_TIME_BUDGET_SECONDS,
    seed: int = 7,
) -> ExperimentReport:
    """Batch-service throughput: serial vs parallel vs cache-served repeats.

    Runs the same workload through :class:`~repro.service.TspgService` three
    ways — serially, on a worker pool for each entry of ``workers``, and a
    second (fully memoized) pass — and reports wall-clock seconds and
    queries/sec per regime.  The cached row is the service's raison d'être:
    repeat queries cost a dictionary lookup instead of a VUG run.
    """
    report = ExperimentReport(
        experiment=f"Exp-9 (batch throughput, {dataset_key})",
        description=(
            f"TspgService queries/sec for {num_queries} queries "
            f"({algorithm}): serial vs parallel vs cached"
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
    for count in workers:
        if count <= 1:
            continue
        add_mode(
            f"parallel-{count}",
            service.run_batch(
                queries, max_workers=count, use_cache=False,
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
# Exp-10 (store + sharding; no paper analogue)
# ----------------------------------------------------------------------
def measure_boot_times(
    graph: TemporalGraph,
    snapshot_path: Optional[str] = None,
    rounds: int = 5,
) -> Dict[str, float]:
    """Best-of-``rounds`` cold-boot vs snapshot-boot wall-clock seconds.

    Both sides boot to the *same* warm state: the pre-sorted tuple edge
    backing, the distinct-timestamp set and every per-vertex view built
    (``TemporalEdge`` materialisation is uniformly lazy in both cases, so
    the comparison is apples-to-apples).  Cold boot pays per-edge sorted
    adjacency insertion plus the O(E log E) sort; snapshot boot reads the
    already-warm state back in O(read).  Shared by the exp10 driver and
    the benchmark asserts.
    """
    edges = list(graph.edge_tuples())
    vertices = list(graph.vertices())

    cleanup = snapshot_path is None
    if snapshot_path is None:
        handle, snapshot_path = tempfile.mkstemp(suffix=".tspgsnap")
        os.close(handle)
    store = SnapshotGraphStore(snapshot_path)
    try:
        store.save(graph)
        cold = snap = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            rebuilt = TemporalGraph(edges=edges, vertices=vertices)
            rebuilt.warm_indices()
            cold = min(cold, time.perf_counter() - started)
            started = time.perf_counter()
            loaded = store.load()
            loaded.warm_indices()
            snap = min(snap, time.perf_counter() - started)
        if not (loaded == graph):
            raise AssertionError("snapshot boot produced a different graph")
        return {"cold_boot_s": cold, "snapshot_boot_s": snap}
    finally:
        if cleanup and os.path.exists(snapshot_path):
            os.unlink(snapshot_path)


def exp10_store_and_shards(
    dataset_key: str = "D10",
    num_queries: int = DEFAULT_NUM_QUERIES,
    algorithm: str = "VUG",
    shard_counts: Sequence[int] = (2, 4),
    overlap: Optional[int] = None,
    snapshot_path: Optional[str] = None,
    time_budget_seconds: float = DEFAULT_TIME_BUDGET_SECONDS,
    seed: int = 7,
) -> ExperimentReport:
    """Exp-10: persistent snapshots and time-range sharding.

    Two comparisons on one dataset (D10 — the largest analogue — by
    default): **boot latency** of a cold index build vs a snapshot load, and
    **batch throughput** of the unsharded service vs a sharded router at
    each entry of ``shard_counts``, with a bit-identical cross-check of
    every sharded result against the unsharded baseline.
    """
    report = ExperimentReport(
        experiment=f"Exp-10 (store + shards, {dataset_key})",
        description=(
            f"Snapshot boot vs cold boot, and 1-shard vs N-shard batch "
            f"throughput for {num_queries} queries ({algorithm})"
        ),
    )
    graph = _load(dataset_key)
    spec = get_dataset(dataset_key)
    shard_overlap = overlap if overlap is not None else spec.default_theta

    boots = measure_boot_times(graph, snapshot_path=snapshot_path)
    speedup = (
        boots["cold_boot_s"] / boots["snapshot_boot_s"]
        if boots["snapshot_boot_s"] > 0
        else float("inf")
    )
    report.add_row(
        mode="cold-boot", wall_s=round(boots["cold_boot_s"], 4), qps=None,
        identical=None,
    )
    report.add_row(
        mode="snapshot-boot", wall_s=round(boots["snapshot_boot_s"], 4), qps=None,
        identical=None,
    )
    report.add_point("boot_s", "cold-boot", round(boots["cold_boot_s"], 4))
    report.add_point("boot_s", "snapshot-boot", round(boots["snapshot_boot_s"], 4))
    report.add_note(f"snapshot boot is {speedup:.1f}x faster than cold boot")

    workload = _workload(graph, dataset_key, num_queries, seed=seed)
    queries = list(workload)
    flat = TspgService(graph, default_algorithm=algorithm)
    baseline = flat.run_batch(
        queries, use_cache=False, time_budget_seconds=time_budget_seconds
    )
    report.add_row(
        mode="1-shard", wall_s=round(baseline.wall_seconds, 4),
        qps=round(baseline.queries_per_second, 1), identical=True,
    )
    report.add_point("qps", "1-shard", round(baseline.queries_per_second, 1))
    for count in shard_counts:
        if count <= 1:
            continue
        router = ShardedTspgService(
            graph, count, overlap=shard_overlap, default_algorithm=algorithm
        )
        sharded = router.run_batch(
            queries, max_workers=count, use_cache=False,
            time_budget_seconds=time_budget_seconds,
        )
        # Fidelity is judged only on pairs both regimes completed — a
        # budget skip is not a result mismatch (skips are reported below).
        compared = [
            (shard_item, base_item)
            for shard_item, base_item in zip(sharded.items, baseline.items)
            if shard_item.completed and base_item.completed
        ]
        identical = all(
            shard_item.outcome.result.vertices == base_item.outcome.result.vertices
            and shard_item.outcome.result.edges == base_item.outcome.result.edges
            for shard_item, base_item in compared
        )
        mode = f"{count}-shard"
        if len(compared) < len(queries):
            report.add_note(
                f"{mode}: {len(queries) - len(compared)} of {len(queries)} "
                f"pairs skipped by the time budget and excluded from the "
                f"fidelity check"
            )
        report.add_row(
            mode=mode, wall_s=round(sharded.wall_seconds, 4),
            qps=round(sharded.queries_per_second, 1), identical=identical,
        )
        report.add_point("qps", mode, round(sharded.queries_per_second, 1))
        report.add_note(
            f"{mode}: routed={dict(sorted(sharded.routed.items()))} "
            f"(fallback={sharded.num_fallback})"
        )
    return report


# ----------------------------------------------------------------------
# Exp-11 (zero-materialization view pipeline; no paper analogue)
# ----------------------------------------------------------------------
def measure_view_pipeline(
    graph: TemporalGraph,
    queries: Sequence,
    rounds: int = 3,
) -> Dict[str, object]:
    """Best-of-``rounds`` cold per-query VUG times: view vs materializing.

    Both engines run over the *same* warmed graph (indices and columnar
    view built up front, no result caching), so the measured difference is
    exactly the per-query hot path: edge-mask kernels versus per-phase
    ``TemporalGraph`` building.  Every query's results and phase edge
    counts are cross-checked during measurement — a mismatch raises instead
    of reporting a meaningless timing.  Shared by the exp11 driver and the
    benchmark asserts.
    """
    graph.warm_indices()
    view_engine = get_algorithm("VUG")
    materializing_engine = get_algorithm("VUG-materializing")
    best_view = best_materializing = float("inf")
    for _ in range(rounds):
        view_total = materializing_total = 0.0
        for query in queries:
            started = time.perf_counter()
            viewed = view_engine.run(graph, query.source, query.target, query.interval)
            view_total += time.perf_counter() - started
            started = time.perf_counter()
            reference = materializing_engine.run(
                graph, query.source, query.target, query.interval
            )
            materializing_total += time.perf_counter() - started
            if (
                viewed.result.vertices != reference.result.vertices
                or viewed.result.edges != reference.result.edges
                or viewed.extras["quick_ubg_edges"] != reference.extras["quick_ubg_edges"]
                or viewed.extras["tight_ubg_edges"] != reference.extras["tight_ubg_edges"]
            ):
                raise AssertionError(
                    f"view pipeline diverged from the materializing pipeline "
                    f"on {query!r}"
                )
        best_view = min(best_view, view_total)
        best_materializing = min(best_materializing, materializing_total)
    return {
        "view_s": best_view,
        "materializing_s": best_materializing,
        "speedup": best_materializing / best_view if best_view else float("inf"),
        "num_queries": len(queries),
    }


def exp11_view_pipeline(
    dataset_key: str = "D10",
    num_queries: int = 20,
    rounds: int = 3,
    seed: int = 7,
) -> ExperimentReport:
    """Exp-11: the zero-materialization query pipeline.

    Measures cold single-query VUG latency (no result cache, indices warm)
    through the edge-mask view pipeline against the retained pre-refactor
    materializing pipeline on one dataset, with the built-in bit-identity
    cross-check, and reports wall seconds, per-query latency and speedup.
    """
    report = ExperimentReport(
        experiment=f"Exp-11 (view pipeline, {dataset_key})",
        description=(
            f"Cold single-query VUG latency over {num_queries} queries: "
            f"frozen CSR views + interval-sliced kernels vs per-phase "
            f"TemporalGraph materialization"
        ),
    )
    graph = _load(dataset_key)
    queries = list(_workload(graph, dataset_key, num_queries, seed=seed))
    measured = measure_view_pipeline(graph, queries, rounds=rounds)
    for mode, seconds in (
        ("zero-materialization", measured["view_s"]),
        ("materializing", measured["materializing_s"]),
    ):
        report.add_row(
            mode=mode,
            wall_s=round(seconds, 4),
            per_query_ms=round(1000.0 * seconds / max(1, len(queries)), 3),
        )
        report.add_point("wall_s", mode, round(seconds, 4))
    report.add_note(
        f"view pipeline is {measured['speedup']:.2f}x faster; results and "
        f"phase edge counts bit-identical on all {len(queries)} queries"
    )
    return report


# ----------------------------------------------------------------------
# Exp-12 (process-parallel sharded serving; no paper analogue)
# ----------------------------------------------------------------------
# Re-exported from the pool module (the canonical home since WorkerPool
# sizes itself with it); the benchmarks keep importing it from here.
from ..service.pool import available_cpus  # noqa: E402  (section grouping)


def exp12_process_shards(
    dataset_key: str = "D10",
    num_queries: int = DEFAULT_NUM_QUERIES,
    algorithm: str = "VUG",
    workers: int = 4,
    num_shards: int = 4,
    overlap: Optional[int] = None,
    shard_dir: Optional[str] = None,
    time_budget_seconds: float = DEFAULT_TIME_BUDGET_SECONDS,
    seed: int = 7,
) -> ExperimentReport:
    """Exp-12: process-parallel sharded serving from per-shard snapshots.

    One workload, three execution regimes over the same graph:

    * ``serial`` — the flat service, one thread;
    * ``threads-N`` — the sharded router fanning shard groups out over a
      thread pool (GIL-bound for the pure-Python hot path);
    * ``processes-N`` — a router booted with
      :meth:`~repro.service.ShardedTspgService.from_shard_snapshots` from
      the shard set written by :meth:`~repro.service.ShardedTspgService.save_shards`,
      fanning shard groups out over a ``ProcessPoolExecutor`` whose workers
      boot from their shard's snapshot file.

    Every regime's per-query results are cross-checked against the serial
    baseline (``identical`` column); the wall-clock ratio of the thread and
    process rows is the multi-core speedup the process backend exists for
    (meaningful only when more than one CPU is actually available — the
    note records the visible CPU count).
    """
    report = ExperimentReport(
        experiment=f"Exp-12 (process shards, {dataset_key})",
        description=(
            f"Thread vs snapshot-booted process batch backend for "
            f"{num_queries} queries ({algorithm}, {num_shards} shards, "
            f"{workers} workers)"
        ),
    )
    graph = _load(dataset_key)
    spec = get_dataset(dataset_key)
    shard_overlap = overlap if overlap is not None else spec.default_theta
    queries = list(_workload(graph, dataset_key, num_queries, seed=seed))

    cleanup = shard_dir is None
    if shard_dir is None:
        shard_dir = tempfile.mkdtemp(suffix=".tspgshards")
    try:
        router = ShardedTspgService(
            graph, num_shards, overlap=shard_overlap, default_algorithm=algorithm
        )
        manifest = router.save_shards(shard_dir)
        serial = TspgService(graph, default_algorithm=algorithm).run_batch(
            queries, use_cache=False, time_budget_seconds=time_budget_seconds
        )
        threaded = router.run_batch(
            queries, max_workers=workers, use_cache=False, executor="threads",
            time_budget_seconds=time_budget_seconds,
        )
        booted = ShardedTspgService.from_shard_snapshots(
            shard_dir, default_algorithm=algorithm
        )
        processed = booted.run_batch(
            queries, max_workers=workers, use_cache=False, executor="processes",
            time_budget_seconds=time_budget_seconds,
        )
    finally:
        if cleanup:
            shutil.rmtree(shard_dir, ignore_errors=True)

    def matches_serial(batch) -> bool:
        return all(
            item.completed
            and base.completed
            and item.outcome.result.vertices == base.outcome.result.vertices
            and item.outcome.result.edges == base.outcome.result.edges
            for item, base in zip(batch.items, serial.items)
        )

    for mode, batch, identical in (
        ("serial", serial, True),
        (f"threads-{workers}", threaded, matches_serial(threaded)),
        (f"processes-{workers}", processed, matches_serial(processed)),
    ):
        report.add_row(
            mode=mode,
            executor=batch.executor,
            wall_s=round(batch.wall_seconds, 4),
            qps=round(batch.queries_per_second, 1),
            identical=identical,
        )
        report.add_point("wall_s", mode, round(batch.wall_seconds, 4))
    speedup = (
        threaded.wall_seconds / processed.wall_seconds
        if processed.wall_seconds > 0
        else float("inf")
    )
    report.add_note(
        f"process backend is {speedup:.2f}x the thread backend "
        f"({available_cpus()} CPUs visible; the GIL keeps threads ≈ serial "
        f"on the pure-Python hot path)"
    )
    report.add_note(
        f"shard manifest: {manifest.num_shards} shards, overlap "
        f"{manifest.overlap}, epoch {manifest.epoch}, span {manifest.span}"
    )
    report.add_note(
        f"processes routed={dict(sorted(processed.routed.items()))} "
        f"(fallback={processed.num_fallback}, ran on the parent's threads)"
    )
    return report


# ----------------------------------------------------------------------
# Exp-13 (persistent serving pool + cooperative deadlines; no paper analogue)
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
    """Exp-13: persistent serving pools and cooperative per-query deadlines.

    Two serving-loop regimes answer the *same* sequence of identical
    batches through the process backend, from the same snapshot:

    * ``per-batch-boot-K`` — a plain :class:`TspgService` builds (and tears
      down) a fresh ``ProcessPoolExecutor`` per batch, so every batch pays
      worker fork + snapshot boot again — the pre-pool behaviour;
    * ``pool-K`` — the same service with a persistent
      :class:`~repro.service.WorkerPool` attached: batch 1 boots the
      workers, every later batch reuses them warm.

    The ratio of the last per-batch-boot batch over the last pool batch is
    the amortisation the pool exists for.  A third regime, ``deadline-cutoff``,
    runs the workload serially under a deliberately too-small budget and
    reports the cut-off *overshoot* — how far past the budget the batch
    ran — which the cooperative per-query deadlines keep within the
    documented slack (one uninterruptible phase of a single query) instead
    of one whole in-flight query of arbitrary cost.

    Every regime's in-budget results are cross-checked against a serial
    no-deadline baseline (``identical`` column) — deadline polls are
    read-only, so finishing in budget must be bit-identical.
    """
    report = ExperimentReport(
        experiment=f"Exp-13 (serving pool, {dataset_key})",
        description=(
            f"Per-batch worker boot vs persistent pool, and deadline "
            f"cut-off promptness, for {num_batches}x{num_queries} queries "
            f"({algorithm}, {workers} workers)"
        ),
    )
    graph = _load(dataset_key)
    queries = list(_workload(graph, dataset_key, num_queries, seed=seed))

    cleanup = snapshot_path is None
    if snapshot_path is None:
        handle, snapshot_path = tempfile.mkstemp(suffix=".tspgsnap")
        os.close(handle)
    try:
        SnapshotGraphStore(snapshot_path).save(graph)
        serial = TspgService(graph, default_algorithm=algorithm).run_batch(
            queries, use_cache=False, time_budget_seconds=time_budget_seconds
        )

        def matches_serial(batch) -> bool:
            return all(
                item.completed
                and base.completed
                and not item.outcome.timed_out
                and item.outcome.result.vertices == base.outcome.result.vertices
                and item.outcome.result.edges == base.outcome.result.edges
                for item, base in zip(batch.items, serial.items)
            )

        def run_batches(service) -> List:
            # Caching is off: the point is measuring the compute path, and
            # a warm parent cache would short-circuit every repeat batch.
            return [
                service.run_batch(
                    queries, max_workers=workers, use_cache=False,
                    executor="processes",
                    time_budget_seconds=time_budget_seconds,
                )
                for _ in range(num_batches)
            ]

        cold_batches = run_batches(
            TspgService.from_snapshot(snapshot_path, default_algorithm=algorithm)
        )
        with WorkerPool(max_workers=workers) as pool:
            pool_batches = run_batches(
                TspgService.from_snapshot(
                    snapshot_path, default_algorithm=algorithm, pool=pool
                )
            )
            pool_stats = pool.stats()

        for prefix, batches in (
            ("per-batch-boot", cold_batches),
            ("pool", pool_batches),
        ):
            for index, batch in enumerate(batches, start=1):
                mode = f"{prefix}-{index}"
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

        warm_speedup = (
            cold_batches[-1].wall_seconds / pool_batches[-1].wall_seconds
            if pool_batches[-1].wall_seconds > 0
            else float("inf")
        )
        report.add_note(
            f"warm pool batch is {warm_speedup:.2f}x the per-batch-boot "
            f"batch (pool generation {pool_stats['generation']}, "
            f"{pool_stats['batches_served']} batches served by one worker "
            f"set; per-batch boot re-forks and re-boots every time)"
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
# ----------------------------------------------------------------------
# Exp-15 (mmap-backed columnar snapshot boot; no paper analogue)
# ----------------------------------------------------------------------
def measure_mmap_boot_times(
    graph: TemporalGraph,
    v3_path: Optional[str] = None,
    v4_path: Optional[str] = None,
    rounds: int = 3,
) -> Dict[str, object]:
    """Best-of-``rounds`` wall-clock of the three snapshot boot flavours.

    Writes the same warmed graph as a legacy v3 snapshot and a v4 columnar
    snapshot, then times (a) the v3 eager boot (decompress + unpickle the
    whole payload), (b) the v4 eager boot (decode every section), and
    (c) the v4 mmap boot (map the file, decode only the metadata sections,
    leave every column extent untouched).  The mmap boot does no per-edge
    work at all, so its cost is O(metadata), not O(E) — the gap the exp15
    floor asserts.  Shared by the exp15 driver and the benchmark asserts.
    """
    cleanup = v3_path is None and v4_path is None
    tmp_dir = None
    if cleanup:
        tmp_dir = tempfile.mkdtemp(prefix="exp15-boot-")
        v3_path = os.path.join(tmp_dir, "graph.v3.tspgsnap")
        v4_path = os.path.join(tmp_dir, "graph.v4.tspgsnap")
    try:
        write_legacy_snapshot(graph, v3_path, version=3)
        info = save_snapshot(graph, v4_path)
        _, sections = inspect_snapshot(v4_path)
        column_bytes = sum(
            section.length for section in sections if section.name.startswith("view.")
        )
        timings = {"v3_eager_s": float("inf"), "v4_eager_s": float("inf"),
                   "v4_mmap_s": float("inf")}
        mmap_active = False
        for _ in range(rounds):
            started = time.perf_counter()
            boot_snapshot(v3_path)
            timings["v3_eager_s"] = min(
                timings["v3_eager_s"], time.perf_counter() - started
            )
            started = time.perf_counter()
            boot_snapshot(v4_path)
            timings["v4_eager_s"] = min(
                timings["v4_eager_s"], time.perf_counter() - started
            )
            started = time.perf_counter()
            boot = boot_snapshot(v4_path, mmap=True)
            timings["v4_mmap_s"] = min(
                timings["v4_mmap_s"], time.perf_counter() - started
            )
            mmap_active = boot.mmap_active
        return {
            **timings,
            "payload_bytes": info.payload_bytes,
            "column_bytes": column_bytes,
            "mmap_active": mmap_active,
        }
    finally:
        if cleanup and tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)


#: Subprocess probe used by :func:`measure_boot_rss`: boots a snapshot in a
#: *fresh* interpreter (so RSS reflects only that boot), reports resident
#: memory before the boot, after the boot, and after touching every column.
_RSS_PROBE = """
import json, sys
path, mode = sys.argv[1], sys.argv[2]
from repro.store import boot_snapshot
from repro.analysis.memory import rss_bytes
base = rss_bytes()
boot = boot_snapshot(path, mmap=(mode == "mmap"))
after_boot = rss_bytes()
view = boot.graph.view()
touched = 0
for column in (view.src, view.dst, view.ts):
    for value in column:
        touched += value
after_touch = rss_bytes()
print(json.dumps({
    "rss_base": base,
    "rss_boot": after_boot,
    "rss_touched": after_touch,
    "mmap_active": boot.mmap_active,
    "checksum": touched,
}))
"""


def measure_boot_rss(
    snapshot_path: str, *, mmap: bool
) -> Optional[Dict[str, object]]:
    """Resident-memory profile of booting ``snapshot_path`` in a subprocess.

    Returns ``None`` when the platform cannot report RSS (non-Linux without
    ``getrusage``) or the probe fails — exp15 skips its ceiling assertion
    then instead of failing on an unmeasurable box.
    """
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else src_dir + os.pathsep + existing
    try:
        completed = subprocess.run(
            [sys.executable, "-c", _RSS_PROBE, snapshot_path,
             "mmap" if mmap else "eager"],
            capture_output=True, text=True, timeout=600, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    try:
        profile = json.loads(completed.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None
    if profile.get("rss_base") is None or profile.get("rss_boot") is None:
        return None
    return profile


def exp15_mmap_boot(
    dataset_key: str = "D1",
    num_queries: int = 12,
    scale_vertices: int = 20_000,
    scale_edges: int = 120_000,
    scale_timestamps: int = 2_000,
    rounds: int = 3,
    seed: int = 7,
) -> ExperimentReport:
    """Exp-15: the mmap-backed v4 columnar snapshot boot.

    Three legs on one report.  **Boot latency**: a synth-scale graph
    (streamed from the registry's scale generator) is snapshotted as both
    legacy v3 and columnar v4, and the v3-eager / v4-eager / v4-mmap boot
    wall-clocks are compared.  **Resident memory**: a fresh subprocess per
    flavour boots the v4 file and reports RSS before and after touching
    the columns — the mmap boot's resident growth stays far below the
    column payload until the touch.  **Fidelity**: on ``dataset_key``, the
    eager boot, the mmap boot and a shard-mapped router boot answer the
    same workload with bit-identical results.
    """
    report = ExperimentReport(
        experiment=f"Exp-15 (mmap boot, synth-scale + {dataset_key})",
        description=(
            f"v3-eager vs v4-eager vs v4-mmap snapshot boots of a "
            f"{scale_edges}-edge synth-scale graph, subprocess RSS "
            f"profiles, and tri-boot result identity on {dataset_key}"
        ),
    )
    spec = SYNTH_SCALE.scaled(
        num_vertices=scale_vertices,
        num_edges=scale_edges,
        num_timestamps=scale_timestamps,
    )
    scale_graph = spec.load()
    report.add_note(
        f"synth-scale: |V|={scale_graph.num_vertices} "
        f"|E|={scale_graph.num_edges} (streamed, duplicates collapsed)"
    )

    tmp_dir = tempfile.mkdtemp(prefix="exp15-")
    try:
        v3_path = os.path.join(tmp_dir, "scale.v3.tspgsnap")
        v4_path = os.path.join(tmp_dir, "scale.v4.tspgsnap")
        measured = measure_mmap_boot_times(
            scale_graph, v3_path, v4_path, rounds=rounds
        )
        for mode, key in (
            ("v3-eager-boot", "v3_eager_s"),
            ("v4-eager-boot", "v4_eager_s"),
            ("v4-mmap-boot", "v4_mmap_s"),
        ):
            report.add_row(mode=mode, wall_s=round(measured[key], 4))
            report.add_point("boot_s", mode, round(measured[key], 4))
        speedup = (
            measured["v3_eager_s"] / measured["v4_mmap_s"]
            if measured["v4_mmap_s"] > 0
            else float("inf")
        )
        report.add_note(
            f"mmap boot is {speedup:.1f}x faster than the v3 eager boot "
            f"({measured['payload_bytes']} payload bytes, "
            f"{measured['column_bytes']} of them column extents; "
            f"mmap_active={measured['mmap_active']})"
        )

        for mode in ("eager", "mmap"):
            profile = measure_boot_rss(v4_path, mmap=(mode == "mmap"))
            if profile is None:
                report.add_note(
                    f"rss({mode}): not measurable on this platform — skipped"
                )
                continue
            boot_growth = profile["rss_boot"] - profile["rss_base"]
            touch_growth = (
                profile["rss_touched"] - profile["rss_base"]
                if profile.get("rss_touched") is not None
                else None
            )
            fraction = (
                boot_growth / measured["column_bytes"]
                if measured["column_bytes"]
                else 0.0
            )
            report.add_row(
                mode=f"rss-{mode}-boot",
                rss_boot_mb=round(boot_growth / 1e6, 2),
                rss_touched_mb=(
                    None if touch_growth is None else round(touch_growth / 1e6, 2)
                ),
                column_payload_mb=round(measured["column_bytes"] / 1e6, 2),
            )
            report.add_note(
                f"rss({mode}): boot grows RSS by {boot_growth} bytes = "
                f"{fraction:.2f}x the column payload"
            )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    graph = _load(dataset_key)
    queries = list(_workload(graph, dataset_key, num_queries, seed=seed))
    tmp_dir = tempfile.mkdtemp(prefix="exp15-identity-")
    try:
        snap_path = os.path.join(tmp_dir, "identity.tspgsnap")
        save_snapshot(graph, snap_path)
        eager = TspgService.from_snapshot(snap_path)
        mapped = TspgService.from_snapshot(snap_path, mmap=True)
        router = ShardedTspgService(graph, 2, default_algorithm="VUG")
        router.save_shards(os.path.join(tmp_dir, "shards"))
        shard_mapped = ShardedTspgService.from_shard_snapshots(
            os.path.join(tmp_dir, "shards"), mmap=True
        )
        baseline = eager.run_batch(queries, use_cache=False)
        identical = True
        for label, service in (
            ("mmap", mapped),
            ("shard-mmap", shard_mapped),
        ):
            contender = service.run_batch(queries, use_cache=False)
            same = all(
                base.outcome.result.vertices == other.outcome.result.vertices
                and base.outcome.result.edges == other.outcome.result.edges
                for base, other in zip(baseline.items, contender.items)
                if base.completed and other.completed
            )
            identical = identical and same
            report.add_row(
                mode=f"identity-{label}",
                identical=same,
                mmap_active=service.snapshot_mmap_active
                if hasattr(service, "snapshot_mmap_active")
                else None,
            )
        report.add_note(
            f"tri-boot identity on {dataset_key}: "
            f"{'bit-identical' if identical else 'MISMATCH'} over "
            f"{len(queries)} queries (eager vs mmap vs shard-mapped)"
        )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return report


#: Subprocess probe used by :func:`measure_residency_rss`: boots a v4
#: snapshot mmap-backed — whole-file or extent-local — in a fresh
#: interpreter, touches every mapped column row, and reports resident
#: memory growth alongside the boot's byte accounting.  The RSS baseline is
#: taken *after* the boot (the interpreter and the label/adjacency
#: structures are interval-independent); the touch growth
#: is what scales with the mapped row payload.
_RESIDENCY_PROBE = """
import json, sys
path, mode = sys.argv[1], sys.argv[2]
begin, end = int(sys.argv[3]), int(sys.argv[4])
from repro.store import boot_snapshot
from repro.analysis.memory import rss_bytes
interval = None if mode == "full" else (begin, end)
boot = boot_snapshot(path, mmap=True, interval=interval)
view = boot.graph.view()
base = rss_bytes()
touched = 0
for column in (view.src, view.dst, view.ts):
    for value in column:
        touched += value
after = rss_bytes()
print(json.dumps({
    "rss_base": base,
    "rss_touched": after,
    "mapped_column_bytes": boot.mapped_column_bytes,
    "total_column_bytes": boot.total_column_bytes,
    "row_range": boot.row_range,
    "num_edges": boot.graph.num_edges,
    "mmap_active": boot.mmap_active,
    "checksum": touched,
}))
"""


def measure_residency_rss(
    snapshot_path: str, *, mode: str, interval
) -> Optional[Dict[str, object]]:
    """Touch-phase RSS profile of a whole-file vs extent-local mmap boot.

    ``mode`` is ``"full"`` or ``"window"``; ``interval`` bounds the window
    mode's extent.  Returns ``None`` when RSS is unmeasurable or the probe
    fails, mirroring :func:`measure_boot_rss`.
    """
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else src_dir + os.pathsep + existing
    begin, end = interval
    try:
        completed = subprocess.run(
            [sys.executable, "-c", _RESIDENCY_PROBE, snapshot_path, mode,
             str(begin), str(end)],
            capture_output=True, text=True, timeout=600, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    try:
        profile = json.loads(completed.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None
    if profile.get("rss_base") is None or profile.get("rss_touched") is None:
        return None
    return profile


def exp16_query_residency(
    dataset_key: str = "D1",
    num_queries: int = 10,
    scale_vertices: int = 20_000,
    scale_edges: int = 120_000,
    scale_timestamps: int = 2_000,
    window_fraction: float = 0.05,
    seed: int = 7,
) -> ExperimentReport:
    """Exp-16: query-time residency of the window-local serving stack.

    Three legs on one report, over a synth-scale graph and a narrow window
    (``window_fraction`` of the span).  **Resident memory**: a fresh
    subprocess per mode boots the snapshot mmap-backed (whole-file vs
    extent-local) and touches every mapped column row; the extent boot's
    touch growth tracks the *interval's* row payload, not the file's.
    **Page advice**: a :class:`~repro.store.ResidencyPolicy` is driven
    through its warm/serve/evict phases over the mapped boot and its
    counters are reported (a graceful no-op where madvise is unavailable).
    **Fidelity**: on ``dataset_key``, every registered algorithm answers a
    window-restricted workload on the eager, whole-file-mmap and
    extent-local boots — with and without a (generous) per-query deadline
    — and the results must be bit-identical across all six paths.
    """
    from ..core.deadline import Deadline
    from ..algorithms import available_algorithms
    from ..store import ResidencyPolicy

    report = ExperimentReport(
        experiment=f"Exp-16 (query residency, synth-scale + {dataset_key})",
        description=(
            f"extent-local mmap boots and madvise page advice on a "
            f"{scale_edges}-edge synth-scale graph, plus registry-wide "
            f"tri-boot identity on {dataset_key}"
        ),
    )
    spec = SYNTH_SCALE.scaled(
        num_vertices=scale_vertices,
        num_edges=scale_edges,
        num_timestamps=scale_timestamps,
    )
    scale_graph = spec.load()
    timestamps = scale_graph.timestamps()
    span_lo, span_hi = timestamps[0], timestamps[-1]
    width = max(1, int((span_hi - span_lo) * window_fraction))
    mid = (span_lo + span_hi) // 2
    window = (mid, min(span_hi, mid + width))
    report.add_note(
        f"synth-scale: |V|={scale_graph.num_vertices} "
        f"|E|={scale_graph.num_edges} span=({span_lo}, {span_hi}); "
        f"narrow window {window} "
        f"(~{window_fraction:.0%} of the span)"
    )

    # Legs 1 + 2: extent-local RSS ceiling and the page-advice policy.
    tmp_dir = tempfile.mkdtemp(prefix="exp16-")
    try:
        snap_path = os.path.join(tmp_dir, "scale.tspgsnap")
        save_snapshot(scale_graph, snap_path)
        profiles: Dict[str, Dict[str, object]] = {}
        for mode in ("full", "window"):
            profile = measure_residency_rss(
                snap_path, mode=mode, interval=window
            )
            if profile is None:
                report.add_note(
                    f"rss({mode}): not measurable on this platform — skipped"
                )
                continue
            profiles[mode] = profile
            growth = profile["rss_touched"] - profile["rss_base"]
            report.add_row(
                mode=f"rss-{mode}",
                touch_growth_mb=round(growth / 1e6, 2),
                mapped_mb=round(profile["mapped_column_bytes"] / 1e6, 2),
                total_mb=round(profile["total_column_bytes"] / 1e6, 2),
                rows=profile["num_edges"],
            )
        if "full" in profiles and "window" in profiles:
            report.add_note(
                f"extent-local boot maps "
                f"{profiles['window']['mapped_column_bytes']} of "
                f"{profiles['window']['total_column_bytes']} column bytes "
                f"(rows {profiles['window']['row_range']}); touch growth "
                f"{profiles['window']['rss_touched'] - profiles['window']['rss_base']} "
                f"vs {profiles['full']['rss_touched'] - profiles['full']['rss_base']} "
                f"bytes for the whole file"
            )

        policy = ResidencyPolicy()
        boot = boot_snapshot(
            snap_path, mmap=True, interval=window, residency=policy
        )
        policy.advise_warm()
        policy.advise_serve()
        evicted = policy.evict_cold()
        stats = policy.stats()
        report.add_row(
            mode="page-advice",
            supported=stats["supported"],
            mapped_bytes=stats["mapped_bytes"],
            advised_bytes=stats["advised_bytes"],
            evicted_bytes=evicted,
            errors=stats["errors"],
        )
        report.add_note(
            "page advice: "
            + (
                f"warm+serve+evict advised {stats['advised_bytes']} bytes "
                f"over {stats['mappings']} mappings"
                if stats["supported"]
                else f"no-op — {stats['unsupported_reason']}"
            )
            + f"; extent boot decoded {boot.graph.num_edges} rows"
        )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    # Leg 3: registry-wide tri-path identity, deadlines off and on.
    graph = _load(dataset_key)
    dataset_ts = graph.timestamps()
    restrict_lo = dataset_ts[0]
    restrict_hi = dataset_ts[(len(dataset_ts) * 3) // 5]
    restriction = (restrict_lo, restrict_hi)
    tmp_dir = tempfile.mkdtemp(prefix="exp16-identity-")
    try:
        snap_path = os.path.join(tmp_dir, "identity.tspgsnap")
        save_snapshot(graph, snap_path)
        eager = boot_snapshot(snap_path).graph
        whole = boot_snapshot(snap_path, mmap=True).graph
        extent = boot_snapshot(snap_path, mmap=True, interval=restriction).graph
        # Sampling the workload from the extent graph keeps every query
        # interval inside the restriction, so all three boots hold every
        # edge the query can use.
        queries = list(
            _workload(extent, dataset_key, num_queries, seed=seed)
        )
        all_identical = True
        for name in available_algorithms():
            algorithm = get_algorithm(name)
            identical = True
            runs = 0
            for query in queries:
                outcomes = []
                for contender in (eager, whole, extent):
                    for deadline in (None, Deadline.after(60.0)):
                        outcome = algorithm.run(
                            contender,
                            query.source,
                            query.target,
                            query.interval,
                            deadline=deadline,
                        )
                        outcomes.append(outcome)
                        runs += 1
                reference = outcomes[0]
                identical = identical and all(
                    other.result.vertices == reference.result.vertices
                    and other.result.edges == reference.result.edges
                    and not other.timed_out
                    for other in outcomes
                )
            all_identical = all_identical and identical
            report.add_row(
                mode=f"identity-{name}", identical=identical, runs=runs
            )
        report.add_note(
            f"tri-path identity on {dataset_key} (restriction "
            f"{restriction}): "
            f"{'bit-identical' if all_identical else 'MISMATCH'} across "
            f"eager / whole-file mmap / extent-local mmap, deadlines off "
            f"and on, for every registered algorithm"
        )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return report


def _exp17_fresh_vertex(pool, ordinal):
    # New-vertex rows exercise the endpoint leg of delta invalidation; the
    # label kind must match the pool so edge-sort keys compare.
    if pool and isinstance(pool[0], int):
        return max(pool) + 1000 + ordinal
    return f"live-{ordinal}"


def _exp17_batches(
    graph, count, size, rng, *, in_span_half: bool
) -> List[List[Tuple]]:
    """``count`` disjoint ingest batches of rows absent from ``graph``.

    Every batch strictly grows the graph (so each ingest advances the
    epoch by exactly one).  With ``in_span_half`` each batch mixes in-span
    rows (which intersect live query windows and force selective
    invalidation) with rows beyond the span; otherwise all rows land
    strictly beyond the span in ascending timestamp order — an append-only
    delta by construction.
    """
    pool = list(graph.vertices())
    span = graph.time_interval()
    used = set(graph.edge_tuples())
    next_ts = (span.end if span is not None else 0) + 1
    ordinal = 0
    batches: List[List[Tuple]] = []
    for _ in range(count):
        batch: List[Tuple] = []
        while len(batch) < size:
            in_span = in_span_half and len(batch) % 2 == 0
            if in_span:
                u = pool[rng.randrange(len(pool))]
                v = pool[rng.randrange(len(pool))]
                t = rng.randint(span.begin, span.end)
            else:
                if in_span_half and len(batch) % 4 == 3:
                    u = _exp17_fresh_vertex(pool, ordinal)
                    ordinal += 1
                else:
                    u = pool[rng.randrange(len(pool))]
                v = pool[rng.randrange(len(pool))]
                t = next_ts
                next_ts += 1
            if u == v:
                continue
            key = (u, v, t)
            if key in used:
                continue
            used.add(key)
            batch.append(key)
        batches.append(batch)
    return batches


def exp17_live_ingest(
    dataset_key: str = "D1",
    num_queries: int = 8,
    scale_vertices: int = 20_000,
    scale_edges: int = 120_000,
    scale_timestamps: int = 2_000,
    batch_size: int = 24,
    num_batches: int = 5,
    num_queriers: int = 2,
    querier_passes: int = 3,
    rounds: int = 3,
    seed: int = 7,
) -> ExperimentReport:
    """Exp-17: live ingest while serving — the identity oracle.

    Four legs on one report.  **Append vs re-warm wall-clock**: on a
    synth-scale graph with a warm view, a :meth:`TemporalGraph.append_edges`
    delta (which extends the sorted backing and the cached view in place)
    is timed against the legacy path — :meth:`add_edges` +
    :meth:`warm_indices` + a full view rebuild — for the same batch; both
    end states must answer identically.  **Flat oracle**: a snapshot-booted
    :class:`TspgService` serves a query workload from ``num_queriers``
    threads while an appender thread ingests ``num_batches`` journaled
    batches; every answer, stamped with the graph epoch observed around the
    query, must be bit-identical to a serial replay of the first *k*
    batches for some *k* consistent with its stamp — and a fresh boot of
    the snapshot replays the journal to the final state.  **Mmap append**:
    the same service booted zero-copy ingests an append-only batch without
    hydrating the mapped columns, and still answers identically to an
    eager re-boot.  **Generation swap**: a sharded router booted from shard
    snapshots ingests, then re-warms to generation N+1 on a background
    thread while queriers keep asking; each stamped answer must match the
    pre- or post-ingest reference its epoch selects, and the swap clears
    the set-level journal.
    """
    import random
    import threading

    report = ExperimentReport(
        experiment=f"Exp-17 (live ingest, synth-scale + {dataset_key})",
        description=(
            f"journaled appends + delta view extension vs full re-warm on "
            f"a {scale_edges}-edge synth-scale graph, plus ingest-while-"
            f"querying identity oracles over flat, mmap-booted and sharded "
            f"generation-swap serving of {dataset_key}"
        ),
    )
    algorithm = get_algorithm("VUG")

    def _answer(contender, query):
        outcome = algorithm.run(
            contender, query.source, query.target, query.interval
        )
        return (
            frozenset(outcome.result.vertices),
            frozenset(outcome.result.edges),
        )

    # Leg 1: journaled-append + delta view extension vs full re-warm.
    spec = SYNTH_SCALE.scaled(
        num_vertices=scale_vertices,
        num_edges=scale_edges,
        num_timestamps=scale_timestamps,
    )
    scale_graph = spec.load()
    scale_graph.warm_indices()
    rng = random.Random(seed)
    # Append-only rows: the delta path's zero-copy view extension; mixed
    # (in-span) rows would degrade the extension to a rebuild and measure
    # the fallback instead of the feature.
    (scale_rows,) = _exp17_batches(
        scale_graph, 1, batch_size, rng, in_span_half=False
    )
    timings = {"delta": float("inf"), "rewarm": float("inf")}
    for _ in range(max(1, rounds)):
        delta_graph = scale_graph.copy()
        delta_graph.view()
        started = time.perf_counter()
        delta_graph.append_edges(scale_rows)
        delta_graph.view()
        timings["delta"] = min(timings["delta"], time.perf_counter() - started)
        legacy_graph = scale_graph.copy()
        legacy_graph.view()
        started = time.perf_counter()
        legacy_graph.add_edges(scale_rows)
        legacy_graph.warm_indices()
        legacy_graph.view()
        timings["rewarm"] = min(
            timings["rewarm"], time.perf_counter() - started
        )
    scale_query = next(iter(_workload(scale_graph, dataset_key, 1, seed=seed)))
    paths_identical = (
        delta_graph.num_edges == legacy_graph.num_edges
        and _answer(delta_graph, scale_query)
        == _answer(legacy_graph, scale_query)
    )
    append_speedup = (
        timings["rewarm"] / timings["delta"]
        if timings["delta"] > 0
        else float("inf")
    )
    for mode in ("delta", "rewarm"):
        report.add_row(
            mode=f"append-{mode}",
            wall_s=round(timings[mode], 5),
            rows=len(scale_rows),
        )
        report.add_point("append_s", mode, round(timings[mode], 5))
    report.add_note(
        f"appending {len(scale_rows)} rows via append_edges + view "
        f"extension is {append_speedup:.1f}x cheaper than "
        f"add_edges + warm_indices + view rebuild "
        f"({'identical end states' if paths_identical else 'END STATES DIVERGE'})"
    )

    # Leg 2: flat ingest-while-querying oracle.
    graph = _load(dataset_key)
    queries = list(_workload(graph, dataset_key, num_queries, seed=seed))
    batches = _exp17_batches(
        graph, num_batches, batch_size, random.Random(seed + 1),
        in_span_half=True,
    )
    tmp_dir = tempfile.mkdtemp(prefix="exp17-")
    try:
        flat_snap = os.path.join(tmp_dir, "flat.tspgsnap")
        save_snapshot(graph, flat_snap)
        service = TspgService.from_snapshot(flat_snap)
        base_epoch = service.graph.epoch
        records: List[Tuple[int, int, int, Tuple]] = []
        records_lock = threading.Lock()
        failures: List[BaseException] = []
        ingest_done = threading.Event()
        ingest_wall = [0.0]

        def _appender() -> None:
            try:
                started = time.perf_counter()
                for batch in batches:
                    service.ingest(batch)
                    time.sleep(0.002)  # let queriers interleave
                ingest_wall[0] = time.perf_counter() - started
            except BaseException as exc:  # surfaced after join
                failures.append(exc)
            finally:
                ingest_done.set()

        def _querier() -> None:
            try:
                passes = 0
                while passes < querier_passes or not ingest_done.is_set():
                    for index, query in enumerate(queries):
                        before = service.graph.epoch
                        outcome = service.submit(query)
                        after = service.graph.epoch
                        answer = (
                            frozenset(outcome.result.vertices),
                            frozenset(outcome.result.edges),
                        )
                        with records_lock:
                            records.append((index, before, after, answer))
                    passes += 1
                    if passes > 50 * querier_passes:  # safety valve
                        break
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=_appender)]
        threads += [
            threading.Thread(target=_querier) for _ in range(num_queriers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]

        # Serial-replay reference: the base state plus the first k batches.
        # (The service journaled its ingests onto flat_snap, so a fresh
        # boot of the file already replays every batch — the k-prefix
        # states must come from an in-memory copy of the base instead.)
        replays: List[TemporalGraph] = [graph.copy()]
        for batch in batches:
            nxt = replays[-1].copy()
            nxt.append_edges(batch)
            replays.append(nxt)
        replay_answers: Dict[Tuple[int, int], Tuple] = {}

        def _replay_answer(k: int, index: int) -> Tuple:
            key = (k, index)
            if key not in replay_answers:
                replay_answers[key] = _answer(replays[k], queries[index])
            return replay_answers[key]

        oracle_ok = True
        for index, before, after, answer in records:
            lo = max(0, min(before - base_epoch, num_batches))
            hi = max(0, min(after - base_epoch, num_batches))
            if not any(
                _replay_answer(k, index) == answer for k in range(lo, hi + 1)
            ):
                oracle_ok = False
                break
        appended_rows = sum(len(batch) for batch in batches)
        throughput = (
            appended_rows / ingest_wall[0] if ingest_wall[0] > 0 else 0.0
        )
        # Journal fidelity: a fresh boot replays the sidecar to the final
        # state and answers exactly like the full serial replay.
        reboot = TspgService.from_snapshot(flat_snap)
        reboot_ok = reboot.graph.epoch == base_epoch + num_batches and all(
            _answer(reboot.graph, query) == _replay_answer(num_batches, index)
            for index, query in enumerate(queries)
        )
        report.add_row(
            mode="flat-oracle",
            answers=len(records),
            identical=oracle_ok,
            reboot_identical=reboot_ok,
            rows_per_s=round(throughput, 1),
        )
        report.add_point("ingest_rows_per_s", "flat", round(throughput, 1))
        report.add_note(
            f"flat oracle: {len(records)} concurrent answers over "
            f"{num_batches} journaled batches "
            f"({'bit-identical to their stamped serial replays' if oracle_ok else 'MISMATCH'}); "
            f"fresh boot replays the journal to epoch "
            f"{reboot.graph.epoch} "
            f"({'identical' if reboot_ok else 'MISMATCH'})"
        )

        # Leg 3: mmap-booted append stays lazy.
        lazy_snap = os.path.join(tmp_dir, "lazy.tspgsnap")
        save_snapshot(graph, lazy_snap)
        lazy_service = TspgService.from_snapshot(lazy_snap, mmap=True)
        mmap_active = lazy_service.graph.is_lazily_booted
        (append_only_batch,) = _exp17_batches(
            graph, 1, batch_size, random.Random(seed + 2),
            in_span_half=False,
        )
        lazy_service.ingest(append_only_batch)
        stayed_lazy = (
            lazy_service.graph.is_lazily_booted
            and lazy_service.graph._out_data is None
        )
        lazy_reference = boot_snapshot(lazy_snap).graph  # replays journal
        lazy_identical = all(
            (
                frozenset(lazy_service.submit(query).result.vertices),
                frozenset(lazy_service.submit(query).result.edges),
            )
            == _answer(lazy_reference, query)
            for query in queries
        )
        report.add_row(
            mode="mmap-append",
            mmap=mmap_active,
            stayed_lazy=stayed_lazy if mmap_active else None,
            identical=lazy_identical,
            rows=len(append_only_batch),
        )
        report.add_note(
            "mmap append: "
            + (
                (
                    "append-only ingest left the mapped columns unhydrated"
                    if stayed_lazy
                    else "ingest HYDRATED the mapped columns"
                )
                if mmap_active
                else "zero-copy boot unavailable (eager fallback)"
            )
            + f"; answers vs eager journal replay "
            f"{'identical' if lazy_identical else 'MISMATCH'}"
        )

        # Leg 4: sharded generation swap under concurrent queriers.
        shard_dir = os.path.join(tmp_dir, "shards")
        ShardedTspgService(graph, 3, default_algorithm="VUG").save_shards(
            shard_dir
        )
        router = ShardedTspgService.from_shard_snapshots(shard_dir, mmap=True)
        shard_epoch = router._current_topology().epoch
        (shard_batch,) = _exp17_batches(
            graph, 1, batch_size, random.Random(seed + 3), in_span_half=True
        )
        post_reference = graph.copy()
        post_reference.append_edges(shard_batch)
        pre_answers = [_answer(graph, query) for query in queries]
        post_answers = [_answer(post_reference, query) for query in queries]
        shard_records: List[Tuple[int, int, int, Tuple]] = []
        shard_failures: List[BaseException] = []
        stop = threading.Event()

        def _shard_querier() -> None:
            try:
                while not stop.is_set():
                    for index, query in enumerate(queries):
                        before = router._current_topology().epoch
                        outcome = router.submit(query)
                        after = router._current_topology().epoch
                        answer = (
                            frozenset(outcome.result.vertices),
                            frozenset(outcome.result.edges),
                        )
                        with records_lock:
                            shard_records.append(
                                (index, before, after, answer)
                            )
            except BaseException as exc:
                shard_failures.append(exc)

        shard_threads = [
            threading.Thread(target=_shard_querier)
            for _ in range(num_queriers)
        ]
        for thread in shard_threads:
            thread.start()
        time.sleep(0.01)
        router.ingest(shard_batch)
        rewarm_thread = router.rewarm_shards(background=True)
        rewarm_thread.join()
        time.sleep(0.01)
        stop.set()
        for thread in shard_threads:
            thread.join()
        if shard_failures:
            raise shard_failures[0]
        swap_ok = True
        for index, before, after, answer in shard_records:
            allowed = []
            if before <= shard_epoch:
                allowed.append(pre_answers[index])
            if after >= shard_epoch + 1:
                allowed.append(post_answers[index])
            if answer not in allowed:
                swap_ok = False
                break
        journal_cleared = not os.path.exists(
            os.path.join(shard_dir, "ingest.tspgjournal")
        )
        regen = ShardedTspgService.from_shard_snapshots(shard_dir)
        regen_ok = all(
            (
                frozenset(regen.submit(query).result.vertices),
                frozenset(regen.submit(query).result.edges),
            )
            == post_answers[index]
            for index, query in enumerate(queries)
        )
        report.add_row(
            mode="sharded-swap",
            answers=len(shard_records),
            identical=swap_ok,
            journal_cleared=journal_cleared,
            regen_identical=regen_ok,
        )
        report.add_note(
            f"generation swap: {len(shard_records)} concurrent answers "
            f"across ingest + background re-warm "
            f"({'each matches the reference its epoch stamp selects' if swap_ok else 'MISMATCH'}); "
            f"set journal {'cleared' if journal_cleared else 'STILL PRESENT'} "
            f"after the swap; generation N+1 boots "
            f"{'identical to the post-ingest reference' if regen_ok else 'MISMATCHED'}"
        )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return report


def _exp18_zipf_schedule(count, population, rng, s: float = 1.1) -> List[int]:
    """``count`` query indices drawn from a zipf(s) repeat mix.

    Rank 0 is the hottest query: real serving traffic repeats a few
    queries far more often than the tail, which is exactly the shape the
    result cache (and the fairness scheduler under bursty clients) must
    be exercised with.
    """
    weights = [1.0 / float(rank + 1) ** s for rank in range(population)]
    return rng.choices(range(population), weights=weights, k=count)


def _exp18_wire_answer(graph, algorithm_key: str, query) -> Dict[str, object]:
    """The exact JSON payload the server must put on the wire for ``query``.

    Mirrors the server's ``include_edges`` contract: edges sorted by
    ``(t, str(u), str(v))`` and emitted as 3-lists, so a JSON round-trip
    of a served answer compares bit-identically against this reference.
    """
    outcome = get_algorithm(algorithm_key).run(
        graph, query.source, query.target, query.interval
    )
    return {
        "num_vertices": outcome.result.num_vertices,
        "num_edges": outcome.result.num_edges,
        "edges": [
            [u, v, t]
            for u, v, t in sorted(
                outcome.result.edges,
                key=lambda item: (item[2], str(item[0]), str(item[1])),
            )
        ],
    }


def _exp18_query_request(query, **extra) -> Dict[str, object]:
    request = {
        "source": query.source,
        "target": query.target,
        "begin": query.interval.begin,
        "end": query.interval.end,
    }
    request.update(extra)
    return request


def _exp18_replay(
    address,
    requests: Sequence[dict],
    *,
    num_clients: int,
    requests_per_client: int,
    burst: int,
    zipf_s: float,
    seed: int,
):
    """Replay a zipfian mix of ``requests`` from ``num_clients`` sockets.

    Each client alternates lockstep singles with pipelined bursts of
    ``burst`` requests (the burst phases), and times every response from
    the moment its phase hit the wire — the latency a real client would
    observe, queue wait and head-of-line blocking included.  Returns
    ``(records, wall_s)`` where each record is
    ``(request_index, client_latency_ms, response)``.
    """
    import random
    import threading

    records: List[Tuple[int, float, dict]] = []
    records_lock = threading.Lock()
    failures: List[BaseException] = []
    barrier = threading.Barrier(num_clients)

    def _client(ordinal: int) -> None:
        rng = random.Random(seed * 1009 + ordinal)
        schedule = _exp18_zipf_schedule(
            requests_per_client, len(requests), rng, zipf_s
        )
        client = TspgClient(address, timeout=120.0)
        try:
            barrier.wait(timeout=30)
            position = 0
            phase = 0
            while position < len(schedule):
                width = burst if (burst > 1 and phase % 2 == 1) else 1
                chunk = schedule[position : position + width]
                position += len(chunk)
                phase += 1
                started = time.perf_counter()
                for index in chunk:
                    client.send(requests[index])
                for index in chunk:
                    response = client.recv()
                    latency = (time.perf_counter() - started) * 1000.0
                    with records_lock:
                        records.append((index, latency, response))
            client.quit()
        except BaseException as exc:  # surfaced after join
            failures.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=_client, args=(ordinal,))
        for ordinal in range(num_clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if failures:
        raise failures[0]
    return records, wall


def _exp18_quantile_ms(latencies: Sequence[float], q: float) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered)) - (q >= 1.0)))
    return ordered[index]


def exp18_serving_tier(
    dataset_key: str = "D1",
    num_queries: int = 12,
    num_clients: int = 8,
    requests_per_client: int = 40,
    burst: int = 8,
    zipf_s: float = 1.1,
    workers: int = 2,
    registry_queries: int = 4,
    flood: int = 48,
    deadline_ms: Optional[float] = None,
    slack_ms: float = 250.0,
    seed: int = 7,
) -> ExperimentReport:
    """Exp-18: the TCP serving tier under concurrent traffic replay.

    Three legs on one report, all against live sockets.  **Sustained
    replay**: ``num_clients`` concurrent clients replay a zipfian repeat
    mix over the workload, alternating lockstep singles with pipelined
    bursts; every request carries ``include_edges`` so each served answer
    is compared bit-for-bit (wire format included) against a serial
    evaluation of the same query — while the leg records aggregate QPS
    and client-observed p50/p99.  **Registry identity**: every registered
    algorithm answers a query slice through the socket and must match its
    own serial run exactly.  **Saturated refusal**: a fresh single-worker
    server is flooded with one pipelined window of distinct queries whose
    shared ``deadline_ms`` is a fraction of the window's measured serial
    cost — admission control must refuse the tail *before* running it,
    and no admitted query may overshoot the deadline by more than
    ``slack_ms`` (the cooperative-checkpoint granularity).
    """
    import random

    report = ExperimentReport(
        experiment=f"Exp-18 (serving tier, {dataset_key})",
        description=(
            f"{num_clients} concurrent JSONL clients replaying zipf({zipf_s}) "
            f"traffic with pipelined bursts of {burst} against a "
            f"{workers}-worker TCP server, plus a registry-wide identity "
            f"sweep and a saturated refuse-before-work leg"
        ),
    )
    graph = _load(dataset_key)
    graph.warm_indices()
    queries = list(_workload(graph, dataset_key, num_queries, seed=seed))
    requests = [
        _exp18_query_request(query, include_edges=True) for query in queries
    ]
    references = [
        _exp18_wire_answer(graph, "VUG", query) for query in queries
    ]

    def _matches(response: dict, reference: Dict[str, object]) -> bool:
        return bool(
            response.get("ok")
            and not response.get("refused")
            and response.get("num_vertices") == reference["num_vertices"]
            and response.get("num_edges") == reference["num_edges"]
            and response.get("edges") == reference["edges"]
        )

    # Leg 1: sustained concurrent replay with per-answer identity.
    service = TspgService(graph, default_algorithm="VUG")
    core = RequestCore(service, default_workers=workers)
    with ServerThread(core, workers=workers) as harness:
        records, wall = _exp18_replay(
            harness.address,
            requests,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            burst=burst,
            zipf_s=zipf_s,
            seed=seed,
        )
        latencies = [latency for _, latency, _ in records]
        refused = sum(
            1 for _, _, response in records if response.get("refused")
        )
        errors = sum(
            1 for _, _, response in records if not response.get("ok")
        )
        identical = all(
            _matches(response, references[index])
            for index, _, response in records
        )
        qps = len(records) / wall if wall > 0 else 0.0
        p50 = _exp18_quantile_ms(latencies, 0.50)
        p99 = _exp18_quantile_ms(latencies, 0.99)

        # Leg 2: registry-wide identity through the same live server.
        registry = available_algorithms()
        sweep = queries[: max(1, registry_queries)]
        registry_ok = True
        registry_answers = 0
        client = TspgClient(harness.address, timeout=120.0)
        try:
            for algorithm_key in registry:
                for index, query in enumerate(sweep):
                    response = client.request(
                        {**requests[index], "algorithm": algorithm_key}
                    )
                    reference = _exp18_wire_answer(
                        graph, algorithm_key, query
                    )
                    registry_answers += 1
                    if not _matches(response, reference):
                        registry_ok = False
            server_stats = client.request({"op": "stats"})["server"]
            client.quit()
        finally:
            client.close()

    report.add_row(
        mode="sustained",
        clients=num_clients,
        responses=len(records),
        wall_s=round(wall, 3),
        qps=round(qps, 1),
        p50_ms=round(p50, 2),
        p99_ms=round(p99, 2),
        refused=refused,
        errors=errors,
        identical=identical,
    )
    report.add_point("qps", "sustained", round(qps, 1))
    report.add_point("p99_ms", "sustained", round(p99, 2))
    report.add_note(
        f"sustained: {len(records)} responses from {num_clients} clients in "
        f"{wall:.3f}s ({qps:.0f} QPS, client p50 {p50:.2f}ms / p99 "
        f"{p99:.2f}ms; {refused} refusals, {errors} errors); every answer "
        f"{'bit-identical to its serial replay' if identical else 'MISMATCHED the serial replay'}; "
        f"server-side query p99 "
        f"{server_stats['latency_ms'].get('query', {}).get('p99_ms', 'n/a')}ms "
        f"over {server_stats['responses_sent']} responses sent"
    )
    report.add_row(
        mode="registry-identity",
        algorithms=len(registry),
        answers=registry_answers,
        identical=registry_ok,
    )
    report.add_note(
        f"registry identity: {registry_answers} served answers across "
        f"{len(registry)} registered algorithms "
        f"({'all bit-identical to their serial runs' if registry_ok else 'MISMATCH'})"
    )

    # Leg 3: saturated refuse-before-work on a fresh single-worker server.
    flood_queries = list(
        _workload(graph, dataset_key, flood, seed=seed + 5)
    )
    serial_started = time.perf_counter()
    algorithm = get_algorithm("VUG")
    for query in flood_queries:
        algorithm.run(graph, query.source, query.target, query.interval)
    serial_ms = (time.perf_counter() - serial_started) * 1000.0
    effective_deadline = (
        float(deadline_ms)
        if deadline_ms is not None
        else max(2.0, 0.25 * serial_ms)
    )
    saturated_requests = [
        _exp18_query_request(query, deadline_ms=effective_deadline)
        for query in flood_queries
    ]
    saturated_service = TspgService(graph, default_algorithm="VUG")
    saturated_core = RequestCore(saturated_service, default_workers=1)
    saturated_records: List[Tuple[float, dict]] = []
    with ServerThread(
        saturated_core,
        workers=1,
        max_inflight=2 * flood,
        max_pending_per_client=flood + 8,
    ) as harness:
        client = TspgClient(harness.address, timeout=120.0)
        try:
            started = time.perf_counter()
            for request in saturated_requests:
                client.send(request)
            for _ in saturated_requests:
                response = client.recv()
                saturated_records.append(
                    ((time.perf_counter() - started) * 1000.0, response)
                )
            client.quit()
        finally:
            client.close()
    admitted = [
        (latency, response)
        for latency, response in saturated_records
        if not response.get("refused")
    ]
    saturated_refused = len(saturated_records) - len(admitted)
    max_admitted_ms = max(
        (latency for latency, _ in admitted), default=0.0
    )
    max_response_ms = max(
        (latency for latency, _ in saturated_records), default=0.0
    )
    overshoot = max_admitted_ms > effective_deadline + slack_ms
    refusals_prompt = max_response_ms <= effective_deadline + slack_ms
    admitted_ok = all(response.get("ok") for _, response in admitted)
    report.add_row(
        mode="saturated",
        flood=flood,
        serial_ms=round(serial_ms, 1),
        deadline_ms=round(effective_deadline, 2),
        slack_ms=slack_ms,
        admitted=len(admitted),
        refused=saturated_refused,
        max_admitted_ms=round(max_admitted_ms, 2),
        max_response_ms=round(max_response_ms, 2),
        overshoot=overshoot,
        admitted_ok=admitted_ok,
    )
    report.add_point("refused", "saturated", saturated_refused)
    report.add_note(
        f"saturated: {flood} pipelined distinct queries (serial cost "
        f"{serial_ms:.1f}ms) against 1 worker under a shared "
        f"{effective_deadline:.1f}ms deadline -> {len(admitted)} admitted, "
        f"{saturated_refused} refused before work; slowest admitted answer "
        f"{max_admitted_ms:.1f}ms, last refusal flushed by "
        f"{max_response_ms:.1f}ms "
        f"({'within' if refusals_prompt and not overshoot else 'OUTSIDE'} "
        f"deadline + {slack_ms:.0f}ms slack)"
    )
    return report


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
    "exp10": exp10_store_and_shards,
    "exp11": exp11_view_pipeline,
    "exp12": exp12_process_shards,
    "exp13": exp13_serving_pool,
    "exp15": exp15_mmap_boot,
    "exp16": exp16_query_residency,
    "exp17": exp17_live_ingest,
    "exp18": exp18_serving_tier,
}
