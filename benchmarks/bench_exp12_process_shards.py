"""Exp-12 (new) — process-parallel sharded serving from per-shard snapshots.

No paper analogue: this benchmark measures the serving-scale refactor that
fans shard groups out over a ``ProcessPoolExecutor`` whose workers boot from
per-shard snapshot files (the GIL-free counterpart of the thread backend).
Three properties are asserted as acceptance criteria:

* **Bit-identical results** — the thread-backend and process-backend merged
  reports must match the serial baseline query-for-query, for the default
  algorithm here and for every registry algorithm in the tier-1 oracle
  (``tests/test_process_shards.py``).
* **Boot isolation** — ``ShardedTspgService.from_shard_snapshots`` must boot
  a servable router from the shard directory alone: no full-graph snapshot
  exists, and the full-graph fallback service must stay unbuilt.
* **Wall-clock speedup** — the process backend must beat the thread backend
  by at least ``MIN_PROCESS_SPEEDUP`` on the benchmark dataset with
  ``BENCH_WORKERS`` workers.  This is a *multi-core* guarantee: on a
  single-CPU machine (or when the floor is set ≤ 0) the speedup assert is
  skipped — process fan-out cannot beat the GIL without a second core —
  while the identity and boot asserts still run.

Environment knobs (used by the CI smoke job to run on a tiny dataset):

* ``TSPG_EXP12_DATASET`` — dataset key (default ``D10``).
* ``TSPG_EXP12_MIN_SPEEDUP`` — acceptance floor (default ``1.5``; ``0``
  disables the speedup assert, e.g. for tiny-dataset smoke runs where
  worker boot overhead dominates).
* ``TSPG_EXP12_NUM_QUERIES`` / ``TSPG_EXP12_WORKERS`` /
  ``TSPG_EXP12_SHARDS`` — workload size and fan-out geometry.

The aggregated series is written to ``results/exp12_process_shards.txt`` and
the raw timings to ``results/exp12_process_shards.json`` (the artifact the
CI job uploads).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.experiments import available_cpus, exp12_process_shards
from repro.datasets.registry import get_dataset
from repro.queries.workload import generate_workload
from repro.service import ShardedTspgService, TspgService

from bench_config import BENCH_TIME_BUDGET_SECONDS

#: The largest generated analogue — where the GIL-bound thread pool hurts most.
BENCH_DATASET = os.environ.get("TSPG_EXP12_DATASET", "D10")

#: Acceptance floor for the process-over-thread wall-clock speedup.
MIN_PROCESS_SPEEDUP = float(os.environ.get("TSPG_EXP12_MIN_SPEEDUP", "1.5"))

#: Queries per batch (each runs cold: no result cache).
BENCH_NUM_QUERIES = int(os.environ.get("TSPG_EXP12_NUM_QUERIES", "40"))

#: Fan-out width of both backends.
BENCH_WORKERS = int(os.environ.get("TSPG_EXP12_WORKERS", "4"))

#: Time-range shard count (one snapshot file — and one worker boot — each).
BENCH_SHARDS = int(os.environ.get("TSPG_EXP12_SHARDS", "4"))


@pytest.fixture(scope="module")
def exp12_report(tmp_path_factory):
    """One shared Exp-12 run: all three regimes over the same workload."""
    shard_dir = tmp_path_factory.mktemp("exp12") / "shards"
    return exp12_process_shards(
        dataset_key=BENCH_DATASET,
        num_queries=BENCH_NUM_QUERIES,
        workers=BENCH_WORKERS,
        num_shards=BENCH_SHARDS,
        shard_dir=str(shard_dir),
        time_budget_seconds=BENCH_TIME_BUDGET_SECONDS,
    )


def _by_mode(report):
    return {row["mode"]: row for row in report.rows}


def test_exp12_backends_bit_identical(exp12_report):
    """Acceptance: thread and process backends match the serial baseline."""
    by_mode = _by_mode(exp12_report)
    assert by_mode[f"threads-{BENCH_WORKERS}"]["identical"] is True
    assert by_mode[f"processes-{BENCH_WORKERS}"]["identical"] is True
    # The process path must actually have run on processes, not have fallen
    # back to threads (which would render the comparison meaningless).
    assert by_mode[f"processes-{BENCH_WORKERS}"]["executor"] == "processes"


def test_exp12_boots_without_full_graph(tmp_path):
    """Acceptance: from_shard_snapshots serves without the full graph."""
    spec = get_dataset(BENCH_DATASET)
    graph = spec.load()
    queries = list(
        generate_workload(
            graph, num_queries=10, theta=spec.default_theta, seed=11,
            name=f"{BENCH_DATASET}-boot-bench",
        )
    )
    shard_dir = tmp_path / "shards"
    manifest = ShardedTspgService(
        graph, BENCH_SHARDS, overlap=spec.default_theta
    ).save_shards(shard_dir)
    # The directory holds only per-shard files + manifest — there is no
    # full-graph snapshot for the booted router to fall back to.
    assert sorted(p.name for p in shard_dir.iterdir()) == sorted(
        ["manifest.json"] + [entry.filename for entry in manifest.shards]
    )
    booted = ShardedTspgService.from_shard_snapshots(shard_dir)
    assert booted.describe()[-1]["built"] is False

    baseline = TspgService(graph).run_batch(
        queries, use_cache=False, time_budget_seconds=BENCH_TIME_BUDGET_SECONDS
    )
    report = booted.run_batch(
        queries, max_workers=BENCH_WORKERS, use_cache=False,
        executor="processes", time_budget_seconds=BENCH_TIME_BUDGET_SECONDS,
    )
    assert report.num_completed == len(queries)
    for item, base in zip(report.items, baseline.items):
        assert item.outcome.result.vertices == base.outcome.result.vertices
        assert item.outcome.result.edges == base.outcome.result.edges


def test_exp12_process_speedup(exp12_report):
    """Acceptance: ≥MIN_PROCESS_SPEEDUP× over the thread backend (multi-core)."""
    by_mode = _by_mode(exp12_report)
    threads_s = by_mode[f"threads-{BENCH_WORKERS}"]["wall_s"]
    processes_s = by_mode[f"processes-{BENCH_WORKERS}"]["wall_s"]
    speedup = threads_s / processes_s if processes_s else float("inf")
    if MIN_PROCESS_SPEEDUP <= 0:
        pytest.skip("TSPG_EXP12_MIN_SPEEDUP <= 0 disables the speedup floor")
    if available_cpus() < 2:
        pytest.skip(
            f"only {available_cpus()} CPU visible: process fan-out cannot "
            f"beat the GIL without a second core (speedup measured "
            f"{speedup:.2f}x)"
        )
    assert speedup >= MIN_PROCESS_SPEEDUP, (
        f"process backend {processes_s:.4f}s is only {speedup:.2f}x faster "
        f"than the thread backend {threads_s:.4f}s "
        f"(needs {MIN_PROCESS_SPEEDUP}x on {available_cpus()} CPUs)"
    )


def test_exp12_summary_table(exp12_report, save_report, results_dir):
    """The full Exp-12 row set, plus the JSON timing artifact for CI."""
    save_report("exp12_process_shards", exp12_report, x_label="mode")
    by_mode = _by_mode(exp12_report)
    threads_s = by_mode[f"threads-{BENCH_WORKERS}"]["wall_s"]
    processes_s = by_mode[f"processes-{BENCH_WORKERS}"]["wall_s"]
    payload = {
        "experiment": "exp12_process_shards",
        "dataset": BENCH_DATASET,
        "num_queries": BENCH_NUM_QUERIES,
        "workers": BENCH_WORKERS,
        "shards": BENCH_SHARDS,
        "cpus": available_cpus(),
        "min_speedup_required": MIN_PROCESS_SPEEDUP,
        "speedup": round(threads_s / processes_s, 3) if processes_s else None,
        "rows": exp12_report.rows,
        "notes": exp12_report.notes,
    }
    (results_dir / "exp12_process_shards.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    assert all(row["identical"] is True for row in exp12_report.rows)
