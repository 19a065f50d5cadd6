"""Exp-13 (new) — batches on a worker pool, and cooperative per-query deadlines.

No paper analogue: this benchmark is the gate that worker processes keep
earning their place.  A batch runs over the service's attached
:class:`~repro.service.WorkerPool`, whose workers (and their snapshot-booted
services, warmed views and caches) live across batches, or serially; batch
budgets reach the algorithms as cooperative :class:`~repro.core.Deadline`
objects.  Four properties are asserted as acceptance criteria:

* **Warm-batch speedup** — the last batch served through a persistent
  pool must beat the same batch on a pool booted for it alone by at least
  ``MIN_WARM_SPEEDUP`` on the benchmark dataset: the pool's whole point is
  amortising fork + snapshot boot to zero.
* **Pool over serial** — that warm batch must beat the serial batch by at
  least ``MIN_SERIAL_SPEEDUP``, or the worker processes do not earn their
  place.  Both floors are multi-core guarantees: they are skipped on a
  single-CPU machine, and ``TSPG_EXP13_MIN_SPEEDUP`` ≤ 0 disables both
  for tiny-dataset smoke runs.
* **Bit-identity with deadlines enabled** — queries that finish in budget
  must return results identical to a deadline-free run, for the pool/boot
  regimes on the benchmark dataset and for *every* registry algorithm on
  the (small, enumeration-safe) identity dataset: deadline polls are
  read-only by design.
* **Cut-off promptness** — a batch whose budget expires mid-flight must
  finish within ``DEADLINE_SLACK_SECONDS`` of the budget instant.  The
  documented slack bound is one uninterruptible stretch of work: a single
  query's QuickUBG or TightUBG phase, or one EEV edge expansion — not a
  whole in-flight query (the pre-deadline behaviour this replaces).

Environment knobs (used by the CI smoke job to run on a tiny dataset):

* ``TSPG_EXP13_DATASET`` — dataset key (default ``D10``).
* ``TSPG_EXP13_MIN_SPEEDUP`` — warm-batch floor (default ``2.0``; ``0``
  disables both speedup asserts).
* ``TSPG_EXP13_NUM_QUERIES`` / ``TSPG_EXP13_WORKERS`` /
  ``TSPG_EXP13_BATCHES`` — workload size and serving-loop geometry.
* ``TSPG_EXP13_SLACK_SECONDS`` — promptness bound (default ``0.75``,
  generous against scheduler noise on shared runners).
* ``TSPG_EXP13_IDENTITY_DATASET`` — dataset for the registry-wide oracle
  (default ``D1``: small enough that the enumeration baselines terminate).

The aggregated series is written to ``results/exp13_serving_pool.txt`` and
the raw timings to ``results/exp13_serving_pool.json`` (the artifact the CI
job uploads).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.algorithms import available_algorithms, get_algorithm
from repro.bench.experiments import available_cpus, exp13_serving_pool
from repro.core import Deadline
from repro.datasets.registry import get_dataset
from repro.queries.workload import generate_workload
from repro.service import TspgService

from bench_config import BENCH_TIME_BUDGET_SECONDS

#: The largest generated analogue — where worker boot cost is most visible.
BENCH_DATASET = os.environ.get("TSPG_EXP13_DATASET", "D10")

#: Acceptance floor for the warm-pool-batch over per-batch-boot speedup.
MIN_WARM_SPEEDUP = float(os.environ.get("TSPG_EXP13_MIN_SPEEDUP", "2.0"))

#: Acceptance floor for the warm-pool-batch over serial speedup.
MIN_SERIAL_SPEEDUP = 1.2

#: Queries per batch (each batch runs cold: no result cache).
BENCH_NUM_QUERIES = int(os.environ.get("TSPG_EXP13_NUM_QUERIES", "24"))

#: Width of both the per-batch pools and the persistent pool.
BENCH_WORKERS = int(os.environ.get("TSPG_EXP13_WORKERS", "4"))

#: Batches per serving-loop regime (the last one is the warm measurement).
BENCH_BATCHES = int(os.environ.get("TSPG_EXP13_BATCHES", "2"))

#: Documented cut-off slack: how far past its budget a batch may finish.
DEADLINE_SLACK_SECONDS = float(os.environ.get("TSPG_EXP13_SLACK_SECONDS", "0.75"))

#: Small dataset for the registry-wide oracle (enumeration baselines incl.).
IDENTITY_DATASET = os.environ.get("TSPG_EXP13_IDENTITY_DATASET", "D1")


@pytest.fixture(scope="module")
def exp13_report(tmp_path_factory):
    """One shared Exp-13 run: serial, both pool regimes and the cut-off row."""
    snapshot = tmp_path_factory.mktemp("exp13") / "graph.tspgsnap"
    return exp13_serving_pool(
        dataset_key=BENCH_DATASET,
        num_queries=BENCH_NUM_QUERIES,
        workers=BENCH_WORKERS,
        num_batches=BENCH_BATCHES,
        snapshot_path=str(snapshot),
        time_budget_seconds=BENCH_TIME_BUDGET_SECONDS,
    )


def _by_mode(report):
    return {row["mode"]: row for row in report.rows}


def test_exp13_pool_batches_bit_identical(exp13_report):
    """Acceptance: every in-budget batch matches the no-deadline serial run."""
    by_mode = _by_mode(exp13_report)
    assert by_mode["serial"]["executor"] == "serial"
    for index in range(1, BENCH_BATCHES + 1):
        assert by_mode[f"per-batch-boot-{index}"]["identical"] is True
        assert by_mode[f"pool-{index}"]["identical"] is True
        # Both pool regimes must actually have run on processes — a serial
        # run would make every speedup comparison meaningless.
        assert by_mode[f"pool-{index}"]["executor"] == "processes"
        assert by_mode[f"per-batch-boot-{index}"]["executor"] == "processes"


def test_exp13_registry_identity_with_deadlines(tmp_path):
    """Acceptance: a generous deadline changes no registry algorithm's result.

    Runs on the small identity dataset so the enumeration baselines
    terminate; the deadline is far in the future, so every query finishes
    in budget and the polls must be invisible.
    """
    spec = get_dataset(IDENTITY_DATASET)
    graph = spec.load()
    queries = list(
        generate_workload(
            graph, num_queries=8, theta=spec.default_theta, seed=13,
            name=f"{IDENTITY_DATASET}-deadline-oracle",
        )
    )
    for name in available_algorithms():
        algorithm = get_algorithm(name)
        for query in queries:
            plain = algorithm.run(graph, query.source, query.target, query.interval)
            bounded = algorithm.run(
                graph, query.source, query.target, query.interval,
                deadline=Deadline.after(3600.0),
            )
            assert bounded.timed_out == plain.timed_out, (name, query)
            assert bounded.result.vertices == plain.result.vertices, (name, query)
            assert bounded.result.edges == plain.result.edges, (name, query)


def test_exp13_deadline_cutoff_promptness(exp13_report):
    """Acceptance: a mid-batch budget expiry lands within the documented slack."""
    row = _by_mode(exp13_report)["deadline-cutoff"]
    assert row["overshoot_s"] <= DEADLINE_SLACK_SECONDS, (
        f"budget overshoot {row['overshoot_s']}s exceeds the documented "
        f"slack of {DEADLINE_SLACK_SECONDS}s (budget was {row['budget_s']}s)"
    )


def _warm_speedup_over(report, mode: str) -> float:
    """``mode``'s wall time over the last pool batch's, or skip the floor."""
    by_mode = _by_mode(report)
    other_s = by_mode[mode]["wall_s"]
    warm_s = by_mode[f"pool-{BENCH_BATCHES}"]["wall_s"]
    speedup = other_s / warm_s if warm_s else float("inf")
    if MIN_WARM_SPEEDUP <= 0:
        pytest.skip("TSPG_EXP13_MIN_SPEEDUP <= 0 disables the speedup floors")
    if available_cpus() < 2:
        pytest.skip(
            f"only {available_cpus()} CPU visible: the floor is a "
            f"multi-core guarantee (speedup measured {speedup:.2f}x here)"
        )
    return speedup


def test_exp13_warm_pool_speedup(exp13_report):
    """Acceptance: ≥MIN_WARM_SPEEDUP× warm batch through the persistent pool."""
    speedup = _warm_speedup_over(exp13_report, f"per-batch-boot-{BENCH_BATCHES}")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm pool batch is only {speedup:.2f}x faster than per-batch "
        f"boot (needs {MIN_WARM_SPEEDUP}x)"
    )


def test_exp13_warm_pool_beats_serial(exp13_report):
    """Acceptance: ≥MIN_SERIAL_SPEEDUP× warm pool batch over the serial one."""
    speedup = _warm_speedup_over(exp13_report, "serial")
    assert speedup >= MIN_SERIAL_SPEEDUP, (
        f"warm pool batch is only {speedup:.2f}x faster than the serial "
        f"batch (needs {MIN_SERIAL_SPEEDUP}x on {available_cpus()} CPUs)"
    )


def test_exp13_summary_table(exp13_report, save_report, results_dir):
    """The full Exp-13 row set, plus the JSON timing artifact for CI."""
    save_report("exp13_serving_pool", exp13_report, x_label="mode")
    by_mode = _by_mode(exp13_report)
    cold_s = by_mode[f"per-batch-boot-{BENCH_BATCHES}"]["wall_s"]
    serial_s = by_mode["serial"]["wall_s"]
    warm_s = by_mode[f"pool-{BENCH_BATCHES}"]["wall_s"]
    payload = {
        "experiment": "exp13_serving_pool",
        "dataset": BENCH_DATASET,
        "num_queries": BENCH_NUM_QUERIES,
        "workers": BENCH_WORKERS,
        "batches": BENCH_BATCHES,
        "cpus": available_cpus(),
        "min_speedup_required": MIN_WARM_SPEEDUP,
        "warm_speedup": round(cold_s / warm_s, 3) if warm_s else None,
        "min_serial_speedup_required": MIN_SERIAL_SPEEDUP,
        "serial_speedup": round(serial_s / warm_s, 3) if warm_s else None,
        "deadline_slack_seconds": DEADLINE_SLACK_SECONDS,
        "rows": exp13_report.rows,
        "notes": exp13_report.notes,
    }
    (results_dir / "exp13_serving_pool.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    assert all(
        row["identical"] is True
        for row in exp13_report.rows
        if row["identical"] is not None
    )
