"""Exp-16 (new) — query-time residency of the window-local serving stack.

No paper analogue: this benchmark caps the residency work — extent-local
snapshot mapping (``boot_snapshot(..., interval=...)``) and the madvise
page-advice policy (``repro.store.residency``).  Three properties are
asserted as acceptance criteria:

* **Extent-local RSS ceiling** — a fresh subprocess boots a synth-scale
  snapshot mmap-backed with a narrow interval (a ``WINDOW_FRACTION`` slice
  of the span) and touches every mapped column row; resident growth must
  stay within ``MAX_INTERVAL_MULTIPLE`` of the interval's mapped row
  payload (plus ``RSS_SLACK_BYTES`` of page-rounding slack), proving the
  boot mapped the queried rows and not the file.  Skipped where RSS
  cannot be read.
* **Tri-path identity, registry-wide** — on the identity dataset every
  registry algorithm must answer a window-restricted workload
  bit-identically over the eager boot, the whole-file mmap boot and the
  extent-local mmap boot, with per-query deadlines both off and
  (generously) on.
* **No-madvise degradation** — with ``TSPG_NO_MADVISE=1`` the residency
  policy must report the no-op mode and the extent-local boot must stay
  bit-identical (advice can change paging, never bytes).  The CI job
  additionally re-runs this whole file with the variable set.

Environment knobs (used by the CI smoke job to run on a tiny graph):

* ``TSPG_EXP16_VERTICES`` / ``TSPG_EXP16_EDGES`` / ``TSPG_EXP16_TIMESTAMPS``
  — synth-scale generator size (defaults ``20000`` / ``120000`` / ``2000``).
* ``TSPG_EXP16_WINDOW_FRACTION`` — narrow-window width as a fraction of
  the span (default ``0.05``).
* ``TSPG_EXP16_MAX_INTERVAL_MULTIPLE`` — touch-phase RSS growth ceiling as
  a multiple of the mapped interval payload (default ``8.0``; ``0``
  disables).
* ``TSPG_EXP16_RSS_SLACK_BYTES`` — additive slack on that ceiling for
  page rounding and allocator noise (default ``4194304``).
* ``TSPG_EXP16_QUERIES`` — identity workload size.
* ``TSPG_EXP16_DATASET`` — identity-leg dataset key (default ``D1``).

The aggregated series is written to ``results/exp16_query_residency.txt``
and the raw numbers to ``results/exp16_query_residency.json`` (the
artifact the CI job uploads next to the exp10–exp15 ones).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import pytest

from repro.algorithms import available_algorithms
from repro.analysis.memory import rss_bytes
from repro.bench.experiments import (
    _workload,
    exp16_query_residency,
    measure_residency_rss,
)
from repro.core.deadline import Deadline
from repro.datasets.registry import SYNTH_SCALE, get_dataset
from repro.service import TspgService
from repro.store import ResidencyPolicy, boot_snapshot, save_snapshot

#: synth-scale generator size for the RSS leg.
SCALE_VERTICES = int(os.environ.get("TSPG_EXP16_VERTICES", "20000"))
SCALE_EDGES = int(os.environ.get("TSPG_EXP16_EDGES", "120000"))
SCALE_TIMESTAMPS = int(os.environ.get("TSPG_EXP16_TIMESTAMPS", "2000"))

#: Narrow-window width as a fraction of the timestamp span.
WINDOW_FRACTION = float(os.environ.get("TSPG_EXP16_WINDOW_FRACTION", "0.05"))

#: Ceiling on touch-phase RSS growth as a multiple of the mapped payload.
MAX_INTERVAL_MULTIPLE = float(
    os.environ.get("TSPG_EXP16_MAX_INTERVAL_MULTIPLE", "8.0")
)

#: Additive slack on the RSS ceiling (page rounding, allocator noise).
RSS_SLACK_BYTES = int(os.environ.get("TSPG_EXP16_RSS_SLACK_BYTES", "4194304"))

#: Queries in the identity workloads.
BENCH_NUM_QUERIES = int(os.environ.get("TSPG_EXP16_QUERIES", "8"))

#: Small dataset for the registry-wide identity leg.
IDENTITY_DATASET = os.environ.get("TSPG_EXP16_DATASET", "D1")


def _narrow_window(graph):
    """The benchmark's narrow query window: WINDOW_FRACTION of the span."""
    timestamps = graph.timestamps()
    span_lo, span_hi = timestamps[0], timestamps[-1]
    width = max(1, int((span_hi - span_lo) * WINDOW_FRACTION))
    mid = (span_lo + span_hi) // 2
    return (mid, min(span_hi, mid + width))


@pytest.fixture(scope="module")
def scale_snapshot():
    """One synth-scale graph plus its v4 snapshot, shared module-wide."""
    spec = SYNTH_SCALE.scaled(
        num_vertices=SCALE_VERTICES,
        num_edges=SCALE_EDGES,
        num_timestamps=SCALE_TIMESTAMPS,
    )
    graph = spec.load()
    tmp_dir = tempfile.mkdtemp(prefix="exp16-bench-")
    path = os.path.join(tmp_dir, "scale.tspgsnap")
    save_snapshot(graph, path)
    yield {"graph": graph, "path": path, "window": _narrow_window(graph)}
    shutil.rmtree(tmp_dir, ignore_errors=True)


def test_exp16_extent_rss_ceiling(scale_snapshot):
    """Acceptance: extent-boot touch growth tracks the interval payload.

    A fresh subprocess boots the snapshot with the narrow interval and
    touches every mapped row: resident growth must stay within
    ``MAX_INTERVAL_MULTIPLE`` of the mapped payload plus slack — i.e.
    proportional to the queried interval, not the file.  The whole-file
    probe runs alongside to prove the contrast.
    """
    if MAX_INTERVAL_MULTIPLE <= 0:
        pytest.skip("TSPG_EXP16_MAX_INTERVAL_MULTIPLE <= 0 disables the ceiling")
    if rss_bytes() is None:
        pytest.skip("RSS is not measurable on this platform")
    window = scale_snapshot["window"]
    profile = measure_residency_rss(
        scale_snapshot["path"], mode="window", interval=window
    )
    assert profile is not None, "the RSS probe subprocess failed"
    assert profile["mmap_active"], "probe subprocess degraded to eager boot"
    mapped = profile["mapped_column_bytes"]
    total = profile["total_column_bytes"]
    assert 0 < mapped < total, (
        f"extent boot mapped {mapped} of {total} column bytes — the "
        f"narrow window did not produce a proper row subset"
    )
    growth = profile["rss_touched"] - profile["rss_base"]
    ceiling = mapped * MAX_INTERVAL_MULTIPLE + RSS_SLACK_BYTES
    assert growth <= ceiling, (
        f"touching the extent-local boot grew RSS by {growth} bytes "
        f"(ceiling {ceiling:.0f} = {MAX_INTERVAL_MULTIPLE}x the {mapped} "
        f"mapped bytes + {RSS_SLACK_BYTES} slack) — the boot is mapping "
        f"or touching rows outside the interval"
    )
    full = measure_residency_rss(
        scale_snapshot["path"], mode="full", interval=window
    )
    if full is not None:
        full_growth = full["rss_touched"] - full["rss_base"]
        assert full_growth > growth, (
            "whole-file touch grew RSS no more than the extent-local "
            "touch — the measurement is not separating the two paths"
        )


def test_exp16_registry_wide_tri_path_identity(tmp_path):
    """Acceptance: every algorithm identical over eager/mmap/extent boots,
    with per-query deadlines off and (generously) on."""
    graph = get_dataset(IDENTITY_DATASET).load()
    timestamps = graph.timestamps()
    restriction = (timestamps[0], timestamps[(len(timestamps) * 3) // 5])
    snap_path = str(tmp_path / "identity.tspgsnap")
    save_snapshot(graph, snap_path)
    eager = TspgService.from_snapshot(snap_path, cache_size=0)
    mapped = TspgService.from_snapshot(snap_path, mmap=True, cache_size=0)
    windowed = TspgService.from_snapshot(
        snap_path, mmap=True, interval=restriction, residency=True,
        cache_size=0,
    )
    assert mapped.snapshot_mmap_active and windowed.snapshot_mmap_active
    assert windowed.residency_stats() is not None
    # Sampling the workload from the extent-restricted graph keeps every
    # query interval inside the restriction, so all three boots hold
    # every edge a query can use.
    queries = list(
        _workload(windowed.graph, IDENTITY_DATASET, BENCH_NUM_QUERIES, seed=16)
    )
    for name in available_algorithms():
        baselines = [
            eager.submit(query, name, deadline=None) for query in queries
        ]
        for service in (mapped, windowed):
            for with_deadline in (False, True):
                for query, baseline in zip(queries, baselines):
                    deadline = Deadline.after(60.0) if with_deadline else None
                    outcome = service.submit(query, name, deadline=deadline)
                    assert not outcome.timed_out, (name, query, with_deadline)
                    assert (
                        outcome.result.vertices == baseline.result.vertices
                    ), (name, query, with_deadline)
                    assert outcome.result.edges == baseline.result.edges, (
                        name, query, with_deadline,
                    )


def test_exp16_no_madvise_degrades_to_identical_noop(tmp_path, monkeypatch):
    """Acceptance: TSPG_NO_MADVISE keeps results identical, advice a no-op."""
    graph = get_dataset(IDENTITY_DATASET).load()
    timestamps = graph.timestamps()
    restriction = (timestamps[0], timestamps[len(timestamps) // 2])
    snap_path = str(tmp_path / "noop.tspgsnap")
    save_snapshot(graph, snap_path)
    reference = boot_snapshot(snap_path, mmap=True, interval=restriction)
    monkeypatch.setenv("TSPG_NO_MADVISE", "1")
    policy = ResidencyPolicy()
    degraded = boot_snapshot(
        snap_path, mmap=True, interval=restriction, residency=policy
    )
    assert not policy.supported
    assert "TSPG_NO_MADVISE" in (policy.unsupported_reason or "")
    assert policy.advise_warm() == 0
    assert policy.advise_serve() == 0
    assert policy.evict_cold() == 0
    assert policy.stats()["errors"] == 0
    queries = list(
        _workload(reference.graph, IDENTITY_DATASET, BENCH_NUM_QUERIES, seed=17)
    )
    from repro.algorithms import get_algorithm

    vug = get_algorithm("VUG")
    for query in queries:
        base = vug.run(
            reference.graph, query.source, query.target, query.interval
        )
        other = vug.run(
            degraded.graph, query.source, query.target, query.interval
        )
        assert base.result.vertices == other.result.vertices, query
        assert base.result.edges == other.result.edges, query


def test_exp16_summary_table(save_report, results_dir):
    """The full Exp-16 row set, plus the JSON artifact for CI."""
    report = exp16_query_residency(
        dataset_key=IDENTITY_DATASET,
        num_queries=BENCH_NUM_QUERIES,
        scale_vertices=SCALE_VERTICES,
        scale_edges=SCALE_EDGES,
        scale_timestamps=SCALE_TIMESTAMPS,
        window_fraction=WINDOW_FRACTION,
    )
    save_report("exp16_query_residency", report, x_label="mode")
    payload = {
        "experiment": "exp16_query_residency",
        "identity_dataset": IDENTITY_DATASET,
        "scale": {
            "num_vertices": SCALE_VERTICES,
            "num_edges": SCALE_EDGES,
            "num_timestamps": SCALE_TIMESTAMPS,
        },
        "window_fraction": WINDOW_FRACTION,
        "max_interval_multiple_allowed": MAX_INTERVAL_MULTIPLE,
        "rss_slack_bytes": RSS_SLACK_BYTES,
        "rows": report.rows,
        "notes": report.notes,
    }
    (results_dir / "exp16_query_residency.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    assert report.rows, "report produced no rows"
    assert any(
        row["mode"].startswith("identity-") and row["identical"]
        for row in report.rows
    ), "identity leg produced no confirming rows"
