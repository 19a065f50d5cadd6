"""Exp-15 (new) — mmap-backed columnar snapshot boot (format v4).

No paper analogue: this benchmark measures the v4 two-section snapshot
format, whose column extents (CSR offsets, src/dst/ts, the CSR-aligned
timestamp columns) are raw 8-byte-aligned little-endian int64 ranges that
``load_snapshot(path, mmap=True)`` maps zero-copy instead of decoding.
Four properties are asserted as acceptance criteria:

* **Boot wall-clock floor** — on a synth-scale graph (streamed from the
  registry's ``synth-scale`` generator) the v4 mmap boot must beat the v3
  eager boot by at least ``MIN_BOOT_SPEEDUP``×: the mmap boot decodes only
  the metadata sections and touches no column extent, so its cost is
  O(metadata) while the eager boots pay O(E).
* **Resident-memory ceiling** — booting the v4 file with ``mmap=True`` in
  a fresh subprocess must grow RSS by at most ``MAX_RSS_FRACTION`` of the
  column payload (the pages stay in the file until queries touch them);
  the same probe then touches every column and shows the growth arriving
  on demand.  Skipped on platforms where RSS cannot be read
  (:func:`repro.analysis.memory.rss_bytes` returns ``None``).
* **Tri-boot identity, registry-wide** — on the identity dataset every
  registry algorithm must answer a randomized workload bit-identically
  over the eager boot, the mmap boot and a shard-mapped router boot
  (``from_shard_snapshots(..., mmap=True)``).
* **Re-save stability** — save → mmap-load → query → re-save must
  reproduce the file byte-identically, section CRCs and all (copy-on-write
  hydration must never leak a mutation back into the mapped columns).

Environment knobs (used by the CI smoke job to run on a tiny graph):

* ``TSPG_EXP15_VERTICES`` / ``TSPG_EXP15_EDGES`` / ``TSPG_EXP15_TIMESTAMPS``
  — synth-scale generator size (defaults ``20000`` / ``120000`` / ``2000``).
* ``TSPG_EXP15_MIN_BOOT_SPEEDUP`` — mmap-over-v3-eager boot floor
  (default ``3.0``; ``0`` disables the assert).
* ``TSPG_EXP15_MAX_RSS_FRACTION`` — mmap-boot RSS growth ceiling as a
  fraction of the column payload (default ``0.35``; ``0`` disables).
* ``TSPG_EXP15_QUERIES`` / ``TSPG_EXP15_ROUNDS`` — workload size and
  best-of timing rounds.
* ``TSPG_EXP15_DATASET`` — identity-leg dataset key (default ``D1``).

The aggregated series is written to ``results/exp15_mmap_boot.txt`` and the
raw timings to ``results/exp15_mmap_boot.json`` (the artifact the CI job
uploads next to the exp10–exp13 ones).
"""

from __future__ import annotations

import json
import os
import tempfile
import shutil

import pytest

from repro.algorithms import available_algorithms
from repro.analysis.memory import rss_bytes
from repro.bench.experiments import (
    _workload,
    exp15_mmap_boot,
    measure_boot_rss,
    measure_mmap_boot_times,
)
from repro.datasets.registry import SYNTH_SCALE, get_dataset
from repro.service import ShardedTspgService, TspgService
from repro.store import inspect_snapshot, save_snapshot, snapshot_bytes

#: synth-scale generator size for the boot and RSS legs.
SCALE_VERTICES = int(os.environ.get("TSPG_EXP15_VERTICES", "20000"))
SCALE_EDGES = int(os.environ.get("TSPG_EXP15_EDGES", "120000"))
SCALE_TIMESTAMPS = int(os.environ.get("TSPG_EXP15_TIMESTAMPS", "2000"))

#: Acceptance floor for the mmap-over-v3-eager boot speedup.
MIN_BOOT_SPEEDUP = float(os.environ.get("TSPG_EXP15_MIN_BOOT_SPEEDUP", "3.0"))

#: Ceiling on mmap-boot RSS growth as a fraction of the column payload.
MAX_RSS_FRACTION = float(os.environ.get("TSPG_EXP15_MAX_RSS_FRACTION", "0.35"))

#: Queries in the identity workloads.
BENCH_NUM_QUERIES = int(os.environ.get("TSPG_EXP15_QUERIES", "10"))

#: Timing rounds (best-of) for the boot measurement.
BENCH_ROUNDS = int(os.environ.get("TSPG_EXP15_ROUNDS", "3"))

#: Small dataset for the registry-wide identity leg.
IDENTITY_DATASET = os.environ.get("TSPG_EXP15_DATASET", "D1")


@pytest.fixture(scope="module")
def scale_snapshots():
    """One synth-scale graph snapshotted as v3 and v4, shared module-wide."""
    spec = SYNTH_SCALE.scaled(
        num_vertices=SCALE_VERTICES,
        num_edges=SCALE_EDGES,
        num_timestamps=SCALE_TIMESTAMPS,
    )
    graph = spec.load()
    tmp_dir = tempfile.mkdtemp(prefix="exp15-bench-")
    paths = {
        "graph": graph,
        "v3": os.path.join(tmp_dir, "scale.v3.tspgsnap"),
        "v4": os.path.join(tmp_dir, "scale.v4.tspgsnap"),
    }
    yield paths
    shutil.rmtree(tmp_dir, ignore_errors=True)


@pytest.fixture(scope="module")
def boot_measurement(scale_snapshots):
    """Best-of-rounds v3-eager / v4-eager / v4-mmap boot timings."""
    return measure_mmap_boot_times(
        scale_snapshots["graph"],
        scale_snapshots["v3"],
        scale_snapshots["v4"],
        rounds=BENCH_ROUNDS,
    )


def test_exp15_mmap_boot_speedup_floor(boot_measurement):
    """Acceptance: v4 mmap boot ≥MIN_BOOT_SPEEDUP× faster than v3 eager."""
    if MIN_BOOT_SPEEDUP <= 0:
        pytest.skip("TSPG_EXP15_MIN_BOOT_SPEEDUP <= 0 disables the floor")
    assert boot_measurement["mmap_active"], (
        "the v4 mmap boot degraded to eager on this platform"
    )
    speedup = boot_measurement["v3_eager_s"] / max(
        boot_measurement["v4_mmap_s"], 1e-12
    )
    assert speedup >= MIN_BOOT_SPEEDUP, (
        f"mmap boot only {speedup:.2f}x faster than the v3 eager boot "
        f"(needs {MIN_BOOT_SPEEDUP}x; v3 {boot_measurement['v3_eager_s']:.4f}s "
        f"vs mmap {boot_measurement['v4_mmap_s']:.6f}s)"
    )


def test_exp15_mmap_boot_rss_ceiling(scale_snapshots, boot_measurement):
    """Acceptance: mmap boot RSS growth ≤MAX_RSS_FRACTION of the columns.

    A fresh subprocess boots the v4 file with ``mmap=True``: resident
    growth at boot must stay far below the column payload (the extents are
    file-backed pages, not heap), and touching every column afterwards
    must still answer correctly (the probe checksums them).  The eager
    boot of the same file is profiled alongside for the contrast note.
    """
    if MAX_RSS_FRACTION <= 0:
        pytest.skip("TSPG_EXP15_MAX_RSS_FRACTION <= 0 disables the ceiling")
    if rss_bytes() is None:
        pytest.skip("RSS is not measurable on this platform")
    column_bytes = boot_measurement["column_bytes"]
    assert column_bytes > 0
    profile = measure_boot_rss(scale_snapshots["v4"], mmap=True)
    assert profile is not None, "the RSS probe subprocess failed"
    assert profile["mmap_active"], "probe subprocess degraded to eager boot"
    growth = profile["rss_boot"] - profile["rss_base"]
    fraction = growth / column_bytes
    assert fraction <= MAX_RSS_FRACTION, (
        f"mmap boot grew RSS by {growth} bytes = {fraction:.2f}x the "
        f"{column_bytes}-byte column payload (ceiling "
        f"{MAX_RSS_FRACTION}x) — the boot is touching pages it should map"
    )
    # The eager boot of the same file must show the contrast: it decodes
    # every extent, so its growth is at least the column payload.
    eager = measure_boot_rss(scale_snapshots["v4"], mmap=False)
    if eager is not None:
        eager_growth = eager["rss_boot"] - eager["rss_base"]
        assert eager_growth > growth, (
            "eager boot grew RSS no more than the mmap boot — the "
            "measurement is not separating the two paths"
        )


def test_exp15_registry_wide_tri_boot_identity(tmp_path):
    """Acceptance: every algorithm identical over eager/mmap/shard boots."""
    spec = get_dataset(IDENTITY_DATASET)
    graph = spec.load()
    queries = list(
        _workload(graph, IDENTITY_DATASET, BENCH_NUM_QUERIES, seed=15)
    )
    snap_path = str(tmp_path / "identity.tspgsnap")
    save_snapshot(graph, snap_path)
    eager = TspgService.from_snapshot(snap_path)
    mapped = TspgService.from_snapshot(snap_path, mmap=True)
    assert mapped.snapshot_mmap_active
    assert mapped.mmap_fallback_reasons() == []
    router = ShardedTspgService(graph, 2, default_algorithm="VUG")
    router.save_shards(str(tmp_path / "shards"))
    shard_mapped = ShardedTspgService.from_shard_snapshots(
        str(tmp_path / "shards"), mmap=True
    )
    assert shard_mapped.snapshot_mmap_active
    assert shard_mapped.mmap_fallback_reasons() == []
    for name in available_algorithms():
        baseline = eager.run_batch(queries, name, use_cache=False)
        for service in (mapped, shard_mapped):
            contender = service.run_batch(queries, name, use_cache=False)
            for base, other in zip(baseline.items, contender.items):
                assert base.completed and other.completed, (name, base.query)
                assert (
                    base.outcome.result.vertices
                    == other.outcome.result.vertices
                ), (name, base.query)
                assert (
                    base.outcome.result.edges == other.outcome.result.edges
                ), (name, base.query)


def test_exp15_resave_round_trip_is_byte_stable(tmp_path):
    """Acceptance: save → mmap-load → query → re-save is byte-identical."""
    spec = get_dataset(IDENTITY_DATASET)
    graph = spec.load()
    snap_path = str(tmp_path / "roundtrip.tspgsnap")
    save_snapshot(graph, snap_path)
    original_bytes = open(snap_path, "rb").read()
    _, original_sections = inspect_snapshot(snap_path)
    service = TspgService.from_snapshot(snap_path, mmap=True)
    queries = list(_workload(graph, IDENTITY_DATASET, 4, seed=16))
    report = service.run_batch(queries, use_cache=False)
    assert all(item.completed for item in report.items)
    assert snapshot_bytes(service.graph) == original_bytes
    resaved_path = str(tmp_path / "resaved.tspgsnap")
    save_snapshot(service.graph, resaved_path)
    _, resaved_sections = inspect_snapshot(resaved_path)
    assert [s.crc32 for s in resaved_sections] == [
        s.crc32 for s in original_sections
    ]
    assert open(resaved_path, "rb").read() == original_bytes


def test_exp15_summary_table(boot_measurement, save_report, results_dir):
    """The full Exp-15 row set, plus the JSON timing artifact for CI."""
    report = exp15_mmap_boot(
        dataset_key=IDENTITY_DATASET,
        num_queries=BENCH_NUM_QUERIES,
        scale_vertices=SCALE_VERTICES,
        scale_edges=SCALE_EDGES,
        scale_timestamps=SCALE_TIMESTAMPS,
        rounds=BENCH_ROUNDS,
    )
    save_report("exp15_mmap_boot", report, x_label="mode")
    payload = {
        "experiment": "exp15_mmap_boot",
        "identity_dataset": IDENTITY_DATASET,
        "scale": {
            "num_vertices": SCALE_VERTICES,
            "num_edges": SCALE_EDGES,
            "num_timestamps": SCALE_TIMESTAMPS,
        },
        "min_boot_speedup_required": MIN_BOOT_SPEEDUP,
        "max_rss_fraction_allowed": MAX_RSS_FRACTION,
        "boot_measurement": {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in boot_measurement.items()
        },
        "rows": report.rows,
        "notes": report.notes,
    }
    (results_dir / "exp15_mmap_boot.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    assert report.rows, "report produced no rows"
