"""Snapshot format v4: mmap-backed columnar boot, compat and durability.

Covers the v4 layout end to end — :class:`MmapColumn`, the lazy
:class:`TemporalGraph` boot, cross-version compatibility (v1/v2/v3 still
load; ``mmap=True`` on them degrades cleanly with a recorded reason),
per-section corruption detection, write durability (fsync + no temp
siblings after a failed write), and the mmap flag's surfaces on the store,
service and sharded-router layers.
"""

import os
import struct
import zlib

import pytest

from repro.graph.columns import IndexColumn, MmapColumn, as_index_column
from repro.graph.generators import synth_scale_edges
from repro.graph.temporal_graph import TemporalGraph
from repro.service import ShardedTspgService, TspgService
from repro.store import (
    HEADER_SIZE,
    ShardSnapshotSet,
    SnapshotError,
    SnapshotGraphStore,
    V4_COLUMN_SECTIONS,
    boot_snapshot,
    inspect_snapshot,
    load_snapshot,
    peek_snapshot,
    save_snapshot,
    snapshot_bytes,
    write_legacy_snapshot,
)
from repro.store.snapshot import _HEADER_STRUCT


def sample_graph():
    graph = TemporalGraph(edges=[
        ("s", "b", 2), ("s", "a", 3), ("b", "c", 3), ("b", "d", 3),
        ("a", "d", 5), ("c", "t", 7), ("d", "t", 2), ("b", "t", 6),
    ])
    graph.add_vertex("isolated")
    return graph


def scale_graph(num_edges=3000):
    graph = TemporalGraph(vertices=range(400))
    graph.add_edges(synth_scale_edges(400, num_edges, num_timestamps=80, seed=11))
    return graph


# ----------------------------------------------------------------------
# MmapColumn
# ----------------------------------------------------------------------
class TestMmapColumn:
    def column(self, values):
        raw = IndexColumn("q", values).tobytes()
        return MmapColumn(memoryview(raw)), values

    def test_buffer_duck_type(self):
        column, values = self.column([5, -3, 0, 1 << 40])
        assert len(column) == len(values)
        assert list(column) == values
        assert column[1] == -3
        assert column[-1] == 1 << 40
        assert column.tolist() == values
        assert (1 << 40) in column
        assert 99 not in column

    def test_slice_stays_zero_copy(self):
        column, values = self.column([1, 2, 3, 4, 5])
        sliced = column[1:4]
        assert isinstance(sliced, MmapColumn)
        assert sliced.tolist() == values[1:4]

    def test_equality_against_array_and_list(self):
        column, values = self.column([7, 8, 9])
        assert column == IndexColumn("q", values)
        assert column == values
        other, _ = self.column([7, 8, 9])
        assert column == other
        assert column != [7, 8]

    def test_materialize_detaches_from_buffer(self):
        column, values = self.column([4, 5, 6])
        materialized = column.materialize()
        assert isinstance(materialized, IndexColumn)
        assert list(materialized) == values
        assert as_index_column(column) == materialized

    def test_step_slices(self):
        column, values = self.column([0, 1, 2, 3, 4, 5, 6, 7])
        for step_slice in (
            slice(None, None, 2),
            slice(1, 7, 3),
            slice(None, None, -1),
            slice(6, 1, -2),
        ):
            sliced = column[step_slice]
            assert isinstance(sliced, MmapColumn)
            assert sliced.tolist() == values[step_slice]

    def test_negative_indices(self):
        column, values = self.column([10, 20, 30, 40])
        assert column[-1] == values[-1]
        assert column[-4] == values[-4]
        assert column[-3:-1].tolist() == values[-3:-1]
        with pytest.raises(IndexError):
            column[-5]

    def test_empty_and_out_of_range_slices(self):
        column, values = self.column([1, 2, 3])
        for empty in (column[3:], column[2:1], column[5:9], column[0:0]):
            assert isinstance(empty, MmapColumn)
            assert len(empty) == 0
            assert empty.tolist() == []
        assert column[:99].tolist() == values
        with pytest.raises(IndexError):
            column[3]

    def test_offset_views_equal_materialized_slices(self):
        column, values = self.column(list(range(16)))
        for window in (slice(0, 16), slice(3, 11), slice(8, 8), slice(12, 16)):
            offset_view = column[window]
            materialized = column.materialize()[window]
            assert offset_view == materialized
            assert offset_view.tolist() == list(materialized)
            assert offset_view.nbytes == 8 * len(offset_view)


# ----------------------------------------------------------------------
# v4 round trip + lazy boot
# ----------------------------------------------------------------------
class TestV4MmapBoot:
    def test_eager_and_mmap_boots_are_identical(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        info = save_snapshot(graph, path)
        assert info.version == 4
        eager = load_snapshot(path)
        mapped = load_snapshot(path, mmap=True)
        assert mapped.is_lazily_booted
        assert eager == graph
        assert mapped == graph  # hydrates on comparison
        assert not mapped.is_lazily_booted

    def test_lazy_boot_answers_cheap_queries_without_hydrating(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        mapped = load_snapshot(path, mmap=True)
        assert mapped.num_vertices == graph.num_vertices
        assert mapped.num_edges == graph.num_edges
        assert list(mapped.vertices()) == list(graph.vertices())
        assert mapped.has_vertex("isolated")
        assert mapped.warm_indices() == graph.warm_indices()
        assert mapped.is_lazily_booted

    def test_mutation_after_mmap_boot_copies_on_write(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        original_bytes = open(path, "rb").read()
        mapped = load_snapshot(path, mmap=True)
        assert mapped.add_edge("t", "z", 9)
        assert not mapped.is_lazily_booted
        assert mapped.epoch > graph.epoch
        assert mapped.num_edges == graph.num_edges + 1
        # The mapped file never sees the mutation.
        assert open(path, "rb").read() == original_bytes
        expected = graph.copy()
        expected.add_edge("t", "z", 9)
        assert mapped == expected

    def test_resave_of_mmap_boot_is_byte_identical(self, tmp_path):
        graph = scale_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        original = open(path, "rb").read()
        mapped = load_snapshot(path, mmap=True)
        assert snapshot_bytes(mapped) == original

    def test_workers_inherit_the_mapping(self, tmp_path):
        """Process workers booted with snapshot_mmap answer identically."""
        graph = scale_graph(1500)
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        from repro.queries.workload import generate_workload

        queries = list(generate_workload(graph, num_queries=6, theta=20, seed=3))
        eager = TspgService.from_snapshot(path)
        mapped = TspgService.from_snapshot(path, mmap=True)
        assert mapped.snapshot_mmap_active
        baseline = eager.run_batch(queries, use_cache=False)
        report = mapped.run_batch(
            queries, max_workers=2, use_cache=False, executor="processes"
        )
        assert report.executor == "processes"
        for base, item in zip(baseline.items, report.items):
            assert base.outcome.result.vertices == item.outcome.result.vertices
            assert base.outcome.result.edges == item.outcome.result.edges


# ----------------------------------------------------------------------
# cross-version compatibility
# ----------------------------------------------------------------------
class TestCrossVersionCompat:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_legacy_versions_still_load_eagerly(self, tmp_path, version):
        graph = sample_graph()
        path = str(tmp_path / f"g.v{version}.tspgsnap")
        if version == 2:
            # v2's payload layout equals v3's; only the header version (and
            # the loader's tie-order trust) differ, so forge the field.
            write_legacy_snapshot(graph, path, version=3)
            raw = bytearray(open(path, "rb").read())
            fields = list(_HEADER_STRUCT.unpack(bytes(raw[:HEADER_SIZE])))
            fields[1] = 2
            raw[:HEADER_SIZE] = _HEADER_STRUCT.pack(*fields)
            open(path, "wb").write(bytes(raw))
        else:
            info = write_legacy_snapshot(graph, path, version=version)
            assert info.version == version
        assert peek_snapshot(path).version == version
        loaded = load_snapshot(path)
        assert loaded == graph
        assert loaded.warm_indices() == graph.warm_indices()

    @pytest.mark.parametrize("version", [1, 3])
    def test_mmap_on_legacy_degrades_with_recorded_reason(self, tmp_path, version):
        graph = sample_graph()
        path = str(tmp_path / f"g.v{version}.tspgsnap")
        write_legacy_snapshot(graph, path, version=version)
        boot = boot_snapshot(path, mmap=True)
        assert boot.mmap_requested and not boot.mmap_active
        assert boot.graph == graph
        assert len(boot.fallback_reasons) == 1
        reason = boot.fallback_reasons[0]
        assert f"v{version}" in reason and "mmap" in reason

    def test_v4_loads_both_ways_and_reports_sections(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        info, sections = inspect_snapshot(path)
        assert info.version == 4
        names = [section.name for section in sections]
        assert names == ["meta", "adjacency"] + list(V4_COLUMN_SECTIONS)
        for section in sections:
            assert section.offset % 8 == 0 or section.elements == 0
        assert load_snapshot(path) == graph
        assert load_snapshot(path, mmap=True) == graph

    def test_corrupted_section_names_the_section(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        _, sections = inspect_snapshot(path)
        target = next(s for s in sections if s.name == "view.dst")
        raw = bytearray(open(path, "rb").read())
        raw[HEADER_SIZE + target.offset] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(SnapshotError, match="'view.dst' checksum mismatch"):
            load_snapshot(path)
        # The mmap boot defers column CRCs, but hydration still trips on
        # the adjacency section when *that* is corrupt.
        save_snapshot(graph, path)
        _, sections = inspect_snapshot(path)
        target = next(s for s in sections if s.name == "adjacency")
        raw = bytearray(open(path, "rb").read())
        raw[HEADER_SIZE + target.offset + 4] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        mapped = load_snapshot(path, mmap=True)
        with pytest.raises(SnapshotError, match="'adjacency' checksum mismatch"):
            mapped.out_neighbors("s")

    def test_corrupted_table_is_a_checksum_mismatch(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        raw = bytearray(open(path, "rb").read())
        raw[HEADER_SIZE + 12] ^= 0xFF  # inside the first section record
        open(path, "wb").write(bytes(raw))
        with pytest.raises(SnapshotError, match="section table checksum mismatch"):
            load_snapshot(path)


# ----------------------------------------------------------------------
# durability (satellite: fsync + temp-sibling cleanup)
# ----------------------------------------------------------------------
class TestDurability:
    def test_failed_save_leaves_no_temp_sibling(self, tmp_path, monkeypatch):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        before = open(path, "rb").read()

        def exploding_fsync(fd):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="disk on fire"):
            save_snapshot(graph, path)
        monkeypatch.undo()
        siblings = sorted(os.listdir(tmp_path))
        assert siblings == ["g.tspgsnap"], f"temp sibling survived: {siblings}"
        # The committed file is untouched by the failed write.
        assert open(path, "rb").read() == before
        assert load_snapshot(path) == graph

    def test_failed_shard_save_leaves_no_temp_siblings(self, tmp_path, monkeypatch):
        graph = sample_graph()
        router = ShardedTspgService(graph, 2)
        shard_dir = tmp_path / "shards"
        router.save_shards(str(shard_dir))
        manifest_before = open(shard_dir / "manifest.json", "rb").read()

        calls = {"n": 0}
        real_fsync = os.fsync

        def fsync_fails_later(fd):
            calls["n"] += 1
            if calls["n"] > 2:
                raise OSError("disk on fire")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync_fails_later)
        with pytest.raises(OSError, match="disk on fire"):
            router.save_shards(str(shard_dir))
        monkeypatch.undo()
        names = sorted(os.listdir(shard_dir))
        assert not any(name.endswith(".tmp") for name in names), names
        # The committed generation is untouched and still boots.
        assert open(shard_dir / "manifest.json", "rb").read() == manifest_before
        booted = ShardedTspgService.from_shard_snapshots(str(shard_dir))
        assert booted.num_shards == 2


# ----------------------------------------------------------------------
# store / service / shard-set mmap surfaces
# ----------------------------------------------------------------------
class TestMmapSurfaces:
    def test_store_records_mmap_state(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        store = SnapshotGraphStore(path, mmap=True)
        assert store.mmap_requested and not store.mmap_active
        store.load()
        assert store.mmap_active
        assert store.mmap_fallback_reasons() == []
        assert store.describe()["mmap"] == "active"
        plain = SnapshotGraphStore(path)
        plain.load()
        assert plain.mmap_fallback_reasons() == [
            "mmap boot was not requested (pass mmap=True / --mmap)"
        ]

    def test_service_surfaces_fallback_reasons(self, tmp_path):
        graph = sample_graph()
        v3_path = str(tmp_path / "g.v3.tspgsnap")
        write_legacy_snapshot(graph, v3_path, version=3)
        service = TspgService.from_snapshot(v3_path, mmap=True)
        assert not service.snapshot_mmap_active
        reasons = service.mmap_fallback_reasons()
        assert len(reasons) == 1 and "v3" in reasons[0]
        plain = TspgService.from_snapshot(v3_path)
        assert plain.mmap_fallback_reasons() == [
            "mmap boot was not requested (pass mmap=True / --mmap)"
        ]

    def test_shard_set_boots_mmap_and_router_aggregates(self, tmp_path):
        graph = scale_graph(800)
        router = ShardedTspgService(graph, 2)
        shard_dir = str(tmp_path / "shards")
        router.save_shards(shard_dir)
        shard_set = ShardSnapshotSet(shard_dir)
        manifest = shard_set.manifest()
        boot = shard_set.boot_shard(manifest.shards[0], mmap=True)
        assert boot.mmap_active and boot.graph.is_lazily_booted
        mapped_router = ShardedTspgService.from_shard_snapshots(
            shard_dir, mmap=True
        )
        assert mapped_router.snapshot_mmap_active
        assert mapped_router.mmap_fallback_reasons() == []

    def test_router_labels_per_shard_degradations(self, tmp_path):
        graph = sample_graph()
        router = ShardedTspgService(graph, 2)
        shard_dir = tmp_path / "shards"
        router.save_shards(str(shard_dir))
        # Rewrite shard 1's file as v3 and patch the manifest CRC so the
        # set stays consistent — only the format version degrades.
        import json

        manifest = json.loads((shard_dir / "manifest.json").read_text())
        entry = manifest["shards"][1]
        shard_path = shard_dir / entry["filename"]
        shard_graph = load_snapshot(str(shard_path))
        write_legacy_snapshot(shard_graph, str(shard_path), version=3)
        entry["file_crc32"] = zlib.crc32(shard_path.read_bytes()) & 0xFFFFFFFF
        (shard_dir / "manifest.json").write_text(json.dumps(manifest))
        mapped_router = ShardedTspgService.from_shard_snapshots(
            str(shard_dir), mmap=True
        )
        assert not mapped_router.snapshot_mmap_active
        reasons = mapped_router.mmap_fallback_reasons()
        assert len(reasons) == 1
        assert reasons[0].startswith("shard 1 (")
        assert "v3" in reasons[0]


# ----------------------------------------------------------------------
# extent-local boots + page-advice policy
# ----------------------------------------------------------------------
class TestExtentLocalBoot:
    def restriction(self, graph):
        """A middle slice of the graph's timestamp span (a proper subset)."""
        timestamps = graph.timestamps()
        return (timestamps[len(timestamps) // 4],
                timestamps[(len(timestamps) * 3) // 4])

    def test_extent_boot_maps_only_the_interval_rows(self, tmp_path):
        graph = scale_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        interval = self.restriction(graph)
        boot = boot_snapshot(path, mmap=True, interval=interval)
        assert boot.mmap_active
        lo, hi = boot.row_range
        assert 0 < hi - lo < graph.num_edges
        assert boot.graph.num_edges == hi - lo
        assert 0 < boot.mapped_column_bytes < boot.total_column_bytes
        begin, end = interval
        view = boot.graph.view()
        assert all(begin <= ts <= end for ts in view.ts)

    def test_extent_boot_matches_eager_restriction(self, tmp_path):
        graph = scale_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        interval = self.restriction(graph)
        extent = boot_snapshot(path, mmap=True, interval=interval).graph
        eager = boot_snapshot(path, interval=interval).graph
        assert sorted(extent.edge_tuples()) == sorted(eager.edge_tuples())
        assert set(extent.vertices()) == set(eager.vertices())
        assert extent.timestamps() == eager.timestamps()

    def test_covering_interval_takes_the_whole_file_fast_path(self, tmp_path):
        graph = scale_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        timestamps = graph.timestamps()
        boot = boot_snapshot(
            path, mmap=True, interval=(timestamps[0], timestamps[-1])
        )
        assert boot.mmap_active
        assert boot.row_range == (0, graph.num_edges)
        assert boot.mapped_column_bytes == boot.total_column_bytes
        assert boot.graph.is_lazily_booted

    def test_extent_boot_registers_residency_mappings(self, tmp_path):
        from repro.store import ResidencyPolicy, madvise_supported

        graph = scale_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        policy = ResidencyPolicy()
        boot = boot_snapshot(
            path, mmap=True, interval=self.restriction(graph),
            residency=policy,
        )
        assert boot.mmap_active
        stats = policy.stats()
        assert stats["mappings"] > 0
        assert stats["mapped_bytes"] > 0
        if madvise_supported():
            assert policy.advise_warm() > 0
            assert policy.advise_serve() > 0
            assert policy.evict_cold() > 0
            assert policy.stats()["errors"] == 0

    def test_no_madvise_env_forces_noop(self, tmp_path, monkeypatch):
        from repro.store import ResidencyPolicy, madvise_unsupported_reason

        monkeypatch.setenv("TSPG_NO_MADVISE", "1")
        assert "TSPG_NO_MADVISE" in madvise_unsupported_reason()
        policy = ResidencyPolicy()
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        boot = boot_snapshot(path, mmap=True, residency=policy)
        assert boot.mmap_active
        assert not policy.supported
        assert policy.advise_warm() == 0
        assert policy.evict_cold() == 0
        assert policy.stats()["errors"] == 0

    def test_store_surfaces_interval_and_mapped_bytes(self, tmp_path):
        graph = scale_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        interval = self.restriction(graph)
        store = SnapshotGraphStore(path, mmap=True, interval=interval)
        store.load()
        row = store.describe()
        assert "interval" in row
        assert row["mapped_column_bytes"] > 0
        assert store.last_boot.row_range is not None

    def test_service_from_snapshot_with_interval_and_residency(self, tmp_path):
        graph = scale_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        interval = self.restriction(graph)
        service = TspgService.from_snapshot(
            path, mmap=True, interval=interval, residency=True
        )
        stats = service.residency_stats()
        assert stats is not None
        assert stats["phase"] == "serve"
        assert 0 < stats["mapped_column_bytes"] < stats["total_column_bytes"]
        service.evict_cold_pages()

    def test_shard_boot_with_residency_stays_whole_file(self, tmp_path):
        from repro.store import ResidencyPolicy

        graph = scale_graph()
        router = ShardedTspgService(graph, 2)
        shard_dir = str(tmp_path / "shards")
        router.save_shards(shard_dir)
        shard_set = ShardSnapshotSet(shard_dir)
        manifest = shard_set.manifest()
        policy = ResidencyPolicy()
        boot = shard_set.boot_shard(
            manifest.shards[0], mmap=True, residency=policy
        )
        # A well-formed shard file holds exactly its extent's rows, so the
        # extent restriction is a no-op and the lazy whole-file path runs.
        assert boot.mmap_active
        assert boot.graph.is_lazily_booted
        assert policy.stats()["mappings"] > 0

    def test_sharded_router_residency_stats_aggregate(self, tmp_path):
        graph = scale_graph()
        ShardedTspgService(graph, 3).save_shards(str(tmp_path / "shards"))
        booted = ShardedTspgService.from_shard_snapshots(
            str(tmp_path / "shards"), mmap=True, residency=True
        )
        assert len(booted.residency) == 3
        stats = booted.residency_stats()
        assert stats["mappings"] >= 3
        assert stats["mapped_bytes"] > 0
        booted.evict_cold_pages()
