"""Snapshot formats v4/v5: mmap-backed columnar boot, compat and durability.

Covers the columnar layout end to end — the mapped int64 columns a
:class:`TemporalGraph` boot wraps without copying, cross-version
compatibility (the committed v4 fixture loads every way; a v1–v3 header
is rejected by every reader with a message that says to re-warm),
per-section corruption detection, write durability (fsync + no temp
siblings after a failed write), and the mmap flag's surfaces on the store,
service and sharded-router layers (a refused mapping degrades cleanly with
a recorded reason).
"""

import errno
import gc
import json
import mmap as mmap_module
import os
import struct
import tracemalloc
import zlib
from array import array

import pytest

from repro.algorithms import get_algorithm
from repro.datasets.registry import load_dataset
from repro.graph.generators import paper_running_example, synth_scale_edges
from repro.graph.temporal_graph import TemporalGraph
from repro.service import ShardedTspgService, TspgService
from repro.store import (
    HEADER_SIZE,
    ShardSnapshotSet,
    SnapshotError,
    V4_COLUMN_SECTIONS,
    append_journal_delta,
    boot_snapshot,
    inspect_snapshot,
    load_snapshot,
    peek_snapshot,
    save_snapshot,
    snapshot_bytes,
)

#: A format-v4 snapshot of the paper's running example, written by the last
#: build whose writer emitted v4 (meta + adjacency + 11 column extents).
V4_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "paper_graph_v4.tspgsnap")


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


def _mmap_refusing(path):
    """An ``mmap.mmap`` stand-in that refuses to map ``path`` only."""
    real = mmap_module.mmap
    refused = os.stat(path)

    def mapping(fileno, *args, **kwargs):
        opened = os.fstat(fileno)
        if (opened.st_dev, opened.st_ino) == (refused.st_dev, refused.st_ino):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        return real(fileno, *args, **kwargs)

    return mapping


def _forge_version(path, version):
    """Rewrite the header's format version field in place."""
    raw = bytearray(open(path, "rb").read())
    raw[8:10] = struct.pack(">H", version)
    open(path, "wb").write(bytes(raw))


# ----------------------------------------------------------------------
# round trip + mmap boot
# ----------------------------------------------------------------------
class TestV4MmapBoot:
    def test_eager_and_mmap_boots_are_identical(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        info = save_snapshot(graph, path)
        assert info.version == 5
        eager = load_snapshot(path)
        boot = boot_snapshot(path, mmap=True)
        assert boot.mmap_active
        assert eager == graph
        assert boot.graph == graph  # compares over the mapped columns
        assert type(boot.graph.view().ts) is memoryview

    def test_lazy_boot_answers_cheap_queries_without_hydrating(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        boot = boot_snapshot(path, mmap=True)
        assert boot.mmap_active
        mapped = boot.graph
        view = mapped.view()
        assert mapped.num_vertices == graph.num_vertices
        assert mapped.num_edges == graph.num_edges
        assert list(mapped.vertices()) == list(graph.vertices())
        assert mapped.has_vertex("isolated")
        assert mapped.warm_indices() == graph.warm_indices()
        assert mapped.out_neighbors("b") == graph.out_neighbors("b")
        # Every read served from the mapping: no column was copied.
        assert mapped.view() is view
        for name in VIEW_COLUMNS:
            assert type(getattr(view, name)) is memoryview, name

    def test_mutation_after_mmap_boot_copies_on_write(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        original_bytes = open(path, "rb").read()
        mapped = load_snapshot(path, mmap=True)
        mapped_view = mapped.view()
        assert mapped.add_edge("t", "z", 9)
        assert mapped.view() is not mapped_view
        assert type(mapped_view.ts) is memoryview
        assert mapped_view.num_edges == graph.num_edges
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

    def test_workers_inherit_the_mapping(self, tmp_path, worker_pool):
        """Pool workers booted with snapshot_mmap answer identically."""
        graph = scale_graph(1500)
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        from repro.queries.workload import generate_workload

        queries = list(generate_workload(graph, num_queries=6, theta=20, seed=3))
        eager = TspgService.from_snapshot(path)
        mapped = TspgService.from_snapshot(path, mmap=True, pool=worker_pool)
        assert mapped.snapshot_mmap_active
        baseline = eager.run_batch(queries, use_cache=False)
        report = mapped.run_batch(queries, max_workers=2, use_cache=False)
        assert report.executor == "processes"
        for base, item in zip(baseline.items, report.items):
            assert base.outcome.result.vertices == item.outcome.result.vertices
            assert base.outcome.result.edges == item.outcome.result.edges


# ----------------------------------------------------------------------
# every view column is a builtin int64 buffer
# ----------------------------------------------------------------------
VIEW_COLUMNS = (
    "src", "dst", "ts", "out_offsets", "out_edges", "in_offsets", "in_edges",
    "out_ts", "out_dst", "in_ts", "in_src",
)

#: Two rows past D1's span (which ends at t=151), naming existing vertices.
D1_TAIL_ROWS = [(0, 5, 10**6), (1, 2, 10**6 + 1)]


@pytest.fixture(scope="module")
def d1_snapshot(tmp_path_factory):
    graph = load_dataset("D1")
    path = str(tmp_path_factory.mktemp("d1") / "d1.tspgsnap")
    save_snapshot(graph, path)
    return graph, path


def _appended(graph):
    graph.append_edges(D1_TAIL_ROWS)
    return graph


D1_BOOTS = {
    "built": lambda graph, path, tmp: graph,
    "eager": lambda graph, path, tmp: boot_snapshot(path).graph,
    "mmap": lambda graph, path, tmp: boot_snapshot(path, mmap=True).graph,
    "eager-appended": lambda graph, path, tmp: _appended(load_snapshot(path)),
    "mmap-appended": lambda graph, path, tmp: _appended(
        load_snapshot(path, mmap=True)
    ),
}


class TestPlainColumns:
    @pytest.mark.parametrize("boot", sorted(D1_BOOTS))
    def test_every_view_column_is_a_builtin_int64_buffer(
        self, d1_snapshot, tmp_path, boot
    ):
        graph, path = d1_snapshot
        booted = D1_BOOTS[boot](graph.copy(), path, tmp_path)
        view = booted.view()
        for name in VIEW_COLUMNS:
            column = getattr(view, name)
            assert (type(column) is array and column.typecode == "q") or (
                type(column) is memoryview and column.format == "q"
            ), (name, type(column))
        if boot == "mmap":
            for name in ("src", "dst", "ts"):
                assert type(getattr(view, name)) is memoryview, name
        expected = graph.copy()
        if "appended" in boot:
            _appended(expected)
        assert booted == expected


# ----------------------------------------------------------------------
# an mmap boot reports the index counts of its current state
# ----------------------------------------------------------------------
class TestLazyWarmStats:
    def test_lazy_warm_counts_match_an_eager_boot_across_an_append(
        self, d1_snapshot
    ):
        _, path = d1_snapshot
        eager = boot_snapshot(path).graph
        boot = boot_snapshot(path, mmap=True)
        mapped = boot.graph
        assert boot.mmap_active and type(mapped.view().ts) is memoryview
        assert type(eager.view().ts) is array
        assert mapped.warm_indices() == eager.warm_indices()
        for graph in (eager, mapped):
            graph.append_edges(D1_TAIL_ROWS)
        assert mapped.warm_indices() == eager.warm_indices()
        assert snapshot_bytes(mapped) == snapshot_bytes(eager)


# ----------------------------------------------------------------------
# cross-version compatibility
# ----------------------------------------------------------------------
class TestCrossVersionCompat:
    def test_v4_loads_both_ways_and_reports_sections(self, tmp_path):
        graph = paper_running_example()
        info, sections = inspect_snapshot(V4_FIXTURE)
        assert info.version == 4
        names = [section.name for section in sections]
        assert names == ["meta", "adjacency"] + list(V4_COLUMN_SECTIONS)
        for section in sections:
            assert section.offset % 8 == 0 or section.elements == 0
        assert load_snapshot(V4_FIXTURE) == graph
        assert load_snapshot(V4_FIXTURE, mmap=True) == graph
        # v5 is the same layout without the adjacency section.
        path = str(tmp_path / "g.tspgsnap")
        assert save_snapshot(graph, path).version == 5
        info, sections = inspect_snapshot(path)
        assert info.version == 5
        assert [s.name for s in sections] == ["meta"] + list(V4_COLUMN_SECTIONS)

    def test_corrupted_section_names_the_section(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        _, sections = inspect_snapshot(path)
        target = next(s for s in sections if s.name == "view.dst")
        raw = bytearray(open(path, "rb").read())
        raw[target.offset] ^= 0xFF  # section offsets are absolute
        open(path, "wb").write(bytes(raw))
        with pytest.raises(SnapshotError, match="'view.dst' checksum mismatch"):
            load_snapshot(path)
        # The mmap boot defers column CRCs, but still checks the meta
        # section it decodes.
        save_snapshot(graph, path)
        _, sections = inspect_snapshot(path)
        target = next(s for s in sections if s.name == "meta")
        raw = bytearray(open(path, "rb").read())
        raw[target.offset + 4] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(SnapshotError, match="'meta' checksum mismatch"):
            load_snapshot(path, mmap=True)

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
# formats v1–v3 are not read: every reader says to re-warm
# ----------------------------------------------------------------------
RETIRED_READERS = {
    "eager": boot_snapshot,
    "mmap": lambda path: boot_snapshot(path, mmap=True),
    "peek": peek_snapshot,
    "inspect": inspect_snapshot,
    "service": TspgService.from_snapshot,
}


class TestRetiredVersions:
    @pytest.mark.parametrize("reader", sorted(RETIRED_READERS))
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_a_pre_v4_header_is_rejected_with_a_re_warm_message(
        self, tmp_path, version, reader
    ):
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(sample_graph(), path)
        _forge_version(path, version)
        with pytest.raises(SnapshotError, match=f"version {version} .*re-warm"):
            RETIRED_READERS[reader](path)

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_a_shard_set_with_one_pre_v4_shard_is_rejected(
        self, tmp_path, version, mmap
    ):
        shard_dir = tmp_path / "shards"
        ShardedTspgService(sample_graph(), 2).save_shards(str(shard_dir))
        manifest = json.loads((shard_dir / "manifest.json").read_text())
        entry = manifest["shards"][1]
        shard_path = shard_dir / entry["filename"]
        _forge_version(shard_path, version)
        # The manifest CRC matches the file, as in a set an old build
        # wrote: only the format version is out of range.
        entry["file_crc32"] = zlib.crc32(shard_path.read_bytes()) & 0xFFFFFFFF
        (shard_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match=f"version {version} .*re-warm"):
            ShardedTspgService.from_shard_snapshots(str(shard_dir), mmap=mmap)


# ----------------------------------------------------------------------
# the committed v4 fixture: files written before v5 keep booting
# ----------------------------------------------------------------------
V4_BOOTS = {
    "eager": {},
    "mmap": {"mmap": True},
}


def vug_answers(graph, interval=(2, 7)):
    algorithm = get_algorithm("VUG")
    vertices = sorted(graph.vertices())
    return [
        sorted(algorithm.run(graph, s, t, interval).result.edges)
        for s in vertices
        for t in vertices
        if s != t
    ]


class TestV4Fixture:
    @pytest.mark.parametrize("name", sorted(V4_BOOTS))
    def test_every_boot_of_a_v4_file_equals_the_graph_and_answers_alike(
        self, name
    ):
        options = V4_BOOTS[name]
        boot = boot_snapshot(V4_FIXTURE, **options)
        assert boot.info.version == 4
        assert boot.mmap_active == bool(options.get("mmap"))
        graph = paper_running_example()
        assert boot.graph == graph
        assert boot.graph.epoch == graph.epoch
        assert vug_answers(boot.graph) == vug_answers(graph)

    def test_a_journal_replays_onto_a_v4_file_and_a_resave_writes_v5(
        self, tmp_path
    ):
        path = str(tmp_path / "old.tspgsnap")
        with open(V4_FIXTURE, "rb") as source, open(path, "wb") as target:
            target.write(source.read())
        graph = boot_snapshot(path, mmap=True).graph
        append_journal_delta(path, graph.append_edges([("t", "z", 9), ("e", "t", 8)]))
        expected = paper_running_example()
        expected.append_edges([("t", "z", 9), ("e", "t", 8)])
        for options in ({}, {"mmap": True}):
            boot = boot_snapshot(path, **options)
            assert boot.journal_records == 1
            assert boot.graph == expected
            assert boot.graph.epoch == expected.epoch
            assert vug_answers(boot.graph, (1, 9)) == vug_answers(expected, (1, 9))
        resaved = str(tmp_path / "new.tspgsnap")
        assert save_snapshot(boot.graph, resaved).version == 5
        assert snapshot_bytes(load_snapshot(resaved)) == snapshot_bytes(expected)

    def test_eager_load_checks_the_v4_adjacency_crc_and_mmap_skips_it(
        self, tmp_path
    ):
        path = str(tmp_path / "old.tspgsnap")
        raw = bytearray(open(V4_FIXTURE, "rb").read())
        _, sections = inspect_snapshot(V4_FIXTURE)
        target = next(s for s in sections if s.name == "adjacency")
        raw[target.offset + 4] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(SnapshotError, match="'adjacency' checksum mismatch"):
            load_snapshot(path)
        assert load_snapshot(path, mmap=True) == paper_running_example()


# ----------------------------------------------------------------------
# a booted graph holds nothing per edge beyond its view
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scale_snapshot(tmp_path_factory):
    """A seeded 20k-edge synth-scale snapshot and one query over it."""
    from repro.datasets.registry import SyntheticScaleSpec
    from repro.queries.workload import generate_workload

    graph = SyntheticScaleSpec(
        num_vertices=2000, num_edges=20000, num_timestamps=200
    ).load()
    path = str(tmp_path_factory.mktemp("scale") / "scale.tspgsnap")
    save_snapshot(graph, path)
    (query,) = generate_workload(graph, 1, 50, seed=5)
    vertices = sorted(graph.vertices())
    tail = graph.max_timestamp + 1
    rows = [(vertices[0], vertices[1], tail), (vertices[1], vertices[2], tail + 1)]
    return path, query, rows


def _column_bytes(view):
    return sum(memoryview(getattr(view, name)).nbytes for name in VIEW_COLUMNS)


class TestBootedGraphMemory:
    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    def test_a_booted_graph_retains_little_beyond_its_view_columns(
        self, scale_snapshot, mmap
    ):
        path, query, rows = scale_snapshot
        before = open(path, "rb").read()
        engine = get_algorithm("VUG")

        def ask(graph):
            return engine.run(graph, query.source, query.target, query.interval)

        gc.collect()
        tracemalloc.start()
        try:
            boot = boot_snapshot(path, mmap=mmap)
            graph = boot.graph
            assert boot.mmap_active == mmap
            graph.warm_indices()
            first = ask(graph)
            if mmap:
                for name in VIEW_COLUMNS:
                    assert type(getattr(graph.view(), name)) is memoryview, name
            assert graph.append_edges(rows).append_only
            second = ask(graph)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.result.edges == second.result.edges
        columns = _column_bytes(graph.view())
        assert retained <= 2 * columns, (retained, columns)
        assert open(path, "rb").read() == before


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
        boot = boot_snapshot(path, mmap=True)
        assert boot.mmap_requested and boot.mmap_active
        assert boot.fallback_reasons == []
        # The whole file is mapped: every column, the persisted CSR-aligned
        # ones included, reads out of the one mapping.
        view = boot.graph.view()
        assert type(view.ts) is memoryview and type(view.out_ts) is memoryview
        assert boot.graph == graph
        plain = boot_snapshot(path)
        assert not plain.mmap_requested and not plain.mmap_active
        assert plain.fallback_reasons == []
        assert type(plain.graph.view().ts) is array

    def test_service_surfaces_fallback_reasons(self, tmp_path, monkeypatch):
        graph = sample_graph()
        path = str(tmp_path / "g.tspgsnap")
        save_snapshot(graph, path)
        monkeypatch.setattr(mmap_module, "mmap", _mmap_refusing(path))
        service = TspgService.from_snapshot(path, mmap=True)
        assert not service.snapshot_mmap_active
        assert service.graph == graph
        reasons = service.mmap_fallback_reasons()
        assert len(reasons) == 1 and "mmap of the snapshot failed" in reasons[0]
        plain = TspgService.from_snapshot(path)
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
        assert boot.mmap_active and type(boot.graph.view().ts) is memoryview
        mapped_router = ShardedTspgService.from_shard_snapshots(
            shard_dir, mmap=True
        )
        assert mapped_router.snapshot_mmap_active
        assert mapped_router.mmap_fallback_reasons() == []

    def test_shard_boot_maps_the_whole_file(self, tmp_path):
        graph = scale_graph()
        router = ShardedTspgService(graph, 2)
        shard_dir = str(tmp_path / "shards")
        router.save_shards(shard_dir)
        shard_set = ShardSnapshotSet(shard_dir)
        entry = shard_set.manifest().shards[0]
        boot = shard_set.boot_shard(entry, mmap=True)
        # A shard file holds exactly its extent's rows and boots whole,
        # the persisted CSR-aligned columns mapped with the edge columns.
        assert boot.mmap_active
        assert type(boot.graph.view().out_ts) is memoryview
        assert boot.graph.num_edges == entry.num_edges
        assert boot.graph == shard_set.load_shard(entry)

    def test_router_labels_per_shard_degradations(self, tmp_path, monkeypatch):
        graph = sample_graph()
        router = ShardedTspgService(graph, 2)
        shard_dir = tmp_path / "shards"
        manifest = router.save_shards(str(shard_dir))
        # Only shard 1's file refuses to map; shard 0 boots mapped.
        shard_path = str(shard_dir / manifest.shards[1].filename)
        monkeypatch.setattr(mmap_module, "mmap", _mmap_refusing(shard_path))
        mapped_router = ShardedTspgService.from_shard_snapshots(
            str(shard_dir), mmap=True
        )
        assert not mapped_router.snapshot_mmap_active
        reasons = mapped_router.mmap_fallback_reasons()
        assert len(reasons) == 1
        assert reasons[0].startswith("shard 1 (")
        assert "mmap of the snapshot failed" in reasons[0]
        assert mapped_router.graph == graph
