"""Tests for repro.store: snapshot round-trips and corruption handling."""

from __future__ import annotations

import os
import struct

import pytest

from repro.graph.generators import uniform_random_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.service import TspgService
from repro.store import (
    HEADER_SIZE,
    SNAPSHOT_VERSION,
    SnapshotError,
    load_snapshot,
    peek_snapshot,
    save_snapshot,
)


def _random_graph(seed: int) -> TemporalGraph:
    return uniform_random_temporal_graph(
        num_vertices=15, num_edges=90, num_timestamps=25, seed=seed
    )


def _assert_graphs_identical(loaded: TemporalGraph, original: TemporalGraph) -> None:
    """Structural equality across every index a snapshot must preserve."""
    assert loaded == original
    assert loaded.num_vertices == original.num_vertices
    assert loaded.num_edges == original.num_edges
    assert loaded.sorted_edges() == original.sorted_edges()
    assert loaded.timestamps() == original.timestamps()
    assert loaded.epoch == original.epoch
    for vertex in original.vertices():
        assert loaded.out_neighbors(vertex) == original.out_neighbors(vertex)
        assert loaded.in_neighbors(vertex) == original.in_neighbors(vertex)
        assert loaded.out_timestamps(vertex) == original.out_timestamps(vertex)
        assert loaded.in_timestamps(vertex) == original.in_timestamps(vertex)


# ----------------------------------------------------------------------
# round-trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_graph_round_trip(self, tmp_path, seed):
        graph = _random_graph(seed)
        path = tmp_path / f"g{seed}.tspgsnap"
        info = save_snapshot(graph, path)
        assert info.num_vertices == graph.num_vertices
        assert info.num_edges == graph.num_edges
        assert info.epoch == graph.epoch
        assert peek_snapshot(path) == info
        assert os.listdir(tmp_path) == [path.name]  # no temp sibling left
        _assert_graphs_identical(load_snapshot(path), graph)

    def test_string_and_tuple_vertices(self, tmp_path):
        graph = TemporalGraph(
            edges=[("stop A", ("line", 1), 3), (("line", 1), "stop B", 7)],
        )
        path = tmp_path / "mixed.tspgsnap"
        save_snapshot(graph, path)
        _assert_graphs_identical(load_snapshot(path), graph)

    def test_isolated_vertices_survive(self, tmp_path):
        graph = TemporalGraph(edges=[("a", "b", 1)], vertices=["lonely", "a"])
        path = tmp_path / "iso.tspgsnap"
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        assert loaded.has_vertex("lonely")
        _assert_graphs_identical(loaded, graph)

    def test_empty_graph_round_trip(self, tmp_path):
        graph = TemporalGraph()
        path = tmp_path / "empty.tspgsnap"
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        assert loaded.num_vertices == 0
        assert loaded.num_edges == 0

    def test_loaded_graph_is_warm_and_sort_free(self, tmp_path):
        graph = _random_graph(seed=6)
        path = tmp_path / "warm.tspgsnap"
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        # The persisted columns are adopted whole, CSR-aligned ones
        # included: the boot stages nothing and no query builds anything.
        assert loaded.view_is_built()
        assert loaded.timestamps() == graph.timestamps()
        for vertex in graph.vertices():
            assert loaded.out_timestamps(vertex) == graph.out_timestamps(vertex)
        stats = loaded.warm_indices()
        assert stats["sorted_edges"] == graph.num_edges

    def test_loaded_graph_stays_mutable(self, tmp_path):
        graph = _random_graph(seed=7)
        path = tmp_path / "mut.tspgsnap"
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        epoch = loaded.epoch
        assert loaded.add_edge("fresh-u", "fresh-v", 5)
        assert loaded.epoch > epoch
        assert loaded.has_edge("fresh-u", "fresh-v", 5)
        assert loaded.sorted_edges()[0].timestamp <= 5

    def test_snapshot_queries_match_direct_queries(self, tmp_path):
        graph = _random_graph(seed=8)
        path = tmp_path / "svc.tspgsnap"
        save_snapshot(graph, path)
        service = TspgService.from_snapshot(path)
        direct = TspgService(graph)
        for source, target, interval in [
            (0, 5, (1, 12)), (3, 9, (5, 20)), (1, 2, (0, 25)),
        ]:
            if source == target:
                continue
            a = service.query(source, target, interval)
            b = direct.query(source, target, interval)
            assert a.result.vertices == b.result.vertices
            assert a.result.edges == b.result.edges


# ----------------------------------------------------------------------
# header validation and corruption
# ----------------------------------------------------------------------
class TestCorruption:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        graph = _random_graph(seed=11)
        path = tmp_path / "base.tspgsnap"
        save_snapshot(graph, path)
        return path

    def test_peek_reads_header_only(self, snapshot):
        info = peek_snapshot(snapshot)
        assert info.version == SNAPSHOT_VERSION
        assert info.num_edges > 0
        assert os.path.getsize(snapshot) == HEADER_SIZE + info.payload_bytes

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot open"):
            load_snapshot(tmp_path / "nope.tspgsnap")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(SnapshotError, match="truncated snapshot header"):
            load_snapshot(path)

    def test_bad_magic(self, tmp_path, snapshot):
        raw = snapshot.read_bytes()
        bad = tmp_path / "magic.bin"
        bad.write_bytes(b"NOTASNAP" + raw[8:])
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(bad)
        with pytest.raises(SnapshotError, match="bad magic"):
            peek_snapshot(bad)

    def test_wrong_version(self, tmp_path, snapshot):
        raw = bytearray(snapshot.read_bytes())
        raw[8:10] = struct.pack(">H", 99)
        bad = tmp_path / "version.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="unsupported snapshot format version 99"):
            load_snapshot(bad)

    def test_truncated_payload(self, tmp_path, snapshot):
        raw = snapshot.read_bytes()
        bad = tmp_path / "trunc.bin"
        bad.write_bytes(raw[:-7])
        with pytest.raises(SnapshotError, match="truncated snapshot payload"):
            load_snapshot(bad)

    def test_truncated_header(self, tmp_path, snapshot):
        raw = snapshot.read_bytes()
        bad = tmp_path / "hdr.bin"
        bad.write_bytes(raw[: HEADER_SIZE - 3])
        with pytest.raises(SnapshotError, match="truncated snapshot header"):
            load_snapshot(bad)

    def test_trailing_garbage(self, tmp_path, snapshot):
        raw = snapshot.read_bytes()
        bad = tmp_path / "trail.bin"
        bad.write_bytes(raw + b"extra")
        with pytest.raises(SnapshotError, match="trailing data"):
            load_snapshot(bad)

    @pytest.mark.parametrize("offset_from_header", [0, 10, 100])
    def test_flipped_payload_byte_fails_checksum(
        self, tmp_path, snapshot, offset_from_header
    ):
        raw = bytearray(snapshot.read_bytes())
        raw[HEADER_SIZE + offset_from_header] ^= 0xFF
        bad = tmp_path / "flip.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            load_snapshot(bad)

    def test_header_payload_count_mismatch(self, tmp_path, snapshot):
        # Forge the edge count in the header (and keep everything else
        # intact): the payload decodes fine but the cross-check must fire.
        raw = bytearray(snapshot.read_bytes())
        magic, version, epoch, n_v, n_e, n_t, p_len, crc = struct.unpack(
            ">8sHQQQQQI", raw[:HEADER_SIZE]
        )
        raw[:HEADER_SIZE] = struct.pack(
            ">8sHQQQQQI", magic, version, epoch, n_v, n_e + 1, n_t, p_len, crc
        )
        bad = tmp_path / "counts.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="header does not match payload"):
            load_snapshot(bad)

    def test_random_junk_is_rejected(self, tmp_path):
        import random

        rng = random.Random(99)
        path = tmp_path / "junk.bin"
        path.write_bytes(bytes(rng.randrange(256) for _ in range(512)))
        with pytest.raises(SnapshotError):
            load_snapshot(path)
