"""Unit tests for the TemporalGraph data structure."""

from __future__ import annotations

import pytest

from repro.graph.edge import TemporalEdge, TimeInterval
from repro.graph.temporal_graph import TemporalGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = TemporalGraph()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert graph.timestamps() == []
        assert graph.time_interval() is None

    def test_add_edges_and_vertices(self):
        graph = TemporalGraph(edges=[("a", "b", 1)], vertices=["isolated"])
        assert graph.num_vertices == 3
        assert graph.has_vertex("isolated")
        assert graph.has_edge("a", "b", 1)

    def test_duplicate_edges_collapse(self):
        graph = TemporalGraph()
        assert graph.add_edge("a", "b", 1) is True
        assert graph.add_edge("a", "b", 1) is False
        assert graph.num_edges == 1

    def test_parallel_edges_with_different_timestamps(self):
        graph = TemporalGraph(edges=[("a", "b", 1), ("a", "b", 2)])
        assert graph.num_edges == 2
        assert graph.out_degree("a") == 2

    def test_self_loops_rejected(self):
        graph = TemporalGraph()
        with pytest.raises(ValueError):
            graph.add_edge("a", "a", 1)

    def test_add_edges_returns_new_count(self):
        graph = TemporalGraph()
        added = graph.add_edges([("a", "b", 1), ("a", "b", 1), ("b", "c", 2)])
        assert added == 2


class TestAccessors:
    @pytest.fixture
    def graph(self) -> TemporalGraph:
        return TemporalGraph(
            edges=[("a", "b", 5), ("a", "b", 1), ("a", "c", 3), ("c", "b", 2), ("b", "a", 4)]
        )

    def test_neighbor_lists_sorted_by_timestamp(self, graph):
        assert graph.out_neighbors("a") == [("b", 1), ("c", 3), ("b", 5)]
        assert graph.in_neighbors("b") == [("a", 1), ("c", 2), ("a", 5)]

    def test_degrees(self, graph):
        assert graph.out_degree("a") == 3
        assert graph.in_degree("a") == 1
        assert graph.degree("a") == 4
        assert graph.max_degree() == 3
        assert graph.out_degree("missing") == 0

    def test_timestamps(self, graph):
        assert graph.timestamps() == [1, 2, 3, 4, 5]
        assert graph.min_timestamp == 1
        assert graph.max_timestamp == 5
        assert graph.out_timestamps("a") == [1, 3, 5]
        assert graph.in_timestamps("b") == [1, 2, 5]

    def test_sorted_edges(self, graph):
        forward = graph.sorted_edges()
        assert [e.timestamp for e in forward] == [1, 2, 3, 4, 5]
        backward = graph.sorted_edges(reverse=True)
        assert [e.timestamp for e in backward] == [5, 4, 3, 2, 1]

    def test_range_queries(self, graph):
        assert graph.out_neighbors_after("a", 1) == [("c", 3), ("b", 5)]
        assert graph.out_neighbors_after("a", 1, strict=False) == [("b", 1), ("c", 3), ("b", 5)]
        assert graph.in_neighbors_before("b", 5) == [("a", 1), ("c", 2)]
        assert graph.in_neighbors_before("b", 5, strict=False) == [("a", 1), ("c", 2), ("a", 5)]

    def test_contains_protocol(self, graph):
        assert "a" in graph
        assert ("a", "b", 1) in graph
        assert TemporalEdge("a", "b", 1) in graph
        assert ("a", "b", 99) not in graph
        assert "zz" not in graph

    def test_len_and_repr(self, graph):
        assert len(graph) == 3
        assert "TemporalGraph" in repr(graph)


class TestDerivedGraphs:
    @pytest.fixture
    def graph(self) -> TemporalGraph:
        return TemporalGraph(edges=[("a", "b", 1), ("b", "c", 5), ("c", "a", 9)])

    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        assert clone == graph
        clone.add_edge("a", "c", 2)
        assert clone != graph

    def test_project(self, graph):
        projected = graph.project((1, 5))
        assert set(projected.edge_tuples()) == {("a", "b", 1), ("b", "c", 5)}
        assert not projected.has_vertex("c") or projected.has_vertex("c")
        # Vertices are induced by the surviving edges only.
        assert set(projected.vertices()) == {"a", "b", "c"}

    def test_edge_induced_subgraph(self, graph):
        sub = graph.edge_induced_subgraph([("a", "b", 1)])
        assert set(sub.edge_tuples()) == {("a", "b", 1)}
        with pytest.raises(KeyError):
            graph.edge_induced_subgraph([("a", "b", 99)])

    def test_reverse(self, graph):
        reverse = graph.reverse()
        assert reverse.has_edge("b", "a", 1)
        assert reverse.num_edges == graph.num_edges
        assert set(reverse.vertices()) == set(graph.vertices())

    def test_time_interval(self, graph):
        assert graph.time_interval() == TimeInterval(1, 9)

    def test_equality_ignores_insertion_order(self):
        left = TemporalGraph(edges=[("a", "b", 1), ("b", "c", 2)])
        right = TemporalGraph(edges=[("b", "c", 2), ("a", "b", 1)])
        assert left == right
        assert left != TemporalGraph(edges=[("a", "b", 1)])
        assert left.__eq__(42) is NotImplemented

    def test_graphs_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(TemporalGraph())


class TestMutationEpoch:
    def test_new_graph_starts_at_epoch_zero(self):
        assert TemporalGraph().epoch == 0

    def test_add_edge_bumps_epoch(self):
        graph = TemporalGraph()
        before = graph.epoch
        graph.add_edge("a", "b", 1)
        assert graph.epoch > before

    def test_duplicate_edge_does_not_bump(self):
        graph = TemporalGraph(edges=[("a", "b", 1)])
        before = graph.epoch
        assert graph.add_edge("a", "b", 1) is False
        assert graph.epoch == before

    def test_add_vertex_bumps_only_when_new(self):
        graph = TemporalGraph()
        graph.add_vertex("a")
        bumped = graph.epoch
        assert bumped > 0
        graph.add_vertex("a")
        assert graph.epoch == bumped

    def test_add_edges_bumps_per_new_edge(self):
        graph = TemporalGraph()
        graph.add_edges([("a", "b", 1), ("b", "c", 2), ("a", "b", 1)])
        first = graph.epoch
        graph.add_edges([("a", "b", 1)])  # all duplicates
        assert graph.epoch == first

    def test_epoch_is_monotonic(self):
        graph = TemporalGraph()
        seen = [graph.epoch]
        for t in range(1, 6):
            graph.add_edge("u", f"v{t}", t)
            seen.append(graph.epoch)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)


class TestAliasingRegression:
    """Returned collections must be copies: mutating them cannot corrupt
    the internal sorted adjacency state (the `_view` variants stay
    zero-copy by contract)."""

    @pytest.fixture
    def graph(self) -> TemporalGraph:
        return TemporalGraph(edges=[("a", "b", 1), ("a", "c", 5), ("c", "a", 9)])

    def test_out_neighbors_returns_a_copy(self, graph):
        entries = graph.out_neighbors("a")
        entries.append(("zz", 0))  # would break the sorted invariant
        entries.reverse()
        assert graph.out_neighbors("a") == [("b", 1), ("c", 5)]
        assert graph.out_neighbors_view("a") == [("b", 1), ("c", 5)]

    def test_in_neighbors_returns_a_copy(self, graph):
        entries = graph.in_neighbors("a")
        entries.clear()
        assert graph.in_neighbors("a") == [("c", 9)]

    def test_range_queries_return_copies(self, graph):
        after = graph.out_neighbors_after("a", 0)
        after.insert(0, ("zz", -1))
        before = graph.in_neighbors_before("a", 99)
        before.clear()
        assert graph.out_neighbors_after("a", 0) == [("b", 1), ("c", 5)]
        assert graph.in_neighbors_before("a", 99) == [("c", 9)]

    def test_sorted_edges_and_timestamps_return_copies(self, graph):
        edges = graph.sorted_edges()
        edges.clear()
        ts = graph.timestamps()
        ts.append(-1)
        out_ts = graph.out_timestamps("a")
        out_ts.append(-1)
        in_ts = graph.in_timestamps("a")
        in_ts.append(-1)
        assert [e.timestamp for e in graph.sorted_edges()] == [1, 5, 9]
        assert graph.timestamps() == [1, 5, 9]
        assert graph.out_timestamps("a") == [1, 5]
        assert graph.in_timestamps("a") == [9]

    def test_mutated_copy_cannot_corrupt_lookups(self, graph):
        # End-to-end: corrupt a returned list, then check binary-searched
        # range lookups still see the pristine sorted order.
        returned = graph.out_neighbors("a")
        returned.sort(key=lambda entry: -entry[1])  # descending: invalid order
        assert graph.out_neighbors_after("a", 1) == [("c", 5)]
        assert graph.out_neighbors_after("a", 1, strict=False) == [("b", 1), ("c", 5)]


class TestCopyCarriesWarmth:
    def test_copy_carries_warmed_caches(self):
        graph = TemporalGraph(edges=[("a", "b", 1), ("b", "c", 5)])
        graph.warm_indices()
        graph.out_neighbors("a")  # derive the CSR-aligned columns
        graph.in_neighbors("b")
        clone = graph.copy()
        assert clone.view() is graph.view()  # the frozen view is shared
        assert clone.view_is_built()
        assert clone.timestamps() == graph.timestamps()
        assert clone.sorted_edges() == graph.sorted_edges()
        assert clone.out_timestamps("a") == graph.out_timestamps("a")

    def test_copy_stamps_the_source_epoch(self):
        graph = TemporalGraph(edges=[("a", "b", 1), ("b", "c", 5)])
        clone = graph.copy()
        assert clone.epoch == graph.epoch

    def test_cold_copy_stays_cold(self):
        graph = TemporalGraph(edges=[("a", "b", 1)])
        clone = graph.copy()
        # Copying derives no CSR-aligned column the source had not built.
        assert not graph.view_is_built()
        assert not clone.view_is_built()
        assert clone == graph

    def test_copies_do_not_alias_internal_state(self):
        graph = TemporalGraph(edges=[("a", "b", 1)])
        graph.warm_indices()
        clone = graph.copy()
        clone.add_edge("a", "b", 2)
        assert graph.out_neighbors("a") == [("b", 1)]
        assert graph.out_timestamps("a") == [1]
        assert clone.out_timestamps("a") == [1, 2]
        assert len(graph.sorted_edges()) == 1

    def test_warmed_copy_of_snapshot_loaded_graph(self, tmp_path):
        from repro.store import load_snapshot, save_snapshot

        graph = TemporalGraph(edges=[("a", "b", 1), ("b", "c", 5)])
        save_snapshot(graph, tmp_path / "g.tspgsnap")
        loaded = load_snapshot(tmp_path / "g.tspgsnap")
        clone = loaded.copy()
        assert clone.view() is loaded.view()
        assert clone.view_is_built()
        assert clone.sorted_edges() == graph.sorted_edges()
        assert clone.epoch == graph.epoch


class TestBackingDeterminism:
    def test_edge_order_is_hash_seed_independent(self):
        """The sorted backing must not leak set iteration order.

        Runs the same graph build under several ``PYTHONHASHSEED`` values in
        subprocesses and asserts every one produces the identical
        ``edge_tuples()`` sequence — the property the snapshot format (byte
        reproducibility) and the view/materialize consistency rest on.
        Regression for the timestamp-only sort key that made equal-timestamp
        tie order flake at ~1 in 10 hash seeds.
        """
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "from repro.graph.generators import paper_running_example\n"
            "print(paper_running_example().edge_tuples())\n"
        )
        src_root = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("0", "1", "2", "3", "4"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1, "edge order varied with PYTHONHASHSEED"


class TestInsertionHistory:
    def test_equal_graphs_read_and_persist_identically(self):
        """The graph's reads and bytes depend on its vertex order and edge
        set alone: the order its edges arrived in leaves no trace."""
        import random

        from repro.datasets.registry import load_dataset
        from repro.store import snapshot_bytes

        d3 = load_dataset("D3")
        vertices = list(d3.vertices())
        edges = list(d3.edge_tuples())
        shuffled = list(edges)
        random.Random(21).shuffle(shuffled)
        in_order = TemporalGraph(vertices=vertices, edges=edges)
        scrambled = TemporalGraph(vertices=vertices, edges=shuffled)
        assert in_order == scrambled
        assert in_order.epoch == scrambled.epoch == len(vertices) + 1 == 151
        assert snapshot_bytes(in_order) == snapshot_bytes(scrambled)
        for vertex in vertices:
            assert in_order.out_neighbors(vertex) == scrambled.out_neighbors(vertex)
            assert in_order.in_neighbors(vertex) == scrambled.in_neighbors(vertex)


def _forbid_folds(patch):
    from repro.graph.views import GraphView

    def fold(self, delta):
        raise AssertionError("a staged row was folded into the view")

    patch.setattr(GraphView, "extended_with", fold)


class TestStaging:
    def test_mutators_stage_and_membership_and_counts_never_fold(
        self, monkeypatch
    ):
        graph = TemporalGraph(edges=[("a", "b", 1)])
        graph.view()
        with monkeypatch.context() as patch:
            _forbid_folds(patch)
            for step in range(200):  # an edge-by-edge build folds nothing
                assert graph.add_edge("b", ("c", step), step + 2)
                assert not graph.add_edge("b", ("c", step), step + 2)
            graph.add_vertex("z")
            assert graph.has_edge("b", ("c", 7), 9) and graph.has_edge("a", "b", 1)
            assert not graph.has_edge("b", ("c", 7), 10)
            assert graph.has_vertex("z") and graph.has_vertex(("c", 199))
            assert graph.num_vertices == 203 and graph.num_edges == 201
            assert not graph.view_is_built()
        assert graph.out_degree("b") == 200  # the first read folds
        assert list(graph.vertices())[-1] == "z"

    def test_boots_warming_and_appends_leave_nothing_staged(
        self, tmp_path, monkeypatch
    ):
        from repro.store import load_snapshot, save_snapshot

        graph = TemporalGraph(edges=[("a", "b", 1), ("b", "c", 2)])
        graph.add_vertex("z")
        graph.warm_indices()
        appended = TemporalGraph(edges=[("a", "b", 1)])
        appended.add_edge("b", "c", 2)
        appended.append_edges([("c", "d", 3)])
        save_snapshot(graph, tmp_path / "g.tspgsnap")
        booted = [
            load_snapshot(tmp_path / "g.tspgsnap", **options)
            for options in ({}, {"mmap": True})
        ]
        with monkeypatch.context() as patch:
            _forbid_folds(patch)
            for each in (graph, appended, *booted):
                assert each.edge_tuples() and each.timestamps()
                each.out_neighbors("b"), each.in_neighbors("b")
                assert each.view_is_built()

    def test_readers_racing_to_fold_neither_lose_nor_repeat_a_row(self):
        import sys
        import threading

        rows = [(u, (u * 7 + 3) % 50, t) for t in range(40) for u in range(50)]
        rows = [row for row in rows if row[0] != row[1]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                graph = TemporalGraph(edges=rows[: len(rows) // 2])
                graph.view()
                graph.add_edges(rows[len(rows) // 2 :])  # staged
                seen = []

                def read():
                    seen.append(
                        (graph.num_edges, graph.view().num_edges, len(graph.edge_tuples()))
                    )

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert seen == [(len(rows),) * 3] * len(threads)
                assert sorted(graph.edge_tuples()) == sorted(rows)
        finally:
            sys.setswitchinterval(interval)
