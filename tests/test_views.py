"""Unit tests for the frozen CSR views (repro.graph.views).

Covers the GraphView columnar projection, the SubgraphView edge-mask read
API against the equivalent materialized ``TemporalGraph``, the
``.materialize()`` boundary, snapshot persistence of the columnar state and
the graph-layer satellites (edge_tuples sequence, bulk add_edges, insort).
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.quick_ubg import quick_upper_bound_graph
from repro.core.tight_ubg import tight_upper_bound_graph
from repro.graph.generators import paper_running_example, uniform_random_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.views import GraphView, SubgraphView


def _random_graph(seed: int = 3) -> TemporalGraph:
    return uniform_random_temporal_graph(
        num_vertices=20, num_edges=120, num_timestamps=30, seed=seed
    )


# ----------------------------------------------------------------------
# GraphView: the columnar projection
# ----------------------------------------------------------------------
class TestGraphView:
    def test_columns_mirror_the_sorted_backing(self):
        graph = _random_graph()
        view = graph.view()
        assert view.num_vertices == graph.num_vertices
        assert view.num_edges == graph.num_edges
        labels = view.labels
        rebuilt = [
            (labels[view.src[i]], labels[view.dst[i]], view.ts[i])
            for i in range(view.num_edges)
        ]
        assert rebuilt == list(graph.edge_tuples())
        # The ts column is the bisect substrate: it must be sorted.
        assert all(a <= b for a, b in zip(view.ts, list(view.ts)[1:]))

    def test_csr_slices_match_adjacency_lists(self):
        # The neighbour lists are read off the CSR slices, so they agree
        # element for element, equal-timestamp ties included (by neighbour
        # repr, the edge columns' _edge_sort_key order).
        graph = _random_graph()
        view = graph.view()
        labels = view.labels
        for vertex in graph.vertices():
            vid = view.index_of[vertex]
            out_entries = [
                (labels[view.dst[e]], view.ts[e]) for e in view.out_slice(vid)
            ]
            in_entries = [
                (labels[view.src[e]], view.ts[e]) for e in view.in_slice(vid)
            ]
            assert out_entries == graph.out_neighbors(vertex)
            assert in_entries == graph.in_neighbors(vertex)
            assert [t for _, t in out_entries] == sorted(t for _, t in out_entries)
            assert [t for _, t in in_entries] == sorted(t for _, t in in_entries)

    def test_aligned_columns_agree_with_csr(self):
        view = _random_graph().view()
        for j, e in enumerate(view.out_edges):
            assert view.out_ts[j] == view.ts[e]
            assert view.out_dst[j] == view.dst[e]
        for j, e in enumerate(view.in_edges):
            assert view.in_ts[j] == view.ts[e]
            assert view.in_src[j] == view.src[e]

    def test_view_is_cached_per_epoch_and_invalidated_by_mutation(self):
        graph = _random_graph()
        view = graph.view()
        assert graph.view() is view  # cached
        assert view.epoch == graph.epoch
        graph.add_edge("brand", "new", 7)
        fresh = graph.view()
        assert fresh is not view
        assert fresh.num_edges == view.num_edges + 1
        assert fresh.epoch == graph.epoch

    def test_copy_shares_the_frozen_view(self):
        graph = _random_graph()
        view = graph.view()
        clone = graph.copy()
        assert clone.view() is view
        clone.add_edge("x", "y", 1)  # clone rebuilds, original unaffected
        assert clone.view() is not view
        assert graph.view() is view

    def test_slice_bounds_bisect_the_window(self):
        graph = TemporalGraph(edges=[("a", "b", t) for t in (1, 3, 5, 9)]
                              + [("a", "c", 3), ("b", "c", 2), ("b", "c", 7)])
        view = graph.view()
        lo, hi = view.slice_bounds((3, 7))
        assert [view.ts[i] for i in range(lo, hi)] == [3, 3, 5, 7]

    def test_full_view_selects_everything(self):
        graph = _random_graph()
        full = graph.view().full_view()
        assert full.num_edges == graph.num_edges
        assert set(full.edge_tuples()) == set(graph.edge_tuples())
        assert full == graph


# ----------------------------------------------------------------------
# SubgraphView: the edge-mask read API vs the materialized graph
# ----------------------------------------------------------------------
class TestSubgraphView:
    @pytest.fixture()
    def quick_pair(self):
        """A real mask view (Gq of the paper example) plus its materialization."""
        graph = paper_running_example()
        quick = quick_upper_bound_graph(graph, "s", "t", (2, 7))
        assert isinstance(quick, SubgraphView)
        return quick, quick.materialize()

    def test_read_api_matches_materialized_graph(self, quick_pair):
        view, graph = quick_pair
        assert view.num_vertices == graph.num_vertices
        assert view.num_edges == graph.num_edges
        assert set(view.vertices()) == set(graph.vertices())
        assert tuple(view.edge_tuples()) == tuple(graph.edge_tuples())
        assert view.sorted_edges() == graph.sorted_edges()
        assert view.sorted_edges(reverse=True) == graph.sorted_edges(reverse=True)
        assert view.timestamps() == graph.timestamps()
        assert view.min_timestamp == graph.min_timestamp
        assert view.max_timestamp == graph.max_timestamp
        assert view.time_interval() == graph.time_interval()
        for vertex in graph.vertices():
            assert view.out_neighbors(vertex) == graph.out_neighbors(vertex)
            assert view.in_neighbors(vertex) == graph.in_neighbors(vertex)
            assert view.out_degree(vertex) == graph.out_degree(vertex)
            assert view.in_degree(vertex) == graph.in_degree(vertex)
            assert view.out_timestamps(vertex) == graph.out_timestamps(vertex)
            assert view.in_timestamps(vertex) == graph.in_timestamps(vertex)
            assert view.out_neighbors_after(vertex, 4) == graph.out_neighbors_after(vertex, 4)
            assert view.in_neighbors_before(vertex, 4, strict=False) == (
                graph.in_neighbors_before(vertex, 4, strict=False)
            )

    def test_membership_and_dunders(self, quick_pair):
        view, graph = quick_pair
        for (u, v, t) in graph.edge_tuples():
            assert view.has_edge(u, v, t)
            assert (u, v, t) in view
        assert not view.has_edge("s", "a", 3)  # pruned by Lemma 1
        assert not view.has_vertex("a")
        assert len(view) == graph.num_vertices
        assert view == graph
        assert graph == view  # reflected comparison via SubgraphView.__eq__

    def test_views_are_unhashable(self, quick_pair):
        view, _ = quick_pair
        with pytest.raises(TypeError):
            hash(view)

    def test_masks_of_different_phases_compare_by_members(self):
        graph = paper_running_example()
        quick = quick_upper_bound_graph(graph, "s", "t", (2, 7))
        tight = tight_upper_bound_graph(quick, "s", "t", (2, 7))
        assert isinstance(tight, SubgraphView)
        assert tight.base is quick.base
        assert tight != quick  # TightUBG prunes at least one edge here
        assert set(tight.edge_tuples()) < set(quick.edge_tuples())

    def test_materialize_round_trips_through_temporal_graph(self):
        graph = _random_graph()
        full = graph.view().full_view()
        materialized = full.materialize()
        assert materialized == graph
        # and the materialized graph builds its own identical view
        assert set(materialized.view().full_view().edge_tuples()) == set(
            graph.edge_tuples()
        )

    def test_empty_view(self):
        graph = TemporalGraph(edges=[("a", "b", 1)])
        quick = quick_upper_bound_graph(graph, "a", "z", (1, 5))
        assert quick.num_edges == 0
        assert quick.num_vertices == 0
        assert list(quick.vertices()) == []
        assert quick.timestamps() == []
        assert quick.min_timestamp is None
        assert quick.time_interval() is None
        assert quick.materialize().num_edges == 0


# ----------------------------------------------------------------------
# snapshot persistence of the columnar state
# ----------------------------------------------------------------------
class TestViewPersistence:
    def test_warmed_state_round_trips_the_view(self, tmp_path):
        from repro.store import load_snapshot, save_snapshot

        graph = _random_graph()
        path = tmp_path / "g.tspgsnap"
        save_snapshot(graph, path)
        rebuilt = load_snapshot(path)
        # The persisted view is adopted column for column, stamped with
        # the graph's epoch.
        adopted = rebuilt.view()
        assert adopted.epoch == rebuilt.epoch == graph.epoch
        for name in ("src", "dst", "ts", "out_offsets", "out_edges",
                     "in_offsets", "in_edges", "out_ts", "out_dst",
                     "in_ts", "in_src"):
            assert list(getattr(adopted, name)) == list(
                getattr(graph.view(), name)
            ), name
        assert adopted.labels == graph.view().labels

    def test_snapshot_boot_is_view_servable(self, tmp_path):
        from repro.service import TspgService
        from repro.store import save_snapshot

        graph = _random_graph()
        path = tmp_path / "g.tspgsnap"
        save_snapshot(graph, path)
        service = TspgService.from_snapshot(path)
        assert service.graph.view_is_built()
        vertices = sorted(service.graph.vertices())
        outcome = service.query(vertices[0], vertices[1], (1, 30))
        reference = TspgService(graph).query(vertices[0], vertices[1], (1, 30))
        assert outcome.result.edges == reference.result.edges


# ----------------------------------------------------------------------
# graph-layer satellites
# ----------------------------------------------------------------------
class TestEdgeTuplesSequence:
    def test_edge_tuples_is_sorted_and_follows_mutation(self):
        graph = _random_graph()
        first = graph.edge_tuples()
        assert isinstance(first, tuple)
        assert [t for (_, _, t) in first] == sorted(t for (_, _, t) in first)
        assert graph.edge_tuples() == first
        graph.add_edge("q", "r", 2)
        assert ("q", "r", 2) in graph.edge_tuples()
        assert ("q", "r", 2) not in first

    def test_tie_order_is_a_function_of_the_edge_set(self):
        # Regression: the backing used to sort the edge *set* keyed on
        # timestamp only, so equal-timestamp tie order leaked the set's
        # hash-seed/insertion-dependent iteration order — a materialized
        # view could disagree with its source on edge_tuples() order
        # (flaked at ~1 in 10 PYTHONHASHSEEDs).  Same edges, any insertion
        # history → same order.
        edges = [("f", "b", 5), ("f", "e", 5), ("a", "b", 5),
                 ("s", "b", 2), ("b", "e", 5), ("e", "f", 2)]
        forward = TemporalGraph(edges=edges)
        backward = TemporalGraph(edges=list(reversed(edges)))
        one_by_one = TemporalGraph()
        for u, v, t in sorted(edges, key=lambda e: repr(e)):
            one_by_one.add_edge(u, v, t)
        assert tuple(forward.edge_tuples()) == tuple(backward.edge_tuples())
        assert tuple(forward.edge_tuples()) == tuple(one_by_one.edge_tuples())

    def test_materialized_view_preserves_edge_order(self):
        # The concrete shape of the old flake: the quick-UBG mask view and
        # its materialization must agree element-for-element, ties included.
        graph = paper_running_example()
        quick = quick_upper_bound_graph(graph, "s", "t", (2, 7))
        assert tuple(quick.edge_tuples()) == tuple(
            quick.materialize().edge_tuples()
        )


class TestBulkAddEdges:
    def test_bulk_equals_incremental(self):
        edges = [(u, v, t) for (u, v, t) in _random_graph(seed=9).edge_tuples()]
        bulk = TemporalGraph()
        assert bulk.add_edges(edges) == len(edges)
        incremental = TemporalGraph()
        for u, v, t in edges:
            incremental.add_edge(u, v, t)
        assert bulk == incremental
        for vertex in incremental.vertices():
            assert bulk.out_neighbors(vertex) == incremental.out_neighbors(vertex)
            assert bulk.in_neighbors(vertex) == incremental.in_neighbors(vertex)
        assert list(bulk.edge_tuples()) == list(incremental.edge_tuples())

    def test_bulk_preserves_tie_order_with_existing_entries(self):
        graph = TemporalGraph(edges=[("a", "x", 5)])
        graph.add_edges([("a", "y", 5), ("a", "z", 5), ("a", "w", 4)])
        assert graph.out_neighbors("a") == [("w", 4), ("x", 5), ("y", 5), ("z", 5)]

    def test_bulk_deduplicates_and_counts_new_edges_only(self):
        graph = TemporalGraph(edges=[("a", "b", 1)])
        added = graph.add_edges([("a", "b", 1), ("a", "c", 2), ("a", "c", 2)])
        assert added == 1
        assert graph.num_edges == 2

    def test_bulk_self_loop_is_atomic(self):
        graph = TemporalGraph()
        with pytest.raises(ValueError, match="self loops"):
            graph.add_edges([("a", "b", 1), ("c", "c", 2)])
        assert graph.num_edges == 0  # nothing from the batch was applied

    def test_bulk_bumps_epoch_once_per_batch(self):
        graph = TemporalGraph(vertices=["a", "b", "c"])
        before = graph.epoch
        graph.add_edges([("a", "b", 1), ("b", "c", 2)])
        assert graph.epoch == before + 1

    def test_project_uses_the_bulk_path(self):
        graph = _random_graph(seed=4)
        projected = graph.project((5, 20))
        assert all(5 <= t <= 20 for (_, _, t) in projected.edge_tuples())
        expected = {(u, v, t) for (u, v, t) in graph.edge_tuples() if 5 <= t <= 20}
        assert set(projected.edge_tuples()) == expected
