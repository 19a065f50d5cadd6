"""Unit tests for quick upper-bound graph generation (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.core.polarity import compute_polarity_times
from repro.core.quick_ubg import quick_upper_bound_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.validation import is_subgraph

from repro.testing import PAPER_GQ_EDGES


class TestPaperExample:
    def test_gq_matches_figure3c(self, paper_query):
        graph, source, target, interval = paper_query
        quick = quick_upper_bound_graph(graph, source, target, interval)
        assert set(quick.edge_tuples()) == PAPER_GQ_EDGES

    def test_excluded_edges_of_example4(self, paper_query):
        graph, source, target, interval = paper_query
        quick = quick_upper_bound_graph(graph, source, target, interval)
        assert not quick.has_edge("s", "a", 3)
        assert not quick.has_edge("d", "t", 2)
        assert not quick.has_edge("s", "d", 4)
        assert not quick.has_edge("b", "d", 3)
        assert not quick.has_edge("a", "d", 5)
        assert not quick.has_edge("b", "f", 5)

    def test_gq_is_subgraph_of_original(self, paper_query):
        graph, source, target, interval = paper_query
        quick = quick_upper_bound_graph(graph, source, target, interval)
        assert is_subgraph(quick, graph)

    def test_vertices_are_induced_from_edges(self, paper_query):
        graph, source, target, interval = paper_query
        quick = quick_upper_bound_graph(graph, source, target, interval)
        # a and d appear in no surviving edge so they must not be vertices.
        assert not quick.has_vertex("a")
        assert not quick.has_vertex("d")


class TestBehaviour:
    def test_precomputed_polarity_gives_same_graph(self, paper_query):
        # Lemma 1 over the public label-keyed tables admits exactly Gq.
        graph, source, target, interval = paper_query
        polarity = compute_polarity_times(graph, source, target, interval)
        admitted = {edge for edge in graph.edge_tuples() if polarity.admits_edge(*edge)}
        quick = quick_upper_bound_graph(graph, source, target, interval)
        assert set(quick.edge_tuples()) == admitted == PAPER_GQ_EDGES

    def test_view_input_gives_same_graph(self, paper_query):
        graph, source, target, interval = paper_query
        from_view = quick_upper_bound_graph(graph.view(), source, target, interval)
        assert from_view == quick_upper_bound_graph(graph, source, target, interval)

    def test_unreachable_query_gives_empty_graph(self, unreachable_graph):
        quick = quick_upper_bound_graph(unreachable_graph, "s", "t", (1, 10))
        assert quick.num_edges == 0
        assert quick.num_vertices == 0

    def test_single_edge_query(self):
        graph = TemporalGraph(edges=[("s", "t", 5)])
        quick = quick_upper_bound_graph(graph, "s", "t", (1, 10))
        assert set(quick.edge_tuples()) == {("s", "t", 5)}

    def test_edge_outside_interval_removed(self):
        graph = TemporalGraph(edges=[("s", "t", 5), ("s", "t", 50)])
        quick = quick_upper_bound_graph(graph, "s", "t", (1, 10))
        assert set(quick.edge_tuples()) == {("s", "t", 5)}

    def test_source_in_edges_and_target_out_edges_removed(self):
        graph = TemporalGraph(
            edges=[("s", "t", 5), ("x", "s", 2), ("t", "y", 6), ("s", "x", 3), ("y", "t", 7)]
        )
        quick = quick_upper_bound_graph(graph, "s", "t", (1, 10))
        # Edges into s or out of t can never be on a simple s→t path.
        assert not quick.has_edge("x", "s", 2)
        assert not quick.has_edge("t", "y", 6)

    def test_cycle_only_edges_survive_quick_bound(self):
        # e(e, c, 6)-style edges (only on non-simple temporal paths) are NOT
        # pruned by the quick bound: that is TightUBG's job.
        graph = TemporalGraph(
            edges=[("s", "b", 1), ("b", "c", 2), ("c", "d", 3), ("d", "b", 4), ("b", "t", 5)]
        )
        quick = quick_upper_bound_graph(graph, "s", "t", (1, 6))
        assert quick.has_edge("c", "d", 3)
        assert quick.has_edge("d", "b", 4)
