"""Unit tests for tight upper-bound graph generation (Algorithm 5)."""

from __future__ import annotations

import pytest

from repro.analysis.oracle import brute_force_tspg
from repro.core.quick_ubg import quick_upper_bound_graph
from repro.core.tcv import compute_time_stream_common_vertices
from repro.core.tight_ubg import tight_upper_bound_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.validation import is_subgraph

from repro.testing import PAPER_GT_EDGES


@pytest.fixture
def paper_quick(paper_query):
    graph, source, target, interval = paper_query
    return quick_upper_bound_graph(graph, source, target, interval)


class TestPaperExample:
    def test_gt_matches_figure4c(self, paper_query, paper_quick):
        _, source, target, interval = paper_query
        tight = tight_upper_bound_graph(paper_quick, source, target, interval)
        assert set(tight.edge_tuples()) == PAPER_GT_EDGES

    def test_cycle_edge_excluded(self, paper_query, paper_quick):
        # e(e, c, 6) only appears on temporal paths with a cycle (Section III
        # limitation example) and must be pruned by the simple-path constraint.
        _, source, target, interval = paper_query
        tight = tight_upper_bound_graph(paper_quick, source, target, interval)
        assert not tight.has_edge("e", "c", 6)
        assert not tight.has_edge("f", "e", 5)
        assert not tight.has_edge("f", "b", 5)

    def test_example8_edge_kept(self, paper_query, paper_quick):
        # Example 8: e(c, f, 4) is kept because TCV_3(s,c) ∩ TCV_5(f,t) = ∅,
        # even though it is not part of the final tspG.
        _, source, target, interval = paper_query
        tight = tight_upper_bound_graph(paper_quick, source, target, interval)
        assert tight.has_edge("c", "f", 4)

    def test_endpoint_edges_always_kept(self, paper_query, paper_quick):
        _, source, target, interval = paper_query
        tight = tight_upper_bound_graph(paper_quick, source, target, interval)
        assert tight.has_edge("s", "b", 2)
        assert tight.has_edge("b", "t", 6)
        assert tight.has_edge("c", "t", 7)

    def test_gt_contains_tspg_and_is_contained_in_gq(self, paper_query, paper_quick):
        graph, source, target, interval = paper_query
        tight = tight_upper_bound_graph(paper_quick, source, target, interval)
        tspg = brute_force_tspg(graph, source, target, interval)
        assert is_subgraph(tight, paper_quick)
        assert set(tspg.edges) <= set(tight.edge_tuples())

    def test_wrapper_returns_tcv(self, paper_query, paper_quick):
        # Precomputed TCV tables passed in give the same Gt.
        _, source, target, interval = paper_query
        tcv = compute_time_stream_common_vertices(paper_quick, source, target, interval)
        tight = tight_upper_bound_graph(paper_quick, source, target, interval, tcv=tcv)
        assert set(tight.edge_tuples()) == PAPER_GT_EDGES
        assert tcv.from_source("b", 2) == {"b"}

    def test_graph_input_is_rejected(self, paper_query, paper_quick):
        _, source, target, interval = paper_query
        with pytest.raises(TypeError, match="quick_upper_bound_graph"):
            tight_upper_bound_graph(
                paper_quick.materialize(), source, target, interval
            )


class TestContainmentOnOtherGraphs:
    @pytest.mark.parametrize(
        "edges, source, target, interval",
        [
            ([("s", "a", 1), ("a", "t", 3), ("s", "b", 2), ("b", "t", 4)], "s", "t", (1, 4)),
            ([("s", "a", 1), ("a", "b", 2), ("b", "a", 3), ("a", "t", 4)], "s", "t", (1, 5)),
            ([("s", "x", 2), ("x", "y", 3), ("y", "x", 4), ("x", "t", 5), ("y", "t", 6)], "s", "t", (1, 6)),
        ],
    )
    def test_tspg_contained_in_tight_bound(self, edges, source, target, interval):
        graph = TemporalGraph(edges=edges)
        quick = quick_upper_bound_graph(graph, source, target, interval)
        tight = tight_upper_bound_graph(quick, source, target, interval)
        tspg = brute_force_tspg(graph, source, target, interval)
        assert set(tspg.edges) <= set(tight.edge_tuples())
        assert is_subgraph(tight, quick)

    def test_empty_quick_graph_gives_empty_tight_graph(self):
        graph = TemporalGraph(edges=[("s", "a", 5), ("a", "t", 3)])
        quick = quick_upper_bound_graph(graph, "s", "t", (1, 10))
        tight = tight_upper_bound_graph(quick, "s", "t", (1, 10))
        assert tight.num_edges == 0

    def test_revisit_blocking_vertex_is_pruned(self):
        # Every path from s to m and every path from n to t passes through w,
        # so the edge (m, n, ·) cannot be on any simple path and is pruned.
        graph = TemporalGraph(
            edges=[
                ("s", "w", 1),
                ("w", "m", 2),
                ("m", "n", 3),
                ("n", "w", 4),
                ("w", "t", 5),
            ]
        )
        quick = quick_upper_bound_graph(graph, "s", "t", (1, 5))
        assert quick.has_edge("m", "n", 3)
        tight = tight_upper_bound_graph(quick, "s", "t", (1, 5))
        assert not tight.has_edge("m", "n", 3)
        tspg = brute_force_tspg(graph, "s", "t", (1, 5))
        assert set(tspg.edges) <= set(tight.edge_tuples())
