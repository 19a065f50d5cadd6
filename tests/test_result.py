"""Tests for the PathGraph result object and phase timing containers."""

from __future__ import annotations

import pytest

from repro.core.result import PathGraph, PhaseTimings, VUGReport
from repro.graph.edge import TemporalEdge, TimeInterval
from repro.graph.temporal_graph import TemporalGraph


class TestPathGraphConstruction:
    def test_empty(self):
        result = PathGraph.empty("s", "t", (1, 5))
        assert result.is_empty
        assert result.num_vertices == 0
        assert result.interval == TimeInterval(1, 5)

    def test_from_members(self):
        result = PathGraph.from_members("s", "t", (1, 5), {"s", "t"}, [("s", "t", 2)])
        assert result.num_vertices == 2
        assert result.num_edges == 1
        assert result.contains_edge(("s", "t", 2))
        assert result.contains_vertex("s")

    def test_from_edges_induces_vertices(self):
        result = PathGraph.from_edges("s", "t", (1, 5), [("s", "a", 2), ("a", "t", 3)])
        assert set(result.vertices) == {"s", "a", "t"}

    def test_from_graph_round_trip(self):
        graph = TemporalGraph(edges=[("s", "a", 1), ("a", "t", 2)])
        result = PathGraph.from_graph("s", "t", (1, 2), graph)
        assert result.to_temporal_graph() == graph

    def test_ordered_edges_sorted_once(self):
        result = PathGraph.from_edges(
            "s", "t", (1, 9), [("b", "t", 5), (10, "t", 3), ("s", "b", 3), (2, 10, 3)]
        )
        ordered = result.ordered_edges
        assert ordered == ((10, "t", 3), (2, 10, 3), ("s", "b", 3), ("b", "t", 5))
        assert result.ordered_edges is ordered  # memoized on the result

    def test_temporal_edges_iteration(self):
        result = PathGraph.from_edges("s", "t", (1, 5), [("s", "t", 2)])
        assert list(result.temporal_edges()) == [TemporalEdge("s", "t", 2)]
        assert len(result) == 1
        assert set(result) == {("s", "t", 2)}


class TestPathGraphComparisons:
    def test_same_members_and_subgraph(self):
        big = PathGraph.from_edges("s", "t", (1, 5), [("s", "a", 1), ("a", "t", 2)])
        small = PathGraph.from_edges("s", "t", (1, 5), [("s", "a", 1)])
        assert small.is_subgraph_of(big)
        assert not big.is_subgraph_of(small)
        assert not big.same_members(small)
        only_big, only_small = big.edge_difference(small)
        assert only_big == {("a", "t", 2)}
        assert only_small == set()

    def test_summary(self):
        result = PathGraph.from_edges("s", "t", (1, 5), [("s", "t", 2)])
        summary = result.summary()
        assert summary["num_edges"] == 1
        assert summary["interval"] == (1, 5)


class TestPhaseTimings:
    def test_totals_and_accumulate(self):
        timings = PhaseTimings(quick_ubg=1.0, tight_ubg=2.0, eev=3.0)
        assert timings.total == pytest.approx(6.0)
        other = PhaseTimings(quick_ubg=0.5)
        timings.accumulate(other)
        assert timings.quick_ubg == pytest.approx(1.5)
        as_dict = timings.as_dict()
        assert as_dict["TightUBG"] == pytest.approx(2.0)
        assert as_dict["total"] == pytest.approx(6.5)

    def test_vug_report_alias(self):
        result = PathGraph.empty("s", "t", (1, 2))
        report = VUGReport(result=result)
        assert report.tspg is result
        assert report.space_cost == 0
