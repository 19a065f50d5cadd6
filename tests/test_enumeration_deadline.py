"""Deadline regressions for the enumeration baselines.

The enumeration half of every EP baseline is exponential in the worst case,
so the cooperative deadline must be polled *inside* the DFS — per node
expansion and per enumerated path — not just between pipeline phases.
These tests pin that behaviour on a layered graph whose path count is far
beyond what any budget could enumerate, plus the honest-accounting contract
of a timed-out EP result.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.enumeration import (
    EnumerationDeadlineExpired,
    tspg_by_enumeration,
)
from repro.baselines.ep_algorithms import EPdtTSG, NaiveEnumeration
from repro.core.deadline import Deadline
from repro.graph.temporal_graph import TemporalGraph


def layered_blowup_graph(layers: int = 12, width: int = 4) -> TemporalGraph:
    """Complete bipartite layers with ascending timestamps: ``width**layers``
    temporal simple paths from ``s`` to ``t`` — unenumerable in any budget.
    """
    graph = TemporalGraph()
    previous = ["s"]
    for layer in range(layers):
        current = [f"L{layer}_{i}" for i in range(width)]
        for u in previous:
            for v in current:
                graph.add_edge(u, v, layer + 1)
        previous = current
    for u in previous:
        graph.add_edge(u, "t", layers + 1)
    return graph


@pytest.fixture(scope="module")
def blowup():
    return layered_blowup_graph()


class TestMidEnumerationExpiry:
    def test_dfs_raises_within_the_documented_slack(self, blowup):
        """The DFS itself must notice an in-flight expiry promptly."""
        span = blowup.time_interval()
        deadline = Deadline.after(0.05)
        started = time.perf_counter()
        with pytest.raises(EnumerationDeadlineExpired) as info:
            tspg_by_enumeration(
                blowup, "s", "t", (span.begin, span.end), deadline=deadline
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, (
            f"enumeration overran an expired deadline by {elapsed - 0.05:.2f}s"
        )
        # The cut-off carries the work counters for honest space accounting.
        assert info.value.num_paths >= 0
        assert info.value.total_path_edges >= 0

    def test_baseline_returns_empty_timed_out_result(self, blowup):
        span = blowup.time_interval()
        for algorithm in (NaiveEnumeration(), EPdtTSG()):
            started = time.perf_counter()
            outcome = algorithm.run(
                blowup, "s", "t", (span.begin, span.end),
                deadline=Deadline.after(0.05),
            )
            assert time.perf_counter() - started < 2.0, algorithm.name
            assert outcome.timed_out is True, algorithm.name
            assert outcome.result.vertices == set(), algorithm.name
            assert outcome.result.edges == set(), algorithm.name

    def test_unbounded_run_completes_on_a_small_graph(self):
        """Sanity: with no deadline the same code path still enumerates."""
        graph = layered_blowup_graph(layers=3, width=2)
        span = graph.time_interval()
        outcome = tspg_by_enumeration(graph, "s", "t", (span.begin, span.end))
        assert outcome.num_paths == 2 ** 3
        assert outcome.result.num_edges == graph.num_edges


class TestTimedOutAccounting:
    """A cut-off EP result reports the space actually consumed, full extras."""

    def test_space_cost_counts_upper_bound_and_partial_work(self, blowup):
        span = blowup.time_interval()
        algorithm = EPdtTSG()
        outcome = algorithm.run(
            blowup, "s", "t", (span.begin, span.end),
            deadline=Deadline.after(0.05),
        )
        assert outcome.timed_out is True
        extras = outcome.extras
        # The dtTSG projection was fully built before the cut-off, so it is
        # real consumed memory even though the answer is empty.
        assert extras["upper_bound_edges"] > 0
        assert extras["upper_bound_vertices"] > 0
        assert outcome.space_cost >= (
            extras["upper_bound_edges"]
            + extras["upper_bound_vertices"]
            + extras["total_path_edges"]
        )

    def test_extras_keys_match_a_completed_run(self, blowup):
        """A *mid-enumeration* cut-off keeps the completed-run extras schema.

        (An already-expired deadline is rejected at the interface layer
        before any work happens and reports only the arrival marker — the
        full schema is owed exactly when partial work was done.)
        """
        small = layered_blowup_graph(layers=3, width=2)
        span = small.time_interval()
        algorithm = EPdtTSG()
        completed = algorithm.run(small, "s", "t", (span.begin, span.end))
        assert completed.timed_out is False
        big_span = blowup.time_interval()
        cut_off = algorithm.run(
            blowup, "s", "t", (big_span.begin, big_span.end),
            deadline=Deadline.after(0.05),
        )
        assert cut_off.timed_out is True
        assert set(cut_off.extras) == set(completed.extras)
