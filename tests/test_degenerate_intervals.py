"""Degenerate query windows: one empty-slice convention for every algorithm.

Every registry algorithm and the brute-force oracle must agree on what a
degenerate interval means:

* an inverted interval (``begin > end``) is a construction error —
  :class:`TimeInterval` rejects it, so no kernel ever sees one;
* a window that covers no edges (entirely before/after the graph's time
  span, or a gap between timestamps) slices to ``lo == hi`` and yields the
  empty mask view;
* a single-instant window (``begin == end``) is valid and selects exactly
  the edges at that timestamp that Lemma 1 admits.

These tests iterate the full algorithm registry, so any algorithm
registered later is covered automatically.
"""

from __future__ import annotations

import pytest

from repro.algorithms import available_algorithms, get_algorithm
from repro.analysis.oracle import brute_force_tspg
from repro.graph.edge import TimeInterval, as_interval
from repro.graph.generators import bursty_email_graph
from repro.graph.temporal_graph import TemporalGraph


@pytest.fixture(scope="module")
def graph():
    g = bursty_email_graph(
        num_vertices=16, num_bursts=4, edges_per_burst=30, burst_width=4,
        gap_between_bursts=5, seed=5,
    )
    g.warm_indices()
    return g


class TestInvertedIntervals:
    def test_time_interval_rejects_begin_after_end(self):
        with pytest.raises(ValueError):
            TimeInterval(5, 3)

    def test_as_interval_rejects_inverted_pairs(self):
        with pytest.raises(ValueError):
            as_interval((7, 2))

    def test_every_algorithm_rejects_inverted_windows(self, graph):
        vertices = sorted(graph.vertices())
        for name in available_algorithms():
            with pytest.raises(ValueError):
                get_algorithm(name).run(graph, vertices[0], vertices[1], (9, 1))


class TestEmptyWindows:
    """Windows covering no edges: ``lo == hi`` and the empty result."""

    def _empty_windows(self, graph):
        span = graph.time_interval()
        # Entirely before, entirely after, and a single instant in the gap
        # between the first two bursts (the generator leaves one).
        windows = [
            (span.begin - 10, span.begin - 1),
            (span.end + 1, span.end + 10),
        ]
        timestamps = graph.timestamps()
        for earlier, later in zip(timestamps, timestamps[1:]):
            if later - earlier > 1:
                windows.append((earlier + 1, later - 1))
                break
        return windows

    def test_slice_bounds_collapse(self, graph):
        view = graph.view()
        for window in self._empty_windows(graph):
            lo, hi = view.slice_bounds(window)
            assert lo == hi, window

    def test_full_pipeline_returns_empty_everywhere(self, graph):
        vertices = sorted(graph.vertices())
        source, target = vertices[0], vertices[1]
        for window in self._empty_windows(graph):
            for name in available_algorithms():
                outcome = get_algorithm(name).run(graph, source, target, window)
                assert outcome.result.vertices == set(), (name, window)
                assert outcome.result.edges == set(), (name, window)
                assert outcome.timed_out is False, (name, window)

    def test_empty_mask_view_is_well_behaved(self, graph):
        from repro.core.polarity import compute_polarity_id_arrays
        from repro.core.quick_ubg import quick_mask_kernel

        view = graph.view()
        span = graph.time_interval()
        window = (span.begin - 10, span.begin - 1)
        vertices = sorted(graph.vertices())
        arrival, departure, frontier = compute_polarity_id_arrays(
            view, vertices[0], vertices[1], window
        )
        empty = quick_mask_kernel(view, arrival, departure, window, frontier)
        assert empty.num_edges == 0
        assert empty.num_vertices == 0
        assert list(empty.vertices()) == []
        assert empty.timestamps() == []
        assert empty.time_interval() is None
        assert empty.sorted_edges() == []


class TestSingleInstantWindows:
    """``begin == end`` is legal: only direct s→t edges at τ can survive."""

    def test_instant_window_results_agree_across_registry(self, graph):
        vertices = sorted(graph.vertices())
        source, target = vertices[0], vertices[1]
        for timestamp in graph.timestamps()[:6]:
            window = (timestamp, timestamp)
            reference = brute_force_tspg(graph, source, target, window)
            # Any path within [τ, τ] has exactly one edge: s → t at τ.
            direct = {
                (u, v, t)
                for (u, v, t) in graph.edge_tuples()
                if u == source and v == target and t == timestamp
            }
            assert reference.edges == direct, window
            for name in available_algorithms():
                outcome = get_algorithm(name).run(graph, source, target, window)
                assert outcome.result.vertices == reference.vertices, (name, window)
                assert outcome.result.edges == reference.edges, (name, window)
