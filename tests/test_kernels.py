"""Unit tests for the query hot-path kernels and their fallback path.

Four layers:

* the Python Lemma 1 mask against Lemma 1 evaluated edge by edge, with no
  numpy involved, on eager, mmap-booted and append-extended views;
* direct kernel equivalence — the numpy polarity sweep and edge-mask scan
  against their pure-Python references, element-wise, over randomized and
  degenerate windows (the windows are pinned by
  ``test_degenerate_intervals.py`` *before* either backend may diverge);
* the no-numpy world — a forced-ImportError fixture proves the whole
  dispatch chain (``numpy_or_none`` → ``effective_kernel_backend`` →
  ``VUG-vectorized``) degrades to the Python kernels with identical
  results, and that :meth:`IndexColumn.numpy` fails loudly rather than
  silently;
* hash-seed determinism — the vectorized engine's results are identical
  across interpreters with different ``PYTHONHASHSEED`` values (set
  iteration order must never leak into kernel outputs).
"""

from __future__ import annotations

import builtins
import json
import os
import random
import subprocess
import sys

import pytest

from repro.algorithms import get_algorithm
from repro.core.kernels import (
    _LAYOUT_KEY,
    numpy_available,
    polarity_id_arrays_numpy,
    quick_mask_numpy,
)
from repro.core.polarity import compute_polarity_id_arrays
from repro.core.quick_ubg import quick_mask_kernel
from repro.graph import columns
from repro.graph.columns import ChainedColumn, IndexColumn, MmapColumn, index_column
from repro.graph.edge import as_interval
from repro.graph.generators import bursty_email_graph, uniform_random_temporal_graph
from repro.store import boot_snapshot, save_snapshot

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy is not installed"
)


@pytest.fixture(scope="module")
def graph():
    g = bursty_email_graph(
        num_vertices=20, num_bursts=5, edges_per_burst=40, burst_width=4,
        gap_between_bursts=4, seed=21,
    )
    g.warm_indices()
    return g


def _windows(graph):
    """Window shapes spanning the degenerate-interval conventions."""
    span = graph.time_interval()
    timestamps = graph.timestamps()
    mid = timestamps[len(timestamps) // 2]
    windows = [
        (span.begin, span.end),                  # everything
        (span.begin, mid),                       # prefix
        (mid, span.end),                         # suffix
        (mid, mid),                              # single instant
        (span.begin - 10, span.begin - 1),       # entirely before: lo == hi
        (span.end + 1, span.end + 10),           # entirely after: lo == hi
    ]
    for earlier, later in zip(timestamps, timestamps[1:]):
        if later - earlier > 1:                  # gap instant: lo == hi
            windows.append((earlier + 1, later - 1))
            break
    return windows


def _lemma1_mask(view, arrival, departure):
    """Lemma 1 evaluated edge by edge: ``(indices, vertex labels)``."""
    indices = [
        index for index in range(view.num_edges)
        if arrival[view.src[index]] < view.ts[index] < departure[view.dst[index]]
    ]
    vids = {view.src[i] for i in indices} | {view.dst[i] for i in indices}
    return indices, [view.labels[vid] for vid in sorted(vids)]


class TestMaskMatchesLemma1:
    """The frontier-driven mask is exactly Lemma 1 — no numpy needed.

    The mask reads ``out_edges``, which is an ``MmapColumn`` on an mmap
    boot and is spliced by ``_csr_extended`` after an append-only ingest,
    so all three view shapes are checked.
    """

    @pytest.fixture(params=["eager", "mmap", "appended"])
    def served(self, request, graph, tmp_path):
        """``(graph, view)`` in one of the three shapes."""
        if request.param == "eager":
            return graph, graph.view()
        path = str(tmp_path / "mask.tspgsnap")
        save_snapshot(graph, path)
        booted = boot_snapshot(path, mmap=True).graph
        if not booted.is_lazily_booted:
            pytest.skip("zero-copy boot unavailable on this platform")
        if request.param == "mmap":
            view = booted.view()
            assert isinstance(view.out_edges, MmapColumn)
            return booted, view
        tail = booted.time_interval().end
        rng = random.Random(17)
        vertices = sorted(booted.vertices())
        rows = [(100, vertices[0], tail + 1), (vertices[1], 100, tail + 2)]
        while len(rows) < 12:
            u, v = rng.sample(vertices, 2)
            rows.append((u, v, tail + rng.randint(0, 6)))
        rows.sort(key=lambda row: row[2])
        assert booted.append_edges(rows).append_only
        view = booted.view()
        assert isinstance(view.ts, ChainedColumn)  # extended, not rebuilt
        return booted, view

    def test_mask_equals_edge_by_edge_lemma1(self, served):
        graph, view = served
        vertices = sorted(graph.vertices())
        span = graph.time_interval()
        queries = [
            (pair, window)
            for pair in (
                (vertices[0], vertices[1]),
                (vertices[3], vertices[2]),
                (vertices[1], vertices[1]),          # source == target
                (vertices[0], "no-such-vertex"),     # absent target
                ("no-such-vertex", vertices[0]),     # absent source
            )
            for window in _windows(graph)
        ]
        rng = random.Random(23)
        for _ in range(80):
            begin = rng.randint(span.begin - 2, span.end)
            window = (begin, rng.randint(begin, span.end + 2))
            queries.append((tuple(rng.sample(vertices, 2)), window))
        for (source, target), window in queries:
            arrival, departure, frontier = compute_polarity_id_arrays(
                view, source, target, window
            )
            expected = _lemma1_mask(view, arrival, departure)
            for given in (frontier, None):
                mask = quick_mask_kernel(view, arrival, departure, window, given)
                assert (mask.indices, list(mask.vertices())) == expected, (
                    source, target, window, given is None,
                )


@needs_numpy
class TestKernelEquivalence:
    def test_polarity_tables_match_elementwise(self, graph):
        view = graph.view()
        vertices = sorted(graph.vertices())
        pairs = [
            (vertices[0], vertices[1]),
            (vertices[2], vertices[0]),
            (vertices[1], vertices[1]),          # source == target
            (vertices[0], "no-such-vertex"),     # absent target
            ("no-such-vertex", vertices[0]),     # absent source
        ]
        for source, target in pairs:
            for window in _windows(graph):
                reference = compute_polarity_id_arrays(
                    view, source, target, window
                )
                tables = polarity_id_arrays_numpy(view, source, target, window)
                assert list(tables[0]) == reference[0], (source, target, window)
                assert list(tables[1]) == reference[1], (source, target, window)

    def test_mask_views_match_exactly(self, graph):
        view = graph.view()
        vertices = sorted(graph.vertices())
        for source, target in ((vertices[0], vertices[1]),
                               (vertices[3], vertices[2])):
            for window in _windows(graph):
                arrival, departure, frontier = compute_polarity_id_arrays(
                    view, source, target, window
                )
                reference = quick_mask_kernel(
                    view, arrival, departure, window, frontier
                )
                mask = quick_mask_numpy(view, arrival, departure, window)
                assert mask.indices == reference.indices, (source, target, window)
                assert list(mask.vertices()) == list(reference.vertices())
                assert mask.backend == "numpy"

    def test_randomized_equivalence_on_a_multigraph(self):
        import random

        g = uniform_random_temporal_graph(
            num_vertices=15, num_edges=220, num_timestamps=30, seed=99
        )
        g.warm_indices()
        view = g.view()
        rng = random.Random(5)
        vertices = sorted(g.vertices())
        span = g.time_interval()
        for _ in range(60):
            source, target = rng.sample(vertices, 2)
            begin = rng.randint(span.begin, span.end)
            window = (begin, rng.randint(begin, span.end))
            arrival, departure, frontier = compute_polarity_id_arrays(
                view, source, target, window
            )
            tables = polarity_id_arrays_numpy(view, source, target, window)
            assert list(tables[0]) == arrival, (source, target, window)
            assert list(tables[1]) == departure, (source, target, window)
            assert (
                quick_mask_numpy(view, *tables, window).indices
                == quick_mask_kernel(view, arrival, departure, window, frontier).indices
            ), (source, target, window)

    def test_layout_is_cached_per_window(self, graph):
        view = graph.view()
        vertices = sorted(graph.vertices())
        window = as_interval(graph.time_interval())
        key = view.slice_bounds(window)
        polarity_id_arrays_numpy(view, vertices[0], vertices[1], window)
        layout = view._kernel_scratch[_LAYOUT_KEY][key]
        polarity_id_arrays_numpy(view, vertices[2], vertices[3], window)
        assert view._kernel_scratch[_LAYOUT_KEY][key] is layout


@needs_numpy
class TestWindowLocalLayouts:
    """The window-local layout LRU: identity, bound, and invalidation."""

    def test_window_layouts_match_full_view_tables(self, graph):
        """Overlapping, nested and degenerate windows all agree with the
        pure-Python sweeps, which never build a layout at all."""
        view = graph.view()
        vertices = sorted(graph.vertices())
        span = graph.time_interval()
        mid = (span.begin + span.end) // 2
        quarter = (span.end - span.begin) // 4
        windows = _windows(graph) + [
            (span.begin + quarter, span.end - quarter),      # nested
            (span.begin, mid + quarter),                     # overlaps prefix
            (mid - quarter, span.end),                       # overlaps suffix
        ]
        for source, target in ((vertices[0], vertices[5]),
                               (vertices[7], vertices[2])):
            for window in windows:
                reference = compute_polarity_id_arrays(
                    view, source, target, window
                )
                tables = polarity_id_arrays_numpy(view, source, target, window)
                assert list(tables[0]) == reference[0], (source, target, window)
                assert list(tables[1]) == reference[1], (source, target, window)

    def test_layout_cache_stays_bounded(self, graph):
        from repro.core.kernels import _LAYOUT_CACHE_CAPACITY

        view = graph.view()
        vertices = sorted(graph.vertices())
        span = graph.time_interval()
        distinct = 0
        seen = set()
        for begin in range(span.begin, span.end + 1):
            window = (begin, span.end)
            key = view.slice_bounds(as_interval(window))
            if key not in seen:
                seen.add(key)
                distinct += 1
            polarity_id_arrays_numpy(view, vertices[0], vertices[1], window)
        assert distinct > _LAYOUT_CACHE_CAPACITY
        cache = view._kernel_scratch[_LAYOUT_KEY]
        assert len(cache) <= _LAYOUT_CACHE_CAPACITY

    def test_layout_cache_hit_moves_entry_to_mru(self, graph):
        from repro.core.kernels import _LAYOUT_CACHE_CAPACITY

        view = graph.view()
        vertices = sorted(graph.vertices())
        span = graph.time_interval()
        first = (span.begin, span.end)
        polarity_id_arrays_numpy(view, vertices[0], vertices[1], first)
        key = view.slice_bounds(as_interval(first))
        kept = view._kernel_scratch[_LAYOUT_KEY][key]
        # Fill the cache with other windows, re-touching the first window
        # before each insert so it stays most-recently-used throughout.
        inserted = 0
        begin = span.begin
        while inserted < 2 * _LAYOUT_CACHE_CAPACITY and begin < span.end:
            begin += 1
            other_key = view.slice_bounds(as_interval((begin, span.end)))
            if other_key == key or other_key in view._kernel_scratch[_LAYOUT_KEY]:
                continue
            polarity_id_arrays_numpy(view, vertices[0], vertices[1], first)
            polarity_id_arrays_numpy(
                view, vertices[0], vertices[1], (begin, span.end)
            )
            inserted += 1
        assert inserted > _LAYOUT_CACHE_CAPACITY
        assert view._kernel_scratch[_LAYOUT_KEY][key] is kept

    def test_mutation_epoch_invalidates_cached_layouts(self):
        g = bursty_email_graph(
            num_vertices=12, num_bursts=3, edges_per_burst=20, burst_width=3,
            gap_between_bursts=5, seed=3,
        )
        g.warm_indices()
        view = g.view()
        vertices = sorted(g.vertices())
        window = g.time_interval()
        polarity_id_arrays_numpy(view, vertices[0], vertices[1], window)
        assert view._kernel_scratch[_LAYOUT_KEY]
        epoch = g.epoch
        span = g.time_interval()
        g.add_edge(vertices[0], vertices[1], span.end + 7)
        assert g.epoch > epoch
        fresh = g.view()
        assert fresh is not view
        assert _LAYOUT_KEY not in fresh._kernel_scratch
        reference = compute_polarity_id_arrays(
            fresh, vertices[0], vertices[1], g.time_interval()
        )
        tables = polarity_id_arrays_numpy(
            fresh, vertices[0], vertices[1], g.time_interval()
        )
        assert list(tables[0]) == reference[0]
        assert list(tables[1]) == reference[1]


@pytest.fixture
def no_numpy(monkeypatch):
    """Simulate an interpreter without numpy for the dispatch chain.

    Resets the memoized module to the unresolved sentinel and makes any
    fresh ``import numpy`` raise, so :func:`numpy_or_none` resolves to
    ``None``; the memo is restored by monkeypatch afterwards.
    """
    real_import = builtins.__import__

    def blocking_import(name, *args, **kwargs):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy disabled by the no_numpy fixture")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(columns, "_numpy_module", columns._NUMPY_UNRESOLVED)
    monkeypatch.setattr(builtins, "__import__", blocking_import)
    yield


class TestNumpyAbsentFallback:
    def test_numpy_or_none_resolves_to_none(self, no_numpy):
        assert columns.numpy_or_none() is None
        assert columns.numpy_available() is False

    def test_index_column_numpy_raises_loudly(self, no_numpy):
        column = index_column([3, 1, 4])
        assert isinstance(column, IndexColumn)
        with pytest.raises(RuntimeError, match="requires numpy"):
            column.numpy()

    def test_vectorized_engine_degrades_to_python_kernels(self, no_numpy):
        g = bursty_email_graph(
            num_vertices=14, num_bursts=3, edges_per_burst=25, burst_width=3,
            gap_between_bursts=4, seed=8,
        )
        g.warm_indices()
        vertices = sorted(g.vertices())
        span = g.time_interval()
        vectorized = get_algorithm("VUG-vectorized")
        assert vectorized._engine.effective_kernel_backend() == "python"
        reference_engine = get_algorithm("VUG")
        for source, target in ((vertices[0], vertices[1]),
                               (vertices[2], vertices[3])):
            outcome = vectorized.run(g, source, target, (span.begin, span.end))
            reference = reference_engine.run(
                g, source, target, (span.begin, span.end)
            )
            assert outcome.result.vertices == reference.result.vertices
            assert outcome.result.edges == reference.result.edges
            assert outcome.extras["kernel_backend"] == "python"


#: Subprocess payload for the hash-seed sweep: runs the vectorized engine
#: on a deterministic graph and prints a canonical digest of the results.
_HASH_SEED_SCRIPT = """
import json
from repro.algorithms import get_algorithm
from repro.graph.generators import bursty_email_graph

g = bursty_email_graph(
    num_vertices=16, num_bursts=4, edges_per_burst=30, burst_width=4,
    gap_between_bursts=5, seed=5,
)
g.warm_indices()
vertices = sorted(g.vertices())
span = g.time_interval()
engine = get_algorithm("VUG-vectorized")
digest = []
for source, target in ((vertices[0], vertices[3]), (vertices[5], vertices[1]),
                       (vertices[2], vertices[4])):
    outcome = engine.run(g, source, target, (span.begin, span.end))
    digest.append({
        "vertices": sorted(outcome.result.vertices),
        "edges": sorted(outcome.result.edges),
        "space": outcome.space_cost,
    })
print(json.dumps(digest, sort_keys=True))
"""


@needs_numpy
def test_vectorized_results_stable_across_hash_seeds(tmp_path):
    """PYTHONHASHSEED must not leak into the vectorized results.

    The kernels hand ``set`` objects (the mask's vertex ids) to the rest of
    the pipeline; this sweep proves no downstream consumer depends on their
    iteration order.
    """
    script = tmp_path / "hash_seed_probe.py"
    script.write_text(_HASH_SEED_SCRIPT, encoding="utf-8")
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    digests = set()
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, check=True,
        )
        digests.add(completed.stdout.strip())
    assert len(digests) == 1, "results vary with PYTHONHASHSEED"
    assert json.loads(digests.pop()), "probe produced no results"
