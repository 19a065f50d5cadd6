"""Unit tests for the QuickUBG hot-path kernels.

Four layers:

* the id-space polarity sweeps against the label-space reachability sweeps
  of :mod:`repro.paths.reachability` (``A(·)`` never passing through ``t``,
  ``D(·)`` never passing through ``s``), re-keyed through ``view.labels``,
  over degenerate windows, endpoint edge cases, a randomized multigraph and
  seeded workload queries on every registry dataset — the sparse id tables
  are expanded to every vertex id first, so the contract is checked entry
  by entry: the arrival table is ``A(·)``, and the departure table is
  ``{t: τe + 1} ∪ {v: D(v) | A(v) < D(v)}``, the part of ``D(·)`` that
  Lemma 1 reads;
* the Lemma 1 mask against Lemma 1 evaluated edge by edge over those
  reference tables;
* the cost model — a query allocates for the vertices its sweeps reach,
  not for ``|V|`` of the view, and the backward sweep stays inside the
  forward sweep's reach;
* hash-seed determinism — the engine's results are identical across
  interpreters with different ``PYTHONHASHSEED`` values (set iteration
  order must never leak into kernel outputs).

The first two run on eager, mmap-booted and append-extended views, because
the kernels read CSR columns whose storage differs between the three.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from repro.core.polarity import compute_polarity_id_arrays
from repro.core.quick_ubg import quick_mask_kernel
from repro.core.vug import VUG
from repro.datasets.registry import dataset_keys, get_dataset
from repro.graph.generators import bursty_email_graph, uniform_random_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.views import GraphView
from repro.paths.reachability import earliest_arrival_times, latest_departure_times
from repro.queries.workload import generate_workload
from repro.store import boot_snapshot, save_snapshot


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


@pytest.fixture(params=["eager", "mmap", "appended"])
def served(request, graph, tmp_path, monkeypatch):
    """``(graph, view)`` in one of three storage shapes.

    The kernels read ``out_edges``/``out_ts``, which are ``memoryview``s of
    the mapped file on an mmap boot and are spliced by ``_csr_extended``
    after an append-only ingest.
    """
    if request.param == "eager":
        return graph, graph.view()
    path = str(tmp_path / "kernels.tspgsnap")
    save_snapshot(graph, path)
    boot = boot_snapshot(path, mmap=True)
    if not boot.mmap_active:
        pytest.skip("zero-copy boot unavailable on this platform")
    booted = boot.graph
    if request.param == "mmap":
        view = booted.view()
        assert type(view.out_edges) is memoryview
        return booted, view
    tail = booted.time_interval().end
    rng = random.Random(17)
    vertices = sorted(booted.vertices())
    rows = [(100, vertices[0], tail + 1), (vertices[1], 100, tail + 2)]
    while len(rows) < 12:
        u, v = rng.sample(vertices, 2)
        rows.append((u, v, tail + rng.randint(0, 6)))
    rows.sort(key=lambda row: row[2])
    mapped = booted.view()
    old_len = mapped.num_edges

    def no_rebuild(self, delta):
        raise AssertionError("an append-only delta rebuilt the view")

    with monkeypatch.context() as patch:  # extended, not rebuilt
        patch.setattr(GraphView, "_rebuilt_with", no_rebuild)
        assert booted.append_edges(rows).append_only
    assert type(mapped.ts) is memoryview and len(mapped.ts) == old_len
    return booted, booted.view()


def _served_queries(graph):
    """Endpoint edge cases over every window shape, then random queries."""
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
    return queries


def _label_space_tables(graph, view, source, target, window):
    """Algorithm 3's tables by the reachability sweeps, one entry per vertex id."""
    arrival = earliest_arrival_times(graph, source, window, forbidden=target)
    departure = latest_departure_times(graph, target, window, forbidden=source)
    return (
        [arrival.get(label, math.inf) for label in view.labels],
        [departure.get(label, -math.inf) for label in view.labels],
    )


def _contract_tables(graph, view, source, target, window):
    """What the id-space sweeps must return, one entry per vertex id.

    The arrival table is ``A(·)``.  The departure table is
    ``{t: τe + 1} ∪ {v: D(v) | A(v) < D(v)}``: the backward sweep runs
    only inside the forward sweep's reach, the one place Lemma 1 reads
    ``D(v)``.
    """
    arrival, departure = _label_space_tables(graph, view, source, target, window)
    return arrival, [
        leave if label == target or reach < leave else -math.inf
        for label, reach, leave in zip(view.labels, arrival, departure)
    ]


def _expanded(view, arrival, departure):
    """The sparse id tables as one list entry per vertex id.

    The tables store only reached vertices: every key is a vertex id of
    the view and no value is ±inf (an absent id stands for it).
    """
    for table in (arrival, departure):
        assert set(table) <= set(range(view.num_vertices))
        assert not any(math.isinf(time) for time in table.values())
    return (
        [arrival.get(vid, math.inf) for vid in range(view.num_vertices)],
        [departure.get(vid, -math.inf) for vid in range(view.num_vertices)],
    )


def _assert_contract(graph, view, queries):
    for (source, target), window in queries:
        arrival, departure, frontier = compute_polarity_id_arrays(
            view, source, target, window
        )
        assert _expanded(view, arrival, departure) == _contract_tables(
            graph, view, source, target, window
        ), (source, target, window)
        # The mask reads only s and the departure table's vertices.
        assert set(frontier) <= {view.index_of.get(source), *departure}


class TestPolarityMatchesLabelSpace:
    """The id-space tables meet the contract over the reachability sweeps.

    The arrival table equals ``A(·)`` entry by entry; the departure table
    equals ``{t: τe + 1} ∪ {v: D(v) | A(v) < D(v)}``.
    """

    def test_tables_equal_label_space_sweeps(self, served):
        graph, view = served
        _assert_contract(graph, view, _served_queries(graph))

    def test_randomized_multigraph(self):
        g = uniform_random_temporal_graph(
            num_vertices=15, num_edges=220, num_timestamps=30, seed=99
        )
        g.warm_indices()
        rng = random.Random(5)
        vertices = sorted(g.vertices())
        span = g.time_interval()
        queries = []
        for _ in range(60):
            pair = tuple(rng.sample(vertices, 2))
            begin = rng.randint(span.begin, span.end)
            queries.append((pair, (begin, rng.randint(begin, span.end))))
        _assert_contract(g, g.view(), queries)

    @pytest.mark.parametrize("key", dataset_keys())
    def test_seeded_workload_queries(self, key):
        spec = get_dataset(key)
        g = spec.load()
        workload = generate_workload(g, 30, spec.default_theta, seed=11)
        _assert_contract(g, g.view(), [
            ((query.source, query.target), query.interval)
            for query in workload.queries
        ])


class TestMaskMatchesLemma1:
    """The frontier-driven mask is exactly Lemma 1."""

    def test_mask_equals_edge_by_edge_lemma1(self, served):
        graph, view = served
        for (source, target), window in _served_queries(graph):
            arrival, departure, frontier = compute_polarity_id_arrays(
                view, source, target, window
            )
            expected = _lemma1_mask(
                view, *_label_space_tables(graph, view, source, target, window)
            )
            mask = quick_mask_kernel(view, arrival, departure, window, frontier)
            assert (mask.indices, list(mask.vertices())) == expected, (
                source, target, window,
            )


def test_query_allocates_for_what_it_reaches():
    """A one-edge answer on a 50,001-vertex chain allocates kilobytes.

    Only ``0 -> 1`` lies in the window, so the sweeps reach two vertices;
    any table sized to ``|V|`` (8 bytes per vertex) would peak far above
    the bound.
    """
    g = TemporalGraph()
    g.add_edges((i, i + 1, 1) for i in range(50_000))
    engine = VUG()
    warm = engine.run(g, 0, 1, (1, 10))  # builds and caches the view
    assert warm.result.edges == {(0, 1, 1)}
    tracemalloc.start()
    try:
        report = engine.run(g, 0, 1, (1, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.result.edges == {(0, 1, 1)}
    assert peak < 64 * 1024, f"query peaked at {peak} bytes"


def test_backward_sweep_allocates_inside_the_forward_reach():
    """In-neighbours of ``t`` that ``s`` never reaches are scanned, not stored.

    ``t = 2`` has 50,000 in-window in-neighbours besides ``1``, and none is
    reachable from ``s = 0``, so the departure table holds ``t`` and ``1``
    only; a backward sweep that stored ``D(·)`` for every vertex reaching
    ``t`` would peak far above the bound.
    """
    g = TemporalGraph()
    g.add_edges([(0, 1, 1), (1, 2, 2)] + [(w, 2, 2) for w in range(3, 50_003)])
    engine = VUG()
    warm = engine.run(g, 0, 2, (1, 10))  # builds and caches the view
    assert warm.result.edges == {(0, 1, 1), (1, 2, 2)}
    view = g.view()
    _, departure, _ = compute_polarity_id_arrays(view, 0, 2, (1, 10))
    assert {view.labels[vid]: time for vid, time in departure.items()} == {
        2: 11, 1: 2,
    }
    tracemalloc.start()
    try:
        report = engine.run(g, 0, 2, (1, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.result.edges == {(0, 1, 1), (1, 2, 2)}
    assert peak < 64 * 1024, f"query peaked at {peak} bytes"


#: Subprocess payload for the hash-seed sweep: runs the VUG engine on a
#: deterministic graph and prints a canonical digest of the results.
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
engine = get_algorithm("VUG")
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


def test_vectorized_results_stable_across_hash_seeds(tmp_path):
    """PYTHONHASHSEED must not leak into the engine's results.

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
