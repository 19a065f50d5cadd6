"""Randomized oracle: the view pipeline against independent references.

For every query the served pipeline is checked against references that
share none of its kernels:

* its answer (vertex and edge sets) against
  :func:`~repro.analysis.oracle.brute_force_tspg`, for serial ``VUG`` and
  every other algorithm in the registry;
* its quick upper bound ``Gq`` against Lemma 1 evaluated edge by edge over
  the reachability sweeps of :mod:`repro.paths.reachability` — ``A(·)``
  never passing through ``t``, ``D(·)`` never passing through ``s``;
* its tight upper bound ``Gt`` against Lemma 9 evaluated edge by edge over
  those ``Gq`` edges.

The oracle draws seeded random queries over a family of D1-style generated
graphs (bursty email-like traffic, the profile of the paper's smallest
dataset) plus a uniform-random multigraph.  Most random windows have an
empty answer, so each graph also contributes reachable θ=12 queries from
:func:`~repro.queries.workload.generate_workload`.  A sample is routed
through the serial and sharded service paths as well.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.algorithms import available_algorithms, get_algorithm
from repro.analysis.oracle import brute_force_tspg
from repro.core.tcv import compute_time_stream_common_vertices
from repro.core.vug import VUG
from repro.graph.edge import as_interval
from repro.graph.generators import bursty_email_graph, uniform_random_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.paths.reachability import earliest_arrival_times, latest_departure_times
from repro.queries.query import TspgQuery
from repro.queries.workload import generate_workload
from repro.service import ShardedTspgService, TspgService

#: Random queries the oracle draws, spread evenly over the graphs; each
#: graph adds as many reachable workload queries.
NUM_ORACLE_QUERIES = 210

#: Minimum number of oracle queries whose answer must be non-empty.
MIN_NON_EMPTY_ANSWERS = 200

#: Queries per graph for the all-algorithms cross-check (slow baselines).
NUM_CROSS_ALGORITHM_QUERIES = 6


def _d1_style_graphs():
    """Small D1-style analogues (bursty email traffic) plus random noise."""
    graphs = [
        bursty_email_graph(
            num_vertices=24, num_bursts=6, edges_per_burst=45, burst_width=5,
            gap_between_bursts=3, seed=seed,
        )
        for seed in (11, 22, 33)
    ]
    graphs.append(
        uniform_random_temporal_graph(
            num_vertices=18, num_edges=140, num_timestamps=24, seed=44
        )
    )
    return graphs


def _random_queries(graph, rng, count):
    vertices = sorted(graph.vertices())
    span = graph.time_interval()
    queries = []
    for _ in range(count):
        source, target = rng.sample(vertices, 2)
        begin = rng.randint(span.begin, span.end)
        end = rng.randint(begin, span.end)
        queries.append(TspgQuery(source=source, target=target, interval=(begin, end)))
    return queries


def _lemma1_edges(graph, source, target, window):
    """``Gq`` by Lemma 1, edge by edge: keep ``(u, v, τ)`` iff ``A(u) < τ < D(v)``."""
    arrival = earliest_arrival_times(graph, source, window, forbidden=target)
    departure = latest_departure_times(graph, target, window, forbidden=source)
    return {
        (u, v, timestamp)
        for u, v, timestamp in graph.edge_tuples()
        if arrival.get(u, math.inf) < timestamp < departure.get(v, -math.inf)
    }


def _lemma9_edges(quick_edges, source, target, window):
    """``Gt`` by Lemma 9, edge by edge over ``Gq`` built as a plain graph.

    An edge incident to ``s`` or ``t`` stays (Lemma 2); any other
    ``(u, v, τ)`` stays iff ``TCV_τ-1(s, u)`` and ``TCV_τ+1(v, t)`` are
    disjoint, with the Algorithm 5 defaults ``{u}`` / ``{v}``.
    """
    tcv = compute_time_stream_common_vertices(
        TemporalGraph(edges=quick_edges), source, target, window
    )
    return {
        (u, v, timestamp)
        for u, v, timestamp in quick_edges
        if u == source
        or v == target
        or not (
            tcv.from_source_or_default(u, timestamp - 1)
            & tcv.to_target_or_default(v, timestamp + 1)
        )
    }


def test_view_pipeline_matches_brute_force_and_the_lemmas():
    """Identical tspG, and Gq/Gt exactly as Lemmas 1 and 9 give them."""
    rng = random.Random(2025)
    graphs = _d1_style_graphs()
    per_graph = -(-NUM_ORACLE_QUERIES // len(graphs))  # ceil division
    engine = VUG()
    checked = non_empty = 0
    for i, graph in enumerate(graphs):
        graph.warm_indices()
        queries = _random_queries(graph, rng, per_graph) + list(
            generate_workload(graph, per_graph, 12, seed=100 + i)
        )
        for query in queries:
            source, target = query.source, query.target
            window = as_interval(query.interval)
            report = engine.run(graph, source, target, window)
            expected = brute_force_tspg(graph, source, target, window)
            assert report.result.vertices == expected.vertices, query
            assert report.result.edges == expected.edges, query
            quick_edges = _lemma1_edges(graph, source, target, window)
            assert set(report.upper_bound_quick.edge_tuples()) == quick_edges, query
            assert set(report.upper_bound_tight.edge_tuples()) == _lemma9_edges(
                quick_edges, source, target, window
            ), query
            checked += 1
            non_empty += bool(expected.edges)
    assert checked >= 2 * NUM_ORACLE_QUERIES
    assert non_empty >= MIN_NON_EMPTY_ANSWERS, non_empty


def test_every_registry_algorithm_agrees_with_brute_force():
    """All registry algorithms produce the brute-force tspG, empty or not."""
    rng = random.Random(77)
    graph = _d1_style_graphs()[0]
    graph.warm_indices()
    queries = _random_queries(graph, rng, NUM_CROSS_ALGORITHM_QUERIES) + list(
        generate_workload(graph, NUM_CROSS_ALGORITHM_QUERIES, 12, seed=77)
    )
    algorithms = [get_algorithm(name) for name in available_algorithms()]
    for query in queries:
        reference = brute_force_tspg(graph, query.source, query.target, query.interval)
        for algorithm in algorithms:
            outcome = algorithm.run(graph, query.source, query.target, query.interval)
            assert outcome.result.vertices == reference.vertices, (
                algorithm.name,
                query,
            )
            assert outcome.result.edges == reference.edges, (
                algorithm.name,
                query,
            )


@pytest.fixture(scope="module")
def service_case():
    """``(graph, queries, answers)``: serial VUG's answers, checked by brute force."""
    rng = random.Random(99)
    graph = _d1_style_graphs()[1]
    queries = _random_queries(graph, rng, 12)
    engine = VUG()
    answers = []
    for query in queries:
        answer = engine.run(graph, query.source, query.target, query.interval).result
        oracle = brute_force_tspg(graph, query.source, query.target, query.interval)
        assert answer.same_members(oracle), query
        answers.append(answer)
    return graph, queries, answers


@pytest.mark.parametrize("mode", ["serial", "sharded"])
def test_service_paths_serve_view_results_identical_to_reference(mode, service_case):
    """The serving layer answers what serial VUG and brute force do."""
    graph, queries, answers = service_case
    if mode == "serial":
        report = TspgService(graph).run_batch(queries, use_cache=False)
    else:
        router = ShardedTspgService(graph, num_shards=3, overlap=8)
        report = router.run_batch(queries, max_workers=3, use_cache=False)
    assert report.num_completed == len(queries)
    for item, expected in zip(report.items, answers):
        assert item.outcome.result.vertices == expected.vertices
        assert item.outcome.result.edges == expected.edges
