"""Randomized oracle: the zero-materialization pipeline is bit-identical.

The property under test is the acceptance criterion of the view refactor:
for every query, every algorithm in the registry — and in particular the
default view-based ``VUG`` against the retained pre-refactor
``VUG-materializing`` pipeline — returns the *same* ``tspG`` (vertex and
edge sets), and the VUG variants also report the same per-phase edge counts
in their ``extras`` (``Gq``/``Gt`` sizes), because the masks must select
exactly the edges the materializing phases used to insert.

The oracle draws ≥200 random queries over a family of D1-style generated
graphs (bursty email-like traffic, the profile of the paper's smallest
dataset) plus uniform-random multigraphs, and additionally routes a sample
through the serial, parallel and sharded service paths.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import available_algorithms, get_algorithm
from repro.graph.generators import bursty_email_graph, uniform_random_temporal_graph
from repro.queries.query import TspgQuery
from repro.service import ShardedTspgService, TspgService

#: Total number of random queries the VUG-vs-materializing oracle draws.
NUM_ORACLE_QUERIES = 210

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


def test_view_pipeline_matches_materializing_pipeline_on_200_queries():
    """≥200 random queries: identical tspG *and* identical phase edge counts."""
    rng = random.Random(2025)
    graphs = _d1_style_graphs()
    per_graph = -(-NUM_ORACLE_QUERIES // len(graphs))  # ceil division
    view_vug = get_algorithm("VUG")
    materializing_vug = get_algorithm("VUG-materializing")
    checked = 0
    for graph in graphs:
        graph.warm_indices()
        for query in _random_queries(graph, rng, per_graph):
            viewed = view_vug.run(graph, query.source, query.target, query.interval)
            reference = materializing_vug.run(
                graph, query.source, query.target, query.interval
            )
            assert viewed.result.vertices == reference.result.vertices, query
            assert viewed.result.edges == reference.result.edges, query
            assert (
                viewed.extras["quick_ubg_edges"] == reference.extras["quick_ubg_edges"]
            ), query
            assert (
                viewed.extras["tight_ubg_edges"] == reference.extras["tight_ubg_edges"]
            ), query
            checked += 1
    assert checked >= 200


def test_every_registry_algorithm_agrees_with_the_materializing_reference():
    """All registry algorithms produce the reference tspG on random queries."""
    rng = random.Random(77)
    graph = _d1_style_graphs()[0]
    graph.warm_indices()
    queries = _random_queries(graph, rng, NUM_CROSS_ALGORITHM_QUERIES)
    reference_algorithm = get_algorithm("VUG-materializing")
    algorithms = [get_algorithm(name) for name in available_algorithms()]
    for query in queries:
        reference = reference_algorithm.run(
            graph, query.source, query.target, query.interval
        )
        for algorithm in algorithms:
            outcome = algorithm.run(graph, query.source, query.target, query.interval)
            assert outcome.result.vertices == reference.result.vertices, (
                algorithm.name,
                query,
            )
            assert outcome.result.edges == reference.result.edges, (
                algorithm.name,
                query,
            )


@pytest.mark.parametrize("mode", ["serial", "parallel", "sharded"])
def test_service_paths_serve_view_results_identical_to_reference(mode):
    """The serving layer (serial / parallel / sharded) stays bit-identical."""
    rng = random.Random(99)
    graph = _d1_style_graphs()[1]
    queries = _random_queries(graph, rng, 12)
    reference = TspgService(graph, default_algorithm="VUG-materializing").run_batch(
        queries, use_cache=False
    )
    if mode == "serial":
        report = TspgService(graph).run_batch(queries, use_cache=False)
    elif mode == "parallel":
        report = TspgService(graph).run_batch(
            queries, max_workers=4, use_cache=False
        )
    else:
        router = ShardedTspgService(graph, num_shards=3, overlap=8)
        report = router.run_batch(queries, max_workers=3, use_cache=False)
    assert report.num_completed == len(queries)
    for item, expected in zip(report.items, reference.items):
        assert item.outcome.result.vertices == expected.outcome.result.vertices
        assert item.outcome.result.edges == expected.outcome.result.edges
