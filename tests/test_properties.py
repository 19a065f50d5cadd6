"""Property-based tests (hypothesis) for the core invariants of the library.

The central properties:

* VUG's result always equals the brute-force ``tspG`` built straight from the
  definition (exactness).
* Every upper-bound graph in the pipeline contains the next tighter one and
  ultimately the ``tspG`` (the containment chain of Section IV).
* Every edge of the ``tspG`` admits a witnessing temporal simple path and
  every temporal simple path's members belong to the ``tspG`` (soundness and
  completeness of Definition 2).
* The served polarity kernel's tables are ``A(·)`` and
  ``{t: τe + 1} ∪ {v: D(v) | A(v) < D(v)}`` over the reachability sweeps.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.oracle import brute_force_tspg
from repro.baselines.reductions import dt_tsg_reduction, es_tsg_reduction, tg_tsg_reduction
from repro.core.polarity import compute_polarity_id_arrays
from repro.core.quick_ubg import quick_upper_bound_graph
from repro.core.tight_ubg import tight_upper_bound_graph
from repro.core.vug import generate_tspg
from repro.graph.edge import TimeInterval
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.validation import is_subgraph
from repro.paths.enumerate import enumerate_temporal_simple_paths
from repro.paths.reachability import earliest_arrival_times, latest_departure_times

MAX_VERTICES = 8
MAX_TIMESTAMP = 9


@st.composite
def temporal_graphs(draw) -> TemporalGraph:
    """Random small temporal multigraphs over vertices 0..MAX_VERTICES-1."""
    num_vertices = draw(st.integers(min_value=2, max_value=MAX_VERTICES))
    num_edges = draw(st.integers(min_value=0, max_value=28))
    edges = []
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        v = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        if u == v:
            continue
        t = draw(st.integers(min_value=1, max_value=MAX_TIMESTAMP))
        edges.append((u, v, t))
    return TemporalGraph(edges=edges, vertices=range(num_vertices))


@st.composite
def graph_queries(draw):
    """A random graph plus a random (source, target, interval) query."""
    graph = draw(temporal_graphs())
    vertices = sorted(graph.vertices())
    source = draw(st.sampled_from(vertices))
    target = draw(st.sampled_from([v for v in vertices if v != source]))
    begin = draw(st.integers(min_value=1, max_value=MAX_TIMESTAMP))
    end = draw(st.integers(min_value=begin, max_value=MAX_TIMESTAMP))
    return graph, source, target, TimeInterval(begin, end)


@settings(max_examples=120, deadline=None)
@given(graph_queries())
def test_vug_matches_brute_force(query):
    graph, source, target, interval = query
    expected = brute_force_tspg(graph, source, target, interval)
    actual = generate_tspg(graph, source, target, interval)
    assert actual.same_members(expected)


@settings(max_examples=80, deadline=None)
@given(graph_queries())
def test_containment_chain(query):
    graph, source, target, interval = query
    dt = dt_tsg_reduction(graph, source, target, interval)
    es = es_tsg_reduction(graph, source, target, interval)
    tg = tg_tsg_reduction(graph, source, target, interval)
    quick = quick_upper_bound_graph(graph, source, target, interval)
    tight = tight_upper_bound_graph(quick, source, target, interval)
    tspg = brute_force_tspg(graph, source, target, interval).to_temporal_graph()
    assert is_subgraph(tspg, tight)
    assert is_subgraph(tight, quick)
    assert set(quick.edge_tuples()) == set(tg.edge_tuples())
    assert is_subgraph(tg, es)
    assert is_subgraph(es, dt)
    assert is_subgraph(dt, graph)


@settings(max_examples=60, deadline=None)
@given(graph_queries())
def test_tspg_soundness_and_completeness(query):
    graph, source, target, interval = query
    tspg = generate_tspg(graph, source, target, interval)
    # Completeness: every enumerated simple path is fully contained in tspG.
    members_from_paths = set()
    vertices_from_paths = set()
    for path in enumerate_temporal_simple_paths(graph, source, target, interval):
        members_from_paths.update(edge.as_tuple() for edge in path.edges)
        vertices_from_paths.update(path.vertices())
        assert set(e.as_tuple() for e in path.edges) <= set(tspg.edges)
    # Soundness: the tspG contains nothing beyond the union of those paths.
    assert set(tspg.edges) == members_from_paths
    assert set(tspg.vertices) == vertices_from_paths


@settings(max_examples=60, deadline=None)
@given(graph_queries())
def test_tspg_edges_within_interval_and_graph(query):
    graph, source, target, interval = query
    tspg = generate_tspg(graph, source, target, interval)
    for u, v, t in tspg.edges:
        assert graph.has_edge(u, v, t)
        assert interval.contains(t)


@settings(max_examples=60, deadline=None)
@given(graph_queries())
def test_quick_bound_respects_lemma1(query):
    graph, source, target, interval = query
    quick = quick_upper_bound_graph(graph, source, target, interval)
    # Every surviving edge lies on at least one temporal s-t path: verify via
    # the definitional reachability conditions of Observation 1.
    from repro.paths.reachability import earliest_arrival_times, latest_departure_times

    arrival = earliest_arrival_times(graph, source, interval, strict=True, forbidden=target)
    departure = latest_departure_times(graph, target, interval, strict=True, forbidden=source)
    for u, v, t in quick.edge_tuples():
        assert arrival[u] < t < departure[v]


@settings(max_examples=80, deadline=None)
@given(graph_queries())
def test_polarity_kernel_tables_meet_the_contract(query):
    graph, source, target, interval = query
    view = graph.view()
    arrival, departure, _ = compute_polarity_id_arrays(view, source, target, interval)
    reach = earliest_arrival_times(graph, source, interval, forbidden=target)
    leave = latest_departure_times(graph, target, interval, forbidden=source)
    labels = view.labels
    assert {labels[vid]: time for vid, time in arrival.items()} == {
        v: time for v, time in reach.items() if time != float("inf")
    }
    # The backward sweep stays inside the forward sweep's reach: D(v) is
    # kept exactly where Lemma 1 can read it.
    assert {labels[vid]: time for vid, time in departure.items()} == {
        target: interval.end + 1,
        **{v: leave[v] for v in leave if reach[v] < leave[v]},
    }


@settings(max_examples=40, deadline=None)
@given(graph_queries())
def test_result_is_deterministic(query):
    graph, source, target, interval = query
    first = generate_tspg(graph, source, target, interval)
    second = generate_tspg(graph, source, target, interval)
    assert first.same_members(second)
