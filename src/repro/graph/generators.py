"""Synthetic temporal-graph generators.

The paper evaluates on ten real interaction networks (email, Stack Exchange,
wiki talk/edit, Flickr).  Those datasets are not redistributable inside this
repository, so the benchmark harness instead uses the generators below, which
are parameterised to reproduce the structural features the algorithms are
sensitive to:

* **uniform_random_temporal_graph** — Erdős–Rényi-style baseline with uniform
  timestamps; the "no structure" control.
* **preferential_attachment_temporal_graph** — heavy-tailed in/out degree
  distribution like the Q&A and wiki graphs (a few hub users receive most
  interactions).
* **community_temporal_graph** — dense communities with sparse, later-in-time
  bridges; produces many short temporal simple paths inside communities and a
  few long cross-community ones, the regime where TightUBG's simple-path
  pruning matters.
* **bursty_email_graph** — activity concentrated in bursts (working-hours
  style), matching the email-Eu-core timestamp profile.
* **layered_temporal_graph** — a layered DAG-like flow with timestamps
  increasing layer by layer; guarantees abundant s→t temporal simple paths and
  is the stress test for the enumeration baselines (exponential path counts).
* **temporal_cycle_graph** — deliberately cycle-heavy graphs where many edges
  lie only on non-simple temporal paths; the regime where the quick upper
  bound is loose and TightUBG/EEV prune hard.

* **synth_scale_edges** — a *streaming* generator for bigger-than-RAM scale
  testing (10⁷–10⁸ edges): yields skewed-degree, bursty-timestamp edges one
  at a time without ever materialising the edge list, so a caller can pipe
  them straight into an on-disk snapshot (see ``tspg warm --dataset
  synth-scale``, which perfbench's ``scale-cold`` workload boots).

All generators take an explicit ``seed`` and are fully deterministic.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from .edge import TemporalEdge
from .temporal_graph import TemporalGraph


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


def uniform_random_temporal_graph(
    num_vertices: int,
    num_edges: int,
    num_timestamps: int = 100,
    seed: Optional[int] = None,
) -> TemporalGraph:
    """Uniform random directed temporal multigraph.

    Each edge picks an ordered vertex pair and a timestamp uniformly at
    random.  Duplicate (u, v, τ) draws collapse, so the resulting edge count
    can be slightly below ``num_edges`` on tiny parameter settings.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    rng = _rng(seed)
    graph = TemporalGraph(vertices=range(num_vertices))
    for _ in range(num_edges):
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        while v == u:
            v = rng.randrange(num_vertices)
        t = rng.randrange(1, num_timestamps + 1)
        graph.add_edge(u, v, t)
    return graph


def preferential_attachment_temporal_graph(
    num_vertices: int,
    num_edges: int,
    num_timestamps: int = 200,
    hub_bias: float = 0.75,
    seed: Optional[int] = None,
) -> TemporalGraph:
    """Heavy-tailed temporal graph via a simple preferential-attachment rule.

    With probability ``hub_bias`` an endpoint is sampled proportionally to its
    current degree (plus one), otherwise uniformly.  Timestamps are drawn
    uniformly, so hubs accumulate interactions spread over the whole horizon —
    the same shape as the sx-* and wiki-talk datasets.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    rng = _rng(seed)
    graph = TemporalGraph(vertices=range(num_vertices))
    degree = [1] * num_vertices
    total = num_vertices

    def sample_endpoint() -> int:
        if rng.random() < hub_bias:
            # Roulette-wheel over degree+1 weights.
            pick = rng.randrange(total)
            acc = 0
            for vertex, weight in enumerate(degree):
                acc += weight
                if pick < acc:
                    return vertex
            return num_vertices - 1
        return rng.randrange(num_vertices)

    for _ in range(num_edges):
        u = sample_endpoint()
        v = sample_endpoint()
        while v == u:
            v = rng.randrange(num_vertices)
        t = rng.randrange(1, num_timestamps + 1)
        if graph.add_edge(u, v, t):
            degree[u] += 1
            degree[v] += 1
            total += 2
    return graph


def community_temporal_graph(
    num_communities: int = 4,
    community_size: int = 12,
    intra_edges_per_community: int = 60,
    inter_edges: int = 30,
    num_timestamps: int = 100,
    seed: Optional[int] = None,
) -> TemporalGraph:
    """Communities with dense internal traffic and sparse temporal bridges.

    Intra-community edges are spread over the entire time horizon; bridges are
    biased towards the middle of the horizon so cross-community temporal
    simple paths must pass "through" a small set of cut vertices — exactly the
    situation where time-stream common vertices prune aggressively.
    """
    rng = _rng(seed)
    num_vertices = num_communities * community_size
    graph = TemporalGraph(vertices=range(num_vertices))

    def community_members(index: int) -> range:
        start = index * community_size
        return range(start, start + community_size)

    for community in range(num_communities):
        members = list(community_members(community))
        for _ in range(intra_edges_per_community):
            u, v = rng.sample(members, 2)
            t = rng.randrange(1, num_timestamps + 1)
            graph.add_edge(u, v, t)
    mid_lo = max(1, num_timestamps // 3)
    mid_hi = max(mid_lo, 2 * num_timestamps // 3)
    for _ in range(inter_edges):
        c1, c2 = rng.sample(range(num_communities), 2)
        u = rng.choice(list(community_members(c1)))
        v = rng.choice(list(community_members(c2)))
        t = rng.randrange(mid_lo, mid_hi + 1)
        graph.add_edge(u, v, t)
    return graph


def bursty_email_graph(
    num_vertices: int = 80,
    num_bursts: int = 12,
    edges_per_burst: int = 40,
    burst_width: int = 5,
    gap_between_bursts: int = 20,
    seed: Optional[int] = None,
) -> TemporalGraph:
    """Email-style graph whose activity is concentrated in temporal bursts.

    Each burst occupies a short window of ``burst_width`` consecutive
    timestamps separated by quiet gaps, mimicking working-hours burstiness in
    the email-Eu-core dataset.  Within a burst, a small active set of users
    exchanges most messages.
    """
    rng = _rng(seed)
    graph = TemporalGraph(vertices=range(num_vertices))
    current_time = 1
    for _ in range(num_bursts):
        active = rng.sample(range(num_vertices), max(2, num_vertices // 4))
        for _ in range(edges_per_burst):
            u, v = rng.sample(active, 2)
            t = current_time + rng.randrange(burst_width)
            graph.add_edge(u, v, t)
        current_time += burst_width + gap_between_bursts
    return graph


def layered_temporal_graph(
    num_layers: int = 6,
    layer_size: int = 5,
    edges_per_layer_pair: int = 12,
    timestamps_per_layer: int = 3,
    skip_probability: float = 0.1,
    seed: Optional[int] = None,
) -> TemporalGraph:
    """Layered flow graph with timestamps increasing layer by layer.

    Vertex ``0`` is a natural source and vertex ``num_layers*layer_size + 1``
    a natural sink; every adjacent layer pair is densely connected with
    timestamps strictly larger than those of the previous layer pair, so the
    number of temporal simple paths from source to sink grows exponentially
    with ``num_layers`` — the worst case for enumeration-based baselines and
    the showcase for VUG (Exp-7 of the paper).
    """
    rng = _rng(seed)
    source = "S"
    sink = "T"
    graph = TemporalGraph(vertices=[source, sink])

    def layer_members(layer: int) -> List[Tuple[int, int]]:
        return [(layer, i) for i in range(layer_size)]

    time_base = 1
    # Source to first layer.
    for member in layer_members(0):
        graph.add_edge(source, member, rng.randrange(time_base, time_base + timestamps_per_layer))
    time_base += timestamps_per_layer
    for layer in range(num_layers - 1):
        current = layer_members(layer)
        nxt = layer_members(layer + 1)
        for _ in range(edges_per_layer_pair):
            u = rng.choice(current)
            v = rng.choice(nxt)
            t = rng.randrange(time_base, time_base + timestamps_per_layer)
            graph.add_edge(u, v, t)
        if rng.random() < skip_probability and layer + 2 < num_layers:
            u = rng.choice(current)
            v = rng.choice(layer_members(layer + 2))
            graph.add_edge(u, v, time_base + timestamps_per_layer)
        time_base += timestamps_per_layer
    # Last layer to sink.
    for member in layer_members(num_layers - 1):
        graph.add_edge(member, sink, rng.randrange(time_base, time_base + timestamps_per_layer))
    return graph


def temporal_cycle_graph(
    num_vertices: int = 30,
    num_cycles: int = 12,
    cycle_length: int = 4,
    num_timestamps: int = 60,
    chord_edges: int = 20,
    seed: Optional[int] = None,
) -> TemporalGraph:
    """Cycle-rich temporal graph.

    Plants many temporally ascending cycles plus random chords.  Edges inside
    such cycles reach the target only through non-simple walks, so the quick
    upper-bound graph retains them while the exact ``tspG`` does not — the
    regime separating QuickUBG from TightUBG/EEV (Fig. 2's e(e, c, 6)).
    """
    rng = _rng(seed)
    graph = TemporalGraph(vertices=range(num_vertices))
    for _ in range(num_cycles):
        members = rng.sample(range(num_vertices), cycle_length)
        start = rng.randrange(1, max(2, num_timestamps - cycle_length))
        for offset in range(cycle_length):
            u = members[offset]
            v = members[(offset + 1) % cycle_length]
            graph.add_edge(u, v, start + offset)
    for _ in range(chord_edges):
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        while v == u:
            v = rng.randrange(num_vertices)
        graph.add_edge(u, v, rng.randrange(1, num_timestamps + 1))
    return graph


def synth_scale_edges(
    num_vertices: int,
    num_edges: int,
    num_timestamps: int = 10_000,
    hub_bias: float = 0.6,
    burst_skew: float = 2.5,
    seed: Optional[int] = None,
) -> Iterator[Tuple[int, int, int]]:
    """Stream ``num_edges`` skewed ``(u, v, t)`` triples, O(1) memory.

    The scale-testing counterpart of the registry generators: designed for
    10⁷–10⁸ edges, so it *yields* edges instead of building a
    :class:`TemporalGraph` — nothing here grows with ``num_edges``.  The
    distributions mimic what the large SNAP/KONECT graphs look like:

    * **degree skew** — sources are drawn via an inverse-power transform,
      ``u = int(V * r**(1 + 3*hub_bias))``: a handful of hub vertices emit
      most edges, the tail emits few.  ``hub_bias=0`` degenerates to
      uniform.
    * **timestamp burstiness** — timestamps follow ``1 + int((T-1) *
      r**burst_skew)``: activity piles up near the start of the horizon
      (``burst_skew>1``), matching bursty interaction logs.  ``burst_skew=1``
      is uniform.

    Destinations are uniform (self-loops re-drawn); duplicate ``(u, v, t)``
    triples are *not* filtered — the graph layer collapses them, exactly as
    repeated real-world interactions would.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    if num_timestamps < 1:
        raise ValueError("need at least one timestamp")
    rng = _rng(seed)
    source_exponent = 1.0 + 3.0 * max(0.0, hub_bias)
    ts_span = num_timestamps - 1
    for _ in range(num_edges):
        u = int(num_vertices * rng.random() ** source_exponent)
        if u >= num_vertices:  # guard the r→1.0 edge of the transform
            u = num_vertices - 1
        v = rng.randrange(num_vertices)
        while v == u:
            v = rng.randrange(num_vertices)
        t = 1 + int(ts_span * rng.random() ** burst_skew)
        yield (u, v, t)


def paper_running_example() -> TemporalGraph:
    """The exact graph of Fig. 1(a) of the paper.

    Vertices ``s, a, b, c, d, e, f, t``; eight vertices and thirteen temporal
    edges.  Used across the test-suite to assert every intermediate artifact
    (polarity times, Gq, TCV tables, Gt, tspG) against the published figures.
    """
    edges = [
        ("s", "b", 2),
        ("s", "a", 3),
        ("s", "d", 4),
        ("b", "c", 3),
        ("b", "d", 3),
        ("b", "f", 5),
        ("b", "t", 6),
        ("a", "d", 5),
        ("c", "f", 4),
        ("c", "t", 7),
        ("d", "t", 2),
        ("f", "e", 5),
        ("f", "b", 5),
        ("e", "c", 6),
    ]
    return TemporalGraph(edges=edges)


def with_planted_path(
    graph: TemporalGraph,
    source,
    target,
    length: int,
    start_time: int,
    label_prefix: str = "planted",
) -> TemporalGraph:
    """Return a copy of ``graph`` with a fresh temporal simple path planted.

    The planted path runs ``source -> planted_0 -> ... -> target`` with
    consecutive timestamps starting at ``start_time``; used by workload and
    property tests that need guaranteed reachability.
    """
    clone = graph.copy()
    previous = source
    timestamp = start_time
    for index in range(length - 1):
        intermediate = f"{label_prefix}_{index}"
        clone.add_edge(previous, intermediate, timestamp)
        previous = intermediate
        timestamp += 1
    clone.add_edge(previous, target, timestamp)
    return clone
