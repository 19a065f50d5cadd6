"""Upper-bound graph reductions used by the baseline algorithms.

Section III-A of the paper builds three baselines by combining an upper-bound
graph reduction with explicit temporal-simple-path enumeration.  The three
reductions are:

* **dtTSG** — the projected graph ``G[τb, τe]``: drop edges whose timestamp is
  outside the query interval (``O(m)``).
* **esTSG** — drop edges that lie on no *non-decreasing* timestamp path from
  ``s`` to ``t`` within the interval (``O(m)`` via two BFS-like sweeps); a
  looser relaxation of the strict model, so its graph sits between dtTSG's and
  tgTSG's.
* **tgTSG** — drop edges that lie on no *strictly ascending* timestamp path
  from ``s`` to ``t``; implemented, as in the original work it is borrowed
  from, with bidirectional Dijkstra-style sweeps using a priority queue
  (``O((n + m)·log n)``).  It prunes exactly the same edges as QuickUBG but
  pays the logarithmic factor — the comparison of Fig. 9.

All three return subgraphs of ``G`` that contain the ``tspG``; the containment
chain ``tspG ⊆ Gt ⊆ Gq = tgTSG ⊆ esTSG ⊆ dtTSG ⊆ G`` is exercised by the
property-based tests.
"""

from __future__ import annotations

import heapq
from typing import Dict, Tuple

from ..graph.edge import Vertex, as_interval
from ..graph.temporal_graph import TemporalGraph
from ..paths.reachability import (
    INFINITY,
    NEG_INFINITY,
    earliest_arrival_times,
    latest_departure_times,
)


def _window_rows(graph: TemporalGraph, window):
    """The ``(u, v, τ)`` rows of ``graph`` inside ``window``, temporally sorted.

    Scans every edge of the graph's view (the O(m) pass the reductions'
    cost model counts) and reads vertex labels only for rows in the window.
    """
    view = graph.view()
    labels = view.labels
    for source, target, timestamp in zip(view.src, view.dst, view.ts):
        if window.contains(timestamp):
            yield labels[source], labels[target], timestamp


def dt_tsg_reduction(
    graph: TemporalGraph, source: Vertex, target: Vertex, interval
) -> TemporalGraph:
    """dtTSG: the projected graph ``G[τb, τe]`` (query endpoints are unused)."""
    return graph.project(as_interval(interval))


def es_tsg_reduction(
    graph: TemporalGraph, source: Vertex, target: Vertex, interval
) -> TemporalGraph:
    """esTSG: keep edges on some non-decreasing-timestamp path from ``s`` to ``t``.

    An edge ``e(u, v, τ)`` survives iff a non-decreasing path from ``s``
    reaches ``u`` no later than ``τ`` and a non-decreasing path from ``v``
    reaches ``t`` departing no earlier than ``τ`` (both within the interval).
    """
    window = as_interval(interval)
    arrival = earliest_arrival_times(graph, source, window, strict=False, forbidden=target)
    departure = latest_departure_times(graph, target, window, strict=False, forbidden=source)
    reduced = TemporalGraph()
    for u, v, timestamp in _window_rows(graph, window):
        if arrival.get(u, INFINITY) <= timestamp <= departure.get(v, NEG_INFINITY):
            reduced.add_edge(u, v, timestamp)
    return reduced


def tg_tsg_reduction(
    graph: TemporalGraph, source: Vertex, target: Vertex, interval
) -> TemporalGraph:
    """tgTSG: keep edges on some strictly-ascending-timestamp path from ``s`` to ``t``.

    Semantically identical to QuickUBG (Lemma 1) but computed with
    Dijkstra-style priority-queue sweeps, reproducing the ``O(log n)``
    overhead the paper measures in Fig. 9.
    """
    window = as_interval(interval)
    arrival = _dijkstra_earliest_arrival(graph, source, target, window)
    departure = _dijkstra_latest_departure(graph, source, target, window)
    reduced = TemporalGraph()
    for u, v, timestamp in _window_rows(graph, window):
        if arrival.get(u, INFINITY) < timestamp < departure.get(v, NEG_INFINITY):
            reduced.add_edge(u, v, timestamp)
    return reduced


def _dijkstra_earliest_arrival(
    graph: TemporalGraph, source: Vertex, target: Vertex, window
) -> Dict[Vertex, float]:
    """Earliest strict arrival times via a priority queue (the tgTSG flavour)."""
    arrival: Dict[Vertex, float] = {v: INFINITY for v in graph.vertices()}
    if not graph.has_vertex(source):
        return arrival
    arrival[source] = window.begin - 1
    heap: list[Tuple[float, Vertex]] = [(arrival[source], source)]
    while heap:
        current, u = heapq.heappop(heap)
        if current > arrival[u]:
            continue
        for v, timestamp in graph.out_neighbors_view(u):
            if v == target:
                continue
            if timestamp < window.begin or timestamp > window.end:
                continue
            if current >= timestamp:
                continue
            if timestamp < arrival[v]:
                arrival[v] = timestamp
                heapq.heappush(heap, (timestamp, v))
    return arrival


def _dijkstra_latest_departure(
    graph: TemporalGraph, source: Vertex, target: Vertex, window
) -> Dict[Vertex, float]:
    """Latest strict departure times via a priority queue (mirror sweep)."""
    departure: Dict[Vertex, float] = {v: NEG_INFINITY for v in graph.vertices()}
    if not graph.has_vertex(target):
        return departure
    departure[target] = window.end + 1
    # Max-heap simulated with negated keys.
    heap: list[Tuple[float, Vertex]] = [(-departure[target], target)]
    while heap:
        negated, u = heapq.heappop(heap)
        current = -negated
        if current < departure[u]:
            continue
        for v, timestamp in graph.in_neighbors_view(u):
            if v == source:
                continue
            if timestamp < window.begin or timestamp > window.end:
                continue
            if current <= timestamp:
                continue
            if timestamp > departure[v]:
                departure[v] = timestamp
                heapq.heappush(heap, (-timestamp, v))
    return departure


REDUCTIONS = {
    "dtTSG": dt_tsg_reduction,
    "esTSG": es_tsg_reduction,
    "tgTSG": tg_tsg_reduction,
}
"""Registry of the three baseline reductions keyed by their paper names."""
