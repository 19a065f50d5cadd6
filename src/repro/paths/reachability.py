"""Temporal reachability primitives.

Provides single-source earliest-arrival and single-target latest-departure
sweeps under both the *strict* (ascending timestamps, the paper's path model)
and *non-strict* (non-decreasing timestamps, used by the ``esTSG`` baseline)
constraints.  These are the building blocks of the upper-bound graph
reductions and of the workload generator (which needs to sample reachable
``(s, t)`` pairs).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from ..graph.edge import Timestamp, Vertex, as_interval
from ..graph.temporal_graph import TemporalGraph

INFINITY = float("inf")
NEG_INFINITY = float("-inf")


def earliest_arrival_times(
    graph: TemporalGraph,
    source: Vertex,
    interval,
    strict: bool = True,
    forbidden: Optional[Vertex] = None,
) -> Dict[Vertex, float]:
    """Earliest arrival time from ``source`` to every vertex within ``interval``.

    ``result[u]`` is the smallest arrival timestamp over all temporal paths
    from ``source`` to ``u`` whose edges lie in ``interval`` (``+inf`` when no
    such path exists).  ``result[source]`` is ``interval.begin - 1`` following
    the convention of Algorithm 3.

    Parameters
    ----------
    strict:
        ``True`` for strictly ascending timestamps (the paper's model),
        ``False`` for non-decreasing timestamps (the ``esTSG`` relaxation).
    forbidden:
        Optional vertex whose traversal is disallowed (Algorithm 3 skips the
        target ``t`` when computing ``A(·)``).
    """
    window = as_interval(interval)
    arrival: Dict[Vertex, float] = {v: INFINITY for v in graph.vertices()}
    if not graph.has_vertex(source):
        return arrival
    arrival[source] = window.begin - 1
    queue = deque([source])
    in_queue = {source}
    while queue:
        u = queue.popleft()
        in_queue.discard(u)
        # Only the edges leaving after the arrival at u (a bisect into u's
        # timestamp-sorted CSR slice), in ascending timestamp order.
        for v, t in graph.out_neighbors_after(u, arrival[u], strict=strict):
            if t > window.end:
                break
            if v == forbidden or t < window.begin or t >= arrival[v]:
                continue
            arrival[v] = t
            if v not in in_queue:
                queue.append(v)
                in_queue.add(v)
    return arrival


def latest_departure_times(
    graph: TemporalGraph,
    target: Vertex,
    interval,
    strict: bool = True,
    forbidden: Optional[Vertex] = None,
) -> Dict[Vertex, float]:
    """Latest departure time from every vertex towards ``target`` within ``interval``.

    ``result[u]`` is the largest departure timestamp over all temporal paths
    from ``u`` to ``target`` (``-inf`` when none exists);
    ``result[target] = interval.end + 1`` per Algorithm 3.
    """
    window = as_interval(interval)
    departure: Dict[Vertex, float] = {v: NEG_INFINITY for v in graph.vertices()}
    if not graph.has_vertex(target):
        return departure
    departure[target] = window.end + 1
    queue = deque([target])
    in_queue = {target}
    while queue:
        u = queue.popleft()
        in_queue.discard(u)
        # Only the edges arriving before the departure from u, latest first.
        for v, t in reversed(
            graph.in_neighbors_before(u, departure[u], strict=strict)
        ):
            if t < window.begin:
                break
            if v == forbidden or t > window.end or t <= departure[v]:
                continue
            departure[v] = t
            if v not in in_queue:
                queue.append(v)
                in_queue.add(v)
    return departure


def can_reach(
    graph: TemporalGraph,
    source: Vertex,
    target: Vertex,
    interval,
    strict: bool = True,
) -> bool:
    """``True`` iff a temporal path from ``source`` to ``target`` exists in ``interval``.

    Note that temporal-path reachability and temporal-*simple*-path
    reachability coincide: removing cycles from a temporal path yields a
    temporal simple path with the same endpoints (Lemma 6's argument), so this
    check is the one used when sampling query workloads.
    """
    if source == target:
        return False
    arrival = earliest_arrival_times(graph, source, interval, strict=strict)
    return arrival.get(target, INFINITY) != INFINITY


def reachable_set(
    graph: TemporalGraph, source: Vertex, interval, strict: bool = True
) -> set:
    """Set of vertices temporally reachable from ``source`` within ``interval``."""
    arrival = earliest_arrival_times(graph, source, interval, strict=strict)
    return {
        v
        for v, time in arrival.items()
        if time != INFINITY and v != source
    }


def co_reachable_set(
    graph: TemporalGraph, target: Vertex, interval, strict: bool = True
) -> set:
    """Set of vertices from which ``target`` is temporally reachable within ``interval``."""
    departure = latest_departure_times(graph, target, interval, strict=strict)
    return {
        v
        for v, time in departure.items()
        if time != NEG_INFINITY and v != target
    }
