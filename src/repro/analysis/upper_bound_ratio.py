"""Upper-bound ratio analysis (TABLE II / Fig. 10 of the paper).

For an upper-bound graph ``U`` of a query whose exact result is ``tspG``, the
*upper-bound ratio* is ``|E(tspG)| / |E(U)|`` — the closer to 100 % the
tighter (better) the bound.  This module computes the ratio for each of the
five reduction methods (dtTSG, esTSG, tgTSG, QuickUBG, TightUBG) and averages
it over a query workload, reproducing the TABLE II rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..baselines.reductions import dt_tsg_reduction, es_tsg_reduction, tg_tsg_reduction
from ..core.quick_ubg import quick_upper_bound_graph
from ..core.result import PathGraph
from ..core.tight_ubg import tight_upper_bound_graph
from ..core.vug import generate_tspg
from ..graph.edge import Vertex, as_interval
from ..graph.temporal_graph import TemporalGraph
from ..graph.views import SubgraphView
from ..queries.query import QueryWorkload

#: A reduction maps ``(G, s, t, interval)`` to an upper-bound graph: a new
#: graph for the baselines, an edge mask over ``G`` for QuickUBG/TightUBG.
ReductionFn = Callable[
    [TemporalGraph, Vertex, Vertex, object], Union[TemporalGraph, SubgraphView]
]


def _tight_ubg_method(graph, source, target, interval) -> SubgraphView:
    quick = quick_upper_bound_graph(graph, source, target, interval)
    return tight_upper_bound_graph(quick, source, target, interval)


#: The five upper-bound methods of TABLE II, keyed by their paper names.
UPPER_BOUND_METHODS: Dict[str, ReductionFn] = {
    "dtTSG": dt_tsg_reduction,
    "esTSG": es_tsg_reduction,
    "tgTSG": tg_tsg_reduction,
    "QuickUBG": quick_upper_bound_graph,
    "TightUBG": _tight_ubg_method,
}


@dataclass
class UpperBoundObservation:
    """Ratio of one method on one query."""

    method: str
    tspg_edges: int
    upper_bound_edges: int

    @property
    def ratio(self) -> Optional[float]:
        """``|E(tspG)| / |E(U)|`` in percent (``None`` when the bound is empty)."""
        if self.upper_bound_edges == 0:
            return None
        return 100.0 * self.tspg_edges / self.upper_bound_edges


@dataclass
class UpperBoundSummary:
    """Average ratio of one method over a workload (one TABLE II cell)."""

    method: str
    observations: List[UpperBoundObservation] = field(default_factory=list)

    def add(self, observation: UpperBoundObservation) -> None:
        self.observations.append(observation)

    @property
    def average_ratio(self) -> Optional[float]:
        """Mean percentage over the queries whose bound was non-empty."""
        ratios = [obs.ratio for obs in self.observations if obs.ratio is not None]
        if not ratios:
            return None
        return sum(ratios) / len(ratios)

    def as_row(self) -> Dict[str, object]:
        ratio = self.average_ratio
        return {
            "method": self.method,
            "avg_upper_bound_ratio_pct": None if ratio is None else round(ratio, 1),
            "queries": len(self.observations),
        }


def upper_bound_ratio_for_query(
    graph: TemporalGraph,
    source: Vertex,
    target: Vertex,
    interval,
    methods: Optional[Dict[str, ReductionFn]] = None,
    tspg: Optional[PathGraph] = None,
) -> Dict[str, UpperBoundObservation]:
    """Compute the ratio of every method for one query."""
    window = as_interval(interval)
    methods = methods or UPPER_BOUND_METHODS
    if tspg is None:
        tspg = generate_tspg(graph, source, target, window)
    observations = {}
    for name, method in methods.items():
        upper_bound = method(graph, source, target, window)
        observations[name] = UpperBoundObservation(
            method=name,
            tspg_edges=tspg.num_edges,
            upper_bound_edges=upper_bound.num_edges,
        )
    return observations


def upper_bound_ratios_for_workload(
    graph: TemporalGraph,
    workload: QueryWorkload,
    methods: Optional[Dict[str, ReductionFn]] = None,
) -> Dict[str, UpperBoundSummary]:
    """Average the per-query ratios over a workload (one TABLE II column)."""
    methods = methods or UPPER_BOUND_METHODS
    summaries = {name: UpperBoundSummary(method=name) for name in methods}
    for query in workload:
        observations = upper_bound_ratio_for_query(
            graph, query.source, query.target, query.interval, methods=methods
        )
        for name, observation in observations.items():
            summaries[name].add(observation)
    return summaries
