"""Registry of every ``tspG`` algorithm (VUG and the baselines).

This module is the single place where the benchmark harness, the query runner
and the CLI look algorithms up by their paper names: ``"VUG"``, ``"EPdtTSG"``,
``"EPesTSG"``, ``"EPtgTSG"`` and ``"Naive"``.  Two VUG ablations ride along,
``"VUG-noTight"`` and ``"VUG-noLemma10"``.  Every VUG entry runs the same
pure-Python kernels; the correctness oracles compare them with
:func:`~repro.analysis.oracle.brute_force_tspg` and serial ``VUG``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from .baselines.ep_algorithms import EPdtTSG, EPesTSG, EPtgTSG, NaiveEnumeration
from .baselines.interface import AlgorithmResult, TspgAlgorithm
from .core.deadline import Deadline
from .core.vug import VUG
from .graph.edge import Vertex, as_interval
from .graph.temporal_graph import TemporalGraph


class VUGAlgorithm(TspgAlgorithm):
    """Adapter exposing the VUG pipeline through the common algorithm interface."""

    name = "VUG"
    #: Every VUG phase polls its deadline inside its kernel loops.
    bounded_by_deadline = True

    def __init__(
        self, use_tight_upper_bound: bool = True, use_lemma10: bool = True
    ) -> None:
        self._engine = VUG(
            use_tight_upper_bound=use_tight_upper_bound,
            use_lemma10=use_lemma10,
        )

    def compute(
        self,
        graph: TemporalGraph,
        source: Vertex,
        target: Vertex,
        interval,
        deadline: Optional[Deadline] = None,
    ) -> AlgorithmResult:
        window = as_interval(interval)
        report = self._engine.run(graph, source, target, window, deadline=deadline)
        extras: Dict[str, object] = {"phase_timings": report.timings.as_dict()}
        # A deadline cut-off may have stopped the pipeline before either
        # upper bound existed; report whatever phases actually completed.
        if report.upper_bound_quick is not None:
            extras["quick_ubg_edges"] = report.upper_bound_quick.num_edges
        if report.upper_bound_tight is not None:
            extras["tight_ubg_edges"] = report.upper_bound_tight.num_edges
        return AlgorithmResult(
            algorithm=self.name,
            result=report.result,
            elapsed_seconds=report.timings.total,
            space_cost=report.space_cost,
            timed_out=report.timed_out,
            extras=extras,
        )


class VUGQuickOnly(VUGAlgorithm):
    """Ablation: VUG without the TightUBG phase (EEV runs on ``Gq``)."""

    name = "VUG-noTight"

    def __init__(self) -> None:
        super().__init__(use_tight_upper_bound=False)


class VUGNoLemma10(VUGAlgorithm):
    """Ablation: VUG without the Lemma 10 one-hop confirmation shortcut."""

    name = "VUG-noLemma10"

    def __init__(self) -> None:
        super().__init__(use_lemma10=False)


#: All algorithms evaluated in the paper's experiments, keyed by name.
ALGORITHM_CLASSES: Dict[str, Type[TspgAlgorithm]] = {
    "VUG": VUGAlgorithm,
    "EPdtTSG": EPdtTSG,
    "EPesTSG": EPesTSG,
    "EPtgTSG": EPtgTSG,
    "Naive": NaiveEnumeration,
    "VUG-noTight": VUGQuickOnly,
    "VUG-noLemma10": VUGNoLemma10,
}

#: The four algorithms compared throughout Section VI.
PAPER_ALGORITHMS: List[str] = ["EPdtTSG", "EPesTSG", "EPtgTSG", "VUG"]


def available_algorithms() -> List[str]:
    """Names of every registered algorithm."""
    return sorted(ALGORITHM_CLASSES)


def get_algorithm(name: str, **options) -> TspgAlgorithm:
    """Instantiate a registered algorithm by name.

    ``options`` are forwarded to the constructor (e.g. ``max_paths`` for the
    enumeration baselines).
    """
    try:
        cls = ALGORITHM_CLASSES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(available_algorithms())}"
        ) from exc
    return cls(**options)
