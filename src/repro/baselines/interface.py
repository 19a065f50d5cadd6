"""Common interface shared by every ``tspG`` algorithm in the library.

The benchmark harness, the query runner and the correctness cross-checks all
operate on :class:`TspgAlgorithm` implementations, so VUG and the baselines
are interchangeable and directly comparable.
"""

from __future__ import annotations

import abc
import inspect
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.deadline import Deadline
from ..core.result import PathGraph
from ..graph.edge import Vertex, as_interval
from ..graph.temporal_graph import TemporalGraph


@dataclass
class AlgorithmResult:
    """Outcome of running one algorithm on one query."""

    algorithm: str
    result: PathGraph
    elapsed_seconds: float
    space_cost: int = 0
    timed_out: bool = False
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def tspg(self) -> PathGraph:
        """Alias for :attr:`result`."""
        return self.result


class QueryTimeout(RuntimeError):
    """Raised internally when an algorithm exceeds its time budget."""


class TspgAlgorithm(abc.ABC):
    """Abstract base class of every temporal-simple-path-graph algorithm."""

    #: Human-readable name matching the paper's nomenclature (e.g. ``"VUG"``).
    name: str = "abstract"

    #: Whether every phase of :meth:`compute` polls its deadline at a fixed
    #: interval, so a run stops within one polling interval of it.  The TCP
    #: server computes a miss on its event loop only with such an
    #: algorithm (see :meth:`repro.service.TspgService.ready_within`).
    bounded_by_deadline: bool = False

    @abc.abstractmethod
    def compute(
        self,
        graph: TemporalGraph,
        source: Vertex,
        target: Vertex,
        interval,
    ) -> AlgorithmResult:
        """Compute the ``tspG`` for one query; implementations fill the extras.

        Implementations may additionally declare a ``deadline`` keyword
        parameter (an optional :class:`~repro.core.deadline.Deadline`) to
        receive the cooperative per-query cut-off :meth:`run` was called
        with; implementations that do not declare it simply never see it —
        the expired-on-arrival guard in :meth:`run` still applies either
        way, only the mid-query polls are opt-in.
        """

    def _compute_accepts_deadline(self) -> bool:
        """Whether this implementation's ``compute`` declares ``deadline``.

        Cached per class: the signature inspection runs once, then every
        :meth:`run` call is a plain attribute read.  Keeps pre-deadline
        subclasses (e.g. ad-hoc test algorithms) working unchanged.
        """
        cached = type(self).__dict__.get("_accepts_deadline_cache")
        if cached is None:
            parameters = inspect.signature(self.compute).parameters
            cached = "deadline" in parameters or any(
                p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
            )
            type(self)._accepts_deadline_cache = cached
        return cached

    def run(
        self,
        graph: TemporalGraph,
        source: Vertex,
        target: Vertex,
        interval,
        deadline: Optional[Deadline] = None,
    ) -> AlgorithmResult:
        """Timed wrapper around :meth:`compute` (records wall-clock seconds).

        ``deadline`` is the cooperative per-query cut-off: a query whose
        deadline has *already* expired returns an empty ``timed_out``
        result immediately — no phase of any algorithm runs — and an
        in-flight query is cut off at the implementation's documented check
        points (for VUG: the phase boundaries, every
        :data:`~repro.core.deadline.POLL_INTERVAL` iterations of every
        kernel loop and every EEV search expansion, so it stops within one
        polling interval).  Queries that finish in budget return bit-identical
        results with and without a deadline; a ``timed_out`` result is
        never memoized by the service layer.
        """
        if deadline is not None and deadline.expired():
            return AlgorithmResult(
                algorithm=self.name,
                result=PathGraph.empty(source, target, as_interval(interval)),
                elapsed_seconds=0.0,
                timed_out=True,
                extras={"deadline_expired_on_arrival": True},
            )
        started = time.perf_counter()
        if deadline is not None and self._compute_accepts_deadline():
            outcome = self.compute(graph, source, target, interval, deadline=deadline)
        else:
            outcome = self.compute(graph, source, target, interval)
        outcome.elapsed_seconds = time.perf_counter() - started
        return outcome

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
