"""The VUG framework (Algorithm 1): Verification in Upper-bound Graph.

``VUG`` chains the three phases of the paper —

1. :func:`~repro.core.quick_ubg.quick_upper_bound_graph` (QuickUBG, Alg. 2+3),
2. :func:`~repro.core.tight_ubg.tight_upper_bound_graph` (TightUBG, Alg. 4+5),
3. :func:`~repro.core.eev.escaped_edges_verification` (EEV, Alg. 6+7),

and returns the exact temporal simple path graph together with the
intermediate upper-bound graphs and per-phase wall-clock timings (the raw
material of Exp-4, Exp-5 and Exp-6).

The pipeline is view-in/view-out: the intermediate upper-bound graphs
``Gq`` and ``Gt`` are edge-mask :class:`~repro.graph.views.SubgraphView`
objects over the parent graph's frozen columnar
:class:`~repro.graph.views.GraphView` — no :class:`TemporalGraph` is built
anywhere on the hot path (call ``.materialize()`` on a report's upper
bounds if a mutable graph is needed).  QuickUBG is two pure-Python kernels
over the view's columns: the id-space polarity sweeps
(:func:`~repro.core.polarity.compute_polarity_id_arrays`) and the
frontier-driven Lemma 1 mask
(:func:`~repro.core.quick_ubg.quick_mask_kernel`).

:func:`generate_tspg` is the one-call public entry point most users want.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..graph.edge import Vertex, as_interval
from ..graph.temporal_graph import TemporalGraph
from .deadline import Deadline, DeadlineExpired, poll
from .eev import EEVStatistics, escaped_edges_verification
from .polarity import compute_polarity_id_arrays
from .quick_ubg import quick_mask_kernel
from .result import PathGraph, PhaseTimings, VUGReport
from .tcv import compute_time_stream_common_vertices
from .tight_ubg import tight_upper_bound_graph


@dataclass
class VUG:
    """Configurable VUG query engine.

    Parameters
    ----------
    use_tight_upper_bound:
        When ``False`` the TightUBG phase is skipped and EEV runs directly on
        ``Gq`` — the ablation used to quantify how much the simple-path
        pruning contributes.
    use_lemma10:
        Forwarded to :func:`escaped_edges_verification`; disabling it forces a
        bidirectional search for every escaped edge.
    collect_eev_statistics:
        Attach an :class:`EEVStatistics` to the report.
    """

    use_tight_upper_bound: bool = True
    use_lemma10: bool = True
    collect_eev_statistics: bool = False

    def effective_kernel_backend(self) -> str:
        """Always ``"python"``: the pipeline has one kernel implementation.

        Kept because the serving benchmark's run manifest
        (``perfbench/run.py``) records this value, so result files written
        before and after the numpy backend was removed compare field for
        field.
        """
        return "python"

    def run(
        self,
        graph: TemporalGraph,
        source: Vertex,
        target: Vertex,
        interval,
        deadline: Optional[Deadline] = None,
    ) -> VUGReport:
        """Execute the full pipeline and return a :class:`VUGReport`.

        QuickUBG's backward polarity sweep runs only inside the forward
        sweep's reach, so its departure table is
        ``{t: τe + 1} ∪ {v: D(v) | A(v) < D(v)}`` rather than Algorithm 3's
        ``D(·)`` for every vertex that reaches ``t``.  Lemma 1 reads
        ``D(v)`` only for an edge ``(u, v, τ)`` with ``A(u) < τ``, where
        ``A(v) ≤ τ``, so ``Gq`` — and with it ``Gt`` and the tspG — is the
        one Algorithm 3 as printed gives
        (:func:`~repro.core.polarity.compute_polarity_id_arrays` has the
        proof).

        ``deadline`` is the cooperative per-query cut-off.  It is polled at
        the three phase boundaries (before QuickUBG, before TightUBG,
        before EEV), every :data:`~repro.core.deadline.POLL_INTERVAL`
        iterations of every kernel loop (both polarity sweeps, the Lemma 1
        mask, both TCV scans and the tight mask) and at every escaped-edge
        search and node expansion inside EEV.  On expiry the report comes
        back with ``timed_out=True``, the empty result, the upper bounds of
        the phases that finished and the phase timings accumulated so far
        (the cut-off phase's up to the poll that caught it).  The cut-off
        slack is therefore one polling interval of one kernel loop or one
        EEV edge expansion, never a whole phase.  A query that finishes in
        budget is bit-identical to a deadline-free run.
        """
        window = as_interval(interval)
        timings = PhaseTimings()
        if deadline is not None and deadline.expired():
            return self._timed_out_report(source, target, window, timings)
        quick = tight = None
        tcv_space = 0
        phase = "quick_ubg"
        started = time.perf_counter()
        try:
            # Phase 1: quick upper-bound graph (temporal constraint).  The
            # polarity sweeps run in interned-id space on the CSR-aligned
            # timestamp columns, the backward one inside the forward one's
            # reach, and the Lemma 1 test reads only the out-edges of s and
            # of the vertices both sweeps kept, after their arrival time,
            # then sorts the survivors into an edge mask.
            view = graph.view()
            arrival_ids, departure_ids, frontier = compute_polarity_id_arrays(
                view, source, target, window, deadline=deadline
            )
            quick = quick_mask_kernel(
                view, arrival_ids, departure_ids, window, frontier,
                deadline=deadline,
            )
            timings.quick_ubg = time.perf_counter() - started
            poll(deadline)

            # Phase 2: tight upper-bound graph (simple-path constraint).
            phase, started = "tight_ubg", time.perf_counter()
            if self.use_tight_upper_bound:
                tcv = compute_time_stream_common_vertices(
                    quick, source, target, window, deadline=deadline
                )
                tcv_space = tcv.space_cost()
                tight = tight_upper_bound_graph(
                    quick, source, target, window, tcv=tcv, deadline=deadline
                )
            else:
                tight = quick
            timings.tight_ubg = time.perf_counter() - started
            poll(deadline)

            # Phase 3: escaped edges verification (exact result).
            phase, started = "eev", time.perf_counter()
            eev_output = escaped_edges_verification(
                tight,
                source,
                target,
                window,
                use_lemma10=self.use_lemma10 and self.use_tight_upper_bound,
                collect_statistics=self.collect_eev_statistics,
                deadline=deadline,
            )
            timings.eev = time.perf_counter() - started
        except DeadlineExpired:
            setattr(timings, phase, time.perf_counter() - started)
            return self._timed_out_report(
                source, target, window, timings,
                upper_bound_quick=quick, upper_bound_tight=tight,
                tcv_space=tcv_space,
            )

        statistics: Optional[EEVStatistics] = None
        if self.collect_eev_statistics:
            result, statistics = eev_output
        else:
            result = eev_output

        # Linear-space accounting used by the space-consumption experiment
        # (Exp-3): the intermediate graphs plus the TCV entries and the result.
        space_cost = (
            quick.num_vertices
            + quick.num_edges
            + tight.num_vertices
            + tight.num_edges
            + tcv_space
            + result.num_vertices
            + result.num_edges
        )

        return VUGReport(
            result=result,
            upper_bound_quick=quick,
            upper_bound_tight=tight,
            timings=timings,
            space_cost=space_cost,
            eev_statistics=statistics,
        )

    @staticmethod
    def _timed_out_report(
        source: Vertex,
        target: Vertex,
        window,
        timings: PhaseTimings,
        upper_bound_quick=None,
        upper_bound_tight=None,
        tcv_space: int = 0,
    ) -> VUGReport:
        """The report of a deadline-cut-off query: empty result, flag set.

        The result is deliberately the *empty* path graph rather than a
        partial one — a half-verified edge set is an upper bound of
        nothing useful, and serving it as if it were the tspG would be a
        correctness bug.  Whatever upper bounds were completed before the
        cut-off ride along for diagnostics, and ``space_cost`` charges them
        with the same per-phase accounting a completed run uses, so the
        space tables (Exp-3/Exp-6) don't under-count cut-off rows.
        """
        space_cost = tcv_space
        if upper_bound_quick is not None:
            space_cost += upper_bound_quick.num_vertices + upper_bound_quick.num_edges
        if upper_bound_tight is not None:
            space_cost += upper_bound_tight.num_vertices + upper_bound_tight.num_edges
        return VUGReport(
            result=PathGraph.empty(source, target, window),
            upper_bound_quick=upper_bound_quick,
            upper_bound_tight=upper_bound_tight,
            timings=timings,
            space_cost=space_cost,
            timed_out=True,
        )

    # Alias matching the paper's "query" phrasing.
    query = run


def generate_tspg(
    graph: TemporalGraph,
    source: Vertex,
    target: Vertex,
    interval,
) -> PathGraph:
    """Generate the temporal simple path graph ``tspG[τb, τe](s, t)``.

    This is the library's primary public entry point — the problem statement
    of the paper solved with the full VUG pipeline.

    Parameters
    ----------
    graph:
        The directed temporal graph ``G``.
    source, target:
        Query endpoints ``s`` and ``t`` (must be different vertices).
    interval:
        ``(τb, τe)`` pair or :class:`~repro.graph.TimeInterval`.

    Returns
    -------
    PathGraph
        The subgraph of ``graph`` containing exactly the vertices and edges of
        all temporal simple paths from ``source`` to ``target`` within the
        interval; empty when no such path exists.

    Examples
    --------
    >>> from repro import TemporalGraph, generate_tspg
    >>> g = TemporalGraph(edges=[("s", "b", 2), ("b", "t", 6), ("b", "c", 3),
    ...                          ("c", "t", 7), ("s", "a", 3)])
    >>> tspg = generate_tspg(g, "s", "t", (2, 7))
    >>> sorted(tspg.vertices)
    ['b', 'c', 's', 't']
    """
    if source == target:
        raise ValueError("source and target must be different vertices")
    report = VUG().run(graph, source, target, interval)
    return report.result


def generate_tspg_report(
    graph: TemporalGraph,
    source: Vertex,
    target: Vertex,
    interval,
    **options,
) -> VUGReport:
    """Like :func:`generate_tspg` but returns the full :class:`VUGReport`."""
    if source == target:
        raise ValueError("source and target must be different vertices")
    return VUG(**options).run(graph, source, target, interval)
