"""Cooperative per-query deadlines: propagation, promptness, bit-identity.

Covers the deadline satellite of the serving-pool PR:

* expired-on-arrival queries report ``timed_out`` without running a phase
  (and without touching the result cache);
* a mid-EEV expiry stops promptly (the escaped-edge loop and the searcher
  both poll), and a batch whose budget expires mid-flight lands within the
  documented slack;
* every kernel loop of QuickUBG and TightUBG polls once per
  ``POLL_INTERVAL`` iterations, so each phase stops within one polling
  interval and ``VUG.run`` keeps the upper bounds of the phases that
  finished — down to a tenth of a full-span ``synth-scale`` query;
* queries that finish in budget are bit-identical with and without a
  deadline, for every registry algorithm;
* ``timed_out`` outcomes are never memoized, and the deadline crosses the
  process boundary.
"""

from __future__ import annotations

import math
import pickle
import statistics
import time

import pytest

from repro.algorithms import available_algorithms, get_algorithm
from repro.baselines.interface import AlgorithmResult, TspgAlgorithm
from repro.core import Deadline, EEVDeadlineExpired, vug
from repro.core.deadline import POLL_INTERVAL, DeadlineExpired
from repro.core.eev import BidirectionalSearcher, escaped_edges_verification
from repro.core.polarity import (
    _sweep_arrival_ids,
    _sweep_departure_ids,
    compute_polarity_id_arrays,
)
from repro.core.quick_ubg import quick_mask_kernel
from repro.core.result import PathGraph
from repro.core.tcv import (
    _compute_source_side,
    _compute_target_side,
    compute_time_stream_common_vertices,
)
from repro.core.tight_ubg import tight_upper_bound_graph
from repro.core.vug import VUG
from repro.graph.edge import TemporalEdge, TimeInterval
from repro.graph.generators import uniform_random_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.queries.query import TspgQuery
from repro.queries.workload import generate_workload
from repro.service import ShardedTspgService, TspgService
from repro.store import save_snapshot

#: Documented cut-off slack for the batch-level promptness assertions:
#: one uninterruptible stretch of work plus generous scheduler headroom.
SLACK_SECONDS = 0.5


def _chain_graph() -> TemporalGraph:
    """s → a → b → t with one escaped middle edge when Lemma 10 is off."""
    return TemporalGraph(
        edges=[("s", "a", 1), ("a", "b", 2), ("b", "t", 3), ("s", "x", 5)]
    )


class TestDeadlineObject:
    def test_after_and_remaining(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 60.0

    def test_expired_deadline(self):
        deadline = Deadline.after(-1.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_from_budget_none_passthrough(self):
        assert Deadline.from_budget(None) is None
        assert Deadline.from_budget(5.0) is not None

    def test_earlier_picks_the_stricter_instant(self):
        near = Deadline.after(1.0)
        far = Deadline.after(100.0)
        assert near.earlier(far) is near
        assert far.earlier(near) is near
        assert near.earlier(None) is near

    def test_pickle_preserves_the_instant(self):
        deadline = Deadline.after(30.0)
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone.at_monotonic == deadline.at_monotonic


class TestExpiredOnArrival:
    def test_algorithm_run_refuses_without_computing(self):
        calls = []

        class Recording(TspgAlgorithm):
            name = "Recording"

            def compute(self, graph, source, target, interval, deadline=None):
                calls.append((source, target))
                return AlgorithmResult(
                    algorithm=self.name,
                    result=PathGraph.empty(source, target, interval),
                    elapsed_seconds=0.0,
                )

        outcome = Recording().run(
            _chain_graph(), "s", "t", (1, 3), deadline=Deadline.after(-1.0)
        )
        assert outcome.timed_out is True
        assert outcome.result.is_empty
        assert outcome.extras.get("deadline_expired_on_arrival") is True
        assert calls == []  # no phase of any kind ran

    def test_vug_phase_timings_stay_zero(self):
        report = VUG().run(
            _chain_graph(), "s", "t", (1, 3), deadline=Deadline.after(-1.0)
        )
        assert report.timed_out is True
        assert report.timings.total == 0.0
        assert report.upper_bound_quick is None

    def test_cache_hit_is_not_served_past_the_deadline(self):
        service = TspgService(_chain_graph())
        query = TspgQuery("s", "t", (1, 3))
        warm = service.submit(query)  # populate the cache
        assert not warm.timed_out
        refused = service.submit(query, deadline=Deadline.after(-1.0))
        assert refused.timed_out is True
        assert not refused.extras.get("cache_hit")
        # ...and the refusal was not memoized over the good entry:
        again = service.submit(query)
        assert not again.timed_out
        assert again.result.edges == warm.result.edges

    def test_old_style_compute_signature_still_guarded(self):
        class OldStyle(TspgAlgorithm):
            name = "OldStyle"

            def compute(self, graph, source, target, interval):
                return AlgorithmResult(
                    algorithm=self.name,
                    result=PathGraph.empty(source, target, interval),
                    elapsed_seconds=0.0,
                )

        algorithm = OldStyle()
        live = algorithm.run(
            _chain_graph(), "s", "t", (1, 3), deadline=Deadline.after(60.0)
        )
        assert not live.timed_out
        refused = algorithm.run(
            _chain_graph(), "s", "t", (1, 3), deadline=Deadline.after(-1.0)
        )
        assert refused.timed_out is True


class TestMidEEVExpiry:
    def test_escaped_edge_loop_raises_promptly(self):
        # With Lemma 10 off the middle edge (a, b, 2) escapes to the
        # search loop, whose per-iteration poll sees the expired deadline.
        with pytest.raises(EEVDeadlineExpired):
            escaped_edges_verification(
                _chain_graph(), "s", "t", (1, 3),
                use_lemma10=False, deadline=Deadline.after(-1.0),
            )

    def test_searcher_polls_inside_expansions(self):
        searcher = BidirectionalSearcher(
            _chain_graph(), "s", "t", TimeInterval(1, 3),
            deadline=Deadline.after(-1.0),
        )
        with pytest.raises(EEVDeadlineExpired):
            searcher.find_witness_path(TemporalEdge("a", "b", 2))

    def test_vug_maps_the_expiry_to_a_timed_out_report(self):
        report = VUG(use_lemma10=False).run(
            _chain_graph(), "s", "t", (1, 3),
            # Generous enough to pass the QuickUBG/TightUBG boundary polls
            # on a 4-edge graph, then expire inside EEV's loop.
            deadline=Deadline.after(1e-4),
        )
        # Either the boundary or the EEV poll caught it; both must yield
        # the empty timed-out report, never a partial result.
        if report.timed_out:
            assert report.result.is_empty

    def test_batch_budget_expiry_lands_within_slack(self):
        class Slow(TspgAlgorithm):
            name = "SlowDeadline"

            def compute(self, graph, source, target, interval, deadline=None):
                # Cooperative worker: polls its deadline mid-"phase".
                for _ in range(50):
                    if deadline is not None and deadline.expired():
                        return AlgorithmResult(
                            algorithm=self.name,
                            result=PathGraph.empty(source, target, interval),
                            elapsed_seconds=0.0,
                            timed_out=True,
                        )
                    time.sleep(0.002)
                return AlgorithmResult(
                    algorithm=self.name,
                    result=PathGraph.empty(source, target, interval),
                    elapsed_seconds=0.0,
                )

        graph = _chain_graph()
        queries = [TspgQuery("s", "t", (1, 3)), TspgQuery("s", "b", (1, 2)),
                   TspgQuery("a", "t", (2, 3)), TspgQuery("s", "x", (1, 5))]
        budget = 0.05
        started = time.perf_counter()
        report = TspgService(graph).run_batch(
            queries, Slow(), use_cache=False, time_budget_seconds=budget
        )
        elapsed = time.perf_counter() - started
        assert report.timed_out is True
        # The batch may not squat past its budget: each 100ms query either
        # never starts (skipped) or cuts itself off at the next poll.
        assert elapsed <= budget + SLACK_SECONDS
        assert all(
            item.skipped or (item.outcome is not None and item.outcome.timed_out)
            for item in report.items
        )


def _layered_graph() -> TemporalGraph:
    """s → a_i (1) → b_j (2) → t (3): every loop runs past one interval.

    ``WIDTH²`` middle edges exceed :data:`POLL_INTERVAL`, and all of them
    lie on a temporal simple path, so both sweeps, the Lemma 1 mask, both
    TCV scans and the tight mask each iterate more than one polling
    interval.
    """
    width = math.isqrt(POLL_INTERVAL) + 2
    edges = [("s", f"a{i}", 1) for i in range(width)]
    edges += [(f"a{i}", f"b{j}", 2) for i in range(width) for j in range(width)]
    edges += [(f"b{j}", "t", 3) for j in range(width)]
    return TemporalGraph(edges=edges)


class PollCounter:
    """A deadline stand-in: counts polls, expires after ``allowed`` of them."""

    def __init__(self, allowed: float = math.inf) -> None:
        self.allowed = allowed
        self.polls = 0

    def expired(self) -> bool:
        self.polls += 1
        return self.polls > self.allowed


class Tripwire:
    """A deadline stand-in that expires once :attr:`tripped` is set."""

    tripped = False

    def expired(self) -> bool:
        return self.tripped


def _kernel_calls():
    """``name -> run(deadline)`` for each polled loop, on the layered graph."""
    graph = _layered_graph()
    view = graph.view()
    window = TimeInterval(1, 3)
    s_id, t_id = view.index_of["s"], view.index_of["t"]
    arrival, departure, frontier = compute_polarity_id_arrays(view, "s", "t", window)
    quick = quick_mask_kernel(view, arrival, departure, window, frontier)
    tcv = compute_time_stream_common_vertices(quick, "s", "t", window)
    assert quick.num_edges > POLL_INTERVAL
    return {
        "forward polarity sweep": lambda d: _sweep_arrival_ids(
            view, s_id, t_id, window, d
        ),
        "backward polarity sweep": lambda d: _sweep_departure_ids(
            view, s_id, t_id, window, arrival, d
        ),
        "Lemma 1 mask": lambda d: quick_mask_kernel(
            view, arrival, departure, window, frontier, deadline=d
        ),
        "source TCV scan": lambda d: _compute_source_side(quick, "s", "t", d),
        "target TCV scan": lambda d: _compute_target_side(quick, "s", "t", d),
        "tight mask": lambda d: tight_upper_bound_graph(
            quick, "s", "t", window, tcv=tcv, deadline=d
        ),
    }


KERNELS = sorted(_kernel_calls())


class TestKernelPolls:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_each_loop_stops_at_its_first_poll_past_the_deadline(self, kernel):
        run = _kernel_calls()[kernel]
        counter = PollCounter()
        run(counter)  # never expires: the loop runs to the end
        assert counter.polls >= 1  # it is longer than one polling interval
        expired = PollCounter(allowed=0)
        with pytest.raises(DeadlineExpired):
            run(expired)
        assert expired.polls == 1
        with pytest.raises(DeadlineExpired):
            run(Deadline.after(-1.0))

    @pytest.mark.parametrize(
        "phase_function, keeps_quick, keeps_tight",
        [
            ("compute_polarity_id_arrays", False, False),
            ("quick_mask_kernel", False, False),
            ("compute_time_stream_common_vertices", True, False),
            ("tight_upper_bound_graph", True, False),
        ],
    )
    def test_vug_keeps_the_upper_bounds_of_the_phases_that_finished(
        self, monkeypatch, phase_function, keeps_quick, keeps_tight
    ):
        graph = _layered_graph()
        complete = VUG().run(graph, "s", "t", (1, 3))
        tripwire = Tripwire()
        original = getattr(vug, phase_function)

        def tripped(*args, **kwargs):
            # The deadline passes as the phase starts; its first poll
            # inside the kernel loop must catch it.
            tripwire.tripped = True
            return original(*args, **kwargs)

        monkeypatch.setattr(vug, phase_function, tripped)
        report = VUG().run(graph, "s", "t", (1, 3), deadline=tripwire)
        assert report.timed_out is True
        assert report.result.is_empty
        if keeps_quick:
            assert report.upper_bound_quick == complete.upper_bound_quick
            assert report.timings.tight_ubg > 0.0
        else:
            assert report.upper_bound_quick is None
            assert report.timings.quick_ubg > 0.0
        assert (report.upper_bound_tight is not None) == keeps_tight
        assert report.timings.eev == 0.0


class TestCutOffsAtScale:
    """Full-span hub-to-hub ``synth-scale`` queries, where QuickUBG dominates."""

    @staticmethod
    def _elapsed(graph, source, target, deadline=None):
        started = time.perf_counter()
        report = VUG().run(
            graph, source, target, graph.time_interval(), deadline=deadline
        )
        return time.perf_counter() - started, report

    @pytest.mark.parametrize("source, target", [(0, 1), (2, 3)])
    def test_a_tenth_of_the_run_time_cuts_it_off_within_twice_that(
        self, synth_scale_graph, source, target
    ):
        unbudgeted = min(
            self._elapsed(synth_scale_graph, source, target)[0] for _ in range(3)
        )
        budget = unbudgeted / 10
        elapsed = []
        for _ in range(3):
            seconds, report = self._elapsed(
                synth_scale_graph, source, target, Deadline.after(budget)
            )
            assert report.timed_out and report.result.is_empty
            elapsed.append(seconds)
        # The median of three, so one scheduler hiccup cannot decide it.
        assert statistics.median(elapsed) < 2 * budget, (unbudgeted, elapsed)

    def test_polls_leave_an_in_budget_answer_bit_identical(self, synth_scale_graph):
        counter = PollCounter()
        _, plain = self._elapsed(synth_scale_graph, 2, 3)
        _, polled = self._elapsed(synth_scale_graph, 2, 3, counter)
        assert counter.polls > 3  # the kernels polled, beyond the boundaries
        assert not polled.timed_out
        assert polled.result.edges == plain.result.edges
        assert polled.result.vertices == plain.result.vertices
        assert polled.upper_bound_quick == plain.upper_bound_quick
        assert polled.upper_bound_tight == plain.upper_bound_tight


class TestInBudgetBitIdentity:
    def test_registry_wide_identity_with_generous_deadline(self):
        graph = uniform_random_temporal_graph(
            num_vertices=14, num_edges=80, num_timestamps=24, seed=23
        )
        queries = list(
            generate_workload(
                graph, num_queries=12, theta=8, seed=23, name="deadline-oracle"
            )
        )
        for name in available_algorithms():
            algorithm = get_algorithm(name)
            for query in queries:
                plain = algorithm.run(
                    graph, query.source, query.target, query.interval
                )
                bounded = algorithm.run(
                    graph, query.source, query.target, query.interval,
                    deadline=Deadline.after(3600.0),
                )
                assert bounded.timed_out == plain.timed_out, (name, query)
                assert bounded.result.vertices == plain.result.vertices, (name, query)
                assert bounded.result.edges == plain.result.edges, (name, query)

    def test_sharded_submit_forwards_the_deadline(self):
        # Regression: the router's single-query path must accept and
        # forward deadlines exactly like the flat service (the serve
        # loop's per-request deadline_ms hits this).
        graph = uniform_random_temporal_graph(
            num_vertices=12, num_edges=60, num_timestamps=20, seed=37
        )
        router = ShardedTspgService(graph, 2, overlap=6)
        query = next(iter(generate_workload(
            graph, num_queries=1, theta=6, seed=37, name="sharded-submit"
        )))
        live = router.submit(query, deadline=Deadline.after(60.0))
        assert not live.timed_out
        refused = router.submit(query, deadline=Deadline.after(-1.0))
        assert refused.timed_out is True

    def test_sharded_batch_identity_under_budget(self):
        graph = uniform_random_temporal_graph(
            num_vertices=14, num_edges=90, num_timestamps=30, seed=29
        )
        queries = list(
            generate_workload(
                graph, num_queries=15, theta=8, seed=29, name="sharded-deadline"
            )
        )
        baseline = TspgService(graph).run_batch(queries, use_cache=False)
        router = ShardedTspgService(graph, 3, overlap=8)
        bounded = router.run_batch(
            queries, max_workers=3, use_cache=False, time_budget_seconds=60.0
        )
        assert bounded.timed_out is False
        for item, base in zip(bounded.items, baseline.items):
            assert item.outcome.result.vertices == base.outcome.result.vertices
            assert item.outcome.result.edges == base.outcome.result.edges


class TestDeadlineAcrossProcesses:
    def test_expired_budget_refuses_cached_queries_on_processes(
        self, tmp_path, worker_pool
    ):
        # Regression: a pool batch's parent-side cache pre-pass must not
        # serve hits past an expired deadline — identical input must
        # produce the same refusal the serial path gives.
        graph = uniform_random_temporal_graph(
            num_vertices=12, num_edges=60, num_timestamps=20, seed=33
        )
        path = tmp_path / "g.tspgsnap"
        save_snapshot(graph, path)
        queries = list(
            generate_workload(
                graph, num_queries=4, theta=6, seed=33, name="proc-cache-deadline"
            )
        )
        service = TspgService.from_snapshot(path, pool=worker_pool)
        service.run_batch(queries, use_cache=True)  # warm the parent cache
        report = service.run_batch(
            queries, max_workers=2, use_cache=True, time_budget_seconds=0.0
        )
        assert report.num_cache_hits == 0
        assert all(
            item.skipped or (item.outcome is not None and item.outcome.timed_out)
            for item in report.items
        )

    def test_expired_budget_refuses_inside_workers(self, tmp_path, worker_pool):
        graph = uniform_random_temporal_graph(
            num_vertices=12, num_edges=60, num_timestamps=20, seed=31
        )
        path = tmp_path / "g.tspgsnap"
        save_snapshot(graph, path)
        queries = list(
            generate_workload(
                graph, num_queries=4, theta=6, seed=31, name="proc-deadline"
            )
        )
        service = TspgService.from_snapshot(path, pool=worker_pool)
        report = service.run_batch(
            queries, max_workers=2, use_cache=False, time_budget_seconds=0.0
        )
        assert report.executor == "processes"
        assert report.timed_out is True
        assert all(
            item.skipped or (item.outcome is not None and item.outcome.timed_out)
            for item in report.items
        )
