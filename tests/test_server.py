"""The TCP serving tier: protocol conformance, admission control, concurrency.

Four layers of coverage, all over a *real* socket (no transport mocks):

* **Protocol conformance** — framing edge cases (split/partial lines,
  oversized payloads, malformed JSON, unknown ops, mid-request
  disconnects, blank lines) each answer ``ok: false`` or close cleanly,
  and never kill the accept loop or leak the connection.
* **Admission control** — refuse-before-work on arrival-stamped
  deadlines, prompt refusals while the pool is saturated, the global
  in-flight bound, and round-robin fairness across clients.
* **The loop path** — once nothing is pending for its engine, a query
  is answered on the event-loop thread (a cache hit, or a miss under one
  switch-interval slice); a query the slice cuts off is finished once on
  a worker; cached queries are still refused past their deadline, and a
  backlog of hits takes turns with other clients.
* **Concurrency stress** — concurrent query clients race a writer client
  issuing ``ingest`` ops; every answer must be bit-identical to a serial
  replay of the ingest sequence at some epoch inside the answer's stamped
  ``[epoch_before, epoch_after]`` range, across the network boundary.
"""

import asyncio
import contextlib
import json
import random
import socket
import sys
import threading
import time

import pytest

from repro.algorithms import get_algorithm
from repro.core.vug import VUG
from repro.datasets.registry import get_dataset
from repro.graph.temporal_graph import TemporalGraph
from repro.queries.query import TspgQuery
from repro.queries.workload import generate_workload
from repro.service import (
    RequestCore,
    ServerThread,
    TspgClient,
    TspgServer,
    TspgService,
)
from repro.service.server import (
    LatencyHistogram,
    ServerStats,
    _FairScheduler,
    parse_request_line,
)


def small_graph() -> TemporalGraph:
    return TemporalGraph(
        edges=[("s", "b", 2), ("b", "t", 6), ("b", "c", 3), ("c", "t", 7),
               ("s", "c", 4), ("c", "b", 5)]
    )


def boot(service=None, **server_kwargs) -> ServerThread:
    """A running server over ``service`` (defaults to the small graph)."""
    if service is None:
        service = TspgService(small_graph())
    core = RequestCore(service, default_workers=2)
    server_kwargs.setdefault("workers", 2)
    return ServerThread(core, **server_kwargs)


class SlowService(TspgService):
    """A service whose every submit takes at least ``delay`` seconds.

    Saturation on demand: with ``workers=1`` one in-flight query occupies
    the whole pool for a predictable window, which is what the admission
    and fairness tests need.
    """

    def __init__(self, graph, delay: float, **kwargs) -> None:
        super().__init__(graph, **kwargs)
        self._delay = delay

    def submit(self, query, algorithm=None, **kwargs):
        time.sleep(self._delay)
        return super().submit(query, algorithm, **kwargs)


class ThreadRecordingService(TspgService):
    """Records the name of the thread each submit runs on."""

    def __init__(self, graph, **kwargs) -> None:
        super().__init__(graph, **kwargs)
        self.threads = []

    def submit(self, query, algorithm=None, **kwargs):
        self.threads.append(threading.current_thread().name)
        return super().submit(query, algorithm, **kwargs)


class SlowHitService(TspgService):
    """A service whose submit takes ``delay`` seconds more on cache hits.

    Hits run on the event loop, so this is a backlog of hits that blocks
    the loop for a predictable window per request.
    """

    def __init__(self, graph, delay: float, **kwargs) -> None:
        super().__init__(graph, **kwargs)
        self._delay = delay

    def submit(self, query, algorithm=None, **kwargs):
        outcome = super().submit(query, algorithm, **kwargs)
        if outcome.extras.get("cache_hit"):
            time.sleep(self._delay)
        return outcome


QUERY = {"source": "s", "target": "t", "begin": 2, "end": 7}


# ----------------------------------------------------------------------
# protocol conformance
# ----------------------------------------------------------------------


class TestProtocolConformance:
    def test_lockstep_round_trip_all_ops(self):
        with boot() as st:
            with TspgClient(st.address) as client:
                query = client.request(dict(QUERY))
                assert query["ok"] and query["op"] == "query"
                assert query["num_edges"] > 0
                assert query["epoch_before"] == query["epoch_after"]
                batch = client.request({"queries": [["s", "t", 2, 7], ["b", "t", 3, 7]]})
                assert batch["ok"] and batch["op"] == "batch"
                ingest = client.request({"op": "ingest", "edges": [["s", "z", 9]]})
                assert ingest["ok"] and ingest["appended"] == 1
                stats = client.request({"op": "stats"})
                assert stats["ok"] and stats["server"]["connections_active"] == 1
                assert client.quit() == {"ok": True, "op": "quit"}

    def test_request_split_across_many_writes(self):
        # A request arriving byte-dribbled over several TCP segments is
        # still one protocol line.
        with boot() as st:
            with TspgClient(st.address) as client:
                payload = (json.dumps(QUERY) + "\n").encode("utf-8")
                middle = len(payload) // 2
                client.send_raw(payload[:middle])
                time.sleep(0.05)
                client.send_raw(payload[middle:])
                response = client.recv()
                assert response["ok"] and response["num_edges"] > 0

    def test_two_requests_in_one_write(self):
        with boot() as st:
            with TspgClient(st.address) as client:
                line = json.dumps(QUERY) + "\n"
                client.send_raw((line + line).encode("utf-8"))
                first, second = client.recv(), client.recv()
                assert first["ok"] and second["ok"]
                assert second["cache_hit"] is True

    def test_malformed_requests_answer_ok_false_and_loop_survives(self):
        with boot() as st:
            with TspgClient(st.address) as client:
                epoch = client.request({"op": "stats"})["epoch"]
                for bad in (
                    b"definitely not json\n",
                    b"[1, 2, 3]\n",            # JSON, but not an object
                    b'{"op": "unknown-op"}\n',
                    b'{"source": "s", "target": "t"}\n',
                    b'{"queries": [], "op": "batch"}\n',
                    b"\xff\xfe\n",              # not UTF-8
                    # Malformed numbers: budgets must be finite numbers,
                    # begin/end and ingest timestamps integral.
                    b'{"source": "s", "target": "t", "begin": 2, "end": 7, '
                    b'"deadline_ms": "abc"}\n',
                    b'{"source": "s", "target": "t", "begin": 2, "end": 7, '
                    b'"deadline_ms": [5]}\n',
                    b'{"queries": [["s", "t", 2, 7]], "budget_ms": "abc"}\n',
                    b'{"source": "s", "target": "t", "begin": 0, "end": 1e400}\n',
                    b'{"source": "s", "target": "t", "begin": 1.7, "end": 7}\n',
                    b'{"source": "s", "target": "t", "begin": true, "end": 7}\n',
                    b'{"op": "ingest", "edges": [["s", "t", 1e400]]}\n',
                    b'{"op": []}\n',
                    b'{"op": {}, "deadline_ms": 5}\n',
                    # Malformed vertex ids, in queries, batch entries and
                    # ingest rows alike.
                    b'{"source": 1.5, "target": "t", "begin": 2, "end": 7}\n',
                    b'{"source": true, "target": "t", "begin": 2, "end": 7}\n',
                    b'{"source": null, "target": "t", "begin": 2, "end": 7}\n',
                    b'{"source": [1], "target": "t", "begin": 2, "end": 7}\n',
                    b'{"source": "s", "target": {"a": 1}, "begin": 2, "end": 7}\n',
                    b'{"queries": [["s", null, 2, 7]]}\n',
                    b'{"op": "ingest", "edges": [[null, "t", 9]]}\n',
                    b'{"op": "ingest", "edges": [[1.5, "t", 9]]}\n',
                    b'{"op": "ingest", "edges": [["s", true, 9]]}\n',
                    b'{"op": "ingest", "edges": [[["a"], "t", 9]]}\n',
                ):
                    client.send_raw(bad)
                    response = client.recv()
                    assert response["ok"] is False
                    assert response.get("error")
                    assert "internal error" not in response["error"]
                # The session is still alive and serving, and no rejected
                # ingest row reached the graph.
                assert client.request(dict(QUERY))["ok"] is True
                stats = client.request({"op": "stats"})
                assert stats["epoch"] == epoch
                # Unparseable lines and budgets count as protocol errors;
                # well-formed lines with bad request content (unknown op,
                # missing fields, empty batch, non-integral begin/end or
                # timestamps, a non-string op, bad vertex ids) answer
                # ok:false without being framing errors.
                assert stats["server"]["protocol_errors"] == 6

    @pytest.mark.parametrize("label", [int, str])
    def test_integral_vertex_ids_name_the_same_vertex_as_labels(self, label):
        # JSON numbers resolve like string labels, on integer-labelled and
        # string-labelled graphs alike; 1.0 is the integer 1.
        rows = ((1, 2, 2), (2, 3, 6), (2, 4, 3), (4, 3, 7))
        graph = TemporalGraph(edges=[(label(u), label(v), t) for u, v, t in rows])
        with boot(TspgService(graph)) as st:
            with TspgClient(st.address) as client:
                answers = [
                    client.request({"source": source, "target": 3, "begin": 2, "end": 7})
                    for source in ("1", 1, 1.0)
                ]
                assert all(answer["ok"] for answer in answers)
                assert answers[0]["num_edges"] > 0
                assert len({answer["num_edges"] for answer in answers}) == 1
                grown = client.request({"op": "ingest", "edges": [[3.0, 9, 8]]})
                assert grown["ok"] and grown["new_vertices"] == ["9"]

    def test_blank_lines_and_comments_answer_nothing(self):
        with boot() as st:
            with TspgClient(st.address) as client:
                client.send_raw(b"\n   \n# just a comment\n")
                client.send(dict(QUERY))
                response = client.recv()  # the only response on the wire
                assert response["ok"] is True and response["op"] == "query"

    def test_oversized_line_answers_error_and_closes_cleanly(self):
        with boot(max_line_bytes=512) as st:
            with TspgClient(st.address) as client:
                client.send_raw(b'{"source": "' + b"x" * 2048 + b'"}\n')
                response = client.recv()
                assert response["ok"] is False
                assert "512" in response["error"]
                with pytest.raises(ConnectionError):
                    client.recv()
            # The refusal is per-connection: the server still accepts.
            with TspgClient(st.address) as client:
                assert client.request(dict(QUERY))["ok"] is True

    def test_mid_request_disconnect_does_not_kill_the_server(self):
        with boot() as st:
            client = TspgClient(st.address)
            client.send_raw(b'{"source": "s", "ta')  # torn frame, no newline
            client.close()
            deadline = time.monotonic() + 5
            with TspgClient(st.address) as second:
                assert second.request(dict(QUERY))["ok"] is True
                while time.monotonic() < deadline:
                    stats = second.request({"op": "stats"})["server"]
                    if stats["connections_active"] == 1:
                        break
                    time.sleep(0.02)
                # The torn connection was reaped, not leaked, and the torn
                # fragment produced no response at all.
                assert stats["connections_active"] == 1
                assert stats["connections_opened"] == 2

    def test_quit_ack_follows_pipelined_responses_in_order(self):
        with boot() as st:
            with TspgClient(st.address) as client:
                responses = client.request_pipelined(
                    [dict(QUERY), {"queries": [["s", "t", 2, 7]]}, {"op": "quit"}]
                )
                assert [r["op"] for r in responses] == ["query", "batch", "quit"]
                assert all(r["ok"] for r in responses)
                with pytest.raises(ConnectionError):
                    client.recv()  # the server closed after the ack

    def test_reader_replies_keep_their_place_in_the_order(self):
        # Framing and budget errors are answered by the reader itself; they
        # must still queue behind the slow query sent before them.
        service = SlowService(small_graph(), delay=0.2, cache_size=0)
        with boot(service) as st:
            with TspgClient(st.address) as client:
                client.send_raw(
                    (json.dumps(QUERY) + "\n").encode()
                    + b"{not json\n"
                    + (json.dumps(dict(QUERY, deadline_ms="x")) + "\n").encode()
                )
                replies = [client.recv() for _ in range(3)]
                assert replies[0]["ok"] is True and replies[0]["op"] == "query"
                assert replies[1]["ok"] is False
                assert "deadline_ms" not in replies[1]["error"]
                assert replies[2]["ok"] is False
                assert "deadline_ms" in replies[2]["error"]
                server = client.request({"op": "stats"})["server"]
                # Reader replies count as responses, not as queued work.
                assert server["responses_sent"] == 3
                assert server["protocol_errors"] == 2
                assert server["queue_depth"] == 1  # the stats request itself

    def test_overload_refusal_follows_the_answer_queued_before_it(self):
        service = SlowService(small_graph(), delay=0.2, cache_size=0)
        with boot(service, workers=1, max_inflight=1) as st:
            with TspgClient(st.address) as client:
                first, second = client.request_pipelined([dict(QUERY)] * 2)
                assert first["ok"] is True and first["op"] == "query"
                assert second["ok"] is False and second["refused"] is True
                assert second["retryable"] is True

    def test_eof_without_quit_closes_cleanly(self):
        with boot() as st:
            client = TspgClient(st.address)
            assert client.request(dict(QUERY))["ok"] is True
            client.close()
            with TspgClient(st.address) as second:
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    stats = second.request({"op": "stats"})["server"]
                    if stats["connections_active"] == 1:
                        break
                    time.sleep(0.02)
                assert stats["connections_active"] == 1

    def test_a_connection_whose_handler_starts_after_close_is_dropped(self):
        # Accepting a connection spans several loop turns, so one can be
        # accepted before aclose() stops the listener and have its handler
        # start only after aclose() closed the open sessions.
        async def main():
            server = TspgServer(RequestCore(TspgService(small_graph())))
            accepted, release = asyncio.Event(), asyncio.Event()
            handle = server._handle_connection

            async def late_handler(reader, writer):
                accepted.set()
                await release.wait()
                await handle(reader, writer)

            server._handle_connection = late_handler
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            await asyncio.wait_for(accepted.wait(), timeout=5)
            closing = asyncio.create_task(server.aclose())
            await asyncio.sleep(0.05)
            release.set()
            try:
                return await asyncio.wait_for(reader.read(), timeout=5)
            finally:
                writer.close()
                await asyncio.wait_for(closing, timeout=5)

        assert asyncio.run(main()) == b""

    def test_stats_surface_shapes(self):
        with boot() as st:
            with TspgClient(st.address) as client:
                client.request(dict(QUERY))
                stats = client.request({"op": "stats"})
                assert stats["cache"]["misses"] >= 1
                assert stats["index"]
                assert stats["epoch"] >= 0
                server = stats["server"]
                for key in (
                    "connections_opened", "connections_active",
                    "requests_admitted", "responses_sent", "refused_deadline",
                    "refused_overload", "protocol_errors", "queue_depth",
                    "inflight", "latency_ms",
                ):
                    assert key in server
                histogram = server["latency_ms"]["query"]
                assert histogram["count"] == 1
                assert histogram["p99_ms"] >= 0


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def test_expired_deadline_is_refused_before_any_work(self):
        with boot() as st:
            with TspgClient(st.address) as client:
                response = client.request(dict(QUERY, deadline_ms=-1))
                assert response["ok"] is True
                assert response["refused"] is True
                assert response["timed_out"] is True
                assert response["num_edges"] == 0
                stats = client.request({"op": "stats"})
                # Refuse-before-work: the service never saw the query (no
                # cache traffic) and no query op was admitted.
                assert stats["server"]["refused_deadline"] == 1
                assert "query" not in stats["server"]["latency_ms"]
                assert stats["cache"]["misses"] == 0

    def test_deadline_expiring_in_queue_is_refused_promptly(self):
        service = SlowService(small_graph(), delay=0.4, cache_size=0)
        with boot(service, workers=1) as st:
            with TspgClient(st.address) as occupant, TspgClient(st.address) as victim:
                admitted = time.monotonic()
                # Occupies the only worker, under a deadline it can meet.
                occupant.send(dict(QUERY, deadline_ms=500))
                time.sleep(0.1)
                started = time.monotonic()
                response = victim.request(dict(QUERY, deadline_ms=50))
                elapsed = time.monotonic() - started
                assert response["refused"] is True and response["timed_out"] is True
                # Refused at deadline expiry (~50ms), not when the worker
                # freed up (~300ms later).
                assert elapsed < 0.3
                answer = occupant.recv()
                assert answer["ok"] is True and "refused" not in answer
                # No admitted query overshoots its deadline by more than
                # the documented 250ms slack.
                assert time.monotonic() - admitted < 0.5 + 0.25

    def test_overload_refusals_at_the_inflight_bound(self):
        service = SlowService(small_graph(), delay=0.2, cache_size=0)
        with boot(service, workers=1, max_inflight=2) as st:
            with TspgClient(st.address) as client:
                responses = client.request_pipelined([dict(QUERY)] * 6)
                served = [r for r in responses if r["ok"]]
                refused = [r for r in responses if not r["ok"]]
                assert len(served) == 2
                assert len(refused) == 4
                for response in refused:
                    assert response["refused"] is True
                    assert response["retryable"] is True
                    assert "overloaded" in response["error"]
                # Load shed, session alive: the next request is served.
                assert client.request(dict(QUERY))["ok"] is True
                stats = client.request({"op": "stats"})
                assert stats["server"]["refused_overload"] == 4

    def test_fair_scheduler_rotates_across_sessions(self):
        # One firehose session queueing three waiters, one polite session
        # queueing three: grants must alternate x, y, x, y, ... — never
        # drain x's backlog first.
        async def main():
            scheduler = _FairScheduler(1)
            await scheduler.acquire("head")  # take the only permit
            order = []

            async def waiter(key, index):
                await scheduler.acquire(key)
                order.append((key, index))
                scheduler.release()

            tasks = [asyncio.create_task(waiter("x", i)) for i in range(3)]
            await asyncio.sleep(0)  # let all of x queue first
            tasks += [asyncio.create_task(waiter("y", i)) for i in range(3)]
            await asyncio.sleep(0.02)
            scheduler.release()
            await asyncio.gather(*tasks)
            return order

        order = asyncio.run(main())
        assert order == [
            ("x", 0), ("y", 0), ("x", 1), ("y", 1), ("x", 2), ("y", 2),
        ]

    def test_fair_scheduler_releases_slot_granted_to_cancelled_waiter(self):
        async def main():
            scheduler = _FairScheduler(1)
            await scheduler.acquire("a")
            waiter = asyncio.create_task(scheduler.acquire("b"))
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            scheduler.release()
            # The cancelled waiter must not have swallowed the permit.
            await asyncio.wait_for(scheduler.acquire("c"), timeout=1)

        asyncio.run(main())

    def test_firehose_client_cannot_starve_a_polite_one(self):
        service = SlowService(small_graph(), delay=0.05, cache_size=0)
        with boot(service, workers=1) as st:
            with TspgClient(st.address) as firehose, TspgClient(st.address) as polite:
                firehose.send_raw(
                    b"".join([(json.dumps(QUERY) + "\n").encode()] * 8)
                )
                time.sleep(0.06)  # firehose backlog is in place
                started = time.monotonic()
                assert polite.request(dict(QUERY))["ok"] is True
                polite_wait = time.monotonic() - started
                # Round-robin: the polite client waits out at most the
                # running request plus its own turn, not the 8-deep
                # firehose backlog (~0.4s).
                assert polite_wait < 0.25
                for _ in range(8):
                    assert firehose.recv()["ok"] is True


# ----------------------------------------------------------------------
# queries answer on the event loop once nothing is pending
# ----------------------------------------------------------------------


class TestLoopPath:
    def test_queries_run_on_the_loop_once_nothing_is_pending_for_their_engine(self):
        service = ThreadRecordingService(small_graph())
        with boot(service) as st:
            with TspgClient(st.address) as client:
                # Builds the VUG instance, so it runs on a worker.
                client.request(dict(QUERY, end=6))
                request = dict(QUERY, include_edges=True)
                miss = client.request(request)
                hit = client.request(request)
                # An algorithm instance nobody has built yet.
                client.request(dict(QUERY, algorithm="VUG-noTight"))
                # The ingest extends the view: the next query derives its
                # CSR-aligned columns again, so it goes to a worker too.
                client.request({"op": "ingest", "edges": [["s", "t", 5]]})
                after_ingest = client.request(request)
                client.request(dict(QUERY, begin=3))
                # A mutation outside ingest: the engine must rewarm first.
                service.graph.append_edges([("s", "b", 6)])
                client.request(dict(QUERY, begin=1))
                stats = client.request({"op": "stats"})["server"]
        assert miss["cache_hit"] is False and hit["cache_hit"] is True
        assert hit["edges"] == miss["edges"] and miss["edges"]
        assert after_ingest["cache_hit"] is False
        ran_on = [
            "worker" if name.startswith("tspg-serve_") else name
            for name in service.threads
        ]
        # tspg-server is the event-loop thread.
        assert ran_on == [
            "worker", "tspg-server", "tspg-server", "worker", "worker",
            "tspg-server", "worker",
        ]
        assert stats["handed_off"] == 0

    def test_after_a_slow_miss_the_next_one_runs_on_a_worker(self):
        service = ThreadRecordingService(small_graph())
        with boot(service) as st:
            with TspgClient(st.address) as client:
                client.request(dict(QUERY, end=6))  # builds the VUG instance
                # As if the engine's last miss had held its thread for 1 s.
                service.record_miss(TspgQuery("s", "t", (2, 7)), 1.0)
                client.request(dict(QUERY, begin=1))  # quick, on a worker
                client.request(dict(QUERY, begin=3))
        ran_on = [
            "worker" if name.startswith("tspg-serve_") else name
            for name in service.threads
        ]
        assert ran_on == ["worker", "worker", "tspg-server"]

    def test_a_query_that_outlives_its_slice_is_finished_once_on_a_worker(
        self, synth_scale_graph
    ):
        graph = synth_scale_graph
        span = graph.time_interval()
        # Full span, hub to hub: ~22 ms of VUG and 25 answer edges.
        full = {
            "source": 2, "target": 3, "begin": span.begin, "end": span.end,
            "include_edges": True,
        }
        expected = VUG().run(graph, 2, 3, span).result
        quick = {"source": 2, "target": 3, "begin": span.end - 1, "end": span.end}
        service = ThreadRecordingService(graph)
        interval = sys.getswitchinterval()
        with boot(service) as st:
            with TspgClient(st.address) as client, TspgClient(st.address) as other:
                client.request(quick)  # builds the VUG instance on a worker
                # 1 ms slices, and a busy worker hands the GIL back to the
                # loop within 1 ms, so the loop's responsiveness shows.
                slice_seconds = 0.001
                sys.setswitchinterval(slice_seconds)
                try:
                    client.send(full)
                    started = time.monotonic()
                    assert other.request(quick)["cache_hit"] is True
                    waited = time.monotonic() - started
                    answer = client.recv()
                finally:
                    sys.setswitchinterval(interval)
                stats = client.request({"op": "stats"})
        # While the worker runs the full query, the cached one waits for at
        # most the slice in flight, plus one switch interval for each of
        # the loop's blocking calls (poll, read, write) at which the worker
        # may take the GIL, plus 8 ms of scheduling noise: ~12 ms against
        # the ~22 ms the full query would hold a loop that ran it whole.
        assert waited < slice_seconds + 3 * slice_seconds + 0.008
        assert answer["ok"] and answer["timed_out"] is False
        assert answer["edges"] == [list(edge) for edge in expected.ordered_edges]
        assert answer["num_edges"] == expected.num_edges == 25
        server = stats["server"]
        assert server["handed_off"] == 1
        # quick, full and the cached repeat: each counted once.
        assert server["requests_admitted"] == 3
        assert server["latency_ms"]["query"]["count"] == 3
        assert (stats["cache"]["misses"], stats["cache"]["hits"]) == (2, 1)
        ran_on = [
            "worker" if name.startswith("tspg-serve_") else name
            for name in service.threads
        ]
        # The full query: one slice on the loop, then the rest on a worker.
        assert ran_on[:2] == ["worker", "tspg-server"]
        assert sorted(ran_on[2:]) == ["tspg-server", "worker"]

    def test_an_expired_deadline_is_refused_even_when_cached(self):
        with boot() as st:
            with TspgClient(st.address) as client:
                assert client.request(dict(QUERY))["ok"] is True
                response = client.request(dict(QUERY, deadline_ms=-1))
                assert response["refused"] is True
                assert response["timed_out"] is True
                assert response["cache_hit"] is False
                stats = client.request({"op": "stats"})
                assert stats["cache"]["hits"] == 0
                assert stats["cache"]["misses"] == 1
                assert stats["server"]["refused_deadline"] == 1

    def test_cached_firehose_cannot_starve_a_polite_client(self):
        service = SlowHitService(small_graph(), delay=0.05)
        with boot(service, workers=1) as st:
            with TspgClient(st.address) as firehose, TspgClient(st.address) as polite:
                assert polite.request(dict(QUERY))["cache_hit"] is False
                firehose.send_raw(
                    b"".join([(json.dumps(QUERY) + "\n").encode()] * 16)
                )
                time.sleep(0.06)  # firehose backlog is in place
                started = time.monotonic()
                assert polite.request(dict(QUERY))["cache_hit"] is True
                polite_wait = time.monotonic() - started
                # Each hit yields the loop, so the polite client waits a few
                # hits, not the 16-deep backlog (~0.8s).
                assert polite_wait < 0.5
                for _ in range(16):
                    assert firehose.recv()["cache_hit"] is True


# ----------------------------------------------------------------------
# concurrency stress: ingest-while-querying across the network boundary
# ----------------------------------------------------------------------


class TestConcurrentIngestOracle:
    def test_concurrent_answers_match_a_serial_replay_at_their_epoch(self):
        self._check_against_serial_replay(cache_size=0)

    def test_loop_answered_hits_match_a_serial_replay_at_their_epoch(self):
        # With the cache on, repeats are answered on the event loop while
        # the writer ingests, so the lock-free probe races every ingest; a
        # short switch interval makes the threads interleave finely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            records = self._check_against_serial_replay(cache_size=1024)
        finally:
            sys.setswitchinterval(interval)
        assert any(response["cache_hit"] for _, response in records)

    def _check_against_serial_replay(self, cache_size: int):
        dataset = get_dataset("D1")
        graph = dataset.load()
        base_edges = list(graph.edge_tuples())
        queries = list(
            generate_workload(
                graph, num_queries=6, theta=dataset.default_theta, seed=3
            )
        )
        vertices = list(graph.vertices())
        rng = random.Random(41)
        timestamps = sorted({t for _, _, t in base_edges})
        lo, hi = timestamps[0], timestamps[-1]
        batches = []
        for _ in range(5):
            batch = []
            for _ in range(3):
                u, v = rng.sample(vertices, 2)
                batch.append((u, v, rng.randint(lo, hi)))
            batches.append(batch)

        service = TspgService(graph, cache_size=cache_size)
        records = []
        errors = []
        with boot(service) as st:
            address = st.address

            def query_client():
                try:
                    with TspgClient(address) as client:
                        for _ in range(3):
                            for query in queries:
                                response = client.request({
                                    "source": str(query.source),
                                    "target": str(query.target),
                                    "begin": query.interval.begin,
                                    "end": query.interval.end,
                                    "include_edges": True,
                                })
                                assert response["ok"], response
                                records.append((query, response))
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            def writer_client():
                try:
                    with TspgClient(address) as client:
                        for batch in batches:
                            response = client.request({
                                "op": "ingest",
                                "edges": [list(edge) for edge in batch],
                            })
                            assert response["ok"], response
                            time.sleep(0.01)
                except Exception as exc:
                    errors.append(exc)

            base_epoch = graph.epoch
            threads = [threading.Thread(target=query_client) for _ in range(3)]
            threads.append(threading.Thread(target=writer_client))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors, errors

        # Serial replay: answers at every ingest prefix k = 0 .. len(batches).
        algorithm = get_algorithm("VUG")
        replay_graph = TemporalGraph(edges=base_edges)
        replays = []
        for k in range(len(batches) + 1):
            answers = {}
            for query in queries:
                outcome = algorithm.run(
                    replay_graph, query.source, query.target, query.interval
                )
                answers[query] = (
                    frozenset(outcome.result.edges),
                    outcome.result.num_vertices,
                )
            replays.append(answers)
            if k < len(batches):
                replay_graph.append_edges(batches[k])

        assert len(records) == 3 * 3 * len(queries)
        for query, response in records:
            served = (
                frozenset(tuple(edge) for edge in response["edges"]),
                response["num_vertices"],
            )
            k_lo = response["epoch_before"] - base_epoch
            k_hi = response["epoch_after"] - base_epoch
            assert 0 <= k_lo <= k_hi <= len(batches)
            assert any(
                served == replays[k][query] for k in range(k_lo, k_hi + 1)
            ), (
                f"answer for {query} (epochs {k_lo}..{k_hi}) matches no "
                f"serial replay prefix"
            )
        return records


class TestHandoffStress:
    def test_handed_off_answers_match_a_serial_replay_at_their_epoch(
        self, monkeypatch
    ):
        # Engines that never record a miss always count as quick, so under
        # 10 µs slices nearly every miss starts on the loop, is cut off and
        # is finished on a worker while the writer ingests.
        monkeypatch.setattr(
            TspgService, "record_miss", lambda self, query, seconds: None
        )
        handoffs = []
        note_handoff = ServerStats.note_handoff

        def counting(stats):
            handoffs.append(1)
            note_handoff(stats)

        monkeypatch.setattr(ServerStats, "note_handoff", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            records = TestConcurrentIngestOracle()._check_against_serial_replay(
                cache_size=0
            )
        finally:
            sys.setswitchinterval(interval)
        assert len(handoffs) > len(records) // 2


# ----------------------------------------------------------------------
# the CLI transport, end to end
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _listen_server(argv, **popen_kwargs):
    """Run ``argv`` (a ``tspg serve --listen`` process) and yield it and its address."""
    import os
    import re
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with subprocess.Popen(
        argv, stderr=subprocess.PIPE, env=env, text=True, **popen_kwargs
    ) as process:
        try:
            banner = process.stderr.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            assert match, f"no listen banner in {banner!r}"
            yield process, (match.group(1), int(match.group(2)))
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


_SERVE_D1 = ["serve", "--dataset", "D1", "--listen", "127.0.0.1:0"]


class TestCliListen:
    def test_tspg_serve_listen_round_trip_and_clean_shutdown(self):
        import signal

        with _listen_server(
            [sys.executable, "-m", "repro.cli", *_SERVE_D1]
        ) as (process, address):
            with TspgClient(address) as client:
                query = client.request(
                    {"source": "3", "target": "11", "begin": 5, "end": 40}
                )
                assert query["ok"] and query["num_edges"] > 0
                ingest = client.request(
                    {"op": "ingest", "edges": [["3", "4242", 55]]}
                )
                assert ingest["ok"] and ingest["appended"] == 1
                stats = client.request({"op": "stats"})
                assert stats["ok"]
                assert stats["server"]["connections_active"] == 1
                assert client.quit() == {"ok": True, "op": "quit"}
            process.send_signal(signal.SIGINT)
            code = process.wait(timeout=30)
            summary = process.stderr.read()
        assert code == 0
        assert "served 3 responses to 1 connections" in summary

    def test_sigint_stops_a_server_with_a_client_connected(self):
        # From Python 3.12.1, asyncio.Server.wait_closed() waits for every
        # open connection to drop; the server has to close its sessions
        # first or a connected client keeps it from stopping.
        import signal

        with _listen_server(
            [sys.executable, "-m", "repro.cli", *_SERVE_D1]
        ) as (process, address):
            with TspgClient(address) as client:
                assert client.request({"op": "stats"})["ok"]
                process.send_signal(signal.SIGINT)
                code = process.wait(timeout=10)
            summary = process.stderr.read()
        assert code == 0
        assert "served 1 responses to 1 connections" in summary

    def test_sigint_on_a_worker_thread_stops_an_idle_server(self):
        # The kernel may deliver a process-directed SIGINT to any thread
        # that does not block it.  A helper thread in the server process
        # sends one to a request worker once the test says "go", while the
        # loop sits idle with one connection open and nothing to read.
        import subprocess

        script = (
            "import signal, sys, threading, time\n"
            "from repro import cli\n"
            "def interrupt_a_worker():\n"
            "    sys.stdin.readline()\n"
            "    while True:\n"
            "        workers = [t for t in threading.enumerate()\n"
            "                   if t.name.startswith('tspg-serve_')]\n"
            "        if workers:\n"
            "            signal.pthread_kill(workers[0].ident, signal.SIGINT)\n"
            "            return\n"
            "        time.sleep(0.01)\n"
            "threading.Thread(target=interrupt_a_worker, daemon=True).start()\n"
            f"sys.exit(cli.main({_SERVE_D1!r}))\n"
        )
        with _listen_server(
            [sys.executable, "-c", script], stdin=subprocess.PIPE
        ) as (process, address):
            with TspgClient(address) as client:
                assert client.request({"op": "stats"})["ok"]
                process.stdin.write("go\n")
                process.stdin.flush()
                code = process.wait(timeout=10)
            summary = process.stderr.read()
        assert code == 0
        assert "served 1 responses to 1 connections" in summary


# ----------------------------------------------------------------------
# unit coverage of the protocol helpers
# ----------------------------------------------------------------------


class TestHelpers:
    def test_parse_request_line_kinds(self):
        assert parse_request_line("") == ("blank", None)
        assert parse_request_line("   \n") == ("blank", None)
        assert parse_request_line("# note") == ("blank", None)
        assert parse_request_line('{"op": "quit"}') == ("quit", {"op": "quit"})
        kind, request = parse_request_line('{"op": "stats"}')
        assert kind == "request" and request == {"op": "stats"}
        with pytest.raises(ValueError):
            parse_request_line("nope")
        with pytest.raises(ValueError):
            parse_request_line("[1, 2]")

    @pytest.mark.parametrize("bounds", [
        {"max_line_bytes": 0},
        {"max_line_bytes": -1},
        {"admission_margin_ms": -1.0},
        {"admission_margin_ms": float("nan")},
        {"admission_margin_ms": float("inf")},
    ], ids=["line-0", "line-negative", "margin-negative", "margin-nan", "margin-inf"])
    def test_the_server_rejects_bad_bounds(self, bounds):
        core = RequestCore(TspgService(small_graph()))
        with pytest.raises(ValueError, match=next(iter(bounds))):
            TspgServer(core, **bounds)

    @pytest.mark.parametrize("budget", [-1.0, float("nan"), float("inf")])
    def test_the_core_rejects_a_bad_default_budget(self, budget):
        with pytest.raises(ValueError, match="default_budget_seconds"):
            RequestCore(TspgService(small_graph()), default_budget_seconds=budget)

    def test_latency_histogram_quantiles(self):
        histogram = LatencyHistogram()
        assert histogram.summary() == {"count": 0}
        for ms in (0.2, 0.4, 0.6, 3.0, 40.0):
            histogram.record(ms)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["max_ms"] == 40.0
        assert summary["p50_ms"] <= summary["p99_ms"] <= 50.0
        assert histogram.quantile(1.0) == 40.0

    def test_request_core_stdio_line_handling(self):
        core = RequestCore(TspgService(small_graph()))
        assert core.handle_line("\n") == (None, False)
        assert core.handle_line("# comment\n") == (None, False)
        response, over = core.handle_line('{"op": "quit"}\n')
        assert response == {"ok": True, "op": "quit"} and over is True
        response, over = core.handle_line("not json\n")
        assert response["ok"] is False and over is False
        response, over = core.handle_line(json.dumps(QUERY) + "\n")
        assert response["ok"] is True and over is False
        assert core.stats.protocol_errors == 1

    @pytest.mark.parametrize("entry", [5, "abcd", None, ["s", "t", 2]])
    def test_a_malformed_batch_entry_answers_a_protocol_error(self, entry):
        core = RequestCore(TspgService(small_graph()))
        response = core.respond({"op": "batch", "queries": [entry]})
        assert response == {
            "ok": False,
            "error": "each batch query must be [source, target, begin, end]",
        }
        # The session keeps serving.
        assert core.respond(dict(QUERY))["ok"] is True

    def test_edge_lists_are_fresh_on_every_cache_hit(self):
        core = RequestCore(TspgService(small_graph()))
        request = dict(QUERY, include_edges=True)
        first = core.respond(request)
        expected = [list(edge) for edge in first["edges"]]
        assert expected == sorted(expected, key=lambda e: (e[2], e[0], e[1]))
        # A caller mutating its response must not reach the cached answer.
        first["edges"][0][2] = -1
        first["edges"].append(["x", "y", 0])
        second = core.respond(request)
        assert second["cache_hit"] is True
        assert second["edges"] == expected
