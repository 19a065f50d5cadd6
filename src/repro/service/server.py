"""The network serving tier: one booted service, many concurrent clients.

``tspg serve`` historically spoke JSONL over stdio to exactly one client.
This module puts the same request loop behind an asyncio TCP front end so
many clients multiplex onto one shared booted service (and its attached
:class:`~repro.service.pool.WorkerPool`), without giving either path its
own protocol implementation:

- :class:`RequestCore` is the transport-independent request handler — it
  owns the JSONL op schema (``query`` / ``batch`` / ``ingest`` / ``stats``
  / ``quit``), the error translation contract, and the per-op latency
  accounting.  The stdio loop in :mod:`repro.cli` and the TCP server below
  both drive this one object, so a protocol fix lands in both transports.
- :class:`TspgServer` is the asyncio front end.  Admission control is
  built from the existing :class:`~repro.core.deadline.Deadline`
  machinery: a request's deadline is stamped at *arrival* (so queue wait
  counts against it), and a request whose deadline expires before a
  worker slot frees up is refused **before any work runs** — the same
  refuse-before-work contract the service itself honours for expired
  deadlines.  A bounded per-client queue gives TCP backpressure (a
  firehose client blocks only its own reader), a global in-flight bound
  refuses excess load outright, and a round-robin fair scheduler hands
  worker slots out per-client so one busy connection cannot starve the
  rest.  A query is decoded once, on the event loop, and answered there
  when the service's readiness verdict finds nothing pending for its
  engine and the answer cached or the engine's last miss no longer than
  one interpreter switch interval — cheaper than the hand-off to a worker
  thread.  Such a miss runs under a slice of that length; one the slice
  cuts off is *handed off* and finished on the worker pool, repeating up
  to one slice of work.  Every other request runs on the worker pool.
  Each client's replies are
  written, in request order, by that connection's one processor
  coroutine with ``drain()`` — a slow consumer stalls only its own
  writes, never the accept loop or other clients.
- :class:`TspgClient` is a small blocking JSONL client (the tests and the
  CI protocol smoke drive the server with it),
  and :class:`ServerThread` runs a server on a background event loop for
  in-process harnesses.

Refusal contract
----------------
Two refusal shapes exist, and they are deliberately distinct:

- **Deadline refusal** (the request carried ``deadline_ms`` /
  ``budget_ms`` and it expired while queued): answered like a timed-out
  query — ``ok: true`` with zero counts, ``timed_out: true`` and
  ``refused: true`` — because the *protocol* succeeded; the caller's
  budget simply ran out before admission, exactly as it may run out
  mid-phase inside the service.
- **Overload refusal** (the global in-flight bound is hit): ``ok: false``
  with ``refused: true`` and ``retryable: true`` — the server did not
  accept the request at all and a retry later may succeed.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import functools
import itertools
import json
import math
import socket
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from ..algorithms import available_algorithms
from ..core.deadline import Deadline
from ..queries.query import TspgQuery
from .pool import WorkerPoolError

__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_MAX_LINE_BYTES",
    "DEFAULT_MAX_PENDING_PER_CLIENT",
    "Handoff",
    "LatencyHistogram",
    "RequestCore",
    "ServerStats",
    "ServerThread",
    "TspgClient",
    "TspgServer",
    "coerce_vertex",
    "parse_request_line",
]

# Bounds chosen for a serving tier, not a bulk loader: a 1 MiB line fits
# thousand-edge ingest batches with room to spare, while still refusing a
# runaway (or adversarial) request before it is buffered whole.
DEFAULT_MAX_LINE_BYTES = 1 << 20
DEFAULT_MAX_INFLIGHT = 64
DEFAULT_MAX_PENDING_PER_CLIENT = 16


def coerce_vertex(label: str, graph) -> object:
    """Interpret a request vertex label as int when the graph uses integer ids.

    ``graph`` only needs ``has_vertex`` — callers pass the *service* (flat
    or sharded), never ``service.graph``, because on a snapshot-booted
    sharded router the ``graph`` accessor would materialise the full-graph
    union just to coerce a label, which ``has_vertex`` answers union-free.
    """
    if graph.has_vertex(label):
        return label
    try:
        as_int = int(label)
    except ValueError:
        return label
    return as_int if graph.has_vertex(as_int) else label


def parse_request_line(line: str):
    """Decode one protocol line into ``(kind, request)``.

    ``kind`` is ``"blank"`` (empty line or ``#`` comment — skip, answer
    nothing), ``"quit"`` (session end requested) or ``"request"``.  Raises
    :class:`ValueError` on malformed JSON or a non-object payload; both
    transports translate that into an ``ok: false`` response and keep the
    session alive.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return "blank", None
    request = json.loads(stripped)
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    if request.get("op") == "quit":
        return "quit", request
    return "request", request


def request_op(request: dict) -> str:
    """The operation a request names (the legacy schema implies it)."""
    operation = request.get("op")
    if operation is None:
        operation = "batch" if "queries" in request else "query"
    return operation


#: Timestamps are stored in int64 columns.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def request_integer(value, name: str) -> int:
    """Decode an integral JSON number (``7`` or ``7.0``).

    Raises :class:`ValueError` for bools, strings, fractional or
    non-finite numbers and anything outside int64 — a bad timestamp fails
    here, at the boundary, instead of overflowing deep in a column.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"{name} {value} is outside the int64 range")
    return value


def request_vertex(value, graph, name: str) -> object:
    """Decode a vertex id: a string label or an integral JSON number.

    Strings go through :func:`coerce_vertex`.  Numbers are decoded by
    :func:`request_integer`, then resolve to the string label ``"7"`` only
    when ``graph`` has that label and no integer ``7`` (the mirror of
    :func:`coerce_vertex`).  Bools, null, fractional numbers, lists and
    objects raise :class:`ValueError` instead of becoming a vertex nobody
    asked for.
    """
    if isinstance(value, str):
        return coerce_vertex(value, graph)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a string or an integer, got {value!r}")
    vertex = request_integer(value, name)
    if not graph.has_vertex(vertex) and graph.has_vertex(str(vertex)):
        return str(vertex)
    return vertex


def request_milliseconds(value, name: str) -> float:
    """Decode a finite JSON number of milliseconds; :class:`ValueError` otherwise."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):
            milliseconds = float(value)
            if math.isfinite(milliseconds):
                return milliseconds
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def arrival_deadline(request: dict) -> Optional[Deadline]:
    """Stamp a request's budget against the clock *now*, at arrival.

    Queries carry ``deadline_ms``, batches ``budget_ms``.  The network
    tier stamps the deadline when the request is read off the socket, so
    time spent waiting for admission counts against the caller's budget —
    that is what makes refuse-before-work meaningful under load.  Raises
    :class:`ValueError` when the budget is not a finite number.
    """
    operation = request_op(request)
    raw = None
    if operation == "query":
        key = "deadline_ms"
        raw = request.get(key)
    elif operation == "batch":
        key = "budget_ms"
        raw = request.get(key)
    if raw is None:
        return None
    return Deadline.after(request_milliseconds(raw, key) / 1000.0)


def check_at_least_one(value: int, name: str) -> None:
    """The bound on counts and sizes: :class:`ValueError` below 1."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def check_finite_non_negative(value: Optional[float], name: str) -> None:
    """The bound on budgets and margins: ``None``, or finite and >= 0."""
    if value is not None and not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite, non-negative number, got {value}")


# ----------------------------------------------------------------------
# latency + counter surface
# ----------------------------------------------------------------------

_BUCKET_BOUNDS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class LatencyHistogram:
    """Fixed log-spaced latency buckets (milliseconds), thread-safe.

    Quantiles are read off the bucket upper edges (the exact maximum is
    tracked separately), which is the usual serving-histogram trade: O(1)
    memory per op regardless of traffic, at ~bucket-width resolution.
    """

    __slots__ = ("_lock", "_counts", "_count", "_sum", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(_BUCKET_BOUNDS_MS) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def record(self, elapsed_ms: float) -> None:
        index = bisect.bisect_left(_BUCKET_BOUNDS_MS, elapsed_ms)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += elapsed_ms
            if elapsed_ms > self._max:
                self._max = elapsed_ms

    @property
    def count(self) -> int:
        return self._count

    def quantile(self, q: float) -> float:
        """The bucket upper edge at quantile ``q`` (max for the top bucket)."""
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= rank:
                    if index >= len(_BUCKET_BOUNDS_MS):
                        return self._max
                    return min(_BUCKET_BOUNDS_MS[index], self._max)
            return self._max

    def summary(self) -> Dict[str, object]:
        with self._lock:
            count, total, peak = self._count, self._sum, self._max
            counts = list(self._counts)
        if count == 0:
            return {"count": 0}
        buckets = [
            [(_BUCKET_BOUNDS_MS[i] if i < len(_BUCKET_BOUNDS_MS) else None), n]
            for i, n in enumerate(counts)
            if n
        ]
        return {
            "count": count,
            "mean_ms": round(total / count, 3),
            "p50_ms": round(self.quantile(0.50), 3),
            "p99_ms": round(self.quantile(0.99), 3),
            "max_ms": round(peak, 3),
            "buckets_ms": buckets,
        }


class ServerStats:
    """Serving-tier counters surfaced by the ``stats`` op.

    One instance per :class:`RequestCore`; the TCP server shares it, so a
    stdio session reports the same schema with the connection counters at
    zero (the degenerate single-client case).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.connections_opened = 0
        self.connections_active = 0
        self.requests_admitted = 0
        self.responses_sent = 0
        self.refused_deadline = 0
        self.refused_overload = 0
        self.protocol_errors = 0
        #: Queries the event loop started and a worker finished (their
        #: inline slice cut them off).
        self.handed_off = 0
        self._histograms: Dict[str, LatencyHistogram] = {}

    def note_connection_opened(self) -> None:
        with self._lock:
            self.connections_opened += 1
            self.connections_active += 1

    def note_connection_closed(self) -> None:
        with self._lock:
            self.connections_active -= 1

    def note_refusal(self, kind: str) -> None:
        with self._lock:
            if kind == "deadline":
                self.refused_deadline += 1
            else:
                self.refused_overload += 1

    def note_protocol_error(self) -> None:
        with self._lock:
            self.protocol_errors += 1

    def note_handoff(self) -> None:
        with self._lock:
            self.handed_off += 1

    def note_response(self) -> None:
        with self._lock:
            self.responses_sent += 1

    def note_op(self, operation: str, elapsed_ms: float) -> None:
        with self._lock:
            self.requests_admitted += 1
            histogram = self._histograms.get(operation)
            if histogram is None:
                histogram = self._histograms[operation] = LatencyHistogram()
        histogram.record(elapsed_ms)

    @property
    def refusals(self) -> int:
        return self.refused_deadline + self.refused_overload

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            histograms = dict(self._histograms)
            payload: Dict[str, object] = {
                "connections_opened": self.connections_opened,
                "connections_active": self.connections_active,
                "requests_admitted": self.requests_admitted,
                "responses_sent": self.responses_sent,
                "refused_deadline": self.refused_deadline,
                "refused_overload": self.refused_overload,
                "protocol_errors": self.protocol_errors,
                "handed_off": self.handed_off,
            }
        payload["latency_ms"] = {
            operation: histogram.summary()
            for operation, histogram in sorted(histograms.items())
        }
        return payload


# ----------------------------------------------------------------------
# the shared request core
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Handoff:
    """A query its inline slice cut off: :meth:`RequestCore.finish` ends it.

    Carries what the first run already settled — the decoded query, the
    request's own deadline, the epoch stamped before the run and the
    instant :meth:`RequestCore.respond` started — so the worker that
    finishes the query neither decodes nor looks it up again.
    """

    request: dict
    query: TspgQuery
    algorithm: Optional[str]
    deadline: Optional[Deadline]
    epoch_before: int
    started: float


class RequestCore:
    """Transport-independent JSONL request handling over one booted service.

    Both ``tspg serve`` transports (stdio and ``--listen``) hold exactly
    one of these.  It validates and dispatches the op schema, translates
    the serving error contract (worker death is retryable, snapshot
    corruption and malformed requests are ``ok: false``, the session
    always survives), and records per-op latency into :attr:`stats`.
    """

    def __init__(
        self,
        service,
        *,
        default_workers: int = 1,
        default_budget_seconds: Optional[float] = None,
        stats: Optional[ServerStats] = None,
    ) -> None:
        check_finite_non_negative(default_budget_seconds, "default_budget_seconds")
        self.service = service
        self.default_workers = default_workers
        self.default_budget_seconds = default_budget_seconds
        self.stats = stats or ServerStats()
        self._gauges: Optional[Callable[[], Dict[str, int]]] = None

    def attach_gauges(self, gauges: Callable[[], Dict[str, int]]) -> None:
        """Let the TCP server contribute live queue/in-flight gauges."""
        self._gauges = gauges

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------
    def parse_query(self, request: dict) -> TspgQuery:
        """Decode one query request (or one batch entry)."""
        missing = [
            key for key in ("source", "target", "begin", "end") if key not in request
        ]
        if missing:
            raise ValueError(f"query request is missing {', '.join(missing)}")
        return TspgQuery(
            request_vertex(request["source"], self.service, "source"),
            request_vertex(request["target"], self.service, "target"),
            (
                request_integer(request["begin"], "begin"),
                request_integer(request["end"], "end"),
            ),
        )

    def triage(
        self, request: dict, slice_seconds: float
    ) -> Tuple[Optional[TspgQuery], bool]:
        """Decode a ``query`` op once and say whether an event loop may answer it.

        Returns ``(query, inline)``.  ``query`` is the decoded query of a
        well-formed ``query`` op with a known algorithm, and ``None`` for
        anything else (:meth:`respond` decodes and reports those).
        ``inline`` is the service's lock-free readiness verdict
        (:meth:`~repro.service.TspgService.ready_within`) for a run of
        ``slice_seconds``.  Never raises, takes no lock and counts nothing.
        """
        if request_op(request) != "query":
            return None, False
        algorithm = request.get("algorithm")
        if algorithm is not None and algorithm not in available_algorithms():
            return None, False
        try:
            query = self.parse_query(request)
        except (KeyError, TypeError, ValueError):
            return None, False
        return query, self.service.ready_within(query, algorithm, slice_seconds)

    # ------------------------------------------------------------------
    # the line-level protocol (stdio drives this directly)
    # ------------------------------------------------------------------
    def handle_line(self, line: str) -> Tuple[Optional[dict], bool]:
        """Answer one raw protocol line: ``(response | None, session_over)``.

        Blank lines and ``#`` comments answer nothing and keep going —
        interactive sessions produce them as keystroke artifacts, not as
        requests.  ``quit`` is acknowledged (so shutdown is observable,
        symmetric with every other op) and ends the session; EOF is the
        transport's job and ends it without an ack.
        """
        try:
            kind, request = parse_request_line(line)
            if kind == "blank":
                return None, False
            if kind == "quit":
                return {"ok": True, "op": "quit"}, True
            deadline = arrival_deadline(request)
        except (TypeError, ValueError) as exc:
            self.stats.note_protocol_error()
            return {"ok": False, "error": str(exc)}, False
        if deadline is not None and deadline.expired():
            # Refuse before work, as the TCP tier's admission does.
            self.stats.note_refusal("deadline")
            return self.deadline_refusal(request), False
        return self.respond(request, deadline), False

    def respond(
        self,
        request: dict,
        deadline: Optional[Deadline] = None,
        *,
        query: Optional[TspgQuery] = None,
        slice_seconds: Optional[float] = None,
    ) -> Union[dict, Handoff]:
        """Handle one decoded request, translating errors per the contract.

        ``query`` is the request's query when the caller already decoded
        it (:meth:`triage`).  With ``slice_seconds`` a query's miss runs
        under a slice of that length (see
        :meth:`~repro.service.TspgService.submit`); when the slice cuts
        it off before ``deadline`` expires, the answer is a
        :class:`Handoff` that :meth:`finish` completes, and nothing is
        recorded for the request until then.  Runs once per request.
        """
        return self._translated(
            self.handle, request,
            deadline=deadline, query=query, slice_seconds=slice_seconds,
        )

    def finish(self, handoff: Handoff) -> dict:
        """Complete a query its slice cut off (run it on a worker thread).

        Runs the query to the end under the request's own deadline,
        without a second decode, cache lookup or :meth:`respond` call,
        memoizes the answer and records the request once, with its
        latency counted from the start of :meth:`respond`.  Errors are
        translated as in :meth:`respond`.
        """
        return self._translated(self._finish_query, handoff)

    def _translated(self, step: Callable[..., object], *args, **kwargs):
        """Run ``step``, answering the serving error contract's errors."""
        from ..store import SnapshotError  # deferred: service <-> store cycle

        try:
            return step(*args, **kwargs)
        except WorkerPoolError as exc:
            # A worker died mid-batch.  The pool has already discarded its
            # broken worker set and will fork a fresh one on the next
            # batch — the session must survive to serve it.
            return {"ok": False, "error": str(exc), "retryable": True}
        except SnapshotError as exc:
            # A worker failed to boot (snapshot deleted/rewritten under a
            # live session).  Only EOF or quit may end the session; the
            # operator decides whether to re-warm.
            return {"ok": False, "error": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": str(exc)}

    # ------------------------------------------------------------------
    # op dispatch
    # ------------------------------------------------------------------
    def handle(
        self,
        request: dict,
        *,
        deadline: Optional[Deadline] = None,
        query: Optional[TspgQuery] = None,
        slice_seconds: Optional[float] = None,
    ) -> Union[dict, Handoff]:
        """Answer one decoded JSONL request (raises on protocol errors)."""
        started = time.perf_counter()
        operation = request_op(request)
        algorithm = request.get("algorithm")
        if algorithm is not None and algorithm not in available_algorithms():
            raise ValueError(
                f"unknown algorithm {algorithm!r}; available: "
                f"{', '.join(available_algorithms())}"
            )
        if operation == "query":
            response = self._handle_query(
                request, algorithm, deadline, query, slice_seconds, started
            )
            if isinstance(response, Handoff):
                return response
        elif operation == "batch":
            response = self._handle_batch(request, algorithm, deadline)
        elif operation == "ingest":
            response = self._handle_ingest(request)
        elif operation == "stats":
            response = self._handle_stats()
        else:
            raise ValueError(
                f"unknown op {operation!r} "
                "(expected query, batch, ingest, stats or quit)"
            )
        self._note_handled(operation, started)
        return response

    def _note_handled(self, operation: str, started: float) -> None:
        """Record one answered request."""
        self.stats.note_op(operation, (time.perf_counter() - started) * 1000.0)

    def _handle_query(
        self,
        request: dict,
        algorithm: Optional[str],
        deadline: Optional[Deadline],
        query: Optional[TspgQuery],
        slice_seconds: Optional[float],
        started: float,
    ) -> Union[dict, Handoff]:
        if query is None:
            query = self.parse_query(request)
        if deadline is None:
            deadline = arrival_deadline(request)
        # Epoch stamps bracket the answer so a network client can replay
        # it against a serial oracle: the result is bit-identical to the
        # graph at *some* epoch in [epoch_before, epoch_after].
        epoch_before = self.service.epoch
        outcome = self._submit(
            query, algorithm,
            # An inline query found its engine settled when it was triaged.
            slice_seconds is not None
            or self.service.ready_within(query, algorithm, math.inf),
            deadline=deadline, slice_seconds=slice_seconds,
        )
        if (
            slice_seconds is not None
            and outcome.timed_out
            and (deadline is None or not deadline.expired())
        ):
            # Cut off by its slice, not by its deadline: a worker finishes it.
            return Handoff(request, query, algorithm, deadline, epoch_before, started)
        return self._query_response(request, outcome, epoch_before)

    def _finish_query(self, handoff: Handoff) -> dict:
        outcome = self._submit(
            handoff.query, handoff.algorithm, True,
            deadline=handoff.deadline, lookup=False,
        )
        response = self._query_response(
            handoff.request, outcome, handoff.epoch_before
        )
        self._note_handled("query", handoff.started)
        return response

    def _submit(
        self, query: TspgQuery, algorithm: Optional[str], settled: bool, **options
    ):
        """``service.submit``, recording how long a miss held this thread.

        Only a miss whose engine was ``settled`` — nothing pending, so it
        built no algorithm instance, rewarm or view column first — is
        recorded: one-off work says nothing about the engine's next miss.
        A run its slice or deadline cut off records the time it held the
        thread, which is at least that slice.
        """
        began = time.perf_counter()
        outcome = self.service.submit(query, algorithm, **options)
        if settled and not outcome.extras.get("cache_hit"):
            self.service.record_miss(query, time.perf_counter() - began)
        return outcome

    def _query_response(self, request: dict, outcome, epoch_before: int) -> dict:
        response = {
            "ok": True,
            "op": "query",
            "algorithm": outcome.algorithm,
            "num_vertices": outcome.result.num_vertices,
            "num_edges": outcome.result.num_edges,
            "elapsed_ms": round(outcome.elapsed_seconds * 1000.0, 3),
            "timed_out": outcome.timed_out,
            "cache_hit": bool(outcome.extras.get("cache_hit")),
            "epoch_before": epoch_before,
            "epoch_after": self.service.epoch,
        }
        if request.get("include_edges"):
            # Deterministic order so two replays of the same answer are
            # byte-identical on the wire, not just set-equal.  Fresh lists:
            # a caller mutating the response cannot touch a cached answer.
            response["edges"] = [
                [u, v, t] for u, v, t in outcome.result.ordered_edges
            ]
        return response

    def _handle_batch(
        self, request: dict, algorithm: Optional[str], deadline: Optional[Deadline]
    ) -> dict:
        raw = request.get("queries")
        if not isinstance(raw, list) or not raw:
            raise ValueError("batch request needs a non-empty 'queries' list")
        queries = []
        for entry in raw:
            if isinstance(entry, dict):
                queries.append(self.parse_query(entry))
            else:
                if not isinstance(entry, (list, tuple)) or len(entry) != 4:
                    raise ValueError(
                        "each batch query must be [source, target, begin, end]"
                    )
                queries.append(
                    self.parse_query(
                        dict(zip(("source", "target", "begin", "end"), entry))
                    )
                )
        budget = self.default_budget_seconds
        if request.get("budget_ms") is not None:
            budget = request_milliseconds(request["budget_ms"], "budget_ms") / 1000.0
        if deadline is not None:
            # The arrival-stamped deadline already accounts for queue
            # wait; re-deriving from budget_ms here would restart the
            # clock and hand queued batches a fresh budget.
            budget = None
        workers = request_integer(
            request.get("workers", self.default_workers), "workers"
        )
        report = self.service.run_batch(
            queries,
            algorithm,
            max_workers=workers,
            time_budget_seconds=budget,
            deadline=deadline,
        )
        row = report.as_row()
        row["num_timed_out"] = report.num_timed_out
        return {"ok": True, "op": "batch", **row}

    def _handle_ingest(self, request: dict) -> dict:
        raw = request.get("edges")
        if not isinstance(raw, list) or not raw:
            raise ValueError("ingest request needs a non-empty 'edges' list")
        edges = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ValueError(
                    "each ingested edge must be [source, target, timestamp]"
                )
            source, target, timestamp = entry
            edges.append((
                request_vertex(source, self.service, "source"),
                request_vertex(target, self.service, "target"),
                request_integer(timestamp, "timestamp"),
            ))
        delta = self.service.ingest(edges)
        return {
            "ok": True,
            "op": "ingest",
            "appended": delta.num_rows,
            "epoch": delta.new_epoch,
            "append_only": bool(delta.append_only),
            "new_vertices": [str(vertex) for vertex in delta.new_vertices],
        }

    def _handle_stats(self) -> dict:
        stats = self.service.cache_stats()
        response = {
            "ok": True,
            "op": "stats",
            "epoch": self.service.epoch,
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": stats.size,
            },
            "index": dict(self.service.index_stats),
        }
        pool = self.service.pool
        if pool is not None:
            response["pool"] = pool.stats()
        server = self.stats.as_dict()
        if self._gauges is not None:
            server.update(self._gauges())
        else:
            server.setdefault("queue_depth", 0)
            server.setdefault("inflight", 0)
        response["server"] = server
        return response

    # ------------------------------------------------------------------
    # refusals
    # ------------------------------------------------------------------
    def deadline_refusal(self, request: dict) -> dict:
        """The refuse-before-work answer for an expired-in-queue request."""
        operation = request_op(request)
        if operation == "query":
            return {
                "ok": True,
                "op": "query",
                "algorithm": request.get("algorithm")
                or self.service.default_algorithm,
                "num_vertices": 0,
                "num_edges": 0,
                "elapsed_ms": 0.0,
                "timed_out": True,
                "cache_hit": False,
                "refused": True,
            }
        if operation == "batch":
            queries = request.get("queries")
            total = len(queries) if isinstance(queries, list) else 0
            return {
                "ok": True,
                "op": "batch",
                "queries": total,
                "completed": 0,
                "timed_out": True,
                "refused": True,
            }
        return {
            "ok": False,
            "refused": True,
            "error": f"deadline expired before {operation!r} was admitted",
        }

    def overload_refusal(self, max_inflight: int) -> dict:
        return {
            "ok": False,
            "refused": True,
            "retryable": True,
            "error": (
                f"server overloaded: {max_inflight} requests already queued "
                "or running (max-inflight); retry later"
            ),
        }


# ----------------------------------------------------------------------
# fair scheduling
# ----------------------------------------------------------------------


class _FairScheduler:
    """Round-robin worker-slot allocator, one waiter queue per client.

    Lives entirely on the event loop (no locks).  ``permits`` is the
    number of concurrently running requests; when a slot frees, the next
    grant rotates across *sessions* rather than draining whichever
    session queued the most waiters — a firehose client gets one turn per
    rotation, same as everyone else.
    """

    def __init__(self, permits: int) -> None:
        if permits < 1:
            raise ValueError("permits must be at least 1")
        self._free = permits
        self._waiters: Dict[object, Deque[asyncio.Future]] = {}
        self._rotation: Deque[object] = deque()

    def try_acquire(self) -> bool:
        """Take a slot now if one is free and nobody is waiting for it."""
        if self._free > 0 and not self._rotation:
            self._free -= 1
            return True
        return False

    async def acquire(self, session_key: object) -> None:
        if self.try_acquire():
            return
        future = asyncio.get_running_loop().create_future()
        queue = self._waiters.get(session_key)
        if queue is None:
            queue = self._waiters[session_key] = deque()
            self._rotation.append(session_key)
        elif session_key not in self._rotation:
            self._rotation.append(session_key)
        queue.append(future)
        try:
            await future
        except asyncio.CancelledError:
            if future.done() and not future.cancelled():
                # Granted and cancelled in the same tick (deadline fired
                # just as the slot arrived): hand the slot back.
                self.release()
            else:
                future.cancel()
            raise

    def release(self) -> None:
        if not self._grant_next():
            self._free += 1

    def _grant_next(self) -> bool:
        while self._rotation:
            session_key = self._rotation.popleft()
            queue = self._waiters.get(session_key)
            granted = False
            while queue:
                future = queue.popleft()
                if not future.done():
                    future.set_result(None)
                    granted = True
                    break
            if queue:
                self._rotation.append(session_key)
            else:
                self._waiters.pop(session_key, None)
            if granted:
                return True
        return False


# ----------------------------------------------------------------------
# the asyncio server
# ----------------------------------------------------------------------

_QUIT = object()
_CLOSE = object()


class _Session:
    """One connected client: its writer and bounded pending queue.

    ``pending`` carries, in arrival order, ``(request, deadline)`` pairs
    to run, ready-made replies (dicts) the reader produced itself, and the
    ``_QUIT`` / ``_CLOSE`` sentinels.  Only the session's processor
    writes to the socket, so replies leave in the order requests came in.
    """

    __slots__ = ("key", "writer", "pending", "alive")

    def __init__(self, key: int, writer: asyncio.StreamWriter, bound: int) -> None:
        self.key = key
        self.writer = writer
        self.pending: asyncio.Queue = asyncio.Queue(maxsize=bound)
        self.alive = True

    async def send(self, response: dict) -> None:
        if not self.alive:
            return
        data = (json.dumps(response) + "\n").encode("utf-8")
        try:
            # drain() is the slow-client isolation: a consumer that stops
            # reading fills its own socket buffer and stalls only this
            # session's processor.
            self.writer.write(data)
            await self.writer.drain()
        except (ConnectionError, OSError):
            self.alive = False


class TspgServer:
    """Asyncio TCP front end multiplexing JSONL clients onto one core.

    Per connection, a *reader* coroutine parses length-delimited lines and
    feeds a bounded pending queue (blocking the reader — TCP backpressure
    — when the client outruns the server), and a *processor* coroutine
    dequeues, passes admission control, runs the request and writes the
    response.  A query leaves the loop only when it has to: the loop
    answers it itself when :meth:`RequestCore.triage` finds its engine
    ready (nothing to build; the answer cached, or the last miss no
    longer than ``sys.getswitchinterval()``), running a miss under a
    slice of one switch interval — already the longest a busy worker
    thread keeps the loop from stamping arrivals — and then yields the
    loop, so a backlog takes turns with other sessions.  A query the
    slice cuts off before its own deadline is handed off
    (``stats.server.handed_off``): :meth:`RequestCore.finish` completes
    it on the bounded thread pool, from the start, without a second
    decode, lookup or :meth:`RequestCore.respond`.  Queries that are not
    ready, batches, ingests and ``stats`` run on the pool.  Replies the
    reader makes itself (framing errors, bad budgets, overload refusals)
    queue behind the requests before them.  Admission control:

    - a request with a deadline that has already expired, or that expires
      while waiting for a worker slot, is refused before any work runs
      (a handed-off query included);
    - when ``queue_depth`` reaches ``max_inflight`` new requests are
      refused immediately (``retryable: true``);
    - worker slots rotate round-robin across connections
      (:class:`_FairScheduler`).
    """

    def __init__(
        self,
        core: RequestCore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_pending_per_client: int = DEFAULT_MAX_PENDING_PER_CLIENT,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        admission_margin_ms: float = 0.0,
    ) -> None:
        check_at_least_one(workers, "workers")
        check_at_least_one(max_inflight, "max_inflight")
        check_at_least_one(max_pending_per_client, "max_pending_per_client")
        check_at_least_one(max_line_bytes, "max_line_bytes")
        check_finite_non_negative(admission_margin_ms, "admission_margin_ms")
        self._core = core
        self._host = host
        self._port = port
        self._workers = workers
        self._max_inflight = max_inflight
        self._max_pending = max_pending_per_client
        self._max_line_bytes = max_line_bytes
        # Optional safety margin: refuse when the remaining budget is too
        # small to plausibly finish, not merely when it is already zero.
        self._admission_margin = admission_margin_ms / 1000.0
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="tspg-serve"
        )
        self._scheduler = _FairScheduler(workers)
        self._session_keys = itertools.count(1)
        self._sessions: set = set()
        self._conn_tasks: set = set()
        self._queued = 0
        self._inflight = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._closing = False
        core.attach_gauges(
            lambda: {"queue_depth": self.queue_depth, "inflight": self._inflight}
        )

    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServerStats:
        return self._core.stats

    @property
    def queue_depth(self) -> int:
        """Requests admitted past parsing but not yet completed.

        ``_queued`` covers a request's whole lifetime (the processor
        decrements it after the response is computed), so it already
        includes the ``_inflight`` subset that is actually running.
        """
        return self._queued

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=self._max_line_bytes,
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled; the caller then runs :meth:`aclose`.

        Not ``asyncio.Server.serve_forever``: from Python 3.12.1 that one
        answers a cancel by awaiting ``wait_closed()``, which waits for
        every open connection to drop, so a connected client would keep
        the server from stopping.
        """
        if self._server is None:
            await self.start()
        await asyncio.get_running_loop().create_future()

    async def aclose(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
        # Closing the transports EOFs every reader; the handlers then
        # drain their processors and exit on their own.  This comes
        # before wait_closed(), which (from Python 3.12.1) returns only
        # once every connection has dropped.
        for session in list(self._sessions):
            session.alive = False
            with contextlib.suppress(Exception):
                session.writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closing:
            # Accepted just before aclose() stopped the listener, but
            # started after it closed the open sessions.
            writer.close()
            return
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        session = _Session(next(self._session_keys), writer, self._max_pending)
        self._sessions.add(session)
        self.stats.note_connection_opened()
        processor = asyncio.get_running_loop().create_task(
            self._process_session(session)
        )
        try:
            await self._read_session(reader, session)
        finally:
            # EOF and quit converge here: hand the processor the close
            # sentinel, let it finish everything already admitted, then
            # tear the connection down — the symmetric shutdown path.
            await session.pending.put(_CLOSE)
            try:
                await processor
            finally:
                self._sessions.discard(session)
                self.stats.note_connection_closed()
                with contextlib.suppress(Exception):
                    writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                if task is not None:
                    self._conn_tasks.discard(task)

    async def _read_session(
        self, reader: asyncio.StreamReader, session: _Session
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                self.stats.note_protocol_error()
                await session.pending.put(
                    {
                        "ok": False,
                        "error": (
                            f"request line exceeds {self._max_line_bytes} "
                            "bytes; closing connection"
                        ),
                    }
                )
                return
            except (ConnectionError, OSError):
                return
            if not line:
                return  # EOF
            if not line.endswith(b"\n"):
                # The peer disconnected mid-request; the torn fragment was
                # never a complete protocol line, so drop it silently.
                return
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                self.stats.note_protocol_error()
                await session.pending.put(
                    {"ok": False, "error": "request line is not valid UTF-8"}
                )
                continue
            try:
                kind, request = parse_request_line(text)
            except ValueError as exc:
                self.stats.note_protocol_error()
                await session.pending.put({"ok": False, "error": str(exc)})
                continue
            if kind == "blank":
                continue
            if kind == "quit":
                # Routed through the pending queue so the ack follows every
                # response this client already has in flight, in order.
                await session.pending.put(_QUIT)
                return
            try:
                deadline = arrival_deadline(request)
            except (TypeError, ValueError) as exc:
                self.stats.note_protocol_error()
                await session.pending.put({"ok": False, "error": str(exc)})
                continue
            if self.queue_depth >= self._max_inflight:
                self.stats.note_refusal("overload")
                await session.pending.put(
                    self._core.overload_refusal(self._max_inflight)
                )
                continue
            self._queued += 1
            # Bounded: when this client has max_pending requests waiting,
            # the reader (and therefore the TCP window) stalls — that is
            # the backpressure, and it never touches other sessions.
            await session.pending.put((request, deadline))

    async def _process_session(self, session: _Session) -> None:
        while True:
            item = await session.pending.get()
            if item is _CLOSE:
                return
            if item is _QUIT:
                await session.send({"ok": True, "op": "quit"})
                return
            if isinstance(item, dict):
                # A reply the reader made itself; it never entered the
                # queue_depth count.
                response = item
            else:
                request, deadline = item
                try:
                    response = await self._admit_and_run(
                        session, request, deadline
                    )
                except Exception as exc:  # unexpected: answer, never kill the loop
                    response = {"ok": False, "error": f"internal error: {exc!r}"}
                finally:
                    self._queued -= 1
            await session.send(response)
            self.stats.note_response()

    async def _admit_and_run(
        self, session: _Session, request: dict, deadline: Optional[Deadline]
    ) -> dict:
        if deadline is not None:
            if deadline.remaining() - self._admission_margin <= 0:
                self.stats.note_refusal("deadline")
                return self._core.deadline_refusal(request)
        # A busy worker thread already keeps the loop from stamping
        # arrivals for up to one switch interval; an inline run is held to
        # the same bound.
        slice_seconds = sys.getswitchinterval()
        query, inline = self._core.triage(request, slice_seconds)
        if inline:
            self._inflight += 1
            try:
                answer = self._core.respond(
                    request, deadline, query=query, slice_seconds=slice_seconds
                )
            finally:
                self._inflight -= 1
            if not isinstance(answer, Handoff):
                # Yield once: a session with a backlog of inline answers
                # must let the other sessions' requests in between its own.
                await asyncio.sleep(0)
                return answer
            self.stats.note_handoff()
            work = functools.partial(self._core.finish, answer)
        else:
            work = functools.partial(
                self._core.respond, request, deadline, query=query
            )
        # A free slot nobody is waiting for is taken without wait_for,
        # which would wrap the acquire in a new Task and a timer.
        if not self._scheduler.try_acquire():
            if deadline is None:
                await self._scheduler.acquire(session.key)
            else:
                try:
                    await asyncio.wait_for(
                        self._scheduler.acquire(session.key),
                        timeout=deadline.remaining() - self._admission_margin,
                    )
                except asyncio.TimeoutError:
                    self.stats.note_refusal("deadline")
                    return self._core.deadline_refusal(request)
        self._inflight += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, work
            )
        finally:
            self._inflight -= 1
            self._scheduler.release()


# ----------------------------------------------------------------------
# in-process lifecycle + blocking client
# ----------------------------------------------------------------------


class ServerThread:
    """Run a :class:`TspgServer` on a background event loop.

    The harness side of the tier: the tests boot one of these, connect
    :class:`TspgClient`s against :attr:`address`, and tear it down with
    :meth:`stop` (or the context manager).
    """

    def __init__(self, core: RequestCore, **server_kwargs) -> None:
        self._core = core
        self._server_kwargs = server_kwargs
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[TspgServer] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="tspg-server",
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            self._thread.join(timeout=10)
            raise RuntimeError(
                f"server failed to start: {self._startup_error!r}"
            ) from self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.server = TspgServer(self._core, **self._server_kwargs)
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            await self.server.aclose()

    @property
    def address(self) -> Tuple[str, int]:
        assert self.server is not None
        return self.server.address

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class TspgClient:
    """A small blocking JSONL client for the TCP serving tier.

    Speaks exactly the protocol the server does: one JSON object per
    line in each direction.  :meth:`request` is the lockstep path;
    :meth:`send` + :meth:`recv` allow pipelining (the server answers a
    connection's requests in order).
    """

    def __init__(self, address: Tuple[str, int], timeout: Optional[float] = 30.0) -> None:
        host, port = address
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def send(self, request: dict) -> None:
        self._file.write((json.dumps(request) + "\n").encode("utf-8"))
        self._file.flush()

    def send_raw(self, data: bytes, flush: bool = True) -> None:
        """Write raw bytes (protocol-conformance tests forge torn frames)."""
        self._file.write(data)
        if flush:
            self._file.flush()

    def recv(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def request(self, request: dict) -> dict:
        self.send(request)
        return self.recv()

    def request_pipelined(self, requests: List[dict]) -> List[dict]:
        for request in requests:
            self._file.write((json.dumps(request) + "\n").encode("utf-8"))
        self._file.flush()
        return [self.recv() for _ in requests]

    def quit(self) -> dict:
        return self.request({"op": "quit"})

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._file.close()
        with contextlib.suppress(OSError):
            self._sock.close()

    def __enter__(self) -> "TspgClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
