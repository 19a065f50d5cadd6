"""Traced launcher: run ``tspg`` with spans recorded around every layer.

Usage::

    python3 perfbench/launcher.py --spans OUT.json -- serve --dataset D10 ...

Before handing the arguments to :func:`repro.cli.main`, this wraps each
layer's public functions at the attribute its callers resolve at call
time (``vug.py`` imports the phase functions by name, so the phases are
wrapped as ``repro.core.vug.<fn>``).  Spans live in memory and are
written to ``OUT.json`` when the CLI returns (``serve`` returns on
SIGINT).  Nothing under ``src/`` is modified; an untraced server is
booted with ``python3 -m repro.cli`` directly and pays nothing.

A span is ``[name, rid, start, end, self, extra]``: ``rid`` is the
bench-only ``bench_rid`` request field (the server ignores unknown
fields), ``start``/``end`` are ``time.perf_counter()`` readings
(CLOCK_MONOTONIC, so they compare with the load generator's clock),
``self`` is the span minus its child spans on the same thread, and
``extra`` holds counts measured at the same boundary, in the order
:data:`EXTRA_FIELDS` names them.  Spans hold only numbers, strings and
tuples, which the server's garbage collector stops tracking, so a long
traced run does not make its collections slower.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from time import perf_counter

#: The counts each span carries, by position.
EXTRA_FIELDS = {
    "router.submit": ("fallback",),
    "cache.get": ("hit",),
    "cache.rekey": ("dropped",),
    "quickubg.mask": ("window", "gq"),
    "tightubg.tight": ("gq", "gt"),
    "eev.verify": ("gt", "result"),
    "graph.append": ("rows", "append_only"),
    "journal.append": ("bytes",),
}


class Tracer:
    """In-memory span recorder with a per-thread span stack."""

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attribute: str, name: str, extra=None, rid_of=None,
             opens_request: bool = False) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``extra(args, result)`` returns the counts to attach; its own cost
        is charged to the parent as child time, so it never inflates a
        self time.  ``rid_of(args, result)`` names the request a span
        belongs to when the thread has no request context (the parse span
        runs on the event loop, before the request is decoded).
        ``opens_request`` makes the call's second argument (the decoded
        request) the thread's request context while it runs.
        """
        original = getattr(owner, attribute)
        local = self._local
        spans = self.spans
        get_stack = self._stack

        def traced(*args, **kwargs):
            if opens_request:
                request = args[1]
                local.rid = request.get("bench_rid") if isinstance(request, dict) else None
            stack = get_stack()
            frame = [0.0]  # child time accumulated by nested spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rid = getattr(local, "rid", None)
                if opens_request:
                    local.rid = None
            measured = extra(args, result) if extra is not None else None
            if rid_of is not None:
                rid = rid_of(args, result)
            spans.append((name, rid, start, end, end - start - frame[0], measured))
            if stack:
                stack[-1][0] += perf_counter() - start
            return result

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)


def _edges_of(result) -> int:
    graph = result[0] if isinstance(result, tuple) else result
    return graph.num_edges


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (see the module docstring)."""
    from repro.core import vug
    from repro.graph.temporal_graph import TemporalGraph
    from repro.graph.views import GraphView
    from repro.service import server
    from repro.service.cache import ResultCache
    from repro.service.service import TspgService
    from repro.service.sharding import FALLBACK_SHARD, ShardedTspgService
    from repro.store import graph_store, journal
    from repro.store.shard_set import ShardSnapshotSet

    def parse_rid(args, result):
        request = result[1]
        return request.get("bench_rid") if isinstance(request, dict) else None

    tracer.wrap(server, "parse_request_line", "server.parse", rid_of=parse_rid)
    tracer.wrap(server.RequestCore, "respond", "server.respond", opens_request=True)
    tracer.wrap(
        ShardedTspgService, "submit", "router.submit",
        extra=lambda args, result: (int(args[0].route(args[1].interval) == FALLBACK_SHARD),),
    )
    tracer.wrap(TspgService, "submit", "service.submit")
    tracer.wrap(TspgService, "ingest", "service.ingest")
    tracer.wrap(
        ResultCache, "get", "cache.get",
        extra=lambda args, result: (int(result is not None),),
    )
    tracer.wrap(
        ResultCache, "rekey", "cache.rekey",
        extra=lambda args, result: (result,),
    )

    tracer.wrap(vug, "compute_polarity_id_arrays", "quickubg.polarity")

    def mask_counts(args, result):
        lo, hi = args[0].slice_bounds(args[3])
        return (hi - lo, result.num_edges)

    tracer.wrap(vug, "quick_mask_kernel", "quickubg.mask", extra=mask_counts)
    tracer.wrap(vug, "compute_time_stream_common_vertices", "tightubg.tcv")
    tracer.wrap(
        vug, "tight_upper_bound_graph", "tightubg.tight",
        extra=lambda args, result: (args[0].num_edges, result.num_edges),
    )
    tracer.wrap(
        vug, "escaped_edges_verification", "eev.verify",
        extra=lambda args, result: (args[0].num_edges, _edges_of(result)),
    )

    tracer.wrap(
        TemporalGraph, "append_edges", "graph.append",
        extra=lambda args, result: (result.num_rows, int(bool(result.append_only))),
    )
    tracer.wrap(TemporalGraph, "warm_indices", "graph.warm_indices")
    tracer.wrap(GraphView, "extended_with", "views.extend")

    def journal_bytes(args, result):
        try:
            return (os.path.getsize(result or journal.journal_path(args[0])),)
        except OSError:
            return (0,)

    tracer.wrap(journal, "append_journal_delta", "journal.append", extra=journal_bytes)
    tracer.wrap(graph_store, "boot_snapshot", "snapshot.boot")
    tracer.wrap(ShardSnapshotSet, "boot_shard", "snapshot.boot")


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: launcher.py --spans OUT.json -- <tspg arguments>", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[1], argv[3:]
    from repro import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle, separators=(",", ":"))
        os.replace(spans_path + ".tmp", spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
