"""One seeded differential oracle over every ``tspg serve`` boot.

The paper's contract is that VUG returns the exact tspG.  This file
replays one generated query/ingest trace through every configuration
``tspg serve`` can boot and compares every served answer with
:func:`~repro.analysis.oracle.brute_force_tspg` on the graph at the
answer's stamped epoch.  The cells are the product of

* five boots — ``--edge-list``, ``--snapshot``, ``--snapshot --mmap``,
  ``--shard-snapshots`` and ``--shard-snapshots --mmap`` — each parsed by
  ``cli.build_parser()`` and booted by ``cli._serve_service``, so a cell
  cannot drift from the CLI;
* a result cache of 0 or 64 entries;
* two transports — stdio (``RequestCore.handle_line``) and TCP
  (``ServerThread`` + ``TspgClient``).

Every ingest mixes rows past the graph's span, rows inside it, and a
direct edge ``(s, t, τ)`` inside the windows of the two queries asked
just before it, which the trace then asks again: a cache that kept an
answer an ingest changed serves a stale answer there.  After the trace,
each cell answers the queries through ``run_batch`` serially and over one
shared ``WorkerPool`` (the wire ``batch`` op returns only aggregates),
the two mmap boots answer every registry algorithm over TCP, and each
file-backed cell boots again from its files, which must replay the
ingest journal.

A mismatch names the seed, the cell, the request index and the ingests
applied before it; :data:`SEED` replays the same trace.
"""

from __future__ import annotations

import json
import random
import shutil

import pytest

from repro import cli
from repro.algorithms import available_algorithms
from repro.analysis.oracle import brute_force_tspg
from repro.graph.generators import uniform_random_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.queries.workload import generate_workload
from repro.service import RequestCore, ServerThread, TspgClient

SEED = 1
NUM_VERTICES, NUM_EDGES, NUM_TIMESTAMPS = 20, 200, 20
NUM_QUERIES, THETA = 16, 14
#: Queries asked between two ingests.
QUERIES_PER_INGEST = 4
NUM_SHARDS, SHARD_OVERLAP = 3, 3
#: Generous: a query must never time out, but it still carries a deadline.
DEADLINE_MS = 60_000

BOOTS = ("edge-list", "snapshot", "snapshot-mmap", "shards", "shards-mmap")
MMAP_BOOTS = ("snapshot-mmap", "shards-mmap")
CELLS = [
    (boot, cache_size, transport)
    for boot in BOOTS
    for cache_size in (0, 64)
    for transport in ("stdio", "tcp")
]


class Trace:
    """A seeded graph plus an interleaved query/ingest trace over it."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        graph = uniform_random_temporal_graph(
            NUM_VERTICES, NUM_EDGES, NUM_TIMESTAMPS, seed=seed
        )
        self.seed = seed
        self.base_edges = sorted(graph.edge_tuples())
        self.queries = list(
            generate_workload(graph, NUM_QUERIES, THETA, seed=seed)
        )
        present = set(self.base_edges)
        vertices = sorted(graph.vertices())
        span_end = graph.time_interval().end
        tail = span_end

        def fresh(u, v, begin, end):
            free = [t for t in range(begin, end + 1) if (u, v, t) not in present]
            assert free, f"seed {seed}: no free timestamp for {u}->{v}"
            row = (u, v, rng.choice(free))
            present.add(row)
            return row

        #: ``("query", TspgQuery)`` or ``("ingest", rows)`` in send order.
        self.steps = []
        self.ingests = []
        for start in range(0, len(self.queries), QUERIES_PER_INGEST):
            asked = self.queries[start:start + QUERIES_PER_INGEST]
            self.steps += [("query", query) for query in asked]
            u, v = rng.sample(vertices, 2)
            newcomer = NUM_VERTICES + len(self.ingests)
            rows = [(u, v, tail + 1), (v, newcomer, tail + 2)]
            tail += 2
            for _ in range(2):
                u, v = rng.sample(vertices, 2)
                rows.append(fresh(u, v, 1, span_end))
            repeated = asked[-2:]
            for query in repeated:
                interval = query.interval
                rows.append(fresh(
                    query.source, query.target,
                    max(1, interval.begin), interval.end,
                ))
            self.ingests.append(rows)
            self.steps.append(("ingest", rows))
            self.steps += [("query", query) for query in repeated]
        self._graphs = {}
        self._answers = {}

    def graph(self, applied: int) -> TemporalGraph:
        """The base graph plus the first ``applied`` ingests."""
        if applied not in self._graphs:
            edges = list(self.base_edges)
            for rows in self.ingests[:applied]:
                edges += rows
            self._graphs[applied] = TemporalGraph(edges=edges)
        return self._graphs[applied]

    def expected(self, applied: int, query):
        """``(num_vertices, edges)`` of the exact tspG after ``applied`` ingests."""
        key = (applied, query)
        if key not in self._answers:
            result = brute_force_tspg(
                self.graph(applied), query.source, query.target,
                query.interval,
            )
            self._answers[key] = (result.num_vertices, frozenset(result.edges))
        return self._answers[key]

    def where(self, cell, index: int, applied: int) -> str:
        return (
            f"seed {self.seed}, cell {cell_id(cell)}, request #{index}, "
            f"after ingests {self.ingests[:applied]}"
        )


def cell_id(cell) -> str:
    boot, cache_size, transport = cell
    return f"{boot}-cache{cache_size}-{transport}"


def query_request(query, **extra) -> dict:
    return {
        "source": query.source,
        "target": query.target,
        "begin": query.interval.begin,
        "end": query.interval.end,
        "include_edges": True,
        "deadline_ms": DEADLINE_MS,
        **extra,
    }


def served(response: dict):
    return (
        response["num_vertices"],
        frozenset(tuple(edge) for edge in response["edges"]),
    )


@pytest.fixture(scope="module")
def trace() -> Trace:
    return Trace(SEED)


@pytest.fixture(scope="module")
def warmed(trace, tmp_path_factory):
    """The trace's graph as an edge list, a snapshot and a shard set."""
    root = tmp_path_factory.mktemp("oracle-warm")
    edges = root / "edges.txt"
    edges.write_text(
        "".join(f"{u} {v} {t}\n" for u, v, t in trace.base_edges),
        encoding="utf-8",
    )
    assert cli.main([
        "warm", "--edge-list", str(edges), "--output", str(root / "g.tspgsnap"),
    ]) == 0
    assert cli.main([
        "warm", "--edge-list", str(edges), "--shards", str(NUM_SHARDS),
        "--shard-overlap", str(SHARD_OVERLAP), "--output", str(root / "shards"),
    ]) == 0
    return root


def boot_argv(boot: str, root) -> list:
    return {
        "edge-list": ["--edge-list", str(root / "edges.txt")],
        "snapshot": ["--snapshot", str(root / "g.tspgsnap")],
        "snapshot-mmap": ["--snapshot", str(root / "g.tspgsnap"), "--mmap"],
        "shards": ["--shard-snapshots", str(root / "shards")],
        "shards-mmap": ["--shard-snapshots", str(root / "shards"), "--mmap"],
    }[boot]


def serve(argv: list, cache_size: int, pool):
    """Boot ``tspg serve`` ``argv`` the way the CLI does; return its core."""
    args = cli.build_parser().parse_args(
        ["serve", *argv, "--cache-size", str(cache_size)]
    )
    service, _ = cli._serve_service(args, pool)
    return RequestCore(
        service,
        default_workers=args.workers,
        default_budget_seconds=args.budget,
    )


def stdio(core: RequestCore):
    def send(request: dict) -> dict:
        response, _ = core.handle_line(json.dumps(request))
        return json.loads(json.dumps(response))

    return send


def replay(trace: Trace, cell, send) -> None:
    """Send every trace step; check each answer at its stamped epoch."""
    applied = 0
    applied_at = {send({"op": "stats"})["epoch"]: 0}
    for index, (kind, payload) in enumerate(trace.steps):
        where = trace.where(cell, index, applied)
        if kind == "ingest":
            response = send({"op": "ingest", "edges": [list(row) for row in payload]})
            assert response["ok"] and response["appended"] == len(payload), (
                f"{where}: {response}"
            )
            applied += 1
            applied_at[response["epoch"]] = applied
            continue
        response = send(query_request(payload))
        assert response["ok"] and not response["timed_out"], f"{where}: {response}"
        stamped = applied_at.get(response["epoch_before"])
        assert response["epoch_after"] == response["epoch_before"] and (
            stamped == applied
        ), f"{where}: answer stamped {response['epoch_before']}, epochs {applied_at}"
        assert served(response) == trace.expected(stamped, payload), (
            f"{where}: {payload} answered {sorted(served(response)[1])}, "
            f"expected {sorted(trace.expected(stamped, payload)[1])}"
        )


def check_batches(trace: Trace, cell, service) -> None:
    """``run_batch`` serially and over the shared pool, at the final state."""
    final = len(trace.ingests)
    for workers in (1, 2):
        report = service.run_batch(
            trace.queries, max_workers=workers, use_cache=False
        )
        for index, item in enumerate(report.items):
            assert item.completed and not item.outcome.timed_out
            result = item.outcome.result
            assert (
                result.num_vertices, frozenset(result.edges)
            ) == trace.expected(final, item.query), (
                f"{trace.where(cell, index, final)}: run_batch(max_workers="
                f"{workers}) ran on {report.executor} and answered "
                f"{item.query} wrong"
            )
        if workers == 1:
            assert report.executor == "serial", cell_id(cell)
        elif cell[0] in ("snapshot", "snapshot-mmap"):
            # A journaled ingest keeps the snapshot current, so the pool
            # workers boot the snapshot and replay the journal.
            assert report.executor == "processes", cell_id(cell)


def check_registry(trace: Trace, cell, send) -> None:
    """Every registry algorithm answers every query exactly."""
    final = len(trace.ingests)
    for algorithm in available_algorithms():
        for index, query in enumerate(trace.queries):
            response = send(query_request(query, algorithm=algorithm))
            assert response["ok"] and response["algorithm"] == algorithm
            assert served(response) == trace.expected(final, query), (
                f"{trace.where(cell, index, final)}: {algorithm} answered "
                f"{query} wrong over TCP"
            )


def check_reboot(trace: Trace, cell, argv, pool, final_epoch: int) -> None:
    """Booting the cell's files again replays the journal to the final state."""
    core = serve(argv, cell[1], pool)
    assert core.service.epoch == final_epoch, (
        f"seed {trace.seed}, cell {cell_id(cell)}: reboot came up at epoch "
        f"{core.service.epoch}, the trace ended at {final_epoch}"
    )
    send = stdio(core)
    final = len(trace.ingests)
    for index, query in enumerate(trace.queries):
        response = send(query_request(query))
        assert served(response) == trace.expected(final, query), (
            f"{trace.where(cell, index, final)}: rebooted cell answered "
            f"{query} wrong"
        )


def test_the_trace_probes_answers_and_invalidation(trace):
    applied = 0
    answers = []
    for kind, payload in trace.steps:
        if kind == "ingest":
            applied += 1
        else:
            answers.append(trace.expected(applied, payload))
    assert sum(1 for _, edges in answers if edges) >= len(answers) / 2
    # Each ingest changes the answers of the two queries it repeats.
    for before in range(len(trace.ingests)):
        start = before * QUERIES_PER_INGEST
        for query in trace.queries[start:start + QUERIES_PER_INGEST][-2:]:
            assert trace.expected(before, query) != trace.expected(
                before + 1, query
            )


@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(cell) for cell in CELLS])
def test_every_served_answer_is_the_exact_tspg(
    cell, trace, warmed, worker_pool, tmp_path
):
    boot, cache_size, transport = cell
    root = tmp_path / "files"
    shutil.copytree(warmed, root)
    argv = boot_argv(boot, root)
    core = serve(argv, cache_size, worker_pool)
    service = core.service
    if boot in MMAP_BOOTS:
        assert service.snapshot_mmap_active, service.mmap_fallback_reasons()
    if transport == "stdio":
        replay(trace, cell, stdio(core))
    else:
        with ServerThread(core, workers=2) as server:
            with TspgClient(server.address, timeout=60.0) as client:
                replay(trace, cell, client.request)
                if boot in MMAP_BOOTS and cache_size == 0:
                    check_registry(trace, cell, client.request)
    check_batches(trace, cell, service)
    if boot != "edge-list":
        check_reboot(trace, cell, argv, worker_pool, service.epoch)
