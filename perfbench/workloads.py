"""The benchmark's workloads: what each boots, what it sends, and its oracle.

Every input is derived from ``--seed``: the query pool comes from
:func:`repro.queries.workload.generate_workload` on the workload's graph
(the graphs themselves are the registry's fixed, seeded datasets), the
per-connection request order from a seeded RNG, and the ingested rows
from a seeded RNG per ingest.  The server only ever sees the generated
requests.

Each query carries ``include_edges`` and a ``deadline_ms`` far above any
observed tail, so the deadline-polling paths run while a healthy run
refuses nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

#: Far above any tail the workloads produce (dense-eev p99 is ~0.1 s).
DEADLINE_MS = 30_000
ZIPF_S = 1.1
INGEST_ROWS = 8
#: ``ingest-mix`` connection A sends one ingest every this many seconds
#: and reads in between.  A fixed schedule, not a fixed share of A's
#: requests, so every run grows the graph and the journal alike however
#: fast the machine happens to be (each journal append rewrites the whole
#: file, so a faster run would otherwise pay more per ingest).  Queries
#: wait on the service's rewarm lock while an ingest fsyncs the journal,
#: and fsync time on a shared disk varies several-fold between runs; at
#: two ingests a second that wait stays a small share of the run.
INGEST_PERIOD_S = 0.5
#: Largest ``distinct`` pool (generating and answering it is the costly
#: part of a run's set-up).  A faster run wraps around it; by then the
#: server's LRU (1024 entries per shard service) has long evicted the
#: first pass, so wrapped queries still miss.
DISTINCT_POOL_CAP = 12_000
#: Zipf ranks sent once before the run so the result cache starts warm
#: (the server's default LRU capacity).
PRIMED_RANKS = 1024
#: Closed-loop connections per workload (the machine has 2 CPUs: one
#: serves, one generates load).
CONNECTIONS = 2
#: Requests each connection keeps outstanding, so the server never waits
#: for the load generator's next request.
IN_FLIGHT = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    theta: int
    #: ``dataset`` (``--dataset``), ``snapshot`` (eager ``--snapshot``) or
    #: ``shards`` (``--shard-snapshots``).
    boot: str
    serve_flags: Tuple[str, ...] = ()
    #: ``zipf`` repeats over a fixed pool, ``distinct`` never repeats
    #: within a run (the pool is sized from ``rate_cap``).
    mix: str = "zipf"
    population: int = 2000
    rate_cap: float = 0.0
    ingest: bool = False
    shards: int = 1
    overlap: int = 0

    def pool_size(self, seconds: float, warmup: float) -> int:
        if self.mix == "zipf":
            return self.population
        return min(DISTINCT_POOL_CAP, max(50, math.ceil(self.rate_cap * (seconds + warmup))))

    def parameters(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset,
            "theta": self.theta,
            "boot": self.boot,
            "serve_flags": list(self.serve_flags),
            "mix": self.mix,
            "population": self.population if self.mix == "zipf" else None,
            "zipf_s": ZIPF_S if self.mix == "zipf" else None,
            "ingest_rows": INGEST_ROWS if self.ingest else None,
            "ingest_period_s": INGEST_PERIOD_S if self.ingest else None,
            "shards": self.shards,
            "overlap": self.overlap,
            "connections": CONNECTIONS,
            "in_flight_per_connection": IN_FLIGHT,
            "primed_ranks": PRIMED_RANKS if self.mix == "zipf" else 0,
            "deadline_ms": DEADLINE_MS,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve-zipf",
            why="D10 zipf(1.1) repeats over 2000 queries: the common serving "
            "path, where cache, parsing, admission and the write path dominate",
            dataset="D10", theta=25, boot="dataset",
        ),
        Workload(
            name="scale-cold",
            why="120k-edge synth-scale on 4 mmap shards, all-distinct queries: "
            "misses are Lemma 1 mask-bound; puts the router on the path",
            dataset="synth-scale", theta=50, boot="shards",
            serve_flags=("--mmap",), mix="distinct", rate_cap=1000.0,
            shards=4, overlap=50,
        ),
        Workload(
            name="dense-eev",
            why="cycle-rich D7, all-distinct queries: EEV-bound with large "
            "answers; the control on which a mask change moves nothing",
            dataset="D7", theta=40, boot="dataset", mix="distinct", rate_cap=60.0,
        ),
        Workload(
            name="ingest-mix",
            why="D10 snapshot with journal: one connection sends an 8-row "
            "append-only ingest after every 3 zipf reads, the other only reads",
            dataset="D10", theta=25, boot="snapshot", ingest=True,
        ),
    )
}


# ----------------------------------------------------------------------
# graphs and queries
# ----------------------------------------------------------------------


def load_graph(dataset: str):
    from repro.datasets.registry import SYNTH_SCALE, SYNTH_SCALE_KEY, get_dataset

    if dataset == SYNTH_SCALE_KEY:
        return SYNTH_SCALE.load()
    return get_dataset(dataset).load()


def source_digest(src_dir: str) -> str:
    """Hash of the program's sources: cached inputs are per source tree."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(src_dir, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def canonical_edges(edges) -> List[List[object]]:
    """An answer's edge set in one order, for comparison and storage."""
    return sorted([u, v, t] for u, v, t in edges)


def serial_answer(graph, source, target, interval) -> Dict[str, object]:
    """Serial VUG in this process: the oracle every served answer meets."""
    from repro.core.vug import VUG

    report = VUG().run(graph, source, target, interval)
    return {
        "edges": canonical_edges(report.result.edges),
        "gq": report.upper_bound_quick.num_edges,
        "gt": report.upper_bound_tight.num_edges,
    }


@dataclass
class Inputs:
    """Everything a run sends, and what every answer must be."""

    queries: List[Tuple[object, object, int, int]]
    oracle: List[Dict[str, object]]
    #: ``max timestamp + 1``: ingest ``k`` lands at ``tail + k``.
    tail: int
    vertices: List[object]


def prepare_inputs(workload: Workload, seed: int, pool: int, graph,
                   cache_dir: str, digest: str) -> Inputs:
    """Generate (or reload) the seeded query pool and its oracle answers.

    The oracle is computed here, before anything is timed.  Both depend
    only on the workload, the seed, the pool size and the program's
    sources, so they are cached under that key.
    """
    from repro.queries.workload import generate_workload

    key = f"{workload.name}-s{seed}-n{pool}-{digest}"
    path = os.path.join(cache_dir, f"inputs-{key}.json")
    vertices = sorted(graph.vertices(), key=str)
    tail = max(graph.timestamps()) + 1
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        queries = [tuple(q) for q in payload["queries"]]
        return Inputs(queries, payload["oracle"], tail, vertices)
    generated = generate_workload(graph, pool, workload.theta, seed=seed)
    queries = [
        (q.source, q.target, q.interval.begin, q.interval.end) for q in generated
    ]
    graph.warm_indices()
    oracle = [serial_answer(graph, s, t, (b, e)) for s, t, b, e in queries]
    os.makedirs(cache_dir, exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump({"queries": queries, "oracle": oracle}, handle)
    os.replace(path + ".tmp", path)
    return Inputs(queries, oracle, tail, vertices)


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------


def query_body(query) -> bytes:
    """A query request without its leading ``{`` (the rid is prefixed)."""
    source, target, begin, end = query
    text = json.dumps(
        {
            "source": source, "target": target, "begin": begin, "end": end,
            "include_edges": True, "deadline_ms": DEADLINE_MS,
        }
    )
    return text[1:].encode("utf-8") + b"\n"


def ingest_rows(seed: int, index: int, tail: int, vertices) -> List[List[object]]:
    """Ingest ``index``'s rows: distinct pairs at a fresh tail timestamp.

    Every row sorts after every existing edge, so each delta is
    append-only; endpoints are existing vertices, so none is new.
    """
    rng = random.Random(seed * 1_000_003 + index)
    pairs = set()
    while len(pairs) < INGEST_ROWS:
        u, v = rng.sample(vertices, 2)
        pairs.add((u, v))
    return [[u, v, tail + index] for u, v in sorted(pairs, key=str)]


def ingest_body(rows) -> bytes:
    return json.dumps({"op": "ingest", "edges": rows})[1:].encode("utf-8") + b"\n"


def query_order(workload: Workload, seed: int, connection: int, pool: int) -> Iterator[int]:
    """Endless query indices one connection sends, in order.

    ``zipf``: independent zipf(1.1) draws per connection, rank 0 hottest.
    ``distinct``: the connections split the pool (even / odd positions),
    so no query repeats until the pool wraps.
    """
    if workload.mix == "distinct":
        position = connection
        while True:
            yield position % pool
            position += CONNECTIONS
    rng = random.Random(seed * 1009 + connection)
    cumulative = list(accumulate(1.0 / float(rank + 1) ** ZIPF_S for rank in range(pool)))
    population = range(pool)
    while True:
        yield from rng.choices(population, cum_weights=cumulative, k=4096)


@dataclass(frozen=True)
class Op:
    kind: str  # "query" or "ingest"
    index: int  # query index, or ingest ordinal
    body: bytes


def connection_script(workload: Workload, seed: int, connection: int,
                      inputs: Inputs) -> Iterator[Op]:
    """What one closed-loop connection sends, forever (the caller stops)."""
    bodies: Dict[int, bytes] = {}

    def query_op(index: int) -> Op:
        body = bodies.get(index)
        if body is None:
            body = bodies[index] = query_body(inputs.queries[index])
        return Op("query", index, body)

    order = query_order(workload, seed, connection, len(inputs.queries))
    if workload.ingest and connection == 0:
        ordinal = 0
        due = time.perf_counter()
        while True:
            if time.perf_counter() >= due:
                rows = ingest_rows(seed, ordinal, inputs.tail, inputs.vertices)
                yield Op("ingest", ordinal, ingest_body(rows))
                ordinal += 1
                # After a pause (the speed probe between phases) resume
                # the schedule rather than catch up in a burst.
                due = max(due + INGEST_PERIOD_S, time.perf_counter())
            else:
                yield query_op(next(order))
    for index in order:
        yield query_op(index)


def priming_ops(workload: Workload, connection: int, inputs: Inputs) -> List[Op]:
    """The hottest zipf queries, split across connections, each sent once.

    A serving cache is warm in steady state; priming it before the timed
    window keeps the window from measuring the cold start.  ``distinct``
    workloads never repeat a query, so there is nothing to prime.
    """
    if workload.mix != "zipf":
        return []
    ranks = range(connection, min(PRIMED_RANKS, len(inputs.queries)), CONNECTIONS)
    return [Op("query", rank, query_body(inputs.queries[rank])) for rank in ranks]


def sample_epochs(eligible: Dict[int, List[int]], seed: int,
                  max_epochs: int = 40, per_epoch: int = 10) -> Dict[int, List[int]]:
    """A seeded sample of ``{epoch: [record positions]}`` to check."""
    rng = random.Random(seed * 7919 + 1)
    epochs = sorted(eligible)
    chosen = sorted(rng.sample(epochs, min(max_epochs, len(epochs))))
    return {
        epoch: sorted(rng.sample(eligible[epoch], min(per_epoch, len(eligible[epoch]))))
        for epoch in chosen
    }


def graph_at(base_edges, seed: int, ingests: int, tail: int, vertices):
    """A freshly built graph holding the base edges plus the first ``ingests``."""
    from repro.graph.temporal_graph import TemporalGraph

    edges = list(base_edges)
    for ordinal in range(ingests):
        edges.extend(tuple(row) for row in ingest_rows(seed, ordinal, tail, vertices))
    graph = TemporalGraph(edges=edges)
    graph.warm_indices()
    return graph


def answers_match(response: Dict[str, object], expected_edges) -> bool:
    """Whether a served ``include_edges`` answer is the expected edge set."""
    edges = response.get("edges")
    if edges is None or len(edges) != len(expected_edges):
        return False
    return canonical_edges(edges) == expected_edges
