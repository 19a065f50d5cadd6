"""Self-test: the answer oracle trips on a corrupted answer.

Run with ``python3 -m pytest perfbench/test_oracle.py`` or
``python3 perfbench/test_oracle.py``.  It builds served-answer records
for a few D1 queries exactly as the load generator stores them, checks
that the untouched ones pass, and that each kind of corruption (an edge
dropped, an edge added, a timestamp moved, the edge list missing) is
counted as a mismatch.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from harness import Record  # noqa: E402
from run import check_answers, decode  # noqa: E402
from workloads import WORKLOADS, Inputs, load_graph, serial_answer  # noqa: E402


def _served(inputs: Inputs, index: int, rid: int) -> Record:
    """A record whose raw line is the server's wire answer for ``index``."""
    expected = inputs.oracle[index]["edges"]
    wire = sorted(expected, key=lambda edge: (edge[2], str(edge[0]), str(edge[1])))
    response = {
        "ok": True, "op": "query", "num_edges": len(wire), "timed_out": False,
        "epoch_before": 1, "epoch_after": 1, "edges": wire,
    }
    return Record("query", index, rid, 0.0, 0.0, json.dumps(response).encode())


def _fixture():
    from repro.queries.workload import generate_workload

    graph = load_graph("D1")
    graph.warm_indices()
    generated = generate_workload(graph, 6, 10, seed=3)
    queries = [(q.source, q.target, q.interval.begin, q.interval.end) for q in generated]
    oracle = [serial_answer(graph, s, t, (b, e)) for s, t, b, e in queries]
    inputs = Inputs(queries, oracle, max(graph.timestamps()) + 1, sorted(graph.vertices()))
    # The corruptions below need an answer with at least two edges.
    index = max(range(len(queries)), key=lambda i: len(oracle[i]["edges"]))
    assert len(oracle[index]["edges"]) >= 2
    return graph, inputs, index


def _mismatches(graph, inputs, records) -> int:
    session = {"records": records}
    decode(session)
    result = check_answers(WORKLOADS["serve-zipf"], inputs, graph, session, seed=3)
    assert result["checked"] == len(records)
    return result["mismatches"]


def _corrupt(record: Record, change) -> Record:
    response = json.loads(record.raw)
    change(response)
    corrupted = copy.copy(record)
    corrupted.raw = json.dumps(response).encode()
    return corrupted


def test_untouched_answers_pass():
    graph, inputs, _ = _fixture()
    records = [_served(inputs, i, i) for i in range(len(inputs.queries))]
    assert _mismatches(graph, inputs, records) == 0


def test_each_corruption_is_a_mismatch():
    graph, inputs, index = _fixture()
    good = _served(inputs, index, 1)

    def drop(response):
        response["edges"].pop()

    def add(response):
        u, v, t = response["edges"][0]
        response["edges"].append([v, u, t + 1])

    def shift(response):
        response["edges"][-1][2] += 1

    def missing(response):
        del response["edges"]

    for change in (drop, add, shift, missing):
        assert _mismatches(graph, inputs, [good, _corrupt(good, change)]) == 1, change.__name__


if __name__ == "__main__":
    test_untouched_answers_pass()
    test_each_corruption_is_a_mismatch()
    print("oracle self-test passed")
