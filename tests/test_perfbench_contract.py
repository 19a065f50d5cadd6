"""The names the end-to-end benchmark resolves, pinned in tier-1.

``perfbench/`` drives the real CLI and, when traced, wraps layer
functions at the attributes their callers resolve at call time
(``perfbench/launcher.py``).  If one of those names disappears or stops
being called, the benchmark run fails outright (or silently loses a
span) instead of slowing down, and tier-1 never runs perfbench.  This
module boots both of the benchmark's serving shapes under the traced
launcher over stdio, on D1, and checks that every span it depends on is
recorded; it also calls the helpers perfbench imports directly.
Nothing under ``perfbench/`` is modified.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.core import vug
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.views import GraphView
from repro.service import server
from repro.service.cache import ResultCache
from repro.service.service import TspgService
from repro.service.sharding import FALLBACK_SHARD, ShardedTspgService
from repro.store import graph_store, journal
from repro.store.shard_set import ShardSnapshotSet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")

#: D1 spans timestamps [1, 151]; with overlap 10 the shard extents are
#: [1, 86] and [67, 151], so this window routes to shard 0.
QUERY = {"source": 0, "target": 5, "begin": 1, "end": 40, "include_edges": True}
#: One row inside the first shard's extent and one past the whole span.
INGEST = {"op": "ingest", "edges": [[0, 5, 20], [1, 2, 100000]]}

PHASE_SPANS = {
    "quickubg.polarity",
    "quickubg.mask",
    "tightubg.tcv",
    "tightubg.tight",
    "eev.verify",
}
SNAPSHOT_SPANS = PHASE_SPANS | {
    "server.parse",
    "server.respond",
    "service.submit",
    "service.ingest",
    "cache.get",
    "cache.rekey",
    "graph.append",
    "views.extend",
    "journal.append",
    "snapshot.boot",
}
SHARD_SPANS = PHASE_SPANS | {
    "server.parse",
    "server.respond",
    "router.submit",
    "cache.get",
    "graph.append",
    "journal.append",
    "snapshot.boot",
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _cli(*argv):
    return [sys.executable, "-m", "repro.cli", *argv]


@pytest.fixture(scope="module")
def warmed(tmp_path_factory):
    """D1 warmed the way ``perfbench/run.py`` warms its boot sources."""
    root = tmp_path_factory.mktemp("perfbench-contract")
    snapshot = str(root / "graph.tspgsnap")
    shards = str(root / "shards")
    for extra in (
        ["--output", snapshot],
        ["--output", shards, "--shards", "2", "--shard-overlap", "10"],
    ):
        subprocess.run(
            _cli("warm", "--dataset", "D1", *extra),
            cwd=ROOT, env=_env(), check=True, stdout=subprocess.DEVNULL,
        )
    return root, snapshot, shards


def _traced_session(root, name, serve_flags):
    """Run one stdio ``serve`` session under the traced launcher."""
    spans_path = str(root / f"{name}-spans.json")
    requests = [
        dict(QUERY, bench_rid=1),
        dict(QUERY, bench_rid=2),
        dict(INGEST, bench_rid=3),
        dict(QUERY, bench_rid=4),
        {"op": "stats", "bench_rid": 5},
    ]
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "launcher.py"), "--spans",
         spans_path, "--", "serve", *serve_flags],
        input="".join(json.dumps(request) + "\n" for request in requests),
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    replies = [json.loads(line) for line in done.stdout.splitlines() if line.strip()]
    assert len(replies) == len(requests), done.stdout
    assert all(reply["ok"] for reply in replies), replies
    with open(spans_path, encoding="utf-8") as handle:
        spans = Counter(span[0] for span in json.load(handle))
    return replies, spans


def test_snapshot_boot_records_every_span(warmed):
    root, snapshot, _ = warmed
    replies, spans = _traced_session(root, "snapshot", ["--snapshot", snapshot])
    assert SNAPSHOT_SPANS <= set(spans), SNAPSHOT_SPANS - set(spans)
    assert spans["cache.get"] == 3  # one lookup per query
    assert replies[1]["cache_hit"] is True
    assert replies[3]["edges"] and [0, 5, 20] in replies[3]["edges"]


def test_shard_boot_records_every_span(warmed):
    root, _, shards = warmed
    replies, spans = _traced_session(
        root, "shards", ["--shard-snapshots", shards, "--mmap"]
    )
    assert SHARD_SPANS <= set(spans), SHARD_SPANS - set(spans)
    assert spans["cache.get"] == 3  # one lookup per query
    assert replies[1]["cache_hit"] is True
    assert [0, 5, 20] in replies[3]["edges"]


def test_the_names_the_launcher_wraps_resolve():
    for owner, attribute in (
        (server, "parse_request_line"),
        (server.RequestCore, "respond"),
        (TspgService, "submit"),
        (TspgService, "ingest"),
        (ShardedTspgService, "submit"),
        (ShardedTspgService, "route"),
        (ResultCache, "get"),
        (ResultCache, "rekey"),
        (vug, "compute_polarity_id_arrays"),
        (vug, "quick_mask_kernel"),
        (vug, "compute_time_stream_common_vertices"),
        (vug, "tight_upper_bound_graph"),
        (vug, "escaped_edges_verification"),
        (TemporalGraph, "append_edges"),
        (TemporalGraph, "warm_indices"),
        (GraphView, "extended_with"),
        (journal, "append_journal_delta"),
        (journal, "journal_path"),
        (graph_store, "boot_snapshot"),
        (ShardSnapshotSet, "boot_shard"),
    ):
        assert callable(getattr(owner, attribute)), (owner, attribute)
    assert FALLBACK_SHARD == -1
    cache = ResultCache(4)
    cache.put(("a",), 1)
    cache.put(("b",), 2)
    assert cache.rekey(lambda key: None if key == ("a",) else key) == 1
    assert vug.VUG().effective_kernel_backend() == "python"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


def test_the_workload_helpers_run_on_d1():
    workloads = _perfbench_module("workloads")
    graph = workloads.load_graph("D1")
    answer = workloads.serial_answer(graph, 0, 5, (1, 40))
    assert set(answer) == {"edges", "gq", "gt"}
    tail = graph.time_interval().end + 1
    vertices = sorted(graph.vertices())
    grown = workloads.graph_at(graph.edge_tuples(), 1, 2, tail, vertices)
    assert grown.num_edges > graph.num_edges
    assert workloads.serial_answer(grown, 0, 5, (1, 40))["edges"] == answer["edges"]
