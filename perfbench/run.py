"""End-to-end serving benchmark for ``tspg serve --listen``.

Usage::

    python3 perfbench/run.py --workload ingest-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload boots a real ``tspg serve --listen 127.0.0.1:0`` subprocess
the way an operator does and drives it with two closed-loop TCP
connections (callers that wait for their tspGs), each keeping
``IN_FLIGHT`` requests outstanding.  Timings are read at a reference
machine speed: a fixed loop is timed on the server's CPU before every
boot and between the timed phases, and the time the hypervisor stole
from that CPU is read from ``/proc/stat`` (see ``phases``).  ``--trace 0``
measures the end-to-end metrics on an untraced server; ``--trace 1``
runs the workload untraced and then under ``launcher.py``, which records
spans around every layer, and reports the per-layer metrics plus the
tracing overhead.  Served answers are checked against serial VUG
computed in this process before anything is timed (all of them; on
``ingest-mix``, a seeded sample of those stamped after an ingest is
checked against a graph rebuilt at their epoch).  ``--workload all``
runs every workload both ways and prints every metric with its unit.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of a run
(manifest, every metric, workload characterization, the server's
``stats`` reply) is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from harness import (
    REFERENCE_SPEED, ServerProcess, cpu_plan, cpu_speed, drive, python_env, request_once,
    serve_argv, steal_ticks,
)
from layers import dominant_layer, reported_layer_names, layer_metrics, quantile
from workloads import (
    CONNECTIONS, IN_FLIGHT, WORKLOADS, answers_match, connection_script, graph_at,
    load_graph, prepare_inputs, priming_ops, sample_epochs, serial_answer,
    source_digest,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(HERE, ".cache")
RESULTS_DIR = os.path.join(HERE, "results")
LAUNCHER = os.path.join(HERE, "launcher.py")

#: Unmeasured lead-in per session: threads, lazy imports and page faults settle.
WARMUP_S = 1.0
#: Upper bound on priming the cache (it normally takes 1-3 s).
PRIMING_LIMIT_S = 60.0
#: Length of one timed phase; a speed probe runs between phases.
PHASE_S = 1.25
#: Servers booted per untraced run; ``setup_s`` is their median.
SETUP_BOOTS = 5
#: ``query_p99_ms`` needs at least this many queries (>= 10 beyond it).
P99_MIN_QUERIES = 1000

#: The end-to-end metrics every workload reports on its last line.
END_TO_END = ("qps", "query_p50_ms", "query_p95_ms", "setup_s", "server_peak_rss_mb")


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# one serving session
# ----------------------------------------------------------------------


def warm_boot_source(workload, digest: str) -> Optional[str]:
    """The warmed snapshot (or shard set) a workload boots from, built once.

    The graphs do not depend on the seed, so one warm per workload and
    source tree serves every seed; each session boots a private copy.
    """
    if workload.boot == "dataset":
        return None
    target = os.path.join(CACHE_DIR, f"warm-{workload.name}-{digest}")
    name = "graph.tspgsnap" if workload.boot == "snapshot" else "shards"
    if not os.path.exists(target):
        staging = tempfile.mkdtemp(prefix="warm-", dir=CACHE_DIR)
        argv = [sys.executable, "-m", "repro.cli", "warm", "--dataset", workload.dataset,
                "--output", os.path.join(staging, name)]
        if workload.boot == "shards":
            argv += ["--shards", str(workload.shards), "--shard-overlap", str(workload.overlap)]
        subprocess.run(argv, cwd=ROOT, env=python_env(SRC), check=True,
                       stdout=subprocess.DEVNULL)
        os.replace(staging, target)
    return os.path.join(target, name)


def boot_flags(workload, source: Optional[str], workdir: str) -> List[str]:
    """``serve`` flags over a fresh private copy of the warmed state."""
    if workload.boot == "dataset":
        return ["--dataset", workload.dataset, *workload.serve_flags]
    copy = os.path.join(workdir, os.path.basename(source))
    if os.path.isdir(source):
        shutil.copytree(source, copy)
    else:
        shutil.copy2(source, copy)
    leftovers = glob.glob(os.path.join(workdir, "**", "*.tspgjournal"), recursive=True)
    if leftovers:
        raise RuntimeError(f"journal sidecar present at boot: {leftovers}")
    flag = "--snapshot" if workload.boot == "snapshot" else "--shard-snapshots"
    return [flag, copy, *workload.serve_flags]


def journal_bytes(workdir: str) -> int:
    return sum(
        os.path.getsize(path)
        for path in glob.glob(os.path.join(workdir, "**", "*.tspgjournal"), recursive=True)
    )


def probe(cpu) -> Dict[str, float]:
    """The server CPU's speed, its stolen ticks so far, and when."""
    return {"speed": cpu_speed(cpu), "steal_ticks": steal_ticks(cpu), "at": time.perf_counter()}


def boot_only(workload, source, tmp_root: str, cpu) -> float:
    """Boot a server, note its set-up time (at the reference speed) and stop it."""
    workdir = tempfile.mkdtemp(prefix="boot-", dir=tmp_root)
    try:
        argv = serve_argv(boot_flags(workload, source, workdir))
        with ServerProcess(argv, env=python_env(SRC), cwd=ROOT, cpu=cpu) as server:
            return server.setup_s * server.speed / REFERENCE_SPEED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def serve_session(workload, inputs, source, seed: int, seconds: float, tmp_root: str,
                  cpus, traced: bool) -> Dict[str, object]:
    """Boot, prime the cache, drive ``WARMUP_S`` then ``seconds`` in
    phases with a speed probe around each, read ``stats`` and RSS, stop."""
    workdir = tempfile.mkdtemp(prefix="session-", dir=tmp_root)
    spans_path = os.path.join(workdir, "spans.json") if traced else None
    try:
        argv = serve_argv(
            boot_flags(workload, source, workdir),
            traced_spans=spans_path, launcher=LAUNCHER,
        )
        scripts = [
            connection_script(workload, seed, connection, inputs)
            for connection in range(CONNECTIONS)
        ]
        with ServerProcess(argv, env=python_env(SRC), cwd=ROOT, cpu=cpus["server"]) as server:
            primed = drive(
                server.address,
                [iter(priming_ops(workload, c, inputs)) for c in range(CONNECTIONS)],
                # Request ids apart from the run's, which count up from 1.
                depth=IN_FLIGHT, warmup_s=0.0, phases=[PRIMING_LIMIT_S], first_rid=5_000_000,
            )
            count = max(1, round(seconds / PHASE_S))
            driven = drive(
                server.address, scripts, depth=IN_FLIGHT, warmup_s=WARMUP_S,
                phases=[seconds / count] * count, between=lambda: probe(cpus["server"]),
            )
            driven["records"] = primed["records"] + driven["records"]
            stats = json.loads(request_once(server.address, b'{"op": "stats"}\n'))
            rss_mb = server.peak_rss_mb()
            server.stop()
        session = {
            **driven,
            "setup_s": server.setup_s * server.speed / REFERENCE_SPEED,
            "stats": stats,
            "rss_mb": rss_mb,
            "journal_bytes": journal_bytes(workdir),
        }
        if traced:
            with open(spans_path, "r", encoding="utf-8") as handle:
                session["spans"] = json.load(handle)
        return session
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# decoding, the oracle and metrics
# ----------------------------------------------------------------------


def decode(session) -> None:
    for record in session["records"]:
        record.response = json.loads(record.raw)
        response = record.response
        record.failed = bool(
            not response.get("ok") or response.get("refused") or response.get("timed_out")
        )


def check_answers(workload, inputs, graph, session, seed: int) -> Dict[str, int]:
    """Compare served answers with serial VUG; returns checked / mismatches.

    Without ingest every answer is checked against the oracle computed
    before the run.  With ingest, answers stamped with the boot epoch are
    checked the same way, and a seeded sample of answers stamped with one
    later epoch (``epoch_before == epoch_after``) is checked against serial
    VUG on a graph rebuilt at that epoch.
    """

    checked = mismatches = 0
    queries = [r for r in session["records"] if r.kind == "query" and not r.failed]
    if not workload.ingest:
        for record in queries:
            checked += 1
            expected = inputs.oracle[record.index]["edges"]
            mismatches += not answers_match(record.response, expected)
        return {"checked": checked, "mismatches": mismatches}
    ingest_epochs = sorted(
        r.response["epoch"] for r in session["records"] if r.kind == "ingest" and not r.failed
    )
    base = ingest_epochs[0] - 1 if ingest_epochs else None
    later: Dict[int, List[int]] = {}
    for position, record in enumerate(queries):
        before, after = record.response["epoch_before"], record.response["epoch_after"]
        if before != after:
            continue
        if base is None or before == base:
            checked += 1
            expected = inputs.oracle[record.index]["edges"]
            mismatches += not answers_match(record.response, expected)
        else:
            later.setdefault(before, []).append(position)
    base_edges = list(graph.edge_tuples())
    for epoch, positions in sample_epochs(later, seed).items():
        rebuilt = graph_at(base_edges, seed, epoch - base, inputs.tail, inputs.vertices)
        for position in positions:
            record = queries[position]
            source, target, begin, end = inputs.queries[record.index]
            expected = serial_answer(rebuilt, source, target, (begin, end))["edges"]
            checked += 1
            mismatches += not answers_match(record.response, expected)
    return {"checked": checked, "mismatches": mismatches}


def phases(session) -> List[tuple]:
    """``(start, end, pace)`` per timed phase.

    ``pace`` is how fast the server's CPU ran against the reference: the
    mean of the speed probes taken just before and just after the phase,
    over ``REFERENCE_SPEED``, times the share of that interval the
    hypervisor did not steal.
    """
    windows, probes = session["windows"], session["between"]
    tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
    out = []
    for k, (start, end) in enumerate(windows):
        before, after = probes[k], probes[k + 1]
        stolen = (after["steal_ticks"] - before["steal_ticks"]) * tick_s
        kept = max(0.0, 1.0 - stolen / (after["at"] - before["at"]))
        out.append((start, end, kept * (before["speed"] + after["speed"]) / (2.0 * REFERENCE_SPEED)))
    return out


def timed_records(session) -> List:
    """The records sent inside a timed phase."""
    windows = session["windows"]
    return [r for r in session["records"] if any(s <= r.sent < e for s, e in windows)]


def timed_queries(session) -> List[tuple]:
    """``(record, pace)`` for every query sent inside a timed phase."""
    return [
        (r, pace)
        for start, end, pace in phases(session)
        for r in session["records"]
        if r.kind == "query" and start <= r.sent < end
    ]


def session_qps(session, scaled: bool = True) -> float:
    """Queries completed per second of the timed phases; ``scaled``
    counts each phase's seconds as they would pass at the reference speed."""
    done = elapsed = 0.0
    for start, end, pace in phases(session):
        done += sum(
            1 for r in session["records"] if r.kind == "query" and start <= r.received < end
        )
        elapsed += (end - start) * (pace if scaled else 1.0)
    return done / elapsed


def end_to_end(session, setup_samples: List[float]) -> Dict[str, tuple]:
    """Over all timed phases, as the run would read at the reference speed.

    The machine's speed wanders by tens of percent over seconds to
    minutes; each phase's times are multiplied by its ``pace`` (the
    ``_raw`` figures are as measured).  Set-up times come scaled.
    """
    queries = timed_queries(session)
    latencies = [r.latency_ms * pace for r, pace in queries]
    raw = [r.latency_ms for r, _ in queries]
    ingests = [r.latency_ms for r in timed_records(session) if r.kind == "ingest"]
    records = session["records"]
    metrics = {
        "qps": (session_qps(session), "1/s"),
        "query_p50_ms": (quantile(latencies, 0.50), "ms"),
        "query_p95_ms": (quantile(latencies, 0.95), "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "server_peak_rss_mb": (session["rss_mb"], "MB"),
        "failed_ratio": (sum(r.failed for r in records) / len(records), "ratio"),
        "queries": (float(len(latencies)), "count"),
        "qps_raw": (session_qps(session, scaled=False), "1/s"),
        "query_p50_ms_raw": (quantile(raw, 0.50), "ms"),
        "query_p95_ms_raw": (quantile(raw, 0.95), "ms"),
        "cpu_speed": (statistics.median(p["speed"] for p in session["between"]), "1/s"),
    }
    if len(latencies) >= P99_MIN_QUERIES:
        metrics["query_p99_ms"] = (quantile(latencies, 0.99), "ms")
    if ingests:
        metrics["ingest_p50_ms"] = (quantile(ingests, 0.50), "ms")
        metrics["ingest_p95_ms"] = (quantile(ingests, 0.95), "ms")
    return metrics


def phase_stats(session) -> List[Dict[str, float]]:
    """Per timed phase: its length, queries completed, raw p50/p95 and pace."""
    out = []
    for start, end, pace in phases(session):
        sent = [r.latency_ms for r in session["records"] if r.kind == "query" and start <= r.sent < end]
        done = sum(1 for r in session["records"] if r.kind == "query" and start <= r.received < end)
        out.append({"seconds": end - start, "completed": done, "pace": pace,
                    "p50_ms": quantile(sent, 0.5), "p95_ms": quantile(sent, 0.95)})
    return out


def characterize(workload, inputs, session) -> Dict[str, object]:
    """What the run's traffic actually was (stored with every run)."""

    timed = [r for r in timed_records(session) if r.kind == "query" and not r.failed]
    sizes = [r.response["num_edges"] for r in timed]
    gq = [inputs.oracle[r.index]["gq"] for r in timed]
    gt = [inputs.oracle[r.index]["gt"] for r in timed]
    cache = session["stats"].get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    ingests = [r for r in session["records"] if r.kind == "ingest" and not r.failed]
    return {
        "answer_edges": {
            "p50": quantile(sizes, 0.5), "p95": quantile(sizes, 0.95),
            "max": max(sizes, default=0),
            "share_over_one": sum(size > 1 for size in sizes) / len(sizes) if sizes else 0.0,
        },
        "gq_edges_at_boot_epoch": {"p50": quantile(gq, 0.5), "p95": quantile(gq, 0.95)},
        "gt_edges_at_boot_epoch": {"p50": quantile(gt, 0.5), "p95": quantile(gt, 0.95)},
        "cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "response_cache_hit_share": (
            sum(bool(r.response.get("cache_hit")) for r in timed) / len(timed) if timed else 0.0
        ),
        "distinct_queries_served": len({r.index for r in timed}),
        "query_pool": len(inputs.queries),
        "ingests": len(ingests),
        "append_only_share": (
            sum(bool(r.response.get("append_only")) for r in ingests) / len(ingests)
            if ingests else None
        ),
        "journal_bytes_at_end": session["journal_bytes"],
    }


def manifest(workload, seed: int, seconds: float, trace: int, digest: str, cpus) -> Dict:
    from repro.core.vug import VUG

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "warmup_s": WARMUP_S,
        "trace": trace,
        "parameters": workload.parameters(),
        "git_revision": revision,
        "source_digest": digest,
        "cpu_count": os.cpu_count(),
        "affinity": {
            "available": sorted(os.sched_getaffinity(0)),
            "server": sorted(cpus["server"]) if cpus["server"] else None,
            "client": sorted(cpus["client"]) if cpus["client"] else None,
        },
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": VUG().effective_kernel_backend(),
        "reference_speed": REFERENCE_SPEED,
        "phase_s": PHASE_S,
        "closed_loop_connections": workload.parameters()["connections"],
    }


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:

    workload = WORKLOADS[name]
    digest = source_digest(SRC)
    os.makedirs(CACHE_DIR, exist_ok=True)
    prep_started = time.perf_counter()
    graph = load_graph(workload.dataset)
    inputs = prepare_inputs(
        workload, seed, workload.pool_size(seconds, WARMUP_S), graph, CACHE_DIR, digest,
    )
    source = warm_boot_source(workload, digest)
    log(f"{name}: inputs ready in {time.perf_counter() - prep_started:.1f}s "
        f"({len(inputs.queries)} queries)")

    cpus = cpu_plan()
    if cpus["client"]:
        os.sched_setaffinity(0, cpus["client"])
    # The graph and oracle answers are large and permanent: a collection
    # scanning them would stall the load generator mid-run.
    gc.collect()
    gc.freeze()
    gc.disable()
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=CACHE_DIR)
    try:
        untraced = serve_session(workload, inputs, source, seed, seconds, tmp_root, cpus, False)
        sessions = {"untraced": untraced}
        if trace:
            sessions["traced"] = serve_session(
                workload, inputs, source, seed, seconds, tmp_root, cpus, True,
            )
            setup_samples = [untraced["setup_s"]]
        else:
            setup_samples = [
                boot_only(workload, source, tmp_root, cpus["server"])
                for _ in range(SETUP_BOOTS - 1)
            ] + [untraced["setup_s"]]
    finally:
        gc.enable()
        shutil.rmtree(tmp_root, ignore_errors=True)

    oracle = {}
    for label, session in sessions.items():
        decode(session)
        oracle[label] = check_answers(workload, inputs, graph, session, seed)
    all_records = [r for session in sessions.values() for r in session["records"]]
    correct = all(o["checked"] > 0 and o["mismatches"] == 0 for o in oracle.values())

    e2e = end_to_end(untraced, setup_samples)
    record = {
        "manifest": manifest(workload, seed, seconds, trace, digest, cpus),
        "correct": correct,
        "oracle": oracle,
        "setup_samples_s": setup_samples,
        "speed_probes": untraced["between"],
        "phase_stats": phase_stats(untraced),
        "end_to_end": as_entries(e2e),
        "characterization": characterize(workload, inputs, untraced),
        "server_stats": untraced["stats"],
    }
    if trace:
        traced = sessions["traced"]
        query_rids = {
            r.rid: r.received for r in timed_records(traced) if r.kind == "query"
        }
        ingest_rids = {r.rid for r in timed_records(traced) if r.kind == "ingest"}
        layers = layer_metrics(
            traced["spans"], query_rids, ingest_rids, traced["stats"],
            session_qps(traced) / session_qps(untraced),
        )
        record["per_layer"] = as_entries(layers["metrics"])
        record["self_ms"] = layers["self_ms"]
        record["dominant_self_layer"] = dominant_layer(layers["self_ms"])
        record["traced_end_to_end"] = as_entries(end_to_end(traced, [traced["setup_s"]]))
        record["traced_characterization"] = characterize(workload, inputs, traced)
        reported = {
            metric: layers["metrics"][metric] for metric, _ in reported_layer_names()
        }
    else:
        reported = {metric: e2e[metric] for metric in END_TO_END}

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    record["results_path"] = os.path.relpath(path, ROOT)
    record["summary"] = {
        "correct": correct,
        "attempted": len(all_records),
        "failed": sum(r.failed for r in all_records),
        "metrics": as_entries(reported),
    }
    return record


def as_entries(metrics: Dict[str, tuple]) -> Dict[str, dict]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(f"# {title}")
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {entry['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, in child runs of this script."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            completed = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if completed.returncode != 0:
                log(f"{name} trace={trace} failed with exit code {completed.returncode}")
                return completed.returncode
            path = os.path.join(RESULTS_DIR, f"{name}-seed{seed}-trace{trace}.json")
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            summary[f"{name}/trace{trace}"] = json.loads(completed.stdout.splitlines()[-1])
            if trace == 0:
                print_metrics(f"{name}: end to end", record["end_to_end"])
            else:
                print_metrics(f"{name}: per layer", record["per_layer"])
                print(f"  dominant self time: {record['dominant_self_layer']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        log(f"no program sources at {os.path.relpath(SRC, os.getcwd())}/repro; "
            "run from a checkout of the repository")
        return 2
    sys.path.insert(0, SRC)
    # A parent that ignores SIGINT would pass SIG_IGN on to the servers,
    # and SIGINT is how a server is stopped; re-arm it for our children.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    title = "per layer" if args.trace else "end to end"
    print_metrics(f"{args.workload}: {title} (seed {args.seed})", record["summary"]["metrics"])
    print(f"  results: {record['results_path']}")
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
