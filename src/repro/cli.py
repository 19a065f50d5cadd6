"""Command-line interface.

``python -m repro.cli`` (or the ``tspg`` console script) exposes the library's
main operations:

* ``query``       — run one tspG query on an edge-list file or a built-in dataset;
* ``batch``       — serve many queries through the batch service (result
  cache, and worker processes when ``--workers > 1``), optionally booting
  from a snapshot (or a per-shard snapshot set) and sharding by time range;
* ``serve``       — long-lived JSONL request loop (boot once, answer batch
  after batch with warm worker processes when ``--workers > 1``); stdio by
  default, or an asyncio TCP front end with ``--listen HOST:PORT`` that
  multiplexes many concurrent clients with admission control;
* ``warm``        — build every index of a graph and save a binary snapshot
  (or, with ``--shards N``, a directory of per-shard snapshots + manifest);
  accepts the streaming ``synth-scale`` generator with size overrides;
* ``inspect``     — decode a snapshot's header and v4/v5 section table without
  touching any payload byte;
* ``datasets``    — list the synthetic dataset analogues and their statistics
  (plus the ``synth-scale`` streaming generator's parameters, never loaded);
* ``experiment``  — run one of the paper's experiments (table1, exp1 … exp8) or
  a service experiment (exp9, exp13);
* ``case-study``  — reproduce the SFMTA transit case study (Fig. 13).

``batch`` and ``serve`` accept ``--mmap`` on their snapshot sources: the
columnar boot then maps the file zero-copy instead of reading it (a boot
that cannot map degrades to the eager boot with a printed note).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading
import time
from typing import List, Optional, Sequence, TextIO

from .algorithms import available_algorithms, get_algorithm
from .bench import experiments as bench_experiments
from .bench.reporting import render_table
from .datasets.registry import SYNTH_SCALE, SYNTH_SCALE_KEY, dataset_keys, get_dataset
from .datasets.transit import CASE_STUDY_QUERY, describe_transfer_options, generate_transit_network
from .graph.io import load_edge_list
from .graph.statistics import compute_statistics
from .core.vug import generate_tspg_report
from .queries.query import TspgQuery
from .queries.workload import generate_workload
from .service import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_MAX_LINE_BYTES,
    DEFAULT_MAX_PENDING_PER_CLIENT,
    RequestCore,
    ShardedTspgService,
    TspgServer,
    TspgService,
    WorkerPool,
)
from .service.server import check_at_least_one, check_finite_non_negative
from .service.server import coerce_vertex as _coerce_vertex
from .store import (
    SnapshotError,
    inspect_journal,
    inspect_snapshot,
    journal_path,
    load_snapshot,
    save_snapshot,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="tspg",
        description="Temporal simple path graph generation (VUG reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="run a single tspG query")
    source_group = query.add_mutually_exclusive_group(required=True)
    source_group.add_argument("--edge-list", help="path to a 'u v t' edge-list file")
    source_group.add_argument("--dataset", choices=dataset_keys(), help="built-in dataset key")
    query.add_argument("--source", required=True, help="source vertex s")
    query.add_argument("--target", required=True, help="target vertex t")
    query.add_argument("--begin", type=int, required=True, help="interval begin τb")
    query.add_argument("--end", type=int, required=True, help="interval end τe")
    query.add_argument(
        "--algorithm", default="VUG", choices=available_algorithms(), help="algorithm to use"
    )
    query.add_argument("--show-edges", action="store_true", help="print every result edge")

    batch = sub.add_parser("batch", help="serve a batch of queries via TspgService")
    batch_source = batch.add_mutually_exclusive_group(required=True)
    batch_source.add_argument("--edge-list", help="path to a 'u v t' edge-list file")
    batch_source.add_argument("--dataset", choices=dataset_keys(), help="built-in dataset key")
    batch_source.add_argument(
        "--snapshot", help="boot from a warmed index snapshot (see 'tspg warm')"
    )
    batch_source.add_argument(
        "--shard-snapshots",
        help="boot a sharded router from a per-shard snapshot directory "
        "(see 'tspg warm --shards N'); shard count and overlap come from "
        "its manifest",
    )
    batch.add_argument(
        "--queries-file",
        help="file with one 'source target begin end' query per line "
        "(default: a random reachable workload)",
    )
    batch.add_argument("--num-queries", type=int, default=50, help="random workload size")
    batch.add_argument("--theta", type=int, default=None, help="interval span of random queries")
    batch.add_argument("--seed", type=int, default=7, help="random workload seed")
    batch.add_argument(
        "--algorithm", default="VUG", choices=available_algorithms(), help="algorithm to use"
    )
    batch.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial); above 1 a worker pool boots "
        "from the snapshots (needs --shard-snapshots, or --snapshot "
        "without --shards; batches run serially otherwise, with a note)",
    )
    batch.add_argument("--budget", type=float, default=None, help="batch time budget in seconds")
    batch.add_argument(
        "--repeat", type=int, default=1, help="run the batch N times (repeats hit the cache)"
    )
    batch.add_argument("--cache-size", type=int, default=1024, help="LRU capacity (0 disables)")
    batch.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    batch.add_argument(
        "--shards", type=int, default=1,
        help="partition the graph across N time-range shards (1 = unsharded)",
    )
    batch.add_argument(
        "--shard-overlap", type=int, default=None,
        help="extent overlap between shards in timestamps "
        "(default: the workload's theta, so typical queries stay on one shard)",
    )
    batch.add_argument(
        "--mmap", action="store_true",
        help="boot --snapshot / --shard-snapshots via the mmap-backed "
        "columnar path (zero-copy; a boot that cannot map degrades to the "
        "eager boot with a note)",
    )

    serve = sub.add_parser(
        "serve",
        help="long-lived JSONL request loop (stdio, or TCP with --listen)",
        description=(
            "Boot a service once, then answer one JSON request per line "
            "until EOF or quit. Default transport is stdio (one client); "
            "--listen HOST:PORT serves the same protocol over TCP to many "
            "concurrent clients with admission control. Requests: "
            '{"source": S, "target": T, "begin": B, "end": E, '
            '"algorithm"?, "deadline_ms"?, "include_edges"?} for one query; '
            '{"queries": [[S, T, B, E], ...], "algorithm"?, "budget_ms"?, '
            '"workers"?} for a batch; {"op": "ingest", "edges": '
            '[[U, V, T], ...]} to append edges live (journaled next to a '
            'snapshot boot); {"op": "stats"} for counters; '
            '{"op": "quit"} to stop (acknowledged). One JSON response per '
            "line on stdout (or the socket)."
        ),
    )
    serve_source = serve.add_mutually_exclusive_group(required=True)
    serve_source.add_argument("--edge-list", help="path to a 'u v t' edge-list file")
    serve_source.add_argument("--dataset", choices=dataset_keys(), help="built-in dataset key")
    serve_source.add_argument(
        "--snapshot", help="boot from a warmed index snapshot (see 'tspg warm')"
    )
    serve_source.add_argument(
        "--shard-snapshots",
        help="boot a sharded router from a per-shard snapshot directory "
        "(see 'tspg warm --shards N')",
    )
    serve.add_argument(
        "--algorithm", default="VUG", choices=available_algorithms(),
        help="default algorithm (requests may override per line)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker count per batch request (1 = serial), the width of "
        "the worker process pool attached when above 1 (repeated batches "
        "reuse its booted workers) and, with --listen, of the request "
        "thread pool",
    )
    serve.add_argument(
        "--budget", type=float, default=None,
        help="default per-batch time budget in seconds (requests may "
        "override with budget_ms)",
    )
    serve.add_argument("--cache-size", type=int, default=1024, help="LRU capacity (0 disables)")
    serve.add_argument(
        "--mmap", action="store_true",
        help="boot --snapshot / --shard-snapshots via the mmap-backed "
        "columnar path (zero-copy; a boot that cannot map degrades to the "
        "eager boot with a note)",
    )
    serve.add_argument(
        "--input", default=None,
        help="read requests from this file instead of stdin (scripting/tests)",
    )
    serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the JSONL protocol over TCP instead of stdio: many "
        "concurrent clients multiplex onto the one booted service with "
        "admission control (arrival-stamped deadlines, refuse-before-work, "
        "per-client fairness); port 0 picks a free port, printed on stderr",
    )
    serve.add_argument(
        "--stdio", action="store_true",
        help="explicit stdio transport (the default; conflicts with --listen)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT,
        help="with --listen: refuse new requests (ok:false, retryable) once "
        "this many are queued or running across all clients",
    )
    serve.add_argument(
        "--max-pending", type=int, default=DEFAULT_MAX_PENDING_PER_CLIENT,
        help="with --listen: per-client pending-request bound; a client "
        "that outruns the server stalls its own TCP reads (backpressure) "
        "instead of growing a queue",
    )
    serve.add_argument(
        "--max-line-bytes", type=int, default=DEFAULT_MAX_LINE_BYTES,
        help="with --listen: oversized request lines answer ok:false and "
        "close that connection instead of buffering without bound",
    )
    serve.add_argument(
        "--admission-margin-ms", type=float, default=0.0,
        help="with --listen: refuse a deadline-carrying request unless at "
        "least this much of its budget is still left at admission time",
    )

    warm = sub.add_parser(
        "warm", help="warm every graph index and save a binary snapshot"
    )
    warm_source = warm.add_mutually_exclusive_group(required=True)
    warm_source.add_argument("--edge-list", help="path to a 'u v t' edge-list file")
    warm_source.add_argument(
        "--dataset", choices=dataset_keys() + [SYNTH_SCALE_KEY],
        help="built-in dataset key, or the streaming synth-scale generator",
    )
    warm.add_argument(
        "--output", required=True,
        help="snapshot file to write (a directory of per-shard snapshots "
        "plus manifest.json when --shards > 1)",
    )
    warm.add_argument(
        "--scale-vertices", type=int, default=None,
        help=f"synth-scale only: vertex count (default "
        f"{SYNTH_SCALE.num_vertices})",
    )
    warm.add_argument(
        "--scale-edges", type=int, default=None,
        help=f"synth-scale only: edge draws, streamed — duplicates collapse "
        f"(default {SYNTH_SCALE.num_edges})",
    )
    warm.add_argument(
        "--scale-timestamps", type=int, default=None,
        help=f"synth-scale only: timestamp horizon (default "
        f"{SYNTH_SCALE.num_timestamps})",
    )
    warm.add_argument(
        "--shards", type=int, default=1,
        help="write one snapshot per time-range shard instead of a single "
        "full-graph snapshot (1 = single snapshot)",
    )
    warm.add_argument(
        "--shard-overlap", type=int, default=0,
        help="extent overlap between shards in timestamps (pick the "
        "workload's typical theta)",
    )

    inspect = sub.add_parser(
        "inspect",
        help="decode a snapshot's header and section table (no payload read)",
    )
    inspect.add_argument("snapshot", help="path to a .tspgsnap snapshot file")

    sub.add_parser("datasets", help="list the synthetic dataset analogues")

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=sorted(bench_experiments.EXPERIMENTS))
    experiment.add_argument("--dataset", default="D1", help="dataset key for θ-sweep experiments")
    experiment.add_argument("--datasets", nargs="*", default=None, help="dataset keys for multi-dataset experiments")
    experiment.add_argument("--queries", type=int, default=bench_experiments.DEFAULT_NUM_QUERIES)
    experiment.add_argument("--thetas", type=int, nargs="*", default=[6, 8, 10, 12])
    experiment.add_argument(
        "--workers", type=int, default=4, help="worker-pool width for exp13"
    )

    sub.add_parser("case-study", help="reproduce the SFMTA transit case study")

    return parser


def _command_query(args: argparse.Namespace) -> int:
    if args.begin > args.end:
        raise SystemExit(
            f"--begin ({args.begin}) must not be after --end ({args.end})"
        )
    if args.edge_list:
        graph = load_edge_list(args.edge_list)
    else:
        graph = get_dataset(args.dataset).load()
    source = _coerce_vertex(args.source, graph)
    target = _coerce_vertex(args.target, graph)
    if source == target:
        raise SystemExit("--source and --target must be different vertices")
    algorithm = get_algorithm(args.algorithm)
    outcome = algorithm.run(graph, source, target, (args.begin, args.end))
    result = outcome.result
    print(
        f"{args.algorithm}: tspG has {result.num_vertices} vertices and "
        f"{result.num_edges} edges ({outcome.elapsed_seconds:.4f}s)"
    )
    if args.show_edges:
        for u, v, t in sorted(result.edges, key=lambda edge: edge[2]):
            print(f"  {u} -> {v} @ {t}")
    return 0


def _load_batch_queries(args: argparse.Namespace, graph) -> List[TspgQuery]:
    """Build the batch: parse a queries file or sample a random workload."""
    if args.queries_file:
        queries: List[TspgQuery] = []
        with open(args.queries_file, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                if len(parts) != 4:
                    raise SystemExit(
                        f"{args.queries_file}:{line_no}: expected 'source target begin end'"
                    )
                source = _coerce_vertex(parts[0], graph)
                target = _coerce_vertex(parts[1], graph)
                try:
                    queries.append(TspgQuery(source, target, (int(parts[2]), int(parts[3]))))
                except ValueError as exc:
                    raise SystemExit(f"{args.queries_file}:{line_no}: {exc}") from None
        if not queries:
            raise SystemExit(f"{args.queries_file}: no queries found")
        return queries
    workload = generate_workload(
        graph, num_queries=args.num_queries, theta=_batch_theta(args, graph),
        seed=args.seed, name="cli-batch",
    )
    return list(workload)


def _batch_theta(args: argparse.Namespace, graph) -> int:
    """Interval span for random batch workloads (also the default shard overlap)."""
    if args.theta is not None:
        return args.theta
    if args.dataset:
        return get_dataset(args.dataset).default_theta
    span = graph.time_interval()
    return max(2, (span.span if span else 2) // 4)


def _print_mmap_note(args: argparse.Namespace, service) -> None:
    """Surface an mmap boot that degraded to eager (mirrors the process note)."""
    if not getattr(args, "mmap", False) or service.snapshot_mmap_active:
        return
    reasons = service.mmap_fallback_reasons()
    if reasons:
        print("note: mmap boot degraded to eager — " + "; ".join(reasons))


def _require(check, value, flag: str) -> None:
    """Run one of the serving tier's bound checks on a flag before any boot."""
    try:
        check(value, flag)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _command_batch(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.num_queries < 1:
        raise SystemExit("--num-queries must be at least 1")
    if args.theta is not None and args.theta < 2:
        raise SystemExit("--theta must be at least 2")
    if args.repeat < 1:
        raise SystemExit("--repeat must be at least 1")
    _require(check_finite_non_negative, args.budget, "--budget")
    if args.cache_size < 0:
        raise SystemExit("--cache-size must be non-negative")
    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    if args.shard_overlap is not None and args.shard_overlap < 0:
        raise SystemExit("--shard-overlap must be non-negative")
    if args.shard_snapshots and args.shards > 1:
        raise SystemExit(
            "--shards conflicts with --shard-snapshots (the manifest fixes "
            "the shard count)"
        )
    if args.shard_snapshots and args.shard_overlap is not None:
        raise SystemExit(
            "--shard-overlap conflicts with --shard-snapshots (the manifest "
            "fixes the overlap)"
        )
    if args.mmap and not (args.snapshot or args.shard_snapshots):
        raise SystemExit("--mmap requires --snapshot or --shard-snapshots")
    service = None
    if args.edge_list:
        graph = load_edge_list(args.edge_list)
    elif args.shard_snapshots:
        try:
            service = ShardedTspgService.from_shard_snapshots(
                args.shard_snapshots, mmap=args.mmap,
                default_algorithm=args.algorithm, cache_size=args.cache_size,
            )
        except SnapshotError as exc:
            raise SystemExit(str(exc)) from None
        _print_mmap_note(args, service)
        # The union of the shard graphs — only needed here to sample the
        # random workload / coerce query vertices, never re-read from disk.
        graph = service.graph
    elif args.snapshot:
        try:
            if args.shards > 1:
                graph = load_snapshot(args.snapshot, mmap=args.mmap)
            else:
                # Boot through from_snapshot so the snapshot stays attached
                # and pool workers have a file to boot from.
                service = TspgService.from_snapshot(
                    args.snapshot, mmap=args.mmap,
                    default_algorithm=args.algorithm, cache_size=args.cache_size,
                )
                _print_mmap_note(args, service)
                graph = service.graph
        except SnapshotError as exc:
            raise SystemExit(str(exc)) from None
    else:
        graph = get_dataset(args.dataset).load()
    queries = _load_batch_queries(args, graph)
    if service is None:
        if args.shards > 1:
            overlap = (
                args.shard_overlap
                if args.shard_overlap is not None
                else _batch_theta(args, graph)
            )
            service = ShardedTspgService(
                graph, args.shards, overlap=overlap,
                default_algorithm=args.algorithm, cache_size=args.cache_size,
            )
        else:
            service = TspgService(
                graph, default_algorithm=args.algorithm, cache_size=args.cache_size,
            )
    use_cache = not args.no_cache
    rows = []
    # Forks lazily: a batch that cannot use the pool costs nothing.
    pool = WorkerPool(max_workers=args.workers) if args.workers > 1 else None
    service.attach_pool(pool)
    try:
        for pass_no in range(1, args.repeat + 1):
            report = service.run_batch(
                queries,
                max_workers=args.workers,
                use_cache=use_cache,
                time_budget_seconds=args.budget,
            )
            rows.append({"pass": pass_no, **report.as_row()})
    finally:
        if pool is not None:
            pool.close()
    if args.shard_snapshots:
        source = f"shard snapshots {args.shard_snapshots}"
        shard_note = f", {service.num_shards} shards"
    else:
        source = (
            f"snapshot {args.snapshot}" if args.snapshot
            else (args.edge_list or args.dataset)
        )
        shard_note = f", {args.shards} shards" if args.shards > 1 else ""
    print(
        render_table(
            rows,
            title=f"Batch of {len(queries)} queries on "
            f"{graph.num_vertices} vertices / {graph.num_edges} edges "
            f"({source}{shard_note})",
        )
    )
    stats = service.cache_stats()
    print(
        f"cache: {stats.hits} hits, {stats.misses} misses, {stats.evictions} evictions "
        f"(hit rate {stats.hit_rate:.0%}); indices warmed once: {service.index_stats}"
    )
    if args.workers > 1 and all(row["executor"] != "processes" for row in rows):
        # Name the *specific* condition(s) instead of re-listing every
        # possibility: the service knows exactly why it ran serially.
        reasons = service.process_fallback_reasons(max_workers=args.workers)
        if len(queries) <= 1:
            # Batch size is the one condition only the caller can see.
            reasons.append("a batch of one query runs serially")
        fallback_routed = sum(row.get("fallback") or 0 for row in rows)
        if not reasons and fallback_routed:
            # A sharded batch whose queries all routed to the full-graph
            # fallback never engages workers either — the fallback has no
            # per-shard file and always runs in this process.
            reasons.append(
                f"{fallback_routed} quer{'y was' if fallback_routed == 1 else 'ies were'} "
                "routed to the full-graph fallback (interval wider than "
                "every shard extent), which always runs in this process "
                "— widen --shard-overlap to keep them shard-local"
            )
        if not reasons:
            reasons.append(
                "the result cache answered all but at most one query of "
                "every pass"
            )
        print(
            "note: no pass ran on the worker pool — "
            + "; ".join(reasons)
            + " — computation ran serially"
        )
    return 0


def _serve_service(args: argparse.Namespace, pool: Optional[WorkerPool]):
    """Boot the service a ``tspg serve`` session answers from."""
    if args.shard_snapshots:
        service = ShardedTspgService.from_shard_snapshots(
            args.shard_snapshots, mmap=args.mmap,
            default_algorithm=args.algorithm, cache_size=args.cache_size,
            pool=pool,
        )
        return service, f"shard snapshots {args.shard_snapshots}"
    if args.snapshot:
        service = TspgService.from_snapshot(
            args.snapshot, mmap=args.mmap,
            default_algorithm=args.algorithm, cache_size=args.cache_size,
            pool=pool,
        )
        return service, f"snapshot {args.snapshot}"
    if args.mmap:
        raise SystemExit("--mmap requires --snapshot or --shard-snapshots")
    if args.edge_list:
        graph = load_edge_list(args.edge_list)
        source = args.edge_list
    else:
        graph = get_dataset(args.dataset).load()
        source = args.dataset
    service = TspgService(
        graph, default_algorithm=args.algorithm, cache_size=args.cache_size,
        pool=pool,
    )
    return service, source


def _print_serial_note(args: argparse.Namespace, service) -> None:
    """Tell the operator why batches will not reach the worker pool."""
    if args.workers <= 1:
        return
    reasons = service.process_fallback_reasons(max_workers=args.workers)
    if reasons:
        print(
            "note: batches will run serially — " + "; ".join(reasons),
            file=sys.stderr,
            flush=True,
        )


def _parse_listen(value: str) -> tuple:
    """Split ``--listen HOST:PORT`` (host defaults to loopback)."""
    host, sep, port = value.rpartition(":")
    if not sep:
        raise SystemExit("--listen expects HOST:PORT (e.g. 127.0.0.1:7401 or :0)")
    try:
        port_number = int(port)
    except ValueError:
        raise SystemExit(f"--listen port must be an integer, got {port!r}") from None
    return host or "127.0.0.1", port_number


def _serve_listen(args: argparse.Namespace, core: RequestCore, source: str) -> int:
    """The TCP transport: one event loop, many clients, one booted core."""
    host, port = _parse_listen(args.listen)

    async def _main() -> None:
        if threading.current_thread() is threading.main_thread():
            # Unlike asyncio.run's own handler, this sets the loop's wakeup
            # fd, so a SIGINT the kernel delivers to a worker thread still
            # wakes an idle loop.
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGINT, asyncio.current_task().cancel
            )
        server = TspgServer(
            core,
            host,
            port,
            workers=args.workers,
            max_inflight=args.max_inflight,
            max_pending_per_client=args.max_pending,
            max_line_bytes=args.max_line_bytes,
            admission_margin_ms=args.admission_margin_ms,
        )
        await server.start()
        bound_host, bound_port = server.address
        print(
            f"listening on {bound_host}:{bound_port} — serving {source} "
            f"(algorithm {args.algorithm}, {args.workers} workers, "
            f"max-inflight {args.max_inflight}); one JSON request per "
            "line per connection, Ctrl-C stops",
            file=sys.stderr,
            flush=True,
        )
        # After the banner: its first line is where clients find the port.
        _print_serial_note(args, core.service)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()
            stats = core.stats
            print(
                f"served {stats.responses_sent} responses to "
                f"{stats.connections_opened} connections from {source} "
                f"({stats.refusals} refusals, "
                f"{stats.protocol_errors} protocol errors)",
                file=sys.stderr,
            )

    try:
        asyncio.run(_main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    return 0


def _command_serve(args: argparse.Namespace, stdin: Optional[TextIO] = None) -> int:
    """The persistent serving loop: boot once, answer JSONL until EOF.

    Both transports drive one :class:`~repro.service.server.RequestCore`
    over the booted service.  On stdio (the default, single-client case)
    responses go to stdout — one JSON object per line, always with an
    ``ok`` flag — and the human-facing banner goes to stderr so stdout
    stays machine-parseable.  A malformed request answers ``ok: false``
    and the loop continues; blank lines and ``#`` comments answer
    nothing; only EOF or ``{"op": "quit"}`` (acknowledged) ends the
    session.  With ``--listen`` the same protocol is served over TCP to
    many concurrent clients (see :class:`~repro.service.TspgServer`).
    """
    _require(check_at_least_one, args.workers, "--workers")
    if args.cache_size < 0:
        raise SystemExit("--cache-size must be non-negative")
    if args.listen and args.stdio:
        raise SystemExit("--listen and --stdio are mutually exclusive")
    if args.listen and args.input:
        raise SystemExit("--input reads stdio requests; it conflicts with --listen")
    _require(check_at_least_one, args.max_inflight, "--max-inflight")
    _require(check_at_least_one, args.max_pending, "--max-pending")
    _require(check_at_least_one, args.max_line_bytes, "--max-line-bytes")
    _require(check_finite_non_negative, args.admission_margin_ms, "--admission-margin-ms")
    _require(check_finite_non_negative, args.budget, "--budget")
    # Forks lazily, on the first batch that runs on it.
    pool = WorkerPool(max_workers=args.workers) if args.workers > 1 else None
    opened = None
    try:
        try:
            service, source = _serve_service(args, pool)
        except SnapshotError as exc:
            raise SystemExit(str(exc)) from None
        if args.mmap and not service.snapshot_mmap_active:
            print(
                "note: mmap boot degraded to eager — "
                + "; ".join(service.mmap_fallback_reasons()),
                file=sys.stderr,
            )
        core = RequestCore(
            service,
            default_workers=args.workers,
            default_budget_seconds=args.budget,
        )
        if args.listen:
            return _serve_listen(args, core, source)
        print(
            f"serving {source} (algorithm {args.algorithm}, "
            f"{args.workers} workers); one JSON request per line, EOF or "
            '{"op": "quit"} ends',
            file=sys.stderr,
        )
        _print_serial_note(args, service)
        if stdin is None:
            if args.input:
                stdin = opened = open(args.input, "r", encoding="utf-8")
            else:
                stdin = sys.stdin
        for line in stdin:
            response, session_over = core.handle_line(line)
            if response is not None:
                print(json.dumps(response), flush=True)
                if not session_over:
                    core.stats.note_response()
            if session_over:
                break
        print(
            f"served {core.stats.responses_sent} requests from {source}",
            file=sys.stderr,
        )
    finally:
        if opened is not None:
            opened.close()
        if pool is not None:
            pool.close()
    return 0


def _command_warm(args: argparse.Namespace) -> int:
    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    if args.shard_overlap < 0:
        raise SystemExit("--shard-overlap must be non-negative")
    scale_overrides = (args.scale_vertices, args.scale_edges, args.scale_timestamps)
    if any(o is not None for o in scale_overrides) and args.dataset != SYNTH_SCALE_KEY:
        raise SystemExit(
            f"--scale-* flags only apply to --dataset {SYNTH_SCALE_KEY}"
        )
    if args.edge_list:
        graph = load_edge_list(args.edge_list)
        source = args.edge_list
    elif args.dataset == SYNTH_SCALE_KEY:
        spec = SYNTH_SCALE.scaled(
            num_vertices=args.scale_vertices,
            num_edges=args.scale_edges,
            num_timestamps=args.scale_timestamps,
        )
        graph = spec.load()
        source = (
            f"{SYNTH_SCALE_KEY} (|V|={spec.num_vertices}, "
            f"{spec.num_edges} edge draws, |T|≤{spec.num_timestamps})"
        )
    else:
        graph = get_dataset(args.dataset).load()
        source = args.dataset
    started = time.perf_counter()
    if args.shards > 1:
        router = ShardedTspgService(
            graph, args.shards, overlap=args.shard_overlap
        )
        manifest = router.save_shards(args.output)
        elapsed = time.perf_counter() - started
        print(
            f"warmed {source}: |V|={graph.num_vertices} |E|={graph.num_edges} "
            f"epoch={manifest.epoch} span={manifest.span}"
        )
        print(
            f"shard set v{manifest.version} written to {args.output} "
            f"({manifest.num_shards} shards, overlap {manifest.overlap}, "
            f"{elapsed:.3f}s); boot it with 'tspg batch --shard-snapshots'"
        )
        return 0
    info = save_snapshot(graph, args.output)
    elapsed = time.perf_counter() - started
    print(
        f"warmed {source}: |V|={info.num_vertices} |E|={info.num_edges} "
        f"|T|={info.num_timestamps} epoch={info.epoch}"
    )
    print(
        f"snapshot v{info.version} written to {args.output} "
        f"({info.payload_bytes} payload bytes, {elapsed:.3f}s)"
    )
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    """Decode header + section table; never touches a payload byte."""
    try:
        info, sections = inspect_snapshot(args.snapshot)
    except SnapshotError as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"{args.snapshot}: snapshot v{info.version} epoch={info.epoch} "
        f"|V|={info.num_vertices} |E|={info.num_edges} "
        f"|T|={info.num_timestamps} ({info.payload_bytes} payload bytes)"
    )
    print(render_table([section.as_row() for section in sections]))
    sidecar = journal_path(args.snapshot)
    if os.path.exists(sidecar):
        try:
            journal, records = inspect_journal(sidecar)
        except SnapshotError as exc:
            raise SystemExit(str(exc)) from None
        stale = journal.base_epoch != info.epoch
        print(
            f"\n{sidecar}: journal v{journal.version} "
            f"base_epoch={journal.base_epoch} records={journal.num_records} "
            f"({journal.byte_length} bytes)"
            + (" [STALE: base epoch does not match the snapshot]" if stale else "")
        )
        if records:
            print(render_table([record.as_row() for record in records]))
    return 0


def _command_datasets(_: argparse.Namespace) -> int:
    rows = []
    for key in dataset_keys():
        spec = get_dataset(key)
        stats = compute_statistics(spec.load())
        rows.append(
            {
                "dataset": key,
                "paper_name": spec.paper_name,
                "theta": spec.default_theta,
                **stats.as_row(),
            }
        )
    print(render_table(rows, title="Synthetic dataset analogues (see DESIGN.md)"))
    # The scale generator is parameters, not a graph: loading it eagerly at
    # its headline sizes is what the mmap boot exists to avoid.
    parameters = ", ".join(
        f"{name}={value}" for name, value in SYNTH_SCALE.parameters().items()
    )
    print(
        f"\n{SYNTH_SCALE_KEY} (streaming generator, never loaded here): "
        f"{parameters}"
    )
    print(
        f"  {SYNTH_SCALE.description} Warm it into a snapshot with "
        f"'tspg warm --dataset {SYNTH_SCALE_KEY} --scale-edges N' and boot "
        f"with --mmap."
    )
    return 0


#: Experiments that sweep ``--thetas`` on one ``--dataset``.
THETA_SWEEPS = {"exp2", "exp5-fig10", "exp6", "exp7"}

#: Experiments that take neither a dataset nor a query count.
FIXED_EXPERIMENTS = {"table1", "exp8"}


def _check_experiment_args(args: argparse.Namespace) -> None:
    """Reject bad sizes and unknown datasets in the flags ``args.name`` reads.

    Runs before any dataset loads, so each mistake is one line, not a
    traceback from deep inside a driver.
    """
    name = args.name
    if name in FIXED_EXPERIMENTS:
        return
    if args.queries < 1:
        raise SystemExit("--queries must be at least 1")
    single = name in THETA_SWEEPS or name in {"exp9", "exp13"}
    for key in [args.dataset] if single else args.datasets or ():
        if key not in dataset_keys():
            raise SystemExit(
                f"unknown dataset {key!r}; available: {', '.join(dataset_keys())}"
            )
    if name in THETA_SWEEPS:
        if not args.thetas:
            raise SystemExit("--thetas needs at least one value")
        if min(args.thetas) < 2:
            raise SystemExit("--thetas values must be at least 2")
    if name == "exp13" and args.workers < 1:
        raise SystemExit("--workers must be at least 1")


def _command_experiment(args: argparse.Namespace) -> int:
    _check_experiment_args(args)
    name = args.name
    driver = bench_experiments.EXPERIMENTS[name]
    if name in THETA_SWEEPS:
        report = driver(args.dataset, args.thetas, num_queries=args.queries)
    elif name in FIXED_EXPERIMENTS:
        report = driver()
    elif name == "exp9":
        report = driver(args.dataset, num_queries=args.queries)
    elif name == "exp13":
        report = driver(args.dataset, num_queries=args.queries, workers=args.workers)
    else:
        report = driver(keys=args.datasets, num_queries=args.queries)
    if name in THETA_SWEEPS:
        x_label = "theta"
    elif name in {"exp9", "exp13"}:
        x_label = "mode"
    else:
        x_label = "dataset"
    print(report.render(x_label=x_label))
    return 0


def _command_case_study(_: argparse.Namespace) -> int:
    source, target, interval = CASE_STUDY_QUERY
    network = generate_transit_network()
    report = generate_tspg_report(network, source, target, interval)
    result = report.result
    print(
        f"tspG from {source!r} to {target!r} within {interval}: "
        f"{result.num_vertices} stops, {result.num_edges} scheduled trips"
    )
    for line in describe_transfer_options(result):
        print(f"  {line}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "query": _command_query,
        "batch": _command_batch,
        "serve": _command_serve,
        "warm": _command_warm,
        "inspect": _command_inspect,
        "datasets": _command_datasets,
        "experiment": _command_experiment,
        "case-study": _command_case_study,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
