"""Per-layer metrics from a traced run's spans.

Only spans of requests sent inside the timed window count (their
``bench_rid`` is known to the load generator); boot-time spans have no
request id and feed ``snapshot.boot_ms`` only.  A timing is reported as
p50, p99 and count; self time is a span minus its child spans.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from launcher import EXTRA_FIELDS

#: (metric, span, measure) for timings present on every workload.
COMMON_TIMINGS: Tuple[Tuple[str, str, str], ...] = (
    ("server.parse_ms", "server.parse", "duration"),
    ("server.queue_wait_ms", None, "queue_wait"),
    ("server.respond_self_ms", "server.respond", "self"),
    ("server.write_ms", None, "write"),
    ("service.submit_self_ms", "service.submit", "self"),
    ("cache.get_ms", "cache.get", "duration"),
    ("quickubg.polarity_ms", "quickubg.polarity", "self"),
    ("quickubg.mask_ms", "quickubg.mask", "self"),
    ("tightubg.tcv_ms", "tightubg.tcv", "self"),
    ("tightubg.tight_ms", "tightubg.tight", "self"),
    ("eev.verify_ms", "eev.verify", "self"),
)

#: Timings only some workloads exercise (router: scale-cold; ingest,
#: graph and journal: ingest-mix; snapshot boots: the snapshot boots).
WORKLOAD_TIMINGS: Tuple[Tuple[str, str, str], ...] = (
    ("router.submit_self_ms", "router.submit", "self"),
    ("service.ingest_self_ms", "service.ingest", "self"),
    ("graph.append_ms", "graph.append", "self"),
    ("views.extend_ms", "views.extend", "duration"),
    ("graph.warm_indices_ms", "graph.warm_indices", "duration"),
    ("journal.append_ms", "journal.append", "duration"),
)

#: Non-timing per-layer metrics reported on every workload, with units.
COMMON_COUNTS: Tuple[Tuple[str, str], ...] = (
    ("server.refusals", "count"),
    ("server.protocol_errors", "count"),
    ("cache.hit_ratio", "ratio"),
    ("quickubg.window_edges.p50", "edges"),
    ("quickubg.gq_edges.p50", "edges"),
    ("quickubg.mask_yield", "ratio"),
    ("tightubg.gt_over_gq", "ratio"),
    ("eev.result_over_gt", "ratio"),
    ("trace.qps_ratio", "ratio"),
    ("snapshot.boot_ms", "ms"),
)

#: Layers whose self time is compared to name the dominant one.
SELF_LAYERS = (
    "server.parse", "server.respond", "router.submit", "service.submit",
    "cache.get", "quickubg.polarity", "quickubg.mask", "tightubg.tcv",
    "tightubg.tight", "eev.verify", "service.ingest", "graph.append",
    "views.extend", "graph.warm_indices", "journal.append", "cache.rekey",
)


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def timing_metrics(name: str, values_ms: List[float]) -> Dict[str, Tuple[float, str]]:
    return {
        f"{name}.p50": (quantile(values_ms, 0.50), "ms"),
        f"{name}.p99": (quantile(values_ms, 0.99), "ms"),
        f"{name}.count": (float(len(values_ms)), "count"),
    }


def layer_metrics(spans: Iterable, query_rids: Dict[int, float], ingest_rids: set,
                  stats: dict, qps_ratio: float) -> Dict[str, object]:
    """Every per-layer metric of one traced session.

    ``query_rids`` maps each timed query's request id to the time its
    response arrived at the client; ``ingest_rids`` holds the timed
    ingests.  Returns ``{"metrics": {name: (value, unit)}, "self_ms":
    {layer: total self ms}}``.
    """
    by_name: Dict[str, list] = defaultdict(list)
    boot_ms: List[float] = []
    parse_end: Dict[int, float] = {}
    respond: Dict[int, Tuple[float, float]] = {}
    timed = set(query_rids) | ingest_rids
    for name, rid, start, end, self_s, extra in spans:
        if rid is None:
            if name == "snapshot.boot":
                boot_ms.append((end - start) * 1000.0)
            continue
        if rid not in timed:
            continue
        by_name[name].append((rid, start, end, self_s, extra))
        if name == "server.parse":
            parse_end[rid] = end
        elif name == "server.respond":
            respond[rid] = (start, end)

    def measure(span: str, how: str, rids=None) -> List[float]:
        rows = by_name.get(span, [])
        if rids is not None:
            rows = [row for row in rows if row[0] in rids]
        if how == "self":
            return [row[3] * 1000.0 for row in rows]
        return [(row[2] - row[1]) * 1000.0 for row in rows]

    queries = set(query_rids)
    metrics: Dict[str, Tuple[float, str]] = {}
    for metric, span, how in COMMON_TIMINGS + WORKLOAD_TIMINGS:
        if how == "queue_wait":
            values = [
                (respond[rid][0] - parse_end[rid]) * 1000.0
                for rid in queries if rid in respond and rid in parse_end
            ]
        elif how == "write":
            values = [
                (query_rids[rid] - respond[rid][1]) * 1000.0
                for rid in queries if rid in respond
            ]
        else:
            # Server-tier spans of ingests would mix two request shapes;
            # they are reported for queries only.
            scope = queries if span.startswith("server.") else None
            values = measure(span, how, scope)
        metrics.update(timing_metrics(metric, values))

    def extras(span: str, key: str) -> List[float]:
        position = EXTRA_FIELDS[span].index(key)
        return [row[4][position] for row in by_name.get(span, [])]

    server = stats.get("server", {})
    metrics["server.refusals"] = (
        float(server.get("refused_deadline", 0) + server.get("refused_overload", 0)), "count",
    )
    metrics["server.protocol_errors"] = (float(server.get("protocol_errors", 0)), "count")
    hits = extras("cache.get", "hit")
    metrics["cache.hit_ratio"] = (_ratio(sum(hits), len(hits)), "ratio")
    windows, gq = extras("quickubg.mask", "window"), extras("quickubg.mask", "gq")
    metrics["quickubg.window_edges.p50"] = (quantile(windows, 0.5), "edges")
    metrics["quickubg.gq_edges.p50"] = (quantile(gq, 0.5), "edges")
    metrics["quickubg.mask_yield"] = (_ratio(sum(gq), sum(windows)), "ratio")
    metrics["tightubg.gt_over_gq"] = (
        _ratio(sum(extras("tightubg.tight", "gt")), sum(extras("tightubg.tight", "gq"))), "ratio",
    )
    metrics["eev.result_over_gt"] = (
        _ratio(sum(extras("eev.verify", "result")), sum(extras("eev.verify", "gt"))), "ratio",
    )
    metrics["trace.qps_ratio"] = (qps_ratio, "ratio")
    # Workload-specific counts (0 where the layer is not on the path).
    fallbacks = extras("router.submit", "fallback")
    metrics["router.fallback_ratio"] = (_ratio(sum(fallbacks), len(fallbacks)), "ratio")
    ingests = len(by_name.get("service.ingest", []))
    metrics["cache.dropped_per_ingest"] = (
        _ratio(sum(extras("cache.rekey", "dropped")), ingests), "entries",
    )
    append_only = extras("graph.append", "append_only")
    metrics["graph.append_only_ratio"] = (_ratio(sum(append_only), len(append_only)), "ratio")
    journal = extras("journal.append", "bytes")
    metrics["journal.bytes_per_append"] = (_ratio(sum(journal), len(journal)), "bytes")
    metrics["snapshot.boot_ms"] = (sum(boot_ms), "ms")
    metrics["snapshot.boot.count"] = (float(len(boot_ms)), "count")

    self_ms = {
        layer: sum(row[3] for row in by_name.get(layer, [])) * 1000.0
        for layer in SELF_LAYERS
        if by_name.get(layer)
    }
    return {"metrics": metrics, "self_ms": self_ms}


def reported_layer_names() -> List[Tuple[str, str]]:
    """The per-layer metrics every workload reports, with their units."""
    names: List[Tuple[str, str]] = []
    for metric, _, _ in COMMON_TIMINGS:
        names += [(f"{metric}.p50", "ms"), (f"{metric}.p99", "ms"), (f"{metric}.count", "count")]
    return names + list(COMMON_COUNTS)


def dominant_layer(self_ms: Dict[str, float]) -> Optional[str]:
    return max(self_ms, key=self_ms.get) if self_ms else None
