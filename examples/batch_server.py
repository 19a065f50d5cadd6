"""Batch serving scenario: one shared graph, a stream of repeat-heavy queries.

Models the deployment the service layer is built for: a long-lived process
owns one temporal graph (here the transit network of the paper's case study)
and answers bursts of path-graph queries from many clients.  Real query
streams are repeat-heavy — popular origin/destination pairs recur — so the
service's LRU cache turns most of the traffic into dictionary lookups, and
only the cold remainder runs VUG.  (A service booted from a snapshot can
also spread that remainder over the processes of an attached
``WorkerPool``; see docs/serving.md.)

Run with::

    python examples/batch_server.py
"""

from __future__ import annotations

import random

from repro.datasets.transit import generate_transit_network
from repro.queries.query import TspgQuery
from repro.queries.workload import generate_workload
from repro.service import TspgService


def simulated_traffic(base: list, num_requests: int, seed: int = 11) -> list:
    """A repeat-heavy request stream: 80% of traffic hits 20% of the queries."""
    rng = random.Random(seed)
    hot = base[: max(1, len(base) // 5)]
    stream = []
    for _ in range(num_requests):
        pool = hot if rng.random() < 0.8 else base
        stream.append(rng.choice(pool))
    return stream


def main() -> None:
    network = generate_transit_network()
    print(
        f"Transit network: {network.num_vertices} stops, "
        f"{network.num_edges} scheduled trips"
    )

    service = TspgService(network, cache_size=256)
    print(f"Service ready; indices warmed once: {service.index_stats}\n")

    # Distinct origin/destination/interval combinations clients ask about.
    catalogue = [
        TspgQuery(q.source, q.target, q.interval)
        for q in generate_workload(network, num_queries=25, theta=8, seed=3)
    ]

    # Three bursts of traffic over the same catalogue.
    for burst_no in range(1, 4):
        stream = simulated_traffic(catalogue, num_requests=100, seed=burst_no)
        report = service.run_batch(stream, time_budget_seconds=30.0)
        print(
            f"burst {burst_no}: {report.num_completed}/{report.num_queries} answered "
            f"in {report.wall_seconds:.4f}s "
            f"({report.queries_per_second:,.0f} queries/s, "
            f"{report.num_cache_hits} cache hits)"
        )

    stats = service.cache_stats()
    print(
        f"\ncache after 300 requests: {stats.hits} hits / {stats.misses} misses "
        f"(hit rate {stats.hit_rate:.0%}, {stats.size} entries)"
    )

    # A single hot query is now effectively free.
    hot_query = catalogue[0]
    outcome = service.submit(hot_query)
    print(
        f"hot query {hot_query.as_tuple()} served in "
        f"{outcome.elapsed_seconds * 1e6:.1f} µs "
        f"(cache_hit={outcome.extras.get('cache_hit', False)}); "
        f"tspG has {outcome.result.num_vertices} stops"
    )


if __name__ == "__main__":
    main()
