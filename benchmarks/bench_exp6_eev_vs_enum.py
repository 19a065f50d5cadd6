"""Exp-6 (Fig. 11) — EEV vs explicit enumeration on the tight upper bound.

Both methods receive the identical tight upper-bound graph ``Gt`` and must
produce the identical ``tspG``; the paper reports EEV being at least an order
of magnitude faster because it avoids re-verifying edges shared by many paths.
The benchmark reproduces the θ-sweep on the dense flickr-like analogue (D8 —
the regime where enumeration suffers) and cross-checks the results for
equality; the enumeration side is capped so a blow-up is reported as ``inf``
rather than hanging the suite.
"""

from __future__ import annotations

import pytest

from repro.baselines.enumeration import EnumerationBudgetExceeded, tspg_by_enumeration
from repro.bench.experiments import exp6_eev_vs_enum
from repro.core.eev import escaped_edges_verification
from repro.core.quick_ubg import quick_upper_bound_graph
from repro.core.tight_ubg import tight_upper_bound_graph
from repro.datasets.registry import get_dataset
from repro.queries.workload import generate_workload

from bench_config import BENCH_NUM_QUERIES, BENCH_THETAS

DATASET = "D8"
ENUMERATION_CAP = 150_000


def _tight_graphs(theta: int):
    graph = get_dataset(DATASET).load()
    workload = generate_workload(graph, num_queries=BENCH_NUM_QUERIES, theta=theta, seed=7)
    prepared = []
    for query in workload:
        quick = quick_upper_bound_graph(graph, query.source, query.target, query.interval)
        tight = tight_upper_bound_graph(quick, query.source, query.target, query.interval)
        prepared.append((query, tight))
    return prepared


@pytest.mark.parametrize("theta", BENCH_THETAS[:2])
@pytest.mark.parametrize("verifier", ["EEV", "Enumeration"])
def test_exp6_verifier_time(benchmark, theta, verifier):
    """One Fig. 11 point: one verifier at one θ, starting from the same Gt."""
    prepared = _tight_graphs(theta)

    def run_eev():
        return [
            escaped_edges_verification(tight, q.source, q.target, q.interval)
            for q, tight in prepared
        ]

    def run_enum():
        results = []
        for q, tight in prepared:
            try:
                results.append(
                    tspg_by_enumeration(
                        tight, q.source, q.target, q.interval, max_paths=ENUMERATION_CAP
                    ).result
                )
            except EnumerationBudgetExceeded:
                results.append(None)
        return results

    results = benchmark.pedantic(run_eev if verifier == "EEV" else run_enum, rounds=1, iterations=1)
    benchmark.extra_info["theta"] = theta
    benchmark.extra_info["verifier"] = verifier
    assert len(results) == len(prepared)


def test_exp6_results_identical_and_summary(benchmark, save_report):
    report = benchmark.pedantic(
        exp6_eev_vs_enum,
        args=(DATASET,),
        kwargs=dict(
            thetas=BENCH_THETAS,
            num_queries=BENCH_NUM_QUERIES,
            enumeration_cap=ENUMERATION_CAP,
        ),
        rounds=1,
        iterations=1,
    )
    save_report(f"exp6_eev_vs_enum_{DATASET}", report, x_label="theta")
    assert not any("MISMATCH" in note for note in report.notes)
    # The two curves exist for every θ and EEV never loses to enumeration at
    # the largest θ (where the path explosion hits).
    assert set(report.series) == {"EEV", "Enumeration"}
    assert len(report.series["EEV"]) == len(BENCH_THETAS)
    largest = BENCH_THETAS[-1]
    assert report.series["EEV"][largest] <= report.series["Enumeration"][largest]
