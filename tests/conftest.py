"""Shared fixtures: the paper's running example and assorted small graphs."""

from __future__ import annotations

import gc

import pytest

from repro.graph.edge import TimeInterval
from repro.graph.generators import paper_running_example
from repro.graph.temporal_graph import TemporalGraph
from repro.testing import (  # noqa: F401 — re-exported for legacy imports
    PAPER_GQ_EDGES,
    PAPER_GT_EDGES,
    PAPER_TSPG_EDGES,
    PAPER_TSPG_VERTICES,
)


@pytest.fixture(scope="session")
def synth_scale_graph():
    """The 120k-edge ``synth-scale`` graph, warmed as a snapshot boot serves it.

    Loaded once per session (~1.5 s) and only read: the view and its
    CSR-aligned columns are built up front, as a v4 snapshot boot adopts
    them, so no test's first query pays for them.  Its half a million
    objects are frozen out of the garbage collector while the session
    runs; otherwise every later full collection would traverse them and
    slow every test that runs after the first user.
    """
    from repro.datasets.registry import SYNTH_SCALE

    graph = SYNTH_SCALE.load()
    graph.warm_indices()
    view = graph.view()
    view.out_ts, view.in_ts  # noqa: B018 — derives the aligned columns
    gc.collect()
    gc.freeze()
    yield graph
    gc.unfreeze()


@pytest.fixture(scope="module")
def worker_pool():
    """A two-process ``WorkerPool`` shared by one test module's batches.

    Attach it to a service and its batches run on the workers; they fork
    lazily, on the first batch that does.
    """
    from repro.service import WorkerPool

    with WorkerPool(max_workers=2) as pool:
        yield pool


@pytest.fixture
def paper_graph() -> TemporalGraph:
    """The directed temporal graph of Fig. 1(a)."""
    return paper_running_example()


@pytest.fixture
def paper_interval() -> TimeInterval:
    """The query interval [2, 7] used throughout the paper's running example."""
    return TimeInterval(2, 7)


@pytest.fixture
def paper_query(paper_graph, paper_interval):
    """(graph, source, target, interval) of the running example."""
    return paper_graph, "s", "t", paper_interval


@pytest.fixture
def diamond_graph() -> TemporalGraph:
    """A small diamond with two disjoint temporal simple paths s→t."""
    return TemporalGraph(
        edges=[
            ("s", "a", 1),
            ("a", "t", 3),
            ("s", "b", 2),
            ("b", "t", 4),
            ("a", "b", 2),
        ]
    )


@pytest.fixture
def chain_graph() -> TemporalGraph:
    """A simple temporal chain s → v1 → v2 → v3 → t with ascending timestamps."""
    return TemporalGraph(
        edges=[
            ("s", "v1", 1),
            ("v1", "v2", 2),
            ("v2", "v3", 3),
            ("v3", "t", 4),
        ]
    )


@pytest.fixture
def unreachable_graph() -> TemporalGraph:
    """A graph where t is unreachable from s under the temporal constraint."""
    return TemporalGraph(
        edges=[
            ("s", "a", 5),
            ("a", "t", 3),  # timestamp decreases, so no temporal path exists
            ("b", "t", 9),
        ]
    )
