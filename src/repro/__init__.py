"""repro — Temporal Simple Path Graph generation (VUG).

A from-scratch Python implementation of *"Efficient Temporal Simple Path Graph
Generation"* (ICDE 2025): the VUG algorithm (QuickUBG + TightUBG + EEV), the
enumeration baselines it is compared against, synthetic dataset analogues, a
query-workload harness and the benchmark drivers reproducing every table and
figure of the paper's evaluation.

Quickstart
----------
>>> from repro import TemporalGraph, generate_tspg
>>> graph = TemporalGraph(edges=[("s", "b", 2), ("b", "c", 3), ("b", "t", 6),
...                              ("c", "t", 7), ("s", "a", 3)])
>>> tspg = generate_tspg(graph, "s", "t", (2, 7))
>>> sorted(tspg.vertices)
['b', 'c', 's', 't']
"""

from .graph import GraphView, SubgraphView, TemporalEdge, TemporalGraph, TimeInterval
from .graph.builder import TemporalGraphBuilder
from .core import (
    Deadline,
    PathGraph,
    VUG,
    VUGReport,
    compute_polarity_times,
    escaped_edges_verification,
    generate_tspg,
    generate_tspg_report,
    quick_upper_bound_graph,
    tight_upper_bound_graph,
)
from .baselines import EPdtTSG, EPesTSG, EPtgTSG, NaiveEnumeration
from .algorithms import (
    ALGORITHM_CLASSES,
    PAPER_ALGORITHMS,
    VUGAlgorithm,
    available_algorithms,
    get_algorithm,
)
from .paths import (
    TemporalPath,
    count_temporal_simple_paths,
    enumerate_temporal_simple_paths,
)
from .queries import QueryRunner, QueryWorkload, TspgQuery, generate_workload
from .service import (
    BatchReport,
    ShardedTspgService,
    TspgService,
    WorkerPool,
    WorkerPoolError,
)
from .store import SnapshotError, load_snapshot, save_snapshot
from .analysis import brute_force_tspg

__version__ = "1.0.0"

__all__ = [
    "TemporalGraph",
    "GraphView",
    "SubgraphView",
    "TemporalEdge",
    "TimeInterval",
    "TemporalGraphBuilder",
    "PathGraph",
    "VUG",
    "VUGReport",
    "generate_tspg",
    "generate_tspg_report",
    "quick_upper_bound_graph",
    "tight_upper_bound_graph",
    "escaped_edges_verification",
    "compute_polarity_times",
    "EPdtTSG",
    "EPesTSG",
    "EPtgTSG",
    "NaiveEnumeration",
    "VUGAlgorithm",
    "ALGORITHM_CLASSES",
    "PAPER_ALGORITHMS",
    "available_algorithms",
    "get_algorithm",
    "TemporalPath",
    "enumerate_temporal_simple_paths",
    "count_temporal_simple_paths",
    "TspgQuery",
    "QueryWorkload",
    "QueryRunner",
    "generate_workload",
    "TspgService",
    "ShardedTspgService",
    "BatchReport",
    "WorkerPool",
    "WorkerPoolError",
    "Deadline",
    "SnapshotError",
    "load_snapshot",
    "save_snapshot",
    "brute_force_tspg",
    "__version__",
]
