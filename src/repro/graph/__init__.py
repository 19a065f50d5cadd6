"""Temporal graph substrate: data structures, views, IO, validation, generators.

Layering and access conventions
-------------------------------

The substrate has two tiers:

* **Mutable graphs** — :class:`TemporalGraph`: a frozen ``GraphView`` that
  holds every edge, a buffer of rows the legacy mutators staged since the
  last read, the distinct timestamps, and a monotonically increasing
  mutation ``epoch`` that downstream layers stamp their derived state with.
* **Frozen read views** — :class:`~repro.graph.views.GraphView` (the CSR
  columnar store of a graph's edges, obtained via
  :meth:`TemporalGraph.view`, one per epoch) and
  :class:`~repro.graph.views.SubgraphView` (an edge mask over a
  ``GraphView`` that filters without copying edge storage).
  The VUG hot path exchanges these views end to end; they implement the
  read API of a graph.

Two conventions keep the copy discipline auditable across the codebase:

* ``*_view`` accessors (``out_neighbors_view``/``in_neighbors_view`` on
  both tiers) return sequences that callers must **not** mutate (cached
  ones on a ``SubgraphView``; a graph reads its CSR slices into a fresh
  list either way).  All other accessors return copies.
* ``.materialize()`` is the single boundary where a frozen view becomes a
  mutable :class:`TemporalGraph` again (paying the per-edge build cost once,
  through the bulk ``add_edges`` fast path).  Library code only crosses it
  at public-result boundaries — never inside the query pipeline.
"""

from .edge import TemporalEdge, TimeInterval, as_edge, as_interval
from .temporal_graph import EdgeDelta, TemporalGraph
from .views import GraphView, SubgraphView
from .builder import TemporalGraphBuilder, graph_from_edges, graph_from_temporal_edges
from .validation import (
    ValidationError,
    assert_edges_within_interval,
    assert_subgraph,
    edges_within_interval,
    is_subgraph,
    validate_graph,
)
from .statistics import GraphStatistics, compute_statistics, degree_histogram, timestamp_histogram
from .io import (
    EdgeListFormatError,
    edge_list_lines,
    iter_edge_list,
    load_edge_list,
    load_json,
    save_edge_list,
    save_json,
)
from .export import to_ascii, to_dot, to_graphml, write_dot, write_graphml
from . import generators

__all__ = [
    "TemporalEdge",
    "TimeInterval",
    "TemporalGraph",
    "EdgeDelta",
    "GraphView",
    "SubgraphView",
    "TemporalGraphBuilder",
    "GraphStatistics",
    "ValidationError",
    "EdgeListFormatError",
    "as_edge",
    "as_interval",
    "graph_from_edges",
    "graph_from_temporal_edges",
    "validate_graph",
    "is_subgraph",
    "assert_subgraph",
    "edges_within_interval",
    "assert_edges_within_interval",
    "compute_statistics",
    "degree_histogram",
    "timestamp_histogram",
    "load_edge_list",
    "iter_edge_list",
    "save_edge_list",
    "save_json",
    "load_json",
    "edge_list_lines",
    "to_dot",
    "to_graphml",
    "to_ascii",
    "write_dot",
    "write_graphml",
    "generators",
]
