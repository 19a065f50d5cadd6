"""Exporting temporal graphs and path graphs for visualisation.

All four applications in the paper's introduction (outbreak control, financial
monitoring, travel planning, trend detection) use the ``tspG`` as a *visual*
artifact — Fig. 13 is literally a drawing of one.  This module renders
temporal graphs and :class:`~repro.core.result.PathGraph` results to

* **Graphviz DOT** (``to_dot``) — every temporal edge becomes a labelled arc;
  query endpoints are highlighted;
* **GraphML** (``to_graphml``) — for yEd/Gephi/NetworkX consumers, with the
  timestamp stored as an edge attribute;
* a plain **ASCII adjacency listing** (``to_ascii``) — handy in terminals and
  doctests.

The exporters take either a :class:`TemporalGraph` or a :class:`PathGraph`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from .edge import Timestamp, Vertex
from .temporal_graph import TemporalGraph

GraphLike = Union[TemporalGraph, "PathGraphLike"]


class PathGraphLike:  # pragma: no cover - typing helper only
    """Structural protocol: anything with ``vertices`` and ``edges`` members."""

    vertices: Iterable[Vertex]
    edges: Iterable[Tuple[Vertex, Vertex, Timestamp]]


def _members(graph: GraphLike) -> Tuple[List[Vertex], List[Tuple[Vertex, Vertex, Timestamp]]]:
    """Normalise a TemporalGraph or PathGraph into vertex/edge lists."""
    if isinstance(graph, TemporalGraph):
        vertices = list(graph.vertices())
        edges = [edge.as_tuple() for edge in graph.sorted_edges()]
    else:
        vertices = list(graph.vertices)
        edges = sorted(graph.edges, key=lambda item: (item[2], str(item[0]), str(item[1])))
    return vertices, edges


def _sorted_vertices(vertices: List[Vertex]) -> List[Vertex]:
    return sorted(vertices, key=str)


def to_dot(
    graph: GraphLike,
    name: str = "tspG",
    source: Optional[Vertex] = None,
    target: Optional[Vertex] = None,
    rankdir: str = "LR",
) -> str:
    """Render as a Graphviz DOT digraph.

    ``source`` / ``target`` (when given, or taken from a :class:`PathGraph`)
    are drawn as doubled circles so the query endpoints stand out.
    """
    if source is None and hasattr(graph, "source"):
        source = graph.source  # type: ignore[union-attr]
    if target is None and hasattr(graph, "target"):
        target = graph.target  # type: ignore[union-attr]
    vertices, edges = _members(graph)
    lines = [f"digraph {_dot_identifier(name)} {{", f"  rankdir={rankdir};"]
    lines.append("  node [shape=circle, fontsize=11];")
    for vertex in _sorted_vertices(vertices):
        attributes = []
        if vertex == source:
            attributes.append("shape=doublecircle")
            attributes.append('color="forestgreen"')
        elif vertex == target:
            attributes.append("shape=doublecircle")
            attributes.append('color="firebrick"')
        rendered = f" [{', '.join(attributes)}]" if attributes else ""
        lines.append(f"  {_dot_node(vertex)}{rendered};")
    for u, v, timestamp in edges:
        lines.append(f"  {_dot_node(u)} -> {_dot_node(v)} [label=\"{timestamp}\"];")
    lines.append("}")
    return "\n".join(lines)


def _dot_identifier(name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return cleaned or "G"


def _dot_node(vertex: Vertex) -> str:
    return '"' + str(vertex).replace('"', '\\"') + '"'


def to_graphml(graph: GraphLike, name: str = "tspG") -> str:
    """Render as a GraphML document with a ``timestamp`` edge attribute."""
    # Deferred: xml.sax.saxutils imports urllib.request, http.client and
    # email, which every process importing the package would pay for.
    from xml.sax.saxutils import quoteattr

    vertices, edges = _members(graph)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="t" for="edge" attr.name="timestamp" attr.type="long"/>',
        f'  <graph id={quoteattr(name)} edgedefault="directed">',
    ]
    for vertex in _sorted_vertices(vertices):
        lines.append(f"    <node id={quoteattr(str(vertex))}/>")
    for index, (u, v, timestamp) in enumerate(edges):
        lines.append(
            f"    <edge id=\"e{index}\" source={quoteattr(str(u))} "
            f"target={quoteattr(str(v))}>"
        )
        lines.append(f"      <data key=\"t\">{int(timestamp)}</data>")
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines)


def to_ascii(graph: GraphLike, max_edges_per_vertex: Optional[int] = None) -> str:
    """Plain-text adjacency listing: one line per vertex with timestamped arcs."""
    vertices, edges = _members(graph)
    adjacency = {vertex: [] for vertex in vertices}
    for u, v, timestamp in edges:
        adjacency.setdefault(u, []).append((timestamp, v))
    lines = []
    for vertex in _sorted_vertices(vertices):
        hops = sorted(adjacency.get(vertex, ()))
        if max_edges_per_vertex is not None:
            hops = hops[:max_edges_per_vertex]
        rendered = ", ".join(f"-[{timestamp}]-> {neighbor}" for timestamp, neighbor in hops)
        lines.append(f"{vertex}: {rendered}" if rendered else f"{vertex}:")
    return "\n".join(lines)


def write_dot(graph: GraphLike, path, **options) -> None:
    """Write :func:`to_dot` output to ``path``."""
    from pathlib import Path

    Path(path).write_text(to_dot(graph, **options) + "\n", encoding="utf-8")


def write_graphml(graph: GraphLike, path, **options) -> None:
    """Write :func:`to_graphml` output to ``path``."""
    from pathlib import Path

    Path(path).write_text(to_graphml(graph, **options) + "\n", encoding="utf-8")
