"""The pluggable ``GraphStore`` layer between graph construction and serving.

A :class:`GraphStore` is *where a service gets its warmed graph from*.  The
serving layer (:class:`~repro.service.TspgService` and the sharded router)
only needs two things from a store: a fully-warmed
:class:`~repro.graph.temporal_graph.TemporalGraph` and a description of where
it came from.  Two implementations cover the current deployment shapes:

* :class:`InMemoryGraphStore` — wraps a graph that already lives in the
  process (built by a generator, a loader or a test); ``load()`` warms it in
  place and hands it out.
* :class:`SnapshotGraphStore` — backed by a versioned binary snapshot file
  (see :mod:`repro.store.snapshot`); ``load()`` is O(read) and never
  re-sorts, ``save()`` persists a freshly warmed graph for the next boot.

New backends (mmap segments, a remote object store, per-shard files) slot in
by subclassing :class:`GraphStore` without the service layer changing.
"""

from __future__ import annotations

import abc
import os
from typing import Dict, Union

from typing import List

from ..graph.temporal_graph import EdgeDelta, TemporalGraph
from .snapshot import SnapshotInfo, boot_snapshot, peek_snapshot, save_snapshot

PathLike = Union[str, "os.PathLike[str]"]


class GraphStore(abc.ABC):
    """Source of warmed temporal graphs for the serving layer."""

    @abc.abstractmethod
    def load(self) -> TemporalGraph:
        """Return a warmed graph (nothing staged, the view built)."""

    @abc.abstractmethod
    def describe(self) -> Dict[str, object]:
        """Human-readable provenance (rendered by the CLI and reports)."""


class InMemoryGraphStore(GraphStore):
    """Store over a graph that already exists in this process."""

    def __init__(self, graph: TemporalGraph, label: str = "in-memory") -> None:
        self._graph = graph
        self._label = label

    def load(self) -> TemporalGraph:
        self._graph.warm_indices()
        return self._graph

    def describe(self) -> Dict[str, object]:
        return {
            "backend": "memory",
            "label": self._label,
            "vertices": self._graph.num_vertices,
            "edges": self._graph.num_edges,
            "epoch": self._graph.epoch,
        }


class SnapshotGraphStore(GraphStore):
    """Store backed by one binary snapshot file on disk.

    ``mmap=True`` requests the zero-copy columnar boot (snapshot format v4+):
    ``load()`` maps the file and the graph's view columns read straight out
    of the page cache.  Pre-v4 files degrade to the eager boot; the reasons
    are recorded on :meth:`mmap_fallback_reasons` after a load (mirroring
    the service layer's ``process_fallback_reasons()`` style) instead of
    being raised — a readable snapshot always boots.

    ``interval`` restricts loads to that (inclusive) time range's edges —
    with ``mmap`` this is the extent-local boot that maps only the range's
    rows.  ``residency`` accepts a :class:`~repro.store.residency.
    ResidencyPolicy`; every mapping a load creates is registered with it so
    the service layer can drive ``madvise`` page advice and report
    resident-byte counters.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        mmap: bool = False,
        interval=None,
        residency=None,
    ) -> None:
        self._path = os.fspath(path)
        self._mmap = bool(mmap)
        self._interval = interval
        self._residency = residency
        self._mmap_active = False
        self._mmap_fallback_reasons: List[str] = []
        self._last_boot = None

    @property
    def path(self) -> str:
        """Location of the backing snapshot file."""
        return self._path

    @property
    def mmap_requested(self) -> bool:
        """Whether this store was asked to boot via mmap."""
        return self._mmap

    @property
    def mmap_active(self) -> bool:
        """Whether the most recent :meth:`load` actually booted via mmap."""
        return self._mmap_active

    def mmap_fallback_reasons(self) -> List[str]:
        """Why the most recent :meth:`load` was not mmap-backed.

        Empty when the last load mapped the file (or no load ran yet with
        ``mmap=True``); otherwise one reason per degradation, e.g. a pre-v4
        snapshot version.  When mmap was never requested the single reason
        says so.
        """
        if not self._mmap:
            return ["mmap boot was not requested (pass mmap=True / --mmap)"]
        return list(self._mmap_fallback_reasons)

    def exists(self) -> bool:
        """``True`` when the backing file is present."""
        return os.path.exists(self._path)

    def info(self) -> SnapshotInfo:
        """Validated header of the backing snapshot (no payload read)."""
        return peek_snapshot(self._path)

    @property
    def residency(self):
        """The attached residency policy, if any."""
        return self._residency

    @property
    def last_boot(self):
        """The :class:`SnapshotBoot` of the most recent :meth:`load`.

        Carries the extent-local accounting (``row_range``,
        ``mapped_column_bytes`` vs ``total_column_bytes``); ``None`` before
        the first load.
        """
        return self._last_boot

    def load(self) -> TemporalGraph:
        """Load the warmed graph; raises ``SnapshotError`` on any corruption."""
        boot = boot_snapshot(
            self._path,
            mmap=self._mmap,
            interval=self._interval,
            residency=self._residency,
        )
        self._mmap_active = boot.mmap_active
        self._mmap_fallback_reasons = list(boot.fallback_reasons)
        self._last_boot = boot
        return boot.graph

    def save(self, graph: TemporalGraph, *, compact: bool = False) -> SnapshotInfo:
        """Warm ``graph`` and (atomically) persist it to the backing file.

        ``compact=True`` also folds the epoch-delta journal sidecar into
        the new snapshot (the graph already contains every journaled
        append) and removes it — see :func:`~repro.store.snapshot.
        save_snapshot`.
        """
        return save_snapshot(graph, self._path, compact=compact)

    def append(self, edges) -> "EdgeDelta":
        """Journal an edge append against the backing snapshot.

        Applies ``edges`` to ``graph`` through the delta append path
        (:meth:`TemporalGraph.append_edges`, which extends the view) and
        records the resulting delta in the snapshot's
        ``*.tspgjournal`` sidecar, so the next :meth:`load` replays it.
        Requires a prior :meth:`load`; returns the applied delta.
        """
        if self._last_boot is None:
            raise RuntimeError("append() requires a prior load()")
        from .journal import append_journal_delta  # deferred, mirrors snapshot.py

        delta = self._last_boot.graph.append_edges(edges)
        if delta:
            append_journal_delta(self._path, delta)
        return delta

    def describe(self) -> Dict[str, object]:
        row: Dict[str, object] = {"backend": "snapshot", "path": self._path}
        if self._mmap:
            row["mmap"] = "active" if self._mmap_active else "requested"
        if self._interval is not None:
            row["interval"] = str(self._interval)
        if self._last_boot is not None and self._last_boot.mapped_column_bytes:
            row["mapped_column_bytes"] = self._last_boot.mapped_column_bytes
        if self.exists():
            row.update(self.info().as_row())
        else:
            row["exists"] = False
        return row


def store_for(source: Union[GraphStore, TemporalGraph, PathLike]) -> GraphStore:
    """Coerce a graph, a snapshot path or a store into a :class:`GraphStore`.

    Convenience for callers embedding the library that hold "some graph
    source" generically; code that already knows its concrete source (the
    CLI, ``TspgService.from_snapshot``) constructs the store directly.
    """
    if isinstance(source, GraphStore):
        return source
    if isinstance(source, TemporalGraph):
        return InMemoryGraphStore(source)
    return SnapshotGraphStore(source)
