"""Persistent storage layer: warmed-graph snapshots, journals and shard sets.

This package is the boundary between *building* a temporal graph and
*serving* it.  :mod:`repro.store.snapshot` implements the versioned
on-disk format — a header with format version, graph epoch, counts and a
CRC-32 checksum, followed by a section table and the graph's frozen CSR
``GraphView`` columns as raw int64 extents — so
``TspgService.from_snapshot(path)`` cold-starts in O(read) instead of
rebuilding and re-sorting every index.  A file always boots whole:
eagerly, or mapped as one file.  :mod:`repro.store.journal` keeps the
epoch-delta sidecar that live ingest appends to.

:class:`ShardSnapshotSet` (:mod:`repro.store.shard_set`) extends the same
format to time-range-sharded serving: a directory of one snapshot per
shard extent plus a versioned JSON manifest recording the span, shard
count, overlap, source-graph epoch and per-shard CRC-32 checksums.
``ShardedTspgService.save_shards(path)`` writes one and
``ShardedTspgService.from_shard_snapshots(path)`` boots a router's N shard
services from it in O(read) without touching the full graph — it is also
what a router's batches hand to the worker processes of its attached
:class:`~repro.service.WorkerPool`, one shard file per chunk.  A count or
manifest mismatch raises :class:`SnapshotError` on every load, mapped or
eager, and a whole-file checksum mismatch on an eager one.

Quickstart
----------
>>> import tempfile, os
>>> from repro import TemporalGraph
>>> from repro.store import load_snapshot, save_snapshot
>>> graph = TemporalGraph(edges=[("s", "b", 2), ("b", "t", 6)])
>>> path = os.path.join(tempfile.mkdtemp(), "g.tspgsnap")
>>> info = save_snapshot(graph, path)
>>> info.num_edges
2
>>> reloaded = load_snapshot(path)
>>> reloaded == graph
True
"""

from .journal import (
    JOURNAL_MAGIC,
    JOURNAL_SUFFIX,
    JOURNAL_VERSION,
    JournalInfo,
    JournalRecord,
    append_journal_delta,
    clear_journal,
    inspect_journal,
    journal_path,
    read_journal,
    replay_journal,
)
from .shard_set import (
    SHARD_MANIFEST_NAME,
    SHARD_MANIFEST_VERSION,
    ShardSetManifest,
    ShardSnapshotEntry,
    ShardSnapshotSet,
)
from .snapshot import (
    HEADER_SIZE,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    V4_COLUMN_SECTIONS,
    SnapshotBoot,
    SnapshotError,
    SnapshotInfo,
    SnapshotSection,
    boot_snapshot,
    inspect_snapshot,
    load_snapshot,
    peek_snapshot,
    save_snapshot,
    snapshot_bytes,
)

# perfbench's traced launcher times the flat boot by wrapping
# ``repro.store.graph_store.boot_snapshot``; that name resolves to the
# snapshot module, whose ``boot_snapshot`` ``TspgService.from_snapshot``
# looks up at call time.
from . import snapshot as graph_store

__all__ = [
    "SnapshotBoot",
    "SnapshotError",
    "SnapshotInfo",
    "SnapshotSection",
    "boot_snapshot",
    "inspect_snapshot",
    "load_snapshot",
    "peek_snapshot",
    "save_snapshot",
    "snapshot_bytes",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "V4_COLUMN_SECTIONS",
    "HEADER_SIZE",
    "JournalInfo",
    "JournalRecord",
    "append_journal_delta",
    "clear_journal",
    "inspect_journal",
    "journal_path",
    "read_journal",
    "replay_journal",
    "JOURNAL_MAGIC",
    "JOURNAL_SUFFIX",
    "JOURNAL_VERSION",
    "ShardSnapshotSet",
    "ShardSetManifest",
    "ShardSnapshotEntry",
    "SHARD_MANIFEST_NAME",
    "SHARD_MANIFEST_VERSION",
]
