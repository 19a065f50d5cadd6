"""Persistent storage layer: graph stores and warmed-index snapshots.

This package is the boundary between *building* a temporal graph and
*serving* it.  :class:`GraphStore` abstracts where a warmed graph comes from
(process memory or a binary snapshot file), and :mod:`repro.store.snapshot`
implements the versioned on-disk format — header with format version, graph
epoch, counts and a CRC-32 checksum, followed by the complete warmed index
state (including, since format version 2, the columnar ``GraphView``
arrays) — so ``TspgService.from_snapshot(path)`` cold-starts in O(read)
instead of rebuilding and re-sorting every index.

:class:`ShardSnapshotSet` (:mod:`repro.store.shard_set`) extends the same
format to time-range-sharded serving: a directory of one snapshot per
shard extent plus a versioned JSON manifest recording the span, shard
count, overlap, source-graph epoch and per-shard CRC-32 checksums.
``ShardedTspgService.save_shards(path)`` writes one and
``ShardedTspgService.from_shard_snapshots(path)`` boots a router's N shard
services from it in O(read) without touching the full graph — it is also
what a router's batches hand to the worker processes of its attached
:class:`~repro.service.WorkerPool`, one shard file per chunk.  Any checksum, count or manifest
mismatch raises :class:`SnapshotError` on load.

Quickstart
----------
>>> import tempfile, os
>>> from repro import TemporalGraph
>>> from repro.store import SnapshotGraphStore
>>> graph = TemporalGraph(edges=[("s", "b", 2), ("b", "t", 6)])
>>> path = os.path.join(tempfile.mkdtemp(), "g.tspgsnap")
>>> info = SnapshotGraphStore(path).save(graph)
>>> info.num_edges
2
>>> reloaded = SnapshotGraphStore(path).load()
>>> reloaded == graph
True
"""

from .graph_store import GraphStore, InMemoryGraphStore, SnapshotGraphStore, store_for
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
from .residency import ResidencyPolicy, madvise_supported, madvise_unsupported_reason
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
    write_legacy_snapshot,
)

__all__ = [
    "GraphStore",
    "InMemoryGraphStore",
    "SnapshotGraphStore",
    "store_for",
    "ResidencyPolicy",
    "madvise_supported",
    "madvise_unsupported_reason",
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
    "write_legacy_snapshot",
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
