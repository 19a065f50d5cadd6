"""Per-shard snapshot sets: one directory, N shard snapshots, one manifest.

A :class:`ShardSnapshotSet` persists a time-range-sharded graph as a
directory of one :mod:`repro.store.snapshot` file per shard extent plus a
versioned JSON manifest, so a sharded router can boot N shard services in
O(read) — and a process-pool execution backend can boot one *worker* per
shard file — without ever touching (or even having) a full-graph snapshot.

Directory layout::

    <path>/
        manifest.json             # versioned metadata, see below
        shard-0000.g0.tspgsnap    # snapshot (current format, v5) of shard 0's
                                  # extent projection
        shard-0001.g0.tspgsnap
        ...
        isolated.g0.tspgsnap      # optional: edge-less vertices of the source
                                  # graph (no shard projection contains them)

The ``gN`` infix is the save *generation*: every save writes its files
under fresh names and makes the ``manifest.json`` replacement the single
commit point, so re-warming over a live set never touches the files the
current manifest references — a crash mid-save leaves the previous
generation fully loadable.  Files no longer referenced by the committed
manifest are pruned after the swap (a crash before the prune leaves only
harmless orphans, removed by the next save).

The manifest records the partition geometry and integrity data:

* ``version`` — manifest format version (:data:`SHARD_MANIFEST_VERSION`);
* ``span`` — the source graph's full timestamp span (``null`` when the
  graph was edgeless and the set is empty);
* ``num_shards`` / ``overlap`` — the partition parameters, so a router can
  rebuild the exact same topology;
* ``epoch`` — the source graph's mutation epoch at save time;
* ``shards[]`` — per shard: its index, core and extent intervals, the
  snapshot filename, a CRC-32 of the whole snapshot file, and the vertex /
  edge counts of the projection.

Every load validates the manifest version and shard count, and every
:meth:`ShardSnapshotSet.load_shard` call checks the file CRC *before*
decoding plus the decoded counts *after* — any mismatch raises
:class:`~repro.store.snapshot.SnapshotError` instead of serving a shard
that no longer matches its manifest.  Writes go through a temporary
sibling file plus ``fsync`` plus :func:`os.replace` (and a directory
fsync so the rename itself is durable), mirroring the single-snapshot
format's crash safety.

``mmap=True`` on the read side (:meth:`ShardSnapshotSet.boot_shard`)
boots each shard through the zero-copy columnar path.  The manifest's
*whole-file* CRC is deliberately skipped on that path — checksumming the
file would fault in every page and defeat the mapping; the format's own
table/meta section CRCs are still verified, and the decoded counts are
cross-checked against the manifest entry either way.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.temporal_graph import TemporalGraph
from .snapshot import (
    PathLike,
    SnapshotBoot,
    SnapshotError,
    _commit_bytes,
    boot_snapshot,
    snapshot_bytes,
)

#: Current manifest format version; bump when the JSON layout changes.
SHARD_MANIFEST_VERSION = 1

#: Versions this build can still read.
SUPPORTED_MANIFEST_VERSIONS = (SHARD_MANIFEST_VERSION,)

#: Name of the manifest file inside a shard-set directory.
SHARD_MANIFEST_NAME = "manifest.json"

#: Filename template of the per-shard snapshot files.
SHARD_FILE_TEMPLATE = "shard-{index:04d}.g{generation}.tspgsnap"

#: Filename template of the optional isolated-vertices snapshot.
ISOLATED_FILE_TEMPLATE = "isolated.g{generation}.tspgsnap"

#: Matches the generation infix of any file this module writes.
_GENERATION_PATTERN = re.compile(r"\.g(\d+)\.tspgsnap$")


def _crc32_of_file(path: str) -> int:
    """Streaming CRC-32 of a whole file (shard files are modest in size)."""
    crc = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def _write_snapshot(graph: TemporalGraph, file_path: str) -> int:
    """Durably write ``graph``'s snapshot; return the file's CRC-32.

    The CRC the manifest records is computed from the bytes in memory while
    they are written (same temp-file + ``fsync`` + ``os.replace`` discipline
    as :func:`~repro.store.snapshot.save_snapshot`), sparing the full
    re-read per shard that checksumming the file afterwards would cost.
    """
    blob = snapshot_bytes(graph)
    _commit_bytes(file_path, (blob,))
    return zlib.crc32(blob) & 0xFFFFFFFF


@dataclass(frozen=True)
class ShardSnapshotEntry:
    """Manifest record of one shard's snapshot file."""

    index: int
    #: The shard's partition cell ``(begin, end)``.
    core: Tuple[int, int]
    #: The overlap-widened extent ``(begin, end)`` the snapshot projects.
    extent: Tuple[int, int]
    filename: str
    #: CRC-32 of the entire snapshot file (header + payload).
    file_crc32: int
    num_vertices: int
    num_edges: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "core": list(self.core),
            "extent": list(self.extent),
            "filename": self.filename,
            "file_crc32": self.file_crc32,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "ShardSnapshotEntry":
        return cls(
            index=int(raw["index"]),
            core=(int(raw["core"][0]), int(raw["core"][1])),
            extent=(int(raw["extent"][0]), int(raw["extent"][1])),
            filename=str(raw["filename"]),
            file_crc32=int(raw["file_crc32"]),
            num_vertices=int(raw["num_vertices"]),
            num_edges=int(raw["num_edges"]),
        )


@dataclass(frozen=True)
class ShardSetManifest:
    """Decoded ``manifest.json`` of a shard snapshot set."""

    version: int
    #: Full timestamp span of the source graph, ``None`` when edgeless.
    span: Optional[Tuple[int, int]]
    num_shards: int
    overlap: int
    #: Source graph's mutation epoch at save time.
    epoch: int
    shards: Tuple[ShardSnapshotEntry, ...]
    #: ``(filename, file_crc32, num_vertices)`` of the isolated-vertices
    #: snapshot, or ``None`` when the source graph had none.  Shard
    #: projections only keep edge-incident vertices, so without this file
    #: a reconstructed union would silently lose edge-less vertices.
    isolated: Optional[Tuple[str, int, int]] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "span": None if self.span is None else list(self.span),
            "num_shards": self.num_shards,
            "overlap": self.overlap,
            "epoch": self.epoch,
            "shards": [entry.as_dict() for entry in self.shards],
            "isolated": None if self.isolated is None else list(self.isolated),
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, object], source: str) -> "ShardSetManifest":
        try:
            version = int(raw["version"])
            if version not in SUPPORTED_MANIFEST_VERSIONS:
                raise SnapshotError(
                    f"{source}: unsupported shard manifest version {version} "
                    f"(this build reads versions "
                    f"{', '.join(str(v) for v in SUPPORTED_MANIFEST_VERSIONS)})"
                )
            span = raw["span"]
            isolated = raw.get("isolated")
            manifest = cls(
                version=version,
                span=None if span is None else (int(span[0]), int(span[1])),
                num_shards=int(raw["num_shards"]),
                overlap=int(raw["overlap"]),
                epoch=int(raw["epoch"]),
                shards=tuple(
                    ShardSnapshotEntry.from_dict(entry) for entry in raw["shards"]
                ),
                isolated=None
                if isolated is None
                else (str(isolated[0]), int(isolated[1]), int(isolated[2])),
            )
        except SnapshotError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise SnapshotError(f"{source}: malformed shard manifest: {exc}") from exc
        if manifest.num_shards != len(manifest.shards):
            raise SnapshotError(
                f"{source}: manifest claims {manifest.num_shards} shards but "
                f"lists {len(manifest.shards)} entries"
            )
        if [entry.index for entry in manifest.shards] != list(
            range(len(manifest.shards))
        ):
            raise SnapshotError(f"{source}: shard indices are not 0..N-1 in order")
        return manifest

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering and CLI output."""
        return {
            "version": self.version,
            "span": self.span,
            "num_shards": self.num_shards,
            "overlap": self.overlap,
            "epoch": self.epoch,
            "edges": sum(entry.num_edges for entry in self.shards),
        }


class ShardSnapshotSet:
    """A directory of per-shard snapshots plus their manifest.

    The write side is driven by
    :meth:`repro.service.ShardedTspgService.save_shards` and the read side
    by :meth:`~repro.service.ShardedTspgService.from_shard_snapshots`; this
    class owns the on-disk layout and all integrity checking so the service
    layer never parses files.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = os.fspath(path)

    # ------------------------------------------------------------------
    # locations
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """The shard-set directory."""
        return self._path

    @property
    def manifest_path(self) -> str:
        """Location of ``manifest.json`` inside the directory."""
        return os.path.join(self._path, SHARD_MANIFEST_NAME)

    def file_path(self, filename: str) -> str:
        """Absolute location of one of the set's files (from its manifest)."""
        return os.path.join(self._path, filename)

    def exists(self) -> bool:
        """``True`` when the directory holds a manifest."""
        return os.path.exists(self.manifest_path)

    def _next_generation(self) -> int:
        """First generation number no existing file in the directory uses.

        Derived from the filenames themselves (not the manifest, which may
        be corrupt or mid-replacement): collision-freedom is what keeps the
        live generation untouched while a new save is in flight.
        """
        try:
            names = os.listdir(self._path)
        except OSError:
            return 0
        generations = [
            int(match.group(1))
            for match in (_GENERATION_PATTERN.search(name) for name in names)
            if match
        ]
        return max(generations) + 1 if generations else 0

    def _prune_unreferenced(self, manifest: ShardSetManifest) -> None:
        """Delete snapshot files the committed manifest does not reference.

        Runs after the manifest swap: old-generation shard files, a stale
        isolated-vertices file, and crashed ``.tmp`` leftovers all go.
        Deletion failures are ignored — orphans are harmless and the next
        save retries.
        """
        keep = {entry.filename for entry in manifest.shards}
        if manifest.isolated is not None:
            keep.add(manifest.isolated[0])
        try:
            names = os.listdir(self._path)
        except OSError:
            return
        for name in names:
            if name in keep or name == SHARD_MANIFEST_NAME:
                continue
            if name.endswith((".tspgsnap", ".tspgsnap.tmp")):
                try:
                    os.unlink(os.path.join(self._path, name))
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def save(
        self,
        shards: Sequence[Tuple[Tuple[int, int], Tuple[int, int], TemporalGraph]],
        *,
        span: Optional[Tuple[int, int]],
        overlap: int,
        epoch: int,
        isolated: Optional[TemporalGraph] = None,
    ) -> ShardSetManifest:
        """Write one snapshot per ``(core, extent, graph)`` triple plus the manifest.

        ``isolated`` — an edge-less graph carrying the source vertices no
        shard projection contains — is persisted alongside when non-empty,
        so a union reconstructed from the set loses nothing.  Every save
        writes its files under a fresh generation infix and commits by
        atomically replacing the manifest, so a crash mid-save never
        leaves a manifest pointing at missing, truncated or overwritten
        files — re-warming over a live set keeps the previous generation
        loadable until the instant the new manifest lands.  Files the
        committed manifest no longer references are pruned afterwards.
        """
        os.makedirs(self._path, exist_ok=True)
        generation = self._next_generation()
        entries: List[ShardSnapshotEntry] = []
        for index, (core, extent, graph) in enumerate(shards):
            filename = SHARD_FILE_TEMPLATE.format(index=index, generation=generation)
            crc = _write_snapshot(graph, os.path.join(self._path, filename))
            entries.append(
                ShardSnapshotEntry(
                    index=index,
                    core=(int(core[0]), int(core[1])),
                    extent=(int(extent[0]), int(extent[1])),
                    filename=filename,
                    file_crc32=crc,
                    num_vertices=graph.num_vertices,
                    num_edges=graph.num_edges,
                )
            )
        isolated_entry: Optional[Tuple[str, int, int]] = None
        if isolated is not None and isolated.num_vertices:
            filename = ISOLATED_FILE_TEMPLATE.format(generation=generation)
            crc = _write_snapshot(isolated, os.path.join(self._path, filename))
            isolated_entry = (filename, crc, isolated.num_vertices)
        manifest = ShardSetManifest(
            version=SHARD_MANIFEST_VERSION,
            span=None if span is None else (int(span[0]), int(span[1])),
            num_shards=len(entries),
            overlap=overlap,
            epoch=epoch,
            shards=tuple(entries),
            isolated=isolated_entry,
        )
        blob = (json.dumps(manifest.as_dict(), indent=2) + "\n").encode("utf-8")
        _commit_bytes(self.manifest_path, (blob,))
        self._prune_unreferenced(manifest)
        return manifest

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def manifest(self) -> ShardSetManifest:
        """Read and validate ``manifest.json`` (no shard payload is touched)."""
        path = self.manifest_path
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise SnapshotError(f"{path}: cannot open shard manifest: {exc}") from exc
        except ValueError as exc:
            raise SnapshotError(f"{path}: shard manifest is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise SnapshotError(f"{path}: shard manifest is not a JSON object")
        return ShardSetManifest.from_dict(raw, path)

    def _boot_verified(
        self,
        filename: str,
        label: str,
        expected_crc32: int,
        expected_vertices: int,
        expected_edges: int,
        *,
        mmap: bool = False,
    ) -> SnapshotBoot:
        """Boot one snapshot of the set, verifying integrity and counts.

        The single integrity protocol shared by :meth:`boot_shard` and
        :meth:`load_isolated`: on the eager path the whole-file CRC is
        checked *before* decoding; on the mmap path that pre-scan is
        skipped (it would fault in every page the mapping exists to
        avoid — the table and meta section CRCs cover the bytes that are
        actually decoded).  The decoded counts are cross-checked against the manifest
        *after* either way; any mismatch raises :class:`SnapshotError`
        naming the offending ``label``.
        """
        file_path = os.path.join(self._path, filename)
        if not mmap:
            try:
                crc = _crc32_of_file(file_path)
            except OSError as exc:
                raise SnapshotError(
                    f"{file_path}: cannot open {label} snapshot: {exc}"
                ) from exc
            if crc != expected_crc32:
                raise SnapshotError(
                    f"{file_path}: {label} snapshot checksum mismatch "
                    f"(manifest says {expected_crc32:#010x}, file is {crc:#010x})"
                )
        boot = boot_snapshot(file_path, mmap=mmap)
        graph = boot.graph
        if (
            graph.num_vertices != expected_vertices
            or graph.num_edges != expected_edges
        ):
            raise SnapshotError(
                f"{file_path}: {label} snapshot does not match its manifest "
                f"entry (manifest says |V|={expected_vertices}, "
                f"|E|={expected_edges}; file decodes to "
                f"|V|={graph.num_vertices}, |E|={graph.num_edges})"
            )
        return boot

    def boot_shard(
        self,
        entry: ShardSnapshotEntry,
        *,
        mmap: bool = False,
    ) -> SnapshotBoot:
        """Boot one shard's graph, reporting how the boot went.

        Like :meth:`load_shard` but returns the full
        :class:`~repro.store.snapshot.SnapshotBoot` so callers can surface
        whether the mmap request held and, if not, why (the router's
        ``mmap_fallback_reasons()`` aggregates these per shard).  A shard
        file holds exactly its extent's rows, so it boots whole: eagerly, or
        mapped as one file.

        Raises
        ------
        SnapshotError
            When the shard file is missing, its bytes do not match the
            manifest checksum (eager path), the snapshot itself is corrupt,
            or the decoded graph contradicts the manifest's counts.
        """
        return self._boot_verified(
            entry.filename,
            "shard",
            entry.file_crc32,
            entry.num_vertices,
            entry.num_edges,
            mmap=mmap,
        )

    def load_shard(
        self, entry: ShardSnapshotEntry, *, mmap: bool = False
    ) -> TemporalGraph:
        """Load one shard's warmed graph, verifying integrity and counts.

        Raises
        ------
        SnapshotError
            When the shard file is missing, its bytes do not match the
            manifest checksum (eager path), the snapshot itself is corrupt,
            or the decoded graph contradicts the manifest's counts.
        """
        return self.boot_shard(entry, mmap=mmap).graph

    def load_isolated(self, manifest: ShardSetManifest) -> List[object]:
        """The source graph's edge-less vertices (empty when none were saved).

        Same integrity rules as :meth:`load_shard`.
        """
        if manifest.isolated is None:
            return []
        filename, file_crc32, num_vertices = manifest.isolated
        graph = self._boot_verified(
            filename, "isolated-vertices", file_crc32, num_vertices, 0
        ).graph
        return list(graph.vertices())

    def load_all(
        self, *, mmap: bool = False
    ) -> List[Tuple[ShardSnapshotEntry, TemporalGraph]]:
        """Load every shard in index order (validated manifest first)."""
        manifest = self.manifest()
        return [
            (entry, self.load_shard(entry, mmap=mmap)) for entry in manifest.shards
        ]

    def describe(self) -> Dict[str, object]:
        """Human-readable provenance (rendered by the CLI and reports)."""
        row: Dict[str, object] = {"backend": "shard-set", "path": self._path}
        if self.exists():
            row.update(self.manifest().as_row())
        else:
            row["exists"] = False
        return row
