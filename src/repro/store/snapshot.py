"""Versioned binary snapshots of a warmed :class:`TemporalGraph`.

A snapshot captures *everything* :meth:`TemporalGraph.warm_indices` builds —
the sorted adjacency lists, the temporally sorted edge list, the distinct
timestamp set, the per-vertex ``T_out(u)`` / ``T_in(u)`` views and the frozen
CSR columnar :class:`~repro.graph.views.GraphView` arrays — so a long-lived
service can cold-start in O(read) instead of re-inserting and re-sorting
every edge (O(E log E + E·d)), and boots straight into view-servable state.

Format version 4 (current) — columnar section layout::

    +--------------------------------------------------------------------+
    | fixed header (42 bytes, big-endian, shared by every version):      |
    |   magic ``b"TSPGSNAP"`` | format version (u16)                     |
    |   graph epoch (u64)                                                |
    |   num_vertices (u64) | num_edges (u64) | num_timestamps (u64)      |
    |   payload length (u64) | CRC-32 (u32)                              |
    +--------------------------------------------------------------------+
    | section table: num_sections (u32) | table_bytes (u32)              |
    |   then per section (44 bytes each):                                |
    |   name (16s, NUL padded) | offset (u64, absolute) | length (u64)   |
    |   | elements (u64, int64 count; 0 for pickled sections) | CRC-32   |
    +--------------------------------------------------------------------+
    | "meta" section:      zlib(pickle(labels/timestamps/epoch/stats))   |
    | "adjacency" section: zlib(pickle(out/in adjacency + ts views))     |
    | 11 raw column extents, each 8-byte aligned, uncompressed,          |
    | little-endian int64: the view's src/dst/ts edge columns, the CSR   |
    | offset/edge arrays, and the CSR-aligned out_ts/out_dst/in_ts/in_src|
    +--------------------------------------------------------------------+

``payload length`` counts every byte after the fixed header (table,
sections, alignment padding), so ``file size == 42 + payload length``
exactly; the header CRC field covers the section-table block and each
section carries its own CRC.  The raw extents are what make the format
mmap-able: :func:`load_snapshot` with ``mmap=True`` maps the file and hands
``memoryview`` slices of the extents, cast to int64, to a
:class:`~repro.graph.views.GraphView`, deferring the pickled adjacency
section until a consumer actually walks the Python-side graph — boot cost
and resident memory stay O(metadata), not O(E).

Versions 1–3 are the legacy single-section layout (``payload length``
bytes of zlib-compressed pickled warmed state, header CRC over that
payload); they still load eagerly, with the CRC streamed in chunks so
validating a multi-GB file does not double its RSS.

Every load validates magic, version and sizes *before* decoding, checks the
relevant CRCs before unpickling anything, and cross-checks the header counts
against the decoded graph; any mismatch raises :class:`SnapshotError`
instead of returning garbage.  The pickled sections use :mod:`pickle`
because graph vertices may be arbitrary hashables (ints, transit-stop
strings, tuples); snapshots are trusted local artifacts, not a wire format.
"""

from __future__ import annotations

import mmap as _mmap
import os
import pickle
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..graph.columns import INDEX_TYPECODE, IndexColumn
from ..graph.edge import as_interval
from ..graph.temporal_graph import LazyGraphBoot, TemporalGraph
from ..graph.views import GraphView, _csr

#: First bytes of every snapshot file.
SNAPSHOT_MAGIC = b"TSPGSNAP"

#: Current format version; bump when the layout changes.
#: Version 2 added the columnar GraphView arrays to the warmed state.
#: Version 3 changed no bytes but tightened the ordering contract: the
#: persisted sorted-edge backing (and the view columns aligned with it)
#: break equal-timestamp ties with the deterministic repr-based key, not
#: the writer's hash-seed-dependent set order.
#: Version 4 replaced the single zlib-pickle payload with the columnar
#: section layout documented above (mmap-able raw extents + two small
#: pickled sections); the CSR-aligned timestamp/endpoint columns are now
#: persisted too, so neither boot flavour rebuilds them.
SNAPSHOT_VERSION = 4

#: Versions this build can still read.  Version 1 payloads simply lack the
#: ``view`` columns; version ≤ 2 payloads may carry the old nondeterministic
#: tie order, so their sorted backing and view are *not* adopted — the graph
#: restores fine and re-sorts/rebuilds them lazily on first use (one
#: O(E log E) pass).  Only version 4 files can boot via ``mmap=True``;
#: older files degrade to the eager boot with a recorded reason.
SUPPORTED_SNAPSHOT_VERSIONS = (1, 2, 3, SNAPSHOT_VERSION)

#: Header layout: magic, version, epoch, |V|, |E|, |T|, payload length, CRC-32.
#: For v≤3 the CRC covers the whole payload; for v4 it covers the section
#: table block (each section then carries its own CRC).
_HEADER_STRUCT = struct.Struct(">8sHQQQQQI")

HEADER_SIZE = _HEADER_STRUCT.size

#: v4 section-table block header: num_sections (u32), table_bytes (u32 —
#: the size of the whole block including these 8 bytes).
_TABLE_HEADER_STRUCT = struct.Struct(">II")

#: v4 per-section record: name (16s), absolute offset (u64), length (u64),
#: int64 element count (u64, 0 for pickled sections), CRC-32 (u32).
_SECTION_RECORD_STRUCT = struct.Struct(">16sQQQI")

#: The raw int64 column extents of a v4 snapshot, in file order.  The first
#: seven are the persisted :meth:`GraphView.columns` arrays; the last four
#: are the CSR-aligned derivatives (``out_ts[j]``/``out_dst[j]`` describe
#: the edge at CSR position ``j``), persisted since v4 so the polarity
#: sweeps never rebuild them on either boot flavour.
V4_COLUMN_SECTIONS = (
    "view.src",
    "view.dst",
    "view.ts",
    "view.out_offsets",
    "view.out_edges",
    "view.in_offsets",
    "view.in_edges",
    "view.out_ts",
    "view.out_dst",
    "view.in_ts",
    "view.in_src",
)

#: Streamed-read chunk size for the legacy (v≤3) CRC/decompress loop.
_STREAM_CHUNK = 1 << 20

PathLike = Union[str, "os.PathLike[str]"]


class SnapshotError(RuntimeError):
    """Raised when a snapshot file is unreadable, corrupted or incompatible."""


@dataclass(frozen=True)
class SnapshotInfo:
    """Decoded snapshot header (cheap to read: no payload is touched)."""

    version: int
    epoch: int
    num_vertices: int
    num_edges: int
    num_timestamps: int
    payload_bytes: int

    def as_row(self) -> dict:
        """Flat dict for table rendering and CLI output."""
        return {
            "version": self.version,
            "epoch": self.epoch,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "timestamps": self.num_timestamps,
            "payload_bytes": self.payload_bytes,
        }


@dataclass(frozen=True)
class SnapshotSection:
    """One decoded v4 section-table record."""

    name: str
    offset: int
    length: int
    elements: int
    crc32: int

    def as_row(self) -> dict:
        """Flat dict for table rendering and CLI output."""
        return {
            "section": self.name,
            "offset": self.offset,
            "length": self.length,
            "elements": self.elements,
            "crc32": f"{self.crc32:08x}",
        }


@dataclass
class SnapshotBoot:
    """Result of :func:`boot_snapshot`: the graph plus how it was booted.

    ``fallback_reasons`` mirrors the style of
    :meth:`TspgService.process_fallback_reasons`: when ``mmap=True`` was
    requested but the boot degraded to eager, each reason records why, so
    callers surface the degradation instead of silently eating it.

    ``row_range`` / ``mapped_column_bytes`` / ``total_column_bytes`` account
    for extent-local mapping: an interval-restricted mmap boot maps only the
    ``[row_lo, row_hi)`` rows of the edge columns, so ``mapped_column_bytes``
    (actual bytes of column extents placed in the address space, including
    page-alignment slop) can be far below ``total_column_bytes`` (the file's
    full column payload).  Eager boots map nothing and report 0.
    """

    graph: TemporalGraph
    info: SnapshotInfo
    mmap_requested: bool = False
    mmap_active: bool = False
    fallback_reasons: List[str] = field(default_factory=list)
    row_range: Optional[Tuple[int, int]] = None
    mapped_column_bytes: int = 0
    total_column_bytes: int = 0
    #: Sidecar journal replayed on top of the booted graph (live ingest):
    #: the journal's path and how many of its records were applied.  ``None``
    #: / ``0`` when no (current) journal sat next to the snapshot.
    journal_path: Optional[str] = None
    journal_records: int = 0


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _extent_bytes(column) -> bytes:
    """Raw little-endian int64 bytes of a view column.

    Big-endian hosts never map (see :func:`_boot_snapshot_file`), so there
    every column is a native ``array('q')`` and only needs swapping.
    """
    if sys.byteorder == "little":
        return column.tobytes()
    swapped = array(INDEX_TYPECODE, column)
    swapped.byteswap()
    return swapped.tobytes()


def _extent_column(data: bytes) -> array:
    """Adopt raw little-endian int64 bytes as an ``array('q')``."""
    column = array(INDEX_TYPECODE, data)
    if sys.byteorder != "little":
        column.byteswap()
    return column


def _pickled_blob(obj) -> bytes:
    return zlib.compress(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _encode(graph: TemporalGraph) -> Tuple[bytes, bytes, SnapshotInfo]:
    """Warm ``graph`` and encode it to ``(header, body, info)`` — format v4.

    The single place the current on-disk layout is produced;
    :func:`save_snapshot` and :func:`snapshot_bytes` both write exactly
    ``header + body``.  Encoding is deterministic for a given graph state:
    re-saving a loaded snapshot (either boot flavour) reproduces identical
    section bytes and CRCs, because the column extents round-trip raw and
    the pickled dicts preserve their insertion order.
    """
    stats = graph.warm_indices()
    view = graph.view()
    vertices = list(graph.vertices())
    meta_blob = _pickled_blob(
        {
            "labels": view.labels,
            "timestamps": graph.timestamps(),
            "epoch": graph.epoch,
            "warm_stats": stats,
        }
    )
    adjacency_blob = _pickled_blob(
        {
            "out": {v: list(graph.out_neighbors_view(v)) for v in vertices},
            "in": {v: list(graph.in_neighbors_view(v)) for v in vertices},
            "out_timestamps": {v: graph.out_timestamps(v) for v in vertices},
            "in_timestamps": {v: graph.in_timestamps(v) for v in vertices},
        }
    )
    columns = {
        "view.src": view.src,
        "view.dst": view.dst,
        "view.ts": view.ts,
        "view.out_offsets": view.out_offsets,
        "view.out_edges": view.out_edges,
        "view.in_offsets": view.in_offsets,
        "view.in_edges": view.in_edges,
        "view.out_ts": view.out_ts,
        "view.out_dst": view.out_dst,
        "view.in_ts": view.in_ts,
        "view.in_src": view.in_src,
    }
    sections: List[Tuple[str, bytes, int]] = [
        ("meta", meta_blob, 0),
        ("adjacency", adjacency_blob, 0),
    ]
    for name in V4_COLUMN_SECTIONS:
        data = _extent_bytes(columns[name])
        sections.append((name, data, len(data) // 8))

    table_bytes = _TABLE_HEADER_STRUCT.size + (
        _SECTION_RECORD_STRUCT.size * len(sections)
    )
    cursor = HEADER_SIZE + table_bytes
    chunks: List[bytes] = []
    records: List[bytes] = []
    for name, data, elements in sections:
        if elements or not data:
            pad = (-cursor) % 8  # raw extents are 8-byte aligned
            if pad:
                chunks.append(b"\0" * pad)
                cursor += pad
        records.append(
            _SECTION_RECORD_STRUCT.pack(
                name.encode("ascii"),
                cursor,
                len(data),
                elements,
                zlib.crc32(data) & 0xFFFFFFFF,
            )
        )
        chunks.append(data)
        cursor += len(data)

    table = _TABLE_HEADER_STRUCT.pack(len(sections), table_bytes) + b"".join(records)
    body = table + b"".join(chunks)
    info = SnapshotInfo(
        version=SNAPSHOT_VERSION,
        epoch=graph.epoch,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        num_timestamps=len(graph.timestamps()),
        payload_bytes=len(body),
    )
    header = _HEADER_STRUCT.pack(
        SNAPSHOT_MAGIC,
        info.version,
        info.epoch,
        info.num_vertices,
        info.num_edges,
        info.num_timestamps,
        info.payload_bytes,
        zlib.crc32(table) & 0xFFFFFFFF,
    )
    return header, body, info


def write_legacy_snapshot(
    graph: TemporalGraph, path: PathLike, *, version: int = 3
) -> SnapshotInfo:
    """Write a pre-v4 (single zlib-pickle payload) snapshot to ``path``.

    Produces byte layouts identical to what the v1/v2/v3 writers emitted —
    the cross-version compatibility tests use this so old-format files
    don't have to be vendored as fixtures.
    """
    if version not in (1, 2, 3):
        raise ValueError(f"legacy snapshot versions are 1..3, got {version}")
    state = graph.warmed_state()
    if version == 1:
        state.pop("view", None)  # v1 predates the columnar view arrays
    elif version == 3:  # v3 writers pickled every view column as an IndexColumn
        view = state["view"]
        for name, column in view.items():
            if name != "labels":
                view[name] = IndexColumn(INDEX_TYPECODE, column)
    payload = zlib.compress(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
    info = SnapshotInfo(
        version=version,
        epoch=graph.epoch,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        num_timestamps=len(graph.timestamps()),
        payload_bytes=len(payload),
    )
    header = _HEADER_STRUCT.pack(
        SNAPSHOT_MAGIC,
        info.version,
        info.epoch,
        info.num_vertices,
        info.num_edges,
        info.num_timestamps,
        info.payload_bytes,
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    _commit_bytes(path, (header, payload))
    return info


def _fsync_directory(dirpath: str) -> None:
    """Flush the directory entry after an :func:`os.replace` commit."""
    try:
        fd = os.open(dirpath or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory opens
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems refusing dir fsync
        pass
    finally:
        os.close(fd)


def _commit_bytes(path: PathLike, chunks: Iterable[bytes]) -> None:
    """Durably write ``chunks`` to ``path`` via a temp sibling + rename.

    The temp file is flushed and fsync'd before :func:`os.replace`, and the
    parent directory is fsync'd after, so neither a crash mid-write nor one
    right after the rename can lose the committed bytes.  On any exception
    the temp sibling is removed — it never survives a failed write.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.tmp"
    try:
        with open(tmp_path, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(os.path.dirname(path))


def save_snapshot(
    graph: TemporalGraph, path: PathLike, *, compact: bool = False
) -> SnapshotInfo:
    """Warm ``graph`` and write its full index state to ``path`` (format v4).

    The write goes through a temporary sibling file plus :func:`os.replace`,
    with the temp file and its directory both fsync'd, so a crash at any
    point either keeps the old snapshot or commits the new one — never a
    truncated or lost file.  Returns the header that was written.

    ``compact=True`` folds an epoch-delta journal back in: the graph's
    current state (which already contains every journaled append) becomes
    the new snapshot and the ``*.tspgjournal`` sidecar is removed after the
    snapshot commit.  The snapshot replace is the atomic point — a crash
    between it and the journal unlink leaves a sidecar whose base epoch no
    longer matches the snapshot, which the next boot recognises as stale
    and skips (see :mod:`repro.store.journal`).  Without ``compact``, a
    re-save over a journaled snapshot leaves the now-stale sidecar behind;
    it is ignored on boot for the same reason.
    """
    header, body, info = _encode(graph)
    _commit_bytes(path, (header, body))
    if compact:
        from .journal import clear_journal  # deferred: journal imports us

        clear_journal(path)
    return info


def snapshot_bytes(graph: TemporalGraph) -> bytes:
    """Serialize ``graph`` to an in-memory snapshot (testing/debug helper)."""
    header, body, _ = _encode(graph)
    return header + body


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def _read_header(handle: BinaryIO, path: str) -> tuple:
    raw = handle.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise SnapshotError(
            f"{path}: truncated snapshot header ({len(raw)} of {HEADER_SIZE} bytes)"
        )
    magic, version, epoch, n_vertices, n_edges, n_ts, payload_len, crc = (
        _HEADER_STRUCT.unpack(raw)
    )
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: not a tspG snapshot (bad magic {magic!r})")
    if version not in SUPPORTED_SNAPSHOT_VERSIONS:
        raise SnapshotError(
            f"{path}: unsupported snapshot format version {version} "
            f"(this build reads versions "
            f"{', '.join(str(v) for v in SUPPORTED_SNAPSHOT_VERSIONS)})"
        )
    return version, epoch, n_vertices, n_edges, n_ts, payload_len, crc


def peek_snapshot(path: PathLike) -> SnapshotInfo:
    """Read and validate only the header of the snapshot at ``path``."""
    path = os.fspath(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot open snapshot: {exc}") from exc
    with handle:
        version, epoch, n_vertices, n_edges, n_ts, payload_len, _ = _read_header(
            handle, path
        )
    return SnapshotInfo(
        version=version,
        epoch=epoch,
        num_vertices=n_vertices,
        num_edges=n_edges,
        num_timestamps=n_ts,
        payload_bytes=payload_len,
    )


def _parse_v4_table(
    buf, path: str, *, payload_len: int, table_crc: int
) -> Dict[str, SnapshotSection]:
    """Decode and verify the v4 section table from the payload region.

    ``buf`` is a bytes-like view of the ``payload_len`` bytes after the
    fixed header.  The table CRC (stored in the header) is verified before
    any record is trusted — a flipped byte anywhere in the block surfaces
    as a checksum mismatch, not a parse error.
    """
    if payload_len < _TABLE_HEADER_STRUCT.size:
        raise SnapshotError(f"{path}: truncated snapshot payload (no section table)")
    num_sections, table_bytes = _TABLE_HEADER_STRUCT.unpack(
        bytes(buf[: _TABLE_HEADER_STRUCT.size])
    )
    # CRC first: if the declared block size is implausible the block is
    # corrupt, and checking over a best-effort region still reports it as
    # the checksum failure it is.
    region = table_bytes if 0 < table_bytes <= payload_len else payload_len
    if (zlib.crc32(bytes(buf[:region])) & 0xFFFFFFFF) != table_crc:
        raise SnapshotError(f"{path}: snapshot section table checksum mismatch")
    expected = _TABLE_HEADER_STRUCT.size + (
        _SECTION_RECORD_STRUCT.size * num_sections
    )
    if table_bytes != expected or num_sections == 0:
        raise SnapshotError(
            f"{path}: malformed snapshot section table "
            f"({num_sections} sections, {table_bytes} bytes)"
        )
    sections: Dict[str, SnapshotSection] = {}
    end = HEADER_SIZE + payload_len
    for index in range(num_sections):
        start = _TABLE_HEADER_STRUCT.size + index * _SECTION_RECORD_STRUCT.size
        name_raw, offset, length, elements, crc = _SECTION_RECORD_STRUCT.unpack(
            bytes(buf[start : start + _SECTION_RECORD_STRUCT.size])
        )
        name = name_raw.rstrip(b"\0").decode("ascii", "replace")
        if (
            offset < HEADER_SIZE + table_bytes
            or offset + length > end
            or (elements and (length != 8 * elements or offset % 8))
        ):
            raise SnapshotError(
                f"{path}: malformed snapshot section table "
                f"(section {name!r} extent [{offset}, {offset + length}) "
                f"does not fit the file)"
            )
        sections[name] = SnapshotSection(
            name=name, offset=offset, length=length, elements=elements, crc32=crc
        )
    for required in ("meta", "adjacency", *V4_COLUMN_SECTIONS):
        if required not in sections:
            raise SnapshotError(
                f"{path}: malformed snapshot section table "
                f"(missing section {required!r})"
            )
    return sections


def inspect_snapshot(path: PathLike) -> Tuple[SnapshotInfo, List[SnapshotSection]]:
    """Decode the header and (for v4) the per-section table of a snapshot.

    Cheap by construction: reads the fixed header plus the section-table
    block — never a section payload.  Pre-v4 files report their single
    opaque payload as one pseudo-section named ``payload``.
    """
    path = os.fspath(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot open snapshot: {exc}") from exc
    with handle:
        version, epoch, n_vertices, n_edges, n_ts, payload_len, crc = _read_header(
            handle, path
        )
        info = SnapshotInfo(
            version=version,
            epoch=epoch,
            num_vertices=n_vertices,
            num_edges=n_edges,
            num_timestamps=n_ts,
            payload_bytes=payload_len,
        )
        if version < 4:
            return info, [
                SnapshotSection(
                    name="payload",
                    offset=HEADER_SIZE,
                    length=payload_len,
                    elements=0,
                    crc32=crc,
                )
            ]
        table = handle.read(min(payload_len, _TABLE_HEADER_STRUCT.size))
        if len(table) >= _TABLE_HEADER_STRUCT.size:
            _, table_bytes = _TABLE_HEADER_STRUCT.unpack(table)
            if 0 < table_bytes <= payload_len:
                table += handle.read(table_bytes - len(table))
    sections = _parse_v4_table(
        table, path, payload_len=payload_len, table_crc=crc
    )
    ordered = sorted(sections.values(), key=lambda record: record.offset)
    return info, ordered


def _section_bytes(buf, record: SnapshotSection, path: str) -> bytes:
    """The verified bytes of ``record`` out of the payload region ``buf``."""
    start = record.offset - HEADER_SIZE
    data = bytes(buf[start : start + record.length])
    if (zlib.crc32(data) & 0xFFFFFFFF) != record.crc32:
        raise SnapshotError(
            f"{path}: snapshot section {record.name!r} checksum mismatch"
        )
    return data


def _decode_section(buf, record: SnapshotSection, path: str):
    """CRC-check and unpickle one of the two pickled v4 sections."""
    data = _section_bytes(buf, record, path)
    try:
        return pickle.loads(zlib.decompress(data))
    except Exception as exc:  # zlib.error, pickle errors, ...
        raise SnapshotError(
            f"{path}: cannot decode snapshot section {record.name!r}: {exc}"
        ) from exc


def _check_counts(
    graph: TemporalGraph,
    path: str,
    *,
    epoch: int,
    n_vertices: int,
    n_edges: int,
    n_ts: int,
) -> None:
    if (
        graph.num_vertices != n_vertices
        or graph.num_edges != n_edges
        or len(graph.timestamps()) != n_ts
        or graph.epoch != epoch
    ):
        raise SnapshotError(
            f"{path}: snapshot header does not match payload "
            f"(header says |V|={n_vertices}, |E|={n_edges}, |T|={n_ts}, "
            f"epoch={epoch}; payload decodes to |V|={graph.num_vertices}, "
            f"|E|={graph.num_edges}, |T|={len(graph.timestamps())}, "
            f"epoch={graph.epoch})"
        )


def _v4_view_from_columns(
    meta: dict, columns: Dict[str, object], epoch: int
) -> GraphView:
    """Assemble a :class:`GraphView` adopting decoded v4 columns as-is."""
    view = GraphView(
        list(meta["labels"]),
        columns["view.src"],
        columns["view.dst"],
        columns["view.ts"],
        columns["view.out_offsets"],
        columns["view.out_edges"],
        columns["view.in_offsets"],
        columns["view.in_edges"],
        epoch=int(epoch),
    )
    view._out_aligned = (columns["view.out_ts"], columns["view.out_dst"])
    view._in_aligned = (columns["view.in_ts"], columns["view.in_src"])
    return view


def _validate_v4_shapes(
    sections: Dict[str, SnapshotSection],
    path: str,
    *,
    n_vertices: int,
    n_edges: int,
) -> None:
    """Cross-check extent element counts against the header counts."""
    expected = {name: n_edges for name in V4_COLUMN_SECTIONS}
    expected["view.out_offsets"] = n_vertices + 1
    expected["view.in_offsets"] = n_vertices + 1
    for name, count in expected.items():
        if sections[name].elements != count:
            raise SnapshotError(
                f"{path}: snapshot header does not match payload "
                f"(section {name!r} has {sections[name].elements} elements, "
                f"header implies {count})"
            )


def _load_v4_eager(
    buf,
    path: str,
    *,
    epoch: int,
    n_vertices: int,
    n_edges: int,
    n_ts: int,
    payload_len: int,
    table_crc: int,
) -> TemporalGraph:
    """Fully materialize a v4 snapshot: every section read, every CRC checked."""
    sections = _parse_v4_table(
        buf, path, payload_len=payload_len, table_crc=table_crc
    )
    _validate_v4_shapes(
        sections, path, n_vertices=n_vertices, n_edges=n_edges
    )
    meta = _decode_section(buf, sections["meta"], path)
    adjacency = _decode_section(buf, sections["adjacency"], path)
    columns = {
        name: _extent_column(_section_bytes(buf, sections[name], path))
        for name in V4_COLUMN_SECTIONS
    }
    try:
        labels = list(meta["labels"])
        src, dst, ts = columns["view.src"], columns["view.dst"], columns["view.ts"]
        sorted_tuples = [
            (labels[s], labels[d], t) for s, d, t in zip(src, dst, ts)
        ]
        state = {
            "out": adjacency["out"],
            "in": adjacency["in"],
            "sorted_edges": sorted_tuples,
            "timestamps": meta["timestamps"],
            "out_timestamps": adjacency["out_timestamps"],
            "in_timestamps": adjacency["in_timestamps"],
            "epoch": meta["epoch"],
        }
        graph = TemporalGraph.from_warmed_state(state, trust_order=True)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SnapshotError(f"{path}: malformed snapshot state: {exc}") from exc
    graph._view_cache = _v4_view_from_columns(meta, columns, graph.epoch)
    _check_counts(
        graph, path, epoch=epoch, n_vertices=n_vertices, n_edges=n_edges, n_ts=n_ts
    )
    return graph


def _column_payload_span(
    sections: Dict[str, SnapshotSection]
) -> Tuple[int, int]:
    """``(offset, length)`` of the contiguous raw-column region of the file."""
    offsets = [sections[name].offset for name in V4_COLUMN_SECTIONS]
    ends = [
        sections[name].offset + sections[name].length
        for name in V4_COLUMN_SECTIONS
    ]
    lo = min(offsets)
    return lo, max(ends) - lo


def _total_column_bytes(sections: Dict[str, SnapshotSection]) -> int:
    """Sum of the raw column extents' lengths (the mmap-able payload)."""
    return sum(sections[name].length for name in V4_COLUMN_SECTIONS)


def _boot_v4_mmap(
    path: str,
    *,
    epoch: int,
    n_vertices: int,
    n_edges: int,
    n_ts: int,
    payload_len: int,
    table_crc: int,
    residency=None,
) -> Tuple[TemporalGraph, int]:
    """Map a v4 snapshot and build a lazily-hydrating graph over it.

    Eagerly verified: file size, the section table CRC and the small
    ``meta`` section (so the boot fails fast on a corrupt table or
    metadata).  The ``adjacency`` section's CRC is checked when it is
    hydrated; the raw column extents are *not* CRC-checked on this path —
    checking them would fault in every page and defeat the lazy boot (the
    eager loader and the shard set's whole-file check cover them).

    Returns ``(graph, column_bytes)`` where ``column_bytes`` is the total
    size of the raw column extents now present in the address space.  When a
    :class:`~repro.store.residency.ResidencyPolicy` is passed, the mapping's
    column region is registered with it for page advice.
    """
    with open(path, "rb") as handle:
        mapped = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
    buf = memoryview(mapped)[HEADER_SIZE : HEADER_SIZE + payload_len]
    try:
        sections = _parse_v4_table(
            buf, path, payload_len=payload_len, table_crc=table_crc
        )
        _validate_v4_shapes(
            sections, path, n_vertices=n_vertices, n_edges=n_edges
        )
        if residency is not None:
            span_offset, span_length = _column_payload_span(sections)
            residency.register(mapped, span_offset, span_length)
        meta = _decode_section(buf, sections["meta"], path)
        columns = {}
        for name in V4_COLUMN_SECTIONS:
            start = sections[name].offset - HEADER_SIZE
            end = start + sections[name].length
            columns[name] = buf[start:end].cast(INDEX_TYPECODE)
        labels = list(meta["labels"])
        if len(labels) != n_vertices:
            raise SnapshotError(
                f"{path}: snapshot header does not match payload "
                f"(header says |V|={n_vertices}, metadata has {len(labels)})"
            )
        meta_epoch = int(meta["epoch"])
        timestamps = list(meta["timestamps"])
        if meta_epoch != epoch or len(timestamps) != n_ts:
            raise SnapshotError(
                f"{path}: snapshot header does not match payload "
                f"(header says |T|={n_ts}, epoch={epoch}; metadata has "
                f"|T|={len(timestamps)}, epoch={meta_epoch})"
            )
        view = _v4_view_from_columns(meta, columns, meta_epoch)
        adjacency_record = sections["adjacency"]

        def load_adjacency() -> dict:
            return _decode_section(buf, adjacency_record, path)

        boot = LazyGraphBoot(
            view=view,
            timestamps=timestamps,
            epoch=meta_epoch,
            num_edges=n_edges,
            load_adjacency=load_adjacency,
        )
        return TemporalGraph.from_lazy_boot(boot), _total_column_bytes(sections)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SnapshotError(f"{path}: malformed snapshot state: {exc}") from exc


# ----------------------------------------------------------------------
# extent-local (interval-restricted) boot
# ----------------------------------------------------------------------
def _read_table_block(handle: BinaryIO, path: str, *, payload_len: int) -> bytes:
    """Read just the v4 section-table block with ordinary file reads."""
    handle.seek(HEADER_SIZE)
    table = handle.read(min(payload_len, _TABLE_HEADER_STRUCT.size))
    if len(table) >= _TABLE_HEADER_STRUCT.size:
        _, table_bytes = _TABLE_HEADER_STRUCT.unpack(table)
        if 0 < table_bytes <= payload_len:
            table += handle.read(table_bytes - len(table))
    return table


def _read_section(handle: BinaryIO, record: SnapshotSection, path: str) -> bytes:
    """Seek-read and CRC-check one section without mapping anything."""
    handle.seek(record.offset)
    data = handle.read(record.length)
    if (zlib.crc32(data) & 0xFFFFFFFF) != record.crc32:
        raise SnapshotError(
            f"{path}: snapshot section {record.name!r} checksum mismatch"
        )
    return data


_TS_CELL_STRUCT = struct.Struct("<q")


def _bisect_rows(
    handle: BinaryIO, ts_offset: int, n_edges: int, window
) -> Tuple[int, int]:
    """``[row_lo, row_hi)`` of the rows whose timestamp lies in ``window``.

    Binary search over the sorted on-disk ``view.ts`` extent with 8-byte
    seek-reads — O(log E) tiny I/Os, no mapping, no page faults beyond the
    probed cells.  Mirrors :meth:`GraphView.slice_bounds` exactly.
    """

    def cell(index: int) -> int:
        handle.seek(ts_offset + 8 * index)
        return _TS_CELL_STRUCT.unpack(handle.read(8))[0]

    lo, hi = 0, n_edges
    while lo < hi:  # leftmost row with ts >= window.begin
        mid = (lo + hi) // 2
        if cell(mid) < window.begin:
            lo = mid + 1
        else:
            hi = mid
    row_lo = lo
    hi = n_edges
    while lo < hi:  # leftmost row with ts > window.end
        mid = (lo + hi) // 2
        if cell(mid) <= window.end:
            lo = mid + 1
        else:
            hi = mid
    return row_lo, lo


def _map_rows(fileno: int, start: int, length: int) -> Tuple[memoryview, int]:
    """Map ``length`` bytes at file offset ``start`` as an int64 column.

    The mapping offset is aligned down to ``mmap.ALLOCATIONGRANULARITY`` (the
    OS requires it) and the column is the exact ``[start, start + length)``
    sub-view, so alignment slop costs at most one extra page of address
    space.  The view's ``obj`` is the mapping, which it keeps open.
    Returns ``(column, mapped_bytes)``.
    """
    if length <= 0:
        return memoryview(b"").cast(INDEX_TYPECODE), 0
    granularity = _mmap.ALLOCATIONGRANULARITY
    aligned = (start // granularity) * granularity
    delta = start - aligned
    mapped = _mmap.mmap(
        fileno, delta + length, access=_mmap.ACCESS_READ, offset=aligned
    )
    column = memoryview(mapped)[delta : delta + length].cast(INDEX_TYPECODE)
    return column, delta + length


def _boot_v4_extent(
    path: str,
    *,
    interval,
    epoch: int,
    n_vertices: int,
    n_edges: int,
    n_ts: int,
    payload_len: int,
    table_crc: int,
    residency=None,
):
    """Interval-restricted mmap boot: map only the interval's rows.

    Returns ``(graph, (row_lo, row_hi), mapped_bytes, total_bytes)`` for a
    proper row subset, or ``None`` when the interval covers every row — the
    caller then uses the whole-file mapping, which additionally adopts the
    persisted CSR extents instead of rebuilding them.

    The restricted graph keeps the **full vertex label table** (so vertex
    interning, absent-vertex handling and result shapes match the
    unrestricted boot bit-for-bit) but holds only the ``[row_lo, row_hi)``
    edge rows: three page-aligned mappings (``src``/``dst``/``ts`` row
    ranges) instead of eleven whole-column extents.  CSR adjacency is
    rebuilt over the rows — O(rows + V), proportional to the extent, and
    backed by private ``array('q')`` storage rather than mapped pages.
    Queries whose window lies inside ``interval`` see exactly the rows they
    would have seen on the full boot (the window slice of a restricted
    column equals the restricted slice of the full column), so results are
    bit-identical by construction.
    """
    window = as_interval(interval)
    with open(path, "rb") as handle:
        table = _read_table_block(handle, path, payload_len=payload_len)
        sections = _parse_v4_table(
            table, path, payload_len=payload_len, table_crc=table_crc
        )
        _validate_v4_shapes(
            sections, path, n_vertices=n_vertices, n_edges=n_edges
        )
        row_lo, row_hi = _bisect_rows(
            handle, sections["view.ts"].offset, n_edges, window
        )
        if row_lo == 0 and row_hi == n_edges:
            return None
        meta_blob = _read_section(handle, sections["meta"], path)
        try:
            meta = pickle.loads(zlib.decompress(meta_blob))
        except Exception as exc:  # zlib.error, pickle errors, ...
            raise SnapshotError(
                f"{path}: cannot decode snapshot section 'meta': {exc}"
            ) from exc
        rows = row_hi - row_lo
        columns: Dict[str, memoryview] = {}
        mapped_bytes = 0
        for name in ("view.src", "view.dst", "view.ts"):
            record = sections[name]
            column, nbytes = _map_rows(
                handle.fileno(), record.offset + 8 * row_lo, 8 * rows
            )
            columns[name] = column
            mapped_bytes += nbytes
            if residency is not None and nbytes:
                residency.register(column.obj)
    try:
        labels = list(meta["labels"])
        if len(labels) != n_vertices:
            raise SnapshotError(
                f"{path}: snapshot header does not match payload "
                f"(header says |V|={n_vertices}, metadata has {len(labels)})"
            )
        meta_epoch = int(meta["epoch"])
        timestamps = [
            t for t in meta["timestamps"] if window.begin <= t <= window.end
        ]
        src, dst, ts = (
            columns["view.src"],
            columns["view.dst"],
            columns["view.ts"],
        )
        out_offsets, out_edges = _csr(src, n_vertices, rows)
        in_offsets, in_edges = _csr(dst, n_vertices, rows)
        view = GraphView(
            labels, src, dst, ts,
            out_offsets, out_edges, in_offsets, in_edges,
            epoch=meta_epoch,
        )

        def load_adjacency() -> dict:
            # Derived from the mapped rows, not the pickled section: the
            # persisted adjacency covers the whole graph, and unpickling it
            # would both leak out-of-extent edges and fault in its pages.
            # Rows are globally ts-sorted, so per-vertex append order is
            # already timestamp-ascending.
            out = {label: [] for label in labels}
            into = {label: [] for label in labels}
            for s, d, t in zip(src, dst, ts):
                out[labels[s]].append((labels[d], t))
                into[labels[d]].append((labels[s], t))
            return {
                "out": out,
                "in": into,
                "out_timestamps": {
                    label: sorted({t for _, t in entries})
                    for label, entries in out.items()
                },
                "in_timestamps": {
                    label: sorted({t for _, t in entries})
                    for label, entries in into.items()
                },
            }

        boot = LazyGraphBoot(
            view=view,
            timestamps=timestamps,
            epoch=meta_epoch,
            num_edges=rows,
            load_adjacency=load_adjacency,
        )
        graph = TemporalGraph.from_lazy_boot(boot)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SnapshotError(f"{path}: malformed snapshot state: {exc}") from exc
    return graph, (row_lo, row_hi), mapped_bytes, _total_column_bytes(sections)


def _restrict_graph_eager(graph: TemporalGraph, interval) -> TemporalGraph:
    """Rebuild ``graph`` keeping only the edges inside ``interval``.

    The eager twin of :func:`_boot_v4_extent` for boots that cannot map
    (pre-v4 files, big-endian hosts, failed mappings, ``mmap=False``): the
    full vertex set is preserved and the restricted edge rows are re-sorted
    by the same deterministic key, so query results inside ``interval``
    match the extent-local boot bit-for-bit.  The snapshot's epoch is
    carried over so epoch-keyed caches treat both restrictions as the same
    graph state.
    """
    window = as_interval(interval)
    restricted = TemporalGraph(vertices=list(graph.vertices()))
    restricted.add_edges(
        (u, v, t)
        for (u, v, t) in graph.edge_tuples()
        if window.begin <= t <= window.end
    )
    restricted._epoch = graph.epoch
    restricted.warm_indices()
    return restricted


def _load_legacy_state(
    handle: BinaryIO, path: str, *, payload_len: int, crc: int
) -> dict:
    """Stream-read, CRC-check and decode a v≤3 single-section payload.

    The CRC and the zlib decompression are fed chunk by chunk, so resident
    memory peaks at the *decompressed* state size — the compressed payload
    is never held whole.  The checksum verdict is always reached (and
    reported first) even when a corrupt chunk makes the decompressor choke
    mid-stream.
    """
    crc_calc = 0
    remaining = payload_len
    read_total = 0
    decompressor = zlib.decompressobj()
    parts: List[bytes] = []
    decode_error: Optional[Exception] = None
    while remaining > 0:
        chunk = handle.read(min(_STREAM_CHUNK, remaining))
        if not chunk:
            break
        read_total += len(chunk)
        remaining -= len(chunk)
        crc_calc = zlib.crc32(chunk, crc_calc)
        if decode_error is None:
            try:
                parts.append(decompressor.decompress(chunk))
            except zlib.error as exc:
                decode_error = exc  # keep streaming: finish the CRC verdict
    if read_total < payload_len:
        raise SnapshotError(
            f"{path}: truncated snapshot payload "
            f"({read_total} of {payload_len} bytes)"
        )
    if handle.read(1):
        raise SnapshotError(f"{path}: trailing data after snapshot payload")
    if (crc_calc & 0xFFFFFFFF) != crc:
        raise SnapshotError(f"{path}: snapshot payload checksum mismatch")
    try:
        if decode_error is not None:
            raise decode_error
        parts.append(decompressor.flush())
        return pickle.loads(b"".join(parts))
    except Exception as exc:  # zlib.error, pickle errors, ...
        raise SnapshotError(f"{path}: cannot decode snapshot payload: {exc}") from exc


def _boot_snapshot_file(
    path: PathLike,
    *,
    mmap: bool = False,
    interval=None,
    residency=None,
) -> SnapshotBoot:
    """Load the snapshot *file* at ``path`` — journal replay lives one level up.

    With ``mmap=True`` and a v4 file, the returned graph's columnar view
    reads straight out of the page cache (its columns are ``memoryview``
    slices of the mapping) and the Python-side adjacency hydrates lazily.
    Pre-v4 files — and platforms whose native byte order can't alias the
    little-endian extents — degrade to the eager boot, with the reason
    recorded on the returned :class:`SnapshotBoot` rather than raised: a
    readable snapshot always boots.

    ``interval`` restricts the boot to the edges whose timestamp lies in
    the (inclusive) interval, preserving the full vertex set.  Combined
    with ``mmap=True`` this is the *extent-local* boot: only the interval's
    rows of the edge columns are mapped (see :func:`_boot_v4_extent`), so a
    shard worker's address space holds its time extent, not the file.  An
    interval spanning every row is a no-op and keeps the whole-file fast
    path.  Eager boots honour the restriction by rebuilding the in-interval
    subgraph after loading.

    ``residency`` is an optional :class:`~repro.store.residency.
    ResidencyPolicy`; every mapping the boot creates is registered with it
    so the serving layer can drive ``madvise`` page advice.

    Raises
    ------
    SnapshotError
        On a missing/unreadable file, bad magic, unsupported version,
        truncated payload, trailing garbage, any checksum mismatch, an
        undecodable section, or header counts that contradict the payload.
    """
    path = os.fspath(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot open snapshot: {exc}") from exc
    reasons: List[str] = []
    with handle:
        version, epoch, n_vertices, n_edges, n_ts, payload_len, crc = _read_header(
            handle, path
        )
        info = SnapshotInfo(
            version=version,
            epoch=epoch,
            num_vertices=n_vertices,
            num_edges=n_edges,
            num_timestamps=n_ts,
            payload_bytes=payload_len,
        )
        if version >= 4:
            file_size = os.fstat(handle.fileno()).st_size
            if file_size < HEADER_SIZE + payload_len:
                raise SnapshotError(
                    f"{path}: truncated snapshot payload "
                    f"({file_size - HEADER_SIZE} of {payload_len} bytes)"
                )
            if file_size > HEADER_SIZE + payload_len:
                raise SnapshotError(f"{path}: trailing data after snapshot payload")
            if mmap:
                if sys.byteorder != "little":
                    reasons.append(
                        "snapshot extents are little-endian and this platform "
                        f"is {sys.byteorder}-endian: booted eagerly (byteswap)"
                    )
                else:
                    try:
                        if interval is not None:
                            extent_boot = _boot_v4_extent(
                                path,
                                interval=interval,
                                epoch=epoch,
                                n_vertices=n_vertices,
                                n_edges=n_edges,
                                n_ts=n_ts,
                                payload_len=payload_len,
                                table_crc=crc,
                                residency=residency,
                            )
                            if extent_boot is not None:
                                graph, rows, mapped_bytes, total = extent_boot
                                return SnapshotBoot(
                                    graph=graph,
                                    info=info,
                                    mmap_requested=True,
                                    mmap_active=True,
                                    row_range=rows,
                                    mapped_column_bytes=mapped_bytes,
                                    total_column_bytes=total,
                                )
                        graph, column_bytes = _boot_v4_mmap(
                            path,
                            epoch=epoch,
                            n_vertices=n_vertices,
                            n_edges=n_edges,
                            n_ts=n_ts,
                            payload_len=payload_len,
                            table_crc=crc,
                            residency=residency,
                        )
                        return SnapshotBoot(
                            graph=graph,
                            info=info,
                            mmap_requested=True,
                            mmap_active=True,
                            row_range=(0, n_edges),
                            mapped_column_bytes=column_bytes,
                            total_column_bytes=column_bytes,
                        )
                    except (OSError, _mmap.error) as exc:
                        reasons.append(
                            f"mmap of the snapshot failed ({exc}): booted eagerly"
                        )
            handle.seek(HEADER_SIZE)
            buf = handle.read(payload_len)
            graph = _load_v4_eager(
                buf,
                path,
                epoch=epoch,
                n_vertices=n_vertices,
                n_edges=n_edges,
                n_ts=n_ts,
                payload_len=payload_len,
                table_crc=crc,
            )
            if interval is not None:
                graph = _restrict_graph_eager(graph, interval)
            return SnapshotBoot(
                graph=graph,
                info=info,
                mmap_requested=mmap,
                mmap_active=False,
                fallback_reasons=reasons,
            )
        if mmap:
            reasons.append(
                f"snapshot format v{version} predates the mmap-able columnar "
                "layout (v4): booted eagerly; re-save with this build to "
                "enable mmap boot"
            )
        state = _load_legacy_state(handle, path, payload_len=payload_len, crc=crc)
    try:
        # Pre-v3 writers sorted equal-timestamp ties in hash-seed order;
        # adopting their backing/view would leak that stale order into a
        # build whose fresh graphs use the deterministic key.
        graph = TemporalGraph.from_warmed_state(state, trust_order=version >= 3)
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: malformed snapshot state: {exc}") from exc
    _check_counts(
        graph, path, epoch=epoch, n_vertices=n_vertices, n_edges=n_edges, n_ts=n_ts
    )
    if interval is not None:
        graph = _restrict_graph_eager(graph, interval)
    return SnapshotBoot(
        graph=graph,
        info=info,
        mmap_requested=mmap,
        mmap_active=False,
        fallback_reasons=reasons,
    )


def boot_snapshot(
    path: PathLike,
    *,
    mmap: bool = False,
    interval=None,
    residency=None,
) -> SnapshotBoot:
    """Load the snapshot at ``path``, optionally mmap-backed, with provenance.

    See :func:`_boot_snapshot_file` for the file-level semantics (mmap,
    extent-local interval boots, residency registration, fallback reasons).
    On top of that, this wrapper replays the epoch-delta journal sidecar
    (``path + ".tspgjournal"``) if one is present:

    - the journal's base epoch must equal the snapshot epoch to apply —
      appends are then replayed in order through the graph's journaled
      append path (no cache invalidation, no column hydration on an mmap
      boot);
    - a *stale* journal (base epoch below the snapshot epoch) is skipped:
      that is the residue of a compaction whose journal unlink was lost to
      a crash, or of a plain re-save, and its appends are already folded
      into the snapshot;
    - a journal *ahead* of the snapshot (base epoch above it) means the
      snapshot file regressed underneath the journal and raises
      :class:`SnapshotError`.

    ``interval`` restrictions apply to replayed rows too: only appends
    whose timestamp lies inside the interval land in the booted graph.
    ``journal_path``/``journal_records`` on the returned
    :class:`SnapshotBoot` record what was replayed.
    """
    boot = _boot_snapshot_file(
        path, mmap=mmap, interval=interval, residency=residency
    )
    # Deferred import: journal.py imports _commit_bytes and SnapshotError
    # from this module.
    from .journal import journal_path, read_journal, replay_journal

    sidecar = journal_path(path)
    if not os.path.exists(sidecar):
        return boot
    journal, _records = read_journal(sidecar)
    if journal.base_epoch > boot.info.epoch:
        raise SnapshotError(
            f"{sidecar}: journal base epoch {journal.base_epoch} is ahead of "
            f"snapshot epoch {boot.info.epoch}: the snapshot file regressed "
            "underneath its journal"
        )
    if journal.base_epoch < boot.info.epoch:
        # Stale sidecar from a crashed compaction or a plain re-save; its
        # deltas are already folded into the snapshot payload.
        return boot
    boot.journal_path = sidecar
    boot.journal_records = replay_journal(
        boot.graph, sidecar, interval=interval
    )
    return boot


def load_snapshot(
    path: PathLike, *, mmap: bool = False, interval=None
) -> TemporalGraph:
    """Load a fully-warmed :class:`TemporalGraph` from the snapshot at ``path``.

    ``mmap=True`` requests the zero-copy columnar boot (v4 files only; older
    formats degrade to eager — use :func:`boot_snapshot` to observe the
    recorded fallback reasons).  ``interval`` restricts the boot to that
    time range's edges (extent-local mapping when combined with ``mmap``).

    Raises
    ------
    SnapshotError
        On a missing/unreadable file, bad magic, unsupported version,
        truncated payload, trailing garbage, checksum mismatch, an
        undecodable payload, or header counts that contradict the payload.
    """
    return boot_snapshot(path, mmap=mmap, interval=interval).graph
