"""Versioned binary snapshots of a :class:`TemporalGraph`.

A snapshot persists the graph's frozen CSR columnar
:class:`~repro.graph.views.GraphView` — the only place a graph keeps its
edges — plus the vertex labels, the distinct timestamps and the epoch, so a
long-lived service cold-starts in O(read) instead of re-inserting and
re-sorting every edge (O(E log E)), and boots straight into view-servable
state.

Format version 5 (current) — columnar section layout::

    +--------------------------------------------------------------------+
    | fixed header (54 bytes, big-endian, shared by every version):      |
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
    | "meta" section:      zlib(pickle(labels/timestamps/epoch))         |
    | 11 raw column extents, each 8-byte aligned, uncompressed,          |
    | little-endian int64: the view's src/dst/ts edge columns, the CSR   |
    | offset/edge arrays, and the CSR-aligned out_ts/out_dst/in_ts/in_src|
    +--------------------------------------------------------------------+

``payload length`` counts every byte after the fixed header (table,
sections, alignment padding), so ``file size == 54 + payload length``
exactly; the header CRC field covers the section-table block and each
section carries its own CRC.  The raw extents are what make the format
mmap-able: :func:`load_snapshot` with ``mmap=True`` maps the file and hands
``memoryview`` slices of the extents, cast to int64, to a
:class:`~repro.graph.views.GraphView` — boot cost and resident memory stay
O(metadata), not O(E).  Encoding is a function of the graph's vertex order,
edge set and epoch, so equal graphs write equal bytes.

Version 4 is the same layout plus a pickled ``adjacency`` section (the
per-vertex neighbour dicts of builds that kept them); it still loads eagerly
or mapped, its ``adjacency`` section CRC-checked on eager loads but never
decoded.  Versions 1–3 (one zlib-pickled payload, no column extents) are
not read: loading one raises :class:`SnapshotError` naming the version and
saying to re-warm the graph with ``tspg warm``.

Every load validates magic, version and sizes *before* decoding, checks the
table and section CRCs before unpickling anything, and cross-checks the
header counts against the decoded graph; any mismatch raises
:class:`SnapshotError` instead of returning garbage.  The header is decoded
once into a :class:`SnapshotInfo` that every reader takes, and the eager
and mmap readers share one decode sequence (:func:`_decode`); they differ
only in how a column extent becomes a column.  The pickled sections use
:mod:`pickle` because graph vertices may be arbitrary hashables (ints,
transit-stop strings, tuples); snapshots are trusted local artifacts, not a
wire format.
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

from ..graph.columns import INDEX_TYPECODE
from ..graph.temporal_graph import TemporalGraph
from ..graph.views import GraphView

#: First bytes of every snapshot file.
SNAPSHOT_MAGIC = b"TSPGSNAP"

#: Current format version; bump when the layout changes.  Version 4
#: introduced the columnar section layout documented above; version 5
#: dropped the pickled ``adjacency`` section, so the view's columns are the
#: graph's only edge storage.
SNAPSHOT_VERSION = 5

#: Versions this build reads, eagerly or mapped.  Versions 1–3 are rejected
#: with a :class:`SnapshotError` that says to re-warm the graph.
SUPPORTED_SNAPSHOT_VERSIONS = (4, 5)

#: Header layout: magic, version, epoch, |V|, |E|, |T|, payload length, CRC-32.
#: The CRC covers the section table block; each section carries its own.
_HEADER_STRUCT = struct.Struct(">8sHQQQQQI")

HEADER_SIZE = _HEADER_STRUCT.size

#: Section-table block header: num_sections (u32), table_bytes (u32 —
#: the size of the whole block including these 8 bytes).
_TABLE_HEADER_STRUCT = struct.Struct(">II")

#: Per-section record: name (16s), absolute offset (u64), length (u64),
#: int64 element count (u64, 0 for pickled sections), CRC-32 (u32).
_SECTION_RECORD_STRUCT = struct.Struct(">16sQQQI")

#: The raw int64 column extents of a v4/v5 snapshot, in file order.  The
#: first seven are the view's edge and CSR columns; the last four are the
#: CSR-aligned derivatives (``out_ts[j]``/``out_dst[j]`` describe the edge
#: at CSR position ``j``), persisted so the polarity sweeps never rebuild
#: them on either boot flavour.
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
    """One decoded v4/v5 section-table record."""

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
    """

    graph: TemporalGraph
    info: SnapshotInfo
    mmap_requested: bool = False
    mmap_active: bool = False
    fallback_reasons: List[str] = field(default_factory=list)
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
    """Encode ``graph`` to ``(header, body, info)`` — format v5.

    The single place the current on-disk layout is produced;
    :func:`save_snapshot` and :func:`snapshot_bytes` both write exactly
    ``header + body``.  Encoding is a function of the graph's vertex order,
    edge set and epoch: the column extents are the view's (whose row order
    is :func:`~repro.graph.temporal_graph._edge_sort_key` order), so equal
    graphs — and a re-save of a loaded snapshot, either boot flavour —
    write identical bytes and CRCs.
    """
    view = graph.view()
    meta_blob = _pickled_blob(
        {
            "labels": view.labels,
            "timestamps": graph.timestamps(),
            "epoch": graph.epoch,
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
    sections: List[Tuple[str, bytes, int]] = [("meta", meta_blob, 0)]
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
    """Write ``graph``'s view, labels, timestamps and epoch to ``path`` (v5).

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
def _open_snapshot(path: str) -> BinaryIO:
    try:
        return open(path, "rb")
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot open snapshot: {exc}") from exc


def _read_header(handle: BinaryIO, path: str) -> Tuple[SnapshotInfo, int]:
    """Decode and validate the fixed header: ``(info, table_crc)``.

    The one place a :class:`SnapshotInfo` is read off disk; every reader
    takes this record instead of re-deriving the counts.
    """
    raw = handle.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise SnapshotError(
            f"{path}: truncated snapshot header ({len(raw)} of {HEADER_SIZE} bytes)"
        )
    magic, version, epoch, n_vertices, n_edges, n_ts, payload_len, table_crc = (
        _HEADER_STRUCT.unpack(raw)
    )
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: not a tspG snapshot (bad magic {magic!r})")
    if version not in SUPPORTED_SNAPSHOT_VERSIONS:
        raise SnapshotError(
            f"{path}: unsupported snapshot format version {version} "
            f"(this build reads versions "
            f"{', '.join(str(v) for v in SUPPORTED_SNAPSHOT_VERSIONS)}): "
            "re-warm the graph with 'tspg warm'"
        )
    info = SnapshotInfo(
        version=version,
        epoch=epoch,
        num_vertices=n_vertices,
        num_edges=n_edges,
        num_timestamps=n_ts,
        payload_bytes=payload_len,
    )
    return info, table_crc


def peek_snapshot(path: PathLike) -> SnapshotInfo:
    """Read and validate only the header of the snapshot at ``path``."""
    path = os.fspath(path)
    with _open_snapshot(path) as handle:
        return _read_header(handle, path)[0]


def _read_table_block(handle: BinaryIO, info: SnapshotInfo) -> bytes:
    """Read just the section-table block with ordinary file reads."""
    handle.seek(HEADER_SIZE)
    table = handle.read(min(info.payload_bytes, _TABLE_HEADER_STRUCT.size))
    if len(table) >= _TABLE_HEADER_STRUCT.size:
        _, table_bytes = _TABLE_HEADER_STRUCT.unpack(table)
        if 0 < table_bytes <= info.payload_bytes:
            table += handle.read(table_bytes - len(table))
    return table


def _parse_table(
    buf, path: str, info: SnapshotInfo, table_crc: int
) -> Dict[str, SnapshotSection]:
    """Decode and verify the section table at the start of ``buf``.

    ``buf`` is a bytes-like view of the payload region after the fixed
    header (or of just its table block).  The table CRC (stored in the
    header) is verified before any record is trusted — a flipped byte
    anywhere in the block surfaces as a checksum mismatch, not a parse
    error.
    """
    payload_len = info.payload_bytes
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
    required_sections = ("meta", *V4_COLUMN_SECTIONS)
    if info.version == 4:
        required_sections += ("adjacency",)
    for required in required_sections:
        if required not in sections:
            raise SnapshotError(
                f"{path}: malformed snapshot section table "
                f"(missing section {required!r})"
            )
    return sections


def inspect_snapshot(path: PathLike) -> Tuple[SnapshotInfo, List[SnapshotSection]]:
    """Decode the header and the per-section table of a snapshot.

    Cheap by construction: reads the fixed header plus the section-table
    block — never a section payload.
    """
    path = os.fspath(path)
    with _open_snapshot(path) as handle:
        info, table_crc = _read_header(handle, path)
        table = _read_table_block(handle, info)
    sections = _parse_table(table, path, info, table_crc)
    return info, sorted(sections.values(), key=lambda record: record.offset)


def _checked(data: bytes, record: SnapshotSection, path: str) -> bytes:
    """``data`` (the bytes of ``record``) once its CRC-32 matches."""
    if (zlib.crc32(data) & 0xFFFFFFFF) != record.crc32:
        raise SnapshotError(
            f"{path}: snapshot section {record.name!r} checksum mismatch"
        )
    return data


def _section_bytes(buf, record: SnapshotSection, path: str) -> bytes:
    """The verified bytes of ``record`` out of the payload region ``buf``."""
    start = record.offset - HEADER_SIZE
    return _checked(bytes(buf[start : start + record.length]), record, path)


def _decode_meta(data: bytes, path: str) -> dict:
    """Unpickle the CRC-checked bytes of the ``meta`` section."""
    try:
        return pickle.loads(zlib.decompress(data))
    except Exception as exc:  # zlib.error, pickle errors, ...
        raise SnapshotError(
            f"{path}: cannot decode snapshot section 'meta': {exc}"
        ) from exc


def _validate_shapes(
    sections: Dict[str, SnapshotSection], path: str, info: SnapshotInfo
) -> None:
    """Cross-check extent element counts against the header counts."""
    expected = {name: info.num_edges for name in V4_COLUMN_SECTIONS}
    expected["view.out_offsets"] = info.num_vertices + 1
    expected["view.in_offsets"] = info.num_vertices + 1
    for name, count in expected.items():
        if sections[name].elements != count:
            raise SnapshotError(
                f"{path}: snapshot header does not match payload "
                f"(section {name!r} has {sections[name].elements} elements, "
                f"header implies {count})"
            )


def _wrap_columns(meta: dict, columns: Dict[str, object], path: str) -> TemporalGraph:
    """Wrap decoded or mapped columns in a graph, adopting them as-is."""
    try:
        view = GraphView(
            list(meta["labels"]),
            columns["view.src"],
            columns["view.dst"],
            columns["view.ts"],
            columns["view.out_offsets"],
            columns["view.out_edges"],
            columns["view.in_offsets"],
            columns["view.in_edges"],
            epoch=int(meta["epoch"]),
        )
        view._out_aligned = (columns["view.out_ts"], columns["view.out_dst"])
        view._in_aligned = (columns["view.in_ts"], columns["view.in_src"])
        return TemporalGraph.from_view(view, meta["timestamps"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SnapshotError(f"{path}: malformed snapshot state: {exc}") from exc


def _check_counts(graph: TemporalGraph, path: str, info: SnapshotInfo) -> None:
    if (
        graph.num_vertices != info.num_vertices
        or graph.num_edges != info.num_edges
        or len(graph.timestamps()) != info.num_timestamps
        or graph.epoch != info.epoch
    ):
        raise SnapshotError(
            f"{path}: snapshot header does not match payload "
            f"(header says |V|={info.num_vertices}, |E|={info.num_edges}, "
            f"|T|={info.num_timestamps}, epoch={info.epoch}; payload decodes "
            f"to |V|={graph.num_vertices}, |E|={graph.num_edges}, "
            f"|T|={len(graph.timestamps())}, epoch={graph.epoch})"
        )


def _decode(
    buf,
    path: str,
    info: SnapshotInfo,
    table_crc: int,
    column: Callable[[SnapshotSection], object],
) -> Tuple[TemporalGraph, Dict[str, SnapshotSection]]:
    """The one decode sequence: table, shapes, meta, wrap, count check.

    ``buf`` is the payload region (read into memory, or a view of the
    mapping); ``column(record)`` turns one column extent into a view
    column.  Returns the graph and the section table.
    """
    sections = _parse_table(buf, path, info, table_crc)
    _validate_shapes(sections, path, info)
    meta = _decode_meta(_section_bytes(buf, sections["meta"], path), path)
    columns = {name: column(sections[name]) for name in V4_COLUMN_SECTIONS}
    graph = _wrap_columns(meta, columns, path)
    _check_counts(graph, path, info)
    return graph, sections


def _load_eager(
    buf: bytes, path: str, info: SnapshotInfo, table_crc: int
) -> TemporalGraph:
    """Decode a snapshot read whole, CRC-checking and copying every extent.

    A v4 file's ``adjacency`` section is CRC-checked and skipped; the
    columns hold every edge it describes.
    """
    graph, sections = _decode(
        buf,
        path,
        info,
        table_crc,
        lambda record: _extent_column(_section_bytes(buf, record, path)),
    )
    if info.version == 4:
        _section_bytes(buf, sections["adjacency"], path)
    return graph


def _boot_mmap(path: str, info: SnapshotInfo, table_crc: int) -> SnapshotBoot:
    """Map the snapshot and wrap its column extents in a graph.

    Eagerly verified: the section table CRC and the small ``meta``
    section (so the boot fails fast on a corrupt table or metadata).  The
    raw column extents are cast out of the mapping *without* a CRC check —
    checking them would fault in every page and defeat the mapping (the
    eager loader and the shard set's whole-file check cover them) — and a
    v4 file's ``adjacency`` section is never read.
    """
    with open(path, "rb") as handle:
        mapped = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
    buf = memoryview(mapped)[HEADER_SIZE : HEADER_SIZE + info.payload_bytes]

    def column(record: SnapshotSection) -> memoryview:
        start = record.offset - HEADER_SIZE
        return buf[start : start + record.length].cast(INDEX_TYPECODE)

    graph, _sections = _decode(buf, path, info, table_crc, column)
    return SnapshotBoot(graph=graph, info=info, mmap_requested=True, mmap_active=True)


def _boot_snapshot_file(path: PathLike, *, mmap: bool = False) -> SnapshotBoot:
    """Load the snapshot *file* at ``path`` — journal replay lives one level up.

    With ``mmap=True`` the returned graph's view reads straight out of the
    page cache: its columns are ``memoryview`` slices of the mapping, and
    the graph holds nothing else per edge.  A platform whose native byte
    order can't alias the little-endian extents, or a mapping the OS
    refuses, degrades to the eager boot, with the reason recorded on the
    returned :class:`SnapshotBoot` rather than raised: a readable snapshot
    always boots, and always whole.

    Raises
    ------
    SnapshotError
        On a missing/unreadable file, bad magic, unsupported version,
        truncated payload, trailing garbage, any checksum mismatch, an
        undecodable section, or header counts that contradict the payload.
    """
    path = os.fspath(path)
    reasons: List[str] = []
    with _open_snapshot(path) as handle:
        info, table_crc = _read_header(handle, path)
        file_size = os.fstat(handle.fileno()).st_size
        if file_size < HEADER_SIZE + info.payload_bytes:
            raise SnapshotError(
                f"{path}: truncated snapshot payload "
                f"({file_size - HEADER_SIZE} of {info.payload_bytes} bytes)"
            )
        if file_size > HEADER_SIZE + info.payload_bytes:
            raise SnapshotError(f"{path}: trailing data after snapshot payload")
        if mmap and sys.byteorder != "little":
            reasons.append(
                "snapshot extents are little-endian and this platform "
                f"is {sys.byteorder}-endian: booted eagerly (byteswap)"
            )
        elif mmap:
            try:
                return _boot_mmap(path, info, table_crc)
            except (OSError, _mmap.error) as exc:
                reasons.append(f"mmap of the snapshot failed ({exc}): booted eagerly")
        graph = _load_eager(handle.read(info.payload_bytes), path, info, table_crc)
    return SnapshotBoot(
        graph=graph, info=info, mmap_requested=mmap, fallback_reasons=reasons
    )


def boot_snapshot(path: PathLike, *, mmap: bool = False) -> SnapshotBoot:
    """Load the snapshot at ``path``, optionally mmap-backed, with provenance.

    See :func:`_boot_snapshot_file` for the file-level semantics (mmap and
    its fallback reasons).  On top of that, this wrapper replays the
    epoch-delta journal sidecar (``path + ".tspgjournal"``) if one is
    present:

    - the journal's base epoch must equal the snapshot epoch to apply —
      appends are then replayed in order through the graph's journaled
      append path (no cache invalidation; an mmap boot's extended view
      copies the mapped columns into private memory, never writing the
      file);
    - a *stale* journal (base epoch below the snapshot epoch) is skipped:
      that is the residue of a compaction whose journal unlink was lost to
      a crash, or of a plain re-save, and its appends are already folded
      into the snapshot;
    - a journal *ahead* of the snapshot (base epoch above it) means the
      snapshot file regressed underneath the journal and raises
      :class:`SnapshotError`.

    ``journal_path``/``journal_records`` on the returned
    :class:`SnapshotBoot` record what was replayed.
    """
    boot = _boot_snapshot_file(path, mmap=mmap)
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
    boot.journal_records = replay_journal(boot.graph, sidecar)
    return boot


def load_snapshot(path: PathLike, *, mmap: bool = False) -> TemporalGraph:
    """Load the :class:`TemporalGraph` stored in the snapshot at ``path``.

    ``mmap=True`` requests the zero-copy columnar boot (use
    :func:`boot_snapshot` to observe the reasons when it degrades to
    eager).

    Raises
    ------
    SnapshotError
        On a missing/unreadable file, bad magic, unsupported version,
        truncated payload, trailing garbage, checksum mismatch, an
        undecodable payload, or header counts that contradict the payload.
    """
    return boot_snapshot(path, mmap=mmap).graph
