"""The epoch-delta journal appended next to a snapshot (``*.tspgjournal``).

Live ingest must not re-serialize a multi-megabyte snapshot for every
batch of appended edges.  Instead, every :class:`~repro.graph.temporal_graph.EdgeDelta`
produced by :meth:`TemporalGraph.append_edges` is recorded in a compact
sidecar file next to the snapshot it extends:

* ``header`` — ``TSPGJRNL`` magic, format version, reserved flags, and the
  **base epoch**: the mutation epoch of the snapshot the journal extends.
  A journal whose base epoch does not match its snapshot is *stale* (the
  snapshot was re-saved or compacted after the journal was written) and is
  ignored on boot — this is exactly what makes compaction crash-safe: the
  snapshot commit is the atomic point, and a crash before the journal
  unlink leaves a stale sidecar that the next boot skips.
* one **record** per delta — op code, the epoch transition
  (``epoch_before → epoch_after``), the row count, and a zlib-compressed
  pickle of the rows guarded by its own CRC-32.  Records are strictly
  sequential: ``epoch_before`` of record *k* equals ``epoch_after`` of
  record *k − 1* (record 0 starts at the base epoch), so a replayed graph
  lands on exactly the epoch every downstream consumer stamped.

Writes reuse the snapshot codec's fsync'd :func:`_commit_bytes` (temp
sibling + rename + directory fsync), so the journal on disk is always a
complete, well-formed file — there is no torn-tail recovery path to get
wrong.  Appending therefore costs O(journal) bytes rewritten; journals are
bounded by compaction (:func:`repro.store.snapshot.save_snapshot` with
``compact=True`` folds them back into the snapshot), which keeps the
rewrite cost proportional to the un-compacted delta.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from ..graph.temporal_graph import EdgeDelta, TemporalGraph
from .snapshot import PathLike, SnapshotError, _commit_bytes

__all__ = [
    "JOURNAL_MAGIC",
    "JOURNAL_SUFFIX",
    "JOURNAL_VERSION",
    "JournalInfo",
    "JournalRecord",
    "append_journal_delta",
    "clear_journal",
    "inspect_journal",
    "journal_path",
    "read_journal",
    "replay_journal",
]

#: First bytes of every journal file.
JOURNAL_MAGIC = b"TSPGJRNL"

#: Current journal format version.
JOURNAL_VERSION = 1

#: Sidecar suffix: the journal of ``graph.tspgsnap`` is
#: ``graph.tspgsnap.tspgjournal``, committed in the same directory.
JOURNAL_SUFFIX = ".tspgjournal"

#: Journal ops.  Only edge appends exist today; the field keeps the record
#: layout stable if richer deltas (e.g. vertex attributes) arrive later.
OP_APPEND_EDGES = 1

_OP_NAMES = {OP_APPEND_EDGES: "append-edges"}

# header: magic, version, flags (reserved), base epoch
_HEADER_STRUCT = struct.Struct(">8sHHQ")
# record: op, epoch_before, epoch_after, num_rows, payload_len, payload_crc32
_RECORD_STRUCT = struct.Struct(">HQQQII")


def journal_path(snapshot_path: PathLike) -> str:
    """The sidecar journal path of ``snapshot_path``."""
    return f"{os.fspath(snapshot_path)}{JOURNAL_SUFFIX}"


class JournalInfo:
    """Decoded journal header plus whole-file summary (used by ``tspg inspect``)."""

    __slots__ = ("version", "base_epoch", "num_records", "byte_length")

    def __init__(
        self, *, version: int, base_epoch: int, num_records: int, byte_length: int
    ) -> None:
        self.version = version
        self.base_epoch = base_epoch
        self.num_records = num_records
        self.byte_length = byte_length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JournalInfo(version={self.version}, base_epoch={self.base_epoch}, "
            f"num_records={self.num_records}, bytes={self.byte_length})"
        )


class JournalRecord:
    """One decoded journal record.

    ``rows`` is the decoded edge tuple sequence when the payload CRC
    verified (``crc_ok``), and ``()`` otherwise — the tolerant decode used
    by ``tspg inspect`` reports the corruption instead of raising.
    """

    __slots__ = (
        "op",
        "epoch_before",
        "epoch_after",
        "num_rows",
        "payload_length",
        "crc_ok",
        "rows",
    )

    def __init__(
        self,
        *,
        op: int,
        epoch_before: int,
        epoch_after: int,
        num_rows: int,
        payload_length: int,
        crc_ok: bool,
        rows: Tuple,
    ) -> None:
        self.op = op
        self.epoch_before = epoch_before
        self.epoch_after = epoch_after
        self.num_rows = num_rows
        self.payload_length = payload_length
        self.crc_ok = crc_ok
        self.rows = rows

    @property
    def op_name(self) -> str:
        """Human-readable op label."""
        return _OP_NAMES.get(self.op, f"op-{self.op}")

    def as_row(self) -> Dict[str, object]:
        """Flat dict for the ``tspg inspect`` journal table."""
        return {
            "op": self.op_name,
            "epoch": f"{self.epoch_before}->{self.epoch_after}",
            "rows": self.num_rows,
            "payload_bytes": self.payload_length,
            "crc": "ok" if self.crc_ok else "CORRUPT",
        }


def _encode_record(delta: EdgeDelta) -> bytes:
    payload = zlib.compress(
        pickle.dumps(tuple(delta.rows), protocol=pickle.HIGHEST_PROTOCOL)
    )
    header = _RECORD_STRUCT.pack(
        OP_APPEND_EDGES,
        delta.old_epoch,
        delta.new_epoch,
        len(delta.rows),
        len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    return header + payload


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _decode_header(buf: bytes, path: str) -> JournalInfo:
    if len(buf) < _HEADER_STRUCT.size:
        raise SnapshotError(
            f"{path}: truncated journal header "
            f"({len(buf)} of {_HEADER_STRUCT.size} bytes)"
        )
    magic, version, _flags, base_epoch = _HEADER_STRUCT.unpack_from(buf)
    if magic != JOURNAL_MAGIC:
        raise SnapshotError(f"{path}: bad journal magic {magic!r}")
    if version != JOURNAL_VERSION:
        raise SnapshotError(
            f"{path}: unsupported journal version {version} "
            f"(this build reads version {JOURNAL_VERSION})"
        )
    return JournalInfo(
        version=version, base_epoch=base_epoch, num_records=0, byte_length=len(buf)
    )


def _decode_records(
    buf: bytes, path: str, *, strict: bool
) -> List[JournalRecord]:
    records: List[JournalRecord] = []
    offset = _HEADER_STRUCT.size
    while offset < len(buf):
        if offset + _RECORD_STRUCT.size > len(buf):
            raise SnapshotError(
                f"{path}: truncated journal record header at offset {offset}"
            )
        op, before, after, num_rows, payload_len, crc = _RECORD_STRUCT.unpack_from(
            buf, offset
        )
        offset += _RECORD_STRUCT.size
        if offset + payload_len > len(buf):
            raise SnapshotError(
                f"{path}: truncated journal record payload at offset {offset}"
            )
        payload = buf[offset : offset + payload_len]
        offset += payload_len
        crc_ok = (zlib.crc32(payload) & 0xFFFFFFFF) == crc
        rows: Tuple = ()
        if crc_ok:
            try:
                rows = pickle.loads(zlib.decompress(payload))
            except Exception as exc:  # zlib.error, pickle errors, ...
                if strict:
                    raise SnapshotError(
                        f"{path}: undecodable journal record "
                        f"#{len(records)}: {exc}"
                    ) from exc
                crc_ok = False
        elif strict:
            raise SnapshotError(
                f"{path}: journal record #{len(records)} failed its CRC check"
            )
        records.append(
            JournalRecord(
                op=op,
                epoch_before=before,
                epoch_after=after,
                num_rows=num_rows,
                payload_length=payload_len,
                crc_ok=crc_ok,
                rows=rows,
            )
        )
    return records


def read_journal(path: PathLike) -> Tuple[JournalInfo, List[JournalRecord]]:
    """Decode and fully verify a journal file (strict: corruption raises)."""
    path = os.fspath(path)
    buf = _read_bytes(path)
    info = _decode_header(buf, path)
    records = _decode_records(buf, path, strict=True)
    info.num_records = len(records)
    return info, records


def inspect_journal(path: PathLike) -> Tuple[JournalInfo, List[JournalRecord]]:
    """Decode a journal *tolerantly*: per-record CRC failures are reported
    in :attr:`JournalRecord.crc_ok` instead of raising (header corruption
    and truncation still raise — there is nothing meaningful to show)."""
    path = os.fspath(path)
    buf = _read_bytes(path)
    info = _decode_header(buf, path)
    records = _decode_records(buf, path, strict=False)
    info.num_records = len(records)
    return info, records


def append_journal_delta(snapshot_path: PathLike, delta: EdgeDelta) -> Optional[str]:
    """Record ``delta`` in the snapshot's sidecar journal (fsync'd commit).

    Creates the journal on first append, with ``delta.old_epoch`` as the
    base epoch — the caller appends immediately after mutating a graph
    booted from the snapshot, so the first delta's ``old_epoch`` *is* the
    snapshot's epoch.  Subsequent appends verify the chain: a delta whose
    ``old_epoch`` does not continue the journal's last record raises
    (something mutated the graph outside the journaled path; replaying the
    journal could no longer reproduce the live graph).

    Empty deltas (every edge was a duplicate) are not recorded.  Returns
    the journal path, or ``None`` when nothing was written.
    """
    if not delta.rows:
        return None
    path = journal_path(snapshot_path)
    if os.path.exists(path):
        buf = _read_bytes(path)
        info = _decode_header(buf, path)
        records = _decode_records(buf, path, strict=True)
        last_epoch = records[-1].epoch_after if records else info.base_epoch
        if delta.old_epoch != last_epoch:
            raise SnapshotError(
                f"{path}: journal chain ends at epoch {last_epoch} but the "
                f"delta starts at epoch {delta.old_epoch}; the graph was "
                f"mutated outside the journaled append path"
            )
    else:
        buf = _HEADER_STRUCT.pack(
            JOURNAL_MAGIC, JOURNAL_VERSION, 0, delta.old_epoch
        )
    _commit_bytes(path, (buf, _encode_record(delta)))
    return path


def clear_journal(snapshot_path: PathLike) -> bool:
    """Remove the snapshot's sidecar journal; ``True`` if one existed."""
    path = journal_path(snapshot_path)
    try:
        os.unlink(path)
    except FileNotFoundError:
        return False
    return True


def replay_journal(graph: TemporalGraph, path: PathLike) -> int:
    """Replay a journal's records onto ``graph`` via the delta append path.

    The graph must sit at the journal's base epoch (the caller checks the
    snapshot↔journal pairing; this function enforces per-record chain
    continuity).  Returns the number of records applied.  Replay routes
    through :meth:`TemporalGraph.append_edges`, so the graph's view is
    extended, not rebuilt.
    """
    _info, records = read_journal(path)
    for index, record in enumerate(records):
        if record.op != OP_APPEND_EDGES:
            raise SnapshotError(
                f"{os.fspath(path)}: unsupported journal op {record.op} "
                f"in record #{index}"
            )
        if graph.epoch != record.epoch_before:
            raise SnapshotError(
                f"{os.fspath(path)}: journal record #{index} expects "
                f"epoch {record.epoch_before} but the graph is at "
                f"epoch {graph.epoch}"
            )
        graph.append_edges(record.rows)
        if graph.epoch != record.epoch_after:
            raise SnapshotError(
                f"{os.fspath(path)}: journal record #{index} lands on "
                f"epoch {record.epoch_after} but replay produced "
                f"epoch {graph.epoch}"
            )
    return len(records)
