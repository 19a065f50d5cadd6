"""The buffer-backed columns shared by views, snapshots and kernels.

:class:`IndexColumn` is the single storage type for every interned integer
column in the codebase — the timestamp-sorted edge columns and CSR arrays of
:class:`~repro.graph.views.GraphView`, the pickled payload of the snapshot
codec, and the operands of the query kernels.  It subclasses
:class:`array.array` (typecode ``"q"``, one int64 per element), so:

* every pure-Python consumer (``bisect``, ``zip``, indexing, slicing) works
  unchanged — an :class:`IndexColumn` *is* an ``array``;
* pickling goes through ``array``'s reconstructor, which preserves the
  subclass, so snapshots persist exactly one buffer per column.  Snapshots
  name the class when they pickle a column, which is why it keeps its name.

:class:`MmapColumn` is the mmap-backed sibling used by snapshot format v4:
it wraps a ``memoryview`` slice of a memory-mapped snapshot file cast to the
same int64 layout, so a booted :class:`~repro.graph.views.GraphView` reads
column bytes straight out of the OS page cache — no unpickling, no copies,
no resident memory until a page is touched.  It exposes the read-only subset
of the ``IndexColumn`` surface the query path uses (indexing, slicing,
iteration, ``bisect``); code that must mutate a column first calls
:meth:`MmapColumn.materialize` to copy the bytes into a private
:class:`IndexColumn` (copy-on-write — the file is never written).
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Union

#: Array typecode of every interned column: signed 64-bit integers.
INDEX_TYPECODE = "q"


class IndexColumn(array):
    """An ``array('q')`` subclass: the storage type of every interned column.

    It adds no behaviour to ``array``.  The distinct type tells adopted
    columns (:func:`as_index_column` is a no-op on them) apart from plain
    ``array('q')`` payloads written by older snapshots.
    """

    __slots__ = ()


class MmapColumn:
    """A read-only int64 column over a slice of a memory-mapped file.

    Wraps a ``memoryview`` (cast to typecode ``"q"``) of the column's extent
    inside a v4 snapshot mapping.  ``keepalive`` pins whatever object owns
    the underlying mapping (the :class:`mmap.mmap` handle) so the pages stay
    valid for the column's lifetime.  Supports the read path of
    :class:`IndexColumn` — ``len``, integer indexing, slicing (zero-copy,
    returns another :class:`MmapColumn`), iteration, ``in``, ``tolist``,
    ``tobytes`` and equality against any int64 buffer or plain sequence.
    It is deliberately *not* mutable: a mutation epoch bump on the owning
    graph rebuilds its view from materialized :class:`IndexColumn` storage
    instead (copy-on-write).
    """

    __slots__ = ("_view", "_keepalive")

    #: Mirrors ``array.typecode`` so diagnostics can treat columns uniformly.
    typecode = INDEX_TYPECODE

    def __init__(self, buffer, keepalive=None) -> None:
        view = memoryview(buffer)
        if view.format != INDEX_TYPECODE:
            view = view.cast(INDEX_TYPECODE)
        self._view = view
        self._keepalive = keepalive

    def __len__(self) -> int:
        return len(self._view)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return MmapColumn(self._view[item], self._keepalive)
        return self._view[item]

    def __iter__(self):
        return iter(self._view)

    def __contains__(self, value) -> bool:
        return value in self._view.tolist()

    def __eq__(self, other) -> bool:
        if isinstance(other, MmapColumn):
            return self._view == other._view
        if isinstance(other, (array, memoryview, bytes, bytearray)):
            return self._view == other
        if isinstance(other, (list, tuple)):
            return self._view.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"MmapColumn(len={len(self._view)})"

    @property
    def nbytes(self) -> int:
        """Bytes of mapped file this column's elements span.

        Residency accounting reads this to report how much of a snapshot's
        column payload an extent-local boot actually mapped.
        """
        return len(self._view) * self._view.itemsize

    def tolist(self) -> List[int]:
        """The column as a plain list of Python ints (copies)."""
        return self._view.tolist()

    def tobytes(self) -> bytes:
        """The column's raw little-endian int64 bytes (copies)."""
        return self._view.tobytes()

    def materialize(self) -> IndexColumn:
        """A private, mutable :class:`IndexColumn` copy of this column."""
        return IndexColumn(INDEX_TYPECODE, self._view.tobytes())


class ChainedColumn:
    """A read-only concatenation of a frozen base column and an appended tail.

    The live-ingest fast path (:meth:`GraphView.extended_with`) produces
    epoch N+1's edge columns by appending a small delta after epoch N's
    frozen columns.  Copying an mmap-backed base would fault every page of
    the column just to add a few rows, so this wrapper keeps the base —
    an :class:`IndexColumn`, an :class:`MmapColumn` or a previous chain's
    base — untouched and presents ``base + tail`` through the same read
    surface the views and kernels consume (``len``, indexing, slicing,
    iteration, ``tolist``/``tobytes``).

    Chains never nest: extending a chained column merges the new rows into
    its (small, private) tail, so depth stays 1 over the original base no
    matter how many ingest batches arrive.
    """

    __slots__ = ("base", "tail", "_base_len")

    #: Mirrors ``array.typecode`` so diagnostics can treat columns uniformly.
    typecode = INDEX_TYPECODE

    def __init__(self, base, tail) -> None:
        self.base = base
        self.tail = tail if isinstance(tail, IndexColumn) else as_index_column(tail)
        self._base_len = len(base)

    def __len__(self) -> int:
        return self._base_len + len(self.tail)

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self))
            if step == 1:
                if stop <= self._base_len:
                    return self.base[start:stop]
                if start >= self._base_len:
                    return self.tail[start - self._base_len : stop - self._base_len]
            return index_column(self[i] for i in range(start, stop, step))
        index = item
        if index < 0:
            index += len(self)
        if index < 0 or index >= len(self):
            raise IndexError("ChainedColumn index out of range")
        if index < self._base_len:
            return self.base[index]
        return self.tail[index - self._base_len]

    def __iter__(self):
        yield from self.base
        yield from self.tail

    def __contains__(self, value) -> bool:
        return value in self.base or value in self.tail

    def __eq__(self, other) -> bool:
        if isinstance(other, ChainedColumn):
            return self.tolist() == other.tolist()
        if isinstance(other, (array, MmapColumn)):
            return self.tolist() == list(other)
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ChainedColumn(base={self._base_len}, tail={len(self.tail)})"

    def tolist(self) -> List[int]:
        """The column as a plain list of Python ints (copies)."""
        return list(self.base.tolist()) + self.tail.tolist()

    def tobytes(self) -> bytes:
        """The column's raw int64 bytes (copies, faults the base's pages)."""
        return self.base.tobytes() + self.tail.tobytes()

    def materialize(self) -> IndexColumn:
        """A private, mutable :class:`IndexColumn` copy of this column."""
        return IndexColumn(INDEX_TYPECODE, self.tobytes())


def extended_column(base, tail: "IndexColumn"):
    """``base`` with ``tail`` appended, reusing frozen buffers where possible.

    * :class:`MmapColumn` base → a :class:`ChainedColumn` over the mapped
      pages (zero-copy: no base page is faulted).
    * :class:`ChainedColumn` base → a new chain over the *original* base
      with the tails merged (depth stays 1).
    * :class:`IndexColumn` / ``array`` base → one C-speed ``memcpy`` concat
      (the base bytes are already resident, chaining would only add
      per-access indirection to the hot columns).
    """
    if isinstance(base, ChainedColumn):
        merged = IndexColumn(INDEX_TYPECODE, base.tail.tobytes() + tail.tobytes())
        return ChainedColumn(base.base, merged)
    if isinstance(base, MmapColumn):
        return ChainedColumn(base, tail)
    merged = IndexColumn(INDEX_TYPECODE, base.tobytes())
    merged.extend(tail)
    return merged


def index_column(initializer: Union[bytes, Iterable[int]] = b"") -> IndexColumn:
    """Build an :class:`IndexColumn` from bytes or an iterable of ints."""
    return IndexColumn(INDEX_TYPECODE, initializer)


def zeros_column(length: int) -> IndexColumn:
    """An :class:`IndexColumn` of ``length`` zeroed int64 slots."""
    return IndexColumn(INDEX_TYPECODE, bytes(8 * length))


def as_index_column(column) -> IndexColumn:
    """Adopt ``column`` as an :class:`IndexColumn`.

    A no-op for columns that already are one (snapshot formats v3+ written
    by this build); :class:`MmapColumn` views and plain ``array('q')``
    payloads from older snapshots are wrapped with one buffer copy.
    """
    if isinstance(column, IndexColumn):
        return column
    if isinstance(column, (MmapColumn, ChainedColumn)):
        return column.materialize()
    if isinstance(column, array) and column.typecode == INDEX_TYPECODE:
        return IndexColumn(INDEX_TYPECODE, column.tobytes())
    return IndexColumn(INDEX_TYPECODE, column)
