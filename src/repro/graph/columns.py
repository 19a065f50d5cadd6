"""The int64 columns shared by views, snapshots and kernels.

Every interned integer column of a :class:`~repro.graph.views.GraphView` is
a builtin int64 buffer: an ``array('q')`` in private memory, or, on an mmap
boot of a v4 snapshot, a ``memoryview`` of the mapped extent cast to
``"q"``.  Both index, slice, iterate and ``bisect`` in C, so the query
kernels never call back into Python to read a column.  Code that builds a
column builds an ``array``; a built view never mutates its columns, so a
mapped column is never written and its pages stay shared with the file.

:class:`IndexColumn` survives only as a name: snapshot formats v1–v3
pickled their view columns as instances of it, so unpickling an old file
needs the class to exist.  :func:`plain_column` adopts such a column as a
plain ``array('q')``.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Union

#: Array typecode of every interned column: signed 64-bit integers.
INDEX_TYPECODE = "q"


class IndexColumn(array):
    """The class pre-v4 snapshot payloads pickle their view columns as.

    Nothing builds one except the v3 writer of
    :func:`~repro.store.snapshot.write_legacy_snapshot`; loaders adopt
    unpickled ones with :func:`plain_column`.
    """

    __slots__ = ()


def index_column(initializer: Union[bytes, Iterable[int]] = b"") -> array:
    """An ``array('q')`` column from bytes or an iterable of ints."""
    return array(INDEX_TYPECODE, initializer)


def zeros_column(length: int) -> array:
    """An ``array('q')`` column of ``length`` zeroed slots."""
    return array(INDEX_TYPECODE, bytes(8 * length))


def plain_column(column) -> array:
    """Adopt an unpickled column as a plain ``array('q')``.

    A no-op on one; an :class:`IndexColumn` or any other int sequence is
    copied once.
    """
    if type(column) is array and column.typecode == INDEX_TYPECODE:
        return column
    return array(INDEX_TYPECODE, column)


def extended_column(base, tail: array) -> array:
    """``base`` followed by ``tail`` as a new ``array('q')``.

    One copy of the old bytes, whether ``base`` is an ``array`` or a mapped
    ``memoryview``; the receiver is left untouched.
    """
    merged = array(INDEX_TYPECODE)
    merged.frombytes(memoryview(base).cast("B"))
    merged.extend(tail)
    return merged
