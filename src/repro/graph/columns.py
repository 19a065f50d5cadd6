"""The int64 columns shared by views, snapshots and kernels.

Every interned integer column of a :class:`~repro.graph.views.GraphView` is
a builtin int64 buffer: an ``array('q')`` in private memory, or, on an mmap
boot of a snapshot, a ``memoryview`` of the mapped extent cast to ``"q"``.
Both index, slice, iterate and ``bisect`` in C, so the query kernels never
call back into Python to read a column.  Code that builds a column builds
an ``array``; a built view never mutates its columns, so a mapped column is
never written and its pages stay shared with the file.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Union

#: Array typecode of every interned column: signed 64-bit integers.
INDEX_TYPECODE = "q"


def index_column(initializer: Union[bytes, Iterable[int]] = b"") -> array:
    """An ``array('q')`` column from bytes or an iterable of ints."""
    return array(INDEX_TYPECODE, initializer)


def zeros_column(length: int) -> array:
    """An ``array('q')`` column of ``length`` zeroed slots."""
    return array(INDEX_TYPECODE, bytes(8 * length))


def extended_column(base, tail: array) -> array:
    """``base`` followed by ``tail`` as a new ``array('q')``.

    One copy of the old bytes, whether ``base`` is an ``array`` or a mapped
    ``memoryview``; the receiver is left untouched.
    """
    merged = array(INDEX_TYPECODE)
    merged.frombytes(memoryview(base).cast("B"))
    merged.extend(tail)
    return merged
