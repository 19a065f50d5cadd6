"""Vectorized (numpy) variants of the query hot-path kernels.

The zero-materialization pipeline spends its per-query time in three places:
the polarity sweeps (Algorithm 3), the Lemma 1 edge mask (Algorithm 2) and
EEV's grouped adjacency expansion.  This module provides numpy versions of
the first two; the third lives with the data it groups, as
:meth:`repro.graph.views.SubgraphView._group_by_numpy`, and is selected by
the ``backend`` flag the mask kernels stamp on every view they build.

All operands come from the buffer-backed :class:`~repro.graph.columns.
IndexColumn` storage of :class:`~repro.graph.views.GraphView` — the numpy
arrays are :func:`numpy.frombuffer` views of the *same* bytes the pure-Python
sweeps bisect, so the two backends read identical inputs.

Equivalence contract
--------------------
``polarity_id_arrays_numpy`` computes the same earliest-arrival /
latest-departure tables as :func:`~repro.core.polarity.
compute_polarity_id_arrays`.  It runs a single Gauss–Seidel pass over the
distinct timestamps of the window, ascending for arrivals and descending
for departures, relaxing every edge of one timestamp at once.  A single
pass is *exact*: edges sharing a timestamp can never enable each other
(``t > A(u)`` fails when ``A(u) = t``), and a later group can only assign
table values at its own — larger — timestamp, so it can never retroactively
enable an edge in an earlier group.  The queue-based Python sweep is a
different chaotic iteration of the same monotone relaxation operator from
the same initial tables, so both reach the same unique fixed point (the
values, not the visit order, are the contract).  Timestamps are int64 and
therefore exactly representable in float64, so the float tables compare
equal to the Python lists element-wise (``5 == 5.0``), and every downstream
consumer only *compares* the values.

``quick_mask_numpy`` evaluates Lemma 1 (``A(u) < τ < D(v)``) over every
edge of the query window's ``[lo, hi)`` slice.  The Python
:func:`~repro.core.quick_ubg.quick_mask_kernel` reads less: only the
out-edges of vertices the forward sweep reached, after their arrival
time, plus a sort of the survivors.  Lemma 1 confines every survivor to
that window, so both produce the identical ascending index list —
including the ``lo == hi`` empty-window convention pinned by the
degenerate-interval regression tests.

The sweep reads a *window-local timestamp-group layout* (each group's edges
sorted by head for the forward pass and by tail for the backward pass, with
``reduceat`` boundaries) built over the query window's ``[lo, hi)`` edge
slice only — never the whole column — and cached per window under a small
bounded LRU in ``GraphView._kernel_scratch``.  Restricting the layout to
the window is exact by the group-monotonicity argument above: a timestamp
group outside ``[τb, τe]`` is never iterated by either sweep, so edges
outside the window can never relax a table value any in-window consumer
reads.  The payoff is residency: layout cost is O(w log w) in the window's
edge count ``w`` (not O(E log E)), and on an mmap-booted view a narrow
query faults in only the window's pages of ``src``/``dst``/``ts``.  Like
the CSR-aligned columns the cache is never persisted, and the view's
immutability (mutation rebuilds the view, and with it an empty scratch)
keeps every cached layout valid for the view's whole lifetime.

When numpy is not installed (:func:`numpy_available` is ``False``) callers
must use the pure-Python kernels; the dispatching layers (``VUG``,
``SubgraphView``) do that silently, so ``kernel_backend="numpy"`` is always
safe to request.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from ..graph.columns import BUFFER_COLUMN_TYPES, numpy_available, numpy_or_none
from ..graph.edge import Vertex, as_interval
from ..graph.views import GraphView, SubgraphView

__all__ = [
    "KERNEL_BACKENDS",
    "numpy_available",
    "polarity_id_arrays_numpy",
    "quick_mask_numpy",
]

#: The selectable kernel backends, in fallback order.
KERNEL_BACKENDS = ("python", "numpy")

#: Cache key of the window-layout LRU in ``GraphView._kernel_scratch``.
_LAYOUT_KEY = "ts_group_layouts"

#: Max distinct ``(lo, hi)`` window layouts cached per view.  Serve loops
#: typically repeat a handful of hot intervals; beyond that, rebuilding a
#: window layout is O(w log w) in the window's edge count, so eviction is
#: cheap to recover from and the cache never anchors cold pages.
_LAYOUT_CACHE_CAPACITY = 8


def _as_numpy(column):
    """Zero-copy numpy view of a buffer-backed column (copy otherwise)."""
    if isinstance(column, BUFFER_COLUMN_TYPES):
        return column.numpy()
    np = numpy_or_none()
    return np.asarray(column, dtype=np.int64)


def _window_columns(view: GraphView, window) -> Tuple[int, int, object, object, object]:
    """The ``[lo, hi)`` window slice of the edge columns as numpy views."""
    lo, hi = view.slice_bounds(window)
    src = _as_numpy(view.src)[lo:hi]
    dst = _as_numpy(view.dst)[lo:hi]
    ts = _as_numpy(view.ts)[lo:hi]
    return lo, hi, src, dst, ts


def _layout_cache(view: GraphView) -> "OrderedDict":
    """The per-view window-layout LRU, created on first use."""
    cache = view._kernel_scratch.get(_LAYOUT_KEY)
    if cache is None:
        cache = OrderedDict()
        view._kernel_scratch[_LAYOUT_KEY] = cache
    return cache


def _ts_group_layout(view: GraphView, window):
    """The window-local timestamp-group relaxation layout (LRU-cached).

    Returns ``(uts, fwd, bwd)`` built over the ``[lo, hi)`` edge slice of
    ``slice_bounds(window)`` only, where ``uts`` is the window's sorted
    distinct timestamps and ``fwd[i]``/``bwd[i]`` describe timestamp group
    ``i`` (one contiguous run of the ts-sorted window slice):

    * ``fwd[i] = (t, src_g, gdst, starts)`` — the group's edge tails in
      head-sorted order, the distinct heads, and the ``reduceat``
      boundaries of each head's run;
    * ``bwd[i] = (t, dst_g, gsrc, starts)`` — the mirror, tail-grouped.

    Every group of the slice is in-window by construction (``lo`` and
    ``hi`` bisect the sorted ``ts`` column on the window bounds), so the
    sweeps iterate the layout whole — no per-query searchsorted needed.
    The layout stores vertex ids, never edge indices, so slice-local
    arrays need no offset correction.  Layouts are keyed by ``(lo, hi)``
    in a small LRU per view; the view is immutable (mutation rebuilds the
    view and its scratch), so cached layouts never go stale.
    """
    lo, hi = view.slice_bounds(window)
    cache = _layout_cache(view)
    key = (lo, hi)
    layout = cache.get(key)
    if layout is not None:
        cache.move_to_end(key)
        return layout
    np = numpy_or_none()
    src = _as_numpy(view.src)[lo:hi]
    dst = _as_numpy(view.dst)[lo:hi]
    ts = _as_numpy(view.ts)[lo:hi]
    uts, group_starts = np.unique(ts, return_index=True)
    bounds = group_starts.tolist() + [hi - lo]
    fwd, bwd = [], []
    for i in range(len(uts)):
        s, e = bounds[i], bounds[i + 1]
        src_g, dst_g = src[s:e], dst[s:e]
        by_head = np.argsort(dst_g, kind="stable")
        heads = dst_g[by_head]
        head_starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
        by_tail = np.argsort(src_g, kind="stable")
        tails = src_g[by_tail]
        tail_starts = np.flatnonzero(np.r_[True, tails[1:] != tails[:-1]])
        t = int(uts[i])
        fwd.append((t, src_g[by_head], heads[head_starts], head_starts))
        bwd.append((t, dst_g[by_tail], tails[tail_starts], tail_starts))
    layout = (uts, fwd, bwd)
    cache[key] = layout
    while len(cache) > _LAYOUT_CACHE_CAPACITY:
        cache.popitem(last=False)
    return layout


def polarity_id_arrays_numpy(
    view: GraphView,
    source: Vertex,
    target: Vertex,
    interval,
):
    """Vectorized Algorithm 3: ``(arrival_by_id, departure_by_id)`` arrays.

    Returns two float64 numpy arrays indexed by interned vertex id, equal
    element-wise to the lists of :func:`~repro.core.polarity.
    compute_polarity_id_arrays`.  One ascending pass over the window's
    timestamp groups computes the arrival table exactly (see the module
    docstring for why no fixed-point iteration is needed); one descending
    pass mirrors it for departures.  Each group relaxes all of its edges in
    a handful of array operations: gather the tails' arrivals, reduce the
    "some in-edge relaxes" flag per head with ``bitwise_or.reduceat``, and
    scatter the group timestamp into the improved heads.

    Algorithm 3's endpoint rules are preserved by construction: the
    arrival of ``target`` is restored to its pre-sweep value after every
    group (dropping edges *into* the target, so nothing routes through it —
    and preserving the source pin when ``source == target``), the arrival
    of ``source`` stays ``τb - 1`` (group timestamps are in-window, hence
    strictly larger), and the mirror holds for departures.
    """
    np = numpy_or_none()
    window = as_interval(interval)
    num_vertices = view.num_vertices
    arrival = np.full(num_vertices, np.inf)
    departure = np.full(num_vertices, -np.inf)
    source_id = view.index_of.get(source)
    target_id = view.index_of.get(target)
    # The window-local layout holds exactly the in-window timestamp groups,
    # so both sweeps walk it end to end.
    uts, fwd, bwd = _ts_group_layout(view, window)
    first, last = 0, len(uts)

    if source_id is not None:
        arrival[source_id] = window.begin - 1
        # The queue sweep never *writes* the target's slot, so its pinned
        # value survives even when source == target; mirror that by
        # restoring whatever the slot held before the sweep began.
        target_pin = arrival[target_id] if target_id is not None else None
        for group in range(first, last):
            t, src_g, gdst, starts = fwd[group]
            relaxes = arrival[src_g] < t
            if not relaxes.any():
                continue
            improved = gdst[np.bitwise_or.reduceat(relaxes, starts)]
            current = arrival[improved]
            arrival[improved] = np.where(current < t, current, float(t))
            if target_id is not None:
                arrival[target_id] = target_pin

    if target_id is not None:
        departure[target_id] = window.end + 1
        source_pin = departure[source_id] if source_id is not None else None
        for group in range(last - 1, first - 1, -1):
            t, dst_g, gsrc, starts = bwd[group]
            relaxes = departure[dst_g] > t
            if not relaxes.any():
                continue
            improved = gsrc[np.bitwise_or.reduceat(relaxes, starts)]
            current = departure[improved]
            departure[improved] = np.where(current > t, current, float(t))
            if source_id is not None:
                departure[source_id] = source_pin

    return arrival, departure


def quick_mask_numpy(
    view: GraphView,
    arrival_by_id,
    departure_by_id,
    window,
) -> SubgraphView:
    """Vectorized Algorithm 2: the Lemma 1 scan as one boolean reduction.

    ``arrival_by_id`` / ``departure_by_id`` may be the numpy arrays of
    :func:`polarity_id_arrays_numpy` or any sequence (they are coerced).
    The resulting :class:`SubgraphView` carries ``backend="numpy"`` so the
    downstream TightUBG refinement and EEV adjacency grouping stay on the
    vectorized path.
    """
    np = numpy_or_none()
    window = as_interval(window)
    arrival = np.asarray(arrival_by_id, dtype=np.float64)
    departure = np.asarray(departure_by_id, dtype=np.float64)
    lo, _, src, dst, ts = _window_columns(view, window)
    keep = (arrival[src] < ts) & (ts < departure[dst])
    indices = (np.flatnonzero(keep) + lo).tolist()
    # Surviving endpoints via presence flags — one O(E) scatter and one
    # O(V) scan beat sorting the survivor columns for uniqueness.
    present = np.zeros(view.num_vertices, dtype=bool)
    present[src[keep]] = True
    present[dst[keep]] = True
    vids = set(np.flatnonzero(present).tolist())
    return SubgraphView(view, indices, vids, backend="numpy")
