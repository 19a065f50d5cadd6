"""Cooperative per-query deadlines.

A :class:`Deadline` is an *absolute* instant that a query must not run
past.  It is the admission-control primitive of the serving layer: batch
budgets, shard-group budgets and per-request deadlines all reduce to one
``Deadline`` that travels with the query — from
:meth:`repro.service.TspgService.run_batch` through the shard router and
the process-pool boundary down to the algorithm itself — so a long-running
in-flight query can cut *itself* off promptly instead of squatting on a
worker after its budget is gone.

Design notes
------------
* **Absolute, not relative.**  A duration captured at submit time would
  silently extend the budget for work that sat queued behind a full pool;
  an absolute instant means "remaining" is always computed against *now*.
* **Monotonic clock.**  The instant lives on the ``time.monotonic()``
  scale, not the wall clock: an NTP step or VM-resume adjustment to the
  wall clock would instantly expire (or silently extend) every in-flight
  deadline.  ``CLOCK_MONOTONIC`` (and its macOS/Windows equivalents) is
  system-wide per boot, so the instant survives pickling across the
  process boundary unchanged for the *local* worker pools this library
  runs — deadlines are not meaningful across machines or reboots.
* **Cooperative, not preemptive.**  Python threads cannot be interrupted;
  instead VUG polls :meth:`Deadline.expired` at documented points: the
  phase boundaries, every :data:`POLL_INTERVAL` iterations of every kernel
  loop (both id-space polarity sweeps, the Lemma 1 mask, both TCV scans
  and the tight mask, through :func:`poll`), and every node expansion
  inside EEV's bidirectional search.  The cut-off *slack* — how far past
  the deadline a query can run — is therefore bounded by the longest
  stretch of work between two checks: one polling interval of one kernel
  loop, or one edge expansion of the EEV search.
* **Checks are read-only.**  Polling a deadline never mutates anything, so
  results of queries that finish in budget are bit-identical with and
  without a deadline attached.

``Deadline`` is deliberately placed in :mod:`repro.core` (not the service
layer): the algorithm interface consumes it, and the layering rule says
algorithms never import from :mod:`repro.service`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

#: Kernel loop iterations between two polls of a query's deadline.  Every
#: VUG phase therefore stops within one such stretch of one of its loops.
POLL_INTERVAL = 256


@dataclass(frozen=True)
class Deadline:
    """An absolute instant (``time.monotonic()`` scale) a query must meet.

    Frozen and picklable by construction: the one field is a float on the
    system-wide monotonic scale, so a deadline crosses a worker pool's
    process boundary losslessly and the worker-side
    remaining budget is recomputed against the worker's own reading of the
    same clock (valid on one machine within one boot — exactly the
    deployments a local worker pool serves).

    Examples
    --------
    >>> d = Deadline.after(60.0)
    >>> d.expired()
    False
    >>> d.remaining() <= 60.0
    True
    """

    #: The instant itself, in ``time.monotonic()`` seconds.
    at_monotonic: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """The deadline ``seconds`` from now (negative values are already expired)."""
        return cls(at_monotonic=time.monotonic() + seconds)

    @classmethod
    def from_budget(cls, budget_seconds: Optional[float]) -> Optional["Deadline"]:
        """Convert an optional relative budget to an optional deadline.

        The helper every batch entry point uses: ``None`` stays ``None``
        (no budget means no deadline), anything else becomes the absolute
        instant the budget runs out.
        """
        if budget_seconds is None:
            return None
        return cls.after(budget_seconds)

    def remaining(self) -> float:
        """Seconds left before the deadline (clamped at 0.0 once expired)."""
        return max(0.0, self.at_monotonic - time.monotonic())

    def expired(self) -> bool:
        """``True`` once the instant has passed (the cooperative poll)."""
        return time.monotonic() >= self.at_monotonic

    def earlier(self, other: Optional["Deadline"]) -> "Deadline":
        """The stricter of two deadlines (``other`` may be ``None``).

        Used where a per-request deadline meets a batch-wide budget: the
        query must honour whichever runs out first.
        """
        if other is None or self.at_monotonic <= other.at_monotonic:
            return self
        return other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(in {self.at_monotonic - time.monotonic():+.3f}s)"


class DeadlineExpired(RuntimeError):
    """Raised inside a VUG phase once the query's deadline has passed.

    :meth:`repro.core.vug.VUG.run` catches it and returns its timed-out
    report, keeping the upper bounds of the phases that finished.
    """


def poll(deadline: Optional[Deadline]) -> int:
    """One cooperative poll inside a kernel loop.

    Raises :class:`DeadlineExpired` once ``deadline`` has passed (never
    for ``None``) and otherwise returns :data:`POLL_INTERVAL`, the number
    of iterations until the loop polls again.  A polled loop counts down::

        ticks = POLL_INTERVAL
        for item in work:
            ticks -= 1
            if not ticks:
                ticks = poll(deadline)
            ...

    which costs one decrement per iteration and one clock read per
    interval.
    """
    if deadline is not None and deadline.expired():
        raise DeadlineExpired("deadline expired inside a VUG kernel loop")
    return POLL_INTERVAL
