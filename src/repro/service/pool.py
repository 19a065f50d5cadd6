"""Persistent worker pools: long-lived worker processes shared across batches.

The pure-Python VUG phases hold the GIL, so the only way a batch uses more
than one core is worker processes.  Forking them and booting a
:class:`~repro.service.TspgService` from the snapshot file in each is paid
once per pool, not once per batch: :class:`WorkerPool` owns one
``ProcessPoolExecutor`` whose worker processes survive across batches, so
the per-worker snapshot-booted service cache
(:data:`repro.service.service._WORKER_SERVICES`) — including the warmed
view and each worker's LRU result cache — is built once and then reused by
every subsequent batch routed through the pool.  Attach one to a
:class:`~repro.service.TspgService` — flat, or the sharded router, which
shares the same batch path — with the ``pool=`` constructor argument or
:meth:`~repro.service.TspgService.attach_pool`, and every ``run_batch``
with ``max_workers > 1`` over a current snapshot fans its engines' chunks
out over the pool; ``tspg serve`` and ``tspg batch`` attach one when
``--workers > 1``.

Lifecycle
---------
* The pool is a context manager; :meth:`close` (or leaving the ``with``
  block) shuts the workers down.  Services run their batches serially
  once their attached pool is closed.
* Worker processes are forked lazily on the first submit, not at
  construction — a pool that never serves a process batch costs nothing.
* **Worker death** (OOM kill, segfault, ``os._exit``) breaks a
  ``ProcessPoolExecutor`` permanently.  The pool converts the stdlib's
  opaque ``BrokenProcessPool`` into a :class:`WorkerPoolError` naming what
  happened, and discards the broken executor so the *next* batch forks
  fresh workers and succeeds — the in-flight batch fails loudly, the pool
  recovers.

Thread-safety: submits may come from multiple threads (concurrent batches
of one serving loop); the executor swap is lock-guarded.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Optional


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the host's cores; on a cgroup- or
    affinity-restricted runner that over-forks workers (each booting a
    full snapshot service) for zero added parallelism.  Also used by the
    benchmark drivers' multi-core gates.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerPoolError(RuntimeError):
    """A persistent pool could not serve: closed, or a worker process died.

    Distinct from a worker *exception* (which re-raises as itself): this
    error means the pool machinery failed, and — unless the pool was
    closed — its message states that the workers have been rebuilt and the
    batch can simply be resubmitted.
    """


class WorkerPool:
    """A persistent process pool serving many batches with one worker boot.

    Parameters
    ----------
    max_workers:
        Number of worker processes (defaults to the affinity-aware visible
        CPU count).  This caps the pool's *parallelism*; a batch
        requesting more workers than the pool holds still completes —
        excess chunks queue.

    Examples
    --------
    >>> from repro.service import TspgService, WorkerPool
    >>> with WorkerPool(max_workers=4) as pool:              # doctest: +SKIP
    ...     service = TspgService.from_snapshot("g.tspgsnap", pool=pool)
    ...     for batch in batches:
    ...         service.run_batch(batch, max_workers=4)
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._max_workers = max_workers or available_cpus()
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        # Counts executor builds: 1 after the first submit, +1 after every
        # worker-death rebuild.  Diagnostic only.
        self._generation = 0
        self._batches_served = 0
        self._tasks_submitted = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker processes down; further submits raise.

        Idempotent.  Services with this pool attached degrade gracefully:
        their batches run serially again, exactly as if no pool had ever
        been attached.
        """
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run."""
        return self._closed

    @property
    def max_workers(self) -> int:
        """The pool's parallelism cap."""
        return self._max_workers

    def stats(self) -> Dict[str, int]:
        """Diagnostic counters (rendered by ``tspg serve``'s ``stats`` op)."""
        return {
            "max_workers": self._max_workers,
            "live": int(self._executor is not None),
            "generation": self._generation,
            "batches_served": self._batches_served,
            "tasks_submitted": self._tasks_submitted,
        }

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise WorkerPoolError("worker pool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self._max_workers)
                self._generation += 1
            return self._executor

    def _discard_broken(self, executor: ProcessPoolExecutor) -> None:
        """Drop a broken executor so the next submit forks fresh workers."""
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        """Submit one task to the pool (forking the workers on first use)."""
        executor = self._ensure_executor()
        try:
            future = executor.submit(fn, *args, **kwargs)
        except BrokenProcessPool as exc:
            self._discard_broken(executor)
            raise WorkerPoolError(
                "worker pool is broken (a worker process died); the pool "
                "discarded its workers and will fork fresh ones on the next "
                "batch — resubmit"
            ) from exc
        except RuntimeError as exc:
            # close() raced this submit between _ensure_executor() and
            # executor.submit(): surface the promised error type, not the
            # stdlib's "cannot schedule new futures after shutdown".
            raise WorkerPoolError("worker pool is closed") from exc
        # Remember which executor produced this future: by the time a
        # broken future is harvested, another batch may already have
        # triggered a rebuild, and discarding "the current" executor then
        # would shut down a healthy worker set serving someone else.
        future._tspg_pool_executor = executor  # type: ignore[attr-defined]
        with self._lock:
            self._tasks_submitted += 1
        return future

    def harvest(self, future: Future):
        """``future.result()`` with worker-death translated to a clear error.

        Worker *exceptions* re-raise as themselves (a bug in a query is not
        a pool failure).  A worker *death* raises :class:`WorkerPoolError`
        after discarding the broken executor, so the pool self-heals for
        the next batch while the current one fails loudly instead of
        returning a partial report.
        """
        try:
            return future.result()
        except BrokenProcessPool as exc:
            # Discard exactly the executor this future came from — never a
            # healthy rebuilt one a concurrent batch is already using.
            executor = getattr(future, "_tspg_pool_executor", None)
            if executor is not None:
                self._discard_broken(executor)
            raise WorkerPoolError(
                "a worker process died while serving this batch (killed or "
                "crashed, not a Python exception); the pool discarded its "
                "workers and will fork fresh ones on the next batch — "
                "resubmit the batch"
            ) from exc

    def note_batch(self) -> None:
        """Count one served batch (called by the services after a fan-out)."""
        with self._lock:
            self._batches_served += 1
