"""Deterministic thread pool for independent indexed tasks.

Used for the per-channel QR factorizations of the shared-pole fit, whose
few large LAPACK calls scale on threads.  The pole work of the shifted
solves runs in a `ShiftedFactorCache`'s worker processes instead, because
SuperLU solves do not scale on threads.  Depends on the standard library
only, so every module can import it.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor, wait

__all__ = ["PoleWorkerPool", "default_worker_count", "parse_worker_count"]

WORKERS_ENV = "RBAINV_WORKERS"


def parse_worker_count(text: str) -> int:
    """Strict decimal integer >= 1; raises ValueError otherwise."""
    text = text.strip()
    if not text.isdigit() or int(text) < 1:
        raise ValueError(f"invalid worker count {text!r}: expected an integer >= 1")
    return int(text)


def default_worker_count() -> int:
    """Worker count from ``RBAINV_WORKERS`` (default 1)."""
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        return parse_worker_count(text)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV}={text!r} is not an integer >= 1") from None


class PoleWorkerPool:
    """Maps indexed work across workers that each own a fixed index subset.

    Worker p owns indices {i : i mod W == p} and processes them in
    ascending order; results land in an index-ordered list, so the gathered
    output never depends on the worker count.  The calling thread is
    worker 0.  Each worker p >= 1 is one dedicated thread, started on its
    first task and kept until `close()` (or garbage collection), so subset p
    runs on the same thread in every call, a warm pool starts no threads,
    and a call never starts more threads than it has tasks.  ``fn`` must
    not call `map_poles` on the same pool.
    """

    def __init__(self, workers: int = 1):
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers!r}")
        self._executors: dict[int, ThreadPoolExecutor] = {}
        self._finalizer = None

    def _worker(self, p: int) -> ThreadPoolExecutor:
        """Worker p's one-thread executor, started on first use."""
        if self._finalizer is None:
            self._finalizer = weakref.finalize(self, _shutdown, self._executors, False)
        if p not in self._executors:
            self._executors[p] = ThreadPoolExecutor(max_workers=1,
                                                    thread_name_prefix=f"rbainv-worker-{p}")
        return self._executors[p]

    def map_poles(self, fn, count: int) -> list:
        results = [None] * count

        def run_subset(p: int):
            for i in range(p, count, self.workers):
                results[i] = fn(i)

        futures = [self._worker(p).submit(run_subset, p)
                   for p in range(1, min(self.workers, count))]
        try:
            run_subset(0)
        finally:
            wait(futures)
        for fut in futures:
            fut.result()
        return results

    def close(self) -> None:
        """Stop and join the worker threads; a later call starts new ones."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
            _shutdown(self._executors, True)

    def __enter__(self) -> "PoleWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _shutdown(executors: dict, join: bool) -> None:
    for executor in executors.values():
        executor.shutdown(wait=join)
    executors.clear()
