"""Deterministic thread pool for independent indexed tasks.

Used for the per-channel QR factorizations of the shared-pole fit, whose
few large LAPACK calls scale on threads and keep no state between calls,
so any thread of the pool may run any index subset.  The pole work of
the shifted solves runs in a `ShiftedFactorCache`'s worker processes
instead, because SuperLU solves do not scale on threads.  Depends on the
standard library only, so every module can import it.
"""

from __future__ import annotations

import os
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
    """Maps indexed work across W workers.

    Worker p runs the indices {i : i mod W == p} in ascending order, and
    results land in an index-ordered list, so the gathered output never
    depends on the worker count.  The calling thread is worker 0; workers
    1..W-1 run on the threads of one executor, made on first use and kept
    until `close()`, so a warm pool starts no threads and a call never
    starts more threads than it has tasks.  A pool nobody closes stops its
    threads when it is garbage collected.  ``fn`` must not call
    `map_poles` on the same pool.
    """

    def __init__(self, workers: int = 1):
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers!r}")
        self._executor: ThreadPoolExecutor | None = None

    def map_poles(self, fn, count: int) -> list:
        results = [None] * count

        def run_subset(p: int):
            for i in range(p, count, self.workers):
                results[i] = fn(i)

        subsets = range(1, min(self.workers, count))
        if subsets and self._executor is None:
            self._executor = ThreadPoolExecutor(self.workers - 1,
                                                thread_name_prefix="rbainv-worker")
        futures = [self._executor.submit(run_subset, p) for p in subsets]
        try:
            run_subset(0)
        finally:
            wait(futures)
        for fut in futures:
            fut.result()
        return results

    def close(self) -> None:
        """Stop and join the worker threads; a later call starts new ones."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "PoleWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
