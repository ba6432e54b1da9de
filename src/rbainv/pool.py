"""Deterministic worker pool for independent indexed tasks.

Used for the per-pole work of the shifted solves and for the per-channel
QR factorizations of the shared-pole fit.  Depends on the standard
library only, so every module can import it.
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
    worker 0.  Workers 1..W-1 are threads of one executor, created on first
    use and kept until `close()` (or garbage collection), so a call starts
    no threads once the pool is warm and never more than it has tasks.
    ``fn`` must not call `map_poles` on the same pool.
    """

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))
        self._executor: ThreadPoolExecutor | None = None
        self._finalizer = None

    def _submit(self, fn, *args):
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers - 1,
                                                thread_name_prefix="rbainv-worker")
            self._finalizer = weakref.finalize(self, self._executor.shutdown, wait=False)
        return self._executor.submit(fn, *args)

    def map_poles(self, fn, count: int) -> list:
        results = [None] * count

        def run_subset(p: int):
            for i in range(p, count, self.workers):
                results[i] = fn(i)

        futures = [self._submit(run_subset, p) for p in range(1, min(self.workers, count))]
        try:
            run_subset(0)
        finally:
            wait(futures)
        for fut in futures:
            fut.result()
        return results

    def close(self) -> None:
        """Stop and join the worker threads; a later call starts new ones."""
        executor, self._executor = self._executor, None
        if executor is not None:
            self._finalizer.detach()
            executor.shutdown(wait=True)

    def __enter__(self) -> "PoleWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
