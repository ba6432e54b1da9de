"""Factorization cache and pole-parallel solves of A_i(m) = K - xi_i * M(m).

Every pole gets its own complex direct factorization, cached per model
version so forward responses, Jacobian actions and adjoint actions all
reuse the same factors.  Each cache owns the pole workers that make, use
and free its factors; workers own disjoint pole subsets and never share
mutable state, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Model, Problem, assemble_M
from .pool import PoleWorkerPool, default_worker_count
from .rba import RationalApproximant

__all__ = [
    "CacheMissError",
    "SolveError",
    "ShiftedFactorCache",
    "PoleWorkerPool",
    "default_worker_count",
    "factorize_all_poles",
    "solve_all_poles",
]


class CacheMissError(KeyError):
    """No factorization cached for the requested pole and model version."""


class SolveError(RuntimeError):
    """Factorization of a shifted matrix failed."""


class _Factor:
    """Sparse direct (SuperLU) complex factorization of one shifted matrix."""

    def __init__(self, A: sp.spmatrix):
        # SuperLU copies A into its own factors and keeps no reference to it,
        # so the caller's K - xi M is freed once the factorization returns
        try:
            self._lu = spla.splu(A)
        except Exception as exc:  # noqa: BLE001 - surface SuperLU failures uniformly
            raise SolveError(f"factorization of shifted matrix failed: {exc}") from exc

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        return self._lu.solve(rhs, trans=trans)


@dataclass
class CacheCounters:
    factorizations: int = 0
    solves: int = 0

    def snapshot(self) -> dict:
        return {"factorizations": self.factorizations, "solves": self.solves}


class ShiftedFactorCache:
    """One factorization of A_i(m) per pole, tagged with its model version.

    The cache owns ``workers`` pole workers (`pool`), and every function
    that solves with it runs on them.  SuperLU frees a factor only on the
    thread that made it; a factor whose last reference goes on another
    thread is never freed.  So every factor is dropped on the worker that
    owns its pole: `activate` only moves the current tag, `factorize` frees
    a pole's stale factor on that pole's worker before making the next, and
    `close` drops every factor on its worker before stopping the workers.
    A one-worker cache runs on the calling thread and needs no `close`.
    Counter updates are locked so pole workers can run concurrently.
    """

    def __init__(self, workers: int = 1):
        self.entries: dict[int, tuple[str | None, _Factor]] = {}
        self.counters = CacheCounters()
        self.current_tag: str | None = None
        self.pool = PoleWorkerPool(workers)
        self._lock = threading.Lock()

    def activate(self, tag: str) -> None:
        self.current_tag = tag

    def has(self, i: int, tag: str | None = None) -> bool:
        entry = self.entries.get(i)
        return entry is not None and entry[0] == (tag or self.current_tag)

    def factorize(self, i: int, A: sp.spmatrix) -> None:
        if self.has(i):
            return
        self.entries.pop(i, None)      # free the stale factor before making the next
        factor = _Factor(A)
        with self._lock:
            self.entries[i] = (self.current_tag, factor)
            self.counters.factorizations += 1

    def close(self) -> None:
        """Drop every factor on the worker that made it, then stop the
        workers; a later call starts new ones."""
        entries = self.entries

        def drop(i: int) -> None:      # returns nothing: the factor must not reach this thread
            entries.pop(i, None)

        if entries:
            self.pool.map_poles(drop, max(entries) + 1)
        self.pool.close()

    def __enter__(self) -> "ShiftedFactorCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _factor(self, i: int) -> _Factor:
        if not self.has(i):
            raise CacheMissError(f"no factorization for pole {i}, model {self.current_tag}")
        return self.entries[i][1]

    def solve(self, i: int, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        out = self._factor(i).solve(np.asarray(rhs, dtype=complex), trans=trans)
        with self._lock:
            self.counters.solves += 1
        return out


def factorize_all_poles(problem: Problem, model: Model, approx: RationalApproximant,
                        cache: ShiftedFactorCache) -> None:
    """Ensure every A_i = K - xi_i M(m) is factorized for the current model.

    Maps over every pole, not only the missing ones, so that pole i is
    (re)factorized on the worker that owns it and made its stale factor.
    """
    cache.activate(model.version_tag())
    if all(cache.has(i) for i in range(approx.pole_count)):
        return
    M = assemble_M(problem, model).astype(complex).tocsc()
    K = problem.K.astype(complex).tocsc()

    def work(i: int):
        if not cache.has(i):
            cache.factorize(i, K - approx.poles[i] * M)

    cache.pool.map_poles(work, approx.pole_count)


def solve_all_poles(problem: Problem, model: Model, approx: RationalApproximant,
                    rhs: np.ndarray, cache: ShiftedFactorCache) -> np.ndarray:
    """Solve A_i g_i = rhs for every pole; returns (m, N) complex array.

    Factorizes on demand, reusing any factors already cached for this model
    version.
    """
    factorize_all_poles(problem, model, approx, cache)
    return np.array(cache.pool.map_poles(lambda i: cache.solve(i, rhs), approx.pole_count))
