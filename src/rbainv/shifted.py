"""Factorization cache and pole-parallel solves of A_i(m) = K - xi_i * M(m).

Every pole gets its own complex direct factorization.  A cache holds one
factor set under one key (problem, model version, poles), which forward
responses, Jacobian actions and adjoint actions all reuse; one cache may
serve several problems and approximants.  Each cache owns the pole workers
that make, use and free its factors; workers own disjoint pole subsets and
never share mutable state, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Model, Problem, assemble_M
from .pool import PoleWorkerPool
from .rba import RationalApproximant

__all__ = [
    "CacheMissError",
    "SolveError",
    "ShiftedFactorCache",
    "factorize_all_poles",
    "solve_all_poles",
]


class CacheMissError(KeyError):
    """No current factorization for the requested pole."""


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
    """One factorization of A_i(m) per pole, all made for one `factor_key`.

    ``key`` is None while `factorize_all_poles` remakes the factors and
    after `close`, and no factor is current then.  The cache owns
    ``workers`` pole workers (`pool`) that every function solving with it
    runs on.  SuperLU frees a factor only on the thread that made it, so
    `factorize` frees a pole's stale factor on the pole's worker before
    making the next, and `close` drops every factor on its worker before
    stopping the workers; a one-worker cache needs no `close`.  Counter
    updates are locked so pole workers can run concurrently.
    """

    def __init__(self, workers: int = 1):
        self.factors: dict[int, _Factor] = {}
        self.key: tuple | None = None
        self.counters = CacheCounters()
        self.pool = PoleWorkerPool(workers)
        self._lock = threading.Lock()

    def holds(self, key: tuple) -> bool:
        """Whether the current factors were made for ``key``, a `factor_key`."""
        return self.key is not None and self.key[0] is key[0] and self.key[1:] == key[1:]

    def has(self, i: int, tag: str | None = None) -> bool:
        """Whether pole i has a current factor, at model version ``tag`` if given."""
        return self.key is not None and i in self.factors and tag in (None, self.key[1])

    def factorize(self, i: int, A: sp.spmatrix) -> None:
        self.factors.pop(i, None)      # free the stale factor before making the next
        factor = _Factor(A)
        with self._lock:
            self.factors[i] = factor
            self.counters.factorizations += 1

    def close(self) -> None:
        """Drop every factor on the worker that made it, then stop the
        workers; a later call starts new ones."""
        self.key = None
        factors = self.factors

        def drop(i: int) -> None:      # returns nothing: the factor must not reach this thread
            factors.pop(i, None)

        if factors:
            self.pool.map_poles(drop, max(factors) + 1)
        self.pool.close()

    def __enter__(self) -> "ShiftedFactorCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def solve(self, i: int, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        if not self.has(i):
            raise CacheMissError(f"no current factorization for pole {i}")
        out = self.factors[i].solve(np.asarray(rhs, dtype=complex), trans=trans)
        with self._lock:
            self.counters.solves += 1
        return out


def factor_key(problem: Problem, model: Model, approx: RationalApproximant) -> tuple:
    """The problem by identity, its model version and the poles by value."""
    return problem, model.version_tag(), approx.poles.tobytes()


def factorize_all_poles(problem: Problem, model: Model, approx: RationalApproximant,
                        cache: ShiftedFactorCache) -> None:
    """Factorize every A_i = K - xi_i M(m) unless the cache holds them; each
    stale factor, poles past ``approx``'s too, is freed on its maker."""
    key = factor_key(problem, model, approx)
    if cache.holds(key):
        return
    cache.key = None
    M = assemble_M(problem, model).astype(complex).tocsc()
    K = problem.K.astype(complex).tocsc()

    def work(i: int):
        if i < approx.pole_count:
            cache.factorize(i, K - approx.poles[i] * M)
        else:
            cache.factors.pop(i, None)

    cache.pool.map_poles(work, max([approx.pole_count - 1, *cache.factors]) + 1)
    cache.key = key


def solve_all_poles(problem: Problem, model: Model, approx: RationalApproximant,
                    rhs: np.ndarray, cache: ShiftedFactorCache) -> np.ndarray:
    """Solve A_i g_i = rhs for every pole; returns (m, N) complex array.

    Factorizes on demand, reusing the cache's factors when it holds this
    problem, model version and poles.
    """
    factorize_all_poles(problem, model, approx, cache)
    return np.array(cache.pool.map_poles(lambda i: cache.solve(i, rhs), approx.pole_count))
