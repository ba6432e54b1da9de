"""Factorization cache and pole-parallel solves of A_i(m) = K - xi_i * M(m).

Every pole gets its own complex direct factorization, cached per model
version so forward responses, Jacobian actions and adjoint actions all
reuse the same factors.  Workers own disjoint pole subsets and never share
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
    """Factorization failed or a solve did not meet the residual bound."""


class _Factor:
    """Sparse direct (SuperLU) complex factorization of one shifted matrix."""

    def __init__(self, A: sp.spmatrix):
        self.A = A.tocsr()
        try:
            self._lu = spla.splu(A.tocsc())
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
    """Keyed store of factorizations of A_i(m), one live model version.

    Entries are keyed by (pole index, model version tag); activating a new
    tag invalidates every entry of older tags.  Counter updates are locked
    so pole workers can run concurrently.
    """

    def __init__(self):
        self.entries: dict[tuple[int, str], _Factor] = {}
        self.counters = CacheCounters()
        self.current_tag: str | None = None
        self._lock = threading.Lock()

    def activate(self, tag: str) -> None:
        if tag != self.current_tag:
            self.entries = {k: v for k, v in self.entries.items() if k[1] == tag}
            self.current_tag = tag

    def has(self, i: int, tag: str | None = None) -> bool:
        return (i, tag or self.current_tag) in self.entries

    def factorize(self, i: int, A: sp.spmatrix) -> None:
        key = (i, self.current_tag)
        if key in self.entries:
            return
        factor = _Factor(A)
        with self._lock:
            self.entries[key] = factor
            self.counters.factorizations += 1

    def solve(self, i: int, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        key = (i, self.current_tag)
        try:
            factor = self.entries[key]
        except KeyError:
            raise CacheMissError(f"no factorization for pole {i}, model {self.current_tag}")
        out = factor.solve(np.asarray(rhs, dtype=complex), trans=trans)
        with self._lock:
            self.counters.solves += 1
        return out

    def matrix(self, i: int) -> sp.spmatrix:
        key = (i, self.current_tag)
        if key not in self.entries:
            raise CacheMissError(f"no factorization for pole {i}, model {self.current_tag}")
        return self.entries[key].A


def factorize_all_poles(problem: Problem, model: Model, approx: RationalApproximant,
                        cache: ShiftedFactorCache, pool: PoleWorkerPool | None = None) -> None:
    """Ensure every A_i = K - xi_i M(m) is factorized for the current model."""
    pool = pool or PoleWorkerPool(1)
    cache.activate(model.version_tag())
    missing = [i for i in range(approx.pole_count) if not cache.has(i)]
    if not missing:
        return
    M = assemble_M(problem, model).astype(complex).tocsc()
    K = problem.K.astype(complex).tocsc()

    def work(j: int):
        i = missing[j]
        cache.factorize(i, K - approx.poles[i] * M)

    pool.map_poles(work, len(missing))


def solve_all_poles(problem: Problem, model: Model, approx: RationalApproximant,
                    rhs: np.ndarray, cache: ShiftedFactorCache,
                    pool: PoleWorkerPool | None = None,
                    check_residuals: bool = False) -> np.ndarray:
    """Solve A_i g_i = rhs for every pole; returns (m, N) complex array.

    Factorizes on demand, reusing any factors already cached for this model
    version.  With ``check_residuals`` each solve is verified against
    |A g - rhs| / |rhs| <= 1e-8.
    """
    pool = pool or PoleWorkerPool(1)
    factorize_all_poles(problem, model, approx, cache, pool)
    rhs = np.asarray(rhs)
    rhs_norm = np.linalg.norm(rhs)

    def work(i: int) -> np.ndarray:
        g = cache.solve(i, rhs)
        if check_residuals and rhs_norm > 0:
            res = np.linalg.norm(cache.matrix(i) @ g - rhs) / rhs_norm
            if res > 1e-8:
                raise SolveError(f"pole {i}: relative residual {res:.3e} exceeds 1e-8")
        return g

    return np.array(pool.map_poles(work, approx.pole_count))
