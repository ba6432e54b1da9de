"""Matrix-free Jacobian actions built from the cached shifted factorizations.

For the data map d(m) with per-channel blocks d_j = Q u(t_j),

    J v     = 2 Re sum_i xi_i (alpha[i, :] outer Q A_i^{-1} [dM(g_i) v])
    J^T w   = 2 Re sum_i xi_i dM(g_i)^T A_i^{-1} Q^T (sum_j alpha[i, j] w_j)

Both actions cost exactly one solve per pole: the adjoint collapses all
channels into a single right-hand side per pole before solving, and the
transpose solve reuses the forward factorization because every shifted
matrix is complex symmetric.  Plain transposes (no conjugation) on the
complex factors are what make the real adjoint identity hold to rounding;
this is checked by `adjoint_test` rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import forward_response, pole_sum, response_from_pole_solutions
from .mesh import Model, Problem, dM_transpose_blocks
from .rba import RationalApproximant
from .shifted import ShiftedFactorCache, factor_key, factorize_all_poles, solve_all_poles

__all__ = [
    "JacobianOperator",
    "TaylorReport",
    "taylor_test",
    "adjoint_test",
]


class JacobianOperator:
    """Jacobian of the data map at one model, applied matrix-free.

    Holds the pole solutions g_i and, per cache worker p, one block-diagonal
    CSR B_p = blockdiag(dM(g_i)^T) over the poles i = p mod W that p owns.
    A Jacobian action maps one task per worker: one product with B_p (or its
    CSC transpose, kept from construction), that worker's solves, and one
    product with Q.  The per-pole terms are summed on the calling thread in
    pole order, so the output is bit-identical for any worker count.
    Instances are read-only once built; an action first refactorizes at
    their model if the cache holds another `factor_key`.
    """

    def __init__(self, problem: Problem, model: Model, approx: RationalApproximant,
                 cache: ShiftedFactorCache, pole_solutions: np.ndarray | None = None):
        self.problem = problem
        self.model = model
        self.approx = approx
        self.cache = cache
        self.key = factor_key(problem, model, approx)
        if pole_solutions is None:
            pole_solutions = solve_all_poles(problem, model, approx, problem.f, cache)
        self.g = pole_solutions
        self.shape = (problem.receiver_count * approx.channels.count,
                      problem.grid.cell_count)
        self._Qc = problem.Q.astype(complex)
        self._Qt = problem.Q.T
        stride = cache.pool.workers
        self._blocks = cache.pool.map_poles(
            lambda p: dM_transpose_blocks(problem, model, self.g[p::stride]),
            min(stride, approx.pole_count))
        self._blocks_T = [B.T for B in self._blocks]      # CSC views, no copies

    def _map_workers(self, work) -> list:
        """Run ``work(p, poles)``, one row per pole, once per worker on
        current factors; returns the rows in pole order."""
        if not self.cache.holds(self.key):
            factorize_all_poles(self.problem, self.model, self.approx, self.cache)
        pool = self.cache.pool
        stride = pool.workers
        m = self.approx.pole_count
        rows = pool.map_poles(lambda p: work(p, range(p, m, stride)), len(self._blocks))
        return [rows[i % stride][i // stride] for i in range(m)]

    def jvp(self, v: np.ndarray) -> np.ndarray:
        """Directional derivative of the data; one solve per pole."""
        v = np.asarray(v, dtype=float)
        approx = self.approx
        N = self.problem.dof_count

        def work(p: int, poles: range):
            rhs = self._blocks_T[p] @ np.tile(v, len(poles))      # dM(g_i) v, stacked
            H = np.empty((N, len(poles)), dtype=complex)
            for k, i in enumerate(poles):
                H[:, k] = self.cache.solve(i, rhs[k * N:(k + 1) * N])
            return (self._Qc @ H).T

        q = self._map_workers(work)
        return pole_sum((approx.poles[i] * np.outer(approx.residues[i], q[i]).ravel()
                         for i in range(approx.pole_count)), self.shape[0])

    def vjp(self, w: np.ndarray) -> np.ndarray:
        """Adjoint action; channels aggregate into one transpose solve per pole."""
        W = np.asarray(w, dtype=float).reshape(self.approx.channels.count, -1)
        Qt_w = (self._Qt @ W.T).astype(complex)  # (N, K_t)
        approx = self.approx
        N = self.problem.dof_count

        def work(p: int, poles: range):
            Z = np.empty(len(poles) * N, dtype=complex)
            for k, i in enumerate(poles):
                y = Qt_w @ approx.residues[i]             # sum_j alpha[i, j] Q^T w_j
                Z[k * N:(k + 1) * N] = self.cache.solve(i, y, trans="T")
            return (self._blocks[p] @ Z).reshape(len(poles), -1)

        parts = self._map_workers(work)
        return pole_sum((approx.poles[i] * parts[i] for i in range(approx.pole_count)),
                        self.shape[1])


@dataclass
class TaylorReport:
    h_values: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    slope0: float
    slope1: float


def _loglog_slope(h: np.ndarray, e: np.ndarray, mask: np.ndarray) -> float:
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log10(h[mask]), np.log10(e[mask]), 1)[0])


def taylor_test(opr: JacobianOperator, direction: np.ndarray, h_values) -> TaylorReport:
    """Remainder decay of the linearization along one direction.

    e0(h) = |d(m + h dm) - d(m)| should shrink like h, and the first-order
    remainder e1(h) like h^2; the report carries log-log regression slopes
    over the points above the rounding floor.  The trials factorize their
    models in ``opr``'s cache, so ``opr``'s next action refactorizes.
    """
    h_values = np.asarray(sorted(h_values, reverse=True), dtype=float)
    if h_values.size < 4 or h_values[0] / h_values[-1] < 100.0:
        raise ValueError("need at least 4 step sizes spanning at least 2 decades")
    direction = np.asarray(direction, dtype=float)
    problem, approx = opr.problem, opr.approx

    d0 = response_from_pole_solutions(problem, approx, opr.g)
    jd = opr.jvp(direction)
    e0 = np.zeros_like(h_values)
    e1 = np.zeros_like(h_values)
    for k, h in enumerate(h_values):
        d = forward_response(problem, opr.model.perturbed(direction, h), approx, opr.cache)
        e0[k] = np.linalg.norm(d - d0)
        e1[k] = np.linalg.norm(d - d0 - h * jd)

    floor = 100 * np.finfo(float).eps * max(np.linalg.norm(d0), 1e-300)
    used = (e0 > floor) & (e1 > floor)
    return TaylorReport(h_values, e0, e1,
                        slope0=_loglog_slope(h_values, e0, used),
                        slope1=_loglog_slope(h_values, e1, used))


def adjoint_test(opr: JacobianOperator, trials: int = 20, seed: int = 0) -> float:
    """Max relative mismatch of <J v, w> vs <v, J^T w> over seeded trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal(opr.shape[1])
        w = rng.standard_normal(opr.shape[0])
        lhs = float(opr.jvp(v) @ w)
        rhs = float(v @ opr.vjp(w))
        mismatch = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        worst = max(worst, mismatch)
    return worst
