"""Matrix-free Jacobian actions built from the cached shifted factorizations.

For the data map d(m) with per-channel blocks d_j = Q u(t_j),

    J v     = 2 Re sum_i xi_i (alpha[i, :] outer Q A_i^{-1} [dM(g_i) v])
    J^T w   = 2 Re sum_i xi_i dM(g_i)^T A_i^{-1} Q^T (sum_j alpha[i, j] w_j)

Both actions cost exactly one solve per pole: the adjoint collapses all
channels into a single right-hand side per pole before solving, and the
transpose solve reuses the forward factorization because every shifted
matrix is complex symmetric.  Plain transposes (no conjugation) on the
complex factors are what make the real adjoint identity hold to rounding;
this is checked by `adjoint_test` rather than assumed.  The per-pole
terms are computed in the factor cache's pole workers, each on the poles
`ShiftedFactorCache.owned` gives it, and `ShiftedFactorCache.gather`
returns them in pole order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

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

    Holds the pole solutions g_i.  Each cache worker holds, for the poles
    i it owns, one block-diagonal CSR B_p = blockdiag(dM(g_i)^T) with its
    CSC transpose, built in the worker (`_load_blocks`) for one operator
    at a time.  A Jacobian action sends each worker one vector and runs,
    there, one product with B_p^T or B_p, that worker's solves and one
    product with Q; the cache gathers the per-pole rows in pole order and
    they are summed on the calling process in that order, so the output
    is bit-identical for any worker count.  Instances are read-only once
    built; building one, and each action, first refactorizes at its model
    if the cache holds another `factor_key`, and rebuilds the blocks if
    the workers hold another operator's.
    """

    def __init__(self, problem: Problem, model: Model, approx: RationalApproximant,
                 cache: ShiftedFactorCache, pole_solutions: np.ndarray | None = None):
        self.problem = problem
        self.model = model
        self.approx = approx
        self.cache = cache
        self.key = factor_key(problem, model, approx.poles)
        if pole_solutions is None:
            pole_solutions = solve_all_poles(problem, model, approx, problem.f, cache)
        self.g = pole_solutions
        self.shape = (problem.receiver_count * approx.channels.count,
                      problem.grid.cell_count)
        self._token = next(_tokens)
        self._load()

    def _load(self) -> None:
        """Make the cache's factors and its workers' blocks this operator's."""
        cache = self.cache
        if not cache.holds(self.key):
            factorize_all_poles(self.problem, self.model, self.approx, cache)
        if getattr(cache.operator, "token", None) != self._token:
            cache.run(_load_blocks, self._token, self.model, self.g, self.approx.poles,
                      self.approx.residues)

    def jvp(self, v: np.ndarray) -> np.ndarray:
        """Directional derivative of the data; one solve per pole."""
        self._load()
        return pole_sum(self.cache.gather(_jvp, np.asarray(v, dtype=float)), self.shape[0])

    def vjp(self, w: np.ndarray) -> np.ndarray:
        """Adjoint action; channels aggregate into one transpose solve per pole."""
        self._load()
        W = np.asarray(w, dtype=float).reshape(self.approx.channels.count, -1)
        return pole_sum(self.cache.gather(_vjp, W), self.shape[1])


_tokens = itertools.count()


class _Blocks(NamedTuple):
    """One process's part of one Jacobian operator."""
    token: int
    B: sp.csr_matrix        # blockdiag(dM(g_i)^T) over the poles this process owns
    B_T: sp.csc_matrix      # its transpose, a view of the same arrays
    Qc: sp.csr_matrix       # the receiver matrix Q as complex, and Q^T
    Qt: sp.csc_matrix
    xi: np.ndarray          # all poles and residues of the approximant
    alpha: np.ndarray


def _load_blocks(cache: ShiftedFactorCache, token: int, model: Model, g: np.ndarray,
                 xi: np.ndarray, alpha: np.ndarray) -> None:
    cache.operator = None      # free the last operator's block before building this one
    problem = cache.problem
    B = dM_transpose_blocks(problem, model, g[cache.owned(len(xi))])
    cache.operator = _Blocks(token, B, B.T, problem.Q.astype(complex), problem.Q.T, xi, alpha)


def _jvp(cache: ShiftedFactorCache, v: np.ndarray) -> np.ndarray:
    """Re(xi_i alpha_i outer Q A_i^{-1} dM(g_i) v) for this process's poles,
    one row each (`pole_sum` doubles it)."""
    ops = cache.operator
    poles = cache.owned(len(ops.xi))
    N = ops.Qc.shape[1]
    rhs = ops.B_T @ np.tile(v, len(poles))                # dM(g_i) v, stacked
    H = np.empty((N, len(poles)), dtype=complex)
    for k, i in enumerate(poles):
        H[:, k] = cache.solve(i, rhs[k * N:(k + 1) * N])
    q = (ops.Qc @ H).T
    out = np.empty((len(poles), ops.alpha.shape[1] * q.shape[1]))
    for k, i in enumerate(poles):
        out[k] = np.real(ops.xi[i] * np.outer(ops.alpha[i], q[k]).ravel())
    return out


def _vjp(cache: ShiftedFactorCache, W: np.ndarray) -> np.ndarray:
    """Re(xi_i dM(g_i)^T A_i^{-T} Q^T W^T alpha_i) for this process's poles,
    one row each (`pole_sum` doubles it)."""
    ops = cache.operator
    poles = cache.owned(len(ops.xi))
    N = ops.Qc.shape[1]
    Qt_w = (ops.Qt @ W.T).astype(complex)              # (N, K_t)
    Z = np.empty(len(poles) * N, dtype=complex)
    for k, i in enumerate(poles):
        y = Qt_w @ ops.alpha[i]                           # sum_j alpha[i, j] Q^T w_j
        Z[k * N:(k + 1) * N] = cache.solve(i, y, trans="T")
    parts = (ops.B @ Z).reshape(len(poles), -1)
    out = np.empty(parts.shape)
    for k, i in enumerate(poles):
        out[k] = np.real(ops.xi[i] * parts[k])
    return out


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
