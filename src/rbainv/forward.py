"""Transient responses via the pole expansion, plus two reference integrators.

The production path combines the per-pole solutions g_i = A_i^{-1} f into
u(t_j) = 2 Re sum_i alpha[i, j] g_i, accumulated in ascending pole order so
the result is reproducible bit-for-bit.  The dense eigendecomposition
oracle and the implicit-Euler marcher are independent references used for
verification and for the factorization-count comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .mesh import Model, Problem, assemble_M
from .rba import RationalApproximant
from .shifted import ShiftedFactorCache, solve_all_poles

__all__ = [
    "ForwardResult",
    "EulerResult",
    "forward_response",
    "response_from_pole_solutions",
    "dense_expm_oracle",
    "implicit_euler_reference",
]


@dataclass
class ForwardResult:
    data: np.ndarray                 # (M_r * K_t,) stacked channel-major
    fields: np.ndarray | None        # (K_t, N) when retained


@dataclass
class EulerResult:
    fields: np.ndarray               # (K_t, N)
    factorizations: int
    solves: int


def response_from_pole_solutions(problem: Problem, approx: RationalApproximant,
                                 g: np.ndarray, retain_fields: bool = False):
    """Combine pole solutions into data (and optionally fields).

    When fields are retained the data vector is computed from them, so
    ``data`` reshaped per channel equals Q @ fields[j] exactly.
    """
    res = approx.residues                     # (m, K_t)
    K_t = approx.channels.count
    if retain_fields:
        U = np.zeros((K_t, problem.dof_count))
        for i in range(approx.pole_count):
            U += 2.0 * np.real(np.outer(res[i], g[i]))
        data = np.concatenate([problem.Q @ U[j] for j in range(K_t)])
        return data, U
    D = np.zeros((K_t, problem.receiver_count))
    for i in range(approx.pole_count):
        D += 2.0 * np.real(np.outer(res[i], problem.Q @ g[i]))
    return D.ravel(), None


def forward_response(problem: Problem, model: Model, approx: RationalApproximant,
                     cache: ShiftedFactorCache, retain_fields: bool = False) -> ForwardResult:
    """Predicted data d_j = Q u(t_j) at every channel of the approximant."""
    g = solve_all_poles(problem, model, approx, problem.f, cache)
    data, fields = response_from_pole_solutions(problem, approx, g, retain_fields)
    return ForwardResult(data=data, fields=fields)


def dense_expm_oracle(problem: Problem, model: Model, times,
                      dense_limit: int = 2000) -> np.ndarray:
    """Exact transients through the generalized symmetric eigendecomposition.

    Solves K v = lambda M v with M-orthonormal eigenvectors, then
    u(t) = sum_k exp(-lambda_k t) (v_k^T f) v_k.  Intended as an oracle on
    small problems; refuses N above ``dense_limit``.
    """
    N = problem.dof_count
    if N > dense_limit:
        raise ValueError(f"dense oracle limited to N <= {dense_limit}, got {N}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    K = problem.K.toarray()
    M = assemble_M(problem, model).toarray()
    lam, V = la.eigh(K, M)
    coef = V.T @ problem.f                       # M-orthonormality: c_k = v_k^T f
    decay = np.exp(-np.outer(times, lam))        # (K_t, N)
    return (decay * coef[None, :]) @ V.T


def implicit_euler_reference(problem: Problem, model: Model, times,
                             steps_per_decade: int = 10) -> EulerResult:
    """March (M + dt K) u^{n+1} = M u^n from u(0) = M^{-1} f.

    Each gate interval gets one constant step size (one real factorization,
    ``steps_per_decade`` backward-Euler steps), so the factorization count
    equals the number of output gates.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ValueError("times must be positive and increasing")
    n_sub = max(1, int(steps_per_decade))
    M = assemble_M(problem, model).tocsc()
    K = problem.K.tocsc()

    u = spla.splu(M).solve(problem.f)
    factorizations = 0
    solves = 0
    fields = np.zeros((times.size, problem.dof_count))
    t_prev = 0.0
    for j, t in enumerate(times):
        dt = (t - t_prev) / n_sub
        lu = spla.splu((M + dt * K).tocsc())
        factorizations += 1
        for _ in range(n_sub):
            u = lu.solve(M @ u)
            solves += 1
        fields[j] = u
        t_prev = t
    return EulerResult(fields=fields, factorizations=factorizations, solves=solves)
