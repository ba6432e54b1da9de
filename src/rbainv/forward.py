"""Transient responses via the pole expansion.

The data combine the per-pole solutions g_i = A_i^{-1} f into
d_j = Q u(t_j) = 2 Re sum_i alpha[i, j] Q g_i, accumulated in ascending
pole order so the result is reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .mesh import Model, Problem
from .rba import RationalApproximant
from .shifted import ShiftedFactorCache, solve_all_poles

__all__ = [
    "forward_response",
    "pole_sum",
    "response_from_pole_solutions",
]


def pole_sum(terms, shape) -> np.ndarray:
    """2 Re of the sum of ``terms``, arrays of ``shape`` given in ascending
    pole order, added in that order onto zeros (so -0.0 sums to +0.0).  A
    term may be complex or already its real part, which has the same bits."""
    out = np.zeros(shape)
    for term in terms:
        out += 2.0 * np.real(term)
    return out


def response_from_pole_solutions(problem: Problem, approx: RationalApproximant,
                                 g: np.ndarray) -> np.ndarray:
    """Combine pole solutions into the data vector, stacked channel-major."""
    return pole_sum((np.outer(approx.residues[i], problem.Q @ g[i])
                     for i in range(approx.pole_count)),
                    (approx.channels.count, problem.receiver_count)).ravel()


def forward_response(problem: Problem, model: Model, approx: RationalApproximant,
                     cache: ShiftedFactorCache) -> np.ndarray:
    """Predicted data d_j = Q u(t_j) at every channel of the approximant,
    shape (M_r * K_t,) stacked channel-major."""
    g = solve_all_poles(problem, model, approx, problem.f, cache)
    return response_from_pole_solutions(problem, approx, g)
