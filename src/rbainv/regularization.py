"""Divergence-based smoothness regularization on the cell/face structure.

R(m) = 1/2 (m - m_ref)^T L (m - m_ref) with L built from the signed
cell-face incidence D (entries +-face measure) and a lumped face mass,
giving a graph Laplacian whose edge weights carry the geometry, with no
extra mesh-size heuristics.  The pure divergence form annihilates
constants, so a small measure-weighted anchor makes L positive definite
and enables the Cholesky factor R with R^T R = L used by the augmented
least-squares system.  L is banded in the grid's cell order, so R is
factored in that band: memory O(P b) for bandwidth b, not O(P^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import cholesky_banded

from .mesh import Grid, Model

__all__ = ["RegOperator", "build_reg", "reg_value_grad"]


@dataclass
class RegOperator:
    L: sp.csr_matrix            # (P, P) SPD after anchoring
    R_factor: sp.csr_matrix     # upper triangular, R^T R = L, within L's band
    anchor_eps: float


def build_reg(grid: Grid) -> RegOperator:
    """Assemble L = D diag(1 / mdiv) D^T + anchor and its banded Cholesky factor.

    D is the signed cell-face incidence (entries +-face measure).  The lumped
    weight mdiv of a face is the mean measure of its two cells (face measure
    times mean adjacent-cell thickness), which reduces to inverse-distance
    edge weights in 1-D.
    """
    P = grid.cell_count
    F = grid.face_cells.shape[0]
    if F == 0:
        warnings.warn("grid has no interior faces; regularization is anchor-only")
        L_div = sp.csr_matrix((P, P))
    else:
        rows = grid.face_cells.ravel()
        cols = np.repeat(np.arange(F), 2)
        vals = np.tile([1.0, -1.0], F) * np.repeat(grid.face_measure, 2)
        D = sp.coo_matrix((vals, (rows, cols)), shape=(P, F)).tocsr()
        mdiv = grid.cell_measure[grid.face_cells].mean(axis=1)
        L_div = (D @ sp.diags(1.0 / mdiv) @ D.T).tocsr()

    anchor_eps = 1e-8 * (L_div.diagonal().sum() / P if F else 1.0)
    L = (L_div + anchor_eps * sp.diags(grid.cell_measure)).tocsr()

    # LAPACK upper band storage: ab[u + i - j, j] = L[i, j], factored in
    # place; it is the head of ``flat``, whose tail of u^2 zeros lets every
    # row of R be read as one strided view
    upper = sp.triu(L).tocoo()
    u = int((upper.col - upper.row).max())
    flat = np.zeros((u + 1) * P + u * u)
    ab = flat[:(u + 1) * P].reshape((u + 1, P), order="F")
    ab[u + upper.row - upper.col, upper.col] = upper.data
    cholesky_banded(ab, overwrite_ab=True)
    return RegOperator(L=L, R_factor=_band_rows_csr(flat, u, P), anchor_eps=anchor_eps)


def _band_rows_csr(flat: np.ndarray, u: int, P: int) -> sp.csr_matrix:
    """CSR of the upper triangular R held in the band at the head of ``flat``,
    without R's exact zeros (above the envelope), columns ascending."""
    # R[i, i + k] = ab[u - k, i + k] = flat[u + i (u + 1) + k u], and the
    # zero tail covers i + k >= P
    step = flat.itemsize
    rows = as_strided(flat[u:], shape=(P, u + 1), strides=(step * (u + 1), step * u),
                      writeable=False)
    ints = np.arange(P + u, dtype=np.int32)                 # cols[i, k] = i + k
    cols = as_strided(ints, shape=(P, u + 1), strides=(ints.itemsize,) * 2, writeable=False)
    nonzero = rows != 0
    indptr = np.zeros(P + 1, dtype=np.int64)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((rows[nonzero], cols[nonzero], indptr), shape=(P, P))


def reg_value_grad(reg: RegOperator, model: Model):
    """Value and gradient of the smoothness functional at one model."""
    r = model.m - model.m_ref
    Lr = reg.L @ r
    return 0.5 * float(r @ Lr), Lr
