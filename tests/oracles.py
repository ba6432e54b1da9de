"""Independent references that verify the pipeline; no pipeline code calls them.

`dense_expm_oracle` gives exact transients from the generalized
eigendecomposition, `implicit_euler_reference` marches backward Euler for
the factorization-count comparison, `pole_fields` forms the full transient
fields from the pole solutions, and `dense_jacobian` stacks `jvp` columns.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import rbainv as rb


@dataclass
class EulerResult:
    fields: np.ndarray               # (K_t, N)
    factorizations: int
    solves: int


def dense_expm_oracle(problem, model, times, dense_limit: int = 2000) -> np.ndarray:
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
    M = rb.assemble_M(problem, model).toarray()
    lam, V = la.eigh(K, M)
    coef = V.T @ problem.f                       # M-orthonormality: c_k = v_k^T f
    decay = np.exp(-np.outer(times, lam))        # (K_t, N)
    return (decay * coef[None, :]) @ V.T


def implicit_euler_reference(problem, model, times,
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
    M = rb.assemble_M(problem, model).tocsc()
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


def pole_fields(approx, g) -> np.ndarray:
    """Fields u(t_j) = 2 Re sum_i alpha[i, j] g_i, shape (K_t, N)."""
    U = np.zeros((approx.channels.count, g.shape[1]))
    for i in range(approx.pole_count):
        U += 2.0 * np.real(np.outer(approx.residues[i], g[i]))
    return U


def dense_jacobian(opr) -> np.ndarray:
    """The operator's Jacobian assembled column by column through jvp."""
    P = opr.shape[1]
    e = np.zeros(P)
    cols = []
    for c in range(P):
        e[c] = 1.0
        cols.append(opr.jvp(e))
        e[c] = 0.0
    return np.column_stack(cols)


def dM_contract_reference(problem, model, g):
    """The mass-derivative tensor contracted with ``g``, assembled as COO
    from the element-local blocks: column c holds exp(m_c) * (M_c g) on the
    cell-c DOFs, shape (N, P) in CSC."""
    g = np.asarray(g)
    dofs = problem.cell_dofs
    gl = np.where(dofs >= 0, g[np.maximum(dofs, 0)], 0.0)
    local = np.einsum("pij,pj->pi", problem.mass_local, gl) * np.exp(model.m)[:, None]
    P, k = dofs.shape
    cols = np.repeat(np.arange(P), k)
    rows = dofs.ravel()
    keep = rows >= 0
    return sp.coo_matrix((local.ravel()[keep], (rows[keep], cols[keep])),
                         shape=(problem.dof_count, P)).tocsc()
