import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

import rbainv as rb
from rbainv.mesh import _box_grid


@pytest.fixture(scope="module")
def reg_2d(small_problem):
    return rb.build_reg(small_problem.grid)


@pytest.fixture(scope="module")
def L_div_2d(reg_2d, small_problem):
    # the unanchored divergence form: L less its measure-weighted anchor
    return (reg_2d.L - reg_2d.anchor_eps * sp.diags(small_problem.grid.cell_measure)).tocsr()


def test_1d_three_equal_cells_hand_computed():
    spec = rb.ProblemSpec(dimension=1, extent=(0.0, 3.0), n_cells=(3,),
                          receivers=np.array([[1.5]]),
                          source=rb.SourceSpec(kind="delta", position=(1.5,)))
    prob = rb.build_problem(spec)
    reg = rb.build_reg(prob.grid)
    w = 1.0
    # D: face measure 1 per interior interface; lumped weight = mean cell width
    D_hand = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    L_hand = D_hand @ np.diag([1 / w, 1 / w]) @ D_hand.T
    L_div = (reg.L - reg.anchor_eps * sp.diags(prob.grid.cell_measure)).toarray()
    np.testing.assert_allclose(L_div, L_hand, atol=1e-14)
    # graph Laplacian pattern tridiag(-1, 2, -1) on the interior row
    assert L_div[1, 1] == pytest.approx(2.0 / w)
    assert L_div[1, 0] == pytest.approx(-1.0 / w)


def test_constant_model_annihilated(reg_2d, L_div_2d, small_problem):
    P = small_problem.grid.cell_count
    ones = np.ones(P)
    np.testing.assert_allclose(L_div_2d @ ones, 0.0, atol=1e-10)
    # anchored value stays at the anchor scale
    model = rb.Model(np.full(P, 3.0), np.zeros(P))
    value, _ = rb.reg_value_grad(reg_2d, model)
    anchor_bound = 0.5 * 9.0 * reg_2d.anchor_eps * small_problem.grid.cell_measure.sum()
    assert 0.0 <= value <= anchor_bound * (1 + 1e-6)


def test_2d_sparsity_matches_cell_adjacency(L_div_2d, small_problem):
    grid = small_problem.grid
    adj = set()
    for a, b in grid.face_cells:
        adj.add((int(a), int(b)))
        adj.add((int(b), int(a)))
    L = L_div_2d.tocoo()
    for r, c, v in zip(L.row, L.col, L.data):
        if r != c and abs(v) > 1e-14:
            assert (int(r), int(c)) in adj


def test_row_sums_zero_and_offdiag_nonpositive(L_div_2d):
    L = L_div_2d.toarray()
    np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-10)
    off = L - np.diag(np.diag(L))
    assert np.all(off <= 1e-14)


def test_anchored_spd(reg_2d):
    lam = la.eigvalsh(reg_2d.L.toarray())
    assert lam[0] > 0


def test_cholesky_identity(reg_2d):
    L = reg_2d.L.toarray()
    R = reg_2d.R_factor.toarray()
    err = np.linalg.norm(R.T @ R - L, "fro") / np.linalg.norm(L, "fro")
    assert err <= 1e-12
    assert np.allclose(R, np.triu(R))


def test_banded_factor_past_the_dense_limit():
    # P = 20,000: a dense factor would take 3.0 GiB; the band takes P (b + 1) doubles
    grid = _box_grid(np.array([[0.0, 1.0], [0.0, 1.0]]), [100, 100], "dirichlet")
    P = grid.cell_count
    tracemalloc.start()
    try:
        reg = rb.build_reg(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < P * P * 8 / 10
    L, R = reg.L.tocoo(), reg.R_factor.tocoo()
    assert np.all(R.col >= R.row)
    assert (R.col - R.row).max() <= np.abs(L.col - L.row).max()
    rng = np.random.default_rng(3)
    for _ in range(3):
        v = rng.standard_normal(P)
        Lv = reg.L @ v
        assert np.linalg.norm(reg.R_factor.T @ (reg.R_factor @ v) - Lv) <= 1e-12 * np.linalg.norm(Lv)


def dia_band_factor(L):
    """R from the banded Cholesky of L through `sp.dia_matrix(...).tocsr()`;
    oracle for the CSR `build_reg` builds straight from the band."""
    upper = sp.triu(L).tocoo()
    u = int((upper.col - upper.row).max())
    ab = np.zeros((u + 1, L.shape[0]), order="F")
    ab[u + upper.row - upper.col, upper.col] = upper.data
    cb = la.cholesky_banded(ab)
    return sp.dia_matrix((cb, np.arange(u, -1, -1)), shape=L.shape).tocsr()


@pytest.mark.parametrize("cells", [16, 48, 100])
def test_band_csr_equals_the_dia_conversion(cells):
    grid = _box_grid(np.array([[-60.0, 60.0], [-60.0, 60.0]]), [cells, cells], "dirichlet")
    reg = rb.build_reg(grid)
    want = dia_band_factor(reg.L)
    assert reg.R_factor.format == "csr" and reg.R_factor.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(reg.R_factor, name), getattr(want, name)), name
    # the band above the envelope holds exact zeros, and R keeps none of them
    assert np.all(reg.R_factor.data != 0)


def test_indefinite_matrix_raises(small_problem):
    grid = small_problem.grid
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        rb.build_reg(dataclasses.replace(grid, cell_measure=-grid.cell_measure))


def test_value_grad_at_reference(reg_2d, small_problem):
    model = small_problem.reference_model()
    value, grad = rb.reg_value_grad(reg_2d, model)
    assert value == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_grad_matches_finite_differences(reg_2d, small_problem):
    rng = np.random.default_rng(0)
    P = small_problem.grid.cell_count
    model = rb.Model(rng.standard_normal(P), np.zeros(P))
    value, grad = rb.reg_value_grad(reg_2d, model)
    eps = 1e-6
    for c in rng.choice(P, 8, replace=False):
        up = rb.Model(model.m.copy(), model.m_ref)
        dn = rb.Model(model.m.copy(), model.m_ref)
        up.m[c] += eps
        dn.m[c] -= eps
        fd = (rb.reg_value_grad(reg_2d, up)[0] - rb.reg_value_grad(reg_2d, dn)[0]) / (2 * eps)
        assert abs(fd - grad[c]) / max(abs(grad[c]), 1e-12) <= 1e-7


def test_quadratic_scaling(reg_2d, small_problem):
    rng = np.random.default_rng(1)
    P = small_problem.grid.cell_count
    base = rng.standard_normal(P)
    v1, g1 = rb.reg_value_grad(reg_2d, rb.Model(base, np.zeros(P)))
    v2, g2 = rb.reg_value_grad(reg_2d, rb.Model(2 * base, np.zeros(P)))
    assert v2 == pytest.approx(4 * v1, rel=1e-12)
    np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12)


def test_apply_sqrt(reg_2d, small_problem):
    rng = np.random.default_rng(2)
    P = small_problem.grid.cell_count
    R = reg_2d.R_factor
    assert np.all(R @ np.zeros(P) == 0)
    for _ in range(5):
        x = rng.standard_normal(P)
        y = rng.standard_normal(P)
        rx = R @ x
        assert rx @ rx == pytest.approx(x @ (reg_2d.L @ x), rel=1e-12)
        assert rx @ y == pytest.approx(x @ (R.T @ y), rel=1e-12)


def test_isolated_cell_warns():
    spec = rb.ProblemSpec(dimension=1, extent=(0.0, 1.0), n_cells=(1,), bc="neumann",
                          receivers=np.array([[0.5]]),
                          source=rb.SourceSpec(kind="delta", position=(0.5,)))
    prob = rb.build_problem(spec)
    with pytest.warns(UserWarning):
        reg = rb.build_reg(prob.grid)
    lam = la.eigvalsh(reg.L.toarray())
    assert lam[0] > 0
