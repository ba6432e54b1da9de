import numpy as np
import pytest
import scipy.io as sio
import scipy.linalg as la
import scipy.sparse as sp

import rbainv as rb
from conftest import in_box, receiver_grid
from rbainv import mesh


def uniform_1d(n=10, sigma=0.1, kappa=1.0, bc="dirichlet"):
    spec = rb.ProblemSpec(
        dimension=1, extent=(0.0, 1.0), n_cells=(n,), kappa=kappa,
        sigma_background=sigma, bc=bc,
        receivers=np.array([[0.55]]),
        source=rb.SourceSpec(kind="delta", position=(0.5,)))
    return rb.build_problem(spec)


def test_1d_hand_assembled_stiffness_and_mass():
    n, sigma = 10, 0.1
    w = 1.0 / n
    prob = uniform_1d(n, sigma)
    model = prob.reference_model()
    # interior-node second-difference stiffness scaled by cell widths
    K_hand = (np.diag(2.0 / w * np.ones(n - 1))
              - np.diag(1.0 / w * np.ones(n - 2), 1)
              - np.diag(1.0 / w * np.ones(n - 2), -1))
    np.testing.assert_allclose(prob.K.toarray(), K_hand, atol=1e-13)
    # consistent mass: interior node collects w/3 from each side, w/6 couplings
    M = rb.assemble_M(prob, model).toarray()
    M_hand = sigma * ((2 * w / 3) * np.eye(n - 1)
                      + (w / 6) * (np.diag(np.ones(n - 2), 1) + np.diag(np.ones(n - 2), -1)))
    np.testing.assert_allclose(M, M_hand, rtol=1e-13)
    # row sums are the per-node conductivity-weighted width contributions
    # (end rows lose one w/6 coupling to the eliminated boundary node)
    sums = sigma * w * np.ones(n - 1)
    sums[[0, -1]] -= sigma * w / 6
    np.testing.assert_allclose(M.sum(axis=1), sums, rtol=1e-13)


def test_receiver_grid_observation(acc_problem):
    Q = acc_problem.Q
    assert Q.shape[0] == 49
    np.testing.assert_allclose(np.asarray(Q.sum(axis=1)).ravel(), 1.0, rtol=1e-12)
    # one interpolation group per receiver: at most the 3 vertices of one cell
    assert Q.getnnz(axis=1).max() <= 3


def test_anomaly_changes_mass_only_on_block_support(acc_problem):
    ref = acc_problem.reference_model()
    true = acc_problem.true_model()
    dM = (rb.assemble_M(acc_problem, true) - rb.assemble_M(acc_problem, ref)).tocoo()
    touched = set()
    cen = acc_problem.grid.cell_centroids()
    for anom in acc_problem.spec.anomalies:
        for c in np.flatnonzero(in_box(cen, anom.box)):
            for d in acc_problem.cell_dofs[c]:
                if d >= 0:
                    touched.add(int(d))
    assert set(dM.row[np.abs(dM.data) > 1e-15]).issubset(touched)


def test_assemble_M_zero_model_is_unit_mass(small_problem):
    P = small_problem.grid.cell_count
    model = rb.Model(np.zeros(P), np.zeros(P))
    M = rb.assemble_M(small_problem, model)
    # exp(0) = 1: matches direct sum of local blocks
    total = np.zeros(M.shape)
    for c in range(P):
        dofs = small_problem.cell_dofs[c]
        for a in range(dofs.size):
            for b in range(dofs.size):
                if dofs[a] >= 0 and dofs[b] >= 0:
                    total[dofs[a], dofs[b]] += small_problem.mass_local[c, a, b]
    np.testing.assert_allclose(M.toarray(), total, rtol=1e-13)


def test_assemble_M_single_cell_scaling(small_problem):
    P = small_problem.grid.cell_count
    base = rb.Model(np.zeros(P), np.zeros(P))
    bumped = rb.Model(np.zeros(P), np.zeros(P))
    bumped.m[5] += np.log(2.0)
    diff = (rb.assemble_M(small_problem, bumped) - rb.assemble_M(small_problem, base)).tocoo()
    dofs = set(int(d) for d in small_problem.cell_dofs[5] if d >= 0)
    assert set(diff.row[np.abs(diff.data) > 1e-15]).issubset(dofs)
    # the bumped cell contributes exactly one extra copy of its local block
    for a in range(3):
        for b in range(3):
            da, db = small_problem.cell_dofs[5, a], small_problem.cell_dofs[5, b]
            if da >= 0 and db >= 0:
                assert diff.tocsr()[da, db] == pytest.approx(
                    small_problem.mass_local[5, a, b], rel=1e-12)


def test_assemble_M_positive_definite(small_problem):
    rng = np.random.default_rng(1)
    model = rb.Model(rng.normal(-2.0, 1.0, small_problem.grid.cell_count),
                     np.zeros(small_problem.grid.cell_count))
    M = rb.assemble_M(small_problem, model)
    for _ in range(100):
        x = rng.standard_normal(small_problem.dof_count)
        assert x @ (M @ x) > 0


def test_dM_contract_zero_vector(small_problem):
    model = small_problem.reference_model()
    out = rb.dM_contract(small_problem, model, np.zeros(small_problem.dof_count))
    assert out.nnz == 0 or np.all(out.data == 0)


def test_dM_contract_finite_difference(small_problem):
    rng = np.random.default_rng(2)
    model = small_problem.reference_model()
    g = rng.standard_normal(small_problem.dof_count)
    T = rb.dM_contract(small_problem, model, g)
    eps = 1e-7
    for c in (0, 17, 100):
        bumped = rb.Model(model.m.copy(), model.m_ref)
        bumped.m[c] += eps
        fd = ((rb.assemble_M(small_problem, bumped) - rb.assemble_M(small_problem, model)) @ g) / eps
        col = np.asarray(T[:, c].todense()).ravel()
        assert np.linalg.norm(col - fd) / np.linalg.norm(fd) <= 1e-5


def test_dM_contract_columns_rebuild_mass_action(small_problem):
    rng = np.random.default_rng(3)
    model = rb.Model(rng.normal(-2, 0.5, small_problem.grid.cell_count),
                     np.zeros(small_problem.grid.cell_count))
    g = rng.standard_normal(small_problem.dof_count)
    T = rb.dM_contract(small_problem, model, g)
    np.testing.assert_allclose(np.asarray(T.sum(axis=1)).ravel(),
                               rb.assemble_M(small_problem, model) @ g, rtol=1e-12)


def test_dM_contract_single_cell_problem():
    # one cell, Neumann: the single column is exp(m) * M_local g
    spec = rb.ProblemSpec(dimension=1, extent=(0.0, 1.0), n_cells=(1,), kappa=1.0,
                          sigma_background=1.0, bc="neumann",
                          receivers=np.array([[0.5]]),
                          source=rb.SourceSpec(kind="delta", position=(0.5,)))
    prob = rb.build_problem(spec)
    model = rb.Model(np.array([0.7]), np.array([0.0]))
    g = np.array([1.0, 2.0])
    col = np.asarray(rb.dM_contract(prob, model, g).todense())[:, 0]
    np.testing.assert_allclose(col, np.exp(0.7) * (prob.mass_local[0] @ g), rtol=1e-14)


def test_source_zero_amplitude(small_problem):
    f = rb.build_source(small_problem, rb.SourceSpec(kind="box", center=(0.0, 0.0),
                                                     size=(40.0, 40.0), amplitude=0.0))
    assert np.all(f == 0)


def test_source_delta_at_node(problem_1d):
    # node at x=0.5 is dof 4 of the 10-cell unit interval
    f = rb.build_source(problem_1d, rb.SourceSpec(kind="delta", position=(0.5,)))
    expected = np.zeros(problem_1d.dof_count)
    expected[4] = 1.0
    np.testing.assert_allclose(f, expected, atol=1e-14)


def test_source_box_footprint_support(acc_problem):
    f = rb.build_source(acc_problem, acc_problem.spec.source)
    cen = acc_problem.grid.cell_centroids()
    inside = in_box(cen, (-20, 20, -20, 20))
    support = set()
    for c in np.flatnonzero(inside):
        support.update(int(d) for d in acc_problem.cell_dofs[c] if d >= 0)
    assert set(np.flatnonzero(f != 0)).issubset(support)
    assert np.any(f != 0)


def test_source_outside_domain_errors(small_problem):
    with pytest.raises(ValueError):
        rb.build_source(small_problem, rb.SourceSpec(kind="box", center=(500.0, 500.0),
                                                     size=(1.0, 1.0)))


def test_receiver_outside_domain_errors():
    spec = rb.ProblemSpec(dimension=2, extent=(-60., 60., -60., 60.), n_cells=(4, 4),
                          receivers=np.array([(100.0, 0.0)]))
    with pytest.raises(ValueError):
        rb.build_problem(spec)


def test_receiver_on_boundary_errors():
    spec = rb.ProblemSpec(dimension=2, extent=(-60., 60., -60., 60.), n_cells=(4, 4),
                          receivers=np.array([(-60.0, 0.0)]))
    with pytest.raises(ValueError):
        rb.build_problem(spec)


def test_degenerate_extent_errors():
    spec = rb.ProblemSpec(dimension=1, extent=(1.0, 1.0), n_cells=(4,),
                          receivers=np.array([[1.0]]))
    with pytest.raises(ValueError):
        rb.build_problem(spec)


def test_stiffness_psd_and_neumann_nullspace(small_problem):
    lam = la.eigvalsh(small_problem.K.toarray())
    assert lam[0] > -1e-10
    prob_n = uniform_1d(bc="neumann")
    ones = np.ones(prob_n.dof_count)
    np.testing.assert_allclose(prob_n.K @ ones, 0.0, atol=1e-12)


def test_grid_invariants(acc_problem):
    grid = acc_problem.grid
    assert np.all(grid.cell_measure > 0)
    assert grid.cell_measure.sum() == pytest.approx(120.0 * 120.0, rel=1e-12)
    a, b = grid.face_cells[:, 0], grid.face_cells[:, 1]
    assert np.all(a != b)


def test_spectral_bound_upper_bounds_pencil(small_problem):
    model = small_problem.true_model()
    bound = rb.spectral_bound(small_problem, model)
    K = small_problem.K.toarray()
    M = rb.assemble_M(small_problem, model).toarray()
    lam = la.eigh(K, M, eigvals_only=True)
    assert bound >= lam[-1]
    assert bound <= 10.0 * lam[-1]


def test_problem_file_roundtrip(tmp_path):
    text = """
[domain]
dimension = 2
extent = -60 60 -60 60
cells = 8 8
kappa = 1e5
sigma_background = 0.1

[source]
type = box
center = 0 0
size = 40 40
amplitude = 1.0

[receivers]
grid = -45 45 3 -45 45 3

[anomaly.cond]
box = -40 -10 -40 -10
sigma = 1.0

[anomaly.res]
box = 10 40 10 40
sigma = 0.01
"""
    path = tmp_path / "problem.ini"
    path.write_text(text)
    spec = rb.parse_problem_file(path)
    assert spec.dimension == 2
    assert spec.n_cells == (8, 8)
    assert spec.kappa == pytest.approx(1e5)
    assert spec.receivers.shape == (9, 2)
    assert len(spec.anomalies) == 2
    assert spec.anomalies[0].sigma == 1.0
    prob = rb.build_problem(spec)
    assert prob.receiver_count == 9


def test_export_matrices(tmp_path, small_problem):
    model = small_problem.true_model()
    rb.export_matrices(small_problem, model, tmp_path)
    K = sio.mmread(tmp_path / "K.mtx")
    M = sio.mmread(tmp_path / "M.mtx")
    np.testing.assert_allclose(K.toarray(), small_problem.K.toarray(), rtol=1e-12)
    np.testing.assert_allclose(M.toarray(),
                               rb.assemble_M(small_problem, model).toarray(), rtol=1e-12)
    assert (tmp_path / "Q.mtx").exists() and (tmp_path / "f.mtx").exists()


def test_model_version_tag_tracks_content():
    m = rb.Model(np.array([1.0, 2.0]), np.zeros(2))
    same = rb.Model(np.array([1.0, 2.0]), np.zeros(2))
    other = rb.Model(np.array([1.0, 2.0 + 1e-12]), np.zeros(2))
    assert m.version_tag() == same.version_tag()
    assert m.version_tag() != other.version_tag()


# Reference grids, observation rows and sources built cell by cell, face by
# face and receiver by receiver: `build_problem` must reproduce them bit for bit.

def reference_grid(spec):
    """Nodes, cells, cell measures, face cells, face measures, dof of node."""
    if spec.dimension == 1:
        x0, x1 = spec.extent[:2]
        n = spec.n_cells[0]
        xs = np.linspace(x0, x1, n + 1)
        cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        face_cells = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        dof = -np.ones(n + 1, dtype=int)
        if spec.bc == "dirichlet":
            dof[1:-1] = np.arange(n - 1)
        else:
            dof[:] = np.arange(n + 1)
        return xs[:, None], cells, np.diff(xs), face_cells, np.ones(n - 1), dof

    x0, x1, y0, y1 = spec.extent
    nx, ny = spec.n_cells
    X, Y = np.meshgrid(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    cells = []
    for iy in range(ny):
        for ix in range(nx):
            v00, v10 = iy * (nx + 1) + ix, iy * (nx + 1) + ix + 1
            v01, v11 = v00 + nx + 1, v10 + nx + 1
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    cells = np.asarray(cells, dtype=int)
    p = nodes[cells]
    area = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    edge_map = {}
    for c, tri in enumerate(cells):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edge_map.setdefault(tuple(sorted((tri[a], tri[b]))), []).append(c)
    face_cells, face_measure = [], []
    for (a, b), owners in sorted(edge_map.items()):
        if len(owners) == 2:
            face_cells.append(owners)
            face_measure.append(np.linalg.norm(nodes[a] - nodes[b]))

    if spec.bc == "dirichlet":
        interior = ((nodes[:, 0] > x0) & (nodes[:, 0] < x1)
                    & (nodes[:, 1] > y0) & (nodes[:, 1] < y1))
    else:
        interior = np.ones(nodes.shape[0], dtype=bool)
    dof = -np.ones(nodes.shape[0], dtype=int)
    dof[interior] = np.arange(interior.sum())
    return (nodes, cells, area, np.asarray(face_cells, dtype=int),
            np.asarray(face_measure), dof)


def reference_interp(nodes, cells, point):
    """Containing cell and P1 weights of one point."""
    if nodes.shape[1] == 1:
        xs = nodes[:, 0]
        c = int(np.clip(np.searchsorted(xs, point[0]) - 1, 0, len(cells) - 1))
        xa, xb = xs[cells[c]]
        t = (point[0] - xa) / (xb - xa)
        return c, np.array([1.0 - t, t])
    pts = nodes[cells]
    v0 = pts[:, 0]
    d1 = pts[:, 1] - v0
    d2 = pts[:, 2] - v0
    rel = point[None, :] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    l1 = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * rel[:, 1] - d1[:, 1] * rel[:, 0]) / det
    l0 = 1.0 - l1 - l2
    c = int(np.argmax((l0 >= -1e-10) & (l1 >= -1e-10) & (l2 >= -1e-10)))
    lam = np.clip([l0[c], l1[c], l2[c]], 0.0, 1.0)
    return c, lam / lam.sum()


def reference_problem(spec):
    """Grid arrays, K, Q and f assembled with per-cell and per-receiver loops."""
    nodes, cells, measure, face_cells, face_measure, dof = reference_grid(spec)
    grid = rb.Grid(spec.dimension, nodes, cells, measure, face_cells, face_measure,
                   dof, int(np.sum(dof >= 0)))
    _, stiff = mesh._local_matrices(grid, spec.kappa)
    cell_dofs = dof[cells]
    N, k = grid.dof_count, cells.shape[1]

    rows, cols, vals = [], [], []
    for c in range(len(cells)):
        for a in range(k):
            for b in range(k):
                if cell_dofs[c, a] >= 0 and cell_dofs[c, b] >= 0:
                    rows.append(cell_dofs[c, a])
                    cols.append(cell_dofs[c, b])
                    vals.append(stiff[c, a, b])
    K = sp.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()

    receivers = np.atleast_2d(np.asarray(spec.receivers, dtype=float))
    rows, cols, vals = [], [], []
    for r, pos in enumerate(receivers):
        c, wts = reference_interp(nodes, cells, pos)
        for d, wt in zip(cell_dofs[c], wts):
            if d >= 0 and wt != 0.0:
                rows.append(r)
                cols.append(d)
                vals.append(wt)
    Q = sp.coo_matrix((vals, (rows, cols)), shape=(len(receivers), N)).tocsr()

    src = spec.source
    f = np.zeros(N)
    if src.kind == "delta":
        pos = np.asarray(src.position, dtype=float)
        c, wts = reference_interp(nodes, cells, pos)
        for d, wt in zip(cell_dofs[c], wts):
            if d >= 0:
                f[d] += src.amplitude * wt
    else:
        center, size = np.asarray(src.center, dtype=float), np.asarray(src.size, dtype=float)
        box = [v for lo, hi in zip(center - 0.5 * size, center + 0.5 * size) for v in (lo, hi)]
        for c in np.flatnonzero(in_box(grid.cell_centroids(), box)):
            for d in cell_dofs[c]:
                if d >= 0:
                    f[d] += src.amplitude * measure[c] / k
    return grid, K, Q, f


def _spec_2d(shape, extent=(-60.0, 60.0, -60.0, 60.0), **kw):
    kw.setdefault("receivers", receiver_grid(-45.0, 45.0, 7))
    kw.setdefault("anomalies", (rb.AnomalySpec(box=(-40, -10, -40, -10), sigma=1.0),
                                rb.AnomalySpec(box=(10, 40, 10, 40), sigma=0.01)))
    return rb.ProblemSpec(dimension=2, extent=extent, n_cells=shape, kappa=1e5, **kw)


ORACLE_SPECS = {
    "1d-n1-neumann": rb.ProblemSpec(
        dimension=1, extent=(0.0, 1.0), n_cells=(1,), bc="neumann",
        receivers=np.array([[0.0], [0.3], [1.0]]),
        source=rb.SourceSpec(kind="box", center=(0.5,), size=(0.4,))),
    "1d-n10-delta": rb.ProblemSpec(
        dimension=1, extent=(0.0, 1.0), n_cells=(10,),
        receivers=np.array([[0.35], [0.55], [0.65]]),
        source=rb.SourceSpec(kind="delta", position=(0.53,), amplitude=2.5)),
    # 3x3's boundary cells touch eliminated nodes; its receivers sit on the inner square
    "2d-3x3": _spec_2d((3, 3), receivers=receiver_grid(-20.0, 20.0, 3)),
    **{f"2d-{n}x{n}": _spec_2d((n, n)) for n in (8, 13, 16, 48)},
    "2d-7x11-delta": _spec_2d(
        (7, 11), (0.0, 1.3, -0.7, 2.9),
        receivers=np.array([(0.3, -0.2), (0.65, 1.1), (1.0, 2.4), (2.6 / 7, 0.0)]),
        source=rb.SourceSpec(kind="delta", position=(0.61, 1.13)), anomalies=()),
    "2d-31x5-neumann-corners": _spec_2d(
        (31, 5), (-1.0, 3.1, 0.0, 1.7), bc="neumann",
        receivers=np.array([(-1.0, 0.0), (3.1, 0.0), (-1.0, 1.7), (3.1, 1.7),
                            (1.0, 0.0), (3.1, 0.9), (0.4, 0.8)]),
        source=rb.SourceSpec(kind="box", center=(1.0, 0.8), size=(1.0, 0.5)),
        anomalies=(rb.AnomalySpec(box=(0.0, 1.0, 0.2, 1.0), sigma=1.0),)),
}


def _assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.filterwarnings("ignore:grid has no interior faces")
@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_build_problem_matches_reference_loops_bit_for_bit(name):
    spec = ORACLE_SPECS[name]
    prob = rb.build_problem(spec)
    ref_grid, K, Q, f = reference_problem(spec)
    for field in ("nodes", "cells", "cell_measure", "face_cells", "face_measure",
                  "dof_of_node"):
        got, want = getattr(prob.grid, field), getattr(ref_grid, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    assert prob.dof_count == ref_grid.dof_count
    _assert_same_csr(prob.K, K)
    _assert_same_csr(prob.Q, Q)
    assert np.array_equal(prob.f, f)
    _assert_same_csr(rb.build_reg(prob.grid).R_factor, rb.build_reg(ref_grid).R_factor)
