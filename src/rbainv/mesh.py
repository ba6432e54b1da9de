"""Desk-scale diffusion problems: grids, operators, sources, observations.

Generates 1-D interval and 2-D structured-triangulated rectangle problems
with P1 nodal elements.  The assembled objects keep the algebraic roles
needed downstream: a model-independent stiffness matrix K (real, symmetric
positive semidefinite), a conductivity-weighted mass matrix M(m) built from
per-cell local blocks, the per-cell mass-derivative structure, a source
vector f, and an interpolatory observation matrix Q.

The model vector m holds the natural log of conductivity per cell, so
M(m) = sum_c exp(m_c) * M_c and dM/dm_c = exp(m_c) * M_c.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Grid",
    "Model",
    "Problem",
    "SourceSpec",
    "AnomalySpec",
    "ProblemSpec",
    "build_problem",
    "assemble_M",
    "dM_contract",
    "dM_transpose_blocks",
    "build_source",
    "parse_problem_file",
    "export_matrices",
    "spectral_bound",
]


@dataclass(frozen=True)
class Grid:
    """Cell/face structure of a 1-D interval or triangulated rectangle."""

    dimension: int
    nodes: np.ndarray           # (n_nodes, dim)
    cells: np.ndarray           # (P, dim+1) vertex indices
    cell_measure: np.ndarray    # (P,)
    face_cells: np.ndarray      # (F, 2) adjacent cell pair per interior face
    face_measure: np.ndarray    # (F,)
    dof_of_node: np.ndarray     # (n_nodes,) interior dof index or -1
    dof_count: int
    cell_tags: np.ndarray = None   # (P,) conductivity-region name, "" background

    @property
    def cell_count(self) -> int:
        return self.cells.shape[0]

    def cell_centroids(self) -> np.ndarray:
        return self.nodes[self.cells].mean(axis=1)


@dataclass
class Model:
    """Log-conductivity per cell plus the reference used by regularization."""

    m: np.ndarray
    m_ref: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float).copy()
        self.m_ref = np.asarray(self.m_ref, dtype=float).copy()
        if self.m.shape != self.m_ref.shape or self.m.ndim != 1:
            raise ValueError("m and m_ref must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.m)) and np.all(np.isfinite(self.m_ref))):
            raise ValueError("model entries must be finite")

    @property
    def cell_count(self) -> int:
        return self.m.size

    def sigma(self) -> np.ndarray:
        return np.exp(self.m)

    def version_tag(self) -> str:
        return hashlib.sha1(self.m.tobytes()).hexdigest()[:16]

    def perturbed(self, delta: np.ndarray, scale: float = 1.0) -> "Model":
        return Model(self.m + scale * delta, self.m_ref)


@dataclass(frozen=True)
class SourceSpec:
    """Initial source trace.

    kind 'box': uniform amplitude over cells whose centroid falls inside the
    box, integrated against the nodal basis.  kind 'delta': point source via
    the interpolation weights at `position`.
    """

    kind: str = "box"
    center: tuple = (0.0, 0.0)
    size: tuple = (40.0, 40.0)
    position: tuple = (0.0,)
    amplitude: float = 1.0


@dataclass(frozen=True)
class AnomalySpec:
    box: tuple          # 1-D: (x0, x1); 2-D: (x0, x1, y0, y1)
    sigma: float
    name: str = ""


@dataclass(frozen=True)
class ProblemSpec:
    dimension: int = 2
    extent: tuple = (-60.0, 60.0, -60.0, 60.0)
    n_cells: tuple = (16, 16)
    kappa: float = 1.0e5            # stiffness scale absorbing physical constants
    sigma_background: float = 0.1
    bc: str = "dirichlet"
    receivers: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    source: SourceSpec = field(default_factory=SourceSpec)
    anomalies: tuple = ()


@dataclass
class Problem:
    """Assembled operators for one grid; immutable after construction."""

    grid: Grid
    K: sp.csr_matrix                # (N, N) stiffness, model-independent
    cell_dofs: np.ndarray           # (P, k) dof index per cell vertex, -1 eliminated
    mass_local: np.ndarray          # (P, k, k) unit-conductivity local mass blocks
    stiff_local: np.ndarray         # (P, k, k) local stiffness blocks
    f: np.ndarray                   # (N,)
    Q: sp.csr_matrix                # (M_r, N)
    receivers: np.ndarray
    spec: ProblemSpec

    _scatter: tuple = None          # cached COO pattern for assemble_M

    @property
    def dof_count(self) -> int:
        return self.grid.dof_count

    @property
    def receiver_count(self) -> int:
        return self.Q.shape[0]

    def reference_model(self) -> Model:
        m_ref = np.full(self.grid.cell_count, np.log(self.spec.sigma_background))
        return Model(m_ref.copy(), m_ref)

    def true_model(self) -> Model:
        ref = self.reference_model()
        m = ref.m.copy()
        centroids = self.grid.cell_centroids()
        for anom in self.spec.anomalies:
            inside = _in_box(centroids, anom.box)
            m[inside] = np.log(anom.sigma)
        return Model(m, ref.m_ref)


def _in_box(points: np.ndarray, box) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    ok = (points[:, 0] >= box[0]) & (points[:, 0] <= box[1])
    if points.shape[1] == 2:
        ok &= (points[:, 1] >= box[2]) & (points[:, 1] <= box[3])
    return ok


def _grid_1d(extent, n, bc) -> Grid:
    x0, x1 = extent
    xs = np.linspace(x0, x1, n + 1)
    nodes = xs[:, None]
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    widths = np.diff(xs)
    if np.any(widths <= 0):
        raise ValueError("degenerate cells")
    face_cells = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    face_measure = np.ones(n - 1)
    dof = -np.ones(n + 1, dtype=int)
    if bc == "dirichlet":
        dof[1:-1] = np.arange(n - 1)
        count = n - 1
    else:
        dof[:] = np.arange(n + 1)
        count = n + 1
    return Grid(1, nodes, cells, widths, face_cells, face_measure, dof, count)


def _grid_2d(extent, shape, bc) -> Grid:
    x0, x1, y0, y1 = extent
    nx, ny = shape
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    cells = []
    for iy in range(ny):
        for ix in range(nx):
            v00, v10 = nid(ix, iy), nid(ix + 1, iy)
            v01, v11 = nid(ix, iy + 1), nid(ix + 1, iy + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    cells = np.asarray(cells, dtype=int)

    p = nodes[cells]
    area = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    if np.any(area <= 0):
        raise ValueError("degenerate cells")

    edge_map: dict[tuple, list[int]] = {}
    for c, tri in enumerate(cells):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((tri[a], tri[b])))
            edge_map.setdefault(key, []).append(c)
    face_cells, face_measure = [], []
    for (a, b), owners in sorted(edge_map.items()):
        if len(owners) == 2:
            face_cells.append(owners)
            face_measure.append(np.linalg.norm(nodes[a] - nodes[b]))
    face_cells = np.asarray(face_cells, dtype=int)
    face_measure = np.asarray(face_measure)

    dof = -np.ones(nodes.shape[0], dtype=int)
    if bc == "dirichlet":
        interior = ((nodes[:, 0] > x0) & (nodes[:, 0] < x1)
                    & (nodes[:, 1] > y0) & (nodes[:, 1] < y1))
    else:
        interior = np.ones(nodes.shape[0], dtype=bool)
    dof[interior] = np.arange(interior.sum())
    return Grid(2, nodes, cells, area, face_cells, face_measure, dof, int(interior.sum()))


def _local_matrices(grid: Grid, kappa: float):
    """Unit-conductivity local mass and kappa-scaled local stiffness per cell."""
    if grid.dimension == 1:
        w = grid.cell_measure
        mass = w[:, None, None] / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        stiff = kappa / w[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        return mass, stiff
    p = grid.nodes[grid.cells]          # (P, 3, 2)
    area = grid.cell_measure
    mass = area[:, None, None] / 12.0 * (np.ones((3, 3)) + np.eye(3))
    # hat-function gradients: grad(lambda_i) = perp(p_k - p_j) / (2A), cyclic
    b = np.stack([p[:, 1, 1] - p[:, 2, 1],
                  p[:, 2, 1] - p[:, 0, 1],
                  p[:, 0, 1] - p[:, 1, 1]], axis=1)
    c = np.stack([p[:, 2, 0] - p[:, 1, 0],
                  p[:, 0, 0] - p[:, 2, 0],
                  p[:, 1, 0] - p[:, 0, 0]], axis=1)
    stiff = kappa * (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        / (4.0 * area[:, None, None])
    return mass, stiff


def _interp_row(grid: Grid, point: np.ndarray):
    """Containing cell and P1 interpolation weights for one point."""
    if grid.dimension == 1:
        x = point[0]
        xs = grid.nodes[:, 0]
        if x < xs[0] - 1e-12 or x > xs[-1] + 1e-12:
            raise ValueError(f"receiver {point} outside domain")
        c = int(np.clip(np.searchsorted(xs, x) - 1, 0, grid.cell_count - 1))
        xa, xb = xs[grid.cells[c]]
        t = (x - xa) / (xb - xa)
        return c, np.array([1.0 - t, t])
    pts = grid.nodes[grid.cells]        # (P, 3, 2)
    v0 = pts[:, 0]
    d1 = pts[:, 1] - v0
    d2 = pts[:, 2] - v0
    rel = point[None, :] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    l1 = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * rel[:, 1] - d1[:, 1] * rel[:, 0]) / det
    l0 = 1.0 - l1 - l2
    eps = 1e-10
    ok = (l0 >= -eps) & (l1 >= -eps) & (l2 >= -eps)
    if not np.any(ok):
        raise ValueError(f"receiver {point} outside domain")
    c = int(np.argmax(ok))
    lam = np.clip([l0[c], l1[c], l2[c]], 0.0, 1.0)
    return c, lam / lam.sum()


def build_problem(spec: ProblemSpec) -> Problem:
    """Assemble K, Q, f and the per-cell mass structure for one spec.

    Homogeneous Dirichlet boundaries are handled by eliminating boundary
    DOFs; a 'neumann' bc keeps every node (K then annihilates constants).
    """
    if spec.dimension == 1:
        n = spec.n_cells if np.isscalar(spec.n_cells) else spec.n_cells[0]
        grid = _grid_1d(spec.extent[:2], int(n), spec.bc)
    elif spec.dimension == 2:
        grid = _grid_2d(spec.extent, tuple(int(v) for v in spec.n_cells), spec.bc)
    else:
        raise ValueError("dimension must be 1 or 2")

    tags = np.full(grid.cell_count, "", dtype=object)
    centroids = grid.cell_centroids()
    for idx, anom in enumerate(spec.anomalies):
        tags[_in_box(centroids, anom.box)] = anom.name or f"anomaly{idx}"
    grid = replace(grid, cell_tags=tags)

    mass_local, stiff_local = _local_matrices(grid, spec.kappa)
    cell_dofs = grid.dof_of_node[grid.cells]
    N = grid.dof_count
    k = cell_dofs.shape[1]

    rows = np.repeat(cell_dofs, k, axis=1).ravel()
    cols = np.tile(cell_dofs, (1, k)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    K = sp.coo_matrix((stiff_local.ravel()[keep], (rows[keep], cols[keep])),
                      shape=(N, N)).tocsr()

    receivers = np.atleast_2d(np.asarray(spec.receivers, dtype=float))
    q_rows, q_cols, q_vals = [], [], []
    for r, pos in enumerate(receivers):
        c, wts = _interp_row(grid, pos)
        dofs = cell_dofs[c]
        if np.any((dofs < 0) & (wts > 1e-12)):
            raise ValueError(f"receiver {pos} interpolates onto an eliminated boundary node")
        for d, wt in zip(dofs, wts):
            if d >= 0 and wt != 0.0:
                q_rows.append(r)
                q_cols.append(d)
                q_vals.append(wt)
    Q = sp.coo_matrix((q_vals, (q_rows, q_cols)), shape=(receivers.shape[0], N)).tocsr()

    problem = Problem(grid=grid, K=K, cell_dofs=cell_dofs, mass_local=mass_local,
                      stiff_local=stiff_local, f=np.zeros(N), Q=Q,
                      receivers=receivers, spec=spec)
    problem._scatter = (rows[keep], cols[keep], keep,
                        np.repeat(np.arange(grid.cell_count), k * k)[keep])
    problem.f = build_source(problem, spec.source)
    return problem


def assemble_M(problem: Problem, model: Model) -> sp.csr_matrix:
    """Conductivity-weighted mass matrix, symmetric positive definite."""
    if model.cell_count != problem.grid.cell_count:
        raise ValueError("model size does not match grid")
    rows, cols, keep, cell_of = problem._scatter
    vals = problem.mass_local.ravel()[keep] * np.exp(model.m)[cell_of]
    N = problem.dof_count
    return sp.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()


def _dM_local(problem: Problem, model: Model, g: np.ndarray) -> np.ndarray:
    """Row c holds exp(m_c) * (M_c g) on the cell-c vertices, shape (P, k)."""
    g = np.asarray(g)
    dofs = problem.cell_dofs                       # (P, k)
    gl = np.where(dofs >= 0, g[np.maximum(dofs, 0)], 0.0)
    return np.einsum("pij,pj->pi", problem.mass_local, gl) * np.exp(model.m)[:, None]


def dM_contract(problem: Problem, model: Model, g: np.ndarray) -> sp.csc_matrix:
    """Mass-derivative tensor contracted with g: column c holds
    exp(m_c) * (M_c g) on the cell-c DOFs, shape (N, P)."""
    local = _dM_local(problem, model, g)
    dofs = problem.cell_dofs
    P, k = dofs.shape
    cols = np.repeat(np.arange(P), k)
    rows = dofs.ravel()
    keep = rows >= 0
    return sp.coo_matrix((local.ravel()[keep], (rows[keep], cols.ravel()[keep])),
                         shape=(problem.dof_count, P)).tocsc()


def dM_transpose_blocks(problem: Problem, model: Model, G: np.ndarray) -> sp.csr_matrix:
    """blockdiag(dM_contract(problem, model, g)^T for g in the rows of G),
    shape (s P, s N) for s rows.

    Each row lists its cell's DOFs in ascending order, as the columns of
    `dM_contract`'s CSC do, so a product with this matrix (or with its CSC
    transpose) adds the same terms in the same order as the per-row products
    with `dM_contract`, and matches them bit for bit.
    """
    dofs = problem.cell_dofs
    order = np.argsort(dofs, axis=1, kind="stable")
    sorted_dofs = np.take_along_axis(dofs, order, axis=1)
    keep = sorted_dofs >= 0
    N, s = problem.dof_count, len(G)
    data = np.concatenate([np.take_along_axis(_dM_local(problem, model, g), order, axis=1)[keep]
                           for g in G])
    indices = (sorted_dofs[keep] + N * np.arange(s)[:, None]).ravel()
    indptr = np.concatenate(([0], np.cumsum(np.tile(keep.sum(axis=1), s))))
    return sp.csr_matrix((data, indices, indptr), shape=(s * dofs.shape[0], s * N))


def build_source(problem: Problem, source: SourceSpec) -> np.ndarray:
    """Assemble the source vector for a box or delta footprint."""
    grid = problem.grid
    f = np.zeros(problem.dof_count)
    if source.kind == "delta":
        pos = np.asarray(source.position, dtype=float)[: grid.dimension]
        c, wts = _interp_row(grid, pos)
        for d, wt in zip(problem.cell_dofs[c], wts):
            if d >= 0:
                f[d] += source.amplitude * wt
        return f
    if source.kind != "box":
        raise ValueError(f"unknown source kind {source.kind!r}")
    center = np.asarray(source.center, dtype=float)[: grid.dimension]
    half = 0.5 * np.asarray(source.size, dtype=float)[: grid.dimension]
    if grid.dimension == 1:
        box = (center[0] - half[0], center[0] + half[0])
    else:
        box = (center[0] - half[0], center[0] + half[0],
               center[1] - half[1], center[1] + half[1])
    inside = _in_box(grid.cell_centroids(), box)
    if source.amplitude != 0.0 and not np.any(inside):
        raise ValueError("source footprint does not intersect the domain")
    dofs = problem.cell_dofs[inside]
    # integral of each hat over its cell is measure / k
    contrib = source.amplitude * grid.cell_measure[inside] / dofs.shape[1]
    free = dofs >= 0
    # np.add.at sums in index order, cell by cell, as a loop over the cells would
    np.add.at(f, dofs[free], np.broadcast_to(contrib[:, None], dofs.shape)[free])
    return f


def spectral_bound(problem: Problem, model: Model) -> float:
    """Upper bound on the largest generalized eigenvalue of (K, M(m)).

    The assembled pencil's eigenvalues never exceed the largest eigenvalue
    of any element pencil (stiff_c, exp(m_c) * mass_c), so the maximum over
    cells gives a cheap rigorous bound for the fit interval.
    """
    import scipy.linalg as la

    sig = np.exp(model.m)
    worst = 0.0
    for c in range(problem.grid.cell_count):
        w = la.eigh(problem.stiff_local[c], sig[c] * problem.mass_local[c],
                    eigvals_only=True)
        worst = max(worst, float(w[-1]))
    return worst


def export_matrices(problem: Problem, model: Model, outdir) -> None:
    """Write K, M(m), Q and f in Matrix Market format."""
    from pathlib import Path
    import scipy.io as sio

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    sio.mmwrite(out / "K.mtx", problem.K)
    sio.mmwrite(out / "M.mtx", assemble_M(problem, model))
    sio.mmwrite(out / "Q.mtx", problem.Q)
    sio.mmwrite(out / "f.mtx", problem.f[:, None])


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def parse_problem_file(path) -> ProblemSpec:
    """Read the documented key-value problem format (see README)."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)

    dom = cp["domain"]
    dimension = dom.getint("dimension", 2)
    extent = tuple(_parse_floats(dom["extent"]))
    n_cells = tuple(int(v) for v in _parse_floats(dom["cells"]))
    kappa = dom.getfloat("kappa", 1.0)
    sigma_bg = dom.getfloat("sigma_background", 0.1)
    bc = dom.get("bc", "dirichlet")

    receivers = np.zeros((0, dimension))
    if cp.has_section("receivers"):
        rc = cp["receivers"]
        if "grid" in rc:
            vals = _parse_floats(rc["grid"])
            if dimension == 2:
                xa, xb, nxr, ya, yb, nyr = vals
                xs = np.linspace(xa, xb, int(nxr))
                ys = np.linspace(ya, yb, int(nyr))
                receivers = np.array([(x, y) for y in ys for x in xs])
            else:
                xa, xb, nxr = vals
                receivers = np.linspace(xa, xb, int(nxr))[:, None]
        elif "positions" in rc:
            flat = _parse_floats(rc["positions"])
            receivers = np.asarray(flat, dtype=float).reshape(-1, dimension)

    source = SourceSpec()
    if cp.has_section("source"):
        sc = cp["source"]
        kind = sc.get("type", "box")
        amplitude = sc.getfloat("amplitude", 1.0)
        if kind == "box":
            source = SourceSpec(kind="box",
                                center=tuple(_parse_floats(sc.get("center", "0 0"))),
                                size=tuple(_parse_floats(sc.get("size", "40 40"))),
                                amplitude=amplitude)
        else:
            source = SourceSpec(kind="delta",
                                position=tuple(_parse_floats(sc.get("position", "0"))),
                                amplitude=amplitude)

    anomalies = []
    for section in cp.sections():
        if section.startswith("anomaly"):
            an = cp[section]
            anomalies.append(AnomalySpec(
                box=tuple(_parse_floats(an["box"])),
                sigma=an.getfloat("sigma"),
                name=section.partition(".")[2]))

    return ProblemSpec(dimension=dimension, extent=extent, n_cells=n_cells,
                       kappa=kappa, sigma_background=sigma_bg, bc=bc,
                       receivers=receivers, source=source, anomalies=tuple(anomalies))
