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
import itertools
from dataclasses import dataclass, field

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
    """Points inside a closed box (x0, x1) in 1-D or (x0, x1, y0, y1) in 2-D."""
    box = np.asarray(box, dtype=float).reshape(-1, 2)[: points.shape[1]]
    return np.all((points >= box[:, 0]) & (points <= box[:, 1]), axis=1)


def _grid_1d(extent, n, bc) -> Grid:
    xs = np.linspace(extent[0], extent[1], n + 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return _grid(xs[:, None], cells, np.diff(xs), extent, bc)


def _grid_2d(extent, shape, bc) -> Grid:
    x0, x1, y0, y1 = extent
    nx, ny = shape
    X, Y = np.meshgrid(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ids = np.arange(nodes.shape[0]).reshape(ny + 1, nx + 1)
    v00, v10 = ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel()
    v01, v11 = ids[1:, :-1].ravel(), ids[1:, 1:].ravel()
    # two triangles per rectangle, rectangles row by row
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)

    p = nodes[cells]
    area = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    return _grid(nodes, cells, area, extent, bc)


def _grid(nodes, cells, cell_measure, extent, bc) -> Grid:
    """Faces and DOFs of a simplex grid whose nodes lie in the box `extent`.

    A face is a facet (a vertex in 1-D, an edge in 2-D) that two cells
    share.  Faces come in ascending order of their sorted vertex tuple, each
    with its lower cell first.  A Dirichlet bc drops every node on the
    extent's boundary.
    """
    if np.any(cell_measure <= 0):
        raise ValueError("degenerate cells")
    P, k = cells.shape
    dim = k - 1
    drop_one = list(itertools.combinations(range(k), dim))
    facets = np.sort(cells[:, drop_one], axis=2).reshape(-1, dim)
    owner = np.repeat(np.arange(P), len(drop_one))
    order = np.lexsort((owner, *facets.T[::-1]))
    facets, owner = facets[order], owner[order]
    shared = np.flatnonzero(np.all(facets[1:] == facets[:-1], axis=1))
    face_cells = np.column_stack([owner[shared], owner[shared + 1]])
    # a 2-D face has one edge, whose length is sqrt(d.d) with the dot in
    # BLAS as np.linalg.norm takes it; a 1-D face is a point, so it has no
    # edge and the empty product makes its measure 1
    d = np.diff(nodes[facets[shared]], axis=1)
    face_measure = np.sqrt(np.vecdot(d, d)).prod(axis=1)

    if bc == "dirichlet":
        box = np.asarray(extent, dtype=float).reshape(-1, 2)
        free = np.all((nodes > box[:, 0]) & (nodes < box[:, 1]), axis=1)
    else:
        free = np.ones(nodes.shape[0], dtype=bool)
    dof = -np.ones(nodes.shape[0], dtype=int)
    dof[free] = np.arange(free.sum())
    return Grid(dim, nodes, cells, cell_measure, face_cells, face_measure, dof,
                int(free.sum()))


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


def _interp_rows(grid: Grid, points: np.ndarray):
    """Containing cell (R,) and P1 interpolation weights (R, k) per point."""
    if grid.dimension == 1:
        x = points[:, 0]
        xs = grid.nodes[:, 0]
        outside = (x < xs[0] - 1e-12) | (x > xs[-1] + 1e-12)
        c = np.clip(np.searchsorted(xs, x) - 1, 0, grid.cell_count - 1)
        xa, xb = xs[grid.cells[c]].T
        t = (x - xa) / (xb - xa)
        lam = np.column_stack([1.0 - t, t])
    else:
        pts = grid.nodes[grid.cells]        # (P, 3, 2)
        v0 = pts[:, 0]
        d1 = pts[:, 1] - v0
        d2 = pts[:, 2] - v0
        rel = points[:, None, :] - v0       # (R, P, 2)
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        l1 = (rel[..., 0] * d2[:, 1] - rel[..., 1] * d2[:, 0]) / det
        l2 = (d1[:, 0] * rel[..., 1] - d1[:, 1] * rel[..., 0]) / det
        l0 = 1.0 - l1 - l2
        eps = 1e-10
        ok = (l0 >= -eps) & (l1 >= -eps) & (l2 >= -eps)
        outside = ~np.any(ok, axis=1)
        c = np.argmax(ok, axis=1)
        r = np.arange(len(c))
        lam = np.clip(np.column_stack([l0[r, c], l1[r, c], l2[r, c]]), 0.0, 1.0)
        lam /= lam.sum(axis=1, keepdims=True)
    if np.any(outside):
        raise ValueError(f"point {points[np.argmax(outside)]} outside domain")
    return c, lam


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
    c, wts = _interp_rows(grid, receivers)
    dofs = cell_dofs[c]
    on_boundary = np.any((dofs < 0) & (wts > 1e-12), axis=1)
    if np.any(on_boundary):
        raise ValueError(f"receiver {receivers[np.argmax(on_boundary)]} interpolates "
                         f"onto an eliminated boundary node")
    nz = (dofs >= 0) & (wts != 0.0)
    Q = sp.coo_matrix((wts[nz], (np.nonzero(nz)[0], dofs[nz])), shape=(len(c), N)).tocsr()

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
    dim = grid.dimension
    if source.kind == "delta":
        c, wts = _interp_rows(grid, np.asarray(source.position, dtype=float)[None, :dim])
        dofs = problem.cell_dofs[c]
        vals = source.amplitude * wts
    elif source.kind == "box":
        center = np.asarray(source.center, dtype=float)[:dim]
        half = 0.5 * np.asarray(source.size, dtype=float)[:dim]
        inside = _in_box(grid.cell_centroids(), np.column_stack([center - half, center + half]))
        if source.amplitude != 0.0 and not np.any(inside):
            raise ValueError("source footprint does not intersect the domain")
        dofs = problem.cell_dofs[inside]
        # integral of each hat over its cell is measure / k
        contrib = source.amplitude * grid.cell_measure[inside] / dofs.shape[1]
        vals = np.broadcast_to(contrib[:, None], dofs.shape)
    else:
        raise ValueError(f"unknown source kind {source.kind!r}")
    f = np.zeros(problem.dof_count)
    free = dofs >= 0
    # np.add.at sums in index order, cell by cell, as a loop over the cells would
    np.add.at(f, dofs[free], vals[free])
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
                X, Y = np.meshgrid(np.linspace(xa, xb, int(nxr)), np.linspace(ya, yb, int(nyr)))
                receivers = np.column_stack([X.ravel(), Y.ravel()])
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
