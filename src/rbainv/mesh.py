"""Desk-scale diffusion problems: grids, operators, sources, observations.

Generates P1 problems on a box split into d-simplices (Kuhn's split), with
one rule for every d (specs take d = 1 or 2).  The assembled objects keep
the algebraic roles needed downstream: a model-independent stiffness matrix
K (real, symmetric positive semidefinite), a conductivity-weighted mass
matrix M(m) built from per-cell local blocks, the per-cell mass-derivative
structure, a source vector f, and an interpolatory observation matrix Q.

The model vector m holds the natural log of conductivity per cell, so
M(m) = sum_c exp(m_c) * M_c and dM/dm_c = exp(m_c) * M_c.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as la
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
    "spectral_bound",
]


@dataclass(frozen=True)
class Grid:
    """Cell/face structure of a box split into d-simplices of d+1 vertices."""

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
    center: tuple = (0.0,)          # 1 or d numbers; one number serves every axis
    size: tuple = (40.0,)
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


def _require(ok, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _in_box(points: np.ndarray, box) -> np.ndarray:
    """Points inside a closed box given as a (lo, hi) pair per axis."""
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    return np.all((points >= box[:, 0]) & (points <= box[:, 1]), axis=1)


def _lattice(axes) -> np.ndarray:
    """Every point of the tensor grid on ``axes``, first axis fastest, (n, d)."""
    return np.stack(np.meshgrid(*axes[::-1], indexing="ij")[::-1], axis=-1).reshape(-1, len(axes))


def _sum(terms):
    """Sum that starts from its first term, so that signed zeros survive."""
    return functools.reduce(operator.add, terms)


def _minor(a, rows, cols, sign=1):
    """``sign`` times the determinant of the ``rows`` x ``cols`` minor of each
    stacked matrix in ``a``, expanded along its first row with the sign in each
    term, so that a 2x2 one, s a00 a11 + (-s a01) a10, cancels to +0."""
    if not rows:
        return 1.0
    return _sum(sign * (-1) ** j * a[..., rows[0], c]
                * _minor(a, rows[1:], cols[:j] + cols[j + 1:]) for j, c in enumerate(cols))


def _cofactors(a, cols):
    """Cofactors of columns ``cols`` of each stacked square matrix in ``a``, as [row, col, ...]."""
    n = a.shape[-1]
    out = np.empty((n, len(cols)) + a.shape[:-2])
    for i, (j, col) in itertools.product(range(n), enumerate(cols)):
        out[i, j] = _minor(a, [*range(i), *range(i + 1, n)], [*range(col), *range(col + 1, n)],
                           (-1) ** (i + col))
    return out


def _box_grid(box, counts, bc) -> Grid:
    """Kuhn split of ``box`` (a (lo, hi) row per axis) into ``counts`` cubes per
    axis, first axis fastest, and of each cube into d! simplices, one per axis
    order in ``itertools.permutations`` order.  A simplex walks from its cube's
    low corner along its order; an odd order swaps its last two vertices, so
    that each cell is positively oriented.  Its measure is |det E| / d!, E
    holding its edges from vertex 0.  Faces (facets two cells share) ascend by
    sorted vertex tuple, lower cell first.  Dirichlet drops boundary nodes."""
    d = len(counts)
    nodes = _lattice([np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(box, counts, strict=True)])
    strides = np.cumprod([1] + [n + 1 for n in counts[:-1]])
    orders = list(itertools.permutations(range(d)))
    paths = np.cumsum([[0, *strides[list(o)]] for o in orders], axis=1)
    odd = np.linalg.det(np.eye(d)[orders]) < 0        # permutation matrices: det +-1
    paths[odd, -2:] = paths[odd, :-3:-1]
    corners = _lattice([np.arange(n) for n in counts]) @ strides
    cells = (corners[:, None, None] + paths).reshape(-1, d + 1)
    p = nodes[cells]
    measure = np.abs(_minor(p[:, 1:] - p[:, :1], [*range(d)], [*range(d)])) / math.factorial(d)
    if np.any(measure <= 0):
        raise ValueError("degenerate cells")

    drop_one = list(itertools.combinations(range(d + 1), d))
    facets = np.sort(cells[:, drop_one], axis=2).reshape(-1, d)
    owner = np.repeat(np.arange(len(cells)), len(drop_one))
    order = np.lexsort((owner, *facets.T[::-1]))
    facets, owner = facets[order], owner[order]
    shared = np.flatnonzero(np.all(facets[1:] == facets[:-1], axis=1))
    face_cells = np.column_stack([owner[shared], owner[shared + 1]])
    # a 2-D face's edge length is sqrt(e.e), the dot in BLAS as np.linalg.norm
    # takes it; a 1-D face is a point, and the empty product makes its measure 1
    e = np.diff(nodes[facets[shared]], axis=1)
    face_measure = np.sqrt(np.vecdot(e, e)).prod(axis=1)

    free = (np.all((nodes > box[:, 0]) & (nodes < box[:, 1]), axis=1) if bc == "dirichlet"
            else np.ones(len(nodes), dtype=bool))
    dof = -np.ones(len(nodes), dtype=int)
    dof[free] = np.arange(free.sum())
    return Grid(d, nodes, cells, measure, face_cells, face_measure, dof, int(free.sum()))


def _local_matrices(grid: Grid, kappa: float):
    """Unit-conductivity local mass |T| (1 + I) / ((d+1)(d+2)) and kappa-scaled
    local stiffness kappa C C^T / ((d!)^2 |T|) per cell, where row i of C holds
    the cofactors of vertex i's coordinates in [1 | vertices], so that
    C / (d! |T|) holds the hat gradients up to sign."""
    d = grid.dimension
    size = grid.cell_measure[:, None, None]
    mass = size / ((d + 1) * (d + 2)) * (np.ones((d + 1, d + 1)) + np.eye(d + 1))
    p = grid.nodes[grid.cells]
    C = _cofactors(np.concatenate([np.ones(p.shape[:2] + (1,)), p], axis=2), range(1, d + 1)).T
    CCt = _sum(C[:, a, :, None] * C[:, a, None, :] for a in range(d))
    return mass, kappa * CCt / (math.factorial(d) ** 2 * size)


def _interp_rows(grid: Grid, points: np.ndarray):
    """Containing cell (R,) and P1 weights (R, k) per point: Cramer's rule with
    the cofactors of E gives lambda_1..d, lambda_0 = (1 - lambda_1) - ..., and a
    point lies in the first cell whose weights are all >= -1e-10."""
    d = grid.dimension
    p = grid.nodes[grid.cells]
    E = p[:, 1:] - p[:, :1]             # row i: vertex i+1 minus vertex 0
    cof = _cofactors(E, range(d))
    det = _sum(E[:, 0, a] * cof[0, a] for a in range(d))
    rel = [points[:, a, None] - p[:, 0, a] for a in range(d)]     # (R, P) each
    lam = [_sum(rel[a] * cof[j, a] for a in range(d)) / det for j in range(d)]
    lam.insert(0, functools.reduce(operator.sub, lam, 1.0))
    ok = functools.reduce(operator.and_, (l >= -1e-10 for l in lam))
    outside = ~np.any(ok, axis=1)
    if np.any(outside):
        raise ValueError(f"point {points[np.argmax(outside)]} outside domain")
    c = np.argmax(ok, axis=1)
    lam = np.clip(np.column_stack([l[np.arange(len(c)), c] for l in lam]), 0.0, 1.0)
    return c, lam / lam.sum(axis=1, keepdims=True)


def _finite(values) -> np.ndarray:
    """``values`` as a flat float array, empty unless every entry is a finite number."""
    try:
        a = np.ravel(np.asarray(values, dtype=float))
    except (TypeError, ValueError):
        return np.empty(0)
    return a if np.all(np.isfinite(a)) else np.empty(0)


def _check_spec(spec: ProblemSpec) -> None:
    """Check the domain and anomaly fields, naming the problem-file section of
    a bad one; `build_problem` checks the receivers and `build_source` the source."""
    d = spec.dimension
    _require(d in (1, 2), f"[domain] dimension must be 1 or 2, got {d}")
    _require(_finite(spec.extent).size == 2 * d, f"[domain] extent needs {2 * d} finite numbers")
    cells = _finite(spec.n_cells)
    _require(cells.size == d and np.all((cells >= 1) & (cells % 1 == 0)),
             f"[domain] cells needs {d} positive whole numbers")
    for name, x in [("kappa", spec.kappa), ("sigma_background", spec.sigma_background)]:
        _require(_finite(x).size == 1 and x > 0, f"[domain] {name} must be a finite number > 0")
    _require(spec.bc in ("dirichlet", "neumann"),
             f"[domain] bc must be dirichlet or neumann, got {spec.bc!r}")
    for a in spec.anomalies:
        _require(_finite(a.box).size == 2 * d,
                 f"[anomaly.{a.name}] box needs {2 * d} finite numbers")
        _require(_finite(a.sigma).size == 1 and a.sigma > 0,
                 f"[anomaly.{a.name}] sigma must be a finite number > 0")


def build_problem(spec: ProblemSpec) -> Problem:
    """Assemble K, Q, f and the per-cell mass structure for one spec.

    Homogeneous Dirichlet boundaries are handled by eliminating boundary
    DOFs; a 'neumann' bc keeps every node (K then annihilates constants).
    """
    _check_spec(spec)
    d = spec.dimension
    counts = [int(n) for n in spec.n_cells]
    box = np.reshape(spec.extent, (d, 2))
    if spec.bc == "dirichlet" and not np.all(box[:, 0] < box[:, 1]):  # neumann may mirror
        raise ValueError(f"dirichlet extent {tuple(spec.extent)} needs lo < hi on every axis")
    grid = _box_grid(box, counts, spec.bc)

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
    if receivers.size == 0:
        raise ValueError("[receivers] needs a grid or positions with at least one receiver point")
    _require(receivers.shape[1] == d,
             f"[receivers] points need {d} coordinates, got {receivers.shape[1]}")
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


def dM_contract(problem: Problem, model: Model, g: np.ndarray) -> sp.csc_matrix:
    """Mass-derivative tensor contracted with g: column c holds
    exp(m_c) * (M_c g) on the cell-c DOFs, shape (N, P)."""
    return dM_transpose_blocks(problem, model, np.asarray(g)[None]).T


def dM_transpose_blocks(problem: Problem, model: Model, G: np.ndarray) -> sp.csr_matrix:
    """blockdiag(dM_contract(problem, model, g)^T for g in the rows of G),
    shape (s P, s N) for s rows: row c of block i holds exp(m_c) * (M_c g_i)
    on the cell-c DOFs in ascending order, so a product with it (or with its
    CSC transpose) adds the same terms in the same order for any grouping of
    the rows, and matches the per-row products bit for bit."""
    dofs = problem.cell_dofs
    order = np.argsort(dofs, axis=1, kind="stable")
    sorted_dofs = np.take_along_axis(dofs, order, axis=1)
    keep = sorted_dofs >= 0
    N, s = problem.dof_count, len(G)
    exp_m = np.exp(model.m)[:, None]
    local = (np.einsum("pij,pj->pi", problem.mass_local,
                       np.where(dofs >= 0, g[np.maximum(dofs, 0)], 0.0)) * exp_m for g in G)
    data = np.concatenate([np.take_along_axis(a, order, axis=1)[keep] for a in local])
    indices = (sorted_dofs[keep] + N * np.arange(s)[:, None]).ravel()
    indptr = np.concatenate(([0], np.cumsum(np.tile(keep.sum(axis=1), s))))
    return sp.csr_matrix((data, indices, indptr), shape=(s * dofs.shape[0], s * N))


def build_source(problem: Problem, source: SourceSpec) -> np.ndarray:
    """Assemble the source vector for a box or delta footprint."""
    grid = problem.grid
    dim = grid.dimension
    if source.kind == "delta":
        position = _finite(source.position)
        _require(position.size == dim, f"[source] a delta position needs {dim} finite coordinates")
        c, wts = _interp_rows(grid, position[None, :])
        dofs = problem.cell_dofs[c]
        vals = source.amplitude * wts
    elif source.kind == "box":
        center, size = _finite(source.center), _finite(source.size)
        for name, a in [("center", center), ("size", size)]:
            _require(a.size in (1, dim), f"[source] a box {name} needs 1 or {dim} finite numbers")
        center, half = np.broadcast_to(center, dim), np.broadcast_to(0.5 * size, dim)
        inside = _in_box(grid.cell_centroids(), np.column_stack([center - half, center + half]))
        if source.amplitude != 0.0 and not np.any(inside):
            raise ValueError("source footprint does not intersect the domain")
        dofs = problem.cell_dofs[inside]
        # integral of each hat over its cell is measure / k
        contrib = source.amplitude * grid.cell_measure[inside] / dofs.shape[1]
        vals = np.broadcast_to(contrib[:, None], dofs.shape)
    else:
        raise ValueError(f"[source] type must be box or delta, got {source.kind!r}")
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
    w = la.eigh(problem.stiff_local, np.exp(model.m)[:, None, None] * problem.mass_local,
                eigvals_only=True)
    return float(w[:, -1].max(initial=0.0))


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


# each problem-file section's keys, with the spec field and parser of each spec key
_FILE_KEYS = {
    "domain": {"dimension": ("dimension", int), "extent": ("extent", _floats),
               "cells": ("n_cells", _floats), "kappa": ("kappa", float),
               "sigma_background": ("sigma_background", float), "bc": ("bc", str)},
    "source": {"type": ("kind", str), "center": ("center", _floats), "size": ("size", _floats),
               "position": ("position", _floats), "amplitude": ("amplitude", float)},
    "receivers": ("grid", "positions"),
    "anomaly": ("box", "sigma"),
}


def _parsed(section, key: str, parse):
    """``section[key]`` through ``parse``, None if the section lacks ``key``; a
    value that does not parse raises a ValueError naming its section and key."""
    if key not in section:
        return None
    try:
        return parse(section[key])
    except ValueError as exc:
        raise ValueError(f"[{section.name}] {key}: {exc}") from None


def _spec_fields(section, keys: dict) -> dict:
    """The spec fields that ``section`` gives, parsed; the others keep their defaults."""
    return {name: _parsed(section, key, parse) for key, (name, parse) in keys.items()
            if key in section}


def _receiver_grid(text: str) -> np.ndarray:
    vals = _floats(text)
    _require(vals and len(vals) % 3 == 0 and all(n.is_integer() for n in vals[2::3]),
             f"needs start stop count per axis, with whole counts, got {text!r}")
    return _lattice([np.linspace(a, b, int(n)) for a, b, n in np.reshape(vals, (-1, 3))])


def _points(text: str, d: int) -> np.ndarray:
    vals = _floats(text)
    _require(len(vals) % d == 0,
             f"needs whole {d}-coordinate points, got {len(vals)} numbers")
    return np.reshape(vals, (-1, d))


def parse_problem_file(path) -> ProblemSpec:
    """Read the documented key-value problem format (see README): inline
    ``#`` comments, no unknown section or key, and a key left out takes
    the default of its `ProblemSpec` or `SourceSpec` field."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        cp.read_file(fh)
    for section in cp.sections():
        keys = _FILE_KEYS.get("anomaly" if section.partition(".")[0] == "anomaly" else section)
        _require(keys is not None, f"unknown section [{section}]")
        for key in cp[section]:
            _require(key in keys, f"[{section}] unknown key {key!r}")

    domain = ProblemSpec(**_spec_fields(cp["domain"], _FILE_KEYS["domain"]))
    _check_spec(domain)             # before the receiver points are read in its dimension
    receivers = np.zeros((0, domain.dimension))
    if cp.has_section("receivers"):
        rc = cp["receivers"]
        if "grid" in rc:
            receivers = _parsed(rc, "grid", _receiver_grid)
        elif "positions" in rc:
            receivers = _parsed(rc, "positions", lambda text: _points(text, domain.dimension))

    source = SourceSpec()
    if cp.has_section("source"):
        source = SourceSpec(**_spec_fields(cp["source"], _FILE_KEYS["source"]))

    anomalies = tuple(AnomalySpec(box=_parsed(cp[section], "box", _floats),
                                  sigma=_parsed(cp[section], "sigma", float),
                                  name=section.partition(".")[2])
                      for section in cp.sections() if section.partition(".")[0] == "anomaly")
    return replace(domain, receivers=receivers, source=source, anomalies=anomalies)
