"""Gauss-Newton inversion: augmented LSQR updates, Armijo backtracking with a
step-length floor and a quadratic candidate, and halving-based cooling of the
regularization weight until the normalized misfit reaches its target.

The update at each iteration approximately minimizes

    | [ W_d J        ]        [ W_d (d(m) - d_obs)      ] |
    | [ sqrt(l) R    ] dm  +  [ sqrt(l) R (m - m_ref)   ] |_2

through LSQR on the stacked matrix-free operator, never forming normal
equations.  One LSQR iteration costs one jvp plus one vjp, i.e. 2m shifted
solves against the cached factorizations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .forward import response_from_pole_solutions
from .mesh import Model, Problem
from .rba import RationalApproximant
from .regularization import RegOperator, build_reg, reg_value_grad
from .sensitivity import JacobianOperator
from .shifted import ShiftedFactorCache, solve_all_poles
from .synthetic import DataSet

__all__ = [
    "LsqrConfig",
    "InversionConfig",
    "IterationRecord",
    "InversionState",
    "LineSearchResult",
    "chi_squared",
    "default_lambda0",
    "gn_step",
    "line_search",
    "run_inversion",
]

# Armijo sufficient-decrease constant of the line search
ARMIJO_C1 = 1e-4
# smallest step length the line search tries
ETA_MIN = 2.0 ** -6
# relative decrease of phi below which lambda is halved.  Near the target
# the first step at a new lambda gains 1-3% of phi and later ones far less,
# so a level ends after one or two steps, not after a near-stalled one
COOLING_TOL = 3e-2
# the loop stops once lambda falls below this fraction of its starting value
LAMBDA_MIN_FACTOR = 2.0 ** -20


@dataclass(frozen=True)
class LsqrConfig:
    tol: float = 1e-3
    max_iters: int = 50


@dataclass(frozen=True)
class InversionConfig:
    lambda0: float | None = None        # None: balance misfit and a perturbed R
    chi2_target: float = 1.0
    max_gn: int = 30
    lsqr: LsqrConfig = field(default_factory=LsqrConfig)
    workers: int = 1


@dataclass
class IterationRecord:
    nu: int
    phi: float
    misfit: float
    reg_value: float
    chi2: float
    lam: float
    eta: float
    accepted: bool
    lsqr_iters: int
    lsqr_istop: int
    wall_ms: float
    factorizations: int
    solves: int
    phi_evals: int
    phi_before: float
    directional_slope: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class InversionState:
    model: Model
    lam: float
    phi: float
    chi2: float
    history: list
    diagnostic: str
    counters: dict
    d_pred: np.ndarray                  # predicted data at ``model``

    @property
    def nu(self) -> int:
        """The number of Gauss-Newton iterations run."""
        return len(self.history)


@dataclass
class _Iterate:
    """One evaluated model with its pole solutions ``g``, predicted data,
    misfit (half the weighted misfit sum), chi^2 and R's value and gradient."""

    model: Model
    g: np.ndarray
    d_pred: np.ndarray
    misfit: float
    chi2: float
    reg_value: float
    reg_grad: np.ndarray

    def phi(self, lam: float) -> float:
        return self.misfit + lam * self.reg_value


@dataclass
class LineSearchResult:
    eta: float
    accepted: bool
    phi: float
    n_evals: int


def _misfit_sum(data: DataSet, d_pred: np.ndarray) -> float:
    """The weighted misfit sum |W (d_pred - d_obs)|^2."""
    return float(np.sum(data.residual(d_pred) ** 2))


def chi_squared(data: DataSet, d_pred: np.ndarray) -> float:
    """Weighted misfit sum normalized by the total datum count: twice the
    loop's misfit over ``data.size``."""
    if d_pred.size != data.size:
        raise ValueError("prediction length does not match data")
    return _misfit_sum(data, d_pred) / data.size


def default_lambda0(data: DataSet, reg: RegOperator, d_start: np.ndarray,
                    model: Model) -> float:
    """Starting weight balancing the misfit against the smoothness term.

    R vanishes at m_ref itself, so its scale is probed with a deterministic
    rough perturbation one conductivity decade in amplitude.  When the
    starting misfit is many times the noise level this balance point is
    deliberately conservative (strongly smoothing); pass an explicit
    lambda0 to shorten the cooling path.
    """
    pert = np.log(10.0) * np.sin(np.arange(model.cell_count, dtype=float))
    r_pert, _ = reg_value_grad(reg, Model(model.m_ref + pert, model.m_ref))
    return _misfit_sum(data, d_start) / max(1.0, 2.0 * r_pert)


def gn_step(opr: JacobianOperator, reg: RegOperator, data: DataSet,
            d_pred: np.ndarray, model: Model, lam: float,
            lsqr_cfg: LsqrConfig = LsqrConfig()):
    """One linearized update at ``model``, whose predicted data is ``d_pred``
    and whose Jacobian is ``opr``: LSQR on the stacked system.  Returns
    (dm, lsqr_iters, lsqr_istop)."""
    n_data = data.size
    P = model.cell_count
    W = data.weights
    sql = np.sqrt(lam)
    R = reg.R_factor
    Rt = R.T

    def matvec(v):
        return np.concatenate([W * opr.jvp(v), sql * (R @ v)])

    def rmatvec(u):
        return opr.vjp(W * u[:n_data]) + sql * (Rt @ u[n_data:])

    op = spla.LinearOperator((n_data + P, P), matvec=matvec, rmatvec=rmatvec,
                             dtype=float)
    b = -np.concatenate([data.residual(d_pred), sql * (R @ (model.m - model.m_ref))])
    x, istop, itn, *_ = spla.lsqr(op, b, atol=lsqr_cfg.tol, btol=lsqr_cfg.tol,
                                  iter_lim=lsqr_cfg.max_iters)
    return x, int(itn), int(istop)


def line_search(phi0: float, directional_slope: float, phi_evaluator) -> LineSearchResult:
    """Backtracking Armijo search from eta = 1 with halving down to
    ``ETA_MIN``; after the first rejected step it tries one
    quadratic-interpolation candidate, which must itself satisfy the Armijo
    inequality.  A step is accepted only at the eta evaluated last, so the
    caller need keep only its latest trial."""
    eta = 1.0
    n_evals = 0
    quad_tried = False
    while eta >= ETA_MIN:
        phi = phi_evaluator(eta)
        n_evals += 1
        if phi <= phi0 + ARMIJO_C1 * eta * directional_slope:
            return LineSearchResult(eta, True, phi, n_evals)
        if not quad_tried:
            quad_tried = True
            denom = 2.0 * (phi - phi0 - directional_slope * eta)
            if denom > 0 and directional_slope < 0:
                eta_q = -directional_slope * eta * eta / denom
                eta_q = min(max(eta_q, ETA_MIN), 0.9 * eta)
                phi_q = phi_evaluator(eta_q)
                n_evals += 1
                if phi_q <= phi0 + ARMIJO_C1 * eta_q * directional_slope:
                    return LineSearchResult(eta_q, True, phi_q, n_evals)
        eta *= 0.5
    return LineSearchResult(ETA_MIN, False, phi0, n_evals)


def run_inversion(problem: Problem, data: DataSet, approx: RationalApproximant,
                  cfg: InversionConfig | None = None) -> InversionState:
    """Full Gauss-Newton loop with cooling; history rows carry everything
    needed to replay the objective and the Armijo bookkeeping.  On every
    exit ``phi == misfit + lam * reg_value`` at the returned model and
    ``chi2 == chi_squared(data, d_pred)``.  Inputs that do not belong
    together (`DataSet.mismatch`) raise ValueError before any work."""
    mismatch = data.mismatch(problem, approx)
    if mismatch is not None:
        raise ValueError(mismatch)
    cfg = cfg or InversionConfig()
    reg = build_reg(problem.grid)
    W = data.weights
    history: list[IterationRecord] = []
    with ShiftedFactorCache(cfg.workers) as cache:

        def evaluate(mdl: Model) -> _Iterate:
            g = solve_all_poles(problem, mdl, approx, problem.f, cache)
            d = response_from_pole_solutions(problem, approx, g)
            s = _misfit_sum(data, d)
            return _Iterate(mdl, g, d, 0.5 * s, s / data.size, *reg_value_grad(reg, mdl))

        cur = evaluate(problem.reference_model())
        lam = cfg.lambda0 if cfg.lambda0 is not None else default_lambda0(
            data, reg, cur.d_pred, cur.model)
        lam_min = lam * LAMBDA_MIN_FACTOR
        increase_streak = 0
        diagnostic = "max Gauss-Newton iterations"

        while len(history) < cfg.max_gn and cur.chi2 > cfg.chi2_target:
            t0 = time.perf_counter()
            counters0 = cache.counters.snapshot()
            phi_before = cur.phi(lam)

            opr = JacobianOperator(problem, cur.model, approx, cache, pole_solutions=cur.g)
            grad = opr.vjp(W * W * (cur.d_pred - data.d_obs)) + lam * cur.reg_grad
            dm, lsqr_iters, istop = gn_step(opr, reg, data, cur.d_pred, cur.model, lam,
                                            cfg.lsqr)
            slope = float(grad @ dm)

            trial = None

            def phi_eval(eta: float) -> float:
                nonlocal trial
                trial = evaluate(Model(cur.model.m + eta * dm, cur.model.m_ref))
                return trial.phi(lam)

            ls = line_search(phi_before, slope, phi_eval)
            if ls.accepted:
                cur = trial
            wall_ms = (time.perf_counter() - t0) * 1e3
            counters1 = cache.counters.snapshot()

            phi = cur.phi(lam)
            rel_decrease = 0.0
            if ls.accepted:
                increase_streak = increase_streak + 1 if phi > phi_before else 0
                rel_decrease = (phi_before - phi) / max(abs(phi_before), 1e-300)

            history.append(IterationRecord(
                nu=len(history) + 1, phi=phi, misfit=cur.misfit, reg_value=cur.reg_value,
                chi2=cur.chi2, lam=lam, eta=ls.eta if ls.accepted else 0.0, accepted=ls.accepted,
                lsqr_iters=lsqr_iters, lsqr_istop=istop, wall_ms=wall_ms,
                factorizations=counters1["factorizations"] - counters0["factorizations"],
                solves=counters1["solves"] - counters0["solves"],
                phi_evals=ls.n_evals, phi_before=phi_before, directional_slope=slope))

            if increase_streak >= 3:
                diagnostic = "divergence guard: objective rose on 3 consecutive accepted steps"
                break
            if not ls.accepted or rel_decrease < COOLING_TOL:
                lam *= 0.5
                if lam < lam_min:
                    diagnostic = "lambda floor reached"
                    break

        if cur.chi2 <= cfg.chi2_target:
            diagnostic = "chi2 target reached"
        return InversionState(model=cur.model, lam=lam, phi=cur.phi(lam),
                              chi2=cur.chi2, history=history, diagnostic=diagnostic,
                              counters=cache.counters.snapshot(), d_pred=cur.d_pred)
