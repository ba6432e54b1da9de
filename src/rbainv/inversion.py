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
from .shifted import ShiftedFactorCache, factorize_all_poles, solve_all_poles
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
# relative decrease of phi below which lambda is halved
COOLING_TOL = 1e-3
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
    nu: int = 0
    phi: float = np.nan
    chi2: float = np.nan
    history: list = field(default_factory=list)
    diagnostic: str = ""
    counters: dict = field(default_factory=dict)
    d_pred: np.ndarray | None = None    # predicted data at ``model``


@dataclass
class LineSearchResult:
    eta: float
    accepted: bool
    phi: float
    n_evals: int


def chi_squared(data: DataSet, d_pred: np.ndarray) -> float:
    """Weighted misfit normalized by the total datum count."""
    if d_pred.size != data.size:
        raise ValueError("prediction length does not match data")
    r = data.weights * (d_pred - data.d_obs)
    return float(r @ r) / data.size


def default_lambda0(problem: Problem, data: DataSet, reg: RegOperator,
                    d_start: np.ndarray, model: Model) -> float:
    """Starting weight balancing the misfit against the smoothness term.

    R vanishes at m_ref itself, so its scale is probed with a deterministic
    rough perturbation one conductivity decade in amplitude.  When the
    starting misfit is many times the noise level this balance point is
    deliberately conservative (strongly smoothing); pass an explicit
    lambda0 to shorten the cooling path.
    """
    misfit = float(np.sum((data.weights * (d_start - data.d_obs)) ** 2))
    pert = np.log(10.0) * np.sin(np.arange(model.cell_count, dtype=float))
    r_pert, _ = reg_value_grad(reg, Model(model.m_ref + pert, model.m_ref))
    return misfit / max(1.0, 2.0 * r_pert)


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

    def matvec(v):
        return np.concatenate([W * opr.jvp(v), sql * (R @ v)])

    def rmatvec(u):
        return opr.vjp(W * u[:n_data]) + sql * (R.T @ u[n_data:])

    op = spla.LinearOperator((n_data + P, P), matvec=matvec, rmatvec=rmatvec,
                             dtype=float)
    b = -np.concatenate([W * (d_pred - data.d_obs),
                         sql * (R @ (model.m - model.m_ref))])
    x, istop, itn, *_ = spla.lsqr(op, b, atol=lsqr_cfg.tol, btol=lsqr_cfg.tol,
                                  iter_lim=lsqr_cfg.max_iters)
    return x, int(itn), int(istop)


def line_search(phi0: float, directional_slope: float, phi_evaluator) -> LineSearchResult:
    """Backtracking Armijo search from eta = 1 with halving down to
    ``ETA_MIN``; after the first rejected step it tries one
    quadratic-interpolation candidate, which must itself satisfy the Armijo
    inequality."""
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
                if eta_q < eta:
                    phi_q = phi_evaluator(eta_q)
                    n_evals += 1
                    if phi_q <= phi0 + ARMIJO_C1 * eta_q * directional_slope:
                        return LineSearchResult(eta_q, True, phi_q, n_evals)
        eta *= 0.5
    return LineSearchResult(ETA_MIN, False, phi0, n_evals)


def run_inversion(problem: Problem, data: DataSet, approx: RationalApproximant,
                  cfg: InversionConfig | None = None) -> InversionState:
    """Full Gauss-Newton loop with cooling; history rows carry everything
    needed to replay the objective and the Armijo bookkeeping."""
    cfg = cfg or InversionConfig()
    with ShiftedFactorCache(cfg.workers) as cache:
        return _gauss_newton(problem, data, approx, cfg, cache)


def _gauss_newton(problem: Problem, data: DataSet, approx: RationalApproximant,
                  cfg: InversionConfig, cache: ShiftedFactorCache) -> InversionState:
    reg = build_reg(problem.grid)
    model = problem.reference_model()
    W = data.weights
    n_data = data.size

    def forward_at(mdl: Model):
        g = solve_all_poles(problem, mdl, approx, problem.f, cache)
        d, _ = response_from_pole_solutions(problem, approx, g)
        mis = 0.5 * float(np.sum((W * (d - data.d_obs)) ** 2))
        rv, _ = reg_value_grad(reg, mdl)
        return g, d, mis, rv

    g, d_pred, misfit, reg_val = forward_at(model)
    lam = cfg.lambda0 if cfg.lambda0 is not None else default_lambda0(
        problem, data, reg, d_pred, model)
    lam_min = lam * LAMBDA_MIN_FACTOR
    phi = misfit + lam * reg_val
    chi2 = 2.0 * misfit / n_data

    state = InversionState(model=model, lam=lam, phi=phi, chi2=chi2)
    increase_streak = 0

    for nu in range(1, cfg.max_gn + 1):
        if chi2 <= cfg.chi2_target:
            state.diagnostic = "chi2 target reached"
            break
        t0 = time.perf_counter()
        counters0 = cache.counters.snapshot()

        opr = JacobianOperator(problem, model, approx, cache, pole_solutions=g)
        residual = d_pred - data.d_obs
        grad = opr.vjp(W * W * residual) + lam * (reg.L @ (model.m - model.m_ref))
        dm, lsqr_iters, istop = gn_step(opr, reg, data, d_pred, model, lam, cfg.lsqr)
        del opr                        # free its contraction blocks before the next one is built
        slope = float(grad @ dm)

        evals: dict[float, tuple] = {}

        def phi_eval(eta: float) -> float:
            trial = Model(model.m + eta * dm, model.m_ref)
            out = forward_at(trial)
            evals[eta] = (trial, out)
            return out[2] + lam * out[3]

        ls = line_search(phi, slope, phi_eval)
        if not ls.accepted:
            # the trials replaced the factors of the model the next operator is built at
            factorize_all_poles(problem, model, approx, cache)
        wall_ms = (time.perf_counter() - t0) * 1e3
        counters1 = cache.counters.snapshot()

        phi_before = phi
        if ls.accepted:
            model, (g, d_pred, misfit, reg_val) = evals[ls.eta]
            state.model = model
            new_phi = misfit + lam * reg_val
            chi2 = 2.0 * misfit / n_data
            increase_streak = increase_streak + 1 if new_phi > phi else 0
            rel_decrease = (phi - new_phi) / max(abs(phi), 1e-300)
            phi = new_phi
        else:
            rel_decrease = 0.0

        state.history.append(IterationRecord(
            nu=nu, phi=phi, misfit=misfit, reg_value=reg_val, chi2=chi2, lam=lam,
            eta=ls.eta if ls.accepted else 0.0, accepted=ls.accepted,
            lsqr_iters=lsqr_iters, lsqr_istop=istop, wall_ms=wall_ms,
            factorizations=counters1["factorizations"] - counters0["factorizations"],
            solves=counters1["solves"] - counters0["solves"],
            phi_evals=ls.n_evals, phi_before=phi_before, directional_slope=slope))
        state.nu, state.phi, state.chi2, state.lam = nu, phi, chi2, lam

        if increase_streak >= 3:
            state.diagnostic = "divergence guard: objective rose on 3 consecutive accepted steps"
            break
        if not ls.accepted or rel_decrease < COOLING_TOL:
            lam *= 0.5
            if lam < lam_min:
                state.diagnostic = "lambda floor reached"
                state.lam = lam
                break
            phi = misfit + lam * reg_val
            state.lam = lam
            state.phi = phi
    else:
        state.diagnostic = state.diagnostic or "max Gauss-Newton iterations"

    if chi2 <= cfg.chi2_target:
        state.diagnostic = "chi2 target reached"
    state.d_pred = d_pred
    state.counters.update(cache.counters.snapshot())
    return state
