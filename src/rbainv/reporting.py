"""Run reports, timing model fits, scaling benchmarks and rundir exports."""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .inversion import InversionState, IterationRecord
from .mesh import Model, Problem
from .rba import RationalApproximant
from .sensitivity import JacobianOperator
from .shifted import ShiftedFactorCache, factorize_all_poles, solve_all_poles
from .synthetic import DataSet

__all__ = [
    "TimingModel",
    "RunReport",
    "fit_timing_model",
    "scaling_benchmark",
    "pole_solution_checksum",
    "write_run_artifacts",
    "consolidate_report",
]

# solve-all passes per worker count in `scaling_benchmark`
SOLVE_REPEATS = 4


@dataclass
class TimingModel:
    intercept: float
    slope: float
    r_squared: float
    defined: bool = True


@dataclass
class RunReport:
    iterations: list
    timing: TimingModel | None
    counters: dict

    def to_json(self) -> dict:
        doc = {
            "iterations": self.iterations,
            "counters": self.counters,
        }
        if self.timing is not None:
            doc["timing_model"] = {
                "intercept_ms": self.timing.intercept,
                "ms_per_lsqr_iteration": self.timing.slope,
                "r_squared": self.timing.r_squared,
                "defined": self.timing.defined,
            }
        return doc


def fit_timing_model(history) -> TimingModel:
    """Ordinary least squares of per-iteration wall time against LSQR
    iteration count; flags the degenerate all-equal-counts case."""
    rows = [(r.lsqr_iters, r.wall_ms) if hasattr(r, "lsqr_iters")
            else (r["lsqr_iters"], r["wall_ms"]) for r in history]
    if len(rows) < 3:
        raise ValueError("need at least 3 iterations to fit a timing model")
    x = np.array([r[0] for r in rows], dtype=float)
    y = np.array([r[1] for r in rows], dtype=float)
    if np.all(x == x[0]):
        return TimingModel(intercept=float(np.mean(y)), slope=np.nan,
                           r_squared=np.nan, defined=False)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return TimingModel(intercept=float(intercept), slope=float(slope),
                       r_squared=r2, defined=True)


def pole_solution_checksum(g: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(g).tobytes()).hexdigest()


def scaling_benchmark(problem: Problem, model: Model, approx: RationalApproximant,
                      worker_counts) -> list[dict]:
    """Time the factorize-all and solve-all phases per worker count, and
    one `jvp` plus one `vjp` of the Jacobian at ``model`` (``jacobian_ms``).

    The solve phase solves every pole against the source vector
    ``problem.f`` ``SOLVE_REPEATS`` times and reports the mean.  Values
    (checksummed pole solutions) are bit-identical across worker counts;
    timings are host-dependent and reported as measured.
    """
    rows = []
    t1_total = None
    for w in worker_counts:
        with ShiftedFactorCache(w) as cache:
            t0 = time.perf_counter()
            factorize_all_poles(problem, model, approx, cache)
            t_fact = time.perf_counter() - t0

            t0 = time.perf_counter()
            for _ in range(SOLVE_REPEATS):
                g = solve_all_poles(problem, model, approx, problem.f, cache)
            t_solve = (time.perf_counter() - t0) / SOLVE_REPEATS

            opr = JacobianOperator(problem, model, approx, cache)
            t0 = time.perf_counter()
            opr.vjp(opr.jvp(np.ones(opr.shape[1])))
            t_jac = time.perf_counter() - t0

        total = t_fact + t_solve
        if t1_total is None:
            t1_total = total
        rows.append({
            "workers": int(w),
            "factorize_ms": t_fact * 1e3,
            "solve_ms": t_solve * 1e3,
            "jacobian_ms": t_jac * 1e3,
            "efficiency": t1_total / (w * total) if total > 0 else np.nan,
            "checksum": pole_solution_checksum(g),
        })
    return rows


def _state_doc(state: InversionState) -> dict:
    return {
        "model": state.model.m.tolist(),
        "model_ref": state.model.m_ref.tolist(),
        "lambda": state.lam,
        "phi": state.phi,
        "chi2": state.chi2,
        "iterations_run": state.nu,
        "diagnostic": state.diagnostic,
        "counters": state.counters,
        "history": [r.as_dict() for r in state.history],
    }


def write_run_artifacts(rundir, state: InversionState, data: DataSet,
                        problem: Problem, approx: RationalApproximant,
                        d_pred: np.ndarray) -> None:
    """Persist state.json plus the plot-ready CSV exports for one run.

    residual_heatmap.csv has one row per time channel and one column per
    receiver holding the weighted residuals; transients.csv is long-format
    (receiver, time, observed, predicted); convergence.csv has one row per
    history record.
    """
    out = Path(rundir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "state.json", "w") as fh:
        json.dump(_state_doc(state), fh, indent=1)

    with open(out / "convergence.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[f.name for f in fields(IterationRecord)])
        writer.writeheader()
        writer.writerows(r.as_dict() for r in state.history)

    K_t = approx.channels.count
    M_r = problem.receiver_count
    wres = (data.weights * (d_pred - data.d_obs)).reshape(K_t, M_r)
    with open(out / "residual_heatmap.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s"] + [f"rx{r}" for r in range(M_r)])
        for j in range(K_t):
            writer.writerow([approx.channels.times[j]] + wres[j].tolist())

    obs = data.d_obs.reshape(K_t, M_r)
    pred = d_pred.reshape(K_t, M_r)
    with open(out / "transients.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["receiver", "time_s", "observed", "predicted"])
        for r in range(M_r):
            for j in range(K_t):
                writer.writerow([r, approx.channels.times[j], obs[j, r], pred[j, r]])


def consolidate_report(rundir) -> RunReport:
    """Build the consolidated report from a rundir written by an inversion."""
    out = Path(rundir)
    with open(out / "state.json") as fh:
        state_doc = json.load(fh)
    history = state_doc["history"]
    timing = None
    if len(history) >= 3:
        timing = fit_timing_model(history)
    return RunReport(iterations=history, timing=timing,
                     counters=state_doc.get("counters", {}))
