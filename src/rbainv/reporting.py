"""Run reports, timing model fits and rundir exports."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .inversion import InversionState, IterationRecord
from .synthetic import DataSet

__all__ = [
    "TimingModel",
    "fit_timing_model",
    "write_run_artifacts",
    "consolidate_report",
]


@dataclass
class TimingModel:
    intercept: float
    slope: float
    r_squared: float
    defined: bool = True


def fit_timing_model(history) -> TimingModel:
    """Ordinary least squares of per-iteration wall time against LSQR
    iteration count, over history rows as ``state.json`` stores them (dicts);
    flags the degenerate all-equal-counts case."""
    if len(history) < 3:
        raise ValueError("need at least 3 iterations to fit a timing model")
    x = np.array([r["lsqr_iters"] for r in history], dtype=float)
    y = np.array([r["wall_ms"] for r in history], dtype=float)
    if np.all(x == x[0]):
        return TimingModel(intercept=float(np.mean(y)), slope=np.nan,
                           r_squared=np.nan, defined=False)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return TimingModel(intercept=float(intercept), slope=float(slope),
                       r_squared=r2, defined=True)


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


def write_run_artifacts(rundir, state: InversionState, data: DataSet) -> None:
    """Persist state.json plus the plot-ready CSV exports for one run of
    `run_inversion` on ``data``, with the predicted data ``state.d_pred``;
    the channel times and receiver count are the data's.

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

    times = data.times
    K_t, M_r = times.size, len(data.receivers)
    d_pred = state.d_pred
    wres = data.residual(d_pred).reshape(K_t, M_r)
    with open(out / "residual_heatmap.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s"] + [f"rx{r}" for r in range(M_r)])
        for j in range(K_t):
            writer.writerow([times[j]] + wres[j].tolist())

    obs = data.d_obs.reshape(K_t, M_r)
    pred = d_pred.reshape(K_t, M_r)
    with open(out / "transients.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["receiver", "time_s", "observed", "predicted"])
        for r in range(M_r):
            for j in range(K_t):
                writer.writerow([r, times[j], obs[j, r], pred[j, r]])


def _is_history_row(row) -> bool:
    return isinstance(row, dict) and all(
        type(row.get(k)) in (int, float) for k in ("lsqr_iters", "wall_ms"))


def consolidate_report(rundir) -> dict:
    """The report.json document of a rundir written by an inversion: its
    iteration history and counters, and the timing model fitted to three or
    more iterations.  Raises ValueError when ``state.json`` holds no
    ``history`` list of rows with numeric ``lsqr_iters`` and ``wall_ms``."""
    with open(Path(rundir) / "state.json") as fh:
        state_doc = json.load(fh)
    history = state_doc.get("history") if isinstance(state_doc, dict) else None
    if not (isinstance(history, list) and all(map(_is_history_row, history))):
        raise ValueError('state.json entry "history": expected a list of objects with numeric '
                         '"lsqr_iters" and "wall_ms"')
    doc = {"iterations": history, "counters": state_doc.get("counters", {})}
    if len(history) >= 3:
        t = fit_timing_model(history)
        doc["timing_model"] = {"intercept_ms": t.intercept, "ms_per_lsqr_iteration": t.slope,
                               "r_squared": t.r_squared, "defined": t.defined}
    return doc
