"""The workloads: set-up, one timed operation, and output checks.

A workload's `setup(seed, workdir, ledger)` builds its inputs;
`op(inputs, workdir, ledger, workers)` runs the timed operation once and
returns its timings, the exact counters the program reported, and values
the checks produced.  Every CLI command is one operation in the `Ledger`;
an operation fails when it raises or an output check on it fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import rbainv as rb
from rbainv import cli

PROBLEM_INI = """\
[domain]
dimension = 2
extent = -60 60 -60 60
cells = {cells} {cells}
kappa = 1e5
sigma_background = 0.1
bc = dirichlet

[source]
type = box
center = 0 0
size = 40 40
amplitude = 1.0

[receivers]
grid = -45 45 7 -45 45 7

[anomaly.cond]
box = -40 -10 -40 -10
sigma = 1.0

[anomaly.res]
box = 10 40 10 40
sigma = 0.01
"""

TIMES = "-6:-3:31"
POLES = "21"
# approximant interval: 30x the reference model's spectral bound, as the
# README advises for a fit reused across inversion iterates
XMAX_FACTOR = 30.0

DIAGNOSTICS = {
    "chi2 target reached",
    "max Gauss-Newton iterations",
    "lambda floor reached",
    "divergence guard: objective rose on 3 consecutive accepted steps",
}

# acceptance criterion 7: pins for seed 1234 and the limits for any seed
PIN_SEED = 1234
PINS = {"chi2": (1.038589, 0.1), "cond": (0.954602, 0.15), "res": (-0.862212, 0.15)}
COND_BOX = (-40, -10, -40, -10)
RES_BOX = (10, 40, 10, 40)

class SetupError(RuntimeError):
    """The workload's inputs could not be built."""


@dataclass
class Ledger:
    """Operations attempted and failed; `scope` names the set-up or timed
    operation in progress, so that a key is one operation of one pass."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    scope: str = ""

    def begin(self, key: str) -> str:
        self.attempted += 1
        return key

    def fail(self, key: str, why: str) -> None:
        key = f"{self.scope}{key}"
        self.failed_ops.add(key)
        self.problems.append(f"{key}: {why}")
        print(f"check failed: {key}: {why}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


@dataclass
class OpResult:
    seconds: dict
    counts: dict
    values: dict = field(default_factory=dict)


def run_cli(ledger: Ledger, key: str, argv: list[str]) -> float | None:
    """One CLI command through `rbainv.cli.main`; its wall time or None."""
    ledger.begin(key)
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        traceback.print_exc(file=sys.stderr)
        ledger.fail(key, f"raised {exc!r}")
        return None
    elapsed = perf_counter() - t0
    if code != 0:
        ledger.fail(key, f"exit code {code}")
        return None
    return elapsed


def write_problem(workdir: Path, cells: int) -> tuple[Path, rb.Problem, float]:
    """Problem file, the problem built from it, and the approximant's x_max."""
    ini = workdir / f"problem{cells}.ini"
    ini.write_text(PROBLEM_INI.format(cells=cells))
    problem = rb.build_problem(rb.parse_problem_file(ini))
    xmax = XMAX_FACTOR * rb.spectral_bound(problem, problem.reference_model())
    return ini, problem, xmax


def fit(ledger: Ledger, key: str, xmax: float, out: Path) -> float | None:
    return run_cli(ledger, key, ["fit-rba", "--times-log10", TIMES, "--poles", POLES,
                                 "--xmax", repr(xmax), "--out", out])


def check_fit(ledger: Ledger, key: str, path: Path) -> None:
    """The fit's stated accuracy holds on a refined grid (as in test_rba)."""
    approx = rb.load_approximant(path)
    report = rb.validate_fit(approx, 4001)
    if not (approx.fit_error < 1e-6 and report.max_abs <= 2.0 * approx.fit_error):
        ledger.fail(key, f"fit_error {approx.fit_error:.3e}, "
                         f"validate_fit max {report.max_abs:.3e}")


def check_dataset(ledger: Ledger, key: str, path: Path, problem: rb.Problem) -> None:
    data = rb.load_dataset(path)
    expected = 31 * problem.receiver_count
    if data.size != expected or not np.all(np.isfinite(data.d_obs)):
        ledger.fail(key, f"dataset of {data.size} data, expected {expected} finite")


def read_inversion(ledger: Ledger, key: str, rundir: Path) -> dict:
    """state.json of one `invert`, with its diagnostic checked."""
    state = json.loads((rundir / "state.json").read_text())
    if state["diagnostic"] not in DIAGNOSTICS:
        ledger.fail(key, f"unknown diagnostic {state['diagnostic']!r}")
    if not np.isfinite(state["chi2"]):
        ledger.fail(key, "chi2 is not finite")
    return state


def inversion_counts(state: dict) -> dict:
    hist = state["history"]
    return {
        "factorizations": state["counters"]["factorizations"],
        "solves": state["counters"]["solves"],
        "gn_iters": len(hist),
        "lsqr_iters": sum(r["lsqr_iters"] for r in hist),
        "phi_evals": sum(r["phi_evals"] for r in hist),
    }


def report_step(ledger: Ledger, key: str, rundir: Path, state: dict) -> float | None:
    elapsed = run_cli(ledger, key, ["report", "--rundir", rundir])
    if elapsed is not None:
        doc = json.loads((rundir / "report.json").read_text())
        if len(doc["iterations"]) != len(state["history"]):
            ledger.fail(key, "report iterations differ from state.json history")
    return elapsed


def chi2_excess(state: dict, target: float = 1.0) -> float:
    return max(0.0, state["chi2"] - target)


class Roundtrip:
    """fit-rba -> make-data -> invert -> report on the 16x16 testbed."""

    name = "roundtrip-16x16"
    cells = 16

    def setup(self, seed: int, workdir: Path, ledger: Ledger) -> dict:
        ini, problem, xmax = write_problem(workdir, self.cells)
        return {"seed": seed, "ini": ini, "problem": problem, "xmax": xmax}

    def check_setup(self, inputs: dict, ledger: Ledger) -> None:
        """Nothing to check: set-up runs no command."""

    def op(self, inputs: dict, workdir: Path, ledger: Ledger, workers: int) -> OpResult:
        ini, seed = inputs["ini"], inputs["seed"]
        approx, data, rundir = workdir / "approx.json", workdir / "data.json", workdir / "run"
        t = {}
        t["fit_s"] = fit(ledger, "fit-rba", inputs["xmax"], approx)
        if t["fit_s"] is None:
            return self._abandon(ledger, 3)
        check_fit(ledger, "fit-rba", approx)
        t["make_data_s"] = run_cli(ledger, "make-data", [
            "make-data", "--problem", ini, "--approx", approx, "--eps-r", "0.03",
            "--seed", seed, "--out", data])
        if t["make_data_s"] is None:
            return self._abandon(ledger, 2)
        check_dataset(ledger, "make-data", data, inputs["problem"])
        t["invert_s"] = run_cli(ledger, "invert", [
            "invert", "--problem", ini, "--data", data, "--approx", approx,
            "--lambda0", "100", "--chi2-target", "1", "--max-gn", "30",
            "--workers", workers, "--out", rundir])
        if t["invert_s"] is None:
            return self._abandon(ledger, 1)
        state = read_inversion(ledger, "invert", rundir)
        self._criterion_7(ledger, inputs, state)
        t["report_s"] = report_step(ledger, "report", rundir, state)
        if t["report_s"] is None:
            return OpResult({}, {})
        t["roundtrip_s"] = sum(t.values())
        return OpResult(t, inversion_counts(state), {"chi2_excess": chi2_excess(state)})

    @staticmethod
    def _abandon(ledger: Ledger, skipped: int) -> OpResult:
        """Commands that could not run after a failed one count as failed."""
        for k in range(skipped):
            ledger.fail(ledger.begin(f"skipped-{k}"), "an earlier command failed")
        return OpResult({}, {})

    @staticmethod
    def _criterion_7(ledger: Ledger, inputs: dict, state: dict) -> None:
        problem = inputs["problem"]
        m = np.asarray(state["model"])
        cen = problem.grid.cell_centroids()
        bg = np.log10(problem.spec.sigma_background)

        def contrast(box):
            inside = ((cen[:, 0] >= box[0]) & (cen[:, 0] <= box[1])
                      & (cen[:, 1] >= box[2]) & (cen[:, 1] <= box[3]))
            return float(np.mean(m[inside])) * np.log10(np.e) - bg

        got = {"chi2": state["chi2"], "cond": contrast(COND_BOX), "res": contrast(RES_BOX)}
        ok = (got["chi2"] <= 1.2 and state["iterations_run"] <= 30
              and got["cond"] >= 0.5 and got["res"] <= -0.1)
        if inputs["seed"] == PIN_SEED:
            ok = ok and all(abs(got[k] - pin) <= tol for k, (pin, tol) in PINS.items())
        if not ok:
            ledger.fail("invert", "criterion 7: " + ", ".join(
                f"{k} {v:+.4f}" for k, v in got.items()))


class Invert48:
    """`invert` alone on a 48x48 grid; approximant and data come from set-up."""

    name = "invert-48x48"
    cells = 48

    def setup(self, seed: int, workdir: Path, ledger: Ledger) -> dict:
        ini, problem, xmax = write_problem(workdir, self.cells)
        approx, data = workdir / "approx.json", workdir / "data.json"
        fit_s = fit(ledger, "fit-rba", xmax, approx)
        make_data_s = None
        if fit_s is not None:
            make_data_s = run_cli(ledger, "make-data", [
                "make-data", "--problem", ini, "--approx", approx, "--eps-r", "0.03",
                "--seed", seed, "--out", data])
        if ledger.failed:
            raise SetupError("; ".join(ledger.problems))
        return {"ini": ini, "problem": problem, "approx": approx, "data": data,
                "seconds": {"fit_s": fit_s, "make_data_s": make_data_s}}

    def check_setup(self, inputs: dict, ledger: Ledger) -> None:
        check_fit(ledger, "fit-rba", inputs["approx"])
        check_dataset(ledger, "make-data", inputs["data"], inputs["problem"])

    def op(self, inputs: dict, workdir: Path, ledger: Ledger, workers: int) -> OpResult:
        rundir = workdir / "run"
        invert_s = run_cli(ledger, "invert", [
            "invert", "--problem", inputs["ini"], "--data", inputs["data"],
            "--approx", inputs["approx"], "--lambda0", "100", "--max-gn", "10",
            "--workers", workers, "--out", rundir])
        if invert_s is None:
            return OpResult({}, {})
        state = read_inversion(ledger, "invert", rundir)
        report_s = report_step(ledger, "report", rundir, state)
        if report_s is None:
            return OpResult({}, {})
        return OpResult({"invert_s": invert_s, "report_s": report_s},
                        inversion_counts(state), {"chi2_excess": chi2_excess(state)})


WORKLOADS = {w.name: w for w in (Roundtrip(), Invert48())}
