"""Batch command line interface.

Subcommands: fit-rba, forward, verify, make-data, invert, report.
All outputs are JSON/CSV; plotting is left to external tooling.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from . import (FitConfig, InversionConfig, LsqrConfig, Model, NoiseSpec,
               PoleWorkerPool, ShiftedFactorCache, TimeChannels, adjoint_test,
               build_problem, consolidate_report, default_worker_count,
               fit_common_pole, forward_response, JacobianOperator,
               load_approximant, load_dataset, make_dataset, parse_problem_file,
               run_inversion, save_approximant, save_dataset, taylor_test,
               write_run_artifacts)
from .pool import parse_worker_count
from .rba import json_entry


class UsageError(Exception):
    """Bad command input found after parsing; `main` reports it as one
    error line and exit status 2."""


def _parse_times(text: str) -> TimeChannels:
    """'-6:-3:31' -> 31 log-spaced times between 1e-6 and 1e-3 seconds."""
    lo, hi, count = text.split(":")
    return TimeChannels.logspaced(10.0 ** float(lo), 10.0 ** float(hi), int(count))


def _load(option: str, load, path):
    """``load(path)``, with a missing, malformed or unusable path reported
    as a usage error that names ``option``."""
    try:
        return load(path)
    except KeyError as exc:
        raise UsageError(f"argument {option}: {path}: missing entry {exc}") from None
    except (OSError, ValueError, configparser.Error) as exc:
        reason = " ".join(str(exc).splitlines())
        raise UsageError(f"argument {option}: {path}: {reason}") from None


def _make_out_parent(path) -> None:
    """Make the directory that will hold the ``--out`` file before the
    command's work, so that an unusable path fails first, as a usage error."""
    def make(p):
        Path(p).parent.mkdir(parents=True, exist_ok=True)
        if Path(p).is_dir():
            raise IsADirectoryError("is a directory")

    _load("--out", make, path)


def _load_problem(path):
    return _load("--problem", lambda p: build_problem(parse_problem_file(p)), path)


def _load_model(problem, path: str | None) -> Model:
    if path == "true":
        return problem.true_model()
    ref = problem.reference_model()
    if path is None:
        return ref
    m = _load("--model", lambda p: json_entry(json.loads(Path(p).read_text()), "m", ref.m.shape),
              path)
    return Model(m, ref.m_ref)


def cmd_fit_rba(args) -> int:
    if not args.xmin < args.xmax < np.inf:
        raise UsageError(f"argument --xmax: expected a finite number > --xmin "
                         f"({args.xmin:g}), got {args.xmax:g}")
    _make_out_parent(args.out)
    cfg = FitConfig(max_iters=args.max_iters)
    with PoleWorkerPool(args.workers) as pool:
        approx = fit_common_pole(args.times_log10, (args.xmin, args.xmax), args.poles,
                                 cfg, pool)
    save_approximant(approx, args.out)
    print(f"fit {args.poles} poles over [{args.xmin:g}, {args.xmax:g}]: "
          f"max abs error {approx.fit_error:.3e} "
          f"({approx.iterations} iterations, converged={approx.converged})")
    for k, (err, move) in enumerate(approx.history, 1):
        print(f"  iteration {k}: max abs error {err:.3e}, pole move {move:.2e}")
    return 0


def cmd_forward(args) -> int:
    problem = _load_problem(args.problem)
    model = _load_model(problem, args.model)
    approx = _load("--approx", load_approximant, args.approx)
    _make_out_parent(args.out)
    with ShiftedFactorCache(args.workers) as cache:
        data = forward_response(problem, model, approx, cache)
    doc = {
        "data": data.tolist(),
        "times": approx.channels.times.tolist(),
        "receivers": problem.receivers.tolist(),
        "counters": cache.counters.snapshot(),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    print(f"forward response: {data.size} data "
          f"({cache.counters.factorizations} factorizations)")
    return 0


def cmd_verify(args) -> int:
    problem = _load_problem(args.problem)
    model = _load_model(problem, args.model)
    approx = _load("--approx", load_approximant, args.approx)
    _make_out_parent(args.out)

    rng = np.random.default_rng(args.seed)
    direction = rng.standard_normal(problem.grid.cell_count)
    direction /= np.max(np.abs(direction))
    h_values = 10.0 ** np.arange(-1, -6, -1, dtype=float)
    with ShiftedFactorCache(args.workers) as cache:
        opr = JacobianOperator(problem, model, approx, cache)
        # first: the Taylor trials replace the operator's factors, so after
        # them its first action would refactorize (7m factorizations, not 6m)
        mismatch = adjoint_test(opr, trials=args.trials, seed=args.seed)
        taylor = taylor_test(opr, direction, h_values)

    out = Path(args.out)
    doc = {
        "taylor": {
            "h": taylor.h_values.tolist(),
            "e0": taylor.e0.tolist(),
            "e1": taylor.e1.tolist(),
            "slope_e0": taylor.slope0,
            "slope_e1": taylor.slope1,
        },
        "adjoint_max_mismatch": mismatch,
    }
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
    csv_path = out.with_suffix(".csv")
    with open(csv_path, "w") as fh:
        fh.write("h,e0,e1\n")
        for h, e0, e1 in zip(taylor.h_values, taylor.e0, taylor.e1):
            fh.write(f"{h},{e0},{e1}\n")
    print(f"taylor slopes: e0 {taylor.slope0:.3f}, e1 {taylor.slope1:.3f}; "
          f"adjoint mismatch {mismatch:.3e}")
    return 0


def cmd_make_data(args) -> int:
    problem = _load_problem(args.problem)
    model = _load_model(problem, args.model or "true")
    approx = _load("--approx", load_approximant, args.approx)
    noise = NoiseSpec(eps_r=args.eps_r, eps_a=args.eps_a, seed=args.seed)
    _make_out_parent(args.out)
    data = make_dataset(problem, model, approx, noise)
    save_dataset(data, args.out)
    print(f"dataset: {data.size} data, eps_r={data.eps_r}, eps_a={data.eps_a:.3e}, "
          f"seed={data.seed}")
    return 0


def cmd_invert(args) -> int:
    problem = _load_problem(args.problem)
    data = _load("--data", load_dataset, args.data)
    approx = _load("--approx", load_approximant, args.approx)
    mismatch = data.mismatch(problem, approx)
    if mismatch is not None:
        raise UsageError(mismatch)
    cfg = InversionConfig(
        lambda0=args.lambda0,
        chi2_target=args.chi2_target,
        max_gn=args.max_gn,
        lsqr=LsqrConfig(tol=args.lsqr_tol, max_iters=args.lsqr_max_iters),
        workers=args.workers,
    )
    # an unusable run directory fails before the inversion, not after it
    _load("--out", lambda p: Path(p).mkdir(parents=True, exist_ok=True), args.out)
    state = run_inversion(problem, data, approx, cfg)
    write_run_artifacts(args.out, state, data)
    print(f"inversion: {state.nu} iterations, chi2={state.chi2:.3f}, "
          f"lambda={state.lam:.3e} ({state.diagnostic})")
    return 0


def cmd_report(args) -> int:
    if args.out is not None:
        _make_out_parent(args.out)
    report = _load("--rundir", consolidate_report, args.rundir)
    out = args.out or str(Path(args.rundir) / "report.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    timing = report.get("timing_model", {"defined": False})
    if timing["defined"]:
        print(f"timing model: {timing['intercept_ms']:.1f} ms + "
              f"{timing['ms_per_lsqr_iteration']:.2f} ms/LSQR iteration "
              f"(R^2={timing['r_squared']:.3f})")
    else:
        print("timing model: undefined (too few or degenerate iterations)")
    return 0


WORKERS_HELP = ("pole workers: this process and W-1 forked processes (fit-rba: W threads) "
                "(default: $RBAINV_WORKERS, else 1)")


def _worker_count(text: str) -> int:
    try:
        return parse_worker_count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _checked(parse, ok, expected: str):
    """argparse type: ``parse(text)`` must succeed and satisfy ``ok``."""
    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, OverflowError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return convert


_count = _checked(int, lambda n: n >= 1, "an integer >= 1")
_seed = _checked(int, lambda n: n >= 0, "an integer >= 0")
_finite_positive = _checked(float, lambda x: 0.0 < x < np.inf, "a finite number > 0")
_finite_nonnegative = _checked(float, lambda x: 0.0 <= x < np.inf, "a finite number >= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rbainv",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-rba", help="fit a shared-pole approximant")
    p.add_argument("--times-log10", required=True,
                   type=_checked(_parse_times, lambda ch: True,
                                 "log10 start:log10 stop:count with start < stop and count >= 1"),
                   help="log10 start:log10 stop:count, e.g. -6:-3:31")
    p.add_argument("--poles", type=_count, default=21)
    p.add_argument("--xmin", type=_finite_nonnegative, default=0.0)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--max-iters", type=_count, default=50)
    p.add_argument("--workers", type=_worker_count, default=None, help=WORKERS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_rba)

    p = sub.add_parser("forward", help="predicted data for one model")
    p.add_argument("--problem", required=True)
    p.add_argument("--model", default=None, help="model JSON, 'true', or omit for reference")
    p.add_argument("--approx", required=True)
    p.add_argument("--workers", type=_worker_count, default=None, help=WORKERS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("verify", help="Taylor remainder and adjoint tests")
    p.add_argument("--problem", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--approx", required=True)
    p.add_argument("--trials", type=_count, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=_worker_count, default=None, help=WORKERS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("make-data", help="noisy synthetic dataset")
    p.add_argument("--problem", required=True)
    p.add_argument("--model", default="true")
    p.add_argument("--approx", required=True)
    p.add_argument("--eps-r", type=_finite_nonnegative, default=0.03)
    p.add_argument("--eps-a", type=_finite_positive, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("invert", help="Gauss-Newton inversion")
    p.add_argument("--problem", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--approx", required=True)
    p.add_argument("--lambda0", type=_finite_positive, default=None)
    p.add_argument("--chi2-target", type=_finite_positive, default=1.0)
    p.add_argument("--max-gn", type=_count, default=30)
    p.add_argument("--lsqr-tol", type=_finite_positive, default=1e-3)
    p.add_argument("--lsqr-max-iters", type=_count, default=50)
    p.add_argument("--workers", type=_worker_count, default=None, help=WORKERS_HELP)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("report", help="consolidate a run directory")
    p.add_argument("--rundir", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # '--times-log10 -6:-3:31' must survive argparse's leading-dash rule
    argv = list(argv)
    for k in range(len(argv) - 1):
        if argv[k] == "--times-log10" and argv[k + 1].startswith("-"):
            argv[k:k + 2] = [f"--times-log10={argv[k + 1]}"]
            break
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) is None:
        try:
            args.workers = default_worker_count()
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
