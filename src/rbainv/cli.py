"""Batch command line interface.

Subcommands: fit-rba, forward, verify, make-data, invert, report,
bench-scaling.  All outputs are JSON/CSV; plotting is left to external
tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import (FitConfig, InversionConfig, LsqrConfig, Model, NoiseSpec,
               PoleWorkerPool, ShiftedFactorCache, TimeChannels, adjoint_test,
               build_problem, consolidate_report, default_worker_count,
               fit_common_pole, forward_response, JacobianOperator,
               load_approximant, load_dataset, make_dataset, parse_problem_file,
               run_inversion, save_approximant, save_dataset, scaling_benchmark,
               taylor_test, write_run_artifacts)
from .pool import parse_worker_count


class UsageError(Exception):
    """Bad command input found after parsing; `main` reports it as one
    error line and exit status 2."""


def _parse_times(text: str) -> TimeChannels:
    """'-6:-3:31' -> 31 log-spaced times between 1e-6 and 1e-3 seconds."""
    lo, hi, count = text.split(":")
    return TimeChannels.logspaced(10.0 ** float(lo), 10.0 ** float(hi), int(count))


def _load_problem(path):
    return build_problem(parse_problem_file(path))


def _load_model(problem, path: str | None) -> Model:
    if path is None:
        return problem.reference_model()
    if path == "true":
        return problem.true_model()
    with open(path) as fh:
        doc = json.load(fh)
    ref = problem.reference_model()
    try:
        m = np.asarray(doc["m"], dtype=float)
    except (KeyError, TypeError, ValueError):
        m = None
    if m is None or m.shape != ref.m.shape or not np.all(np.isfinite(m)):
        raise UsageError(f"argument --model: expected a JSON object whose \"m\" is a list "
                         f"of {ref.m.size} finite numbers, one per cell")
    return Model(m, ref.m_ref)


def cmd_fit_rba(args) -> int:
    if not args.xmin < args.xmax < np.inf:
        raise UsageError(f"argument --xmax: expected a finite number > --xmin "
                         f"({args.xmin:g}), got {args.xmax:g}")
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
    approx = load_approximant(args.approx)
    with ShiftedFactorCache(args.workers) as cache:
        result = forward_response(problem, model, approx, cache)
    doc = {
        "data": result.data.tolist(),
        "times": approx.channels.times.tolist(),
        "receivers": problem.receivers.tolist(),
        "counters": cache.counters.snapshot(),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    print(f"forward response: {result.data.size} data "
          f"({cache.counters.factorizations} factorizations)")
    return 0


def cmd_verify(args) -> int:
    problem = _load_problem(args.problem)
    model = _load_model(problem, args.model)
    approx = load_approximant(args.approx)

    rng = np.random.default_rng(args.seed)
    direction = rng.standard_normal(problem.grid.cell_count)
    direction /= np.max(np.abs(direction))
    h_values = 10.0 ** np.arange(-1, -6, -1, dtype=float)
    with ShiftedFactorCache(args.workers) as cache:
        taylor = taylor_test(problem, model, approx, direction, h_values, cache)
        opr = JacobianOperator(problem, model, approx, cache)
        mismatch = adjoint_test(opr, trials=args.trials, seed=args.seed)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
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
    approx = load_approximant(args.approx)
    noise = NoiseSpec(eps_r=args.eps_r, eps_a=args.eps_a, seed=args.seed)
    data = make_dataset(problem, model, approx, noise)
    save_dataset(data, args.out)
    print(f"dataset: {data.size} data, eps_r={data.eps_r}, eps_a={data.eps_a:.3e}, "
          f"seed={data.seed}")
    return 0


def _input_mismatch(problem, data, approx) -> str | None:
    """Why the data, approximant and problem files do not belong together."""
    if not np.array_equal(data.times, approx.channels.times):
        return "the data's times differ from the approximant's channel times"
    if not np.array_equal(data.receivers, problem.receivers):
        return "the data's receivers differ from the problem's receivers"
    return None


def cmd_invert(args) -> int:
    problem = _load_problem(args.problem)
    data = load_dataset(args.data)
    approx = load_approximant(args.approx)
    mismatch = _input_mismatch(problem, data, approx)
    if mismatch is not None:
        raise UsageError(mismatch)
    cfg = InversionConfig(
        lambda0=args.lambda0,
        chi2_target=args.chi2_target,
        max_gn=args.max_gn,
        lsqr=LsqrConfig(tol=args.lsqr_tol, max_iters=args.lsqr_max_iters),
        workers=args.workers,
    )
    state = run_inversion(problem, data, approx, cfg)
    write_run_artifacts(args.out, state, data, problem, approx, state.d_pred)
    print(f"inversion: {state.nu} iterations, chi2={state.chi2:.3f}, "
          f"lambda={state.lam:.3e} ({state.diagnostic})")
    return 0


def cmd_report(args) -> int:
    report = consolidate_report(args.rundir)
    out = args.out or str(Path(args.rundir) / "report.json")
    with open(out, "w") as fh:
        json.dump(report.to_json(), fh, indent=1)
    if report.timing is not None and report.timing.defined:
        print(f"timing model: {report.timing.intercept:.1f} ms + "
              f"{report.timing.slope:.2f} ms/LSQR iteration "
              f"(R^2={report.timing.r_squared:.3f})")
    else:
        print("timing model: undefined (too few or degenerate iterations)")
    return 0


def cmd_bench_scaling(args) -> int:
    problem = _load_problem(args.problem)
    model = _load_model(problem, args.model)
    approx = load_approximant(args.approx)
    rows = scaling_benchmark(problem, model, approx, args.workers)
    with open(args.out, "w") as fh:
        json.dump(rows, fh, indent=1)
    for row in rows:
        print(f"W={row['workers']}: factorize {row['factorize_ms']:.1f} ms, "
              f"solve {row['solve_ms']:.1f} ms, jvp+vjp {row['jacobian_ms']:.1f} ms, "
              f"efficiency {row['efficiency']:.2f}")
    checksums = {row["checksum"] for row in rows}
    print("pole solutions identical across worker counts:", len(checksums) == 1)
    return 0


WORKERS_HELP = "thread workers (default: $RBAINV_WORKERS, else 1)"


def _worker_count(text: str) -> int:
    try:
        return parse_worker_count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _worker_counts(text: str) -> list[int]:
    """'1,2,4' -> [1, 2, 4]; every entry parsed as a worker count."""
    return [_worker_count(w) for w in text.split(",")]


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
                   type=_checked(_parse_times, lambda ch: ch.count > 0,
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
    p.add_argument("--chi2-target", type=float, default=1.0)
    p.add_argument("--max-gn", type=_count, default=30)
    p.add_argument("--lsqr-tol", type=float, default=1e-3)
    p.add_argument("--lsqr-max-iters", type=_count, default=50)
    p.add_argument("--workers", type=_worker_count, default=None, help=WORKERS_HELP)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("report", help="consolidate a run directory")
    p.add_argument("--rundir", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bench-scaling", help="pole-parallel scaling table")
    p.add_argument("--problem", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--approx", required=True)
    p.add_argument("--workers", type=_worker_counts, default="1,2,4,8",
                   help="comma-separated worker counts")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_scaling)
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
