"""rbainv benchmark: one workload, one seed, one JSON result line.

Run from the root of an rbainv checkout:

    python3 perfbench/run.py --workload roundtrip-16x16 --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's own ``src/`` and driven through
`rbainv.cli.main` and the library's public functions, in this one process.
Set-up runs several times and ``setup_s`` is its median; then the timed
operation repeats until ``--seconds`` have passed and each timing is the
median over operations.  ``--trace 1`` instead traces one set-up, then
alternates untraced and traced operations, and reports the per-layer
metrics of the set-up and the first traced operation, and the tracing
overhead.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` with
exactly the metrics BENCHMARK.json lists for the mode; the lines before it
give every metric of the workload, the environment and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("roundtrip-16x16", "invert-48x48")
# set-up repeats at least SETUP_REPS times and for at least SETUP_SECONDS,
# so that a set-up of milliseconds still gives a steady median
SETUP_REPS = 3
SETUP_SECONDS = 1.0
MAX_WORKERS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the four commands of the round trip; roundtrip_s is the sum of their
# medians where a workload runs some of them in set-up
ROUNDTRIP_STEPS = ("fit_s", "make_data_s", "invert_s", "report_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> int:
    """One BLAS thread, set before numpy loads: two threads made the 16x16
    fit about 2x slower and changed the inversion's trajectory and counts.
    Returns the pole worker count, at most the cores this process may use."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    os.environ["RBAINV_WORKERS"] = str(workers)
    return workers


def environment(workers: int) -> dict:
    import numpy
    import scipy
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "pole_workers": workers,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, inputs, work: Path, ledger, workers, seconds, tracers=None):
    """Repeat the timed operation until ``seconds`` have passed.

    With ``tracers`` (trace mode) operations alternate untraced and traced,
    at least one of each; ``tracers()`` gives the tracer for the next
    traced operation.  Returns ([(traced, wall seconds, OpResult)], peak
    RSS in MB after the first operation).  The peak is taken there because
    the process's resident memory grows with every inversion it runs, so a
    later peak would depend on how many operations fit in ``seconds``.
    """
    import layers

    results = []
    start = perf_counter()
    k = 0
    while True:
        traced = tracers is not None and k % 2 == 1
        opdir = work / f"op{k}"
        opdir.mkdir()
        ledger.scope = f"op{k}/"
        t0 = perf_counter()
        if traced:
            tracer = tracers()
            layers.install(tracer)
            try:
                with tracer.span("benchmark.op"):
                    res = workload.op(inputs, opdir, ledger, workers)
            finally:
                tracer.remove()
        else:
            res = workload.op(inputs, opdir, ledger, workers)
        wall = perf_counter() - t0
        shutil.rmtree(opdir)
        print(f"op {k}{' traced' if traced else ''}: wall={wall:.4f} " + " ".join(
            f"{name}={value:.4f}" for name, value in res.seconds.items()), file=sys.stderr)
        results.append((traced, wall, res))
        if k == 0:
            peak = peak_rss_mb()
        k += 1
        enough = k >= (2 if tracers is not None else 1)
        if enough and perf_counter() - start >= seconds:
            return results, peak


def check_counts(ledger, results, record: Path, key: dict) -> dict:
    """Exact counters must repeat across operations, traced or not, and
    across runs of the same code and seed on this host."""
    counts = [res.counts for _, _, res in results if res.counts]
    if not counts:
        return {}
    ledger.scope = "counts/"
    if any(c != counts[0] for c in counts[1:]):
        ledger.fail(ledger.begin("exact counters"),
                    f"operations of one run disagree: {counts}")
    try:
        previous = json.loads(record.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        previous = None
    if previous is not None and previous["key"] == key:
        if previous["counts"] != counts[0]:
            ledger.fail(ledger.begin("exact counters"),
                        f"{counts[0]} differ from an earlier run's {previous['counts']}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"key": key, "counts": counts[0]}))
        os.replace(tmp, record)
    return counts[0]


def measure(args, workers, work: Path):
    """Returns (ledger, every end-to-end metric by name, per-layer metrics)."""
    from workloads import WORKLOADS as ALL, Ledger, SetupError

    workload = ALL[args.workload]
    ledger = Ledger()

    def setup(rep: int):
        d = work / f"setup{rep}"
        d.mkdir()
        ledger.scope = f"setup{rep}/"
        t0 = perf_counter()
        inputs = workload.setup(args.seed, d, ledger)
        elapsed = perf_counter() - t0
        if ledger.failed:
            raise SetupError("; ".join(ledger.problems))
        return inputs, elapsed

    setups = []
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
        try:
            with tracer.span("benchmark.setup"):
                inputs, _ = setup(0)
        finally:
            tracer.remove()
        workload.check_setup(inputs, ledger)
        # the first traced operation adds to the set-up's spans; later ones
        # only measure the overhead
        first = [tracer]
        results, peak = run_ops(workload, inputs, work, ledger, workers, args.seconds,
                                tracers=lambda: first.pop() if first else Tracer())
    else:
        start = perf_counter()
        while len(setups) < SETUP_REPS or perf_counter() - start < SETUP_SECONDS:
            setups.append(setup(len(setups)))
        inputs = setups[-1][0]
        workload.check_setup(inputs, ledger)
        results, peak = run_ops(workload, inputs, work, ledger, workers, args.seconds)

    record = ROOT / ".perfbench_work" / "counts" / f"{args.workload}-seed{args.seed}.json"
    counts = check_counts(ledger, results, record,
                          {"code": code_hash(), "host": platform.node()})

    plain = [res for traced, _, res in results if not traced]
    named = {}
    if setups:
        named["setup_s"] = median(s for _, s in setups)
        named["setup_reps"] = len(setups)
        for k in setups[0][0].get("seconds", {}):
            named[k] = median(i["seconds"][k] for i, _ in setups)
    for k in sorted({k for res in plain for k in res.seconds}):
        named[k] = median(res.seconds.get(k) for res in plain)
    named.setdefault("roundtrip_s", sum(named.get(k, 0.0) for k in ROUNDTRIP_STEPS))
    named["ops"] = len(plain)
    values = [res.values for res in plain if res.values]
    named["chi2_excess"] = values[0]["chi2_excess"] if values else 0.0
    named["peak_rss_mb"] = peak
    named["fail_ratio"] = ledger.failed / max(ledger.attempted, 1)
    named.update({f"count.{k}": v for k, v in counts.items()})

    per_layer = {}
    if args.trace:
        per_layer = layers.metrics(tracer)
        untraced = median(w for t, w, _ in results if not t)
        traced = median(w for t, w, _ in results if t)
        per_layer["trace.overhead_ms"] = (traced - untraced) * 1e3
        per_layer["trace.overhead_ratio"] = traced / untraced - 1.0 if untraced else 0.0
        per_layer["trace.ops"] = len(results)
        per_layer["inversion.chi2_excess"] = named["chi2_excess"]
    return ledger, named, per_layer


def main(argv=None) -> int:
    args = parse_args(argv)
    workers = pin_threads()
    src = ROOT / "src"
    if not (src / "rbainv" / "__init__.py").is_file():
        print(f"perfbench: no rbainv package under {src}; run from an rbainv checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rbainv
    if Path(rbainv.__file__).resolve().parent != (src / "rbainv").resolve():
        print(f"perfbench: imported rbainv from {rbainv.__file__}, not {src}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ledger, named, per_layer = measure(args, workers, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"environment": environment(workers)}))
    for name, value in (per_layer if args.trace else named).items():
        print(f"{args.workload:16s} {name:36s} {value:.6g}")
    for problem in ledger.problems:
        print(f"check failed: {problem}")
    print(f"checks: {'pass' if not ledger.failed else 'FAIL'} "
          f"({ledger.failed} of {ledger.attempted} operations failed)")

    source = dict(named, **per_layer)
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": float(source[m["name"]]), "unit": m["unit"]}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
