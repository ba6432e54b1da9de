"""Which rbainv calls the traced run wraps, and the per-layer metrics.

Each layer is an rbainv module.  `install` wraps its public functions and
methods on a `spans.Tracer`; `metrics` turns the recorded spans into the
per-layer numbers.  `.ms` sums span durations (busy time, so two pole
workers can add up to more than wall time); `.self_ms` subtracts the
union of child spans.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

import scipy.sparse.linalg as spla

from rbainv import (forward, inversion, mesh, rba, regularization, reporting,
                    sensitivity, shifted, synthetic)

from spans import Tracer

# scipy's lsqr reports istop == 7 when it stopped at its iteration limit
LSQR_ITERATION_LIMIT = 7


def install(tracer: Tracer) -> None:
    fap = shifted.factorize_all_poles
    fap_signature = inspect.signature(fap)

    def all_cached(sid, args, kwargs):
        a = fap_signature.bind(*args, **kwargs).arguments
        tag = a["model"].version_tag()
        hit = all(a["cache"].has(i, tag) for i in range(a["approx"].pole_count))
        return args, kwargs, {"hit": hit}

    def factorizes(sid, args, kwargs):
        cache, i = args[0], args[1]
        return args, kwargs, {"new": not cache.has(i)}

    map_poles_signature = inspect.signature(shifted.PoleWorkerPool.map_poles)

    def adopt_workers(sid, args, kwargs):
        a = map_poles_signature.bind(*args, **kwargs).arguments
        return (a["self"], tracer.adopt(sid, a["fn"]), a["count"]), {}, {}

    def fit_result(approx, attrs):
        attrs.update(iters=approx.iterations, fit_error=approx.fit_error)

    def lsqr_result(out, attrs):
        attrs.update(itn=int(out[2]), istop=int(out[1]))

    def search_result(ls, attrs):
        attrs.update(accepted=bool(ls.accepted), evals=int(ls.n_evals))

    def run_result(state, attrs):
        attrs.update(gn_iters=len(state.history))

    f = tracer.patch_function
    f(rba.fit_common_pole, "rba.fit", finish=fit_result)
    f(mesh.build_problem, "mesh.build_problem")
    f(mesh.spectral_bound, "mesh.spectral_bound")
    f(mesh.assemble_M, "mesh.assemble_M")
    f(mesh.dM_contract, "mesh.dM_contract")
    f(fap, "shifted.factorize_all_poles", prepare=all_cached)
    f(forward.forward_response, "forward.response")
    f(regularization.build_reg, "regularization.build_reg")
    f(inversion.run_inversion, "inversion.run", finish=run_result)
    f(inversion.line_search, "inversion.line_search", finish=search_result)
    f(spla.lsqr, "inversion.lsqr", finish=lsqr_result, modules=[spla])
    f(synthetic.make_dataset, "synthetic.make_dataset")
    f(reporting.write_run_artifacts, "reporting.write_run_artifacts")
    f(reporting.consolidate_report, "reporting.consolidate_report")
    for io_fn in (rba.load_approximant, rba.save_approximant,
                  synthetic.load_dataset, synthetic.save_dataset):
        f(io_fn, "cli.json_io")

    m = tracer.patch_method
    m(shifted.ShiftedFactorCache, "factorize", "shifted.factorize", prepare=factorizes)
    m(shifted.ShiftedFactorCache, "solve", "shifted.solve")
    m(shifted.PoleWorkerPool, "map_poles", "shifted.map_poles", prepare=adopt_workers)
    m(sensitivity.JacobianOperator, "__init__", "sensitivity.operator")
    m(sensitivity.JacobianOperator, "jvp", "sensitivity.jvp")
    m(sensitivity.JacobianOperator, "vjp", "sensitivity.vjp")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict:
    """Every per-layer metric the traced run reports, by name."""
    by = defaultdict(list)
    for s in tracer.spans:
        by[s.name].append(s)
    self_ms = tracer.self_ms()

    def ms(name):
        return sum(s.ms for s in by[name])

    def own(name):
        return sum(self_ms[s.sid] for s in by[name])

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by[name])

    fit_iters = total("rba.fit", "iters")
    factorizations = total("shifted.factorize", "new")
    solves = len(by["shifted.solve"])
    lsqr_iters = total("inversion.lsqr", "itn")
    phi_evals = total("inversion.line_search", "evals")
    out = {
        "rba.fit.ms": ms("rba.fit"),
        "rba.fit_iters": fit_iters,
        "rba.ms_per_fit_iter": _ratio(ms("rba.fit"), fit_iters),
        "rba.fit_error": max((s.attrs.get("fit_error", 0.0) for s in by["rba.fit"]),
                             default=0.0),
        "mesh.build_problem.ms": ms("mesh.build_problem"),
        "mesh.spectral_bound.ms": ms("mesh.spectral_bound"),
        "shifted.factorize.count": factorizations,
        "shifted.factorize.ms": ms("shifted.factorize"),
        "shifted.solve.count": solves,
        "shifted.solve.ms": ms("shifted.solve"),
        "shifted.solves_per_factorization": _ratio(solves, factorizations),
        "shifted.map_poles.calls": len(by["shifted.map_poles"]),
        "shifted.map_poles.self_ms": own("shifted.map_poles"),
        "shifted.cache_hit_ratio": _ratio(total("shifted.factorize_all_poles", "hit"),
                                          len(by["shifted.factorize_all_poles"])),
        "sensitivity.jvp.self_ms": own("sensitivity.jvp"),
        "sensitivity.vjp.self_ms": own("sensitivity.vjp"),
        "sensitivity.operator.ms": ms("sensitivity.operator"),
        "regularization.build_reg.ms": ms("regularization.build_reg"),
        "inversion.gn_iters": total("inversion.run", "gn_iters"),
        "inversion.lsqr_iters": lsqr_iters,
        "inversion.phi_evals": phi_evals,
        "inversion.lsqr.ms": ms("inversion.lsqr"),
        "inversion.ms_per_lsqr_iter": _ratio(ms("inversion.lsqr"), lsqr_iters),
        "inversion.line_search.ms": ms("inversion.line_search"),
        "inversion.line_search.accept_ratio": _ratio(
            total("inversion.line_search", "accepted"), phi_evals),
        "inversion.lsqr_limit_hits": sum(s.attrs.get("istop") == LSQR_ITERATION_LIMIT
                                         for s in by["inversion.lsqr"]),
        "synthetic.make_dataset.ms": ms("synthetic.make_dataset"),
        "reporting.write_run_artifacts.ms": ms("reporting.write_run_artifacts"),
        "reporting.consolidate_report.ms": ms("reporting.consolidate_report"),
        "cli.json_io.ms": ms("cli.json_io"),
        "trace.spans": len(tracer.spans),
    }
    for name in ("mesh.assemble_M", "mesh.dM_contract", "forward.response",
                 "sensitivity.jvp", "sensitivity.vjp"):
        out[f"{name}.calls"] = len(by[name])
    for name in ("mesh.assemble_M", "mesh.dM_contract", "forward.response"):
        out[f"{name}.ms"] = ms(name)
    return out
