"""The names `perfbench/layers.py` traces still exist and still count.

A renamed method or parameter would otherwise break only a traced
benchmark run (`perfbench/run.py --trace 1`), which the test suite never
starts.
"""

from pathlib import Path

import numpy as np
import pytest

import rbainv as rb
from conftest import calling_share, receiver_grid, reject_first_search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans
    return layers, spans


def traced_actions(layers, spans, problem, approx, workers):
    """One operator's J v and J^T w and one forward response, traced."""
    model = problem.true_model()
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        with rb.ShiftedFactorCache(workers) as cache:
            opr = rb.JacobianOperator(problem, model, approx, cache)
            opr.vjp(opr.jvp(np.ones(opr.shape[1])))
            rb.forward_response(problem, model, approx, cache)
    finally:
        tracer.remove()
    return cache, layers.metrics(tracer)


def test_traced_counts_equal_the_cache_counters(layers, small_problem, small_approx):
    cache, traced = traced_actions(*layers, small_problem, small_approx, 1)
    assert cache.counters.factorizations == small_approx.pole_count
    assert traced["shifted.cache_hit_ratio"] == 0.5      # the forward reuses the factors
    assert traced["shifted.factorize.count"] == cache.counters.factorizations
    assert traced["shifted.solve.count"] == cache.counters.solves
    assert traced["sensitivity.jvp.calls"] == traced["sensitivity.vjp.calls"] == 1


def test_traced_counts_cover_the_calling_process_share(layers, small_problem, small_approx):
    # pole workers 1..W-1 are processes whose spans stay there: the traced
    # counts are those of the poles i = 0 mod W, the cache counters all poles
    m = small_approx.pole_count
    cache, traced = traced_actions(*layers, small_problem, small_approx, 2)
    assert cache.counters.factorizations == m
    assert cache.counters.solves == 4 * m
    assert traced["shifted.cache_hit_ratio"] == 0.5
    assert traced["shifted.factorize.count"] == calling_share(m, 2)
    assert traced["shifted.solve.count"] == 4 * calling_share(m, 2)


@pytest.fixture
def tiny_inversion(channels31):
    """A 4x4 problem, an 8-pole approximant and its data."""
    problem = rb.build_problem(rb.ProblemSpec(
        n_cells=(4, 4), receivers=receiver_grid(-30.0, 30.0, 3),
        anomalies=(rb.AnomalySpec(box=(-60, 0, -60, 0), sigma=0.3),)))
    bound = rb.spectral_bound(problem, problem.reference_model())
    approx = rb.fit_common_pole(rb.TimeChannels(channels31.times[::6]), (0.0, 10 * bound), 8,
                                rb.FitConfig(grid_size=300))
    data = rb.make_dataset(problem, problem.true_model(), approx, rb.NoiseSpec(seed=5))
    return problem, approx, data


def traced_inversion(layers, spans, problem, approx, data, workers=1):
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        state = rb.run_inversion(problem, data, approx,
                                 rb.InversionConfig(max_gn=3, workers=workers))
    finally:
        tracer.remove()
    return state, layers.metrics(tracer)


def test_traced_inversion_counts_equal_the_run_history(layers, tiny_inversion):
    state, traced = traced_inversion(*layers, *tiny_inversion)
    assert traced["inversion.gn_iters"] == len(state.history) > 0
    assert traced["inversion.lsqr_iters"] == sum(r.lsqr_iters for r in state.history) > 0
    assert traced["inversion.phi_evals"] == sum(r.phi_evals for r in state.history) > 0
    assert traced["shifted.solve.count"] == state.counters["solves"]


def test_traced_rejected_search_counts_equal_the_cache_counters(layers, tiny_inversion,
                                                                 monkeypatch):
    reject_first_search(monkeypatch)           # before the tracer wraps the search
    state, traced = traced_inversion(*layers, *tiny_inversion)
    assert not state.history[0].accepted and len(state.history) > 1
    assert traced["shifted.factorize.count"] == state.counters["factorizations"]
    assert traced["shifted.solve.count"] == state.counters["solves"]
    assert traced["inversion.phi_evals"] == sum(r.phi_evals for r in state.history)
    # every factorize_all_poles call factorizes: the reference model, each
    # trial, and the current model again after the rejected search
    assert traced["shifted.cache_hit_ratio"] == 0.0


def test_traced_inversion_counts_the_calling_process_share(layers, tiny_inversion,
                                                          monkeypatch):
    reject_first_search(monkeypatch)
    state, traced = traced_inversion(*layers, *tiny_inversion, workers=2)
    m = tiny_inversion[1].pole_count
    assert not state.history[0].accepted and len(state.history) > 1
    assert state.counters["factorizations"] % m == state.counters["solves"] % m == 0
    for counter, span in (("factorizations", "factorize"), ("solves", "solve")):
        share = state.counters[counter] // m * calling_share(m, 2)
        assert traced[f"shifted.{span}.count"] == share, counter
    assert traced["inversion.phi_evals"] == sum(r.phi_evals for r in state.history)
    assert traced["shifted.cache_hit_ratio"] == 0.0
