"""The names `perfbench/layers.py` traces still exist and still count.

A renamed method or parameter would otherwise break only a traced
benchmark run (`perfbench/run.py --trace 1`), which the test suite never
starts.
"""

from pathlib import Path

import numpy as np
import pytest

import rbainv as rb
from conftest import receiver_grid, reject_first_search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans
    return layers, spans


def test_traced_counts_equal_the_cache_counters(layers, small_problem, small_approx):
    layers, spans = layers
    model = small_problem.true_model()
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        with rb.ShiftedFactorCache(2) as cache:
            opr = rb.JacobianOperator(small_problem, model, small_approx, cache)
            opr.vjp(opr.jvp(np.ones(opr.shape[1])))
            rb.forward_response(small_problem, model, small_approx, cache)
    finally:
        tracer.remove()
    traced = layers.metrics(tracer)
    assert cache.counters.factorizations == small_approx.pole_count
    assert traced["shifted.cache_hit_ratio"] == 0.5      # the forward reuses the factors
    assert traced["shifted.factorize.count"] == cache.counters.factorizations
    assert traced["shifted.solve.count"] == cache.counters.solves
    assert traced["sensitivity.jvp.calls"] == traced["sensitivity.vjp.calls"] == 1


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


def traced_inversion(layers, spans, problem, approx, data):
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        state = rb.run_inversion(problem, data, approx, rb.InversionConfig(max_gn=3, workers=2))
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
