"""The names `perfbench/layers.py` traces still exist and still count.

A renamed method or parameter would otherwise break only a traced
benchmark run (`perfbench/run.py --trace 1`), which the test suite never
starts.
"""

from pathlib import Path

import numpy as np
import pytest

import rbainv as rb

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
