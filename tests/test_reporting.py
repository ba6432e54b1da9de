import json

import numpy as np
import pytest

import rbainv as rb


def synthetic_history(walls, iters):
    rows = []
    for nu, (w, n) in enumerate(zip(walls, iters), start=1):
        rows.append(rb.IterationRecord(
            nu=nu, phi=1.0, misfit=1.0, reg_value=0.0, chi2=1.0, lam=1.0, eta=1.0,
            accepted=True, lsqr_iters=n, lsqr_istop=1, wall_ms=w,
            factorizations=21, solves=63, phi_evals=1, phi_before=2.0,
            directional_slope=-1.0).as_dict())
    return rows


def test_timing_model_exact_linear():
    iters = [1, 5, 10, 20, 35]
    walls = [100.0 + 5.0 * n for n in iters]
    model = rb.fit_timing_model(synthetic_history(walls, iters))
    assert model.defined
    assert model.intercept == pytest.approx(100.0)
    assert model.slope == pytest.approx(5.0)
    assert model.r_squared == pytest.approx(1.0)


def test_timing_model_insufficient_iterations():
    with pytest.raises(ValueError):
        rb.fit_timing_model(synthetic_history([1.0, 2.0], [1, 2]))


def test_timing_model_degenerate_counts():
    model = rb.fit_timing_model(synthetic_history([10.0, 11.0, 9.0], [7, 7, 7]))
    assert not model.defined
    assert np.isnan(model.slope)


def test_timing_model_accepts_dict_rows():
    rows = [{"lsqr_iters": n, "wall_ms": 3.0 + 2.0 * n} for n in (1, 4, 9)]
    model = rb.fit_timing_model(rows)
    assert model.slope == pytest.approx(2.0)


def test_write_and_consolidate_run_artifacts(tmp_path, tiny_inversion):
    prob, ap, data, state = tiny_inversion
    rundir = tmp_path / "run"
    rb.write_run_artifacts(rundir, state, data)
    assert sorted(p.name for p in rundir.iterdir()) == [
        "convergence.csv", "residual_heatmap.csv", "state.json", "transients.csv"]

    with open(rundir / "state.json") as fh:
        doc = json.load(fh)
    assert len(doc["model"]) == prob.grid.cell_count
    assert len(doc["history"]) == len(state.history)
    # counters in the report match the cache snapshot taken by the run
    assert doc["counters"]["factorizations"] == state.counters["factorizations"]

    heat = np.genfromtxt(rundir / "residual_heatmap.csv", delimiter=",", skip_header=1)
    assert heat.shape == (ap.channels.count, prob.receiver_count + 1)
    wres = data.weights * (state.d_pred - data.d_obs)
    np.testing.assert_allclose(heat[:, 1:].ravel(), wres, rtol=1e-6)

    trans = np.genfromtxt(rundir / "transients.csv", delimiter=",", skip_header=1)
    assert trans.shape == (prob.receiver_count * ap.channels.count, 4)

    report = rb.consolidate_report(rundir)
    assert report["iterations"] == doc["history"]
    assert ("timing_model" in report) == (len(state.history) >= 3)


@pytest.fixture(scope="module")
def tiny_inversion():
    spec = rb.ProblemSpec(
        dimension=2, extent=(-60.0, 60.0, -60.0, 60.0), n_cells=(4, 4), kappa=1e5,
        sigma_background=0.1,
        receivers=np.array([(-15.0, -15.0), (15.0, 15.0)]),
        source=rb.SourceSpec(kind="box", center=(0.0, 0.0), size=(40.0, 40.0)),
        anomalies=(rb.AnomalySpec(box=(-60, 0, -60, 0), sigma=0.3),),
    )
    prob = rb.build_problem(spec)
    channels = rb.TimeChannels.logspaced(1e-6, 1e-3, 5)
    bound = rb.spectral_bound(prob, prob.reference_model())
    ap = rb.fit_common_pole(channels, (0.0, 10 * bound), 8,
                            rb.FitConfig(grid_size=200))
    data = rb.make_dataset(prob, prob.true_model(), ap, rb.NoiseSpec(eps_r=0.03, seed=2))
    state = rb.run_inversion(prob, data, ap, rb.InversionConfig(lambda0=20.0, max_gn=6))
    return prob, ap, data, state
