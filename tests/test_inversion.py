import inspect
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

import rbainv as rb
import rbainv.inversion as inv_mod
from conftest import reject_first_search
from oracles import dense_jacobian


@pytest.fixture(scope="module")
def tiny_setup():
    """P = 18 cells: small enough for dense normal-equations oracles."""
    spec = rb.ProblemSpec(
        dimension=2, extent=(-60.0, 60.0, -60.0, 60.0), n_cells=(3, 3), kappa=1e5,
        sigma_background=0.1,
        receivers=np.array([(-20.0, -20.0), (0.0, 0.0), (20.0, 20.0)]),
        source=rb.SourceSpec(kind="box", center=(0.0, 0.0), size=(40.0, 40.0)),
        anomalies=(rb.AnomalySpec(box=(-60, 0, -60, 0), sigma=0.3),),
    )
    prob = rb.build_problem(spec)
    channels = rb.TimeChannels.logspaced(1e-6, 1e-3, 5)
    bound = rb.spectral_bound(prob, prob.reference_model())
    ap = rb.fit_common_pole(channels, (0.0, 10 * bound), 10,
                            rb.FitConfig(grid_size=300))
    data = rb.make_dataset(prob, prob.true_model(), ap, rb.NoiseSpec(eps_r=0.03, seed=3))
    return prob, ap, data


def test_chi_squared_definition():
    data = rb.DataSet(d_obs=np.array([1.0, 2.0]), sigma_d=np.array([0.5, 0.5]),
                      times=np.array([1.0]), receivers=np.zeros((2, 1)),
                      eps_r=0.0, eps_a=0.5, seed=0, provenance={})
    assert rb.chi_squared(data, data.d_obs) == 0.0
    assert rb.chi_squared(data, data.d_obs + data.sigma_d) == pytest.approx(1.0)
    assert rb.chi_squared(data, data.d_obs + 2 * data.sigma_d) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        rb.chi_squared(data, np.zeros(3))


def test_gn_step_zero_residual_zero_update(tiny_setup):
    prob, ap, _ = tiny_setup
    model = prob.reference_model()
    cache = rb.ShiftedFactorCache()
    d_ref = rb.forward_response(prob, model, ap, cache)
    perfect = rb.DataSet(d_obs=d_ref, sigma_d=np.full(d_ref.size, 0.1),
                         times=ap.channels.times, receivers=prob.receivers,
                         eps_r=0.0, eps_a=0.1, seed=0, provenance={})
    reg = rb.build_reg(prob.grid)
    opr = rb.JacobianOperator(prob, model, ap, cache)
    d_pred = rb.response_from_pole_solutions(prob, ap, opr.g)
    dm, iters, _ = rb.gn_step(opr, reg, perfect, d_pred, model, 1.0)
    assert np.allclose(dm, 0.0)


def test_gn_step_matches_normal_equations(tiny_setup):
    prob, ap, data = tiny_setup
    model = prob.reference_model()
    reg = rb.build_reg(prob.grid)
    cache = rb.ShiftedFactorCache()
    lam = 5.0
    opr = rb.JacobianOperator(prob, model, ap, cache)
    d_pred = rb.response_from_pole_solutions(prob, ap, opr.g)
    dm, iters, _ = rb.gn_step(opr, reg, data, d_pred, model, lam,
                              rb.LsqrConfig(tol=1e-14, max_iters=3000))
    J = dense_jacobian(opr)
    W2 = np.diag(data.weights ** 2)
    L = reg.L.toarray()
    lhs = J.T @ W2 @ J + lam * L
    rhs = J.T @ W2 @ (data.d_obs - d_pred) + lam * (L @ (model.m_ref - model.m))
    dm_direct = np.linalg.solve(lhs, rhs)
    assert np.linalg.norm(dm - dm_direct) / np.linalg.norm(dm_direct) <= 1e-6


def test_gn_step_large_lambda_regularization_dominated(tiny_setup):
    prob, ap, data = tiny_setup
    ref = prob.reference_model()
    start = rb.Model(ref.m + 0.3, ref.m_ref)
    reg = rb.build_reg(prob.grid)
    cache = rb.ShiftedFactorCache()
    opr = rb.JacobianOperator(prob, start, ap, cache)
    d_pred = rb.response_from_pole_solutions(prob, ap, opr.g)
    dm, _, _ = rb.gn_step(opr, reg, data, d_pred, start, 1e14,
                          rb.LsqrConfig(tol=1e-12, max_iters=2000))
    target = start.m_ref - start.m
    cos = (dm @ target) / (np.linalg.norm(dm) * np.linalg.norm(target))
    assert cos > 0.999
    assert np.linalg.norm(dm - target) / np.linalg.norm(target) < 0.05


def test_inversion_config_has_five_fields():
    assert [f.name for f in fields(rb.InversionConfig)] == [
        "lambda0", "chi2_target", "max_gn", "lsqr", "workers"]


def test_line_search_takes_three_parameters():
    assert list(inspect.signature(rb.line_search).parameters) == [
        "phi0", "directional_slope", "phi_evaluator"]


def test_line_search_quadratic_accepts_full_step():
    # phi(eta) = (1 - eta)^2 with Newton-consistent slope -2 at eta = 0
    result = rb.line_search(1.0, -2.0, lambda eta: (1 - eta) ** 2)
    assert result.accepted and result.eta == 1.0 and result.n_evals == 1


def test_line_search_rejects_ascent():
    calls = []

    def phi(eta):
        calls.append(eta)
        return 1.0 + eta

    result = rb.line_search(1.0, 1.0, phi)
    assert not result.accepted
    assert result.eta == 2.0 ** -6
    assert min(calls) >= 2.0 ** -6


def test_line_search_quadratic_candidate_gated_by_armijo():
    # steep rise after a shallow valley: the quadratic candidate lands inside
    # and must pass the Armijo test itself
    calls = []

    def phi(eta):
        calls.append(eta)
        return 1.0 - 2.0 * eta + 10.0 * eta ** 2

    result = rb.line_search(1.0, -2.0, phi)
    assert result.accepted
    assert result.phi <= 1.0 + 1e-4 * result.eta * (-2.0)
    assert 0 < result.eta < 1.0
    # the loop keeps only the latest trial, so acceptance is at the last eta evaluated
    assert result.eta == calls[-1]


def test_line_search_eta_floor_respected():
    evals = []

    def phi(eta):
        evals.append(eta)
        return 10.0   # never acceptable

    result = rb.line_search(1.0, -1.0, phi)
    assert not result.accepted
    assert all(e >= 2.0 ** -6 for e in evals)
    assert min(evals) == pytest.approx(2.0 ** -6)


def test_run_inversion_noise_free_start_at_truth(tiny_setup):
    # the inversion starts at the reference model, so data made there are exact
    prob, ap, _ = tiny_setup
    ref = prob.reference_model()
    clean = rb.forward_response(prob, ref, ap, rb.ShiftedFactorCache())
    perfect = rb.DataSet(d_obs=clean, sigma_d=np.abs(clean) * 0.03 + 1e-9,
                         times=ap.channels.times, receivers=prob.receivers,
                         eps_r=0.03, eps_a=1e-9, seed=0, provenance={})
    state = rb.run_inversion(prob, perfect, ap, rb.InversionConfig(max_gn=5))
    assert state.nu <= 1
    assert state.chi2 <= 1e-10
    assert state.diagnostic == "chi2 target reached"


def test_run_inversion_rejects_mismatched_inputs(tiny_setup, monkeypatch):
    prob, ap, data = tiny_setup
    short = rb.refit_residues(ap, rb.TimeChannels(ap.channels.times[:-1]))

    def no_cache(*args, **kwargs):
        raise AssertionError("a cache was made for mismatched inputs")

    monkeypatch.setattr(inv_mod, "ShiftedFactorCache", no_cache)
    for inputs, message in [((prob, replace(data, times=data.times * 1.5), ap), "times"),
                            ((prob, data, short), "times"),
                            ((prob, replace(data, receivers=data.receivers * 1.5), ap),
                             "receivers")]:
        with pytest.raises(ValueError, match=message):
            rb.run_inversion(*inputs, rb.InversionConfig(max_gn=1))


def test_iterations_run_counts_the_history_rows(tiny_setup):
    prob, ap, data = tiny_setup
    capped = rb.run_inversion(prob, data, ap, rb.InversionConfig(lambda0=50.0, max_gn=3))
    assert capped.diagnostic == "max Gauss-Newton iterations"
    assert capped.nu == len(capped.history) == 3
    # a target met after the second iteration stops the loop before a third
    target = capped.history[1].chi2
    assert capped.history[0].chi2 > target
    reached = rb.run_inversion(prob, data, ap,
                               rb.InversionConfig(lambda0=50.0, chi2_target=target, max_gn=3))
    assert reached.diagnostic == "chi2 target reached"
    assert reached.nu == len(reached.history) == 2


def test_run_inversion_reduces_misfit_and_history_consistency(tiny_setup):
    prob, ap, data = tiny_setup
    cfg = rb.InversionConfig(lambda0=50.0, chi2_target=1.0, max_gn=12, workers=1)
    state = rb.run_inversion(prob, data, ap, cfg)
    assert state.history
    chi_first = state.history[0].chi2
    assert state.chi2 < chi_first
    lams = [r.lam for r in state.history]
    assert all(lams[i + 1] <= lams[i] for i in range(len(lams) - 1))
    for r in state.history:
        # stored phi and chi^2 replay exactly from their own pieces
        assert r.phi == r.misfit + r.lam * r.reg_value
        assert r.chi2 == 2 * r.misfit / data.size
        if r.accepted:
            # Armijo inequality replayable from the recorded values
            assert r.phi <= r.phi_before + 1e-4 * r.eta * r.directional_slope + 1e-12 * abs(r.phi_before)


def test_gradient_identity_finite_differences(tiny_setup):
    prob, ap, data = tiny_setup
    ref = prob.reference_model()
    model = rb.Model(ref.m + 0.05, ref.m_ref)
    reg = rb.build_reg(prob.grid)
    lam = 3.0
    cache = rb.ShiftedFactorCache()
    opr = rb.JacobianOperator(prob, model, ap, cache)
    d_pred = rb.response_from_pole_solutions(prob, ap, opr.g)
    W = data.weights
    grad = opr.vjp(W * W * (d_pred - data.d_obs)) + lam * (reg.L @ (model.m - model.m_ref))

    def phi_at(m_vec):
        mdl = rb.Model(m_vec, model.m_ref)
        d = rb.forward_response(prob, mdl, ap, rb.ShiftedFactorCache())
        rv, _ = rb.reg_value_grad(reg, mdl)
        return 0.5 * float(np.sum((W * (d - data.d_obs)) ** 2)) + lam * rv

    rng = np.random.default_rng(8)
    v = rng.standard_normal(model.cell_count)
    h = 1e-6
    fd = (phi_at(model.m + h * v) - phi_at(model.m - h * v)) / (2 * h)
    assert abs(fd - grad @ v) / abs(fd) <= 1e-4


def force_divergence(monkeypatch):
    """A fixed uphill update of every cell, accepted at eta = 1."""
    def bad_lsqr(opr, reg, data_, d_pred, model, lam, lsqr_cfg):
        return np.full(model.cell_count, 2.0), 1, 1

    def always_accept(phi0, slope, evaluator):
        phi = evaluator(1.0)
        return rb.LineSearchResult(1.0, True, phi, 1)

    monkeypatch.setattr(inv_mod, "gn_step", bad_lsqr)
    monkeypatch.setattr(inv_mod, "line_search", always_accept)


def force_lambda_floor(monkeypatch):
    """A cooling tolerance so large every iteration cools; the floor two
    halvings below the start."""
    monkeypatch.setattr(inv_mod, "COOLING_TOL", 10.0)
    monkeypatch.setattr(inv_mod, "LAMBDA_MIN_FACTOR", 0.2)


def test_divergence_guard_aborts(tiny_setup, monkeypatch):
    prob, ap, data = tiny_setup
    force_divergence(monkeypatch)
    state = rb.run_inversion(prob, data, ap, rb.InversionConfig(lambda0=1.0, max_gn=20))
    assert "divergence guard" in state.diagnostic
    assert len(state.history) <= 6


def test_divergence_streak_survives_a_rejected_step(tiny_setup, monkeypatch):
    """Rise, reject, rise, rise: a rejected step leaves the streak of rising
    accepted steps as it is, so the guard fires after the fourth iteration
    (a streak reset by the rejection would delay it to the fifth)."""
    prob, ap, data = tiny_setup
    force_divergence(monkeypatch)
    searches = []

    def reject_second(phi0, slope, evaluator):
        searches.append(phi0)
        phi = evaluator(1.0)
        if len(searches) == 2:
            return rb.LineSearchResult(inv_mod.ETA_MIN, False, phi0, 1)
        return rb.LineSearchResult(1.0, True, phi, 1)

    monkeypatch.setattr(inv_mod, "line_search", reject_second)
    state = rb.run_inversion(prob, data, ap, rb.InversionConfig(lambda0=1.0, max_gn=20))
    assert [r.accepted for r in state.history] == [True, False, True, True]
    assert all(r.phi > r.phi_before for r in state.history if r.accepted)
    assert state.diagnostic == "divergence guard: objective rose on 3 consecutive accepted steps"


def test_lambda_floor_stops(tiny_setup, monkeypatch):
    prob, ap, data = tiny_setup
    force_lambda_floor(monkeypatch)
    cfg = rb.InversionConfig(lambda0=64.0, chi2_target=1e-12, max_gn=30)
    state = rb.run_inversion(prob, data, ap, cfg)
    assert state.diagnostic == "lambda floor reached"
    assert state.lam < 64.0 * 0.2


def test_default_lambda0_formula(tiny_setup):
    prob, ap, data = tiny_setup
    reg = rb.build_reg(prob.grid)
    model = prob.reference_model()
    d0 = rb.forward_response(prob, model, ap, rb.ShiftedFactorCache())
    lam0 = rb.default_lambda0(data, reg, d0, model)
    misfit = float(np.sum((data.weights * (d0 - data.d_obs)) ** 2))
    pert = np.log(10.0) * np.sin(np.arange(model.cell_count, dtype=float))
    r_pert, _ = rb.reg_value_grad(reg, rb.Model(model.m_ref + pert, model.m_ref))
    assert lam0 == pytest.approx(misfit / max(1.0, 2.0 * r_pert))
    assert lam0 > 0


DIAGNOSTICS = {
    "chi2 target reached",
    "max Gauss-Newton iterations",
    "lambda floor reached",
    "divergence guard: objective rose on 3 consecutive accepted steps",
}


def assert_counter_laws(state, m):
    """Per iteration, in units of m (one per pole): a factorization per
    trial model, plus one after a rejected search, when the next
    iteration's first Jacobian action refactorizes the current model; a
    solve for the gradient's vjp, for LSQR's opening vjp, for one jvp and
    one vjp per LSQR iteration, and for each trial's forward.  The run's
    totals add the reference model's factorizations and solves."""
    rejected_before = False
    for r in state.history:
        assert r.factorizations == m * (r.phi_evals + rejected_before)
        assert r.solves == m * (2 + 2 * r.lsqr_iters + r.phi_evals)
        rejected_before = not r.accepted
    for name in ("factorizations", "solves"):
        assert state.counters[name] == m + sum(getattr(r, name) for r in state.history)


def test_rejected_line_search_continues(tiny_setup, monkeypatch):
    prob, ap, data = tiny_setup
    reject_first_search(monkeypatch)
    cfg = rb.InversionConfig(lambda0=50.0, max_gn=4, workers=2)
    state = rb.run_inversion(prob, data, ap, cfg)
    assert state.diagnostic in DIAGNOSTICS
    assert len(state.history) == 4
    first, *rest = state.history
    assert not first.accepted and first.eta == 0.0
    assert rest[0].lam == first.lam * 0.5
    assert all(r.accepted for r in rest)
    assert state.chi2 < first.chi2
    assert_counter_laws(state, ap.pole_count)


def test_run_ending_on_a_rejected_search_restores_no_factors(tiny_setup, monkeypatch):
    prob, ap, data = tiny_setup
    reject_first_search(monkeypatch)
    state = rb.run_inversion(prob, data, ap, rb.InversionConfig(lambda0=50.0, max_gn=1,
                                                                workers=2))
    assert state.diagnostic == "max Gauss-Newton iterations"
    assert not state.history[0].accepted
    # the reference model and the one trial: nothing refactorizes the returned model
    assert state.counters["factorizations"] == 2 * ap.pole_count
    assert_counter_laws(state, ap.pole_count)
    reference = prob.reference_model()
    assert state.model.m.tobytes() == reference.m.tobytes()
    np.testing.assert_array_equal(
        state.d_pred, rb.forward_response(prob, reference, ap, rb.ShiftedFactorCache()))


def test_accepted_path_counter_laws(tiny_setup):
    prob, ap, data = tiny_setup
    state = rb.run_inversion(prob, data, ap, rb.InversionConfig(lambda0=50.0, max_gn=6))
    assert all(r.accepted for r in state.history)
    assert_counter_laws(state, ap.pole_count)


FORCE_EXIT = {
    "lambda floor reached": force_lambda_floor,
    "divergence guard: objective rose on 3 consecutive accepted steps": force_divergence,
}


@pytest.mark.parametrize("cfg,diagnostic", [
    (rb.InversionConfig(lambda0=50.0, max_gn=6), "max Gauss-Newton iterations"),
    (rb.InversionConfig(lambda0=50.0, chi2_target=5.0), "chi2 target reached"),
    (rb.InversionConfig(lambda0=64.0, chi2_target=1e-12), "lambda floor reached"),
    (rb.InversionConfig(lambda0=1.0, max_gn=20),
     "divergence guard: objective rose on 3 consecutive accepted steps"),
])
def test_returned_prediction_is_final_models(tiny_setup, monkeypatch, cfg, diagnostic):
    prob, ap, data = tiny_setup
    if diagnostic in FORCE_EXIT:
        FORCE_EXIT[diagnostic](monkeypatch)
    state = rb.run_inversion(prob, data, ap, cfg)
    assert state.diagnostic == diagnostic
    assert state.history and state.history[-1].accepted
    np.testing.assert_array_equal(
        state.d_pred, rb.forward_response(prob, state.model, ap, rb.ShiftedFactorCache()))
    # the returned state is one iterate: its count, chi^2 and (phi, lambda) pairing
    assert state.nu == len(state.history)
    assert state.chi2 == rb.chi_squared(data, state.d_pred)
    misfit = 0.5 * float(np.sum((data.weights * (state.d_pred - data.d_obs)) ** 2))
    reg_value, _ = rb.reg_value_grad(rb.build_reg(prob.grid), state.model)
    assert state.phi == misfit + state.lam * reg_value


def test_back_to_back_inversions_leave_no_threads(tiny_setup):
    prob, ap, data = tiny_setup
    before = set(threading.enumerate())
    cfg = rb.InversionConfig(lambda0=50.0, max_gn=2, workers=2)
    first = rb.run_inversion(prob, data, ap, cfg)
    second = rb.run_inversion(prob, data, ap, cfg)
    assert set(threading.enumerate()) <= before
    np.testing.assert_array_equal(first.model.m, second.model.m)
