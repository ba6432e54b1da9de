"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Criterion 9 (timing model) is soft: its value is recorded
and a warning is emitted when below target, but it never blocks the suite.
"""

import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import rbainv as rb
from rbainv.inversion import COOLING_TOL
from conftest import in_box
from oracles import dense_expm_oracle, dense_jacobian, pole_fields

COND_BOX = (-40, -10, -40, -10)
RES_BOX = (10, 40, 10, 40)

# regression baselines pinned from the first passing run of criterion 7
# (seed 1234, lambda0 100, 30 iterations)
PINNED_CHI2 = 1.038589
PINNED_COND_CONTRAST = +0.954602
PINNED_RES_CONTRAST = -0.862212


def _report(criterion, passed, detail):
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def inversion_run(inv_problem, inv_approx):
    """Shared by criteria 7 and 9: the reference synthetic inversion."""
    data = rb.make_dataset(inv_problem, inv_problem.true_model(), inv_approx,
                           rb.NoiseSpec(eps_r=0.03, seed=1234))
    t0 = time.perf_counter()
    state = rb.run_inversion(inv_problem, data, inv_approx,
                             rb.InversionConfig(lambda0=100.0, chi2_target=1.0,
                                                max_gn=30, workers=2))
    elapsed = time.perf_counter() - t0
    return state, elapsed


def test_criterion_1_forward_accuracy_vs_oracle(acc_problem, channels31):
    t0 = time.perf_counter()
    model = acc_problem.true_model()
    assert acc_problem.dof_count <= 200
    bound = rb.spectral_bound(acc_problem, model)
    approx = rb.fit_common_pole(channels31, (0.0, 1.05 * bound), 21)
    g = rb.solve_all_poles(acc_problem, model, approx, acc_problem.f, rb.ShiftedFactorCache())
    fields = pole_fields(approx, g)
    oracle = dense_expm_oracle(acc_problem, model, channels31.times)
    rel = np.array([np.linalg.norm(fields[j] - oracle[j]) / np.linalg.norm(oracle[j])
                    for j in range(channels31.count)])
    elapsed = time.perf_counter() - t0
    _report(1, np.max(rel) <= 1e-3 and elapsed < 30.0,
            f"max per-channel rel l2 {np.max(rel):.3e} (limit 1e-3), "
            f"fit error {approx.fit_error:.2e}, {elapsed:.1f}s (limit 30s)")


def test_criterion_2_taylor_slopes(small_problem, small_approx):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    direction = rng.standard_normal(small_problem.grid.cell_count)
    direction /= np.max(np.abs(direction))
    opr = rb.JacobianOperator(small_problem, small_problem.true_model(), small_approx,
                              rb.ShiftedFactorCache())
    report = rb.taylor_test(opr, direction, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    elapsed = time.perf_counter() - t0
    ok = 0.9 <= report.slope0 <= 1.1 and 1.8 <= report.slope1 <= 2.2
    _report(2, ok and elapsed < 60.0,
            f"e0 slope {report.slope0:.3f} in [0.9,1.1], "
            f"e1 slope {report.slope1:.3f} in [1.8,2.2], {elapsed:.1f}s (limit 60s)")


def test_criterion_3_adjoint_identity(small_problem, small_approx):
    t0 = time.perf_counter()
    opr = rb.JacobianOperator(small_problem, small_problem.true_model(),
                              small_approx, rb.ShiftedFactorCache())
    mismatch = rb.adjoint_test(opr, trials=20, seed=2024)
    elapsed = time.perf_counter() - t0
    _report(3, mismatch <= 1e-10 and elapsed < 30.0,
            f"max relative mismatch {mismatch:.3e} over 20 trials (limit 1e-10), "
            f"{elapsed:.1f}s (limit 30s)")


def test_criterion_4_solve_count_laws(small_problem, small_approx):
    t0 = time.perf_counter()
    model = small_problem.true_model()
    m = small_approx.pole_count
    cache = rb.ShiftedFactorCache()
    opr = rb.JacobianOperator(small_problem, model, small_approx, cache)
    assert cache.counters.factorizations == m

    v = np.ones(opr.shape[1])
    w = np.ones(opr.shape[0])
    s0 = cache.counters.snapshot()
    opr.jvp(v)
    opr.vjp(w)
    s1 = cache.counters.snapshot()
    jvp_vjp_solves = s1["solves"] - s0["solves"]

    doubled = rb.refit_residues(small_approx,
                                rb.TimeChannels.logspaced(1e-6, 1e-3,
                                                          2 * small_approx.channels.count))
    opr2 = rb.JacobianOperator(small_problem, model, doubled, cache)
    s2 = cache.counters.snapshot()
    opr2.jvp(v)
    opr2.vjp(np.ones(opr2.shape[0]))
    s3 = cache.counters.snapshot()
    elapsed = time.perf_counter() - t0

    ok = (cache.counters.factorizations == m
          and jvp_vjp_solves == 2 * m
          and s3["solves"] - s2["solves"] == 2 * m)
    _report(4, ok and elapsed < 10.0,
            f"factorizations {cache.counters.factorizations} == m == {m} after doubling "
            f"channels; jvp+vjp solves {jvp_vjp_solves} then {s3['solves'] - s2['solves']} "
            f"(both 2m), {elapsed:.1f}s (limit 10s)")


def test_criterion_5_lsqr_vs_normal_equations():
    t0 = time.perf_counter()
    spec = rb.ProblemSpec(
        dimension=2, extent=(-60.0, 60.0, -60.0, 60.0), n_cells=(3, 3), kappa=1e5,
        sigma_background=0.1,
        receivers=np.array([(-20.0, -20.0), (0.0, 0.0), (20.0, 20.0)]),
        source=rb.SourceSpec(kind="box", center=(0.0, 0.0), size=(40.0, 40.0)),
        anomalies=(rb.AnomalySpec(box=(-60, 0, -60, 0), sigma=0.3),),
    )
    prob = rb.build_problem(spec)
    P = prob.grid.cell_count
    assert P <= 20
    channels = rb.TimeChannels.logspaced(1e-6, 1e-3, 5)
    bound = rb.spectral_bound(prob, prob.reference_model())
    ap = rb.fit_common_pole(channels, (0.0, 10 * bound), 10,
                            rb.FitConfig(grid_size=300))
    data = rb.make_dataset(prob, prob.true_model(), ap, rb.NoiseSpec(eps_r=0.03, seed=3))
    model = prob.reference_model()
    reg = rb.build_reg(prob.grid)
    cache = rb.ShiftedFactorCache()
    lam = 5.0
    opr = rb.JacobianOperator(prob, model, ap, cache)
    d_pred = rb.response_from_pole_solutions(prob, ap, opr.g)
    dm, _, _ = rb.gn_step(opr, reg, data, d_pred, model, lam,
                          rb.LsqrConfig(tol=1e-14, max_iters=3000))
    J = dense_jacobian(opr)
    W2 = np.diag(data.weights ** 2)
    L = reg.L.toarray()
    dm_direct = np.linalg.solve(
        J.T @ W2 @ J + lam * L,
        J.T @ W2 @ (data.d_obs - d_pred) + lam * (L @ (model.m_ref - model.m)))
    rel = np.linalg.norm(dm - dm_direct) / np.linalg.norm(dm_direct)
    elapsed = time.perf_counter() - t0
    _report(5, rel <= 1e-6 and elapsed < 10.0,
            f"P={P}, |lsqr - normal equations| rel {rel:.3e} (limit 1e-6), "
            f"{elapsed:.1f}s (limit 10s)")


def test_criterion_6_regularization_identities(small_problem):
    t0 = time.perf_counter()
    reg = rb.build_reg(small_problem.grid)
    P = small_problem.grid.cell_count

    R = reg.R_factor.toarray()
    L = reg.L.toarray()
    chol_rel = np.linalg.norm(R.T @ R - L, "fro") / np.linalg.norm(L, "fro")

    rng = np.random.default_rng(5)
    model = rb.Model(rng.standard_normal(P), np.zeros(P))
    _, grad = rb.reg_value_grad(reg, model)
    eps = 1e-6
    worst_fd = 0.0
    for c in rng.choice(P, 10, replace=False):
        up = rb.Model(model.m.copy(), model.m_ref)
        dn = rb.Model(model.m.copy(), model.m_ref)
        up.m[c] += eps
        dn.m[c] -= eps
        fd = (rb.reg_value_grad(reg, up)[0] - rb.reg_value_grad(reg, dn)[0]) / (2 * eps)
        worst_fd = max(worst_fd, abs(fd - grad[c]) / max(abs(grad[c]), 1e-12))

    L_div = reg.L - reg.anchor_eps * sp.diags(small_problem.grid.cell_measure)
    const_residual = np.max(np.abs(L_div @ np.ones(P)))
    elapsed = time.perf_counter() - t0
    ok = chol_rel <= 1e-12 and worst_fd <= 1e-7 and const_residual <= 1e-10
    _report(6, ok and elapsed < 5.0,
            f"|R^T R - L| rel {chol_rel:.2e} (limit 1e-12), grad-FD {worst_fd:.2e} "
            f"(limit 1e-7), |L_div 1| {const_residual:.2e}, {elapsed:.1f}s (limit 5s)")


def test_criterion_7_end_to_end_inversion(inv_problem, inversion_run):
    state, elapsed = inversion_run
    cen = inv_problem.grid.cell_centroids()
    log10e = np.log10(np.e)
    bg = np.log10(inv_problem.spec.sigma_background)
    cond = float(np.mean(state.model.m[in_box(cen, COND_BOX)])) * log10e - bg
    res = float(np.mean(state.model.m[in_box(cen, RES_BOX)])) * log10e - bg

    ok = (state.chi2 <= 1.2 and state.nu <= 30
          and cond >= 0.5 and res <= -0.1 and elapsed < 900.0)
    regression_ok = (abs(state.chi2 - PINNED_CHI2) <= 0.1
                     and abs(cond - PINNED_COND_CONTRAST) <= 0.15
                     and abs(res - PINNED_RES_CONTRAST) <= 0.15)
    _report(7, ok and regression_ok,
            f"chi2 {state.chi2:.3f} (limit 1.2) in {state.nu} iterations, conductive "
            f"contrast {cond:+.3f} log10 (>= +0.5), resistive {res:+.3f} (<= -0.1), "
            f"pins [{PINNED_CHI2:.3f}, {PINNED_COND_CONTRAST:+.3f}, "
            f"{PINNED_RES_CONTRAST:+.3f}], {elapsed:.1f}s (limit 900s)")


def test_cooling_replays_from_the_history(inversion_run):
    # lambda halves after a rejected step or an accepted one whose relative
    # decrease of phi is below COOLING_TOL, and stays put otherwise
    state, _ = inversion_run
    halvings = 0
    for row, after in zip(state.history, state.history[1:] + [state]):
        cools = (not row.accepted
                 or (row.phi_before - row.phi) / abs(row.phi_before) < COOLING_TOL)
        assert after.lam == (0.5 * row.lam if cools else row.lam)
        halvings += cools
    assert 0 < halvings < len(state.history)


def test_criterion_7_reaches_the_target_with_iterations_to_spare(inv_problem, inv_approx):
    # noise seed 101 needs the most iterations of the benchmark's seeds
    # 1234, 101 and 7: the target, not the cap, must end its run
    data = rb.make_dataset(inv_problem, inv_problem.true_model(), inv_approx,
                           rb.NoiseSpec(eps_r=0.03, seed=101))
    state = rb.run_inversion(inv_problem, data, inv_approx,
                             rb.InversionConfig(lambda0=100.0, chi2_target=1.0,
                                                max_gn=30, workers=2))
    assert state.chi2 <= 1.0 and state.nu < 30, (state.chi2, state.nu)


def test_criterion_8_parallel_determinism(inv_problem, inv_approx,
                                          small_problem, small_approx):
    t0 = time.perf_counter()
    model = inv_problem.true_model()
    solutions = []
    for W in (1, 2, 4, 8):
        with rb.ShiftedFactorCache(W) as cache:
            g = rb.solve_all_poles(inv_problem, model, inv_approx, inv_problem.f, cache)
        solutions.append(g.tobytes())

    data = rb.make_dataset(small_problem, small_problem.true_model(), small_approx,
                           rb.NoiseSpec(eps_r=0.03, seed=5))
    models = []
    for W in (1, 2, 4, 8):
        st = rb.run_inversion(small_problem, data, small_approx,
                              rb.InversionConfig(lambda0=100.0, max_gn=6, workers=W))
        models.append(st.model.m)
    elapsed = time.perf_counter() - t0
    ok = (len(set(solutions)) == 1
          and all(np.array_equal(models[0], mm) for mm in models[1:]))
    _report(8, ok and elapsed < 300.0,
            f"pole solutions bit-identical over W in {{1,2,4,8}} and inverted "
            f"models bit-identical, {elapsed:.1f}s (limit 300s)")


def test_criterion_9_timing_model_soft(inversion_run):
    state, _ = inversion_run
    model = rb.fit_timing_model([r.as_dict() for r in state.history])
    ok = model.defined and model.r_squared >= 0.95
    detail = (f"wall = {model.intercept:.1f} ms + {model.slope:.2f} ms/LSQR iteration, "
              f"R^2 {model.r_squared:.3f} over {len(state.history)} iterations "
              f"(target 0.95; soft criterion, recorded)")
    if not ok:
        warnings.warn(f"timing model below target: {detail}")
    print(f"\n[criterion 9] {'PASS' if ok else 'RECORDED'} - {detail}")


def test_criterion_10_chi2_calibration(small_problem, small_approx):
    t0 = time.perf_counter()
    model = small_problem.true_model()
    cache = rb.ShiftedFactorCache()
    clean = rb.forward_response(small_problem, model, small_approx, cache)
    chis = []
    for seed in range(100):
        data = rb.make_dataset(small_problem, model, small_approx,
                               rb.NoiseSpec(eps_r=0.03, seed=seed), cache)
        chis.append(rb.chi_squared(data, clean))
    mean = float(np.mean(chis))
    elapsed = time.perf_counter() - t0
    _report(10, 0.9 <= mean <= 1.1 and elapsed < 300.0,
            f"mean chi2 over 100 seeds {mean:.4f} in [0.9, 1.1], "
            f"{elapsed:.1f}s (limit 300s)")
