import itertools
import json
from dataclasses import fields, replace

import numpy as np
import pytest

import rbainv as rb
from rbainv import rba
from rbainv.rba import FitConfig, PoleCollisionError, RationalApproximant


def test_time_channels_validation():
    with pytest.raises(ValueError):
        rb.TimeChannels(np.array([1e-3, 1e-4]))
    with pytest.raises(ValueError):
        rb.TimeChannels(np.array([-1.0, 1.0]))
    ch = rb.TimeChannels.logspaced(1e-6, 1e-3, 31)
    assert ch.count == 31
    assert ch.times[0] == pytest.approx(1e-6)


@pytest.mark.parametrize("times", [[np.nan, 1.0], [1e-3, np.inf], [1e-3, np.nan, 1.0]])
def test_time_channels_reject_non_finite(times):
    with pytest.raises(ValueError, match="finite"):
        rb.TimeChannels(np.array(times))


def test_eval_scalar_single_pole_pure_imaginary():
    # 2 Re(1 / (0 - i)) = 2 Re(i) = 0
    ap = RationalApproximant(poles=np.array([1j]), residues=np.array([[1.0 + 0j]]),
                             spectral_interval=(0.0, 1.0), fit_error=np.inf,
                             channels=rb.TimeChannels(np.array([1.0])))
    assert ap.eval(0.0)[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_eval_scalar_single_pole_shifted():
    # pole 1+i at x=1: 2 Re(1 / (-i)) = 0
    ap = RationalApproximant(poles=np.array([1.0 + 1j]), residues=np.array([[1.0 + 0j]]),
                             spectral_interval=(0.0, 2.0), fit_error=np.inf,
                             channels=rb.TimeChannels(np.array([1.0])))
    assert ap.eval(1.0)[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_eval_is_real_and_matches_conjugate_pair_sum():
    rng = np.random.default_rng(0)
    poles = np.array([-3.0 + 2j, 1.0 + 5j])
    residues = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    ap = RationalApproximant(poles=poles, residues=residues,
                             spectral_interval=(0.0, 10.0), fit_error=np.inf,
                             channels=rb.TimeChannels(np.array([1.0, 2.0, 3.0])))
    x = rng.uniform(0, 10, 20)
    vals = ap.eval(x)
    assert vals.dtype == np.float64
    # explicit sum over the full conjugate-closed pole set
    full_poles = np.concatenate([poles, poles.conj()])
    full_res = np.vstack([residues, residues.conj()])
    explicit = np.real((1.0 / (x[:, None] - full_poles[None, :])) @ full_res)
    np.testing.assert_allclose(vals, explicit, rtol=1e-13)


def test_pole_admissibility_enforced():
    with pytest.raises(ValueError):
        RationalApproximant(poles=np.array([1.0 + 0j]), residues=np.array([[1.0 + 0j]]),
                            spectral_interval=(0.0, 1.0), fit_error=0.0,
                            channels=rb.TimeChannels(np.array([1.0])))


def test_duplicate_poles_rejected():
    with pytest.raises(PoleCollisionError):
        RationalApproximant(poles=np.array([1j, 1j]),
                            residues=np.zeros((2, 1), complex),
                            spectral_interval=(0.0, 1.0), fit_error=0.0,
                            channels=rb.TimeChannels(np.array([1.0])))


def test_single_pole_near_constant_channel():
    # on [0, 1e-6/t1] the target is constant to 1e-6; one pole is plenty
    t1 = 2.0
    ch = rb.TimeChannels(np.array([t1]))
    ap = rb.fit_common_pole(ch, (0.0, 1e-6 / t1), 1)
    assert ap.fit_error < 1e-3


def test_fit_value_at_zero_within_fit_error(acc_approx):
    assert np.all(np.abs(acc_approx.eval(0.0) - 1.0) <= acc_approx.fit_error)


def test_fit_random_points_bounded_by_fit_error(acc_approx):
    rng = np.random.default_rng(3)
    x = rng.uniform(*acc_approx.spectral_interval, 200)
    got = acc_approx.eval(x)
    target = np.exp(-np.outer(x, acc_approx.channels.times))
    # random points fall between validation nodes; allow a hair of slack
    assert np.max(np.abs(got - target)) <= 1.05 * acc_approx.fit_error + 1e-14


def test_validate_fit_refined_grid(acc_approx):
    report = rb.validate_fit(acc_approx, 4001)
    assert report.max_abs <= 2.0 * acc_approx.fit_error
    assert report.per_channel_max_abs.shape == (31,)
    assert np.all(report.per_channel_max_abs <= report.max_abs)


def test_time_channels_reject_an_empty_list():
    with pytest.raises(ValueError, match="nonempty"):
        rb.TimeChannels(np.array([]))
    with pytest.raises(ValueError, match="nonempty"):
        rb.TimeChannels.logspaced(1e-6, 1e-3, 0)


def test_validate_fit_monotone_in_grid_size(acc_approx):
    coarse = rb.validate_fit(acc_approx, 10)
    fine = rb.validate_fit(acc_approx, 10000)
    assert fine.max_abs >= coarse.max_abs * (1.0 - 1e-12)


def test_validate_fit_grid_size_precondition(acc_approx):
    with pytest.raises(ValueError):
        rb.validate_fit(acc_approx, 9)


def test_nonconvergence_reports_best_iterate(channels31):
    ap = rb.fit_common_pole(channels31, (0.0, 1e5), 6, FitConfig(max_iters=1, grid_size=200))
    assert not ap.converged
    assert ap.iterations == 1
    assert np.isfinite(ap.fit_error)


def test_refit_residues_keeps_poles(acc_approx):
    doubled = rb.TimeChannels.logspaced(1e-6, 1e-3, 62)
    re = rb.refit_residues(acc_approx, doubled)
    assert np.array_equal(re.poles, acc_approx.poles)
    assert re.residues.shape == (acc_approx.pole_count, 62)
    assert re.fit_error < 100 * acc_approx.fit_error


def test_serialization_roundtrip(tmp_path, acc_approx):
    path = tmp_path / "approx.json"
    rb.save_approximant(acc_approx, path)
    with open(path) as fh:
        doc = json.load(fh)
    assert set(doc) == {"times", "poles", "residues", "interval", "fit_error"}
    assert len(doc["residues"]) == acc_approx.channels.count
    assert len(doc["residues"][0]) == acc_approx.pole_count
    back = rb.load_approximant(path)
    np.testing.assert_array_equal(back.poles, acc_approx.poles)
    np.testing.assert_array_equal(back.residues, acc_approx.residues)
    np.testing.assert_array_equal(back.channels.times, acc_approx.channels.times)
    assert back.fit_error == acc_approx.fit_error


def test_fit_config_has_two_fields():
    assert [f.name for f in fields(FitConfig)] == ["max_iters", "grid_size"]


def test_fit_samples_only_inside_a_positive_interval(monkeypatch):
    # with x_min > 0 the least-squares rows may not come from x = 0 or any
    # other point below the interval
    interval = (100.0, 2e6)
    times = np.geomspace(1e-6, 1e-3, 4)
    grids = []
    pair_basis = rba._pair_basis

    def recording_basis(x, poles):
        grids.append(x)
        return pair_basis(x, poles)

    monkeypatch.setattr(rba, "_pair_basis", recording_basis)
    ap = rb.fit_common_pole(rb.TimeChannels(times), interval, 4,
                            FitConfig(max_iters=3, grid_size=200))
    rb.refit_residues(ap, rb.TimeChannels(times))
    assert grids
    for x in grids:
        assert x[0] == interval[0] and x[-1] == interval[1]
        assert np.all((x >= interval[0]) & (x <= interval[1]))


def test_fit_preconditions(channels31):
    with pytest.raises(ValueError):
        rb.fit_common_pole(channels31, (0.0, 1e5), 0)
    with pytest.raises(ValueError):
        rb.fit_common_pole(channels31, (-1.0, 1e5), 4)
    with pytest.raises(ValueError):
        rb.fit_common_pole(rb.TimeChannels(np.array([])), (0.0, 1e5), 4)
    for interval in [(0.0, np.inf), (np.nan, 1e5), (0.0, np.nan)]:
        with pytest.raises(ValueError, match="finite"):
            rb.fit_common_pole(channels31, interval, 4)


def test_fit_bit_identical_for_any_worker_count():
    channels = rb.TimeChannels.logspaced(1e-6, 1e-3, 6)
    cfg = FitConfig(grid_size=300, max_iters=15)
    serial = rb.fit_common_pole(channels, (0.0, 1e5), 4, cfg)
    for W in (1, 2, 4):
        with rb.PoleWorkerPool(W) as pool:
            fit = rb.fit_common_pole(channels, (0.0, 1e5), 4, cfg, pool)
        assert np.array_equal(fit.poles, serial.poles)
        assert np.array_equal(fit.residues, serial.residues)
        assert fit.fit_error == serial.fit_error
        assert fit.iterations == serial.iterations


def test_fit_history_has_one_entry_per_iteration(channels31):
    cfg = FitConfig(grid_size=200, max_iters=12)
    ap = rb.fit_common_pole(channels31, (0.0, 1e5), 6, cfg)
    initial = rb.fit_common_pole(channels31, (0.0, 1e5), 6, replace(cfg, max_iters=0))
    history = ap.history
    assert ap.iterations > 0 and len(history) == ap.iterations
    assert all(np.isfinite(err) and move >= 0.0 for err, move in history)
    assert ap.fit_error == min([initial.fit_error] + [err for err, _ in history])


def test_fit_stops_stall_iters_past_its_best_iterate(monkeypatch):
    # a fit that neither converges nor reaches max_iters ends on the stall
    # rule; a wider window only adds passes that never beat the best one
    channels = rb.TimeChannels.logspaced(1e-6, 1e-3, 7)
    cfg = FitConfig(grid_size=300, max_iters=50)
    stall = rba.STALL_ITERS
    fit = rb.fit_common_pole(channels, (0.0, 1e6), 8, cfg)
    monkeypatch.setattr(rba, "STALL_ITERS", 10)
    wide = rb.fit_common_pole(channels, (0.0, 1e6), 8, cfg)
    assert not (fit.converged or wide.converged)
    assert len(wide.history) < cfg.max_iters
    assert wide.history[:len(fit.history)] == fit.history
    best_pass = 1 + int(np.argmin([err for err, _ in fit.history]))
    assert fit.history[best_pass - 1][0] == fit.fit_error
    assert fit.iterations == best_pass + stall < wide.iterations
    np.testing.assert_array_equal(wide.poles, fit.poles)
    np.testing.assert_array_equal(wide.residues, fit.residues)
    assert wide.fit_error == fit.fit_error


def _denominator_rows_oracle(B, F_j, m):
    """``R[2m:, 2m:]`` and ``Q[:, 2m:]^T F_j`` from an explicit-Q QR of
    ``[B | -F_j B]``."""
    Q, R = np.linalg.qr(np.concatenate([B, -F_j[:, None] * B], axis=1), mode="reduced")
    return R[2 * m:, 2 * m:], Q[:, 2 * m:].T @ F_j


def test_fit_error_holds_on_a_refined_grid_for_a_positive_x_min():
    # the log-spaced samples start at x_min, so no stretch of a positive
    # interval is sampled by the linear points alone
    ap = rb.fit_common_pole(rb.TimeChannels.logspaced(1e-6, 1e-3, 15), (500.0, 2e6), 21,
                            FitConfig(grid_size=500))
    assert rb.validate_fit(ap, 4001).max_abs <= 2 * ap.fit_error


def _stacked_cd(rows):
    AA = np.vstack([R for R, _ in rows])
    bb = np.concatenate([b for _, b in rows])
    col = np.linalg.norm(AA, axis=0)
    cd, *_ = np.linalg.lstsq(AA / col, bb, rcond=None)
    return cd / col


def test_denominator_rows_match_explicit_q_oracle():
    times = np.geomspace(1e-6, 1e-3, 6)
    m = 4
    x, F = rba._samples((0.0, 1e5), times, 300)
    B = rba._pair_basis(x, rba._initial_poles(times, m))
    got = [rba._denominator_rows(B, F[j], m) for j in range(times.size)]
    want = [_denominator_rows_oracle(B, F[j], m) for j in range(times.size)]
    assert [(R.shape, b.shape) for R, b in got] == [(R.shape, b.shape) for R, b in want]
    cd, cd_ref = _stacked_cd(got), _stacked_cd(want)
    assert np.linalg.norm(cd - cd_ref) <= 1e-10 * np.linalg.norm(cd_ref)


def test_relocate_poles_merges_a_real_pair_into_one_pole():
    # pole i with (c, d) = (2, 0): the 2x2 block [[-4, 1], [-1, 0]] has the
    # real eigenvalues -2 +- sqrt(3), merged at their midpoint and lifted by
    # their half distance
    new = rba._relocate_poles(np.array([1j]), np.array([2.0]), np.array([0.0]))
    np.testing.assert_allclose(new, [-2.0 + 1j * np.sqrt(3.0)], rtol=1e-14)


def relocate_poles_loop(poles, c, d):
    """`rba._relocate_poles` with a loop per pole for the block companion form
    and per real pair for the merge; reference for its array version."""
    m = poles.size
    A, b, crow = np.zeros((2 * m, 2 * m)), np.zeros(2 * m), np.zeros(2 * m)
    for i, xi in enumerate(poles):
        k = 2 * i
        A[k, k] = A[k + 1, k + 1] = xi.real
        A[k, k + 1], A[k + 1, k] = xi.imag, -xi.imag
        b[k], crow[k], crow[k + 1] = 2.0, c[i], d[i]
    ev = np.linalg.eigvals(A - np.outer(b, crow))
    is_real = np.abs(ev.imag) <= 1e-9 * np.abs(ev) + 1e-300
    new = list(ev[~is_real & (ev.imag > 0)])
    reals = np.sort(ev[is_real].real)
    for k in range(0, reals.size - 1, 2):
        mid = 0.5 * (reals[k] + reals[k + 1])
        new.append(mid + 1j * max(0.5 * abs(reals[k + 1] - reals[k]), 1e-6 * max(abs(mid), 1.0)))
    new = rba._spread_duplicates(np.asarray(new, dtype=complex))
    return new[np.lexsort((new.real, new.imag))]


def test_relocate_poles_returns_m_upper_half_plane_poles(monkeypatch):
    eigvals = np.linalg.eigvals
    real_counts = []

    def counting_eigvals(a):
        ev = eigvals(a)
        real_counts.append(int(np.sum(ev.imag == 0)))
        return ev

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    times = np.geomspace(1e-6, 1e-3, 31)
    for seed, m, amp in itertools.product(range(10), (1, 3, 6), (1e-3, 1.0, 1e3)):
        rng = np.random.default_rng(seed)
        poles = rba._initial_poles(times, m)
        c, d = amp * np.abs(poles) * rng.standard_normal((2, m))
        new = rba._relocate_poles(poles, c, d)
        assert new.shape == (m,) and np.all(new.imag > 0)
        np.testing.assert_array_equal(new, new[np.lexsort((new.real, new.imag))])
        np.testing.assert_array_equal(new, relocate_poles_loop(poles, c, d))
    assert sum(n > 0 for n in real_counts) >= 40       # real pairs were merged


def test_spread_duplicates_nudges_coincident_poles_apart():
    poles = np.array([1.0 + 2.0j, 3.0 + 1.0j, 1.0 + 2.0j])
    out = rba._spread_duplicates(poles)
    np.testing.assert_array_equal(out[:2], [3.0 + 1.0j, 1.0 + 2.0j])   # (imag, real) order
    assert out[2].real == 1.0 and out[2].imag > 2.0
    rba._check_collisions(out, rba.COLLISION_TOL)
    distinct = np.array([1.0 + 1.0j, 2.0 + 1.5j])
    np.testing.assert_array_equal(rba._spread_duplicates(distinct), distinct)


def test_spread_duplicates_stacks_three_coincident_poles():
    out = rba._spread_duplicates(np.array([1.0 + 2.0j] * 3))
    assert np.all(out.real == 1.0)
    assert out[0].imag == 2.0 < out[1].imag < out[2].imag
    np.testing.assert_allclose(out.imag, [2.0, 2.000002, 2.000004], rtol=1e-8)
    rba._check_collisions(out, rba.COLLISION_TOL)
