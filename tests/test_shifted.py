import dataclasses
import functools
import gc
import inspect
import multiprocessing
import os
import signal
import socket
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg as la

import rbainv as rb
from conftest import (assert_freed_on_the_calling_thread, calling_share, held_poles,
                      shifted_matrix)
from rbainv import shifted
from rbainv.shifted import CacheMissError, SolveError, _Factor


def scalar_problem():
    """One interior dof: two unit-width cells on [0, 2], Dirichlet ends."""
    spec = rb.ProblemSpec(dimension=1, extent=(0.0, 2.0), n_cells=(2,), kappa=1.0,
                          sigma_background=1.0,
                          receivers=np.array([[1.0]]),
                          source=rb.SourceSpec(kind="delta", position=(1.0,)))
    return rb.build_problem(spec)


def tiny_approx(poles):
    K_t = 1
    return rb.RationalApproximant(
        poles=np.asarray(poles, dtype=complex),
        residues=np.ones((len(poles), K_t), complex),
        spectral_interval=(0.0, 10.0), fit_error=np.inf,
        channels=rb.TimeChannels(np.array([1.0])))


def test_scalar_system_inverse():
    prob = scalar_problem()
    model = prob.reference_model()
    # hand values: K = 2*kappa/w = 2, M = 2*sigma*w*2/6 = 2/3
    k, mu = 2.0, 2.0 / 3.0
    poles = [0.5 + 1.5j, -2.0 + 3.0j]
    ap = tiny_approx(poles)
    cache = rb.ShiftedFactorCache()
    g = rb.solve_all_poles(prob, model, ap, np.array([1.0]), cache)
    for i, xi in enumerate(poles):
        assert g[i, 0] == pytest.approx(1.0 / (k - xi * mu), rel=1e-14)


def test_zero_rhs(small_problem, small_approx):
    cache = rb.ShiftedFactorCache()
    g = rb.solve_all_poles(small_problem, small_problem.reference_model(),
                           small_approx, np.zeros(small_problem.dof_count), cache)
    assert np.all(g == 0)


def test_residuals_small_1d(problem_1d):
    poles = [0.3 + 1.0j, -4.0 + 0.5j, 2.0 + 7.0j]
    ap = tiny_approx(poles)
    model = problem_1d.reference_model()
    cache = rb.ShiftedFactorCache()
    rhs = problem_1d.f
    g = rb.solve_all_poles(problem_1d, model, ap, rhs, cache)
    for i, xi in enumerate(poles):
        A = shifted_matrix(problem_1d, model, xi)
        assert np.linalg.norm(A @ g[i] - rhs) / np.linalg.norm(rhs) <= 1e-8


def test_resolve_repeat_is_bitwise_and_counts(small_problem, small_approx):
    cache = rb.ShiftedFactorCache()
    model = small_problem.reference_model()
    rb.factorize_all_poles(small_problem, model, small_approx, cache)
    before = cache.counters.snapshot()
    rhs = np.arange(small_problem.dof_count, dtype=complex)
    a = cache.solve(3, rhs)
    b = cache.solve(3, rhs)
    after = cache.counters.snapshot()
    np.testing.assert_array_equal(a, b)
    assert after["solves"] - before["solves"] == 2
    assert after["factorizations"] == before["factorizations"]


def test_resolve_constructed_solution(small_problem, small_approx):
    cache = rb.ShiftedFactorCache()
    model = small_problem.reference_model()
    rb.factorize_all_poles(small_problem, model, small_approx, cache)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(small_problem.dof_count) + 1j * rng.standard_normal(small_problem.dof_count)
    A = shifted_matrix(small_problem, model, small_approx.poles[2])
    got = cache.solve(2, A @ x)
    assert np.linalg.norm(got - x) / np.linalg.norm(x) <= 1e-8


def test_resolve_conjugated_rhs(small_problem, small_approx):
    cache = rb.ShiftedFactorCache()
    model = small_problem.reference_model()
    rb.factorize_all_poles(small_problem, model, small_approx, cache)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(small_problem.dof_count) + 1j * rng.standard_normal(small_problem.dof_count)
    x = cache.solve(0, rhs)
    x_conj = cache.solve(0, rhs.conj())
    # A is fixed (not conjugated), so conj of rhs gives A^{-1} conj(rhs); by
    # linearity over C the two solutions relate through the real/imag split
    re = cache.solve(0, rhs.real.astype(complex))
    im = cache.solve(0, (1j * rhs.imag).astype(complex))
    np.testing.assert_allclose(x, re + im, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(x_conj, re - im, rtol=1e-10, atol=1e-12)


def test_cache_miss_raises(small_problem, small_approx):
    cache = rb.ShiftedFactorCache()
    with pytest.raises(CacheMissError):
        cache.solve(0, np.zeros(small_problem.dof_count, complex))
    # a fewer-pole approximant at another model leaves no factor for the rest
    m0 = small_problem.reference_model()
    rb.factorize_all_poles(small_problem, m0, small_approx, cache)
    fewer = tiny_approx(small_approx.poles[:3])
    rb.factorize_all_poles(small_problem, rb.Model(m0.m + 0.1, m0.m_ref), fewer, cache)
    assert sorted(cache.factors) == [0, 1, 2]
    with pytest.raises(CacheMissError):
        cache.solve(3, np.zeros(small_problem.dof_count, complex))


def test_model_version_invalidates_entries(small_problem, small_approx):
    cache = rb.ShiftedFactorCache()
    m0 = small_problem.reference_model()
    rb.factorize_all_poles(small_problem, m0, small_approx, cache)
    assert cache.has(0) and cache.has(0, m0.version_tag())
    m1 = rb.Model(m0.m + 0.1, m0.m_ref)
    rb.factorize_all_poles(small_problem, m1, small_approx, cache)
    assert not any(cache.has(i, m0.version_tag()) for i in range(small_approx.pole_count))
    assert all(cache.has(i, m1.version_tag()) for i in range(small_approx.pole_count))
    assert cache.counters.factorizations == 2 * small_approx.pole_count


@pytest.mark.parametrize("first_poles", [8, 16])
def test_shared_cache_refactorizes_for_other_poles(small_problem, small_approx, first_poles):
    # the same model, channels and interval, fitted with first_poles and then 12 poles
    model = small_problem.true_model()
    fit = functools.partial(rb.fit_common_pole, small_approx.channels,
                            small_approx.spectral_interval, fit_cfg=rb.FitConfig(grid_size=500))
    first = small_approx if first_poles == 16 else fit(first_poles)
    second = fit(12)
    shared = rb.ShiftedFactorCache()
    rb.forward_response(small_problem, model, first, shared)
    got = rb.forward_response(small_problem, model, second, shared)
    np.testing.assert_array_equal(
        got, rb.forward_response(small_problem, model, second, rb.ShiftedFactorCache()))


def test_shared_cache_refactorizes_for_another_problem(small_problem, small_approx):
    # one 8x8 grid and one model, two stiffness scales
    stiffer = rb.build_problem(dataclasses.replace(small_problem.spec, kappa=3e5))
    model = small_problem.reference_model()
    shared = rb.ShiftedFactorCache()
    rb.forward_response(small_problem, model, small_approx, shared)
    got = rb.forward_response(stiffer, model, small_approx, shared)
    np.testing.assert_array_equal(
        got, rb.forward_response(stiffer, model, small_approx, rb.ShiftedFactorCache()))


def test_worker_count_invariance(small_problem, small_approx):
    model = small_problem.true_model()
    outs = []
    for W in (1, 2, 4, 8):
        with rb.ShiftedFactorCache(W) as cache:
            g = rb.solve_all_poles(small_problem, model, small_approx, small_problem.f, cache)
        outs.append(g)
    for g in outs[1:]:
        np.testing.assert_array_equal(outs[0], g)


def test_factorization_count_law(small_problem, small_approx):
    cache = rb.ShiftedFactorCache()
    model = small_problem.reference_model()
    m = small_approx.pole_count
    rb.solve_all_poles(small_problem, model, small_approx, small_problem.f, cache)
    assert cache.counters.factorizations == m
    # more solves, same model: no new factorizations
    rb.solve_all_poles(small_problem, model, small_approx, small_problem.f, cache)
    for i in range(m):
        cache.solve(i, small_problem.f.astype(complex))
    assert cache.counters.factorizations == m
    # channel count plays no role: same poles, doubled channels
    doubled = rb.refit_residues(small_approx, rb.TimeChannels.logspaced(1e-6, 1e-3, 14))
    rb.solve_all_poles(small_problem, model, doubled, small_problem.f, cache)
    assert cache.counters.factorizations == m


def test_solves_match_dense_solve(problem_1d):
    ap = tiny_approx([1.0 + 2.0j, -3.0 + 1.0j])
    model = problem_1d.reference_model()
    cache = rb.ShiftedFactorCache()
    g_sparse = rb.solve_all_poles(problem_1d, model, ap, problem_1d.f, cache)
    rhs = problem_1d.f.astype(complex)
    g_dense = [la.solve(shifted_matrix(problem_1d, model, xi).toarray(), rhs) for xi in ap.poles]
    np.testing.assert_allclose(g_sparse, g_dense, rtol=1e-12)


def test_transpose_solve_consistency(small_problem, small_approx):
    cache = rb.ShiftedFactorCache()
    rb.factorize_all_poles(small_problem, small_problem.reference_model(),
                           small_approx, cache)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(small_problem.dof_count) + 0j
    # complex symmetric: transpose solve equals plain solve to rounding
    a = cache.solve(4, rhs, trans="N")
    b = cache.solve(4, rhs, trans="T")
    np.testing.assert_allclose(a, b, rtol=1e-10)


def test_singular_shift_guarded():
    prob = scalar_problem()
    # a real pole equal to the generalized eigenvalue makes A exactly singular;
    # the factorization must surface it as SolveError rather than nonsense
    k, mu = 2.0, 2.0 / 3.0
    A = prob.K.astype(complex) - (k / mu) * rb.assemble_M(prob, prob.reference_model()).astype(complex)
    with pytest.raises(SolveError):
        _Factor(A.tocsc())


@pytest.mark.parametrize("W", [2, 3, 4])
def test_inversion_frees_every_factor_on_the_thread_that_made_it(
        small_problem, small_approx, factor_threads, W):
    data = rb.make_dataset(small_problem, small_problem.true_model(), small_approx,
                           rb.NoiseSpec(seed=3))
    states = []
    for workers in (1, W):
        del factor_threads[:]
        states.append(rb.run_inversion(small_problem, data, small_approx,
                                       rb.InversionConfig(lambda0=50.0, max_gn=2,
                                                          workers=workers)))
        assert not multiprocessing.active_children()
    # the calling process made its share of every factor set, on this thread
    m = small_approx.pole_count
    assert_freed_on_the_calling_thread(factor_threads)
    assert len(factor_threads) == states[1].counters["factorizations"] // m * calling_share(m, W)
    assert states[0].counters == states[1].counters
    assert states[0].model.m.tobytes() == states[1].model.m.tobytes()


@pytest.mark.parametrize("W", [2, 3, 4])
def test_scaling_benchmark_frees_every_factor_on_the_thread_that_made_it(
        small_problem, small_approx, factor_threads, W):
    # the sequence a scaling measurement runs at 1 and W workers: factorize
    # every pole, solve every pole, then one J v and one J^T w from an
    # operator that solves for its own pole solutions
    model = small_problem.true_model()
    solutions = []
    for w in (1, W):
        with rb.ShiftedFactorCache(w) as cache:
            rb.factorize_all_poles(small_problem, model, small_approx, cache)
            g = rb.solve_all_poles(small_problem, model, small_approx, small_problem.f, cache)
            opr = rb.JacobianOperator(small_problem, model, small_approx, cache)
            opr.vjp(opr.jvp(np.ones(opr.shape[1])))
        assert not multiprocessing.active_children()
        solutions.append(g.tobytes())
    assert solutions[0] == solutions[1]
    assert_freed_on_the_calling_thread(factor_threads)


@pytest.mark.parametrize("W", [2, 3, 4])
def test_closing_a_cache_frees_the_factors_functions_made_with_it(
        small_problem, small_approx, factor_threads, W):
    model = small_problem.true_model()
    with rb.ShiftedFactorCache(W) as cache:
        rb.make_dataset(small_problem, model, small_approx, rb.NoiseSpec(seed=1), cache)
        opr = rb.JacobianOperator(small_problem, model, small_approx, cache)
        rb.taylor_test(opr, np.ones(small_problem.grid.cell_count), 10.0 ** -np.arange(1, 6))
        workers = multiprocessing.active_children()
        assert len(workers) == W - 1
    assert cache.factors == {}
    assert not multiprocessing.active_children()
    assert all(worker.exitcode == 0 for worker in workers)
    assert_freed_on_the_calling_thread(factor_threads)


def test_refactorization_replaces_stale_factor_on_its_owner(small_problem, small_approx,
                                                            factor_threads):
    ref = small_problem.reference_model()
    m, own = small_approx.pole_count, calling_share(small_approx.pole_count, 3)
    with rb.ShiftedFactorCache(3) as cache:
        for k in range(3):
            model = rb.Model(ref.m + 0.1 * k, ref.m_ref)
            rb.factorize_all_poles(small_problem, model, small_approx, cache)
            # one live factor per pole: each stale one was freed by its maker
            assert held_poles(cache) == list(range(m))
            assert sum(freed is None for _, freed in factor_threads) == own
            assert cache.counters.factorizations == (k + 1) * m
    assert len(factor_threads) == 3 * own
    assert_freed_on_the_calling_thread(factor_threads)
    assert cache.factors == {}


def test_fewer_poles_free_the_rest_on_their_owners(small_problem, small_approx, factor_threads):
    model = small_problem.true_model()
    with rb.ShiftedFactorCache(3) as cache:
        rb.factorize_all_poles(small_problem, model, small_approx, cache)
        rb.factorize_all_poles(small_problem, model, tiny_approx(small_approx.poles[:5]), cache)
        assert held_poles(cache) == list(range(5))
        assert sorted(cache.factors) == [0, 3]
        assert sum(freed is None for _, freed in factor_threads) == 2
    assert_freed_on_the_calling_thread(factor_threads)


@pytest.mark.parametrize("W", [1, 2])
def test_fewer_poles_after_a_failed_factorization(small_problem, small_approx, factor_threads,
                                                  monkeypatch, W):
    model = small_problem.true_model()
    other = model.perturbed(np.ones(model.cell_count), 0.1)
    pole_3 = shifted_matrix(small_problem, other, small_approx.poles[3])
    make = _Factor.__init__

    def fail_at_pole_3(self, A):
        if abs(A - pole_3).max() <= 1e-12 * abs(pole_3).max():
            raise SolveError("pole 3 fails")
        make(self, A)

    # patched before the workers start, so pole 3's worker fails at W=2 too
    monkeypatch.setattr(_Factor, "__init__", fail_at_pole_3)
    with rb.ShiftedFactorCache(W) as cache:
        rb.factorize_all_poles(small_problem, model, small_approx, cache)
        with pytest.raises(SolveError, match="pole 3 fails"):
            rb.factorize_all_poles(small_problem, other, small_approx, cache)
        assert cache.key is None and not cache.has(0)
        monkeypatch.setattr(_Factor, "__init__", make)
        # the failed pole has no factor left to drop
        rb.factorize_all_poles(small_problem, model, tiny_approx(small_approx.poles[:2]), cache)
        assert held_poles(cache) == [0, 1]
        assert sum(freed is None for _, freed in factor_threads) == calling_share(2, W)
    assert_freed_on_the_calling_thread(factor_threads)


def test_closed_cache_restarts_with_identical_solutions(small_problem, small_approx,
                                                        factor_threads):
    model = small_problem.true_model()
    with rb.ShiftedFactorCache(3) as cache:
        first = rb.solve_all_poles(small_problem, model, small_approx, small_problem.f, cache)
    assert cache.factors == {}
    assert not multiprocessing.active_children()
    with cache:
        second = rb.solve_all_poles(small_problem, model, small_approx, small_problem.f, cache)
        assert len(multiprocessing.active_children()) == 2
    assert not multiprocessing.active_children()
    assert cache.counters.factorizations == 2 * small_approx.pole_count
    assert_freed_on_the_calling_thread(factor_threads)
    np.testing.assert_array_equal(first, second)


def test_unclosed_cache_workers_are_collected_with_it(small_problem, small_approx):
    cache = rb.ShiftedFactorCache(2)
    rb.factorize_all_poles(small_problem, small_problem.true_model(), small_approx, cache)
    workers = multiprocessing.active_children()
    assert len(workers) == 1
    ref = weakref.ref(cache)
    del cache
    gc.collect()
    assert ref() is None
    assert not multiprocessing.active_children()
    assert workers[0].exitcode == 0


def test_close_stops_the_workers(small_problem, small_approx):
    cache = rb.ShiftedFactorCache(2)
    rb.factorize_all_poles(small_problem, small_problem.true_model(), small_approx, cache)
    [worker] = multiprocessing.active_children()
    cache.close()
    assert not multiprocessing.active_children() and worker.exitcode == 0
    assert cache.key is None and cache.factors == {}
    cache.close()


def test_workers_stop_when_a_cache_block_raises(small_problem, small_approx):
    with pytest.raises(ValueError, match="inside"):
        with rb.ShiftedFactorCache(2) as cache:
            rb.solve_all_poles(small_problem, small_problem.true_model(), small_approx,
                               small_problem.f, cache)
            assert len(multiprocessing.active_children()) == 1
            raise ValueError("inside")
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("W,poles,started", [(1, 16, 0), (2, 16, 1), (4, 2, 1), (8, 3, 2)])
def test_workers_started_are_at_most_one_fewer_than_the_poles(small_problem, small_approx,
                                                              W, poles, started):
    approx = tiny_approx(small_approx.poles[:poles])
    with rb.ShiftedFactorCache(W) as cache:
        rb.factorize_all_poles(small_problem, small_problem.true_model(), approx, cache)
        assert len(multiprocessing.active_children()) == started
        assert cache.counters.factorizations == poles
        assert held_poles(cache) == list(range(poles))


def test_a_reply_larger_than_the_socket_buffer_arrives_whole():
    a, b = socket.socketpair()
    with a, b:
        a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        array = np.arange(3 * 2**17, dtype=float).reshape(3, -1) + 0.5j
        sender = threading.Thread(target=shifted._send, args=(a, ("head", array.shape), array),
                                  daemon=True)
        sender.start()
        head, size = shifted._recv(b)
        got = np.empty(size, dtype=np.uint8)
        shifted._recv_exactly(b, memoryview(got))
        sender.join(30)
        assert not sender.is_alive()
    assert head == ("head", array.shape) and size == array.nbytes
    assert got.view(complex).reshape(head[1]).tobytes() == array.tobytes()


def test_a_killed_worker_raises_instead_of_hanging(small_problem, small_approx):
    model = small_problem.true_model()
    solve = functools.partial(rb.solve_all_poles, small_problem, model, small_approx,
                              small_problem.f)
    with rb.ShiftedFactorCache(2) as cache:
        first = solve(cache)
        [worker] = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(10)
        outcome = []
        runner = threading.Thread(target=lambda: outcome.append(_raised(solve, cache)),
                                  daemon=True)
        runner.start()
        runner.join(60)
        assert not runner.is_alive(), "the solve hung on a dead worker"
        assert isinstance(outcome[0], SolveError) and "pole worker 1" in str(outcome[0])
        assert cache.key is None and not multiprocessing.active_children()
        # the next use starts a new worker and refactorizes
        assert solve(cache).tobytes() == first.tobytes()
        assert cache.counters.factorizations == 2 * small_approx.pole_count


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the test inspects it
        return exc
    return None


def test_only_the_cache_takes_pole_workers():
    for fn in (rb.factorize_all_poles, rb.solve_all_poles, rb.forward_response,
               rb.JacobianOperator, rb.taylor_test, rb.make_dataset):
        assert "pool" not in inspect.signature(fn).parameters, fn.__name__
    assert "cache" not in inspect.signature(rb.run_inversion).parameters
    assert list(inspect.signature(rb.ShiftedFactorCache).parameters) == ["workers"]
