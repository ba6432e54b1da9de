import dataclasses
import functools
import inspect
import weakref

import numpy as np
import pytest
import scipy.linalg as la

import rbainv as rb
from conftest import assert_freed_where_made, shifted_matrix
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
    del factor_threads[:]
    rb.run_inversion(small_problem, data, small_approx,
                     rb.InversionConfig(lambda0=50.0, max_gn=2, workers=W))
    assert_freed_where_made(factor_threads)


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
        solutions.append(g.tobytes())
    assert solutions[0] == solutions[1]
    assert_freed_where_made(factor_threads)


@pytest.mark.parametrize("W", [2, 3, 4])
def test_closing_a_cache_frees_the_factors_functions_made_with_it(
        small_problem, small_approx, factor_threads, W):
    model = small_problem.true_model()
    with rb.ShiftedFactorCache(W) as cache:
        rb.make_dataset(small_problem, model, small_approx, rb.NoiseSpec(seed=1), cache)
        opr = rb.JacobianOperator(small_problem, model, small_approx, cache)
        rb.taylor_test(opr, np.ones(small_problem.grid.cell_count), 10.0 ** -np.arange(1, 6))
    assert_freed_where_made(factor_threads)


def test_refactorization_replaces_stale_factor_on_its_owner(small_problem, small_approx,
                                                            factor_threads):
    ref = small_problem.reference_model()
    with rb.ShiftedFactorCache(3) as cache:
        for k in range(3):
            model = rb.Model(ref.m + 0.1 * k, ref.m_ref)
            rb.factorize_all_poles(small_problem, model, small_approx, cache)
            # one live factor per pole: each stale one was freed by its maker
            assert sum(freed is None for _, freed in factor_threads) == small_approx.pole_count
    assert len(factor_threads) == 3 * small_approx.pole_count
    assert_freed_where_made(factor_threads)
    assert cache.factors == {}


def test_fewer_poles_free_the_rest_on_their_owners(small_problem, small_approx, factor_threads):
    model = small_problem.true_model()
    with rb.ShiftedFactorCache(3) as cache:
        rb.factorize_all_poles(small_problem, model, small_approx, cache)
        rb.factorize_all_poles(small_problem, model, tiny_approx(small_approx.poles[:5]), cache)
        assert sorted(cache.factors) == list(range(5))
        assert sum(freed is None for _, freed in factor_threads) == 5
    assert_freed_where_made(factor_threads)


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

    with rb.ShiftedFactorCache(W) as cache:
        rb.factorize_all_poles(small_problem, model, small_approx, cache)
        monkeypatch.setattr(_Factor, "__init__", fail_at_pole_3)
        with pytest.raises(SolveError):
            rb.factorize_all_poles(small_problem, other, small_approx, cache)
        monkeypatch.setattr(_Factor, "__init__", make)
        # the failed pole has no factor left to drop
        rb.factorize_all_poles(small_problem, model, tiny_approx(small_approx.poles[:2]), cache)
        assert sorted(cache.factors) == [0, 1]
        assert sum(freed is None for _, freed in factor_threads) == 2
    assert all(freed == made for made, freed in factor_threads)
    if W > 1:
        assert_freed_where_made(factor_threads)


def test_closed_cache_restarts_with_identical_solutions(small_problem, small_approx,
                                                        factor_threads):
    model = small_problem.true_model()
    with rb.ShiftedFactorCache(3) as cache:
        first = rb.solve_all_poles(small_problem, model, small_approx, small_problem.f, cache)
    assert cache.factors == {}
    with cache:
        second = rb.solve_all_poles(small_problem, model, small_approx, small_problem.f, cache)
    assert cache.counters.factorizations == 2 * small_approx.pole_count
    assert_freed_where_made(factor_threads)
    np.testing.assert_array_equal(first, second)


def test_unclosed_cache_workers_are_collected_with_it(small_problem, small_approx):
    cache = rb.ShiftedFactorCache(2)
    rb.factorize_all_poles(small_problem, small_problem.true_model(), small_approx, cache)
    refs = weakref.ref(cache), weakref.ref(cache.pool)
    del cache
    assert all(ref() is None for ref in refs)


def test_only_the_cache_takes_pole_workers():
    for fn in (rb.factorize_all_poles, rb.solve_all_poles, rb.forward_response,
               rb.JacobianOperator, rb.taylor_test, rb.make_dataset):
        assert "pool" not in inspect.signature(fn).parameters, fn.__name__
    assert "cache" not in inspect.signature(rb.run_inversion).parameters
    assert list(inspect.signature(rb.ShiftedFactorCache).parameters) == ["workers"]
