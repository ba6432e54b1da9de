import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import rbainv as rb
from conftest import shifted_matrix
from oracles import dense_expm_oracle, implicit_euler_reference, pole_fields


def manual_problem(k_diag, mass_diag):
    """Problem with diagonal K and M: one single-dof cell per entry."""
    n = len(k_diag)
    grid = rb.Grid(dimension=1, nodes=np.arange(n, dtype=float)[:, None],
                   cells=np.arange(n)[:, None], cell_measure=np.ones(n),
                   face_cells=np.zeros((0, 2), dtype=int), face_measure=np.zeros(0),
                   dof_of_node=np.arange(n), dof_count=n)
    prob = rb.Problem(
        grid=grid,
        K=sp.diags(np.asarray(k_diag, dtype=float)).tocsr(),
        cell_dofs=np.arange(n)[:, None],
        mass_local=np.asarray(mass_diag, dtype=float)[:, None, None],
        stiff_local=np.asarray(k_diag, dtype=float)[:, None, None],
        f=np.ones(n),
        Q=sp.identity(n, format="csr"),
        receivers=np.zeros((n, 1)),
        spec=rb.ProblemSpec(dimension=1, extent=(0.0, 1.0), n_cells=(n,)),
    )
    prob._scatter = (np.arange(n), np.arange(n), np.ones(n, dtype=bool), np.arange(n))
    return prob


def test_zero_source_zero_data(small_problem, small_approx):
    prob = manual_problem([1.0, 2.0], [1.0, 1.0])
    prob.f = np.zeros(2)
    data = rb.forward_response(prob, rb.Model(np.zeros(2), np.zeros(2)),
                               small_approx, rb.ShiftedFactorCache())
    assert np.all(data == 0)


def test_oracle_decoupled_modes():
    prob = manual_problem([1.0, 2.0], [1.0, 1.0])
    model = rb.Model(np.zeros(2), np.zeros(2))
    times = np.array([0.1, 0.5, 1.0])
    U = dense_expm_oracle(prob, model, times)
    expected = np.stack([np.exp(-1.0 * times), np.exp(-2.0 * times)], axis=1)
    np.testing.assert_allclose(U, expected, rtol=1e-12)


def test_oracle_time_zero_returns_mass_solve(small_problem):
    model = small_problem.true_model()
    U = dense_expm_oracle(small_problem, model, [0.0])
    b = spla.spsolve(rb.assemble_M(small_problem, model).tocsc(), small_problem.f)
    np.testing.assert_allclose(U[0], b, rtol=1e-8)


def test_oracle_zero_stiffness_is_constant():
    spec = rb.ProblemSpec(dimension=1, extent=(0.0, 1.0), n_cells=(6,),
                          sigma_background=0.5, receivers=np.array([[0.5]]),
                          source=rb.SourceSpec(kind="delta", position=(0.5,)))
    prob = rb.build_problem(spec)
    prob.K = sp.csr_matrix(prob.K.shape)      # build_problem takes kappa > 0 only
    model = prob.reference_model()
    U = dense_expm_oracle(prob, model, [1e-3, 1.0, 10.0])
    b = spla.spsolve(rb.assemble_M(prob, model).tocsc(), prob.f)
    for row in U:
        np.testing.assert_allclose(row, b, rtol=1e-10)


def test_oracle_matches_expm(problem_1d):
    model = problem_1d.true_model()
    times = np.array([1e-3, 1e-2, 1e-1])
    U = dense_expm_oracle(problem_1d, model, times)
    K = problem_1d.K.toarray()
    M = rb.assemble_M(problem_1d, model).toarray()
    b = np.linalg.solve(M, problem_1d.f)
    A = np.linalg.solve(M, K)
    for j, t in enumerate(times):
        np.testing.assert_allclose(U[j], la.expm(-t * A) @ b, rtol=1e-9, atol=1e-12)


def test_oracle_dense_limit(small_problem):
    with pytest.raises(ValueError):
        dense_expm_oracle(small_problem, small_problem.reference_model(),
                             [1e-4], dense_limit=10)


def test_forward_matches_oracle(acc_problem, acc_approx):
    model = acc_problem.true_model()
    cache = rb.ShiftedFactorCache()
    g = rb.solve_all_poles(acc_problem, model, acc_approx, acc_problem.f, cache)
    fields = pole_fields(acc_approx, g)
    for xi, g_i in zip(acc_approx.poles, g):
        A = shifted_matrix(acc_problem, model, xi)
        assert np.linalg.norm(A @ g_i - acc_problem.f) <= 1e-8 * np.linalg.norm(acc_problem.f)
    U = dense_expm_oracle(acc_problem, model, acc_approx.channels.times)
    for j in range(acc_approx.channels.count):
        rel = np.linalg.norm(fields[j] - U[j]) / np.linalg.norm(U[j])
        assert rel <= max(1e-4, 10 * acc_approx.fit_error / np.linalg.norm(U[j]))


def test_pole_fields_observed_match_forward_response(small_problem, small_approx):
    model = small_problem.true_model()
    cache = rb.ShiftedFactorCache()
    data = rb.forward_response(small_problem, model, small_approx, cache)
    g = rb.solve_all_poles(small_problem, model, small_approx, small_problem.f, cache)
    # Q U^T sums the poles in another order than the pipeline, so equal to rounding
    observed = (small_problem.Q @ pole_fields(small_approx, g).T).T.ravel()
    np.testing.assert_allclose(observed, data, rtol=0, atol=1e-12 * np.max(np.abs(data)))


def test_channel_doubling_costs_no_factorizations(small_problem, small_approx):
    model = small_problem.true_model()
    cache = rb.ShiftedFactorCache()
    rb.forward_response(small_problem, model, small_approx, cache)
    n_fact = cache.counters.factorizations
    doubled = rb.refit_residues(small_approx,
                                rb.TimeChannels.logspaced(1e-6, 1e-3, 14))
    data = rb.forward_response(small_problem, model, doubled, cache)
    assert cache.counters.factorizations == n_fact
    assert data.size == 14 * small_problem.receiver_count


def test_monotone_decay_in_mass_norm(acc_problem, acc_approx):
    model = acc_problem.true_model()
    M = rb.assemble_M(acc_problem, model)
    U = dense_expm_oracle(acc_problem, model, acc_approx.channels.times)
    norms = [np.sqrt(u @ (M @ u)) for u in U]
    assert all(norms[j + 1] <= norms[j] * (1 + 1e-12) for j in range(len(norms) - 1))
    cache = rb.ShiftedFactorCache()
    g = rb.solve_all_poles(acc_problem, model, acc_approx, acc_problem.f, cache)
    norms_rba = [np.sqrt(u @ (M @ u)) for u in pole_fields(acc_approx, g)]
    slack = 10 * acc_approx.fit_error * np.linalg.norm(acc_problem.f) + 1e-12
    assert all(norms_rba[j + 1] <= norms_rba[j] + slack for j in range(len(norms) - 1))


def test_euler_first_order_accuracy():
    prob = manual_problem([1.0, 2.0], [1.0, 1.0])
    model = rb.Model(np.zeros(2), np.zeros(2))
    times = np.array([0.5])
    errs = []
    for steps in (8, 16, 32, 64):
        res = implicit_euler_reference(prob, model, times, steps_per_decade=steps)
        errs.append(abs(res.fields[0, 0] - np.exp(-0.5)))
    rates = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    for r in rates:
        assert 1.7 <= r <= 2.3   # halving dt halves the error


def test_euler_factorization_count(problem_1d):
    times = np.geomspace(1e-3, 1.0, 31)
    res = implicit_euler_reference(problem_1d, problem_1d.reference_model(),
                                      times, steps_per_decade=10)
    assert res.factorizations == 31
    assert res.solves == 310


def test_euler_single_gate_single_step(problem_1d):
    model = problem_1d.reference_model()
    t1 = 0.37
    res = implicit_euler_reference(problem_1d, model, [t1], steps_per_decade=1)
    M = rb.assemble_M(problem_1d, model).toarray()
    K = problem_1d.K.toarray()
    b = np.linalg.solve(M, problem_1d.f)
    expected = np.linalg.solve(M + t1 * K, M @ b)
    np.testing.assert_allclose(res.fields[0], expected, rtol=1e-10)
    assert res.factorizations == 1 and res.solves == 1


def test_counter_law_rba_vs_euler(small_problem, small_approx):
    model = small_problem.true_model()
    cache = rb.ShiftedFactorCache()
    rb.forward_response(small_problem, model, small_approx, cache)
    assert cache.counters.factorizations == small_approx.pole_count
    times = small_approx.channels.times
    euler = implicit_euler_reference(small_problem, model, times)
    assert euler.factorizations == times.size
