import numpy as np
import pytest
import scipy.sparse as sp

import rbainv as rb
from conftest import solve_pole
from oracles import dM_contract_reference, dense_jacobian
from rbainv.forward import pole_sum


@pytest.fixture(scope="module")
def operator(small_problem, small_approx):
    cache = rb.ShiftedFactorCache()
    model = small_problem.true_model()
    return rb.JacobianOperator(small_problem, model, small_approx, cache)


def test_jvp_zero(operator):
    out = operator.jvp(np.zeros(operator.shape[1]))
    assert np.all(out == 0)


def test_vjp_zero(operator):
    out = operator.vjp(np.zeros(operator.shape[0]))
    assert np.all(out == 0)


def test_scalar_chain_symbolic_derivative():
    """P = N = 1: d_j(m) = 2 Re sum_i a_ij / (k - xi_i e^m mu); the chain-rule
    derivative is available in closed form."""
    grid = rb.Grid(dimension=1, nodes=np.zeros((1, 1)), cells=np.zeros((1, 1), int),
                   cell_measure=np.ones(1), face_cells=np.zeros((0, 2), int),
                   face_measure=np.zeros(0), dof_of_node=np.zeros(1, int), dof_count=1)
    k, mu = 2.0, 0.7
    prob = rb.Problem(grid=grid, K=sp.csr_matrix(np.array([[k]])),
                      cell_dofs=np.zeros((1, 1), int),
                      mass_local=np.array([[[mu]]]),
                      stiff_local=np.array([[[k]]]),
                      f=np.ones(1), Q=sp.identity(1, format="csr"),
                      receivers=np.zeros((1, 1)),
                      spec=rb.ProblemSpec(dimension=1, extent=(0., 1.), n_cells=(1,)))
    prob._scatter = (np.zeros(1, int), np.zeros(1, int), np.ones(1, bool), np.zeros(1, int))

    poles = np.array([0.5 + 1.0j, -1.0 + 2.5j])
    residues = np.array([[0.3 - 0.2j, 1.1 + 0.4j],
                         [-0.7 + 0.9j, 0.2 - 0.5j]])
    ap = rb.RationalApproximant(poles=poles, residues=residues,
                                spectral_interval=(0.0, 10.0), fit_error=np.inf,
                                channels=rb.TimeChannels(np.array([0.5, 1.0])))
    m_val = 0.3
    model = rb.Model(np.array([m_val]), np.array([0.0]))
    opr = rb.JacobianOperator(prob, model, ap, rb.ShiftedFactorCache())
    got = opr.jvp(np.array([1.0]))
    s = np.exp(m_val) * mu
    expected = np.array([
        float(2.0 * np.real(np.sum(residues[:, j] * poles * s / (k - poles * s) ** 2)))
        for j in range(2)])
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_jvp_against_central_differences(small_problem, small_approx, operator):
    rng = np.random.default_rng(4)
    model = small_problem.true_model()
    v = rng.standard_normal(operator.shape[1])
    h = 1e-6 * max(1.0, np.max(np.abs(model.m)))

    def data_at(mdl):
        return rb.forward_response(small_problem, mdl, small_approx,
                                   rb.ShiftedFactorCache())

    fd = (data_at(model.perturbed(v, h)) - data_at(model.perturbed(v, -h))) / (2 * h)
    jv = operator.jvp(v)
    assert np.linalg.norm(jv - fd) / np.linalg.norm(fd) <= 1e-4


def test_vjp_against_dense_jacobian(problem_1d):
    """Single receiver, few channels: stack the jvp columns and compare."""
    channels = rb.TimeChannels(np.array([1e-3, 1e-2]))
    bound = rb.spectral_bound(problem_1d, problem_1d.reference_model())
    ap = rb.fit_common_pole(channels, (0.0, 2 * bound), 8,
                            rb.FitConfig(grid_size=200))
    model = problem_1d.true_model()
    opr = rb.JacobianOperator(problem_1d, model, ap, rb.ShiftedFactorCache())
    J = dense_jacobian(opr)
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = rng.standard_normal(opr.shape[0])
        np.testing.assert_allclose(opr.vjp(w), J.T @ w, rtol=1e-10, atol=1e-13)


def test_adjoint_identity(operator):
    assert rb.adjoint_test(operator, trials=20, seed=11) <= 1e-10


def test_adjoint_identity_random_pairs(operator):
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = rng.standard_normal(operator.shape[1])
        w = rng.standard_normal(operator.shape[0])
        lhs = operator.jvp(v) @ w
        rhs = v @ operator.vjp(w)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) <= 1e-10


def test_adjoint_test_deterministic(operator):
    a = rb.adjoint_test(operator, trials=3, seed=42)
    b = rb.adjoint_test(operator, trials=3, seed=42)
    assert a == b


def test_adjoint_test_detects_sign_flip(operator):
    class Corrupted:
        shape = operator.shape

        def jvp(self, v):
            return operator.jvp(v)

        def vjp(self, w):
            return -operator.vjp(w)

    mismatch = rb.adjoint_test(Corrupted(), trials=5, seed=0)
    assert mismatch == pytest.approx(2.0, rel=1e-6)


def test_adjoint_stable_across_workers(small_problem, small_approx):
    model = small_problem.true_model()
    vals = []
    for W in (1, 2, 4):
        with rb.ShiftedFactorCache(W) as cache:
            opr = rb.JacobianOperator(small_problem, model, small_approx, cache)
            vals.append(rb.adjoint_test(opr, trials=5, seed=3))
    assert vals[0] == vals[1] == vals[2]


def test_solve_budget(small_problem, small_approx):
    model = small_problem.true_model()
    m = small_approx.pole_count
    for W in (1, 3):
        with rb.ShiftedFactorCache(W) as cache:
            before = cache.counters.snapshot()
            opr = rb.JacobianOperator(small_problem, model, small_approx, cache)
            after_build = cache.counters.snapshot()
            assert after_build["solves"] - before["solves"] == m
            opr.jvp(np.ones(opr.shape[1]))
            after_jvp = cache.counters.snapshot()
            assert after_jvp["solves"] - after_build["solves"] == m
            opr.vjp(np.ones(opr.shape[0]))
            after_vjp = cache.counters.snapshot()
            assert after_vjp["solves"] - after_jvp["solves"] == m


def response_per_pole(problem, approx, g):
    """One Q product per pole, summed in pole order onto zeros; oracle for
    `response_from_pole_solutions`."""
    D = np.zeros((approx.channels.count, problem.receiver_count))
    for i in range(approx.pole_count):
        D += 2.0 * np.real(np.outer(approx.residues[i], problem.Q @ g[i]))
    return D.ravel()


def jvp_per_pole(opr, v):
    """One COO-assembled `dM_contract` product, solve and Q product per pole,
    summed in pole order; oracle for `JacobianOperator.jvp`."""
    approx = opr.approx
    D = np.zeros((approx.channels.count, opr.problem.receiver_count))
    for i in range(approx.pole_count):
        dM = dM_contract_reference(opr.problem, opr.model, opr.g[i])
        q = opr.problem.Q @ solve_pole(opr.cache, i, dM @ v)
        D += 2.0 * np.real(approx.poles[i] * np.outer(approx.residues[i], q))
    return D.ravel()


def vjp_per_pole(opr, w):
    """One aggregated transpose solve and COO-assembled `dM_contract` product
    per pole, summed in pole order; oracle for `JacobianOperator.vjp`."""
    approx = opr.approx
    Qt_w = opr.problem.Q.T @ np.reshape(w, (approx.channels.count, -1)).T
    out = np.zeros(opr.shape[1])
    for i in range(approx.pole_count):
        dM = dM_contract_reference(opr.problem, opr.model, opr.g[i])
        z = solve_pole(opr.cache, i, Qt_w @ approx.residues[i], trans="T")
        out += 2.0 * np.real(approx.poles[i] * (dM.T @ z))
    return out


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_actions_bit_identical_to_per_pole_oracle(small_problem, small_approx, workers):
    """The per-worker block layout adds the same terms in the same order as
    one `dM_contract` per pole, for any worker count (3 does not divide the
    16 poles)."""
    rng = np.random.default_rng(workers)
    model = small_problem.true_model().perturbed(
        rng.standard_normal(small_problem.grid.cell_count), 0.1)
    with rb.ShiftedFactorCache(workers) as cache:
        opr = rb.JacobianOperator(small_problem, model, small_approx, cache)
        v = rng.standard_normal(opr.shape[1])
        w = rng.standard_normal(opr.shape[0])
        assert np.array_equal(opr.jvp(v), jvp_per_pole(opr, v))
        assert np.array_equal(opr.vjp(w), vjp_per_pole(opr, w))


def test_response_bit_identical_to_per_pole_oracle(small_problem, small_approx):
    model = small_problem.true_model()
    data = []
    for workers in (1, 2, 3):
        with rb.ShiftedFactorCache(workers) as cache:
            g = rb.solve_all_poles(small_problem, model, small_approx, small_problem.f, cache)
            np.testing.assert_array_equal(
                rb.response_from_pole_solutions(small_problem, small_approx, g),
                response_per_pole(small_problem, small_approx, g))
            data.append(rb.forward_response(small_problem, model, small_approx, cache).tobytes())
    assert data[0] == data[1] == data[2]


def test_pole_sum_of_a_negative_zero_is_positive_zero():
    # a sum started from its first term would keep the -0.0 and write it to data files
    out = pole_sum([np.array([-0.0 + 0.0j])], 1)
    assert out[0] == 0.0 and not np.signbit(out[0])


def vjp_per_channel(opr, w):
    """Naive adjoint with one solve per (channel, pole); oracle for the
    aggregated `JacobianOperator.vjp`."""
    W = np.asarray(w, dtype=float).reshape(opr.approx.channels.count, -1)
    approx = opr.approx
    out = np.zeros(opr.shape[1])
    for i in range(approx.pole_count):
        dM = dM_contract_reference(opr.problem, opr.model, opr.g[i])
        for j in range(approx.channels.count):
            z = solve_pole(opr.cache, i, opr.problem.Q.T @ W[j].astype(complex),
                           trans="T")
            out += 2.0 * np.real(approx.poles[i] * approx.residues[i, j] * (dM.T @ z))
    return out


def test_aggregated_vjp_matches_per_channel(operator):
    rng = np.random.default_rng(9)
    w = rng.standard_normal(operator.shape[0])
    fast = operator.vjp(w)
    naive = vjp_per_channel(operator, w)
    assert np.linalg.norm(fast - naive) / np.linalg.norm(naive) <= 1e-12


def assert_refactorizes_once(opr, evict, actions):
    """After ``evict`` replaces ``opr``'s factors, the first of ``actions``
    refactorizes every pole and the second none; both return the bits of a
    fresh operator at ``opr``'s model."""
    rng = np.random.default_rng(4)
    args = {"jvp": rng.standard_normal(opr.shape[1]), "vjp": rng.standard_normal(opr.shape[0])}
    fresh = rb.JacobianOperator(opr.problem, opr.model, opr.approx, rb.ShiftedFactorCache())
    expected = {name: getattr(fresh, name)(x) for name, x in args.items()}
    evict()
    for name, made in zip(actions, (opr.approx.pole_count, 0)):
        before = opr.cache.counters.factorizations
        assert getattr(opr, name)(args[name]).tobytes() == expected[name].tobytes()
        assert opr.cache.counters.factorizations - before == made


def test_stale_operator_refactorizes_at_its_model(small_problem, small_approx):
    model = small_problem.true_model()
    with rb.ShiftedFactorCache(2) as cache:
        opr = rb.JacobianOperator(small_problem, model, small_approx, cache)
        assert_refactorizes_once(
            opr, lambda: rb.factorize_all_poles(
                small_problem, model.perturbed(np.ones(model.cell_count), 0.1),
                small_approx, cache),
            ("jvp", "vjp"))


def test_operator_refactorizes_after_other_poles_at_its_model(small_problem, small_approx):
    model = small_problem.true_model()
    other = rb.fit_common_pole(small_approx.channels, small_approx.spectral_interval, 12,
                               rb.FitConfig(grid_size=500))
    with rb.ShiftedFactorCache(2) as cache:
        opr = rb.JacobianOperator(small_problem, model, small_approx, cache)
        assert_refactorizes_once(
            opr, lambda: rb.forward_response(small_problem, model, other, cache),
            ("vjp", "jvp"))


def test_taylor_slopes(small_problem, small_approx):
    rng = np.random.default_rng(1)
    model = small_problem.true_model()
    direction = rng.standard_normal(small_problem.grid.cell_count)
    direction /= np.max(np.abs(direction))
    opr = rb.JacobianOperator(small_problem, model, small_approx, rb.ShiftedFactorCache())
    report = rb.taylor_test(opr, direction, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    assert 0.9 <= report.slope0 <= 1.1
    assert 1.8 <= report.slope1 <= 2.2


def test_taylor_zero_direction(small_problem, small_approx):
    model = small_problem.true_model()
    opr = rb.JacobianOperator(small_problem, model, small_approx, rb.ShiftedFactorCache())
    report = rb.taylor_test(opr, np.zeros(small_problem.grid.cell_count),
                            [1e-1, 1e-2, 1e-3, 1e-4])
    assert np.all(report.e0 == 0)
    assert np.all(report.e1 == 0)


def test_taylor_step_range_precondition(small_problem, small_approx):
    model = small_problem.true_model()
    direction = np.ones(small_problem.grid.cell_count)
    opr = rb.JacobianOperator(small_problem, model, small_approx, rb.ShiftedFactorCache())
    with pytest.raises(ValueError):
        rb.taylor_test(opr, direction, [1e-1, 1e-2, 1e-3])
    with pytest.raises(ValueError):
        rb.taylor_test(opr, direction, [1e-1, 5e-2, 2e-2, 1e-2])


def test_linear_map_has_vanishing_first_order_remainder():
    # the remainder definitions themselves: exact linearization leaves only
    # rounding in e1 while e0 still scales like h
    rng = np.random.default_rng(6)
    A = rng.standard_normal((12, 5))
    m0 = rng.standard_normal(5)
    dm = rng.standard_normal(5)
    for h in (1e-1, 1e-3, 1e-5):
        d0, d1 = A @ m0, A @ (m0 + h * dm)
        e1 = np.linalg.norm(d1 - d0 - h * (A @ dm))
        e0 = np.linalg.norm(d1 - d0)
        assert e1 <= 1e-12 * np.linalg.norm(d0)
        assert e0 == pytest.approx(h * np.linalg.norm(A @ dm), rel=1e-9)


def test_adjoint_trials_precondition(operator):
    with pytest.raises(ValueError):
        rb.adjoint_test(operator, trials=0)
