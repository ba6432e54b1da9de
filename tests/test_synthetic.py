import numpy as np
import pytest
from scipy import stats

import rbainv as rb


@pytest.fixture(scope="module")
def clean_response(small_problem, small_approx):
    model = small_problem.true_model()
    return rb.forward_response(small_problem, model, small_approx,
                               rb.ShiftedFactorCache())


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        rb.NoiseSpec(eps_r=-0.1)
    with pytest.raises(ValueError):
        rb.NoiseSpec(eps_a=0.0)
    rb.NoiseSpec()  # defaults are valid


def test_seed_determinism(small_problem, small_approx):
    model = small_problem.true_model()
    a = rb.make_dataset(small_problem, model, small_approx, rb.NoiseSpec(seed=5))
    b = rb.make_dataset(small_problem, model, small_approx, rb.NoiseSpec(seed=5))
    np.testing.assert_array_equal(a.d_obs, b.d_obs)
    c = rb.make_dataset(small_problem, model, small_approx, rb.NoiseSpec(seed=6))
    assert not np.array_equal(a.d_obs, c.d_obs)


def test_tiny_noise_reproduces_clean(small_problem, small_approx, clean_response):
    model = small_problem.true_model()
    tiny = rb.NoiseSpec(eps_r=0.0, eps_a=1e-12 * np.max(np.abs(clean_response)), seed=0)
    data = rb.make_dataset(small_problem, model, small_approx, tiny)
    np.testing.assert_allclose(data.d_obs, clean_response, rtol=0, atol=1e-10)


def test_sigma_model(small_problem, small_approx, clean_response):
    model = small_problem.true_model()
    noise = rb.NoiseSpec(eps_r=0.03, eps_a=1e-5, seed=1)
    data = rb.make_dataset(small_problem, model, small_approx, noise)
    np.testing.assert_allclose(data.sigma_d,
                               np.abs(clean_response) * 0.03 + 1e-5, rtol=1e-13)
    np.testing.assert_allclose(data.weights * data.sigma_d, 1.0, rtol=1e-13)


def test_auto_absolute_floor(small_problem, small_approx, clean_response):
    model = small_problem.true_model()
    data = rb.make_dataset(small_problem, model, small_approx, rb.NoiseSpec(seed=2))
    assert data.eps_a == pytest.approx(1e-6 * np.max(np.abs(clean_response)))


def test_chi2_at_true_model_over_seeds(small_problem, small_approx, clean_response):
    model = small_problem.true_model()
    chis = []
    for seed in range(40):
        data = rb.make_dataset(small_problem, model, small_approx,
                               rb.NoiseSpec(eps_r=0.03, seed=seed))
        chis.append(rb.chi_squared(data, clean_response))
    assert 0.9 <= np.mean(chis) <= 1.1


def test_weighted_residuals_standard_normal(inv_problem, inv_approx):
    """>= 1000 data: per-datum weighted residuals pass a KS normality check."""
    model = inv_problem.true_model()
    cache = rb.ShiftedFactorCache()
    clean = rb.forward_response(inv_problem, model, inv_approx, cache)
    assert clean.size >= 1000
    data = rb.make_dataset(inv_problem, model, inv_approx,
                           rb.NoiseSpec(eps_r=0.03, seed=3), cache)
    z = data.weights * (data.d_obs - clean)
    assert stats.kstest(z, "norm").pvalue > 0.01
    # clean data at the true model leave exactly zero weighted residual
    assert np.all(data.weights * (clean - clean) == 0)


def test_dataset_roundtrip(tmp_path, small_problem, small_approx):
    model = small_problem.true_model()
    data = rb.make_dataset(small_problem, model, small_approx, rb.NoiseSpec(seed=9))
    path = tmp_path / "data.json"
    rb.save_dataset(data, path)
    back = rb.load_dataset(path)
    np.testing.assert_array_equal(back.d_obs, data.d_obs)
    np.testing.assert_array_equal(back.sigma_d, data.sigma_d)
    np.testing.assert_array_equal(back.times, data.times)
    np.testing.assert_array_equal(back.receivers, data.receivers)
    assert back.provenance["true_model_hash"] == data.provenance["true_model_hash"]
    assert back.seed == data.seed
