"""Gaussian belief: prior, record summaries, updates, exact-Bayes checks."""

import numpy as np
import pytest
from scipy import stats

from dptomo.gaussian_posterior import (
    GaussianPosterior,
    bayes_update,
    beta_moments,
    init_prior,
    moments,
)

from exact_oracle import exact_moments_oracle
from helpers import gaussian_outside_mass


def test_prior_shape_and_moments():
    post = init_prior(5)
    assert post.dim == 5
    np.testing.assert_allclose(np.linalg.eigvalsh(post.A), 1e-6)
    mean, cov = moments(post)
    np.testing.assert_allclose(mean, np.full(5, 1.0 / 6.0), atol=1e-12)
    np.testing.assert_allclose(np.diag(cov), 0.5e6, rtol=1e-12)


def test_prior_rejects_bad_arguments():
    with pytest.raises(ValueError):
        init_prior(0)


# scipy's Beta distribution is the oracle for the record summary: a
# record of n clicks in N shots carries the Beta(n+1, N-n+1) posterior
@pytest.mark.parametrize("n_clicks,n_shots", [
    (0, 1000), (1, 1000), (500, 1000), (999, 1000), (1000, 1000),
    (0, 10), (7, 10), (3, 50),
])
def test_beta_moments_match_scipy(n_clicks, n_shots):
    rv = stats.beta(n_clicks + 1, n_shots - n_clicks + 1)
    mu, sigma2 = beta_moments(n_clicks / n_shots, n_shots)
    assert mu == pytest.approx(rv.mean(), rel=1e-12)
    assert sigma2 == pytest.approx(rv.var(), rel=1e-12)


def test_beta_moments_pinned_values():
    # N = 1000, F = 0: mu = 1/1002, sigma2 = 1001 / (1002^2 * 1003)
    mu, sigma2 = beta_moments(0.0, 1000)
    assert mu == pytest.approx(1.0 / 1002.0, rel=1e-14)
    assert sigma2 == pytest.approx(1001.0 / (1002.0 ** 2 * 1003.0), rel=1e-14)


def test_strict_variant_differs_only_in_variance():
    mu_d, s2_d = beta_moments(0.5, 1000)
    mu_s, s2_s = beta_moments(0.5, 1000, strict_paper=True)
    assert mu_s == mu_d
    # numerator 500 * 501 instead of 501 * 501
    assert s2_s == pytest.approx(s2_d * 500.0 / 501.0, rel=1e-12)


def test_strict_variant_floors_vanishing_variance():
    _, s2 = beta_moments(0.0, 1000, strict_paper=True)
    assert s2 == 1e-12


def test_frequency_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        beta_moments(-0.01, 100)
    with pytest.raises(ValueError):
        beta_moments(1.01, 100)


def test_bayes_update_is_the_rank_one_formula():
    rng = np.random.default_rng(11)
    post = init_prior(4)
    row = rng.uniform(0.1, 0.9, size=5)
    f_meas = 0.37
    new = bayes_update(post, row, f_meas, 1000)
    g = row[:-1] - row[-1]
    mu, sigma2 = beta_moments(f_meas, 1000)
    np.testing.assert_allclose(new.A - post.A, np.outer(g, g) / (2 * sigma2), rtol=1e-12)
    np.testing.assert_allclose(new.b - post.b, (mu - row[-1]) * g / sigma2, rtol=1e-12)


def test_bayes_update_rejects_wrong_row_length():
    post = init_prior(4)
    with pytest.raises(ValueError):
        bayes_update(post, np.ones(4), 0.5, 1000)


def test_update_keeps_posterior_positive_definite():
    rng = np.random.default_rng(23)
    post = init_prior(6)
    for _ in range(40):
        row = rng.uniform(0.0, 1.0, size=7)
        f = rng.integers(0, 1001) / 1000.0
        post = bayes_update(post, row, f, 1000)
        assert np.linalg.eigvalsh(post.A)[0] > 0


def test_moments_invert_the_natural_parameters():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    A = q @ np.diag(rng.uniform(0.5, 4.0, size=7)) @ q.T
    b = rng.standard_normal(7)
    mean, cov = moments(GaussianPosterior(A=A, b=b))
    np.testing.assert_allclose(cov, 0.5 * np.linalg.inv(A), atol=1e-12)
    np.testing.assert_allclose(mean, 0.5 * np.linalg.solve(A, b), atol=1e-12)
    np.testing.assert_allclose(cov, cov.T, atol=1e-14)


def test_moments_reject_indefinite_matrix():
    post = GaussianPosterior(A=np.diag([1.0, -1.0]), b=np.zeros(2))
    with pytest.raises(np.linalg.LinAlgError):
        moments(post)


def test_outside_mass_matches_normal_cdf_in_dim_one():
    # mean 0.5, sd 0.1: mass outside [0, 1] is 2 * Phi(-5)
    sigma2 = 0.01
    A = np.array([[1.0 / (2 * sigma2)]])
    b = np.array([0.5 / sigma2])
    got = gaussian_outside_mass(GaussianPosterior(A=A, b=b))
    want = 2 * stats.norm.cdf(-5.0)
    assert got == pytest.approx(want, rel=1e-9)


def test_outside_mass_is_product_rule_across_axes():
    sig = np.array([0.2, 0.4])
    mean = np.array([0.3, 0.6])
    A = np.diag(1.0 / (2 * sig ** 2))
    b = 2 * A @ mean
    got = gaussian_outside_mass(GaussianPosterior(A=A, b=b))
    inside = [
        stats.norm.cdf((1 - m) / s) - stats.norm.cdf((0 - m) / s)
        for m, s in zip(mean, sig)
    ]
    assert got == pytest.approx(1 - inside[0] * inside[1], rel=1e-9)


# ---------------------------------------------------------------------------
# exact binomial posterior on a grid

def test_oracle_validates_arguments():
    row = [[0.8, 0.2]]
    with pytest.raises(ValueError):
        exact_moments_oracle(row, [300, 400], 1000, 1e-6)
    with pytest.raises(ValueError):
        exact_moments_oracle([[0.5, 0.4, 0.3, 0.2]], [300], 1000, 1e-6)
    with pytest.raises(ValueError):
        exact_moments_oracle(row, [300], 1000, 1e-6, n_points=500)


def test_oracle_reproduces_analytic_beta_posterior():
    # with the row (1, 0) the predicted probability is c itself, so the
    # exact posterior is Beta(k+1, N-k+1) up to the negligible prior
    n, k = 50, 20
    mean, cov, _ = exact_moments_oracle(
        [[1.0, 0.0]], [k], n, 1e-9, n_points=6001,
    )
    rv = stats.beta(k + 1, n - k + 1)
    assert mean[0] == pytest.approx(rv.mean(), abs=1e-6)
    assert cov[0, 0] == pytest.approx(rv.var(), rel=1e-4)


def _binomial_records(rows, c_true, n_shots, seed):
    rng = np.random.default_rng(seed)
    rows = np.asarray(rows, dtype=float)
    c = np.atleast_1d(np.asarray(c_true, dtype=float))
    p = (rows[:, :-1] - rows[:, -1:]) @ c + rows[:, -1]
    return rng.binomial(n_shots, p)


def test_gaussian_chain_tracks_exact_posterior_dim_one():
    rows = np.array([
        [1.0, 0.0],
        [0.2, 0.7],
        [0.9, 0.1],
        [0.4, 0.5],
        [0.65, 0.35],
        [0.8, 0.15],
    ])
    n = 1000
    counts = _binomial_records(rows, [0.4], n, seed=7)
    post = init_prior(1)
    for row, k in zip(rows, counts):
        post = bayes_update(post, row, k / n, n)
    assert gaussian_outside_mass(post) < 0.01
    mean_g, cov_g = moments(post)
    mean_o, cov_o, _ = exact_moments_oracle(
        rows, counts, n, 1e-6, n_points=6001, box=(-0.25, 1.25),
    )
    assert abs(mean_g[0] - mean_o[0]) < 1e-3
    assert abs(cov_g[0, 0] - cov_o[0, 0]) < 0.05 * cov_o[0, 0]


def test_gaussian_chain_tracks_exact_posterior_dim_two():
    rows = np.array([
        [0.9, 0.2, 0.1],
        [0.3, 0.8, 0.2],
        [0.5, 0.5, 0.9],
        [0.7, 0.1, 0.4],
        [0.2, 0.6, 0.5],
    ])
    n = 1000
    counts = _binomial_records(rows, [0.3, 0.4], n, seed=19)
    post = init_prior(2)
    for row, k in zip(rows, counts):
        post = bayes_update(post, row, k / n, n)
    assert gaussian_outside_mass(post) < 0.01
    mean_g, cov_g = moments(post)
    mean_o, cov_o, _ = exact_moments_oracle(
        rows, counts, n, 1e-6, n_points=2001, box=(-0.5, 1.5),
    )
    np.testing.assert_allclose(mean_g, mean_o, atol=2e-3)
    np.testing.assert_allclose(np.diag(cov_g), np.diag(cov_o), rtol=0.05)
