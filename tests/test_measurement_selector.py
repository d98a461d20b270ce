"""Tests for adaptive setting scoring, selection, and stopping.

The predictive outcome distribution is checked against dense quadrature
oracles with frozen values, and the averaged-variance score against a
literal per-outcome recomputation (update, take moments, weight by the
predictive pmf).  Selection and stopping contracts are pinned directly.
"""

import numpy as np
import pytest
from math import comb
from scipy.integrate import quad
from scipy.stats import binom, norm

from dptomo.gaussian_posterior import (
    GaussianPosterior,
    bayes_update,
    init_prior,
    moments,
)
from dptomo.measurement_selector import (
    _DEFAULT_NODES,
    StoppingConfig,
    _predictive_pmf,
    score_candidates,
    select_next,
    stopping_check,
)

from helpers import posterior_total_variance, predictive_pmf


def _score(post, row, n_shots, strict_paper=False):
    """Predicted average variance of one frequency row."""
    return score_candidates(post, np.asarray(row)[None, :], n_shots,
                            strict_paper=strict_paper)[0]


def _posterior(mean, var):
    """Diagonal posterior with the given mean vector and variances."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    A = np.diag(0.5 / var)
    return GaussianPosterior(A=A, b=2.0 * A @ mean)


def _pmf_oracle(m_p, s_p, n_shots):
    # binomial likelihood integrated against the Gaussian over P, with the
    # same clipping the implementation applies, then renormalized
    raw = []
    for n in range(n_shots + 1):
        def f(P):
            Pc = np.clip(P, 1e-12, 1.0 - 1e-12)
            return (
                norm.pdf(P, m_p, s_p)
                * comb(n_shots, n)
                * Pc**n
                * (1.0 - Pc) ** (n_shots - n)
            )
        raw.append(
            quad(f, m_p - 12 * s_p, m_p + 12 * s_p,
                 epsabs=1e-14, epsrel=1e-14, limit=500)[0]
        )
    raw = np.array(raw)
    return raw / raw.sum()


# oracle values frozen from the quadrature above; the second case also
# matches the exact moment identities E[(1-P)^2] = (1-m)^2 + s^2 etc.
_FROZEN_PMF = {
    (0.40, 0.10): [0.36999854004574795, 0.46000149088808895, 0.16999996906616305],
    (0.45, 0.08): [0.30889999974741883, 0.48220000025591836, 0.20889999999666287],
}


class TestPredictiveOutcomeDist:
    def test_zero_covariance_limit_is_binomial(self):
        # a near-delta posterior makes P deterministic, so the predictive
        # distribution collapses to Binomial(N, m_P)
        A = 1e16 * np.eye(2)
        mean = np.array([0.2, 0.3])
        post = GaussianPosterior(A=A, b=2.0 * A @ mean)
        row = np.array([0.8, 0.3, 0.45])
        m_p = (row[:-1] - row[-1]) @ mean + row[-1]
        pmf = predictive_pmf(post, row, 10)
        assert np.abs(pmf - binom.pmf(np.arange(11), 10, m_p)).max() < 1e-9

    @pytest.mark.parametrize(
        "mean,var,row,n_shots",
        [
            (0.4, 0.01, (0.9, 0.15), 5),
            (0.05, 0.09, (1.0, 0.0), 8),
            (0.95, 0.04, (1.0, 0.0), 8),
            (0.5, 1e-8, (0.7, 0.2), 20),
        ],
    )
    def test_normalization(self, mean, var, row, n_shots):
        post = _posterior(mean, var)
        pmf = predictive_pmf(post, np.array(row), n_shots)
        assert abs(pmf.sum() - 1.0) < 1e-9
        assert (pmf >= 0.0).all()

    @pytest.mark.parametrize("m_p,s_p", sorted(_FROZEN_PMF))
    def test_against_quadrature_oracle(self, m_p, s_p):
        want = _pmf_oracle(m_p, s_p, 2)
        assert np.abs(want - np.array(_FROZEN_PMF[(m_p, s_p)])).max() < 1e-9
        got = _predictive_pmf(m_p, s_p, 2, _DEFAULT_NODES)
        assert np.abs(got - want).max() < 1e-6

    def test_row_length_validated(self):
        post = _posterior([0.3, 0.3], [0.01, 0.01])
        with pytest.raises(ValueError):
            _score(post, np.array([0.5, 0.5]), 4)


class TestPredictedAverageVariance:
    def test_uninformative_row_leaves_variance(self):
        # equal entries give g = 0: the measurement cannot move the belief
        post = _posterior([0.2, 0.5], [0.03, 0.07])
        row = np.array([0.4, 0.4, 0.4])
        got = _score(post, row, 50)
        assert got == pytest.approx(posterior_total_variance(post), rel=1e-14)

    def test_never_exceeds_current_variance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = rng.integers(1, 4)
            mean = rng.uniform(0.1, 0.5, dim)
            var = rng.uniform(1e-3, 0.2, dim)
            post = _posterior(mean, var)
            row = rng.uniform(0.0, 1.0, dim + 1)
            total = posterior_total_variance(post)
            got = _score(post, row, 30)
            assert got <= total + 1e-12
            if np.ptp(row) > 1e-6:
                assert got < total

    @pytest.mark.parametrize("n_shots", [2, 25])
    def test_per_outcome_recomputation(self, n_shots):
        post = GaussianPosterior(A=np.array([[4.0]]), b=np.array([1.6]))
        row = np.array([0.7, 0.2])
        pmf = predictive_pmf(post, row, n_shots)
        want = 0.0
        for n in range(n_shots + 1):
            upd = bayes_update(post, row, n / n_shots, n_shots)
            want += pmf[n] * np.trace(moments(upd)[1])
        got = _score(post, row, n_shots)
        assert got == pytest.approx(want, abs=1e-10)

    def test_per_outcome_recomputation_dim2(self):
        post = GaussianPosterior(
            A=np.array([[3.0, 0.4], [0.4, 2.0]]), b=np.array([0.9, 0.5])
        )
        row = np.array([0.55, 0.3, 0.2])
        pmf = predictive_pmf(post, row, 25)
        want = sum(
            pmf[n] * np.trace(moments(bayes_update(post, row, n / 25, 25))[1])
            for n in range(26)
        )
        got = _score(post, row, 25)
        assert got == pytest.approx(want, rel=1e-12)

    def test_per_outcome_recomputation_strict(self):
        # the recomputed side inverts a matrix stiffened by the floored
        # sigma^2 = 1e-12 at n = 0, so it only keeps about seven digits;
        # the closed form has no such step
        post = GaussianPosterior(
            A=np.array([[3.0, 0.4], [0.4, 2.0]]), b=np.array([0.9, 0.5])
        )
        row = np.array([0.55, 0.3, 0.2])
        pmf = predictive_pmf(post, row, 25)
        want = sum(
            pmf[n]
            * np.trace(
                moments(bayes_update(post, row, n / 25, 25, strict_paper=True))[1]
            )
            for n in range(26)
        )
        got = _score(post, row, 25, strict_paper=True)
        assert got == pytest.approx(want, rel=1e-5)

    def test_total_variance_matches_moments(self):
        post = GaussianPosterior(
            A=np.array([[2.0, 0.3], [0.3, 1.5]]), b=np.array([0.4, 0.2])
        )
        assert posterior_total_variance(post) == pytest.approx(
            np.trace(moments(post)[1]), rel=1e-13
        )


class TestSelection:
    def _bank(self):
        # index 0 carries no information, 1 and 3 are identical strong
        # rows, 2 is weak; scores then order as 1 = 3 < 2 < 0
        return np.array(
            [
                [0.4, 0.4, 0.4],
                [0.9, 0.1, 0.2],
                [0.45, 0.38, 0.4],
                [0.9, 0.1, 0.2],
            ]
        )

    def test_scores_cover_unmeasured_candidates(self):
        post = _posterior([0.2, 0.3], [0.05, 0.08])
        scores = score_candidates(post, self._bank(), 40, exclude=(2,))
        assert sorted(np.flatnonzero(np.isfinite(scores))) == [0, 1, 3]
        assert isinstance(scores, np.ndarray) and scores.shape == (4,) and scores[2] == np.inf

    def test_tie_breaks_to_lowest_index(self):
        post = _posterior([0.2, 0.3], [0.05, 0.08])
        scores = score_candidates(post, self._bank(), 40)
        assert scores[1] == scores[3]
        assert select_next(post, self._bank(), 40)[0] == 1

    def test_excluding_best_picks_duplicate(self):
        post = _posterior([0.2, 0.3], [0.05, 0.08])
        best = select_next(post, self._bank(), 40, measured=(1,))
        assert best[0] == 3

    def test_single_remaining_setting_is_forced(self):
        post = _posterior([0.2, 0.3], [0.05, 0.08])
        best = select_next(post, self._bank(), 40, measured=(1, 2, 3))
        assert best[0] == 0

    def test_exhausted_bank_raises(self):
        post = _posterior([0.2, 0.3], [0.05, 0.08])
        with pytest.raises(ValueError):
            select_next(post, self._bank(), 40, measured=(0, 1, 2, 3))

    def test_batch_scores_match_single_rows(self):
        # scoring K rows together gives each row's score when scored alone
        rng = np.random.default_rng(5)
        post = GaussianPosterior(
            A=np.array([[3.0, 0.4, 0.1], [0.4, 2.0, 0.2], [0.1, 0.2, 4.0]]),
            b=np.array([0.9, 0.5, 0.7]),
        )
        bank = rng.uniform(0.0, 1.0, (7, 4))
        batch = score_candidates(post, bank, 40)
        single = [_score(post, row, 40) for row in bank]
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0.0)

    def test_bank_shape_validated(self):
        post = _posterior([0.2, 0.3], [0.05, 0.08])
        with pytest.raises(ValueError):
            score_candidates(post, np.ones((4, 2)), 40)

    def test_scoring_is_pure(self):
        post = _posterior([0.2, 0.3], [0.05, 0.08])
        A0, b0 = post.A.copy(), post.b.copy()
        first = score_candidates(post, self._bank(), 40)
        second = score_candidates(post, self._bank(), 40)
        assert first.tolist() == second.tolist()
        select_next(post, self._bank(), 40)
        assert np.array_equal(post.A, A0) and np.array_equal(post.b, b0)


class TestStopping:
    def test_small_relative_change_fires(self):
        cfg = StoppingConfig(eta=0.01, consecutive=1)
        assert stopping_check([(0.999, 1.0)], cfg) is True

    def test_large_change_does_not_fire(self):
        cfg = StoppingConfig(eta=0.01, consecutive=1)
        assert stopping_check([(0.5, 1.0)], cfg) is False

    def test_requires_consecutive_run(self):
        cfg = StoppingConfig(eta=0.01, consecutive=3)
        good, bad = (0.999, 1.0), (0.5, 1.0)
        assert stopping_check([good, bad, good], cfg) is False
        assert stopping_check([bad, good, good, good], cfg) is True
        # window looks only at the trailing entries
        assert stopping_check([good, good, good, bad], cfg) is False

    def test_short_history_never_fires(self):
        cfg = StoppingConfig(eta=0.01, consecutive=3)
        assert stopping_check([(0.999, 1.0), (0.999, 1.0)], cfg) is False
        assert stopping_check([], cfg) is False

    def test_default_config(self):
        cfg = StoppingConfig()
        assert cfg.eta == 0.01 and cfg.consecutive == 3
        good = (0.9995, 1.0)
        assert stopping_check([good, good], StoppingConfig()) is False
        assert stopping_check([good, good, good]) is True

    @pytest.mark.parametrize("eta,consecutive", [(0.0, 3), (1.0, 3), (-0.1, 1), (0.01, 0)])
    def test_config_validated(self, eta, consecutive):
        with pytest.raises(ValueError):
            StoppingConfig(eta=eta, consecutive=consecutive)


def test_scores_on_realistic_prior():
    # the flat prior is so wide that any informative row helps; scan a
    # small bank and confirm the chosen setting has the strict minimum
    rng = np.random.default_rng(23)
    post = init_prior(3)
    bank = rng.uniform(0.0, 1.0, (6, 4))
    scores = score_candidates(post, bank, 100)
    best = select_next(post, bank, 100)
    by_hand = min(range(len(scores)), key=lambda k: (scores[k], k))
    assert best[0] == by_hand
    assert best[1] == scores[by_hand]
