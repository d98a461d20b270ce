"""Choosing the next measurement setting and deciding when to stop.

A candidate setting k with bank pattern row f_k predicts the signal
probability P(c) = g_k . c + f_{kM}, a scalar Gaussian under the current
belief.  Mixing the binomial outcome likelihood over that Gaussian with
Gauss-Hermite quadrature gives the predictive distribution of the count
n; for each hypothetical n the posterior trace shrinks by the rank-one
amount |Sigma g|^2 / (sigma^2(n) + g.Sigma.g), so the predicted average
variance is a weighted sum of closed forms and never requires refitting.
One kernel scores a whole table of rows as an array, and ``select_next``
returns (index, prediction) at the argmin.  Scoring reads the belief and
the bank and touches no randomness.

The run stops once the predicted improvement stays within a small
relative band of the current variance for several consecutive steps.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .gaussian_posterior import beta_variance, moments

_DEFAULT_NODES = 32
_P_CLIP = 1e-12


@dataclass(frozen=True)
class StoppingConfig:
    eta: float = 0.01
    consecutive: int = 3

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if self.consecutive < 1:
            raise ValueError("consecutive must be at least 1")


def _predictive_pmf(m_p, s_p, n_shots, n_nodes):
    """Click-count distribution (length n_shots + 1) for P ~ N(m_p, s_p^2); P is
    clipped into [1e-12, 1 - 1e-12] and the result renormalized."""
    # Gauss-Hermite in the standardized variable: P = m_p + sqrt(2) s_p x
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    w = w / np.sqrt(np.pi)
    p_nodes = np.clip(m_p + np.sqrt(2.0) * s_p * x, _P_CLIP, 1.0 - _P_CLIP)
    n = np.arange(n_shots + 1, dtype=float)
    log_comb = gammaln(n_shots + 1.0) - gammaln(n + 1.0) - gammaln(n_shots - n + 1.0)
    log_pmf = (
        log_comb[None, :]
        + np.log(p_nodes)[:, None] * n[None, :]
        + np.log1p(-p_nodes)[:, None] * (n_shots - n)[None, :]
    )
    pmf = w @ np.exp(log_pmf)
    return pmf / pmf.sum()


def _row_scalars(mean, cov, rows):
    """Predictive mean m_p, v = g.Sigma.g and |Sigma g|^2 of each row of a K x M table."""
    g = rows[:, :-1] - rows[:, -1:]
    sg = g @ cov.T  # row k is (Sigma g_k)^T
    return g @ mean + rows[:, -1], np.einsum("kd,kd->k", g, sg), np.einsum("kd,kd->k", sg, sg)


def _scores(post, rows, n_shots, n_nodes, strict_paper):
    """Predicted average variance after measuring each row of ``rows``."""
    mean, cov = moments(post)
    m_p, v, sg2 = _row_scalars(mean, cov, rows)
    sigma2 = beta_variance(np.arange(n_shots + 1) / max(n_shots, 1), n_shots, strict_paper)
    h = np.array([
        _predictive_pmf(m, np.sqrt(max(vk, 0.0)), n_shots, n_nodes) @ (1.0 / (sigma2 + vk))
        for m, vk in zip(m_p, v)
    ])
    return np.trace(cov) - sg2 * h


def score_candidates(post, bank_frequencies, n_shots, exclude=(),
                     n_nodes=_DEFAULT_NODES, strict_paper=False):
    """Predicted average variance of every setting, as a length-K array.

    ``bank_frequencies`` is the full K x M frequency table.  Rows listed
    in ``exclude`` (measure each setting at most once) are not scored and
    read ``inf``.  Pure function of its inputs.
    """
    freqs = np.asarray(bank_frequencies, dtype=float)
    if freqs.ndim != 2 or freqs.shape[1] != post.dim + 1:
        raise ValueError(f"frequency table shape {freqs.shape} does not fit dim {post.dim}")
    keep = ~np.isin(np.arange(len(freqs)), [int(k) for k in exclude])
    scores = np.full(len(freqs), np.inf)
    scores[keep] = _scores(post, freqs[keep], n_shots, n_nodes, strict_paper)
    return scores


def select_next(post, bank_frequencies, n_shots, measured=(),
                n_nodes=_DEFAULT_NODES, strict_paper=False):
    """Greedy choice: the unmeasured setting with the smallest prediction.

    Returns (setting_index, predicted_variance).  Ties resolve to the
    lowest setting index.  Raises if every setting has been measured
    already.
    """
    scores = score_candidates(post, bank_frequencies, n_shots, exclude=measured,
                              n_nodes=n_nodes, strict_paper=strict_paper)
    if not (scores < np.inf).any():
        raise ValueError("no unmeasured settings remain")
    best = int(np.argmin(scores))
    return best, float(scores[best])


def stopping_check(history, config=None):
    """True when the last few predictions sat inside the variance band.

    ``history`` holds (predicted_variance, current_variance) pairs in
    step order; the check needs |delta - var| < eta * var for the final
    ``consecutive`` entries.
    """
    if config is None:
        config = StoppingConfig()
    if len(history) < config.consecutive:
        return False
    for delta, var in list(history)[-config.consecutive:]:
        if not abs(delta - var) < config.eta * var:
            return False
    return True
