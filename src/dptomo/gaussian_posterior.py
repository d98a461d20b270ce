"""Gaussian belief over the free probe coefficients.

The working representation is the natural one,

    w(c) ~ exp(-c.A.c + b.c),

so a measurement update is a rank-one addition to A and a shift of b,
and moments follow from Sigma = (2A)^-1, mean = Sigma.b.  A stays
symmetric positive definite throughout; everything here treats
posteriors as immutable values and returns new ones.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

SIGMA2_FLOOR = 1e-15
# Prior precision: sd ~700 per axis is flat for order-one coefficients; A starts positive definite.
PRIOR_EPSILON = 1e-6


@dataclass(frozen=True)
class GaussianPosterior:
    """Natural parameters (A, b) of the coefficient belief."""

    A: np.ndarray
    b: np.ndarray

    @property
    def dim(self):
        return self.b.size


def init_prior(dim):
    """Nearly flat prior centered on the uniform mixture.

    A = PRIOR_EPSILON * I and b = 2 * PRIOR_EPSILON * (1/M, ..., 1/M) with
    M = dim + 1, so the prior mean is the uniform coefficient vector and
    the prior variance 1/(2 PRIOR_EPSILON) per axis is effectively infinite.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    m = dim + 1
    return GaussianPosterior(
        A=PRIOR_EPSILON * np.eye(dim),
        b=np.full(dim, 2.0 * PRIOR_EPSILON / m),
    )


def beta_variance(frequency, n_shots, strict_paper=False):
    """Beta(n + 1, N - n + 1) variance (NF+1)(N(1-F)+1) / ((N+2)^2 (N+3)), elementwise
    in F.  ``strict_paper`` puts NF for NF+1, floored at 1e-12 where it vanishes."""
    n = float(n_shots)
    f = np.asarray(frequency, dtype=float)
    denom = (n + 2.0) ** 2 * (n + 3.0)
    if strict_paper:
        return np.maximum((n * f) * (n * (1.0 - f) + 1.0) / denom, 1e-12)
    return (n * f + 1.0) * (n * (1.0 - f) + 1.0) / denom


def beta_moments(frequency, n_shots, strict_paper=False):
    """Mean (NF+1)/(N+2) and variance ``beta_variance`` of one record F = n/N."""
    n = float(n_shots)
    f = float(frequency)
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"frequency {f} outside [0, 1]")
    mu = (n * f + 1.0) / (n + 2.0)
    return mu, float(beta_variance(f, n_shots, strict_paper))


def bayes_update(post, pattern_row, frequency, n_shots, strict_paper=False):
    """Absorb one measured setting into the belief.

    ``pattern_row`` is the full frequency row (f_1 ... f_M) of the chosen
    setting.  Eliminating c_M makes the predicted probability affine,
    P(c) = g.c + f_M with g_m = f_m - f_M, and a Gaussian summary of the
    record then adds g g^T / (2 sigma^2) to A and shifts b.
    """
    row = np.asarray(pattern_row, dtype=float)
    if row.size != post.dim + 1:
        raise ValueError(f"pattern row has {row.size} entries, expected {post.dim + 1}")
    g = row[:-1] - row[-1]
    mu, sigma2 = beta_moments(frequency, n_shots, strict_paper=strict_paper)
    sigma2 = max(sigma2, SIGMA2_FLOOR)
    return GaussianPosterior(
        A=post.A + np.outer(g, g) / (2.0 * sigma2),
        b=post.b + (mu - row[-1]) * g / sigma2,
    )


def moments(post):
    """Mean vector and covariance matrix of the belief.

    Solved through the Cholesky factor of A, so a non positive definite
    A raises instead of silently returning garbage.
    """
    try:
        factor = cho_factor(post.A)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"A is not positive definite: {exc}") from exc
    cov = cho_solve(factor, np.eye(post.dim)) / 2.0
    mean = cho_solve(factor, post.b) / 2.0
    return mean, cov

