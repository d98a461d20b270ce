"""Exact binomial-likelihood posterior on a dense grid, for tests.

The ground truth that the Gaussian approximation in
``dptomo.gaussian_posterior`` is checked against.  Test modules import
it as ``from exact_oracle import exact_moments_oracle``; pytest puts this
directory on ``sys.path``.
"""

import numpy as np
from scipy.special import gammaln


def exact_moments_oracle(pattern_rows, click_counts, n_shots, epsilon,
                         n_points=2001, box=(-1.0, 2.0)):
    """Grid-integrated moments of the exact binomial posterior.

    Supports one or two free coefficients and at least 2001 points per
    axis.  The prior matches
    ``dptomo.gaussian_posterior.init_prior``; each record contributes the
    true binomial likelihood with P(c) = g.c + f_M, and any grid point
    where some P leaves [0, 1] carries zero likelihood.

    Returns (mean, covariance, log_norm); log_norm is unnormalized and
    only useful for relative comparisons.
    """
    rows = np.atleast_2d(np.asarray(pattern_rows, dtype=float))
    counts = np.asarray(click_counts, dtype=float)
    if counts.size != rows.shape[0]:
        raise ValueError("one click count per pattern row required")
    dim = rows.shape[1] - 1
    if dim not in (1, 2):
        raise ValueError("oracle supports dim 1 or 2 only")
    if n_points < 2001:
        raise ValueError("use at least 2001 grid points per axis")
    n = float(n_shots)
    g = rows[:, :-1] - rows[:, -1:]
    f_last = rows[:, -1]
    axis = np.linspace(box[0], box[1], n_points)
    if dim == 1:
        pts = axis[:, None]
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    m0 = 1.0 / (dim + 1)
    logw = -epsilon * (pts ** 2).sum(axis=1) + 2.0 * epsilon * m0 * pts.sum(axis=1)
    for j in range(rows.shape[0]):
        p = pts @ g[j] + f_last[j]
        ok = (p > 0.0) & (p < 1.0)
        term = np.full(pts.shape[0], -np.inf)
        kj = counts[j]
        term[ok] = (
            gammaln(n + 1.0) - gammaln(kj + 1.0) - gammaln(n - kj + 1.0)
            + kj * np.log(p[ok]) + (n - kj) * np.log1p(-p[ok])
        )
        logw = logw + term
    peak = logw.max()
    if not np.isfinite(peak):
        raise ValueError("posterior vanishes everywhere on the grid; widen the box")
    w = np.exp(logw - peak)
    # trapezoid weights on the product grid
    wt1 = np.ones(n_points)
    wt1[0] = wt1[-1] = 0.5
    if dim == 1:
        wt = wt1
    else:
        wt = np.outer(wt1, wt1).ravel()
    z = float((w * wt).sum())
    mean = (pts * (w * wt)[:, None]).sum(axis=0) / z
    centered = pts - mean
    cov = (centered.T * (w * wt)) @ centered / z
    h = axis[1] - axis[0]
    log_norm = peak + np.log(z) + dim * np.log(h)
    return mean, cov, log_norm
