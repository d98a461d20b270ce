"""Reference quantities the tests check the library against.

Test modules import them as ``from helpers import ...``; pytest puts this
directory on ``sys.path``.
"""

import numpy as np
from scipy.special import erf

from dptomo.gaussian_posterior import moments
from dptomo.measurement_selector import _DEFAULT_NODES, _predictive_pmf
from dptomo.quantum_model import signal_born_probability


def gaussian_outside_mass(post, lower=0.0, upper=1.0):
    """Posterior mass outside the box [lower, upper]^dim.

    Exact in one dimension.  In higher dimensions it is computed from
    the per-axis marginals as 1 - prod(inside_i), which ignores
    correlations but is the quantity the approximation checks gate on.
    """
    mean, cov = moments(post)
    sd = np.sqrt(np.diag(cov))
    z_hi = (upper - mean) / (sd * np.sqrt(2.0))
    z_lo = (lower - mean) / (sd * np.sqrt(2.0))
    inside = 0.5 * (erf(z_hi) - erf(z_lo))
    return float(1.0 - np.prod(inside))


def posterior_total_variance(post):
    """Total coefficient variance, the trace of Sigma = (2A)^-1."""
    _, cov = moments(post)
    return float(np.trace(cov))


def predictive_pmf(post, pattern_row, n_shots):
    """The selector's click-count distribution for one frequency row: its
    Gaussian predictive P has mean g.m + f_M and variance g.Sigma.g."""
    row = np.asarray(pattern_row, dtype=float)
    mean, cov = moments(post)
    g = row[:-1] - row[-1]
    s_p = np.sqrt(max(g @ cov @ g, 0.0))
    return _predictive_pmf(g @ mean + row[-1], s_p, n_shots, _DEFAULT_NODES)


def true_probability(meter, setting_index):
    """The click probability a ``SignalMeter`` draws from at one setting."""
    probs = np.clip(signal_born_probability(meter.signal, meter.setting_amplitudes), 0.0, 1.0)
    return float(probs[int(setting_index)])
