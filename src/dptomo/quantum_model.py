"""Coherent-probe model for data-pattern tomography.

Signal states are represented as linear combinations of coherent probe
projectors sitting on a square lattice in phase space.  This module holds
the state definitions, Born-rule probabilities for the unbalanced-homodyne
style measurement (projection onto a displaced vacuum), the probe lattice
geometry, the positivity constraints, and Fock-basis assembly of
the reconstructed density matrix.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# The one Fock truncation: every Fock vector, test ket and density matrix
# has this many components.  The probe amplitudes stay below |alpha| ~ 1.3,
# where population beyond n = 40 is below 1e-50, so the cutoff is
# invisible at double precision.
DEFAULT_CUTOFF = 41

ComplexAmplitude = complex


# ---------------------------------------------------------------------------
# signal states

@dataclass(frozen=True)
class CoherentSignal:
    """Pure coherent state |alpha>."""

    alpha: ComplexAmplitude


@dataclass(frozen=True)
class SingledPhotonFock:
    """The one-photon Fock state |1>."""


@dataclass(frozen=True)
class EvenCat:
    """Even coherent superposition (|alpha> + |-alpha>), normalized."""

    alpha: ComplexAmplitude


@dataclass(frozen=True)
class ProbeLattice:
    """Square grid of coherent probe amplitudes.

    ``amplitudes[i]`` runs row-major starting from the lower-left corner
    of the grid, i.e. the index walks the real axis first.
    """

    amplitudes: np.ndarray
    side_count: int
    spacing: float
    center: ComplexAmplitude = 0.0

    @property
    def n_probes(self):
        return self.amplitudes.size


class NonHermitianError(ValueError):
    pass


@dataclass(frozen=True)
class DensityMatrix:
    """DEFAULT_CUTOFF x DEFAULT_CUTOFF Fock-basis operator with a Hermiticity guard.

    The matrix is not required to be positive or normalized: a default
    run's final estimator has minimum eigenvalue -0.023 (fock1: -0.525),
    so callers inspect eigenvalues and trace separately.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (DEFAULT_CUTOFF, DEFAULT_CUTOFF):
            raise ValueError(f"matrix shape {m.shape} does not match cutoff {DEFAULT_CUTOFF}")
        dev = np.abs(m - m.conj().T).max()
        if dev > 1e-12:
            raise NonHermitianError(f"matrix deviates from Hermiticity by {dev:.3e}")

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.matrix).min())

    def trace(self):
        return float(np.trace(self.matrix).real)


# ---------------------------------------------------------------------------
# Born probabilities

def coherent_overlap_prob(alpha, beta):
    """Probability of projecting coherent |alpha> onto coherent |beta>.

    This is the data-pattern kernel exp(-|alpha - beta|^2); both arguments
    broadcast, so probe/setting grids can be crossed in one call.
    """
    return np.exp(-np.abs(np.asarray(alpha) - np.asarray(beta)) ** 2)


def signal_born_probability(signal, beta):
    """Probability of finding the signal in the coherent projector |beta>.

    Closed forms per state family; the even-cat normalization
    ``_even_cat_norm2`` is analytic, not numerical.
    """
    beta = np.asarray(beta)
    if isinstance(signal, CoherentSignal):
        return coherent_overlap_prob(signal.alpha, beta)
    if isinstance(signal, SingledPhotonFock):
        b2 = np.abs(beta) ** 2
        return b2 * np.exp(-b2)
    if isinstance(signal, EvenCat):
        a = signal.alpha
        pref = -(abs(a) ** 2 + np.abs(beta) ** 2) / 2.0
        ov_p = np.exp(pref + np.conj(beta) * a)
        ov_m = np.exp(pref - np.conj(beta) * a)
        return np.abs(ov_p + ov_m) ** 2 / _even_cat_norm2(a)
    raise TypeError(f"unknown signal state {signal!r}")


def coherent_fock_vector(alpha):
    """Fock-basis expansion of |alpha>, computed in log space for stability."""
    n = np.arange(DEFAULT_CUTOFF)
    if alpha == 0:
        v = np.zeros(DEFAULT_CUTOFF, dtype=complex)
        v[0] = 1.0
        return v
    logmag = -abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1)
    return np.exp(logmag) * np.exp(1j * n * np.angle(alpha))


def _even_cat_norm2(alpha):
    """Squared norm 2(1 + exp(-2|alpha|^2)) of |alpha> + |-alpha>."""
    return 2.0 * (1.0 + np.exp(-2.0 * abs(alpha) ** 2))


def even_cat_fock_vector(alpha):
    v = coherent_fock_vector(alpha) + coherent_fock_vector(-alpha)
    return v / np.sqrt(_even_cat_norm2(alpha))


def signal_fock_vector(signal):
    """Fock-basis ket of a pure signal state."""
    if isinstance(signal, CoherentSignal):
        return coherent_fock_vector(signal.alpha)
    if isinstance(signal, SingledPhotonFock):
        v = np.zeros(DEFAULT_CUTOFF, dtype=complex)
        v[1] = 1.0
        return v
    if isinstance(signal, EvenCat):
        return even_cat_fock_vector(signal.alpha)
    raise TypeError(f"unknown signal state {signal!r}")


# ---------------------------------------------------------------------------
# lattice geometry

def build_probe_lattice(side_count, spacing, center=0.0):
    """Lay out ``side_count**2`` probe amplitudes on a square grid.

    The grid is centered on ``center`` and indexed row-major from the
    lower-left corner.  ``side_count`` must be odd so that the center is
    itself a probe; even grids are rejected as a configuration error.
    """
    if side_count < 3 or side_count % 2 == 0:
        raise ValueError(f"side_count must be odd and >= 3, got {side_count}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    h = (side_count - 1) // 2
    amps = np.array(
        [
            center + (i - h) * spacing + 1j * (j - h) * spacing
            for j in range(side_count)
            for i in range(side_count)
        ]
    )
    return ProbeLattice(amplitudes=amps, side_count=side_count, spacing=spacing, center=center)


def probe_gram(lattice):
    """Hilbert-Schmidt Gram matrix of the probe projectors.

    tr(rho_m rho_n) = |<alpha_m|alpha_n>|^2 = exp(-|alpha_m - alpha_n|^2).
    """
    a = lattice.amplitudes
    return coherent_overlap_prob(a[:, None], a[None, :])


def constraint_coefficients(lattice):
    """Linear positivity data (V, u) in the free coefficients.

    The test kets psi_i are the DEFAULT_CUTOFF Fock kets, then one coherent
    ket per probe; a probe sitting exactly at the origin duplicates the
    vacuum Fock ket and is skipped.  Each gives one inequality
    sum_m c_m q_i(m) >= 0 with q_i(m) = <psi_i|rho_m|psi_i>.  Eliminating
    the dependent coefficient c_M = 1 - sum c_m turns it into
    v_i . c >= u_i with v_{i,m} = q_i(m) - q_i(M) and u_i = -q_i(M).
    """
    probes = np.stack([coherent_fock_vector(a) for a in lattice.amplitudes], axis=1)
    kets = np.concatenate([np.eye(DEFAULT_CUTOFF, dtype=complex),
                           probes[:, lattice.amplitudes != 0]], axis=1)
    q = np.abs(kets.conj().T @ probes) ** 2  # kets x probes
    return q[:, :-1] - q[:, -1:], -q[:, -1]


# ---------------------------------------------------------------------------
# estimator assembly

def assemble_estimator(free_coefficients, lattice):
    """Build the Fock-basis density matrix from the free coefficients.

    The dependent weight c_M = 1 - sum(free) restores unit trace in the
    probe expansion.  If the Fock truncation leaks more than 1e-6 of
    trace the estimator is still returned, with a warning; this only
    happens for lattices far larger than the defaults.
    """
    c = np.asarray(free_coefficients, dtype=float)
    lat = lattice.amplitudes
    if c.size != lat.size - 1:
        raise ValueError(f"expected {lat.size - 1} free coefficients, got {c.size}")
    full = np.concatenate([c, [1.0 - c.sum()]])
    kets = np.stack([coherent_fock_vector(a) for a in lat], axis=1)
    rho = (kets * full) @ kets.conj().T
    rho = (rho + rho.conj().T) / 2.0  # scrub rounding asymmetry, not structure
    leak = abs(np.trace(rho).real - 1.0)
    if leak > 1e-6:
        warnings.warn(f"Fock truncation leaks {leak:.2e} of trace at cutoff {DEFAULT_CUTOFF}")
    return DensityMatrix(matrix=rho)


def fidelity(psi, rho):
    """Overlap <psi|rho|psi> of a pure state with a density operator.

    ``rho`` may be a DensityMatrix or a raw Fock-basis array, which is
    checked by wrapping it in one.  The value is the real overlap itself,
    so for an estimator with negative eigenvalues (negative mass 0.025 on
    a default run, 0.543 on fock1) it is not a state fidelity and can
    exceed 1.
    """
    m = (rho if isinstance(rho, DensityMatrix) else DensityMatrix(np.asarray(rho))).matrix
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[0] != m.shape[0]:
        raise ValueError("ket and operator cutoffs disagree")
    return float(np.vdot(psi, m @ psi).real)
