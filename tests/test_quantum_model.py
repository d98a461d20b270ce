import numpy as np
import pytest

from dptomo.quantum_model import (
    CoherentSignal,
    DensityMatrix,
    EvenCat,
    NonHermitianError,
    SingledPhotonFock,
    assemble_estimator,
    build_probe_lattice,
    coherent_fock_vector,
    coherent_overlap_prob,
    constraint_coefficients,
    even_cat_fock_vector,
    fidelity,
    probe_gram,
    signal_born_probability,
    signal_fock_vector,
)


# ---------------------------------------------------------------------------
# lattice geometry

def test_lattice_3x3_unit_spacing_is_integer_grid():
    lat = build_probe_lattice(3, 1.0, 0.0)
    expected = {complex(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)}
    assert set(np.round(lat.amplitudes, 12)) == expected
    # row-major from the lower-left corner: first entry is -1-1j and the
    # real part advances first
    assert lat.amplitudes[0] == -1 - 1j
    assert lat.amplitudes[1] == 0 - 1j
    assert lat.amplitudes[3] == -1 + 0j


def test_lattice_11_with_tenth_spacing_contains_half():
    lat = build_probe_lattice(11, 0.1, 0.0)
    assert np.any(np.isclose(lat.amplitudes, 0.5 + 0j))


def test_lattice_11_015_spans_expected_square():
    lat = build_probe_lattice(11, 0.15, 0.0)
    assert np.isclose(lat.amplitudes.real.min(), -0.75)
    assert np.isclose(lat.amplitudes.real.max(), 0.75)
    assert np.isclose(lat.amplitudes.imag.min(), -0.75)
    assert np.isclose(lat.amplitudes.imag.max(), 0.75)
    assert lat.n_probes == 121


@pytest.mark.parametrize("side", [2, 4, 10])
def test_lattice_rejects_even_side(side):
    with pytest.raises(ValueError):
        build_probe_lattice(side, 0.1, 0.0)


def test_lattice_rejects_bad_spacing():
    with pytest.raises(ValueError):
        build_probe_lattice(3, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Born probabilities

def test_coherent_overlap_matches_exponential_kernel():
    a = 0.3 + 0.2j
    b = -0.1 + 0.5j
    assert np.isclose(coherent_overlap_prob(a, b), np.exp(-abs(a - b) ** 2), rtol=0, atol=1e-15)


def test_coherent_overlap_broadcasts():
    a = np.array([0.0, 0.5j])
    b = np.array([[0.1], [0.2]])
    assert coherent_overlap_prob(a, b).shape == (2, 2)


def test_fock1_born_peaks_at_unit_radius():
    beta = np.linspace(0, 3, 301)
    p = signal_born_probability(SingledPhotonFock(), beta)
    assert np.isclose(beta[np.argmax(p)], 1.0, atol=5e-3)
    assert np.isclose(p.max(), np.exp(-1.0))


def test_even_cat_vacuum_probability_closed_form():
    # oracle first: direct vacuum overlap of the normalized superposition,
    # 4 exp(-|a|^2) / (2 (1 + exp(-2|a|^2)))
    a = 0.5
    expected = 4 * np.exp(-a ** 2) / (2 * (1 + np.exp(-2 * a ** 2)))
    assert np.isclose(expected, 0.9695, atol=5e-5)
    got = signal_born_probability(EvenCat(a), 0.0)
    assert np.isclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8 + 0.4j, 1.1j])
def test_even_cat_born_agrees_with_fock_expansion(alpha):
    # oracle: overlap computed from truncated Fock vectors, no shared code
    # path with the analytic normalization
    betas = np.array([0.0, 0.2 - 0.1j, -0.6 + 0.3j, 0.9])
    psi = even_cat_fock_vector(alpha)
    expected = np.array(
        [abs(np.vdot(coherent_fock_vector(b), psi)) ** 2 for b in betas]
    )
    got = signal_born_probability(EvenCat(alpha), betas)
    assert np.max(np.abs(got - expected)) < 1e-10


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9 + 0.3j, 1.25])
def test_coherent_fock_vector_normalized(alpha):
    v = coherent_fock_vector(alpha)
    assert abs(np.vdot(v, v).real - 1.0) < 1e-10


def test_signal_vectors_dispatch():
    assert np.isclose(abs(signal_fock_vector(CoherentSignal(0.5))[0]), np.exp(-0.125))
    v = signal_fock_vector(SingledPhotonFock())
    assert v[1] == 1.0 and abs(np.vdot(v, v) - 1) < 1e-15
    c = signal_fock_vector(EvenCat(0.5))
    assert np.allclose(c[1::2], 0.0)  # odd components vanish


def test_born_probability_rejects_unknown_signal():
    with pytest.raises(TypeError):
        signal_born_probability("squeezed", 0.0)


# ---------------------------------------------------------------------------
# Gram, test kets, constraints

def test_probe_gram_is_positive_semidefinite():
    lat = build_probe_lattice(11, 0.125, 0.0)
    s = probe_gram(lat)
    assert np.allclose(s, s.T)
    assert np.linalg.eigvalsh(s).min() >= -1e-10


def _explicit_kets(lat):
    """The 41 Fock kets, then one coherent ket per probe, the origin probe skipped."""
    probes = [coherent_fock_vector(a) for a in lat.amplitudes if a != 0]
    return np.concatenate([np.eye(41, dtype=complex), np.stack(probes, axis=1)], axis=1)


def test_test_ket_set_drops_origin_duplicate():
    lat = build_probe_lattice(3, 1.0, 0.0)
    v, u = constraint_coefficients(lat)
    # 41 Fock kets plus 9 probes minus the origin probe equal to |0>
    assert v.shape == (41 + 9 - 1, lat.n_probes - 1) and u.shape == (41 + 9 - 1,)
    # off the origin every probe keeps its ket
    off = build_probe_lattice(3, 1.0, 0.3 + 0.2j)
    assert constraint_coefficients(off)[0].shape == (41 + 9, off.n_probes - 1)
    kets = _explicit_kets(lat)
    overlaps = np.abs(kets.conj().T @ kets)
    assert (overlaps - np.diag(np.diag(overlaps))).max() < 1.0 - 1e-9  # no two kets parallel


def test_constraint_coefficients_shapes_and_offsets():
    for lat in (build_probe_lattice(3, 1.0, 0.0), build_probe_lattice(3, 0.5, 0.3 + 0.2j),
                build_probe_lattice(9, 0.15, 0.0), build_probe_lattice(11, 0.125, 0.0)):
        kets = _explicit_kets(lat)
        v, u = constraint_coefficients(lat)
        assert v.shape == (kets.shape[1], lat.n_probes - 1)
        # bit for bit what the separately built ket array gave
        probes = np.stack([coherent_fock_vector(a) for a in lat.amplitudes], axis=1)
        q = np.abs(kets.conj().T @ probes) ** 2
        assert np.array_equal(v, q[:, :-1] - q[:, -1:]) and np.array_equal(u, -q[:, -1])
        # offsets are minus the ket expectation against the last probe
        q_last = np.abs(kets.conj().T @ coherent_fock_vector(lat.amplitudes[-1])) ** 2
        assert np.allclose(u, -q_last, rtol=0, atol=1e-14)
        # and each row is the expectation difference for the first probe
        q_first = np.abs(kets.conj().T @ coherent_fock_vector(lat.amplitudes[0])) ** 2
        assert np.allclose(v[:, 0], q_first - q_last, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# estimator assembly and fidelity

def test_assemble_probability_vector_is_nearly_positive():
    lat = build_probe_lattice(11, 0.125, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = rng.dirichlet(np.ones(lat.n_probes))
        rho = assemble_estimator(w[:-1], lat)
        assert rho.min_eigenvalue() >= -1e-9
        assert abs(rho.trace() - 1.0) < 1e-9


def test_assemble_estimator_checks_length():
    lat = build_probe_lattice(3, 1.0, 0.0)
    with pytest.raises(ValueError):
        assemble_estimator(np.zeros(5), lat)


def test_assemble_estimator_warns_on_truncation_leak():
    # the corner probes, at |alpha|^2 = 32, leak 3.1e-2 of the trace past n = 40
    lat = build_probe_lattice(3, 4.0, 0.0)
    w = np.full(8, 1.0 / 9)
    with pytest.warns(UserWarning, match="3.1[0-9]e-02"):
        assemble_estimator(w, lat)


def test_density_matrix_rejects_non_hermitian():
    m = np.zeros((41, 41), dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NonHermitianError):
        DensityMatrix(matrix=m)


def test_fidelity_of_probe_with_itself():
    lat = build_probe_lattice(3, 1.0, 0.0)
    w = np.zeros(8)
    w[4] = 1.0  # the origin probe
    rho = assemble_estimator(w, lat)
    psi = coherent_fock_vector(0.0)
    assert abs(fidelity(psi, rho) - 1.0) < 1e-12


def test_fidelity_rejects_raw_non_hermitian():
    m = np.eye(41, dtype=complex)
    m[2, 3] = 1e-6
    with pytest.raises(NonHermitianError):
        fidelity(coherent_fock_vector(0.1), m)


def test_fidelity_cutoff_mismatch():
    with pytest.raises(ValueError):
        fidelity(np.zeros(5), np.eye(41))
