"""Acceptance sweep: one printed verdict per shipping requirement.

Each check prints `[NN] name: PASS/FAIL - detail` straight to the
terminal (bypassing capture) before asserting, so the complete scorecard
survives in any log of the run.  The three case studies share a
module-scoped sweep of five seeds each; everything else is cheap.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from dptomo.experiment_cli import RunConfig, export_report, lsq_baseline, run_reconstruction
from dptomo.gaussian_posterior import (
    GaussianPosterior,
    bayes_update,
    beta_moments,
    init_prior,
    moments,
)
from dptomo.measurement_selector import score_candidates
from dptomo.pattern_bank import load_bank, save_bank, simulate_probe_bank
from dptomo.quantum_model import (
    EvenCat,
    build_probe_lattice,
    coherent_fock_vector,
    coherent_overlap_prob,
    fidelity,
    signal_fock_vector,
)
from dptomo.state_space_shearing import (
    apply_shear,
    shear_residuals,
    solve_shear_coefficients,
    standardize_constraint,
    violation_probability,
)

from exact_oracle import exact_moments_oracle
from helpers import gaussian_outside_mass, predictive_pmf

_SEEDS = [(b, 1000 + b) for b in range(1, 6)]


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{num:2d}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def case_sweep():
    """Five-seed reconstruction sweep for each of the three signals."""
    results = {}
    for kind in ("coherent", "fock1", "even_cat"):
        rows = []
        for bank_seed, signal_seed in _SEEDS:
            config = RunConfig(
                signal_kind=kind, bank_seed=bank_seed, signal_seed=signal_seed
            )
            t0 = time.perf_counter()
            trace, report = run_reconstruction(config)
            rows.append(
                dict(
                    stopped=not trace.exhausted,
                    settings=report.settings_used,
                    fidelity=report.fidelity,
                    seconds=time.perf_counter() - t0,
                )
            )
        results[kind] = rows
    return results


def test_01_coherent_case_study(case_sweep, capsys):
    rows = case_sweep["coherent"]
    stops = [r["settings"] for r in rows]
    fids = [r["fidelity"] for r in rows]
    secs = [r["seconds"] for r in rows]
    ok = (
        all(r["stopped"] for r in rows)
        and all(30 <= s <= 90 for s in stops)
        and all(f >= 0.95 for f in fids)
        and max(secs) <= 300.0
    )
    _verdict(
        capsys, 1, "coherent alpha=0.5 sweep", ok,
        f"stops {stops}, min fidelity {min(fids):.4f}, max runtime {max(secs):.0f}s",
    )


def test_02_single_photon_case_study(case_sweep, capsys):
    rows = case_sweep["fock1"]
    stops = [r["settings"] for r in rows]
    fids = [r["fidelity"] for r in rows]
    stops_ok = all(r["stopped"] and r["settings"] <= 121 for r in rows)
    fid_ok = all(f >= 0.90 for f in fids)
    _verdict(
        capsys, 2, "single-photon sweep", stops_ok and fid_ok,
        f"stops {stops} (<=121: {stops_ok}), fidelities "
        f"{[round(f, 3) for f in fids]} vs 0.90 floor; the probe span holds "
        "fock1 at fidelity 0.9999 and a 1e8-pulse bank lifts one case only "
        "to 0.879, so neither explains the gap: cause open (ROADMAP item 7)",
    )


def test_03_even_cat_case_study(case_sweep, capsys):
    rows = case_sweep["even_cat"]
    fock = case_sweep["fock1"]
    stops = [r["settings"] for r in rows]
    fids = [r["fidelity"] for r in rows]
    wins = sum(c["fidelity"] >= f["fidelity"] for c, f in zip(rows, fock))
    ok = (
        all(r["stopped"] and r["settings"] <= 121 for r in rows)
        and all(f >= 0.93 for f in fids)
        and wins >= 3
    )
    _verdict(
        capsys, 3, "even-cat sweep", ok,
        f"stops {stops}, min fidelity {min(fids):.4f}, "
        f"beats single-photon on {wins}/5 paired seeds",
    )


def test_04_exact_bayes_oracle(capsys):
    rng = np.random.default_rng(31)
    rows = rng.uniform(0.05, 0.95, (10, 2))
    c_true = 0.4
    p = (rows[:, 0] - rows[:, 1]) * c_true + rows[:, 1]
    counts = rng.binomial(1000, p)
    post = init_prior(1)
    for row, k in zip(rows, counts):
        post = bayes_update(post, row, k / 1000, 1000)
    outside = gaussian_outside_mass(post)
    mean_o, cov_o, _ = exact_moments_oracle(
        rows, counts, 1000, 1e-6, n_points=6001, box=(-0.25, 1.25)
    )
    mean_g, cov_g = moments(post)
    dm = abs(mean_g[0] - mean_o[0])
    dv = abs(cov_g[0, 0] - cov_o[0, 0]) / cov_o[0, 0]
    ok = outside < 0.01 and dm < 1e-3 and dv < 0.05
    _verdict(
        capsys, 4, "Gaussian vs exact posterior", ok,
        f"outside mass {outside:.1e}, |dmean| {dm:.1e} < 1e-3, "
        f"dvar {dv:.1%} < 5%",
    )


def _sheared_stats(x0, a, b):
    # quadrature oracle for one sheared axis, normalized at the boundary
    ap1 = 1.0 + a
    center = b / (2.0 * ap1)
    sig = 1.0 / np.sqrt(2.0 * ap1)
    g = lambda x: np.exp(-ap1 * ((x - center) ** 2 - (x0 - center) ** 2))
    kw = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
    lo = min(center, x0) - 40 * sig
    hi = max(center, x0) + 40 * sig
    below = quad(g, lo, x0, **kw)[0] if x0 > lo else 0.0
    above = quad(g, x0, hi, **kw)[0]
    mean_above = quad(lambda x: x * g(x), x0, hi, **kw)[0]
    return below / (below + above), mean_above / above


def test_05_shearing_identities(capsys):
    grid = [(x0, frac) for x0 in np.linspace(-1.5, 5.0, 10) for frac in (0.5, 0.9)]
    worst_res = worst_p = worst_mean = 0.0
    for x0, frac in grid:
        p_now = violation_probability(x0)
        p_target = frac * p_now
        a, b = solve_shear_coefficients(x0, p_target)
        r_p, r_m = shear_residuals(x0, p_target, a, b)
        worst_res = max(worst_res, abs(r_p), abs(r_m))
        p_q, mean_q = _sheared_stats(x0, a, b)
        worst_p = max(worst_p, abs(p_q - p_target))
        base_mean = _sheared_stats(x0, 0.0, 0.0)[1]
        worst_mean = max(worst_mean, abs(mean_q - base_mean))
    # additivity: two half-steps against one direct step
    a1, b1 = solve_shear_coefficients(0.0, 0.4)
    post = GaussianPosterior(A=np.array([[0.5]]), b=np.array([0.0]))
    v, u = np.array([1.0]), 0.0
    stepped = apply_shear(post, v, u, a1, b1)
    s1 = standardize_constraint(stepped, v, u)
    a2, b2 = solve_shear_coefficients(s1.x0, 0.3)
    stepped = apply_shear(stepped, v, u, a2, b2)
    ad, bd = solve_shear_coefficients(0.0, 0.3)
    direct = apply_shear(post, v, u, ad, bd)
    add_err = max(
        np.abs(stepped.A - direct.A).max(), np.abs(stepped.b - direct.b).max()
    )
    identity = solve_shear_coefficients(1.3, violation_probability(1.3))
    ok = (
        worst_res < 1e-10
        and worst_p < 1e-8
        and worst_mean < 1e-8
        and add_err < 1e-6
        and identity == (0.0, 0.0)
    )
    _verdict(
        capsys, 5, "shearing identities", ok,
        f"residuals {worst_res:.1e} < 1e-10, p defect {worst_p:.1e} < 1e-8, "
        f"mean defect {worst_mean:.1e} < 1e-8, additivity {add_err:.1e} < 1e-6, "
        f"identity exact {identity == (0.0, 0.0)}",
    )


def test_06_selector_properties(capsys):
    rng = np.random.default_rng(101)
    worst_norm = 0.0
    worst_dom = -np.inf
    for _ in range(10):
        dim = int(rng.integers(1, 5))
        mean = rng.uniform(0.05, 0.6, dim)
        var = rng.uniform(1e-4, 0.05, dim)
        A = np.diag(0.5 / var)
        post = GaussianPosterior(A=A, b=2.0 * A @ mean)
        total = np.trace(moments(post)[1])
        for _ in range(100):
            row = rng.uniform(0.0, 1.0, dim + 1)
            pmf = predictive_pmf(post, row, 60)
            worst_norm = max(worst_norm, abs(pmf.sum() - 1.0))
            pred = score_candidates(post, row[None, :], 60)[0]
            worst_dom = max(worst_dom, pred - total)
    # closed form vs literally re-running the update for every outcome
    post = GaussianPosterior(A=np.array([[6.0]]), b=np.array([2.4]))
    row = np.array([0.75, 0.3])
    pmf = predictive_pmf(post, row, 1000)
    brute = sum(
        pmf[n] * np.trace(moments(bayes_update(post, row, n / 1000, 1000))[1])
        for n in range(1001)
    )
    pred = score_candidates(post, row[None, :], 1000)[0]
    brute_err = abs(pred - brute)
    ok = worst_norm < 1e-9 and worst_dom <= 1e-12 and brute_err < 1e-10
    _verdict(
        capsys, 6, "selector properties", ok,
        f"pmf normalization {worst_norm:.1e} < 1e-9, dominance margin "
        f"{worst_dom:.1e} <= 1e-12 over 1000 candidates, per-outcome "
        f"agreement {brute_err:.1e} < 1e-10",
    )


def test_07_rank_one_trace_update(capsys):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 121))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        A = q @ np.diag(rng.uniform(0.5, 50.0, dim)) @ q.T
        post = GaussianPosterior(A=A, b=rng.standard_normal(dim))
        g = rng.standard_normal(dim)
        sigma2 = float(rng.uniform(1e-4, 1.0))
        _, cov = moments(post)
        sg = cov @ g
        closed = np.trace(cov) - (sg @ sg) / (sigma2 + g @ sg)
        dense = 0.5 * np.trace(
            np.linalg.inv(A + np.outer(g, g) / (2.0 * sigma2))
        )
        worst = max(worst, abs(closed - dense) / dense)
    ok = worst < 1e-10
    _verdict(
        capsys, 7, "rank-one trace update", ok,
        f"worst relative defect {worst:.1e} < 1e-10 over 100 instances up to dim 120",
    )


def test_08_noiseless_baseline(capsys):
    lat = build_probe_lattice(3, 1.0)
    table = coherent_overlap_prob(lat.amplitudes[None, :], lat.amplitudes[:, None])
    e0 = np.zeros(8)
    e0[0] = 1.0
    err_single = np.abs(lsq_baseline(table, table[:, 0]) - e0).max()
    mix = np.zeros(8)
    mix[2], mix[5] = 0.3, 0.7
    y = 0.3 * table[:, 2] + 0.7 * table[:, 5]
    err_mix = np.abs(lsq_baseline(table, y) - mix).max()
    ok = err_single < 1e-8 and err_mix < 1e-8
    _verdict(
        capsys, 8, "noiseless least-squares baseline", ok,
        f"indicator error {err_single:.1e}, mixture error {err_mix:.1e}, both < 1e-8",
    )


def test_09_determinism(capsys, tmp_path):
    config = RunConfig(
        side_count=3, spacing=0.9, signal_alpha=0.45,
        n_bank_pulses=400, n_signal_pulses=400, bank_seed=3, signal_seed=77,
    )
    paths = []
    for tag in ("a", "b"):
        trace, report = run_reconstruction(config)
        out = tmp_path / tag
        export_report(trace, report, config, out)
        paths.append(out / "trace.csv")
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    lat = build_probe_lattice(3, 0.9)
    bank = simulate_probe_bank(lat, None, 400, 3)
    save_bank(bank, tmp_path / "bank.json")
    bank2 = load_bank(tmp_path / "bank.json")
    lossless = (
        np.array_equal(bank.counts, bank2.counts)
        and np.array_equal(bank.probe_amplitudes, bank2.probe_amplitudes)
        and np.array_equal(bank.setting_amplitudes, bank2.setting_amplitudes)
        and bank.n_pulses == bank2.n_pulses
    )
    ok = identical and lossless
    _verdict(
        capsys, 9, "determinism and round-trip", ok,
        f"trace.csv byte-identical: {identical}, bank round-trip lossless: {lossless}",
    )


def test_10_fidelity_anchor(capsys):
    # equal mixture of the two alpha = +/-0.5 projectors scored against
    # the even cat, straight from Fock vectors
    alpha = 0.5
    kp = coherent_fock_vector(alpha)
    km = coherent_fock_vector(-alpha)
    rho = 0.5 * (np.outer(kp, kp.conj()) + np.outer(km, km.conj()))
    psi = signal_fock_vector(EvenCat(alpha))
    overlap = fidelity(psi, rho)
    s = np.exp(-2.0 * alpha**2)
    analytic = (1.0 + s) / 2.0
    reference = 0.8894
    ok = (
        abs(overlap - analytic) < 1e-10
        and abs(overlap - reference) > 1e-3
        and abs(np.sqrt(overlap) - reference) > 1e-3
    )
    _verdict(
        capsys, 10, "even-cat fidelity anchor", ok,
        f"overlap convention {overlap:.4f} (analytic (1+e^-0.5)/2), root "
        f"convention {np.sqrt(overlap):.4f}, quoted reference {reference}; "
        "the gap exceeds 1e-3 under either convention and is carried as a "
        "documented convention difference, not absorbed",
    )
