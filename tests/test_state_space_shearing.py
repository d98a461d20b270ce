"""Shearing: the scalar solve against quadrature, and the constraint loop."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfinv

from dptomo.gaussian_posterior import GaussianPosterior, moments
from dptomo.state_space_shearing import (
    LinearConstraintSet,
    ShearingConfig,
    ShearSolveError,
    apply_shear,
    conditional_mean_gap,
    shear_residuals,
    shear_until_physical,
    solve_shear_coefficients,
    standardize_constraint,
    violation_probability,
)

_QUAD = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def _sheared_stats(x0, a, b):
    """Violation probability and constrained mean of exp(-(1+a)x^2 + bx).

    Integrates the peak-normalized density over a 40-sigma window so the
    unnormalized exponential cannot overflow for strong shears.
    """
    ap1 = 1.0 + a
    center = b / (2.0 * ap1)
    sig = 1.0 / np.sqrt(2.0 * ap1)
    # normalized to 1 at the boundary so the allowed-side integrals keep
    # full relative accuracy even when that side holds almost no mass
    g = lambda x: np.exp(-ap1 * ((x - center) ** 2 - (x0 - center) ** 2))
    lo = min(center, x0) - 40 * sig
    hi = max(center, x0) + 40 * sig
    below = quad(g, lo, x0, **_QUAD)[0] if x0 > lo else 0.0
    above = quad(g, x0, hi, **_QUAD)[0]
    mean_above = quad(lambda x: x * g(x), x0, hi, **_QUAD)[0]
    return below / (below + above), mean_above / above


def _posterior(var, mean):
    var = np.atleast_1d(np.asarray(var, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    A = np.diag(0.5 / var)
    return GaussianPosterior(A=A, b=2.0 * A @ mean)


def test_config_validation():
    ShearingConfig()
    with pytest.raises(ValueError):
        ShearingConfig(p_step=0.02, p_threshold=0.01)
    with pytest.raises(ValueError):
        ShearingConfig(p_threshold=1.5)
    with pytest.raises(ValueError):
        ShearingConfig(max_iterations=0)


def test_standardize_mean_deep_inside():
    # mean 10 sigma inside the allowed half-space
    post = _posterior([0.5], [1.0])
    stats = standardize_constraint(post, [1.0], -9.0)
    assert stats.p < 1e-6


def test_standardize_boundary_through_mean():
    post = _posterior([0.5], [0.3])
    stats = standardize_constraint(post, [1.0], 0.3)
    assert stats.x0 == pytest.approx(0.0, abs=1e-12)
    assert stats.p == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("x0", [-3.0, -1.2, -0.4, 0.0, 0.7, 1.9, 4.5])
def test_violation_probability_matches_quadrature(x0):
    want = quad(lambda t: np.exp(-t * t) / np.sqrt(np.pi), -np.inf, x0, **_QUAD)[0]
    assert violation_probability(x0) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("t", [-3.0, 0.0, 1.5, 8.0, 50.0, 150.0, 250.0, 1e4])
def test_conditional_mean_gap_matches_quadrature(t):
    # y = x - t keeps the integrand representable at any t; for large t
    # the further substitution w = 2ty restores an O(1) length scale
    if t > 1.0:
        num = quad(lambda w: w * np.exp(-w - (w / (2 * t)) ** 2), 0, np.inf, **_QUAD)[0]
        den = quad(lambda w: np.exp(-w - (w / (2 * t)) ** 2), 0, np.inf, **_QUAD)[0]
        want = num / den / (2 * t)
    else:
        num = quad(lambda y: y * np.exp(-2 * t * y - y * y), 0, np.inf, **_QUAD)[0]
        den = quad(lambda y: np.exp(-2 * t * y - y * y), 0, np.inf, **_QUAD)[0]
        want = num / den
    assert conditional_mean_gap(t) == pytest.approx(want, rel=1e-9)


def test_conditional_mean_gap_branches_agree():
    below, above = conditional_mean_gap(200.0), conditional_mean_gap(np.nextafter(200.0, 300.0))
    assert above == pytest.approx(below, rel=1e-11)


def test_standardize_whitens_general_posterior():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = q @ np.diag([0.3, 1.0, 2.5, 7.0]) @ q.T
    b = rng.standard_normal(4)
    post = GaussianPosterior(A=A, b=b)
    mean, cov = moments(post)
    v = rng.standard_normal(4)
    u = 0.4
    stats = standardize_constraint(post, v, u)
    # x0 in units of the sqrt(2)-scaled marginal: the exp(-x^2) axis
    sd = np.sqrt(2.0 * v @ cov @ v)
    assert stats.x0 == pytest.approx((u - v @ mean) / sd, rel=1e-10)


def test_standardize_rejects_singular_matrix():
    post = GaussianPosterior(A=np.zeros((2, 2)), b=np.zeros(2))
    with pytest.raises(np.linalg.LinAlgError):
        standardize_constraint(post, [1.0, 0.0], 0.0)


def test_solve_identity_is_exactly_zero():
    x0 = 0.8
    assert solve_shear_coefficients(x0, violation_probability(x0)) == (0.0, 0.0)


def test_solve_x0_zero_quarter_target():
    a, b = solve_shear_coefficients(0.0, 0.25)
    p, mean_above = _sheared_stats(0.0, a, b)
    assert p == pytest.approx(0.25, abs=1e-8)
    # constrained mean of exp(-x^2) on [0, inf) is 1/sqrt(pi)
    assert mean_above == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-8)


def test_solve_residuals_below_tolerance():
    a, b = solve_shear_coefficients(0.5, 0.30)
    r_p, r_m = shear_residuals(0.5, 0.30, a, b)
    assert abs(r_p) < 1e-10
    assert abs(r_m) < 1e-10


def test_solve_rejects_bad_targets():
    with pytest.raises(ValueError):
        solve_shear_coefficients(0.0, 0.0)
    with pytest.raises(ValueError):
        solve_shear_coefficients(0.0, 1.0)
    with pytest.raises(ValueError):
        solve_shear_coefficients(0.0, 0.7)  # above the current 0.5
    with pytest.raises(ValueError):
        solve_shear_coefficients(np.inf, 0.3)


# 20 (x0, fraction of current p) combinations for the defining equations
_GRID = [
    (x0, frac)
    for x0 in (-1.5, -0.6, 0.0, 0.35, 0.9, 1.8, 2.6, 3.4, 4.1, 5.0)
    for frac in (0.5, 0.9)
]


@pytest.mark.parametrize("x0,frac", _GRID)
def test_mean_preservation_and_targeting_on_grid(x0, frac):
    p_target = frac * violation_probability(x0)
    a, b = solve_shear_coefficients(x0, p_target)
    r_p, r_m = shear_residuals(x0, p_target, a, b)
    assert abs(r_p) < 1e-10
    assert abs(r_m) < 1e-10
    p, mean_above = _sheared_stats(x0, a, b)
    assert p == pytest.approx(p_target, abs=1e-8)
    _, mean_orig = _sheared_stats(x0, 0.0, 0.0)
    assert mean_above == pytest.approx(mean_orig, abs=1e-8)


def test_apply_zero_shear_is_identity():
    post = _posterior([1.0, 2.0], [0.1, -0.2])
    new = apply_shear(post, [1.0, 1.0], 0.0, 0.0, 0.0)
    np.testing.assert_array_equal(new.A, post.A)
    np.testing.assert_array_equal(new.b, post.b)


def test_apply_shear_closed_loop_hits_target():
    rng = np.random.default_rng(17)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = q @ np.diag(rng.uniform(0.2, 3.0, size=3)) @ q.T
        post = GaussianPosterior(A=A, b=rng.standard_normal(3))
        v = rng.standard_normal(3)
        u = rng.uniform(-0.5, 0.5)
        stats = standardize_constraint(post, v, u)
        p_target = 0.6 * stats.p
        a, b_shear = solve_shear_coefficients(stats.x0, p_target)
        new = apply_shear(post, v, u, a, b_shear)
        after = standardize_constraint(new, v, u)
        assert after.p == pytest.approx(p_target, abs=1e-8)
        assert np.linalg.eigvalsh(new.A)[0] > 0


def test_apply_shear_rejects_flattening():
    post = _posterior([1.0], [0.0])
    with pytest.raises(ValueError):
        apply_shear(post, [1.0], 0.0, -1.0, 0.0)


def test_additivity_of_successive_shears():
    post = _posterior([1.0], [0.0])
    v, u = [1.0], 0.0  # x0 = 0, p = 0.5

    def shear_to(p0, p_target):
        s = standardize_constraint(p0, v, u)
        a, b = solve_shear_coefficients(s.x0, p_target)
        return apply_shear(p0, v, u, a, b)

    direct = shear_to(post, 0.3)
    stepped = shear_to(shear_to(post, 0.4), 0.3)
    np.testing.assert_allclose(stepped.A, direct.A, atol=1e-6)
    np.testing.assert_allclose(stepped.b, direct.b, atol=1e-6)


def test_loop_zero_iterations_when_physical():
    post = _posterior([0.5], [1.0])
    cons = LinearConstraintSet([[1.0]], [-9.0])
    new, report = shear_until_physical(post, cons)
    assert report.iterations == 0
    assert not report.hit_max_iterations
    np.testing.assert_array_equal(new.A, post.A)
    np.testing.assert_array_equal(new.b, post.b)


def test_loop_schedule_step_count_from_half():
    # p = 0.5 descends by 0.0025 per iteration: ceil(0.49/0.0025) = 196
    post = _posterior([1.0], [0.0])
    cons = LinearConstraintSet([[1.0]], [0.0])
    new, report = shear_until_physical(post, cons)
    assert report.iterations == 196
    assert not report.hit_max_iterations
    assert report.max_p <= 0.01 + 1e-9
    assert standardize_constraint(new, [1.0], 0.0).p <= 0.01 + 1e-9


def test_loop_iteration_cap_flagged():
    post = _posterior([1.0], [0.0])
    cons = LinearConstraintSet([[1.0]], [0.0])
    cfg = ShearingConfig(max_iterations=5)
    new, report = shear_until_physical(post, cons, cfg)
    assert report.hit_max_iterations
    assert report.iterations == 5
    assert standardize_constraint(new, [1.0], 0.0).p == pytest.approx(0.5 - 5 * 0.0025, abs=1e-6)


def _loop_scenario(seed, dim=3, n_cons=5):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = q @ np.diag(rng.uniform(0.3, 2.5, size=dim)) @ q.T
    post = GaussianPosterior(A=A, b=rng.standard_normal(dim))
    V = rng.standard_normal((n_cons, dim))
    u = rng.uniform(-0.3, 0.3, size=n_cons)
    return post, V, u


def _manual_chain(post, V, u, cfg):
    """The loop spelled out with standardize_constraint and apply_shear.

    Returns (posterior, iterations, hit_cap, violators per pass), with
    violators counted strictly above the threshold.
    """
    iters = 0
    n_violating = []
    while True:
        stats = [standardize_constraint(post, v_i, u_i) for v_i, u_i in zip(V, u)]
        x0 = np.array([s.x0 for s in stats])
        p = np.array([s.p for s in stats])
        n_violating.append(int((p > cfg.p_threshold).sum()))
        over = p > cfg.p_threshold + 1e-9
        if not over.any():
            return post, iters, False, n_violating
        if iters >= cfg.max_iterations:
            return post, iters, True, n_violating
        if cfg.select_by_abs:
            idx = np.flatnonzero(over)
            i = int(idx[np.argmax(np.abs(x0[idx]))])
        else:
            i = int(np.argmax(x0))
        a, b = solve_shear_coefficients(x0[i], p[i] - cfg.p_step)
        post = apply_shear(post, V[i], u[i], a, b)
        iters += 1


def test_loop_matches_manual_chain_and_never_spreads_violations():
    post, V, u = _loop_scenario(49)
    cons = LinearConstraintSet(V, u)
    cfg = ShearingConfig()

    manual, iters, hit_cap, n_violating = _manual_chain(post, V, u, cfg)
    assert n_violating[0] >= 2  # the scenario must actually exercise the loop
    assert not hit_cap
    assert all(now - before <= cons.count - 1 for before, now in zip(n_violating, n_violating[1:]))

    looped, report = shear_until_physical(post, cons, cfg)
    assert report.iterations == iters
    np.testing.assert_allclose(looped.A, manual.A, atol=1e-9)
    np.testing.assert_allclose(looped.b, manual.b, atol=1e-9)
    for v_i, u_i in zip(V, u):
        assert standardize_constraint(looped, v_i, u_i).p <= cfg.p_threshold + 1e-9
    np.testing.assert_allclose(
        report.final_p,
        [standardize_constraint(looped, v_i, u_i).p for v_i, u_i in zip(V, u)],
        atol=1e-9,
    )


def _wide_scenario(seed, dim=20, n_cons=40):
    """Many constraints violating at once: enough shears to span several
    refreshes of the loop's carried Gram matrix."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = q @ np.diag(rng.uniform(0.3, 2.5, size=dim)) @ q.T
    post = GaussianPosterior(A=A, b=rng.standard_normal(dim))
    mean, cov = moments(post)
    V = rng.standard_normal((n_cons, dim))
    sd = np.sqrt(2.0 * np.einsum("ij,jk,ik->i", V, cov, V))
    # boundaries 0.6 to 2.5 axis units below the mean: initial violations
    # between about 2e-4 and 0.2, about half of them above the threshold
    u = V @ mean + sd * rng.uniform(-2.5, -0.6, size=n_cons)
    return post, V, u


@pytest.mark.parametrize(
    "cfg",
    [
        ShearingConfig(),
        ShearingConfig(select_by_abs=True),
        ShearingConfig(max_iterations=150),
    ],
    ids=["signed", "by_abs", "capped"],
)
def test_loop_matches_manual_chain_across_refreshes(cfg):
    post, V, u = _wide_scenario(8)
    manual, iters, hit_cap, _ = _manual_chain(post, V, u, cfg)
    assert iters >= 150  # more than two refresh periods of carried updates

    looped, report = shear_until_physical(post, LinearConstraintSet(V, u), cfg)
    assert report.iterations == iters
    assert report.hit_max_iterations == hit_cap
    # the chain solves with A afresh at every shear, the loop carries
    # Sherman-Morrison updates: equal up to rounding accumulated over the run
    np.testing.assert_allclose(looped.A, manual.A, rtol=1e-9, atol=1e-9 * np.abs(manual.A).max())
    np.testing.assert_allclose(looped.b, manual.b, rtol=1e-9, atol=1e-9 * np.abs(manual.b).max())
    exact = [standardize_constraint(looped, v_i, u_i).p for v_i, u_i in zip(V, u)]
    np.testing.assert_allclose(report.final_p, exact, rtol=0, atol=1e-9)
    assert report.max_p == pytest.approx(max(exact), abs=1e-9)
    if not hit_cap:
        assert report.max_p <= cfg.p_threshold + 1e-9


def test_loop_preserves_positive_definiteness():
    for seed in (5, 7, 19, 50):
        post, V, u = _loop_scenario(seed)
        new, report = shear_until_physical(post, LinearConstraintSet(V, u))
        assert not report.hit_max_iterations
        assert np.linalg.eigvalsh(new.A)[0] > 0


def test_loop_repairs_a_start_just_short_of_positive_definite():
    # one eigenvalue a hair below zero: the loop floors the spectrum once
    # and then shears as usual
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = q @ np.diag([-1e-9, 0.5, 1.0, 2.0, 3.0, 4.0]) @ q.T
    post = GaussianPosterior(A=A, b=rng.standard_normal(6))
    cons = LinearConstraintSet(rng.standard_normal((9, 6)), rng.uniform(-0.5, 0.5, size=9))
    new, report = shear_until_physical(post, cons)
    assert report.iterations > 0 and not report.hit_max_iterations
    assert report.max_p <= ShearingConfig().p_threshold + 1e-9
    assert np.linalg.eigvalsh(new.A)[0] > 0


def test_loop_gives_up_when_repair_cannot_restore_definiteness():
    post = GaussianPosterior(A=-np.eye(2), b=np.zeros(2))
    with pytest.raises(ShearSolveError):
        shear_until_physical(post, LinearConstraintSet([[1.0, 0.0]], [0.0]))


def test_signed_selection_skips_satisfied_constraints():
    # x0 = -1 violates mildly (p ~ 0.079), x0 = +0.2 violates badly; the
    # absolute-value variant attacks the mild one first, the signed
    # default attacks the bad one
    post = GaussianPosterior(A=np.diag([0.5, 0.5]), b=np.zeros(2))
    V = np.array([[1.0, 0.0], [0.0, 1.0]])
    u = np.array([-np.sqrt(2.0), 0.2 * np.sqrt(2.0)])
    one = ShearingConfig(max_iterations=1)
    one_abs = ShearingConfig(max_iterations=1, select_by_abs=True)

    signed, _ = shear_until_physical(post, LinearConstraintSet(V, u), one)
    absed, _ = shear_until_physical(post, LinearConstraintSet(V, u), one_abs)
    p_signed = [standardize_constraint(signed, v_i, u_i).p for v_i, u_i in zip(V, u)]
    p_absed = [standardize_constraint(absed, v_i, u_i).p for v_i, u_i in zip(V, u)]
    p_start = [standardize_constraint(post, v_i, u_i).p for v_i, u_i in zip(V, u)]
    assert p_signed[1] < p_start[1] and p_signed[0] == pytest.approx(p_start[0], abs=1e-9)
    assert p_absed[0] < p_start[0] and p_absed[1] == pytest.approx(p_start[1], abs=1e-9)


def test_empty_constraint_set_is_a_no_op():
    post = _posterior([1.0], [0.0])
    cons = LinearConstraintSet(np.zeros((0, 1)), np.zeros(0))
    new, report = shear_until_physical(post, cons)
    assert report.iterations == 0
    np.testing.assert_array_equal(new.A, post.A)


def test_zero_rows_dropped_at_construction():
    cons = LinearConstraintSet([[0.0, 0.0], [1.0, 2.0]], [0.5, 0.1])
    assert cons.count == 1
    np.testing.assert_array_equal(cons.vectors, [[1.0, 2.0]])
