"""Shearing the Gaussian belief back toward the physical region.

Physicality is imposed through linear inequalities v_i . c >= u_i (one
per test ket).  For each constraint the belief is standardized so the
boundary becomes the point x0 on an exp(-x^2) axis; the violation
probability is then p = (1 + erf(x0))/2, the mass below x0.  A shear
replaces the marginal exp(-x^2) by exp(-(1+a)x^2 + b x) chosen so the
violation drops to a target while the conditional mean over the allowed
side [x0, inf) is preserved, and the rank-one back-substitution updates
(A, b) of the full belief.

The scalar solve has a closed form.  Writing h(t) for the gap between
the conditional mean E[x | x >= t] and t itself, the mean condition
forces sqrt(1+a) = h(z)/h(x0) with z the standardized boundary at the
target violation, and the offset follows as b = 2(1+a)x0 - 2 sqrt(1+a) z.

The multi-constraint loop repeatedly shears the worst offender with a
slightly reduced target until every violation sits at or below the
threshold.  A shear changes A by one rank-one term alpha v_i v_i^T and b
by a multiple of v_i, so the loop never refactors A per pass.  It keeps
A = A0 + V^T diag(d) V and b = b0 + V^T e through per-constraint
accumulators d and e, and carries the constraint Gram matrix
Q = V A^-1 V^T and w = V A^-1 b, from which every x0 follows; each shear
updates them in O(c^2) for c constraints by the Sherman-Morrison identity
(Golub & Van Loan, Matrix Computations, sec. 12.5):

    gamma = alpha / (1 + alpha q_i),  q = Q[:, i]
    Q <- Q - gamma q q^T
    w <- w + beta q - gamma (w_i + beta q_i) q

Every _REFRESH_PERIOD shears, Q and w are recomputed from a fresh
Cholesky factor L of the re-formed A, as Q = Y^T Y with Y = L^-1 V^T: a
sum of squares, so v . A^-1 . v stays nonnegative however badly A is
conditioned, which carried downdates alone do not guarantee.  The
decision to stop, the decision that the iteration cap was hit, and the
violations the report returns are always taken on such a fresh factor,
so rounding in the carried quantities can perturb which shears are taken
and by how much, but the loop never stops on, or reports, a stale value.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular
from scipy.linalg.blas import dger
from scipy.special import erf, erfcx, erfinv

from .gaussian_posterior import GaussianPosterior

_RT_PI = np.sqrt(np.pi)
_P_SLACK = 1e-9
# Shears between exact refreshes of the carried Q and w.  On the 11x11
# lattice (120 coefficients, 161 constraints) the carried x0 differed
# from a fresh factor's by at most ~2e-7 at every period tried from 16
# to 256, without growing with the period; the time per shear stops
# falling at about 64, where the refresh is about a quarter of it.
_REFRESH_PERIOD = 64


class ShearSolveError(ArithmeticError):
    """Closed-form shear coefficients failed their residual check."""


@dataclass
class LinearConstraintSet:
    """Half-space constraints v_i . c >= u_i on the free coefficients.

    Rows with |v_i| = 0 are dropped at construction; they would express
    either nothing or an unsatisfiable constant inequality.
    """

    vectors: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        u = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if v.shape[0] != u.size:
            raise ValueError(f"{v.shape[0]} vectors but {u.size} offsets")
        keep = np.linalg.norm(v, axis=1) > 0
        self.vectors = v[keep]
        self.offsets = u[keep]

    @property
    def count(self):
        return self.offsets.size


@dataclass(frozen=True)
class ShearingConfig:
    p_threshold: float = 0.01
    p_step: float = 0.0025
    max_iterations: int = 20000
    select_by_abs: bool = False

    def __post_init__(self):
        if not 0.0 < self.p_step < self.p_threshold < 1.0:
            raise ValueError("need 0 < p_step < p_threshold < 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class ViolationStats:
    """Standardized boundary coordinate and the mass on its wrong side."""

    x0: float
    p: float


@dataclass(frozen=True)
class ShearReport:
    iterations: int
    final_p: np.ndarray
    hit_max_iterations: bool
    max_p: float


def conditional_mean_gap(t):
    """E[x | x >= t] - t for the exp(-x^2)/sqrt(pi) density.

    Strictly positive and decreasing; for t far below zero it approaches
    -t (the conditional mean approaches the unconditional zero).  Far
    above zero the direct form is a difference of near-equal numbers, so
    the asymptotic series (1/2t)(1 - 1/t^2 + 5/2t^4) takes over; at the
    switch point both agree to twelve digits.
    """
    if t > 200.0:
        u = 1.0 / (t * t)
        return 0.5 / t * (1.0 - u + 2.5 * u * u)
    return 1.0 / (_RT_PI * erfcx(t)) - t


def violation_probability(x0):
    return 0.5 * (1.0 + erf(x0))


def standardize_constraint(post, v, u):
    """Boundary position of one constraint in the whitened frame.

    u' = u - v . mean and |v'|^2 = v . A^-1 . v give x0 = u'/|v'| and
    p = (1 + erf(x0))/2, the belief mass violating v . c >= u.
    """
    v = np.asarray(v, dtype=float)
    try:
        av = np.linalg.solve(post.A, np.column_stack([v, post.b]))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"A is singular: {exc}") from exc
    norm2 = float(v @ av[:, 0])
    if norm2 <= 0:
        raise ValueError("constraint vector has no length under A")
    u_prime = float(u) - 0.5 * float(v @ av[:, 1])
    x0 = u_prime / np.sqrt(norm2)
    return ViolationStats(x0=float(x0), p=float(violation_probability(x0)))


def solve_shear_coefficients(x0, p_target):
    """Shear parameters (a, b) hitting p_target while preserving the mean.

    Closed form: z = erfinv(2 p_target - 1) is the boundary after the
    shear, s = h(z)/h(x0) the axis rescaling, a = s^2 - 1 and
    b = 2 (1+a) x0 - 2 s z.  Residuals of both defining equations are
    checked before returning.
    """
    if not 0.0 < p_target < 1.0:
        raise ValueError(f"p_target {p_target} outside (0, 1)")
    if not np.isfinite(x0):
        raise ValueError(f"x0 = {x0} is not finite")
    # compare boundaries instead of probabilities: erf saturates at
    # x0 ~ 6 while the boundary coordinate stays exact
    z = float(erfinv(2.0 * p_target - 1.0))
    if z > x0 + 1e-12:
        p_now = violation_probability(x0)
        raise ValueError(f"p_target {p_target} exceeds current violation {p_now}")
    if abs(z - x0) <= 1e-12:
        return 0.0, 0.0
    s = conditional_mean_gap(z) / conditional_mean_gap(x0)
    a = s * s - 1.0
    b = 2.0 * (1.0 + a) * x0 - 2.0 * s * z
    r_p, r_m = shear_residuals(x0, p_target, a, b)
    tol = 1e-10 * max(1.0, abs(x0))
    # inverted comparison so NaN residuals fail instead of slipping through
    if not (abs(r_p) <= tol and abs(r_m) <= tol):
        raise ShearSolveError(f"residuals ({r_p:.2e}, {r_m:.2e}) exceed tolerance")
    return float(a), float(b)


def shear_residuals(x0, p_target, a, b):
    """Defect of (a, b) against the two shearing conditions.

    Returns (violation residual, conditional-mean residual) for the
    sheared density exp(-(1+a)x^2 + b x) with boundary x0.
    """
    s = np.sqrt(1.0 + a)
    center = b / (2.0 * (1.0 + a))
    z = s * (x0 - center)
    r_p = violation_probability(z) - p_target
    mean_sheared = center + (z + conditional_mean_gap(z)) / s
    mean_orig = x0 + conditional_mean_gap(x0)
    return float(r_p), float(mean_sheared - mean_orig)


def apply_shear(post, v, u, a, b_shear):
    """Push one shear back onto the natural parameters.

    Both correction terms use the pre-update A and b.  Requires
    1 + a > 0; anything else would flatten or invert the belief along v.
    """
    if 1.0 + a <= 0.0:
        raise ValueError(f"1 + a = {1.0 + a} would destroy positive definiteness")
    v = np.asarray(v, dtype=float)
    sol = np.linalg.solve(post.A, np.column_stack([v, post.b]))
    norm2 = float(v @ sol[:, 0])
    v_dot_ainv_b = float(v @ sol[:, 1])
    A_new = post.A + np.outer(v, v) * (a / norm2)
    b_new = post.b + b_shear * v / np.sqrt(norm2) + a * v_dot_ainv_b * v / norm2
    return GaussianPosterior(A=A_new, b=b_new)


def shear_until_physical(post, constraints, config=None):
    """Shear the worst-violated constraint until all sit at the threshold.

    Each pass standardizes every constraint against the current belief,
    picks the strongest offender (largest x0, or largest |x0| when
    ``select_by_abs`` is set, considered only among those above the
    threshold) and shears it down by one step of the schedule.  Stops
    when the worst violation is within threshold plus a 1e-9 slack, or
    when the iteration budget runs out, in which case the report says so
    and the best-effort belief is still returned.  Both decisions, and
    the reported violations, are taken on an exact factorisation.
    """
    if config is None:
        config = ShearingConfig()
    V = constraints.vectors
    u = constraints.offsets
    if constraints.count == 0:
        return post, ShearReport(0, np.zeros(0), False, 0.0)
    # A = A0 + V^T diag(d) V and b = b0 + V^T e; a shear of constraint i
    # only moves d[i] and e[i]
    A0 = post.A
    b0 = post.b
    d = np.zeros(constraints.count)
    e = np.zeros(constraints.count)
    iterations = 0
    repaired = False
    stale = None  # shears since Q and w were exact; None forces a refresh
    while True:
        if stale is None or stale >= _REFRESH_PERIOD:
            A = A0 + (V.T * d) @ V
            try:
                cho = cho_factor(A, lower=True)
            except LinAlgError:
                # roundoff in the accumulated rank-one terms can sink the
                # smallest eigenvalue below zero once the spectrum spans
                # most of a float64's decades; restore a floor once
                if repaired:
                    raise ShearSolveError("matrix not positive definite after repair")
                repaired = True
                ev = np.linalg.eigvalsh(0.5 * (A + A.T))
                A0 = 0.5 * (A0 + A0.T)
                A0 += (max(0.0, -ev[0]) + 1e-12 * ev[-1]) * np.eye(A0.shape[0])
                continue
            # Q[i, j] = v_i . A^-1 v_j from Y = L^-1 V^T, so its diagonal is
            # a sum of squares and cannot come out negative however wide
            # the spectrum of A
            y = solve_triangular(cho[0], V.T, lower=True)
            # Fortran order lets dger apply the rank-one updates in place,
            # about half the cost per shear of Q -= gamma * np.outer(q, q)
            Q = np.asfortranarray(y.T @ y)
            w = V @ cho_solve(cho, b0 + V.T @ e)
            stale = 0
        norms2 = Q.diagonal()
        if stale and not norms2.min() > 0:
            stale = None  # cancellation in the downdates ate a norm
            continue
        x0 = (u - 0.5 * w) / np.sqrt(norms2)
        p = violation_probability(x0)
        if config.select_by_abs:
            over = p > config.p_threshold + _P_SLACK
            done = not over.any()
            if not done:
                idx = np.flatnonzero(over)
                i = int(idx[np.argmax(np.abs(x0[idx]))])
        else:
            i = int(np.argmax(x0))
            done = p[i] <= config.p_threshold + _P_SLACK
        if done or iterations >= config.max_iterations:
            if stale:
                stale = None
                continue
            hit_cap = not done
            break
        a, b_shear = solve_shear_coefficients(x0[i], p[i] - config.p_step)
        # A += alpha v_i v_i^T and b += beta v_i, pushed through
        # Sherman-Morrison: (A + alpha v v^T)^-1 loses gamma (A^-1 v)(A^-1 v)^T
        n2 = norms2[i]
        alpha = a / n2
        beta = b_shear / np.sqrt(n2) + a * w[i] / n2
        gamma = alpha / (1.0 + a)  # 1 + alpha n2 = 1 + a
        q = Q[:, i].copy()
        w = w + beta * q - gamma * (w[i] + beta * n2) * q
        Q = dger(-gamma, q, q, a=Q, overwrite_a=True)
        d[i] += alpha
        e[i] += beta
        stale += 1
        iterations += 1
    report = ShearReport(
        iterations=iterations,
        final_p=p,
        hit_max_iterations=hit_cap,
        max_p=float(p.max()),
    )
    return GaussianPosterior(A=A, b=b0 + V.T @ e), report
