"""Special-function evaluators used throughout the package.

Provides the complex log-gamma function, the complementary error function,
modified Bessel functions of purely imaginary order, parabolic cylinder
functions of negative order, the Whittaker W function by two independent
routes (a Mellin-Barnes contour integral and a Bessel-Laplace integral),
and a finite-range incomplete Bessel integral.

K_{i tau}, the incomplete Bessel integral and the cylinder quadrature are
row-wise tanh-sinh integrals on quad's one refinement loop, with a row per
x or z point, so a value depends only on its own arguments and tolerances,
never on the batch that holds it; callers may batch any points together
without moving a value.  K and the incomplete Bessel integral carry their
e^{-x} factor outside the integral, so they keep relative accuracy at
large x.

The scaled cylinder function e^{z^2/4} D_{-alpha}(z) takes one of four
paths per point: the Maclaurin series at |z| <= 1/2 (alpha <= 3), the
enveloping large-z series (DLMF 12.9.1) from an edge Z0(alpha) of about
9-12 on, the order recurrence for alpha < 0.1, and the quadrature for the
rest.  Kernel and profile integrals evaluate it on outer(r, cosh u) once
per distinct cosh u (``_cyl_profile``).

The two Whittaker routes are deliberately kept separate: the contour route
is the default evaluator, with a convergent Kummer series in its place at
small x for imaginary second indices, and the Bessel-Laplace route serves
as an independent cross-check.  They share no quadrature path beyond the
generic engines in :mod:`diwt.quad`.  Three bounded LRU memos
(:class:`diwt._memo.LRUMemo`) serve the default route across calls: the
double-precision W values, one entry per batch of x (``w_memo_info``), the
contour factors keyed by the exact (mu, rho, abscissa), and each factor's
values on its trapezoid grids.  The Bessel-Laplace route computes every value it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special as _sp

from ._memo import LRUMemo, MemoInfo
from .errors import (
    DomainError,
    NonConvergence,
    OrderError,
    PoleError,
    PrecisionBudgetExceeded,
    TailNotNegligible,
)
from .quad import (
    DEFAULT_SPEC,
    QuadSpec,
    _in_blocks,
    _line_budget,
    _refine_rows,
    _tail_error,
    _tanh_sinh,
    _trapezoid,
    integrate_finite,
    integrate_finite_rows,
    integrate_semi_infinite,
)

__all__ = [
    "WhittakerOrder",
    "ComplexIndex",
    "log_gamma",
    "gamma_abs_squared",
    "erfc",
    "erfcx",
    "bessel_k0",
    "bessel_k_imag",
    "parabolic_cylinder_d",
    "parabolic_cylinder_d_scaled",
    "whittaker_w_mb",
    "whittaker_w_bessel",
    "incomplete_bessel_j",
    "w_memo_info",
    "w_memo_clear",
]


@dataclass(frozen=True)
class WhittakerOrder:
    """Order pair (mu, tau) of a Whittaker W function with second index i*tau.

    W is even in tau (the defining integrals depend on tau only through
    even functions), so negative tau is accepted everywhere.  The
    Bessel-Laplace route additionally requires mu < 1/2; the contour route
    has no mu restriction.
    """

    mu: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.tau)):
            raise DomainError("Whittaker order components must be finite")


@dataclass(frozen=True)
class ComplexIndex:
    """A complex harmonic index, used by the analytically continued kernels."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise DomainError("index components must be finite")

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


def _positive_index(n, what: str) -> int:
    """n as an int; DomainError unless n is a finite integer >= 1."""
    try:
        ok = math.isfinite(n) and n == int(n) and n >= 1
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{what} must be an integer >= 1, got {n}")
    return int(n)


def _positive(x, what: str, name: str = "x") -> float:
    """x as a float; DomainError unless x is finite and > 0."""
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"{what} requires {name} > 0, got {x}")
    return x


def _positive_points(x, what: str) -> tuple[np.ndarray, tuple]:
    """x as a flat float array and its shape; DomainError unless every x is finite and > 0."""
    x = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(x) & (x > 0.0))
    if bad.any():
        _positive(x[bad][0], what)
    return x.reshape(-1), x.shape


def _order_below_half(mu, what: str, error: type = OrderError) -> float:
    """mu as a float; `error` (OrderError by default) unless mu is finite and < 1/2."""
    mu = float(mu)
    if not (math.isfinite(mu) and mu < 0.5):
        raise error(f"{what} requires mu < 1/2, got {mu}")
    return mu


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

def log_gamma(z):
    """Principal branch of log Gamma, vectorized over complex input.

    This is scipy's ``loggamma``: analytic off the cut along the
    nonpositive real axis, so its imaginary part is not reduced to
    (-pi, pi].  Nonfinite arguments raise ValueError and poles raise
    PoleError, where scipy would return nan.
    """
    z = np.asarray(z, dtype=complex)
    out = _sp.loggamma(z)
    # scipy returns nan for both; look for the cause only then
    if not np.isfinite(out).all():
        w = np.atleast_1d(z)
        if not np.isfinite(w).all():
            raise ValueError("log_gamma requires finite arguments")
        pole = (w.imag == 0.0) & (w.real <= 0.0) & (w.real == np.floor(w.real))
        if pole.any():
            raise PoleError(f"log_gamma pole at z={w[pole][0]}")
    return complex(out) if z.ndim == 0 else out


def gamma_abs_squared(z) -> float:
    """|Gamma(z)|^2 evaluated as exp(2 Re log Gamma(z)) for stability."""
    return float(np.exp(2.0 * np.real(log_gamma(z))))


# ---------------------------------------------------------------------------
# error functions
# ---------------------------------------------------------------------------

def erfc(x):
    """Complementary error function."""
    if not np.all(np.isfinite(x)):
        raise DomainError("erfc requires finite arguments")
    out = _sp.erfc(x)
    return float(out) if np.ndim(x) == 0 else out


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x)."""
    if not np.all(np.isfinite(x)):
        raise DomainError("erfcx requires finite arguments")
    out = _sp.erfcx(x)
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# modified Bessel functions of imaginary order
# ---------------------------------------------------------------------------

def bessel_k_imag(tau: float, x, quad: QuadSpec = DEFAULT_SPEC):
    """Modified Bessel function of purely imaginary order, K_{i tau}(x), vectorized over x.

    Computed from the cosh-form Laplace integral of e^{-x cosh s} cos(tau s)
    over the positive half-line as e^{-x} times the integral of
    e^{-2x sinh^2(s/2)} cos(tau s), whose integrand starts at 1 whatever x,
    so large x keeps its relative accuracy; the integral is truncated where
    the exponential factor drops below eps = abs_tol / 10.  Each x is a row
    of one row integral on its own interval rescaled to (0, 1), so its
    value is that of a one-x call whatever the batch.  Even in tau by
    construction (only |tau| enters).  Extended precision takes mpmath.
    """
    xs, shape = _positive_points(x, "bessel_k_imag")
    tau = abs(float(tau))
    if not math.isfinite(tau):
        raise DomainError(f"bessel_k_imag requires a finite order, got {tau}")
    if quad.precision == "extended":
        import mpmath as mp

        with mp.workdps(int(quad.dps)):
            vals = [mp.re(mp.besselk(mp.mpc(0, tau), mp.mpf(xi))) for xi in xs.tolist()]
        return vals[0] if shape == () else np.array(vals, dtype=object).reshape(shape)

    eps = quad.abs_tol / 10.0
    s_star = np.arccosh(1.0 + (math.log(1.0 / eps) + np.log1p(1.0 / xs)) / xs)
    neg_2x = -2.0 * xs[:, None]

    def F(u, rows):
        # every row while none has stopped, without an indexed copy
        nx, sl = (neg_2x, s_star) if len(rows) == xs.size else (neg_2x[rows], s_star[rows])
        s = np.multiply.outer(sl, u)
        return np.exp(nx * np.sinh(0.5 * s) ** 2) * np.cos(tau * s)

    rs = integrate_finite_rows(F, 0.0, 1.0, quad.abs_tol / s_star, quad)
    for xi, si, r in zip(xs.tolist(), s_star.tolist(), rs):
        if not r.converged:
            raise NonConvergence(
                f"K_(i{tau})({xi}) quadrature stalled at error {si * r.error_estimate:.2e}"
            )
    vals = np.exp(-xs) * s_star * np.array([r.value for r in rs])
    return float(vals[0]) if shape == () else vals.reshape(shape)


def bessel_k0(x: float, quad: QuadSpec = DEFAULT_SPEC) -> float:
    """Modified Bessel function K_0(x) for x > 0 (the tau = 0 reduction)."""
    return bessel_k_imag(0.0, x, quad)


def _k_imag_series(sigma: float, t):
    """Ascending-series K_{i sigma}(t), accurate for 0 < t <= 1.

    Uses K = -pi Im I_{i sigma} / sinh(pi sigma) with the power series of I
    iterated multiplicatively; the sigma = 0 case takes the log-derivative
    branch.  Safe for extremely small t since t enters through log t.
    """
    t = np.asarray(t, dtype=float)
    if sigma == 0.0:
        q = 0.25 * t * t
        term = np.ones_like(t)
        psi = -0.5772156649015328606  # digamma(1)
        lnhalf = np.log(0.5 * t)
        total = psi - lnhalf
        for k in range(1, 60):
            term = term * q / (k * k)
            psi += 1.0 / k
            total = total + term * (psi - lnhalf)
            if np.all(np.abs(term) * (abs(psi) + np.abs(lnhalf) + 1.0)
                      <= 1e-18 * np.abs(total)):
                break
        return total

    c0 = np.exp(-log_gamma(1.0 + 1j * sigma))
    q = 0.25 * t * t
    acc = np.full(t.shape, c0, dtype=complex)
    term = np.full(t.shape, c0, dtype=complex)
    for k in range(1, 60):
        term = term * (q / (k * (k + 1j * sigma)))
        acc = acc + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
            break
    ivals = np.exp(1j * sigma * np.log(0.5 * t)) * acc
    return -math.pi * np.imag(ivals) / math.sinh(math.pi * sigma)


def incomplete_bessel_j(x, n: int, quad: QuadSpec = DEFAULT_SPEC):
    """Finite-range Bessel-type integral of e^{-x cosh u} cos(n u) over [0, pi].

    Vectorized over x, one row integral per x as for ``bessel_k_imag``, and
    like it summed as e^{-x} times the integral of e^{-2x sinh^2(u/2)}
    cos(n u), which keeps its relative accuracy at large x.  An
    integration by parts turns it into (x/n) times the companion sine
    form; `_incomplete_bessel_j_by_parts` evaluates that form so the two
    can be checked against each other.
    """
    xs, shape = _positive_points(x, "incomplete_bessel_j")
    n = _positive_index(n, "incomplete_bessel_j index n")
    if quad.precision == "extended":
        import mpmath as mp

        with mp.workdps(int(quad.dps)):
            vals = [mp.quad(lambda u: mp.exp(-xi * mp.cosh(u)) * mp.cos(n * u), [0, mp.pi])
                    for xi in xs.tolist()]
        return vals[0] if shape == () else np.array(vals, dtype=object).reshape(shape)

    neg_2x = -2.0 * xs[:, None]

    def F(u, rows):
        nx = neg_2x if len(rows) == xs.size else neg_2x[rows]
        return np.exp(nx * np.sinh(0.5 * u) ** 2) * np.cos(n * u)

    rs = integrate_finite_rows(F, 0.0, math.pi, np.full(xs.size, quad.abs_tol), quad)
    if not all(r.converged for r in rs):
        raise NonConvergence("incomplete Bessel integral did not converge")
    vals = np.exp(-xs) * np.array([r.value for r in rs], dtype=float)
    return float(vals[0]) if shape == () else vals.reshape(shape)


def _incomplete_bessel_j_by_parts(x: float, n: int, quad: QuadSpec = DEFAULT_SPEC) -> float:
    # (x/n) e^{-x} times the integral of e^{-2x sinh^2(u/2)} sinh u sin(n u),
    # which carries no e^{-x}, so the absolute tolerance keeps large x relative
    x = float(x)
    n = int(n)
    r = integrate_finite(
        lambda u: np.exp(-2.0 * x * np.sinh(0.5 * u) ** 2) * np.sinh(u) * np.sin(n * u),
        0.0, math.pi, quad,
    )
    if not r.converged:
        raise NonConvergence("by-parts incomplete Bessel integral did not converge")
    return (x / n) * math.exp(-x) * float(r.value)


# ---------------------------------------------------------------------------
# parabolic cylinder functions of negative order
# ---------------------------------------------------------------------------

# Exponent budget for truncating the Laplace-type cylinder integral; the
# discarded tail of e^{-s^2/2 - z s} is below e^{-_CYL_L} of its peak.
_CYL_L = math.log(1e17) + 8.0
# That budget ignores the weight s^(alpha-1), which from alpha of about 2.9
# on moves the peak out and lifts the tail: the radius also keeps the cut
# below e^{-_CYL_DROP} of the weighted peak (``_cyl_weighted_radius``).
_CYL_DROP = math.log(1e17)
_CYL_NEWTON_STEPS = 4
# The quadrature's factor s^alpha / Gamma(alpha) is formed as exp(alpha ln s -
# ln Gamma(alpha)) up to this alpha, which covers every order the kernels
# take at |mu| <= 1/2 with the bits they had, and directly above it while
# Gamma(alpha) is finite.
_CYL_EXP_FACTOR_ALPHA = 3.0
_CYL_GAMMA_MAX = 171.0
_SQRT_PI = math.sqrt(math.pi)

# The Maclaurin series below replaces the quadrature where the accuracy
# grid against mpmath (tests/test_specfun.py) shows it at least as
# accurate.  For larger |z| or alpha its alternating terms cancel.
_CYL_SERIES_RADIUS = 0.5
_CYL_SERIES_ALPHA_MAX = 3.0
# Below this alpha the quadrature stalls on the s^(alpha-1) endpoint
# singularity; for z > 1/2 the order recurrence replaces it.
_CYL_RECURRENCE_ALPHA = 0.1
# Level cap of the cylinder quadrature.
_CYL_MAX_LEVEL = 9


def parabolic_cylinder_d_scaled(alpha: float, z, rel_tol: float = 1e-14):
    """exp(z^2/4) D_{-alpha}(z) for alpha > 0, vectorized over z.

    The value is 1/Gamma(alpha) times the integral of
    s^(alpha-1) e^{-s^2/2 - z s} over s > 0 (DLMF 12.5.1).  Four paths
    serve it, tried in this order:

    * |z| <= 1/2 and alpha <= 3: the Maclaurin series of that integral in
      z, to full double precision whatever `rel_tol`;
    * z >= Z0(alpha) (about 9 at alpha = 1, 10 at 3, 12.25 at 11): the
      large-z series z^-alpha sum_k (-1)^k (alpha)_{2k} / (k! (2z^2)^k)
      (DLMF 12.9.1), which envelops the value, cut where its first omitted
      term is at most 2^-56 (see `_cyl_leaf_coeffs`);
    * z > 1/2 and alpha < 0.1: z D(alpha+1) + (alpha+1) D(alpha+2) in this
      notation (DLMF 12.8.1), two positive terms with no cancellation;
    * every other point: a per-point truncated and rescaled unit interval,
      so a single tanh-sinh grid serves all of them at once; the scaling
      keeps everything inside double range for all z >= 0 and moderately
      negative z.

    Each point takes its path and, on the quadrature, stops at its own
    level, so its value is that of a one-point call bit for bit, whatever
    the batch.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise OrderError(f"scaled cylinder function requires alpha > 0, got {alpha}")
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise DomainError("scaled cylinder function requires finite z")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)

    near = (np.abs(z) <= _CYL_SERIES_RADIUS) & (alpha <= _CYL_SERIES_ALPHA_MAX)
    vals = np.empty(z.shape)
    if near.any():
        even, odd = _cyl_series_coeffs(alpha)
        zn = z[near]
        w = zn * zn
        vals[near] = np.polyval(even, w) + zn * np.polyval(odd, w)
    z0, leaf = _cyl_leaf_coeffs(alpha)
    far = ~near & (z >= z0)
    if far.any():
        zf = z[far]
        w = z0 / zf
        vals[far] = zf ** -alpha * np.polyval(leaf, w * w)
    rest = ~(near | far)
    up = rest & (z > _CYL_SERIES_RADIUS) & (alpha < _CYL_RECURRENCE_ALPHA)
    if up.any():
        zu = z[up]
        vals[up] = zu * _cyl_quadrature(alpha + 1.0, zu, rel_tol, _CYL_MAX_LEVEL) \
            + (alpha + 1.0) * _cyl_quadrature(alpha + 2.0, zu, rel_tol, _CYL_MAX_LEVEL)
        rest &= ~up
    if rest.any():
        vals[rest] = _cyl_quadrature(alpha, z[rest], rel_tol, _CYL_MAX_LEVEL)
    return float(vals[0]) if scalar else vals


def _cyl_profile(alpha: float, r: np.ndarray, u: np.ndarray, rel_tol: float) -> np.ndarray:
    """parabolic_cylinder_d_scaled(alpha, outer(r, cosh u), rel_tol), once per distinct column.

    Every tanh-sinh node below about 1.5e-8 rounds cosh u to 1.0, so a level
    repeats columns; a value depends only on (alpha, z, rel_tol), so the
    distinct columns gathered back give the direct call bit for bit.
    """
    c, back = np.unique(np.cosh(u), return_inverse=True)
    return parabolic_cylinder_d_scaled(alpha, np.multiply.outer(r, c), rel_tol)[:, back]


@lru_cache(maxsize=64)
def _cyl_series_coeffs(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd Maclaurin coefficients of exp(z^2/4) D_{-alpha}(z).

    Expanding e^{-z s} in the integral gives c_k = (-1)^k 2^{(alpha+k)/2-1}
    Gamma((alpha+k)/2) / (k! Gamma(alpha)), so c_{k+2} = c_k (alpha+k) /
    ((k+1)(k+2)); the duplication formula leaves one reciprocal gamma in c_0
    and in c_1.  Even and odd coefficients each share a sign, so each part
    sums in z^2 without cancellation.  Terms stop below 1e-18 c_0 at the
    series radius; both arrays run from the highest order down (polyval).
    """
    c = [float(_SQRT_PI * 2.0 ** (-0.5 * alpha) * _sp.rgamma(0.5 * (alpha + 1.0))),
         float(-_SQRT_PI * 2.0 ** (0.5 * (1.0 - alpha)) * _sp.rgamma(0.5 * alpha))]
    while max(abs(c[-2]) * _CYL_SERIES_RADIUS ** (len(c) - 2),
              abs(c[-1]) * _CYL_SERIES_RADIUS ** (len(c) - 1)) > 1e-18 * c[0]:
        k = len(c) - 2
        c.append(c[k] * (alpha + k) / ((k + 1) * (k + 2)))
    even, odd = np.array(c[0::2][::-1]), np.array(c[1::2][::-1])
    even.flags.writeable = odd.flags.writeable = False
    return even, odd


# The large-z series stops once its first omitted term, relative to the
# leading term z^-alpha, is at most this.
_CYL_LEAF_TOL = 2.0 ** -56


@lru_cache(maxsize=64)
def _cyl_leaf_coeffs(alpha: float) -> tuple[float, np.ndarray]:
    """Edge Z0 and coefficients of the large-z series of exp(z^2/4) D_{-alpha}(z).

    Expanding e^{-s^2/2} in the integral gives z^-alpha sum_k t_k with
    t_k = (-1)^k (alpha)_{2k} / (k! (2z^2)^k), so t_{k+1} = -t_k (alpha+2k)
    (alpha+2k+1) / (2(k+1) z^2).  The Taylor partial sums of e^{-s^2/2}
    alternately lie above and below it and the weight s^(alpha-1) e^{-zs}
    is positive, so the error of a partial sum is at most its first omitted
    term.  Z0 is the smallest multiple of 1/4, and at least alpha + 1/2,
    at which |t_k| falls to _CYL_LEAF_TOL before the terms turn to grow;
    the floor keeps |t_1| <= 1/2, so the alternating sum stays above 1/2.
    Every term shrinks as z grows, so the terms at Z0 up to the first one
    below the tolerance (omitted) serve every z >= Z0, as a polynomial in
    (Z0/z)^2 running from the highest order down (polyval).
    """
    z0 = math.ceil(4.0 * alpha + 2.0) / 4.0
    while True:
        c = [1.0]
        while abs(c[-1]) > _CYL_LEAF_TOL:
            k = len(c) - 1
            ratio = (alpha + 2 * k) / z0 * ((alpha + 2 * k + 1) / z0) / (2 * k + 2)
            if ratio >= 1.0:
                break
            c.append(-c[-1] * ratio)
        else:
            coeffs = np.array(c[-2::-1])
            coeffs.flags.writeable = False
            return z0, coeffs
        z0 += 0.25


def _cyl_quadrature(alpha: float, z: np.ndarray, rel_tol: float,
                    max_level: int) -> np.ndarray:
    """Scaled D_{-alpha} at every z by the rescaled tanh-sinh rule on (0, 1).

    Each point is a row of quad's tanh-sinh loop and stops at its own first
    level m >= 2 whose relative change is at most rel_tol; NonConvergence
    is raised if any is still open after max_level.  Points are evaluated
    in quad's blocks (``_in_blocks``) and each point's weighted node sum is
    one dot product of its own row with the weights (np.vecdot, not a
    matrix-vector product, whose summation order depends on the row
    count), so a value depends on (alpha, z, rel_tol) only.
    """
    # truncation radius: s^2/2 + z s = L, one stable formula for either sign
    s_star = 2.0 * _CYL_L / (z + np.sqrt(z * z + 2.0 * _CYL_L))
    a1 = alpha - 1.0
    # at any z the weighted peak lies at least L - a1 (1 + ln(L / a1)) above
    # the cut (``_cyl_weighted_radius``), enough up to alpha of about 2.9
    if a1 > 0.0 and _CYL_L - a1 * (1.0 + math.log(_CYL_L / a1)) < _CYL_DROP:
        s_star = _cyl_weighted_radius(a1, z, s_star)

    def terms(zl, sl, u, log_u):
        # u^a1 e^{-s (s/2 + z)}, s = s_star u, built in one buffer
        s = np.multiply.outer(sl, u)
        expo = 0.5 * s
        expo += zl[:, None]
        expo *= s
        np.subtract(a1 * log_u, expo, out=expo)
        return np.exp(expo, out=expo)

    def node_sums(u, w, rows):
        # sum_j w_j terms_j for each open point
        log_u = np.log(u)
        return _in_blocks(lambda at: np.vecdot(terms(z[at], s_star[at], u, log_u), w),
                          rows, u.size)

    total, change, _, _, converged = _refine_rows(
        node_sums, _tanh_sinh(0.0, 1.0), np.zeros(z.size), rel_tol, max_level)
    if not converged.all():
        worst = (change / np.maximum(np.abs(total), 1e-300))[~converged].max()
        raise NonConvergence(f"cylinder integral stalled at relative change {worst:.2e}")
    if _CYL_EXP_FACTOR_ALPHA < alpha < _CYL_GAMMA_MAX:
        # each factor rounds once, where exp(alpha ln s - ln Gamma) carries
        # alpha times the rounding of ln s: 40 ulp at alpha = 11
        return s_star ** alpha / math.gamma(alpha) * total
    return np.exp(alpha * np.log(s_star) - math.lgamma(alpha)) * total


def _cyl_weighted_radius(a1: float, z: np.ndarray, s_star: np.ndarray) -> np.ndarray:
    """s_star, widened where the weight s^a1 keeps the cut tail above _CYL_DROP.

    With h(s) = s^2/2 + z s - a1 ln s the integrand is e^{-h}, which peaks
    at p = 2 a1 / (z + sqrt(z^2 + 4 a1)), where h(p) = a1 (1 - ln p) - p^2/2.
    Where h(s_star) - h(p) falls short of _CYL_DROP the radius is its root,
    by _CYL_NEWTON_STEPS steps of Newton's method from s_star, or from 2p if
    that lies further out: h is convex and rises right of p, so every step
    lands right of the root, and four reach it to rounding up to alpha = 11.
    Since s_star / p < L / a1 at every z, a shortfall needs
    a1 (1 + ln(L / a1)) > L - _CYL_DROP.
    """
    p = 2.0 * a1 / (z + np.sqrt(z * z + 4.0 * a1))

    def excess(s, zs, ps):
        return s * (0.5 * s + zs) - a1 * np.log(s / ps) + 0.5 * ps * ps - (a1 + _CYL_DROP)

    short = excess(s_star, z, p) < 0.0
    if short.any():
        zs, ps = z[short], p[short]
        s = np.maximum(s_star[short], 2.0 * ps)
        for _ in range(_CYL_NEWTON_STEPS):
            s = s - excess(s, zs, ps) / (s + zs - a1 / s)
        s_star = s_star.copy()
        s_star[short] = s
    return s_star


def parabolic_cylinder_d(nu: float, z: float, quad: QuadSpec = DEFAULT_SPEC) -> float:
    """Parabolic cylinder function D_nu(z) for negative order nu < 0."""
    nu = float(nu)
    z = float(z)
    if not (math.isfinite(nu) and nu < 0.0):
        raise OrderError(f"parabolic_cylinder_d requires nu < 0, got {nu}")
    if not math.isfinite(z):
        raise DomainError("parabolic_cylinder_d requires finite z")
    if quad.precision == "extended":
        import mpmath as mp

        with mp.workdps(int(quad.dps)):
            return mp.pcfd(mp.mpf(nu), mp.mpf(z))
    scaled = parabolic_cylinder_d_scaled(-nu, z, rel_tol=max(quad.rel_tol, 1e-15))
    return float(scaled * math.exp(-0.25 * z * z))


# ---------------------------------------------------------------------------
# Whittaker W: Mellin-Barnes contour route (default)
# ---------------------------------------------------------------------------

# Largest exponent whose exp is a finite double, smallest whose exp is normal.
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_TINY = math.log(np.finfo(float).tiny)


class _ContourFactor:
    """Gamma-ratio factor on a fixed vertical contour with node-grid caching.

    The factor Gamma(1/2+rho+s) Gamma(1/2-rho+s) / Gamma(1-mu+s) depends
    only on (mu, rho, gamma), so its values at the trapezoid grids can be
    reused across every x evaluated on the same contour.  x enters only
    through x^{-s}, recomputed per call.  For real mu and rho real or
    imaginary the factor at gamma - it is the conjugate of that at
    gamma + it, so only t >= 0 is ever asked for.
    """

    # least recently used grids are evicted beyond this many
    _GRIDS = 48

    def __init__(self, mu: float, rho: complex, gamma: float):
        self.mu = mu
        self.rho = rho
        self.gamma = gamma
        self._cache = LRUMemo(self._GRIDS)
        self._tail: tuple[float, float] | None = None
        self._peak: float | None = None

    def factor(self, s, grid: tuple | None = None):
        """The factor at the points s; ``grid``, if given, names s exactly.

        The values at a named grid are kept, so the name must fix every
        point: ``_w_contour_group`` passes T and the node count of the
        trapezoid level on [0, T] that s = gamma + it walks.
        """
        if grid is None:
            return self._values(s)
        return self._cache.fill([grid], lambda todo: [self._values(s)])[0]

    def _values(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=complex)
        logs = (log_gamma(0.5 + self.rho + s) + log_gamma(0.5 - self.rho + s)
                - log_gamma(1.0 - self.mu + s))
        if logs.real.max() > _LOG_MAX:
            raise PrecisionBudgetExceeded(
                f"contour Gamma-factor (mu={self.mu}, rho={self.rho}) overflows double "
                f"range on the line Re s = {self.gamma}")
        return np.exp(logs)

    def peak(self) -> float:
        if self._peak is None:
            self._peak = float(abs(self.factor(np.array([complex(self.gamma)]))[0]))
        return self._peak

    def tail(self) -> tuple[float, float]:
        """(T, |factor| at gamma + iT): where the line is cut, and what is cut there."""
        # |x^{-s}| is constant along the contour, so the truncation point
        # depends only on the gamma-factor decay
        if self._tail is not None:
            return self._tail
        p0 = self.peak()
        T = 16.0
        # for large |tau| the integrand peaks near |t| = |tau| and may
        # underflow at t = 0, so the search starts past the peak
        while T < 2.0 * abs(self.rho):
            T *= 2.0
        while T <= 4096.0:
            end = float(abs(self.factor(np.array([self.gamma + 1j * T]))[0]))
            if end <= p0 * 1e-18 + 1e-300:
                break
            T *= 2.0
        else:
            raise TailNotNegligible("contour integrand does not decay by |t| = 4096")
        self._tail = (T, end)
        return self._tail


# Least recently used contour factors are evicted beyond 256: one
# inversion request asks for about 60 contours per mu.
_CONTOUR_CACHE = LRUMemo(256)


def _contour_factor(mu: float, rho: complex, gamma: float) -> _ContourFactor:
    # the exact numbers, so that a factor never serves a nearby contour
    key = (mu, rho.real, rho.imag, gamma)
    return _CONTOUR_CACHE.fill([key], lambda todo: [_ContourFactor(mu, rho, gamma)])[0]


# Largest x the contour takes on its own abscissa: round(x/2) is not the
# saddle, and the cancellation along the line costs 3.6e-8 relative at
# x = 100, 5e-5 at 140 and 1e-1 at 200 against mpmath.
_W_CONTOUR_X_MAX = 100.0
# Smallest x the contour takes on any abscissa: below it the lobes of the
# line integral cancel to nothing (tools/w_accuracy_map.py), and an answer
# could be off by any factor (7e-39 for 2.1e-45 at mu 0, tau 1/4, x 1e-90).
_W_CONTOUR_X_MIN = 1e-30


def _auto_gamma(mu: float, rho: complex, x: float) -> float:
    # strictly right of both constraint lines; quantized for cache reuse
    gmin = max(abs(rho.real) - 0.5, mu - 1.0)
    if x < 0.05:
        # keep the contour left so the x^{-s} factor does not amplify the
        # cancellation between oscillatory lobes as x -> 0
        return gmin + 0.25
    if x < 4.0:
        return max(1.0, gmin + 0.25)
    return max(1.0, gmin + 0.25, float(round(x / 2.0)))


def _w_contour_general(mu: float, rho: complex, x: float,
                       gamma: float | None = None,
                       quad: QuadSpec = DEFAULT_SPEC) -> float:
    """e^{-x/2} W_{mu, rho}(x) by the vertical-line integral; rho may be
    purely real or purely imaginary (both give a real result)."""
    return float(_w_contour_many(mu, rho, [x], quad, gamma)[0])


def _w_contour_many(mu: float, rho: complex, xs, quad: QuadSpec = DEFAULT_SPEC,
                    gamma: float | None = None) -> np.ndarray:
    """``_w_contour_general`` at every x of xs, one line integral per abscissa.

    x enters the integrand only through x^{-s}, so the x that share a
    contour abscissa (`gamma`, or ``_auto_gamma`` of each x) are the rows of
    one row-wise line integral on one ``_ContourFactor``.  Each x keeps its
    own peak, tolerance and checks, so its value equals a one-x call bit
    for bit; the first x that fails, group by group, raises.  A second index
    that is neither real nor imaginary raises OrderError (the line is
    folded onto t >= 0 by conjugate symmetry), and x < 1e-30, or x > 100
    without a `gamma`, raises PrecisionBudgetExceeded.
    """
    if rho.real != 0.0 and rho.imag != 0.0:
        raise OrderError(
            f"the contour route needs a purely real or purely imaginary second index, "
            f"got {rho}")
    xs = [_positive(x, "whittaker_w_mb")
          for x in np.asarray(xs, dtype=float).reshape(-1).tolist()]
    groups: dict[float, list[int]] = {}
    for i, x in enumerate(xs):
        if gamma is None and x > _W_CONTOUR_X_MAX:
            raise PrecisionBudgetExceeded(
                f"the contour for W resolves x <= {_W_CONTOUR_X_MAX:g} on its own "
                f"abscissa, got x={x}")
        if x < _W_CONTOUR_X_MIN:
            raise PrecisionBudgetExceeded(
                f"the contour for W resolves x >= {_W_CONTOUR_X_MIN:g}, got x={x}")
        groups.setdefault(_auto_gamma(mu, rho, x) if gamma is None else gamma, []).append(i)
    out = np.empty(len(xs))
    for gam, idx in groups.items():
        out[idx] = _w_contour_group(mu, rho, gam, [xs[i] for i in idx], quad)
    return out


def _w_contour_group(mu: float, rho: complex, gamma: float, xs: list, quad: QuadSpec) -> list:
    """The x of one abscissa as rows of the trapezoid rule on the folded line.

    With g(s) = factor(s) x^{-s}, (1/2 pi) times the line integral of g is
    (1/pi) times that of Re g(gamma + it) over [0, T], and Re g is
    x^{-gamma} (Re F cos(t ln x) + Im F sin(t ln x)) with F the factor at
    gamma + it: real arithmetic on half the nodes.
    """
    cf = _contour_factor(mu, rho, gamma)
    T, tail = cf.tail()
    log_p0 = math.log(cf.peak()) if cf.peak() > 0.0 else -math.inf
    lnx, scales, tols = [], [], []
    for x in xs:
        ln = math.log(x)
        lnx.append(ln)
        # |x^{-s}| = x^{-gamma} on the line: it and the integrand peak must
        # stay in double range before either is exponentiated, and x^{-s}
        # must not underflow, or every node of the integrand reads 0
        log_peak = log_p0 - gamma * ln
        if max(log_peak, -gamma * ln) > _LOG_MAX:
            raise PrecisionBudgetExceeded(
                f"contour integrand for W at x={x} peaks at e^{log_peak:.0f}, "
                f"beyond double range")
        if -gamma * ln < _LOG_TINY:
            raise PrecisionBudgetExceeded(
                f"|x^-s| = e^{-gamma * ln:.0f} on the contour for W at x={x} "
                f"underflows double range")
        scale = math.exp(-gamma * ln)
        tol = max(cf.peak() * scale * 1e-14, 1e-300)
        if tail * scale > tol:
            raise _tail_error(tail * scale, tol)
        scales.append(scale / math.pi)
        tols.append(tol)
    lnx, scales = np.array(lnx), np.array(scales)

    def row_sums(t, w, rows):
        # a level of the trapezoid rule on [0, T] is fixed by its node count
        f = cf.factor(gamma + 1j * t, (T, t.size))
        fr, fi = (f.real, f.imag) if w is None else (w * f.real, w * f.imag)

        def sums(at):
            th = np.multiply.outer(lnx[at], t)
            c = np.cos(th)
            return np.vecdot(c, fr) + np.vecdot(np.sin(th, out=th), fi)

        return scales[rows] * _in_blocks(sums, rows, t.size)

    value, err, _, _, converged = _refine_rows(
        row_sums, _trapezoid(T), np.array(tols), max(quad.rel_tol, 1e-12),
        max(quad.max_refinements, 12), _line_budget(quad.max_evals))
    for x, e, ok in zip(xs, err.tolist(), converged.tolist()):
        if not ok:
            raise NonConvergence(f"contour integral for W at x={x} stalled at error {e:.2e}")
    return value.tolist()


# The Kummer series below replaces the contour for x <= _W_SERIES_CUT.  Against
# mpmath and relative to the envelope 2|A| sqrt(x) (tests/test_specfun.py,
# tools/w_accuracy_map.py) it errs by about 1e-14 plus the rounding of the
# phase tau ln x + arg A (5e-12 at tau = 64, x = 1e-300), which bounds tau
# above; the contour errs as much from x ~ 1e-5 up to the cut, and stalls or
# loses every digit below x ~ 1e-30.  At tau -> 0 the series' two conjugate
# terms cancel (A has a pole there).  The mu range is the measured one; far
# beyond it the terms grow before they fall (|1/2 - mu| x > 1).
_W_SERIES_CUT = 0.05
_W_SERIES_TAU = (0.5, 64.0)
_W_SERIES_MU = 10.0


# Least recently used W batches are evicted beyond 16,384 points, one point
# per x.  A point takes about 23 bytes, keys and arrays by sys.getsizeof
# after 60 invert cells (202 when each x was its own entry); those cells
# (3 mus, n 1..3) leave about 13,600 points and 20 coeff-profile cells about
# 5,100.
_W_MEMO = LRUMemo(1 << 14, points=lambda key: len(key[1]) >> 3)


def w_memo_info() -> MemoInfo:
    """Hits, misses and stored points of the double-precision W memo.

    A point is one x; counts run from import or the last ``w_memo_clear()``.
    """
    return _W_MEMO.info()


def w_memo_clear() -> None:
    """Empty the W memo and zero its counts."""
    _W_MEMO.clear()


def _w_scaled_many(mu: float, rho: complex, xs, quad: QuadSpec = DEFAULT_SPEC) -> np.ndarray:
    """e^{-x/2} W_{mu, rho}(x) at every x of xs: the default double-precision route.

    For rho = i tau with tau in _W_SERIES_TAU and |mu| <= _W_SERIES_MU, every
    x <= _W_SERIES_CUT is summed from the Kummer series (``_w_series``);
    every other x, and every x of any other (mu, rho), goes to
    ``_w_contour_many``.  Both routes fix a value from (mu, rho, x, quad)
    alone, so a value never depends on the batch that holds it.

    So each batch is remembered across calls, keyed by what fixes its bits:
    mu, rho, the QuadSpec fields the contour reads (rel_tol,
    max_refinements, max_evals) and the bytes of xs.  A batch not seen is
    computed whole in one ``_w_scaled_routed`` call, and a batch seen is
    returned from the memo (``w_memo_info``) as a read-only array; a batch
    that raises stores nothing.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    # what every x shares, as one string: a str keeps its hash, so a key
    # hashes without walking the shared fields again (repr keeps every bit)
    shared = repr((float(mu), rho.real, rho.imag, quad.rel_tol, quad.max_refinements,
                   quad.max_evals))

    def compute(todo):
        # contiguous, so that the series route's .real view keeps no complex base alive
        w = np.ascontiguousarray(_w_scaled_routed(mu, rho, xs, quad))
        w.flags.writeable = False
        return [w]

    return _W_MEMO.fill([(shared, xs.tobytes())], compute)[0]


def _w_scaled_routed(mu: float, rho: complex, xs: np.ndarray, quad: QuadSpec) -> np.ndarray:
    """``_w_scaled_many`` without the memo: each x to the series or the contour."""
    if not (rho.real == 0.0 and _W_SERIES_TAU[0] <= rho.imag <= _W_SERIES_TAU[1]
            and abs(mu) <= _W_SERIES_MU):
        return _w_contour_many(mu, rho, xs, quad)
    # x <= 0 and nan fail this test and are refused by the contour route
    near = (xs > 0.0) & (xs <= _W_SERIES_CUT)
    if not near.any():
        return _w_contour_many(mu, rho, xs, quad)
    if near.all():
        return _w_series(mu, rho.imag, xs)
    out = np.empty(xs.size)
    out[near] = _w_series(mu, rho.imag, xs[near])
    out[~near] = _w_contour_many(mu, rho, xs[~near], quad)
    return out


def _w_series(mu: float, tau: float, x: np.ndarray) -> np.ndarray:
    """e^{-x/2} W_{mu, i tau}(x) by the convergent Kummer series, 0 < x <= _W_SERIES_CUT.

    DLMF 13.14.33 with 13.14.2 gives, for real mu and tau > 0,
    e^{-x/2} W = 2 e^{-x} sqrt(x) Re[A x^{i tau} M(1/2 + i tau - mu, 1 + 2 i tau, x)]
    with A = Gamma(-2 i tau) / Gamma(1/2 - i tau - mu).  M is summed from a
    fixed coefficient list per (mu, tau) (``_w_series_coeffs``), so each x
    takes the same terms whatever its batch.
    """
    coeffs, log_2a = _w_series_coeffs(mu, tau)
    return (np.exp(log_2a + complex(0.5, tau) * np.log(x) - x) * np.polyval(coeffs, x)).real


@lru_cache(maxsize=64)
def _w_series_coeffs(mu: float, tau: float) -> tuple[np.ndarray, complex]:
    """Kummer coefficients of M(a, b, x), highest order first, and log(2A).

    c_{k+1} = c_k (a + k) / ((b + k)(k + 1)) with a = 1/2 + i tau - mu and
    b = 1 + 2 i tau; terms stop below 1e-18 of the largest at x = _W_SERIES_CUT.
    """
    a, b = complex(0.5 - mu, tau), complex(1.0, 2.0 * tau)
    c = [1.0 + 0.0j]
    big = 1.0
    while abs(c[-1]) * _W_SERIES_CUT ** (len(c) - 1) > 1e-18 * big:
        k = len(c) - 1
        c.append(c[k] * (a + k) / ((b + k) * (k + 1)))
        big = max(big, abs(c[-1]) * _W_SERIES_CUT ** (k + 1))
    log_2a = complex(_sp.loggamma(complex(0.0, -2.0 * tau))
                     - _sp.loggamma(complex(0.5 - mu, -tau))) + math.log(2.0)
    coeffs = np.array(c[::-1])
    coeffs.flags.writeable = False
    return coeffs, log_2a


def _w_mb_extended(mu: float, rho: complex, x: float, gamma: float | None,
                   dps: int, scaled: bool):
    import mpmath as mp

    with mp.workdps(int(dps)):
        if gamma is None:
            gamma = _auto_gamma(mu, rho, x)
        gam = mp.mpf(gamma)
        T = mp.mpf(max(60.0, 1.6 * dps + 30.0))
        mux = mp.mpf(mu)
        rh = mp.mpc(rho)

        def f(t):
            s = gam + 1j * t
            return (mp.gamma(mp.mpf('0.5') + rh + s) * mp.gamma(mp.mpf('0.5') - rh + s)
                    / mp.gamma(1 - mux + s)) * mp.power(x, -s)

        v = mp.quad(f, [-T, 0, T], maxdegree=10) / (2 * mp.pi)
        v = mp.re(v)
        return v if scaled else v * mp.exp(mp.mpf(x) / 2)


def whittaker_w_mb(order: WhittakerOrder, x: float, gamma: float | None = None,
                   quad: QuadSpec = DEFAULT_SPEC, scaled: bool = False) -> float:
    """Whittaker W_{mu, i tau}(x), the default evaluator; no restriction on mu.

    In double precision with no `gamma` this is the transforms' evaluator
    ``_w_scaled_many``: for 1/2 <= |tau| <= 64 and |mu| <= 10 every
    x <= 0.05 is summed from the convergent Kummer series (DLMF 13.14.33),
    and every other (mu, tau, x) is the Mellin-Barnes contour integral,
    on an abscissa chosen from (mu, x); values are remembered across calls
    (``w_memo_info``).  A given `gamma` always takes the contour on that
    abscissa, and extended precision takes mpmath's contour quadrature.  The
    contour refuses x < 1e-30 on any abscissa.  With scaled=True the value
    e^{-x/2} W is returned instead, which is the form every transform in
    this package consumes.
    """
    xf = _positive(x, "whittaker_w_mb")
    rho = complex(0.0, abs(float(order.tau)))
    if quad.precision == "extended":
        # pass x through unconverted so mpf abscissae keep their digits
        return _w_mb_extended(order.mu, rho, x, gamma, quad.dps, scaled)
    if gamma is None:
        ex = float(_w_scaled_many(float(order.mu), rho, [xf], quad)[0])
    else:
        ex = _w_contour_general(float(order.mu), rho, xf, gamma=gamma, quad=quad)
    return ex if scaled else ex * math.exp(0.5 * xf)


# ---------------------------------------------------------------------------
# Whittaker W: Bessel-Laplace route (independent oracle)
# ---------------------------------------------------------------------------

def _w_bessel_extended(mu: float, tau: float, x: float, dps: int, scaled: bool):
    import mpmath as mp

    with mp.workdps(int(dps)):
        mux, taux, xx = mp.mpf(mu), mp.mpf(tau), mp.mpf(x)
        g2 = mp.gamma(mp.mpf('0.5') - mux + 1j * taux) * mp.gamma(mp.mpf('0.5') - mux - 1j * taux)

        def fv(v):
            t = mp.exp(-v)
            return mp.exp(-(1 - 2 * mux) * v) * mp.exp(-t * t / (4 * xx)) \
                * mp.besselk(2j * taux, t)

        vmax = (mp.log(10) * (dps + 8)) / (1 - 2 * mux)
        i1 = mp.quad(fv, [0, vmax / 4, vmax])
        tmax = 2 * mp.sqrt(xx * mp.log(10) * (dps + 8)) + 2

        def ft(t):
            return mp.power(t, -2 * mux) * mp.exp(-t * t / (4 * xx)) \
                * mp.besselk(2j * taux, t)

        i2 = mp.quad(ft, [1, tmax])
        # the prefactor carries e^{-x/2}; the scaled form carries e^{-x}
        base = 2 * mp.power(4 * xx, mux) / mp.re(g2) * mp.re(i1 + i2)
        return base * mp.exp(-xx) if scaled else base * mp.exp(-xx / 2)


# Tolerances of the K values under the Bessel-Laplace route's upper piece.
_K_SPEC = QuadSpec(abs_tol=1e-16, rel_tol=1e-13, max_refinements=9)
# Largest |tau| the route takes in double precision: its roundoff is divided
# by |Gamma(1/2 - mu + i tau)|^2 ~ e^{-pi tau}.  Its worst error against
# mpmath is 1.1e-9 at tau = 4, 1.5e-8 at 4.25 and 9e-6 at 4.5.
_W_BESSEL_TAU_MAX = 4.25


def whittaker_w_bessel(order: WhittakerOrder, x: float,
                       quad: QuadSpec = DEFAULT_SPEC, scaled: bool = False) -> float:
    """Whittaker W_{mu, i tau}(x) by the Bessel-Laplace integral route.

    Valid for mu < 1/2 only, and in double precision for |tau| <= 4.25.
    The integration over t splits at t = 1: the lower piece is mapped by
    v = -log t so its logarithmic oscillation becomes linear (the series
    evaluator for K handles the tiny arguments), while the upper piece
    takes K at all the nodes of a level in one ``bessel_k_imag`` call.
    """
    x = _positive(x, "whittaker_w_bessel")
    mu = _order_below_half(order.mu, "the Bessel-Laplace route", DomainError)
    tau = abs(float(order.tau))
    if quad.precision == "extended":
        return _w_bessel_extended(mu, tau, x, quad.dps, scaled)
    if tau > _W_BESSEL_TAU_MAX:
        raise PrecisionBudgetExceeded(
            f"the Bessel-Laplace route resolves |tau| <= {_W_BESSEL_TAU_MAX} in double "
            f"precision, got {tau}")

    sigma = 2.0 * tau
    inv4x = 0.25 / x
    piece_spec = QuadSpec(
        abs_tol=max(quad.abs_tol, 1e-14),
        rel_tol=max(quad.rel_tol, 1e-12),
        max_refinements=max(quad.max_refinements, 11),
        max_evals=quad.max_evals,
    )

    # (0, 1]: v = -log t keeps the K oscillation linear in v
    def f_low(v):
        v = np.asarray(v, dtype=float)
        t = np.exp(-v)
        return np.exp(-(1.0 - 2.0 * mu) * v) * np.exp(-t * t * inv4x) \
            * _k_imag_series(sigma, t)

    r1 = integrate_semi_infinite(f_low, 1.2 / (1.0 - 2.0 * mu), piece_spec)

    # [1, T*]: Gaussian factor kills the tail beyond 2 sqrt(x L)
    t_max = 2.0 * math.sqrt(x * math.log(1e17)) + 2.0

    def f_high(t):
        return t ** (-2.0 * mu) * np.exp(-t * t * inv4x) * bessel_k_imag(sigma, t, _K_SPEC)

    r2 = integrate_finite(f_high, 1.0, t_max, piece_spec)
    if not (r1.converged and r2.converged):
        raise NonConvergence(
            f"Bessel-Laplace route for W at x={x} stalled "
            f"(errors {r1.error_estimate:.2e}, {r2.error_estimate:.2e})"
        )

    g2 = gamma_abs_squared(complex(0.5 - mu, tau))
    base = 2.0 * (4.0 * x) ** mu / g2 * (float(r1.value) + float(r2.value))
    # base is e^{x/2} W; the scaled form is e^{-x/2} W
    return base * math.exp(-x) if scaled else base * math.exp(-0.5 * x)
