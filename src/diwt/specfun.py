"""Special-function evaluators used throughout the package.

Provides the complex log-gamma function, the complementary error function,
modified Bessel functions of purely imaginary order, parabolic cylinder
functions of negative order, the Whittaker W function by two independent
routes (a Mellin-Barnes contour integral and a Bessel-Laplace integral),
and a finite-range incomplete Bessel integral.

The two Whittaker routes are deliberately kept separate: the contour route
is the default evaluator, and the Bessel-Laplace route serves as an
independent cross-check.  They share no quadrature path beyond the generic
engines in :mod:`diwt.quad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special as _sp

from .errors import (
    DomainError,
    NonConvergence,
    OrderError,
    PoleError,
    PrecisionBudgetExceeded,
    RealnessViolation,
    TailNotNegligible,
)
from .quad import (
    DEFAULT_SPEC,
    MellinBarnesSpec,
    QuadSpec,
    _ts_nodes,
    _TS_W0,
    integrate_finite,
    integrate_semi_infinite,
    integrate_vertical_line_rows,
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

def bessel_k_imag(tau: float, x: float, quad: QuadSpec = DEFAULT_SPEC) -> float:
    """Modified Bessel function of purely imaginary order, K_{i tau}(x).

    Computed from the cosh-form Laplace integral of e^{-x cosh s} cos(tau s)
    over the positive half-line, truncated where the exponential factor
    drops below eps * e^{-x} with eps = abs_tol / 10.  Even in tau by
    construction (only |tau| enters).
    """
    x = _positive(x, "bessel_k_imag")
    tau = abs(float(tau))
    if not math.isfinite(tau):
        raise DomainError(f"bessel_k_imag requires a finite order, got {tau}")
    if quad.precision == "extended":
        import mpmath as mp

        with mp.workdps(int(quad.dps)):
            return mp.re(mp.besselk(mp.mpc(0, tau), mp.mpf(x)))

    eps = quad.abs_tol / 10.0
    s_star = math.acosh(1.0 + (math.log(1.0 / eps) + math.log1p(1.0 / x)) / x)
    r = integrate_finite(
        lambda s: np.exp(-x * np.cosh(s)) * np.cos(tau * s), 0.0, s_star, quad
    )
    if not r.converged:
        raise NonConvergence(
            f"K_(i{tau})({x}) quadrature stalled at error {r.error_estimate:.2e}"
        )
    return float(r.value)


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


# Level cap of the two batched tanh-sinh loops below (K batch, cylinder D),
# and the K batch's relative-change target.
_BATCH_MAX_LEVEL = 9
_K_BATCH_REL_TOL = 1e-13


def _k_imag_batch(sigma: float, t):
    """K_{i sigma}(t_j) for an array of t >= ~1 on a shared cosh grid."""
    t = np.asarray(t, dtype=float)
    tmin = float(t.min())
    eps = 1e-17
    s_star = math.acosh(1.0 + (math.log(1.0 / eps) + math.log1p(1.0 / tmin)) / tmin)
    c = 0.5 * s_star

    def eval_nodes(s):
        return np.exp(-t[:, None] * np.cosh(s)[None, :]) * np.cos(sigma * s)[None, :]

    total = None
    diff = math.inf
    for m in range(0, _BATCH_MAX_LEVEL + 1):
        h = 0.5 ** m
        delta, ww = _ts_nodes(m)
        sl = c * delta
        sr = s_star - c * delta
        kl = sl > 0.0
        kr = sr < s_star
        ss = np.concatenate([sl[kl], sr[kr]])
        wss = np.concatenate([ww[kl], ww[kr]])
        part = eval_nodes(ss) @ wss
        if m == 0:
            mid = eval_nodes(np.array([0.5 * s_star]))[:, 0]
            total = c * h * (part + _TS_W0 * mid)
        else:
            prev = total
            total = 0.5 * prev + c * h * part
            if m >= 2:
                # uniform metric: small entries are summed downstream, so
                # only changes relative to the batch scale matter
                diff = float(np.max(np.abs(total - prev))
                             / max(float(np.max(np.abs(total))), 1e-300))
                if diff <= _K_BATCH_REL_TOL:
                    return total
    if diff > 100.0 * _K_BATCH_REL_TOL:
        raise NonConvergence(
            f"shared-grid Bessel batch stalled at relative change {diff:.2e}"
        )
    return total


def incomplete_bessel_j(x: float, n: int, quad: QuadSpec = DEFAULT_SPEC) -> float:
    """Finite-range Bessel-type integral of e^{-x cosh u} cos(n u) over [0, pi].

    An integration by parts turns it into (x/n) times the companion sine
    form; `_incomplete_bessel_j_by_parts` evaluates that form so the two
    can be checked against each other.
    """
    x = _positive(x, "incomplete_bessel_j")
    n = _positive_index(n, "incomplete_bessel_j index n")
    if quad.precision == "extended":
        import mpmath as mp

        with mp.workdps(int(quad.dps)):
            return mp.quad(lambda u: mp.exp(-x * mp.cosh(u)) * mp.cos(n * u),
                           [0, mp.pi])
    r = integrate_finite(
        lambda u: np.exp(-x * np.cosh(u)) * np.cos(n * u), 0.0, math.pi, quad
    )
    if not r.converged:
        raise NonConvergence("incomplete Bessel integral did not converge")
    return float(r.value)


def _incomplete_bessel_j_by_parts(x: float, n: int, quad: QuadSpec = DEFAULT_SPEC) -> float:
    x = float(x)
    n = int(n)
    r = integrate_finite(
        lambda u: np.exp(-x * np.cosh(u)) * np.sinh(u) * np.sin(n * u),
        0.0, math.pi, quad,
    )
    if not r.converged:
        raise NonConvergence("by-parts incomplete Bessel integral did not converge")
    return (x / n) * float(r.value)


# ---------------------------------------------------------------------------
# parabolic cylinder functions of negative order
# ---------------------------------------------------------------------------

# Exponent budget for truncating the Laplace-type cylinder integral; the
# discarded tail is below e^{-_CYL_L} relative to the peak.
_CYL_L = math.log(1e17) + 8.0
_SQRT_PI = math.sqrt(math.pi)

# The Maclaurin series below replaces the quadrature where the accuracy
# grid against mpmath (tests/test_specfun.py) shows it at least as
# accurate.  For larger |z| or alpha its alternating terms cancel.
_CYL_SERIES_RADIUS = 0.5
_CYL_SERIES_ALPHA_MAX = 3.0
# Below this alpha the quadrature stalls on the s^(alpha-1) endpoint
# singularity; for z > 1/2 the order recurrence replaces it.
_CYL_RECURRENCE_ALPHA = 0.1


def parabolic_cylinder_d_scaled(alpha: float, z, rel_tol: float = 1e-14):
    """exp(z^2/4) D_{-alpha}(z) for alpha > 0, vectorized over z.

    The value is 1/Gamma(alpha) times the integral of
    s^(alpha-1) e^{-s^2/2 - z s} over s > 0 (DLMF 12.5.1).  For
    |z| <= 1/2 and alpha <= 3 it is summed from the Maclaurin series of
    that integral in z, to full double precision whatever `rel_tol`.
    For z > 1/2 and alpha < 0.1 it is z D(alpha+1) + (alpha+1) D(alpha+2)
    in this notation (DLMF 12.8.1), two positive terms with no cancellation.
    Every other point goes through a per-point truncated and rescaled
    unit interval, so a single tanh-sinh grid serves all of them at once;
    the scaling keeps everything inside double range for all z >= 0 and
    moderately negative z.
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
    rest = ~near
    up = rest & (z > _CYL_SERIES_RADIUS) & (alpha < _CYL_RECURRENCE_ALPHA)
    if up.any():
        zu = z[up]
        vals[up] = zu * _cyl_quadrature(alpha + 1.0, zu, rel_tol, _BATCH_MAX_LEVEL) \
            + (alpha + 1.0) * _cyl_quadrature(alpha + 2.0, zu, rel_tol, _BATCH_MAX_LEVEL)
        rest &= ~up
    if rest.any():
        vals[rest] = _cyl_quadrature(alpha, z[rest], rel_tol, _BATCH_MAX_LEVEL)
    return float(vals[0]) if scalar else vals


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


@lru_cache(maxsize=None)
def _unit_ts_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """New tanh-sinh nodes of one level on (0, 1): nodes, weights, log nodes."""
    delta, ww = _ts_nodes(level)
    ul = 0.5 * delta
    ur = 1.0 - 0.5 * delta
    kl = ul > 0.0
    kr = ur < 1.0
    us = np.concatenate([ul[kl], ur[kr]])
    return us, np.concatenate([ww[kl], ww[kr]]), np.log(us)


def _cyl_quadrature(alpha: float, z: np.ndarray, rel_tol: float,
                    max_level: int) -> np.ndarray:
    # truncation radius: s^2/2 + z s = L, one stable formula for either sign
    s_star = 2.0 * _CYL_L / (z + np.sqrt(z * z + 2.0 * _CYL_L))
    a1 = alpha - 1.0
    lg = math.lgamma(alpha)

    def eval_nodes(u, log_u):
        # exponent a1 log u - s (s/2 + z), built in one buffer
        s = np.multiply.outer(s_star, u)
        expo = 0.5 * s
        expo += z[:, None]
        expo *= s
        np.subtract(a1 * log_u, expo, out=expo)
        return np.exp(expo, out=expo)

    c = 0.5
    total = None
    err = np.inf
    for m in range(0, max_level + 1):
        h = 0.5 ** m
        us, ws, log_us = _unit_ts_nodes(m)
        part = eval_nodes(us, log_us) @ ws
        if m == 0:
            mid = np.array([0.5])
            total = c * h * (part + _TS_W0 * eval_nodes(mid, np.log(mid))[:, 0])
        else:
            prev = total
            total = 0.5 * prev + c * h * part
            err = np.max(np.abs(total - prev) / np.maximum(np.abs(total), 1e-300))
            if m >= 2 and err <= rel_tol:
                break
    else:
        raise NonConvergence(
            f"cylinder integral stalled at relative change {err:.2e}"
        )
    return np.exp(alpha * np.log(s_star) - lg) * total


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
    through x^{-s}, recomputed per call.
    """

    def __init__(self, mu: float, rho: complex, gamma: float):
        self.mu = mu
        self.rho = rho
        self.gamma = gamma
        self._cache: dict[bytes, np.ndarray] = {}
        self._tail_T: float | None = None
        self._peak: float | None = None

    def factor(self, s):
        s = np.asarray(s, dtype=complex)
        store = s.size >= 8
        key = s.tobytes() if store else None
        if store and key in self._cache:
            return self._cache[key]
        logs = (log_gamma(0.5 + self.rho + s) + log_gamma(0.5 - self.rho + s)
                - log_gamma(1.0 - self.mu + s))
        if logs.real.max() > _LOG_MAX:
            raise PrecisionBudgetExceeded(
                f"contour Gamma-factor (mu={self.mu}, rho={self.rho}) overflows double "
                f"range on the line Re s = {self.gamma}")
        vals = np.exp(logs)
        if store:
            if len(self._cache) > 48:
                self._cache.clear()
            self._cache[key] = vals
        return vals

    def peak(self) -> float:
        if self._peak is None:
            self._peak = float(abs(self.factor(np.array([complex(self.gamma)]))[0]))
        return self._peak

    def tail_cutoff(self) -> float:
        # |x^{-s}| is constant along the contour, so the truncation point
        # depends only on the gamma-factor decay
        if self._tail_T is not None:
            return self._tail_T
        p0 = self.peak()
        T = 16.0
        # for large |tau| the integrand peaks near |t| = |tau| and may
        # underflow at t = 0, so the search starts past the peak
        while T < 2.0 * abs(self.rho):
            T *= 2.0
        while T <= 4096.0:
            ends = self.factor(np.array([self.gamma + 1j * T, self.gamma - 1j * T]))
            if float(np.abs(ends).max()) <= p0 * 1e-18 + 1e-300:
                break
            T *= 2.0
        else:
            raise TailNotNegligible("contour integrand does not decay by |t| = 4096")
        self._tail_T = T
        return T


_CONTOUR_CACHE: dict[tuple, _ContourFactor] = {}


def _contour_factor(mu: float, rho: complex, gamma: float) -> _ContourFactor:
    key = (round(mu, 12), round(rho.real, 12), round(rho.imag, 12), round(gamma, 12))
    got = _CONTOUR_CACHE.get(key)
    if got is None:
        if len(_CONTOUR_CACHE) > 64:
            _CONTOUR_CACHE.clear()
        got = _ContourFactor(mu, rho, gamma)
        _CONTOUR_CACHE[key] = got
    return got


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
    return _w_contour_group(mu, rho, _auto_gamma(mu, rho, x) if gamma is None else gamma,
                            [x], quad)[0]


def _w_contour_many(mu: float, rho: complex, xs, quad: QuadSpec = DEFAULT_SPEC,
                    gamma: float | None = None) -> np.ndarray:
    """``_w_contour_general`` at every x of xs, one line integral per abscissa.

    x enters the integrand only through x^{-s}, so the x that share a
    contour abscissa (`gamma`, or ``_auto_gamma`` of each x) are the rows of
    one row-wise line integral on one ``_ContourFactor``.  Each x keeps its
    own peak, tolerance and checks, so its value equals a one-x call bit
    for bit; the first x that fails, group by group, raises.
    """
    xs = [_positive(x, "whittaker_w_mb")
          for x in np.asarray(xs, dtype=float).reshape(-1).tolist()]
    groups: dict[float, list[int]] = {}
    for i, x in enumerate(xs):
        groups.setdefault(_auto_gamma(mu, rho, x) if gamma is None else gamma, []).append(i)
    out = np.empty(len(xs))
    for gam, idx in groups.items():
        out[idx] = _w_contour_group(mu, rho, gam, [xs[i] for i in idx], quad)
    return out


def _w_contour_group(mu: float, rho: complex, gamma: float, xs: list, quad: QuadSpec) -> list:
    cf = _contour_factor(mu, rho, gamma)
    T = cf.tail_cutoff()
    lns = [math.log(x) for x in xs]
    log_p0 = math.log(cf.peak()) if cf.peak() > 0.0 else -math.inf
    peaks = []
    for x, ln in zip(xs, lns):
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
        peaks.append(cf.peak() * math.exp(-gamma * ln))
    line_spec = QuadSpec(
        rel_tol=max(quad.rel_tol, 1e-12),
        max_refinements=max(quad.max_refinements, 12),
        max_evals=quad.max_evals,
    )
    mb = MellinBarnesSpec(gamma_abscissa=gamma, tail_cutoff=T, quad=line_spec)

    # complex, as -s * log(x) converts a float log(x)
    lnx = np.array(lns, dtype=complex)[:, None]

    def G(s, rows):
        # factor(s) * x^{-s}, built in one buffer
        e = np.multiply(-s, lnx.take(rows, axis=0))
        return np.multiply(cf.factor(s), np.exp(e, out=e), out=e)

    rs = integrate_vertical_line_rows(G, mb, [max(p * 1e-14, 1e-300) for p in peaks])
    vals = []
    for x, peak, r in zip(xs, peaks, rs):
        if isinstance(r, TailNotNegligible):
            raise r
        if not r.converged:
            raise NonConvergence(
                f"contour integral for W at x={x} stalled at error {r.error_estimate:.2e}"
            )
        v = complex(r.value)
        # near a zero of the small-x oscillation |Re| drops far below the contour
        # scale; the imaginary roundoff floor is set by `peak`, not by the value
        if abs(v.imag) > max(1e-8 * abs(v.real), 1e-12 * peak, 1e-300):
            raise RealnessViolation(
                f"contour route returned imaginary part {v.imag:.3e} against real part "
                f"{v.real:.3e}; contour or precision bug"
            )
        vals.append(v.real)
    return vals


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
    """Whittaker W_{mu, i tau}(x) by the Mellin-Barnes contour route.

    This is the default evaluator; it places no restriction on mu.  The
    contour abscissa is chosen automatically from (mu, x) unless `gamma`
    is supplied.  With scaled=True the value e^{-x/2} W is returned
    instead, which is the form every transform in this package consumes.
    """
    xf = _positive(x, "whittaker_w_mb")
    rho = complex(0.0, abs(float(order.tau)))
    if quad.precision == "extended":
        # pass x through unconverted so mpf abscissae keep their digits
        return _w_mb_extended(order.mu, rho, x, gamma, quad.dps, scaled)
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


def whittaker_w_bessel(order: WhittakerOrder, x: float,
                       quad: QuadSpec = DEFAULT_SPEC, scaled: bool = False) -> float:
    """Whittaker W_{mu, i tau}(x) by the Bessel-Laplace integral route.

    Valid for mu < 1/2 only.  The integration over t splits at t = 1: the
    lower piece is mapped by v = -log t so its logarithmic oscillation
    becomes linear (the series evaluator for K handles the tiny arguments),
    while the upper piece uses a shared cosh-grid for K across all
    quadrature nodes.
    """
    x = _positive(x, "whittaker_w_bessel")
    mu = _order_below_half(order.mu, "the Bessel-Laplace route", DomainError)
    tau = abs(float(order.tau))
    if quad.precision == "extended":
        return _w_bessel_extended(mu, tau, x, quad.dps, scaled)

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
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return t ** (-2.0 * mu) * np.exp(-t * t * inv4x) * _k_imag_batch(sigma, t)

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
