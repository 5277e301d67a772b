"""Adaptive quadrature engines used throughout the package.

Three entry points cover every integral that appears downstream:

* ``integrate_finite``        -- double-exponential (tanh-sinh) rule on (a, b).
  Handles integrable endpoint singularities such as x**(-2*mu) without any
  special casing because the substitution pushes nodes toward the endpoints
  at a doubly exponential rate.
* ``integrate_semi_infinite`` -- truncates (0, inf) at a point where the
  supplied exponential decay bound falls below abs_tol/10, then reuses the
  finite rule.  The truncation point and tail bound are logged in the result
  metadata.
* ``integrate_vertical_line`` -- progressive trapezoid rule along a vertical
  line Re(s) = gamma, for Mellin-type integrands that are analytic in a strip
  and decay at both ends.  The trapezoid rule converges geometrically there.

All three also come row-wise (``integrate_finite_rows``,
``integrate_semi_infinite_rows``, ``integrate_vertical_line_rows``): a
family of integrands shares every node evaluation, and each row stops at its
own level with the result it would have alone.  ``integrate_finite`` and
``integrate_vertical_line`` are the one-row cases, so there is a single
tanh-sinh and a single trapezoid refinement loop.

All three refine by halving the step and comparing successive sums; they are
deterministic (no randomness, cached node tables) and report an error
estimate together with a convergence flag.  An optional extended-precision
mode (>= 30 significant digits, backed by mpmath) is selected through
``QuadSpec.precision``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
import math

import numpy as np

from .errors import InvalidDecayScale, InvalidInterval, TailNotNegligible

__all__ = [
    "QuadSpec",
    "IntegralResult",
    "MellinBarnesSpec",
    "DEFAULT_SPEC",
    "as_rows",
    "integrate_finite",
    "integrate_finite_rows",
    "integrate_semi_infinite",
    "integrate_semi_infinite_rows",
    "integrate_vertical_line",
    "integrate_vertical_line_rows",
]


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budgets for a quadrature call.

    abs_tol / rel_tol      convergence thresholds (both must be positive;
                           the achieved criterion is max(abs, rel * |value|))
    max_refinements        step-halving rounds after the coarse pass
    max_evals              hard budget on integrand evaluations
    precision              "double" (numpy) or "extended" (mpmath)
    dps                    working decimal digits in extended mode
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-12
    max_refinements: int = 12
    max_evals: int = 2_000_000
    precision: str = "double"
    dps: int = 30

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be positive and finite")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be positive and finite")
        if int(self.max_refinements) < 1:
            raise ValueError("max_refinements must be >= 1")
        if int(self.max_evals) < 100:
            raise ValueError("max_evals must be >= 100")
        if self.precision not in ("double", "extended"):
            raise ValueError("precision must be 'double' or 'extended'")
        if self.precision == "extended" and int(self.dps) < 15:
            raise ValueError("extended mode needs dps >= 15")

    def as_dict(self) -> dict:
        """The fields in declaration order, as manifests and kernel tables record them."""
        return asdict(self)


DEFAULT_SPEC = QuadSpec()


@dataclass
class IntegralResult:
    """Value of an integral plus bookkeeping.

    ``converged=True`` implies ``error_estimate <= max(abs_tol,
    rel_tol * |value|)`` for the spec the integral was run with.
    """

    value: complex
    error_estimate: float
    evaluations: int
    converged: bool
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MellinBarnesSpec:
    """Contour data for a vertical-line integral.

    gamma_abscissa   real part of the integration line
    tail_cutoff      half-length T of the truncated line [gamma-iT, gamma+iT]
    quad             tolerances/budget for the trapezoid refinement
    """

    gamma_abscissa: float
    tail_cutoff: float = 60.0
    quad: QuadSpec = field(default_factory=QuadSpec)

    def __post_init__(self):
        if not math.isfinite(self.gamma_abscissa):
            raise ValueError("gamma_abscissa must be finite")
        if not (self.tail_cutoff > 0 and math.isfinite(self.tail_cutoff)):
            raise ValueError("tail_cutoff must be positive and finite")


# ---------------------------------------------------------------------------
# tanh-sinh node tables
#
# Abscissas t = k*h under the map u = tanh((pi/2) sinh t).  _TS_TMAX = 6.0
# keeps the endpoint distance delta = 1 - |u| and the weights inside normal
# double range (delta ~ 1.3e-275 at the last node).
# ---------------------------------------------------------------------------

_TS_TMAX = 6.0
_TS_W0 = math.pi / 2.0  # weight at t = 0


def _ts_point(t: float) -> tuple[float, float]:
    """(delta, weight) at abscissa t > 0, overflow-safe."""
    y = 0.5 * math.pi * math.sinh(t)
    e = math.exp(-2.0 * y)
    delta = 2.0 * e / (1.0 + e)
    w = 0.5 * math.pi * math.cosh(t) * 4.0 * e / (1.0 + e) ** 2
    return delta, w


@lru_cache(maxsize=None)
def _ts_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """New positive abscissas introduced at this refinement level.

    Level 0: t = 1..TMAX step 1.  Level m: odd multiples of 2**-m.
    Returns (delta, weight) arrays; t = 0 is handled separately.
    """
    h = 0.5 ** level
    if level == 0:
        ks = range(1, int(_TS_TMAX) + 1)
        ts = [k * 1.0 for k in ks]
    else:
        kmax = int(math.floor(_TS_TMAX / h))
        ts = [k * h for k in range(1, kmax + 1, 2)]
    pts = [_ts_point(t) for t in ts]
    delta = np.array([p[0] for p in pts])
    weight = np.array([p[1] for p in pts])
    return delta, weight


class _VecCall:
    """Calls f on node arrays, falling back to a scalar loop if needed."""

    def __init__(self, f):
        self.f = f
        self.vectorized = None
        self.count = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.count += x.size
        if self.vectorized is not False:
            try:
                y = np.asarray(self.f(x))
                if y.shape == x.shape:
                    self.vectorized = True
                    return y
            except (TypeError, ValueError, IndexError):
                if self.vectorized is True:
                    raise
            self.vectorized = False
        return np.asarray([self.f(xi) for xi in x.tolist()])


def integrate_finite(f, a: float, b: float, spec: QuadSpec = DEFAULT_SPEC) -> IntegralResult:
    """Integrate f over (a, b) with the tanh-sinh rule.

    f may return real or complex values and is preferentially called with
    node arrays; scalar-only callables are detected and looped over.  The
    endpoints themselves are never evaluated unless a node collapses onto
    one through rounding, in which case it is dropped (its weight is below
    1e-270 of the interval scale).  This is the one-row case of
    ``integrate_finite_rows``.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise InvalidInterval(f"expected finite a < b, got ({a}, {b})")
    if spec.precision == "extended":
        return _integrate_mp(f, a, b, spec, "tanh-sinh", {"dps": int(spec.dps)})
    return integrate_finite_rows(as_rows(f), a, b, [spec.abs_tol], spec)[0]


def as_rows(f):
    """Wrap a one-integrand callable as the one-row F of integrate_finite_rows."""
    fv = _VecCall(f)
    return lambda xs, rows: fv(xs)[None, :]


def integrate_finite_rows(F, a: float, b: float, abs_tols,
                          spec: QuadSpec = DEFAULT_SPEC) -> list[IntegralResult]:
    """Integrate a family of integrands over (a, b) on shared tanh-sinh nodes.

    ``F(xs, rows)`` returns an array of shape (len(rows), len(xs)): the
    integrands numbered ``rows`` (a list of positions in ``abs_tols``) at
    the nodes ``xs``.  Row i stops at the first level where it passes the
    ``integrate_finite`` test with abs_tol ``abs_tols[i]``; F is asked only
    for the rows still open.  The nodes of each level are a superset of the
    previous ones, so a row's value, error estimate, evaluation count and
    convergence flag are exactly those of integrating it alone.  (Rows are
    summed in the dtype of F's array, so a real row in a complex family can
    differ from its own integral in the last bit.)  rel_tol,
    max_refinements and max_evals come from ``spec`` and are shared;
    double precision only.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise InvalidInterval(f"expected finite a < b, got ({a}, {b})")
    tols = [float(t) for t in abs_tols]
    results: list[IntegralResult | None] = [None] * len(tols)
    # per-row running sums stay numpy scalars, so each row does exactly
    # the scalar arithmetic of a one-row run
    total: list = [None] * len(tols)
    err = [math.inf] * len(tols)
    c = 0.5 * (b - a)
    mid = a + c
    rows = list(range(len(tols)))
    count = 0
    levels_done = 0
    for m in range(0, spec.max_refinements + 1):
        if not rows:
            break
        delta, weight = _ts_nodes(m)
        xl = a + c * delta
        xr = b - c * delta
        # nodes that round onto an endpoint are dropped per side; their
        # weights are below 1e-16 of the interval scale
        kl = xl > a
        kr = xr < b
        h = 0.5 ** m
        n_new = int(np.count_nonzero(kl)) + int(np.count_nonzero(kr)) + (1 if m == 0 else 0)
        if count + n_new > spec.max_evals:
            break
        xs = np.concatenate([xl[kl], xr[kr]])
        ws = np.concatenate([weight[kl], weight[kr]])
        # C order: each row then sums pairwise along its own nodes, as alone
        partial = (ws * np.ascontiguousarray(F(xs, rows))).sum(axis=1)
        count += xs.size
        if m == 0:
            at_mid = F(np.array([mid]), rows)[:, 0]
            count += 1
            for k, i in enumerate(rows):
                total[i] = c * h * (partial[k] + _TS_W0 * at_mid[k])
        else:
            for k, i in enumerate(rows):
                prev_total = total[i]
                total[i] = 0.5 * prev_total + c * h * partial[k]
                err[i] = abs(total[i] - prev_total)
        levels_done = m
        if m >= 2:
            still_open = []
            for i in rows:
                if err[i] <= max(tols[i], spec.rel_tol * abs(total[i])):
                    results[i] = _row_result(total[i], err[i], count, True,
                                             {"levels": m, "rule": "tanh-sinh"})
                else:
                    still_open.append(i)
            rows = still_open

    for i in rows:
        results[i] = _row_result(total[i], err[i], count, False,
                                 {"levels": levels_done, "rule": "tanh-sinh"})
    return results


def _row_result(total, err, count: int, converged: bool, meta: dict) -> IntegralResult:
    return IntegralResult(
        value=_as_python_number(total),
        error_estimate=float(err) if math.isfinite(err) else float("inf"),
        evaluations=count,
        converged=converged,
        meta=meta,
    )


def _truncation(decay_scale: float, abs_tol: float) -> tuple[float, float]:
    """(cutoff, tail bound) where the unit-constant decay bound drops below abs_tol/10."""
    if not (decay_scale > 0 and math.isfinite(decay_scale)):
        raise InvalidDecayScale(f"decay_scale must be positive and finite, got {decay_scale}")
    d = float(decay_scale)
    cutoff = d * max(math.log(10.0 * max(d, 1.0) / abs_tol), 10.0)
    return cutoff, d * math.exp(-cutoff / d)


def integrate_semi_infinite(f, decay_scale: float, spec: QuadSpec = DEFAULT_SPEC) -> IntegralResult:
    """Integrate f over (0, inf) given an eventual bound |f(t)| <= C e^(-t/d).

    The interval is truncated where the unit-constant decay bound drops
    below abs_tol/10 and the finite piece goes through the tanh-sinh rule.
    The truncation point and the tail bound it implies are recorded in
    ``meta`` and folded into the error estimate.
    """
    cutoff, tail_bound = _truncation(decay_scale, spec.abs_tol)
    if spec.precision == "extended":
        res = _integrate_mp(f, 0.0, math.inf, spec, "tanh-sinh", {"dps": int(spec.dps)})
        res.meta.update({"truncation_point": None, "tail_bound": 0.0})
        return res
    res = integrate_finite(f, 0.0, cutoff, spec)
    return _with_tail(res, cutoff, tail_bound)


def integrate_semi_infinite_rows(F, decay_scale: float, abs_tols,
                                 spec: QuadSpec = DEFAULT_SPEC) -> list[IntegralResult]:
    """Row-wise ``integrate_semi_infinite``; see ``integrate_finite_rows``.

    The truncation point depends on each row's abs_tol, so rows share
    nodes, and F calls, only within groups of equal truncation point.
    """
    tols = [float(t) for t in abs_tols]
    cuts = [_truncation(decay_scale, t) for t in tols]
    results: list[IntegralResult | None] = [None] * len(tols)
    for cut in dict.fromkeys(cuts):
        group = np.array([i for i, c in enumerate(cuts) if c == cut])
        part = integrate_finite_rows(lambda xs, rows, g=group: F(xs, g[rows]), 0.0, cut[0],
                                     [tols[i] for i in group], spec)
        for i, res in zip(group, part):
            results[i] = _with_tail(res, *cut)
    return results


def _with_tail(res: IntegralResult, cutoff: float, tail_bound: float) -> IntegralResult:
    res.meta.update({"truncation_point": cutoff, "tail_bound": tail_bound})
    res.error_estimate = float(res.error_estimate + tail_bound)
    return res


def integrate_vertical_line(g, mb: MellinBarnesSpec) -> IntegralResult:
    """Compute (1/2*pi) * Integral of g(gamma + i t) dt over [-T, T].

    This is the (1/2*pi*i) contour integral of g along the vertical line
    after the substitution s = gamma + i t.  g must be analytic in a strip
    around the line and small at t = +-T; if |g| at the endpoints exceeds
    the absolute tolerance a TailNotNegligible error is raised.  The value
    is returned with its imaginary part intact so callers can assert
    realness where symmetry demands it.  In double precision this is the
    one-row case of ``integrate_vertical_line_rows``.
    """
    spec = mb.quad
    gv = _VecCall(g)
    if spec.precision == "double":
        [r] = integrate_vertical_line_rows(lambda s, rows: gv(s)[None, :], mb, [spec.abs_tol])
        if isinstance(r, TailNotNegligible):
            raise r
        return r
    import mpmath as mp

    gam = float(mb.gamma_abscissa)
    T = float(mb.tail_cutoff)
    tail = float(np.abs(gv(gam + 1j * np.array([-T, T]))).max())
    if tail > spec.abs_tol:
        raise _tail_error(tail, spec.abs_tol)
    return _integrate_mp(lambda t: g(mp.mpf(gam) + 1j * t), -T, T, spec,
                         "trapezoid-line", {"gamma": gam, "tail_cutoff": T},
                         over_two_pi=True)


def _tail_error(tail: float, abs_tol: float) -> TailNotNegligible:
    return TailNotNegligible(
        f"|g| at the contour ends is {tail:.3e} > abs_tol={abs_tol:.1e}; increase tail_cutoff")


# Most complex entries (rows x nodes) the row-wise line rule asks its
# integrand family for at once: 2^16 entries are 1 MB.
_LINE_BLOCK = 1 << 16


def _row_blocks(G, s: np.ndarray, rows: list):
    """(block of rows, their values at s) from G, at most _LINE_BLOCK entries per call.

    Blocks are C-ordered, so a block's row sums are those of each row
    alone.  A row longer than _LINE_BLOCK is assembled from node chunks.
    """
    if s.size <= _LINE_BLOCK:
        step = _LINE_BLOCK // s.size
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            yield block, np.ascontiguousarray(G(s, block))
    else:
        for i in rows:
            yield [i], np.concatenate([G(s[lo:lo + _LINE_BLOCK], [i])
                                       for lo in range(0, s.size, _LINE_BLOCK)], axis=1)


def integrate_vertical_line_rows(G, mb: MellinBarnesSpec, abs_tols) -> list:
    """Row-wise ``integrate_vertical_line`` on shared trapezoid nodes.

    ``G(s, rows)`` returns an array of shape (len(rows), len(s)): the
    integrands numbered ``rows`` (positions in ``abs_tols``) at the complex
    nodes ``s`` of the line.  It is asked only for open rows, and for at
    most 2^16 entries at a time.  Row i has its own abs_tol
    ``abs_tols[i]``, tail check, stopping test and evaluation count, and
    its sums run per row as scalars, so its value, error estimate and meta
    are exactly those of ``integrate_vertical_line`` on it alone.  A row
    whose tail fails its check gets, in place of a result, the
    TailNotNegligible error the one-row rule raises.  rel_tol,
    max_refinements and max_evals come from ``mb.quad`` and are shared;
    double precision only.
    """
    spec = mb.quad
    gam = float(mb.gamma_abscissa)
    T = float(mb.tail_cutoff)
    tols = [float(t) for t in abs_tols]
    results: list = [None] * len(tols)
    tails = [0.0] * len(tols)
    rows = []
    for block, vals in _row_blocks(G, gam + 1j * np.array([-T, T]), list(range(len(tols)))):
        for i, v in zip(block, vals):
            tails[i] = float(np.abs(v).max())
            if tails[i] > tols[i]:
                results[i] = _tail_error(tails[i], tols[i])
            else:
                rows.append(i)
    count = 2
    total: list = [None] * len(tols)
    err = [math.inf] * len(tols)

    def done(i: int, converged: bool) -> IntegralResult:
        return _row_result(total[i], err[i], count, converged,
                           {"rule": "trapezoid-line", "gamma": gam, "tail_cutoff": T,
                            "tail_magnitude": tails[i]})

    n0 = int(math.ceil(T / 0.5))
    h0 = T / n0  # land nodes exactly on +-T
    for m in range(0, spec.max_refinements + 1):
        if not rows:
            break
        h = h0 * 0.5 ** m
        if m == 0:
            t = np.arange(-n0, n0 + 1) * h0
            w = np.ones(t.size)
            w[0] = w[-1] = 0.5
        else:
            n = int(round(T / h))
            t = np.arange(-n + 1, n, 2) * h
            if count + t.size > spec.max_evals:
                break
        for block, vals in _row_blocks(G, gam + 1j * t, rows):
            for i, part in zip(block, (w * vals if m == 0 else vals).sum(axis=1)):
                if m == 0:
                    total[i] = h * part / (2.0 * math.pi)
                else:
                    prev_total = total[i]
                    total[i] = 0.5 * prev_total + h * part / (2.0 * math.pi)
                    err[i] = abs(total[i] - prev_total)
        count += t.size
        if m >= 2:
            still_open = []
            for i in rows:
                if err[i] <= max(tols[i], spec.rel_tol * abs(total[i])):
                    results[i] = done(i, True)
                else:
                    still_open.append(i)
            rows = still_open
    for i in rows:
        results[i] = done(i, False)
    return results


def _as_python_number(v):
    v = complex(v)
    return v.real if v.imag == 0.0 else v


# ---------------------------------------------------------------------------
# extended-precision backends (mpmath tanh-sinh)
# ---------------------------------------------------------------------------

def _integrate_mp(f, lo, hi, spec: QuadSpec, rule: str, meta: dict,
                  over_two_pi: bool = False) -> IntegralResult:
    """Extended-precision branch of every engine: mpmath tanh-sinh over
    [lo, hi], divided by 2*pi for the vertical-line rule."""
    import mpmath as mp

    # 20 guard digits: the tanh-sinh rule sheds precision at endpoint
    # singularities, so working precision must exceed the target
    with mp.workdps(int(spec.dps) + 20):
        count = [0]

        def fw(t):
            count[0] += 1
            return f(t)

        val, est = mp.quad(fw, [mp.mpf(lo), mp.mpf(hi)], error=True,
                           maxdegree=max(6, spec.max_refinements))
        if over_two_pi:
            val = val / (2 * mp.pi)
        tol = max(spec.abs_tol, spec.rel_tol * abs(float(mp.fabs(val))))
        with mp.workdps(int(spec.dps)):
            val = +val
        return IntegralResult(
            value=val,
            error_estimate=float(est),
            evaluations=count[0],
            converged=float(est) <= tol,
            meta={"rule": rule, "precision": "extended", **meta},
        )
