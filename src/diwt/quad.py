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
``integrate_vertical_line`` are the one-row cases, and both rules run on one
step-halving loop that holds per-row state in arrays; they differ only in
the nodes each level adds.  The loop asks its caller for each open row's
weighted node sum: ``integrate_finite_rows`` sums pairwise, which keeps
oscillating integrands accurate, and the cylinder function of
:mod:`diwt.specfun` runs on the tanh-sinh rule with a faster dot product.
The trapezoid rule runs on t in [0, T]: the line rule folds each
integrand's values at gamma +- it onto the node t, and contour W in
:mod:`diwt.specfun`, whose integrand at gamma - it is the conjugate of that
at gamma + it, sums the real part alone in real arithmetic of its own.
The line rule, contour W and cylinder D form a level's entries (rows x
nodes) through one helper, ``_in_blocks``: at most 2^16 at a time, or one
row.

All three refine by halving the step and comparing successive sums; they are
deterministic (no randomness, cached node tables) and report an error
estimate together with a convergence flag.  An optional extended-precision
mode (>= 30 significant digits, backed by mpmath) is selected through
``QuadSpec.precision``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
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


# bounded: many intervals are integrated over once (one per x for K_{i tau})
@lru_cache(maxsize=128)
def _level_nodes(a: float, b: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights that a level adds on (a, b), midpoint aside.

    Nodes that round onto an endpoint are dropped per side; their weights
    are below 1e-16 of the interval scale.
    """
    delta, weight = _ts_nodes(level)
    c = 0.5 * (b - a)
    xl = a + c * delta
    xr = b - c * delta
    kl = xl > a
    kr = xr < b
    xs = np.concatenate([xl[kl], xr[kr]])
    ws = np.concatenate([weight[kl], weight[kr]])
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def _magnitude(v: np.ndarray) -> np.ndarray:
    # np.abs of a complex array can differ from abs() of each element in the
    # last bit (AVX-512 builds); hypot does not
    return np.hypot(v.real, v.imag) if v.dtype.kind == "c" else np.abs(v)


def _tanh_sinh(a: float, b: float):
    """The tanh-sinh rule on (a, b) as ``_refine_rows`` takes it.

    Level m adds the ``_level_nodes(a, b, m)``; the midpoint joins level 0.
    Sums scale by half the interval length.
    """
    c = 0.5 * (b - a)
    return partial(_level_nodes, a, b), (np.array([a + c]), np.array([_TS_W0])), c


def _refine_rows(S, rule, abs_tols: np.ndarray, rel_tol: float,
                 max_level: int, max_evals: float = math.inf):
    """The step-halving refinement loop of a family of integrals, for either rule.

    ``rule`` is (nodes, mid, c): level m adds the nodes and weights
    ``nodes(m)`` (and at level 0 the piece ``mid``, unless None, summed on
    its own), and a row's level-m sum is half the previous one plus c 2^-m
    times its weighted node sums.  ``S(xs, ws, rows)`` returns sum_j ws[j]
    f_i(xs[j]) for each row i of the index array ``rows``, summed along the
    row alone.  Row i stops at the first level m >= 2 whose change is at
    most max(abs_tols[i], rel_tol * |sum|); rows open after ``max_level``,
    or when a level m >= 1 would take the node count past ``max_evals``,
    stop unconverged.  Stopped rows leave the state arrays and S is asked
    for open rows only; every update is elementwise, so each row gets the
    numbers of a one-row run.  Returns per-row arrays: value, error
    estimate, stop level, node count, converged.
    """
    nodes, mid, c = rule
    n = abs_tols.size
    value, error = np.empty(n), np.full(n, math.inf)
    levels, evals, converged = np.zeros(n, int), np.zeros(n, int), np.zeros(n, bool)
    rows, tol, err = np.arange(n), abs_tols, math.inf
    count = level = 0
    for m in range(max_level + 1):
        if not rows.size:
            break
        xs, ws = nodes(m)
        n_new = xs.size + (mid[0].size if m == 0 and mid else 0)
        if m and count + n_new > max_evals:
            break
        part = S(xs, ws, rows)
        if m == 0:
            run = c * (part + S(*mid, rows) if mid else part)
        else:
            prev = run
            run = 0.5 * prev + c * 0.5 ** m * part
            err = _magnitude(run - prev)
        if value.dtype != run.dtype:  # a complex family
            value = value.astype(run.dtype)
        count += n_new
        level = m
        if m >= 2:
            done = err <= np.maximum(tol, rel_tol * _magnitude(run))
            if np.count_nonzero(done):
                at = rows[done]
                value[at], error[at], levels[at], evals[at] = run[done], err[done], m, count
                converged[at] = True
                keep = ~done
                rows, tol, run, err = rows[keep], tol[keep], run[keep], err[keep]
    if rows.size:
        value[rows], error[rows], levels[rows], evals[rows] = run, err, level, count
    return value, error, levels, evals, converged


# Most entries (rows x nodes) a row family's sums form at once: 2^16 are
# 512 kB of doubles or 1 MB of complex values.
_BLOCK = 1 << 16


def _in_blocks(sums, rows, width: int):
    """``sums`` of consecutive slices of ``rows``, concatenated.

    Each slice holds at most _BLOCK // width rows of ``width`` entries, and
    at least one row; a single slice is one direct call.  Callers sum each
    row along itself alone, so the slicing moves no bit.
    """
    step = max(1, _BLOCK // width)
    if len(rows) <= step:
        return sums(rows)
    return np.concatenate([sums(rows[lo:lo + step]) for lo in range(0, len(rows), step)])


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
    value, err, levels, evals, converged = _refine_rows(
        # C order: each row sums pairwise along its own nodes, as alone
        lambda xs, ws, rows: (ws * np.ascontiguousarray(F(xs, rows.tolist()))).sum(axis=1),
        _tanh_sinh(a, b), np.fromiter(abs_tols, dtype=float), spec.rel_tol, spec.max_refinements,
        spec.max_evals)
    return [_row_result(v, e, n, ok, {"levels": m, "rule": "tanh-sinh"}) for v, e, m, n, ok
            in zip(value, err, levels.tolist(), evals.tolist(), converged.tolist())]


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


def _trapezoid(T: float):
    """The trapezoid rule on t in [0, T], as ``_refine_rows`` takes it.

    Level 0 steps by h0 <= 1/2 from 0 onto T with half-weight ends; level m
    adds the odd multiples of h0 2^-m, unweighted (ws None).  Sums scale by
    h0.  A line integral over [-T, T] folds onto it: the node t stands for
    gamma + it and gamma - it, and t = 0 for gamma alone.
    """
    n0 = int(math.ceil(T / 0.5))
    h0 = T / n0

    def nodes(m):
        if m == 0:
            w = np.ones(n0 + 1)
            w[0] = w[-1] = 0.5
            return np.arange(n0 + 1) * h0, w
        return np.arange(1, n0 << m, 2) * (h0 * 0.5 ** m), None

    return nodes, None, h0


def _line_budget(max_evals: float) -> float:
    """``_trapezoid``'s node budget for max_evals evaluations of a line.

    A node t > 0 costs two (gamma +- it), t = 0 one, and the tails two.
    """
    return (max_evals - 1) / 2


def integrate_vertical_line_rows(G, mb: MellinBarnesSpec, abs_tols) -> list:
    """Row-wise ``integrate_vertical_line`` on shared trapezoid nodes.

    ``G(s, rows)`` returns an array of shape (len(rows), len(s)): the
    integrands numbered ``rows`` (positions in ``abs_tols``) at the complex
    nodes ``s`` of the line.  It is asked only for open rows, and for at
    most 2^16 entries at a time, or one row.  Each node t of ``_trapezoid``
    sums G at gamma + it and gamma - it: the trapezoid rule on [-T, T], each
    node evaluated once.  Row i has its own abs_tol ``abs_tols[i]``, tail check,
    stopping test and evaluation count (the two tail nodes included), and
    its sums run along the row alone, so its value, error estimate and meta
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
    ends = gam + 1j * np.array([-T, T])
    rows = []
    for i, v in enumerate(_in_blocks(lambda block: np.ascontiguousarray(G(ends, block)),
                                     list(range(len(tols))), ends.size)):
        tails[i] = float(np.abs(v).max())
        if tails[i] > tols[i]:
            results[i] = _tail_error(tails[i], tols[i])
        else:
            rows.append(i)
    open_rows = np.array(rows, dtype=int)

    def S(t, w, at):
        # G at gamma + it for every t, then at gamma - it for t > 0; t = 0
        # (first at level 0) is evaluated once and taken twice
        k = int(t[0] == 0.0)
        up = gam + 1j * t
        s = np.concatenate([up, up[k:].conj()])
        down = np.r_[:k, t.size:s.size]

        def sums(block):
            # C order: each row sums along its own nodes, as alone
            vals = np.ascontiguousarray(G(s, block))
            f = vals[:, :t.size] + vals[:, down]
            return (f if w is None else w * f).sum(axis=1)

        return _in_blocks(sums, open_rows[at].tolist(), s.size) / (2.0 * math.pi)

    value, err, _, count, converged = _refine_rows(
        S, _trapezoid(T), np.array([tols[i] for i in rows]), spec.rel_tol,
        spec.max_refinements, _line_budget(spec.max_evals))
    for i, v, e, n, ok in zip(rows, value, err, count.tolist(), converged.tolist()):
        results[i] = _row_result(v, e, 2 * n + 1, ok,
                                 {"rule": "trapezoid-line", "gamma": gam, "tail_cutoff": T,
                                  "tail_magnitude": tails[i]})
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
