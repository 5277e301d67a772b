"""Series transforms over the scaled Whittaker family.

Four operations form the core: a forward map summing coefficient-weighted
scaled Whittaker values, an inversion recovering one coefficient through a
cosine-kernel integral with sinh-type index amplification, a coefficient
transform projecting a function onto the half-integer-index family, and a
sine-kernel synthesis rebuilding the function from its coefficients.  The
erfc-kernel specialization of the inversion at mu = 0 is provided as a
separate entry point so the two constant conventions can be checked against
each other.

Inversion and the coefficient transform are both integrals over t > 0,
and one half-line rule serves them.  The (0, 1] piece runs in v = -log t,
where the logarithmic small-t oscillation of f becomes linear, and the
[1, inf) piece in s = t - 1.  Each piece is clipped to the handle's
support, so the jumps of a zero extension sit at interval ends, which the
tanh-sinh rule approaches but never evaluates.  Its nodes crowd those ends
so closely that many round to the same t, above all to t = 1, so the
integrand family is evaluated once per distinct t of a refinement level
and every node takes the value of its t.  An unbounded piece is
truncated by its decay: e^{-v/2} on (0, 1], the handle's decay scale on
[1, inf); in extended precision, where that decay falls below 10^-dps.
Sampled handles run at relative tolerance 1e-8 and at most 9 levels,
because knot kinks stall deep refinement, and a piece whose error estimate
stopped meaning anything raises NonConvergence.

Inversion results carry an explicit error bound: the index amplification
factor n*sinh(2*pi*n) multiplies every quadrature and kernel error, and
honesty about that growth is part of the interface.  Functions enter the
integrals through immutable handles; analytic handles (forward series,
trigonometric profile) are the only ones with recovery guarantees, and
sampled-grid handles warn accordingly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    IntegrabilityWarning,
    NonConvergence,
    PrecisionBudgetExceeded,
)
from .kernels import KernelKind, _inner_rel_tol, _kernel_columns, _kernel_eval_mp, \
    cylinder_sin_kernel
from .quad import DEFAULT_SPEC, QuadSpec, integrate_finite, integrate_finite_rows, \
    integrate_semi_infinite_rows
from .specfun import _cyl_profile, _order_below_half, _positive, _positive_index, \
    _positive_points, _w_mb_extended, _w_scaled_many, gamma_abs_squared, \
    parabolic_cylinder_d_scaled


# ---------------------------------------------------------------------------
# parameter and sequence types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformParams:
    """Order parameter mu and the damping angle delta in [0, pi/2).

    delta enters only the admissibility diagnostic; the transform paths
    themselves require mu < 1/2 and enforce it at the call sites.
    """

    mu: float
    delta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        if not (0.0 <= self.delta < 0.5 * math.pi):
            raise DomainError(f"delta must lie in [0, pi/2), got {self.delta}")


def _as_number(v):
    c = complex(v)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise DomainError(f"coefficient {v!r} is not finite")
    return c.real if c.imag == 0.0 else c


def _py_number(v):
    c = complex(v)
    return c.real if c.imag == 0.0 else c


@dataclass(frozen=True)
class CoefficientSeq:
    """Finite coefficient list a_1..a_N; indexing is 1-based throughout."""

    values: tuple

    def __post_init__(self):
        vals = tuple(_as_number(v) for v in self.values)
        if not vals:
            raise DomainError("a coefficient sequence needs at least one entry")
        object.__setattr__(self, "values", vals)

    @property
    def n_terms(self) -> int:
        return len(self.values)

    def value_at(self, n: int) -> complex:
        # entries beyond the stored list are the permitted trailing zeros
        n = _positive_index(n, "coefficient index")
        return self.values[n - 1] if n <= len(self.values) else 0.0

    @property
    def is_zero(self) -> bool:
        return not any(self.values)


@dataclass(frozen=True)
class FourierPolynomial:
    """Trigonometric profile sum(b_k sin(ku)) + sum(c_k cos(ku)).

    sine_coeffs holds b_1..b_K and cosine_coeffs holds c_0..c_K.  The
    profile is 2*pi-periodic by construction and Lipschitz with the
    computable constant `lipschitz_bound`.
    """

    sine_coeffs: tuple = ()
    cosine_coeffs: tuple = ()

    def __post_init__(self):
        sc = tuple(float(b) for b in self.sine_coeffs)
        cc = tuple(float(c) for c in self.cosine_coeffs)
        if not all(map(math.isfinite, sc + cc)):
            raise DomainError("profile coefficients must be finite")
        object.__setattr__(self, "sine_coeffs", sc)
        object.__setattr__(self, "cosine_coeffs", cc)

    @property
    def degree(self) -> int:
        return max(len(self.sine_coeffs), max(len(self.cosine_coeffs) - 1, 0))

    @property
    def lipschitz_bound(self) -> float:
        s = sum(k * abs(b) for k, b in enumerate(self.sine_coeffs, 1))
        s += sum(k * abs(c) for k, c in enumerate(self.cosine_coeffs))
        return s

    def evaluate(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for k, b in enumerate(self.sine_coeffs, 1):
            if b:
                out += b * np.sin(k * u)
        for k, c in enumerate(self.cosine_coeffs):
            if c:
                out += c * np.cos(k * u) if k else c * np.ones_like(u)
        return out if out.shape else float(out)

    def odd_sine_part(self, u):
        # the part that survives against the odd sinh weight
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for k, b in enumerate(self.sine_coeffs, 1):
            if b:
                out += b * np.sin(k * u)
        return out


# ---------------------------------------------------------------------------
# function handles
# ---------------------------------------------------------------------------

class FunctionHandle:
    """Immutable positive-axis function with integration metadata.

    decay_scale d asserts an eventual bound |f(t)| <= C e^{-t/d} used for
    interval truncation; support_end marks compactly supported handles.
    """

    decay_scale: float = 2.0
    support_end: float | None = None
    is_zero: bool = False

    def __call__(self, x, quad: QuadSpec = DEFAULT_SPEC):
        raise NotImplementedError


class ForwardHandle(FunctionHandle):
    """f(x) = sum_n a_n (scaled Whittaker)(mu, n; x); decays like e^{-x} x^mu."""

    decay_scale = 1.0

    def __init__(self, seq: CoefficientSeq, mu: float):
        self.seq = seq
        self.mu = _order_below_half(mu, "forward series")
        self.is_zero = seq.is_zero

    def __call__(self, x, quad: QuadSpec = DEFAULT_SPEC):
        arr = np.asarray(x, dtype=float)
        anycomplex = any(isinstance(a, complex) for a in self.seq.values)
        out = np.zeros(arr.shape, dtype=complex if anycomplex else float)
        flat = out.reshape(-1)
        terms = [(m, a) for m, a in enumerate(self.seq.values, 1) if a]
        if quad.precision == "extended":
            # mpmath evaluates one x at a time
            for i, t in enumerate(arr.reshape(-1).tolist()):
                if terms:
                    flat[i] = self._eval_mp(_positive(t, "whittaker_w_mb"), quad.dps)
        else:
            for m, a in terms:
                flat += a * _w_scaled_many(self.mu, complex(0.0, m), arr, quad)
        return out[()] if out.shape == () else out

    def _eval_mp(self, t, dps: int):
        import mpmath as mp

        acc = mp.mpf(0)
        for m, a in enumerate(self.seq.values, 1):
            if a:
                acc += a * _w_mb_extended(self.mu, 1j * mp.mpf(m), t, None, dps, True)
        return acc


class ProfileHandle(FunctionHandle):
    """f built from a trigonometric profile by the cylinder-weighted integral.

    Bounded but not decaying at infinity: fine as coefficient-transform
    input, where the scaled Whittaker weight supplies the decay.
    """

    def __init__(self, profile: FourierPolynomial, mu: float):
        self.profile = profile
        self.mu = _order_below_half(mu, "profile construction")
        self.is_zero = not any(profile.sine_coeffs)

    def __call__(self, x, quad: QuadSpec = DEFAULT_SPEC):
        """f at every x, as ``function_from_profile`` gives it, in one row-wise u-integral.

        The rows are the x; each u level makes one cylinder call on
        outer(sqrt(2x), cosh u) for the x still open, once per distinct
        cosh u.  Cylinder D and the row rule keep every point and row
        independent of the batch, so each value is the one-x value bit for
        bit.  Extended precision runs one x at a time.
        """
        xs, shape = _positive_points(x, "function_from_profile")
        if self.is_zero:
            out = np.zeros(shape)
        elif quad.precision == "extended":
            # mpmath evaluates one x at a time
            out = np.array([float(self._eval_mp(t, quad.dps)) for t in xs.tolist()])
        else:
            out = np.array(self._row_integral(xs, quad))
        out = out.reshape(shape)
        return out[()] if out.shape == () else out

    def _row_integral(self, xs: np.ndarray, quad: QuadSpec) -> list[float]:
        mu = self.mu
        alpha = 2.0 - 2.0 * mu
        root2x = np.sqrt(2.0 * xs)
        inner = _inner_rel_tol(quad)

        def h(u, rows):
            return _cyl_profile(alpha, root2x[rows], u, inner) \
                * np.sinh(u) * self.profile.odd_sine_part(u)

        rs = integrate_finite_rows(h, 0.0, math.pi, [quad.abs_tol] * xs.size, quad)
        out = []
        for x, r in zip(xs.tolist(), rs):
            if not r.converged:
                raise NonConvergence(
                    f"profile integral at x={x} stalled at error {r.error_estimate:.2e}")
            out.append(math.gamma(2.0 * (1.0 - mu)) * (2.0 * x) ** (1.0 - mu) * 2.0 * r.value)
        return out

    def _eval_mp(self, t, dps: int):
        import mpmath as mp

        mu = self.mu
        bs = self.profile.sine_coeffs
        with mp.workdps(dps + 10):
            tt = mp.mpf(t)
            r2t = mp.sqrt(2 * tt)

            def h(u):
                psi = mp.fsum(b * mp.sin(k * u) for k, b in enumerate(bs, 1) if b)
                z = r2t * mp.cosh(u)
                return mp.exp(z * z / 4) * mp.pcfd(2 * (mp.mpf(mu) - 1), z) \
                    * mp.sinh(u) * psi

            j = mp.quad(h, [0, mp.pi / 2, mp.pi])
            val = mp.gamma(2 * (1 - mp.mpf(mu))) * mp.power(2 * tt, 1 - mp.mpf(mu)) * 2 * j
        with mp.workdps(dps):
            return +val


class SampledHandle(FunctionHandle):
    """Monotone cubic interpolant of sampled data, zero outside the grid.

    Quadrature nodes are mapped through the interpolant; recovery
    guarantees cover analytic handles only, and the transforms warn when
    one of these is supplied.
    """

    def __init__(self, x, values):
        xa = np.asarray(x, dtype=float)
        va = np.asarray(values, dtype=float)
        if xa.ndim != 1 or xa.size < 2 or xa.shape != va.shape:
            raise DomainError("sampled handle needs matching 1-d x and value arrays")
        if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(va))):
            raise DomainError("sampled handle data must be finite")
        if xa[0] <= 0.0 or np.any(np.diff(xa) <= 0.0):
            raise DomainError("sample abscissae must be positive and strictly increasing")
        # imported here: scipy.interpolate is large, and only sampled data need it
        from scipy.interpolate import PchipInterpolator

        self._interp = PchipInterpolator(xa, va, extrapolate=False)
        self.support_end = float(xa[-1])
        self.support_start = float(xa[0])
        self.is_zero = not np.any(va)

    def __call__(self, x, quad: QuadSpec = DEFAULT_SPEC):
        arr = np.asarray(x, dtype=float)
        y = self._interp(arr)
        y = np.where(np.isnan(y), 0.0, y)
        return y[()] if y.shape == () else y

    def _eval_mp(self, t, dps: int):
        import mpmath as mp

        # data are double precision; the interpolant cannot add digits
        return mp.mpf(float(self(float(t))))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def admissibility_sum(seq: CoefficientSeq, params: TransformParams) -> float:
    """Damped coefficient sum sum_m |a_m| e^{-2 delta m} / |Gamma(1/2 - mu + im)|^2.

    Finite sequences always satisfy the summability requirement; the value
    is returned as a conditioning diagnostic (it grows like e^{pi m} per
    unit coefficient, so large entries at large m signal trouble).
    """
    total = 0.0
    for m, a in enumerate(seq.values, 1):
        if a:
            total += abs(a) * math.exp(-2.0 * params.delta * m) \
                / gamma_abs_squared(complex(0.5 - params.mu, m))
    return total


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------

def forward_series(seq: CoefficientSeq, mu: float, x: float,
                   quad: QuadSpec = DEFAULT_SPEC):
    """Sum of a_n times the scaled Whittaker value of index n at x."""
    x = _positive(x, "forward_series")
    return _py_number(ForwardHandle(seq, mu)(x, quad))


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

_DOUBLE_INDEX_CAP = 8
_KERNEL_TOL_FLOOR = 3e-16
_OUTER_TOL_FLOOR = 1e-15


def _index_cap(quad: QuadSpec) -> int:
    if quad.precision == "double":
        return _DOUBLE_INDEX_CAP
    return int((quad.dps - 3) * math.log(10.0) / (2.0 * math.pi))


@dataclass(frozen=True)
class InversionResult:
    """Recovered coefficient with the amplification-weighted error bound."""

    value: float
    error_bound: float
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesis partial sum; `terms` holds per-index contributions."""

    value: float
    terms: tuple


def _indices(f: FunctionHandle, ns, quad: QuadSpec | None = None) -> list[int]:
    """The indices as ints, after the per-index checks and warnings.

    With `quad`, indices above the inversion cap of its precision are
    refused.  A sampled handle draws one warning per index.
    """
    ns = [_positive_index(n, "coefficient index") for n in ns]
    cap = math.inf if quad is None else _index_cap(quad)
    for n in ns:
        if n > cap:
            raise PrecisionBudgetExceeded(
                f"index {n} exceeds the {quad.precision}-precision cap {cap}: the "
                f"amplification factor n sinh(2 pi n) outruns the achievable "
                f"quadrature accuracy")
    for _ in ns:
        if isinstance(f, SampledHandle):
            # stacklevel 4: _indices, the shared implementation, the
            # public entry point, then the caller
            warnings.warn(
                "recovery guarantees cover analytic handles only: sampled data go "
                "through a monotone cubic interpolant, and the reported bound "
                "covers quadrature of the interpolant, not the data model",
                IntegrabilityWarning, stacklevel=4)
    return ns


def _guard_outer(r, what: str):
    # the reported bound is the interface; hard failure only when the
    # estimate itself stopped meaning anything
    if not r.converged and r.error_estimate > 0.1 * max(abs(r.value), 1e-13):
        raise NonConvergence(
            f"{what} stalled at error {r.error_estimate:.2e} "
            f"against value {r.value:.2e}")


def _pieces(f: FunctionHandle):
    """(origin, length) of each half-line piece clipped to f's support, None where f vanishes.

    The (0, 1] piece runs in v = -log t from v0 = -log min(end, 1), the
    [1, inf) piece in s = t - t0 from t0 = max(start, 1); length inf means
    unbounded.
    """
    start = getattr(f, "support_start", 0.0)
    end = math.inf if f.support_end is None else f.support_end
    low = high = None
    if start < min(end, 1.0):
        v0 = math.log(1.0 / min(end, 1.0))
        low = (v0, (math.log(1.0 / start) if start > 0.0 else math.inf) - v0)
    if end > max(start, 1.0):
        t0 = max(start, 1.0)
        high = (t0, end - t0)
    return low, high


def _low_node(v0: float, v: float) -> float:
    return math.exp(-(v0 + v))


def _high_node(t0: float, s: float) -> float:
    return t0 + s


# bounded: one entry per (piece, origin, power, level) of the outer integrals;
# 60 invert cells use 29
@lru_cache(maxsize=128)
def _outer_nodes(node, origin: float, q: float, level: bytes):
    """Read-only (distinct t, position of each node's t among them, t^q) of a level.

    ``level`` holds the bytes of a level's nodes on a piece; t = node(origin,
    x) and t^q are formed from Python floats, as a one-node call forms them.
    The nodes crowding a piece's ends round to one t, and the integrand
    family sees each distinct t once.
    """
    ts = [node(origin, x) for x in np.frombuffer(level).tolist()]
    first = {}
    at = np.array([first.setdefault(t, len(first)) for t in ts], dtype=np.intp)
    out = np.array(list(first)), at, np.array([t ** q for t in ts])
    for a in out:
        a.flags.writeable = False
    return out


def _half_line(H, p: float, f: FunctionHandle, tols, spec: QuadSpec, name: str):
    """One (value, error) per row of int_0^inf H(t, rows) t^p dt (module docstring).

    H(ts, rows) gives the open rows of the integrand family at all new
    nodes ts of a level, shape (len(rows), len(ts)) as in
    ``integrate_finite_rows``; row i runs to abs_tol ``tols[i]``.
    """
    if isinstance(f, SampledHandle):
        # the interpolant's model error dwarfs quadrature error regardless
        tols = [max(t, 1e-12) for t in tols]
        spec = replace(spec, rel_tol=max(spec.rel_tol, 1e-8),
                       max_refinements=min(spec.max_refinements, 9))
    low, high = _pieces(f)
    parts = []
    # dt = t dv adds one power of t on (0, 1]
    for piece, node, q, decay, where in (
            (low, _low_node, p + 1.0, 2.0, "(0, 1]"),
            (high, _high_node, p, f.decay_scale, "[1, inf)")):
        if piece is None:
            parts.append([(0.0, 0.0)] * len(tols))
            continue
        origin, length = piece

        def G(xs, rows, origin=origin, node=node, q=q):
            ts, at, tq = _outer_nodes(node, origin, q, xs.tobytes())
            return H(ts, rows)[:, at] * tq

        if length == math.inf:
            rs = integrate_semi_infinite_rows(G, decay, tols, spec)
        else:
            rs = integrate_finite_rows(G, 0.0, length, tols, spec)
        for r in rs:
            _guard_outer(r, f"{name} on {where}")
        parts.append([(r.value, r.error_estimate) for r in rs])
    return [(lv + hv, le + he) for (lv, le), (hv, he) in zip(*parts)]


def _half_line_mp(H, p: float, f: FunctionHandle, quad: QuadSpec, name: str):
    """Extended-precision ``_half_line`` of one row H(t), an mpmath scalar.

    Returns (value, error); the two cuts are where the decay of each
    unbounded piece falls below 10^-dps.
    """
    import mpmath as mp

    if not hasattr(f, "_eval_mp"):
        raise DomainError(f"extended-precision {name} needs an analytic handle")
    dps = int(quad.dps)
    cut_low = 2.0 * (math.log(20.0) + dps * math.log(10.0))
    cut_high = f.decay_scale * (math.log(10.0) * (dps + 1) + 1.0)
    low, high = _pieces(f)
    rs = []
    if low is not None:
        v0, length = low

        def g_low(v):
            t = mp.exp(-(v0 + v))
            return H(t) * mp.power(t, p + 1.0)

        rs.append(integrate_finite(g_low, 0.0, min(length, cut_low), quad))
    if high is not None:
        t0, length = high
        rs.append(integrate_finite(lambda s: H(t0 + s) * mp.power(t0 + s, p),
                                   0.0, min(length, cut_high), quad))
    with mp.workdps(dps):
        return mp.fsum(r.value for r in rs), sum(r.error_estimate for r in rs)


# The mass estimate needs about two digits: its integral runs at _MASS_SPEC
# and f at _MASS_F_SPEC, well below that but far from full precision.
_MASS_SPEC = QuadSpec(abs_tol=1e-3, rel_tol=1e-2, max_refinements=7)
_MASS_F_SPEC = QuadSpec(abs_tol=1e-8, rel_tol=1e-6)


def _coarse_mass(f: FunctionHandle) -> float:
    """Loose estimate of int |f(t)| t^{-3/2} dt for kernel-error propagation."""
    [(mass, _)] = _half_line(lambda ts, rows: np.abs(f(ts, _MASS_F_SPEC))[None, :], -1.5, f,
                             [_MASS_SPEC.abs_tol], _MASS_SPEC, "mass estimate")
    # 1.5 slack on a coarse estimate plus a unit floor
    return 1.5 * mass + 1.0


def _inversion_prefactor(kind: KernelKind, mu: float, quad: QuadSpec):
    """pi^{-3/2} for the erfc kernel, 2^{1/2+mu} Gamma(1-2mu) / pi^2 for the
    cylinder kernel; an mpf in extended precision."""
    if quad.precision == "extended":
        import mpmath as mp

        with mp.workdps(int(quad.dps)):
            if kind is KernelKind.ERFC_COS:
                return mp.pi ** mp.mpf(-1.5)
            mux = mp.mpf(mu)
            return mp.power(2, mux + mp.mpf(0.5)) / mp.pi ** 2 * mp.gamma(1 - 2 * mux)
    if kind is KernelKind.ERFC_COS:
        return math.pi ** -1.5
    return 2.0 ** (0.5 + mu) / math.pi ** 2 * math.gamma(1.0 - 2.0 * mu)


def _invert(kind: KernelKind, mu: float, f: FunctionHandle, ns,
            quad: QuadSpec) -> list[InversionResult]:
    if kind is KernelKind.CYLINDER_COS:
        mu = _order_below_half(mu, "inversion")
    ns = _indices(f, ns, quad)
    if f.is_zero or not ns:
        return [InversionResult(0.0, 0.0, {"zero_function": True}) for _ in ns]
    prefactor = _inversion_prefactor(kind, mu, quad)
    amps = [n * math.sinh(2.0 * math.pi * n) for n in ns]

    if quad.precision == "extended":
        # full-precision chain; expect minutes per coefficient, the nested
        # contour and kernel quadratures dominate
        import mpmath as mp

        dps = int(quad.dps)
        sums = [_half_line_mp(lambda t, n=n: _kernel_eval_mp(kind, mu, complex(n), t, dps)
                              * f._eval_mp(t, dps), -1.5, f, quad, "inversion")
                for n in ns]
        mass = _coarse_mass(f)
        out = []
        with mp.workdps(dps):
            for n, amp, (value, err) in zip(ns, amps, sums):
                ampx = mp.mpf(n) * mp.sinh(2 * mp.pi * n)
                bound = abs(prefactor) * ampx * (err + mp.mpf(10) ** (2 - dps) * mass
                                                 + 2 * mp.mpf(10) ** -dps)
                out.append(InversionResult(prefactor * ampx * value, bound,
                                           {"amplification": amp, "dps": dps,
                                            "mass_estimate": mass}))
        return out

    kern_tols = [max(quad.abs_tol * math.exp(-2.0 * math.pi * n) / 10.0, _KERNEL_TOL_FLOOR)
                 for n in ns]
    kspecs = [QuadSpec(abs_tol=kt, rel_tol=min(quad.rel_tol, 1e-12),
                       max_refinements=max(quad.max_refinements, 12),
                       max_evals=quad.max_evals) for kt in kern_tols]
    outer_tols = [max(quad.abs_tol / (abs(prefactor) * amp * 10.0), _OUTER_TOL_FLOOR)
                  for amp in amps]
    # the row rule takes abs_tol per index from outer_tols; ospec gives the rest
    ospec = QuadSpec(abs_tol=outer_tols[0], rel_tol=1e-10,
                     max_refinements=max(quad.max_refinements, 12),
                     max_evals=quad.max_evals)
    # f itself is evaluated at a fixed tight tolerance: a loose
    # coefficient-level request must not loosen the function values the
    # amplification factor multiplies
    fspec = QuadSpec(abs_tol=1e-15, rel_tol=1e-13, max_refinements=12)

    kerr_seen = np.zeros(len(ns))

    # one f call and one kernel call (every node, every open n) per level;
    # a row's kernel errors count only at the nodes its own integral visits
    def H(ts, rows):
        kernel, errs, _ = _kernel_columns(kind, mu, [ns[i] for i in rows], ts,
                                          [kspecs[i] for i in rows])
        kerr_seen[rows] = np.maximum(kerr_seen[rows], errs.max(axis=1, initial=0.0))
        return kernel.real * f(ts, fspec)

    sums = _half_line(H, -1.5, f, outer_tols, ospec, "inversion integral")
    mass = _coarse_mass(f)
    out = []
    for i, (amp, (value, err)) in enumerate(zip(amps, sums)):
        # the 1e-14 term covers the relative error of the f evaluations
        bound = abs(prefactor) * amp * (err + (max(kerr_seen[i], kern_tols[i]) + 1e-14) * mass)
        out.append(InversionResult(_py_number(prefactor * amp * value), float(bound),
                                   {"amplification": amp, "kernel_tolerance": kern_tols[i],
                                    "outer_tolerance": outer_tols[i], "mass_estimate": mass}))
    return out


def invert_series(f: FunctionHandle, params: TransformParams, n: int,
                  quad: QuadSpec = DEFAULT_SPEC) -> InversionResult:
    """Recover coefficient n from f through the cosine-kernel integral.

    The integral against the cylinder cosine kernel and t^{-3/2} is
    amplified by n sinh(2 pi n); the returned error bound multiplies every
    quadrature and kernel error estimate by that factor, and callers should
    trust the bound over any fixed tolerance.  The kernel quadrature runs
    at a tolerance derated by e^{-2 pi n}/10 relative to the requested
    coefficient accuracy (quad.abs_tol), floored near machine precision.
    """
    return _invert(KernelKind.CYLINDER_COS, params.mu, f, [n], quad)[0]


def invert_many(f: FunctionHandle, params: TransformParams, ns,
                quad: QuadSpec = DEFAULT_SPEC) -> list[InversionResult]:
    """``invert_series`` for every index in ns, on shared nodes.

    f, the kernel's cylinder profile and the mass estimate do not depend
    on n, so each outer node evaluates f once and the kernel column for
    all open indices once.  Every index keeps its own tolerances, checks,
    stopping level and bound, and its result equals ``invert_series`` bit
    for bit.  Extended precision runs the indices one after another.
    """
    return _invert(KernelKind.CYLINDER_COS, params.mu, f, ns, quad)


def invert_series_kl(f: FunctionHandle, n: int,
                     quad: QuadSpec = DEFAULT_SPEC) -> InversionResult:
    """The mu = 0 inversion in its erfc-kernel normalization.

    Same integral as invert_series at mu = 0 up to the constant
    sqrt(pi/2) folded between kernel and prefactor; the two entry points
    exist so that consistency of the conventions is checkable.
    """
    return _invert(KernelKind.ERFC_COS, 0.0, f, [n], quad)[0]


# ---------------------------------------------------------------------------
# coefficient transform
# ---------------------------------------------------------------------------

def coefficient_transform(f: FunctionHandle, mu: float, n: int,
                          quad: QuadSpec = DEFAULT_SPEC):
    """Project f onto index n/2: int (scaled Whittaker)(mu, n/2; x) f(x) x^{mu-2} dx.

    Note the half index: the family here is indexed by n/2, not n.  The
    x^{mu-2} weight demands decay of f at 0; profile handles provide
    x^{1-mu} and pass, while generic handles are probed numerically and an
    IntegrabilityWarning is issued when the integrand mass fails to fade.
    """
    return _coefficients(f, mu, [n], quad)[0]


def coefficient_transform_many(f: FunctionHandle, mu: float, ns,
                               quad: QuadSpec = DEFAULT_SPEC) -> list:
    """``coefficient_transform`` for every index in ns, on shared nodes.

    f is evaluated once per node for all indices; only the Whittaker
    weight is formed per index.  Each value equals ``coefficient_transform``
    bit for bit, with the same per-index checks and warnings.
    """
    return _coefficients(f, mu, ns, quad)


def _coefficients(f: FunctionHandle, mu: float, ns, quad: QuadSpec) -> list:
    mu = _order_below_half(mu, "coefficient_transform")
    ns = _indices(f, ns)
    if f.is_zero or not ns:
        return [0.0 for _ in ns]
    pspec = quad if quad.precision == "double" else DEFAULT_SPEC

    # one many-x W call per open index; t^{mu-2} stays in the row function:
    # folded into p it moves the values in the last bit
    def H(ts, rows):
        w = np.array([_w_scaled_many(mu, complex(0.0, 0.5 * ns[i]), ts, pspec) for i in rows])
        return w * f(ts, pspec) * np.array([t ** (mu - 2.0) for t in ts.tolist()])

    # decay probe at 0: t * integrand should fade as t -> 0; max over a few
    # points per decade so an oscillation zero cannot mask growth
    lo = max(getattr(f, "support_start", 0.0), 1e-7)
    every = list(range(len(ns)))
    ts = np.array([lo * c for c in (1.0, 2.2, 4.7)] + [1e-3 * c for c in (1.0, 2.2, 4.7)])
    mass = np.abs(H(ts, every)) * ts
    for i in every:
        near_i = float(mass[i, :3].max())
        far_i = float(mass[i, 3:].max())
        if near_i > 0.5 * far_i and near_i > 10.0 * quad.abs_tol:
            warnings.warn(
                f"integrand mass near 0 is not fading (|t g(t)| {far_i:.2e} -> "
                f"{near_i:.2e}); the x^(mu-2) weight may not be integrable against "
                f"this handle", IntegrabilityWarning, stacklevel=3)

    if quad.precision == "extended":
        import mpmath as mp

        dps = int(quad.dps)
        return [_half_line_mp(lambda t, n=n: _w_mb_extended(mu, 0.5j * n, t, None, dps, True)
                              * f._eval_mp(t, dps) * mp.power(t, mp.mpf(mu) - 2), 0.0, f,
                              quad, "transform")[0] for n in ns]
    sums = _half_line(H, 0.0, f, [quad.abs_tol] * len(ns), quad, "coefficient integral")
    return [_py_number(value) for value, _ in sums]


# ---------------------------------------------------------------------------
# profile construction and synthesis
# ---------------------------------------------------------------------------

def function_from_profile(profile: FourierPolynomial, mu: float, x: float,
                          quad: QuadSpec = DEFAULT_SPEC) -> float:
    """Build f(x) by integrating the profile against the cylinder weight.

    Over the symmetric interval the even cylinder factor kills every cosine
    harmonic against the odd sinh weight, so only the sine part enters; the
    integral is folded onto [0, pi] accordingly.  This is the one-x case of
    ``ProfileHandle``, whose array calls give the same values bit for bit.
    """
    mu = _order_below_half(mu, "function_from_profile")
    x = _positive(x, "function_from_profile")
    handle = ProfileHandle(profile, mu)
    if quad.precision == "extended" and not handle.is_zero:
        return handle._eval_mp(x, quad.dps)
    return float(handle(x, quad))


def _function_from_profile_full_range(profile: FourierPolynomial, mu: float,
                                      x: float, quad: QuadSpec = DEFAULT_SPEC) -> float:
    # unfolded [-pi, pi] evaluation with the complete profile, kept as the
    # symmetry oracle for the folded form
    alpha = 2.0 - 2.0 * mu
    root2x = math.sqrt(2.0 * x)

    def h(u):
        u = np.asarray(u, dtype=float)
        return parabolic_cylinder_d_scaled(alpha, root2x * np.cosh(u)) \
            * np.sinh(u) * profile.evaluate(u)

    r = integrate_finite(h, -math.pi, math.pi, quad)
    if not r.converged:
        raise NonConvergence("full-range profile integral did not converge")
    return math.gamma(2.0 * (1.0 - mu)) * (2.0 * x) ** (1.0 - mu) * r.value


def closed_form_coefficients(profile: FourierPolynomial, mu: float, n: int) -> float:
    """Exact coefficients of a trigonometric profile: 4^{1-mu} pi^2 b_n / sinh(pi n).

    Cosine harmonics contribute nothing (orthogonality against the sine
    system); indices beyond the profile degree give zero.  No quadrature.
    """
    mu = _order_below_half(mu, "closed_form_coefficients")
    n = _positive_index(n, "coefficient index")
    b = profile.sine_coeffs[n - 1] if n <= len(profile.sine_coeffs) else 0.0
    if b == 0.0:
        return 0.0
    return 4.0 ** (1.0 - mu) * math.pi ** 2 * b / math.sinh(math.pi * n)


def synthesize_series(seq: CoefficientSeq, mu: float, x: float,
                      quad: QuadSpec = DEFAULT_SPEC) -> SynthesisResult:
    """Partial sum of the sine-kernel synthesis at x.

    Each term carries sinh(pi n), so the kernel quadrature for index n is
    derated by e^{-pi n} against the term's coefficient; per-term values
    are reported so callers can judge convergence of their truncation.
    """
    mu = _order_below_half(mu, "synthesize_series")
    x = _positive(x, "synthesize_series")
    if seq.n_terms * math.pi > 700.0:
        raise PrecisionBudgetExceeded(
            f"sinh(pi n) overflows for n = {seq.n_terms}")
    if quad.precision == "extended":
        return _synthesize_extended(seq, mu, x, quad)

    pref = (0.5 * x) ** (1.0 - mu) / math.pi ** 2 * math.gamma(2.0 * (1.0 - mu))
    terms = []
    for n, a in enumerate(seq.values, 1):
        if not a:
            terms.append(0.0)
            continue
        ktol = max(quad.abs_tol * math.exp(-math.pi * n) / (10.0 * max(abs(a), 1.0)),
                   _KERNEL_TOL_FLOOR)
        kspec = QuadSpec(abs_tol=min(ktol, 1e-6), rel_tol=min(quad.rel_tol, 1e-12),
                         max_refinements=max(quad.max_refinements, 12),
                         max_evals=quad.max_evals)
        kv = cylinder_sin_kernel(mu, n, x, kspec)
        terms.append(pref * math.sinh(math.pi * n) * kv * a)
    if any(isinstance(t, complex) for t in terms):
        value = complex(sum(terms))
    else:
        value = math.fsum(terms)
    return SynthesisResult(value, tuple(terms))


def _synthesize_extended(seq: CoefficientSeq, mu: float, x: float,
                         quad: QuadSpec) -> SynthesisResult:
    import mpmath as mp

    dps = int(quad.dps)
    with mp.workdps(dps):
        mux = mp.mpf(mu)
        pref = mp.power(mp.mpf(x) / 2, 1 - mux) / mp.pi ** 2 * mp.gamma(2 * (1 - mux))
        terms = []
        for n, a in enumerate(seq.values, 1):
            if not a:
                terms.append(mp.mpf(0))
                continue
            kv = _kernel_eval_mp(KernelKind.CYLINDER_SIN, mu, complex(n), x, dps)
            terms.append(pref * mp.sinh(mp.pi * n) * kv * a)
        value = mp.fsum(terms)
    return SynthesisResult(value, tuple(terms))
