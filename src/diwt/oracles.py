"""Identity and bound audit suite.

Every check evaluates two sides of a closed-form relation through
disjoint code paths (direct quadrature against a special-function
closed form, or two genuinely different integral representations) and
packs the comparison into a CheckReport.  Bound checks report the
violation magnitude instead of a symmetric error.  All randomness in
the suite runner flows from an explicit seed, one independent stream
per check id, so a (seed, selection) pair reproduces every draw.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import kv as _real_order_k

from .errors import DomainError, NonConvergence, UnknownCheckId
from .kernels import cylinder_cos_kernel, cylinder_sin_kernel, erfc_cos_kernel
from .quad import DEFAULT_SPEC, QuadSpec, integrate_finite, integrate_semi_infinite
from .specfun import (ComplexIndex, WhittakerOrder, _order_below_half, _positive,
                      _positive_index, _w_contour_general, bessel_k_imag, erfcx,
                      incomplete_bessel_j, log_gamma, whittaker_w_mb)
from .transforms import CoefficientSeq, ForwardHandle


@dataclass(frozen=True)
class CheckReport:
    """One two-sided comparison; `passed` follows the abs-or-rel rule."""

    check_id: str
    parameters: dict
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        # "pass" is the external field name; it is a keyword in Python
        return {
            "check_id": self.check_id,
            "parameters": dict(self.parameters),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _report(check_id: str, parameters: dict, lhs: float, rhs: float,
            tolerance: float, one_sided: bool = False) -> CheckReport:
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NonConvergence(
            f"{check_id}: nonfinite side (lhs={lhs}, rhs={rhs})")
    if one_sided:
        abs_err = max(0.0, lhs - rhs)
        rel_err = abs_err / abs(rhs) if rhs != 0.0 else abs_err
    else:
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        rel_err = abs_err / scale if scale > 0.0 else 0.0
    passed = abs_err <= tolerance or rel_err <= tolerance
    return CheckReport(check_id, parameters, lhs, rhs, abs_err, rel_err,
                       float(tolerance), passed)


def _integration_spec(quad: QuadSpec) -> QuadSpec:
    # checks compare at 1e-6..1e-10; run the quadrature two digits tighter
    return QuadSpec(abs_tol=min(quad.abs_tol, 1e-12),
                    rel_tol=min(quad.rel_tol, 1e-10),
                    max_refinements=max(quad.max_refinements, 12),
                    max_evals=quad.max_evals)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_whittaker_laplace_bessel(mu: float, rho: complex, x: float,
                                   quad: QuadSpec = DEFAULT_SPEC) -> CheckReport:
    """Gaussian-Laplace transform of the scaled Whittaker function.

    lhs integrates exp(-x^2/(4t)) (scaled W)(mu, rho; t) t^(mu-2) over t
    by quadrature on the contour-route evaluator; rhs is the closed form
    2 (x/2)^(2 mu - 1) K(2 rho; x) through the independent Bessel
    evaluators (imaginary order by the cosh integral, real order by
    scipy).  The second index may be purely real or purely imaginary.
    """
    mu = float(mu)
    x = _positive(x, "check")
    rho = complex(rho)
    if rho.real != 0.0 and rho.imag != 0.0:
        raise DomainError(
            f"second index must be purely real or purely imaginary, got {rho}")
    spec = _integration_spec(quad)

    if rho.imag != 0.0 or rho == 0.0:
        order = WhittakerOrder(mu, abs(rho.imag))

        def scaled_w(t: float) -> float:
            return whittaker_w_mb(order, t, quad=spec, scaled=True)
    else:
        rr = complex(abs(rho.real), 0.0)

        def scaled_w(t: float) -> float:
            return _w_contour_general(mu, rr, t, quad=spec)

    def g_low(v: float) -> float:
        t = math.exp(-v)
        return math.exp(-x * x / (4.0 * t)) * scaled_w(t) * t ** (mu - 1.0)

    def g_high(s: float) -> float:
        t = 1.0 + s
        return math.exp(-x * x / (4.0 * t)) * scaled_w(t) * t ** (mu - 2.0)

    # truncate the log-substituted piece where the Gaussian has crushed
    # the t^(mu-1) growth: x^2 e^V / 4 >= 45 + (1-mu) V
    cut = 10.0
    for _ in range(4):
        cut = math.log((4.0 * (45.0 + (1.0 - mu) * cut)) / (x * x) + 20.0)
    r1 = integrate_finite(g_low, 0.0, cut, spec)
    r2 = integrate_semi_infinite(g_high, 2.0, spec)
    if not (r1.converged and r2.converged):
        raise NonConvergence("Whittaker Laplace-transform quadrature stalled")
    lhs = r1.value + r2.value

    if rho.imag != 0.0 or rho == 0.0:
        k = bessel_k_imag(2.0 * abs(rho.imag), x, spec)
    else:
        k = float(_real_order_k(2.0 * abs(rho.real), x))
    rhs = 2.0 * (0.5 * x) ** (2.0 * mu - 1.0) * k
    params = {"mu": mu, "rho_re": rho.real, "rho_im": rho.imag, "x": x}
    return _report("whittaker-laplace-bessel", params, lhs, rhs, 1e-8)


def check_gaussian_laplace_erfc(t: float, u: float,
                                quad: QuadSpec = DEFAULT_SPEC) -> CheckReport:
    """Gaussian-damped Laplace integral against the scaled-erfc closed form.

    lhs integrates exp(-x^2/(4t) - x cosh u) over x; rhs is
    sqrt(pi t) erfcx(sqrt(t) cosh u).  The Gaussian must carry a negative
    exponent for the integral to exist; the printed source has it
    positive, and this check deliberately implements the corrected sign
    (hence the check id suffix).
    """
    t = _positive(t, "check", "t")
    u = float(u)
    if not (0.0 <= u <= math.pi):
        raise DomainError(f"check requires u in [0, pi], got {u}")
    spec = _integration_spec(quad)
    c = math.cosh(u)

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x / (4.0 * t) - x * c)

    r = integrate_semi_infinite(g, 1.0 / c, spec)
    if not r.converged:
        raise NonConvergence("Gaussian-Laplace quadrature stalled")
    rhs = math.sqrt(math.pi * t) * erfcx(math.sqrt(t) * c)
    return _report("gaussian-laplace-erfc-sign-corrected", {"t": t, "u": u},
                   r.value, rhs, 1e-8)


def check_bessel_laplace_transform(n: int, u: float,
                                   quad: QuadSpec = DEFAULT_SPEC) -> CheckReport:
    """Laplace transform of the imaginary-order Bessel kernel in its index.

    lhs integrates exp(-t cosh u) K(in; t) over t by quadrature with the
    log substitution near 0 (the kernel oscillates in log t); rhs is
    pi sin(n u) / (sinh(pi n) sinh(u)).  At u where sin(n u) = 0 the
    comparison degenerates to an absolute one, which the abs-or-rel pass
    rule covers.
    """
    n = _positive_index(n, "check index n")
    u = float(u)
    if not (0.0 < u <= math.pi):
        raise DomainError(
            f"check requires u in (0, pi]; u = 0 is the removable limit, got {u}")
    spec = _integration_spec(quad)
    ch = math.cosh(u)

    def g_low(v: float) -> float:
        t = math.exp(-v)
        return math.exp(-t * ch) * bessel_k_imag(float(n), t, spec) * t

    def g_high(s: float) -> float:
        t = 1.0 + s
        return math.exp(-t * ch) * bessel_k_imag(float(n), t, spec)

    r1 = integrate_finite(g_low, 0.0, 40.0, spec)
    r2 = integrate_semi_infinite(g_high, 1.0 / (1.0 + ch), spec)
    if not (r1.converged and r2.converged):
        raise NonConvergence("Bessel-Laplace quadrature stalled")
    lhs = r1.value + r2.value
    rhs = math.pi * math.sin(n * u) / (math.sinh(math.pi * n) * math.sinh(u))
    return _report("bessel-laplace-transform", {"n": n, "u": u}, lhs, rhs, 1e-8)


def check_kernel_index_relation(mu: float, n: int, x: float,
                                quad: QuadSpec = DEFAULT_SPEC) -> CheckReport:
    """Sine kernel as the imaginary part of the cosine kernel.

    The synthesis kernel at integer index n equals twice the imaginary
    part of the inversion kernel at order mu - 1/2 and complex index
    (n - i)/2; the two go through different integrand assemblies.
    """
    mu = _order_below_half(mu, "check")
    n = _positive_index(n, "check index n")
    x = _positive(x, "check")
    lhs = cylinder_sin_kernel(mu, n, x, quad)
    rhs = 2.0 * cylinder_cos_kernel(mu - 0.5, ComplexIndex(0.5 * n, -0.5),
                                    x, quad).imag
    return _report("kernel-index-relation", {"mu": mu, "n": n, "x": x},
                   lhs, rhs, 1e-6)


def check_kl_reduction(n: int, x: float,
                       quad: QuadSpec = DEFAULT_SPEC) -> CheckReport:
    """Coherence of the order-zero specialization, in two sub-relations.

    (a) the order-zero Whittaker function against sqrt(x/pi) K(in; x/2),
    contour route versus cosh-integral route; (b) the order-zero cosine
    kernel against sqrt(pi/2) times the erfc kernel, cylinder quadrature
    versus erfc quadrature.  The report carries the binding sub-relation
    (the one with the larger relative error); pass requires both.
    """
    n = _positive_index(n, "check index n")
    x = _positive(x, "check")
    tol = 1e-10
    wl = whittaker_w_mb(WhittakerOrder(0.0, float(n)), x, quad=quad)
    wr = math.sqrt(x / math.pi) * bessel_k_imag(float(n), 0.5 * x, quad)
    kl = cylinder_cos_kernel(0.0, float(n), x, quad).real
    kr = math.sqrt(0.5 * math.pi) * erfc_cos_kernel(n, x, quad)

    pairs = (("whittaker-bessel", wl, wr), ("kernel-scaling", kl, kr))
    scored = []
    for name, a, b in pairs:
        ae = abs(a - b)
        scale = max(abs(a), abs(b))
        scored.append((ae / scale if scale > 0.0 else 0.0, ae, name, a, b))
    worst = max(scored, key=lambda s: (min(s[0], 1.0), s[1]))
    params = {
        "n": n, "x": x,
        "whittaker_lhs": wl, "whittaker_rhs": wr,
        "kernel_lhs": kl, "kernel_rhs": kr,
        "binding_relation": worst[2],
    }
    report = _report("kl-reduction", params, worst[3], worst[4], tol)
    if report.passed:
        # worst-of reporting covers the binding pair; confirm the other
        # one as well so a pathological scale mismatch cannot hide it
        ok = all(ae <= tol or rel <= tol for rel, ae, _, _, _ in scored)
        if not ok:
            report = CheckReport(report.check_id, report.parameters,
                                 report.lhs, report.rhs, report.abs_err,
                                 report.rel_err, report.tolerance, False)
    return report


def check_bessel_index_bound(tau: float, x: float, delta: float,
                             quad: QuadSpec = DEFAULT_SPEC) -> CheckReport:
    """Index-damping envelope of the imaginary-order Bessel kernel.

    One-sided: |K(i tau; x)| must not exceed e^(-delta tau) K0(x cos delta)
    beyond the rounding slack.
    """
    tau = abs(float(tau))
    x = _positive(x, "check")
    delta = float(delta)
    if not (0.0 <= delta < 0.5 * math.pi):
        raise DomainError(f"check requires delta in [0, pi/2), got {delta}")
    lhs = abs(bessel_k_imag(tau, x, quad))
    rhs = math.exp(-delta * tau) * bessel_k_imag(0.0, x * math.cos(delta), quad)
    return _report("bessel-index-bound", {"tau": tau, "x": x, "delta": delta},
                   lhs, rhs, 1e-12, one_sided=True)


def check_whittaker_index_bound(mu: float, tau: float, x: float, delta: float,
                                quad: QuadSpec = DEFAULT_SPEC) -> CheckReport:
    """Index-damping envelope of the Whittaker function.

    One-sided: |W(mu, i tau; x)| against the damped order-zero envelope
    with the gamma-ratio amplification, within the rounding slack.
    """
    mu = _order_below_half(mu, "check")
    tau = abs(float(tau))
    x = _positive(x, "check")
    delta = float(delta)
    if not (0.0 <= delta < 0.5 * math.pi):
        raise DomainError(f"check requires delta in [0, pi/2), got {delta}")
    cd = math.cos(delta)
    sd = math.sin(delta)
    lhs = abs(whittaker_w_mb(WhittakerOrder(mu, tau), x, quad=quad))
    # gamma ratio and damping from one log_gamma: exactly 1 at tau = delta = 0,
    # and an overflow reaches _report as a nonfinite side
    log_amp = (2.0 * float(np.real(log_gamma(0.5 - mu) - log_gamma(complex(0.5 - mu, tau))))
               - 0.5 * x * sd * sd - 2.0 * delta * tau)
    with np.errstate(over="ignore"):
        amp = float(np.exp(log_amp))
    rhs = amp / cd * whittaker_w_mb(WhittakerOrder(mu, 0.0), x * cd * cd, quad=quad)
    params = {"mu": mu, "tau": tau, "x": x, "delta": delta}
    return _report("whittaker-index-bound", params, lhs, rhs, 1e-12,
                   one_sided=True)


# ---------------------------------------------------------------------------
# iterated inversion route
# ---------------------------------------------------------------------------

_ITERATED_INDEX_CAP = 3


def check_iterated_inversion_route(seq: CoefficientSeq, mu: float, n: int = 1,
                                   quad: QuadSpec = DEFAULT_SPEC) -> CheckReport:
    """Coefficient recovery through the incomplete-Bessel iterated integral.

    lhs runs the double integral (4^mu / pi^2) n sinh(2 pi n) *
    int x^(-2 mu) J(x, 2n) int exp(-x^2/(4t)) f(t) t^(mu-2) dt dx with
    f the forward series of `seq`; rhs is the known coefficient a_n.
    This route never touches the cylinder kernel, so agreement validates
    the kernel-based inversion derivation independently.  Cost grows
    violently with n (the sinh amplification again); n is capped at 3
    and only double precision is offered.
    """
    mu = _order_below_half(mu, "check")
    n = _positive_index(n, "check index n")
    if n > _ITERATED_INDEX_CAP:
        raise DomainError(
            f"iterated route supports n <= {_ITERATED_INDEX_CAP}, got {n}")
    params = {"coefficients": [complex(a).real if complex(a).imag == 0.0
                               else str(a) for a in seq.values],
              "mu": mu, "n": n}
    target = float(np.real(seq.value_at(n)))
    if seq.is_zero:
        return _report("iterated-inversion-route", params, 0.0, target, 1e-3)

    f = ForwardHandle(seq, mu)
    amp = n * math.sinh(2.0 * math.pi * n)
    pref = 4.0 ** mu / math.pi ** 2 * amp
    outer_tol = max(1e-3 / (abs(pref) * 30.0), 1e-11)
    v_out = min(max(-math.log(outer_tol / 3.0), 16.0), 26.0)
    # the inner Laplace transform is evaluated on intervals that do not
    # depend on the outer abscissa, so the expensive forward-series
    # values land on identical nodes and can be memoized, keyed on t: the
    # nodes crowding either end of t = 1 round to the same t
    v_in_cut = 2.0 * v_out + 2.0 * math.log(2.0) + 8.0
    s_in_cut = 80.0
    fspec = QuadSpec(abs_tol=1e-15, rel_tol=1e-13, max_refinements=12)
    inner_spec = QuadSpec(abs_tol=1e-13, rel_tol=1e-9, max_refinements=10,
                          max_evals=quad.max_evals)

    @cache
    def f_at(t: float) -> float:
        return float(np.real(f(t, fspec)))

    def f_low(v: float) -> float:
        t = math.exp(-v)
        return f_at(t) * t ** (mu - 1.0)

    def f_high(s: float) -> float:
        t = 1.0 + s
        return f_at(t) * t ** (mu - 2.0)

    # the outer abscissae crowding x = 1 round to one x as well
    @cache
    def laplace_of_f(x: float) -> float:
        xx = 0.25 * x * x

        def g_low(v):
            v = np.asarray(v, dtype=float)
            vals = np.array([f_low(float(vi)) for vi in v.reshape(-1)])
            return (np.exp(-xx * np.exp(v.reshape(-1))) * vals).reshape(v.shape)

        def g_high(s):
            s = np.asarray(s, dtype=float)
            vals = np.array([f_high(float(si)) for si in s.reshape(-1)])
            return (np.exp(-xx / (1.0 + s.reshape(-1))) * vals).reshape(s.shape)

        r1 = integrate_finite(g_low, 0.0, v_in_cut, inner_spec)
        r2 = integrate_finite(g_high, 0.0, s_in_cut, inner_spec)
        return r1.value + r2.value

    ospec = QuadSpec(abs_tol=outer_tol, rel_tol=1e-8,
                     max_refinements=11, max_evals=quad.max_evals)

    def h_low(v: float) -> float:
        x = math.exp(-v)
        return x ** (1.0 - 2.0 * mu) * incomplete_bessel_j(x, 2 * n) \
            * laplace_of_f(x)

    def h_high(s: float) -> float:
        x = 1.0 + s
        return x ** (-2.0 * mu) * incomplete_bessel_j(x, 2 * n) \
            * laplace_of_f(x)

    r1 = integrate_finite(h_low, 0.0, v_out, ospec)
    r2 = integrate_semi_infinite(h_high, 0.6, ospec)
    if not (r1.converged and r2.converged):
        raise NonConvergence("iterated inversion quadrature stalled")
    lhs = pref * (r1.value + r2.value)
    return _report("iterated-inversion-route", params, lhs, target, 1e-3)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _draw_whittaker_laplace(rng) -> dict:
    if rng.random() < 0.5:
        rho = complex(0.0, rng.uniform(0.05, 1.5))
    else:
        rho = complex(rng.uniform(0.0, 0.45), 0.0)
    return {"mu": rng.uniform(-1.0, 0.45), "rho": rho,
            "x": rng.uniform(0.3, 3.0)}


def _draw_gaussian_laplace(rng) -> dict:
    return {"t": rng.uniform(0.01, 5.0), "u": rng.uniform(0.0, math.pi)}


def _draw_bessel_laplace(rng) -> dict:
    # clamp away from the removable endpoints
    return {"n": int(rng.integers(1, 4)),
            "u": rng.uniform(1e-3, math.pi - 1e-3)}


def _draw_kernel_relation(rng) -> dict:
    return {"mu": rng.uniform(-1.0, 0.45), "n": int(rng.integers(1, 4)),
            "x": rng.uniform(0.3, 3.0)}


def _draw_kl_reduction(rng) -> dict:
    return {"n": int(rng.integers(1, 4)), "x": rng.uniform(0.3, 4.0)}


def _draw_iterated_route(rng) -> dict:
    return {"seq": CoefficientSeq((rng.uniform(0.5, 1.5),)),
            "mu": rng.uniform(-0.25, 0.25), "n": 1}


def _draw_bessel_bound(rng) -> dict:
    return {"tau": rng.uniform(0.0, 10.0), "x": rng.uniform(0.1, 5.0),
            "delta": rng.uniform(0.0, 0.5 * math.pi - 1e-3)}


def _draw_whittaker_bound(rng) -> dict:
    return {"mu": rng.uniform(-1.0, 0.45), "tau": rng.uniform(0.0, 5.0),
            "x": rng.uniform(0.2, 5.0),
            "delta": rng.uniform(0.0, 0.5 * math.pi - 1e-3)}


_REGISTRY = {
    "whittaker-laplace-bessel":
        (check_whittaker_laplace_bessel, _draw_whittaker_laplace),
    "gaussian-laplace-erfc-sign-corrected":
        (check_gaussian_laplace_erfc, _draw_gaussian_laplace),
    "bessel-laplace-transform":
        (check_bessel_laplace_transform, _draw_bessel_laplace),
    "kernel-index-relation":
        (check_kernel_index_relation, _draw_kernel_relation),
    "kl-reduction":
        (check_kl_reduction, _draw_kl_reduction),
    "iterated-inversion-route":
        (check_iterated_inversion_route, _draw_iterated_route),
    "bessel-index-bound":
        (check_bessel_index_bound, _draw_bessel_bound),
    "whittaker-index-bound":
        (check_whittaker_index_bound, _draw_whittaker_bound),
}

CHECK_IDS = tuple(_REGISTRY)

_PI_HALF = 0.5 * math.pi

CANONICAL_CASES = {
    "whittaker-laplace-bessel": (
        {"mu": 0.0, "rho": 0.0j, "x": 1.0},
        {"mu": 0.0, "rho": 0.5j, "x": 1.0},
        {"mu": 0.25, "rho": 0.5j, "x": 2.0},
        {"mu": -0.25, "rho": 1.0j, "x": 1.0},
        {"mu": -1.0, "rho": 1.0j, "x": 2.0},
        {"mu": 0.25, "rho": 0.3 + 0.0j, "x": 1.0},
        {"mu": -1.0, "rho": 0.3 + 0.0j, "x": 1.0},
        {"mu": 0.1, "rho": 0.45 + 0.0j, "x": 2.0},
        {"mu": 0.4, "rho": 0.25j, "x": 0.5},
    ),
    "gaussian-laplace-erfc-sign-corrected": (
        {"t": 1.0, "u": 0.0},
        {"t": 4.0, "u": 0.0},
        {"t": 0.01, "u": 1.0},
        {"t": 2.0, "u": 2.0},
        {"t": 0.5, "u": 3.0},
    ),
    "bessel-laplace-transform": (
        {"n": 1, "u": _PI_HALF},
        {"n": 2, "u": _PI_HALF},
        {"n": 1, "u": 0.1},
        {"n": 3, "u": 1.0},
        {"n": 2, "u": 2.5},
        {"n": 1, "u": 3.0},
    ),
    "kernel-index-relation": tuple(
        {"mu": mu, "n": n, "x": x}
        for mu in (-0.25, 0.0, 0.25)
        for n, x in ((1, 1.0), (2, 0.5), (1, 2.0))
    ),
    "kl-reduction": (
        {"n": 1, "x": 2.0},
        {"n": 3, "x": 0.5},
        {"n": 2, "x": 1.0},
        {"n": 1, "x": 0.5},
        {"n": 2, "x": 4.0},
        {"n": 3, "x": 2.0},
    ),
    "iterated-inversion-route": (
        {"seq": CoefficientSeq((1.0,)), "mu": 0.0, "n": 1},
        {"seq": CoefficientSeq((1.0,)), "mu": 0.25, "n": 1},
    ),
}


def canonical_suite(quad: QuadSpec = DEFAULT_SPEC) -> list:
    """Run every identity check on its fixed canonical parameter set."""
    reports = []
    for cid in CHECK_IDS:
        for case in CANONICAL_CASES.get(cid, ()):
            fn = _REGISTRY[cid][0]
            reports.append(fn(**case, quad=quad))
    return reports


def run_suite(selection, trials: int = 1, seed: int = 0,
              quad: QuadSpec = DEFAULT_SPEC) -> list:
    """Run the selected checks on seeded random draws.

    Each check id owns an independent random stream derived from (seed,
    registry position), so adding or removing ids from the selection
    does not shift the parameters any other id sees.  Report order
    follows selection order.
    """
    selection = list(selection)
    for cid in selection:
        if cid not in _REGISTRY:
            raise UnknownCheckId(f"unknown check id {cid!r}")
    if int(trials) != trials or trials < 0:
        raise DomainError(f"trials must be a nonnegative integer, got {trials}")
    trials = int(trials)
    reports = []
    for cid in selection:
        fn, draw = _REGISTRY[cid]
        rng = np.random.default_rng([int(seed), CHECK_IDS.index(cid)])
        for _ in range(trials):
            reports.append(fn(**draw(rng), quad=quad))
    return reports
