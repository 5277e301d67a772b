"""Special-function tests: closed forms, frozen multiprecision oracles,
cross-route agreement, and the two kernel bounds."""

import math

import numpy as np
import pytest
import scipy.special as sp

from diwt.errors import DomainError, OrderError, PoleError, PrecisionBudgetExceeded
from diwt.quad import MellinBarnesSpec, QuadSpec, integrate_vertical_line
from diwt.specfun import (
    ComplexIndex,
    WhittakerOrder,
    _cyl_quadrature,
    bessel_k0,
    bessel_k_imag,
    erfc,
    erfcx,
    gamma_abs_squared,
    incomplete_bessel_j,
    _incomplete_bessel_j_by_parts,
    log_gamma,
    parabolic_cylinder_d,
    parabolic_cylinder_d_scaled,
    whittaker_w_bessel,
    whittaker_w_mb,
)

# multiprecision reference values, 25 significant digits
LOGG_A = -3.519878385242761019442234 - 0.324307209106458980813131j   # z = 0.3+2.7i
LOGG_B = -0.9350856212982774786825884 - 8.870962885247459198645825j  # z = -2.5+0.5i
K0_1 = 0.4210244382407083333356274
KI1_1 = 0.2894280370259921276345672
KI2_HALF = 0.01650201894948144265649729
D_HALF_13 = 0.5065493207459631703125402
W_QTR_1_1 = 0.2837118583820802202502524       # W at mu=1/4, tau=1, x=1
W_M1_2_5 = 0.006263081304500785915411729      # W at mu=-1, tau=2, x=5
W_045_HALF_01 = 0.1180184472380333087246291   # W at mu=0.45, tau=0.5, x=0.1


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

def test_log_gamma_half():
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14


def test_log_gamma_factorial():
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13


def test_log_gamma_reflection_modulus():
    # |Gamma(1/2+iy)|^2 = pi / cosh(pi y)
    for y in (0.5, 1.0, 2.0):
        got = gamma_abs_squared(complex(0.5, y))
        want = math.pi / math.cosh(math.pi * y)
        assert abs(got - want) < 1e-13 * want


def test_log_gamma_frozen_complex():
    assert abs(log_gamma(0.3 + 2.7j) - LOGG_A) < 1e-13
    assert abs(log_gamma(-2.5 + 0.5j) - LOGG_B) < 1e-12


def test_log_gamma_recovers_gamma_13_digits():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-50, 50, size=(40, 2))
    for re, im in pts:
        z = complex(re, im)
        if abs(z) > 50 or (im == 0 and re <= 0):
            continue
        ours = log_gamma(z)
        ref = sp.loggamma(z)
        # compare through exp to be insensitive to 2*pi*i branch offsets
        assert abs(np.exp(ours - ref) - 1.0) < 1e-12


def test_log_gamma_against_mpmath():
    # independent reference, including Re z < 1/2, large |Im z| and points
    # just above and below the cut along the negative real axis
    import mpmath as mp

    res = np.concatenate([np.linspace(-30.25, 30.25, 45),
                          [-7.5, -2.5, -1.5, -0.5, 0.25, 0.49, 0.5]])
    ims = (-40.0, -3.0, -0.5, -1e-3, -1e-9, 1e-9, 1e-3, 0.5, 3.0, 40.0)
    zs = np.array([complex(re, im) for re in res for im in ims])
    ours = log_gamma(zs)
    with mp.workdps(30):
        ref = np.array([complex(mp.loggamma(mp.mpc(z.real, z.imag))) for z in zs])
    # compare through exp to be insensitive to 2*pi*i branch offsets
    assert np.max(np.abs(np.exp(ours - ref) - 1.0)) < 1e-13


def test_log_gamma_pole():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_log_gamma_vectorized():
    zs = np.array([1.0 + 0j, 0.5 + 1j, -2.5 + 0.5j])
    out = log_gamma(zs)
    assert out.shape == zs.shape
    for zi, oi in zip(zs, out):
        assert abs(oi - log_gamma(complex(zi))) == 0.0


# ---------------------------------------------------------------------------
# erfc
# ---------------------------------------------------------------------------

def test_erfc_zero_and_symmetry():
    assert erfc(0.0) == 1.0
    for x in (0.3, 1.7, 4.0):
        assert abs(erfc(x) + erfc(-x) - 2.0) < 1e-14


def test_erfc_large_underflow_no_exception():
    v = erfc(30.0)
    assert 0.0 <= v < 1e-300


def test_erfc_maclaurin_oracle():
    # erf(1) by its Maclaurin series, summed with compensation
    terms = []
    for k in range(0, 30):
        terms.append((-1.0) ** k / (math.factorial(k) * (2 * k + 1)))
    erf1 = 2.0 / math.sqrt(math.pi) * math.fsum(terms)
    assert abs(erfc(1.0) - (1.0 - erf1)) < 1e-14


def test_erfc_monotone():
    xs = np.linspace(-3, 5, 30)
    vals = erfc(xs)
    assert np.all(np.diff(vals) < 0)


def test_erfcx_consistency():
    for x in (0.0, 0.5, 3.0, 20.0):
        assert abs(erfcx(x) - math.exp(x * x) * erfc(x)) < 1e-13 * erfcx(x) or x > 10


# ---------------------------------------------------------------------------
# modified Bessel, imaginary order
# ---------------------------------------------------------------------------

def test_k0_matches_k_imag_at_zero_order():
    assert bessel_k0(1.0) == bessel_k_imag(0.0, 1.0)


def test_k0_monotone():
    assert bessel_k0(1.0) > bessel_k0(2.0) > 0.0


def test_k0_frozen():
    assert abs(bessel_k0(1.0) - K0_1) < 1e-13


def test_k0_mellin_barnes_cross_route():
    # (1/2pi) int Gamma(s)^2 y^{-s} dt = 2 K_0(2 sqrt(y)); y = 1/4 gives K_0(1)
    mb = MellinBarnesSpec(gamma_abscissa=1.0)
    r = integrate_vertical_line(lambda s: sp.gamma(s) ** 2 * 0.25 ** (-s), mb)
    assert abs(0.5 * float(np.real(r.value)) - bessel_k0(1.0)) < 1e-11


def test_k_imag_frozen():
    assert abs(bessel_k_imag(1.0, 1.0) - KI1_1) < 1e-13
    assert abs(bessel_k_imag(2.0, 0.5) - KI2_HALF) < 1e-14


def test_k_imag_even_exactly():
    assert bessel_k_imag(2.0, 1.0) == bessel_k_imag(-2.0, 1.0)


@pytest.mark.parametrize("delta", [0.0, 0.3, 1.2])
def test_k_imag_paper_bound_examples(delta):
    lhs = abs(bessel_k_imag(1.0, 1.0))
    rhs = math.exp(-delta) * bessel_k0(math.cos(delta))
    assert lhs <= rhs + 1e-12


def test_k_imag_domain():
    for x in (0.0, -1.0):
        with pytest.raises(DomainError):
            bessel_k_imag(1.0, x)
        with pytest.raises(DomainError):
            bessel_k0(x)


@pytest.mark.parametrize("call", [
    lambda: bessel_k_imag(math.inf, 1.0),
    lambda: bessel_k_imag(-math.inf, 1.0),
    lambda: bessel_k_imag(math.nan, 1.0),
    lambda: parabolic_cylinder_d_scaled(1.5, math.inf),
    lambda: parabolic_cylinder_d_scaled(1.5, -math.inf),
    lambda: parabolic_cylinder_d_scaled(1.5, math.nan),
    lambda: parabolic_cylinder_d_scaled(1.5, np.array([0.3, 2.0, math.nan])),
], ids=["k-tau-inf", "k-tau-neginf", "k-tau-nan", "d-z-inf", "d-z-neginf", "d-z-nan",
        "d-z-nan-in-batch"])
def test_nonfinite_argument_refused_before_integrating(call):
    # refused up front: no quadrature, no numpy RuntimeWarning on the way
    with pytest.raises(DomainError):
        call()


def test_k_imag_bound_sampled():
    rng = np.random.default_rng(20240819)
    for _ in range(25):
        x = float(rng.uniform(0.05, 8.0))
        tau = float(rng.uniform(0.0, 6.0))
        d = float(rng.uniform(0.0, math.pi / 2 - 0.05))
        assert abs(bessel_k_imag(tau, x)) <= math.exp(-d * tau) * bessel_k0(x * math.cos(d)) + 1e-12


# ---------------------------------------------------------------------------
# parabolic cylinder
# ---------------------------------------------------------------------------

def test_cylinder_gaussian_value():
    # order -1 at z = 0 reduces to the Gaussian half-line integral
    assert abs(parabolic_cylinder_d(-1.0, 0.0) - math.sqrt(math.pi / 2)) < 1e-14


def test_cylinder_erfc_closed_form_point():
    want = math.sqrt(math.pi / 2) * math.exp(0.25) * erfc(1.0 / math.sqrt(2.0))
    assert abs(parabolic_cylinder_d(-1.0, 1.0) - want) < 1e-13


def test_cylinder_erfc_consistency_range():
    for z in np.linspace(-3.0, 10.0, 14):
        want = math.sqrt(math.pi / 2) * math.exp(z * z / 4.0) * erfc(z / math.sqrt(2.0))
        got = parabolic_cylinder_d(-1.0, float(z))
        assert abs(got - want) < 1e-12 * max(abs(want), 1.0)


def test_cylinder_large_z_asymptotics():
    z = 10.0
    got = parabolic_cylinder_d(-0.5, z)
    lead = math.exp(-z * z / 4.0) * z ** (-0.5)
    assert abs(got - lead) < 0.03 * lead


def test_cylinder_frozen():
    assert abs(parabolic_cylinder_d(-0.5, 1.3) - D_HALF_13) < 1e-13


def test_cylinder_scipy_cross_check():
    for nu, z in [(-0.5, 0.7), (-2.0, 3.0), (-1.5, -2.0), (-3.0, 0.1)]:
        ref = sp.pbdv(nu, z)[0]
        assert abs(parabolic_cylinder_d(nu, z) - ref) < 1e-10 * max(abs(ref), 1e-10)


def test_cylinder_order_error():
    for nu in (0.0, 0.5, 2.0):
        with pytest.raises(OrderError):
            parabolic_cylinder_d(nu, 1.0)


def test_cylinder_scaled_closed_forms():
    # scaled order-1 case reduces to erfcx, order-2 to its by-parts partner
    z = np.array([0.0, 0.7, 3.0, 15.0])
    got1 = parabolic_cylinder_d_scaled(1.0, z)
    want1 = math.sqrt(math.pi / 2) * erfcx(z / math.sqrt(2.0))
    assert np.max(np.abs(got1 - want1) / want1) < 1e-13
    got2 = parabolic_cylinder_d_scaled(2.0, z)
    want2 = 1.0 - z * want1
    assert np.max(np.abs(got2 - want2) / np.abs(want2)) < 1e-12


CYL_ALPHAS = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5,
              3.0, 3.25, 3.5, 3.75, 4.0, 4.5, 5.0, 6.0, 8.0, 11.0)


@pytest.mark.parametrize("alpha", CYL_ALPHAS)
def test_cylinder_scaled_accuracy_grid(alpha):
    # the small-|z| series must be no worse than the quadrature it replaces,
    # measured against mpmath at the same points
    import mpmath as mp

    z = np.concatenate([np.linspace(-1.5, 1.5, 61), [-1e-9, 1e-9, 1e-3, 0.49]])
    with mp.workdps(30):
        ref = np.array([float(mp.exp(mp.mpf(zi) ** 2 / 4) * mp.pcfd(-alpha, mp.mpf(zi)))
                        for zi in z])
    got = np.abs(parabolic_cylinder_d_scaled(alpha, z, rel_tol=1e-15) - ref) / ref
    quad = np.abs(_cyl_quadrature(alpha, z, 1e-15, 9) - ref) / ref
    near = np.abs(z) <= 0.5
    assert np.max(got[near]) <= np.max(quad[near])
    assert np.max(got) <= np.max(quad)
    if alpha <= 4.0:
        assert np.max(got[near]) < 5e-15


@pytest.mark.parametrize("alpha", (0.001, 0.01, 0.02, 0.05, 0.1))
def test_cylinder_scaled_small_alpha(alpha):
    # below alpha = 0.1 the order recurrence serves z > 1/2, where the
    # quadrature stalls for alpha <= 0.05; 0.1 is the quadrature's edge
    import mpmath as mp

    z = np.concatenate([np.linspace(0.51, 3.0, 26), np.geomspace(3.2, 100.0, 25)])
    with mp.workdps(30):
        ref = np.array([float(mp.exp(mp.mpf(zi) ** 2 / 4) * mp.pcfd(-alpha, mp.mpf(zi)))
                        for zi in z])
    got = parabolic_cylinder_d_scaled(alpha, z, rel_tol=1e-15)
    assert np.max(np.abs(got - ref) / ref) <= 2e-15


@pytest.mark.parametrize("alpha", (0.25, 1.0, 2.0, 3.0))
def test_cylinder_scaled_continuous_at_series_edge(alpha):
    # 0.5 is summed by the series, the next double out by the quadrature
    for edge in (-0.5, 0.5):
        outside = np.nextafter(edge, 2.0 * edge)
        inner, outer = parabolic_cylinder_d_scaled(alpha, np.array([edge, outside]))
        assert abs(outer - inner) <= 4e-15 * inner


# ---------------------------------------------------------------------------
# Whittaker W, both routes
# ---------------------------------------------------------------------------

def test_w_reduces_to_k_route_mb():
    # at mu = 0 the function collapses to sqrt(x/pi) K_{i tau}(x/2)
    got = whittaker_w_mb(WhittakerOrder(0.0, 0.0), 2.0)
    assert abs(got - math.sqrt(2.0 / math.pi) * bessel_k0(1.0)) < 1e-12


@pytest.mark.parametrize("tau", [16.0, 60.0, 120.0, 240.0])
def test_w_contour_large_tau(tau):
    # the integrand peaks near |t| = tau and underflows at t = 0; a tail
    # search that started at T = 16 stopped there and returned a denormal
    import mpmath as mp

    for x in (0.1, 1.0, 5.0):
        got = whittaker_w_mb(WhittakerOrder(0.0, tau), x)
        want = mp.sqrt(mp.mpf(x) / mp.pi) * mp.re(mp.besselk(1j * tau, mp.mpf(x) / 2))
        assert abs(got / float(want) - 1.0) <= 1e-11


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu", [0.0, 0.25, 2.0])
@pytest.mark.parametrize("x", [400.0, 1000.0])
def test_w_contour_beyond_double_range_refused(mu, x):
    # the Gamma-factor peak at gamma = round(x/2) is e^860 and more; it
    # overflowed and escaped as a ValueError from QuadSpec
    with pytest.raises(PrecisionBudgetExceeded):
        whittaker_w_mb(WhittakerOrder(mu, 1.0), x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu", [0.0, 0.25, 2.0])
@pytest.mark.parametrize("x", [270.0, 300.0])
def test_w_contour_x_power_underflow_refused(mu, x):
    # |x^{-s}| = x^{-gamma} is e^-756 at x = 270 and e^-856 at x = 300 on the
    # line gamma = round(x/2); it underflowed to 0 at every node, and W read 0.0
    with pytest.raises(PrecisionBudgetExceeded):
        whittaker_w_mb(WhittakerOrder(mu, 1.0), x, scaled=True)
    # at x = 250, x^{-gamma} = e^-690 stays a normal double and a value comes
    # back; it is still inaccurate, as the abscissa is not at the saddle
    assert math.isfinite(whittaker_w_mb(WhittakerOrder(mu, 1.0), 250.0, scaled=True))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_w_contour_x_power_beyond_double_range_refused():
    # |x^{-s}| = x^{-gamma} = e^921 on this line; math.exp raised OverflowError
    with pytest.raises(PrecisionBudgetExceeded):
        whittaker_w_mb(WhittakerOrder(0.0, 1.0), 0.01, gamma=200.0)


def test_w_reduces_to_k_route_bessel():
    got = whittaker_w_bessel(WhittakerOrder(0.0, 1.0), 2.0)
    assert abs(got - math.sqrt(2.0 / math.pi) * bessel_k_imag(1.0, 1.0)) < 1e-11


def test_w_frozen_values():
    assert abs(whittaker_w_mb(WhittakerOrder(0.25, 1.0), 1.0) - W_QTR_1_1) < 1e-12
    assert abs(whittaker_w_mb(WhittakerOrder(-1.0, 2.0), 5.0) - W_M1_2_5) < 1e-12 * W_M1_2_5 * 1e3
    assert abs(whittaker_w_mb(WhittakerOrder(0.45, 0.5), 0.1) - W_045_HALF_01) < 1e-12
    assert abs(whittaker_w_bessel(WhittakerOrder(0.25, 1.0), 1.0) - W_QTR_1_1) < 1e-10
    assert abs(whittaker_w_bessel(WhittakerOrder(0.45, 0.5), 0.1) - W_045_HALF_01) < 1e-10


def test_w_cross_route_examples():
    a = whittaker_w_bessel(WhittakerOrder(0.25, 1.0), 1.0)
    b = whittaker_w_mb(WhittakerOrder(0.25, 1.0), 1.0)
    assert abs(a - b) <= 1e-7 * abs(b)
    a = whittaker_w_bessel(WhittakerOrder(0.25, 2.0), 3.0)
    b = whittaker_w_mb(WhittakerOrder(0.25, 2.0), 3.0)
    assert abs(a - b) <= 1e-7 * abs(b)


@pytest.mark.parametrize("mu", [-0.25, 0.45])
@pytest.mark.parametrize("tau", [1.0, 4.0])
@pytest.mark.parametrize("x", [0.1, 20.0])
def test_w_cross_route_corners(mu, tau, x):
    # corner subset here; the full grid runs in the acceptance suite
    o = WhittakerOrder(mu, tau)
    a = whittaker_w_mb(o, x)
    b = whittaker_w_bessel(o, x)
    assert abs(a - b) <= 1e-7 * max(abs(a), abs(b))


def test_w_contour_independence():
    vals = [whittaker_w_mb(WhittakerOrder(-1.0, 1.0), 1.0, gamma=g)
            for g in (0.0, 0.5, 1.0)]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-10 * abs(vals[0])


def test_w_even_in_tau():
    a = whittaker_w_mb(WhittakerOrder(0.25, 1.5), 2.0)
    b = whittaker_w_mb(WhittakerOrder(0.25, -1.5), 2.0)
    assert a == b


def test_w_scaled_consistency():
    o = WhittakerOrder(0.25, 1.0)
    w = whittaker_w_mb(o, 3.0)
    ws = whittaker_w_mb(o, 3.0, scaled=True)
    assert abs(ws - w * math.exp(-1.5)) < 1e-14


def test_w_asymptotic_envelope():
    # W / (e^{-x/2} x^mu) stays bounded and slowly varying on [20, 40]
    for mu in (-0.25, 0.0, 0.25):
        o = WhittakerOrder(mu, 1.0)
        r20 = whittaker_w_mb(o, 20.0, scaled=True) * math.exp(20.0) / 20.0 ** mu
        r40 = whittaker_w_mb(o, 40.0, scaled=True) * math.exp(40.0) / 40.0 ** mu
        q = r20 / r40
        assert 0.5 < q < 2.0


def test_w_bound_sampled():
    rng = np.random.default_rng(20240820)
    for _ in range(20):
        mu = float(rng.uniform(-1.5, 0.45))
        x = float(rng.uniform(0.1, 15.0))
        tau = float(rng.uniform(0.0, 4.0))
        d = float(rng.uniform(0.0, math.pi / 2 - 0.1))
        lhs = abs(whittaker_w_mb(WhittakerOrder(mu, tau), x))
        ratio = math.exp(2 * math.lgamma(0.5 - mu)) / gamma_abs_squared(complex(0.5 - mu, tau))
        rhs = (ratio / math.cos(d)
               * whittaker_w_mb(WhittakerOrder(mu, 0.0), x * math.cos(d) ** 2)
               * math.exp(-x * math.sin(d) ** 2 / 2.0 - 2.0 * d * tau))
        assert lhs <= rhs + 1e-12


def test_w_domain_errors():
    with pytest.raises(DomainError):
        whittaker_w_mb(WhittakerOrder(0.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        whittaker_w_bessel(WhittakerOrder(0.0, 1.0), -2.0)
    with pytest.raises(DomainError):
        whittaker_w_bessel(WhittakerOrder(0.5, 1.0), 1.0)


def test_order_types_validate():
    with pytest.raises(DomainError):
        WhittakerOrder(math.inf, 1.0)
    with pytest.raises(DomainError):
        ComplexIndex(1.0, math.nan)
    ci = ComplexIndex(1.0, -0.5)
    assert ci.value == 1.0 - 0.5j


# ---------------------------------------------------------------------------
# incomplete Bessel integral
# ---------------------------------------------------------------------------

def test_incomplete_bessel_two_forms_agree():
    a = incomplete_bessel_j(1.0, 1)
    b = _incomplete_bessel_j_by_parts(1.0, 1)
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("x,n", [(0.5, 2), (10.0, 1)])
def test_incomplete_bessel_crude_bound(x, n):
    assert abs(incomplete_bessel_j(x, n)) <= math.pi * math.exp(-x)


def test_incomplete_bessel_domain():
    with pytest.raises(DomainError):
        incomplete_bessel_j(0.0, 1)
    with pytest.raises(DomainError):
        incomplete_bessel_j(1.0, 0)
    with pytest.raises(DomainError):
        incomplete_bessel_j(1.0, 1.5)


# ---------------------------------------------------------------------------
# extended precision
# ---------------------------------------------------------------------------

def test_extended_precision_delegation():
    import mpmath as mp

    ext = QuadSpec(precision="extended", dps=30)
    with mp.workdps(30):
        assert abs(bessel_k_imag(1.0, 1.0, ext) - mp.re(mp.besselk(1j, 1))) < mp.mpf("1e-25")
        assert abs(whittaker_w_mb(WhittakerOrder(0.25, 1.0), 1.0, quad=ext)
                   - mp.whitw(mp.mpf("0.25"), 1j, 1)) < mp.mpf("1e-22")
        assert abs(whittaker_w_bessel(WhittakerOrder(0.25, 1.0), 1.0, quad=ext)
                   - mp.whitw(mp.mpf("0.25"), 1j, 1)) < mp.mpf("1e-22")
