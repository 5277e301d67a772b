"""Special-function tests: closed forms, frozen multiprecision oracles,
cross-route agreement, and the two kernel bounds."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings, strategies as st

from diwt import quad, specfun
from diwt.errors import DomainError, NonConvergence, OrderError, PoleError, \
    PrecisionBudgetExceeded
from diwt.quad import MellinBarnesSpec, QuadSpec, integrate_vertical_line, \
    integrate_vertical_line_rows
from diwt.specfun import (
    ComplexIndex,
    WhittakerOrder,
    _cyl_leaf_coeffs,
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
    lambda: bessel_k_imag(1.0, np.array([0.3, 2.0, math.nan])),
], ids=["k-tau-inf", "k-tau-neginf", "k-tau-nan", "d-z-inf", "d-z-neginf", "d-z-nan",
        "d-z-nan-in-batch", "k-x-nan-in-batch"])
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


def test_k_imag_accuracy_grid():
    # the cosh integrand's scale is K_0(x), so its roundoff is counted in
    # ulps of K_0(x); near tau = 8 the value itself is ~1e-6 of that scale.
    import mpmath as mp

    x = np.geomspace(1e-3, 20.0, 25)
    ulp = np.spacing(sp.k0(x))
    for tau in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        with mp.workdps(30):
            ref = np.array([float(mp.re(mp.besselk(mp.mpc(0, tau), mp.mpf(xi)))) for xi in x])
        assert np.max(np.abs(bessel_k_imag(tau, x) - ref) / ulp) <= 8.0


@pytest.mark.parametrize("x", (25.0, 30.0, 60.0, 100.0))
def test_k_and_j_keep_relative_accuracy_at_large_x(x):
    # both are summed as e^{-x} times an integrand that starts at 1, so
    # they stay accurate to a few ulps where K_0(x) falls below abs_tol
    import mpmath as mp

    with mp.workdps(40):
        xx = mp.mpf(x)
        for tau in (0.0, 1.0, 4.0):
            ref = float(mp.re(mp.besselk(mp.mpc(0, tau), xx)))
            assert abs(bessel_k_imag(tau, x) - ref) <= 4.0 * np.spacing(ref), tau
        # mpmath's own quadrature needs the scaled form and split points here
        for n in (1, 2, 5):
            j = mp.exp(-xx) * mp.quad(lambda u: mp.exp(-2 * xx * mp.sinh(u / 2) ** 2)
                                      * mp.cos(n * u), mp.linspace(0, 1, 21) + [2, mp.pi])
            ref = float(j)
            assert abs(incomplete_bessel_j(x, n) - ref) <= 4.0 * np.spacing(ref), n


# each case: a call f(order, x) and the log-spaced x range it is checked
# on; the series is a private array routine, so alone is one x in an array
_K_J_BATCH = {
    "k": (bessel_k_imag, 1e-3, 30.0),
    "k-series": (lambda p, x: specfun._k_imag_series(2.0 * p, np.atleast_1d(x)), 1e-12, 1.0),
    "j": (lambda p, x: incomplete_bessel_j(x, 1 + int(p)), 1e-3, 30.0),
}


@pytest.mark.parametrize("case", _K_J_BATCH)
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(p=st.floats(0.0, 6.0), us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       cut=st.integers(0, 11), seed=st.integers(0, 2 ** 32 - 1))
def test_k_and_j_value_independent_of_batch(case, p, us, cut, seed):
    # K and J stop each x on its own and sum it along its own nodes, and
    # the series for K stops only below the last bit of every value, so a
    # batch changes no value: alone, shuffled or sliced
    f, lo, hi = _K_J_BATCH[case]
    x = lo * (hi / lo) ** np.array(us)
    alone = np.array([np.ravel(f(p, xi))[0] for xi in x.tolist()])
    assert np.array_equal(f(p, x), alone)
    perm = np.random.default_rng(seed).permutation(x.size)
    assert np.array_equal(f(p, x[perm]), alone[perm])
    assert np.array_equal(f(p, x[cut:]), alone[cut:])


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


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(alpha=st.floats(0.05, 6.0),
       zs=st.lists(st.floats(-1.5, 40.0), min_size=1, max_size=30),
       cut=st.integers(0, 29), seed=st.integers(0, 2 ** 32 - 1))
def test_cylinder_value_independent_of_batch(alpha, zs, cut, seed):
    # every path stops each point on its own and sums it along its own
    # nodes, so a batch changes no value: shuffled, sliced, spread over
    # many blocks, or with blocks of one point
    z = np.array(zs)
    alone = np.array([parabolic_cylinder_d_scaled(alpha, zi) for zi in zs])
    assert np.array_equal(parabolic_cylinder_d_scaled(alpha, z), alone)
    perm = np.random.default_rng(seed).permutation(z.size)
    assert np.array_equal(parabolic_cylinder_d_scaled(alpha, z[perm]), alone[perm])
    assert np.array_equal(parabolic_cylinder_d_scaled(alpha, z[cut:]), alone[cut:])
    big = np.resize(z, 6000)  # more points than one block holds at level 0
    assert np.array_equal(parabolic_cylinder_d_scaled(alpha, big), np.resize(alone, 6000))
    with mock.patch.object(quad, "_BLOCK", 100):
        assert np.array_equal(parabolic_cylinder_d_scaled(alpha, z), alone)


def test_cylinder_batch_with_one_stalled_point_raises():
    # at alpha = 0.04 the last relative change is about 2.4e-13 at z = -1
    # and 2.8e-13 at z = 10 and 30; the batch raises and names the worst
    tol = 2.6e-13
    assert np.isfinite(_cyl_quadrature(0.04, np.array([-1.0]), tol, 9)).all()
    with pytest.raises(NonConvergence) as lone:
        _cyl_quadrature(0.04, np.array([30.0]), tol, 9)
    with pytest.raises(NonConvergence) as batch:
        _cyl_quadrature(0.04, np.array([-1.0, 30.0, 10.0, -1.0]), tol, 9)
    assert str(batch.value) == str(lone.value)
    assert "relative change 2.8" in str(batch.value)


def _cyl_reference(alpha, z):
    import mpmath as mp

    with mp.workdps(30):
        return np.array([float(mp.exp(mp.mpf(zi) ** 2 / 4) * mp.pcfd(-alpha, mp.mpf(zi)))
                         for zi in z])


@pytest.mark.parametrize("alpha", (8.0, 11.0))
def test_cylinder_large_alpha_within_8_ulp(alpha):
    # the quadrature's radius counts the weight s^(alpha-1): cut where
    # e^{-s^2/2 - z s} alone had fallen by e^-47, it erred by 1,158 ulp at
    # alpha = 8 and 1.4e5 at 11 between z = 2 and Z0.  On the bands of
    # tools/cyl_accuracy_map.py below Z0 it is within 8 ulp; a denser grid
    # finds up to 9 at alpha = 8, the rounding of the node exponents
    z0, _ = _cyl_leaf_coeffs(alpha)
    below = np.nextafter(z0, 0.0)
    bands = np.concatenate([np.linspace(-1.5, -0.5, 13)[:-1], np.linspace(-0.5, 0.5, 12),
                            np.linspace(0.5, 2.0, 13)[1:], np.linspace(2.0, 5.0, 13)[1:],
                            np.linspace(5.0, below, 13)[1:]])
    dense = np.linspace(-1.5, below, 80)
    for z, bound in ((bands, 8.0), (dense, 16.0)):
        ref = _cyl_reference(alpha, z)
        got = parabolic_cylinder_d_scaled(alpha, z, rel_tol=1e-15)
        assert np.max(np.abs(got - ref) / np.spacing(ref)) <= bound


def test_cylinder_leaf_edge_is_the_smallest_quarter():
    # Z0 is the first quarter (from alpha + 1/2 on) where a term of the
    # large-z series falls to 2^-56, and the leaf keeps the terms before it
    def log_term(alpha, k, z):
        return (math.lgamma(alpha + 2 * k) - math.lgamma(alpha) - math.lgamma(k + 1)
                - k * math.log(2.0 * z * z))

    tol = math.log(2.0 ** -56)
    for alpha, want in ((1.0, 9.0), (3.0, 10.0), (11.0, 12.25)):
        z0, coeffs = _cyl_leaf_coeffs(alpha)
        assert z0 == want
        assert log_term(alpha, coeffs.size, z0) <= tol < log_term(alpha, coeffs.size - 1, z0)
        assert min(log_term(alpha, k, z0 - 0.25) for k in range(1, 200)) > tol
    for alpha in (0.001, 0.1, 0.5, 2.0, 6.0, 30.0):
        z0, coeffs = _cyl_leaf_coeffs(alpha)
        assert z0 >= alpha + 0.5 and abs(coeffs[-2]) <= 0.5


# alphas 0.001..11 and, per alpha, z from its leaf edge to 1e4
CYL_LEAF_ALPHAS = tuple(np.geomspace(0.001, 11.0, 30).tolist()) + (0.05, 0.1, 1.0, 2.0, 3.0)


def test_cylinder_leaf_accuracy_grid():
    # within 2 ulp of mpmath at every point, and per alpha no worse than
    # the path it replaced: the order recurrence below alpha = 0.1, the
    # quadrature from there on
    for alpha in CYL_LEAF_ALPHAS:
        z0, _ = _cyl_leaf_coeffs(alpha)
        z = np.geomspace(z0, 1e4, 60)
        ref = _cyl_reference(alpha, z)
        ulp = np.spacing(ref)
        with mock.patch.object(specfun, "_cyl_quadrature", side_effect=AssertionError):
            leaf = np.abs(parabolic_cylinder_d_scaled(alpha, z, rel_tol=1e-15) - ref) / ulp
        if alpha < 0.1:
            old = z * _cyl_quadrature(alpha + 1.0, z, 1e-15, 9) \
                + (alpha + 1.0) * _cyl_quadrature(alpha + 2.0, z, 1e-15, 9)
        else:
            old = _cyl_quadrature(alpha, z, 1e-15, 9)
        assert leaf.max() <= 2.0, alpha
        assert leaf.max() <= max(np.max(np.abs(old - ref) / ulp), 1.0), alpha


@pytest.mark.parametrize("alpha", (0.05, 0.25, 1.0, 2.0, 3.0))
def test_cylinder_scaled_continuous_at_leaf_edge(alpha):
    # Z0 is summed by the large-z series, the next double in by the
    # recurrence (alpha < 0.1) or the quadrature
    z0, _ = _cyl_leaf_coeffs(alpha)
    inside = np.nextafter(z0, 0.0)
    with mock.patch.object(specfun, "_cyl_quadrature", side_effect=AssertionError):
        outer = parabolic_cylinder_d_scaled(alpha, z0)
    with pytest.raises(AssertionError):
        with mock.patch.object(specfun, "_cyl_quadrature", side_effect=AssertionError):
            parabolic_cylinder_d_scaled(alpha, inside)
    inner = parabolic_cylinder_d_scaled(alpha, inside)
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
    # at x = 250, x^{-gamma} = e^-690 stays a normal double, but the abscissa
    # is not at the saddle and the value came back with the wrong sign
    with pytest.raises(PrecisionBudgetExceeded):
        whittaker_w_mb(WhittakerOrder(mu, 1.0), 250.0, scaled=True)


@pytest.mark.parametrize("x", [150.0, 200.0])
def test_w_contour_large_x_refused_on_its_own_abscissa(x):
    # gamma = round(x/2) is not the saddle: the error against mpmath grows
    # from 3.6e-8 at x = 100 to 5e-5 at 140 and 1e-1 at 200
    for mu in (-2.0, 0.0, 0.25, 2.0):
        with pytest.raises(PrecisionBudgetExceeded):
            whittaker_w_mb(WhittakerOrder(mu, 1.0), x, scaled=True)
        with pytest.raises(PrecisionBudgetExceeded):
            specfun._w_contour_many(mu, 0.45 + 0.0j, [1.0, x])


@pytest.mark.parametrize("x,bound", [(81.0, 5e-9), (100.0, 5e-8)])
def test_w_contour_large_x_against_mpmath(x, bound):
    # the edge of the automatic abscissa; over mu in [-2, 2] and tau in
    # [0, 16] the worst relative errors are 3.3e-9 at x = 81 and 3.7e-8 at 100
    import mpmath as mp

    for mu in (-2.0, -0.5, 0.25, 2.0):
        for tau in (0.0, 0.5, 2.0, 16.0):
            got = float(specfun._w_contour_many(mu, complex(0.0, tau), [x])[0])
            with mp.workdps(40):
                want = float(mp.re(mp.whitw(mu, mp.mpc(0, tau), x) * mp.exp(-mp.mpf(x) / 2)))
            assert abs(got / want - 1.0) <= bound, (mu, tau)


def test_w_contour_fold_matches_full_line():
    # the contour route folds its line onto t >= 0, which needs g(gamma - it)
    # = conj g(gamma + it); the full-line rule on g = factor x^{-s} keeps the
    # imaginary part, which must vanish to rounding, and its real part must
    # be the folded value.  Both stop at max(1e-14 peak, 1e-12 |value|),
    # with peak the integrand at t = 0, so they agree to 1e-12 of the larger.
    # At mu = 2, tau = 8 and x <= 1e-3 both rules stall on roundoff (the
    # integrand near t = tau is 1e5 and more above the peak), and the
    # folded route refuses.
    for mu in (-2.0, 0.0, 0.25, 2.0):
        for rho in (0j, 0.3j, 1j, 8j, 0.45 + 0j):
            for x in np.geomspace(1e-6, 100.0, 9).tolist():
                gam = specfun._auto_gamma(mu, rho, x)
                cf = specfun._contour_factor(mu, rho, gam)
                peak = cf.peak() * x ** -gam
                mb = MellinBarnesSpec(gam, cf.tail()[0], QuadSpec(rel_tol=1e-12,
                                                                  max_refinements=12))
                [r] = integrate_vertical_line_rows(
                    lambda s, rows: (cf.factor(s) * np.exp(-s * math.log(x)))[None, :],
                    mb, [max(1e-14 * peak, 1e-300)])
                v = complex(r.value)
                assert abs(v.imag) <= max(1e-8 * abs(v.real), 1e-12 * peak), (mu, rho, x)
                try:
                    w = specfun._w_contour_many(mu, rho, [x])[0]
                except NonConvergence:
                    assert (mu, rho) == (2.0, 8j) and x <= 1e-3, (mu, rho, x)
                    continue
                assert abs(w - v.real) <= 1e-12 * max(peak, abs(v.real)), (mu, rho, x)


def test_contour_factor_keeps_named_grids_least_recently_used(monkeypatch):
    cf = specfun._ContourFactor(0.25, 1j, 1.0)
    monkeypatch.setattr(cf._cache, "size", 3)
    s = [1.0 + 1j * np.linspace(0.0, 4.0, 9 + k) for k in range(4)]
    first = cf.factor(s[0], "a")
    assert np.array_equal(first, cf.factor(s[0]))
    assert cf.factor(s[0], "a") is first
    cf.factor(s[1], "b")
    cf.factor(s[2], "c")
    cf.factor(s[0], "a")
    cf.factor(s[3], "d")
    assert list(cf._cache) == ["c", "a", "d"]
    # the contour names each trapezoid level by T and its node count
    gam = specfun._auto_gamma(0.25, 1j, 1.3)
    specfun._w_contour_many(0.25, 1j, [1.3])
    grids = specfun._contour_factor(0.25, 1j, gam)._cache
    assert grids and all(v.size == n for (_, n), v in grids.items())


def test_contour_factor_overflow_raises_again_and_stores_no_grid():
    # log Gamma(200.5 +- i + it) twice less log Gamma(51 + it) is beyond e^709
    cf = specfun._ContourFactor(150.0, 1j, 200.0)
    s = 200.0 + 1j * np.linspace(0.0, 4.0, 9)
    for _ in range(2):
        with pytest.raises(PrecisionBudgetExceeded):
            cf.factor(s, (4.0, 9))
    assert len(cf._cache) == 0
    assert cf._cache.info() == (0, 2, 0)


def test_contour_cache_keeps_factors_least_recently_used(monkeypatch):
    monkeypatch.setattr(specfun, "_CONTOUR_CACHE", specfun.LRUMemo(256))
    monkeypatch.setattr(specfun._CONTOUR_CACHE, "size", 3)
    a, b, c = (specfun._contour_factor(0.25, 1j, g) for g in (1.0, 2.0, 3.0))
    assert specfun._contour_factor(0.25, 1j, 1.0) is a
    d = specfun._contour_factor(0.25, 1j, 4.0)
    assert list(specfun._CONTOUR_CACHE.values()) == [c, a, d]
    assert specfun._contour_factor(0.25, 1j, 2.0) is not b
    assert specfun._CONTOUR_CACHE.info() == (1, 5, 3)


@pytest.mark.parametrize("route", ["contour", "w_mb"])
def test_w_independent_of_nearby_orders_evaluated_before(route, cold_memos):
    # a contour factor serves only its exact (mu, rho, gamma): keyed by
    # numbers rounded to 12 digits, one made for mu = 0.1 + 3e-13 would serve
    # mu = 0.1, and W, which the W memo keeps under the exact mu, would
    # depend on what had been evaluated before
    xs = (0.7, 1.3, 2.9, 7.5)

    def w(mu):
        if route == "contour":
            return list(specfun._w_contour_many(mu, 1j, xs))
        return [whittaker_w_mb(WhittakerOrder(mu, 1.0), x, scaled=True) for x in xs]

    specfun._CONTOUR_CACHE.clear()
    cold = w(0.1)
    cold_memos()
    specfun._CONTOUR_CACHE.clear()
    w(0.1 + 3e-13)
    assert w(0.1) == cold


def test_w_contour_refuses_mixed_second_index():
    with pytest.raises(OrderError):
        specfun._w_contour_many(0.25, 0.3 + 0.5j, [1.0])
    with pytest.raises(OrderError):
        specfun._w_contour_general(0.25, 0.3 + 0.5j, 1.0, gamma=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_w_contour_x_power_beyond_double_range_refused():
    # |x^{-s}| = x^{-gamma} = e^921 on this line; math.exp raised OverflowError
    with pytest.raises(PrecisionBudgetExceeded):
        whittaker_w_mb(WhittakerOrder(0.0, 1.0), 0.01, gamma=200.0)


def _w_envelope(mu, tau, x):
    # 2|A| sqrt(x), A = Gamma(-2i tau) / Gamma(1/2 - i tau - mu): the
    # amplitude of the x^{+-i tau} oscillation of the scaled W at small x
    log_a = sp.loggamma(complex(0.0, -2.0 * tau)) - sp.loggamma(complex(0.5 - mu, -tau))
    return 2.0 * np.exp(log_a.real + 0.5 * np.log(x))


@pytest.mark.parametrize("mu", [-10.0, -0.4, 0.0, 0.45, 2.0, 10.0])
def test_w_series_accuracy_grid(mu):
    # against mpmath relative to the envelope: 1e-14 plus the rounding of the
    # phase tau ln x + arg A, which the series forms in double precision
    import mpmath as mp

    x = np.array([1e-300, 1e-100, 1e-30, 1e-12, 1e-5, 1e-3, specfun._W_SERIES_CUT])
    eps = np.finfo(float).eps
    for tau in (0.5, 1.0, 4.0, 16.0, 64.0):
        with mp.workdps(40):
            ref = np.array([float(mp.re(mp.whitw(mu, mp.mpc(0, tau), xi) * mp.exp(-xi / 2)))
                            for xi in x])
        phase = (tau * np.abs(np.log(x)) + abs(sp.loggamma(complex(0.0, -2.0 * tau)).imag)
                 + abs(sp.loggamma(complex(0.5 - mu, -tau)).imag))
        err = np.abs(specfun._w_series(mu, tau, x) - ref) / _w_envelope(mu, tau, x)
        assert np.all(err <= 1e-14 + 4.0 * eps * phase), (tau, err)


@pytest.mark.parametrize("mu", [-0.4, 0.0, 0.25, 0.45])
@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 4.0])
def test_w_series_meets_contour_at_cut(mu, tau):
    # the cut is summed by the series, the next double out by the contour;
    # at mu = 2 the contour itself errs by up to 5e-13 of the envelope here
    cut = specfun._W_SERIES_CUT
    rho = complex(0.0, tau)
    x = np.array([cut, np.nextafter(cut, 1.0)])
    inner, outer = specfun._w_scaled_many(mu, rho, x)
    assert inner == specfun._w_series(mu, tau, x[:1])[0]
    assert outer == specfun._w_contour_many(mu, rho, x[1:])[0]
    assert abs(inner - specfun._w_contour_many(mu, rho, x[:1])[0]) \
        <= 1e-13 * _w_envelope(mu, tau, cut)
    assert abs(outer - inner) <= 1e-13 * _w_envelope(mu, tau, cut)


def test_w_default_route_takes_series_only_in_its_range(monkeypatch, cold_memos):
    # below the cut, in double precision with no abscissa, tau in
    # [1/2, 64] and |mu| <= 10 take the series; every other request reaches
    # the contour or mpmath with the value it had before the series existed
    def refuse(mu, tau, x):
        raise AssertionError("series reached")

    x = 1e-3
    order = WhittakerOrder(0.25, 1.0)
    monkeypatch.setattr(specfun, "_w_series", refuse)
    with pytest.raises(AssertionError):
        whittaker_w_mb(order, x)

    def outcome(call, *args, **kwargs):
        # the value, or the refusal: at mu = 10.5 the contour stalls here
        try:
            return call(*args, **kwargs)
        except NonConvergence as e:
            return str(e)

    for mu, tau in ((0.25, 0.4999), (0.25, 64.5), (10.5, 1.0), (-10.5, 1.0)):
        got = outcome(whittaker_w_mb, WhittakerOrder(mu, tau), x, scaled=True)
        assert got == outcome(specfun._w_contour_general, mu, complex(0.0, tau), x)
    rho = complex(0.45, 0.0)
    assert specfun._w_scaled_many(0.1, rho, [x])[0] == specfun._w_contour_general(0.1, rho, x)
    got = whittaker_w_mb(order, x, gamma=0.5, scaled=True)
    assert got == specfun._w_contour_general(0.25, 1j, x, gamma=0.5)
    monkeypatch.setattr(specfun, "_w_mb_extended", lambda *args: "mpmath")
    assert whittaker_w_mb(order, x, quad=QuadSpec(precision="extended", dps=20)) == "mpmath"
    # above the cut every order takes the contour
    assert whittaker_w_mb(order, 0.06, scaled=True) == specfun._w_contour_general(0.25, 1j, 0.06)


_W_BATCH_X = st.one_of(st.floats(-40.0, 1.5).map(lambda e: 10.0 ** e),
                       st.sampled_from([0.05, float(np.nextafter(0.05, 1.0))]))


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(mu=st.floats(-0.45, 0.45), tau=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
       xs=st.lists(_W_BATCH_X, min_size=1, max_size=12),
       cut=st.integers(0, 11), seed=st.integers(0, 2 ** 32 - 1))
def test_w_value_independent_of_batch(mu, tau, xs, cut, seed):
    # the series takes a fixed term list per (mu, tau) and the contour stops
    # each x on its own, so a batch changes no value, on either side of the
    # cut or straddling it, or with the contour's rows spread over blocks
    # each call starts from an empty W memo, so it computes every value
    def fresh(xs):
        specfun.w_memo_clear()
        return specfun._w_scaled_many(mu, rho, xs)

    rho = complex(0.0, tau)
    x = np.array(xs)
    alone = np.array([fresh([xi])[0] for xi in xs])
    assert np.array_equal(fresh(x), alone)
    perm = np.random.default_rng(seed).permutation(x.size)
    assert np.array_equal(fresh(x[perm]), alone[perm])
    assert np.array_equal(fresh(x[cut:]), alone[cut:])
    with mock.patch.object(quad, "_BLOCK", 100):
        assert np.array_equal(fresh(x), alone)
    specfun.w_memo_clear()


# x on both sides of the series cut; tau 1/2..2 with x <= 0.05 takes the
# series, everything else the contour
_W_MEMO_X = (1e-6, 0.003, 0.05, float(np.nextafter(0.05, 1.0)), 0.7, 3.0, 12.0)
# the first two share a key (abs_tol does not enter the double route)
_W_MEMO_SPECS = (QuadSpec(), QuadSpec(abs_tol=1e-10), QuadSpec(rel_tol=1e-11),
                 QuadSpec(max_refinements=13), QuadSpec(max_evals=1_000_000))
_W_MEMO_RHOS = (0.5j, 1j, 2j, complex(0.3, 0.0))


def _w_memo_key(spec):
    return spec.rel_tol, spec.max_refinements, spec.max_evals


@st.composite
def _w_memo_batches(draw):
    # a batch and a warming call that shares each of mu, rho, spec or x
    # with it, or not
    mu = draw(st.sampled_from((-0.25, 0.0, 0.25)))
    rho = draw(st.sampled_from(_W_MEMO_RHOS))
    spec = draw(st.sampled_from(_W_MEMO_SPECS))
    xs = draw(st.lists(st.sampled_from(_W_MEMO_X), min_size=1, max_size=6))
    part = (draw(st.sampled_from((mu, -0.1))), draw(st.sampled_from((rho, 1.5j))),
            draw(st.sampled_from(_W_MEMO_SPECS)),
            draw(st.lists(st.sampled_from(_W_MEMO_X), min_size=1, max_size=6)))
    return mu, rho, spec, xs, part


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(batch=_w_memo_batches())
@example(batch=(0.25, 1j, QuadSpec(), [0.003, 0.7], (0.25, 1j, QuadSpec(abs_tol=1e-10),
                                                     [0.003, 0.7])))
def test_w_memo_warm_values_equal_cold_ones(batch):
    # a batch warmed by another call returns the bits of its cold call, on
    # the series and the contour alike; it hits, one point per x, exactly
    # when the warming call stored its key (mu, rho, rel_tol, max_refinements,
    # max_evals and the same x in the same order)
    mu, rho, spec, xs, (p_mu, p_rho, p_spec, p_xs) = batch
    specfun.w_memo_clear()
    cold = specfun._w_scaled_many(mu, rho, xs, spec)
    specfun.w_memo_clear()
    specfun._w_scaled_many(p_mu, p_rho, p_xs, p_spec)
    same = (p_mu, p_rho, _w_memo_key(p_spec)) == (mu, rho, _w_memo_key(spec))
    before = specfun.w_memo_info()
    warm = specfun._w_scaled_many(mu, rho, xs, spec)
    after = specfun.w_memo_info()
    assert np.array_equal(warm, cold)
    assert after.hits - before.hits == (len(xs) if same and p_xs == xs else 0)
    assert np.array_equal(specfun._w_scaled_many(mu, rho, xs, spec), cold)
    assert specfun.w_memo_info().misses == after.misses
    specfun.w_memo_clear()


def test_w_memo_evicts_least_recently_used(cold_memos, monkeypatch):
    monkeypatch.setattr(specfun._W_MEMO, "size", 4)

    def looked_up(*xs):
        # (hits, misses) of one call at xs
        before = specfun.w_memo_info()
        specfun._w_scaled_many(0.25, 1j, xs)
        after = specfun.w_memo_info()
        return after.hits - before.hits, after.misses - before.misses

    assert looked_up(0.01, 0.5, 1.0, 2.0) == (0, 4)
    assert looked_up(0.01, 0.5, 1.0, 2.0) == (4, 0)
    assert looked_up(0.01) == (0, 1)  # another batch: evicts the 4 points
    assert specfun.w_memo_info().entries == 1
    for x in (0.5, 1.0, 2.0):
        assert looked_up(x) == (0, 1)
    assert looked_up(0.01) == (1, 0)
    assert looked_up(3.0) == (0, 1)  # evicts x = 0.5, used longest ago
    assert specfun.w_memo_info().entries == 4
    assert looked_up(0.01) == (1, 0)
    assert looked_up(0.5) == (0, 1)
    assert specfun.w_memo_info().entries == 4


def test_w_memo_never_stores_a_batch_past_its_bound(cold_memos, monkeypatch):
    # a batch of more points than the bound is computed and returned, with
    # the bits of its points alone, but stored nowhere and evicting nothing
    monkeypatch.setattr(specfun._W_MEMO, "size", 4)
    small = specfun._w_scaled_many(0.25, 1j, [0.01, 2.0])
    xs = [0.01, 0.5, 1.0, 2.0, 3.0]
    alone = [specfun._w_scaled_many(0.25, 1j, [x])[0] for x in xs]
    cold_memos()
    specfun._w_scaled_many(0.25, 1j, [0.01, 2.0])
    for _ in range(2):
        assert specfun._w_scaled_many(0.25, 1j, xs).tolist() == alone
    assert specfun.w_memo_info() == (0, 12, 2)
    assert np.array_equal(specfun._w_scaled_many(0.25, 1j, [0.01, 2.0]), small)
    assert specfun.w_memo_info() == (2, 12, 2)


def test_w_memo_values_are_read_only(cold_memos):
    # a caller cannot change a stored batch in place
    cold = specfun._w_scaled_many(0.25, 1j, [0.01, 2.0]).copy()
    warm = specfun._w_scaled_many(0.25, 1j, [0.01, 2.0])
    assert specfun.w_memo_info().hits == 2
    with pytest.raises(ValueError):
        warm[0] = 0.0
    assert np.array_equal(specfun._w_scaled_many(0.25, 1j, [0.01, 2.0]), cold)


def test_w_memo_never_stores_a_refused_batch(cold_memos, monkeypatch):
    # x > 100 is refused on the contour's own abscissa, a stall raises
    # NonConvergence: each raises again on repeat, and nothing is stored
    for _ in range(2):
        with pytest.raises(PrecisionBudgetExceeded):
            specfun._w_scaled_many(0.25, 1j, [1.0, 150.0])
    assert specfun.w_memo_info() == (0, 4, 0)

    def stall(mu, rho, gamma, xs, spec):
        raise NonConvergence("stalled")

    with monkeypatch.context() as m:
        m.setattr(specfun, "_w_contour_group", stall)
        for _ in range(2):
            with pytest.raises(NonConvergence):
                specfun._w_scaled_many(0.25, 1j, [0.01, 2.0])
    assert specfun.w_memo_info().entries == 0
    got = specfun._w_scaled_many(0.25, 1j, [0.01, 2.0])
    assert got[1] == specfun._w_contour_general(0.25, 1j, 2.0)
    assert specfun.w_memo_info().entries == 2


def test_w_memo_bypassed_by_extended_precision(cold_memos, monkeypatch):
    from diwt.transforms import CoefficientSeq, ForwardHandle

    def no_double(*args):
        raise AssertionError("the double route ran for an extended request")

    monkeypatch.setattr(specfun, "_w_scaled_routed", no_double)
    ext = QuadSpec(precision="extended", dps=15)
    a = whittaker_w_mb(WhittakerOrder(0.25, 1.0), 0.7, quad=ext, scaled=True)
    assert whittaker_w_mb(WhittakerOrder(0.25, 1.0), 0.7, quad=ext, scaled=True) == a
    f = ForwardHandle(CoefficientSeq((1.0,)), 0.25)
    assert abs(float(f(0.7, ext)) - float(a)) <= 1e-13
    assert tuple(specfun.w_memo_info()) == (0, 0, 0)


@pytest.mark.parametrize("mu, rho", [(0.0, 0.25j), (0.0, 0j), (0.25, 0.45j),
                                     (0.1, complex(0.45, 0.0)), (-10.5, 1j)])
def test_w_contour_refuses_below_its_x_floor(mu, rho):
    # outside the series leaf the contour answered any x: at mu 0, tau 1/4
    # and x 1e-90 it gave 7.4e-39 where mpmath gives 2.1e-45, and 1.5e-39
    # for 1.2e-43 at tau 0; below 1e-30 it now refuses
    floor = specfun._W_CONTOUR_X_MIN
    for x in (1e-90, np.nextafter(floor, 0.0)):
        with pytest.raises(PrecisionBudgetExceeded):
            specfun._w_contour_many(mu, rho, [1.0, x])
        with pytest.raises(PrecisionBudgetExceeded):
            specfun._w_scaled_many(mu, rho, [x])
    assert math.isfinite(specfun._w_contour_general(mu, rho, floor))
    assert math.isfinite(specfun._w_contour_general(mu, rho, floor, gamma=0.5))
    with pytest.raises(PrecisionBudgetExceeded):
        specfun._w_contour_general(mu, rho, 1e-40, gamma=0.5)


def test_w_tiny_x_examples_refused():
    for tau in (0.25, 0.0):
        with pytest.raises(PrecisionBudgetExceeded):
            whittaker_w_mb(WhittakerOrder(0.0, tau), 1e-90, scaled=True)


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


def test_w_bessel_refuses_beyond_its_tau_range():
    # past tau = 4.25 the route's roundoff leaves fewer than eight digits
    top = specfun._W_BESSEL_TAU_MAX
    contour = whittaker_w_mb(WhittakerOrder(0.25, top), 1.0)
    assert abs(whittaker_w_bessel(WhittakerOrder(0.25, top), 1.0) - contour) <= 1e-7 * abs(contour)
    for tau in (np.nextafter(top, 5.0), -4.5, 6.0):
        with pytest.raises(PrecisionBudgetExceeded):
            whittaker_w_bessel(WhittakerOrder(0.25, tau), 1.0)


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


@pytest.mark.parametrize("x", [30.0, 60.0])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_incomplete_bessel_by_parts_large_x(x, n):
    # both forms carry e^{-x} outside the integral, so they keep their
    # relative accuracy where the unscaled by-parts form was off by 4e-2
    import mpmath as mp

    with mp.workdps(40):
        want = float(mp.exp(-x) * mp.quad(
            lambda u: mp.exp(-2 * x * mp.sinh(u / 2) ** 2) * mp.cos(n * u),
            [0, 0.1, 0.5, mp.pi]))
    assert abs(_incomplete_bessel_j_by_parts(x, n) / want - 1.0) < 1e-12
    assert abs(incomplete_bessel_j(x, n) / want - 1.0) < 1e-13


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
