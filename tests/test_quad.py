"""Quadrature engine tests: closed-form oracles, invariants, failure modes."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from diwt.errors import InvalidDecayScale, InvalidInterval, TailNotNegligible
from diwt import quad
from diwt.quad import (
    DEFAULT_SPEC,
    IntegralResult,
    MellinBarnesSpec,
    QuadSpec,
    integrate_finite,
    integrate_finite_rows,
    integrate_semi_infinite,
    integrate_semi_infinite_rows,
    integrate_vertical_line,
    integrate_vertical_line_rows,
)


# ---------------------------------------------------------------------------
# finite intervals
# ---------------------------------------------------------------------------

def test_polynomial_exact():
    r = integrate_finite(lambda x: 2 * x, 0.0, 1.0)
    assert r.converged
    assert abs(r.value - 1.0) < 1e-13


def test_full_period_cosine_is_zero():
    r = integrate_finite(np.cos, 0.0, 2.0 * math.pi)
    assert r.converged
    assert abs(r.value) < 1e-12


@pytest.mark.parametrize("power,exact", [(-0.5, 2.0), (-0.9, 10.0), (-0.25, 4.0 / 3.0)])
def test_left_endpoint_singularity(power, exact):
    r = integrate_finite(lambda x: x ** power, 0.0, 1.0)
    assert r.converged
    assert abs(r.value - exact) < 1e-12 * abs(exact)


def test_log_singularity():
    r = integrate_finite(np.log, 0.0, 1.0)
    assert r.converged
    assert abs(r.value + 1.0) < 1e-12


def test_smooth_antiderivative_oracle():
    # d/dx (x**3 + sin x) = 3x**2 + cos x
    exact = (27.0 + math.sin(3.0)) - (1.0 + math.sin(1.0))
    r = integrate_finite(lambda x: 3 * x ** 2 + np.cos(x), 1.0, 3.0)
    assert r.converged
    assert abs(r.value - exact) < 1e-12 * exact


def test_complex_integrand():
    r = integrate_finite(lambda x: np.exp(1j * x), 0.0, 1.0)
    exact = math.sin(1.0) + 1j * (1.0 - math.cos(1.0))
    assert r.converged
    assert abs(r.value - exact) < 1e-13


def test_scalar_only_callable_fallback():
    r = integrate_finite(math.exp, 0.0, 1.0)
    assert r.converged
    assert abs(r.value - (math.e - 1.0)) < 1e-12


def test_result_invariant_on_convergence():
    for f, a, b in [(np.exp, 0.0, 1.0), (lambda x: 1.0 / np.sqrt(x), 0.0, 2.0)]:
        r = integrate_finite(f, a, b)
        assert isinstance(r, IntegralResult)
        if r.converged:
            assert r.error_estimate <= max(DEFAULT_SPEC.abs_tol,
                                           DEFAULT_SPEC.rel_tol * abs(r.value))


def test_linearity():
    rng = np.random.default_rng(20240817)
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-12)
    for _ in range(5):
        c = rng.normal(size=6)
        f = lambda x: c[0] + c[1] * x + c[2] * np.sin(x)
        g = lambda x: c[3] * x ** 2 + c[4] * np.cos(2 * x) + c[5]
        al, be = rng.normal(size=2)
        lhs = integrate_finite(lambda x: al * f(x) + be * g(x), 0.0, 2.0, spec).value
        rhs = (al * integrate_finite(f, 0.0, 2.0, spec).value
               + be * integrate_finite(g, 0.0, 2.0, spec).value)
        assert abs(lhs - rhs) <= 10 * spec.abs_tol + 1e-14 * abs(rhs)


def test_refinement_monotonicity():
    # halving abs_tol never worsens the achieved error estimate
    prev = math.inf
    tol = 1e-4
    while tol > 1e-12:
        r = integrate_finite(lambda x: np.exp(x) * np.sin(3 * x), 0.0, 2.0,
                             QuadSpec(abs_tol=tol, rel_tol=1e-15))
        assert r.error_estimate <= prev * (1 + 1e-12)
        prev = r.error_estimate
        tol *= 0.5


def test_determinism_bit_identical():
    f = lambda x: np.exp(-x) * np.cos(5 * x)
    r1 = integrate_finite(f, 0.0, 3.0)
    r2 = integrate_finite(f, 0.0, 3.0)
    assert r1.value == r2.value
    assert r1.error_estimate == r2.error_estimate
    assert r1.evaluations == r2.evaluations


def test_budget_exhaustion_flagged_not_raised():
    spec = QuadSpec(abs_tol=1e-15, rel_tol=1e-15, max_refinements=2)
    r = integrate_finite(lambda x: np.cos(37.7 * x) / np.sqrt(x), 0.0, 1.0, spec)
    assert not r.converged
    assert r.error_estimate > max(spec.abs_tol, spec.rel_tol * abs(r.value))


def test_max_evals_budget():
    spec = QuadSpec(max_evals=100)
    r = integrate_finite(lambda x: np.cos(50 * x) * x ** -0.5, 0.0, 1.0, spec)
    assert r.evaluations <= 100
    assert not r.converged


# rows that freeze at levels 2, 3 and 4 at these tolerances, plus an
# oscillation that runs into the evaluation budget after level 5
ROW_FUNCS = (
    lambda x: 2 * x,
    lambda x: x ** -0.5,
    lambda x: np.exp(x),
    lambda x: np.cos(50 * x) * x ** -0.5,
)
ROW_TOLS = (1e-4, 1e-8, 1e-12, 1e-15)
ROW_SPEC = QuadSpec(rel_tol=1e-15, max_evals=400)


def _family(funcs, asked):
    def F(xs, rows):
        asked.append(list(rows))
        return np.array([funcs[i](xs) for i in rows])
    return F


def _same_result(a, b):
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations
    assert a.converged == b.converged
    assert a.meta == b.meta


def test_rows_equal_single_row_integrals():
    asked = []
    rows = integrate_finite_rows(_family(ROW_FUNCS, asked), 0.0, 1.0, ROW_TOLS, ROW_SPEC)
    for f, tol, r in zip(ROW_FUNCS, ROW_TOLS, rows):
        _same_result(r, integrate_finite(f, 0.0, 1.0, replace(ROW_SPEC, abs_tol=tol)))
    assert [r.meta["levels"] for r in rows] == [2, 3, 4, 5]
    assert [r.converged for r in rows] == [True, True, True, False]
    # stopped below max_refinements: the evaluation budget ended it
    assert rows[3].meta["levels"] < ROW_SPEC.max_refinements
    # F is asked for a row at every level up to its own (twice at level 0:
    # nodes, then midpoint), and never after
    for i, r in enumerate(rows):
        assert sum(i in a for a in asked) == r.meta["levels"] + 2


def test_rows_complex_and_budget_shared():
    # rows are summed in F's dtype, so a complex family holds complex rows
    funcs = (lambda x: np.exp(1j * x), lambda x: np.exp(37.7j * x) / np.sqrt(x))
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-15, max_refinements=4)
    rows = integrate_finite_rows(_family(funcs, []), 0.0, 2.0, [1e-12, 1e-12], spec)
    for f, r in zip(funcs, rows):
        _same_result(r, integrate_finite(f, 0.0, 2.0, spec))
    assert isinstance(rows[0].value, complex)
    assert not rows[1].converged


# ROW_FUNCS under ROW_SPEC close at levels 2 to 4 or run out of budget; the
# complex family gives each a phase
COMPLEX_ROW_FUNCS = tuple((lambda x, f=f: f(x) * np.exp(0.5j * x)) for f in ROW_FUNCS)
BUDGET_ROW = 3


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1), complex_family=st.booleans())
def test_rows_property_each_row_equals_its_own_integral(n, seed, complex_family):
    # random rows and abs_tols, so rows close at interleaved levels; the
    # abs_tols come from a grid, so each distinct row is integrated alone once
    funcs = COMPLEX_ROW_FUNCS if complex_family else ROW_FUNCS
    rng = np.random.default_rng(seed)
    which = rng.integers(0, len(funcs), n)
    tols = 10.0 ** rng.integers(-15, -1, n).astype(float)
    budget = int(rng.integers(n))
    which[budget], tols[budget] = BUDGET_ROW, 1e-15
    rows = integrate_finite_rows(_family([funcs[k] for k in which], []), 0.0, 1.0,
                                 tols.tolist(), ROW_SPEC)
    alone = {}
    for k, tol, r in zip(which.tolist(), tols.tolist(), rows):
        if (k, tol) not in alone:
            alone[k, tol] = integrate_finite(funcs[k], 0.0, 1.0, replace(ROW_SPEC, abs_tol=tol))
        _same_result(r, alone[k, tol])
        assert isinstance(r.value, complex) == complex_family
    assert not rows[budget].converged
    assert rows[budget].meta["levels"] < ROW_SPEC.max_refinements


def test_rows_empty_family():
    assert integrate_finite_rows(_family(ROW_FUNCS, []), 0.0, 1.0, [], ROW_SPEC) == []


def test_row_magnitudes_match_scalar_abs():
    # the row loop's error estimates and stop tests take these magnitudes;
    # np.abs of a complex array can differ from abs() in the last bit
    rng = np.random.default_rng(3)
    z = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-30, 30, 10_000) \
        + 1j * rng.standard_normal(10_000)
    assert quad._magnitude(z).tolist() == [abs(v) for v in z.tolist()]
    assert quad._magnitude(z.real).tolist() == [abs(v) for v in z.real.tolist()]


def test_semi_infinite_rows_group_by_truncation():
    funcs = (lambda t: np.exp(-t), lambda t: t * np.exp(-t), lambda t: np.exp(-2 * t))
    tols = (1e-6, 1e-12, 1e-6)
    rows = integrate_semi_infinite_rows(_family(funcs, []), 1.0, tols, DEFAULT_SPEC)
    for f, tol, r in zip(funcs, tols, rows):
        _same_result(r, integrate_semi_infinite(f, 1.0, replace(DEFAULT_SPEC, abs_tol=tol)))
    assert rows[0].meta["truncation_point"] != rows[1].meta["truncation_point"]


def test_invalid_interval():
    for a, b in [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(InvalidInterval):
            integrate_finite(np.exp, a, b)


def test_quadspec_validation():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=-1e-3)
    with pytest.raises(ValueError):
        QuadSpec(max_refinements=0)
    with pytest.raises(ValueError):
        QuadSpec(precision="quad")


# ---------------------------------------------------------------------------
# semi-infinite
# ---------------------------------------------------------------------------

def test_exponential_tail():
    r = integrate_semi_infinite(lambda t: np.exp(-t), 1.0)
    assert r.converged
    assert abs(r.value - 1.0) < 1e-12
    assert r.meta["truncation_point"] > 0
    assert r.meta["tail_bound"] <= DEFAULT_SPEC.abs_tol


def test_gaussian_tail():
    r = integrate_semi_infinite(lambda t: np.exp(-t * t), 1.0)
    assert abs(r.value - 0.5 * math.sqrt(math.pi)) < 1e-12


def test_gamma_style_decay():
    # t e^(-t/2) integrates to 4
    r = integrate_semi_infinite(lambda t: t * np.exp(-t / 2.0), 2.0)
    assert abs(r.value - 4.0) < 1e-12


def test_modified_bessel_integrand_cross_check():
    # e^(-cosh t) cos(t/2) over (0,inf) is the cosh-integral form of a
    # modified Bessel value with purely imaginary order
    from diwt.specfun import bessel_k_imag

    r = integrate_semi_infinite(lambda t: np.exp(-np.cosh(t)) * np.cos(0.5 * t), 1.0)
    assert abs(r.value - bessel_k_imag(0.5, 1.0)) < 1e-12


def test_invalid_decay_scale():
    for d in [0.0, -1.0, math.inf, math.nan]:
        with pytest.raises(InvalidDecayScale):
            integrate_semi_infinite(np.exp, d)


# ---------------------------------------------------------------------------
# vertical line
# ---------------------------------------------------------------------------

def test_gamma_line_integral_recovers_exp():
    mb = MellinBarnesSpec(gamma_abscissa=1.0)
    r = integrate_vertical_line(lambda s: sp.gamma(s) * 1.0 ** (-s), mb)
    assert r.converged
    assert abs(r.value - math.exp(-1.0)) < 1e-10 * math.exp(-1.0)


def test_gamma_pair_line_integral_is_bessel():
    mb = MellinBarnesSpec(gamma_abscissa=1.0)
    r = integrate_vertical_line(lambda s: sp.gamma(s + 0.3) * sp.gamma(s - 0.3), mb)
    exact = 2.0 * sp.kv(0.6, 2.0)
    assert abs(r.value - exact) < 1e-10 * exact


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_contour_shift_independence(x):
    vals = []
    for gam in (0.5, 1.0, 2.0):
        mb = MellinBarnesSpec(gamma_abscissa=gam)
        vals.append(integrate_vertical_line(lambda s: sp.gamma(s) * x ** (-s), mb).value)
    exact = math.exp(-x)
    for v in vals:
        assert abs(v - exact) < 1e-10 * exact
    assert max(abs(v - vals[0]) for v in vals) < 1e-10 * exact


def test_tail_not_negligible_raises():
    mb = MellinBarnesSpec(gamma_abscissa=1.0, tail_cutoff=5.0)
    with pytest.raises(TailNotNegligible):
        integrate_vertical_line(lambda s: np.ones_like(s), mb)


# Gamma(s - d) on Re s = 1 has a pole at distance 1 - d from the line: at
# d = 0.7 the rows close at levels 2, 3 and 4 (643, 1283, 2563 nodes), at
# d = 0.9 the budget ends the row after level 4; the last row's tail at
# |t| = 40 is 6e-4 and is refused
LINE_FUNCS = (
    lambda s: sp.gamma(s - 0.7),
    lambda s: sp.gamma(s - 0.7),
    lambda s: sp.gamma(s - 0.7),
    lambda s: sp.gamma(s - 0.9),
    lambda s: 1.0 / (1.0 + (s - 1.0) ** 2),
)
LINE_TOLS = (1e-3, 1e-6, 1e-9, 1e-9, 1e-9)
LINE_MB = MellinBarnesSpec(1.0, 40.0, QuadSpec(rel_tol=1e-15, max_evals=3000))


def _line_alone(g, tol):
    return integrate_vertical_line(g, replace(LINE_MB, quad=replace(LINE_MB.quad, abs_tol=tol)))


def test_line_rows_equal_single_row_integrals():
    asked = []
    rows = integrate_vertical_line_rows(_family(LINE_FUNCS, asked), LINE_MB, LINE_TOLS)
    for g, tol, r in zip(LINE_FUNCS[:4], LINE_TOLS, rows):
        _same_result(r, _line_alone(g, tol))
    assert [r.evaluations for r in rows[:4]] == [643, 1283, 2563, 2563]
    assert [r.converged for r in rows[:4]] == [True, True, True, False]
    # the refused row holds the error its one-row integral raises, and G
    # is not asked for it after the tail check
    assert isinstance(rows[4], TailNotNegligible)
    with pytest.raises(TailNotNegligible) as alone:
        _line_alone(LINE_FUNCS[4], LINE_TOLS[4])
    assert str(alone.value) == str(rows[4])
    assert all(4 not in a for a in asked[1:])


def test_line_rows_blocks_stay_under_cap(monkeypatch):
    # 300 rows of Gamma(s) x^-s exceed 2^16 entries from level 2 (320 new
    # nodes) on; each block is one G call
    lnx = np.log(np.linspace(0.5, 3.0, 300))
    mb = MellinBarnesSpec(1.0, 40.0)

    def run():
        sizes = []

        def G(s, rows):
            sizes.append((len(rows), s.size))
            return sp.gamma(s) * np.exp(-s * lnx[rows, None])

        return integrate_vertical_line_rows(G, mb, [1e-12] * lnx.size), sizes

    wide, sizes = run()
    assert quad._BLOCK == 2 ** 16
    assert max(r * w for r, w in sizes) <= 2 ** 16 < sum(r * w for r, w in sizes)
    assert all(r.converged for r in wide)
    # a cap below one row's nodes asks for one row at a time; nothing changes
    monkeypatch.setattr(quad, "_BLOCK", 100)
    narrow, sizes = run()
    assert all(r * w <= max(100, w) for r, w in sizes)
    assert any(w > 100 for _, w in sizes)
    for a, b in zip(wide, narrow):
        _same_result(a, b)
    _same_result(wide[7], integrate_vertical_line(lambda s: sp.gamma(s) * np.exp(-s * lnx[7]),
                                                  replace(mb, quad=replace(mb.quad, abs_tol=1e-12))))


def test_line_level_zero_always_runs():
    # T = 200 puts 801 nodes on level 0, past the smallest budget of 100;
    # the budget applies from level 1 on, so level 0 (and the two tail
    # nodes) run and the result is flagged, not empty
    mb = MellinBarnesSpec(1.0, 200.0, QuadSpec(max_evals=100))
    r = integrate_vertical_line(lambda s: sp.gamma(s) * 2.0 ** (-s), mb)
    assert r.evaluations == 803
    assert not r.converged
    assert r.error_estimate == math.inf
    assert abs(r.value - math.exp(-2.0)) < 1e-5
    rows = integrate_vertical_line_rows(
        lambda s, rows: sp.gamma(s) * np.exp(-s * np.log([2.0, 3.0])[rows, None]), mb,
        [1e-14, 1e-14])
    _same_result(rows[0], r)
    assert [x.evaluations for x in rows] == [803, 803]


# rows of Gamma(s) x^-s close at interleaved levels under LINE_MB
LINE_ROW_XS = (0.5, 1.0, 2.0, 3.5)
LINE_BUDGET_ROW, LINE_REFUSED_ROW = LINE_FUNCS[3], LINE_FUNCS[4]


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       block=st.sampled_from([None, None, 100, 5000]))
def test_line_rows_property_each_row_equals_its_own_integral(n, seed, block):
    # random rows and grid abs_tols, one row the budget ends and one whose
    # tail is refused, at random places; some families run in small blocks
    rng = np.random.default_rng(seed)
    which = rng.integers(0, len(LINE_ROW_XS), n).tolist()
    tols = (10.0 ** rng.integers(-15, -1, n).astype(float)).tolist()
    funcs = [lambda s, x=LINE_ROW_XS[k]: sp.gamma(s) * x ** (-s) for k in which]
    budget = int(rng.integers(n + 1))
    funcs.insert(budget, LINE_BUDGET_ROW)
    tols.insert(budget, 1e-9)
    which.insert(budget, "budget")
    refused = int(rng.integers(n + 2))
    funcs.insert(refused, LINE_REFUSED_ROW)
    tols.insert(refused, 1e-9)
    which.insert(refused, "refused")
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(quad, "_BLOCK", block)
        rows = integrate_vertical_line_rows(_family(funcs, []), LINE_MB, tols)
    alone = {}
    for k, g, tol, r in zip(which, funcs, tols, rows):
        if (k, tol) not in alone:
            try:
                alone[k, tol] = _line_alone(g, tol)
            except TailNotNegligible as e:
                alone[k, tol] = e
        if isinstance(alone[k, tol], TailNotNegligible):
            assert isinstance(r, TailNotNegligible)
            assert str(r) == str(alone[k, tol])
        else:
            _same_result(r, alone[k, tol])
    assert isinstance(rows[refused], TailNotNegligible)
    b = rows[budget if budget < refused else budget + 1]
    assert not b.converged and b.evaluations == 2563


def test_line_imaginary_part_reported():
    # conjugate-symmetric integrand: imaginary part must come back tiny
    mb = MellinBarnesSpec(gamma_abscissa=1.0)
    r = integrate_vertical_line(lambda s: sp.gamma(s) * 2.0 ** (-s), mb)
    v = complex(r.value)
    assert abs(v.imag) < 1e-14


# ---------------------------------------------------------------------------
# extended precision
# ---------------------------------------------------------------------------

def test_extended_precision_singularity():
    import mpmath as mp

    spec = QuadSpec(precision="extended", dps=30)
    r = integrate_finite(lambda x: 1 / mp.sqrt(x), 0.0, 1.0, spec)
    assert r.converged
    with mp.workdps(30):
        assert abs(mp.mpf(r.value) - 2) < mp.mpf("1e-25")


def test_extended_precision_line():
    import mpmath as mp

    spec = QuadSpec(precision="extended", dps=30)
    mb = MellinBarnesSpec(gamma_abscissa=1.0, tail_cutoff=80.0, quad=spec)
    r = integrate_vertical_line(lambda s: mp.gamma(s) * mp.power(2.0, -s), mb)
    with mp.workdps(30):
        assert abs(r.value - mp.exp(-2)) < mp.mpf("1e-20")
