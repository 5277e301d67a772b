"""Kernel tests: reductions, index relations, overflow safety, tables."""

import math

import numpy as np
import pytest

from diwt import kernels
from diwt.errors import DomainError, OrderError
from diwt.kernels import (
    KernelKind,
    build_kernel_table,
    cylinder_cos_kernel,
    cylinder_sin_kernel,
    erfc_cos_kernel,
    _cylinder_sin_kernel_full_range,
)
from diwt.quad import QuadSpec
from diwt.specfun import ComplexIndex, parabolic_cylinder_d_scaled


# ---------------------------------------------------------------------------
# reductions and closed-form links
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_cylinder_cos_reduces_to_erfc_form(n, x):
    # at mu = 0 the scaled cylinder profile is sqrt(pi/2) times scaled erfc
    a = cylinder_cos_kernel(0.0, n, x)
    b = math.sqrt(math.pi / 2.0) * erfc_cos_kernel(n, x)
    assert a.imag == 0.0
    assert abs(a.real - b) < 1e-10 * max(abs(b), 1e-6)


def test_cylinder_cos_kernel_near_half_order():
    # mu = 0.495 puts the profile at alpha = 0.01, where the cylinder
    # quadrature stalled; the tanh-sinh estimate (~1e-18) leaves out the
    # ~5e-16 roundoff of the result, so the check is the tolerance the
    # kernel reports convergence to
    spec = QuadSpec()
    v, err = kernels._kernel_value(KernelKind.CYLINDER_COS, 0.495, 1, 1.0, spec)
    want = float(kernels._kernel_eval_mp(KernelKind.CYLINDER_COS, 0.495, 1.0, 1.0, 30))
    assert cylinder_cos_kernel(0.495, 1, 1.0) == v
    assert abs(v - want) <= max(err, spec.abs_tol, spec.rel_tol * abs(v))


def test_cylinder_cos_positive_at_zero_index():
    v = cylinder_cos_kernel(0.25, 0, 1.0)
    assert v.real > 0.0


def test_cylinder_cos_envelope():
    # |cos| <= 1 so the zero-index value dominates in magnitude
    assert abs(cylinder_cos_kernel(0.25, 2, 2.0)) <= cylinder_cos_kernel(0.25, 0, 2.0).real


def test_erfc_kernel_large_x_no_overflow():
    v = erfc_cos_kernel(1, 50.0)
    assert np.isfinite(v)


def test_erfc_kernel_higher_index_smaller():
    assert abs(erfc_cos_kernel(3, 1.0)) < abs(erfc_cos_kernel(1, 1.0))


def test_erfc_kernel_tight_tolerance_consistent():
    loose = erfc_cos_kernel(3, 1.0)
    tight = erfc_cos_kernel(3, 1.0, QuadSpec(abs_tol=1e-15, rel_tol=1e-14))
    assert abs(loose - tight) < 1e-12


# ---------------------------------------------------------------------------
# sine kernel and the complex-index relation
# ---------------------------------------------------------------------------

def test_sine_kernel_fold_matches_full_range():
    a = cylinder_sin_kernel(0.0, 1, 1.0)
    b = _cylinder_sin_kernel_full_range(0.0, 1, 1.0)
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("mu", [-0.25, 0.0, 0.25])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_sine_kernel_complex_index_relation(mu, n, x):
    # the sine kernel equals twice the imaginary part of the cosine kernel
    # at order shifted down by 1/2 and complex index (n - i)/2
    lhs = cylinder_sin_kernel(mu, n, x)
    rhs = 2.0 * cylinder_cos_kernel(mu - 0.5, ComplexIndex(n / 2.0, -0.5), x).imag
    assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), 1e-9)


def test_sine_kernel_example_point():
    lhs = cylinder_sin_kernel(0.25, 1, 1.0)
    rhs = 2.0 * cylinder_cos_kernel(-0.25, ComplexIndex(0.5, -0.5), 1.0).imag
    assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


def test_sine_kernel_brute_force_trapezoid_oracle():
    nodes = 100001
    u = np.linspace(0.0, math.pi, nodes)
    g = parabolic_cylinder_d_scaled(2.0, math.sqrt(2.0 * 0.5) * np.cosh(u)) \
        * np.sinh(u) * np.sin(2.0 * u)
    trap = 2.0 * (np.sum(g[1:-1]) + 0.5 * (g[0] + g[-1])) * (math.pi / (nodes - 1))
    assert abs(cylinder_sin_kernel(0.0, 2, 0.5) - trap) < 1e-8


# ---------------------------------------------------------------------------
# index decay
# ---------------------------------------------------------------------------

def test_index_decay_algebraic_boundedness():
    # Fourier coefficients of the kernel profile decay algebraically, not
    # exponentially: the even periodic extension of the integrand has a
    # derivative kink at the interval end, giving a 1/(1+4n^2) envelope.
    # The inversion integrals still gain their exponential factor from
    # oscillation cancellation, but pointwise kernel values do not.
    for mu, x in [(0.25, 1.0), (0.0, 2.0), (-0.25, 0.5)]:
        scaled = [abs(cylinder_cos_kernel(mu, n, x)) * (1.0 + 4.0 * n * n)
                  for n in range(1, 5)]
        top = max(scaled)
        assert top < 20.0 * max(scaled[0], 1e-12)
        # growth between consecutive scaled values stays mild (no e^{2 pi} jumps)
        for a, b in zip(scaled, scaled[1:]):
            assert b < 5.0 * max(a, 1e-12)


def test_realness_for_real_index():
    for n in (0, 1, 3):
        assert cylinder_cos_kernel(0.1, n, 1.5).imag == 0.0


# ---------------------------------------------------------------------------
# validation and errors
# ---------------------------------------------------------------------------

def test_order_errors():
    with pytest.raises(OrderError):
        cylinder_cos_kernel(0.5, 1, 1.0)
    with pytest.raises(OrderError):
        cylinder_sin_kernel(0.75, 1, 1.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        cylinder_cos_kernel(0.0, 1, 0.0)
    with pytest.raises(DomainError):
        erfc_cos_kernel(0, 1.0)
    with pytest.raises(DomainError):
        erfc_cos_kernel(1, -1.0)
    with pytest.raises(DomainError):
        cylinder_sin_kernel(0.0, 1.5, 1.0)


def test_query_validation():
    tab = build_kernel_table(KernelKind.ERFC_COS, 0.3, [ComplexIndex(1, 0)], [1.0])
    assert tab.mu == 0.0  # mu is meaningless for the erfc kernel
    with pytest.raises(DomainError):
        build_kernel_table(KernelKind.CYLINDER_SIN, 0.0, [ComplexIndex(1, 0.5)], [1.0])
    with pytest.raises(OrderError):
        build_kernel_table(KernelKind.CYLINDER_COS, 0.6, [ComplexIndex(1, 0)], [1.0])
    with pytest.raises(DomainError):
        build_kernel_table(KernelKind.ERFC_COS, 0.0, [ComplexIndex(1, 0)], [-2.0])


def _no_integral(*args, **kwargs):
    raise AssertionError("a kernel integral ran for an invalid request")


@pytest.mark.parametrize("n, x", [
    (math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (1, math.inf), (1, math.nan),
])
@pytest.mark.parametrize("call", [
    lambda n, x: cylinder_cos_kernel(0.0, n, x),
    lambda n, x: erfc_cos_kernel(n, x),
    lambda n, x: cylinder_sin_kernel(0.0, n, x),
    lambda n, x: build_kernel_table(KernelKind.CYLINDER_COS, 0.0, [1, n], [1.0, x]),
    lambda n, x: build_kernel_table(KernelKind.CYLINDER_SIN, 0.0, [1, n], [1.0, x]),
], ids=["cos", "erfc", "sin", "table-cos", "table-sin"])
def test_nonfinite_request_refused_before_integrating(monkeypatch, call, n, x):
    monkeypatch.setattr(kernels, "_kernel_eval", _no_integral)
    with pytest.raises(DomainError):
        call(n, x)


def test_table_orders_indices_by_first_appearance_and_sorts_grid():
    tab = build_kernel_table(KernelKind.ERFC_COS, 0.0, [2, 1, 2.0], [2.0, 1.0, 2.0])
    assert [i.re for i in tab.indices] == [2.0, 1.0]
    assert tab.grid == (1.0, 2.0)
    assert tab.values[0][0] == erfc_cos_kernel(2, 1.0)


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------

def test_table_single_entry():
    tab = build_kernel_table(KernelKind.ERFC_COS, 0.0, [1], [1.0])
    assert tab.entry_count == 1
    assert tab.values[0][0] == erfc_cos_kernel(1, 1.0)


def test_table_grid_bit_identical():
    ns = [1, 2, 3]
    xs = [0.5, 1.0, 2.0, 4.0]
    tab = build_kernel_table(KernelKind.ERFC_COS, 0.0, ns, xs)
    assert tab.entry_count == 12
    assert not tab.failures
    for i, n in enumerate(ns):
        for j, x in enumerate(xs):
            assert tab.values[i][j] == erfc_cos_kernel(n, x)


def test_table_refinement_property():
    loose_spec = QuadSpec(abs_tol=1e-8, rel_tol=1e-6)
    tight_spec = QuadSpec(abs_tol=1e-13, rel_tol=1e-12)
    loose = build_kernel_table(KernelKind.ERFC_COS, 0.0, [1, 2], [1.0], loose_spec)
    tight = build_kernel_table(KernelKind.ERFC_COS, 0.0, [1, 2], [1.0], tight_spec)
    for i in range(2):
        assert abs(loose.values[i][0] - tight.values[i][0]) < 1e-8 + 1e-6 * abs(tight.values[i][0])


def test_table_marks_failures_instead_of_raising():
    # starving the quadrature budget forces per-entry non-convergence
    starved = QuadSpec(abs_tol=1e-15, rel_tol=1e-15, max_evals=100)
    tab = build_kernel_table(KernelKind.ERFC_COS, 0.0, [1], [1.0], starved)
    assert len(tab.failures) == 1
    assert math.isnan(tab.values[0][0])


def test_table_metadata():
    tab = build_kernel_table(KernelKind.CYLINDER_SIN, 0.25, [1], [1.0])
    assert "tool_version" in tab.meta
    assert tab.meta["quad"]["precision"] == "double"
    assert tab.achieved_tolerances[0][0] < 1e-10


def test_extended_precision_kernel():
    ext = QuadSpec(precision="extended", dps=25)
    a = cylinder_cos_kernel(0.25, 1, 1.0, ext)
    b = cylinder_cos_kernel(0.25, 1, 1.0)
    assert abs(complex(a) - b) < 1e-12
