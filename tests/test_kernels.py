"""Kernel tests: reductions, index relations, overflow safety, tables."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diwt import kernels, specfun
from diwt.errors import DomainError, OrderError
from diwt.kernels import (
    KernelKind,
    build_kernel_table,
    cylinder_cos_kernel,
    cylinder_sin_kernel,
    erfc_cos_kernel,
    kernel_memo_info,
    _cylinder_sin_kernel_full_range,
)
from diwt.quad import QuadSpec, _level_nodes
from diwt.specfun import ComplexIndex, _cyl_profile, parabolic_cylinder_d_scaled
from diwt.transforms import CoefficientSeq, ForwardHandle, FourierPolynomial, ProfileHandle, \
    TransformParams, invert_many


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


@pytest.mark.parametrize("kind, mu, ns", [
    (KernelKind.CYLINDER_COS, 0.25, [1.0, complex(1.5, -0.5), 2.0]),
    (KernelKind.ERFC_COS, 0.0, [1.0, 2.0, 3.0]),
    (KernelKind.CYLINDER_SIN, -0.25, [1.0, 2.0, 3.0]),
], ids=["cos", "erfc", "sin"])
def test_many_x_equals_one_x_calls(kind, mu, ns, cold_memos):
    # rows are (x, index) pairs on shared u nodes, with one cylinder call
    # per level for the open x; each entry is that of a call at its x
    # alone, every call integrated from an empty memo
    xs = [0.05, 0.3, 1.0, 2.5, 7.0]
    specs = [QuadSpec(abs_tol=t) for t in (1e-14, 1e-11, 1e-9)]
    many = kernels._kernel_eval_many(kind, mu, ns, xs, specs)
    assert len(many) == len(xs)
    for x, got in zip(xs, many):
        cold_memos()
        assert got == kernels._kernel_eval_many(kind, mu, ns, [x], specs)[0]
        if kind is not KernelKind.CYLINDER_COS:
            # a real family: each row is also its own one-index integral
            for n, q, entry in zip(ns, specs, got):
                cold_memos()
                assert entry == kernels._kernel_eval(kind, mu, n, x, q)
    assert kernel_memo_info().hits == 0


# each case evaluates cylinder profiles at several x on shared u levels
_CYL_PROFILE_CALLERS = {
    "cos": lambda xs: kernels._kernel_eval_many(
        KernelKind.CYLINDER_COS, 0.25, [1, 2], xs, [QuadSpec()] * 2),
    "sin": lambda xs: kernels._kernel_eval_many(
        KernelKind.CYLINDER_SIN, -0.5, [1, 3], xs, [QuadSpec()] * 2),
    "profile": lambda xs: ProfileHandle(FourierPolynomial((1.0, -0.5)), 0.25)(np.array(xs)),
}


@pytest.mark.parametrize("caller", _CYL_PROFILE_CALLERS)
def test_cylinder_profile_calls_repeat_no_point(caller, cold_memos):
    # tanh-sinh nodes near u = 0 round cosh u to 1.0; each distinct point
    # goes to cylinder D once per call, and nothing else changes; both
    # calls start from an empty kernel memo
    calls = []

    def spy(alpha, z, rel_tol=1e-14):
        calls.append(np.array(z))
        return parabolic_cylinder_d_scaled(alpha, z, rel_tol)

    xs = [0.3, 1.7, 5.0, 40.0]
    with mock.patch.object(specfun, "parabolic_cylinder_d_scaled", spy):
        spied = _CYL_PROFILE_CALLERS[caller](xs)
    cold_memos()
    direct = _CYL_PROFILE_CALLERS[caller](xs)
    assert len(calls) > 3
    for z in calls:
        assert np.unique(z).size == z.size
    assert np.array_equal(np.asarray(spied), np.asarray(direct))


@pytest.mark.parametrize("alpha", [0.05, 0.5, 2.0, 4.5])
@pytest.mark.parametrize("level", [0, 3, 6])
def test_cylinder_profile_equals_direct_call(alpha, level):
    u, _ = _level_nodes(0.0, math.pi, level)
    assert np.unique(np.cosh(u)).size < u.size
    r = np.sqrt(2.0 * np.array([1e-3, 0.3, 2.0, 30.0, 800.0]))
    direct = parabolic_cylinder_d_scaled(alpha, np.multiply.outer(r, np.cosh(u)), 1e-15)
    assert np.array_equal(_cyl_profile(alpha, r, u, 1e-15), direct)


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


def test_table_grid_bit_identical(cold_memos):
    ns = [1, 2, 3]
    xs = [0.5, 1.0, 2.0, 4.0]
    tab = build_kernel_table(KernelKind.ERFC_COS, 0.0, ns, xs)
    assert tab.entry_count == 12
    assert not tab.failures
    for i, n in enumerate(ns):
        for j, x in enumerate(xs):
            cold_memos()
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


# ---------------------------------------------------------------------------
# the kernel memo
# ---------------------------------------------------------------------------

_MEMO_XS = (0.05, 0.3, 1.0, 2.5, 7.0)
_MEMO_TOLS = (1e-14, 1e-11, 1e-9)


@st.composite
def _memo_batches(draw):
    """A kernel batch and a part of it, as (kind, mu, ns, tols, xs, part_n, part_x)."""
    kind = draw(st.sampled_from(list(KernelKind)))
    mu = draw(st.sampled_from([-0.5, 0.0, 0.25]))
    index = st.integers(1, 3).map(float)
    if kind is KernelKind.CYLINDER_COS:
        index = st.one_of(st.integers(0, 3).map(float),
                          st.builds(complex, st.sampled_from([0.5, 1.5]),
                                    st.sampled_from([-0.5, 0.5])))
    ns = draw(st.lists(index, min_size=1, max_size=3))
    tols = draw(st.lists(st.sampled_from(_MEMO_TOLS), min_size=len(ns), max_size=len(ns)))
    xs = draw(st.lists(st.sampled_from(_MEMO_XS), min_size=1, max_size=3, unique=True))
    part_n = draw(st.sets(st.integers(0, len(ns) - 1), min_size=1).map(sorted))
    part_x = draw(st.sets(st.sampled_from(xs), min_size=1).map(sorted))
    return kind, mu, ns, tols, xs, part_n, part_x


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(batch=_memo_batches())
@example(batch=(KernelKind.CYLINDER_COS, 0.25, [1.0, complex(1.5, -0.5), 2.0],
                [1e-14, 1e-11, 1e-9], [0.3, 2.5], [0, 2], [0.3]))
@example(batch=(KernelKind.CYLINDER_COS, 0.25, [1.0, complex(1.5, -0.5), 2.0],
                [1e-14, 1e-11, 1e-9], [0.3, 2.5], [0, 1], [0.3, 2.5]))
def test_memo_warm_entries_equal_cold_ones(batch):
    # a batch warmed by a part of it (other indices, other x, maybe another
    # row dtype) returns the bits of its cold call; the part hits, one point
    # per x, exactly at the indices whose column shares the batch's index,
    # abs_tol and dtype over the same x in the same order
    kind, mu, ns, tols, xs, part_n, part_x = batch
    specs = [QuadSpec(abs_tol=t) for t in tols]
    kernels.kernel_memo_clear()
    cold = kernels._kernel_eval_many(kind, mu, ns, xs, specs)
    kernels.kernel_memo_clear()
    kernels._kernel_eval_many(kind, mu, [ns[i] for i in part_n], part_x,
                              [specs[i] for i in part_n])
    same_dtype = any(complex(n).imag for n in ns) == any(complex(ns[i]).imag for i in part_n)
    stored = {(complex(ns[i]), tols[i]) for i in part_n} if same_dtype and part_x == xs else set()
    before = kernel_memo_info()
    warm = kernels._kernel_eval_many(kind, mu, ns, xs, specs)
    after = kernel_memo_info()
    assert warm == cold
    assert after.hits - before.hits == len(xs) * sum((complex(n), t) in stored
                                                     for n, t in zip(ns, tols))
    assert kernels._kernel_eval_many(kind, mu, ns, xs, specs) == cold
    assert kernel_memo_info().misses == after.misses
    kernels.kernel_memo_clear()


def test_memo_evicts_least_recently_used(cold_memos, monkeypatch):
    # the bound counts points, one per (index, x): a two-index column pair
    # over two x takes 4
    monkeypatch.setattr(kernels._KERNEL_MEMO, "size", 4)

    def looked_up(*xs):
        # (hits, misses) of one two-index call at xs
        before = kernel_memo_info()
        kernels._kernel_eval_many(KernelKind.ERFC_COS, 0.0, [1, 2], xs, [QuadSpec()] * 2)
        after = kernel_memo_info()
        return after.hits - before.hits, after.misses - before.misses

    assert looked_up(0.5, 1.0) == (0, 4)
    assert looked_up(0.5, 1.0) == (4, 0)
    assert looked_up(0.5) == (0, 2)  # evicts index 1 over (0.5, 1.0), used longest ago
    assert kernel_memo_info().entries == 4
    assert looked_up(2.0) == (0, 2)  # evicts index 2 over (0.5, 1.0)
    assert looked_up(0.5) == (2, 0)
    assert looked_up(1.0) == (0, 2)  # evicts both columns at 2.0
    assert looked_up(2.0) == (0, 2)
    assert looked_up(0.5, 1.0) == (0, 4)
    assert kernel_memo_info().entries == 4


def test_extended_precision_never_touches_the_memo(cold_memos, monkeypatch):
    monkeypatch.setattr(kernels, "_kernel_rows", _no_integral)
    ext = QuadSpec(precision="extended", dps=15)
    a = erfc_cos_kernel(1, 1.0, ext)
    assert erfc_cos_kernel(1, 1.0, ext) == a
    assert tuple(kernel_memo_info()) == (0, 0, 0)


def test_warm_inversion_grid_equals_cold(cold_memos):
    # the criterion-1 grid: every kernel entry and every W value of the
    # second pass is a memo hit
    seq = (1.0, 0.5, -0.25)

    def grid():
        return [invert_many(ForwardHandle(CoefficientSeq(seq), mu), TransformParams(mu),
                            [1, 2, 3]) for mu in (-0.25, 0.0, 0.25)]

    cold = grid()
    first, first_w = kernel_memo_info(), specfun.w_memo_info()
    assert first.misses == first.entries > 0
    assert first_w.misses == first_w.entries > 0
    warm = grid()
    second, second_w = kernel_memo_info(), specfun.w_memo_info()
    assert second.misses == first.misses
    assert second.hits - first.hits >= first.misses
    assert second_w.misses == first_w.misses
    assert second_w.hits - first_w.hits >= first_w.misses
    for cold_row, warm_row in zip(cold, warm):
        for c, w in zip(cold_row, warm_row):
            assert (w.value, w.error_bound, w.meta) == (c.value, c.error_bound, c.meta)


def test_warm_inversion_with_new_coefficients_computes_nothing(cold_memos, monkeypatch):
    # at a mu already seen, new coefficients reuse every kernel column and
    # every W batch: no integral runs and the misses stay flat; the values
    # are those of a cold run with both memos emptied
    mu, params = 0.25, TransformParams(0.25)

    def run(seq):
        return invert_many(ForwardHandle(CoefficientSeq(seq), mu), params, [1, 2, 3])

    run((1.0, 0.5, -0.25))
    first, first_w = kernel_memo_info(), specfun.w_memo_info()

    def no_compute(*args):
        raise AssertionError("a warm request computed a kernel or a W value")

    with monkeypatch.context() as m:
        m.setattr(kernels, "_kernel_rows", no_compute)
        m.setattr(specfun, "_w_scaled_routed", no_compute)
        warm = run((-0.8, 1.2, 0.6))
    assert kernel_memo_info().misses == first.misses
    assert specfun.w_memo_info().misses == first_w.misses
    assert kernel_memo_info().hits > first.hits and specfun.w_memo_info().hits > first_w.hits
    cold_memos()
    cold = run((-0.8, 1.2, 0.6))
    for c, w in zip(cold, warm):
        assert (w.value, w.error_bound, w.meta) == (c.value, c.error_bound, c.meta)


def test_memo_columns_are_read_only(cold_memos):
    # a caller cannot change a stored column in place
    def columns():
        return kernels._kernel_columns(KernelKind.ERFC_COS, 0.0, [1, 2], [0.5, 1.0],
                                       [QuadSpec()] * 2)

    cold = [a.copy() for a in columns()]
    kernels._KERNEL_MEMO.clear()
    columns()
    stored = [a for entry in kernels._KERNEL_MEMO.values() for a in entry]
    assert len(stored) == 6 and not any(a.flags.writeable for a in stored)
    with pytest.raises(ValueError):
        stored[0][0] = 0.0
    warm = columns()
    assert kernel_memo_info().hits == 4
    assert all(np.array_equal(w, c) for w, c in zip(warm, cold))


@pytest.mark.parametrize("other", [QuadSpec(rel_tol=1e-10), QuadSpec(max_refinements=13),
                                   QuadSpec(max_evals=10_000), QuadSpec(dps=40),
                                   QuadSpec(precision="extended")])
def test_shared_node_specs_may_differ_in_abs_tol_only(other, cold_memos, monkeypatch):
    # one u-integral serves every index, so its specs may differ in abs_tol
    # alone; any other difference is refused before anything is integrated
    monkeypatch.setattr(kernels, "_kernel_rows", _no_integral)
    for call in (kernels._kernel_eval_many, kernels._kernel_columns):
        with pytest.raises(ValueError, match="abs_tol only"):
            call(KernelKind.ERFC_COS, 0.0, [1, 2], [0.5], [QuadSpec(), other])
    assert tuple(kernel_memo_info()) == (0, 0, 0)
    monkeypatch.undo()
    got = kernels._kernel_eval_many(KernelKind.ERFC_COS, 0.0, [1, 2], [0.5],
                                    [QuadSpec(), QuadSpec(abs_tol=1e-9)])
    assert len(got) == 1 and len(got[0]) == 2
