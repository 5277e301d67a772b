"""Tests for the series transforms.

Covers the forward series against the independent Bessel routes, the
inversion round trip with its reported error bound, the coefficient
transform against closed-form profile coefficients, and sine-kernel
synthesis against the profile integral.  The full acceptance grids live
in test_acceptance; here each path gets a representative point plus its
edge cases, so indexing or normalization mistakes fail fast.
"""

import collections
import contextlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from diwt import transforms
from diwt.errors import (DomainError, IntegrabilityWarning, NonConvergence,
                         OrderError, PrecisionBudgetExceeded)
from diwt.quad import DEFAULT_SPEC, QuadSpec, integrate_finite, integrate_finite_rows, \
    integrate_semi_infinite_rows
from diwt.kernels import cylinder_cos_kernel, kernel_memo_info
from diwt.specfun import WhittakerOrder, bessel_k_imag, whittaker_w_bessel, whittaker_w_mb
from diwt.transforms import (CoefficientSeq, ForwardHandle, FourierPolynomial,
                             FunctionHandle, InversionResult, ProfileHandle,
                             SampledHandle, TransformParams,
                             _function_from_profile_full_range,
                             admissibility_sum, closed_form_coefficients,
                             coefficient_transform, coefficient_transform_many,
                             forward_series, function_from_profile, invert_many,
                             invert_series, invert_series_kl, synthesize_series)

EXT25 = QuadSpec(precision="extended", dps=25)


# ---------------------------------------------------------------------------
# parameter and sequence types
# ---------------------------------------------------------------------------

class TestTypes:
    def test_params_delta_range(self):
        TransformParams(0.25, 0.0)
        TransformParams(-1.0, 1.5)
        with pytest.raises(DomainError):
            TransformParams(0.25, -0.1)
        with pytest.raises(DomainError):
            TransformParams(0.25, 0.5 * math.pi)
        with pytest.raises(DomainError):
            TransformParams(math.inf)

    def test_seq_validation(self):
        with pytest.raises(DomainError):
            CoefficientSeq(())
        with pytest.raises(DomainError):
            CoefficientSeq((1.0, math.nan))

    def test_seq_one_based_indexing(self):
        seq = CoefficientSeq((2.0, 0.0, -1.0))
        assert seq.n_terms == 3
        assert seq.value_at(1) == 2.0
        assert seq.value_at(3) == -1.0
        assert seq.value_at(7) == 0.0
        with pytest.raises(DomainError):
            seq.value_at(0)
        with pytest.raises(DomainError):
            seq.value_at(1.5)

    def test_seq_zero_flag_and_complex(self):
        assert CoefficientSeq((0.0, 0.0)).is_zero
        assert not CoefficientSeq((0.0, 1e-30)).is_zero
        seq = CoefficientSeq((1.0, 0.5 + 0.2j))
        assert isinstance(seq.value_at(1), float)
        assert seq.value_at(2) == 0.5 + 0.2j

    def test_profile_degree_and_lipschitz(self):
        p = FourierPolynomial(sine_coeffs=(0.5,), cosine_coeffs=(3.0, 0.2, 0.5))
        assert p.degree == 2
        # sum k|b_k| + sum k|c_k| = 0.5 + 0.2 + 1.0
        assert p.lipschitz_bound == pytest.approx(1.7, abs=1e-15)
        assert FourierPolynomial().degree == 0
        assert FourierPolynomial().lipschitz_bound == 0.0

    def test_profile_evaluate(self):
        p = FourierPolynomial(sine_coeffs=(0.4, -0.3), cosine_coeffs=(1.0, 0.7))
        u = np.linspace(-math.pi, math.pi, 11)
        ref = 0.4 * np.sin(u) - 0.3 * np.sin(2 * u) + 1.0 + 0.7 * np.cos(u)
        assert np.max(np.abs(p.evaluate(u) - ref)) < 1e-15
        odd = 0.4 * np.sin(u) - 0.3 * np.sin(2 * u)
        assert np.max(np.abs(p.odd_sine_part(u) - odd)) < 1e-15
        scalar = 0.4 * math.sin(0.3) - 0.3 * math.sin(0.6) + 1.0 + 0.7 * math.cos(0.3)
        assert p.evaluate(0.3) == pytest.approx(scalar, abs=1e-15)

    def test_profile_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            FourierPolynomial(sine_coeffs=(math.inf,))


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------

class TestHandles:
    def test_sampled_validation(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            SampledHandle(x.reshape(1, 3), np.ones((1, 3)))
        with pytest.raises(DomainError):
            SampledHandle([1.0], [1.0])
        with pytest.raises(DomainError):
            SampledHandle(x, np.ones(2))
        with pytest.raises(DomainError):
            SampledHandle([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            SampledHandle([1.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            SampledHandle(x, [1.0, math.nan, 1.0])

    def test_sampled_eval_and_support(self):
        x = np.linspace(0.5, 4.0, 16)
        f = SampledHandle(x, np.exp(-x))
        assert f.support_start == 0.5
        assert f.support_end == 4.0
        assert f(x[3]) == pytest.approx(math.exp(-x[3]), rel=1e-14)
        # zero extension outside the grid
        assert f(0.1) == 0.0
        assert f(9.0) == 0.0
        out = f(np.array([0.1, 1.0, 9.0]))
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[2] == 0.0
        assert SampledHandle(x, np.zeros_like(x)).is_zero

    def test_forward_handle_order_guard(self):
        with pytest.raises(OrderError):
            ForwardHandle(CoefficientSeq((1.0,)), 0.5)
        assert ForwardHandle(CoefficientSeq((0.0,)), 0.0).is_zero

    def test_profile_handle_zero_for_cosines(self):
        h = ProfileHandle(FourierPolynomial(cosine_coeffs=(1.0, 2.0)), 0.0)
        assert h.is_zero


# ---------------------------------------------------------------------------
# admissibility diagnostic
# ---------------------------------------------------------------------------

class TestAdmissibility:
    def test_single_unit_coefficient(self):
        # |Gamma(1/2 + i)|^2 = pi / cosh(pi), so the sum is cosh(pi)/pi
        s = admissibility_sum(CoefficientSeq((1.0,)), TransformParams(0.0))
        assert s == pytest.approx(math.cosh(math.pi) / math.pi, rel=1e-12)

    def test_zero_sequence(self):
        assert admissibility_sum(CoefficientSeq((0.0, 0.0)), TransformParams(0.2)) == 0.0

    def test_damping_monotone_in_delta(self):
        seq = CoefficientSeq((1.0, 1.0))
        loose = admissibility_sum(seq, TransformParams(0.0, 0.0))
        tight = admissibility_sum(seq, TransformParams(0.0, 0.3))
        assert 0.0 < tight < loose


# ---------------------------------------------------------------------------
# forward series
# ---------------------------------------------------------------------------

class TestForwardSeries:
    @pytest.mark.parametrize("mu", [-0.25, 0.25])
    @pytest.mark.parametrize("x", [0.6, 2.5])
    def test_single_term_matches_bessel_route(self, mu, x):
        got = forward_series(CoefficientSeq((1.0,)), mu, x)
        ref = whittaker_w_bessel(WhittakerOrder(mu, 1.0), x, scaled=True)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_mu_zero_reduces_to_bessel_k(self):
        # at mu = 0 each term is sqrt(x/pi) e^{-x/2} K_{im}(x/2)
        got = forward_series(CoefficientSeq((0.0, 1.0)), 0.0, 2.0)
        ref = math.exp(-1.0) * math.sqrt(2.0 / math.pi) * bessel_k_imag(2.0, 1.0)
        assert got == pytest.approx(ref, abs=1e-13)

    @pytest.mark.parametrize("x", [0.5, 2.0, 7.0])
    def test_mu_zero_combination(self, x):
        seq = CoefficientSeq((0.3, -0.2, 0.1))
        got = forward_series(seq, 0.0, x)
        ref = math.exp(-0.5 * x) * math.sqrt(x / math.pi) * sum(
            a * bessel_k_imag(float(m), 0.5 * x)
            for m, a in enumerate(seq.values, 1))
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        x = 1.3
        fa = forward_series(CoefficientSeq(tuple(a)), 0.1, x)
        fb = forward_series(CoefficientSeq(tuple(b)), 0.1, x)
        fab = forward_series(CoefficientSeq(tuple(a + b)), 0.1, x)
        assert fab == pytest.approx(fa + fb, rel=1e-12, abs=1e-15)

    def test_complex_coefficients(self):
        c = 0.5 + 0.2j
        base = forward_series(CoefficientSeq((1.0,)), 0.0, 1.5)
        got = forward_series(CoefficientSeq((c,)), 0.0, 1.5)
        assert isinstance(got, complex)
        assert got == pytest.approx(c * base, rel=1e-13)

    def test_zero_sequence(self):
        assert forward_series(CoefficientSeq((0.0, 0.0)), 0.25, 1.0) == 0.0

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            forward_series(CoefficientSeq((1.0,)), 0.0, 0.0)
        with pytest.raises(DomainError):
            forward_series(CoefficientSeq((1.0,)), 0.0, -2.0)
        with pytest.raises(OrderError):
            forward_series(CoefficientSeq((1.0,)), 0.5, 1.0)

    def test_vector_call_on_handle(self):
        h = ForwardHandle(CoefficientSeq((1.0, -0.5)), 0.25)
        xs = np.array([0.7, 1.4])
        vec = h(xs)
        assert vec.shape == (2,)
        assert vec[0] == pytest.approx(h(0.7), rel=1e-14)
        assert vec[1] == pytest.approx(h(1.4), rel=1e-14)

    @pytest.mark.parametrize("coeffs", [(1.0, 0.5, -0.25), (1.0, 0.5j, -0.25 + 0.1j)])
    def test_array_call_equals_per_element_calls(self, coeffs):
        # x in every contour-abscissa group: below 0.05, [0.05, 4), and
        # gamma = round(x/2) = 2, 3, 4, 5, 7, 15 from x = 4 on
        mu = 0.25
        h = ForwardHandle(CoefficientSeq(coeffs), mu)
        xs = np.array([[0.001, 0.03, 0.05, 0.7], [3.9, 4.0, 5.2, 9.0],
                       [13.7, 30.0, 0.2, 2.5], [7.1, 9.4, 0.049, 6.2]])
        got = h(xs)
        assert got.shape == xs.shape
        assert got.dtype == (complex if isinstance(coeffs[1], complex) else float)
        one = np.array([h(float(x)) for x in xs.ravel()], dtype=got.dtype)
        assert got.tobytes() == one.tobytes()
        # a one-element call sums the public one-x evaluator, term by term
        for x, v in zip(xs.ravel().tolist(), one.tolist()):
            terms = [a * whittaker_w_mb(WhittakerOrder(mu, m), x, scaled=True)
                     for m, a in enumerate(coeffs, 1)]
            assert v == terms[0] + terms[1] + terms[2]


# ---------------------------------------------------------------------------
# inversion round trip
# ---------------------------------------------------------------------------

SEQ = CoefficientSeq((1.0, 0.5, -0.25))


class TestInversion:
    @pytest.mark.parametrize("n", [1, 2])
    def test_round_trip_recovers_coefficient(self, n):
        f = ForwardHandle(SEQ, 0.25)
        r = invert_series(f, TransformParams(0.25), n)
        err = abs(r.value - SEQ.value_at(n))
        assert err <= r.error_bound
        assert err < 1e-6
        assert r.error_bound < 1e-4
        assert r.meta["amplification"] == pytest.approx(
            n * math.sinh(2.0 * math.pi * n), rel=1e-15)
        assert r.meta["mass_estimate"] >= 1.0

    @pytest.mark.parametrize("coeffs, mu, ns", [
        ((0.0, 0.0, 0.0, 0.0, 0.0, 1.0), 0.0, [6]),
        ((0.0, 0.0, 0.0, 1.0), 0.45, [4]),
        ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5), 0.0, [1, 8]),
    ])
    def test_round_trip_through_tiny_x(self, coeffs, mu, ns):
        # the outer rule evaluates f down to x ~ 2.5e-33, where the contour
        # integral for W stalled and these inversions raised NonConvergence
        seq = CoefficientSeq(coeffs)
        rs = invert_many(ForwardHandle(seq, mu), TransformParams(mu), ns)
        for n, r in zip(ns, rs):
            assert abs(r.value - seq.value_at(n)) <= r.error_bound

    def test_kl_route_consistent_with_general(self):
        f = ForwardHandle(CoefficientSeq((1.0,)), 0.0)
        ra = invert_series(f, TransformParams(0.0), 1)
        rb = invert_series_kl(f, 1)
        assert abs(ra.value - 1.0) < 1e-8
        assert abs(rb.value - 1.0) < 1e-8
        assert abs(ra.value - rb.value) <= ra.error_bound + rb.error_bound + 1e-12

    def test_zero_handle_short_circuits(self):
        f = ForwardHandle(CoefficientSeq((0.0,)), 0.0)
        r = invert_series(f, TransformParams(0.0), 3)
        assert isinstance(r, InversionResult)
        assert r.value == 0.0
        assert r.error_bound == 0.0

    def test_index_cap_double(self):
        f = ForwardHandle(CoefficientSeq((1.0,)), 0.0)
        with pytest.raises(PrecisionBudgetExceeded):
            invert_series(f, TransformParams(0.0), 9)

    def test_index_cap_extended(self):
        f = ForwardHandle(CoefficientSeq((1.0,)), 0.0)
        spec = QuadSpec(precision="extended", dps=30)
        with pytest.raises(PrecisionBudgetExceeded):
            invert_series(f, TransformParams(0.0), 10, quad=spec)

    def test_extended_requires_mp_capable_handle(self):
        class Plain(FunctionHandle):
            def __call__(self, x, quad=DEFAULT_SPEC):
                return math.exp(-float(x))

        with pytest.raises(DomainError):
            invert_series(Plain(), TransformParams(0.0), 1, quad=EXT25)

    def test_argument_guards(self):
        f = ForwardHandle(CoefficientSeq((1.0,)), 0.0)
        with pytest.raises(OrderError):
            invert_series(f, TransformParams(0.5), 1)
        with pytest.raises(DomainError):
            invert_series(f, TransformParams(0.0), 0)
        with pytest.raises(DomainError):
            invert_series(f, TransformParams(0.0), 1.5)

    def test_sampled_data_round_trip(self):
        # dense grid keeps the missing (0, x_0) oscillatory mass small
        # enough for the n = 1 coefficient; model error, not quadrature
        # error, dominates, so only the loose tolerance is meaningful
        f = ForwardHandle(SEQ, 0.25)
        x = np.geomspace(1e-6, 40.0, 900)
        sampled = SampledHandle(x, f(x))
        with pytest.warns(IntegrabilityWarning):
            r = invert_series(sampled, TransformParams(0.25), 1)
        assert abs(r.value - 1.0) < 5e-2


class _Cheap(FunctionHandle):
    """Closed-form handle, so the shared-node tests time the kernels only."""

    decay_scale = 1.0

    def __init__(self, power: float = 0.3):
        self.power = power

    def __call__(self, x, quad=DEFAULT_SPEC):
        a = np.asarray(x, dtype=float)
        y = np.exp(-a) * a ** self.power * np.sin(np.log(a) + 0.4)
        return y[()] if y.shape == () else y


class TestSharedNodes:
    # abs_tol 1000 spreads the per-n kernel tolerances over 0.19 .. 6.5e-7
    # and the outer ones over 2.6 .. 3.0e-6: n = 1 and 2 still share a
    # truncation point (and so every node), n = 3 gets its own
    SPEC = QuadSpec(abs_tol=1000.0, rel_tol=1e-8)

    def test_invert_many_equals_per_index_calls(self, cold_memos):
        f, params = _Cheap(), TransformParams(0.0)
        many = invert_many(f, params, [1, 2, 3], self.SPEC)
        tols = [r.meta["kernel_tolerance"] for r in many]
        assert len(set(tols)) == 3
        assert len({r.meta["outer_tolerance"] for r in many}) == 3
        for n, r in zip([1, 2, 3], many):
            cold_memos()
            one = invert_series(f, params, n, self.SPEC)
            assert r.value == one.value
            assert r.error_bound == one.error_bound
            assert r.meta == one.meta

    def test_coefficient_transform_many_equals_per_index_calls(self):
        f = _Cheap(1.5)
        spec = QuadSpec(abs_tol=1e-8, rel_tol=1e-6)
        many = coefficient_transform_many(f, 0.25, [1, 2, 3, 4], spec)
        assert many == [coefficient_transform(f, 0.25, n, spec) for n in (1, 2, 3, 4)]

    def test_checks_stay_per_index(self):
        f = ForwardHandle(CoefficientSeq((1.0,)), 0.0)
        with pytest.raises(PrecisionBudgetExceeded):
            invert_many(f, TransformParams(0.0), [1, 9])
        with pytest.raises(DomainError):
            invert_many(f, TransformParams(0.0), [2, 0])
        with pytest.raises(DomainError):
            coefficient_transform_many(f, 0.0, [1, 1.5])
        zero = ForwardHandle(CoefficientSeq((0.0,)), 0.0)
        assert [r.value for r in invert_many(zero, TransformParams(0.0), [1, 2])] == [0.0, 0.0]
        assert coefficient_transform_many(zero, 0.0, [1, 2, 3]) == [0.0, 0.0, 0.0]
        assert invert_many(f, TransformParams(0.0), []) == []
        assert coefficient_transform_many(f, 0.0, []) == []

    def test_decay_probe_warns_once_per_index(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coefficient_transform_many(_Cheap(), 0.0, [1, 2, 3],
                                       QuadSpec(abs_tol=1e-2, rel_tol=1e-8))
        probe = [w for w in caught if issubclass(w.category, IntegrabilityWarning)]
        assert len(probe) == 3
        # the warning points at the caller, not into the package
        assert all(w.filename == __file__ for w in probe)


class TestSupportClipping:
    # sampled data that live entirely on one side of t = 1: the pieces of
    # the half-line split must be cut at both ends of the support, or the
    # zero extension's jump falls inside an interval
    MU = 0.25
    REF = QuadSpec(abs_tol=1e-15, rel_tol=1e-12)

    @staticmethod
    def _handle(lo, hi):
        x = np.linspace(lo, hi, 12)
        return x, SampledHandle(x, x * np.exp(-x) * np.cos(x))

    def _reference(self, g, knots):
        # the interpolant is one cubic per knot interval, so the reference
        # integrates knot interval by knot interval
        parts = [integrate_finite(g, a, b, self.REF) for a, b in zip(knots[:-1], knots[1:])]
        assert all(r.converged for r in parts)
        return math.fsum(r.value for r in parts)

    @pytest.mark.parametrize("lo, hi", [(0.2, 0.8), (1.5, 4.0)])
    def test_coefficient_transform_many(self, lo, hi):
        knots, f = self._handle(lo, hi)
        with pytest.warns(IntegrabilityWarning):
            got = coefficient_transform_many(f, self.MU, [1, 2])
        for n, value in zip((1, 2), got):
            order = WhittakerOrder(self.MU, 0.5 * n)
            want = self._reference(lambda t: whittaker_w_mb(order, t, scaled=True) * f(t)
                                   * t ** (self.MU - 2.0), knots)
            # 1e-8 is the relative tolerance the sampled-data rule runs at
            assert value == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("lo, hi", [(0.2, 0.8), (1.5, 4.0)])
    def test_invert_many(self, lo, hi):
        knots, f = self._handle(lo, hi)
        with pytest.warns(IntegrabilityWarning):
            [r] = invert_many(f, TransformParams(self.MU), [1], QuadSpec(abs_tol=1e-6))
        pref = 2.0 ** (0.5 + self.MU) / math.pi ** 2 * math.gamma(1.0 - 2.0 * self.MU)
        integral = self._reference(lambda t: cylinder_cos_kernel(self.MU, 1, t).real * f(t)
                                   * t ** -1.5, knots)
        want = pref * r.meta["amplification"] * integral
        assert abs(r.value - want) <= r.error_bound


def _per_node_half_line(H, p, f, tols, spec, mapped):
    """The half-line rule with one H call per mapped node, repeats included.

    Every node t it maps is appended to `mapped`.
    """
    if isinstance(f, SampledHandle):
        tols = [max(t, 1e-12) for t in tols]
        spec = replace(spec, rel_tol=max(spec.rel_tol, 1e-8),
                       max_refinements=min(spec.max_refinements, 9))
    low, high = transforms._pieces(f)
    parts = []
    for piece, node, q, decay in ((low, lambda v0, v: math.exp(-(v0 + v)), p + 1.0, 2.0),
                                  (high, lambda t0, s: t0 + s, p, f.decay_scale)):
        if piece is None:
            parts.append([(0.0, 0.0)] * len(tols))
            continue
        origin, length = piece

        def G(xs, rows, origin=origin, node=node, q=q):
            ts = [node(origin, x) for x in xs.tolist()]
            mapped.extend(ts)
            return np.array([H(np.array([t]), rows)[:, 0] * t ** q for t in ts]).T

        if length == math.inf:
            rs = integrate_semi_infinite_rows(G, decay, tols, spec)
        else:
            rs = integrate_finite_rows(G, 0.0, length, tols, spec)
        parts.append([(r.value, r.error_estimate) for r in rs])
    return [(lv + hv, le + he) for (lv, le), (hv, he) in zip(*parts)]


class TestOneEvaluationPerNode:
    # the tanh-sinh nodes crowding an end of a piece round to one t; H
    # must see each distinct t of a level once, with values unchanged

    @pytest.fixture
    def half_lines(self, monkeypatch, cold_memos):
        calls = []
        real = transforms._half_line

        def spying(H, p, f, tols, spec, name):
            batches = []

            def spy(ts, rows):
                batches.append(ts.tolist())
                return H(ts, rows)

            got = real(spy, p, f, tols, spec, name)
            # the per-node run integrates its kernel entries afresh
            cold_memos()
            mapped = []
            calls.append((name, batches, mapped, got,
                          _per_node_half_line(H, p, f, tols, spec, mapped)))
            return got

        monkeypatch.setattr(transforms, "_half_line", spying)
        return calls

    @staticmethod
    def _check(calls, names):
        """The t that the nodes of the first integral repeat."""
        assert [c[0] for c in calls] == names
        for name, batches, mapped, got, want in calls:
            assert all(len(set(b)) == len(b) for b in batches), name
            assert {t for b in batches for t in b} == set(mapped), name
            assert got == want, name
        mapped = calls[0][2]
        return {t for t, k in collections.Counter(mapped).items() if k > 1}

    def test_inversion_on_forward_handle(self, half_lines):
        f = ForwardHandle(CoefficientSeq((1.0, 0.5)), 0.25)
        invert_many(f, TransformParams(0.25), [1, 2], QuadSpec(abs_tol=1e-6))
        assert 1.0 in self._check(half_lines, ["inversion integral", "mass estimate"])

    def test_coefficient_transform_on_profile_handle(self, half_lines):
        f = ProfileHandle(FourierPolynomial(sine_coeffs=(0.7, -0.3)), 0.25)
        coefficient_transform_many(f, 0.25, [1, 2], QuadSpec(abs_tol=1e-8, rel_tol=1e-6))
        assert 1.0 in self._check(half_lines, ["coefficient integral"])

    def test_sampled_handle_inside_one_piece(self, half_lines):
        x = np.linspace(1.5, 4.0, 12)
        f = SampledHandle(x, x * np.exp(-x) * np.cos(x))
        with pytest.warns(IntegrabilityWarning):
            invert_many(f, TransformParams(0.25), [1], QuadSpec(abs_tol=1e-6))
        repeated = self._check(half_lines, ["inversion integral", "mass estimate"])
        # the nodes crowding each support end round to one t
        assert 1.5 in repeated
        assert max(repeated) == pytest.approx(4.0, abs=1e-15)


# ---------------------------------------------------------------------------
# coefficient transform vs closed form
# ---------------------------------------------------------------------------

PROFILE1 = FourierPolynomial(sine_coeffs=(1.0,))


class TestCoefficientTransform:
    def test_matches_closed_form_on_diagonal(self):
        f = ProfileHandle(PROFILE1, 0.25)
        got = coefficient_transform(f, 0.25, 1)
        want = closed_form_coefficients(PROFILE1, 0.25, 1)
        assert got == pytest.approx(want, rel=1e-8)

    def test_off_diagonal_vanishes(self):
        f = ProfileHandle(PROFILE1, 0.25)
        got = coefficient_transform(f, 0.25, 2)
        peak = abs(closed_form_coefficients(PROFILE1, 0.25, 1))
        assert abs(got) < 1e-8 * peak

    def test_zero_handle(self):
        f = ProfileHandle(FourierPolynomial(cosine_coeffs=(1.0,)), 0.25)
        assert coefficient_transform(f, 0.25, 1) == 0.0

    def test_guards(self):
        f = ProfileHandle(PROFILE1, 0.25)
        with pytest.raises(OrderError):
            coefficient_transform(f, 0.5, 1)
        with pytest.raises(DomainError):
            coefficient_transform(f, 0.25, 0)

    def test_warns_when_integrand_mass_persists(self):
        # at mu = 0 the x^{mu-2} weight leaves only conditional convergence
        # at the origin; the probe must flag it (the integral itself may or
        # may not settle, which is exactly why the warning exists)
        f = ForwardHandle(CoefficientSeq((1.0,)), 0.0)
        with pytest.warns(IntegrabilityWarning):
            with contextlib.suppress(NonConvergence):
                coefficient_transform(f, 0.0, 1)

    def test_sampled_data_projection(self):
        f = ProfileHandle(PROFILE1, 0.25)
        x = np.geomspace(1e-4, 25.0, 300)
        sampled = SampledHandle(x, f(x))
        with pytest.warns(IntegrabilityWarning):
            got = coefficient_transform(sampled, 0.25, 1)
        want = closed_form_coefficients(PROFILE1, 0.25, 1)
        assert got == pytest.approx(want, rel=1e-2)


# ---------------------------------------------------------------------------
# profile construction and synthesis
# ---------------------------------------------------------------------------

class TestProfileAndSynthesis:
    @pytest.mark.parametrize("mu", [0.0, 0.25])
    def test_closed_form_unit_sine(self, mu):
        want = 4.0 ** (1.0 - mu) * math.pi ** 2 / math.sinh(math.pi)
        assert closed_form_coefficients(PROFILE1, mu, 1) == pytest.approx(
            want, rel=1e-15)

    def test_closed_form_against_fourier_integral(self):
        # b_2 extracted by quadrature instead of read off the coefficients
        p = FourierPolynomial(sine_coeffs=(0.0, 3.0), cosine_coeffs=(0.5, 0.2))
        r = integrate_finite(
            lambda u: p.evaluate(u) * np.sin(2.0 * np.asarray(u)),
            -math.pi, math.pi, DEFAULT_SPEC)
        assert r.converged
        want = 4.0 * math.pi / math.sinh(2.0 * math.pi) * r.value
        assert closed_form_coefficients(p, 0.0, 2) == pytest.approx(want, rel=1e-12)

    def test_closed_form_zero_cases(self):
        p = FourierPolynomial(sine_coeffs=(0.0, 3.0), cosine_coeffs=(0.5, 0.2))
        assert closed_form_coefficients(p, 0.0, 1) == 0.0
        assert closed_form_coefficients(p, 0.0, 5) == 0.0
        cos_only = FourierPolynomial(cosine_coeffs=(1.0, 1.0))
        assert closed_form_coefficients(cos_only, 0.25, 1) == 0.0

    @pytest.mark.parametrize("x", [0.8, 3.0])
    def test_fold_matches_full_range(self, x):
        p = FourierPolynomial(sine_coeffs=(0.4, 0.3), cosine_coeffs=(1.0, 0.7))
        folded = function_from_profile(p, 0.25, x)
        full = _function_from_profile_full_range(p, 0.25, x)
        assert folded == pytest.approx(full, rel=1e-11, abs=1e-13)

    def test_handle_array_equals_one_x_calls(self):
        # one row-wise u-integral over every x gives each x its own value
        p = FourierPolynomial(sine_coeffs=(0.6, -0.3, 0.1))
        x = np.array([[0.02, 0.5, 3.0], [11.0, 0.5, 1e-4]])
        got = ProfileHandle(p, 0.25)(x)
        assert got.shape == x.shape
        for g, xi in zip(got.ravel().tolist(), x.ravel().tolist()):
            assert g == function_from_profile(p, 0.25, xi)

    @pytest.mark.parametrize("mu", [-0.5, 0.0, 0.25, 0.45])
    def test_handle_from_kernels_matches_oracles(self, mu):
        # sum |b| > 1: each sine-kernel column runs at abs_tol / sum |b|
        p = FourierPolynomial(sine_coeffs=(1.5, -2.0, 0.5))
        xs = [1e-4, 0.5, 3.0, 11.0]
        got = ProfileHandle(p, mu)(np.array(xs))
        for g, x in zip(got.tolist(), xs):
            full = _function_from_profile_full_range(p, mu, x)
            assert g == pytest.approx(full, rel=1e-11, abs=1e-13)
            exact = float(ProfileHandle(p, mu)._eval_mp(x, 30))
            assert g == pytest.approx(exact, rel=1e-12)

    def test_handle_reads_kernel_memo_when_sum_at_most_one(self, cold_memos):
        # sum |b| <= 1 keeps abs_tol, so the columns are shared across such
        # profiles; sum |b| > 1 tightens it and stores columns of its own
        xs = np.array([0.02, 0.5, 3.0, 11.0])
        ProfileHandle(FourierPolynomial(sine_coeffs=(0.6, -0.3, 0.1)), 0.25)(xs)
        before = kernel_memo_info()
        ProfileHandle(FourierPolynomial(sine_coeffs=(0.0, 0.5, -0.2)), 0.25)(xs)
        after = kernel_memo_info()
        assert after.misses == before.misses
        assert after.hits - before.hits == 2 * xs.size
        ProfileHandle(FourierPolynomial(sine_coeffs=(0.0, 1.5)), 0.25)(xs)
        assert kernel_memo_info().misses - after.misses == xs.size
        assert kernel_memo_info().entries == after.entries + xs.size

    def test_unit_sine_handle_value_pinned(self):
        # one harmonic with b = 1 is its sine-kernel column times the
        # prefactor, with the bits of the direct profile integral
        h = ProfileHandle(FourierPolynomial(sine_coeffs=(1.0,)), 0.25)
        assert h(2.0) == float.fromhex("0x1.a6f29fdc8c5cdp+0")
        h = ProfileHandle(FourierPolynomial(sine_coeffs=(0.0, 1.0)), 0.0)
        assert h(0.5) == float.fromhex("0x1.2fe120bc7865fp-4")

    def test_cosine_only_profile_gives_zero(self):
        p = FourierPolynomial(cosine_coeffs=(2.0, -1.0))
        assert function_from_profile(p, 0.0, 1.7) == 0.0

    @pytest.mark.parametrize("sine", [(0.6,), ()])
    @pytest.mark.parametrize("x, bad", [([1.0, math.nan], "nan"), (-1.0, "-1.0"),
                                        ([[2.0, 0.0]], "0.0"), ([math.inf], "inf")])
    def test_handle_refuses_first_point_not_finite_and_positive(self, sine, x, bad):
        h = ProfileHandle(FourierPolynomial(sine_coeffs=sine, cosine_coeffs=(1.0,)), 0.25)
        with pytest.raises(DomainError, match=f"^function_from_profile requires x > 0, "
                                              f"got {bad}$"):
            h(x)

    def test_profile_guards(self):
        with pytest.raises(DomainError):
            function_from_profile(PROFILE1, 0.0, 0.0)
        with pytest.raises(OrderError):
            function_from_profile(PROFILE1, 0.5, 1.0)

    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_synthesis_matches_profile_integral(self, x):
        a1 = closed_form_coefficients(PROFILE1, 0.25, 1)
        r = synthesize_series(CoefficientSeq((a1,)), 0.25, x)
        want = function_from_profile(PROFILE1, 0.25, x)
        assert r.value == pytest.approx(want, rel=1e-8)

    def test_synthesis_two_terms(self):
        p = FourierPolynomial(sine_coeffs=(0.8, -0.3))
        seq = CoefficientSeq(tuple(
            closed_form_coefficients(p, 0.0, n) for n in (1, 2)))
        r = synthesize_series(seq, 0.0, 1.0)
        want = function_from_profile(p, 0.0, 1.0)
        assert r.value == pytest.approx(want, rel=1e-8)
        assert len(r.terms) == 2
        assert r.value == pytest.approx(math.fsum(r.terms), abs=0.0)

    def test_synthesis_zero_terms_stay_zero(self):
        r = synthesize_series(CoefficientSeq((0.0, 1.0)), 0.0, 2.0)
        assert r.terms[0] == 0.0
        assert r.terms[1] != 0.0

    def test_synthesis_scaling(self):
        one = synthesize_series(CoefficientSeq((0.7,)), 0.0, 2.0)
        two = synthesize_series(CoefficientSeq((1.4,)), 0.0, 2.0)
        assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)

    def test_synthesis_complex_coefficient(self):
        c = 0.5 + 0.2j
        base = synthesize_series(CoefficientSeq((1.0,)), 0.0, 1.5)
        got = synthesize_series(CoefficientSeq((c,)), 0.0, 1.5)
        assert isinstance(got.value, complex)
        assert got.value == pytest.approx(c * base.value, rel=1e-12)

    def test_synthesis_guards(self):
        with pytest.raises(OrderError):
            synthesize_series(CoefficientSeq((1.0,)), 0.5, 1.0)
        with pytest.raises(DomainError):
            synthesize_series(CoefficientSeq((1.0,)), 0.0, -1.0)
        with pytest.raises(PrecisionBudgetExceeded):
            synthesize_series(CoefficientSeq((1.0,) * 250), 0.0, 1.0)

    def test_synthesis_unconverged_kernel_raises(self):
        # 100 evaluations stop the sine-kernel quadrature a few levels in,
        # at an error near 3e-6, far short of its 1e-12 relative target
        with pytest.raises(NonConvergence, match=r"sine kernel .* stalled at error"):
            synthesize_series(CoefficientSeq((1.0,)), 0.1, 2.0, QuadSpec(max_evals=100))


# ---------------------------------------------------------------------------
# extended-precision glue
# ---------------------------------------------------------------------------

class TestExtendedGlue:
    def test_forward_handle_mp(self):
        h = ForwardHandle(CoefficientSeq((1.0, 0.5)), 0.25)
        assert float(h._eval_mp(1.7, 25)) == pytest.approx(h(1.7), rel=1e-12)

    def test_profile_handle_mp(self):
        h = ProfileHandle(PROFILE1, 0.25)
        assert float(h._eval_mp(2.0, 25)) == pytest.approx(h(2.0), rel=1e-12)

    def test_function_from_profile_extended(self):
        got = function_from_profile(PROFILE1, 0.25, 2.0, quad=EXT25)
        want = function_from_profile(PROFILE1, 0.25, 2.0)
        assert float(got) == pytest.approx(want, rel=1e-12)

    # Stubbed special functions make the glue checkable against closed
    # forms in well under a second; a real extended inversion takes minutes.
    class _TExpT(FunctionHandle):
        """f(t) = t e^{-t} in double and extended precision."""

        decay_scale = 1.0

        def __call__(self, x, quad=DEFAULT_SPEC):
            a = np.asarray(x, dtype=float)
            y = a * np.exp(-a)
            return y[()] if y.shape == () else y

        def _eval_mp(self, t, dps):
            import mpmath as mp

            return t * mp.exp(-t)

    @pytest.mark.parametrize("route", ["kl", "cylinder"])
    def test_inversion_within_bound(self, route, monkeypatch):
        import mpmath as mp

        import diwt.transforms as tr

        # kernel e^{-t}: the integral of e^{-t} t e^{-t} t^{-3/2} is sqrt(pi/2)
        monkeypatch.setattr(tr, "_kernel_eval_mp", lambda kind, mu, nu, t, dps: mp.exp(-t))
        spec = QuadSpec(precision="extended", dps=30)
        mu = 0.1
        if route == "kl":
            r = invert_series_kl(self._TExpT(), 1, spec)
        else:
            r = invert_series(self._TExpT(), TransformParams(mu), 1, spec)
        with mp.workdps(50):
            if route == "kl":
                pref = mp.pi ** mp.mpf(-1.5)
            else:
                mux = mp.mpf(mu)
                pref = mp.power(2, mux + mp.mpf(0.5)) / mp.pi ** 2 * mp.gamma(1 - 2 * mux)
            exact = pref * mp.sinh(2 * mp.pi) * mp.sqrt(mp.pi / 2)
            assert r.error_bound < mp.mpf(10) ** -20
            assert abs(r.value - exact) <= r.error_bound

    def test_coefficient_transform_to_working_precision(self, monkeypatch):
        import mpmath as mp

        import diwt.transforms as tr

        # W = t^{1/2} e^{-t}: the integral of W t e^{-t} t^{mu-2} is
        # Gamma(mu + 1/2) / 2^{mu + 1/2}
        monkeypatch.setattr(tr, "_w_mb_extended",
                            lambda mu, rho, t, gamma, dps, scaled: mp.sqrt(t) * mp.exp(-t))
        dps, mu = 30, 0.25
        got = coefficient_transform(self._TExpT(), mu, 1, QuadSpec(precision="extended", dps=dps))
        with mp.workdps(50):
            exact = mp.gamma(mp.mpf(mu) + 0.5) / mp.power(2, mp.mpf(mu) + 0.5)
            assert abs(got - exact) <= mp.mpf(10) ** (2 - dps)

    def test_synthesize_extended(self):
        seq = CoefficientSeq((0.9, -0.2))
        got = synthesize_series(seq, 0.0, 1.5, quad=QuadSpec(precision="extended",
                                                             dps=20))
        want = synthesize_series(seq, 0.0, 1.5)
        assert float(got.value) == pytest.approx(want.value, rel=1e-12)
        assert len(got.terms) == 2
