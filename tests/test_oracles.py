"""Tests for the identity-and-bound audit suite.

Spot values come from independent evaluations (scipy Bessel and erfc, or
the closed forms themselves); the full canonical sweep lives in
test_acceptance, so here each check gets representative points, its
degenerate cases, and the reporting contract.
"""

import ast
import inspect
import math
import textwrap
from collections import Counter

import pytest
from scipy.special import erfc as sp_erfc
from scipy.special import k0 as sp_k0

from diwt import kernels, oracles, quad, specfun
from diwt.errors import DomainError, NonConvergence, OrderError, UnknownCheckId
from diwt.oracles import (CANONICAL_CASES, CHECK_IDS, CheckReport,
                          check_bessel_index_bound,
                          check_bessel_laplace_transform,
                          check_gaussian_laplace_erfc,
                          check_iterated_inversion_route,
                          check_kernel_index_relation, check_kl_reduction,
                          check_whittaker_index_bound,
                          check_whittaker_laplace_bessel, run_suite)
from diwt.transforms import CoefficientSeq, ForwardHandle


class TestReportContract:
    def test_json_shape_uses_pass_key(self):
        r = check_gaussian_laplace_erfc(1.0, 0.0)
        d = r.to_json_dict()
        assert set(d) == {"check_id", "parameters", "lhs", "rhs", "abs_err",
                          "rel_err", "tolerance", "pass"}
        assert d["pass"] is True
        assert isinstance(r, CheckReport)

    def test_pass_rule_is_abs_or_rel(self):
        r = check_bessel_laplace_transform(2, math.pi / 2)
        # sin(2 * pi/2) = 0: the relative error is meaningless but the
        # absolute one is tiny, and the OR rule must accept it
        assert r.rel_err > r.tolerance
        assert r.abs_err <= r.tolerance
        assert r.passed


class TestWhittakerLaplaceBessel:
    def test_zero_index_reduces_to_k0(self):
        r = check_whittaker_laplace_bessel(0.0, 0.0j, 1.0)
        assert r.passed
        assert r.rhs == pytest.approx(4.0 * sp_k0(1.0), rel=1e-12)
        assert r.abs_err < 1e-10

    @pytest.mark.parametrize("case", [
        {"mu": 0.25, "rho": 0.5j, "x": 2.0},
        {"mu": -1.0, "rho": 0.3 + 0.0j, "x": 1.0},
        {"mu": 0.4, "rho": 0.25j, "x": 0.5},
    ])
    def test_representative_points(self, case):
        r = check_whittaker_laplace_bessel(**case)
        assert r.passed
        assert r.rel_err < 1e-10

    def test_rejects_mixed_complex_index(self):
        # the contour route folds its line by conjugate symmetry, which needs
        # a purely real or purely imaginary second index
        with pytest.raises(OrderError):
            check_whittaker_laplace_bessel(0.0, 0.3 + 0.5j, 1.0)
        with pytest.raises(DomainError):
            check_whittaker_laplace_bessel(0.0, 0.5j, 0.0)


class TestGaussianLaplaceErfc:
    def test_closed_form_at_unit_point(self):
        r = check_gaussian_laplace_erfc(1.0, 0.0)
        want = math.sqrt(math.pi) * math.e * sp_erfc(1.0)
        assert r.rhs == pytest.approx(want, rel=1e-13)
        assert r.passed and r.rel_err < 1e-12

    def test_small_t_regime(self):
        r = check_gaussian_laplace_erfc(0.01, 1.0)
        assert r.passed and r.rel_err < 1e-12

    def test_guards(self):
        with pytest.raises(DomainError):
            check_gaussian_laplace_erfc(0.0, 1.0)
        with pytest.raises(DomainError):
            check_gaussian_laplace_erfc(1.0, -0.5)
        with pytest.raises(DomainError):
            check_gaussian_laplace_erfc(1.0, 3.5)


class TestBesselLaplaceTransform:
    def test_quarter_period_value(self):
        r = check_bessel_laplace_transform(1, math.pi / 2)
        want = math.pi / (math.sinh(math.pi) * math.sinh(math.pi / 2))
        assert r.rhs == pytest.approx(want, rel=1e-15)
        assert r.passed and r.abs_err < 1e-10

    def test_generic_point(self):
        r = check_bessel_laplace_transform(1, 0.1)
        assert r.passed and r.rel_err < 1e-9

    def test_removable_endpoint_rejected(self):
        with pytest.raises(DomainError):
            check_bessel_laplace_transform(1, 0.0)
        with pytest.raises(DomainError):
            check_bessel_laplace_transform(1, 3.5)
        with pytest.raises(DomainError):
            check_bessel_laplace_transform(0, 1.0)


class TestKernelIndexRelation:
    @pytest.mark.parametrize("mu", [-0.25, 0.25])
    def test_representative_points(self, mu):
        r = check_kernel_index_relation(mu, 2, 0.5)
        assert r.passed and r.rel_err < 1e-8

    def test_order_guard(self):
        with pytest.raises(OrderError):
            check_kernel_index_relation(0.5, 1, 1.0)


class TestKlReduction:
    @pytest.mark.parametrize("n,x", [(1, 2.0), (3, 0.5)])
    def test_both_subrelations_tight(self, n, x):
        r = check_kl_reduction(n, x)
        assert r.passed
        assert r.parameters["binding_relation"] in ("whittaker-bessel",
                                                    "kernel-scaling")
        wa = abs(r.parameters["whittaker_lhs"] - r.parameters["whittaker_rhs"])
        ka = abs(r.parameters["kernel_lhs"] - r.parameters["kernel_rhs"])
        wscale = max(abs(r.parameters["whittaker_lhs"]), 1e-300)
        kscale = max(abs(r.parameters["kernel_lhs"]), 1e-300)
        assert wa / wscale < 1e-10
        assert ka / kscale < 1e-10


class TestBounds:
    def test_bessel_equality_case(self):
        r = check_bessel_index_bound(0.0, 2.0, 0.0)
        assert r.passed
        assert r.abs_err == 0.0
        assert r.lhs == r.rhs

    def test_whittaker_equality_case(self):
        r = check_whittaker_index_bound(0.25, 0.0, 1.0, 0.0)
        assert r.passed and r.abs_err == 0.0

    def test_whittaker_gamma_ratio_overflow_is_nonconvergence(self):
        # |Gamma(1/2)|^2 / |Gamma(1/2 + 240i)|^2 overflows a double
        with pytest.raises(NonConvergence, match="nonfinite side"):
            check_whittaker_index_bound(0.0, 240.0, 1.0, 0.0)

    def test_violation_is_one_sided(self):
        r = check_bessel_index_bound(3.0, 1.0, 1.2)
        assert r.lhs < r.rhs
        assert r.abs_err == 0.0

    def test_seeded_draws_hold(self):
        reps = run_suite(["bessel-index-bound", "whittaker-index-bound"],
                         trials=10, seed=99)
        assert len(reps) == 20
        assert all(r.passed for r in reps)

    def test_guards(self):
        with pytest.raises(DomainError):
            check_bessel_index_bound(1.0, -1.0, 0.0)
        with pytest.raises(DomainError):
            check_bessel_index_bound(1.0, 1.0, 2.0)
        with pytest.raises(OrderError):
            check_whittaker_index_bound(0.6, 1.0, 1.0, 0.0)


class TestIteratedRoute:
    def test_recovers_unit_coefficient(self):
        r = check_iterated_inversion_route(CoefficientSeq((1.0,)), 0.0, 1)
        assert r.passed
        assert r.abs_err < 1e-6
        assert r.rhs == 1.0

    def test_zero_sequence_trivial(self):
        r = check_iterated_inversion_route(CoefficientSeq((0.0,)), 0.25, 1)
        assert r.passed and r.lhs == 0.0 and r.rhs == 0.0

    def test_guards(self):
        seq = CoefficientSeq((1.0,))
        with pytest.raises(DomainError):
            check_iterated_inversion_route(seq, 0.0, 4)
        with pytest.raises(OrderError):
            check_iterated_inversion_route(seq, 0.5, 1)
        with pytest.raises(DomainError):
            check_iterated_inversion_route(seq, 0.0, 0)

    @pytest.mark.parametrize("mu, lhs", [(0.0, 0.9999999363599558),
                                         (0.25, 0.9999999364803381)])
    def test_inner_transforms_run_as_rows(self, monkeypatch, mu, lhs):
        # the canonical values pin the route; each outer integrand call
        # makes at most one row-rule call per inner piece, for the x it has
        # not met before, and no inner one-row integral
        open_calls, per_call, inner_one_row = [], [], []
        vec_call = quad._VecCall.__call__
        one_row, rows = oracles.integrate_finite, oracles.integrate_finite_rows

        def spy_call(self, x):
            open_calls.append(0)
            try:
                return vec_call(self, x)
            finally:
                per_call.append(open_calls.pop())

        def spy_one_row(*args, **kwargs):
            if open_calls:
                inner_one_row.append(args)
            return one_row(*args, **kwargs)

        def spy_rows(*args, **kwargs):
            open_calls[-1] += 1
            return rows(*args, **kwargs)

        monkeypatch.setattr(quad._VecCall, "__call__", spy_call)
        monkeypatch.setattr(oracles, "integrate_finite", spy_one_row)
        monkeypatch.setattr(oracles, "integrate_finite_rows", spy_rows)
        r = check_iterated_inversion_route(CoefficientSeq((1.0,)), mu, 1)
        assert r.lhs == lhs
        assert not inner_one_row
        assert sum(per_call) > 0
        assert max(per_call) <= 2

    def test_inner_stall_is_nonconvergence(self, monkeypatch):
        # an unconverged inner row must not be summed into the outer integral
        rows = oracles.integrate_finite_rows

        def stall_first_row(*args, **kwargs):
            rs = rows(*args, **kwargs)
            rs[0].converged = False
            return rs

        monkeypatch.setattr(oracles, "integrate_finite_rows", stall_first_row)
        with pytest.raises(NonConvergence, match="inner"):
            check_iterated_inversion_route(CoefficientSeq((1.0,)), 0.0, 1)

    def test_route_never_touches_the_kernel_path(self):
        # the route validates the kernel-based inversion only while it shares
        # no code with it: its body names nothing diwt.kernels defines, nor
        # the series inversion, the coefficient transform or the kernel memo
        kernel_tree = ast.parse(inspect.getsource(kernels))
        defined = {node.name for node in kernel_tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in kernel_tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        assert {"cylinder_cos_kernel", "_KERNEL_MEMO", "KernelKind"} <= defined
        body = ast.parse(textwrap.dedent(inspect.getsource(check_iterated_inversion_route)))
        used = ({n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
                | {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)})
        assert "ForwardHandle" in used
        assert not used & defined
        banned = {"invert_series", "invert_many", "_kernel_eval_many",
                  "kernel_memo_info", "kernel_memo_clear"}
        assert not used & banned
        assert not [u for u in used if u.startswith("coefficient_transform")]


def test_oracles_name_no_memo():
    # the Bessel-Laplace route and the full-range oracles check the memoized
    # evaluators only while they compute every value themselves: none names
    # a memo or the memoized entry points
    from diwt.transforms import _function_from_profile_full_range

    banned = {"_W_MEMO", "_KERNEL_MEMO", "LRUMemo", "w_memo_info", "w_memo_clear",
              "kernel_memo_info", "kernel_memo_clear", "_w_scaled_many",
              "_kernel_eval_many", "whittaker_w_mb"}
    for oracle in (specfun.whittaker_w_bessel, kernels._cylinder_sin_kernel_full_range,
                   _function_from_profile_full_range):
        body = ast.parse(textwrap.dedent(inspect.getsource(oracle)))
        used = ({n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
                | {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)})
        assert "integrate_finite" in used
        assert not used & banned, oracle.__name__


class TestSuiteRunner:
    def test_empty_selection(self):
        assert run_suite([], trials=5, seed=1) == []

    def test_zero_trials(self):
        assert run_suite(["kl-reduction"], trials=0, seed=1) == []

    def test_unknown_id(self):
        with pytest.raises(UnknownCheckId):
            run_suite(["no-such-check"], trials=1, seed=0)

    def test_negative_trials(self):
        with pytest.raises(DomainError):
            run_suite(["kl-reduction"], trials=-1, seed=0)

    def test_deterministic_reruns(self):
        a = run_suite(["gaussian-laplace-erfc-sign-corrected"], trials=3, seed=7)
        b = run_suite(["gaussian-laplace-erfc-sign-corrected"], trials=3, seed=7)
        assert a == b
        assert len(a) == 3 and all(r.passed for r in a)

    def test_streams_independent_of_selection(self):
        solo = run_suite(["kl-reduction"], trials=2, seed=11)
        mixed = run_suite(["gaussian-laplace-erfc-sign-corrected",
                           "kl-reduction"], trials=2, seed=11)
        assert solo == mixed[2:]

    def test_order_follows_selection(self):
        reps = run_suite(["kl-reduction",
                          "gaussian-laplace-erfc-sign-corrected"],
                         trials=1, seed=3)
        assert [r.check_id for r in reps] == [
            "kl-reduction", "gaussian-laplace-erfc-sign-corrected"]


class TestCanonicalSets:
    def test_counts(self):
        want = {
            "whittaker-laplace-bessel": 9,
            "gaussian-laplace-erfc-sign-corrected": 5,
            "bessel-laplace-transform": 6,
            "kernel-index-relation": 9,
            "kl-reduction": 6,
            "iterated-inversion-route": 2,
        }
        for cid, count in want.items():
            assert len(CANONICAL_CASES[cid]) == count
        assert sum(map(len, CANONICAL_CASES.values())) == 37

    def test_ids_registered(self):
        assert set(CANONICAL_CASES) <= set(CHECK_IDS)
        assert len(CHECK_IDS) == 8


class TestContourCallsPerIntegrandCall:
    @pytest.mark.parametrize("check, args", [
        (check_whittaker_laplace_bessel, (0.25, 0.5j, 2.0)),
        (check_whittaker_laplace_bessel, (0.1, 0.45 + 0.0j, 2.0)),
        (check_iterated_inversion_route, (CoefficientSeq((1.0,)), 0.0, 1)),
    ])
    def test_one_line_integral_per_integrand_call_and_abscissa(self, monkeypatch, cold_memos,
                                                               check, args):
        # each call of a quadrature integrand on a node array, and each
        # forward-series call (the iterated route's inner row integrands make
        # one per level inside an outer integrand call), opens a tally of the
        # contour-W line integrals made inside it (innermost call first),
        # keyed by (mu, index, abscissa)
        open_calls, tallies = [], []
        vec_call, forward = quad._VecCall.__call__, ForwardHandle.__call__
        line = specfun._w_contour_group

        def tallied(call):
            def spy(self, *args, **kwargs):
                open_calls.append(Counter())
                try:
                    return call(self, *args, **kwargs)
                finally:
                    tallies.append(open_calls.pop())
            return spy

        def spy_line(mu, rho, gamma, xs, spec):
            if open_calls:
                open_calls[-1][mu, rho, gamma] += 1
            return line(mu, rho, gamma, xs, spec)

        monkeypatch.setattr(quad._VecCall, "__call__", tallied(vec_call))
        monkeypatch.setattr(ForwardHandle, "__call__", tallied(forward))
        monkeypatch.setattr(specfun, "_w_contour_group", spy_line)
        assert check(*args).passed
        assert sum(sum(t.values()) for t in tallies) > 0
        assert max(max(t.values(), default=0) for t in tallies) == 1


class TestBesselCallsPerIntegrandCall:
    @pytest.mark.parametrize("check, args, name", [
        (check_bessel_laplace_transform, (2, 1.0), "bessel_k_imag"),
        (check_iterated_inversion_route, (CoefficientSeq((1.0,)), 0.0, 1), "incomplete_bessel_j"),
    ])
    def test_one_bessel_call_per_integrand_call(self, monkeypatch, check, args, name):
        # each call of a quadrature integrand on a node array opens a tally
        # of the K (or J) calls made inside it, innermost call first; no
        # integrand may fall back to one call per node
        open_calls, tallies, scalar = [], [], []
        vec_call, bessel = quad._VecCall.__call__, getattr(oracles, name)

        def spy_call(self, x):
            open_calls.append(0)
            try:
                return vec_call(self, x)
            finally:
                tallies.append(open_calls.pop())
                if self.vectorized is False:
                    scalar.append(self.f)

        def spy_bessel(*args, **kwargs):
            if open_calls:
                open_calls[-1] += 1
            return bessel(*args, **kwargs)

        monkeypatch.setattr(quad._VecCall, "__call__", spy_call)
        monkeypatch.setattr(oracles, name, spy_bessel)
        assert check(*args).passed
        assert not scalar
        assert sum(tallies) > 0
        assert max(tallies) == 1


class TestContourRouteKeepsClearOfTheSeries:
    def test_laplace_check_and_contour_never_reach_the_series(self, monkeypatch, cold_memos):
        # the Whittaker-Laplace check audits the contour route, and its nodes
        # reach t ~ 0.02, below the series cut: it must test the contour there
        def refuse(mu, tau, x):
            raise AssertionError("series reached")

        monkeypatch.setattr(specfun, "_w_series", refuse)
        with pytest.raises(AssertionError):
            specfun._w_scaled_many(0.25, 0.5j, [1e-3])
        specfun._w_contour_many(0.25, 0.5j, [1e-20, 1e-8, 1e-3, specfun._W_SERIES_CUT])
        assert check_whittaker_laplace_bessel(0.25, 0.5j, 2.0).passed
        assert check_whittaker_laplace_bessel(0.0, 1j, 0.5).passed
