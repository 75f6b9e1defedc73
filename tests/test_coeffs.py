import contextlib
import dataclasses
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from closure14.coeffs import (
    CoefficientRequest,
    CoeffSeries,
    EquilibriumPoint,
    GeneratingFamily,
    _Term,
    constraint_residuals,
    eta_descending_literal,
    eta_product,
    h_pqr,
    k00,
    k0q_closed,
    k_pq,
    k_pq_closed,
    k_s_value,
    k_series,
    ladder_factor,
    ladder_residual,
    worst_ladder_residual,
    make_family,
    phi_pqr,
    reduce_to_13,
    subsystem_coefficient,
    tensor_series,
)
from closure14.errors import (
    ClosureError,
    DomainError,
    FamilyConstructionError,
    ParityError,
    TruncationError,
)
from closure14.kinetic import exponential_kernel, make_kinetic_family
from closure14.numdiff import RESIDUAL_FLOOR
from closure14.potentials import MultiplierState, eval_h_hat, eval_phi_hat
from closure14.verify import LAM_LL_RANGE, LAM_PPQQ_RANGE, LAM_RANGE
from oracles import full_plan_sum, k00_from_definition, k_series_along, step_series

# Independently derived reference values (exponential family, amplitude=scale=1).
KT0_AT_0 = 28.933881011162246
KT1_AT_0 = -976.5184841267256
KT2_AT_0 = 138421.49512496337
K10_REF = -43.40082151674337  # k_{1,0} at (lam, lam_ll, lam_ppqq) = (0, 1, 0)
K01_REF = -325.50616137557523
K02_REF = 3417.81469444354
K00_S2_REF = 26.08977092614316  # k00 at (0, 1, 0.01), S = 2

POINT = EquilibriumPoint(lam=0.0, lam_ll=1.0, lam_ppqq=0.0)


BUILT_IN = {kind: make_family(kind) for kind in ("exponential", "poly_exponential")}


@pytest.fixture(scope="module")
def exp_family():
    return make_family("exponential")


@pytest.fixture(scope="module")
def poly_family():
    return make_family("poly_exponential")


class TestFamily:
    def test_exponential_member_values(self, exp_family):
        # ktilde_s(0) = 4 pi (-1)^s 3^(2s+3/2) Gamma(2s+3/2) / 2
        assert exp_family.ktilde(0, 0.0) == pytest.approx(KT0_AT_0, rel=1e-14)
        assert exp_family.ktilde(1, 0.0) == pytest.approx(KT1_AT_0, rel=1e-14)
        assert exp_family.ktilde(2, 0.0) == pytest.approx(KT2_AT_0, rel=1e-14)

    def test_ladder_factor_exact(self):
        assert ladder_factor(0) == Fraction(135, 4)
        assert ladder_factor(1) == Fraction(567, 4)
        assert ladder_factor(2) == Fraction(1287, 4)

    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    @pytest.mark.parametrize("mode", ["oracle", "fd"])
    def test_ladder_residual_small(self, kind, mode, request):
        fam = request.getfixturevalue(
            "exp_family" if kind == "exponential" else "poly_family"
        )
        for s in range(3):
            for lam in (-1.0, 0.0, 1.0):
                if mode == "oracle":
                    # the family's own derivative oracle obeys the ladder
                    rhs = float(ladder_factor(s)) * fam.ktilde(s, lam)
                    assert abs(fam.ktilde_deriv(s + 1, 1, lam) - rhs) < 1e-6 * abs(rhs)
                else:
                    assert ladder_residual(fam, s, lam) < 1e-6

    def test_gate_rejects_broken_family(self):
        # a family violating the ladder recursion must not pass construction
        def bad(s, n, lam):
            return (-1.0) ** (s + n) * math.exp(-lam)

        with pytest.raises(FamilyConstructionError):
            make_family("custom", {"deriv": bad})

    def test_gate_rejects_nan_residuals(self):
        # max() dropped a nan that was not first, so these families passed
        exp = make_family("exponential").deriv

        def nan_at_one(s, n, lam):
            return math.nan if s == 2 and lam > 0.99 else exp(s, n, lam)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FamilyConstructionError, match="at s=1 is not finite"):
                make_family("custom", {"deriv": nan_at_one})
            with pytest.raises(FamilyConstructionError, match="nan at s=2 is not finite"):
                make_family("exponential", {"amplitude": 1e300})

    def test_worst_ladder_residual_keeps_nan(self):
        fam = GeneratingFamily(
            kind="custom", deriv=lambda s, n, lam: math.nan if lam > 0.5 else math.exp(-lam)
        )
        assert math.isnan(worst_ladder_residual(fam, 0, [0.0, 1.0]))
        assert worst_ladder_residual(fam, 0, [0.0]) == ladder_residual(fam, 0, 0.0)

    def test_direct_instantiation_skips_gate(self):
        fam = GeneratingFamily(kind="custom", deriv=lambda s, n, lam: 1.0, s_max=2)
        assert fam.ktilde(0, 0.0) == 1.0

    def test_truncation_limits(self, exp_family):
        with pytest.raises(TruncationError):
            exp_family.ktilde_deriv(exp_family.s_max + 1, 0, 0.0)
        with pytest.raises(TruncationError):
            exp_family.ktilde_deriv(0, exp_family.n_max + 1, 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_family("no-such-family")

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("custom", {}),
            ("custom", {"deriv": 3}),
            ("exponential", {"scale": 0}),
            ("exponential", {"scale": -1}),
            ("exponential", {"amplitdue": 2}),
            ("poly_exponential", {"scale": 2}),
            ("exponential", {"amplitude": 0}),
            ("exponential", {"amplitude": float("nan")}),
            ("exponential", {"amplitude": True}),
            ("exponential", {"s_max": None}),
            ("exponential", 3),
        ],
    )
    def test_bad_parameters_rejected(self, kind, params):
        with pytest.raises(ValueError):
            make_family(kind, params)

    def test_alias_kind(self):
        fam = make_family("polynomial-times-exponential")
        assert fam.ktilde(0, 0.0) != 0.0

    def test_ladder_residual_needs_next_member(self, exp_family):
        with pytest.raises(TruncationError):
            ladder_residual(exp_family, exp_family.s_max, 0.0)


class TestScalarCoefficients:
    def test_k00_equals_scaled_member_at_zero_quartic(self, exp_family):
        # with lam_ppqq = 0 only the s = 0 term survives
        pt = EquilibriumPoint(0.3, 2.0, 0.0)
        expect = 2.0 ** (-1.5) * exp_family.ktilde(0, 0.3)
        assert k00(exp_family, pt, S=4) == pytest.approx(expect, rel=1e-14)

    def test_k00_frozen_value(self, exp_family):
        pt = EquilibriumPoint(0.0, 1.0, 0.01)
        assert k00(exp_family, pt, S=2) == pytest.approx(K00_S2_REF, rel=1e-14)

    def test_k_s_value_scaling(self, exp_family):
        pt = EquilibriumPoint(0.1, 2.5, 0.0)
        expect = 2.5 ** (-(3 + 4) / 2) * exp_family.ktilde(1, 0.1)
        assert k_s_value(exp_family, 1, pt) == pytest.approx(expect, rel=1e-14)

    def test_frozen_low_order_values(self, exp_family):
        assert k_pq(exp_family, 1, 0, POINT, S=4) == pytest.approx(K10_REF, rel=1e-13)
        assert k_pq(exp_family, 0, 1, POINT, S=4) == pytest.approx(K01_REF, rel=1e-13)
        assert k_pq(exp_family, 0, 2, POINT, S=4) == pytest.approx(K02_REF, rel=1e-13)

    @pytest.mark.parametrize("S", range(7))
    def test_columns_then_rows(self, S):
        # the production series is the walker's along "c"*q + "r"*p, term by term
        for p in range(7):
            for q in range(7):
                try:
                    expected = k_series_along(p, q, S, "c" * q + "r" * p).terms
                except TruncationError:
                    with pytest.raises(TruncationError):
                        k_series(None, p, q, S)
                    continue
                got = k_series(None, p, q, S).terms
                assert got == expected, (p, q)
                assert all(type(t.coef) is type(t.ll_exp) is Fraction for t in got)

    def test_path_independence(self, exp_family):
        # different step orders must agree once both retain the same orders
        pt = EquilibriumPoint(0.2, 1.5, 0.0)
        a = k_pq(exp_family, 2, 2, pt, S=5)
        for path in sorted(set(map("".join, itertools.permutations("ccrr")))):
            assert k_series_along(2, 2, 5, path)(exp_family, pt) == pytest.approx(a, rel=1e-12)

    def test_series_truncation_exhausted(self, exp_family):
        # each column step of even parity consumes one quartic order
        with pytest.raises(TruncationError):
            k_series(exp_family, 0, 6, S=2)

    def test_domain_error_on_nonpositive_lam_ll(self, exp_family):
        with pytest.raises(DomainError):
            k_pq(exp_family, 0, 0, EquilibriumPoint(0.0, -1.0, 0.0), S=4)
        with pytest.raises(DomainError):
            k_pq(exp_family, 0, 0, EquilibriumPoint(0.0, 0.0, 0.0), S=4)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(
                lambda f: k_pq(f, 0, 0, EquilibriumPoint(-1000.0, 1.0, 0.0), S=4), id="point0"
            ),
            # members are inf without an OverflowError, and inf - inf is nan; at
            # lam_ppqq > 0 their terms count (at 0 they are skipped, see below)
            pytest.param(
                lambda f: k_pq(f, 0, 0, EquilibriumPoint(-700.0, 1.0, 1e-3), S=4), id="k_pq_nan"
            ),
            pytest.param(
                lambda f: h_pqr(f, CoefficientRequest(0, 0, 1),
                                EquilibriumPoint(-690.0, 0.05, 1e-3)),
                id="h_pqr_nan",
            ),
            pytest.param(
                lambda f: k_pq(f, 0, 0, EquilibriumPoint(0.0, 1e-300, 0.0), S=4), id="point1"
            ),
            pytest.param(lambda f: reduce_to_13(f, 6, -1000.0), id="reduce_to_13"),
            pytest.param(
                lambda f: k_s_value(f, 1, EquilibriumPoint(-1000.0, 1.0, 0.0)), id="k_s_value"
            ),
            pytest.param(lambda f: k0q_closed(f, 2, -1000.0, 1.0), id="k0q_closed"),
            pytest.param(
                lambda f: k_s_value(f, 1, EquilibriumPoint(0.0, 1e-300, 0.0)), id="k_s_value_ll"
            ),
            pytest.param(lambda f: k0q_closed(f, 2, 0.0, 1e-300), id="k0q_closed_ll"),
            pytest.param(lambda f: k0q_closed(f, 1, 0.0, 1e-300), id="k0q_closed_odd_ll"),
        ],
    )
    def test_overflow_is_typed(self, exp_family, call):
        # the family member's exp overflows at lam = -1000, the lam_ll power at 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ClosureError):
                call(exp_family)

    def test_overflowing_member_of_a_vanishing_term_is_skipped(self, exp_family):
        # at lam_ppqq = 0 only the m = 0 term of k00 is summed: ktilde_0(-700)
        # is finite, and the inf members ktilde_2..4 multiply 0
        pt = EquilibriumPoint(-700.0, 1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert k_pq(exp_family, 0, 0, pt, S=4) == exp_family.ktilde(0, -700.0)
            assert math.isinf(exp_family.ktilde(2, -700.0))

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda f: k_s_value(f, 2, EquilibriumPoint(-700.0, 1.0)), "k_2"),
            (lambda f: k0q_closed(f, 4, -700.0, 1.0), "k_0,4"),
            (lambda f: k0q_closed(f, 3, -700.0, 1.0), "k_0,3"),
            (lambda f: subsystem_coefficient(f, 4, -700.0), "I_4"),
            (lambda f: reduce_to_13(f, 4, -700.0), "I_4"),
        ],
        ids=["k_s_value", "k0q_closed_even", "k0q_closed_odd", "subsystem_coefficient",
             "reduce_to_13"],
    )
    def test_closed_form_inf_is_a_domain_error(self, exp_family, call, name):
        # ktilde_2(-700) is inf without an OverflowError: the closed forms
        # returned inf or -inf, not an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"{name} at .* is not finite"):
                call(exp_family)

    @pytest.mark.parametrize(
        "point",
        [
            (0.0, 1.0, -5.0),
            (0.0, 1.0, -1e-12),
            (math.nan, 1.0, 0.0),
            (math.inf, 1.0, 0.0),
            (0.0, math.nan, 0.0),
            (0.0, math.inf, 0.0),
            (0.0, 1.0, math.nan),
            (0.0, 1.0, math.inf),
        ],
        ids=["ppqq_neg", "ppqq_tiny_neg", "lam_nan", "lam_inf", "ll_nan", "ll_inf",
             "ppqq_nan", "ppqq_inf"],
    )
    def test_domain_boundary(self, point):
        # lam_ppqq < 0 leaves chi unbounded below: the integral diverges.  A
        # point outside the domain cannot be built, so no coefficient sees one.
        with pytest.raises(DomainError):
            EquilibriumPoint(*point)

    def test_domain_boundary_closed_form(self, exp_family):
        with pytest.raises(DomainError):
            k0q_closed(exp_family, 2, math.nan, 1.0)
        with pytest.raises(DomainError):
            k0q_closed(exp_family, 2, 0.0, math.inf)

    def test_zero_quartic_accepted(self, exp_family):
        for ppqq in (0.0, -0.0):
            pt = EquilibriumPoint(0.0, 1.0, ppqq)
            assert k_pq(exp_family, 1, 0, pt, S=4) == pytest.approx(K10_REF, rel=1e-13)


class TestTensorCoefficients:
    @settings(max_examples=50, deadline=None)
    @given(
        p=hst.integers(0, 8),
        q=hst.integers(0, 8),
        r=hst.integers(0, 4),
        S=hst.integers(0, 6),
        lam=hst.floats(-1.0, 1.0),
        lam_ll=hst.floats(0.1, 3.0),
        lam_ppqq=hst.floats(0.0, 0.1),
    )
    def test_parity_zeros(self, p, q, r, S, lam, lam_ll, lam_ppqq):
        """h has no p + q odd term and phi no p + q even term, at any point and order."""
        f = make_family("exponential")
        req, point = CoefficientRequest(p, q, r, S), EquilibriumPoint(lam, lam_ll, lam_ppqq)
        forbidden = phi_pqr if (p + q) % 2 == 0 else h_pqr
        assert forbidden(f, req, point) == 0.0

    def test_parity_forbidden_exact_zero(self, exp_family):
        assert h_pqr(exp_family, CoefficientRequest(1, 0, 0), POINT) == 0.0
        assert h_pqr(exp_family, CoefficientRequest(0, 3, 2), POINT) == 0.0
        assert phi_pqr(exp_family, CoefficientRequest(0, 0, 0), POINT) == 0.0
        assert phi_pqr(exp_family, CoefficientRequest(1, 1, 1), POINT) == 0.0

    def test_h_000_is_k00(self, exp_family):
        pt = EquilibriumPoint(0.1, 1.3, 0.002)
        assert h_pqr(exp_family, CoefficientRequest(0, 0, 0, S=3), pt) == pytest.approx(
            k00(exp_family, pt, S=3), rel=1e-14
        )

    def test_phi_100_prefactor(self, exp_family):
        # phi_{1,0,0} = (3/3) k_{1,0} = k_{1,0}
        assert phi_pqr(exp_family, CoefficientRequest(1, 0, 0), POINT) == pytest.approx(
            K10_REF, rel=1e-13
        )

    def test_tensor_series_is_the_h_or_phi_formula(self):
        # h: 3^r (n+1)/(n+2r+1) d^r k_{p,q}/dl_ll^r for even n = p+q;
        # phi: 3^r (n+2)/(n+2r+2) times the same for odd n
        S, checked = 6, 0
        for p in range(9):
            for q in range(9 - p):
                for r in range((8 - p - q) // 2 + 1):
                    try:
                        base = k_series(None, p, q, S)
                    except TruncationError:
                        with pytest.raises(TruncationError):
                            tensor_series(p, q, r, S)
                        continue
                    assert base is tensor_series(p, q, 0, S)  # one series object per k_{p,q}
                    for _ in range(r):
                        base = base.d_ll()
                    n = p + q + 2 * r
                    if (p + q) % 2:
                        factor = Fraction(3**r * (p + q + 2), n + 2)
                    else:
                        factor = Fraction(3**r * (p + q + 1), n + 1)
                    assert tensor_series(p, q, r, S).terms == base.scaled(factor).terms
                    checked += 1
        assert checked >= 90

    @pytest.mark.parametrize("p, q, r, S, name", [
        (-1, 0, 0, 4, "p"), (0, -2, 0, 4, "q"), (0, 0, -1, 4, "r"), (0, 0, 0, -1, "S"),
        (1.5, 0, 0, 4, "p"), (0, 0, 0.5, 4, "r"), (2, 0, 0.5, 4, "r"), (0, 1.5, 0, 4, "q"),
        (1, 0, 0, 4.5, "S"),
    ], ids=["p_negative", "q_negative", "r_negative", "S_negative", "p_fractional",
            "r_fractional", "r_fractional_p2", "q_fractional", "S_fractional"])
    def test_negative_or_fractional_series_index_rejected(self, exp_family, p, q, r, S, name):
        # k_pq(f, -1, 0, ...) returned k00, and a negative S an empty series
        message = f"^{name} must be an integer >= 0, got {dict(p=p, q=q, r=r, S=S)[name]!r}$"
        with pytest.raises(ValueError, match=message):
            tensor_series(p, q, r, S)
        if r == 0:
            with pytest.raises(ValueError, match=message):
                k_pq(exp_family, p, q, POINT, S)
        # h_pqr of (1.5, 0, 0) and phi_pqr of (2, 0, 0.5) returned 0.0, as if parity-forbidden
        for coefficient in (h_pqr, phi_pqr):
            with pytest.raises(ValueError, match=message):
                coefficient(exp_family, CoefficientRequest(p, q, r, S), POINT)

    def test_h_prefactor_ratio(self, exp_family):
        # h_{p,q,r} / (d^r k_{p,q} / d lam_ll^r) = 3^r (p+q+1)/(p+q+2r+1)
        pt = EquilibriumPoint(0.2, 1.4, 0.0)
        base = k_series(exp_family, 2, 0, 4).d_ll()(exp_family, pt)
        got = h_pqr(exp_family, CoefficientRequest(2, 0, 1), pt)
        assert got == pytest.approx(3.0 * 3.0 / 5.0 * base, rel=1e-13)


class TestCoefficientRequest:
    def test_fields_are_read_only(self):
        req = CoefficientRequest(3, 3, 1, 6)
        for name in ("p", "q", "r", "S"):
            with pytest.raises(AttributeError):
                setattr(req, name, 0)
        assert req == (3, 3, 1, 6)

    def test_repr_and_default_truncation(self):
        assert repr(CoefficientRequest(3, 3, 1, 6)) == "CoefficientRequest(p=3, q=3, r=1, S=6)"
        assert CoefficientRequest(1, 2, 0).S == 4
        assert CoefficientRequest(1, 2, 0) == CoefficientRequest(1, 2, 0, S=4)

    def test_hashable(self):
        req = CoefficientRequest(2, 0, 1, 5)
        assert hash(req) == hash(CoefficientRequest(2, 0, 1, 5))
        assert {req: 1}[CoefficientRequest(2, 0, 1, 5)] == 1

    def test_bool_index_is_one(self, exp_family):
        # tensor_series accepts a bool index as the integer it is
        pt = EquilibriumPoint(0.2, 1.4, 0.01)
        req = CoefficientRequest(True, 1, 0)
        assert req == (1, 1, 0, 4)
        assert tensor_series(True, 1, 0, 4) is tensor_series(1, 1, 0, 4)
        assert h_pqr(exp_family, req, pt) == h_pqr(exp_family, CoefficientRequest(1, 1, 0), pt)

    def test_replace_and_make_are_checked(self):
        req = CoefficientRequest(1, 0, 0)
        assert req._replace(r=2) == CoefficientRequest(1, 0, 2)
        with pytest.raises(ValueError, match="^S must be an integer >= 0, got -1$"):
            req._replace(S=-1)
        with pytest.raises(ValueError, match="^q must be an integer >= 0, got 0.5$"):
            CoefficientRequest._make([0, 0.5, 0, 4])


class TestClosedForms:
    def test_eta_product_convention(self):
        assert eta_product(3, 7) == 3 * 5 * 7
        assert eta_product(5, 3) == 1
        with pytest.raises(ParityError):
            eta_product(3, 6)

    def test_eta_literal_differs_by_flagged_factors(self):
        # literal descending reading disagrees with the working ascending
        # convention by a factor of 3 (q=0) and 35 (q=1)
        q = 0
        assert eta_descending_literal(2 * q + 3, 3 * q + 1) == 3 * eta_product(
            2 * q + 3, 3 * q + 1
        )
        q = 1
        assert eta_descending_literal(2 * q + 5, 3 * q + 2) == 35 * eta_product(
            2 * q + 5, 3 * q + 2
        )

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(4) for q in range(4)])
    def test_k_pq_closed_matches_stepwise(self, exp_family, p, q):
        pt = EquilibriumPoint(0.25, 1.7, 0.0)
        step = k_pq(exp_family, p, q, pt, S=5)
        closed = k_pq_closed(exp_family, p, q, pt, S=5)
        assert closed == pytest.approx(step, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("q", range(6))
    def test_k0q_closed_matches_series(self, exp_family, q):
        pt = EquilibriumPoint(-0.4, 2.2, 0.0)
        closed = k0q_closed(exp_family, q, pt.lam, pt.lam_ll)
        series = k_pq(exp_family, 0, q, pt, S=5)
        first_row = k_pq_closed(exp_family, 0, q, pt, S=5)
        assert closed == pytest.approx(series, rel=1e-12)
        assert first_row == pytest.approx(series, rel=1e-12)

    def test_k0q_closed_domain(self, exp_family):
        with pytest.raises(DomainError):
            k0q_closed(exp_family, 2, 0.0, -1.0)


class TestConstraints:
    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_residuals_small(self, kind, request):
        fam = request.getfixturevalue(
            "exp_family" if kind == "exponential" else "poly_family"
        )
        for pt in (
            EquilibriumPoint(0.0, 1.0, 0.0),
            EquilibriumPoint(-0.5, 0.8, 0.01),
            EquilibriumPoint(0.7, 3.0, 0.02),
        ):
            c_resid, f1_resid = constraint_residuals(fam, pt, S=4)
            assert c_resid <= 1e-9
            assert f1_resid <= 1e-9

    def test_needs_two_orders(self, exp_family):
        with pytest.raises(TruncationError):
            constraint_residuals(exp_family, POINT, S=1)

    @pytest.mark.parametrize("S", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_compiled_once_same_bits(self, kind, S, request):
        # the series built once per S give the bits of the formula rebuilt per call
        fam = request.getfixturevalue("exp_family" if kind == "exponential" else "poly_family")
        for pt in random_points(seed=10 + S):
            base = CoeffSeries(CoeffSeries.k00(S).terms)
            rhs_series = base.d_lam().d_ppqq()
            lhs_c = 9.0 * base.d_ll().d_ll().truncated(rhs_series.max_order())(fam, pt)
            rhs_c = rhs_series(fam, pt)
            t0 = 3.0 * base(fam, pt)
            t1 = 2.0 * pt.lam_ll * base.d_ll()(fam, pt)
            t2 = 4.0 * pt.lam_ppqq * base.d_ppqq()(fam, pt)
            expect = (
                abs(lhs_c - rhs_c) / max(abs(lhs_c), abs(rhs_c), RESIDUAL_FLOOR),
                abs(t0 + t1 + t2) / max(abs(t0), abs(t1), abs(t2), RESIDUAL_FLOOR),
            )
            assert constraint_residuals(fam, pt, S) == expect

    @settings(max_examples=200, deadline=None)
    @given(
        kind=hst.sampled_from(["exponential", "poly_exponential"]),
        S=hst.integers(2, 6),
        lam=hst.floats(*LAM_RANGE),
        lam_ll=hst.floats(*LAM_LL_RANGE),
        lam_ppqq=hst.floats(*LAM_PPQQ_RANGE),
    )
    def test_scaling_identity_holds_over_the_verify_ranges(self, kind, S, lam, lam_ll, lam_ppqq):
        # 3 k00 + 2 l_ll dk00/dl_ll + 4 l_ppqq dk00/dl_ppqq = 0 holds order by order
        f = BUILT_IN[kind]
        _, scaling = constraint_residuals(f, EquilibriumPoint(lam, lam_ll, lam_ppqq), S)
        assert scaling <= 1e-9


class TestSubsystem:
    def test_matches_k0q_closed_at_unit_lam_ll(self, exp_family):
        for q in (0, 2, 4):
            iq = subsystem_coefficient(exp_family, q, 0.3)
            assert iq == pytest.approx(
                k0q_closed(exp_family, q, 0.3, 1.0), rel=1e-13
            )

    def test_odd_q_rejected(self, exp_family):
        with pytest.raises(ParityError):
            subsystem_coefficient(exp_family, 3, 0.0)

    def test_table_contents(self, exp_family):
        table = reduce_to_13(exp_family, 4, -0.2)
        assert sorted(table.values) == [0, 2, 4]
        assert table.c_q == 0.0
        assert table.lam == -0.2
        assert [f.name for f in dataclasses.fields(table)] == ["lam", "values"]

    def test_q_max_beyond_family(self, exp_family):
        with pytest.raises(TruncationError):
            reduce_to_13(exp_family, 2 * exp_family.s_max + 2, 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lam_rejected(self, exp_family, lam):
        # NaN gave I_q = nan, and +inf a table of zeros; the member table raises
        with pytest.raises(DomainError, match=f"^lambda must be finite, got {lam}$"):
            subsystem_coefficient(exp_family, 2, lam)
        with pytest.raises(DomainError):
            reduce_to_13(exp_family, 4, lam)


# --- compiled series and the one-point member table ---------------------------


def term_loop(series, f, point):
    """Exact-term evaluation of a series, the oracle for its compiled float plan.

    It converts each Fraction per term and calls the family's raw ``deriv``,
    bypassing the member table, with the arithmetic of ``CoeffSeries.__call__``
    in the same order; so the two must agree exactly, not to a tolerance.
    """
    total = 0.0
    for t in series.terms:
        factor = float(t.coef) * f.deriv(t.s, t.dl, point.lam)
        factor *= point.lam_ll ** float(t.ll_exp)
        if t.m:
            factor *= point.lam_ppqq ** t.m
        total += factor
    return total


def all_series(f, S):
    """Every k_{p,q} (p, q <= 6) and tensor (p+q+2r <= 8) series at S, and their steps."""
    bases = []
    for p in range(7):
        for q in range(7):
            with contextlib.suppress(TruncationError):
                bases.append(k_series(f, p, q, S))
    for p in range(9):
        for q in range(9 - p):
            for r in range((8 - p - q) // 2 + 1):
                with contextlib.suppress(TruncationError):
                    bases.append(tensor_series(p, q, r, S))
    for series in bases:
        yield series
        for step in (CoeffSeries.d_lam, CoeffSeries.d_ll, CoeffSeries.d_ppqq):
            with contextlib.suppress(TruncationError):
                yield step(series)


def random_points(seed, count=3):
    rng = np.random.default_rng(seed)
    pts = [EquilibriumPoint(rng.uniform(-1, 1), rng.uniform(0.5, 4.0), rng.uniform(0, 0.05))
           for _ in range(count)]
    return pts + [EquilibriumPoint(rng.uniform(-1, 1), rng.uniform(0.5, 4.0), 0.0)]


class CountingDeriv:
    """A derivative oracle that records every call it receives."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, s, n, lam):
        self.calls.append((s, n, lam))
        return self.fn(s, n, lam)


@pytest.fixture
def counted():
    deriv = CountingDeriv(make_family("exponential").deriv)
    return make_family("custom", {"deriv": deriv}), deriv


PQ6 = [(p, q) for p in range(7) for q in range(7)]


class TestCompiledSeries:
    @pytest.mark.parametrize("S", [2, 4, 6])
    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_plan_equals_term_loop(self, kind, S, request):
        fam = request.getfixturevalue("exp_family" if kind == "exponential" else "poly_family")
        checked = 0
        for pt in random_points(seed=S):
            for series in all_series(fam, S):
                assert series(fam, pt) == term_loop(series, fam, pt)
                checked += 1
        assert checked >= 4 * 400  # four points, at least 400 series each

    @pytest.mark.parametrize("S", [2, 4, 6])
    def test_unit_scale_keeps_the_series(self, S):
        # k_10 = phi_100 and h_001 are both d k00 / d lam_ll with scale pi = 1,
        # so one slot serves them and the constraint's lam_ll derivative
        d_ll = CoeffSeries.k00(S).derivative(0, 1, 0)
        assert CoeffSeries.k00(S).derivative(0, 1, 0) is d_ll
        assert tensor_series(1, 0, 0, S) is d_ll
        assert tensor_series(0, 0, 1, S) is d_ll
        # scaled is a term rule: a new series, also at 1
        assert d_ll.scaled(1) is not d_ll and d_ll.scaled(1).terms == d_ll.terms

    def test_exhausted_order_raises_every_time(self):
        series = CoeffSeries.k00(1).d_ppqq()
        for _ in range(3):
            with pytest.raises(TruncationError):
                series.d_ppqq()
            with pytest.raises(TruncationError):
                CoeffSeries.k00(1).derivative(0, 0, 2)


def outcome(call):
    """("value", bits) of a call that returns, or (error type, message) of one that raises."""
    try:
        return "value", call().hex()
    except (TruncationError, ValueError) as exc:
        return type(exc), str(exc)


class TestZeroQuarticPlan:
    """At l_ppqq = 0 a series sums only its m = 0 terms, with the bits of the full plan."""

    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential", "kinetic"])
    def test_same_bits_as_the_full_plan(self, kind):
        f = (make_kinetic_family(exponential_kernel()) if kind == "kinetic"
             else make_family(kind))
        rng = np.random.default_rng(29)
        points = [EquilibriumPoint(rng.uniform(-1, 1), rng.uniform(0.5, 4.0), 0.0)
                  for _ in range(3)] + [EquilibriumPoint(0.3, 1.6, 0.02)]
        checked = 0
        for pt in points:
            for S in range(7):
                for p, q, r in cells(8):
                    if (q + 1) // 2 > S:  # c > S: no series
                        continue
                    series = tensor_series(p, q, r, S)
                    got = series(f, pt)
                    assert got.hex() == full_plan_sum(series, f, pt).hex(), (pt, p, q, r, S)
                    checked += 1
        assert checked > 4 * 400

    def test_kinetic_op_fetches_only_the_members_of_m_zero_terms(self):
        fam = make_kinetic_family(exponential_kernel())
        for lam_ppqq, fetched in ((0.0, 5), (0.02, 10)):
            deriv = CountingDeriv(fam.deriv)
            counting = dataclasses.replace(fam, deriv=deriv)
            pt = EquilibriumPoint(0.37, 1.3, lam_ppqq)
            for p in range(4):
                for q in range(4 - p):  # the ten k_pq of a kinetic op, p + q <= 3
                    k_pq(counting, p, q, pt, 4)
            assert len(deriv.calls) == len(set(deriv.calls)) == fetched, lam_ppqq
            keys = {key for p in range(4) for q in range(4 - p)
                    for _, key, _, m in tensor_series(p, q, 0, 4).plan if m == 0 or lam_ppqq}
            assert {(s, n) for s, n, _ in deriv.calls} == keys

    @pytest.mark.parametrize("case", [
        pytest.param((dict(s_max=3), lambda: tensor_series(0, 0, 0, 4)), id="S_past_s_max"),
        pytest.param((dict(s_max=3), lambda: tensor_series(2, 2, 1, 5)), id="S_past_s_max_cell"),
        pytest.param((dict(n_max=2), lambda: tensor_series(6, 0, 0, 4)), id="dl_past_n_max"),
        pytest.param((dict(n_max=2), lambda: CoeffSeries(  # only a vanishing term past n_max
            [_Term(Fraction(1), 0, 0, Fraction(-3, 2), 0),
             _Term(Fraction(1), 1, 3, Fraction(-7, 2), 1)])), id="vanishing_dl_past_n_max"),
        pytest.param((dict(), lambda: CoeffSeries(  # only a vanishing term with dl < 0
            [_Term(Fraction(1), 0, 0, Fraction(-3, 2), 0),
             _Term(Fraction(1), 1, -1, Fraction(-7, 2), 1)])), id="vanishing_negative_dl"),
    ])
    def test_range_errors_as_at_positive_lam_ppqq(self, case):
        limits, make = case
        f = dataclasses.replace(make_family("exponential"), **limits)
        series = make()
        errors = [outcome(lambda: series(f, EquilibriumPoint(0.2, 1.4, lam_ppqq)))
                  for lam_ppqq in (0.01, 0.0)]
        assert errors[0][0] != "value"
        assert errors[1] == errors[0]
        with pytest.raises(errors[0][0], match=re.escape(errors[0][1])):
            series(f, EquilibriumPoint(-0.5, 2.0, 0.0))


def cells(N):
    """Every (p, q, r) with p + q + 2r <= N."""
    return [(p, q, r) for p in range(N + 1) for q in range(N + 1 - p)
            for r in range((N - p - q) // 2 + 1)]


EXHAUSTED = "^series order exhausted: increase S for this lambda_ppqq derivative$"


class TestCellsFromClosedForm:
    """Each cell is built from its closed form; cells with equal terms are one object."""

    def test_closed_form_is_the_step_chain(self):
        # terms and plan equal to the step chain's at S = 14.  A cell's terms at
        # S < 14 are those with s <= S of its S = 14 terms, on both routes (every
        # step maps terms one by one), and only the column steps' d/dl_ppqq can
        # raise, so the chain of (p, q, r) raises at S exactly where (0, q, 0) does
        top, checked = 14, 0
        for p, q, r in cells(24):
            chain = step_series(p, q, r, top)  # c = ceil(q/2) <= 12, so no order runs out
            for S in range(top + 1):
                try:
                    step_series(0, q, 0, S)
                except TruncationError:
                    with pytest.raises(TruncationError, match=EXHAUSTED):
                        tensor_series(p, q, r, S)
                    continue
                got = tensor_series(p, q, r, S)
                assert got.terms == tuple(t for t in chain.terms if t.s <= S), (p, q, r, S)
                assert got.plan == tuple(e for e in chain.plan if e[1][0] <= S), (p, q, r, S)
                checked += 1
        assert checked > 15_000
        # derivative(1, 0, 0), (0, 1, 0) and (0, 0, 1) of every cell at every S <= 12
        # against d_lam, d_ll and d_ppqq of the step chain: equal terms and plan,
        # or the same TruncationError
        steps = {(1, 0, 0): CoeffSeries.d_lam, (0, 1, 0): CoeffSeries.d_ll,
                 (0, 0, 1): CoeffSeries.d_ppqq}
        checked = raised = 0
        for p, q, r in cells(20):
            for S in range(13):
                try:
                    chain = step_series(p, q, r, S)
                except TruncationError:
                    continue  # no cell, checked above
                series = tensor_series(p, q, r, S)
                for shift, step in steps.items():
                    checked += 1
                    try:
                        want = step(chain)
                    except TruncationError:
                        with pytest.raises(TruncationError, match=EXHAUSTED):
                            series.derivative(*shift)
                        raised += 1
                        continue
                    got = series.derivative(*shift)
                    assert got.terms == want.terms, (p, q, r, S, shift)
                    assert got.plan == want.plan, (p, q, r, S, shift)
        assert (checked, raised) == (28_974, 946)

    def test_equal_terms_are_one_object(self):
        S, groups = 8, {}
        for p, q, r in cells(12):
            with contextlib.suppress(TruncationError):
                series = tensor_series(p, q, r, S)
                groups.setdefault(series.terms, set()).add(id(series))
        assert all(len(ids) == 1 for ids in groups.values())
        shared = 0
        for p, q, r in cells(12):  # h_{p,q,r} = phi_{p+1,q,r-1} for even p+q, of order one less
            if (p + q) % 2 == 0 and r >= 1:
                assert tensor_series(p, q, r, S) is tensor_series(p + 1, q, r - 1, S)
                shared += 1
        assert shared == 91

    def test_steps_of_k00_are_the_shared_cells(self):
        k00 = CoeffSeries.k00(6)
        assert k00 is tensor_series(0, 0, 0, 6)
        assert k00.derivative(1, 1, 0) is tensor_series(2, 0, 0, 6)  # pi = 1: (a, b, c) = (1, 1, 0)
        assert k00.derivative(0, 1, 1) is tensor_series(0, 2, 0, 6)  # pi = 1: (0, 1, 1)
        assert k00.derivative(1, 0, 0).derivative(0, 1, 0) is k00.derivative(1, 1, 0)
        # the step rules share no object with the table
        for step, shift in ((CoeffSeries.d_lam, (1, 0, 0)), (CoeffSeries.d_ll, (0, 1, 0)),
                            (CoeffSeries.d_ppqq, (0, 0, 1))):
            assert step(k00) is not k00.derivative(*shift)
            assert step(k00).terms == k00.derivative(*shift).terms
        stepped = k00.d_ll().d_lam()
        assert stepped is not tensor_series(2, 0, 0, 6)
        assert stepped.terms == tensor_series(2, 0, 0, 6).terms

    def test_constructor_builds_a_new_series(self):
        s = tensor_series(2, 1, 1, 6)
        fresh_s = CoeffSeries(s.terms)
        assert fresh_s is not s and fresh_s.terms == s.terms and fresh_s.plan == s.plan
        assert fresh_s.d_ll() is not s.d_ll() and fresh_s.d_ll().terms == s.d_ll().terms
        with pytest.raises(ValueError, match="has a derivative"):
            fresh_s.derivative(0, 1, 0)  # a series without a key
        definition = k00_from_definition(6)
        assert definition is not CoeffSeries.k00(6) and definition.terms == CoeffSeries.k00(6).terms

    def test_a_coeffs_op_evaluates_78_series_per_family(self, monkeypatch):
        # the 149 series calls per family of one benchmark ``coeffs`` op at (N, S) = (8, 6):
        # 49 k_pq, 95 h/phi cells and the 5 reads of the constraints, at a new point
        calls = []
        members_at = GeneratingFamily.members_at

        def counting(f, lam):
            calls.append(f)
            return members_at(f, lam)

        monkeypatch.setattr(GeneratingFamily, "members_at", counting)
        pt = EquilibriumPoint(0.123, 1.789, 0.0321)
        for f in BUILT_IN.values():
            for p, q in PQ6:
                k_pq(f, p, q, pt, 6)
            for p, q, r in cells(8):
                h_pqr(f, CoefficientRequest(p, q, r, 6), pt)
                phi_pqr(f, CoefficientRequest(p, q, r, 6), pt)
            constraint_residuals(f, pt, 6)
            reduce_to_13(f, 10, pt.lam)
        assert [calls.count(f) for f in BUILT_IN.values()] == [78, 78]


class TestMemberTable:
    def test_one_oracle_call_per_member(self, counted, exp_family):
        f, deriv = counted
        pt = EquilibriumPoint(0.3, 1.7, 0.02)
        deriv.calls.clear()
        got = {pq: k_pq(f, *pq, pt, S=6) for pq in PQ6}
        assert deriv.calls and len(deriv.calls) == len(set(deriv.calls))
        assert {lam for _, _, lam in deriv.calls} == {0.3}
        assert got == {pq: k_pq(exp_family, *pq, pt, S=6) for pq in PQ6}

    def test_switching_points_is_never_stale(self, counted):
        f, deriv = counted
        plain = make_family("exponential")
        a, b = EquilibriumPoint(-0.4, 1.2, 0.01), EquilibriumPoint(0.6, 2.5, 0.03)
        expect = {pt: [k_pq(plain, *pq, pt, S=4) for pq in PQ6[:20]] for pt in (a, b)}
        for pt in (a, b, a, b, a):
            assert [k_pq(f, *pq, pt, S=4) for pq in PQ6[:20]] == expect[pt]
        for lam in (0.1, -0.2, 0.1, 0.0, -0.0):
            assert f.ktilde_deriv(1, 2, lam) == deriv.fn(1, 2, lam)

    def test_failed_calls_are_not_stored(self, counted):
        f, deriv = counted
        for _ in range(2):
            with pytest.raises(TruncationError):
                f.ktilde_deriv(f.s_max + 1, 0, 0.3)
            with pytest.raises(TruncationError):
                f.ktilde_deriv(0, f.n_max + 1, 0.3)
        before = len(deriv.calls)
        for _ in range(2):
            with pytest.raises(DomainError):
                f.ktilde_deriv(0, 0, -1000.0)
        assert len(deriv.calls) == before + 2
        assert f.ktilde_deriv(0, 0, -1.0) == deriv.fn(0, 0, -1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_non_finite_lam_rejected(self, kind, lam):
        # NaN gave nan and +inf gave 0.0; a table filled at 0.3 makes lam a miss
        f = make_family(kind)
        f.ktilde(0, 0.3)
        for _ in range(2):
            with pytest.raises(DomainError):
                f.ktilde(0, lam)
            with pytest.raises(DomainError):
                f.ktilde_deriv(1, 2, lam)
        assert f.ktilde(0, 0.3) == f.deriv(0, 0, 0.3)

    @pytest.mark.parametrize("s, n, name", [
        (-1, 0, "s"), (0, -1, "derivative order n"), (1.5, 0, "s"), (0, 0.5, "derivative order n"),
    ])
    def test_negative_or_fractional_index_rejected(self, counted, s, n, name):
        # ktilde_deriv(-1, 0, 0.2) returned 10.53 and stored it
        f, deriv = counted
        f.ktilde_deriv(0, 0, 0.2)
        before = len(deriv.calls)
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0"):
                f.ktilde_deriv(s, n, 0.2)
        assert len(deriv.calls) == before
        assert set(f.members_at(0.2)) == {(0, 0)}

    def test_replace_starts_an_empty_table(self, counted):
        f, deriv = counted
        f.ktilde_deriv(0, 1, 0.25)
        before = len(deriv.calls)
        g = dataclasses.replace(f, kind="copy")
        assert g.ktilde_deriv(0, 1, 0.25) == f.ktilde_deriv(0, 1, 0.25)
        assert len(deriv.calls) == before + 1

    @pytest.mark.parametrize(
        "params, p, message",
        [
            ({}, 26, "derivative order 13 exceeds n_max=12"),
            ({"s_max": 3}, 0, "s=4 exceeds family s_max=3"),
        ],
    )
    def test_full_table_raises_the_same_truncation(self, params, p, message):
        # a series reads members from the table; one out of range is never there
        pt = EquilibriumPoint(0.3, 1.7, 0.02)
        errors = []
        for fill in (False, True):
            f = make_family("exponential", params)
            if fill:
                for s in range(f.s_max + 1):
                    for n in range(f.n_max + 1):
                        f.ktilde_deriv(s, n, pt.lam)
                assert len(f.members_at(pt.lam)) == (f.s_max + 1) * (f.n_max + 1)
            with pytest.raises(TruncationError) as exc:
                k_pq(f, p, 0, pt, S=6)
            errors.append(str(exc.value))
        assert errors == [message, message]

    def test_series_after_potentials_makes_no_oracle_call(self, counted, exp_family):
        f, deriv = counted
        state = MultiplierState.equilibrium(0.3, 1.7, 0.02)
        eval_h_hat(f, state, 6, 4)
        eval_phi_hat(f, state, 6, 4)
        deriv.calls.clear()
        pt = state.scalar_point()
        reqs = [CoefficientRequest(p, q, r, 4)
                for p in range(7) for q in range(7 - p) for r in range((6 - p - q) // 2 + 1)]
        got = [(h_pqr(f, req, pt), phi_pqr(f, req, pt)) for req in reqs]
        assert deriv.calls == []
        assert got == [(h_pqr(exp_family, req, pt), phi_pqr(exp_family, req, pt)) for req in reqs]

    def test_members_at_is_the_table(self, counted):
        f, _ = counted
        table = f.members_at(0.25)
        assert table == {}
        value = f.ktilde_deriv(1, 2, 0.25)
        assert table == {(1, 2): value} and f.members_at(0.25) is table
        assert f.members_at(-0.5) == {} and table is not f.members_at(-0.5)
        for lam in (math.nan, math.inf):
            with pytest.raises(DomainError):
                f.members_at(lam)

    def test_table_is_not_part_of_the_value(self, counted):
        f, _ = counted
        f.ktilde_deriv(0, 1, 0.25)
        (table,) = (fl for fl in dataclasses.fields(f) if fl.name == "_members")
        assert not (table.compare or table.repr or table.init)
        assert "_members" not in repr(f)


def fresh(series, f, point):
    """The value of a series evaluated by a new series of the same terms, whose slot is empty."""
    return CoeffSeries(series.terms)(f, point)


class TestLastCallSlot:
    """A series that returns its stored value gives the bits of a fresh evaluation."""

    def test_alternating_families(self):
        series = tensor_series(2, 2, 1, 6)
        pt = EquilibriumPoint(0.3, 1.7, 0.02)
        fams = make_family("exponential"), make_family("poly_exponential")
        expect = [fresh(series, f, pt).hex() for f in fams]
        assert expect[0] != expect[1]
        for _ in range(3):
            assert [series(f, pt).hex() for f in fams for _ in range(2)] == [
                expect[0], expect[0], expect[1], expect[1]]

    def test_fault_injected_family_after_the_true_one(self):
        true = make_family("exponential")
        broken = GeneratingFamily(
            kind="exponential", deriv=lambda s, n, lam: true.deriv(s, n, lam) * (1.0 + 1e-6),
            params=true.params,
        )
        pt = EquilibriumPoint(-0.2, 2.1, 0.01)
        for series in (tensor_series(2, 0, 0, 4), CoeffSeries.k00(4)):
            expect = fresh(series, true, pt).hex()
            assert series(true, pt).hex() == expect
            got = series(broken, pt).hex()
            assert got == fresh(series, broken, pt).hex() and got != expect
            assert series(true, pt).hex() == expect

    def test_equal_but_distinct_point(self):
        f = make_family("poly_exponential")
        a, b = EquilibriumPoint(0.4, 0.9, 0.04), EquilibriumPoint(0.4, 0.9, 0.04)
        assert a == b and a is not b
        series = tensor_series(3, 1, 2, 6)
        expect = fresh(series, f, a).hex()
        assert [series(f, pt).hex() for pt in (a, b, a, b)] == [expect] * 4

    def test_overflow_raises_every_call_and_stores_nothing(self):
        f = make_family("exponential")
        series = tensor_series(0, 0, 1, 4)
        good = EquilibriumPoint(0.3, 1.7, 0.02)
        value = series(f, good)
        bad = EquilibriumPoint(-690.0, 0.05, 1e-3)  # inf members on terms with m > 0
        for _ in range(3):
            with pytest.raises(DomainError, match="coefficient overflows"):
                series(f, bad)
            assert series._last == (f, good, value)
        assert series(f, good).hex() == fresh(series, f, good).hex()
