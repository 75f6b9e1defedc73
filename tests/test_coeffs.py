import contextlib
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from closure14.coeffs import (
    CoefficientRequest,
    CoeffSeries,
    EquilibriumPoint,
    GeneratingFamily,
    constraint_residuals,
    default_path,
    eta_descending_literal,
    eta_product,
    h_pqr,
    h_series,
    k00,
    k0q_closed,
    k_pq,
    k_pq_closed,
    k_s_value,
    k_series,
    ladder_factor,
    ladder_residual,
    make_family,
    phi_pqr,
    phi_series,
    reduce_to_13,
    subsystem_coefficient,
)
from closure14.errors import (
    ClosureError,
    DomainError,
    FamilyConstructionError,
    ParityError,
    TruncationError,
)

# Independently derived reference values (exponential family, amplitude=scale=1).
KT0_AT_0 = 28.933881011162246
KT1_AT_0 = -976.5184841267256
KT2_AT_0 = 138421.49512496337
K10_REF = -43.40082151674337  # k_{1,0} at (lam, lam_ll, lam_ppqq) = (0, 1, 0)
K01_REF = -325.50616137557523
K02_REF = 3417.81469444354
K00_S2_REF = 26.08977092614316  # k00 at (0, 1, 0.01), S = 2

POINT = EquilibriumPoint(lam=0.0, lam_ll=1.0, lam_ppqq=0.0)


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

    def test_default_path(self):
        assert default_path(2, 3) == "cccrr"
        assert default_path(0, 0) == ""

    def test_path_independence(self, exp_family):
        # different step orders must agree once both retain the same orders
        pt = EquilibriumPoint(0.2, 1.5, 0.0)
        a = k_pq(exp_family, 2, 2, pt, S=5, path="ccrr")
        b = k_pq(exp_family, 2, 2, pt, S=5, path="rcrc")
        c = k_pq(exp_family, 2, 2, pt, S=5, path="rrcc")
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-12)

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
        with pytest.raises(ClosureError):
            call(exp_family)

    @pytest.mark.parametrize(
        "point",
        [
            EquilibriumPoint(0.0, 1.0, -5.0),
            EquilibriumPoint(0.0, 1.0, -1e-12),
            EquilibriumPoint(math.nan, 1.0, 0.0),
            EquilibriumPoint(math.inf, 1.0, 0.0),
            EquilibriumPoint(0.0, math.nan, 0.0),
            EquilibriumPoint(0.0, math.inf, 0.0),
            EquilibriumPoint(0.0, 1.0, math.nan),
            EquilibriumPoint(0.0, 1.0, math.inf),
        ],
        ids=["ppqq_neg", "ppqq_tiny_neg", "lam_nan", "lam_inf", "ll_nan", "ll_inf",
             "ppqq_nan", "ppqq_inf"],
    )
    def test_domain_boundary(self, exp_family, point):
        # lam_ppqq < 0 leaves chi unbounded below: the integral diverges
        with pytest.raises(DomainError):
            point.require_domain()
        with pytest.raises(DomainError):
            k_pq(exp_family, 0, 0, point, S=4)
        with pytest.raises(DomainError):
            h_pqr(exp_family, CoefficientRequest(0, 0, 1), point)
        with pytest.raises(DomainError):
            k_s_value(exp_family, 0, point)

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

    def test_h_prefactor_ratio(self, exp_family):
        # h_{p,q,r} / (d^r k_{p,q} / d lam_ll^r) = 3^r (p+q+1)/(p+q+2r+1)
        pt = EquilibriumPoint(0.2, 1.4, 0.0)
        base = k_series(exp_family, 2, 0, 4).d_ll()(exp_family, pt)
        got = h_pqr(exp_family, CoefficientRequest(2, 0, 1), pt)
        assert got == pytest.approx(3.0 * 3.0 / 5.0 * base, rel=1e-13)


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

    def test_q_max_beyond_family(self, exp_family):
        with pytest.raises(TruncationError):
            reduce_to_13(exp_family, 2 * exp_family.s_max + 2, 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lam_rejected(self, exp_family, lam):
        # NaN gave I_q = nan, and +inf a table of zeros
        with pytest.raises(DomainError):
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
    point.require_domain()
    total = 0.0
    for t in series.terms:
        factor = float(t.coef) * f.deriv(t.s, t.dl, point.lam)
        factor *= point.lam_ll ** float(t.ll_exp)
        if t.m:
            factor *= point.lam_ppqq ** t.m
        total += factor
    return total


def all_series(f, S):
    """Every k_{p,q} (p, q <= 6) and h/phi (p+q+2r <= 8) series at S, and their steps."""
    bases = []
    for p in range(7):
        for q in range(7):
            with contextlib.suppress(TruncationError):
                bases.append(k_series(f, p, q, S))
    for p in range(9):
        for q in range(9 - p):
            for r in range((8 - p - q) // 2 + 1):
                with contextlib.suppress(TruncationError):
                    bases.append((phi_series if (p + q) % 2 else h_series)(f, p, q, r, S))
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

    def test_steps_are_kept(self):
        series = k_series(None, 2, 1, 4)
        assert series.d_lam() is series.d_lam()
        assert series.d_ll() is series.d_ll()
        assert series.d_ppqq() is series.d_ppqq()

    def test_exhausted_order_raises_every_time(self):
        series = CoeffSeries.k00(1).d_ppqq()
        for _ in range(3):
            with pytest.raises(TruncationError):
                series.d_ppqq()


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

    def test_replace_starts_an_empty_table(self, counted):
        f, deriv = counted
        f.ktilde_deriv(0, 1, 0.25)
        before = len(deriv.calls)
        g = dataclasses.replace(f, kind="copy")
        assert g.ktilde_deriv(0, 1, 0.25) == f.ktilde_deriv(0, 1, 0.25)
        assert len(deriv.calls) == before + 1

    def test_table_is_not_part_of_the_value(self, counted):
        f, _ = counted
        f.ktilde_deriv(0, 1, 0.25)
        (table,) = (fl for fl in dataclasses.fields(f) if fl.name == "_members")
        assert not (table.compare or table.repr or table.init)
        assert "_members" not in repr(f)
