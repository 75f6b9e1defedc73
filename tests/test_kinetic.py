import math

import pytest

from closure14.coeffs import (
    BUILTIN_KERNELS,
    EquilibriumPoint,
    k00,
    k_pq,
    k_s_value,
    make_family,
)
from closure14.errors import DecayError, DomainError
from closure14.kinetic import (
    KineticKernel,
    QuadratureSpec,
    exponential_kernel,
    f1_by_parts_check,
    kinetic_kpq,
    kinetic_ktilde,
    kinetic_series_coefficient,
    kernel_for,
    make_kinetic_family,
    poly_exponential_kernel,
)

KT0_AT_0 = 28.933881011162246
KT1_AT_0 = -976.5184841267256
NON_DEFAULT = {"amplitude": 2.0, "scale": 1.7}


@pytest.fixture(scope="module")
def exp_kernel():
    return exponential_kernel()


@pytest.fixture(scope="module")
def exp_family():
    return make_family("exponential")


class TestQuadratureSpec:
    def test_rejects_loose_tolerance(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=1e-3)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            QuadratureSpec(kind="monte-carlo")

    def test_fixed_node_matches_adaptive(self, exp_kernel):
        adaptive = kinetic_ktilde(exp_kernel, 1, 0.3)
        fixed = kinetic_ktilde(exp_kernel, 1, 0.3, QuadratureSpec(kind="fixed-node"))
        assert fixed == pytest.approx(adaptive, rel=1e-10)


class TestRegistry:
    @pytest.mark.parametrize("non_default", [False, True], ids=["default", "non_default"])
    @pytest.mark.parametrize("entry", BUILTIN_KERNELS, ids=lambda e: e.name)
    def test_members_match_quadrature(self, entry, non_default):
        params = {k: NON_DEFAULT[k] for k in entry.params} if non_default else {}
        family = make_family(entry.name, params)
        kernel = kernel_for(entry.name, params)
        # not -0.5: there d ktilde_0/dl of poly_exponential vanishes, and the
        # quadrature cannot meet a relative tolerance on a zero
        for s in range(3):
            for n in range(2):
                for lam in (-0.45, 0.4):
                    assert family.ktilde_deriv(s, n, lam) == pytest.approx(
                        kinetic_ktilde(kernel, s, lam, deriv_order=n), rel=1e-10
                    )

    @pytest.mark.parametrize("entry", BUILTIN_KERNELS, ids=lambda e: e.name)
    def test_aliases_share_the_entry(self, entry):
        defaults = {k: default for k, (default, _, _) in entry.params.items()}
        for kind in (entry.name, *entry.aliases):
            kernel = kernel_for(kind)
            assert kernel.name == entry.name and kernel.params == defaults

    def test_s_max_ignored(self):
        # the CLI hands the family's parameters, s_max included, to the kernel lookup
        assert kernel_for("exponential", {"s_max": 8}).params == exponential_kernel().params

    def test_other_kinds_have_no_kernel(self):
        assert kernel_for("custom") is None and kernel_for("bogus") is None

    def test_kernel_parameters_checked(self):
        with pytest.raises(ValueError):
            exponential_kernel(amplitude=0.0)
        with pytest.raises(ValueError):
            poly_exponential_kernel(scale=2.0)


class TestKernels:
    def test_exponential_derivatives(self, exp_kernel):
        assert exp_kernel(0.0) == 1.0
        assert exp_kernel.deriv(3, 0.5) == pytest.approx(-math.exp(-0.5))

    def test_poly_exponential_derivatives(self):
        k = poly_exponential_kernel()
        assert k(2.0) == pytest.approx(2.0 * math.exp(-2.0))
        assert k.deriv(1, 2.0) == pytest.approx(-(2.0 - 1.0) * math.exp(-2.0))

    def test_growing_kernel_rejected(self):
        bad = KineticKernel(lambda n, x: math.exp(x / 100.0), name="growing")
        with pytest.raises(DecayError):
            bad.check_decay()
        with pytest.raises(DecayError):
            kinetic_ktilde(bad, 0, 0.0)


class TestQuadratureVsClosedForm:
    def test_ktilde_members(self, exp_kernel, exp_family):
        assert kinetic_ktilde(exp_kernel, 0, 0.0) == pytest.approx(KT0_AT_0, rel=1e-10)
        assert kinetic_ktilde(exp_kernel, 1, 0.0) == pytest.approx(KT1_AT_0, rel=1e-10)
        for s in range(3):
            for lam in (-0.5, 0.4):
                assert kinetic_ktilde(exp_kernel, s, lam) == pytest.approx(
                    exp_family.ktilde(s, lam), rel=1e-10
                )

    def test_ktilde_lam_derivative(self, exp_kernel, exp_family):
        got = kinetic_ktilde(exp_kernel, 1, 0.2, deriv_order=1)
        assert got == pytest.approx(exp_family.ktilde_deriv(1, 1, 0.2), rel=1e-10)

    @pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    def test_kpq_matches_series_at_zero_quartic(self, exp_kernel, exp_family, p, q):
        pt = EquilibriumPoint(0.1, 1.6, 0.0)
        got = kinetic_kpq(exp_kernel, p, q, pt)
        assert got == pytest.approx(k_pq(exp_family, p, q, pt, S=5), rel=1e-9)

    def test_series_coefficient_matches_scaled_member(self, exp_kernel, exp_family):
        for s in range(3):
            got = kinetic_series_coefficient(exp_kernel, s, 0.2, 1.8)
            want = k_s_value(exp_family, s, EquilibriumPoint(0.2, 1.8, 0.0))
            assert got == pytest.approx(want, rel=1e-10)

    def test_negative_quartic_rejected(self, exp_kernel):
        with pytest.raises(DomainError):
            kinetic_kpq(exp_kernel, 0, 0, EquilibriumPoint(0.0, 1.0, -1e-3))

    def test_series_coefficient_domain(self, exp_kernel):
        with pytest.raises(DomainError):
            kinetic_series_coefficient(exp_kernel, 0, 0.0, 0.0)

    @pytest.mark.parametrize("lam, lam_ll", [(0.0, math.inf), (math.nan, 1.0)])
    def test_series_coefficient_non_finite(self, exp_kernel, lam, lam_ll):
        # lam_ll = inf returned 0.0 and a NaN lam raised DecayError before the point check
        with pytest.raises(DomainError):
            kinetic_series_coefficient(exp_kernel, 0, lam, lam_ll)


class TestKineticFamily:
    def test_built_family_passes_gate_and_matches(self, exp_kernel, exp_family):
        fam = make_kinetic_family(exp_kernel, s_max=3)
        pt = EquilibriumPoint(0.0, 1.0, 0.01)
        assert k00(fam, pt, S=2) == pytest.approx(
            k00(exp_family, pt, S=2), rel=1e-9
        )

    def test_gate_rejects_non_family_kernel_chain(self):
        # a kernel whose "derivative" oracle is inconsistent breaks the ladder
        bad = KineticKernel(lambda n, x: math.exp(-x) / (1.0 + n), name="inconsistent")
        from closure14.errors import FamilyConstructionError

        with pytest.raises(FamilyConstructionError):
            make_kinetic_family(bad, s_max=1)


class TestByParts:
    @pytest.mark.parametrize(
        "kernel_name,point",
        [
            ("exponential", EquilibriumPoint(0.0, 1.0, 0.0)),
            ("exponential", EquilibriumPoint(-0.3, 2.0, 0.02)),
            ("poly_exponential", EquilibriumPoint(0.2, 1.2, 0.01)),
        ],
    )
    def test_integration_by_parts_identity(self, kernel_name, point):
        kernel = (
            exponential_kernel()
            if kernel_name == "exponential"
            else poly_exponential_kernel()
        )
        assert f1_by_parts_check(kernel, point) <= 1e-9
