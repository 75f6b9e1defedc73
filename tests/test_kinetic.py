import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import closure14
from closure14.coeffs import (
    BUILTIN_KERNELS,
    EquilibriumPoint,
    k00,
    k_pq,
    k_s_value,
    make_family,
)
from closure14.errors import AccuracyError, DecayError, DomainError
from closure14.kinetic import (
    KineticKernel,
    exponential_kernel,
    kinetic_kpq,
    kinetic_ktilde,
    kinetic_series_coefficient,
    kernel_for,
    make_kinetic_family,
    poly_exponential_kernel,
)
from oracles import f1_by_parts_check

KT0_AT_0 = 28.933881011162246
KT1_AT_0 = -976.5184841267256
NON_DEFAULT = {"amplitude": 2.0, "scale": 1.7}


@pytest.fixture(scope="module")
def exp_kernel():
    return exponential_kernel()


@pytest.fixture(scope="module")
def exp_family():
    return make_family("exponential")


def quadpack(g):
    """QUADPACK (adaptive Gauss-Kronrod on [0, inf)): the reference for the fixed rule."""
    val, _ = integrate.quad(g, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


class TestAgainstQuadpack:
    LAMS = (-1.0, -0.45, 0.4, 1.0)

    @pytest.mark.parametrize("entry", BUILTIN_KERNELS, ids=lambda e: e.name)
    def test_ktilde(self, entry):
        kernel = kernel_for(entry.name)
        for s in range(7):
            for n in range(3):
                for lam in self.LAMS:
                    want = 4.0 * math.pi * quadpack(
                        lambda e: kernel.deriv(s + n, lam + e * e / 3.0) * e ** (4 * s + 2)
                    )
                    got = kinetic_ktilde(kernel, s, lam, deriv_order=n)
                    assert got == pytest.approx(want, rel=1e-10), (s, n, lam)

    # no closed form exists at lam_ppqq > 0: QUADPACK is the only reference there
    @pytest.mark.parametrize("lam_ppqq", [0.0, 0.02])
    @pytest.mark.parametrize("entry", BUILTIN_KERNELS, ids=lambda e: e.name)
    def test_kpq(self, entry, lam_ppqq):
        kernel = kernel_for(entry.name)
        pt = EquilibriumPoint(-0.3, 1.6, lam_ppqq)
        for n in range(7):
            odd = n % 2
            for p in range(n + 1):
                q = n - p
                want = 4.0 * math.pi / (n + 1 + odd) * quadpack(
                    lambda c: kernel.deriv(n, pt.lam + pt.lam_ll * c * c / 3.0
                                           + pt.lam_ppqq * c**4) * c ** (p + 3 * q + 2 + odd)
                )
                assert kinetic_kpq(kernel, p, q, pt) == pytest.approx(want, rel=1e-10), (p, q)

    def test_unresolved_integrand_raises(self):
        # the half-order rule cannot follow the oscillation: never return a wrong number
        wavy = KineticKernel(lambda n, x: np.exp(-x) * np.cos(40 * x), name="wavy")
        with pytest.raises(AccuracyError):
            kinetic_ktilde(wavy, 0, 0.0)


class TestNonFiniteIntegrand:
    # exp(1000) overflows: a typed error, and no RuntimeWarning from numpy
    POINT = EquilibriumPoint(-1000.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda k, pt: kinetic_kpq(k, 0, 0, pt), id="kinetic_kpq"),
            pytest.param(lambda k, pt: kinetic_ktilde(k, 0, pt.lam), id="kinetic_ktilde"),
            pytest.param(
                lambda k, pt: kinetic_series_coefficient(k, 0, pt.lam, pt.lam_ll),
                id="kinetic_series_coefficient",
            ),
            pytest.param(lambda k, pt: f1_by_parts_check(k, pt), id="f1_by_parts_check"),
        ],
    )
    def test_overflow_is_a_domain_error(self, exp_kernel, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                call(exp_kernel, self.POINT)


def test_import_leaves_scipy_unloaded():
    src = str(Path(closure14.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, closure14; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestRegistry:
    @pytest.mark.parametrize("non_default", [False, True], ids=["default", "non_default"])
    @pytest.mark.parametrize("entry", BUILTIN_KERNELS, ids=lambda e: e.name)
    def test_members_match_quadrature(self, entry, non_default):
        params = {k: NON_DEFAULT[k] for k in entry.params} if non_default else {}
        family = make_family(entry.name, params)
        kernel = kernel_for(entry.name, params)
        # not -0.5: there d ktilde_0/dl of poly_exponential vanishes, and a
        # relative comparison with a zero means nothing (see test_vanishing_member)
        for s in range(3):
            for n in range(2):
                for lam in (-0.45, 0.4):
                    assert family.ktilde_deriv(s, n, lam) == pytest.approx(
                        kinetic_ktilde(kernel, s, lam, deriv_order=n), rel=1e-10
                    )

    def test_vanishing_member(self):
        # the error test is relative to int |g|, so a true zero is accepted
        got = kinetic_ktilde(poly_exponential_kernel(), 0, -0.5, deriv_order=1)
        assert abs(got) <= 1e-12 * abs(make_family("poly_exponential").ktilde(0, -0.5))

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
        bad = KineticKernel(lambda n, x: np.exp(x / 100.0), name="growing")
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


class TestSingleRoute:
    # every scalar is the same radial moment, so where two of them coincide
    # they must agree to the last bit
    @pytest.mark.parametrize("entry", BUILTIN_KERNELS, ids=lambda e: e.name)
    def test_special_cases_agree_exactly(self, entry):
        kernel = kernel_for(entry.name)
        for lam in (-0.45, 0.0, 0.4):
            for s in range(4):
                got = kinetic_series_coefficient(kernel, s, lam, 1.0)
                assert got.hex() == kinetic_ktilde(kernel, s, lam).hex(), (lam, s)
            for lam_ll in (0.7, 1.6):
                got = kinetic_kpq(kernel, 0, 0, EquilibriumPoint(lam, lam_ll, 0.0))
                want = kinetic_series_coefficient(kernel, 0, lam, lam_ll)
                assert got.hex() == want.hex(), (lam, lam_ll)


class TestKineticFamily:
    def test_built_family_passes_gate_and_matches(self, exp_kernel, exp_family):
        fam = make_kinetic_family(exp_kernel, s_max=3)
        pt = EquilibriumPoint(0.0, 1.0, 0.01)
        assert k00(fam, pt, S=2) == pytest.approx(
            k00(exp_family, pt, S=2), rel=1e-9
        )

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lam_rejected(self, exp_kernel, lam):
        # inf gave 0.0 and NaN a DecayError
        fam = make_kinetic_family(exp_kernel, s_max=1)
        for call in (lambda: kinetic_ktilde(exp_kernel, 0, lam),
                     lambda: kinetic_ktilde(exp_kernel, 1, lam, deriv_order=1),
                     lambda: fam.ktilde(0, lam)):
            with pytest.raises(DomainError):
                call()

    def test_gate_rejects_non_family_kernel_chain(self):
        # a kernel whose "derivative" oracle is inconsistent breaks the ladder
        bad = KineticKernel(lambda n, x: np.exp(-x) / (1.0 + n), name="inconsistent")
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
