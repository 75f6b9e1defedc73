import dataclasses
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
    _CUTOFF_MAX,
    _CUTOFF_START,
    _REL_TOL,
    KineticKernel,
    _node_powers,
    _panel_rule,
    _radial_moment,
    exponential_kernel,
    kinetic_kpq,
    kinetic_ktilde,
    kinetic_series_coefficient,
    kernel_for,
    make_kinetic_family,
    poly_exponential_kernel,
)
from oracles import f1_by_parts_check, radial_moment_per_call, radial_rule_parts

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


class TestIndices:
    # each returned a number, or a TypeError about complex numbers, before
    @pytest.mark.parametrize("call, name", [
        (lambda K, pt: kinetic_kpq(K, -1, 0, pt), "p"),
        (lambda K, pt: kinetic_kpq(K, 0, -2, pt), "q"),
        (lambda K, pt: kinetic_kpq(K, 1.5, 0, pt), "p"),
        (lambda K, pt: kinetic_ktilde(K, 0, pt.lam, deriv_order=-1), "deriv_order"),
        (lambda K, pt: kinetic_ktilde(K, -1, pt.lam), "s"),
        (lambda K, pt: kinetic_ktilde(K, 0, pt.lam, deriv_order=0.5), "deriv_order"),
        (lambda K, pt: kinetic_series_coefficient(K, -1, pt.lam, pt.lam_ll), "s"),
    ])
    def test_negative_or_fractional_index_rejected(self, exp_kernel, call, name):
        pt = EquilibriumPoint(0.2, 1.5)
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0"):
            call(exp_kernel, pt)

    @pytest.mark.parametrize("p, q", [
        pytest.param(0, np.int64(-1), id="numpy_negative_q"),
        pytest.param(True, -1, id="bool_p_negative_q"),
    ])
    def test_negative_q_of_any_integer_type_rejected(self, exp_kernel, p, q):
        pt = EquilibriumPoint(0.2, 1.5)
        with pytest.raises(ValueError, match="^q must be an integer >= 0"):
            kinetic_kpq(exp_kernel, p, q, pt)

    def test_integer_types_accepted(self, exp_kernel):
        pt = EquilibriumPoint(0.2, 1.5)
        assert kinetic_kpq(exp_kernel, np.int64(2), 1, pt) == kinetic_kpq(exp_kernel, 2, 1, pt)
        assert kinetic_ktilde(exp_kernel, np.int64(1), 0.2, True) == kinetic_ktilde(
            exp_kernel, 1, 0.2, 1)
        assert kinetic_series_coefficient(exp_kernel, np.int8(2), 0.2, 1.5) == (
            kinetic_series_coefficient(exp_kernel, 2, 0.2, 1.5))


class TestScalarOverflow:
    # the quadrature is finite here, but its 4 pi multiple overflows the float
    # product: these returned +-inf silently
    POINT = EquilibriumPoint(-708.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: kinetic_kpq(exponential_kernel(), 0, 0, TestScalarOverflow.POINT),
                         r"kinetic k_0,0 at EquilibriumPoint\(lam=-708.0", id="kinetic_kpq"),
            pytest.param(lambda: kinetic_ktilde(exponential_kernel(), 0, -708.0),
                         "kinetic ktilde_0 derivative 0 at lambda=-708.0", id="kinetic_ktilde"),
            pytest.param(lambda: kinetic_series_coefficient(exponential_kernel(), 0, -708.0, 1.0),
                         r"kinetic k_0 at EquilibriumPoint\(lam=-708.0",
                         id="kinetic_series_coefficient"),
            pytest.param(lambda: kinetic_ktilde(poly_exponential_kernel(), 0, -700.0),
                         "kinetic ktilde_0 derivative 0 at lambda=-700.0", id="poly_exponential"),
            pytest.param(lambda: make_kinetic_family(poly_exponential_kernel()).ktilde_deriv(
                0, 1, -700.0), "kinetic ktilde_0 derivative 1 at lambda=-700.0",
                id="kinetic_family"),
        ],
    )
    def test_inf_is_a_domain_error(self, call, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message + ".* is not finite"):
                call()

    def test_the_moment_itself_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(_radial_moment(exponential_kernel(), 0, 2, self.POINT))
            assert math.isfinite(
                _radial_moment(poly_exponential_kernel(), 0, 2, EquilibriumPoint(-700.0, 1.0)))


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
        # the tail overflows to inf on the way: the search grows R past _CUTOFF_MAX
        bad = KineticKernel(lambda n, x: np.exp(x / 100.0), name="growing")
        calls = [lambda: kinetic_ktilde(bad, 0, 0.0),
                 lambda: kinetic_kpq(bad, 1, 2, EquilibriumPoint(0.0, 1.6)),
                 lambda: kinetic_kpq(bad, 0, 30, EquilibriumPoint(0.0, 1.0)),  # c^92 overflows
                 lambda: make_kinetic_family(bad)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls * 2:
                with pytest.raises(DecayError, match="before cutoff"):
                    call()

    def test_nan_tail_is_a_decay_error(self):
        # a NaN tail grows R like an infinite one, so the search cannot stop on it
        holed = KineticKernel(lambda n, x: np.where(x < 30.0, np.exp(-x), np.nan), name="holed")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DecayError, match="before cutoff"):
                kinetic_kpq(holed, 0, 0, EquilibriumPoint(0.0, 1.0))

    # F = exp(-x/100): its tail on the lambda_ll = 1 ray is still 2.8e-4 at c = 80
    SLOW = KineticKernel(lambda n, x: (-0.01) ** n * np.exp(-x / 100.0), name="slow")

    def test_slow_kernel_on_a_steep_ray(self):
        # at lam_ll = 100 the integrand is exp(-c^2/3) c^2: only the point's
        # own ray decides whether an integral decays
        want = 4.0 * math.pi * quadpack(lambda c: math.exp(-c * c / 3.0) * c * c)
        got = kinetic_kpq(self.SLOW, 0, 0, EquilibriumPoint(0.0, 100.0))
        assert got == pytest.approx(want, rel=1e-10)

    def test_slow_kernel_family_builds(self):
        fam = make_kinetic_family(self.SLOW)
        for s in range(fam.s_max + 1):
            want = 4.0 * math.pi * quadpack(
                lambda e: math.exp(-e * e / 300.0) * e ** (4 * s + 2) * (-0.01) ** s)
            assert fam.ktilde(s, 0.0) == pytest.approx(want, rel=1e-10), s


class ProbeCounter:
    """Derivative oracle wrapper that records its array calls and its scalar calls."""

    def __init__(self, deriv):
        self.deriv = deriv
        self.arrays = []  # n of each call on an array
        self.scalars = []  # (n, x) of each call on a scalar

    def __call__(self, n, x):
        if np.ndim(x):
            self.arrays.append(n)
        else:
            self.scalars.append((n, x))
        return self.deriv(n, x)


def counted_kernel():
    """An exponential kernel that counts its ``deriv`` calls, and its counter."""
    counter = ProbeCounter(exponential_kernel().deriv)
    return KineticKernel(counter, name="counting"), counter


# the k_pq of the kinetic comparison, p + q <= 6
PQS = [(p, n - p) for n in range(7) for p in range(n + 1)]


def ladder():
    """The cutoffs the search in ``_radial_moment`` can stop at, by the same products."""
    R = _CUTOFF_START
    while R <= _CUTOFF_MAX:
        yield R
        R *= 1.5


class TestTables:
    @pytest.mark.parametrize("params", [{}, NON_DEFAULT], ids=["default", "non_default"])
    @pytest.mark.parametrize("entry", BUILTIN_KERNELS, ids=lambda e: e.name)
    def test_same_bits_as_per_call_route(self, entry, params):
        kernel = kernel_for(entry.name, {k: v for k, v in params.items() if k in entry.params})
        rng = np.random.default_rng(14)
        moments = [(p + q, p + 3 * q + 2 + (p + q) % 2) for p in range(7) for q in range(7 - p)]
        moments += [(s + d, 4 * s + 2) for s in range(5) for d in range(3)]
        for _ in range(6):
            lam, lam_ll = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 4.0)
            for lam_ppqq in (0.0, rng.uniform(0.0, 0.05)):
                pt = EquilibriumPoint(lam, lam_ll, lam_ppqq)
                for n, power in moments:
                    got = _radial_moment(kernel, n, power, pt)
                    assert got.hex() == radial_moment_per_call(kernel, n, power, pt).hex(), (
                        pt, n, power)

    @pytest.mark.parametrize("params", [{}, NON_DEFAULT], ids=["default", "non_default"])
    @pytest.mark.parametrize("entry", BUILTIN_KERNELS, ids=lambda e: e.name)
    def test_shared_table_order_same_bits(self, entry, params):
        # the calls of a kinetic op, interleaved over points that share lam
        # (and so the ktilde ray) but differ in lam_ll or lam_ppqq, repeated
        kernel = kernel_for(entry.name, {k: v for k, v in params.items() if k in entry.params})
        points = [EquilibriumPoint(0.3, 1.6, 0.0), EquilibriumPoint(0.3, 1.0, 0.0),
                  EquilibriumPoint(0.3, 1.6, 0.02), EquilibriumPoint(-0.4, 2.5, 0.0),
                  EquilibriumPoint(-0.4, 2.5, 0.01)]
        for pt in points * 2 + points[::-1]:
            for p, q in PQS:
                n, odd = p + q, (p + q) % 2
                want = 4.0 * math.pi / (n + 1 + odd) * radial_moment_per_call(
                    kernel, n, p + 3 * q + 2 + odd, pt)
                assert kinetic_kpq(kernel, p, q, pt).hex() == want.hex(), (pt, p, q)
            for s, d in [(s, d) for s in range(4) for d in range(2)]:
                want = 4.0 * math.pi * radial_moment_per_call(
                    kernel, s + d, 4 * s + 2, EquilibriumPoint(pt.lam, 1.0))
                assert kinetic_ktilde(kernel, s, pt.lam, d).hex() == want.hex(), (pt, s, d)

    @pytest.mark.parametrize("lam_ppqq", [0.0, 0.02])
    def test_one_deriv_call_per_value(self, lam_ppqq):
        pt = EquilibriumPoint(0.3, 1.6, lam_ppqq)
        kernel, counter = counted_kernel()
        for _ in range(2):
            for pq in PQS:
                kinetic_kpq(kernel, *pq, pt)
        _, probes, nodes = kernel.values_at(pt)
        assert sorted(counter.arrays) == sorted(n for n, _ in nodes)
        n_probes = sum(map(len, probes.values()))
        assert len(counter.scalars) == len(set(counter.scalars)) == n_probes
        assert len(nodes) < len(PQS)  # moments of one order share their nodes

        def arg(c):
            return pt.lam + pt.lam_ll * c * c / 3.0 + (lam_ppqq * c**4 if lam_ppqq else 0.0)

        for n, values in probes.items():
            for c, value in values.items():
                assert c in {1.0, 4.0, *ladder()}
                assert type(value) is float
                assert value == counter.deriv(n, arg(c))
        for (n, R), values in nodes.items():
            assert R in set(ladder())
            assert values.tobytes() == counter.deriv(n, arg(R * _panel_rule()[0])).tobytes()
            assert not values.flags.writeable
        # a new point computes again, and the previous one is forgotten
        kinetic_kpq(kernel, 2, 1, EquilibriumPoint(0.3, 1.7, lam_ppqq))
        assert len(counter.arrays) == len(nodes) + 1
        assert list(kernel._values) == [(0.3, 1.7, lam_ppqq)]

    @pytest.mark.parametrize("lam_ppqq", [0.0, 0.02])
    def test_one_argument_array_per_cutoff(self, lam_ppqq):
        # every order at the point reads the node arguments of its cutoff R
        pt = EquilibriumPoint(0.3, 1.6, lam_ppqq)
        kernel = exponential_kernel()
        for pq in PQS:
            kinetic_kpq(kernel, *pq, pt)
        args, _, nodes = kernel.values_at(pt)
        assert sorted(args) == sorted({R for _, R in nodes})
        assert len(args) < len(nodes)  # orders share a cutoff
        for R, values in args.items():
            c = R * _panel_rule()[0]
            want = pt.lam + pt.lam_ll * c * c / 3.0
            if lam_ppqq:
                want += lam_ppqq * c**4
            assert values.tobytes() == want.tobytes()
            assert not values.flags.writeable
        for (n, R), values in nodes.items():
            assert values.tobytes() == kernel.deriv(n, args[R]).tobytes(), (n, R)

    def test_replace_starts_an_empty_table(self):
        pt = EquilibriumPoint(0.3, 1.6, 0.0)
        kernel, counter = counted_kernel()
        first = kinetic_kpq(kernel, 2, 0, pt)
        copy = dataclasses.replace(kernel)
        assert copy._values == {}
        assert kinetic_kpq(copy, 2, 0, pt) == first
        assert counter.arrays == [2, 2]
        assert "_values" not in repr(kernel)
        with pytest.raises(TypeError):
            KineticKernel(kernel.deriv, _values={})

    @pytest.mark.parametrize("lam, overflows", [(-800.0, "probes"), (-709.9, "nodes")])
    def test_overflow_raises_on_every_call(self, lam, overflows):
        # at -800 the first scalar probe overflows; at -709.9 the probes are
        # finite and only the nodes near c = 0 overflow
        pt = EquilibriumPoint(lam, 3.0)
        kernel, counter = counted_kernel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                with pytest.raises(DomainError, match="not finite"):
                    kinetic_kpq(kernel, 0, 0, pt)
                with pytest.raises(DomainError):
                    radial_moment_per_call(exponential_kernel(), 0, 2, pt)
        _, probes, nodes = kernel.values_at(pt)
        values = {"probes": list(probes[0].values()), "nodes": list(nodes.values())}
        assert not all(np.isfinite(v).all() for v in values[overflows])
        assert len(counter.arrays) == len(nodes) == (overflows == "nodes")
        assert counter.scalars.count((0, lam + 1.0)) == 1  # c = 1, stored once

    def test_magnitude_on_demand_same_outcome(self):
        # the package computes R int|g| only for an error past 10 _REL_TOL |full|;
        # the points include zeros of poly-exponential moments, where |full| is
        # far below the magnitude, and values near the bottom of the float range
        wavy = KineticKernel(lambda n, x: np.exp(-x) * np.cos(40 * x), name="wavy")
        rng = np.random.default_rng(29)
        points = [EquilibriumPoint(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 4.0), lam_ppqq)
                  for lam_ppqq in (0.0, 0.0, 0.02)]
        points += [EquilibriumPoint(lam, lam_ll) for lam, lam_ll in
                   ((-1.5, 1.0), (-3.5, 2.0), (0.5, 0.7), (-1.5, 1.5), (700.0, 1.0), (735.0, 2.0))]
        tolerance, seen = 10 * _REL_TOL, set()
        for kernel in (exponential_kernel(), poly_exponential_kernel(), wavy):
            for pt in points:
                for n, power in [(n, power) for n in range(4) for power in (0, 2, 5, 8)]:
                    try:
                        want = radial_moment_per_call(kernel, n, power, pt).hex()
                    except (AccuracyError, DecayError, DomainError) as exc:
                        want = type(exc)
                    try:
                        got = _radial_moment(kernel, n, power, pt).hex()
                    except (AccuracyError, DecayError, DomainError) as exc:
                        got = type(exc)
                    assert got == want, (kernel.name, pt, n, power)
                    if want is AccuracyError or isinstance(want, str):
                        full, half, magnitude = radial_rule_parts(kernel, n, power, pt)
                        seen.add("accuracy" if want is AccuracyError else
                                 "magnitude" if abs(full - half) > tolerance * abs(full) else
                                 "bound")
        assert seen == {"bound", "magnitude", "accuracy"}

    def test_node_powers_are_read_only_and_exact(self):
        nodes = _panel_rule()[0]
        assert len(list(ladder())) == 18
        for R in ladder():
            assert _node_powers(R, 1).tobytes() == (R * nodes).tobytes()
            for power in range(31):
                table = _node_powers(R, power)
                assert not table.flags.writeable
                assert table.tobytes() == ((R * nodes) ** power).tobytes(), (R, power)
        with pytest.raises(ValueError):
            _node_powers(_CUTOFF_START, 2)[0] = 0.0


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
