import json

import numpy as np
import pytest

from closure14 import coeffs as coeffs_mod
from closure14.coeffs import GeneratingFamily, make_family
from closure14.kinetic import exponential_kernel
from closure14.numdiff import central_diff
from closure14.potentials import BoostVelocity, lab_potentials
from closure14.verify import (
    TestPointSet,
    VerificationReport,
    VerifyConfig,
    _boost_jacobian_norm,
    check_compatibility,
    check_ladder,
    check_velocity_independence,
    run_all,
)

# the harness point generator is a fixture factory, not a test class
TestPointSet.__test__ = False


@pytest.fixture(scope="module")
def exp_family():
    return make_family("exponential")


@pytest.fixture(scope="module")
def poly_family():
    return make_family("poly_exponential")


class TestPointSets:
    def test_deterministic(self):
        a = TestPointSet(seed=3).hatted_states()
        b = TestPointSet(seed=3).hatted_states()
        assert len(a) == 10
        for x, y in zip(a, b):
            assert x.to_dict() == y.to_dict()

    def test_magnitude_bounds(self):
        with pytest.raises(ValueError):
            TestPointSet(noneq_magnitude=0.2)
        with pytest.raises(ValueError):
            TestPointSet(noneq_magnitude=0.0)

    def test_quartic_multiplier_scales_with_magnitude(self):
        for st in TestPointSet(noneq_magnitude=1e-3).hatted_states():
            assert 0.0 <= st.lam_iill <= 5e-4


class TestReport:
    def test_pass_fail_bookkeeping(self):
        rep = VerificationReport()
        rep.add("a", "anchor", {"x": 1}, 1e-9, 1e-6)
        rep.add("b", "anchor", {"x": 2}, 1e-3, 1e-6)
        rep.add("c", "anchor", {"x": 3}, None, 1e-6, status="skipped")
        assert not rep.all_passed
        assert rep.failed_conditions() == ["b"]
        assert rep.summary() == {"total": 3, "passed": 2, "failed": 1}
        table = rep.to_table()
        assert "FAIL" in table and "SKIP" in table

    def test_json_round_trip(self):
        rep = VerificationReport(metadata={"seed": 0})
        rep.add("a", "anchor", {"x": 1}, 0.0, 1e-6)
        payload = json.loads(rep.to_json())
        assert payload["metadata"]["seed"] == 0
        assert payload["records"][0]["passed"] is True
        assert "runtime_seconds" not in json.dumps(payload)


class TestRunAll:
    def test_all_pass_with_kinetic_oracle(self, exp_family):
        rep = run_all(exp_family, kernel=exponential_kernel())
        assert rep.all_passed, rep.failed_conditions()
        assert rep.summary()["total"] == 555
        assert rep.runtime_seconds < 60.0

    def test_all_pass_poly_family(self, poly_family):
        rep = run_all(poly_family)
        assert rep.all_passed, rep.failed_conditions()

    def test_byte_identical_reports(self, exp_family):
        a = run_all(exp_family, VerifyConfig(count=3))
        b = run_all(exp_family, VerifyConfig(count=3))
        assert a.to_json() == b.to_json()

    def test_seed_changes_points(self, exp_family):
        a = run_all(exp_family, VerifyConfig(count=3, seed=0))
        b = run_all(exp_family, VerifyConfig(count=3, seed=1))
        assert a.to_json() != b.to_json()


class TestFaultInjection:
    def test_broken_ladder_detected(self, exp_family):
        # scale one family member: the ladder residual must flag it at the
        # two rungs touching s = 1, while a gated family stays clean
        def bad_deriv(s, n, lam):
            return exp_family.deriv(s, n, lam) * (1.001 if s == 1 else 1.0)

        bad = GeneratingFamily(kind="custom", deriv=bad_deriv, s_max=3)
        rep = check_ladder(bad, range(3), np.linspace(-1.0, 1.0, 9))
        assert not rep.all_passed
        assert rep.failed_conditions() == ["ladder.s0", "ladder.s1"]

        clean = check_ladder(exp_family, range(3), np.linspace(-1.0, 1.0, 9))
        assert clean.all_passed

    def test_perturbed_coefficient_breaks_compatibility(
        self, exp_family, monkeypatch
    ):
        true_h_series = coeffs_mod.h_series

        def skewed(f, p, q, r, S):
            series = true_h_series(f, p, q, r, S)
            if (p, q, r) == (2, 0, 0):
                series = series.scaled(1.01)
            return series

        states = TestPointSet(count=2).hatted_states()
        baseline = check_compatibility(exp_family, states, N=6, S=4)
        assert baseline.all_passed

        monkeypatch.setattr(coeffs_mod, "h_series", skewed)
        rep = check_compatibility(exp_family, states, N=6, S=4)
        assert not rep.all_passed
        assert any(c.startswith("compatibility") for c in rep.failed_conditions())

    def test_perturbed_flux_coefficient_breaks_compatibility(
        self, exp_family, monkeypatch
    ):
        true_phi_series = coeffs_mod.phi_series

        def skewed(f, p, q, r, S):
            series = true_phi_series(f, p, q, r, S)
            if (p, q, r) == (1, 0, 0):
                series = series.scaled(1.01)
            return series

        states = TestPointSet(count=2).hatted_states()
        assert check_compatibility(exp_family, states, N=6, S=4).all_passed

        monkeypatch.setattr(coeffs_mod, "phi_series", skewed)
        rep = check_compatibility(exp_family, states, N=6, S=4)
        assert not rep.all_passed
        assert any(c.startswith("compatibility") for c in rep.failed_conditions())


class TestVelocityIndependence:
    def test_skip_when_untruncatable(self, exp_family):
        states = TestPointSet(count=2).equilibrium_lab_states()
        rep = check_velocity_independence(exp_family, states, (0.2, 0.1), N=0, S=4)
        assert rep.all_passed
        assert all(r["status"] == "skipped" for r in rep.records)
        assert all(r["note"] == "insufficient truncation order" for r in rep.records)

    def test_measured_order_reported(self, exp_family):
        states = TestPointSet(count=1).equilibrium_lab_states()
        rep = check_velocity_independence(exp_family, states, (0.2, 0.1), N=4, S=4)
        assert rep.all_passed
        orders = [
            r["measured_order"]
            for r in rep.records
            if r["condition"] == "velocity_independence.order"
        ]
        assert orders and all(o >= 3.5 for o in orders)


def fd_boost_jacobian_norm(f, lab_state, v, N, S) -> float:
    """Frobenius norm of d(h', phi')/dv by central differences of the lab potentials."""
    rows = []
    for h_comp in range(3):
        def g(x, h=h_comp):
            w = v.copy()
            w[h] = x
            pair = lab_potentials(f, lab_state, BoostVelocity(w), N, S)
            return np.array([pair.h, *pair.phi])

        rows.append(central_diff(g, float(v[h_comp])))
    return float(np.linalg.norm(np.array(rows)))


class TestBoostJacobian:
    """The chain-rule boost Jacobian against central differences.

    At |v| = 0.2 the two agree to 1e-8 (equilibrium) and 5e-8
    (nonequilibrium, eps = 5e-4) relative, the differencing error.  The
    velocity derivatives nearly cancel, so the norm fails the comparison
    when any one term of the chain rule is dropped; only the
    nonequilibrium state, with lam_ill and lam_iill nonzero, exercises the
    lam_ij and lam_ill terms.
    """

    V = 0.2 * np.array([0.6, -0.64, 0.48])

    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_equilibrium_state(self, kind):
        f = make_family(kind)
        lab = TestPointSet(count=1).equilibrium_lab_states()[0]
        want = fd_boost_jacobian_norm(f, lab, self.V, 6, 4)
        assert _boost_jacobian_norm(f, lab, self.V, 6, 4) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_nonequilibrium_state(self, kind, noneq_lab_state):
        f = make_family(kind)
        want = fd_boost_jacobian_norm(f, noneq_lab_state, self.V, 6, 4)
        got = _boost_jacobian_norm(f, noneq_lab_state, self.V, 6, 4)
        assert got == pytest.approx(want, rel=1e-6)
