import dataclasses
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from closure14 import coeffs as coeffs_mod
from closure14 import potentials as potentials_mod
from closure14.coeffs import EquilibriumPoint, GeneratingFamily, make_family
from closure14.kinetic import KineticKernel, exponential_kernel, kernel_for
from closure14.numdiff import central_diff
from closure14.errors import DomainError, TruncationError
from closure14.potentials import (
    LAB,
    BoostVelocity,
    MultiplierState,
    boost_jacobian,
    lab_potentials,
)
from closure14.symtensor import SymMatrix
from closure14.verify import (
    TestPointSet,
    VerificationReport,
    VerifyConfig,
    check_closed_forms,
    check_compatibility,
    check_kinetic_equivalence,
    check_ladder,
    check_subsystem,
    check_velocity_independence,
    run_all,
)

# the harness point generator is a fixture factory, not a test class
TestPointSet.__test__ = False


def clear_series_tables():
    """Empty every table that keeps shared series, so the next lookups build them anew."""
    for table in (coeffs_mod._shared, coeffs_mod.tensor_series, coeffs_mod.CoeffSeries.derivative):
        table.cache_clear()


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
        assert not rep.all_passed
        assert rep.failed_conditions() == ["b"]
        assert rep.summary() == {"total": 2, "passed": 1, "failed": 1}

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

    def test_short_series_raises(self, exp_family):
        # the k_{0,5} scaling identity needs four lambda_ppqq orders, and S = 7
        # asks for a member past s_max = 6; the first short series raised deep
        # in a check, naming neither N nor the S the plan needs
        for N, S in ((4, 3), (6, 7)):
            msg = f"verify at N={N} needs S >= 4 and family s_max >= S, got S={S} and s_max=6"
            with pytest.raises(TruncationError, match=f"^{msg}$"):
                run_all(exp_family, VerifyConfig(N=N, S=S))

    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    @pytest.mark.parametrize("N,S", [(0, 4), (1, 4), (8, 5), (10, 6)])
    def test_every_order_runs_the_whole_plan(self, kind, N, S):
        # N = 0 wrote three skipped records in place of the velocity-independence plan
        rep = run_all(make_family(kind), VerifyConfig(N=N, S=S), kernel=kernel_for(kind))
        assert rep.summary()["total"] == 555
        if N >= 8:
            assert rep.all_passed, rep.failed_conditions()

    def test_check_plan_is_fixed(self):
        # the points and truncations are settable, the plan is read as class constants
        names = [f.name for f in dataclasses.fields(VerifyConfig)]
        assert names == ["seed", "count", "N", "S", "noneq_magnitude"]
        assert TestPointSet is VerifyConfig  # the config is the point set
        with pytest.raises(TypeError):
            VerifyConfig(pq_max=3)
        config = VerifyConfig(seed=3)
        plan = (config.v_scales, config.pq_max, config.kinetic_points, config.kinetic_pq_total_max)
        assert plan == ((0.2, 0.1), 5, 3, 4)


class TestKineticEquivalence:
    @pytest.mark.parametrize("S, s_max", [(2, 6), (1, 6), (5, 4), (3, 3)])
    def test_short_series_raises_up_front(self, S, s_max):
        # a short series raised "series order exhausted" deep in d_ppqq, after
        # the quadratures of the cells before it; s_max = 3 is below the k_s
        # records' S_SERIES_MAX = 4
        def deriv(n, x):
            raise AssertionError("quadrature before the truncation check")

        f = make_family("exponential", {"s_max": s_max})
        points = VerifyConfig().scalar_points(with_ppqq=False)[:2]
        msg = (f"kinetic at p+q<=6 needs S >= 3 and family s_max >= max(S, 4), "
               f"got S={S} and s_max={s_max}")
        with pytest.raises(TruncationError, match=f"^{re.escape(msg)}$"):
            check_kinetic_equivalence(f, KineticKernel(deriv), points, pq_total_max=6, S=S)

    @pytest.mark.parametrize("pq_total_max, S", [(6, 3), (5, 3), (4, 2), (0, 0)])
    def test_least_series_runs(self, exp_family, pq_total_max, S):
        points = VerifyConfig().scalar_points(with_ppqq=False)[:2]
        rep = check_kinetic_equivalence(exp_family, exponential_kernel(), points,
                                        pq_total_max=pq_total_max, S=S)
        assert rep.summary()["total"] == 2 * ((pq_total_max + 1) * (pq_total_max + 2) // 2 + 5)


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

    def test_nan_ladder_residual_fails(self, exp_family):
        # a nan residual at the last grid point was dropped by max()
        def nan_at_one(s, n, lam):
            return math.nan if s == 1 and lam > 0.99 else exp_family.deriv(s, n, lam)

        bad = GeneratingFamily(kind="custom", deriv=nan_at_one, s_max=3)
        rep = check_ladder(bad, range(3), np.linspace(-1.0, 1.0, 9))
        assert rep.failed_conditions() == ["ladder.s0", "ladder.s1"]
        assert all(math.isnan(r["residual"]) for r in rep.records if not r["passed"])

    def check_skewed_series_detected(self, f, monkeypatch, pqr):
        """Give the (p, q, r) cell the shared key with scale pi 101/100: compatibility must fail.

        Its derivative grids are the shifted keys, so they carry the skew too.
        The grids compile uncached and the series tables are emptied after the
        skew, so no skewed plan or series outlives the test; after it, the
        same states pass again.
        """
        true_series = coeffs_mod.tensor_series

        def skewed(p, q, r, S):
            series = true_series(p, q, r, S)
            if (p, q, r) != pqr:
                return series
            a, b, c, pi, S = series._key
            return coeffs_mod._shared(a, b, c, pi * Fraction(101, 100), S)

        states = TestPointSet(count=2).hatted_states()
        assert check_compatibility(f, states, N=6, S=4).all_passed

        monkeypatch.setattr(coeffs_mod, "tensor_series", skewed)
        monkeypatch.setattr(potentials_mod, "_grid_plan", potentials_mod._grid_plan.__wrapped__)
        rep = check_compatibility(f, states, N=6, S=4)
        assert not rep.all_passed
        assert any(c.startswith("compatibility") for c in rep.failed_conditions())

        monkeypatch.undo()
        clear_series_tables()
        assert check_compatibility(f, states, N=6, S=4).all_passed

    def test_perturbed_coefficient_breaks_compatibility(self, exp_family, monkeypatch):
        self.check_skewed_series_detected(exp_family, monkeypatch, (2, 0, 0))  # a term of h_hat

    def test_perturbed_flux_coefficient_breaks_compatibility(self, exp_family, monkeypatch):
        self.check_skewed_series_detected(exp_family, monkeypatch, (1, 0, 0))  # a term of phi_hat

    def test_wrong_closed_form_fails_the_k00_derivatives(self, exp_family, monkeypatch):
        # k_pq_closed walks single steps from an unshared k00, so a closed form that
        # doubles every cell with (b, c) = (1, 0) moves only the k_pq side
        true_rows = coeffs_mod._rows.__wrapped__

        def doubled(b, c, S):
            rows = true_rows(b, c, S)
            return tuple((2 * row[0], *row[1:]) for row in rows) if (b, c) == (1, 0) else rows

        points = [EquilibriumPoint(0.2, 1.3, 0.01)]
        assert check_closed_forms(exp_family, 3, 3, points).all_passed
        monkeypatch.setattr(coeffs_mod, "_rows", doubled)
        clear_series_tables()
        try:
            failed = check_closed_forms(exp_family, 3, 3, points).failed_conditions()
        finally:
            clear_series_tables()  # the true series are built again after the test
        # (a, b, c) = (0, 1, 0) is k_{1,0}, and (1, 1, 0) is k_{2,0}
        assert failed == ["closed_forms.k00_derivatives.p1q0", "closed_forms.k00_derivatives.p2q0"]

    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_wrong_eta_bound_fails_the_subsystem_match(self, kind, monkeypatch):
        # I_4 with the eta product's upper bound 2 too high is 15 times too large;
        # a side built from the same eta product would move with it and pass
        f, lam_grid = make_family(kind), np.linspace(-1.0, 1.0, 5)
        true_bounds = coeffs_mod.k0q_eta_bounds
        clean = check_subsystem(f, lam_grid, q_max=6)
        assert clean.all_passed
        assert max(r["residual"] for r in clean.records
                   if r["condition"].startswith("subsystem.match")) <= 1e-15

        def off_at_4(q):
            lo, hi = true_bounds(q)
            return (lo, hi + 2) if q == 4 else (lo, hi)

        monkeypatch.setattr(coeffs_mod, "k0q_eta_bounds", off_at_4)
        rep = check_subsystem(f, lam_grid, q_max=6)
        assert rep.failed_conditions() == ["subsystem.match.q4"]
        q4 = [r["residual"] for r in rep.records if r["condition"] == "subsystem.match.q4"]
        assert q4 == pytest.approx([14 / 15] * 5, rel=1e-12)


class TestVelocityIndependence:
    def test_zero_order_floor_reported(self, exp_family):
        # at N = 0 phi_hat has no terms, so dphi'/dv at v = 0 is h I and the
        # floor reads sqrt(3); the run wrote one skipped record per state
        states = TestPointSet(count=2).equilibrium_lab_states()
        rep = check_velocity_independence(exp_family, states, (0.2, 0.1), N=0, S=4)
        assert len(rep.records) == 6
        floors = [r for r in rep.records
                  if r["condition"] == "velocity_independence.zero_boost_floor"]
        assert len(floors) == 2
        for r in floors:
            assert r["residual"] == pytest.approx(math.sqrt(3.0), abs=1e-12)
            assert not r["passed"]

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

    @pytest.mark.parametrize("N,S", [(6, 3), (4, 2)])
    def test_half_order_series(self, exp_family, N, S):
        # S = N/2 leaves the lam_iill blocks no series order; the boost
        # Jacobian does not take them
        states = TestPointSet(count=2).equilibrium_lab_states()
        rep = check_velocity_independence(exp_family, states, (0.2, 0.1), N=N, S=S)
        assert len(rep.records) == 6 and rep.all_passed


def fd_boost_jacobian(f, lab_state, v, N, S) -> np.ndarray:
    """d(h', phi')/dv by central differences of the lab potentials, rows (h', phi'^k)."""
    columns = []
    for h_comp in range(3):
        def g(x, h=h_comp):
            w = v.copy()
            w[h] = x
            pair = lab_potentials(f, lab_state, BoostVelocity(w), N, S)
            return np.array([pair.h, *pair.phi])

        columns.append(central_diff(g, float(v[h_comp])))
    return np.array(columns).T


class TestBoostJacobian:
    """The chain-rule boost Jacobian against central differences.

    At |v| = 0.2 the two Jacobians differ by at most 5.4e-8 (equilibrium)
    and 1.7e-7 (nonequilibrium, eps = 5e-4) relative to their norm, the
    differencing error.  The velocity derivatives nearly cancel, so the
    comparison fails when any one term of the chain rule is dropped; only
    the nonequilibrium state, with lam_ill and lam_iill nonzero, exercises
    the lam_ij and lam_ill terms.
    """

    V = 0.2 * np.array([0.6, -0.64, 0.48])

    def assert_matches_fd(self, f, lab):
        want = fd_boost_jacobian(f, lab, self.V, 6, 4)
        got = boost_jacobian(f, lab, BoostVelocity(self.V), 6, 4)
        assert got.shape == (4, 3)
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_equilibrium_state(self, kind):
        lab = TestPointSet(count=1).equilibrium_lab_states()[0]
        self.assert_matches_fd(make_family(kind), lab)

    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_nonequilibrium_state(self, kind, noneq_lab_state):
        self.assert_matches_fd(make_family(kind), noneq_lab_state)

    @pytest.mark.parametrize(
        "lam,lam_i,match",
        [
            # lam_hat is near 0 and h' near 1e298; the chain rule
            # multiplies it by lam_hat_i
            (1.28e49, [0, 1e50, 0], "boost Jacobian overflows"),
            (0.0, [0, 1e200, 0], "overflows"),
        ],
        ids=["jacobian", "potentials"],
    )
    def test_overflow_is_a_domain_error(self, lam, lam_i, match):
        lab = MultiplierState(frame=LAB, lam=lam, lam_i=np.array(lam_i, dtype=float),
                              lam_ij=SymMatrix(np.eye(3)), lam_ill=np.zeros(3), lam_iill=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match):
                boost_jacobian(make_family("exponential"), lab, BoostVelocity(self.V), 6, 4)
