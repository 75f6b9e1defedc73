"""Acceptance gate: the nine release criteria, one pass/fail line each.

Every criterion is evaluated at its stated tolerance against seeded,
reproducible inputs.  Run with ``pytest -v`` (or ``-s`` to see the
pass/fail lines on success).
"""

import time

import numpy as np
import pytest

from closure14.coeffs import (
    CoefficientRequest,
    EquilibriumPoint,
    constraint_residuals,
    h_pqr,
    k_pq,
    k_s_value,
    make_family,
    phi_pqr,
    reduce_to_13,
)
from closure14.kinetic import (
    exponential_kernel,
    kinetic_kpq,
    kinetic_series_coefficient,
    make_kinetic_family,
    poly_exponential_kernel,
)
from closure14.symtensor import SymMatrix, deviator
from closure14.verify import (
    TestPointSet,
    check_closed_forms,
    check_compatibility,
    check_ladder,
    check_scalar_identity_chain,
    check_subsystem,
    check_velocity_independence,
    run_all,
)
from oracles import sym_delta, sym_delta_bruteforce

TestPointSet.__test__ = False


@pytest.fixture(scope="module")
def exp_family():
    return make_family("exponential")


def report(name: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_kinetic_oracle_equivalence(exp_family):
    """k_pq and k_s match the velocity-space quadrature to 1e-7."""
    t0 = time.perf_counter()
    kernel = exponential_kernel()
    points = TestPointSet(seed=0, count=5).scalar_points(with_ppqq=False)
    worst = 0.0
    for pt in points:
        for p in range(7):
            for q in range(7 - p):
                macro = k_pq(exp_family, p, q, pt, S=5)
                quad = kinetic_kpq(kernel, p, q, pt)
                worst = max(worst, abs(macro - quad) / abs(quad))
        for s in range(5):
            macro = k_s_value(exp_family, s, pt)
            quad = kinetic_series_coefficient(kernel, s, pt.lam, pt.lam_ll)
            worst = max(worst, abs(macro - quad) / abs(quad))
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 1: kinetic oracle equivalence "
        f"(worst residual {worst:.2e}, {elapsed:.1f}s)",
        worst <= 1e-7 and elapsed <= 10.0,
    )


def test_criterion_2_ladder_recursion(exp_family):
    """FD ladder residual <= 1e-6 for s=0..4, closed-form and quadrature family."""
    grid = np.linspace(-1.0, 1.0, 9)
    quad_family = make_kinetic_family(exponential_kernel(), s_max=5)
    ok = True
    worst = 0.0
    for fam in (exp_family, quad_family):
        rep = check_ladder(fam, range(5), grid)
        ok = ok and rep.all_passed
        worst = max(worst, max(r["residual"] for r in rep.records))
    report(f"criterion 2: ladder recursion (worst residual {worst:.2e})", ok)


def test_criterion_3_compatibility(exp_family):
    """All six cross-derivative conditions <= 1e-5 at 10 seeded hatted states."""
    states = TestPointSet(seed=0, count=10, N=6, S=4).hatted_states()
    rep = check_compatibility(exp_family, states, N=6, S=4)
    worst = max(r["residual"] for r in rep.records)
    conditions = {r["condition"].split(".")[1] for r in rep.records}
    report(
        f"criterion 3: compatibility conditions (worst residual {worst:.2e})",
        rep.all_passed and len(conditions) == 6 and worst <= 1e-5,
    )


def test_criterion_4_velocity_independence(exp_family):
    """Boost-derivative convergence order >= N-0.5; v=0 floor <= 1e-9."""
    states = TestPointSet(seed=0, count=3).equilibrium_lab_states()
    ok = True
    detail = []
    for N in (2, 4):
        rep = check_velocity_independence(exp_family, states, (0.2, 0.1), N, S=4)
        orders = [
            r["measured_order"]
            for r in rep.records
            if r["condition"] == "velocity_independence.order"
        ]
        floors = [
            r["residual"]
            for r in rep.records
            if r["condition"] == "velocity_independence.zero_boost_floor"
        ]
        ok = ok and rep.all_passed
        ok = ok and all(o >= N - 0.5 for o in orders)
        ok = ok and all(fl <= 1e-9 for fl in floors)
        detail.append(f"N={N}: order>={min(orders):.2f}, floor<={max(floors):.1e}")
    report("criterion 4: velocity independence (" + "; ".join(detail) + ")", ok)


def test_criterion_5_constraints_and_identity_chain(exp_family):
    """Scalar constraints <= 1e-9 at 20 points; scaling chain <= 1e-9."""
    points = TestPointSet(seed=0, count=20).scalar_points()
    poly = make_family("poly_exponential")
    worst = 0.0
    for fam in (exp_family, poly):
        for pt in points:
            worst = max(worst, *constraint_residuals(fam, pt, S=4))
    chain = check_scalar_identity_chain(exp_family, 6, 6, 2, points[:3], S=5)
    required = {
        f"scalar_chain.k.p{p}q{q}"
        for p in range(7)
        for q in range(7 - p)
        if (p + q) % 2 == 0
    }
    covered = required <= {r["condition"] for r in chain.records}
    chain_worst = max(r["residual"] for r in chain.records)
    report(
        f"criterion 5: constraints and identity chain "
        f"(constraints {worst:.2e}, chain {chain_worst:.2e})",
        worst <= 1e-9 and chain.all_passed and covered,
    )


def test_criterion_6_closed_form_cross_checks(exp_family):
    """Stepwise k_pq vs closed forms <= 1e-9 for p,q <= 5; literal factors flagged."""
    points = TestPointSet(seed=0, count=3).scalar_points()
    rep = check_closed_forms(exp_family, 5, 5, points, S=5)
    flagged = {
        r["condition"]: r["measured_factor"]
        for r in rep.records
        if r["status"] == "expected-deviation"
    }
    ok = (
        rep.all_passed
        and flagged.get("closed_forms.literal_product_deviation.q0") == 3.0
        and flagged.get("closed_forms.literal_product_deviation.q1") == 35.0
    )
    worst = max(r["residual"] for r in rep.records)
    report(
        f"criterion 6: closed-form cross-checks "
        f"(worst residual {worst:.2e}, literal factors 3 and 35 flagged)",
        ok,
    )


def test_criterion_7_structural_exactness(exp_family):
    """Parity zeros exact; sym_delta matches brute force; deviators traceless."""
    pt = EquilibriumPoint(0.2, 1.5, 0.01)
    parity_ok = all(
        h_pqr(exp_family, CoefficientRequest(p, q, r), pt) == 0.0
        for p, q, r in [(1, 0, 0), (0, 1, 2), (3, 2, 1), (1, 4, 0)]
    ) and all(
        phi_pqr(exp_family, CoefficientRequest(p, q, r), pt) == 0.0
        for p, q, r in [(0, 0, 0), (1, 1, 1), (2, 2, 0), (0, 4, 2)]
    )
    delta_ok = all(
        sym_delta(rank).values == sym_delta_bruteforce(rank).values
        for rank in (0, 2, 4, 6)
    )
    rng = np.random.default_rng(0)
    trace_ok = all(
        abs(deviator(SymMatrix(rng.standard_normal((3, 3)))).trace()) <= 1e-15
        for _ in range(50)
    )
    report(
        "criterion 7: structural exactness (parity zeros, delta tensor, deviators)",
        parity_ok and delta_ok and trace_ok,
    )


def test_criterion_8_subsystem_reduction(exp_family):
    """I_q equals the independent k_{0,q} evaluation; derivative relation holds."""
    lam_grid = np.linspace(-1.0, 1.0, 5)
    worst_match = 0.0
    for lam in lam_grid:
        table = reduce_to_13(exp_family, 6, lam)
        assert table.c_q == 0.0
        pt = EquilibriumPoint(lam, 1.0, 0.0)
        for q in (0, 2, 4, 6):
            independent = k_pq(exp_family, 0, q, pt, S=5)
            worst_match = max(
                worst_match, abs(table.values[q] - independent) / abs(independent)
            )
    rep = check_subsystem(exp_family, lam_grid, q_max=6)
    deriv_worst = max(
        r["residual"]
        for r in rep.records
        if r["condition"].startswith("subsystem.derivative")
    )
    report(
        f"criterion 8: subsystem reduction "
        f"(match {worst_match:.2e}, derivative relation {deriv_worst:.2e})",
        worst_match <= 1e-9 and deriv_worst <= 1e-6 and rep.all_passed,
    )


def test_criterion_9_determinism_and_runtime(exp_family):
    """run_all is byte-reproducible from its seed and finishes in < 60 s."""
    kernel = exponential_kernel()
    first = run_all(exp_family, kernel=kernel)
    second = run_all(exp_family, kernel=kernel)
    ok = (
        first.all_passed
        and first.to_json().encode() == second.to_json().encode()
        and first.runtime_seconds < 60.0
    )
    report(
        f"criterion 9: determinism and runtime "
        f"({first.summary()['total']} checks, {first.runtime_seconds:.1f}s, "
        f"byte-identical reports)",
        ok,
    )
