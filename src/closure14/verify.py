"""Condition harness: numerical verification of every closure condition.

Each check evaluates one family of identities at seeded test points and
records relative residuals.  The compatibility relations read analytic
gradient blocks of the truncated potentials, and velocity independence
reads the norm of ``potentials.boost_jacobian``; the ladder and the
subsystem derivative relation use 4th-order central differences,
independent of the family's derivative oracle.  Truncated-series
conditions that cannot hold exactly (velocity independence) are tested as
convergence-order studies.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import coeffs, kinetic, potentials
from .coeffs import EquilibriumPoint, GeneratingFamily
from .errors import TruncationError
from .numdiff import RESIDUAL_FLOOR, central_diff, rel_residual_sym
from .potentials import (
    BoostVelocity,
    MultiplierState,
    boost_jacobian,
    eval_phi_hat,
    hat_multipliers,
    lab_potentials,
    moments_from_potentials,
)
from .symtensor import SymMatrix

DEFAULT_TOLERANCES = {
    "compatibility": 1e-5,
    "velocity_independence_floor": 1e-9,
    "scalar_chain": 1e-9,
    "closed_forms": 1e-9,
    "constraints": 1e-9,
    "ladder": 1e-6,
    "kinetic": 1e-7,
    "subsystem": 1e-9,
    "subsystem_derivative": 1e-6,
}


LAM_RANGE = (-1.0, 1.0)
LAM_LL_RANGE = (0.5, 4.0)
LAM_PPQQ_RANGE = (0.0, 0.05)
S_SERIES_MAX = 4  # highest series coefficient k_s checked against quadrature


@dataclass(frozen=True)
class VerifyConfig:
    """The seeded test points and truncations of ``run_all``; the check plan is fixed."""

    seed: int = 0
    count: int = 10
    N: int = 6
    S: int = 4
    noneq_magnitude: float = 5e-4
    v_scales: ClassVar[tuple] = (0.2, 0.1)
    pq_max: ClassVar[int] = 5
    kinetic_points: ClassVar[int] = 3
    kinetic_pq_total_max: ClassVar[int] = 4

    def __post_init__(self):
        if not 0 < self.noneq_magnitude <= 0.1:
            raise ValueError("nonequilibrium magnitude must be in (0, 0.1]")

    def scalar_points(self, with_ppqq: bool = True):
        rng = np.random.default_rng(self.seed)
        pts = []
        for _ in range(self.count):
            lam = rng.uniform(*LAM_RANGE)
            lam_ll = rng.uniform(*LAM_LL_RANGE)
            ppqq = rng.uniform(*LAM_PPQQ_RANGE) if with_ppqq else 0.0
            pts.append(EquilibriumPoint(lam, lam_ll, ppqq))
        return pts

    def hatted_states(self):
        """Near-equilibrium states for the potential-gradient checks.

        All five nonequilibrium multipliers (including the fourth-order
        scalar, zero at a Maxwellian) scale with noneq_magnitude: the
        truncated potentials satisfy the gradient identities exactly only
        in the equilibrium limit, with remainders O(eps^3) amplified by
        the growth of the high-order coefficients.
        """
        rng = np.random.default_rng(self.seed)
        eps = self.noneq_magnitude
        states = []
        for _ in range(self.count):
            lam = rng.uniform(*LAM_RANGE)
            lam_ll = rng.uniform(*LAM_LL_RANGE)
            ppqq = rng.uniform(0.0, eps / 2.0)
            dev = rng.uniform(-eps, eps, size=(3, 3))
            dev = 0.5 * (dev + dev.T)
            dev -= np.trace(dev) / 3.0 * np.eye(3)
            states.append(
                MultiplierState(
                    frame=potentials.HATTED,
                    lam=lam,
                    lam_i=rng.uniform(-eps, eps, size=3),
                    lam_ij=SymMatrix(np.eye(3) * (lam_ll / 3.0) + dev),
                    lam_ill=rng.uniform(-eps, eps, size=3),
                    lam_iill=ppqq,
                )
            )
        return states

    def equilibrium_lab_states(self):
        rng = np.random.default_rng(self.seed)
        return [
            MultiplierState.equilibrium(
                rng.uniform(*LAM_RANGE),
                rng.uniform(*LAM_LL_RANGE),
                frame=potentials.LAB,
            )
            for _ in range(self.count)
        ]


TestPointSet = VerifyConfig  # the same class, under its name as a point set


@dataclass
class VerificationReport:
    """Structured residual records plus reproducibility metadata."""

    metadata: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    # wall-clock time; kept out of the JSON payload so that reports are
    # byte-identical across reruns with the same seed
    runtime_seconds: float = 0.0

    def add(self, condition, anchor, point, residual, tolerance, status="ok", **extra):
        rec = {
            "condition": condition,
            "anchor": anchor,
            "point": point,
            "residual": float(residual),
            "tolerance": tolerance,
            "passed": bool(residual <= tolerance),
            "status": status,
        }
        rec.update(extra)
        self.records.append(rec)

    def extend(self, other: "VerificationReport"):
        self.records.extend(other.records)

    def sort(self):
        self.records.sort(key=lambda r: (r["condition"], json.dumps(r["point"], sort_keys=True)))

    @property
    def all_passed(self) -> bool:
        return all(r["passed"] for r in self.records)

    def failed_conditions(self):
        return sorted({r["condition"] for r in self.records if not r["passed"]})

    def summary(self) -> dict:
        return {
            "total": len(self.records),
            "passed": sum(r["passed"] for r in self.records),
            "failed": sum(not r["passed"] for r in self.records),
        }

    def to_json(self) -> str:
        payload = {
            "metadata": self.metadata,
            "summary": self.summary(),
            "records": self.records,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _point_dict(obj) -> dict:
    if isinstance(obj, MultiplierState):
        return obj.to_dict()
    return asdict(obj)


# --- compatibility conditions -----------------------------------------------


def check_compatibility(f: GeneratingFamily, points, N: int, S: int) -> VerificationReport:
    """The six cross-derivative relations between the two potentials.

    Both sides of every relation are read off one analytic
    ``moments_from_potentials`` set, so the residuals are the truncation
    remainders of the series, free of differencing error.  The
    trace-contracted relations act on the lower index pair of the
    flux-potential gradient; the two antisymmetrization relations are
    evaluated numerically even though storage symmetry already implies
    them, to catch assembly bugs.
    """
    tol = DEFAULT_TOLERANCES["compatibility"]
    report = VerificationReport()
    for state in points:
        ms = moments_from_potentials(f, state, N, S)
        relations = (
            ("1.dh_dlam_k_vs_dphi_dlam",
             "gradient of h' in lam_k equals gradient of phi'^k in lam",
             rel_residual_sym(ms.m_i, ms.f_k)),
            ("2.dh_dlam_ki_vs_dphi_dlam_i",
             "matrix gradient of h' equals vector gradient of phi'",
             rel_residual_sym(ms.m_ij, ms.f_ki)),
            ("3.dh_dlam_ill_vs_traced_dphi_dlam_ij",
             "gradient of h' in lam_ill equals trace of phi' matrix gradient",
             rel_residual_sym(ms.m_ill, np.einsum("kii->k", ms.f_kij))),
            ("4.antisym_kj_dphi_dlam_ij",
             "phi' matrix gradient is symmetric under flux-index exchange",
             rel_residual_sym(np.transpose(ms.f_kij, (2, 1, 0)), ms.f_kij)),
            ("5.dh_dlam_kkll_vs_traced_dphi_dlam_ill",
             "gradient of h' in the scalar multiplier equals traced phi' gradient",
             rel_residual_sym(ms.m_iill, float(np.trace(ms.f_kill)))),
            ("6.antisym_ki_dphi_dlam_ill",
             "phi' gradient in lam_ill is symmetric",
             rel_residual_sym(ms.f_kill.T, ms.f_kill)),
        )
        for name, anchor, residual in relations:
            report.add(f"compatibility.{name}", anchor, _point_dict(state), residual, tol)
    return report


# --- Galilean velocity independence ------------------------------------------


def check_velocity_independence(
    f: GeneratingFamily, lab_points, v_scales, N: int, S: int = 4
) -> VerificationReport:
    """Truncation-order study of the boost invariance of the potentials.

    The truncated closure cannot be exactly boost-invariant; the full
    series is.  The empirical convergence order of |d(potentials)/dv|
    under halving of |v| must be at least N - 0.5, and the v=0 gradient
    must be at most 1e-9 relative to |h|.  The derivative is
    ``potentials.boost_jacobian``, the chain rule through the boost.
    """
    report = VerificationReport()
    floor_tol = DEFAULT_TOLERANCES["velocity_independence_floor"]
    direction = np.array([0.6, -0.64, 0.48])
    direction /= np.linalg.norm(direction)
    order_tol = N - 0.5

    def jacobian_norm(state, v):
        return float(np.linalg.norm(boost_jacobian(f, state, BoostVelocity(v), N, S)))

    for state in lab_points:
        pd = _point_dict(state)
        h0 = lab_potentials(f, state, BoostVelocity(np.zeros(3)), N, S).h
        r0 = jacobian_norm(state, np.zeros(3))
        report.add(
            "velocity_independence.zero_boost_floor",
            "boost gradient vanishes at v=0",
            pd,
            r0 / max(abs(h0), RESIDUAL_FLOOR),
            floor_tol,
        )
        rs = [jacobian_norm(state, scale * direction) for scale in v_scales]
        orders = [
            float(np.log2(rs[i] / rs[i + 1]))
            for i in range(len(rs) - 1)
            if rs[i + 1] > 0
        ]
        measured = min(orders) if orders else float("inf")
        report.add(
            "velocity_independence.order",
            "boost-derivative convergence order under v-halving",
            pd,
            # stored as a shortfall so that pass means order >= N - 0.5
            max(0.0, order_tol - measured),
            0.0,
            measured_order=measured,
            required_order=order_tol,
        )
        # definitional identity phi' = phi_hat' + h_hat' v, exact by assembly
        v = BoostVelocity(0.3 * direction)
        hatted = hat_multipliers(state, v)
        pp = lab_potentials(f, state, v, N, S)
        ident = pp.phi - eval_phi_hat(f, hatted, N, S) - pp.h * v.v
        report.add(
            "velocity_independence.definitional_identity",
            "lab flux potential equals boosted pair exactly",
            pd,
            float(np.max(np.abs(ident))) / max(abs(pp.h), RESIDUAL_FLOOR),
            1e-15,
        )
    return report


# --- scalar identity chain ----------------------------------------------------


def check_scalar_identity_chain(
    f: GeneratingFamily, p_max: int, q_max: int, r_max: int, points, S: int = 4
) -> VerificationReport:
    """Scaling identities tying each k_{p,q} (and h_{p,q,r}) to its derivatives."""
    tol = DEFAULT_TOLERANCES["scalar_chain"]
    report = VerificationReport()
    for point in points:
        pd = _point_dict(point)
        for p in range(p_max + 1):
            for q in range(p % 2, q_max + 1, 2):
                residual = coeffs.scaling_residual(
                    f, coeffs.k_series(f, p, q, S), p + 3 * q + 3, point
                )
                report.add(
                    f"scalar_chain.k.p{p}q{q}",
                    "scaling identity for k_{p,q}",
                    pd,
                    residual,
                    tol,
                )
                for r in range(r_max + 1):
                    n = p + q + 2 * r
                    hs = coeffs.tensor_series(p, q, r, S)
                    hs1 = coeffs.tensor_series(p, q, r + 1, S)
                    t0 = (n + 1) * hs(f, point)
                    t1 = (2.0 / 3.0) * point.lam_ll * hs1(f, point)
                    t2 = (n + 1) / (n + 3) * (
                        2.0 * q * hs(f, point)
                        + 4.0 * point.lam_ppqq * hs.derivative(0, 0, 1)(f, point)
                    )
                    scale = max(abs(t0), abs(t1), abs(t2), RESIDUAL_FLOOR)
                    report.add(
                        f"scalar_chain.h.p{p}q{q}r{r}",
                        "scaling identity for h_{p,q,r}",
                        pd,
                        abs(t0 + t1 + t2) / scale,
                        tol,
                    )
    return report


# --- closed-form cross-checks ---------------------------------------------------


def check_closed_forms(
    f: GeneratingFamily, p_max: int, q_max: int, points, S: int = 4
) -> VerificationReport:
    """Stepwise recurrence chain against the closed forms.

    Also flags the two documented edge cases where a literal reading of
    the descending double-step product yields spurious factors 3 (q=0)
    and 35 (q=1); the corrected ascending/empty-product convention is the
    implemented one.
    """
    tol = DEFAULT_TOLERANCES["closed_forms"]
    report = VerificationReport()
    for point in points:
        pd = _point_dict(point)
        for p in range(p_max + 1):
            for q in range(q_max + 1):
                step = coeffs.k_pq(f, p, q, point, S)
                closed = coeffs.k_pq_closed(f, p, q, point, S)
                residual = rel_residual_sym(step, closed)
                report.add(
                    f"closed_forms.k00_derivatives.p{p}q{q}",
                    "k_{p,q} from mixed partials of k00",
                    pd,
                    residual,
                    tol,
                )
                if p == 0:
                    report.add(
                        f"closed_forms.first_row.q{q}",
                        "k_{0,q} from derivatives of k00 only",
                        pd,
                        residual,
                        tol,
                    )
        eq_point = EquilibriumPoint(point.lam, point.lam_ll, 0.0)
        eq_pd = _point_dict(eq_point)
        for q in range(q_max + 1):
            step = coeffs.k_pq(f, 0, q, eq_point, S)
            closed = coeffs.k0q_closed(f, q, eq_point.lam, eq_point.lam_ll)
            report.add(
                f"closed_forms.double_step_product.q{q}",
                "k_{0,q} closed form with corrected product convention",
                eq_pd,
                rel_residual_sym(step, closed),
                tol,
            )
        # literal-reading discrepancy factors at the two documented edge cases
        for q, expected_factor in ((0, 3.0), (1, 35.0)):
            if q > q_max:
                continue
            bounds = coeffs.k0q_eta_bounds(q)
            factor = coeffs.eta_descending_literal(*bounds) / coeffs.eta_product(*bounds)
            report.add(
                f"closed_forms.literal_product_deviation.q{q}",
                "literal descending-product reading deviates by a known factor",
                eq_pd,
                rel_residual_sym(factor, expected_factor),
                tol,
                status="expected-deviation",
                measured_factor=float(factor),
                expected_factor=expected_factor,
            )
    return report


# --- scalar constraints, ladder, kinetic, subsystem ------------------------------


def check_constraints(f: GeneratingFamily, points, S: int) -> VerificationReport:
    tol = DEFAULT_TOLERANCES["constraints"]
    report = VerificationReport()
    for point in points:
        pd = _point_dict(point)
        c_res, f1_res = coeffs.constraint_residuals(f, point, S)
        report.add(
            "constraints.cross_derivative",
            "second-derivative compatibility of k00",
            pd,
            c_res,
            tol,
        )
        report.add(
            "constraints.scaling",
            "Euler-type scaling restriction on k00",
            pd,
            f1_res,
            tol,
        )
    return report


def check_ladder(f: GeneratingFamily, s_values, lam_grid) -> VerificationReport:
    tol = DEFAULT_TOLERANCES["ladder"]
    report = VerificationReport()
    for s in s_values:
        worst = coeffs.worst_ladder_residual(f, s, lam_grid)
        report.add(
            f"ladder.s{s}",
            "derivative recursion between consecutive family members",
            {"lam_grid": [float(x) for x in lam_grid]},
            worst,
            tol,
        )
    return report


def check_kinetic_equivalence(
    f: GeneratingFamily,
    kernel: kinetic.KineticKernel,
    points,
    pq_total_max: int = 6,
    S: int = 4,
) -> VerificationReport:
    """Coefficient engine against the velocity-space quadrature oracle.

    A short series raises one ``TruncationError`` before any work.
    """
    # k_{0,q} takes ceil(q/2) lambda_ppqq steps, and the k_s records read
    # members up to S_SERIES_MAX
    least_S = (pq_total_max + 1) // 2
    if S < least_S or f.s_max < max(S, S_SERIES_MAX):
        raise TruncationError(
            f"kinetic at p+q<={pq_total_max} needs S >= {least_S} and family "
            f"s_max >= max(S, {S_SERIES_MAX}), got S={S} and s_max={f.s_max}"
        )
    tol = DEFAULT_TOLERANCES["kinetic"]
    report = VerificationReport()
    for point in points:
        eq_point = EquilibriumPoint(point.lam, point.lam_ll, 0.0)
        pd = _point_dict(eq_point)
        for p in range(pq_total_max + 1):
            for q in range(pq_total_max + 1 - p):
                macro = coeffs.k_pq(f, p, q, eq_point, S)
                quad = kinetic.kinetic_kpq(kernel, p, q, eq_point)
                report.add(
                    f"kinetic.k_pq.p{p}q{q}",
                    "matrix element equals its velocity-space integral",
                    pd,
                    rel_residual_sym(macro, quad),
                    tol,
                )
        for s in range(S_SERIES_MAX + 1):
            macro = coeffs.k_s_value(f, s, eq_point)
            quad = kinetic.kinetic_series_coefficient(
                kernel, s, eq_point.lam, eq_point.lam_ll
            )
            report.add(
                f"kinetic.series_coefficient.s{s}",
                "series coefficient equals its velocity-space integral",
                pd,
                rel_residual_sym(macro, quad),
                tol,
            )
    return report


def check_subsystem(f: GeneratingFamily, lam_values, q_max: int = 6) -> VerificationReport:
    """13-moment reduction against the first-row series k_{0,q}(lam, 1, 0), no eta product."""
    tol = DEFAULT_TOLERANCES["subsystem"]
    dtol = DEFAULT_TOLERANCES["subsystem_derivative"]
    report = VerificationReport()
    for lam in lam_values:
        table = coeffs.reduce_to_13(f, q_max, lam)
        pd = {"lam": float(lam)}
        point = EquilibriumPoint(lam, 1.0)  # lam_ll dependence stripped at 1
        for q, iq in table.values.items():
            report.add(
                f"subsystem.match.q{q}",
                "13-moment coefficient matches the stripped first-row value",
                pd,
                rel_residual_sym(iq, coeffs.k_pq(f, 0, q, point, q // 2)),
                tol,
            )
        for q in range(0, q_max - 1, 2):
            s = q // 2
            lhs = central_diff(
                lambda x, q=q: coeffs.subsystem_coefficient(f, q + 2, x), lam
            )
            ratio = (
                -1.5
                * (q + 1)
                / (q + 3)
                * coeffs.eta_product(*coeffs.k0q_eta_bounds(q + 2))
                / coeffs.eta_product(*coeffs.k0q_eta_bounds(q))
                * float(coeffs.ladder_factor(s))
            )
            rhs = ratio * coeffs.subsystem_coefficient(f, q, lam)
            report.add(
                f"subsystem.derivative.q{q}",
                "ladder-induced derivative relation between subsystem coefficients",
                pd,
                rel_residual_sym(lhs, rhs),
                dtol,
            )
    return report


# --- full suite --------------------------------------------------------------


def run_all(f: GeneratingFamily, config: VerifyConfig = VerifyConfig(),
            kernel: kinetic.KineticKernel | None = None) -> VerificationReport:
    """Run every check into one deterministic report; a short series raises TruncationError."""
    # the k_{p,q} cells up to q = pq_max and the potentials up to order N each
    # need ceil(n/2) + 1 series orders, and each order reads one family member
    least_S = (max(config.pq_max, config.N) + 1) // 2 + 1
    if config.S < least_S or f.s_max < config.S:
        raise TruncationError(
            f"verify at N={config.N} needs S >= {least_S} and family s_max >= S, "
            f"got S={config.S} and s_max={f.s_max}"
        )
    t0 = time.perf_counter()
    report = VerificationReport(
        metadata={
            "seed": config.seed,
            "count": config.count,
            "N": config.N,
            "S": config.S,
            "family": f.describe(),
            "trace_contraction_reading": "lower index pair of the flux-potential gradient",
        }
    )
    scalar_pts = config.scalar_points()
    report.extend(check_constraints(f, scalar_pts, config.S))
    report.extend(
        check_ladder(f, range(min(4, f.s_max - 1) + 1), coeffs.LADDER_GRID)
    )
    report.extend(
        check_scalar_identity_chain(
            f, config.pq_max, config.pq_max, 2, scalar_pts[:3], S=config.S
        )
    )
    report.extend(
        check_closed_forms(f, config.pq_max, config.pq_max, scalar_pts[:3], S=config.S)
    )
    report.extend(check_compatibility(f, config.hatted_states(), config.N, config.S))
    report.extend(
        check_velocity_independence(
            f,
            config.equilibrium_lab_states()[:3],
            config.v_scales,
            config.N,
            config.S,
        )
    )
    if kernel is not None:
        kin_pts = config.scalar_points(with_ppqq=False)[: config.kinetic_points]
        report.extend(
            check_kinetic_equivalence(
                f, kernel, kin_pts, pq_total_max=config.kinetic_pq_total_max, S=config.S
            )
        )
    lam_grid = np.linspace(-1.0, 1.0, 5)
    report.extend(check_subsystem(f, lam_grid, q_max=6))
    report.sort()
    report.runtime_seconds = round(time.perf_counter() - t0, 3)
    return report
