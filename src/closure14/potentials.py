"""Potential series, Galilean boosts, and moment recovery.

The truncated potentials are isotropic series in the nonequilibrium
multipliers: each (p, q, r) term is a scalar coefficient times the
contraction of a symmetrized delta product against p copies of l_i,
q copies of l_ill and r copies of the deviator of l_ij.  All terms are
evaluated together as averages over one unit-sphere rule.  Moments are
the analytic gradients of the potentials, taken on the same nodes; boosts
follow the transformation laws of the multipliers and of the moment
hierarchy.

The scalar coefficients of all terms form one grid per potential and
derivative.  Each grid is compiled once, on first use, into flat arrays of
its series terms; at a point it looks up each distinct family member and
power once and sums the cells with ``np.bincount``, bit-identical to
calling every series on its own.  One node pass per state fills the rows
x^k / k! of the three node projections in a single table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import coeffs
from .coeffs import CoeffSeries, EquilibriumPoint, GeneratingFamily
from .errors import DomainError
from .symtensor import SymMatrix, _sphere_rule

LAB = "lab"
HATTED = "hatted"


@dataclass(frozen=True)
class MultiplierState:
    """The ten-component main field, tagged with its frame."""

    frame: str
    lam: float
    lam_i: np.ndarray
    lam_ij: SymMatrix
    lam_ill: np.ndarray
    lam_iill: float

    def __post_init__(self):
        if self.frame not in (LAB, HATTED):
            raise ValueError(f"frame must be 'lab' or 'hatted', got {self.frame!r}")
        object.__setattr__(self, "lam_i", np.asarray(self.lam_i, dtype=float))
        object.__setattr__(self, "lam_ill", np.asarray(self.lam_ill, dtype=float))

    @classmethod
    def equilibrium(cls, lam: float, lam_ll: float, lam_ppqq: float = 0.0,
                    frame: str = HATTED) -> "MultiplierState":
        return cls(
            frame=frame,
            lam=lam,
            lam_i=np.zeros(3),
            lam_ij=SymMatrix(np.eye(3) * (lam_ll / 3.0)),
            lam_ill=np.zeros(3),
            lam_iill=lam_ppqq,
        )

    @property
    def lam_ll(self) -> float:
        return self.lam_ij.trace()

    def scalar_point(self) -> EquilibriumPoint:
        return EquilibriumPoint(self.lam, self.lam_ll, self.lam_iill)

    def to_dict(self) -> dict:
        return {
            "frame": self.frame,
            "lam": self.lam,
            "lam_i": self.lam_i.tolist(),
            "lam_ij": self.lam_ij.as_array().tolist(),
            "lam_ill": self.lam_ill.tolist(),
            "lam_iill": self.lam_iill,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MultiplierState":
        return cls(
            frame=d["frame"],
            lam=float(d["lam"]),
            lam_i=np.array(d["lam_i"], dtype=float),
            lam_ij=SymMatrix(np.array(d["lam_ij"], dtype=float)),
            lam_ill=np.array(d["lam_ill"], dtype=float),
            lam_iill=float(d["lam_iill"]),
        )


@dataclass(frozen=True)
class BoostVelocity:
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.v.shape != (3,) or not np.all(np.isfinite(self.v)):
            raise ValueError("boost velocity must be a finite 3-vector")


@dataclass(frozen=True)
class PotentialPair:
    h: float
    phi: np.ndarray
    N: int
    S: int


@dataclass(frozen=True)
class MomentSet:
    """Densities (ranks 0-4) and fluxes (ranks 1-5) in one frame.

    The rank-3 flux block is stored as a full 3x3x3 array symmetric in its
    last two indices; full symmetry is a verified property, not a storage
    assumption.
    """

    frame: str
    m: float
    m_i: np.ndarray  # (3,)
    m_ij: np.ndarray  # (3,3) symmetric
    m_ill: np.ndarray  # (3,)
    m_iill: float
    f_k: np.ndarray  # (3,)
    f_ki: np.ndarray  # (3,3), indices [k,i]
    f_kij: np.ndarray  # (3,3,3), indices [k,i,j], symmetric in (i,j)
    f_kill: np.ndarray  # (3,3), indices [k,i]
    f_kiill: np.ndarray  # (3,)


# --- truncated potentials on one sphere rule ----------------------------------
#
# By the isotropic identity Delta(2n) = (2n+1) <n^(2n)> for the symmetrized
# product of n Kronecker deltas, the (p, q, r) term is
# (rank+1) coef <a^p b^q c^r> / (p! q! r!) over the unit sphere, with
# a = n.l_i, b = n.l_ill, c = n.dev.n (times n_k for phi).  Every term and
# every gradient block has degree <= N + 1, so one rule of that degree is
# exact for all of them.  A derivative in a, b or c shifts the coefficient
# grid by one in that slot; the scalar directions differentiate the series.


def _node_pass(state: MultiplierState, N: int):
    """Sphere rule exact to degree N + 1 and the rows x^k / k! at its nodes.

    Returns ``(point, nodes, weights, powers)``: the scalar point, checked
    with ``require_domain``, and in ``powers`` the tables for x = n.l_i and
    n.l_ill (k <= N) and for x = n.dev.n (k <= N // 2), row slices of one
    table filled by a single ``cumprod``.  A vector or matrix multiplier
    that is not finite raises ``DomainError``; a power that overflows stays
    inf for the caller's finiteness check.  The public functions that call
    it run under ``np.errstate(over="ignore", invalid="ignore")``, so
    neither gives a floating-point warning.
    """
    point = state.scalar_point()
    point.require_domain()
    nodes, weights = _sphere_rule(N + 1)
    dev = state.lam_ij.as_array() - (point.lam_ll / 3) * np.eye(3)
    x = np.empty((3, len(weights)))
    np.matmul(nodes, state.lam_i, out=x[0])
    np.matmul(nodes, state.lam_ill, out=x[1])
    np.einsum("ni,ij,nj->n", nodes, dev, nodes, out=x[2])
    if not np.isfinite(x).all():
        raise DomainError("lam_i, lam_ij and lam_ill must be finite")
    table = np.empty((3, N + 1, len(weights)))
    table[:, 0] = 1.0
    np.divide(x[:, None], np.arange(1, N + 1)[:, None], out=table[:, 1:])
    np.cumprod(table, axis=1, out=table)
    return point, nodes, weights, (table[0], table[1], table[2, : N // 2 + 1])


class _GridPlan(NamedTuple):
    """Every term of every (p, q, r) cell of one coefficient grid, in cell order.

    Term t adds coef[t] * K[member[t]] * L[ll[t]] * M[m[t]] to the flat cell
    cell[t], where K holds the distinct members (s, dl) of ``members``, L the
    powers of lam_ll to ``exponents`` and M the powers of lam_ppqq up to m_max.
    """

    cell: np.ndarray
    coef: np.ndarray
    member: np.ndarray
    ll: np.ndarray
    m: np.ndarray
    members: tuple
    exponents: tuple
    m_max: int
    rank1: np.ndarray  # (rank + 1) of every cell


@functools.cache
def _grid_plan(series_of, N: int, S: int, free: bool, derive) -> _GridPlan:
    """Compile the grid of ``series_of`` (mapped through ``derive``) to flat arrays.

    The series are symbolic, so the plan holds for every family.  A derivative
    that raises (``TruncationError`` from ``d_ppqq``) is not cached.
    """
    shape = (N + 1, N + 1, N // 2 + 1)
    rows = []
    for p in range(N + 1):
        for q in range((p + free) % 2, N + 1 - p, 2):
            for r in range((N - p - q) // 2 + 1):
                series = series_of(None, p, q, r, S)
                if derive is not None:
                    series = derive(series)
                cell = np.ravel_multi_index((p, q, r), shape)
                rows.extend((cell, *term) for term in series.float_plan())
    members = tuple(dict.fromkeys((s, dl) for _, _, s, dl, _, _ in rows))
    exponents = tuple(dict.fromkeys(e for *_, e, _ in rows))
    member_index = {key: i for i, key in enumerate(members)}
    exponent_index = {e: i for i, e in enumerate(exponents)}
    p, q, r = np.indices(shape)
    return _GridPlan(
        cell=np.array([row[0] for row in rows], dtype=np.intp),
        coef=np.array([row[1] for row in rows], dtype=float),
        member=np.array([member_index[row[2:4]] for row in rows], dtype=np.intp),
        ll=np.array([exponent_index[row[4]] for row in rows], dtype=np.intp),
        m=np.array([row[5] for row in rows], dtype=np.intp),
        members=members,
        exponents=exponents,
        m_max=max((row[5] for row in rows), default=0),
        rank1=(p + q + 2 * r + free + 1).astype(float),
    )


def _grid(f, point, N: int, S: int, free: bool, derive=None):
    """(rank + 1) x coefficient of every (p, q, r) term of h_hat or phi_hat.

    p + q is even for h_hat and odd for phi_hat, and p + q + 2r <= N.  The
    series are looked up at call time and mapped through ``derive``; each
    cell sums its terms in the order ``CoeffSeries.__call__`` does, so the
    grid is bit-identical to calling every series on its own.
    """
    series_of = coeffs.phi_series if free else coeffs.h_series
    plan = _grid_plan(series_of, N, S, free, derive)
    if not plan.cell.size:  # phi_hat at N = 0 has no terms
        return np.zeros(plan.rank1.shape)
    point.require_domain()
    lam, lam_ll, lam_ppqq = point.lam, point.lam_ll, point.lam_ppqq
    K = np.array([f.ktilde_deriv(s, dl, lam) for s, dl in plan.members])
    try:
        L = np.array([lam_ll ** e for e in plan.exponents])
        M = np.array([1.0, *(lam_ppqq ** m for m in range(1, plan.m_max + 1))])
    except OverflowError as exc:
        raise DomainError(f"coefficient overflows at {point}") from exc
    values = plan.coef * K[plan.member]
    values *= L[plan.ll]
    values *= M[plan.m]
    sums = np.bincount(plan.cell, values, plan.rank1.size).reshape(plan.rank1.shape)
    return plan.rank1 * sums


def _field(grid: np.ndarray, powers, shift=(0, 0, 0)) -> np.ndarray:
    """Sum of grid[p,q,r] a^p b^q c^r / (p! q! r!) at every node.

    A shift of one in a slot gives the derivative in that slot's variable.
    """
    (sa, sb, sc), (A, B, C) = shift, powers
    trimmed = (A[: len(A) - sa], B[: len(B) - sb], C[: len(C) - sc])
    return np.einsum("pqr,pn,qn,rn->n", grid[sa:, sb:, sc:], *trimmed)


def _potential(f, N, S, free, node_pass):
    """h_hat (free=False) or phi_hat (free=True) on a node pass of its state.

    A value that is not finite, from an overflow, raises ``DomainError``.
    """
    point, nodes, weights, powers = node_pass
    field = _field(_grid(f, point, N, S, free), powers)
    if free:
        value = (weights * field) @ nodes
        finite = np.isfinite(value).all()
    else:
        value = float(weights @ field)
        finite = math.isfinite(value)
    if not finite:
        raise DomainError(f"{'phi' if free else 'h'}_hat overflows")
    return value


@np.errstate(over="ignore", invalid="ignore")
def eval_h_hat(f: GeneratingFamily, state: MultiplierState, N: int, S: int) -> float:
    """Truncated entropy-density potential at a hatted state."""
    return _potential(f, N, S, False, _node_pass(state, N))


@np.errstate(over="ignore", invalid="ignore")
def eval_phi_hat(f: GeneratingFamily, state: MultiplierState, N: int, S: int) -> np.ndarray:
    """Truncated entropy-flux potential (3-vector) at a hatted state."""
    return _potential(f, N, S, True, _node_pass(state, N))


# --- Galilean transformations -----------------------------------------------


def hat_multipliers(lab: MultiplierState, v: BoostVelocity) -> MultiplierState:
    """Transformation of the main field to the frame moving with velocity v.

    A hatted state that is not finite, from multipliers that are not finite
    or that overflow, raises ``DomainError`` without a floating-point warning.
    """
    if lab.frame != LAB:
        raise ValueError("hat_multipliers expects a lab-frame state")
    u = v.v
    u2 = float(u @ u)
    L = lab.lam_ij.as_array()
    li, lill, lpp = lab.lam_i, lab.lam_ill, lab.lam_iill
    with np.errstate(invalid="ignore", over="ignore"):
        lam_hat = (
            lab.lam + float(li @ u) + float(u @ L @ u) + float(lill @ u) * u2 + lpp * u2 * u2
        )
        lam_i_hat = (
            li + 2.0 * L @ u + 2.0 * float(lill @ u) * u + lill * u2 + 4.0 * lpp * u2 * u
        )
        lam_ij_hat = SymMatrix(
            L
            + float(lill @ u) * np.eye(3)
            + np.outer(lill, u)
            + np.outer(u, lill)
            + 2.0 * lpp * u2 * np.eye(3)
            + 4.0 * lpp * np.outer(u, u)
        )
        lam_ill_hat = lill + 4.0 * lpp * u
    parts = (lam_i_hat, lam_ill_hat, lam_ij_hat.as_array().ravel(), (lam_hat, lpp))
    if not np.isfinite(np.concatenate(parts)).all():
        raise DomainError("boosted multipliers must be finite")
    return MultiplierState(
        frame=HATTED,
        lam=lam_hat,
        lam_i=lam_i_hat,
        lam_ij=lam_ij_hat,
        lam_ill=lam_ill_hat,
        lam_iill=lpp,
    )


@np.errstate(over="ignore", invalid="ignore")
def lab_potentials(
    f: GeneratingFamily,
    lab: MultiplierState,
    v: BoostVelocity,
    N: int,
    S: int,
) -> PotentialPair:
    """Lab-frame potentials via h' = h_hat', phi'^k = phi_hat'^k + h_hat' v^k."""
    hatted = hat_multipliers(lab, v)
    node_pass = _node_pass(hatted, N)
    h = _potential(f, N, S, False, node_pass)
    phi = _potential(f, N, S, True, node_pass) + h * v.v
    return PotentialPair(h=h, phi=phi, N=N, S=S)


def _require_finite(ms: MomentSet) -> MomentSet:
    """``ms``, or ``DomainError`` when a block is not finite."""
    blocks = [np.ravel(getattr(ms, fld.name)) for fld in fields(MomentSet)[1:]]
    if not np.isfinite(np.concatenate(blocks)).all():
        raise DomainError(f"{ms.frame}-frame moments overflow")
    return ms


@np.errstate(over="ignore", invalid="ignore")
def lab_moments_from_rest(rest: MomentSet, v: BoostVelocity) -> MomentSet:
    """Boost a rest-frame moment set to the lab frame (densities and fluxes).

    A block that overflows raises ``DomainError`` without a warning.
    """
    if rest.frame != "rest":
        raise ValueError("lab_moments_from_rest expects a rest-frame moment set")
    u = v.v
    u2 = float(u @ u)
    m, mi, mij, mill, miill = rest.m, rest.m_i, rest.m_ij, rest.m_ill, rest.m_iill
    mll = float(np.trace(mij))

    F = m
    F_i = mi + m * u
    F_ij = mij + np.outer(mi, u) + np.outer(u, mi) + m * np.outer(u, u)
    F_ill = (
        mill
        + mll * u
        + 2.0 * mij @ u
        + mi * u2
        + 2.0 * float(mi @ u) * u
        + m * u2 * u
    )
    F_iill = (
        miill
        + 4.0 * float(mill @ u)
        + 2.0 * mll * u2
        + 4.0 * float(u @ mij @ u)
        + 4.0 * float(mi @ u) * u2
        + m * u2 * u2
    )

    mk, mki, mkij, mkill, mkiill = (
        rest.f_k,
        rest.f_ki,
        rest.f_kij,
        rest.f_kill,
        rest.f_kiill,
    )
    mkll = np.trace(mkij, axis1=1, axis2=2)  # (k,)

    F_k = F * u + mk
    # F_{ik} = F_i v_k + m_{ik} + m_k v_i ; stored as [k, i]
    F_ki = np.outer(u, F_i) + mki + np.outer(mk, u)
    # F_{ijk} = F_{ij} v_k + m_{kij} + m_{ki} v_j + m_{kj} v_i + m_k v_i v_j
    F_kij = (
        np.einsum("ij,k->kij", F_ij, u)
        + mkij
        + np.einsum("ki,j->kij", mki, u)
        + np.einsum("kj,i->kij", mki, u)
        + np.einsum("k,i,j->kij", mk, u, u)
    )
    # F_{illk} = F_{ill} v_k + m_{kill} + m_{kll} v_i + 2 m_{kil} v_l
    #            + m_{ki} v^2 + 2 m_{kl} v_l v_i + m_k v^2 v_i ; stored [k, i]
    F_kill = (
        np.outer(u, F_ill)
        + mkill
        + np.outer(mkll, u)
        + 2.0 * np.einsum("kil,l->ki", mkij, u)
        + mki * u2
        + 2.0 * np.outer(mki @ u, u)
        + u2 * np.outer(mk, u)
    )
    # F_{iillk} = F_{iill} v_k + m_{kiill} + 4 m_{kill} v_i + 2 m_{kll} v^2
    #             + 4 m_{kli} v_l v_i + 4 m_{kl} v_l v^2 + m_k v^4
    F_kiill = (
        F_iill * u
        + mkiill
        + 4.0 * mkill @ u
        + 2.0 * mkll * u2
        + 4.0 * np.einsum("kli,l,i->k", mkij, u, u)
        + 4.0 * (mki @ u) * u2
        + mk * u2 * u2
    )
    return _require_finite(MomentSet(
        frame=LAB,
        m=F,
        m_i=F_i,
        m_ij=F_ij,
        m_ill=F_ill,
        m_iill=F_iill,
        f_k=F_k,
        f_ki=F_ki,
        f_kij=F_kij,
        f_kill=F_kill,
        f_kiill=F_kiill,
    ))


# --- moment recovery ---------------------------------------------------------


def _gradients(f, N, S, free, node_pass):
    """Gradients of h_hat or phi_hat in (lam, lam_i, lam_ij, lam_ill, lam_iill).

    Blocks carry phi's own index k first.  The lam_ij block is symmetric in
    the nine-component convention dh = G_ij dlam_ij; besides the deviator
    part it holds delta_ij times the lam_ll derivative of the coefficients.
    """
    point, nodes, weights, powers = node_pass
    w = weights[:, None] * nodes if free else weights
    grid = _grid(f, point, N, S, free)

    def scalar(derive):
        value = w.T @ _field(_grid(f, point, N, S, free, derive), powers)
        return value if free else float(value)

    def vector(shift):
        return np.einsum("n...,n,ni->...i", w, _field(grid, powers, shift), nodes)

    projector = np.einsum("ni,nj->nij", nodes, nodes) - np.eye(3) / 3.0
    deviator_part = np.einsum("n...,n,nij->...ij", w, _field(grid, powers, (0, 0, 1)), projector)
    return (
        scalar(CoeffSeries.d_lam),
        vector((1, 0, 0)),
        deviator_part + np.multiply.outer(scalar(CoeffSeries.d_ll), np.eye(3)),
        vector((0, 1, 0)),
        scalar(CoeffSeries.d_ppqq),
    )


@np.errstate(over="ignore", invalid="ignore")
def moments_from_potentials(
    f: GeneratingFamily, state: MultiplierState, N: int, S: int
) -> MomentSet:
    """Rest-frame moments and fluxes as gradients of the hatted potentials.

    All ten blocks come from the sphere-node pass that evaluates the
    potentials: the vector and matrix directions differentiate the node
    monomials, the scalar directions (lam, lam_ll, lam_iill) the coefficient
    series, so every block is exact to rounding for the truncated series.
    Raises ``TruncationError`` when S leaves a term no lam_iill order, and
    ``DomainError`` without a warning when a block overflows.
    """
    if state.frame != HATTED:
        raise ValueError("moments_from_potentials expects a hatted state")
    node_pass = _node_pass(state, N)
    return _require_finite(MomentSet(
        "rest",
        *_gradients(f, N, S, False, node_pass),
        *_gradients(f, N, S, True, node_pass),
    ))
