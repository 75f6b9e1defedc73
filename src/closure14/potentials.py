"""Potential series, Galilean boosts, and moment recovery.

The truncated potentials are isotropic series in the nonequilibrium
multipliers: each (p, q, r) term is a scalar coefficient times the
contraction of a symmetrized delta product against p copies of l_i,
q copies of l_ill and r copies of the deviator of l_ij.  All terms are
evaluated together as averages over one unit-sphere rule.  Moments are
the analytic gradients of the potentials, taken on the same nodes.  Boosts
follow the transformation law of the multipliers and one law for the
moment densities, which moves each flux row as the density f_k. + v_k m.;
the velocity Jacobian of the lab potentials is the chain rule through the
multiplier boost.

The scalar coefficients of all terms form one grid per potential and
derivative.  The grids a call needs compile once, from the plans of
``coeffs.tensor_series`` by index, into one stack of flat term arrays; at
a point the stack looks up each distinct member and power once and sums
every cell of every grid with one ``np.bincount``, bit-identical to
calling each series on its own.  One node pass per state fills the rows
x^k / k! of the three node projections in a single table, and the stacked
grids contract against them in stages: r by one matmul, then q, then p.

The two potentials are evaluated as one pair: a call for h_hat, phi_hat or
the lab potentials makes one node pass and one stack of both grids, and
keeps the raw pair on the state, by family, N and S.  The other potential
at the same arguments is then a lookup.  The arrays of a state are
read-only copies, so the pair it keeps cannot go stale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import coeffs
from .coeffs import EquilibriumPoint, GeneratingFamily
from .errors import DomainError, TruncationError
from .symtensor import SymMatrix, _sphere_rule

LAB = "lab"
HATTED = "hatted"
_I3 = np.eye(3)


@dataclass(frozen=True)
class MultiplierState:
    """The ten-component main field, tagged with its frame.

    ``lam_i`` and ``lam_ill`` are read-only copies of the arrays given, as
    ``SymMatrix`` keeps ``lam_ij``, so a state does not change once built.
    A state keeps the raw potential pair (h_hat, phi_hat) of each (family,
    N, S) that ``eval_h_hat``, ``eval_phi_hat`` or ``lab_potentials``
    evaluated at it with both values finite; ``dataclasses.replace`` builds
    a new state, with none kept.
    """

    frame: str
    lam: float
    lam_i: np.ndarray
    lam_ij: SymMatrix
    lam_ill: np.ndarray
    lam_iill: float
    # {(family, N, S): (h_hat, phi_hat)}: a cache, not part of the state's value
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.frame not in (LAB, HATTED):
            raise ValueError(f"frame must be 'lab' or 'hatted', got {self.frame!r}")
        for name in ("lam_i", "lam_ill"):
            array = np.array(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

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
        """The state of ``to_dict``; a ``lam_ij`` not exactly symmetric raises ``ValueError``."""
        lam_ij = np.array(d["lam_ij"], dtype=float)
        if not np.array_equal(lam_ij, lam_ij.T, equal_nan=True):
            raise ValueError(f"lam_ij must be symmetric, got {d['lam_ij']!r}")
        return cls(
            frame=d["frame"],
            lam=float(d["lam"]),
            lam_i=np.array(d["lam_i"], dtype=float),
            lam_ij=SymMatrix(lam_ij),
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


@functools.cache
def _rule(N: int):
    """Sphere rule exact to degree N + 1 and the products n_i n_j at its nodes."""
    nodes, weights = _sphere_rule(N + 1)
    return nodes, weights, np.einsum("ni,nj->nij", nodes, nodes)


def _node_pass(state: MultiplierState, N: int):
    """Sphere rule exact to degree N + 1 and the rows x^k / k! at its nodes.

    Returns ``(point, nodes, weights, powers)``: the scalar point, which
    checks its domain, and in ``powers`` the tables for x = n.l_i and
    n.l_ill (k <= N) and for x = n.dev.n (k <= N // 2), row slices of one
    table filled by a single ``cumprod``; n.dev.n is one matmul with the
    cached products n_i n_j.  A vector or matrix multiplier that is not
    finite raises ``DomainError``; a power that overflows stays inf for the
    caller's finiteness check.  The public functions that call it run under
    ``np.errstate(over="ignore", invalid="ignore")``, so neither gives a
    floating-point warning.
    """
    point = state.scalar_point()
    nodes, weights, outer = _rule(N)
    dev = state.lam_ij.as_array() - (point.lam_ll / 3) * _I3
    x = np.empty((3, len(weights)))
    np.matmul(nodes, state.lam_i, out=x[0])
    np.matmul(nodes, state.lam_ill, out=x[1])
    np.matmul(outer.reshape(-1, 9), dev.ravel(), out=x[2])
    if not np.isfinite(x).all():
        raise DomainError("lam_i, lam_ij and lam_ill must be finite")
    table = np.empty((3, N + 1, len(weights)))
    table[:, 0] = 1.0
    np.divide(x[:, None], np.arange(1, N + 1)[:, None], out=table[:, 1:])
    np.cumprod(table, axis=1, out=table)
    return point, nodes, weights, (table[0], table[1], table[2, : N // 2 + 1])


class _GridPlan(NamedTuple):
    """Every term of every (p, q, r) cell of a stack of coefficient grids, in cell order.

    Term t adds coef[t] * K[member[t]] * L[ll[t]] * M[m[t]] to the flat cell
    cell[t] of the stack, where K holds the distinct members (s, dl) of
    ``members``, L the powers of lam_ll to ``exponents`` and M the powers of
    lam_ppqq up to m_max, shared by all grids of the stack.
    """

    cell: np.ndarray
    coef: np.ndarray
    member: np.ndarray
    ll: np.ndarray
    m: np.ndarray
    members: tuple
    exponents: tuple
    m_max: int
    reach: tuple  # the largest s and dl of ``members``
    rank1: np.ndarray  # (rank + 1) of every cell, shape (grids, N + 1, N + 1, N // 2 + 1)


@functools.cache
def _grid_plan(N: int, S: int, specs: tuple, zero: bool = False) -> _GridPlan:
    """Compile the grids ``specs``, pairs (free, shift), to one set of flat arrays.

    Grid g holds h_hat (free False) or phi_hat (free True), each series
    replaced by its ``derivative(*shift)``; with ``zero``, only the terms of
    each series at lambda_ppqq = 0, its ``_plan0``.  The series are symbolic,
    so the plan holds for every family.  A series that raises
    (``TruncationError``, no lambda_ppqq order left) is not cached.
    """
    shape = (len(specs), N + 1, N + 1, N // 2 + 1)
    rows = []
    for g, (free, shift) in enumerate(specs):
        for p in range(N + 1):
            for q in range((p + free) % 2, N + 1 - p, 2):
                for r in range((N - p - q) // 2 + 1):
                    series = coeffs.tensor_series(p, q, r, S).derivative(*shift)
                    cell = np.ravel_multi_index((g, p, q, r), shape)
                    rows.extend((cell, *term) for term in (series._plan0 if zero else series.plan))
    members = tuple(dict.fromkeys(row[2] for row in rows))
    exponents = tuple(dict.fromkeys(row[3] for row in rows))
    member_index = {key: i for i, key in enumerate(members)}
    exponent_index = {e: i for i, e in enumerate(exponents)}
    free = np.array([free for free, _ in specs]).reshape(-1, 1, 1, 1)
    _, p, q, r = np.indices(shape)
    return _GridPlan(
        cell=np.array([row[0] for row in rows], dtype=np.intp),
        coef=np.array([row[1] for row in rows], dtype=float),
        member=np.array([member_index[row[2]] for row in rows], dtype=np.intp),
        ll=np.array([exponent_index[row[3]] for row in rows], dtype=np.intp),
        m=np.array([row[4] for row in rows], dtype=np.intp),
        members=members,
        exponents=exponents,
        m_max=max((row[4] for row in rows), default=0),
        reach=tuple(map(max, zip(*members))) or (0, 0),
        rank1=(p + q + 2 * r + free + 1).astype(float),
    )


def _grids(f, point, N: int, S: int, specs: tuple) -> np.ndarray:
    """(rank + 1) x coefficient of every (p, q, r) term of each grid of ``specs``.

    Returns the grids stacked, shape (len(specs), N + 1, N + 1, N // 2 + 1);
    see ``_grid_plan`` for the specs.  p + q is even for h_hat and odd for
    phi_hat, and p + q + 2r <= N.  Each distinct member and power is looked
    up once for the whole stack, and each cell sums its terms in the order
    ``CoeffSeries.__call__`` does, so every grid is bit-identical to calling
    each series on its own.  At lambda_ppqq = 0, as a series does, it sums
    only the terms with m = 0 and reads only their members, unless a member
    of the full plan lies past the family's s_max or n_max.
    """
    plan = _grid_plan(N, S, specs)
    if not point.lam_ppqq and plan.reach[0] <= f.s_max and plan.reach[1] <= f.n_max:
        plan = _grid_plan(N, S, specs, zero=True)  # all members in range: m > 0 terms are 0
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
    """Sum of grid[..., p, q, r] a^p b^q c^r / (p! q! r!) at every node.

    Leading axes of ``grid`` stack grids and pass through to the result.  The
    contraction is staged, each stage a product of two operands: r by one
    matmul, then q, then p.  A shift of one in a slot gives the derivative in
    that slot's variable: the grid drops the slot's first cell and the
    slot's power table its last row.
    """
    (sa, sb, sc), (A, B, C) = shift, powers
    grid = grid[..., sa:, sb:, sc:]
    *lead, P, Q, R = grid.shape
    G, n = math.prod(lead), A.shape[1]
    t = grid.reshape(G * P * Q, R) @ C[:R]
    t = np.einsum("xqn,qn->xn", t.reshape(G * P, Q, n), B[:Q])
    return np.einsum("gpn,pn->gn", t.reshape(G, P, n), A[:P]).reshape(*lead, n)


_PAIR = ((False, (0, 0, 0)), (True, (0, 0, 0)))  # the grid specs of h_hat and phi_hat


def _check_orders(N, S) -> None:
    """``ValueError`` unless N and S are integers >= 0: run before a cache takes 4.0 as 4."""
    if not (type(N) is int and N >= 0 and type(S) is int and S >= 0):
        coeffs.check_index("N", N)
        coeffs.check_index("S", S)


def _pair(f, state: MultiplierState, N: int, S: int):
    """(h_hat, phi_hat) at ``state``, from one node pass and one grid stack.

    A value that is not finite, from an overflow, is None, for its caller
    to raise on.  The pair is kept on the state by (f, N, S) when neither
    value is None, so a call that raises, or that finds a value that
    overflowed, stores nothing.
    """
    _check_orders(N, S)
    key = (f, N, S)
    pair = state._pairs.get(key)
    if pair is None:
        point, nodes, weights, powers = _node_pass(state, N)
        h_field, phi_field = _field(_grids(f, point, N, S, _PAIR), powers)
        h, phi = float(weights @ h_field), (weights * phi_field) @ nodes
        pair = (h if math.isfinite(h) else None, phi if np.isfinite(phi).all() else None)
        if pair[0] is not None and pair[1] is not None:
            state._pairs[key] = pair
    return pair


def _finite(name: str, value):
    """``value``, or ``DomainError`` naming the potential when it is None."""
    if value is None:
        raise DomainError(f"{name} overflows")
    return value


@np.errstate(over="ignore", invalid="ignore")
def eval_h_hat(f: GeneratingFamily, state: MultiplierState, N: int, S: int) -> float:
    """Truncated entropy-density potential at a hatted state.

    At odd N phi_hat needs one lam_ppqq order more than h_hat; where S
    leaves phi_hat none, h_hat is evaluated on its own grid.
    """
    try:
        h = _pair(f, state, N, S)[0]
    except TruncationError:
        point, _, weights, powers = _node_pass(state, N)
        h = float(weights @ _field(_grids(f, point, N, S, _PAIR[:1]), powers)[0])
        h = h if math.isfinite(h) else None
    return _finite("h_hat", h)


@np.errstate(over="ignore", invalid="ignore")
def eval_phi_hat(f: GeneratingFamily, state: MultiplierState, N: int, S: int) -> np.ndarray:
    """Truncated entropy-flux potential (3-vector) at a hatted state, a new array."""
    return _finite("phi_hat", _pair(f, state, N, S)[1]).copy()


# --- Galilean transformations -----------------------------------------------


def hat_multipliers(lab: MultiplierState, v: BoostVelocity) -> MultiplierState:
    """Transformation of the main field to the frame moving with velocity v.

    A hatted state that is not finite, from multipliers that are not finite
    or that overflow, raises ``DomainError`` without a floating-point warning,
    and so does a boosted lambda_ll that is not positive; its message names
    the lab state and the velocity that gave it.
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
            + float(lill @ u) * _I3
            + np.outer(lill, u)
            + np.outer(u, lill)
            + 2.0 * lpp * u2 * _I3
            + 4.0 * lpp * np.outer(u, u)
        )
        lam_ill_hat = lill + 4.0 * lpp * u
    parts = (lam_i_hat, lam_ill_hat, lam_ij_hat.as_array().ravel(), (lam_hat, lpp))
    if not np.isfinite(np.concatenate(parts)).all():
        raise DomainError("boosted multipliers must be finite")
    lam_ll_hat = lam_ij_hat.trace()
    if not lam_ll_hat > 0:
        raise DomainError(
            f"boosted lambda_ll must be positive, got {lam_ll_hat} from lab "
            f"lambda_ll {lab.lam_ll} and lambda_ill {lill.tolist()} at v = {u.tolist()}"
        )
    return MultiplierState(
        frame=HATTED,
        lam=lam_hat,
        lam_i=lam_i_hat,
        lam_ij=lam_ij_hat,
        lam_ill=lam_ill_hat,
        lam_iill=lpp,
    )


@np.errstate(over="ignore", invalid="ignore")
def boost_jacobian(
    f: GeneratingFamily, lab: MultiplierState, v: BoostVelocity, N: int, S: int
) -> np.ndarray:
    """Jacobian d(h', phi'^k)/dv_h, rows (h', phi'^k), by the chain rule through the boost.

    With h' = h_hat(lam_hat(v)) and phi'^k = phi_hat^k(lam_hat(v)) + h_hat v^k,
    the boosted multipliers have closed-form velocity derivatives in the
    hatted state: d lam_hat/dv_h = lam_hat_h, d lam_hat_i/dv_h = 2 lam_hat_ih,
    d lam_hat_ij/dv_h = lam_hat_ill,h delta_ij + lam_hat_ill,i delta_jh
    + delta_ih lam_hat_ill,j and d lam_hat_ill,i/dv_h = 4 lam_iill delta_ih.
    They contract with the gradient blocks of one node pass at the hatted
    state; lam_iill does not change under a boost, so its block is not
    taken.  A Jacobian that is not finite raises ``DomainError``.
    """
    hatted = hat_multipliers(lab, v)
    L, b = hatted.lam_ij.as_array(), hatted.lam_ill

    def chain(g, g_i, g_ij, g_ill):
        # each block carries the potential's own index first; the result
        # ends in the velocity index h (g_ij is symmetric in its last two)
        return (
            np.multiply.outer(g, hatted.lam_i)
            + 2.0 * g_i @ L
            + np.multiply.outer(np.trace(g_ij, axis1=-2, axis2=-1), b)
            + 2.0 * g_ij @ b
            + 4.0 * hatted.lam_iill * g_ill
        )

    (h, h_blocks), (_, phi_blocks) = _gradients(f, hatted, N, S, quartic=False)
    dh = chain(*h_blocks)
    dphi = chain(*phi_blocks) + np.outer(v.v, dh) + h * _I3
    jacobian = np.vstack([dh, dphi])
    if not np.isfinite(jacobian).all():
        raise DomainError("boost Jacobian overflows")
    return jacobian


@np.errstate(over="ignore", invalid="ignore")
def lab_potentials(
    f: GeneratingFamily,
    lab: MultiplierState,
    v: BoostVelocity,
    N: int,
    S: int,
) -> PotentialPair:
    """Lab-frame potentials via h' = h_hat', phi'^k = phi_hat'^k + h_hat' v^k."""
    h, phi_hat = _pair(f, hat_multipliers(lab, v), N, S)
    h = _finite("h_hat", h)
    return PotentialPair(h=h, phi=_finite("phi_hat", phi_hat) + h * v.v)


def _require_finite(ms: MomentSet) -> MomentSet:
    """``ms``, or ``DomainError`` when a block is not finite."""
    blocks = [np.ravel(getattr(ms, fld.name)) for fld in fields(MomentSet)[1:]]
    if not np.isfinite(np.concatenate(blocks)).all():
        raise DomainError(f"{ms.frame}-frame moments overflow")
    return ms


def _boost_density(m, m_i, m_ij, m_ill, m_iill, u):
    """Lab densities of ranks 0-4 from the rest ones, in a frame moving with u.

    Leading axes pass through, so flux row k boosts as the density
    f_k. + u_k m. (Mueller and Ruggeri, Rational Extended Thermodynamics).
    """
    u2 = float(u @ u)
    m_ll, m_u = np.trace(m_ij, axis1=-2, axis2=-1), m_i @ u
    return (
        m,
        m_i + np.multiply.outer(m, u),
        m_ij + m_i[..., :, None] * u + u[:, None] * m_i[..., None, :]
        + np.multiply.outer(m, np.outer(u, u)),
        m_ill
        + np.multiply.outer(m_ll, u)
        + 2.0 * m_ij @ u
        + m_i * u2
        + np.multiply.outer(2.0 * m_u, u)
        + np.multiply.outer(m * u2, u),
        m_iill
        + 4.0 * (m_ill @ u)
        + 2.0 * m_ll * u2
        + 4.0 * (u @ m_ij @ u)
        + 4.0 * m_u * u2
        + m * u2 * u2,
    )


@np.errstate(over="ignore", invalid="ignore")
def lab_moments_from_rest(rest: MomentSet, v: BoostVelocity) -> MomentSet:
    """Boost a rest-frame moment set to the lab frame (densities and fluxes).

    A block that overflows raises ``DomainError`` without a warning.
    """
    if rest.frame != "rest":
        raise ValueError("lab_moments_from_rest expects a rest-frame moment set")
    u = v.v
    blocks = [getattr(rest, fld.name) for fld in fields(MomentSet)[1:]]
    densities, fluxes = blocks[:5], blocks[5:]
    rows = [flux + np.multiply.outer(u, density) for flux, density in zip(fluxes, densities)]
    return _require_finite(
        MomentSet(LAB, *_boost_density(*densities, u), *_boost_density(*rows, u))
    )


# --- moment recovery ---------------------------------------------------------


def _gradients(f, state, N, S, quartic):
    """Values and gradients of h_hat and phi_hat, as ``[(h, blocks), (phi, blocks)]``.

    The blocks are the gradients in (lam, lam_i, lam_ij, lam_ill) and, if
    ``quartic``, lam_iill, with phi's own index k first.  The scalar
    directions differentiate the series, the vector and matrix ones the node
    monomials; one grid stack holds the value and scalar-derivative grids of
    both potentials.  The lam_ij block is symmetric in the nine-component
    convention dh = G_ij dlam_ij; besides the deviator part it holds delta_ij
    times the lam_ll derivative of the coefficients.
    """
    _check_orders(N, S)
    point, nodes, weights, powers = _node_pass(state, N)
    shifts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))[: 3 + quartic]
    grids = _grids(f, point, N, S, tuple((free, d) for free in (False, True) for d in shifts))
    grids = grids.reshape(2, len(shifts), *grids.shape[1:])
    scalar = _field(grids, powers)
    d_a, d_b, d_c = (_field(grids[:, 0], powers, shift)
                     for shift in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    projector = _rule(N)[2] - _I3 / 3.0
    out = []
    for free, w in enumerate((weights, weights[:, None] * nodes)):
        sums = [w.T @ field for field in scalar[free]]
        value, d_lam, d_ll, *d_ppqq = sums if free else map(float, sums)
        g_i, g_ill = (np.einsum("n...,n,ni->...i", w, d[free], nodes) for d in (d_a, d_b))
        g_ij = np.einsum("n...,n,nij->...ij", w, d_c[free], projector)
        out.append((value, [d_lam, g_i, g_ij + np.multiply.outer(d_ll, _I3), g_ill, *d_ppqq]))
    return out


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
    (_, h_blocks), (_, phi_blocks) = _gradients(f, state, N, S, quartic=True)
    return _require_finite(MomentSet("rest", *h_blocks, *phi_blocks))
