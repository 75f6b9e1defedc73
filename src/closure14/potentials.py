"""Potential series, Galilean boosts, and moment recovery.

The truncated potentials are isotropic series in the nonequilibrium
multipliers: each (p, q, r) term is a scalar coefficient times the
contraction of a symmetrized delta product against p copies of l_i,
q copies of l_ill and r copies of the deviator of l_ij.  Moments are
gradients of the potentials; boosts follow the transformation laws of
the multipliers and of the moment hierarchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import coeffs
from .coeffs import EquilibriumPoint, GeneratingFamily
from .numdiff import central_diff
from .symtensor import SymMatrix, delta_contract, deviator

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


# --- truncated potential evaluation ----------------------------------------


def _term_indices(N: int, parity: int):
    """(p, q, r) with p+q of given parity and p+q+2r <= N."""
    for p in range(N + 1):
        for q in range(N + 1 - p):
            if (p + q) % 2 != parity:
                continue
            for r in range((N - p - q) // 2 + 1):
                yield p, q, r


def _eval_potential(f, state, N, S, free, dlam, dppqq):
    """Sum of the (p, q, r) terms of h_hat (free=False) or phi_hat (free=True)."""
    series_of = coeffs.phi_series if free else coeffs.h_series
    point = state.scalar_point()
    point.require_domain()
    dev = deviator(state.lam_ij)
    total = np.zeros(3) if free else 0.0
    for p, q, r in _term_indices(N, parity=int(free)):
        series = series_of(f, p, q, r, S)
        for _ in range(dlam):
            series = series.d_lam()
        for _ in range(dppqq):
            series = series.d_ppqq()
        coef = series(f, point)
        if coef == 0.0:
            continue
        geom = delta_contract(
            [state.lam_i] * p + [state.lam_ill] * q, [dev] * r, free=free
        )
        total += coef * geom / (
            math.factorial(p) * math.factorial(q) * math.factorial(r)
        )
    return total


def eval_h_hat(
    f: GeneratingFamily,
    state: MultiplierState,
    N: int,
    S: int,
    dlam: int = 0,
    dppqq: int = 0,
) -> float:
    """Truncated entropy-density potential at a hatted state.

    ``dlam``/``dppqq`` apply analytic derivatives in the scalar multiplier
    directions to every coefficient (used for moment recovery).
    """
    return _eval_potential(f, state, N, S, False, dlam, dppqq)


def eval_phi_hat(
    f: GeneratingFamily,
    state: MultiplierState,
    N: int,
    S: int,
    dlam: int = 0,
    dppqq: int = 0,
) -> np.ndarray:
    """Truncated entropy-flux potential (3-vector) at a hatted state."""
    return _eval_potential(f, state, N, S, True, dlam, dppqq)


# --- Galilean transformations -----------------------------------------------


def hat_multipliers(lab: MultiplierState, v: BoostVelocity) -> MultiplierState:
    """Transformation of the main field to the frame moving with velocity v."""
    if lab.frame != LAB:
        raise ValueError("hat_multipliers expects a lab-frame state")
    u = v.v
    u2 = float(u @ u)
    L = lab.lam_ij.as_array()
    li, lill, lpp = lab.lam_i, lab.lam_ill, lab.lam_iill
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
    return MultiplierState(
        frame=HATTED,
        lam=lam_hat,
        lam_i=lam_i_hat,
        lam_ij=lam_ij_hat,
        lam_ill=lam_ill_hat,
        lam_iill=lpp,
    )


def lab_potentials(
    f: GeneratingFamily,
    lab: MultiplierState,
    v: BoostVelocity,
    N: int,
    S: int,
) -> PotentialPair:
    """Lab-frame potentials via h' = h_hat', phi'^k = phi_hat'^k + h_hat' v^k."""
    hatted = hat_multipliers(lab, v)
    h = eval_h_hat(f, hatted, N, S)
    phi = eval_phi_hat(f, hatted, N, S) + h * v.v
    return PotentialPair(h=h, phi=phi, N=N, S=S)


def lab_moments_from_rest(rest: MomentSet, v: BoostVelocity) -> MomentSet:
    """Boost a rest-frame moment set to the lab frame (densities and fluxes)."""
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
    return MomentSet(
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
    )


# --- moment recovery ---------------------------------------------------------


def _grad_vector(fn, vec: np.ndarray) -> np.ndarray:
    out = np.zeros((3,) + np.shape(fn(vec)))
    for k in range(3):
        def g(x, k=k):
            w = vec.copy()
            w[k] = x
            return fn(w)

        out[k] = central_diff(g, float(vec[k]))
    return out


def _grad_symmatrix(fn, mat: SymMatrix) -> np.ndarray:
    """Gradient w.r.t. a symmetric matrix in the 9-component convention.

    Off-diagonal entries are perturbed jointly (keeping symmetry) and the
    result halved, matching d h = G_ij d lam_ij summed over all nine
    components with G symmetric.
    """
    a = mat.as_array()
    shape = np.shape(fn(mat))
    out = np.zeros((3, 3) + shape)
    for i in range(3):
        for j in range(i, 3):
            def g(x, i=i, j=j):
                w = a.copy()
                w[i, j] = x
                w[j, i] = x
                return fn(SymMatrix(w))

            d = central_diff(g, float(a[i, j]))
            if i == j:
                out[i, i] = d
            else:
                out[i, j] = out[j, i] = 0.5 * np.asarray(d)
    return out


def moments_from_potentials(
    f: GeneratingFamily, state: MultiplierState, N: int, S: int
) -> MomentSet:
    """Rest-frame moments and fluxes as gradients of the hatted potentials.

    Scalar directions (lam, lam_iill) are analytic through the coefficient
    series; vector and matrix directions use 4th-order central differences.
    """
    if state.frame != HATTED:
        raise ValueError("moments_from_potentials expects a hatted state")

    def h_at(**kw):
        return eval_h_hat(f, replace(state, **kw), N, S)

    def phi_at(**kw):
        return eval_phi_hat(f, replace(state, **kw), N, S)

    m = eval_h_hat(f, state, N, S, dlam=1)
    m_i = _grad_vector(lambda w: h_at(lam_i=w), state.lam_i)
    m_ij = _grad_symmatrix(lambda w: h_at(lam_ij=w), state.lam_ij)
    m_ill = _grad_vector(lambda w: h_at(lam_ill=w), state.lam_ill)
    m_iill = eval_h_hat(f, state, N, S, dppqq=1)

    f_k = eval_phi_hat(f, state, N, S, dlam=1)
    f_ki = np.transpose(_grad_vector(lambda w: phi_at(lam_i=w), state.lam_i))
    # _grad_symmatrix returns [i, j, k]; store as [k, i, j]
    f_kij = np.transpose(
        _grad_symmatrix(lambda w: phi_at(lam_ij=w), state.lam_ij), (2, 0, 1)
    )
    f_kill = np.transpose(_grad_vector(lambda w: phi_at(lam_ill=w), state.lam_ill))
    f_kiill = eval_phi_hat(f, state, N, S, dppqq=1)

    return MomentSet(
        frame="rest",
        m=m,
        m_i=m_i,
        m_ij=m_ij,
        m_ill=m_ill,
        m_iill=m_iill,
        f_k=f_k,
        f_ki=f_ki,
        f_kij=f_kij,
        f_kill=f_kill,
        f_kiill=f_kiill,
    )
