"""Exact reference implementations that the tests compare the package against.

Symmetrized Kronecker-delta products with exact rational entries, built by
counting pairings and by averaging over every index permutation, their
contraction by a sweep over all 3^rank index tuples, the node field of a
coefficient grid by one unstaged einsum, the kinetic radial moment with its
kernel values and node powers redone on every call, the by-parts identity
of the kinetic radial moments, a series as the sum of every term of its
plan, and every coefficient cell built by single steps from k00, along any
order of them.  They are slow or general and stay
out of the package, whose routes are ``symtensor.delta_contract``, the
sphere-rule potentials with their staged ``potentials._field``,
``kinetic._radial_moment`` and ``coeffs.tensor_series`` with its closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from closure14.coeffs import CoeffSeries, _Term
from closure14.errors import AccuracyError, DecayError, DomainError, ParityError
from closure14.kinetic import _CUTOFF_MAX, _CUTOFF_START, _REL_TOL, _panel_rule, _radial_moment
from closure14.symtensor import DIM, SymMatrix


def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


@dataclass(frozen=True)
class SymTensor:
    """Fully symmetric rank-n tensor over 3-space.

    ``values`` maps sorted index tuples (entries in 0..2) to exact entries; a
    rank-0 tensor holds the single entry keyed by the empty tuple.
    """

    rank: int
    values: dict

    def __getitem__(self, idx):
        return self.values[tuple(sorted(idx))]

    @classmethod
    def from_function(cls, rank: int, fn) -> "SymTensor":
        keys = itertools.combinations_with_replacement(range(DIM), rank)
        return cls(rank, {key: fn(key) for key in keys})


def sym_delta(rank: int) -> SymTensor:
    """Symmetrized product of rank/2 Kronecker deltas.

    For an index multiset the entry is the number of perfect matchings
    pairing equal indices, divided by (rank-1)!!, the number of distinct
    delta pairings.
    """
    if rank < 0 or rank % 2:
        raise ParityError(f"sym_delta requires an even non-negative rank, got {rank}")
    total = _double_factorial(rank - 1)

    def entry(key):
        counts = [key.count(i) for i in range(DIM)]
        if any(c % 2 for c in counts):
            return Fraction(0)
        return Fraction(math.prod(_double_factorial(c - 1) for c in counts), total)

    return SymTensor.from_function(rank, entry)


def sym_delta_bruteforce(rank: int) -> SymTensor:
    """Average of delta products over all index permutations."""
    if rank % 2:
        raise ParityError("odd rank")

    def entry(key):
        paired = sum(
            all(perm[i] == perm[i + 1] for i in range(0, rank, 2))
            for perm in itertools.permutations(key)
        )
        return Fraction(paired, math.factorial(rank))

    return SymTensor.from_function(rank, entry)


def contract(t: SymTensor, slots, free_indices: int = 0):
    """Contract ``t`` against 3-vectors and ``SymMatrix`` slots, index by index.

    A matrix takes two adjacent indices.  With ``free_indices=1`` the first
    index of ``t`` stays open and a 3-vector is returned.
    """
    if free_indices:
        return np.array([contract(t, [np.eye(DIM)[k], *slots]) for k in range(DIM)])
    arrays = [s.as_array() if isinstance(s, SymMatrix) else np.asarray(s, dtype=float)
              for s in slots]
    total = 0.0
    for idx in itertools.product(range(DIM), repeat=t.rank):
        entry = t[idx]
        if entry == 0:
            continue
        prod, pos = float(entry), 0
        for arr in arrays:
            prod *= arr[idx[pos:pos + arr.ndim]]
            pos += arr.ndim
        total += prod
    return total


def field_einsum(grid: np.ndarray, powers, shift=(0, 0, 0)) -> np.ndarray:
    """Sum of grid[..., p, q, r] a^p b^q c^r / (p! q! r!) at every node, in one einsum.

    ``powers`` are the rows x^k / k! of the three node projections; a shift
    of one in a slot drops the slot's first cell and its table's last row.
    """
    (sa, sb, sc), (A, B, C) = shift, powers
    trimmed = (A[: len(A) - sa], B[: len(B) - sb], C[: len(C) - sc])
    return np.einsum("...pqr,pn,qn,rn->...n", grid[..., sa:, sb:, sc:], *trimmed)


def radial_moment_per_call(kernel, n: int, power: int, point) -> float:
    """int_0^inf F^(n)(l + l_ll c^2/3 + l_ppqq c^4) c^power dc, all work redone per call.

    The route of ``kinetic._radial_moment`` without its tables: every kernel
    value is computed again on every call, and every node power is one array
    ``**`` of the nodes on [0, R].  The cutoff search, the rules and the float
    operations are the same, so the two must agree to the bit.  The error
    test always computes the magnitude R int|g|.
    """
    full, half, magnitude = radial_rule_parts(kernel, n, power, point)
    if abs(full - half) > 10 * _REL_TOL * magnitude:
        raise AccuracyError(f"quadrature error {abs(full - half):.3e} exceeds tolerance")
    return full


def radial_rule_parts(kernel, n: int, power: int, point) -> tuple:
    """(full, half, magnitude) of ``radial_moment_per_call`` before its error test.

    full and half are the two rules' values and magnitude = R int|g| by the
    full rule; a non-finite rule value or tail raises as there.
    """
    def g(c):
        arg = point.lam + point.lam_ll * c * c / 3.0
        if point.lam_ppqq:
            arg += point.lam_ppqq * c**4
        return kernel.deriv(n, arg) * c**power

    def finite(v):
        if not math.isfinite(v):
            raise DomainError("kinetic integrand is not finite")
        return v

    with np.errstate(over="ignore", invalid="ignore"):
        R = _CUTOFF_START
        ref = max(abs(finite(g(1.0))), abs(finite(g(R / 2))), 1e-300)
        while not abs(g(R)) * R <= _REL_TOL * ref * 1e-3:  # an inf or NaN tail grows R
            R *= 1.5
            if R > _CUTOFF_MAX:
                raise DecayError("integrand tail does not fall below tolerance before cutoff")
        nodes, weights = _panel_rule()
        y = g(R * nodes)
        full, half = R * (weights @ y)
        magnitude = R * (weights[0] @ np.abs(y))
    return float(finite(full)), float(finite(half)), float(magnitude)


def full_plan_sum(series: CoeffSeries, f, point) -> float:
    """The series at point as the sum of every term of its ``plan``, in plan order.

    Each member comes from the family's raw ``deriv``, and every term is
    multiplied by l_ppqq**m, so at l_ppqq = 0 the terms with m > 0 add
    zeros; ``CoeffSeries.__call__`` skips them there and must agree to the bit.
    """
    total = 0.0
    for coef, (s, dl), ll_exp, m in series.plan:
        total += coef * f.deriv(s, dl, point.lam) * point.lam_ll ** ll_exp * point.lam_ppqq ** m
    return total


def f1_by_parts_check(kernel, point) -> float:
    """Residual of 0 = 3 int F c^2 + (2/3) l_ll int F' c^4 + 4 l_ppqq int F' c^6."""
    terms = [
        3.0 * _radial_moment(kernel, 0, 2, point),
        (2.0 / 3.0) * point.lam_ll * _radial_moment(kernel, 1, 4, point),
        4.0 * point.lam_ppqq * _radial_moment(kernel, 1, 6, point),
    ]
    scale = max(abs(t) for t in terms)
    return abs(sum(terms)) / max(scale, 1e-30)


def k00_from_definition(S: int) -> CoeffSeries:
    """k00 = sum_s l_ll**(-(3+4s)/2) ktilde_s(l) l_ppqq**s / s!, as a new series.

    It is built from its definition, not from the closed form of the
    package's shared table, and has no key, so ``derivative`` rejects it;
    the steps build every term by their own rules.
    """
    return CoeffSeries(_Term(Fraction(1, math.factorial(s)), s, 0, Fraction(-(3 + 4 * s), 2), s)
                       for s in range(S + 1))


def _step(series: CoeffSeries, n: int, move: str) -> CoeffSeries:
    """One row ('r', p -> p+1) or column ('c', q -> q+1) step; n is p+q before it."""
    if move == "r":
        if n % 2:
            return series.d_lam()
        return series.d_ll().scaled(Fraction(3 * (n + 1), n + 3))
    if n % 2:
        return series.d_ll().scaled(3)
    return series.d_ppqq().scaled(Fraction(n + 1, n + 3))


def k_series_along(p: int, q: int, S: int, path: str) -> CoeffSeries:
    """k_{p,q} from k00 along path, a string over 'c' (column, q+1) and 'r' (row, p+1).

    The step at each move is forced by the current p+q parity, as in
    ``step_series``, which walks "c" * q + "r" * p.
    """
    if path.count("r") != p or path.count("c") != q or len(path) != p + q:
        raise ValueError(f"path {path!r} does not reach (p={p}, q={q})")
    series = k00_from_definition(S)
    for n, move in enumerate(path):  # n is p+q before the move
        series = _step(series, n, move)
    return series


@functools.cache
def step_series(p: int, q: int, r: int, S: int) -> CoeffSeries:
    """The (p, q, r) cell by single steps from k00: q columns, then p rows, then r.

    Each r > 0 is one step 3 (m-1)/(m+1) d/dl_ll from r-1, m = p+q+2r+(p+q)%2.
    This is the chain that ``coeffs.tensor_series`` sums up in its closed form;
    the cells share their chains through the cache, and a step that runs out
    of lambda_ppqq orders raises ``TruncationError`` as ``d_ppqq`` does.
    """
    if r:
        m = p + q + 2 * r + (p + q) % 2
        return step_series(p, q, r - 1, S).d_ll().scaled(Fraction(3 * (m - 1), m + 1))
    if p:
        return _step(step_series(p - 1, q, 0, S), p - 1 + q, "r")
    if q:
        return _step(step_series(0, q - 1, 0, S), q - 1, "c")
    return k00_from_definition(S)
