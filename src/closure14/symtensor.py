"""Symmetric tensor algebra over 3-space with exact combinatorics.

Fully symmetric tensors are stored by sorted index multiset, so symmetry
holds by construction.  Symmetrized Kronecker-delta products are built
with exact rational entries and contracted exactly by an index sweep; the
fast contraction ``delta_contract`` instead averages over a unit-sphere
rule exact at the tensor's rank, through the isotropic identity
sym_delta(2n) = (2n+1) <n^(2n)>.  The potentials apply the same identity
to all their terms at once on ``_sphere_rule`` nodes and do not call
``delta_contract``; it stays public, and the tests compare it with the
exact contraction.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ArityError, ParityError

DIM = 3
MAX_DELTA_RANK = 12

_vector_basis = [np.eye(DIM)[k] for k in range(DIM)]


def _double_factorial(n: int) -> int:
    if n <= 0:
        return 1
    return math.prod(range(n, 0, -2))


@dataclass(frozen=True)
class SymTensor:
    """Fully symmetric rank-n tensor over 3-space, multiset indexed.

    ``values`` maps sorted index tuples (entries in 0..2) to reals; a rank-0
    tensor holds the single entry keyed by the empty tuple.
    """

    rank: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        expected = math.comb(self.rank + DIM - 1, DIM - 1)
        if len(self.values) != expected:
            raise ValueError(
                f"rank-{self.rank} tensor needs {expected} entries, got {len(self.values)}"
            )

    def __getitem__(self, idx):
        if self.rank == 0:
            return self.values[()]
        if isinstance(idx, int):
            idx = (idx,)
        return self.values[tuple(sorted(idx))]

    @classmethod
    def from_function(cls, rank: int, fn) -> "SymTensor":
        vals = {
            key: fn(key)
            for key in itertools.combinations_with_replacement(range(DIM), rank)
        }
        return cls(rank, vals)


class SymMatrix:
    """Symmetric 3x3 matrix; symmetry is structural."""

    __slots__ = ("_a",)

    def __init__(self, array):
        a = np.asarray(array, dtype=float)
        if a.shape != (DIM, DIM):
            raise ValueError("SymMatrix needs a 3x3 array")
        self._a = 0.5 * (a + a.T)
        self._a.setflags(write=False)

    @classmethod
    def diag(cls, d1, d2, d3) -> "SymMatrix":
        return cls(np.diag([d1, d2, d3]))

    @classmethod
    def zero(cls) -> "SymMatrix":
        return cls(np.zeros((DIM, DIM)))

    @classmethod
    def identity(cls) -> "SymMatrix":
        return cls(np.eye(DIM))

    def as_array(self) -> np.ndarray:
        return self._a

    def __getitem__(self, ij):
        return self._a[ij]

    def trace(self) -> float:
        return float(np.trace(self._a))

    def norm(self) -> float:
        return float(np.linalg.norm(self._a))

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self._a + other._a)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self._a - other._a)

    def __mul__(self, c: float) -> "SymMatrix":
        return SymMatrix(self._a * c)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and np.array_equal(self._a, other._a)

    def __repr__(self):
        return f"SymMatrix({self._a.tolist()})"


def deviator(m: SymMatrix) -> SymMatrix:
    """Traceless part m - (1/3) tr(m) I."""
    return SymMatrix(m.as_array() - (m.trace() / DIM) * np.eye(DIM))


# --- symmetrized delta products ------------------------------------------

_delta_lock = threading.Lock()
_delta_cache: dict[int, SymTensor] = {}


def sym_delta(rank: int) -> SymTensor:
    """Symmetrized product of rank/2 Kronecker deltas.

    Entries are exact rationals: for an index multiset the value is the
    number of perfect matchings pairing equal indices, divided by
    (rank-1)!! (the number of distinct delta pairings).
    """
    if rank < 0 or rank % 2:
        raise ParityError(f"sym_delta requires an even non-negative rank, got {rank}")
    if rank > MAX_DELTA_RANK:
        raise ValueError(f"rank {rank} exceeds configured maximum {MAX_DELTA_RANK}")
    with _delta_lock:
        cached = _delta_cache.get(rank)
    if cached is not None:
        return cached

    total = _double_factorial(rank - 1)

    def entry(key):
        counts = [key.count(i) for i in range(DIM)]
        if any(c % 2 for c in counts):
            return Fraction(0)
        matchings = math.prod(_double_factorial(c - 1) for c in counts)
        return Fraction(matchings, total)

    t = SymTensor.from_function(rank, entry)
    with _delta_lock:
        _delta_cache.setdefault(rank, t)
        return _delta_cache[rank]


def sym_delta_bruteforce(rank: int) -> SymTensor:
    """Oracle: average of delta products over all index permutations."""
    if rank % 2:
        raise ParityError("odd rank")

    def entry(key):
        total = Fraction(0)
        for perm in itertools.permutations(key):
            prod = 1
            for i in range(0, rank, 2):
                if perm[i] != perm[i + 1]:
                    prod = 0
                    break
            total += prod
        return total / math.factorial(rank)

    return SymTensor.from_function(rank, entry)


# --- contraction ----------------------------------------------------------


def _slot_width(slot) -> int:
    if isinstance(slot, SymMatrix):
        return 2
    arr = np.asarray(slot, dtype=float)
    if arr.shape == (DIM,):
        return 1
    raise ArityError(f"slot must be a 3-vector or SymMatrix, got shape {arr.shape}")


def contract(t: SymTensor, slots, free_indices: int = 0):
    """Contract a symmetric tensor against vectors and symmetric matrices.

    Matrices consume two adjacent indices.  With ``free_indices=1`` the
    first index of ``t`` stays open and a 3-vector is returned.
    """
    if free_indices not in (0, 1):
        raise ArityError("free_indices must be 0 or 1")
    widths = [_slot_width(s) for s in slots]
    if sum(widths) + free_indices != t.rank:
        raise ArityError(
            f"slots cover {sum(widths)} indices (+{free_indices} free) "
            f"but tensor has rank {t.rank}"
        )
    if free_indices:
        return np.array([contract(t, [_vector_basis[k], *slots]) for k in range(DIM)])

    arrays = [
        s.as_array() if isinstance(s, SymMatrix) else np.asarray(s, dtype=float)
        for s in slots
    ]
    total = 0.0
    for idx in itertools.product(range(DIM), repeat=t.rank):
        tv = t.values[tuple(sorted(idx))]
        if tv == 0:
            continue
        prod = float(tv)
        pos = 0
        for arr, w in zip(arrays, widths):
            if w == 1:
                prod *= arr[idx[pos]]
            else:
                prod *= arr[idx[pos], idx[pos + 1]]
            pos += w
        total += prod
    return total


@functools.cache
def _sphere_rule(degree: int):
    """Unit-sphere nodes and weights (summing to 1) exact up to ``degree``.

    Gauss-Legendre in cos(theta) with degree//2 + 1 nodes is exact to
    degree + 1; degree + 1 equally spaced azimuths integrate every
    trigonometric polynomial up to ``degree`` exactly.
    """
    cos_t, w_t = np.polynomial.legendre.leggauss(degree // 2 + 1)
    sin_t = np.sqrt(1.0 - cos_t**2)
    azim = 2.0 * np.pi * np.arange(degree + 1) / (degree + 1)
    nodes = np.stack(
        [
            np.outer(sin_t, np.cos(azim)).ravel(),
            np.outer(sin_t, np.sin(azim)).ravel(),
            np.repeat(cos_t, degree + 1),
        ],
        axis=1,
    )
    weights = np.repeat(w_t / (2.0 * (degree + 1)), degree + 1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def delta_contract(vectors, matrices, free: bool = False):
    """Fast contraction of sym_delta against vectors/symmetric matrices.

    Uses the isotropic identity sym_delta(2n) = (2n+1) <n^(2n)>, the
    average of the 2n-fold outer product of the unit normal over the
    sphere: the contraction is (2n+1) <prod (n.v) prod (n.M.n)>, taken on
    a rule exact at degree 2n.  With ``free=True`` one more index stays
    open and the average carries a factor n, giving a 3-vector.
    Equivalent to ``contract(sym_delta(rank), slots)`` to rounding, but
    avoiding the 3^rank index sweep.
    """
    mats = [m.as_array() if isinstance(m, SymMatrix) else np.asarray(m, dtype=float) for m in matrices]
    rank = len(vectors) + 2 * len(mats) + (1 if free else 0)
    if rank % 2:
        return np.zeros(DIM) if free else 0.0
    if rank == 0:
        return 1.0
    nodes, weights = _sphere_rule(rank)
    w = (rank + 1) * weights
    if vectors:
        w = w * np.prod(nodes @ np.asarray(vectors, dtype=float).T, axis=1)
    if mats:
        w = w * np.prod(np.einsum("ni,mij,nj->nm", nodes, np.asarray(mats), nodes), axis=1)
    return w @ nodes if free else float(w.sum())
