"""Exact reference implementations that the tests compare the package against.

Symmetrized Kronecker-delta products with exact rational entries, built by
counting pairings and by averaging over every index permutation, their
contraction by a sweep over all 3^rank index tuples, and the by-parts
identity of the kinetic radial moments.  They are slow and stay out of the
package, whose routes are ``symtensor.delta_contract``, the sphere-rule
potentials and ``kinetic._radial_moment``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from closure14.errors import ParityError
from closure14.kinetic import _radial_moment
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


def f1_by_parts_check(kernel, point) -> float:
    """Residual of 0 = 3 int F c^2 + (2/3) l_ll int F' c^4 + 4 l_ppqq int F' c^6."""
    terms = [
        3.0 * _radial_moment(kernel, 0, 2, point),
        (2.0 / 3.0) * point.lam_ll * _radial_moment(kernel, 1, 4, point),
        4.0 * point.lam_ppqq * _radial_moment(kernel, 1, 6, point),
    ]
    scale = max(abs(t) for t in terms)
    return abs(sum(terms)) / max(scale, 1e-30)
