"""Symmetric 3x3 matrices and contractions of symmetrized delta products.

The symmetrized product Delta(2n) of n Kronecker deltas obeys the isotropic
identity Delta(2n) = (2n+1) <n^(2n)>, an average over the unit sphere.  So
``delta_contract`` contracts it against vectors and symmetric matrices on
a unit-sphere rule (``_sphere_rule``) exact at the tensor's rank.  The
potentials apply the same identity to all their terms at once on
``_sphere_rule`` nodes and do not call ``delta_contract``; it stays public,
and the tests compare it with an exact rational contraction.
"""

from __future__ import annotations

import functools

import numpy as np

DIM = 3


class SymMatrix:
    """Symmetric 3x3 matrix; symmetry is structural."""

    __slots__ = ("_a",)

    def __init__(self, array):
        a = np.asarray(array, dtype=float)
        if a.shape != (DIM, DIM):
            raise ValueError("SymMatrix needs a 3x3 array")
        # halving first is exact for normal floats and cannot overflow
        half = 0.5 * a
        self._a = half + half.T
        self._a.setflags(write=False)

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

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and np.array_equal(self._a, other._a)

    def __repr__(self):
        return f"SymMatrix({self._a.tolist()})"


def deviator(m: SymMatrix) -> SymMatrix:
    """Traceless part m - (1/3) tr(m) I."""
    return SymMatrix(m.as_array() - (m.trace() / DIM) * np.eye(DIM))


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
    """Contraction of a symmetrized delta product against vectors/symmetric matrices.

    Uses the isotropic identity Delta(2n) = (2n+1) <n^(2n)>, the
    average of the 2n-fold outer product of the unit normal over the
    sphere: the contraction is (2n+1) <prod (n.v) prod (n.M.n)>, taken on
    a rule exact at degree 2n.  With ``free=True`` one more index stays
    open and the average carries a factor n, giving a 3-vector.  Equal to
    the exact contraction by a sweep over all 3^rank index tuples, to
    rounding.
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
