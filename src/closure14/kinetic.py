"""Kinetic-approach particular solution by semi-infinite quadrature.

Serves as the independent oracle for the coefficient engine: the same
scalars are obtained as velocity-space integrals of a decaying kernel F,

    ktilde_s(l)     = 4 pi int_0^inf F^(s)(l + e^2/3) e^(4s+2) de
    k_{p,q}(point)  = 4 pi/(p+q+1) int F^(p+q)(arg) c^(p+3q+2) dc   (p+q even)
                      4 pi/(p+q+2) int F^(p+q)(arg) c^(p+3q+3) dc   (p+q odd)

with arg = l + l_ll c^2/3 + l_ppqq c^4.

Every scalar is one radial moment int F^(n)(arg) c^k dc, built by
``_radial_moment``; ktilde_s is the moment at l_ll = 1, and k_s the one at
l_ppqq = 0.

Each integral is cut at a radius R found by a scalar search: R grows by 1.5x
from ``_CUTOFF_START`` until |g(R)| R is negligible, and past ``_CUTOFF_MAX``
the kernel is taken not to decay.  So the one precondition on F is that
F^(n) decays along the point's own ray past the cutoff, which the search
checks at its ladder radii; an infinite or NaN tail only grows R.  On [0, R]
a composite Gauss-Legendre rule (Golub & Welsch 1969), 4 panels of 64 nodes,
gives the value; a 4 x 32 rule on the same panels, evaluated in the same
array call, gives the error estimate |full - half|, which must be within
10 ``_REL_TOL`` int |g|.  That magnitude is at least |full| up to
rounding, so it is computed only for an error past 10 ``_REL_TOL`` |full|
(1 - 1e-12); a smaller error passes as it would against the magnitude.

The quadratures of one point share their kernel values.  The argument
depends on the point alone, so the kernel keeps a one-point value table laid
out by what each value depends on: the node arguments under the cutoff R,
which every order reads; per order n, the scalar probes F^(n)(arg(c)) as
Python floats under c; and the node arrays F^(n)(arg) under (n, R), which
every moment of order n at that point reuses, whatever its power of c.
``KineticKernel`` states the table's rules.  The cutoff search runs on
Python floats and the rule sums are read back as floats, with the float
operations of the per-call route in the same order.  The cutoff R is always
on the ladder, so the node powers (R c_i)^k come from a bounded table per
(R, k).  A scalar whose 4 pi prefactor overflows raises ``DomainError``, and
a negative or non-integer index ``ValueError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import coeffs
from .coeffs import GeneratingFamily, _ladder_gate, EquilibriumPoint, check_index
from .errors import AccuracyError, DecayError, DomainError

_FOUR_PI = 4.0 * math.pi
_PANELS = 4
_ORDER = 64  # nodes per panel of the full rule; the error estimate uses half as many
_REL_TOL = 1e-11
_CUTOFF_START = 8.0
_CUTOFF_MAX = 1e4


@dataclass(frozen=True, eq=False)
class KineticKernel:
    """Single-variable kernel F with derivative oracle F^(n).

    ``deriv(n, x)`` must accept a float or a numpy array x and return F^(n)
    elementwise, as numpy ufuncs do: the quadrature evaluates all its nodes
    in one call.

    ``values_at`` keeps the node arguments and kernel values of the most
    recent point, the one memo of a kernel, so ``deriv`` must be a pure
    function; it is handed the read-only argument array of its cutoff R,
    which every order shares, and its scalar values are stored as Python
    floats.  A ``deriv`` call that raises stores nothing, so it raises on
    every call.  Values that are not finite are stored; each use checks them
    again, so a quadrature that raised raises on every call.
    ``dataclasses.replace`` starts with an empty table.
    """

    deriv: object  # callable (n, x) -> float or array
    name: str = "custom"
    params: dict = field(default_factory=dict)
    # {(lam, lam_ll, quartic): (args, probes, nodes)}: a cache, not part of the kernel's value
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, x: float) -> float:
        return self.deriv(0, x)

    def values_at(self, point: EquilibriumPoint) -> tuple:
        """The value table at point; a new point replaces the old with an empty table.

        With arg(c) = lam + lam_ll c^2/3 + lam_ppqq c^4, ``args`` maps R to
        the read-only array of arg at the nodes on [0, R], which every order
        shares; ``probes`` maps n to a dict {c: F^(n)(arg(c))} of Python
        floats at scalar radii c; and ``nodes`` maps (n, R) to the read-only
        array of F^(n)(arg) at the nodes on [0, R].
        """
        key = (point.lam, point.lam_ll, point.lam_ppqq)
        table = self._values.get(key)
        if table is None:  # a new point: forget the previous one
            self._values.clear()
            table = self._values[key] = ({}, {}, {})
        return table


def kernel_for(kind, params: dict | None = None) -> KineticKernel | None:
    """Kernel F of a ``coeffs.BUILTIN_KERNELS`` kind or alias; None for other kinds."""
    entry = coeffs.builtin_kernel(kind)
    if entry is None:
        return None
    values = entry.resolve(params or {})
    return KineticKernel(entry.build(**values)[0], name=entry.name, params=values)


def exponential_kernel(**params) -> KineticKernel:
    """Kernel of ``coeffs.EXPONENTIAL``, F(x) = amplitude exp(-scale x)."""
    return kernel_for(coeffs.EXPONENTIAL.name, params)


def poly_exponential_kernel(**params) -> KineticKernel:
    """Kernel of ``coeffs.POLY_EXPONENTIAL``, F(x) = amplitude x exp(-x)."""
    return kernel_for(coeffs.POLY_EXPONENTIAL.name, params)


@functools.cache
def _panel_rule():
    """Nodes on [0, 1] of the full rule, then of the half-order rule, and their weights.

    Row 0 of the weights is the full rule and row 1 the half-order one; each
    row is zero on the other rule's nodes.
    """
    panel = np.arange(_PANELS)[:, None]  # panel j covers [j, j + 1] / _PANELS
    nodes, rows = [], []
    for order in (_ORDER, _ORDER // 2):
        x, w = np.polynomial.legendre.leggauss(order)
        nodes.append(((panel + (x + 1) / 2) / _PANELS).ravel())
        rows.append(np.tile(w / (2 * _PANELS), _PANELS))
    weights = np.zeros((2, nodes[0].size + nodes[1].size))
    weights[0, : nodes[0].size] = rows[0]
    weights[1, nodes[0].size :] = rows[1]
    return np.concatenate(nodes), weights


# R is one of the 18 ladder cutoffs _CUTOFF_START * 1.5^k <= _CUTOFF_MAX, so
# few keys recur; 256 tables of 384 nodes take at most 0.8 MB
@functools.lru_cache(maxsize=256)
def _node_powers(R: float, power: int) -> np.ndarray:
    """(R x_i)**power at the nodes x_i of ``_panel_rule``, read-only.

    Power 1 gives the nodes on [0, R] themselves.
    """
    table = (R * _panel_rule()[0]) ** power
    table.flags.writeable = False
    return table


_NOT_FINITE = "kinetic integrand is not finite: the kernel overflows on the ray"


def _radial_moment(kernel: KineticKernel, n: int, power: int, point: EquilibriumPoint) -> float:
    """int_0^inf F^(n)(l + l_ll c^2/3 + l_ppqq c^4) c^power dc, the one kinetic integrand.

    The integrand g is cut at the first ladder radius R where |g(R)| R is
    negligible, so F^(n) must decay along the point's own ray: this search,
    at its ladder radii, is the one decay guard of an integral.  F^(n) comes
    from the kernel's value table at the point (``KineticKernel.values_at``);
    only a miss calls ``deriv``.  A non-finite g at c = 1, at c = 4 or at a
    node raises ``DomainError``; a tail still too large, infinite or NaN past
    ``_CUTOFF_MAX`` ``DecayError``; and an error estimate above tolerance
    ``AccuracyError``.
    """
    lam, lam_ll, quartic = point.lam, point.lam_ll, point.lam_ppqq
    args, probes, nodes = kernel.values_at(point)
    values = probes.get(n)
    if values is None:
        values = probes[n] = {}

    def probe(c: float) -> float:
        """|g(c)| at a scalar radius c, in Python floats."""
        f = values.get(c)
        if f is None:
            arg = lam + lam_ll * c * c / 3.0
            if quartic:  # adding 0.0 c^4 would change no bit, only cost a pow per node
                arg += quartic * c**4
            f = values[c] = float(kernel.deriv(n, arg))
        try:
            return abs(f * c**power)
        except OverflowError:  # c**power past the float range: an infinite tail
            return math.inf

    with np.errstate(over="ignore", invalid="ignore"):
        R = _CUTOFF_START
        near = probe(1.0), probe(R / 2)
        if not (math.isfinite(near[0]) and math.isfinite(near[1])):
            raise DomainError(_NOT_FINITE)
        ref = max(*near, 1e-300)
        while not probe(R) * R <= _REL_TOL * ref * 1e-3:  # an inf or NaN tail grows R
            R *= 1.5
            if R > _CUTOFF_MAX:
                raise DecayError("integrand tail does not fall below tolerance before cutoff")
        f = nodes.get((n, R))
        if f is None:
            arg = args.get(R)
            if arg is None:
                c = _node_powers(R, 1)
                arg = lam + lam_ll * c * c / 3.0
                if quartic:
                    arg += quartic * _node_powers(R, 4)
                arg.flags.writeable = False
                args[R] = arg
            f = np.asarray(kernel.deriv(n, arg)).view()  # a view, so the kernel's array stays writable
            f.flags.writeable = False
            nodes[n, R] = f
        y = f * _node_powers(R, power)
        weights = _panel_rule()[1]
        # ndarray.dot makes the same BLAS calls as @, with less dispatch
        full, half = weights.dot(y).tolist()
        full, half = R * full, R * half
        # every node has a nonzero weight in one of the two rules
        if not (math.isfinite(full) and math.isfinite(half)):
            raise DomainError(_NOT_FINITE)
        err = abs(full - half)
        # the magnitude R int|g| is at least |full| less its rounding, n u ~ 4e-14 of
        # it, so an error within this bound passes the test against it: skip the sum
        if (err > 10 * _REL_TOL * abs(full) * (1 - 1e-12)
                and err > 10 * _REL_TOL * (R * float(weights[0].dot(abs(y))))):
            raise AccuracyError(
                f"quadrature error {err:.3e} exceeds tolerance for value {full:.6e}"
            )
    return full


def _kinetic_scalar(kernel: KineticKernel, n: int, power: int, point: EquilibriumPoint,
                    divisor: int, name: str, *args) -> float:
    """(4 pi / divisor) times ``_radial_moment``; ``DomainError`` if the product is not finite.

    The quadrature is finite, its 4 pi multiple need not be.  The error names
    the scalar by name, a ``str.format`` template filled from args only on a raise.
    """
    value = (_FOUR_PI / divisor) * _radial_moment(kernel, n, power, point)
    if not math.isfinite(value):
        raise DomainError(f"kinetic {name.format(*args)} is not finite")
    return value


def kinetic_ktilde(kernel: KineticKernel, s: int, lam: float, deriv_order: int = 0) -> float:
    """Member ktilde_s(lam) (optionally its lam-derivative) by quadrature."""
    if not (type(s) is int and type(deriv_order) is int  # other integer types take the long way
            and s >= 0 and deriv_order >= 0):
        check_index("s", s)
        check_index("deriv_order", deriv_order)
    return _kinetic_scalar(kernel, s + deriv_order, 4 * s + 2, EquilibriumPoint(lam, 1.0), 1,
                           "ktilde_{} derivative {} at lambda={}", s, deriv_order, lam)


def kinetic_kpq(kernel: KineticKernel, p: int, q: int, point: EquilibriumPoint) -> float:
    """Matrix element k_{p,q} as a velocity-space integral."""
    if not (type(p) is int and type(q) is int and p >= 0 and q >= 0):  # as in kinetic_ktilde
        check_index("p", p)
        check_index("q", q)
    n = p + q
    odd = n % 2
    return _kinetic_scalar(kernel, n, p + 3 * q + 2 + odd, point, n + 1 + odd,
                           "k_{},{} at {}", p, q, point)


def kinetic_series_coefficient(kernel: KineticKernel, s: int, lam: float, lam_ll: float) -> float:
    """Series coefficient k_s = 4 pi int F^(s)(l + l_ll c^2/3) c^(4s+2) dc."""
    if not (type(s) is int and s >= 0):  # as in kinetic_ktilde
        check_index("s", s)
    point = EquilibriumPoint(lam, lam_ll)
    return _kinetic_scalar(kernel, s, 4 * s + 2, point, 1, "k_{} at {}", s, point)


def make_kinetic_family(
    kernel: KineticKernel, s_max: int = coeffs.DEFAULT_S_MAX
) -> GeneratingFamily:
    """Generating family whose members are quadratures of the kernel.

    The derivative oracle differentiates under the integral via F^(n).
    The family must pass the ladder-residual construction gate.
    """
    def deriv(s, n, lam):
        return kinetic_ktilde(kernel, s, lam, deriv_order=n)

    fam = GeneratingFamily(
        kind="kinetic",
        deriv=deriv,
        s_max=s_max,
        params={"kernel": kernel.name, **kernel.params},
    )
    return _ladder_gate(fam)

