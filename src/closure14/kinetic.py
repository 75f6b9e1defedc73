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
the kernel is taken not to decay.  On [0, R] a composite Gauss-Legendre rule
(Golub & Welsch 1969), 4 panels of 64 nodes, gives the value; a 4 x 32 rule
on the same panels, evaluated in the same array call, gives the error
estimate |full - half|, which must be within 10 ``_REL_TOL`` int |g|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import coeffs
from .coeffs import GeneratingFamily, _ladder_gate, EquilibriumPoint
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
    """

    deriv: object  # callable (n, x) -> float or array
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, x: float) -> float:
        return self.deriv(0, x)

    def check_decay(self, lam: float = 0.0, quartic: float = 0.0):
        """Verify F(x(c)) c^3 -> 0 along the evaluation ray."""
        tol = 1e-12
        probes = [20.0, 40.0, 80.0]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = [
                abs(self.deriv(0, lam + c * c / 3.0 + quartic * c**4)) * c**3
                for c in probes
            ]
        if not (vals[-1] <= tol and vals[-1] <= vals[0] + tol):
            raise DecayError(
                f"kernel tail F*c^3 = {vals[-1]:.3e} at c={probes[-1]} "
                f"does not vanish (boundary-term estimate)"
            )


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


def _finite(v: float) -> float:
    if not math.isfinite(v):
        raise DomainError("kinetic integrand is not finite: the kernel overflows on the ray")
    return v


def _semi_infinite_quad(g) -> float:
    """Integrate g on [0, inf) with an explicit exponential-tail cutoff.

    ``g`` takes a float or an array.  A non-finite integrand raises
    ``DomainError``, and an error estimate above tolerance ``AccuracyError``.
    """

    with np.errstate(over="ignore", invalid="ignore"):
        R = _CUTOFF_START
        ref = max(abs(_finite(g(1.0))), abs(_finite(g(R / 2))), 1e-300)
        while abs(_finite(g(R))) * R > _REL_TOL * ref * 1e-3:
            R *= 1.5
            if R > _CUTOFF_MAX:
                raise DecayError("integrand tail does not fall below tolerance before cutoff")
        nodes, weights = _panel_rule()
        y = g(R * nodes)
        full, half = R * (weights @ y)
        magnitude = R * (weights[0] @ np.abs(y))
    # every node has a nonzero weight in one of the two rules
    _finite(full)
    _finite(half)
    err = abs(full - half)
    if err > 10 * _REL_TOL * magnitude:
        raise AccuracyError(
            f"quadrature error {err:.3e} exceeds tolerance for value {full:.6e}"
        )
    return float(full)


def _radial_moment(kernel: KineticKernel, n: int, power: int, point: EquilibriumPoint) -> float:
    """int_0^inf F^(n)(l + l_ll c^2/3 + l_ppqq c^4) c^power dc, the one kinetic integrand."""
    point.require_domain()
    kernel.check_decay(lam=point.lam, quartic=point.lam_ppqq)

    def g(c):
        arg = point.lam + point.lam_ll * c * c / 3.0
        if point.lam_ppqq:  # adding 0.0 c^4 would change no bit, only cost a pow per node
            arg += point.lam_ppqq * c**4
        return kernel.deriv(n, arg) * c**power

    return _semi_infinite_quad(g)


def kinetic_ktilde(kernel: KineticKernel, s: int, lam: float, deriv_order: int = 0) -> float:
    """Member ktilde_s(lam) (optionally its lam-derivative) by quadrature."""
    point = EquilibriumPoint(lam, 1.0)
    return _FOUR_PI * _radial_moment(kernel, s + deriv_order, 4 * s + 2, point)


def kinetic_kpq(kernel: KineticKernel, p: int, q: int, point: EquilibriumPoint) -> float:
    """Matrix element k_{p,q} as a velocity-space integral."""
    n = p + q
    odd = n % 2
    return _FOUR_PI / (n + 1 + odd) * _radial_moment(kernel, n, p + 3 * q + 2 + odd, point)


def kinetic_series_coefficient(kernel: KineticKernel, s: int, lam: float, lam_ll: float) -> float:
    """Series coefficient k_s = 4 pi int F^(s)(l + l_ll c^2/3) c^(4s+2) dc."""
    return _FOUR_PI * _radial_moment(kernel, s, 4 * s + 2, EquilibriumPoint(lam, lam_ll))


def make_kinetic_family(kernel: KineticKernel, s_max: int = 6) -> GeneratingFamily:
    """Generating family whose members are quadratures of the kernel.

    The derivative oracle differentiates under the integral via F^(n).
    The family must pass the ladder-residual construction gate.
    """
    kernel.check_decay()

    def deriv(s, n, lam):
        return kinetic_ktilde(kernel, s, lam, deriv_order=n)

    fam = GeneratingFamily(
        kind="kinetic",
        deriv=deriv,
        s_max=s_max,
        params={"kernel": kernel.name, **kernel.params},
    )
    return _ladder_gate(fam)

