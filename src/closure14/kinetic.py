"""Kinetic-approach particular solution by semi-infinite quadrature.

Serves as the independent oracle for the coefficient engine: the same
scalars are obtained as velocity-space integrals of a decaying kernel F,

    ktilde_s(l)     = 4 pi int_0^inf F^(s)(l + e^2/3) e^(4s+2) de
    k_{p,q}(point)  = 4 pi/(p+q+1) int F^(p+q)(arg) c^(p+3q+2) dc   (p+q even)
                      4 pi/(p+q+2) int F^(p+q)(arg) c^(p+3q+3) dc   (p+q odd)

with arg = l + l_ll c^2/3 + l_ppqq c^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from . import coeffs
from .coeffs import GeneratingFamily, _ladder_gate, EquilibriumPoint
from .errors import AccuracyError, DecayError, DomainError

_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for semi-infinite quadrature of kernel integrands."""

    kind: str = "adaptive"  # adaptive | fixed-node
    rel_tol: float = 1e-11
    node_budget: int = 400
    cutoff_start: float = 8.0
    cutoff_max: float = 1e4

    def __post_init__(self):
        if not 0 < self.rel_tol <= 1e-4:
            raise ValueError(f"rel_tol must be in (0, 1e-4], got {self.rel_tol}")
        if self.kind not in ("adaptive", "fixed-node"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True, eq=False)
class KineticKernel:
    """Single-variable kernel F with derivative oracle F^(n)."""

    deriv: object  # callable (n, x) -> float
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, x: float) -> float:
        return self.deriv(0, x)

    def check_decay(self, lam: float = 0.0, quartic: float = 0.0, tol: float = 1e-12):
        """Verify F(x(c)) c^3 -> 0 along the evaluation ray."""
        probes = [20.0, 40.0, 80.0]
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


def _semi_infinite_quad(g, spec: QuadratureSpec) -> float:
    """Integrate g on [0, inf) with an explicit exponential-tail cutoff."""
    R = spec.cutoff_start
    ref = max(abs(g(1.0)), abs(g(R / 2)), 1e-300)
    while abs(g(R)) * R > spec.rel_tol * ref * 1e-3:
        R *= 1.5
        if R > spec.cutoff_max:
            raise DecayError("integrand tail does not fall below tolerance before cutoff")
    if spec.kind == "fixed-node":
        x, w = np.polynomial.legendre.leggauss(spec.node_budget)
        x = 0.5 * R * (x + 1.0)
        return float(0.5 * R * np.sum(w * np.array([g(t) for t in x])))
    val, err = integrate.quad(
        g, 0.0, R, epsabs=0.0, epsrel=spec.rel_tol, limit=max(spec.node_budget, 50)
    )
    if abs(val) > 0 and err > 10 * spec.rel_tol * abs(val) + 1e-300:
        raise AccuracyError(
            f"quadrature error {err:.3e} exceeds tolerance for value {val:.6e}"
        )
    return val


def kinetic_ktilde(
    kernel: KineticKernel,
    s: int,
    lam: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    deriv_order: int = 0,
) -> float:
    """Member ktilde_s(lam) (optionally its lam-derivative) by quadrature."""
    kernel.check_decay(lam=lam)
    n = s + deriv_order

    def g(e):
        return kernel.deriv(n, lam + e * e / 3.0) * e ** (4 * s + 2)

    return _FOUR_PI * _semi_infinite_quad(g, spec)


def kinetic_kpq(
    kernel: KineticKernel,
    p: int,
    q: int,
    point: EquilibriumPoint,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Matrix element k_{p,q} as a velocity-space integral."""
    point.require_domain()
    if point.lam_ppqq < 0:
        raise DomainError(
            "kinetic k_{p,q} requires lambda_ppqq >= 0 (integral diverges otherwise)"
        )
    kernel.check_decay(lam=point.lam, quartic=point.lam_ppqq)
    n = p + q
    if n % 2 == 0:
        power, divisor = p + 3 * q + 2, n + 1
    else:
        power, divisor = p + 3 * q + 3, n + 2

    def g(c):
        arg = point.lam + point.lam_ll * c * c / 3.0 + point.lam_ppqq * c**4
        return kernel.deriv(n, arg) * c**power

    return _FOUR_PI / divisor * _semi_infinite_quad(g, spec)


def kinetic_series_coefficient(
    kernel: KineticKernel,
    s: int,
    lam: float,
    lam_ll: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Series coefficient k_s = 4 pi int F^(s)(l + l_ll c^2/3) c^(4s+2) dc."""
    if not lam_ll > 0:
        raise DomainError(f"lambda_ll must be positive, got {lam_ll}")
    kernel.check_decay(lam=lam)

    def g(c):
        return kernel.deriv(s, lam + lam_ll * c * c / 3.0) * c ** (4 * s + 2)

    return _FOUR_PI * _semi_infinite_quad(g, spec)


def make_kinetic_family(
    kernel: KineticKernel,
    s_max: int = 6,
    spec: QuadratureSpec = DEFAULT_SPEC,
    n_max: int = 12,
) -> GeneratingFamily:
    """Generating family whose members are quadratures of the kernel.

    The derivative oracle differentiates under the integral via F^(n).
    The family must pass the ladder-residual construction gate.
    """
    kernel.check_decay()

    def deriv(s, n, lam):
        return kinetic_ktilde(kernel, s, lam, spec, deriv_order=n)

    fam = GeneratingFamily(
        kind="kinetic",
        deriv=deriv,
        s_max=s_max,
        n_max=n_max,
        params={"kernel": kernel.name, **kernel.params},
    )
    return _ladder_gate(fam)


def f1_by_parts_check(
    kernel: KineticKernel,
    point: EquilibriumPoint,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Residual of 0 = 3 int F c^2 + (2/3) l_ll int F' c^4 + 4 l_ppqq int F' c^6."""
    point.require_domain()
    kernel.check_decay(lam=point.lam, quartic=point.lam_ppqq)

    def arg(c):
        return point.lam + point.lam_ll * c * c / 3.0 + point.lam_ppqq * c**4

    i0 = _semi_infinite_quad(lambda c: kernel.deriv(0, arg(c)) * c * c, spec)
    i1 = _semi_infinite_quad(lambda c: kernel.deriv(1, arg(c)) * c**4, spec)
    i2 = _semi_infinite_quad(lambda c: kernel.deriv(1, arg(c)) * c**6, spec)
    terms = [
        3.0 * i0,
        (2.0 / 3.0) * point.lam_ll * i1,
        4.0 * point.lam_ppqq * i2,
    ]
    scale = max(abs(t) for t in terms)
    return abs(sum(terms)) / max(scale, 1e-30)
