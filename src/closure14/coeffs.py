"""Scalar coefficient hierarchy of the 14-moment closure.

Everything is generated from a family of single-variable functions
ktilde_s linked by the ladder d ktilde_{s+1}/dl = (9/4)(3+4s)(5+4s) ktilde_s.
The expansion coefficient k_{0,0} is the double series

    k00 = sum_s  l_ll**(-(3+4s)/2) * ktilde_s(l) * l_ppqq**s / s!

and every k_{p,q} follows from k00 by composing four single-step
recurrences (one derivative per step, with rational prefactors).  The
steps act symbolically on a term list, so all derivatives in l_ll and
the series variable are analytic; only the l-direction consults the
family's derivative oracle.

A series compiles its exact terms to floats once and keeps its derivative
series, and a family keeps its member values at the most recent l, so the
coefficients at one point consult the oracle at most once per (s, n).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, FamilyConstructionError, ParityError, TruncationError
from .numdiff import RESIDUAL_FLOOR, central_diff

DEFAULT_S_MAX = 6
DEFAULT_N_MAX = 12
LADDER_GATE_TOL = 1e-6
_LADDER_GRID = tuple(np.linspace(-1.0, 1.0, 9))


@dataclass(frozen=True)
class EquilibriumPoint:
    """Scalar arguments of the coefficient functions."""

    lam: float
    lam_ll: float
    lam_ppqq: float = 0.0

    def require_domain(self):
        """All fields finite, lambda_ll > 0 and lambda_ppqq >= 0, else ``DomainError``.

        At lambda_ppqq < 0, chi is not bounded below and the integrals diverge.
        """
        if not all(map(math.isfinite, (self.lam, self.lam_ll, self.lam_ppqq))):
            raise DomainError(f"equilibrium point must be finite, got {self}")
        if not self.lam_ll > 0:
            raise DomainError(f"lambda_ll must be positive, got {self.lam_ll}")
        if self.lam_ppqq < 0:
            raise DomainError(
                f"lambda_ppqq must be >= 0 (the integral diverges otherwise), got {self.lam_ppqq}"
            )


@dataclass(frozen=True)
class CoefficientRequest:
    p: int
    q: int
    r: int
    S: int = 4

    def __post_init__(self):
        if min(self.p, self.q, self.r, self.S) < 0:
            raise ValueError("indices and truncation must be non-negative")


@dataclass(frozen=True, eq=False)
class GeneratingFamily:
    """Scalar family ktilde_s with derivative oracle d^n ktilde_s / dl^n.

    ``deriv(s, n, lam)`` must be finite on the working domain for
    s <= s_max, n <= n_max.  Public constructors (:func:`make_family`,
    ``kinetic.make_kinetic_family``) gate on the ladder residual;
    direct instantiation skips the gate (used for fault injection).

    ``ktilde_deriv`` keeps a one-point member table, the (s, n) values at the
    most recent lam, so ``deriv`` must be a pure function.  A call that raises
    is not stored; ``dataclasses.replace`` starts an empty table.  A new lam
    that is not finite raises ``DomainError``.
    """

    kind: str
    deriv: object  # callable (s, n, lam) -> float
    s_max: int = DEFAULT_S_MAX
    n_max: int = DEFAULT_N_MAX
    params: dict = field(default_factory=dict)
    # {lam: {(s, n): value}}: a cache, not part of the family's value
    _members: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def ktilde(self, s: int, lam: float) -> float:
        return self.ktilde_deriv(s, 0, lam)

    def ktilde_deriv(self, s: int, n: int, lam: float) -> float:
        if s > self.s_max:
            raise TruncationError(f"s={s} exceeds family s_max={self.s_max}")
        if n > self.n_max:
            raise TruncationError(f"derivative order {n} exceeds n_max={self.n_max}")
        members = self._members.get(lam)
        if members is None:  # a new point: forget the previous one
            if not math.isfinite(lam):
                raise DomainError(f"lambda must be finite, got {lam}")
            self._members.clear()
            members = self._members[lam] = {}
        value = members.get((s, n))
        if value is None:
            try:
                value = members[s, n] = self.deriv(s, n, lam)
            except OverflowError as exc:
                raise DomainError(f"ktilde_{s} derivative {n} overflows at lambda={lam}") from exc
        return value

    def describe(self) -> dict:
        return {"kind": self.kind, "s_max": self.s_max, "params": dict(self.params)}


def ladder_factor(s: int) -> Fraction:
    """Exact prefactor (9/4)(3+4s)(5+4s) of the ladder recursion."""
    return Fraction(9, 4) * (3 + 4 * s) * (5 + 4 * s)


def ladder_residual(f: GeneratingFamily, s: int, lam: float) -> float:
    """Relative residual of d ktilde_{s+1}/dl = ladder_factor(s) ktilde_s.

    The derivative is a central difference of the member values, independent
    of the family's derivative oracle.
    """
    if s + 1 > f.s_max:
        raise TruncationError(f"ladder check needs member s+1={s + 1} <= s_max={f.s_max}")
    lhs = central_diff(lambda x: f.ktilde(s + 1, x), lam)
    rhs = float(ladder_factor(s)) * f.ktilde(s, lam)
    return abs(lhs - rhs) / max(abs(rhs), RESIDUAL_FLOOR)


def _ladder_gate(f: GeneratingFamily, grid=_LADDER_GRID):
    for s in range(f.s_max):
        worst = max(ladder_residual(f, s, lam) for lam in grid)
        if worst > LADDER_GATE_TOL:
            raise FamilyConstructionError(
                f"ladder residual {worst:.3e} at s={s} exceeds {LADDER_GATE_TOL:.0e}"
            )
    return f


def _gaussian_moment(m: int) -> float:
    # integral_0^inf exp(-x^2/3) x^m dx
    return 0.5 * 3.0 ** ((m + 1) / 2) * math.gamma((m + 1) / 2)


def _exponential(amplitude, scale):
    """F(x) = amplitude exp(-scale x): the oracles F^(n)(x) and d^n ktilde_s/dl^n."""

    def kernel(n, x):
        return amplitude * (-scale) ** n * np.exp(-scale * x)

    @functools.cache
    def const(s):
        return (
            amplitude
            * 4.0
            * math.pi
            * (-scale) ** s
            * 0.5
            * (3.0 / scale) ** (2 * s + 1.5)
            * math.gamma(2 * s + 1.5)
        )

    def members(s, n, lam):
        return const(s) * (-scale) ** n * math.exp(-scale * lam)

    return kernel, members


def _poly_exponential(amplitude):
    """F(x) = amplitude x exp(-x); its members are (A_s + B_s l) e^{-l}."""

    def kernel(n, x):
        return amplitude * (-1.0) ** n * (x - n) * np.exp(-x)

    @functools.cache
    def coeffs(s):
        b = (-1.0) ** s * 4.0 * math.pi * _gaussian_moment(4 * s + 2)
        a = (-1.0) ** s * 4.0 * math.pi * (
            -s * _gaussian_moment(4 * s + 2) + _gaussian_moment(4 * s + 4) / 3.0
        )
        return amplitude * a, amplitude * b

    def members(s, n, lam):
        a, b = coeffs(s)
        val = (-1.0) ** n * (a + b * lam) + n * (-1.0) ** (n - 1) * b
        return val * math.exp(-lam)

    return kernel, members


@dataclass(frozen=True)
class BuiltinKernel:
    """A built-in kernel F: one definition serves its family and its kinetic oracle.

    ``params`` maps each parameter to ``(default, low, high)``; a value must be a
    real number in the open interval (low, high).  ``build(**values)`` returns
    the oracles ``(kernel, members)``: (n, x) -> F^(n)(x), and (s, n, lam) ->
    d^n ktilde_s/dl^n in closed form, ktilde_s = 4 pi int F^(s)(l + e^2/3) e^(4s+2) de.
    """

    name: str
    aliases: tuple
    params: dict
    build: object

    def resolve(self, given: dict) -> dict:
        """Every parameter as a float, from ``given`` or else the default."""
        # s_max is the family's truncation, checked by make_family, not a kernel parameter
        unknown = sorted(set(given) - set(self.params) - {"s_max"})
        if unknown:
            raise ValueError(
                f"family {self.name!r} takes only {sorted(self.params)}, got {unknown}"
            )
        values = {}
        for key, (default, low, high) in self.params.items():
            value = given.get(key, default)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and low < value < high):
                raise ValueError(
                    f"family parameter {key!r} must be in ({low}, {high}), got {value!r}"
                )
            values[key] = float(value)
        return values


_POSITIVE = (1.0, 0.0, math.inf)  # default 1, any positive value
EXPONENTIAL = BuiltinKernel(
    "exponential", (), {"amplitude": _POSITIVE, "scale": _POSITIVE}, _exponential
)
POLY_EXPONENTIAL = BuiltinKernel(
    "poly_exponential", ("polynomial-times-exponential",), {"amplitude": _POSITIVE},
    _poly_exponential,
)
BUILTIN_KERNELS = (EXPONENTIAL, POLY_EXPONENTIAL)
_BY_KIND = {kind: k for k in BUILTIN_KERNELS for kind in (k.name, *k.aliases)}


def builtin_kernel(kind) -> BuiltinKernel | None:
    """Registry entry of a family kind or alias; None for any other kind."""
    return _BY_KIND.get(kind) if isinstance(kind, str) else None


def make_family(kind: str, params: dict | None = None) -> GeneratingFamily:
    """Build a generating family and run the ladder-residual gate.

    ``kind`` is a :data:`BUILTIN_KERNELS` name or alias, or ``"custom"`` with a callable
    ``deriv(s, n, lam)``; any kind takes ``s_max``.  Bad input raises ``ValueError``.
    """
    if not isinstance(params, (dict, type(None))):
        raise ValueError(f"family parameters must be an object, got {params!r}")
    params = dict(params or {})
    s_max = params.pop("s_max", DEFAULT_S_MAX)
    if isinstance(s_max, bool) or not isinstance(s_max, int) or s_max < 0:
        raise ValueError(f"family parameter 's_max' must be an integer >= 0, got {s_max!r}")
    entry = builtin_kernel(kind)
    if entry is not None:
        deriv = entry.build(**entry.resolve(params))[1]
    elif kind != "custom":
        raise ValueError(f"unknown family kind {kind!r}, expected one of {[*_BY_KIND, 'custom']}")
    elif set(params) != {"deriv"} or not callable(params["deriv"]):
        raise ValueError("family 'custom' takes one parameter, a callable 'deriv'")
    else:
        deriv = params["deriv"]
    fam = GeneratingFamily(kind=kind, deriv=deriv, s_max=s_max, params=params)
    return _ladder_gate(fam)


# --- symbolic series over the (h1)/(D) representation ----------------------


@dataclass(frozen=True)
class _Term:
    coef: Fraction  # rational prefactor (includes 1/s!)
    s: int  # family member index
    dl: int  # lambda-derivative order applied to ktilde_s
    ll_exp: Fraction  # exponent of lambda_ll
    m: int  # power of lambda_ppqq


def _memoized(step):
    """Keep a step's result on the series; a step that raises keeps nothing."""

    @functools.wraps(step)
    def cached(self):
        if step.__name__ not in self._steps:
            self._steps[step.__name__] = step(self)
        return self._steps[step.__name__]

    return cached


class CoeffSeries:
    """Finite sum of terms coef * d^dl ktilde_s(l) * l_ll**e * l_ppqq**m.

    The steps act on the exact terms and are kept on the series.  A call runs
    a float plan, (float(coef), s, dl, float(e), m) per term, compiled once.
    """

    __slots__ = ("terms", "_plan", "_steps")

    def __init__(self, terms):
        self.terms = tuple(terms)
        self._plan = None
        self._steps = {}

    @classmethod
    @functools.cache
    def k00(cls, S: int) -> "CoeffSeries":
        return cls(
            _Term(Fraction(1, math.factorial(s)), s, 0, Fraction(-(3 + 4 * s), 2), s)
            for s in range(S + 1)
        )

    @_memoized
    def d_lam(self) -> "CoeffSeries":
        return CoeffSeries(
            _Term(t.coef, t.s, t.dl + 1, t.ll_exp, t.m) for t in self.terms
        )

    @_memoized
    def d_ll(self) -> "CoeffSeries":
        return CoeffSeries(
            _Term(t.coef * t.ll_exp, t.s, t.dl, t.ll_exp - 1, t.m) for t in self.terms
        )

    @_memoized
    def d_ppqq(self) -> "CoeffSeries":
        out = [
            _Term(t.coef * t.m, t.s, t.dl, t.ll_exp, t.m - 1)
            for t in self.terms
            if t.m >= 1
        ]
        if not out:
            raise TruncationError(
                "series order exhausted: increase S for this lambda_ppqq derivative"
            )
        return CoeffSeries(out)

    def scaled(self, c) -> "CoeffSeries":
        c = Fraction(c)
        return CoeffSeries(
            _Term(t.coef * c, t.s, t.dl, t.ll_exp, t.m) for t in self.terms
        )

    def max_order(self) -> int:
        return max(t.m for t in self.terms)

    def truncated(self, order: int) -> "CoeffSeries":
        return CoeffSeries(t for t in self.terms if t.m <= order)

    def float_plan(self) -> tuple:
        """The terms as (float(coef), s, dl, float(e), m), compiled on first use."""
        if self._plan is None:
            self._plan = tuple(
                (float(t.coef), t.s, t.dl, float(t.ll_exp), t.m) for t in self.terms
            )
        return self._plan

    def __call__(self, f: GeneratingFamily, point: EquilibriumPoint) -> float:
        point.require_domain()
        lam, lam_ll, lam_ppqq = point.lam, point.lam_ll, point.lam_ppqq
        total = 0.0
        for coef, s, dl, ll_exp, m in self._plan or self.float_plan():
            factor = coef * f.ktilde_deriv(s, dl, lam)
            try:
                factor *= lam_ll ** ll_exp
                if m:
                    factor *= lam_ppqq ** m
            except OverflowError as exc:
                raise DomainError(f"coefficient overflows at {point}") from exc
            total += factor
        return total


def default_path(p: int, q: int) -> str:
    """Column steps first, then row steps (minimizes series orders consumed)."""
    return "c" * q + "r" * p


def k_series(f: GeneratingFamily, p: int, q: int, S: int, path: str | None = None) -> CoeffSeries:
    """Build k_{p,q} by composing parity-correct single steps from k00.

    Path is a string over {'c' (column, q+1), 'r' (row, p+1)}; the step
    rule at each move is forced by the current p+q parity:

    * row,    p+q odd:  d/dl                                (beta1)
    * row,    p+q even: 3 (p+q+1)/(p+q+3) d/dl_ll           (gamma1)
    * column, p+q odd:  3 d/dl_ll                           (eps1)
    * column, p+q even: (p+q+1)/(p+q+3) d/dl_ppqq           (eps2)

    The series is purely symbolic (the family enters only at evaluation),
    so results are memoized on the indices.
    """
    return _k_series_cached(p, q, S, path)


@functools.lru_cache(maxsize=None)
def _k_series_cached(p: int, q: int, S: int, path: str | None) -> CoeffSeries:
    if path is None:
        path = default_path(p, q)
    if path.count("r") != p or path.count("c") != q or len(path) != p + q:
        raise ValueError(f"path {path!r} does not reach (p={p}, q={q})")
    series = CoeffSeries.k00(S)
    cp = cq = 0
    for move in path:
        n = cp + cq
        if move == "r":
            if n % 2:
                series = series.d_lam()
            else:
                series = series.d_ll().scaled(Fraction(3 * (n + 1), n + 3))
            cp += 1
        elif move == "c":
            if n % 2:
                series = series.d_ll().scaled(3)
            else:
                series = series.d_ppqq().scaled(Fraction(n + 1, n + 3))
            cq += 1
        else:
            raise ValueError(f"bad path move {move!r}")
    return series


def k_pq(
    f: GeneratingFamily,
    p: int,
    q: int,
    point: EquilibriumPoint,
    S: int,
    path: str | None = None,
) -> float:
    return k_series(f, p, q, S, path)(f, point)


def k00(f: GeneratingFamily, point: EquilibriumPoint, S: int) -> float:
    return CoeffSeries.k00(S)(f, point)


def _ll_power(lam_ll: float, exponent: float) -> float:
    """lam_ll ** exponent, raising ``DomainError`` where it overflows."""
    try:
        return lam_ll ** exponent
    except OverflowError as exc:
        raise DomainError(f"lambda_ll**{exponent} overflows at lambda_ll={lam_ll}") from exc


def k_s_value(f: GeneratingFamily, s: int, point: EquilibriumPoint) -> float:
    point.require_domain()
    return _ll_power(point.lam_ll, -(3 + 4 * s) / 2) * f.ktilde(s, point.lam)


# --- tensor-coefficient scalars --------------------------------------------


def h_series(f: GeneratingFamily, p: int, q: int, r: int, S: int) -> CoeffSeries:
    return _h_series_cached(p, q, r, S)


@functools.lru_cache(maxsize=None)
def _h_series_cached(p: int, q: int, r: int, S: int) -> CoeffSeries:
    if (p + q) % 2:
        raise ParityError(f"h_{{p,q,r}} needs p+q even, got p={p}, q={q}")
    series = _k_series_cached(p, q, S, None)
    for _ in range(r):
        series = series.d_ll()
    return series.scaled(Fraction(3**r * (p + q + 1), p + q + 2 * r + 1))


def phi_series(f: GeneratingFamily, p: int, q: int, r: int, S: int) -> CoeffSeries:
    return _phi_series_cached(p, q, r, S)


@functools.lru_cache(maxsize=None)
def _phi_series_cached(p: int, q: int, r: int, S: int) -> CoeffSeries:
    if (p + q) % 2 == 0:
        raise ParityError(f"phi_{{p,q,r}} needs p+q odd, got p={p}, q={q}")
    series = _k_series_cached(p, q, S, None)
    for _ in range(r):
        series = series.d_ll()
    return series.scaled(Fraction(3**r * (p + q + 2), p + q + 2 * r + 2))


def h_pqr(f: GeneratingFamily, req: CoefficientRequest, point: EquilibriumPoint) -> float:
    if (req.p + req.q) % 2:
        return 0.0  # parity-forbidden: isotropic odd-rank coefficient
    return h_series(f, req.p, req.q, req.r, req.S)(f, point)


def phi_pqr(f: GeneratingFamily, req: CoefficientRequest, point: EquilibriumPoint) -> float:
    if (req.p + req.q) % 2 == 0:
        return 0.0
    return phi_series(f, req.p, req.q, req.r, req.S)(f, point)


# --- closed forms (cross-check oracles) ------------------------------------


def eta_product(lo: int, hi: int) -> int:
    """Step-2 ascending product lo*(lo+2)*...*hi; empty product 1 if hi < lo."""
    if (hi - lo) % 2:
        raise ParityError(f"eta_product arguments must share parity: ({lo}, {hi})")
    return math.prod(range(lo, hi + 1, 2))


def eta_descending_literal(a: int, b: int) -> int:
    """Literal reading a(a-2)...(b+2)b; empty product 1 if a < b."""
    if (a - b) % 2:
        raise ParityError(f"eta arguments must share parity: ({a}, {b})")
    return math.prod(range(a, b - 1, -2))


def k0q_closed(f: GeneratingFamily, q: int, lam: float, lam_ll: float) -> float:
    """Closed form for k_{0,q} at lambda_ppqq = 0 (corrected eta convention)."""
    EquilibriumPoint(lam, lam_ll).require_domain()
    if q % 2 == 0:
        s = q // 2
        return (
            3.0**s
            / (q + 1)
            * (-0.5) ** s
            * eta_product(2 * q + 3, 3 * q + 1)
            * _ll_power(lam_ll, -(3 + 3 * q) / 2)
            * f.ktilde(s, lam)
        )
    s = (q + 1) // 2
    return (
        3.0 ** ((q - 1) // 2)
        / (q + 2)
        * (-0.5) ** ((q - 1) // 2)
        * eta_product(2 * q + 5, 3 * q + 2)
        * _ll_power(lam_ll, -(4 + 3 * q) / 2)
        * f.ktilde(s, lam)
    )


def k_pq_closed(f: GeneratingFamily, p: int, q: int, point: EquilibriumPoint, S: int) -> float:
    """k_{p,q} from mixed partials of k00 (the four parity branches)."""
    series = CoeffSeries.k00(S)
    if p % 2 == 0 and q % 2 == 0:
        n_ll, n_l, n_pp = (p + q) // 2, p // 2, q // 2
        pref = Fraction(3 ** ((p + q) // 2), p + q + 1)
    elif p % 2 and q % 2:
        n_ll, n_l, n_pp = (p + q - 2) // 2, (p + 1) // 2, (q + 1) // 2
        pref = Fraction(3 ** ((p + q - 2) // 2), p + q + 1)
    elif p % 2 == 0:
        n_ll, n_l, n_pp = (p + q - 1) // 2, p // 2, (q + 1) // 2
        pref = Fraction(3 ** ((p + q - 1) // 2), p + q + 2)
    else:
        n_ll, n_l, n_pp = (p + q + 1) // 2, (p - 1) // 2, q // 2
        pref = Fraction(3 ** ((p + q + 1) // 2), p + q + 2)
    for _ in range(n_pp):
        series = series.d_ppqq()
    for _ in range(n_ll):
        series = series.d_ll()
    for _ in range(n_l):
        series = series.d_lam()
    return series.scaled(pref)(f, point)


# --- scalar constraints -----------------------------------------------------


def constraint_residuals(f: GeneratingFamily, point: EquilibriumPoint, S: int):
    """Relative residuals of the two scalar conditions on k00.

    First: 9 d2 k00/dl_ll2 = d2 k00/(dl dl_ppqq).  Second:
    0 = 3 k00 + 2 l_ll dk00/dl_ll + 4 l_ppqq dk00/dl_ppqq.

    The series is formal/asymptotic: the lambda_ppqq derivative in the
    first condition drops the top retained order, so both sides are
    compared at the common order S-1.  The second condition is exact
    order-by-order (the lambda_ppqq prefactor restores the order), so no
    truncation is applied there.
    """
    if S < 2:
        raise TruncationError("constraint check needs S >= 2")
    base = CoeffSeries.k00(S)
    rhs_series = base.d_lam().d_ppqq()
    order = rhs_series.max_order()
    lhs_c = 9.0 * base.d_ll().d_ll().truncated(order)(f, point)
    rhs_c = rhs_series(f, point)
    c_resid = abs(lhs_c - rhs_c) / max(abs(lhs_c), abs(rhs_c), RESIDUAL_FLOOR)

    t0 = 3.0 * base(f, point)
    t1 = 2.0 * point.lam_ll * base.d_ll()(f, point)
    t2 = 4.0 * point.lam_ppqq * base.d_ppqq()(f, point)
    scale = max(abs(t0), abs(t1), abs(t2), RESIDUAL_FLOOR)
    f1_resid = abs(t0 + t1 + t2) / scale
    return c_resid, f1_resid


# --- 13-moment subsystem ----------------------------------------------------


@dataclass(frozen=True)
class SubsystemTable:
    """13-moment scalar coefficients I_q at a given lambda; c_q fixed to 0."""

    lam: float
    values: dict  # q -> I_q
    c_q: float = 0.0


def subsystem_coefficient(f: GeneratingFamily, q: int, lam: float) -> float:
    if q % 2:
        raise ParityError(f"subsystem index q must be even, got {q}")
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
    s = q // 2
    return (
        (-1.5) ** s / (q + 1) * eta_product(2 * q + 3, 3 * q + 1) * f.ktilde(s, lam)
    )


def reduce_to_13(f: GeneratingFamily, q_max: int, lam: float) -> SubsystemTable:
    if q_max > 2 * f.s_max:
        raise TruncationError(f"q_max={q_max} needs family members beyond s_max={f.s_max}")
    values = {q: subsystem_coefficient(f, q, lam) for q in range(0, q_max + 1, 2)}
    for q, v in values.items():
        if not math.isfinite(v):
            raise DomainError(f"I_{q} is not finite at lambda={lam}")
    return SubsystemTable(lam=lam, values=values)
