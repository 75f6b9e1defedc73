"""Scalar coefficient hierarchy of the 14-moment closure.

Everything is generated from a family of single-variable functions
ktilde_s linked by the ladder d ktilde_{s+1}/dl = (9/4)(3+4s)(5+4s) ktilde_s.
The expansion coefficient k_{0,0} is the double series

    k00 = sum_s  l_ll**(-(3+4s)/2) * ktilde_s(l) * l_ppqq**s / s!

and every k_{p,q} and h/phi_{p,q,r} is one mixed partial of k00 times a
rational, pi d^a/dl^a d^b/dl_ll^b d^c/dl_ppqq^c k00, whose terms have a
closed form.  Derivatives in l_ll and l_ppqq are analytic; only the
l-direction consults the family's derivative oracle.  Each production
series is the one series of its key (a, b, c, pi, S), built from that
closed form, and one cached table, ``_shared``, is the way to it: by index
(``tensor_series``, ``CoeffSeries.k00``) or by shifting the key
(``CoeffSeries.derivative``).  The single steps (``d_lam``, ``d_ll``,
``d_ppqq``, ``scaled``) are term rules that return new series, the
independent route of ``k_pq_closed`` and the tests.

A series compiles its exact terms to floats once and a family keeps its
member values at the most recent l, so the coefficients at one point
consult the oracle at most once per (s, n).  A series call fetches that
member table once and reads each term's member from it; only a member not
yet in the table goes through ``ktilde_deriv``.  At l_ppqq = 0 a series
sums only its terms with m = 0, since the others are 0; so it reads no
member of a vanishing term, and one that would overflow there leaves the
value finite.  A series with a member out of the family's range sums all
its terms, so it raises the same error at l_ppqq = 0 as elsewhere; the
grids of ``potentials`` follow the same rule.  Each series also keeps the
value of its last call, and returns it when asked again with the very same
family and point objects: k_{p,q} is the r = 0 cell of h/phi_{p,q,r},
h_{p,q,r} = phi_{p+1,q,r-1} for even p+q, and the constraints read k00 again.

A ``CoefficientRequest`` (p, q, r, S) is a ``NamedTuple`` that checks its
indices when built, so h_pqr and phi_pqr see only integers >= 0.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import DomainError, FamilyConstructionError, ParityError, TruncationError
from .numdiff import RESIDUAL_FLOOR, central_diff

DEFAULT_S_MAX = 6
DEFAULT_N_MAX = 12
LADDER_GATE_TOL = 1e-6
LADDER_GRID = tuple(np.linspace(-1.0, 1.0, 9))  # the lambda values the ladder is checked at


@dataclass(frozen=True)
class EquilibriumPoint:
    """Scalar arguments of the coefficient functions, checked at construction.

    All fields finite, lambda_ll > 0 and lambda_ppqq >= 0, else ``DomainError``.
    """

    lam: float
    lam_ll: float
    lam_ppqq: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lam, self.lam_ll, self.lam_ppqq))):
            raise DomainError(f"equilibrium point must be finite, got {self}")
        if not self.lam_ll > 0:
            raise DomainError(f"lambda_ll must be positive, got {self.lam_ll}")
        if self.lam_ppqq < 0:
            raise DomainError(
                f"lambda_ppqq must be >= 0 (the integral diverges otherwise), got {self.lam_ppqq}"
            )


class _RequestFields(NamedTuple):
    p: int
    q: int
    r: int
    S: int = 4


class CoefficientRequest(_RequestFields):
    """Indices (p, q, r) and series truncation S of one h or phi coefficient.

    A validated ``NamedTuple``: immutable and hashable, and it compares equal
    to the plain tuple (p, q, r, S).  An index that is negative or not an
    integer raises ``ValueError`` when built, as in ``tensor_series``; a plain
    ``int`` >= 0 skips ``check_index``.  ``_replace`` and ``_make`` check too.
    """

    __slots__ = ()

    def __new__(cls, p, q, r, S=4):
        if not (type(p) is int and p >= 0 and type(q) is int and q >= 0
                and type(r) is int and r >= 0 and type(S) is int and S >= 0):
            for name, index in (("p", p), ("q", q), ("r", r), ("S", S)):
                check_index(name, index)
        return tuple.__new__(cls, (p, q, r, S))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


@dataclass(frozen=True, eq=False)
class GeneratingFamily:
    """Scalar family ktilde_s with derivative oracle d^n ktilde_s / dl^n.

    ``deriv(s, n, lam)`` must be finite on the working domain for
    s <= s_max, n <= n_max.  Public constructors (:func:`make_family`,
    ``kinetic.make_kinetic_family``) gate on the ladder residual;
    direct instantiation skips the gate (used for fault injection).

    ``ktilde_deriv`` keeps a one-point member table, the (s, n) values at the
    most recent lam, so ``deriv`` must be a pure function.  ``members_at``
    returns that table for readers that look members up themselves.  A member
    out of range or a call that raises is not stored, so a reader that misses
    calls ``ktilde_deriv`` and gets its error; ``dataclasses.replace`` starts
    an empty table.  A new lam that is not finite raises ``DomainError``, and
    an index s or n that is negative or not an integer ``ValueError``.
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
        members = self._members.get(lam)
        if members is None:  # a new point
            members = self.members_at(lam)
        value = members.get((s, n))
        if value is None:  # a new member; no key out of range is ever stored
            if not (type(s) is int and type(n) is int  # other integer types take the long way
                    and 0 <= s <= self.s_max and 0 <= n <= self.n_max):
                self._check_member(s, n)
            try:
                value = members[s, n] = self.deriv(s, n, lam)
            except OverflowError as exc:
                raise DomainError(f"ktilde_{s} derivative {n} overflows at lambda={lam}") from exc
        return value

    def _check_member(self, s, n) -> None:
        """Raise ``ValueError`` or ``TruncationError`` unless (s, n) is a member in range."""
        check_index("s", s)
        check_index("derivative order n", n)
        if s > self.s_max:
            raise TruncationError(f"s={s} exceeds family s_max={self.s_max}")
        if n > self.n_max:
            raise TruncationError(f"derivative order {n} exceeds n_max={self.n_max}")

    def members_at(self, lam: float) -> dict:
        """The member table {(s, n): value} at lam, emptied when lam is new."""
        members = self._members.get(lam)
        if members is None:  # a new point: forget the previous one
            if not math.isfinite(lam):
                raise DomainError(f"lambda must be finite, got {lam}")
            self._members.clear()
            members = self._members[lam] = {}
        return members

    def describe(self) -> dict:
        return {"kind": self.kind, "s_max": self.s_max, "params": dict(self.params)}


def check_index(name: str, value) -> None:
    """Raise ``ValueError`` unless value is an integer (``operator.index``) >= 0."""
    try:
        valid = operator.index(value) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


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
    with np.errstate(over="ignore", invalid="ignore"):  # members that overflow give nan
        lhs = central_diff(lambda x: f.ktilde(s + 1, x), lam)
        rhs = float(ladder_factor(s)) * f.ktilde(s, lam)
        return abs(lhs - rhs) / max(abs(rhs), RESIDUAL_FLOOR)


def worst_ladder_residual(f: GeneratingFamily, s: int, grid) -> float:
    """The largest ``ladder_residual`` over grid, or nan if any residual is nan."""
    residuals = [ladder_residual(f, s, lam) for lam in grid]
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def _ladder_gate(f: GeneratingFamily):
    for s in range(f.s_max):
        worst = worst_ladder_residual(f, s, LADDER_GRID)
        if not math.isfinite(worst):
            raise FamilyConstructionError(f"ladder residual {worst} at s={s} is not finite")
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


_NO_CALL = (object(), None, None)  # no caller holds its family, so it never matches
_EXHAUSTED = "series order exhausted: increase S for this lambda_ppqq derivative"


@functools.cache
def _rows(b: int, c: int, S: int) -> tuple:
    """Terms (coef, s, ll_exp, m) of d^b/dl_ll^b d^c/dl_ppqq^c k00(S), s = c..S.

    coef = (1/s!) (e_s)_b (s)_c, e_s = -(3+4s)/2, with falling factorials.
    """
    e_s = {s: Fraction(-(3 + 4 * s), 2) for s in range(c, S + 1)}
    return tuple((Fraction(math.perm(s, c), math.factorial(s)) * math.prod(e - j for j in range(b)),
                  s, e - b, s - c) for s, e in e_s.items())


@functools.cache
def _shared(a: int, b: int, c: int, pi: Fraction, S: int) -> "CoeffSeries":
    """The one series pi d^a/dl^a d^b/dl_ll^b d^c/dl_ppqq^c k00(S); c > S raises."""
    if c > S:
        raise TruncationError(_EXHAUSTED)
    series = CoeffSeries(_Term(pi * coef, s, a, e, m) for coef, s, e, m in _rows(b, c, S))
    series._key = (a, b, c, pi, S)
    return series


class CoeffSeries:
    """Finite sum of terms coef * d^dl ktilde_s(l) * l_ll**e * l_ppqq**m.

    The steps and ``scaled`` act on the exact terms and return a new series
    without a key; ``derivative`` needs one.  A call runs
    ``plan``, the terms as (float(coef), (s, dl), float(e), m), compiled at
    once.  It fetches the family's member table at l once (``members_at``) and
    reads each term's member from it by its (s, dl) key; only a miss calls
    ``ktilde_deriv``, which stores the member or raises the truncation or
    domain error.

    At l_ppqq = 0 a call runs ``_plan0``, the entries of ``plan`` with m = 0,
    when the largest s and dl of the series (``_reach``) are within the
    family's s_max and n_max.  The skipped terms add 0.0 (or NaN from an
    infinite member), so the sum keeps its bits and every input that raises
    ``TruncationError`` or ``ValueError`` with ``plan`` still raises it.

    A series keeps one slot, (family, point, value) of its last call.  A call
    whose family and point are the very objects in the slot (``is``) returns
    the value; any other call evaluates and then fills the slot.  This rests
    on the frozen ``EquilibriumPoint`` and the pure ``deriv`` that the member
    table already needs.  The slot holds its family and point, so their ids
    are not reused while it does, and a call that raises leaves it as it was.
    """

    __slots__ = ("terms", "plan", "_plan0", "_reach", "_last", "_key")

    def __init__(self, terms):
        self.terms = tuple(terms)
        self.plan = tuple((float(t.coef), (t.s, t.dl), float(t.ll_exp), t.m) for t in self.terms)
        self._plan0 = tuple(entry for entry in self.plan if not entry[3])  # the terms at l_ppqq = 0
        keys = [key for _, key, _, _ in self.plan]
        # the largest (s, dl); a negative index, which raises, never lets a term be skipped
        self._reach = ((max(s for s, _ in keys), max(n for _, n in keys))
                       if keys and min(map(min, keys)) >= 0 else (math.inf, math.inf))
        self._last = _NO_CALL
        self._key = None  # (a, b, c, pi, S) of a series of _shared

    @classmethod
    def k00(cls, S: int) -> "CoeffSeries":
        check_index("S", S)  # before the cache of tensor_series takes 4.0 as 4
        return tensor_series(0, 0, 0, S)

    # a key holds a Fraction, slower to hash than the series; typed, so 1.0 is not 1
    @functools.lru_cache(maxsize=None, typed=True)
    def derivative(self, da=0, db=0, dc=0) -> "CoeffSeries":
        """d^da/dl^da d^db/dl_ll^db d^dc/dl_ppqq^dc of the series: its key, shifted."""
        for name, shift in (("da", da), ("db", db), ("dc", dc)):
            check_index(name, shift)
        if self._key is None:
            raise ValueError("only a series of tensor_series or k00 has a derivative")
        a, b, c, pi, S = self._key
        return _shared(a + da, b + db, c + dc, pi, S)

    def d_lam(self) -> "CoeffSeries":
        return CoeffSeries(_Term(t.coef, t.s, t.dl + 1, t.ll_exp, t.m) for t in self.terms)

    def d_ll(self) -> "CoeffSeries":
        return CoeffSeries(
            _Term(t.coef * t.ll_exp, t.s, t.dl, t.ll_exp - 1, t.m) for t in self.terms)

    def d_ppqq(self) -> "CoeffSeries":
        out = [_Term(t.coef * t.m, t.s, t.dl, t.ll_exp, t.m - 1) for t in self.terms if t.m >= 1]
        if not out:
            raise TruncationError(_EXHAUSTED)
        return CoeffSeries(out)

    def scaled(self, c) -> "CoeffSeries":
        c = Fraction(c)
        return CoeffSeries(_Term(t.coef * c, t.s, t.dl, t.ll_exp, t.m) for t in self.terms)

    def __call__(self, f: GeneratingFamily, point: EquilibriumPoint) -> float:
        last = self._last
        if last[0] is f and last[1] is point:
            return last[2]
        lam, lam_ll, lam_ppqq = point.lam, point.lam_ll, point.lam_ppqq
        plan = self.plan
        if not lam_ppqq and self._reach[0] <= f.s_max and self._reach[1] <= f.n_max:
            plan = self._plan0  # every member in range: the terms with m > 0 are 0 and skipped
        members = f.members_at(lam)
        total = 0.0
        for coef, key, ll_exp, m in plan:
            member = members.get(key)
            if member is None:  # a miss: ktilde_deriv stores the member or raises
                member = f.ktilde_deriv(*key, lam)
            factor = coef * member
            try:
                factor *= lam_ll ** ll_exp
                if m:
                    factor *= lam_ppqq ** m
            except OverflowError as exc:
                raise DomainError(f"coefficient overflows at {point}") from exc
            total += factor
        if not math.isfinite(total):  # an inf member or power, or inf - inf
            raise DomainError(f"coefficient overflows at {point}")
        self._last = (f, point, total)
        return total


def k_series(f: GeneratingFamily, p: int, q: int, S: int) -> CoeffSeries:
    """The series of k_{p,q}: ``tensor_series(p, q, 0, S)``."""
    return tensor_series(p, q, 0, S)


def k_pq(f: GeneratingFamily, p: int, q: int, point: EquilibriumPoint, S: int) -> float:
    return tensor_series(p, q, 0, S)(f, point)


def k00(f: GeneratingFamily, point: EquilibriumPoint, S: int) -> float:
    return CoeffSeries.k00(S)(f, point)


def _ll_power(lam_ll: float, exponent: float) -> float:
    """lam_ll ** exponent, raising ``DomainError`` where it overflows."""
    try:
        return lam_ll ** exponent
    except OverflowError as exc:
        raise DomainError(f"lambda_ll**{exponent} overflows at lambda_ll={lam_ll}") from exc


def k_s_value(f: GeneratingFamily, s: int, point: EquilibriumPoint) -> float:
    value = _ll_power(point.lam_ll, -(3 + 4 * s) / 2) * f.ktilde(s, point.lam)
    if not math.isfinite(value):  # a member can be inf without an OverflowError
        raise DomainError(f"k_{s} at {point} is not finite")
    return value


# --- tensor-coefficient scalars --------------------------------------------


@functools.cache
def tensor_series(p: int, q: int, r: int, S: int) -> CoeffSeries:
    """Series of the (p, q, r) term of h_hat (p+q even) or phi_hat (p+q odd).

    At r = 0 this is k_{p,q}.  Each cell is pi d^a/dl^a d^b/dl_ll^b
    d^c/dl_ppqq^c k00(S), built from the closed form of its terms (``_rows``).
    (a, b, c, pi) count the single steps from k00, each forced by the parity
    of n = p+q before it: q column steps, then p row steps, then r steps:

    * row:    n odd d/dl (beta1), n even 3 (n+1)/(n+3) d/dl_ll (gamma1)
    * column: n odd 3 d/dl_ll (eps1), n even (n+1)/(n+3) d/dl_ppqq (eps2)
    * r-1 -> r: 3 (m-1)/(m+1) d/dl_ll, m = p+q+2r+(p+q)%2

    So a = #odd n in [q, p+q), b = floor(q/2) + #even n in [q, p+q) + r,
    c = ceil(q/2), and the scales telescope to pi = 3^b / (p+q+2r+1+(p+q)%2).
    Cells of equal (a, b, c, pi, S) have equal terms and are one object, and
    ``derivative`` shifts (a, b, c).  An index that is negative or not an
    integer raises ``ValueError``, and c > S ``TruncationError``.
    """
    for name, index in (("p", p), ("q", q), ("r", r), ("S", S)):
        check_index(name, index)
    p, q, r, S = map(operator.index, (p, q, r, S))
    n, a, c = p + q, (p + q) // 2 - q // 2, (q + 1) // 2
    b = q // 2 + p - a + r
    return _shared(a, b, c, Fraction(3**b, n + 2 * r + 1 + n % 2), S)


def h_pqr(f: GeneratingFamily, req: CoefficientRequest, point: EquilibriumPoint) -> float:
    if (req.p + req.q) % 2:
        return 0.0  # parity-forbidden: isotropic odd-rank coefficient
    return tensor_series(req.p, req.q, req.r, req.S)(f, point)


def phi_pqr(f: GeneratingFamily, req: CoefficientRequest, point: EquilibriumPoint) -> float:
    if (req.p + req.q) % 2 == 0:
        return 0.0
    return tensor_series(req.p, req.q, req.r, req.S)(f, point)


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


def k0q_eta_bounds(q: int) -> tuple[int, int]:
    """The (lo, hi) of the eta product in the closed form of k_{0,q}."""
    odd = q % 2
    return 2 * q + 3 + 2 * odd, 3 * q + 1 + odd


def k0q_closed(f: GeneratingFamily, q: int, lam: float, lam_ll: float) -> float:
    """Closed form for k_{0,q} at lambda_ppqq = 0 (corrected eta convention)."""
    check_index("q", q)
    point = EquilibriumPoint(lam, lam_ll)  # checks the domain
    odd = q % 2
    half = q // 2  # (q - 1) / 2 for odd q
    value = (
        3.0**half
        / (q + 1 + odd)
        * (-0.5) ** half
        * eta_product(*k0q_eta_bounds(q))
        * _ll_power(lam_ll, -(3 + 3 * q + odd) / 2)
        * f.ktilde(half + odd, lam)
    )
    if not math.isfinite(value):
        raise DomainError(f"k_0,{q} at {point} is not finite")
    return value


@functools.cache
def _unshared_k00(S: int) -> CoeffSeries:
    """k00(S) from its definition, not the closed form of ``tensor_series``."""
    return CoeffSeries(_Term(Fraction(1, math.factorial(s)), s, 0, Fraction(-(3 + 4 * s), 2), s)
                       for s in range(S + 1))


def k_pq_closed(f: GeneratingFamily, p: int, q: int, point: EquilibriumPoint, S: int) -> float:
    """k_{p,q} from mixed partials of k00 (the four parity branches), by single steps."""
    for name, index in (("p", p), ("q", q), ("S", S)):
        check_index(name, index)  # before the cache of the series takes 4.0 as 4
    return _stepped_k_series(p, q, S)(f, point)


@functools.cache
def _stepped_k_series(p: int, q: int, S: int) -> CoeffSeries:
    """The series of ``k_pq_closed``, walked by single steps from ``_unshared_k00``."""
    series = _unshared_k00(S)
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
    return series.scaled(pref)


# --- scalar constraints -----------------------------------------------------


def constraint_residuals(f: GeneratingFamily, point: EquilibriumPoint, S: int):
    """Relative residuals of the two scalar conditions on k00.

    First: 9 d2 k00/dl_ll2 = d2 k00/(dl dl_ppqq).  Second:
    0 = 3 k00 + 2 l_ll dk00/dl_ll + 4 l_ppqq dk00/dl_ppqq.

    The series is formal/asymptotic: the lambda_ppqq derivative in the
    first condition drops the top retained order, so both sides are
    compared at the common order S-1, the left one as d2/dl_ll2 k00(S-1).
    The second condition is exact order-by-order (the lambda_ppqq prefactor
    restores the order), so no truncation is applied there.
    """
    base = CoeffSeries.k00(S)  # checks S
    if S < 2:
        raise TruncationError("constraint check needs S >= 2")
    lhs_c = 9.0 * CoeffSeries.k00(S - 1).derivative(0, 2, 0)(f, point)
    rhs_c = base.derivative(1, 0, 1)(f, point)
    c_resid = abs(lhs_c - rhs_c) / max(abs(lhs_c), abs(rhs_c), RESIDUAL_FLOOR)
    return c_resid, scaling_residual(f, base, 3.0, point)


def scaling_residual(f: GeneratingFamily, series: CoeffSeries, weight, point: EquilibriumPoint):
    """Relative residual of 0 = weight k + 2 l_ll dk/dl_ll + 4 l_ppqq dk/dl_ppqq, k the series.

    Each k_{p,q} obeys it with weight p+3q+3.  A series (of ``tensor_series``)
    with no lambda_ppqq order left raises ``TruncationError``.
    """
    t0 = weight * series(f, point)
    t1 = 2.0 * point.lam_ll * series.derivative(0, 1, 0)(f, point)
    t2 = 4.0 * point.lam_ppqq * series.derivative(0, 0, 1)(f, point)
    scale = max(abs(t0), abs(t1), abs(t2), RESIDUAL_FLOOR)
    return abs(t0 + t1 + t2) / scale


# --- 13-moment subsystem ----------------------------------------------------


@dataclass(frozen=True)
class SubsystemTable:
    """13-moment scalar coefficients I_q at a given lambda; c_q is 0 for every table."""

    lam: float
    values: dict  # q -> I_q
    c_q: ClassVar[float] = 0.0


def subsystem_coefficient(f: GeneratingFamily, q: int, lam: float) -> float:
    check_index("q", q)
    if q % 2:
        raise ParityError(f"subsystem index q must be even, got {q}")
    s = q // 2
    value = (-1.5) ** s / (q + 1) * eta_product(*k0q_eta_bounds(q)) * f.ktilde(s, lam)
    if not math.isfinite(value):
        raise DomainError(f"I_{q} at lambda={lam} is not finite")
    return value


def reduce_to_13(f: GeneratingFamily, q_max: int, lam: float) -> SubsystemTable:
    check_index("q_max", q_max)
    if q_max > 2 * f.s_max:
        raise TruncationError(f"q_max={q_max} needs family members beyond s_max={f.s_max}")
    values = {q: subsystem_coefficient(f, q, lam) for q in range(0, q_max + 1, 2)}
    return SubsystemTable(lam=lam, values=values)
