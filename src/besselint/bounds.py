"""Closed-form bounds for the incomplete Bessel integral family.

Every bound in the catalog targets an integral of the form
``integral_0^x e^(-gamma t) t^mu I_ord(t) dt`` and declares itself as data: a
power and one to three terms ``(c_i, o_i)`` of ``e^(-gamma x) x^power sum_i c_i I_{o_i}``.
:func:`row_step` reads a (bound, nu, n, mu, gamma) row's data once, and its step at
each x gives a ``(sign, log)`` pair: the prefactor is a log term and the Bessel
combination one ``math.fsum`` scaled by its largest ``I``, so nothing overflows.
Every coefficient is a float fixed per row but three per-x forms, each its bound's
first: NEED2's ``(2(v+1)/x + g)/(2v+1)``, the LOWER2/INTINEQ0 bracket and the
LOWER1/LOWER3 series (relative to ``I_{v+1}``).  Where one is not finite at a tiny
x, one 1/x goes into the power, the coefficient becomes its declared limit of
``x c`` as x -> 0, and the later terms drop.

Catalog summary (``F(mu, ord)`` denotes the integral of
``e^(-gamma t) t^mu I_ord(t)``):

========== ========= ============================================================
id         direction closed form / hypotheses
========== ========= ============================================================
MAIN       upper     (2(v+1)+c_v)/((2v+1)(1-g)) e^-gx x^v I_{v+1};  v > -1/2
SIMPLE     upper     (2v+3)/((2v+1)(1-g)) e^-gx x^v I_{v+1};        v > -1/2
GAU1       upper     2(v+1)/((2v+1)(1-g)) e^-gx x^v I_{v+1};  v >= 1/2 (any g),
                     or v > -1/2 when g = 0
BAAAD      upper     like GAU1 but with 2(v+1) I_{v+1} - I_{v+3}
NEW1       upper     weighted I_{v+n+1}, I_{v+n+3} combination for F(v, v+n);
                     n > -1, v > -(n+1)/2, and v >= 1/2 unless g = 0; turns into
                     an equality at g = 0, n = -1 and reverses for -3 < n < -1
LOWER4     lower     three-term I_{v+n+1,3,5} combination for F(v, v+n);
                     n > -1, v > -(n+1)/2
TWOSIDED_* --        declared as g = 0 aliases: _L of LOWER4, _U of NEW1 with
                     LOWER4's hypotheses (n > -1, so always upper)
LOWER1     lower     e^-gx x^(v+1) sum_k g^k I_{v+k+1} for F(v+1, v);   v > -1;
                     an equality at g = 0
LOWER3     lower     e^-gx x^v     sum_k g^k I_{v+k+1} for F(v, v);     v > -1/2
INTINEQ0   lower     (1 - 2v(2v+c_{v-1})/((2v-1)(1-g)x)) e^-gx x^v I_v / (1-g)
                     for F(v, v+1);  v > 1/2
LOWER2     lower     same right side bounding F(v, v);                  v > 1/2
PROP1      upper     e^-gx x^mu I_v / (1-g) for F(mu, v);  mu >= v >= 1/2;
                     reverses at large x for mu < 1/2
NEED2      upper     ((2(v+1)/x + g) I_{v+1} + g^2 I_{v+2}) e^-gx x^(v+1)/(2v+1)
                     for F(v, v);  v > -1/2
DAY        lower     e^-gx x^v I_{v+n+3} for F(v, v+n+2);  n > -3, v > -(n+3)/2
========== ========= ============================================================

Every bound also needs ``x > 0`` and ``0 <= g < 1``; ``_Entry.reasons``
checks all but ``x > 0`` once per row, before the bound's own hypotheses.
Only ``x > 0``, the domain of the integral, is checked at every step, even
an unchecked :func:`row_step` one.

The truncated series in LOWER1/LOWER3 only ever *under*-estimates (all
terms are positive), so any truncation level preserves the lower-bound
direction; the reported tail share (certified tail over the sum) says how
much is missing.  It is a ratio certificate: the factor between successive
terms, ``gamma I_{v+k+1}/I_{v+k}``, decreases along the series, so the tail
is at most the last term times ``q/(1-q)`` with ``q`` the next factor (see
:func:`geometric_tail_series`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import kernel
from .errors import InvalidDomain
from .oracle import IntegralSpec, bessel_integral
from .scaled import ScaledValue

__all__ = [
    "BoundId",
    "Direction",
    "Point",
    "BoundEval",
    "CATALOG",
    "c_nu",
    "x_star",
    "bound_value",
    "row_step",
    "check_row",
    "geometric_tail_series",
    "m_value",
    "m_bound_constant",
]

#: LOWER1/LOWER3 stop once the certified tail is below this share of the sum
_SERIES_TOL = 1e-12
_ZERO = ScaledValue.zero()
_nu = attrgetter("nu")


class Direction(Enum):
    UPPER = "upper"
    LOWER = "lower"
    EQUALITY = "equality"
    REVERSED = "reversed"


class BoundId(Enum):
    MAIN = "main"
    SIMPLE = "simple"
    GAU1 = "gau1"
    BAAAD = "baaad"
    NEW1 = "new1"
    LOWER4 = "lower4"
    TWOSIDED_L = "twosided_l"
    TWOSIDED_U = "twosided_u"
    LOWER1 = "lower1"
    LOWER3 = "lower3"
    INTINEQ0 = "intineq0"
    LOWER2 = "lower2"
    PROP1 = "prop1"
    NEED2 = "need2"
    DAY = "day"


@dataclass(frozen=True, slots=True)
class Point:
    """A parameter point (nu, n, mu, gamma, x); n and mu only matter to
    bounds that use them."""

    nu: float
    n: float = 0.0
    mu: Optional[float] = None
    gamma: float = 0.0
    x: float = 1.0


class BoundEval(NamedTuple):
    """A bound's value at a point, flat: a :func:`row_step` step's ``(sign, log_abs,
    truncation_terms, tail_share)`` and the point's direction; ``tail_share`` is the
    certified share of the value that a truncated series leaves out (0.0 for a
    closed form), and ``value`` is built when read."""

    sign: int
    log_abs: float
    truncation_terms: int
    tail_share: float
    direction: Direction

    @property
    def value(self) -> ScaledValue:
        return ScaledValue(self.sign, self.log_abs)


def c_nu(nu: float) -> float:
    """The correction constant ``max(0, -4 nu (nu+1))``, in [0, 1) for nu > -1/2."""
    if not nu > -0.5:
        raise InvalidDomain(f"c_nu requires nu > -1/2, got {nu}")
    return max(0.0, -4.0 * nu * (nu + 1.0))


def x_star(nu: float, gamma: float) -> float:
    """Threshold ``(2 nu + 1)^2 / 2 + (1 - 2 nu)(nu + 1)/(1 - gamma)``.

    Above it the defect of the MAIN bound is increasing in x; the value
    may be negative, in which case it is increasing everywhere.
    """
    if not nu > -0.5:
        raise InvalidDomain(f"x_star requires nu > -1/2, got {nu}")
    if not 0.0 <= gamma < 1.0:
        raise InvalidDomain(f"x_star requires 0 <= gamma < 1, got {gamma}")
    return 0.5 * (2.0 * nu + 1.0) ** 2 + (1.0 - 2.0 * nu) * (nu + 1.0) / (1.0 - gamma)


# ----------------------------------------------------------------------
# geometric Bessel series used by LOWER1 / LOWER3
# ----------------------------------------------------------------------

#: orders covered by the first continued-fraction seed; each later block doubles
_FIRST_RATIO_BLOCK = 8
#: nu's ratio lists, keyed by x; one entry, the last nu's, so memory does not grow with the grid
_ratio_lists = lru_cache(maxsize=1)(lambda nu: {})


def geometric_tail_series(nu: float, gamma: float, x: float) -> tuple[float, int, float]:
    """``sum_{k=0}^{K-1} gamma^k I_{nu+k+1}(x)`` with a certified tail bound,
    both relative to ``I_{nu+1}(x)``.

    Returns ``(partial_sum, terms_used, tail_bound)`` as floats in units of
    ``I_{nu+1}(x)`` (the first term is 1), with ``terms_used = K``.
    Successive terms differ by the factor ``gamma r_{nu+k}``, where
    ``r_m = I_{m+1}(x)/I_m(x)`` decreases in m for m >= 0 (Amos 1974,
    Math. Comp. 28, 239-251; Segura 2011, J. Math. Anal. Appl. 374,
    516-528).  Every factor after the last term is therefore at most
    ``q = gamma r_{nu+K}``, and the tail is at most
    ``gamma^(K-1) I_{nu+K}(x) q/(1-q)``: a geometric bound that follows the
    decay of the orders, far below ``gamma^K I_{nu+1}(x)/(1-gamma)`` once
    ``x`` is small against the order.

    K grows until the tail bound drops below 1e-12 times the partial sum.
    Every term is positive, so the truncation under-estimates.  The ratios
    come in blocks of 8, 16, 32, ... orders, each from one continued
    fraction at its top order and the downward recurrence below it.  They
    depend on ``(nu, x)`` alone, so the lists of the last nu are kept and
    shared by every gamma; a list grows by a new, longer list, never in place.
    """
    if x <= 0:
        raise InvalidDomain(f"series needs x > 0, got {x}")
    if not 0.0 <= gamma < 1.0:
        raise InvalidDomain(f"series needs 0 <= gamma < 1, got {gamma}")
    if gamma == 0.0:
        return 1.0, 1, 0.0
    lists = _ratio_lists(float(nu))  # lru_cache keys an int apart from its equal float
    ratios = lists.get(x, ())  # ratios[k] = r_{nu+k+1}
    term = total = 1.0
    terms = 1
    while True:
        if terms > len(ratios):  # 8 more orders than it has: the list a lone call builds
            ratios = lists[x] = [*ratios, *kernel.besseli_ratios(
                nu + len(ratios) + 1.0, len(ratios) + _FIRST_RATIO_BLOCK, x)]
        q = gamma * ratios[terms - 1]
        tail = term * q / (1.0 - q)
        if tail <= _SERIES_TOL * total:
            return total, terms, tail
        term *= q
        total += term
        terms += 1


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

class _PerX(NamedTuple):
    """A coefficient formed at each x: ``at(x)`` is ``(c, series terms, tail share)``,
    and ``x c`` tends to ``limit`` as x -> 0."""

    at: Callable[[float], tuple[float, int, float]]
    limit: float


@dataclass(frozen=True, slots=True)
class _Entry:
    """One catalog bound ``e^-gx x^power(row) sum_i c_i I_{o_i}``: the axes it uses, its
    own hypotheses (checked after ``x > 0`` and ``0 <= gamma < 1``), its power, its one to
    three terms ``(c_i, o_i)`` (each ``c_i`` a float, or for the first a :class:`_PerX`
    form), the integral it bounds and its direction; all but the integral ignore x."""

    uses_n: bool
    uses_mu: bool
    hypothesis: Callable[[Point], Optional[str]]
    power: Callable[[Point], float]
    terms: Callable[[Point], tuple[tuple[float | _PerX, float], ...]]
    integrand: Callable[[Point], IntegralSpec]
    direction_at: Callable[[Point], Direction]

    def reasons(self, row: Point, xs: Iterable[float]) -> Iterator[Optional[str]]:
        """The first violated hypothesis, or None inside the domain, at each x of
        ``xs`` in ``row``: gamma and the bound's own hypotheses are checked once,
        ``x > 0`` per x."""
        ok = 0.0 <= row.gamma < 1.0
        reason = self.hypothesis(row) if ok else f"0 <= gamma < 1 (got gamma={row.gamma})"
        return (reason if x > 0 else f"x > 0 (got x={x})" for x in xs)


def _upper(p: Point) -> Direction:
    return Direction.UPPER


def _lower(p: Point) -> Direction:
    return Direction.LOWER


def _combination(gamma: float, power: float, *terms: tuple[Optional[float], float]):
    """The step of ``e^-gx x^power sum_i c_i I_{o_i}`` for one to three ``terms``
    ``(c_i, o_i)``: ``math.fsum`` adds the terms relative to the largest ``I_i``.
    A ``c_i`` of None (the first term's only) is formed per x and passed as the
    step's ``c``.  A term whose ``c_i sign(I_i)`` is 0 drops out: its log is -inf
    in the max, it adds an exact 0 to the fsum, and its ``I_i`` is not formed
    when ``c_i`` is 0.  One term gives ``log I + log|c|``, the fsum's bits.  A log
    prefactor of NaN or +inf raises (-inf is an underflow to zero); after it, a
    coefficient that is not finite raises, once the ``I`` of each term before it is
    formed, the :class:`InvalidDomain` that a ScaledValue made from it would."""
    (c0, o0), *rest = terms
    rest = [(a, order) for a, order in rest if a]
    cut = next((k for k, (a, _) in enumerate(rest) if not math.isfinite(a)), len(rest))
    bad = rest[cut][0] if cut < len(rest) else None  # no term past it is reached
    (c1, o1), (c2, o2) = rest[:cut] + [(0.0, o0)] * (2 - cut)  # a 0 pads to three

    def step(x: float, c: Optional[float] = c0):
        pre = -gamma * x + power * math.log(x)
        if math.isnan(pre) or pre == math.inf:
            raise InvalidDomain(f"non-finite log magnitude {pre!r}")
        if not math.isfinite(c):
            raise InvalidDomain(f"cannot represent {c!r} as a ScaledValue")
        i = kernel.besseli(o0, x) if c else _ZERO
        if not rest:
            sign = i.sign if c > 0 else -i.sign
            return sign, pre + i.log_abs + math.log(abs(c)) if sign else -math.inf, 0, 0.0
        j, k = kernel.besseli(o1, x) if c1 else _ZERO, kernel.besseli(o2, x) if c2 else _ZERO
        if bad is not None:
            raise InvalidDomain(f"cannot represent {bad!r} as a ScaledValue")
        s0, s1, s2 = c * i.sign, c1 * j.sign, c2 * k.sign
        l0, l1, l2 = (i.log_abs if s0 else -math.inf, j.log_abs if s1 else -math.inf,
                      k.log_abs if s2 else -math.inf)
        top = max(l0, l1, l2)  # -inf when every term drops: the fsum is NaN, the sign 0
        total = math.fsum((s0 * math.exp(l0 - top), s1 * math.exp(l1 - top),
                           s2 * math.exp(l2 - top)))
        sign = (total > 0) - (total < 0)
        return sign, pre + top + math.log(abs(total)) if sign else -math.inf, 0, 0.0
    return step


def _family_nu_nu(p: Point) -> IntegralSpec:
    return IntegralSpec(p.nu, p.nu, p.gamma, p.x)


def _family_nu_nun(p: Point) -> IntegralSpec:
    return IntegralSpec(p.nu, p.nu + p.n, p.gamma, p.x)


def _nu_gt(threshold: float):
    def hypothesis(p: Point) -> Optional[str]:
        return None if p.nu > threshold else f"nu > {threshold} (got nu={p.nu})"
    return hypothesis


# -- constant-times-I bounds for F(nu, nu) ------------------------------

def _i_nu1_terms(num: Callable[[float], float]):
    """Terms of ``num(nu)/((2 nu+1)(1-g)) I_{nu+1}`` (MAIN, SIMPLE, GAU1)."""
    return lambda p: ((num(p.nu) / ((2.0 * p.nu + 1.0) * (1.0 - p.gamma)), p.nu + 1.0),)


def _baaad_terms(p: Point):
    d = (2.0 * p.nu + 1.0) * (1.0 - p.gamma)
    return (2.0 * (p.nu + 1.0) / d, p.nu + 1.0), (-1.0 / d, p.nu + 3.0)


def _ok_halfplus(p: Point) -> Optional[str]:
    if p.nu >= 0.5 or (p.gamma == 0.0 and p.nu > -0.5):
        return None
    return f"nu >= 1/2, or nu > -1/2 with gamma = 0 (got nu={p.nu}, gamma={p.gamma})"


# -- generalized-order bounds for F(nu, nu+n) ---------------------------
# (nu + n + 1 and 2 nu + n + 1 cancel near n = -1 and are rounded once: n + 1 is
# exact there, and the fsum is scaled by 1/4 so that it cannot overflow)

def _ok_lower4(p: Point) -> Optional[str]:
    if not p.n > -1.0:
        return f"n > -1 (got n={p.n})"
    if not p.nu > -(p.n + 1.0) / 2.0:
        return f"nu > -(n+1)/2 (got nu={p.nu}, n={p.n})"
    return None


def _new1_regime(p: Point) -> tuple[Direction, Optional[str]]:
    if p.gamma == 0.0 and p.n == -1.0:
        if not p.nu > 0.0:
            return Direction.EQUALITY, f"nu > 0 at the equality point (got nu={p.nu})"
        return Direction.EQUALITY, None
    if p.gamma == 0.0 and -3.0 < p.n < -1.0:
        if not p.nu > -(p.n + 1.0):
            return Direction.REVERSED, (
                f"nu > -(n+1) in the reversed regime (got nu={p.nu}, n={p.n})")
        return Direction.REVERSED, None
    reason = _ok_lower4(p)
    if reason is None and p.gamma != 0.0 and not p.nu >= 0.5:
        reason = f"nu >= 1/2 when gamma > 0 (got nu={p.nu})"
    return Direction.UPPER, reason


def _new1_terms(p: Point):
    a, s = p.nu + (p.n + 1.0), 4.0 * math.fsum((0.5 * p.nu, 0.25 * p.n, 0.25))
    return ((2.0 * a / s / (1.0 - p.gamma), p.nu + p.n + 1.0),
            (-(p.n + 1.0) / s / (1.0 - p.gamma), p.nu + p.n + 3.0))


def _lower4_terms(p: Point):
    a, s = p.nu + (p.n + 1.0), 4.0 * math.fsum((0.5 * p.nu, 0.25 * p.n, 0.25))
    s3 = 2.0 * p.nu + p.n + 3.0
    return ((2.0 * a / s, p.nu + p.n + 1.0),
            (-2.0 * (p.n + 1.0) * (p.nu + p.n + 3.0) / s3 / s, p.nu + p.n + 3.0),
            ((p.n + 1.0) * (p.n + 3.0) / s3 / s, p.nu + p.n + 5.0))


def _ok_gamma_zero(p: Point) -> Optional[str]:
    """The TWOSIDED hypotheses: LOWER4's, at gamma = 0 only."""
    if p.gamma != 0.0:
        return f"gamma = 0 (got gamma={p.gamma})"
    return _ok_lower4(p)


# -- series lower bounds -------------------------------------------------

def _series_terms(p: Point):
    """``sum_k g^k I_{nu+k+1}`` (LOWER1, LOWER3): its total relative to ``I_{nu+1}``."""
    def at(x: float):
        total, terms, tail = geometric_tail_series(p.nu, p.gamma, x)
        return total, terms, tail / total
    return (_PerX(at, 0.0), p.nu + 1.0),


def _lower1_direction(p: Point) -> Direction:
    # at gamma = 0 the series collapses to I_{nu+1} and
    # d/dt (t^(nu+1) I_{nu+1}(t)) = t^(nu+1) I_nu(t) makes it exact
    return Direction.EQUALITY if p.gamma == 0.0 else Direction.LOWER


# -- reciprocal-x corrected lower bounds ---------------------------------

def _bracket_terms(p: Point):
    """``(1 - num/(den x)) I_nu/(1-g)`` (INTINEQ0, LOWER2); ``x c`` tends to ``-num/den/(1-g)``."""
    nu2, c = 2.0 * p.nu, c_nu(p.nu - 1.0)
    num, den = nu2 * (nu2 + c), (nu2 - 1.0) * (1.0 - p.gamma)
    if num == math.inf:  # past nu ~ 1e154 only the ratios of the factors are finite
        num, den = nu2 / (nu2 - 1.0) * ((nu2 + c) / (1.0 - p.gamma)), 1.0

    def at(x: float):  # a den x that underflows to 0 gives an infinite bracket
        return (1.0 - num / (den * x)) / (1.0 - p.gamma) if den * x else math.inf, 0, 0.0
    return (_PerX(at, -num / den / (1.0 - p.gamma)), p.nu),


# -- remaining individual bounds -----------------------------------------

def _ok_prop1(p: Point) -> Optional[str]:
    if p.mu is None:
        return "mu must be supplied"
    if not (p.mu >= p.nu >= 0.5):
        return f"mu >= nu >= 1/2 (got mu={p.mu}, nu={p.nu})"
    return None


def _need2_terms(p: Point):
    """``(a/x + g)/d I_{nu+1} + (g^2/d) I_{nu+2}``; ``x c`` tends to ``a/d``."""
    d = 2.0 * p.nu + 1.0
    a, g2 = 2.0 * (p.nu + 1.0), p.gamma * p.gamma / d
    return ((_PerX(lambda x: ((a / x + p.gamma) / d, 0, 0.0), a / d), p.nu + 1.0),
            (g2, p.nu + 2.0))


def _ok_day(p: Point) -> Optional[str]:
    if not p.n > -3.0:
        return f"n > -3 (got n={p.n})"
    if not p.nu > -(p.n + 3.0) / 2.0:
        return f"nu > -(n+3)/2 (got nu={p.nu}, n={p.n})"
    return None


_NEW1 = _Entry(True, False, lambda p: _new1_regime(p)[1], _nu, _new1_terms, _family_nu_nun,
               lambda p: _new1_regime(p)[0])
_LOWER4 = _Entry(True, False, _ok_lower4, _nu, _lower4_terms, _family_nu_nun, _lower)
_LOWER2 = _Entry(False, False, _nu_gt(0.5), _nu, _bracket_terms, _family_nu_nu, _lower)

CATALOG: dict[BoundId, _Entry] = {
    BoundId.MAIN: _Entry(False, False, _nu_gt(-0.5), _nu,
                         _i_nu1_terms(lambda nu: 2.0 * (nu + 1.0) + c_nu(nu)),
                         _family_nu_nu, _upper),
    BoundId.SIMPLE: _Entry(False, False, _nu_gt(-0.5), _nu,
                           _i_nu1_terms(lambda nu: 2.0 * nu + 3.0), _family_nu_nu, _upper),
    BoundId.GAU1: _Entry(False, False, _ok_halfplus, _nu,
                         _i_nu1_terms(lambda nu: 2.0 * (nu + 1.0)), _family_nu_nu, _upper),
    BoundId.BAAAD: _Entry(False, False, _ok_halfplus, _nu, _baaad_terms, _family_nu_nu, _upper),
    BoundId.NEW1: _NEW1,
    BoundId.LOWER4: _LOWER4,
    BoundId.TWOSIDED_L: replace(_LOWER4, hypothesis=_ok_gamma_zero),
    BoundId.TWOSIDED_U: replace(_NEW1, hypothesis=_ok_gamma_zero, direction_at=_upper),
    BoundId.LOWER1: _Entry(
        False, False, _nu_gt(-1.0), lambda p: p.nu + 1.0, _series_terms,
        lambda p: IntegralSpec(p.nu + 1.0, p.nu, p.gamma, p.x), _lower1_direction),
    BoundId.LOWER3: _Entry(False, False, _nu_gt(-0.5), _nu, _series_terms, _family_nu_nu, _lower),
    BoundId.INTINEQ0: replace(
        _LOWER2, integrand=lambda p: IntegralSpec(p.nu, p.nu + 1.0, p.gamma, p.x)),
    BoundId.LOWER2: _LOWER2,
    BoundId.PROP1: _Entry(
        False, True, _ok_prop1, lambda p: p.mu, lambda p: ((1.0 / (1.0 - p.gamma), p.nu),),
        lambda p: IntegralSpec(p.mu, p.nu, p.gamma, p.x), _upper),
    BoundId.NEED2: _Entry(False, False, _nu_gt(-0.5), lambda p: p.nu + 1.0, _need2_terms,
                          _family_nu_nu, _upper),
    BoundId.DAY: _Entry(
        True, False, _ok_day, _nu, lambda p: ((1.0, p.nu + p.n + 3.0),),
        lambda p: IntegralSpec(p.nu, p.nu + p.n + 2.0, p.gamma, p.x), _lower),
}


def check_row(id: BoundId, row: Point, xs: Iterable[float]) -> None:
    """Raise InvalidDomain at the first x of ``xs`` outside ``id``'s hypotheses at ``row``."""
    for reason in CATALOG[id].reasons(row, xs):
        if reason is not None:
            raise InvalidDomain(f"{id.value}: violated hypothesis: {reason}")


def _row_combination(id: BoundId, entry: _Entry, row: Point):
    """The step of ``entry``'s declared power and terms along ``row`` (see :func:`row_step`)."""
    if entry.uses_mu and row.mu is None:
        raise InvalidDomain(f"{id.value}: mu must be supplied")
    gamma, power, terms = row.gamma, entry.power(row), entry.terms(row)
    form, order = terms[0]
    if not isinstance(form, _PerX):
        return _combination(gamma, power, *terms)
    combination, at = _combination(gamma, power, (None, order), *terms[1:]), form.at

    def per_x(x: float) -> tuple[int, float, int, float]:
        c, terms, share = at(x)  # where c is not finite, one 1/x goes into the power
        sign, log, _, _ = (combination(x, c) if math.isfinite(c) else
                           _combination(gamma, power - 1.0, (form.limit, order))(x))
        return sign, log, terms, share
    return per_x


def row_step(id: BoundId, row: Point) -> Callable[[float], tuple[int, float, int, float]]:
    """``id`` along the (nu, n, mu, gamma) row ``row`` without its hypotheses (see
    :func:`check_row`): ``x -> (sign, log, series terms, tail share)``, zero as
    ``(0, 0.0, terms, share)``, built at the first x from the entry's power and terms
    (so a row that raises does so at every x).  ``x <= 0``, outside the integral's
    domain, a missing mu and a division by zero raise InvalidDomain naming ``id``."""
    entry, evaluate = CATALOG[id], None

    def step(x: float) -> tuple[int, float, int, float]:
        nonlocal evaluate
        if not x > 0:
            raise InvalidDomain(f"{id.value}: the integral needs x > 0 (got x={x})")
        try:
            evaluate = evaluate or _row_combination(id, entry, row)
            sign, log, terms, share = evaluate(x)
        except ZeroDivisionError:  # e.g. gamma = 1 off the hypotheses, or a divisor underflows
            raise InvalidDomain(f"{id.value}: the closed form divides by zero here") from None
        return (sign, log, terms, share) if sign and log > -math.inf else (0, 0.0, terms, share)
    return step


def bound_value(id: BoundId, nu: float, n: float = 0.0, mu: Optional[float] = None,
                gamma: float = 0.0, x: float = 1.0) -> BoundEval:
    """One catalog bound at a parameter point inside its hypotheses: :func:`check_row`,
    then one :func:`row_step` step.  Violated hypotheses raise :class:`InvalidDomain`."""
    point = Point(nu, n, mu, gamma, x)
    check_row(id, point, (x,))
    return BoundEval(*row_step(id, point)(x), CATALOG[id].direction_at(point))


# ----------------------------------------------------------------------
# Stein-factor products M_{nu,beta,n}
# ----------------------------------------------------------------------

def m_value(nu: float, beta: float, n: int, x: float) -> ScaledValue:
    """``e^(-beta x) K_{nu+n}(x) x^(1-nu) integral_0^x e^(beta t) t^nu I_nu(t) dt``.

    The exponential tilt ``beta`` lies in (-1, 0]; the integral is the
    family member with ``gamma = -beta``.
    """
    if not nu > -0.5:
        raise InvalidDomain(f"m_value requires nu > -1/2, got {nu}")
    if not -1.0 < beta <= 0.0:
        raise InvalidDomain(f"m_value requires -1 < beta <= 0, got {beta}")
    if n not in (0, 1, 2):
        raise InvalidDomain(f"m_value requires n in {{0, 1, 2}}, got {n}")
    if not x > 0:
        raise InvalidDomain(f"m_value requires x > 0, got {x}")
    integral = bessel_integral(IntegralSpec(nu, nu, -beta, x)).value
    pre = ScaledValue.from_log(-beta * x + (1.0 - nu) * math.log(x))
    return pre * kernel.besselk(nu + n, x) * integral


def m_bound_constant(nu: float, beta: float, n: int) -> float:
    """Uniform-in-x upper bound for ``m_value`` at the same parameters."""
    if not nu > -0.5:
        raise InvalidDomain(f"m_bound_constant requires nu > -1/2, got {nu}")
    if not -1.0 < beta <= 0.0:
        raise InvalidDomain(f"m_bound_constant requires -1 < beta <= 0, got {beta}")
    denom = (2.0 * nu + 1.0) * (1.0 + beta)
    if n == 2:
        return (2.0 * (nu + 1.0) + c_nu(nu)) / denom
    if n in (0, 1):
        return (nu + 1.0 + c_nu(nu) / 2.0) / denom
    raise InvalidDomain(f"m_bound_constant requires n in {{0, 1, 2}}, got {n}")
