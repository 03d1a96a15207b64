"""Overflow-safe modified Bessel functions of real order.

Evaluation strategy for ``I_nu(x)``:

* ``x <= max(18.5, 2|nu|)`` -- ascending power series
  ``I_nu(x) = sum_k (x/2)^(nu+2k) / (k! Gamma(nu+k+1))``, summed by
  :func:`power_series_sum` (which also sums the oracle's integral series)
  in a float frame with one log anchor at ``k = 0`` and stopped on a
  certified tail.  For ``nu < -1`` the head terms alternate in sign and
  go through the same signed term ratios.
* larger ``x`` -- the large-argument expansion
  ``I_nu(x) ~ e^x/sqrt(2 pi x) * sum_k (-1)^k a_k(nu) x^-k`` evaluated at
  the order reduced to ``[-1/2, 1/2)`` where it converges fastest, then
  rescaled to the requested order by the ratios of :func:`besseli_ratios`
  (a continued fraction at the top order, then the backward recurrence,
  the stable direction for I).  Orders below -1/2 go through the
  reflection ``I_{-mu} = I_mu + (2/pi) sin(mu pi) K_mu`` (DLMF 10.27.2).

``K_nu(x)`` (even in nu) reduces the order to ``mu = nu - round(nu)`` in
``[-1/2, 1/2)`` and gets ``K_mu`` and ``K_{mu+1}`` from Temme's series for
``x <= 2`` (J. Comput. Phys. 19, 324, 1975) or Steed's continued fraction
CF2 above (Thompson and Barnett, J. Comput. Phys. 64, 490, 1986), as in
Numerical Recipes section 6.6.  The forward recurrence
``K_{mu+k+1} = (2(mu+k)/x) K_{mu+k} + K_{mu+k-1}``, whose terms are all
positive, climbs to nu in a float frame rescaled by powers of two; CF2
carries ``e^{-x}`` as a log term, so x reaches 1e300.  Orders past
``_RATIO_TERMS`` (1e5) skip the recurrence for Debye's uniform expansion.

Every function here is pure; results depend only on the arguments.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import InvalidDomain, InvalidOrder, NonConvergence
from .scaled import ScaledValue

__all__ = [
    "besseli",
    "besselk",
    "besseli_ratio",
    "besseli_ratios",
    "power_series_sum",
    "gamma_sign",
    "log_gamma",
    "is_nonpositive_int",
    "ACCURACY_SMALL_X",
    "ACCURACY_LARGE_X",
]

#: advertised relative accuracy of besseli/besselk for x <= 50 and order in
#: (-1, 60), the orders the catalog reaches (worst measured 1.1e-13 for
#: besseli, 8.5e-14 for besselk over 5 000 random draws against mpmath, and
#: 5.7e-14 for besselk above x = 50); far larger orders lose more, e.g. 9.8e-12 at besseli(4750.77, 1.1208), whose log magnitude
#: of -38 226 alone costs 4e-12 in a double.  Past order 1e5 besselk's log is
#: rounded once from 40-digit arithmetic, within about half an ulp of log K
ACCURACY_SMALL_X = 1e-12
#: advertised relative accuracy for x <= 1000, over the same orders
ACCURACY_LARGE_X = 1e-10

_SERIES_SWITCH = 18.5
#: most terms Temme's K series or CF2 may use, and the I power series past its peak
_SERIES_TERMS = 20000
#: most continued-fraction steps of besseli_ratio, and most K recurrence steps
_RATIO_TERMS = 100_000
_LOG2 = math.log(2.0)
#: log 2 split so that ``k * _LOG2_HI`` is exact for |k| < 2^20
_LOG2_HI = 6.93147180369123816490e-01
_LOG2_LO = 1.90821492927058770002e-10
#: unit roundoff of IEEE double arithmetic
_U = 2.0 ** -53
#: a frame value past this is rescaled by an exact power of two
_FRAME_MAX = 2.0 ** 500
#: Taylor coefficients c_1..c_22 of 1/Gamma(z) = sum c_k z^k (DLMF 5.7.1),
#: odd and even k; terms past c_22 are below 1e-20 at |z| = 1/2
_RGAMMA_ODD = (
    1.0, -0.6558780715202539, 0.16653861138229148, -0.009621971527876973,
    -0.0011651675918590652, 0.0001280502823881162, -1.2504934821426706e-06,
    -2.056338416977607e-07, 5.002007644469223e-09, 1.0434267116911005e-10,
    -3.696805618642206e-12,
)
_RGAMMA_EVEN = (
    0.5772156649015329, -0.04200263503409524, -0.04219773455554433,
    0.0072189432466631, -0.00021524167411495098, -2.013485478078824e-05,
    1.133027231981696e-06, 6.116095104481416e-09, -1.18127457048702e-09,
    7.782263439905071e-12, 5.100370287454476e-13,
)


def gamma_sign(a: float) -> int:
    """Sign of Gamma(a) for non-pole a."""
    if a > 0:
        return 1
    return -1 if math.floor(a) % 2 else 1


def log_gamma(a: float) -> float:
    """``log |Gamma(a)|``; :class:`InvalidOrder` where it overflows (a > ~2.5e305)."""
    try:
        return math.lgamma(a)
    except OverflowError:
        raise InvalidOrder(f"log Gamma({a}) overflows a double") from None


def is_nonpositive_int(a: float) -> bool:
    return a <= 0 and a == math.floor(a)


def power_series_sum(order: float, x2_4: float, factors):
    """Sum a series whose term ratios are ``x2_4/((k+1)(order+k+1))`` times
    ``factors[k]``, relative to ``T_0``; None when the factors run out before
    the tail is certified.

    Every factor must lie in ``[0, 1]`` once ``order + k + 1 > 0``, so that
    ``q = x2_4/((K+1)(order+K+1))`` bounds every later term ratio and the
    tail after term K is at most ``T_K q/(1-q)``.  Terms are added until
    that tail is below one rounding unit of the sum.  ``factors`` is any
    iterable; its length caps the number of terms.

    Returns ``(sum, sum of |T_k|, certified tail, frame exponent, terms)``:
    the first three are in units of ``T_0 * 2^frame_exponent``.
    """
    t = s = a = abs_t = 1.0
    shift = 0
    if order > -1.0:  # every term is >= 0: the loop below without abs, same floats (a = s)
        for k, ratio in enumerate(factors):
            q = x2_4 / ((k + 1) * (order + k + 1.0))
            if q < 1.0 and (tail := t * q / (1.0 - q)) <= _U * s:
                return s, s, tail, shift, k + 1
            t *= q * ratio
            s += t
            if t > _FRAME_MAX:
                t, e = math.frexp(t)
                s, shift = math.ldexp(s, -e), shift + e
        return None
    for k, ratio in enumerate(factors):
        c = order + k + 1.0
        q = x2_4 / ((k + 1) * c)
        if q < 1.0 and c > 0.0:
            tail = abs_t * q / (1.0 - q)
            if tail <= _U * abs(s):
                return s, a, tail, shift, k + 1
        t *= q * ratio
        s += t
        a += (abs_t := abs(t))
        if abs_t > _FRAME_MAX:
            t, e = math.frexp(t)
            s, a, shift, abs_t = math.ldexp(s, -e), math.ldexp(a, -e), shift + e, abs(t)
    return None


def _besseli_series(order: float, x: float) -> ScaledValue:
    # run past the largest term, near (hypot(order, x) - order)/2, up to a million terms
    cap = int(min(1e6, 0.5 * (math.hypot(order, x) - order))) + _SERIES_TERMS
    summed = power_series_sum(order, 0.25 * x * x, itertools.repeat(1.0, cap))
    if summed is None:
        raise NonConvergence(f"I power series stalled at order={order}, x={x}")
    s, _, _, shift, _ = summed
    log_t0 = order * (math.log(x) - _LOG2) - log_gamma(order + 1.0)  # x/2 may underflow
    sign = gamma_sign(order + 1.0) * (1 if s > 0 else -1)
    return ScaledValue.from_log(math.log(abs(s)) + shift * _LOG2 + log_t0, sign)


def _asym_series_log(nu: float, x: float) -> float:
    """``log I_nu(x)`` from the large-argument expansion, for |nu| <= 1/2.

    The sum stops at its smallest term or below 1e-18 of the sum.  For
    x > 18.5 the smallest term is about e^(-2x) < 1e-16, so the truncation
    error stays far below the advertised accuracy.
    """
    four_nu2 = 4.0 * nu * nu
    s = c = 1.0
    prev = math.inf
    for k in range(60):
        c *= ((2 * k + 1) ** 2 - four_nu2) / (8.0 * (k + 1) * x)
        if abs(c) >= prev:
            break  # the series started diverging; stop at its minimum
        s += c
        prev = abs(c)
        if prev <= 1e-18 * s:
            break
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(s)


def _besseli_large(order: float, x: float) -> ScaledValue:
    # reduce to an anchor order in [-1/2, 1/2) where the expansion is sharpest
    m = int(math.floor(order + 0.5))
    frac = order - m
    log_anchor = _asym_series_log(frac, x)
    if m == 0:
        return ScaledValue.from_log(log_anchor)
    if m > _RATIO_TERMS:
        raise NonConvergence(f"order {order} needs more than {_RATIO_TERMS} I ratios")
    # I_order / I_frac is the product of the m ratios from frac upwards
    log_prod = math.fsum(map(math.log, besseli_ratios(frac, m, x)))
    return ScaledValue.from_log(log_anchor + log_prod)


@lru_cache(maxsize=250000)
def besseli(order: float, x: float) -> ScaledValue:
    """Modified Bessel function of the first kind, as a :class:`ScaledValue`.

    ``x = 0`` returns the series limit (1 for order 0, 0 for positive
    order).  Negative integer orders are rejected: the power series is
    undefined there and nothing in this package needs them.
    """
    if x < 0:
        raise InvalidDomain(f"besseli requires x >= 0, got {x}")
    if not abs(order) < math.inf:
        raise InvalidDomain(f"besseli requires a finite order, got {order}")
    if order < 0 and order == math.floor(order):
        raise InvalidOrder(f"negative integer order {order} is not supported")
    if x == 0.0:
        if order == 0:
            return ScaledValue.one()
        if order > 0:
            return ScaledValue.zero()
        raise InvalidDomain(f"I_nu(0) diverges for negative order {order}")
    if x <= max(_SERIES_SWITCH, 2.0 * abs(order)):
        return _besseli_series(order, x)
    if order >= -0.5:
        return _besseli_large(order, x)
    # reflection: I_{-mu} = I_mu + (2/pi) sin(mu pi) K_mu
    mu = -order
    base = _besseli_large(mu, x)
    corr = besselk(mu, x) * ScaledValue.from_float((2.0 / math.pi) * math.sin(math.pi * mu))
    return base + corr


def _besselk_temme(mu: float, x: float) -> tuple[float, float]:
    """``(K_mu(x), (x/2) K_{mu+1}(x))`` by Temme's series, for |mu| <= 1/2 and
    0 < x <= 2 (Numerical Recipes 3rd ed., section 6.6)."""
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < _U else pimu / math.sin(pimu)
    d = _LOG2 - math.log(x)  # -log(x/2); x/2 may underflow
    e = mu * d
    fact2 = 1.0 if abs(e) < _U else math.sinh(e) / e
    # gam1 = (1/Gamma(1-mu) - 1/Gamma(1+mu))/(2 mu), gam2 = (1/Gamma(1-mu) +
    # 1/Gamma(1+mu))/2: even series in mu, so neither cancels near mu = 0
    m2 = mu * mu
    gam1 = gam2 = 0.0
    for even, odd in zip(reversed(_RGAMMA_EVEN), reversed(_RGAMMA_ODD)):
        gam1 = gam1 * m2 - even
        gam2 = gam2 * m2 + odd
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    e = math.exp(e)
    p = 0.5 * e / (gam2 - mu * gam1)  # gam2 -+ mu gam1 = 1/Gamma(1 +- mu)
    q = 0.5 / (e * (gam2 + mu * gam1))
    c = 1.0
    x2_4 = 0.25 * x * x
    k_mu, k_mu1 = ff, p
    for i in range(1, _SERIES_TERMS):
        ff = (i * ff + p + q) / (i * i - m2)
        c *= x2_4 / i
        p /= i - mu
        q /= i + mu
        term = c * ff
        k_mu += term
        k_mu1 += c * (p - i * ff)
        if abs(term) < _U * k_mu:
            return k_mu, k_mu1
    raise NonConvergence(f"K Temme series stalled at mu={mu}, x={x}")


def _besselk_steed(mu: float, x: float) -> tuple[float, float]:
    """``(K_mu(x), K_{mu+1}(x))`` in units of ``sqrt(pi/(2x)) e^-x`` by Steed's
    continued fraction CF2, for |mu| <= 1/2 and x > 2 (Thompson and Barnett
    1986)."""
    b = 2.0 * (1.0 + x)
    d = h = delh = 1.0 / b
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(1, _SERIES_TERMS):
        a -= 2 * i
        c = -a * c / (i + 1.0)
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < _U * s:
            return 1.0 / s, (mu + x + 0.5 - a1 * h) / x / s
    raise NonConvergence(f"K continued fraction stalled at mu={mu}, x={x}")


def _besselk_debye_log(nu: float, x: float) -> float:
    """``log K_nu(x)`` by Debye's uniform expansion through ``U_3``
    (DLMF 10.41.4, 10.41.10), for nu > 1e5, where the first omitted term
    ``U_4(p)/nu^4`` is below 1e-20.

    ``nu eta(x/nu)`` cancels terms of size nu down to ``log K``, so it is
    formed from the exact inputs in 40-digit decimal arithmetic and the
    result is rounded to a double once.
    """
    from decimal import Decimal, localcontext  # only orders past 1e5 pay the import

    r = math.hypot(1.0, x / nu)  # sqrt(1 + z^2)
    p = 1.0 / r
    p2 = p * p
    u1 = p * (3.0 - 5.0 * p2) / 24.0
    u2 = p2 * (81.0 - p2 * (462.0 - 385.0 * p2)) / 1152.0
    u3 = p * p2 * (30375.0 - p2 * (369603.0 - p2 * (765765.0 - 425425.0 * p2))) / 414720.0
    series = 1.0 - (u1 - (u2 - u3 / nu) / nu) / nu
    rest = math.fsum((0.5 * (math.log(math.pi / nu) - _LOG2), -0.5 * math.log(r), math.log(series)))
    with localcontext() as ctx:
        ctx.prec = 40
        v, z = Decimal(nu), Decimal(x)
        root = (v * v + z * z).sqrt()
        return float(Decimal(rest) - root - v * (z / (v + root)).ln())


@lru_cache(maxsize=250000)
def besselk(order: float, x: float) -> ScaledValue:
    """Modified Bessel function of the second kind; even in the order."""
    if not 0.0 < x < math.inf:
        raise InvalidDomain(f"besselk requires finite x > 0, got {x}")
    nu = abs(order)  # K_{-nu} = K_nu
    if not nu < math.inf:
        raise InvalidDomain(f"besselk requires a finite order, got {order}")
    n = math.floor(nu + 0.5)
    if n > _RATIO_TERMS:
        return ScaledValue.from_log(_besselk_debye_log(nu, x))
    mu = nu - n
    # w_k = s^k K_{mu+k} obeys w_{k+1} = (2(mu+k)/y) w_k + s^2 w_{k-1} with
    # y = x/s; s = x/2 below the switch keeps every factor at most mu+k.  Each
    # step divides by y afresh, so no rounded 2/x compounds over n steps
    if x <= 2.0:
        w_prev, w = _besselk_temme(mu, x)
        y, s2 = 2.0, 0.25 * x * x
        shift, logs = n, [-n * math.log(x)]  # s^-n = 2^n x^-n
    else:
        w_prev, w = _besselk_steed(mu, x)
        y, s2 = x, 1.0
        shift, logs = 0, [-x, 0.5 * math.log(math.pi / (2.0 * x))]
    for k in range(1, n):
        w_prev, w = w, 2.0 * (mu + k) / y * w + s2 * w_prev
        if w > _FRAME_MAX:
            w, e = math.frexp(w)
            w_prev, shift = math.ldexp(w_prev, -e), shift + e
    return ScaledValue.from_log(math.fsum(
        [math.log(w if n else w_prev), shift * _LOG2_HI, shift * _LOG2_LO, *logs]))


def besseli_ratio(nu: float, x: float) -> float:
    """The ratio ``I_{nu+1}(x) / I_nu(x)``.

    Strictly increasing in x, bounded by ``x/(nu+1/2+x)`` for nu > -1/2.
    It takes about ``6 sqrt(x)`` steps: NonConvergence past x ~ 2.8e8.
    """
    if not 0.0 < x < math.inf:
        raise InvalidDomain(f"besseli_ratio requires finite x > 0, got {x}")
    if not -0.5 <= nu < math.inf:
        raise InvalidDomain(f"besseli_ratio requires finite nu >= -1/2, got {nu}")
    # 1/(b_1 + 1/(b_2 + ...)) with b_k = 2(nu+k)/x, by modified Lentz from
    # g = b_1; every b_k > 0, so no step can divide by zero
    g = c = 2.0 * (nu + 1.0) / x
    d = 0.0
    for k in range(2, _RATIO_TERMS):
        b = 2.0 * (nu + k) / x
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        g *= delta
        if abs(delta - 1.0) < 5e-16:
            return 1.0 / g
    raise NonConvergence(f"I ratio continued fraction stalled at nu={nu}, x={x}")


def besseli_ratios(lo: float, count: int, x: float) -> list[float]:
    """``I_{m+1}(x)/I_m(x)`` for ``m = lo, lo+1, ..., lo+count-1``.

    One continued fraction at the top order seeds the downward recurrence
    ``r_{m-1} = 1/(2m/x + r_m)``, the stable direction for I.  ``count = 0``
    gives ``[]``.
    """
    if count < 0:
        raise InvalidDomain(f"besseli_ratios requires count >= 0, got {count}")
    if count == 0:
        return []
    r = besseli_ratio(lo + count - 1, x)
    block = [r]
    for i in range(count - 1, 0, -1):
        r = 1.0 / (2.0 * (lo + i) / x + r)
        block.append(r)
    block.reverse()
    return block
