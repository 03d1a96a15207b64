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

``K_nu(x)`` integrates ``e^{-x cosh t} cosh(nu t)`` over ``[0, inf)`` with
the trapezoidal rule and step halving; the integrand decays doubly
exponentially, which makes the trapezoid sum spectrally accurate.  The
tail is truncated once the integrand falls 760 nats below its peak.

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
    "asym_small",
    "asym_large",
    "gamma_sign",
    "log_gamma",
    "is_nonpositive_int",
    "ACCURACY_SMALL_X",
    "ACCURACY_LARGE_X",
]

#: advertised relative accuracy of besseli/besselk for x <= 50 and order in
#: (-1, 60), the orders the catalog reaches (worst measured 1.1e-13); far
#: larger orders lose more, e.g. 9.8e-12 at besseli(4750.77, 1.1208), whose
#: log magnitude of -38 226 alone costs 4e-12 in a double
ACCURACY_SMALL_X = 1e-12
#: advertised relative accuracy for x <= 1000, over the same orders
ACCURACY_LARGE_X = 1e-10

_SERIES_SWITCH = 18.5
#: most terms the I power series may use
_SERIES_TERMS = 20000
#: relative tolerance of the K trapezoid sums
_K_TOL = 1e-13
#: most continued-fraction steps of besseli_ratio
_RATIO_TERMS = 100_000
_LOG2 = math.log(2.0)
#: unit roundoff of IEEE double arithmetic
_U = 2.0 ** -53
#: a frame value past this is rescaled by an exact power of two
_FRAME_MAX = 2.0 ** 500


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
    t = s = a = 1.0
    shift = 0
    for k, ratio in enumerate(factors):
        c = order + k + 1.0
        q = x2_4 / ((k + 1) * c)
        if c > 0.0 and q < 1.0:
            tail = abs(t) * q / (1.0 - q)
            if tail <= _U * abs(s):
                return s, a, tail, shift, k + 1
        t *= q * ratio
        s += t
        a += abs(t)
        if abs(t) > _FRAME_MAX:
            t, e = math.frexp(t)
            s, a, shift = math.ldexp(s, -e), math.ldexp(a, -e), shift + e
    return None


def _besseli_series(order: float, x: float) -> ScaledValue:
    summed = power_series_sum(order, 0.25 * x * x, itertools.repeat(1.0, _SERIES_TERMS))
    if summed is None:
        raise NonConvergence(f"I power series stalled at order={order}, x={x}")
    s, _, _, shift, _ = summed
    log_t0 = order * (math.log(x) - _LOG2) - log_gamma(order + 1.0)  # x/2 may underflow
    sign = gamma_sign(order + 1.0) * (1 if s > 0 else -1)
    return ScaledValue.from_log(math.log(abs(s)) + shift * _LOG2 + log_t0, sign)


def _asym_series_log(nu: float, x: float) -> tuple[float, float]:
    """Log of the large-argument expansion at small |nu|, with error estimate.

    Returns ``(log I_nu(x), est)`` where ``est`` bounds the relative
    truncation error by the first omitted term.
    """
    four_nu2 = 4.0 * nu * nu
    s = 1.0
    c = 1.0
    prev = math.inf
    est = math.inf
    for k in range(60):
        c *= ((2 * k + 1) ** 2 - four_nu2) / (8.0 * (k + 1) * x)
        if abs(c) >= prev:
            est = prev / s  # series started diverging; stop at its minimum
            break
        s += c
        prev = abs(c)
        if prev <= 1e-18 * s:
            est = prev / s
            break
    else:
        est = prev / s
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(s), est


def _besseli_large(order: float, x: float) -> ScaledValue:
    # reduce to an anchor order in [-1/2, 1/2) where the expansion is sharpest
    m = int(math.floor(order + 0.5))
    frac = order - m
    log_anchor, est = _asym_series_log(frac, x)
    if est > 1e-13:
        # cannot certify the expansion here; the series always can
        return _besseli_series(order, x)
    if m == 0:
        return ScaledValue.from_log(log_anchor)
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


def _log_cosh(u: float) -> float:
    u = abs(u)
    if u == 0.0:
        return 0.0
    return u - _LOG2 + math.log1p(math.exp(-2.0 * u))


@lru_cache(maxsize=250000)
def besselk(order: float, x: float) -> ScaledValue:
    """Modified Bessel function of the second kind; even in the order."""
    if x <= 0:
        raise InvalidDomain(f"besselk requires x > 0, got {x}")
    nu = abs(order)  # K_{-nu} = K_nu
    peak_t = math.asinh(nu / x) if nu > 0 else 0.0

    def log_g(t: float) -> float:
        # integrand scaled by e^x:  -x (cosh t - 1) + log cosh(nu t)
        sh = math.sinh(0.5 * t)
        return -2.0 * x * sh * sh + _log_cosh(nu * t)

    def trap_log_sum(h: float) -> float:
        logs = [-_LOG2]  # t = 0 carries half weight, log g(0) = 0
        mx = 0.0
        t = h
        while True:
            lg = log_g(t)
            if lg > mx:
                mx = lg
            logs.append(lg)
            if t > peak_t and lg < mx - 760.0:
                break
            t += h
        return mx + math.log(math.fsum(math.exp(v - mx) for v in logs)) + math.log(h)

    h = 0.5
    prev = trap_log_sum(h)
    for _ in range(12):
        h *= 0.5
        cur = trap_log_sum(h)
        # past log 128 the sums' own spacing exceeds the tolerance
        if abs(math.expm1(prev - cur)) <= max(0.25 * _K_TOL, math.ulp(cur)):
            return ScaledValue.from_log(cur - x)
        prev = cur
    raise NonConvergence(f"K quadrature stalled at order={order}, x={x}")


def besseli_ratio(nu: float, x: float) -> float:
    """The ratio ``I_{nu+1}(x) / I_nu(x)``.

    Strictly increasing in x, bounded by ``x/(nu+1/2+x)`` for nu > -1/2.
    It takes about ``6 sqrt(x)`` steps: NonConvergence past x ~ 2.8e8.
    """
    if x <= 0:
        raise InvalidDomain(f"besseli_ratio requires x > 0, got {x}")
    if nu < -0.5:
        raise InvalidDomain(f"besseli_ratio requires nu >= -1/2, got {nu}")
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
    ``r_{m-1} = 1/(2m/x + r_m)``, the stable direction for I.
    """
    r = besseli_ratio(lo + count - 1, x)
    block = [r]
    for i in range(count - 1, 0, -1):
        r = 1.0 / (2.0 * (lo + i) / x + r)
        block.append(r)
    block.reverse()
    return block


def asym_small(order: float, x: float) -> float:
    """Two-term small-argument approximant ``(x/2)^nu/Gamma(nu+1) * (1 + x^2/(4(nu+1)))``."""
    if order < 0 and order == math.floor(order):
        raise InvalidOrder(f"negative integer order {order} is not supported")
    if x == 0.0:
        if order < 0:
            raise InvalidDomain(f"I_nu(0) diverges for negative order {order}")
        return 1.0 if order == 0 else 0.0
    lead = math.exp(order * (math.log(x) - _LOG2) - log_gamma(order + 1.0)) * gamma_sign(order + 1.0)
    return lead * (1.0 + x * x / (4.0 * (order + 1.0)))


def asym_large(order: float, x: float) -> ScaledValue:
    """Two-term large-argument approximant ``e^x/sqrt(2 pi x) * (1 - (4 nu^2 - 1)/(8x))``."""
    if x <= 0:
        raise InvalidDomain(f"asym_large requires x > 0, got {x}")
    factor = 1.0 - (4.0 * order * order - 1.0) / (8.0 * x)
    lead = ScaledValue.from_log(x - 0.5 * math.log(2.0 * math.pi * x))
    return lead * ScaledValue.from_float(factor)
