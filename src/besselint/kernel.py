"""Overflow-safe modified Bessel functions of real order.

Evaluation strategy for ``I_nu(x)``:

* ``x <= max(18.5, 2|nu|)`` -- ascending power series
  ``I_nu(x) = sum_k (x/2)^(nu+2k) / (k! Gamma(nu+k+1))`` summed in log
  space, so neither large arguments nor large orders overflow.  For
  ``nu > -1`` every term is positive; below that the finitely many
  negative terms are accumulated separately.
* larger ``x`` -- the large-argument expansion
  ``I_nu(x) ~ e^x/sqrt(2 pi x) * sum_k (-1)^k a_k(nu) x^-k`` evaluated at
  the order reduced to ``[-1/2, 1/2)`` where it converges fastest, then
  rescaled to the requested order through the continued-fraction ratio
  ``I_{nu+1}/I_nu`` and a backward ratio recurrence (the stable direction
  for I).  Orders below -1/2 go through the reflection
  ``I_{-mu} = I_mu + (2/pi) sin(mu pi) K_mu`` (DLMF 10.27.2).

``K_nu(x)`` integrates ``e^{-x cosh t} cosh(nu t)`` over ``[0, inf)`` with
the trapezoidal rule and step halving; the integrand decays doubly
exponentially, which makes the trapezoid sum spectrally accurate.  The
tail is truncated once the integrand falls 760 nats below its peak.

Every function here is pure; results depend only on the arguments.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InvalidDomain, InvalidOrder, NonConvergence
from .scaled import ScaledValue, signed_logsum

__all__ = [
    "besseli",
    "besselk",
    "besseli_ratio",
    "asym_small",
    "asym_large",
    "gamma_sign",
    "is_nonpositive_int",
    "ACCURACY_SMALL_X",
    "ACCURACY_LARGE_X",
]

#: advertised relative accuracy of besseli/besselk for x <= 50
ACCURACY_SMALL_X = 1e-12
#: advertised relative accuracy for x <= 1000
ACCURACY_LARGE_X = 1e-10

_SERIES_SWITCH = 18.5
_LOG2 = math.log(2.0)


def gamma_sign(a: float) -> int:
    """Sign of Gamma(a) for non-pole a."""
    if a > 0:
        return 1
    return -1 if math.floor(a) % 2 else 1


def is_nonpositive_int(a: float) -> bool:
    return a <= 0 and a == math.floor(a)


def _besseli_series(order: float, x: float) -> ScaledValue:
    lh = math.log(0.5 * x)
    x2_4 = 0.25 * x * x
    pos: list[float] = []
    neg: list[float] = []
    best = -math.inf
    k = 0
    while k <= 20000:
        a = order + k + 1
        if not is_nonpositive_int(a):
            lt = (order + 2 * k) * lh - math.lgamma(k + 1) - math.lgamma(a)
            (pos if gamma_sign(a) > 0 else neg).append(lt)
            if lt > best:
                best = lt
            # past the peak (term ratio < 1/2) and 40 nats down: converged
            if lt < best - 40.0 and x2_4 < 0.5 * (k + 1) * abs(a):
                return signed_logsum(pos, neg)
        k += 1
    raise NonConvergence(f"I power series stalled at order={order}, x={x}")


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


def _ratio_cf(nu: float, x: float) -> float:
    """I_{nu+1}(x)/I_nu(x) by the continued fraction, modified Lentz."""
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    k = 0
    kmax = 30000 + int(4.0 * x)
    while k < kmax:
        k += 1
        b = 2.0 * (nu + k) / x
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 5e-16:
            return f
    raise NonConvergence(f"I ratio continued fraction stalled at nu={nu}, x={x}")


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
    r = _ratio_cf(order - 1.0, x)  # I_order / I_{order-1}
    log_prod = math.log(r)
    mu = order - 1.0
    for _ in range(m - 1):
        r = 1.0 / (2.0 * mu / x + r)  # ratio at the next order down
        mu -= 1.0
        log_prod += math.log(r)
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
def besselk(order: float, x: float, tol: float = 1e-13) -> ScaledValue:
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
        if abs(math.expm1(prev - cur)) <= 0.25 * tol:
            return ScaledValue.from_log(cur - x)
        prev = cur
    raise NonConvergence(f"K quadrature stalled at order={order}, x={x}")


def besseli_ratio(nu: float, x: float) -> float:
    """The ratio ``I_{nu+1}(x) / I_nu(x)``.

    Strictly increasing in x, bounded by ``x/(nu+1/2+x)`` for nu > -1/2.
    """
    if x <= 0:
        raise InvalidDomain(f"besseli_ratio requires x > 0, got {x}")
    if nu < -0.5:
        raise InvalidDomain(f"besseli_ratio requires nu >= -1/2, got {nu}")
    return _ratio_cf(nu, x)


def asym_small(order: float, x: float) -> float:
    """Two-term small-argument approximant ``(x/2)^nu/Gamma(nu+1) * (1 + x^2/(4(nu+1)))``."""
    if order < 0 and order == math.floor(order):
        raise InvalidOrder(f"negative integer order {order} is not supported")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    lead = math.exp(order * math.log(0.5 * x) - math.lgamma(order + 1.0)) * gamma_sign(order + 1.0)
    return lead * (1.0 + x * x / (4.0 * (order + 1.0)))


def asym_large(order: float, x: float) -> ScaledValue:
    """Two-term large-argument approximant ``e^x/sqrt(2 pi x) * (1 - (4 nu^2 - 1)/(8x))``."""
    if x <= 0:
        raise InvalidDomain(f"asym_large requires x > 0, got {x}")
    factor = 1.0 - (4.0 * order * order - 1.0) / (8.0 * x)
    lead = ScaledValue.from_log(x - 0.5 * math.log(2.0 * math.pi * x))
    return lead * ScaledValue.from_float(factor)
