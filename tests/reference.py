"""Closed forms and exact identities that the tests compare the package against.

Each is computed through a route independent of the series oracle, so that
the two can certify each other.  None of them is part of the package: no
evaluation or certification path needs them.
"""

import math
from enum import Enum

from besselint import kernel
from besselint.bounds import Point
from besselint.errors import InvalidDomain
from besselint.oracle import IntegralSpec, bessel_integral
from besselint.scaled import ScaledValue


def rel_gap(a: ScaledValue, b: ScaledValue) -> float:
    """|a - b| / max(|a|, |b|); 0.0 when both are zero."""
    if a.sign == 0 and b.sign == 0:
        return 0.0
    diff = a - b
    if diff.sign == 0:
        return 0.0
    scale = max(a.log_abs if a.sign else -math.inf,
                b.log_abs if b.sign else -math.inf)
    return math.exp(diff.log_abs - scale)


def invalid_reason(entry, p: Point):
    """The first violated hypothesis of the catalog ``entry`` at ``p``, or None
    inside the domain."""
    return next(entry.reasons(p, (p.x,)))


def antiderivative_gamma1(nu: float, x: float) -> ScaledValue:
    """Exact value of ``integral_0^x e^(-t) t^nu I_nu(t) dt`` for nu > -1/2.

    Equals ``e^(-x) x^(nu+1) (I_nu(x) + I_{nu+1}(x)) / (2 nu + 1)``.
    """
    if not nu > -0.5:
        raise InvalidDomain(f"antiderivative requires nu > -1/2, got {nu}")
    if x <= 0:
        raise InvalidDomain(f"antiderivative requires x > 0, got {x}")
    pre = ScaledValue.from_log(-x + (nu + 1.0) * math.log(x) - math.log(2.0 * nu + 1.0))
    return pre * (kernel.besseli(nu, x) + kernel.besseli(nu + 1.0, x))


def integral_asymptote(mu: float, nu: float, gamma: float, x: float) -> ScaledValue:
    """Two-term large-x approximant of the integral.

    ``x^(mu-1/2) e^((1-gamma) x) / (sqrt(2 pi) (1-gamma))`` times
    ``1 - ((4 nu^2 - 1)/8 + (mu - 1/2)/(1-gamma)) / x``.
    """
    if not mu + nu > -1.0:
        raise InvalidDomain(f"needs mu + nu > -1, got {mu + nu}")
    if not 0.0 <= gamma < 1.0:
        raise InvalidDomain(f"needs 0 <= gamma < 1, got {gamma}")
    if x <= 0:
        raise InvalidDomain(f"needs x > 0, got {x}")
    lead = ScaledValue.from_log(
        (mu - 0.5) * math.log(x) + (1.0 - gamma) * x
        - 0.5 * math.log(2.0 * math.pi) - math.log(1.0 - gamma)
    )
    second = 1.0 - ((4.0 * nu * nu - 1.0) / 8.0 + (mu - 0.5) / (1.0 - gamma)) / x
    return lead * ScaledValue.from_float(second)


class IdentityId(Enum):
    """Exact identities used to validate the oracle and kernel against each other."""

    JJ25 = "jj25"            # integration by parts, shifts the order up
    FIRSTINT = "firstint"    # three-integral rearrangement, valid for nu > 0
    BADBAD = "badbad"        # gamma = 0 reduction to a single lower-order integral
    WRONSKIAN = "wronskian"  # x (I_nu K_{nu+1} + I_{nu+1} K_nu) = 1


def identity_residual(id: IdentityId, nu: float, n: float, gamma: float, x: float) -> float:
    """Relative residual |LHS - RHS| / max(|LHS|, |RHS|) of an exact identity."""
    if x <= 0:
        raise InvalidDomain(f"identities need x > 0, got {x}")

    def F(mu_, ord_, gamma_):
        return bessel_integral(IntegralSpec(mu_, ord_, gamma_, x)).value

    if id is IdentityId.JJ25:
        if not nu > -1.0:
            raise InvalidDomain(f"JJ25 requires nu > -1, got {nu}")
        if not 0.0 <= gamma < 1.0:
            raise InvalidDomain(f"JJ25 requires 0 <= gamma < 1, got {gamma}")
        lhs = F(nu + 1.0, nu, gamma)
        rhs = (ScaledValue.from_log(-gamma * x + (nu + 1.0) * math.log(x))
               * kernel.besseli(nu + 1.0, x)
               + ScaledValue.from_float(gamma) * F(nu + 1.0, nu + 1.0, gamma)
               if gamma > 0 else
               ScaledValue.from_log((nu + 1.0) * math.log(x)) * kernel.besseli(nu + 1.0, x))
        return rel_gap(lhs, rhs)

    if id is IdentityId.FIRSTINT:
        if not nu > 0.0:
            raise InvalidDomain(f"FIRSTINT requires nu > 0, got {nu}")
        if not 0.0 <= gamma < 1.0:
            raise InvalidDomain(f"FIRSTINT requires 0 <= gamma < 1, got {gamma}")
        lhs = F(nu, nu + 1.0, gamma) - ScaledValue.from_float(gamma) * F(nu, nu, gamma)
        rhs = (ScaledValue.from_log(-gamma * x + nu * math.log(x)) * kernel.besseli(nu, x)
               - ScaledValue.from_float(2.0 * nu) * F(nu - 1.0, nu, gamma))
        return rel_gap(lhs, rhs)

    if id is IdentityId.BADBAD:
        if gamma != 0.0:
            raise InvalidDomain("BADBAD holds only at gamma = 0")
        if not nu + n + 1.0 > 0.0:
            raise InvalidDomain(f"BADBAD requires nu + n + 1 > 0, got {nu + n + 1.0}")
        if not 2.0 * nu + n > -1.0:
            raise InvalidDomain("BADBAD integrand is not integrable at 0")
        lhs = F(nu, nu + n, 0.0)
        s = 2.0 * nu + n + 1.0
        rhs = (ScaledValue.from_float(2.0 * (nu + n + 1.0) / s)
               * ScaledValue.from_log(nu * math.log(x)) * kernel.besseli(nu + n + 1.0, x)
               - ScaledValue.from_float((n + 1.0) / s) * F(nu, nu + n + 2.0, 0.0))
        return rel_gap(lhs, rhs)

    if id is IdentityId.WRONSKIAN:
        prod = (kernel.besseli(nu, x) * kernel.besselk(nu + 1.0, x)
                + kernel.besseli(nu + 1.0, x) * kernel.besselk(nu, x))
        return abs((prod * ScaledValue.from_float(x)).to_float() - 1.0)

    raise InvalidDomain(f"unknown identity {id!r}")
