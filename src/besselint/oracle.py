"""High-accuracy evaluation of ``F = integral_0^x e^(-gamma t) t^mu I_ord(t) dt``.

Integrating the power series of ``I_ord`` term by term gives one series
whose terms are all positive when ``ord > -1``:

* ``F = sum_k a_k J(p_k)`` with ``a_k = 2^-(ord+2k) / (k! Gamma(ord+k+1))``
  and ``p_k = mu + ord + 2k + 1``;
* ``J(p) = integral_0^x e^(-gamma t) t^(p-1) dt = x^p e^-z S(p)`` with
  ``z = gamma x`` and ``S(p) = sum_j z^j / (p (p+1) ... (p+j))``
  (DLMF 8.7.1).

Consecutive terms differ by the factor
``x^2/(4 (k+1)(ord+k+1)) * S(p_k+2)/S(p_k)``.  The S ratios come from the
downward recurrence ``w(p) = p w(p+1) / (w(p+1) + z)`` on ``w = 1/S``,
which is the stable direction (Gautschi 1967, SIAM Rev. 9).  The terms
are summed by :func:`kernel.power_series_sum`, the summer of the ``I_ord``
power series itself, with the S ratios as its factors: a float frame
built from the term ratios, with one log anchor at ``k = 0``, so the
integral's ``e^((1-gamma) x)`` growth never overflows.  Since
``S(p+2) <= S(p)``, every later term ratio is at most
``q = x^2/(4 (K+1)(ord+K+1))``, and the tail after term K is certified by
``T_K q/(1-q)``.  Terms are added until that tail is below one rounding
unit of the sum.  ``rel_err`` is an a-priori relative bound: the rounding
of the recurrences, of the anchor's log and of the sum, plus the tail.

For ``ord < -1`` (with ``mu + ord > -1``) the finitely many head terms
with ``ord + k + 1 < 0`` alternate in sign; they are carried through the
same signed ratios and the rounding bound scales with the sum of
``|T_k|``.

The closed forms (``antiderivative_gamma1``, the identity residuals) are
computed through routes independent of the series so that each can
certify the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import kernel
from .errors import InvalidDomain, InvalidOrder, NonConvergence
from .scaled import ScaledValue

__all__ = [
    "IntegralSpec",
    "QuadResult",
    "IdentityId",
    "bessel_integral",
    "cumulative_bessel_integral",
    "antiderivative_gamma1",
    "integral_asymptote",
    "identity_residual",
    "TOL_MIN",
    "TOL_MAX",
    "check_tol",
]

TOL_MIN = 1e-13
TOL_MAX = 1e-6

#: unit roundoff of IEEE double arithmetic
_U = 2.0 ** -53
_LN2 = math.log(2.0)
#: a frame value past this is rescaled by an exact power of two
_FRAME_MAX = 2.0 ** 500
#: most series terms one integral may use, which bounds its memory and time
_MAX_TERMS = 100_000


@dataclass(frozen=True, slots=True)
class IntegralSpec:
    """One member of the integral family: ``(mu, ord, gamma, x)``.

    ``mu + ord > -1`` keeps the integrand integrable at 0; ``gamma = 1``
    is admitted only because the exponential-weight antiderivative gives
    an exact cross-check there.
    """

    mu: float
    ord: float
    gamma: float
    x: float

    def validate(self) -> None:
        if not self.mu + self.ord > -1.0:
            raise InvalidDomain(
                f"integrand t^{self.mu} I_{self.ord}(t) is not integrable at 0 "
                f"(needs mu + ord > -1, got {self.mu + self.ord})"
            )
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidDomain(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.x < 0:
            raise InvalidDomain(f"upper limit must be >= 0, got {self.x}")


@dataclass(frozen=True, slots=True)
class QuadResult:
    """``value`` of F, an a-priori bound ``rel_err`` on its relative error,
    the number of series terms summed (``segments``) and whether ``rel_err``
    is within the requested tolerance (``converged``)."""

    value: ScaledValue
    rel_err: float
    segments: int
    converged: bool

    @property
    def abs_err(self) -> ScaledValue:
        """``|value| * rel_err``, zero when ``rel_err`` is."""
        return (ScaledValue(1, self.value.log_abs + math.log(self.rel_err)) if self.rel_err
                else ScaledValue.zero())


def check_tol(tol: float) -> None:
    """Raise :class:`InvalidDomain` unless ``TOL_MIN <= tol <= TOL_MAX``."""
    if not TOL_MIN <= tol <= TOL_MAX:
        raise InvalidDomain(f"tolerance must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")


# ----------------------------------------------------------------------
# the positive series
# ----------------------------------------------------------------------

def _s_ratios(p0: float, z: float, n: int) -> tuple[list[float], float, int]:
    """``S(p_k+2)/S(p_k)`` for ``k < n``, ``log S(p0)``, and the number of
    recurrence steps and direct-sum terms (for the rounding bound).

    ``S`` is summed directly at ``p0 + 2n``, where its terms fall
    geometrically, and ``w = 1/S`` runs down from there.  The factors
    ``S(p)/S(p+1) = (w(p+1) + z)/p`` never divide by ``w``, which turns
    subnormal once z >> p; their product gives ``log S(p0)``.
    """
    top = p0 + 2 * n
    term = s = 1.0 / top
    j = 0
    while True:
        j += 1
        r = z / (top + j)
        term *= r
        s += term
        if r < 1.0 and term * r <= _U * (1.0 - r) * s:
            break
    w = 1.0 / s
    ratios = [0.0] * n
    prod, prod_exp = 1.0, 0
    for k in range(n - 1, -1, -1):
        p = p0 + 2 * k
        f1 = (w + z) / (p + 1.0)
        w /= f1
        f0 = (w + z) / p
        w /= f0
        f = f0 * f1
        ratios[k] = 1.0 / f
        prod *= f
        if prod > _FRAME_MAX:
            prod, e = math.frexp(prod)
            prod_exp += e
    return ratios, math.log(s) + math.log(prod) + prod_exp * _LN2, j + 2 * n


def _series(mu: float, order: float, gamma: float, x: float, tol: float) -> QuadResult:
    if kernel.is_nonpositive_int(order + 1.0):
        raise InvalidOrder(f"negative integer order {order} is not supported")
    try:
        p0 = math.fsum((mu, order, 1.0))  # correctly rounded near mu + ord = -1
    except OverflowError:
        raise InvalidDomain(f"mu + ord + 1 overflows (mu={mu}, ord={order})") from None
    z = gamma * x
    # past the peak near k = x/2 the terms fall by e^-37 within ~4.3 sqrt(x)
    n = int(0.5 * x + 5.0 * math.sqrt(x) + max(0.0, -order)) + 10
    while True:
        if n > _MAX_TERMS:
            raise NonConvergence(
                f"F(mu={mu}, ord={order}, gamma={gamma}, x={x}) needs more than "
                f"{_MAX_TERMS} series terms")
        if z > 0.0:
            ratios, log_s0, steps = _s_ratios(p0, z, n)
        else:
            ratios = [(p0 + 2 * k) / (p0 + 2 * k + 2.0) for k in range(n)]
            log_s0, steps = -math.log(p0), 0
        summed = kernel.power_series_sum(order, 0.25 * x * x, ratios)
        if summed is not None:
            break
        n *= 2
    s, a, tail, shift, terms = summed

    lg = kernel.log_gamma(order + 1.0)
    parts = (-order * _LN2, -lg, p0 * math.log(x), -z, log_s0, shift * _LN2)
    # a-priori rounding bound in units of u * sum |T_k| / |sum|: 10 roundings per term
    # ratio and sum; 10 per step of the w recurrence and of the direct sum that starts
    # it (the recurrence damps the error it carries, so step errors add up rather than
    # compound); and the final logs.  The anchor's log is off by 3 u per unit of every
    # log in it, which covers the rounding of p0 times |d log T / dp| <= |log x| + 1/p0
    # + log(1 + z/p0), a factor of its own on each T_k; it moves F by up to e^log_err
    log_s = math.log(abs(s))
    linear = ((10 * terms + 10 * steps + 10 + 2 * abs(log_s)) * _U * a + tail) / abs(s)
    log_err = 3 * _U * math.fsum(abs(v) for v in parts) * (a / abs(s))
    if not log_err < 709.0:
        raise InvalidDomain(f"F is past the representation: its log is uncertain by {log_err:.3g}")
    rel_err = linear + math.expm1(log_err) * (1.0 + linear)
    sign = kernel.gamma_sign(order + 1.0) * (1 if s > 0 else -1)
    value = ScaledValue.from_log(log_s + math.fsum(parts), sign)
    return QuadResult(value, rel_err, terms, rel_err <= tol)


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def cumulative_bessel_integral(mu: float, ord: float, gamma: float,
                               xs: list[float], tol: float = 1e-10) -> list[QuadResult]:
    """Evaluate the integral at every upper limit in ``xs``, in any order.

    Each limit is its own series and the limits share only validation; a
    limit whose series fails raises for the whole call.
    """
    check_tol(tol)
    if not xs:
        return []
    if any(x <= 0 for x in xs):
        raise InvalidDomain("cumulative evaluation needs strictly positive limits")
    IntegralSpec(mu, ord, gamma, xs[0]).validate()
    return [_series(mu, ord, gamma, x, tol) for x in xs]


def bessel_integral(spec: IntegralSpec, tol: float = 1e-10) -> QuadResult:
    """The integral of ``e^(-gamma t) t^mu I_ord(t)`` over ``[0, spec.x]``."""
    check_tol(tol)
    spec.validate()
    if spec.x == 0.0:
        return QuadResult(ScaledValue.zero(), 0.0, 0, True)
    return _series(spec.mu, spec.ord, spec.gamma, spec.x, tol)


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
        return lhs.rel_gap(rhs)

    if id is IdentityId.FIRSTINT:
        if not nu > 0.0:
            raise InvalidDomain(f"FIRSTINT requires nu > 0, got {nu}")
        if not 0.0 <= gamma < 1.0:
            raise InvalidDomain(f"FIRSTINT requires 0 <= gamma < 1, got {gamma}")
        lhs = F(nu, nu + 1.0, gamma) - ScaledValue.from_float(gamma) * F(nu, nu, gamma)
        rhs = (ScaledValue.from_log(-gamma * x + nu * math.log(x)) * kernel.besseli(nu, x)
               - ScaledValue.from_float(2.0 * nu) * F(nu - 1.0, nu, gamma))
        return lhs.rel_gap(rhs)

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
        return lhs.rel_gap(rhs)

    if id is IdentityId.WRONSKIAN:
        prod = (kernel.besseli(nu, x) * kernel.besselk(nu + 1.0, x)
                + kernel.besseli(nu + 1.0, x) * kernel.besselk(nu, x))
        return abs((prod * ScaledValue.from_float(x)).to_float() - 1.0)

    raise InvalidDomain(f"unknown identity {id!r}")
