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

A (mu, ord, gamma) row forms its x-free parts once, and its step sums one x.
Rows with equal ``p0 = mu + ord + 1`` share the S tables, which depend on
``(p0, z, n)`` alone (at z = 0, ``S(p) = 1/p`` needs no recurrence): a one-entry
cache keeps those of the last p0, keyed by ``(z, n)``.  A result is one flat record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import kernel
from .errors import InvalidDomain, InvalidOrder, NonConvergence
from .kernel import _FRAME_MAX, _LOG2, _U
from .scaled import ScaledValue

__all__ = [
    "IntegralSpec",
    "QuadResult",
    "bessel_integral",
    "cumulative_bessel_integral",
    "TOL_MIN",
    "TOL_MAX",
    "check_tol",
]

TOL_MIN = 1e-13
TOL_MAX = 1e-6

#: most series terms one integral may use, which bounds its memory and time
_MAX_TERMS = 100_000


@dataclass(frozen=True, slots=True)
class IntegralSpec:
    """One member of the integral family: ``(mu, ord, gamma, x)``.

    ``mu + ord > -1`` keeps the integrand integrable at 0; ``gamma = 1``
    is admitted only because the tests' exact exponential-weight
    antiderivative gives a cross-check there.
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
        if not (math.isfinite(self.mu) and math.isfinite(self.ord)):
            raise InvalidDomain(f"mu and ord must be finite, got mu={self.mu}, ord={self.ord}")
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidDomain(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.x < math.inf:
            raise InvalidDomain(f"upper limit must be finite and >= 0, got {self.x}")


class QuadResult(NamedTuple):
    """F as ``(sign, log_abs)``, an a-priori bound ``rel_err`` on its relative
    error, the number of series terms summed (``segments``) and whether
    ``rel_err`` is within the requested tolerance (``converged``), flat;
    ``value`` and ``abs_err`` are built when read."""

    sign: int
    log_abs: float
    rel_err: float
    segments: int
    converged: bool

    @property
    def value(self) -> ScaledValue:
        return ScaledValue(self.sign, self.log_abs)

    @property
    def abs_err(self) -> ScaledValue:
        """``|value| * rel_err``, zero when ``rel_err`` is; InvalidDomain when it is NaN."""
        return (ScaledValue.from_log(self.log_abs + math.log(self.rel_err)) if self.rel_err
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
    return ratios, math.log(s) + math.log(prod) + prod_exp * _LOG2, j + 2 * n


#: p0's S tables, keyed by (z, n); one entry, the last p0's, so memory does not grow with the grid
_s_tables = lru_cache(maxsize=1)(lambda p0: {})


def _row(mu: float, order: float, gamma: float) -> tuple:
    """The x-free parts: the row, p0, the term-count offset max(0, -ord), -ord ln 2,
    -log|Gamma(ord+1)|, its sign, p0's S tables."""
    if kernel.is_nonpositive_int(order + 1.0):
        raise InvalidOrder(f"negative integer order {order} is not supported")
    try:
        p0 = math.fsum((mu, order, 1.0))  # correctly rounded near mu + ord = -1
    except OverflowError:
        raise InvalidDomain(f"mu + ord + 1 overflows (mu={mu}, ord={order})") from None
    return (mu, order, gamma, p0, max(0.0, -order), -order * _LOG2,
            -kernel.log_gamma(order + 1.0), kernel.gamma_sign(order + 1.0), _s_tables(p0))


def _series(row: tuple, x: float, tol: float) -> QuadResult:
    """The row's integral up to ``x``: the step of :func:`_row`."""
    mu, order, gamma, p0, offset, log_2, log_gamma, gamma_sign, tables = row
    z = gamma * x
    # past the peak near k = x/2 the terms fall by e^-37 within ~4.3 sqrt(x)
    n = int(0.5 * x + 5.0 * math.sqrt(x) + offset) + 10
    while True:
        if n > _MAX_TERMS:
            raise NonConvergence(
                f"F(mu={mu}, ord={order}, gamma={gamma}, x={x}) needs more than "
                f"{_MAX_TERMS} series terms")
        if (table := tables.get(key := (z, n))) is None:
            table = tables[key] = (_s_ratios(p0, z, n) if z > 0.0 else  # at z = 0, S(p) = 1/p
                                   ([(p0 + 2 * k) / (p0 + 2 * k + 2.0) for k in range(n)],
                                    -math.log(p0), 0))
        ratios, log_s0, steps = table
        summed = kernel.power_series_sum(order, 0.25 * x * x, ratios)
        if summed is not None:
            break
        n *= 2
    s, a, tail, shift, terms = summed

    parts = (log_2, log_gamma, p0 * math.log(x), -z, log_s0, shift * _LOG2)
    # a-priori rounding bound in units of u * sum |T_k| / |sum|: 10 roundings per term
    # ratio and sum; 10 per step of the w recurrence and of the direct sum that starts
    # it (the recurrence damps the error it carries, so step errors add up rather than
    # compound); and the final logs.  The anchor's log is off by 3 u per unit of every
    # log in it, which covers the rounding of p0 times |d log T / dp| <= |log x| + 1/p0
    # + log(1 + z/p0), a factor of its own on each T_k; it moves F by up to e^log_err
    log_s = math.log(abs(s))
    linear = ((10 * terms + 10 * steps + 10 + 2 * abs(log_s)) * _U * a + tail) / abs(s)
    log_err = 3 * _U * math.fsum(map(abs, parts)) * (a / abs(s))
    if not log_err < 709.0:
        raise InvalidDomain(f"F is past the representation: its log is uncertain by {log_err:.3g}")
    rel_err = linear + math.expm1(log_err) * (1.0 + linear)
    log = log_s + math.fsum(parts)
    if not -math.inf < log < math.inf:  # ScaledValue.from_log's rules
        if log == -math.inf:
            return QuadResult(0, 0.0, rel_err, terms, rel_err <= tol)
        raise InvalidDomain(f"non-finite log magnitude {log!r}")
    # the fields as one tuple: no Python-level constructor per integral
    return tuple.__new__(QuadResult, (gamma_sign if s > 0 else -gamma_sign, log, rel_err, terms,
                                      rel_err <= tol))


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def cumulative_bessel_integral(mu: float, ord: float, gamma: float,
                               xs: list[float], tol: float = 1e-10) -> list[QuadResult]:
    """Evaluate the integral at every upper limit in ``xs``, in any order.

    Each limit is its own series; the limits share validation, the row's
    x-free parts and its S tables.  A limit whose series fails raises for
    the whole call.
    """
    check_tol(tol)
    if not xs:
        return []
    if not all(0.0 < x < math.inf for x in xs):
        raise InvalidDomain("cumulative evaluation needs finite, strictly positive limits")
    IntegralSpec(mu, ord, gamma, xs[0]).validate()
    row = _row(mu, ord, gamma)
    return [_series(row, x, tol) for x in xs]


def bessel_integral(spec: IntegralSpec, tol: float = 1e-10) -> QuadResult:
    """The integral of ``e^(-gamma t) t^mu I_ord(t)`` over ``[0, spec.x]``."""
    check_tol(tol)
    spec.validate()
    if spec.x == 0.0:
        return QuadResult(0, 0.0, 0.0, 0, True)
    return _series(_row(spec.mu, spec.ord, spec.gamma), spec.x, tol)
