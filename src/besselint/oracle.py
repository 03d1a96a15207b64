"""High-accuracy evaluation of ``F = integral_0^x e^(-gamma t) t^mu I_ord(t) dt``.

The integrand grows like ``e^((1-gamma) t)``, so panel contributions are
carried as :class:`~besselint.scaled.ScaledValue` throughout.  The range
splits at ``eps = min(1, x/2)``:

* ``[0, eps]`` -- the integrand's double power series is integrated term
  by term, which stays accurate down to the integrability boundary
  ``mu + ord -> -1`` where quadrature nodes would struggle;
* ``[eps, x]`` -- adaptive 7/15 Gauss-Kronrod panels, worst error first,
  with the embedded-rule difference as the per-panel error estimate.

``cumulative_bessel_integral`` evaluates one integrand at an ascending
list of upper limits while reusing every previously integrated panel;
sweeps over x-grids cost barely more than the largest single integral.

The closed forms (``antiderivative_gamma1``, the identity residuals) are
deliberately computed through routes independent of the quadrature so
that each can certify the other.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

from . import kernel
from .errors import InvalidDomain, NonConvergence
from .scaled import ScaledValue, signed_logsum

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
]

TOL_MIN = 1e-13
TOL_MAX = 1e-6

_PANEL_BUDGET = 10_000

# 7/15 Gauss-Kronrod pair (QUADPACK dqk15): (node, kronrod weight, gauss weight)
_GK15 = (
    (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327),
    (+0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
    (-0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
    (+0.405845151377397166906606412076961, 0.190350578064785409913256402421014, 0.381830050505118944950369775488975),
    (-0.405845151377397166906606412076961, 0.190350578064785409913256402421014, 0.381830050505118944950369775488975),
    (+0.586087235467691130294144838258730, 0.169004726639267902826583426598550, 0.0),
    (-0.586087235467691130294144838258730, 0.169004726639267902826583426598550, 0.0),
    (+0.741531185599394439863864773280788, 0.140653259715525918745189590510238, 0.279705391489276667901467771423780),
    (-0.741531185599394439863864773280788, 0.140653259715525918745189590510238, 0.279705391489276667901467771423780),
    (+0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (-0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (+0.949107912342758524526189684047851, 0.063092092629978553290700663189204, 0.129484966168869693270611432679082),
    (-0.949107912342758524526189684047851, 0.063092092629978553290700663189204, 0.129484966168869693270611432679082),
    (+0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (-0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class QuadResult:
    value: ScaledValue
    abs_err: ScaledValue
    segments: int
    converged: bool

    def rel_err(self) -> float:
        if self.value.is_zero():
            return 0.0 if self.abs_err.is_zero() else math.inf
        return (self.abs_err / abs(self.value)).to_float()


def _check_tol(tol: float) -> None:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise InvalidDomain(f"tolerance must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")


# ----------------------------------------------------------------------
# series segment over [0, eps]
# ----------------------------------------------------------------------

def _series_segment(mu: float, order: float, gamma: float, eps: float) -> ScaledValue:
    """Term-wise integral of e^(-gamma t) t^mu I_order(t) over [0, eps], eps <= 1."""
    log_eps = math.log(eps)
    pos: list[float] = []
    neg: list[float] = []
    best = -math.inf
    for k in range(400):
        a = order + k + 1
        if kernel.is_nonpositive_int(a):
            continue
        log_amp = -(order + 2 * k) * math.log(2.0) - math.lgamma(k + 1) - math.lgamma(a)
        p = mu + order + 2 * k + 1
        # inner sum over the exponential's series: sum_j (-gamma eps)^j / (j! (p+j))
        t_sum = 0.0
        c = 1.0
        for j in range(1, 300):
            t_sum += c / (p + j - 1)
            c *= (-gamma * eps) / j
            if abs(c) <= 1e-18 * abs(t_sum) * (p + j):
                break
        lt = log_amp + p * log_eps + math.log(abs(t_sum))
        sgn = kernel.gamma_sign(a) * (1 if t_sum > 0 else -1)
        (pos if sgn > 0 else neg).append(lt)
        if lt > best:
            best = lt
        if k >= 2 and lt < best - 45.0:
            return signed_logsum(pos, neg)
    raise NonConvergence(
        f"series segment stalled for mu={mu}, ord={order}, gamma={gamma}, eps={eps}"
    )


# ----------------------------------------------------------------------
# adaptive Gauss-Kronrod over [eps, x]
# ----------------------------------------------------------------------

def _log_integrand(mu: float, order: float, gamma: float):
    def logf(t: float) -> tuple[int, float]:
        val = kernel.besseli(order, t)
        if val.sign == 0:
            return 0, -math.inf
        return val.sign, -gamma * t + mu * math.log(t) + val.log_abs
    return logf


def _gk15_panel(logf, a: float, b: float) -> tuple[ScaledValue, ScaledValue]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    evals = [(wk, wg, *logf(mid + half * xi)) for xi, wk, wg in _GK15]
    off = max((lg for _, _, sg, lg in evals if sg), default=-math.inf)
    if off == -math.inf:
        return ScaledValue.zero(), ScaledValue.zero()
    sk = math.fsum(wk * sg * math.exp(lg - off) for wk, _, sg, lg in evals)
    sg7 = math.fsum(wg * sg * math.exp(lg - off) for _, wg, sg, lg in evals)
    log_h = math.log(half)
    value = (
        ScaledValue.from_log(math.log(abs(sk)) + off + log_h, 1 if sk > 0 else -1)
        if sk != 0.0 else ScaledValue.zero()
    )
    diff = abs(sk - sg7)
    err = ScaledValue.from_log(math.log(diff) + off + log_h) if diff > 0.0 else ScaledValue.zero()
    return value, err


def _adaptive_segment(logf, a: float, b: float, rel_tol: float, growth: float,
                      budget: int) -> tuple[ScaledValue, ScaledValue, int]:
    """Integrate logf over [a, b] to relative tolerance, worst panel first."""
    if b <= a:
        return ScaledValue.zero(), ScaledValue.zero(), 0
    # seed so no panel spans more than ~5 e-folds of exponential growth
    n0 = max(1, min(256, int(math.ceil(growth * (b - a) / 5.0))))
    panels: dict[int, tuple[float, float, ScaledValue, ScaledValue]] = {}
    heap: list[tuple[float, int]] = []
    counter = 0

    def push(lo: float, hi: float):
        nonlocal counter
        val, err = _gk15_panel(logf, lo, hi)
        panels[counter] = (lo, hi, val, err)
        heapq.heappush(heap, (-(err.log_abs if err.sign else -math.inf), counter))
        counter += 1

    for i in range(n0):
        push(a + (b - a) * i / n0, a + (b - a) * (i + 1) / n0)

    while True:
        # totals in a common float frame anchored at the largest magnitude
        off = max(
            max((p[2].log_abs for p in panels.values() if p[2].sign), default=-math.inf),
            max((p[3].log_abs for p in panels.values() if p[3].sign), default=-math.inf),
        )
        if off == -math.inf:
            return ScaledValue.zero(), ScaledValue.zero(), len(panels)
        tot = math.fsum(
            p[2].sign * math.exp(p[2].log_abs - off) for p in panels.values() if p[2].sign
        )
        errs = math.fsum(math.exp(p[3].log_abs - off) for p in panels.values() if p[3].sign)
        if errs <= rel_tol * abs(tot) or errs == 0.0:
            value = (
                ScaledValue.from_log(math.log(abs(tot)) + off, 1 if tot > 0 else -1)
                if tot != 0.0 else ScaledValue.zero()
            )
            err = ScaledValue.from_log(math.log(errs) + off) if errs > 0.0 else ScaledValue.zero()
            return value, err, len(panels)
        if len(panels) >= budget:
            raise NonConvergence(
                f"adaptive quadrature exhausted {budget} panels on [{a}, {b}]"
            )
        # split the live panel with the largest error estimate
        while True:
            _, idx = heapq.heappop(heap)
            if idx in panels:
                break
        lo, hi, _, _ = panels.pop(idx)
        mid = 0.5 * (lo + hi)
        push(lo, mid)
        push(mid, hi)


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def cumulative_bessel_integral(mu: float, ord: float, gamma: float,
                               xs: list[float], tol: float = 1e-10) -> list[QuadResult]:
    """Evaluate the integral at every upper limit in ascending ``xs``.

    Panels accumulate across the list, so a full x-grid costs little more
    than its largest point.
    """
    _check_tol(tol)
    if not xs:
        return []
    if any(x <= 0 for x in xs):
        raise InvalidDomain("cumulative evaluation needs strictly positive limits")
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise InvalidDomain("upper limits must be ascending")
    IntegralSpec(mu, ord, gamma, xs[0]).validate()

    growth = max(0.0, 1.0 - gamma)
    logf = _log_integrand(mu, ord, gamma)
    eps = min(1.0, xs[0] / 2.0)
    total = _series_segment(mu, ord, gamma, eps)
    err_total = ScaledValue.zero()
    segments = 0
    lo = eps
    out: list[QuadResult] = []
    for x in xs:
        if x > lo:
            val, err, n = _adaptive_segment(logf, lo, x, 0.5 * tol, growth,
                                            _PANEL_BUDGET - segments)
            total = total + val
            err_total = err_total + err
            segments += n
            lo = x
        converged = err_total.is_zero() or (
            not total.is_zero() and err_total.log_abs - total.log_abs <= math.log(tol)
        )
        out.append(QuadResult(total, err_total, segments, converged))
    return out


def bessel_integral(spec: IntegralSpec, tol: float = 1e-10) -> QuadResult:
    """The integral of ``e^(-gamma t) t^mu I_ord(t)`` over ``[0, spec.x]``."""
    _check_tol(tol)
    spec.validate()
    if spec.x == 0.0:
        return QuadResult(ScaledValue.zero(), ScaledValue.zero(), 0, True)
    return cumulative_bessel_integral(spec.mu, spec.ord, spec.gamma, [spec.x], tol)[0]


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


def identity_residual(id: IdentityId, nu: float, n: float, gamma: float, x: float,
                      tol: float = 1e-12) -> float:
    """Relative residual |LHS - RHS| / max(|LHS|, |RHS|) of an exact identity."""
    if x <= 0:
        raise InvalidDomain(f"identities need x > 0, got {x}")

    def F(mu_, ord_, gamma_):
        return bessel_integral(IntegralSpec(mu_, ord_, gamma_, x), tol).value

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
