"""Certification harness: verdicts, grid sweeps, tables, tightness, crossover.

A check compares one catalog bound against the series oracle at one point
and renders HOLDS / VIOLATED / INCONCLUSIVE from the ``(sign, log_abs)`` of
each: their ratio is one ``exp`` of the difference of the logs.  The
inconclusive band is the combined numerical uncertainty (the oracle's
a-priori error bound + the bound's series tail + a small kernel floor + the
rounding of both logs): a strict inequality can never be certified at an
equality point, so a margin inside the band is neither pass nor failure.

Sweeps go a (bound, nu, n, mu, gamma) row at a time, evaluating each integral
once: checks that share an integral share its oracle result, and an integral
whose series fails turns only its checks INCONCLUSIVE.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .bounds import (
    CATALOG,
    BoundId,
    Direction,
    Point,
    bound_row,
    bound_value,
    check_row,
    row_step,
)
from .errors import BesselIntError, InvalidDomain, NotFound
from .oracle import (
    TOL_MIN,
    IntegralSpec,
    QuadResult,
    bessel_integral,
    check_tol,
    cumulative_bessel_integral,
)
from .scaled import ScaledValue, exp_float

__all__ = [
    "Verdict",
    "CheckReport",
    "SkippedPoint",
    "SweepResult",
    "Grid",
    "RelErrTable",
    "default_grid",
    "check_point",
    "sweep",
    "relative_error_table",
    "tightness_scan",
    "find_crossover",
]

#: relative slack granted to the kernel evaluations inside bound formulas
KERNEL_UNCERTAINTY = 2e-12

_NO_ORACLE = QuadResult(ScaledValue.zero(), 0.0, 0, False)


class Verdict(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


def _point_dict(p) -> dict:
    """The coordinates of a :class:`Point`, a :class:`CheckReport` or a
    :class:`SkippedPoint`, which all carry them as fields."""
    return {"nu": p.nu, "n": p.n, "mu": p.mu, "gamma": p.gamma, "x": p.x}


def _point(r) -> Point:
    return Point(r.nu, r.n, r.mu, r.gamma, r.x)


class CheckReport(NamedTuple):
    """One check, flat: its point's coordinates, its bound's ``(sign, log)``
    and the oracle result it was judged against are fields, and ``point``
    and ``bound_value`` are built when read."""

    bound: BoundId
    nu: float
    n: float
    mu: Optional[float]
    gamma: float
    x: float
    bound_sign: int
    bound_log: float
    oracle: QuadResult
    verdict: Verdict
    rel_margin: float
    uncertainty: float
    direction: Direction
    reason: Optional[str] = None

    point = property(_point)

    @property
    def bound_value(self) -> ScaledValue:
        return ScaledValue(self.bound_sign, self.bound_log)

    def to_dict(self) -> dict:
        return {
            "bound": self.bound.value,
            "point": _point_dict(self),
            "bound_value": self.bound_value.to_dict(),
            "oracle_value": self.oracle.value.to_dict(),
            "oracle_err": self.oracle.abs_err.to_dict(),
            "verdict": self.verdict.value,
            "rel_margin": self.rel_margin,
            "uncertainty": self.uncertainty,
            "direction": self.direction.value,
            "reason": self.reason,
        }


class SkippedPoint(NamedTuple):
    bound: BoundId
    nu: float
    n: float
    mu: Optional[float]
    gamma: float
    x: float
    reason: str

    point = property(_point)

    def to_dict(self) -> dict:
        return {"bound": self.bound.value, "point": _point_dict(self), "reason": self.reason}


@dataclass
class SweepResult:
    reports: list[CheckReport]
    skipped: list[SkippedPoint]
    counts: dict[str, int]


def _oracle_tol(tol: float) -> float:
    """Oracle tolerance for checks at ``tol``: ten times finer, at least TOL_MIN."""
    return max(tol / 10.0, TOL_MIN)


def _margin(direction: Direction, ratio: float) -> float:
    """Signed relative margin; positive means the inequality holds."""
    if direction is Direction.UPPER:
        return ratio - 1.0
    if direction in (Direction.LOWER, Direction.REVERSED):
        return 1.0 - ratio
    return -abs(ratio - 1.0)  # equality: any gap counts against


def _report(bid: BoundId, row: Point, x: float, direction: Direction,
            value: tuple[int, float, int, float], oracle: QuadResult, tol: float) -> CheckReport:
    """The verdict on the bound's :func:`row_step` ``value`` at ``x`` of ``row``."""
    sign, log, _, share = value
    o = oracle.value
    if o.is_zero():
        raise InvalidDomain("oracle integral is zero; no relative margin exists")
    margin = _margin(direction, exp_float(sign * o.sign, log - o.log_abs))
    # each log_abs is rounded to u = 2^-53 of itself, and the ratio's exp carries that
    rounding = 2.0 ** -53 * (abs(log) + abs(o.log_abs))
    unc = (oracle.rel_err + KERNEL_UNCERTAINTY
           + (math.expm1(rounding) if rounding < 709.0 else math.inf) + share)
    if not oracle.converged:
        unc = max(unc, tol)
    if margin > unc:
        verdict = Verdict.HOLDS
    elif margin < -unc:
        verdict = Verdict.VIOLATED
    else:
        verdict = Verdict.INCONCLUSIVE
    return CheckReport(bid, row.nu, row.n, row.mu, row.gamma, x, sign, log, oracle,
                       verdict, margin, unc, direction)


def check_point(id: BoundId, point: Point, tol: float = 1e-10,
                exploratory: bool = False) -> CheckReport:
    """Verdict for one bound at one point; oracle runs at tol/10.

    ``exploratory=True`` evaluates the unchecked :func:`bound_row` step, so
    that a bound can be probed outside its hypotheses (e.g. PROP1 with
    mu < 1/2, which is expected to flip at large x); ``x <= 0`` still raises
    :class:`InvalidDomain`.
    """
    check_tol(tol)
    ev = (bound_row(id, point)(point.x) if exploratory else
          bound_value(id, point.nu, point.n, point.mu, point.gamma, point.x))
    value = (ev.value.sign, ev.value.log_abs, ev.truncation_terms, ev.tail_share)
    oracle = bessel_integral(CATALOG[id].integrand(point), _oracle_tol(tol))
    return _report(id, point, point.x, ev.direction, value, oracle, tol)


# ----------------------------------------------------------------------
# grid sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Grid:
    nu_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    x_values: tuple[float, ...]
    n_values: tuple[float, ...] = (0.0,)
    mu_values: tuple[float, ...] = ()


def logspace(lo: float, hi: float, count: int) -> tuple[float, ...]:
    if count < 2:
        return (lo,)
    la, lb = math.log10(lo), math.log10(hi)
    return tuple(10.0 ** (la + (lb - la) * i / (count - 1)) for i in range(count))


def default_grid() -> Grid:
    """Certification grid: boundary-adjacent orders, tilts up to 0.99,
    24 log-spaced arguments spanning both asymptotic regimes."""
    return Grid(
        nu_values=(-0.49, -0.25, 0.0, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0),
        gamma_values=(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99),
        x_values=logspace(1e-3, 200.0, 24),
        n_values=(-0.5, 0.0, 1.0, 2.0),
        mu_values=(0.0, 0.4, 0.5, 1.0, 2.0),
    )


def _oracle_row(mu: float, ordv: float, gamma: float, xs: list[float], tol: float) -> dict:
    """Each x's integral, or the error that stands in for it: one oracle call
    per row, where the benchmark tracer counts rows, and on failure one per
    x, so that an error stands in only for its own integral."""
    try:
        results: list = cumulative_bessel_integral(mu, ordv, gamma, xs, tol)
    except BesselIntError:
        results = []
        for x in xs:
            try:
                results.append(bessel_integral(IntegralSpec(mu, ordv, gamma, x), tol))
            except BesselIntError as exc:
                results.append(exc)
    return dict(zip(xs, results))


def sweep(ids: Sequence[BoundId], grid: Grid, tol: float = 1e-10) -> SweepResult:
    """Check every bound at every valid grid point, a row at a time.

    Out-of-domain points are skipped and recorded with the violated hypothesis,
    checked once per row and ``x > 0`` per x; evaluation errors become
    INCONCLUSIVE reports with the failure reason.  That includes an integral
    the oracle cannot sum (for example one that needs more series terms than
    the oracle allows): the checks that need it are INCONCLUSIVE with its
    error, and every other check, on the same ``(mu, ord, gamma)`` row too,
    goes on as usual.  Output order is canonical whatever the order of ``ids``
    or of the axes: bounds by id value, then the product of the sorted axes.
    """
    check_tol(tol)
    oracle_tol = _oracle_tol(tol)
    xs = sorted(grid.x_values)
    limits = list(dict.fromkeys(x for x in xs if x > 0))  # every oracle row's, each x once
    oracle_row = functools.cache(lambda *key: _oracle_row(*key, limits, oracle_tol))
    reports: list[CheckReport] = []
    skipped: list[SkippedPoint] = []
    for bid in sorted(set(ids), key=lambda b: b.value):
        entry = CATALOG[bid]
        axes = (sorted(grid.nu_values), sorted(grid.n_values) if entry.uses_n else [0.0],
                sorted(grid.mu_values) if entry.uses_mu else [None],
                sorted(grid.gamma_values))
        for row in itertools.starmap(Point, itertools.product(*axes)):
            valid = []
            for x, reason in zip(xs, entry.reasons(row, xs)):
                if reason is None:
                    valid.append(x)
                else:
                    skipped.append(SkippedPoint(bid, row.nu, row.n, row.mu, row.gamma, x, reason))
            if not valid:
                continue
            spec, step = entry.integrand(row), row_step(bid, row)
            direction = entry.direction_at(row)
            results = oracle_row(spec.mu, spec.ord, spec.gamma)
            for x in valid:
                if not isinstance(result := results[x], BesselIntError):
                    try:
                        reports.append(_report(bid, row, x, direction, step(x), result, tol))
                        continue
                    except BesselIntError as exc:
                        result = exc
                reports.append(CheckReport(
                    bid, row.nu, row.n, row.mu, row.gamma, x, 0, 0.0, _NO_ORACLE,
                    Verdict.INCONCLUSIVE, math.nan, math.inf, direction,
                    f"{type(result).__name__}: {result}"))
    counts = {v.value: sum(r.verdict is v for r in reports) for v in Verdict}
    return SweepResult(reports=reports, skipped=skipped, counts=counts)


# ----------------------------------------------------------------------
# relative-error tables
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RelErrTable:
    bound: BoundId
    nu_values: tuple[float, ...]
    x_values: tuple[float, ...]
    entries: tuple[tuple[float, ...], ...]  # rows by nu, columns by x


def _round4(v: float) -> float:
    """Half-up rounding to 4 decimal places."""
    return math.floor(v * 10000.0 + 0.5) / 10000.0


def relative_error_table(bound: BoundId, nu_values: Sequence[float],
                         x_values: Sequence[float]) -> RelErrTable:
    """Relative errors |bound/F - 1| of the two-sided enclosure at gamma = 0, n = 0,
    rounded half-up to 4 places; each row (one nu) is a :func:`tightness_scan`."""
    if bound not in (BoundId.TWOSIDED_L, BoundId.TWOSIDED_U):
        raise InvalidDomain("tables are defined for twosided_l / twosided_u")
    rows = []
    for nu in nu_values:
        ratios = tightness_scan(bound, Point(nu=nu), x_values)
        rows.append(tuple(_round4(abs(r - 1.0)) for r in ratios))
    return RelErrTable(bound=bound, nu_values=tuple(nu_values),
                       x_values=tuple(x_values), entries=tuple(rows))


# ----------------------------------------------------------------------
# tightness scans and the PROP1 crossover
# ----------------------------------------------------------------------

def tightness_scan(id: BoundId, template: Point, x_sequence: Sequence[float]) -> list[float]:
    """Bound/oracle ratios along an x-sequence at otherwise fixed parameters.

    The caller asserts the monotone approach to 1 in the claimed limit.
    """
    check_row(id, template, x_sequence)  # every x, before any oracle work
    evals = list(map(bound_row(id, template), x_sequence))
    spec = CATALOG[id].integrand(template)  # every point shares it up to x
    oracle = cumulative_bessel_integral(spec.mu, spec.ord, spec.gamma, list(x_sequence))
    return [(ev.value / qr.value).to_float() for ev, qr in zip(evals, oracle)]


def find_crossover(mu: float, nu: float, gamma: float, x_max: float = 500.0) -> Optional[float]:
    """Abscissa where ``F - e^(-gamma x) x^mu I_nu(x)/(1-gamma)`` changes sign.

    For ``mu >= nu >= 1/2`` the difference stays negative for every x and
    the function returns None.  For ``mu < 1/2`` a sign change exists for
    large enough x; if none is found below ``x_max``, :class:`NotFound`
    reports the range searched.  Bisection refines the bracket to relative
    width 1e-6.  The comparison term is the PROP1 bound, evaluated outside
    its hypotheses where needed (one unchecked :func:`bound_row`).
    """
    if not mu + nu > -1.0:
        raise InvalidDomain(f"needs mu + nu > -1, got {mu + nu}")
    if not 0.0 <= gamma < 1.0:
        raise InvalidDomain(f"needs 0 <= gamma < 1, got {gamma}")
    if not x_max / 10.0 > 0:  # the first probe is at x_max/10 when that is below 0.1
        raise InvalidDomain(f"needs x_max/10 > 0, got x_max={x_max}")
    if mu >= nu >= 0.5:
        return None
    prop1 = bound_row(BoundId.PROP1, Point(nu, mu=mu, gamma=gamma))

    def defect_sign(x: float) -> int:
        return (bessel_integral(IntegralSpec(mu, nu, gamma, x)).value - prop1(x).value).sign

    a = min(0.1, x_max / 10.0)
    s_a = defect_sign(a)
    b = a
    while b < x_max:
        b = min(b * 1.6, x_max)
        s_b = defect_sign(b)
        if s_b != s_a and s_b != 0:
            break
        a, s_a = b, s_b
    else:  # the scan reached x_max without a sign change
        if mu < 0.5:
            raise NotFound(
                f"no sign change of the mu={mu}, nu={nu}, gamma={gamma} defect "
                f"below x_max={x_max}")
        return None
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (b - a) <= 1e-6 * mid:
            return mid
        s_mid = defect_sign(mid)
        if s_mid == s_a:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
