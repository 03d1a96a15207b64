"""Certification harness: verdicts, grid sweeps, tables, tightness, crossover.

A check compares one catalog bound against the series oracle at one point
and renders HOLDS / VIOLATED / INCONCLUSIVE from the ``(sign, log_abs)`` of
each: their ratio is one ``exp`` of the difference of the logs.  The
inconclusive band is the combined numerical uncertainty (the oracle's
a-priori error bound + the bound's series tail + a small kernel floor + the
rounding of both logs), and no tolerance widens it: a strict inequality can
never be certified at an equality point, so a margin inside the band is
neither pass nor failure.

Sweeps go a (bound, nu, n, mu, gamma) row at a time, evaluating each integral
once, grouped by mu + ord + 1: checks that share an integral share its oracle
result, and an integral whose series fails turns only its checks INCONCLUSIVE.
Each row's verdicts come from one loop, and a single check is a one-x row.  A
:class:`SweepResult` keeps each row's checks as columns and builds a record when read.
A row holds only values that the garbage collector untracks (codes for enums, bytes
for numeric columns), so a full collection in a process that keeps results skips them.

A check's record, from :func:`check_point` or a sweep, is one flat
:class:`CheckReport` whose fields are the CSV columns of ``check`` and ``sweep``
(:data:`CHECK_COLUMNS`): a CSV row writes it as it is, and :meth:`CheckReport.to_dict`
nests it for JSON.  A sweep zips its records from the packed rows when read.
"""

from __future__ import annotations

import bisect
import collections.abc
import itertools
import math
import struct
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .bounds import (
    CATALOG,
    BoundId,
    Direction,
    Point,
    bound_value,
    check_row,
    row_step,
)
from .errors import BesselIntError, InvalidDomain, NonConvergence, NotFound
from .oracle import (
    IntegralSpec,
    QuadResult,
    bessel_integral,
    check_tol,
    cumulative_bessel_integral,
)
from .scaled import ScaledValue, exp_float, log_dict

__all__ = [
    "CHECK_COLUMNS",
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

#: the oracle sign, log and error of a failed check: no value, and an error that is unknown, not 0
_NO_ORACLE = (0, 0.0, math.nan)
_QUAD = struct.Struct("=bdd")  # an oracle result's sign, log and error, as a sweep keeps them


class Verdict(str, Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


_HOLDS, _VIOLATED, _INCONCLUSIVE = _VERDICTS = tuple(Verdict)  # a sweep keeps the index


def _point_dict(nu: float, n: float, mu: Optional[float], gamma: float, x: float) -> dict:
    return {"nu": nu, "n": n, "mu": mu, "gamma": gamma, "x": x}


def _point(r) -> Point:
    return Point(r.nu, r.n, r.mu, r.gamma, r.x)


class CheckReport(NamedTuple):
    """One check, flat, its fields the CSV columns of ``check`` and ``sweep``: its
    point's coordinates, its bound's and the oracle's ``(sign, log_abs)``, the oracle's
    error, and the verdict last, where a CSV reader may take it by position.  Its enums
    are ``str`` enums, which CSV and JSON write as their values.  ``point`` and
    ``bound_value`` are built when read."""

    bound: BoundId
    nu: float
    n: float
    mu: Optional[float]
    gamma: float
    x: float
    bound_sign: int
    bound_log_abs: float
    oracle_sign: int
    oracle_log_abs: float
    oracle_rel_err: float
    rel_margin: float
    uncertainty: float
    direction: Direction
    reason: Optional[str]
    verdict: Verdict

    point = property(_point)

    @property
    def bound_value(self) -> ScaledValue:
        return ScaledValue(self.bound_sign, self.bound_log_abs)

    def to_dict(self) -> dict:
        """The JSON nesting: the point and each ``(sign, log_abs)`` become members."""
        (bound, nu, n, mu, gamma, x, sign, log, o_sign, o_log, o_err, margin, unc,
         direction, reason, verdict) = self
        return {
            "bound": bound,
            "point": _point_dict(nu, n, mu, gamma, x),
            "bound_value": log_dict(sign, log),
            "oracle_value": log_dict(o_sign, o_log),
            "oracle_rel_err": o_err,
            "rel_margin": margin,
            "uncertainty": unc,
            "direction": direction,
            "reason": reason,
            "verdict": verdict,
        }


#: a check's fields, in order: the CSV header of ``check`` and ``sweep``
CHECK_COLUMNS = CheckReport._fields


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
        return {"bound": self.bound.value, "point": _point_dict(*self[1:6]),
                "reason": self.reason}


def _pack(column: tuple) -> bytes | tuple:
    """A float column as bytes, kept if it holds ``math.nan``, so that records compare equal."""
    return column if math.nan in column else array("d", column).tobytes()


def _floats(column: bytes | tuple) -> Iterable[float]:
    return memoryview(column).cast("d") if type(column) is bytes else column


# A checked row, as a sweep keeps it: (bound value, nu, n, mu, gamma, xs, its integral's
# packed oracle results, bound signs, bound logs, verdict codes, margins, uncertainties,
# direction value, reasons or None if none failed).  Its records are CheckReports.


def _report_columns(row: tuple, memo: dict) -> list:
    """The columns of a checked row, one per :class:`CheckReport` field after gamma.  Each
    integral's oracle results are unpacked once per ``memo``; a failed check's are
    :data:`_NO_ORACLE`."""
    *_, xs, oracle, signs, logs, codes, margins, uncs, direction, reasons = row
    if (results := memo.get(oracle)) is None:
        results = memo[oracle] = tuple(zip(*_QUAD.iter_unpack(oracle)))
    if reasons:
        results = zip(*[_NO_ORACLE if r else o for o, r in zip(zip(*results), reasons)])
    return [xs, memoryview(signs).cast("b"), _floats(logs), *results, _floats(margins),
            _floats(uncs), itertools.repeat(Direction(direction)),
            reasons or itertools.repeat(None), map(_VERDICTS.__getitem__, codes)]


class _Records(collections.abc.Sequence):
    """The read-only ``record``s of per-row entries ``(bound value, nu, n, mu, gamma,
    xs, ...)`` in row order: each a row's bound and coordinates and one entry of each
    of ``columns(row, memo)``, built each time it is read.  A slice is a list."""

    def __init__(self, rows: list[tuple], record: type, columns: Callable) -> None:
        self._rows, self._record, self._columns = rows, record, columns
        self._starts = list(itertools.accumulate((len(row[5]) for row in rows), initial=0))

    def _build(self, row: tuple, memo: dict) -> Iterator:
        # no Python-level constructor per record: zip reuses its tuple once it is copied
        fields = zip(*map(itertools.repeat, (BoundId(row[0]), *row[1:5])),
                     *self._columns(row, memo))
        return map(tuple.__new__, itertools.repeat(self._record), fields)

    def __len__(self) -> int:
        return self._starts[-1]

    def __iter__(self):
        return itertools.chain.from_iterable(map(self._build, self._rows, itertools.repeat({})))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = range(len(self))[index]  # counts from the end if negative; IndexError past it
        k = bisect.bisect_right(self._starts, i) - 1
        return list(self._build(self._rows[k], {}))[i - self._starts[k]]

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, _Records)) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class SweepResult:
    """A sweep's reports and skipped points, each a read-only sequence whose records are
    built when read, in canonical order, and its verdict counts.  Its rows hold only values
    that the garbage collector untracks, so a full collection walks nothing of a held result."""

    reports: Sequence[CheckReport]
    skipped: Sequence[SkippedPoint]
    counts: dict[str, int]


def _row_reports(direction: Direction, step: Callable[[float], tuple[int, float, int, float]],
                 results: Iterable[tuple[float, QuadResult | BesselIntError]]) -> list[tuple]:
    """Each check's :class:`CheckReport` fields after ``x``, on a bound's :func:`row_step`
    ``step`` at each ``(x, oracle result)`` of ``results``.  An error, given in place of
    the oracle result or raised by the step, makes its check INCONCLUSIVE with the reason."""
    upper, equality = direction is Direction.UPPER, direction is Direction.EQUALITY
    reports = []
    for x, oracle in results:
        if not isinstance(oracle, BesselIntError):
            try:
                sign, log, _, share = step(x)
                o_sign, o_log, o_err, _, _ = oracle
                if not o_sign:
                    raise InvalidDomain("oracle integral is zero; no relative margin exists")
                ratio = exp_float(sign * o_sign, log - o_log)
                # positive means the inequality holds; at an equality any gap counts
                # against.  No sign factor: it would turn a zero margin into -0.0
                margin = ratio - 1.0 if upper else -abs(ratio - 1.0) if equality else 1.0 - ratio
                # each log_abs is rounded to u = 2^-53 of itself, and the ratio's exp carries that
                rounding = 2.0 ** -53 * (abs(log) + abs(o_log))
                unc = (o_err + KERNEL_UNCERTAINTY
                       + (math.expm1(rounding) if rounding < 709.0 else math.inf) + share)
                verdict = (_HOLDS if margin > unc else
                           _VIOLATED if margin < -unc else _INCONCLUSIVE)
                reports.append((sign, log, o_sign, o_log, o_err, margin, unc, direction, None,
                                verdict))
                continue
            except BesselIntError as exc:
                oracle = exc
        reports.append((0, 0.0, *_NO_ORACLE, math.nan, math.inf, direction,
                        f"{type(oracle).__name__}: {oracle}", _INCONCLUSIVE))
    return reports


def check_point(id: BoundId, point: Point, tol: float = 1e-10,
                exploratory: bool = False) -> CheckReport:
    """Verdict for one bound at one point; the oracle runs at ``tol``, which
    sets only its ``converged`` flag and never the verdict.

    The bound is :func:`bound_value`, or with ``exploratory=True`` one unchecked
    :func:`row_step` step, so that a bound can be probed outside its hypotheses
    (e.g. PROP1 with mu < 1/2, which is expected to flip at large x); either
    runs before the oracle, and its :class:`InvalidDomain` (``x <= 0``, or a
    closed form undefined at the point) propagates, as does the oracle's (an
    integral past the float representation).  An oracle that does not converge,
    such as one that needs more series terms than it allows, makes the check
    INCONCLUSIVE with its error as the reason, as in a :func:`sweep`.
    """
    check_tol(tol)
    value = (row_step(id, point)(point.x) if exploratory else
             bound_value(id, point.nu, point.n, point.mu, point.gamma, point.x)[:4])
    try:
        oracle = bessel_integral(CATALOG[id].integrand(point), tol)
    except NonConvergence as exc:
        oracle = exc
    (fields,) = _row_reports(CATALOG[id].direction_at(point), lambda x: value,
                             [(point.x, oracle)])
    return CheckReport(id, point.nu, point.n, point.mu, point.gamma, point.x, *fields)


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


def _oracle_row(mu: float, ordv: float, gamma: float, xs: Sequence[float], tol: float) -> tuple:
    """Each x's integral, or the error that stands in for it, and the sign, log and error
    of each packed (:data:`_NO_ORACLE`'s for an error): one oracle call per row, where the
    benchmark tracer counts rows, and on failure one per x, so that an error stands in only
    for its own."""
    try:
        results: list = cumulative_bessel_integral(mu, ordv, gamma, xs, tol)
    except BesselIntError:
        results = []
        for x in xs:
            try:
                results.append(bessel_integral(IntegralSpec(mu, ordv, gamma, x), tol))
            except BesselIntError as exc:
                results.append(exc)
    return results, b"".join(itertools.starmap(_QUAD.pack, (
        _NO_ORACLE if isinstance(r, BesselIntError) else r[:3] for r in results)))


def sweep(ids: Sequence[BoundId], grid: Grid, tol: float = 1e-10) -> SweepResult:
    """Check every bound at every valid grid point, a row at a time.

    Out-of-domain points are skipped and recorded with the violated hypothesis,
    checked once per row and ``x > 0`` per x; evaluation errors become
    INCONCLUSIVE reports with the failure reason.  That includes an integral
    the oracle cannot sum (for example one that needs more series terms than
    the oracle allows): the checks that need it are INCONCLUSIVE with its
    error, and every other check, on the same ``(mu, ord, gamma)`` row too,
    goes on as usual.  Each distinct oracle row runs once, before any check,
    grouped by ``mu + ord + 1`` (then gamma) to share the oracle's S tables.
    Output order is canonical whatever the order of ``ids`` or of the axes, and a
    repeated id or axis value counts once, -0.0 as 0.0: bounds by id value, then
    the product of the sorted axes.  As in :func:`check_point`, ``tol`` goes to
    the oracle and moves no verdict.
    """
    check_tol(tol)
    nus, ns, mus, gammas, xs = (sorted({v + 0.0 for v in axis}) for axis in (  # -0.0 + 0.0 is 0.0
        grid.nu_values, grid.n_values, grid.mu_values, grid.gamma_values, grid.x_values))
    # hypotheses hold per row and x > 0 per x: so these are every checked and oracle row's xs
    limits = tuple(x for x in xs if x > 0)
    skipped = []  # (bound value, nu, n, mu, gamma, its skipped xs, their reasons)
    plan = []  # (bound, row, its integral, its direction), in output order
    for bid in sorted(set(ids), key=lambda b: b.value):
        entry = CATALOG[bid]
        axes = (nus, ns if entry.uses_n else [0.0], mus if entry.uses_mu else [None], gammas)
        for row in itertools.starmap(Point, itertools.product(*axes)):
            if skips := [(x, r) for x, r in zip(xs, entry.reasons(row, xs)) if r is not None]:
                skipped.append((bid.value, row.nu, row.n, row.mu, row.gamma, *zip(*skips)))
            if len(skips) < len(xs):
                plan.append((bid, row, entry.integrand(row), entry.direction_at(row)))
    keys = dict.fromkeys((spec.mu, spec.ord, spec.gamma) for *_, spec, _ in plan)
    integrals = {key: _oracle_row(*key, limits, tol)
                 for key in sorted(keys, key=lambda k: (k[0] + k[1], k[2]))}
    checked = []
    for bid, row, spec, direction in plan:
        results, oracle = integrals[spec.mu, spec.ord, spec.gamma]
        signs, logs, _, _, _, margins, uncs, _, reasons, verdicts = zip(*_row_reports(
            direction, row_step(bid, row), zip(limits, results)))
        checked.append((bid.value, row.nu, row.n, row.mu, row.gamma, limits, oracle,
                        array("b", signs).tobytes(), _pack(logs),
                        bytes(map(_VERDICTS.index, verdicts)), _pack(margins), _pack(uncs),
                        direction.value, reasons if any(reasons) else None))
    counts = {v.value: sum(row[9].count(code) for row in checked)  # row[9]: its verdict codes
              for code, v in enumerate(_VERDICTS)}
    return SweepResult(reports=_Records(checked, CheckReport, _report_columns), counts=counts,
                       skipped=_Records(skipped, SkippedPoint, lambda row, memo: row[5:]))


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
    steps = list(map(row_step(id, template), x_sequence))
    spec = CATALOG[id].integrand(template)  # every point shares it up to x
    oracle = cumulative_bessel_integral(spec.mu, spec.ord, spec.gamma, list(x_sequence))
    return [exp_float(sign * f.sign, log - f.log_abs)
            for (sign, log, _, _), f in zip(steps, oracle)]


def find_crossover(mu: float, nu: float, gamma: float, x_max: float = 500.0) -> Optional[float]:
    """Abscissa where ``F - e^(-gamma x) x^mu I_nu(x)/(1-gamma)`` changes sign.

    For ``mu >= nu >= 1/2`` the difference stays negative for every x and
    the function returns None.  For ``mu < 1/2`` a sign change exists for
    large enough x; if none is found below ``x_max``, :class:`NotFound`
    reports the range searched.  Bisection refines the bracket to relative
    width 1e-6.  The comparison term is the PROP1 bound, evaluated outside
    its hypotheses where needed (one unchecked :func:`row_step`).
    """
    if not mu + nu > -1.0:
        raise InvalidDomain(f"needs mu + nu > -1, got {mu + nu}")
    if not 0.0 <= gamma < 1.0:
        raise InvalidDomain(f"needs 0 <= gamma < 1, got {gamma}")
    if not x_max / 10.0 > 0:  # the first probe is at x_max/10 when that is below 0.1
        raise InvalidDomain(f"needs x_max/10 > 0, got x_max={x_max}")
    if mu >= nu >= 0.5:
        return None
    prop1 = row_step(BoundId.PROP1, Point(nu, mu=mu, gamma=gamma))

    def defect_sign(x: float) -> int:
        f = bessel_integral(IntegralSpec(mu, nu, gamma, x)).value
        return (f - ScaledValue(*prop1(x)[:2])).sign

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
