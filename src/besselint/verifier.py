"""Certification harness: verdicts, grid sweeps, tables, tightness, crossover.

A check compares one catalog bound against the series oracle at one point
and renders HOLDS / VIOLATED / INCONCLUSIVE from the ``(sign, log_abs)`` of
each: their ratio is one ``exp`` of the difference of the logs.  The
inconclusive band is the combined numerical uncertainty (the oracle's
a-priori error bound + the bound's series tail + a small kernel floor + the
rounding of both logs), and no tolerance widens it: a strict inequality can
never be certified at an equality point, so a margin inside the band is
neither pass nor failure.

Sweeps go one integral at a time, grouped by mu + ord + 1: each distinct
``(mu, ord, gamma)`` row of the oracle is summed once, and every (bound, nu, n, mu,
gamma) row that checks against it runs and is packed before the next integral, so
one integral's results are alive at a time.  Checks that share an integral share its
oracle result, and an integral whose series fails turns only its checks INCONCLUSIVE.
Each row's verdicts come from one loop, and a single check is a one-x row.  A sweep
refuses x <= 0, as every verb does, so each row spans the one x axis.  A
:class:`SweepResult` keeps that axis once and each row's checks as columns, and builds a
record when read.  A row holds only values that the garbage collector untracks (codes for
enums, bytes for numeric columns, one string for reasons), so a full collection skips them.

A check's record, from :func:`check_point` or a sweep, is one flat
:class:`CheckReport` whose fields are the CSV columns of ``check`` and ``sweep``
(:data:`CHECK_COLUMNS`): a CSV row writes it as it is, and :meth:`CheckReport.to_dict`
nests it for JSON.  A sweep zips its records from the packed rows when read.
"""

from __future__ import annotations

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

#: a failed check's oracle sign, log and error and margin: no value, and unknowns, not 0
_FAILED = (0, 0.0, math.nan, math.nan)
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


def _floats(column: bytes) -> memoryview:
    return memoryview(column).cast("d")


# A checked row, as a sweep keeps it: (bound value, nu, n, mu, gamma, its integral's packed
# oracle results, bound signs, verdict codes, bound logs, margins, uncertainties, direction
# value, None or, if a check failed, each x's reason or "" joined by NUL): CheckReports.


def _report_columns(row: tuple, memo: dict) -> list:
    """The columns of a checked row, one per :class:`CheckReport` field after x.  Each
    integral's oracle results are unpacked once per ``memo``; a failed check's, with its
    margin, are :data:`_FAILED`'s, so that records compare equal: a NaN unpacked from
    bytes is a new object, equal to no other."""
    *_, oracle, signs, codes, logs, margins, uncs, direction, reasons = row
    if (results := memo.get(oracle)) is None:
        results = memo[oracle] = tuple(zip(*_QUAD.iter_unpack(oracle)))
    results = (*results, _floats(margins))
    if reasons is not None:
        reasons = [r or None for r in reasons.split("\0")]
        results = zip(*[_FAILED if r else o for o, r in zip(zip(*results), reasons)])
    return [memoryview(signs).cast("b"), _floats(logs), *results, _floats(uncs),
            itertools.repeat(Direction(direction)), reasons or itertools.repeat(None),
            map(_VERDICTS.__getitem__, codes)]


def _skip_columns(row: tuple, memo: dict) -> tuple:
    """A skipped row's one reason, which every x shares."""
    return (itertools.repeat(row[5]),)


class _Records(collections.abc.Sequence):
    """The read-only ``record``s of per-row entries ``(bound value, nu, n, mu, gamma, ...)``
    at each x of the one packed axis ``xs``, in row order: a row's bound and coordinates, x
    and one entry of each of ``columns(row, memo)``, built when read.  A slice is a list."""

    def __init__(self, rows: list[tuple], xs: bytes, record: type, columns: Callable) -> None:
        self._rows, self._xs, self._record, self._columns = rows, xs, record, columns

    def _build(self, row: tuple, memo: dict) -> Iterator:
        # no Python-level constructor per record: zip reuses its tuple once it is copied
        fields = zip(*map(itertools.repeat, (BoundId(row[0]), *row[1:5])), _floats(self._xs),
                     *self._columns(row, memo))
        return map(tuple.__new__, itertools.repeat(self._record), fields)

    def __len__(self) -> int:
        return len(self._rows) * len(_floats(self._xs))

    def __iter__(self):
        return itertools.chain.from_iterable(map(self._build, self._rows, itertools.repeat({})))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        k, j = divmod(range(len(self))[index], len(_floats(self._xs)))  # IndexError past it
        return list(self._build(self._rows[k], {}))[j]

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
        reports.append((0, 0.0, *_FAILED, math.inf, direction,
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
    of each packed (an error's are never read: its check's are :data:`_FAILED`'s): one
    oracle call per row, where the benchmark tracer counts rows, and on failure one per x,
    so that an error stands in only for its own."""
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
        (_FAILED if isinstance(r, BesselIntError) else r)[:3] for r in results)))


def sweep(ids: Sequence[BoundId], grid: Grid, tol: float = 1e-10) -> SweepResult:
    """Check every bound at every grid point, one integral at a time.

    An ``x <= 0`` or a NaN on any axis raises :class:`InvalidDomain` before any
    work.  A row outside its bound's hypotheses is skipped at every x, recorded
    with the violated hypothesis; evaluation errors become INCONCLUSIVE reports
    with the failure reason.  That includes an integral the oracle cannot sum
    (one at x = inf, or one that needs more series terms than the oracle allows):
    the checks that need it are INCONCLUSIVE with its error, and every other
    check, on the same ``(mu, ord, gamma)`` row too, goes on as usual.  Each
    distinct oracle row runs once, grouped by ``mu + ord + 1`` (then mu, then
    gamma) to share the oracle's S tables and the bounds' ratio lists, and every
    row that checks against it runs and is packed before the next, so that one
    integral's results are alive at a time.  Output order is canonical whatever
    the order of ``ids`` or of the axes, and a repeated id or axis value counts
    once, -0.0 as 0.0: bounds by id value, then the product of the sorted axes.
    As in :func:`check_point`, ``tol`` goes to the oracle and moves no verdict.
    """
    check_tol(tol)
    grid_axes = {"nu": grid.nu_values, "n": grid.n_values, "mu": grid.mu_values,
                 "gamma": grid.gamma_values, "x": grid.x_values}
    for name, axis in grid_axes.items():
        if bad := [v for v in axis if math.isnan(v) or name == "x" and not v > 0]:
            raise InvalidDomain(f"a sweep needs x > 0 and no NaN on an axis (got {name}={bad[0]})")
    nus, ns, mus, gammas, xs = (sorted({v + 0.0 for v in axis})  # -0.0 + 0.0 is 0.0
                                for axis in grid_axes.values())
    skipped = []  # (bound value, nu, n, mu, gamma, its reason)
    plan = []  # (bound, row, its direction), in output order
    uses = {}  # each integral's (mu, ord, gamma): the indices of the plan rows that need it
    for bid in sorted(set(ids), key=lambda b: b.value):
        entry = CATALOG[bid]
        axes = (nus, ns if entry.uses_n else [0.0], mus if entry.uses_mu else [None], gammas)
        for row in itertools.starmap(Point, itertools.product(*axes)):
            for reason in entry.reasons(row, xs[:1]):  # the row's, at every x; none with no x
                if reason is not None:
                    skipped.append((bid.value, row.nu, row.n, row.mu, row.gamma, reason))
                    continue
                spec = entry.integrand(row)
                uses.setdefault((spec.mu, spec.ord, spec.gamma), []).append(len(plan))
                plan.append((bid, row, entry.direction_at(row)))
    checked = [None] * len(plan)
    for key in sorted(uses, key=lambda k: (k[0] + k[1], k[0], k[2])):
        results, oracle = _oracle_row(*key, xs, tol)
        for i in uses[key]:
            bid, row, direction = plan[i]
            signs, logs, _, _, _, margins, uncs, _, reasons, verdicts = zip(*_row_reports(
                direction, row_step(bid, row), zip(xs, results)))
            checked[i] = (bid.value, row.nu, row.n, row.mu, row.gamma, oracle,
                          array("b", signs).tobytes(), bytes(map(_VERDICTS.index, verdicts)),
                          *(array("d", column).tobytes() for column in (logs, margins, uncs)),
                          direction.value,
                          "\0".join(r or "" for r in reasons) if any(reasons) else None)
    counts = {v.value: sum(row[7].count(code) for row in checked)  # row[7]: its verdict codes
              for code, v in enumerate(_VERDICTS)}
    packed_xs = array("d", xs).tobytes()
    return SweepResult(reports=_Records(checked, packed_xs, CheckReport, _report_columns),
                       skipped=_Records(skipped, packed_xs, SkippedPoint, _skip_columns),
                       counts=counts)


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
