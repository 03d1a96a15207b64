"""Command-line front end.

Verbs: ``eval``, ``bound``, ``check``, ``sweep``, ``table``, ``tightness``,
``crossover``.  Output is JSON (default) or CSV; magnitudes are rendered
as (sign, log_abs) pairs, and a record carries no member derived from another.
The JSON envelope is ``{command, parameters, results[], summary}``, plus
``skipped[]`` for ``sweep``, written one top-level member per line and one
list entry per line, so both ``json.load`` and line tools read it.  Floats are
written in their shortest round-trip digits, as ``repr``; JSON writes a
non-finite one as null, CSV as ``nan`` or ``inf``.

Each verb's handler gets arguments already validated by argparse, does the
work and returns ``(parameters, records, body, exit_code)``: ``body`` builds
the JSON members on call, and ``records`` are the CSV rows.  A check's record,
from ``check`` or ``sweep``, is one flat tuple in ``CHECK_COLUMNS`` order: its
CSV row writes it as it is, and its JSON result is ``check_dict``'s nesting of
it.  Every other verb's record is a dict, flattened into a CSV row under a header
taken from the first.  ``sweep`` hands its records over as iterators, so each is
made as it is written.  :func:`run` is the only place that writes output.

Exit codes: 0 success (all checks HOLDS/INCONCLUSIVE), 1 some check
VIOLATED, 2 usage error, 3 numerical failure; a reader that closes stdout
early changes none of them.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator
from typing import Optional

from .bounds import BoundId, Point, bound_value
from .errors import BesselIntError, InvalidDomain
from .oracle import TOL_MAX, TOL_MIN, IntegralSpec, bessel_integral, check_tol
from .verifier import (
    CHECK_COLUMNS,
    Grid,
    SkippedPoint,
    Verdict,
    check_dict,
    check_point,
    default_grid,
    find_crossover,
    logspace,
    relative_error_table,
    sweep,
    tightness_scan,
)

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _finite(text: str) -> float:
    """A float that is not inf or nan: the type of each numeric flag and list entry."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    values = [_finite(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no number in {text!r}")
    return values


def _bound_id(text: str) -> BoundId:
    try:
        return BoundId(text.strip().lower())
    except ValueError:
        names = ", ".join(b.value for b in BoundId)
        raise argparse.ArgumentTypeError(f"unknown bound {text!r}; choose from: {names}")


def _bound_list(text: str) -> list[BoundId]:
    if text.strip().lower() == "all":
        return list(BoundId)
    ids = [_bound_id(tok) for tok in text.split(",") if tok.strip()]
    if not ids:
        raise argparse.ArgumentTypeError(f"no bound id in {text!r}")
    return ids


def _x_logspace(text: str) -> list[float]:
    try:
        lo, hi, count = text.split(",")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO,HI,COUNT, got {text!r}")
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf and count >= 1):
        raise argparse.ArgumentTypeError(
            f"needs finite LO > 0 and HI > 0 and COUNT >= 1, got {text!r}")
    return list(logspace(lo, hi, count))


def _tolerance(text: str) -> float:
    tol = _finite(text)
    try:
        check_tol(tol)
    except InvalidDomain as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tol


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselint",
        description="Evaluate, bound and certify incomplete Bessel integrals "
                    "of the family e^(-gamma t) t^mu I_ord(t).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_point(p):
        p.add_argument("--bound", type=_bound_id, required=True)
        p.add_argument("--nu", type=_finite, required=True)
        p.add_argument("--n", type=_finite, default=0.0)
        p.add_argument("--mu", type=_finite, default=None)
        p.add_argument("--gamma", type=_finite, default=0.0)

    def add_x_grid(p, required):
        xs = p.add_mutually_exclusive_group(required=required)
        xs.add_argument("--x", type=_float_list, default=None)
        xs.add_argument("--x-logspace", type=_x_logspace, default=None,
                        metavar="LO,HI,COUNT", help="log-spaced x grid, e.g. 1e-3,200,24")

    def add_common(p, handler, default_format="json"):
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "csv"), default=default_format)

    p = sub.add_parser("eval", help="value of the integral with an error bound")
    p.add_argument("--mu", type=_finite, required=True)
    p.add_argument("--ord", type=_finite, required=True, dest="ord_")
    p.add_argument("--gamma", type=_finite, required=True)
    p.add_argument("--x", type=_finite, required=True)
    add_common(p, _eval)
    p.add_argument("--tol", type=_tolerance, default=1e-10,  # sets only the exit code
                   help=f"relative tolerance in [{TOL_MIN}, {TOL_MAX}]")

    p = sub.add_parser("bound", help="closed-form bound value at a point")
    add_point(p)
    p.add_argument("--x", type=_finite, required=True)
    add_common(p, _bound)

    p = sub.add_parser("check", help="verdict for one bound at one point")
    add_point(p)
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--exploratory", action="store_true",
                   help="skip the bound's hypotheses, all but x > 0, and probe anyway")
    add_common(p, _check)

    p = sub.add_parser("sweep", help="certification sweep over a parameter grid")
    p.add_argument("--bounds", type=_bound_list, default="all",
                   help="comma-separated bound ids, or 'all'")
    p.add_argument("--nu", type=_float_list, default=None)
    p.add_argument("--gamma", type=_float_list, default=None)
    add_x_grid(p, required=False)  # without one, the default grid's x
    p.add_argument("--n", type=_float_list, default=None)
    p.add_argument("--mu", type=_float_list, default=None)
    add_common(p, _sweep)

    p = sub.add_parser("table", help="relative-error table of the two-sided enclosure")
    p.add_argument("--bound", type=_bound_id, required=True)
    p.add_argument("--nu", type=_float_list, required=True)
    p.add_argument("--x", type=_float_list, required=True)
    add_common(p, _table, default_format="csv")

    p = sub.add_parser("tightness", help="bound/oracle ratios along an x sequence")
    add_point(p)
    add_x_grid(p, required=True)
    add_common(p, _tightness)

    p = sub.add_parser("crossover", help="abscissa where the PROP1 comparison flips")
    p.add_argument("--mu", type=_finite, required=True)
    p.add_argument("--nu", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, default=0.0)
    p.add_argument("--x-max", type=_finite, default=500.0)
    add_common(p, _crossover)

    return parser


def _columns(record: dict) -> list[str]:
    """CSV header for rows like ``record``: a nested dict spreads over columns named
    ``member_field``."""
    return [f"{key}_{field}" if type(value) is dict else key
            for key, value in record.items()
            for field in (value if type(value) is dict else (key,))]


def _csv_row(record: dict) -> list:
    """Values of ``record`` in :func:`_columns` order; ``csv.writer`` writes None empty."""
    return [v for value in record.values()
            for v in (value.values() if type(value) is dict else (value,))]


#: RFC 8259 JSON of one fresh tree, so no cycle check; ValueError on a NaN or an infinity
_encode_strict = json.JSONEncoder(allow_nan=False, check_circular=False).encode


def _nulled(value):
    """``value`` with each non-finite float, in any dict or list, as None."""
    if type(value) is dict:
        return {k: _nulled(v) for k, v in value.items()}
    if type(value) is list:
        return list(map(_nulled, value))
    return None if type(value) is float and not math.isfinite(value) else value


def _encode(value) -> str:
    """JSON of ``value``, a non-finite float written as null."""
    try:
        return _encode_strict(value)
    except ValueError:
        return _encode_strict(_nulled(value))


def _write_json(out, members: dict) -> None:
    """``members`` one per line, a non-empty list or iterator one entry per line, each
    line one :func:`_encode` (CPython's C encoder, which ``indent`` turns off), none joined.
    A check's entry comes nested already, one ``check_dict`` of its flat record."""
    for i, (key, value) in enumerate(members.items()):
        out.write(f"{',' if i else '{'}\n{_encode(key)}: ")
        if isinstance(value, (list, Iterator)):
            j = 0
            for j, item in enumerate(value, 1):
                out.write(f"{',' if j > 1 else '['}\n{_encode(item)}")
            out.write("\n]" if j else "[]")
        else:
            out.write(_encode(value))
    out.write("\n}\n")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -0.25,...`` into ``--flag=-0.25,...`` so argparse does
    not mistake negative numbers for option names."""
    merged: list[str] = []
    for tok in argv:
        prev = merged[-1] if merged else ""
        if (prev.startswith("--") and "=" not in prev and len(tok) > 1
                and tok[0] == "-" and (tok[1].isdigit() or tok[1] == ".")):
            merged[-1] = f"{prev}={tok}"
        else:
            merged.append(tok)
    return merged


def run(argv: Optional[list[str]] = None, out=None) -> int:
    """Parse argv, execute, write to ``out`` (default stdout), return exit code.

    JSON goes through :func:`_write_json`.  A CSV is a header and one row per record:
    check records, flat tuples, are written as they arrive under ``CHECK_COLUMNS``, and
    dict records are flattened by :func:`_csv_row` under :func:`_columns` of the first.
    """
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(_merge_negative_values(
            list(argv) if argv is not None else sys.argv[1:]))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        parameters, records, body, code = args.handler(args)
    except BesselIntError as exc:
        print(f"besselint {args.verb}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, InvalidDomain) else EXIT_NUMERICAL

    try:
        if args.format == "json":
            _write_json(out, {"command": args.verb, "parameters": parameters, **body()})
        else:
            records = iter(records)
            first = next(records, None)
            if first is not None:  # a tuple is a check's flat record, written as it is
                flat = type(first) is tuple
                rows = itertools.chain([first], records)
                writer = csv.writer(out)
                writer.writerow(CHECK_COLUMNS if flat else _columns(first))
                writer.writerows(rows if flat else map(_csv_row, rows))
        if out is sys.stdout:  # a reader that closed early shows here, not at exit
            out.flush()
    except BrokenPipeError:  # the reader is done: the rest, and the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    return code


def _eval(args):
    result = bessel_integral(IntegralSpec(args.mu, args.ord_, args.gamma, args.x), args.tol)
    records = [{"value": result.value.to_dict(), "rel_err": result.rel_err,
                "segments": result.segments, "converged": result.converged}]
    return (
        {"mu": args.mu, "ord": args.ord_, "gamma": args.gamma, "x": args.x, "tol": args.tol},
        records,
        lambda: {"results": records, "summary": {"converged": result.converged}},
        EXIT_OK if result.converged else EXIT_NUMERICAL,
    )


def _bound(args):
    ev = bound_value(args.bound, nu=args.nu, n=args.n, mu=args.mu,
                     gamma=args.gamma, x=args.x)
    records = [{"value": ev.value.to_dict(), "direction": ev.direction.value,
                "truncation_terms": ev.truncation_terms, "tail_share": ev.tail_share}]
    return (
        {"bound": args.bound.value, "nu": args.nu, "n": args.n, "mu": args.mu,
         "gamma": args.gamma, "x": args.x},
        records,
        lambda: {"results": records, "summary": {"direction": ev.direction.value}},
        EXIT_OK,
    )


def _check(args):
    point = Point(nu=args.nu, n=args.n, mu=args.mu, gamma=args.gamma, x=args.x)
    report = check_point(args.bound, point, exploratory=args.exploratory)
    return (
        {"bound": args.bound.value, "nu": point.nu, "n": point.n, "mu": point.mu,
         "gamma": point.gamma, "x": point.x, "exploratory": args.exploratory},
        [report.flat()],
        lambda: {"results": [report.to_dict()], "summary": {"verdict": report.verdict.value}},
        EXIT_VIOLATED if report.verdict is Verdict.VIOLATED else EXIT_OK,
    )


def _sweep(args):
    base = default_grid()
    grid = Grid(
        nu_values=tuple(args.nu) if args.nu else base.nu_values,
        gamma_values=tuple(args.gamma) if args.gamma else base.gamma_values,
        x_values=tuple(args.x_logspace or args.x or base.x_values),
        n_values=tuple(args.n) if args.n else base.n_values,
        mu_values=tuple(args.mu) if args.mu else base.mu_values,
    )
    result = sweep(args.bounds, grid)
    return (
        {"bounds": [b.value for b in sorted(set(args.bounds), key=lambda b: b.value)],
         "nu": list(grid.nu_values), "gamma": list(grid.gamma_values),
         "x": list(grid.x_values), "n": list(grid.n_values),
         "mu": list(grid.mu_values)},
        result.flat(),
        lambda: {"results": map(check_dict, result.flat()),
                 "skipped": map(SkippedPoint.to_dict, result.skipped),
                 "summary": dict(result.counts)},
        EXIT_VIOLATED if result.counts["violated"] else EXIT_OK,
    )


def _table(args):
    # each value once, in the order given; -0.0 + 0.0 is 0.0
    nus, xs = (list(dict.fromkeys(v + 0.0 for v in axis)) for axis in (args.nu, args.x))
    table = relative_error_table(args.bound, nus, xs)
    return (
        {"bound": args.bound.value, "nu": nus, "x": xs},
        ({"nu": f"{nu:.17g}", **{f"{x:.17g}": f"{v:.4f}" for x, v in zip(table.x_values, row)}}
         for nu, row in zip(table.nu_values, table.entries)),
        lambda: {"results": [list(row) for row in table.entries],
                 "summary": {"nu_values": nus, "x_values": xs}},
        EXIT_OK,
    )


def _tightness(args):
    xs = args.x_logspace or args.x
    template = Point(nu=args.nu, n=args.n, mu=args.mu, gamma=args.gamma, x=xs[0])
    ratios = tightness_scan(args.bound, template, xs)
    records = [{"x": x, "ratio": r} for x, r in zip(xs, ratios)]
    return (
        {"bound": args.bound.value, "nu": args.nu, "n": args.n, "mu": args.mu,
         "gamma": args.gamma, "x": xs},
        records,
        lambda: {"results": records, "summary": {"final_ratio": ratios[-1]}},
        EXIT_OK,
    )


def _crossover(args):
    xstar = find_crossover(args.mu, args.nu, args.gamma, x_max=args.x_max)
    records = [{"crossover": xstar}]
    return (
        {"mu": args.mu, "nu": args.nu, "gamma": args.gamma, "x_max": args.x_max},
        records,
        lambda: {"results": records, "summary": {"found": xstar is not None}},
        EXIT_OK,
    )


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
