"""Correctness checks on a round's outputs, run outside the timed region.

Nothing here compares against a saved copy of earlier output.  The checks
use the paper's theorems (no bound is violated), grid arithmetic worked out
from the grid axes, the paper's published tables, the uniform Stein-factor
constants, and an independent mpmath evaluation of the integral.

Each check returns a list of problems; an empty list means the round is
correct.
"""

from __future__ import annotations

import csv
import json
import random

from besselint.bounds import BoundId, Direction, m_bound_constant
from besselint.verifier import Grid, Verdict, default_grid, logspace

#: bounds that range over the n axis or the mu axis of a grid (catalog docstring)
USES_N = {BoundId.NEW1, BoundId.LOWER4, BoundId.TWOSIDED_L, BoundId.TWOSIDED_U, BoundId.DAY}
USES_MU = {BoundId.PROP1}

NEAR_EQUALITY_MARGIN = 1e-11

#: published relative errors of the lower member of the two-sided enclosure,
#: rows nu = -0.25, 0, 1, 2.5, 5 and columns x = 1, 2.5, 5, 10, 15, 25, 50, 100
TABLE_LOWER = (
    (0.0006, 0.0199, 0.1528, 0.3593, 0.3747, 0.3105, 0.1943, 0.1081),
    (0.0002, 0.0074, 0.0528, 0.1305, 0.1425, 0.1227, 0.0789, 0.0445),
    (0.0000, 0.0006, 0.0046, 0.0154, 0.0199, 0.0199, 0.0142, 0.0085),
    (0.0000, 0.0000, 0.0005, 0.0023, 0.0037, 0.0045, 0.0038, 0.0025),
    (0.0000, 0.0000, 0.0000, 0.0003, 0.0006, 0.0009, 0.0010, 0.0007),
)

#: published relative errors of the upper member; the (nu=2.5, x=1) cell is
#: printed as 0.0001, a digit left over from the x = 0.5 column of an earlier
#: draft, and carries the documented corrected value 0.0005 here
TABLE_UPPER = (
    (0.0403, 0.2132, 0.4675, 0.4323, 0.3268, 0.2137, 0.1134, 0.0584),
    (0.0199, 0.0991, 0.2038, 0.1973, 0.1543, 0.1034, 0.0558, 0.0290),
    (0.0030, 0.0156, 0.0368, 0.0464, 0.0411, 0.0303, 0.0175, 0.0094),
    (0.0005, 0.0030, 0.0084, 0.0144, 0.0149, 0.0125, 0.0080, 0.0045),
    (0.0000, 0.0005, 0.0017, 0.0039, 0.0049, 0.0050, 0.0037, 0.0023),
)

#: integrals checked against mpmath per run, and the relative slack granted
#: on top of the oracle's own error estimate (the kernel's advertised
#: accuracy, which that estimate leaves out)
MPMATH_SAMPLE = 6
SLACK_SMALL_X, SLACK_LARGE_X = 1e-12, 1e-10


def grid_size(ids, grid: Grid) -> int:
    """Checks plus skipped records of a sweep, from the grid axes alone."""
    base = len(grid.nu_values) * len(grid.gamma_values) * len(grid.x_values)
    total = 0
    for bid in set(ids):
        size = base
        if bid in USES_N:
            size *= len(grid.n_values)
        if bid in USES_MU:
            size *= len(grid.mu_values)
        total += size
    return total


def near_equality(r) -> bool:
    """Whether an INCONCLUSIVE report sits where a bound is (nearly) attained.

    * EQUALITY direction: LOWER1 at gamma = 0, NEW1 at gamma = 0, n = -1;
    * LOWER4 / TWOSIDED_L at gamma = 0 and x <= 0.25: both sides agree to
      O(x^4) there;
    * NEED2 at x <= 0.02: the linear terms of bound and integral cancel;
    * PROP1 on the diagonal mu = nu = 1/2 once (1 - gamma) x > 20: the defect
      (1 - e^-(1+gamma)x)/(1 - gamma^2) is exponentially small next to the
      integral there.

    Every class also caps |margin|, so none can hide a materially wrong verdict.
    """
    p = r.point
    if not abs(r.rel_margin) <= NEAR_EQUALITY_MARGIN:
        return False
    if r.direction is Direction.EQUALITY:
        return True
    if r.bound in (BoundId.LOWER4, BoundId.TWOSIDED_L) and p.gamma == 0.0 and p.x <= 0.25:
        return True
    if r.bound is BoundId.NEED2 and p.x <= 0.02:
        return True
    return (r.bound is BoundId.PROP1 and p.mu == 0.5 and p.nu == 0.5
            and (1.0 - p.gamma) * p.x > 20.0)


def check_sweep(result, ids, grid: Grid) -> list[str]:
    problems = []
    counts = result.counts
    if counts["violated"]:
        problems.append(f"{counts['violated']} VIOLATED verdicts")
    errors = [r for r in result.reports if r.reason is not None]
    if errors:
        problems.append(f"{len(errors)} reports carry an evaluation error, "
                        f"first: {errors[0].reason}")
    expected = grid_size(ids, grid)
    got = counts["holds"] + counts["inconclusive"] + counts["violated"] + len(result.skipped)
    if got != expected or len(result.reports) != sum(counts.values()):
        problems.append(f"verdicts + skipped = {got}, grid axes give {expected}")
    odd = [r for r in result.reports
           if r.verdict is Verdict.INCONCLUSIVE and not near_equality(r)]
    if odd:
        r = odd[0]
        problems.append(f"{len(odd)} INCONCLUSIVE outside the near-equality classes, "
                        f"first: {r.bound.value} at {r.point} margin {r.rel_margin:.3g}")
    return problems


# ----------------------------------------------------------------------
# point_queries
# ----------------------------------------------------------------------

def mpmath_integral(mu: float, order: float, gamma: float, x: float):
    """``integral_0^x e^(-gamma t) t^mu I_order(t) dt`` by mpmath.

    The piece on [0, min(1, x)] is the term-wise integrated double power
    series, which stays exact as mu + order approaches -1, where
    ``mpmath.quad`` is off by up to 3e-4.  The rest is Gauss-Legendre
    quadrature on panels that at most double t, which resolves the power of
    t, and that are short enough for the e^((1-gamma) t) growth to stay
    below e^20 across one.
    """
    import mpmath

    with mpmath.workdps(16):
        mu, order, gamma, x = (mpmath.mpf(v) for v in (mu, order, gamma, x))
        a = min(mpmath.mpf(1), x)
        eps = mpmath.mpf(10) ** -22
        total = mpmath.mpf(0)
        for k in range(400):
            amp = mpmath.mpf(0.5) ** (order + 2 * k) / (
                mpmath.factorial(k) * mpmath.gamma(order + k + 1))
            inner, c = mpmath.mpf(0), mpmath.mpf(1)
            for j in range(1000):
                p = mu + order + 2 * k + j + 1
                term = c * a ** p / p
                inner += term
                c *= -gamma / (j + 1)
                if j > 2 and abs(term) <= eps * abs(inner):
                    break
            total += amp * inner
            if k > 2 and abs(amp * inner) <= eps * abs(total):
                break
        if x > a:
            longest = 20.0 / max(float(1 - gamma), 0.02)
            nodes = [a]
            while nodes[-1] < x:
                nodes.append(min(x, nodes[-1] + min(nodes[-1], longest)))
            total += mpmath.quad(
                lambda t: mpmath.exp(-gamma * t) * t ** mu * mpmath.besseli(order, t),
                nodes, method="gauss-legendre")
        return total


def check_queries(outputs, seed: int, sample: int = MPMATH_SAMPLE) -> list[str]:
    problems = []
    integrals = []
    for q, res in outputs:
        if q[0] == "bessel_integral":
            integrals.append((q[1], res))
        elif q[0] == "check_point":
            if res.verdict is Verdict.VIOLATED:
                problems.append(f"check_point {q[1].value} at {q[2]}: VIOLATED "
                                f"(margin {res.rel_margin:.3g})")
        else:
            nu, beta, n, _x = q[1:]
            cap = m_bound_constant(nu, beta, n)
            if not res.to_float() < cap:
                problems.append(f"m_value{q[1:]} = {res.to_float()!r} >= {cap!r}")
    if sample:
        import mpmath

        for spec, res in random.Random(seed).sample(integrals, min(sample, len(integrals))):
            ref = mpmath_integral(spec.mu, spec.ord, spec.gamma, spec.x)
            got = res.value.sign * mpmath.exp(res.value.log_abs)
            err = mpmath.exp(res.abs_err.log_abs) if res.abs_err.sign else 0
            slack = SLACK_SMALL_X if spec.x <= 50.0 else SLACK_LARGE_X
            if not abs(got - ref) <= err + slack * abs(ref):
                problems.append(f"bessel_integral{spec}: {mpmath.nstr(got, 17)} vs mpmath "
                                f"{mpmath.nstr(ref, 17)}, reported abs_err "
                                f"{mpmath.nstr(err, 3)}")
    return problems


# ----------------------------------------------------------------------
# cli_emit
# ----------------------------------------------------------------------

def _cli_grid(argv: list[str]) -> tuple[list[BoundId], Grid]:
    """The grid a ``sweep`` argv asks for, from the default axes and its flags."""
    base = default_grid()
    flags = dict(zip(argv[1::2], argv[2::2])) if argv[0] == "sweep" else {}
    floats = lambda key, default: (tuple(float(v) for v in flags[key].split(","))
                                   if key in flags else default)
    xs = base.x_values
    if "--x-logspace" in flags:
        lo, hi, count = flags["--x-logspace"].split(",")
        xs = logspace(float(lo), float(hi), int(count))
    grid = Grid(nu_values=floats("--nu", base.nu_values),
                gamma_values=floats("--gamma", base.gamma_values), x_values=xs,
                n_values=floats("--n", base.n_values), mu_values=floats("--mu", base.mu_values))
    return list(BoundId), grid


def _table_problems(path, expected, label: str) -> list[str]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    cells = [[float(v) for v in row[1:]] for row in rows[1:]]
    if len(cells) != len(expected) or any(len(r) != len(e) for r, e in zip(cells, expected)):
        return [f"{label}: table shape {[len(r) for r in cells]}"]
    bad = [(i, j, got, want)
           for i, (row, exp_row) in enumerate(zip(cells, expected))
           for j, (got, want) in enumerate(zip(row, exp_row))
           if abs(got - want) > 1e-4 + 1e-12]
    return [f"{label}: cells off the published table by > 1e-4: {bad[:3]}"] if bad else []


def check_cli(outputs) -> tuple[list[str], int]:
    """Problems in one round's CLI output files, and the verdicts they hold."""
    problems = []
    verdicts = 0
    json_results = None
    for label, argv, fmt, path in outputs:
        if label == "sweep_json":
            with open(path) as f:
                doc = json.load(f)
            ids, grid = _cli_grid(argv)
            results, summary = doc["results"], doc["summary"]
            expected = grid_size(ids, grid)
            if len(results) + len(doc["skipped"]) != expected:
                problems.append(f"sweep JSON: {len(results)} results + {len(doc['skipped'])} "
                                f"skipped, grid axes give {expected}")
            if sum(summary.values()) != len(results) or summary.get("violated"):
                problems.append(f"sweep JSON summary {summary} for {len(results)} results")
            if any(r["verdict"] == "violated" or r["reason"] for r in results):
                problems.append("sweep JSON holds a violated or failed check")
            json_results = len(results)
            verdicts += len(results)
        elif label == "sweep_csv":
            with open(path, newline="") as f:
                rows = list(csv.reader(f))[1:]
            if json_results is not None and len(rows) != json_results:
                problems.append(f"sweep CSV has {len(rows)} rows, JSON {json_results} checks")
            if any(row[15] == "violated" for row in rows):
                problems.append("sweep CSV holds a violated check")
            verdicts += len(rows)
        elif label == "table_lower":
            problems += _table_problems(path, TABLE_LOWER, label)
        elif label == "table_upper":
            problems += _table_problems(path, TABLE_UPPER, label)
    return problems, verdicts
