"""Inputs and rounds of the three benchmark workloads.

A round is a fixed amount of work that a run repeats until its time is up;
every round starts from cold kernel caches, as a fresh CLI process would.

* ``certify`` -- one ``sweep(list(BoundId), default_grid(), tol=1e-10)``.
* ``point_queries`` -- a closed loop of independent single-point requests
  (``bessel_integral``, ``check_point``, ``m_value``) drawn from the seed.
* ``cli_emit`` -- ``besselint sweep --bounds all --gamma 0`` in JSON, then in
  CSV, then the two 40-entry ``table`` runs, through ``cli.run`` into files.

Library entry points are looked up on their modules at call time, so the
wrappers that :mod:`tracing` installs there see every call.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from besselint import bounds, cli, kernel, oracle, verifier
from besselint.bounds import BoundId, Point
from besselint.oracle import IntegralSpec
from besselint.verifier import Grid, default_grid, logspace

#: point_queries requests per kind in one round; 3 x 334 = 1002 requests, so
#: the 99th percentile of even a one-round run has ten samples beyond it
QUERIES_PER_KIND = 334
SHORT_QUERIES_PER_KIND = 14

X_LO, X_HI = 1e-3, 1000.0
GAMMA_HI = 0.99
QUERY_TOL = 1e-10

NU_AXIS = "-0.25,0,1,2.5,5"
X_AXIS = "1,2.5,5,10,15,25,50,100"


@dataclass
class Inputs:
    workload: str
    seed: int
    grid: Grid | None = None
    queries: list[tuple] = field(default_factory=list)
    invocations: list[tuple[str, list[str], str]] = field(default_factory=list)


@dataclass
class Round:
    """What one round did: per-operation latencies and outputs to check."""

    latencies: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    verdicts: int = 0
    bytes_out: int = 0

    @property
    def seconds(self) -> float:
        return math.fsum(self.latencies)


def short_grid() -> Grid:
    """A 2 x 2 x 6 slice of the default grid for the harness self-check."""
    return Grid(nu_values=(0.0, 1.0), gamma_values=(0.0, 0.5),
                x_values=logspace(1e-3, 200.0, 6), n_values=(0.0, 1.0),
                mu_values=(0.5, 1.0))


def make_inputs(workload: str, seed: int, short: bool = False) -> Inputs:
    if workload == "certify":
        return Inputs(workload, seed, grid=short_grid() if short else default_grid())
    if workload == "point_queries":
        per_kind = SHORT_QUERIES_PER_KIND if short else QUERIES_PER_KIND
        return Inputs(workload, seed, queries=_queries(random.Random(seed), per_kind))
    if workload == "cli_emit":
        sweep = ["sweep", "--bounds", "all", "--gamma", "0"]
        if short:
            sweep += ["--nu", "0,1", "--x-logspace", "1e-3,200,6"]
        table = ["table", "--nu", NU_AXIS, "--x", X_AXIS, "--format", "csv"]
        return Inputs(workload, seed, invocations=[
            ("sweep_json", sweep + ["--format", "json"], "json"),
            ("sweep_csv", sweep + ["--format", "csv"], "csv"),
            ("table_lower", table + ["--bound", "twosided_l"], "csv"),
            ("table_upper", table + ["--bound", "twosided_u"], "csv"),
        ])
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# point_queries inputs
# ----------------------------------------------------------------------

def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [lo, hi), shuffled.

    Every seed then spreads its requests over the whole range in the same
    proportions, so the round's cost does not hinge on a few lucky draws.
    """
    values = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def _log_uniform_xs(rng: random.Random, count: int) -> list[float]:
    return [10.0 ** v for v in _strata(rng, count, math.log10(X_LO), math.log10(X_HI))]


def _bound_point(rng: random.Random, bid: BoundId, gamma: float, x: float) -> Point:
    """A point inside ``bid``'s hypotheses, as the catalog docstring states them."""
    u = rng.uniform
    if bid in (BoundId.TWOSIDED_L, BoundId.TWOSIDED_U):
        gamma = 0.0
    if bid in (BoundId.NEW1, BoundId.LOWER4, BoundId.TWOSIDED_L, BoundId.TWOSIDED_U):
        n = u(-0.95, 3.0)
        nu_lo = -(n + 1.0) / 2.0
        if bid is BoundId.NEW1 and gamma > 0.0:
            nu_lo = max(nu_lo, 0.5)
        return Point(nu=u(nu_lo + 0.05, 10.0), n=n, gamma=gamma, x=x)
    if bid is BoundId.DAY:
        n = u(-2.95, 3.0)
        return Point(nu=u(-(n + 3.0) / 2.0 + 0.05, 10.0), n=n, gamma=gamma, x=x)
    if bid is BoundId.PROP1:
        nu = u(0.5, 10.0)
        return Point(nu=nu, mu=nu + u(0.0, 3.0), gamma=gamma, x=x)
    nu_lo = {BoundId.LOWER1: -0.95, BoundId.GAU1: 0.5, BoundId.BAAAD: 0.5,
             BoundId.INTINEQ0: 0.55, BoundId.LOWER2: 0.55}.get(bid, -0.45)
    return Point(nu=u(nu_lo, 10.0), gamma=gamma, x=x)


def _queries(rng: random.Random, per_kind: int) -> list[tuple]:
    """``per_kind`` requests of each kind, x log-uniform over [1e-3, 1000]."""
    queries: list[tuple] = []
    # bessel_integral: mu + ord spans (-0.95, 4), down to the integrability edge
    for x, gamma in zip(_log_uniform_xs(rng, per_kind), _strata(rng, per_kind, 0.0, GAMMA_HI)):
        order = rng.uniform(-0.95, 8.0)
        mu = rng.uniform(-0.95, 4.0) - order
        queries.append(("bessel_integral", IntegralSpec(mu, order, gamma, x)))
    ids = [list(BoundId)[i % len(BoundId)] for i in range(per_kind)]
    rng.shuffle(ids)
    for bid, x, gamma in zip(ids, _log_uniform_xs(rng, per_kind),
                             _strata(rng, per_kind, 0.0, GAMMA_HI)):
        queries.append(("check_point", bid, _bound_point(rng, bid, gamma, x)))
    for x, beta in zip(_log_uniform_xs(rng, per_kind), _strata(rng, per_kind, -GAMMA_HI, 0.0)):
        queries.append(("m_value", rng.uniform(-0.45, 10.0), beta, rng.randrange(3), x))
    rng.shuffle(queries)
    return queries


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

def clear_kernel_caches() -> None:
    kernel.besseli.cache_clear()
    kernel.besselk.cache_clear()


def run_round(inputs: Inputs, out_dir: Path, index: int) -> Round:
    """One round of ``inputs.workload``; only the library calls are timed."""
    rnd = Round()
    clock = time.perf_counter
    if inputs.workload == "certify":
        clear_kernel_caches()
        rnd.attempted = 1
        try:
            start = clock()
            result = verifier.sweep(list(BoundId), inputs.grid, tol=1e-10)
            rnd.latencies.append(clock() - start)
        except Exception as exc:  # a failed operation is counted, not fatal
            rnd.failures.append(f"sweep: {type(exc).__name__}: {exc}")
        else:
            rnd.outputs.append(result)
            rnd.verdicts = len(result.reports)
        return rnd

    if inputs.workload == "point_queries":
        clear_kernel_caches()
        for q in inputs.queries:
            rnd.attempted += 1
            try:
                start = clock()
                if q[0] == "bessel_integral":
                    res = oracle.bessel_integral(q[1], QUERY_TOL)
                elif q[0] == "check_point":
                    res = verifier.check_point(q[1], q[2], tol=QUERY_TOL)
                else:
                    res = bounds.m_value(*q[1:])
                rnd.latencies.append(clock() - start)
            except Exception as exc:
                rnd.failures.append(f"{q}: {type(exc).__name__}: {exc}")
                continue
            rnd.outputs.append((q, res))
            if q[0] == "check_point":
                rnd.verdicts += 1
        return rnd

    for label, argv, fmt in inputs.invocations:
        clear_kernel_caches()  # as in a fresh `besselint` process
        path = out_dir / f"cli-r{index}-{label}.{fmt}"
        rnd.attempted += 1
        try:
            start = clock()
            with open(path, "w", newline="") as f:
                code = cli.run(argv, out=f)
            rnd.latencies.append(clock() - start)
        except Exception as exc:
            rnd.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        rnd.bytes_out += path.stat().st_size
        if code != 0:
            rnd.failures.append(f"{label}: exit code {code}")
        rnd.outputs.append((label, argv, fmt, path))
    return rnd
