"""Smoke test of the benchmark harness against the library as it stands.

``bench/tracing.py`` wraps library functions by name (``cli.run``,
``cli.sweep``, ``cli.relative_error_table``,
``verifier.cumulative_bessel_integral`` and others).  A refactor that renames
or bypasses one of them leaves the harness counting nothing, so the traced
runs here must still do and count real work.  The point_queries run also
checks every catalog id at points drawn from the hypotheses that
``bench/workloads.py`` writes down, so a bound whose hypothesis narrows
fails here.
"""

import json
import os
import subprocess
import sys

import pytest

from besselint.bounds import BoundId

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _traced_run(workload, *flags):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", "1", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload, nonzero", [
    ("cli_emit", ("cli.s", "cli.bytes_out", "oracle.rows", "verifier.checks")),
    ("certify", ("oracle.rows", "verifier.checks")),
])
def test_traced_short_run(workload, nonzero):
    metrics = _traced_run(workload, "--short")
    for name in nonzero:
        assert metrics[name] > 0, name


def test_traced_point_queries_reach_every_bound():
    # the short inputs draw only 14 of the 15 ids; one full round (about 2 s) draws all
    metrics = _traced_run("point_queries")
    for name in ("verifier.checks", "bounds.evals",
                 *(f"bounds.{bid.value}.s" for bid in BoundId)):
        assert metrics[name] > 0, name
