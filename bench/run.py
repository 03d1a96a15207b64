"""besselint benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root; the library is used from ``src/`` as it is
in the checkout, without installing it::

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload point_queries --seed 7 --seconds 20 --trace 1
    python3 bench/run.py --short        # every workload briefly, traced and not

A run sets up (``setup_s`` is the median over fresh processes that import
``besselint`` and generate the workload's inputs), then repeats whole
rounds of the workload until ``--seconds`` have passed, checks every
round's outputs, and prints one JSON object as its last line of output:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, or its
per-layer metrics with ``--trace 1``.  A traced run times one untraced and
one traced round and takes the layer figures from the traced one.  The
result is also written under ``bench/out/``, with the spans of a traced
run.  See ``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("certify", "point_queries", "cli_emit")

SETUP_PROBES = 9
SHORT_SETUP_PROBES = 2
#: the tail percentile of latency_tail_ms; every point_queries run has at
#: least 1002 samples, so at least ten lie beyond it
TAIL_PERCENTILE = 99
MIN_SAMPLES_FOR_TAIL = 40


def _use_checkout_source() -> None:
    """Import besselint from this checkout's src/, never from elsewhere."""
    if not (SRC / "besselint" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no besselint sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _setup(workload: str, seed: int, short: bool):
    """Import the library and generate the workload's inputs; return both timed."""
    start = time.perf_counter()
    import workloads  # imports besselint

    inputs = workloads.make_inputs(workload, seed, short)
    return time.perf_counter() - start, inputs


def _setup_seconds(workload: str, seed: int, short: bool, probes: int) -> float:
    """Median set-up time over ``probes`` fresh interpreter processes."""
    times = []
    for _ in range(probes):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)] + (["--short"] if short else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            sys.exit(f"bench/run.py: set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rounds(workloads, inputs, seconds: float, out_dir: Path):
    """Whole rounds until ``seconds`` of wall time have passed, at least one.

    Also returns the peak resident set after the first round: set-up plus
    one cold round, whatever the number of rounds and the outputs held.
    """
    start = time.perf_counter()
    rounds = [workloads.run_round(inputs, out_dir, 0)]
    peak_rss_mb = _peak_rss_mb()
    while time.perf_counter() - start < seconds:
        rounds.append(workloads.run_round(inputs, out_dir, len(rounds)))
    return rounds, peak_rss_mb


def _check(workload: str, inputs, rounds) -> list[str]:
    import checks
    from besselint.bounds import BoundId

    problems = []
    for i, rnd in enumerate(rounds):
        if workload == "certify":
            for result in rnd.outputs:
                problems += checks.check_sweep(result, list(BoundId), inputs.grid)
        elif workload == "point_queries":
            # the queries repeat every round, so mpmath checks the first round only
            problems += checks.check_queries(rnd.outputs, inputs.seed,
                                             sample=checks.MPMATH_SAMPLE if i == 0 else 0)
        else:
            found, rnd.verdicts = checks.check_cli(rnd.outputs)
            problems += found
            for *_, path in rnd.outputs:
                path.unlink()
    return problems


def _end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    latencies = [t for rnd in rounds for t in rnd.latencies]
    timed = sum(rnd.seconds for rnd in rounds)
    m = {
        "setup_s": setup_s,
        "run_s": statistics.median(rnd.seconds for rnd in rounds),
        "checks_per_s": sum(rnd.verdicts for rnd in rounds) / timed,
        "ops_per_s": len(latencies) / timed,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    if len(latencies) >= MIN_SAMPLES_FOR_TAIL:
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        m["latency_tail_ms"] = 1e3 * cuts[TAIL_PERCENTILE - 1]
    else:  # too few samples for a tail percentile: only the median is reported
        m["latency_tail_ms"] = m["latency_p50_ms"]
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, short: bool = False) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s = _setup_seconds(workload, seed, short,
                             SHORT_SETUP_PROBES if short else SETUP_PROBES)
    _, inputs = _setup(workload, seed, short)
    import workloads

    OUT.mkdir(exist_ok=True)
    if trace:
        import tracing

        plain = workloads.run_round(inputs, OUT, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = workloads.run_round(inputs, OUT, 1)
            layers = tracer.layer_metrics()
        finally:
            tracer.uninstall()
        tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.json")
        rounds = [plain, traced]
    else:
        rounds, peak_rss_mb = _rounds(workloads, inputs, seconds, OUT)

    problems = _check(workload, inputs, rounds)
    failures = [f for rnd in rounds for f in rnd.failures]
    for line in failures + problems:
        print(f"bench/run.py: {workload}: {line}", file=sys.stderr)

    if trace:
        layers["cli.bytes_out"] = traced.bytes_out
        layers["trace.run_s"] = traced.seconds
        layers["trace.overhead_s"] = traced.seconds - plain.seconds
        layers["trace.unattributed_s"] = traced.seconds - layers["trace.self_s"]
        values, wanted = layers, spec["per_layer"]
    else:
        values, wanted = _end_to_end(rounds, setup_s, peak_rss_mb), spec["end_to_end"]
    # a layer that the workload never reaches reads 0; every end-to-end metric exists
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "correct": not problems,
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="shrunken inputs; without --workload, every workload "
                             "traced and untraced, to check the harness itself")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_source()

    if args.setup_probe:
        seconds, _ = _setup(args.workload, args.seed, args.short)
        print(seconds)
        return 0
    if args.workload is None:
        if not args.short:
            parser.error("--workload is required without --short")
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run(workload, args.seed, 0.0, trace, short=True)
                print(f"{workload} trace={int(trace)}: {json.dumps(result)}")
                ok = ok and result["correct"] and not result["failed"]
        return 0 if ok else 1

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.short)
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
