import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator
from dataclasses import replace

import pytest

from besselint import cli
from besselint.bounds import BoundId, Point, bound_value, geometric_tail_series
from besselint.cli import _parser, run
from besselint.oracle import IntegralSpec, QuadResult, bessel_integral
from besselint.scaled import exp_float
from besselint.verifier import check_point, default_grid, logspace, sweep

#: the CSV header of a check or sweep record; ``bench/checks.py`` reads a sweep
#: CSV's verdict by position, as ``row[15]``, so ``verdict`` stays last
CHECK_COLUMNS = ["bound", "nu", "n", "mu", "gamma", "x", "bound_sign", "bound_log_abs",
                 "oracle_sign", "oracle_log_abs", "oracle_rel_err", "rel_margin",
                 "uncertainty", "direction", "reason", "verdict"]


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_json_payload(self):
        code, text, _ = invoke(["eval", "--mu", "0", "--ord", "0", "--gamma", "0.5",
                                "--x", "2", "--tol", "1e-10"])
        assert code == 0
        d = json.loads(text)
        assert set(d) == {"command", "parameters", "results", "summary"}
        v = d["results"][0]["value"]
        assert set(v) == {"sign", "log_abs"}
        assert v["sign"] == 1
        assert math.exp(v["log_abs"]) == pytest.approx(1.6328572258966945, rel=1e-11)
        assert 0.0 < d["results"][0]["rel_err"] <= 1e-10
        assert d["results"][0]["converged"] is True

    def test_large_value_has_no_decimal(self):
        code, text, _ = invoke(["eval", "--mu", "0", "--ord", "0", "--gamma", "0",
                                "--x", "750"])
        assert code == 0
        v = json.loads(text)["results"][0]["value"]
        assert set(v) == {"sign", "log_abs"}
        assert v["log_abs"] > 700.0

    def test_zero_limit_has_a_zero_error(self):
        code, text, _ = invoke("eval --mu 0 --ord 0 --gamma 0 --x 0".split())
        assert code == 0
        result = json.loads(text)["results"][0]
        assert result["value"]["sign"] == 0
        assert result["rel_err"] == 0.0

    def test_csv_fields_round_trip_full_precision(self):
        code, text, _ = invoke(["eval", "--mu", "0.5", "--ord", "0.5", "--gamma",
                                "0.3", "--x", "7", "--format", "csv"])
        assert code == 0
        header, row = text.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        # the shortest round-trip digits reproduce the double exactly
        result = bessel_integral(IntegralSpec(0.5, 0.5, 0.3, 7.0))
        assert fields["value_log_abs"] == repr(result.log_abs)
        assert float(fields["rel_err"]) == result.rel_err


class TestBound:
    def test_tail_share_below_the_log_resolution(self):
        # log(value) is about -6.9e302, on a grid far coarser than a 1e-301 share
        code, text, _ = invoke("bound --bound lower3 --nu 1e300 --gamma 0.5 --x 1".split())
        assert code == 0
        [result] = json.loads(text)["results"]
        total, terms, tail = geometric_tail_series(1e300, 0.5, 1.0)
        assert result["tail_share"] == tail / total == pytest.approx(2.5e-301, rel=1e-12)
        assert result["truncation_terms"] == terms


    def test_huge_order_at_huge_x(self):
        # the I power series peaks near its 20 711th term here
        code, text, _ = invoke("bound --bound main --nu 1e5 --x 1e5".split())
        assert code == 0
        assert json.loads(text)["results"][0]["value"]["sign"] == 1


class TestCheck:
    def test_holds_exit_zero(self):
        code, text, _ = invoke(["check", "--bound", "main", "--nu", "-0.25",
                                "--gamma", "0.5", "--x", "10"])
        assert code == 0
        assert json.loads(text)["summary"]["verdict"] == "holds"

    def test_violated_exit_one(self):
        code, text, _ = invoke(["check", "--bound", "prop1", "--nu", "0", "--mu", "0",
                                "--gamma", "0", "--x", "100", "--exploratory"])
        assert code == 1
        assert json.loads(text)["summary"]["verdict"] == "violated"

    def test_report_json_round_trip(self):
        code, text, _ = invoke(["check", "--bound", "lower3", "--nu", "0.5",
                                "--gamma", "0.7", "--x", "4"])
        assert code == 0
        report = check_point(BoundId.LOWER3, Point(nu=0.5, gamma=0.7, x=4.0))
        assert json.loads(text)["results"] == [report.to_dict()]

    def test_out_of_domain_is_usage_error(self):
        code, _, err = invoke(["check", "--bound", "main", "--nu", "-0.7",
                               "--gamma", "0", "--x", "1"])
        assert code == 2
        assert "violated hypothesis" in err

    @pytest.mark.parametrize("args", [
        "--bound new1 --nu 0 --n -1 --gamma 0.5 --x 1 --exploratory",
        "--bound lower4 --nu 0 --n -1 --x 1 --exploratory",
        "--bound need2 --nu -0.5 --x 1 --exploratory",
        "--bound baaad --nu -0.5 --x 1 --exploratory",
        "--bound main --nu 0 --gamma 1 --x 1 --exploratory",
    ])
    def test_zero_divisor_is_usage_error(self, args):
        code, out, err = invoke(f"check {args}".split())
        assert code == 2  # not 1, which would read as a VIOLATED bound
        assert out == ""
        bound = args.split()[1]
        assert err == (f"besselint check: InvalidDomain: {bound}: "
                       "the closed form divides by zero here\n")

    def test_exploratory_prop1_without_mu_is_usage_error(self):
        # PROP1's power is mu: an unchecked step without one names the hypothesis
        code, out, err = invoke("check --bound prop1 --nu 1 --x 1 --exploratory".split())
        assert code == 2
        assert out == ""
        assert err == "besselint check: InvalidDomain: prop1: mu must be supplied\n"

    def test_tiny_x_divisor_is_no_zero_divisor(self):
        # inside the hypotheses, (2 nu - 1)(1 - gamma) x underflows to 0 here: the
        # bracket's 1/x goes into the power, and the negative lower bound holds
        code, text, _ = invoke("check --bound intineq0 --nu 1 --gamma 0.5 --x 5e-324".split())
        assert code == 0
        assert json.loads(text)["summary"]["verdict"] == "holds"

    def test_exploratory_series_outside_its_range_is_usage_error(self):
        code, out, err = invoke("check --bound lower3 --nu 0 --gamma 1 --x 1 --exploratory"
                                .split())
        assert code == 2
        assert out == ""
        assert err == "besselint check: InvalidDomain: series needs 0 <= gamma < 1, got 1.0\n"

    def test_exploratory_x_not_positive_is_usage_error(self):
        code, out, err = invoke("check --bound main --nu 0 --x 0 --exploratory".split())
        assert code == 2
        assert out == ""
        assert err == ("besselint check: InvalidDomain: main: the integral needs x > 0 "
                       "(got x=0.0)\n")


class TestUsageErrors:
    def test_unknown_verb(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_unknown_bound(self):
        code, _, _ = invoke(["check", "--bound", "nope", "--nu", "1", "--x", "1"])
        assert code == 2

    def test_unknown_flag(self):
        code, _, _ = invoke(["eval", "--mu", "0", "--ord", "0", "--gamma", "0",
                             "--x", "1", "--frob", "3"])
        assert code == 2

    def test_tolerance_out_of_range(self):
        code, _, err = invoke(["eval", "--mu", "0", "--ord", "0", "--gamma", "0",
                               "--x", "1", "--tol", "1e-20"])
        assert code == 2
        assert "tolerance must lie in [1e-13, 1e-06], got 1e-20" in err
        code, _, _ = invoke(["eval", "--mu", "0", "--ord", "0", "--gamma", "0",
                             "--x", "1", "--tol", "0.1"])
        assert code == 2

    def test_missing_required(self):
        code, _, _ = invoke(["eval", "--mu", "0"])
        assert code == 2
        # tightness has no default grid: one of --x and --x-logspace is required
        code, out, err = invoke("tightness --bound main --nu 0".split())
        assert code == 2
        assert out == ""
        assert "one of the arguments --x --x-logspace is required" in err

    @pytest.mark.parametrize("argv", [
        "sweep --bounds main --nu 0 --gamma 0 --x inf",
        "eval --mu 0 --ord 0 --gamma 0 --x nan",
        "check --bound main --nu inf --x 1",
        "check --bound new1 --nu 1 --n inf --x 1",
        "tightness --bound main --nu 0 --x 1,inf",
        "crossover --mu 0.6 --nu 0.3 --x-max inf",
    ])
    def test_non_finite_value(self, argv):
        code, out, err = invoke(argv.split())
        assert code == 2  # a usage error, not a verdict or a numerical failure
        assert out == ""
        assert "Traceback" not in err
        assert "needs a finite number" in err

    @pytest.mark.parametrize("argv", [
        "bound --bound lower3 --nu 1 --gamma 0.5 --x 2 --series-tol 1e-6",
        "bound --bound main --nu 1 --x 2 --tol 1e-10",
        "table --bound twosided_l --nu 0 --x 1 --tol 1e-10",
        "tightness --bound main --nu 0 --x 1,2 --tol 1e-10",
        "crossover --mu 0 --nu 0 --tol 1e-10",
        "check --bound main --nu 0 --x 1 --tol 1e-10",
        "sweep --bounds main --nu 0 --gamma 0 --x 1 --tol 1e-10",
    ])
    def test_tolerance_only_on_verbs_it_changes(self, argv):
        # only eval reads a tolerance, for its exit code; elsewhere it is unknown
        code, out, err = invoke(argv.split())
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("flag, value", [
        ("--bounds", "nope"),
        ("--bounds", ","),
        ("--bounds", ""),
        ("--x-logspace", "1,10,abc"),
        ("--x-logspace", "0,10,3"),
        ("--x-logspace", "5,6,1"),  # valid, but --x is given too
        ("--nu", ","),
        ("--gamma", ""),
        ("--x", ","),
    ])
    def test_bad_sweep_grid_flag(self, flag, value):
        verbs = [["sweep", "--bounds", "main", "--gamma", "0"]]
        if flag == "--x-logspace":
            verbs.append(["tightness", "--bound", "main", "--gamma", "0"])
        if flag in ("--nu", "--x"):
            verbs.append(["table", "--bound", "twosided_l"])
        for verb in verbs:
            argv = verb + ["--nu", "0", "--x", "1", flag, value]
            code, out, err = invoke(argv)
            assert code == 2  # not 1, which would read as a VIOLATED bound
            assert out == ""
            assert f"argument {flag}" in err


class TestSweepVerb:
    def test_small_sweep_json(self):
        code, text, _ = invoke(["sweep", "--bounds", "main,simple", "--nu", "0,1",
                                "--gamma", "0,0.5", "--x", "1,10"])
        assert code == 0
        d = json.loads(text)
        assert d["summary"] == {"holds": 16, "violated": 0, "inconclusive": 0}
        assert len(d["results"]) == 16
        grid = replace(default_grid(), nu_values=(0.0, 1.0), gamma_values=(0.0, 0.5),
                       x_values=(1.0, 10.0))
        result = sweep([BoundId.MAIN, BoundId.SIMPLE], grid)
        assert d["results"] == [r.to_dict() for r in result.reports]

    def test_all_skipped_sweep_writes_no_csv(self):
        # a CSV header comes from the first record; with none there is no output
        code, text, _ = invoke(["sweep", "--bounds", "prop1", "--nu", "0", "--mu", "0",
                                "--x", "1", "--format", "csv"])
        assert code == 0
        assert text == ""

    def test_exit_one_when_grid_contains_violations(self):
        # unrestricted PROP1 never violates; the sweep filters invalid points,
        # so force a violation through the exploratory check instead
        code, _, _ = invoke(["check", "--bound", "prop1", "--nu", "0.4", "--mu", "0.4",
                             "--gamma", "0", "--x", "200", "--exploratory"])
        assert code == 1

    def test_csv_output(self):
        code, text, _ = invoke(["sweep", "--bounds", "main", "--nu", "0",
                                "--gamma", "0", "--x", "1,5", "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("bound,nu,n,mu,gamma,x")
        assert len(lines) == 3

    def test_csv_header_ends_with_the_verdict(self):
        # bench/checks.py takes a sweep CSV's verdict as row[15]
        code, text, _ = invoke("sweep --bounds main --nu 0 --gamma 0 --x 1 --format csv"
                               .split())
        assert code == 0
        header = next(csv.reader(io.StringIO(text)))
        assert header == CHECK_COLUMNS
        assert header.index("verdict") == 15 == len(header) - 1

    @pytest.mark.parametrize("axis", [["--x", "1,1"], ["--nu", "0,0", "--x", "1"]])
    def test_repeated_axis_value_is_checked_once(self, axis):
        argv = ["sweep", "--bounds", "main", "--nu", "0", "--gamma", "0", *axis]
        code, text, _ = invoke(argv + ["--format", "csv"])
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(text)))) == 1
        code, text, _ = invoke(argv)
        assert code == 0
        doc = json.loads(text)
        assert len(doc["results"]) == 1
        assert doc["summary"] == {"holds": 1, "violated": 0, "inconclusive": 0}

    def test_signed_zero_axis_value_is_zero_in_any_order(self):
        # a set keeps the first of -0.0 and 0.0, so the order given once chose the sign
        base = ["sweep", "--bounds", "main", "--gamma", "0", "--x", "1", "--format", "csv"]
        texts = [invoke(base + [nu])[1] for nu in ("--nu=-0,0", "--nu=0,-0", "--nu=-0")]
        assert texts[0] == texts[1] == texts[2]
        (row,) = csv.DictReader(io.StringIO(texts[0]))
        assert (row["nu"], row["gamma"]) == ("0.0", "0.0")
        code, text, _ = invoke(["sweep", "--bounds", "main", "--nu", "0", "--gamma=-0,0",
                                "--x", "1", "--format", "csv"])
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(text))
        assert (row["nu"], row["gamma"]) == ("0.0", "0.0")

    def test_space_after_a_comma_in_bounds(self):
        argv = ["sweep", "--nu", "0, 1", "--gamma", "0", "--x", "1", "--bounds"]
        expected = invoke(argv + ["main,lower1"])
        assert expected[0] == 0
        assert invoke(argv + ["main, lower1"]) == expected
        assert invoke(argv + [" main ,lower1, "]) == expected

    def test_blank_list_entry_is_skipped(self):
        argv = ["sweep", "--bounds", "main", "--gamma", "0", "--x", "1", "--nu"]
        expected = invoke(argv + ["0,"])
        assert expected[0] == 0
        assert invoke(argv + ["0, "]) == expected
        assert invoke(argv + [" ,0"]) == expected

    def test_x_logspace(self):
        code, text, _ = invoke(["sweep", "--bounds", "main", "--nu", "0",
                                "--gamma", "0", "--x-logspace", "0.1,10,5"])
        assert code == 0
        xs = [r["point"]["x"] for r in json.loads(text)["results"]]
        assert len(xs) == 5 and xs[0] == pytest.approx(0.1) and xs[-1] == pytest.approx(10.0)


class TestTableVerb:
    def test_matches_published_layout(self):
        code, text, _ = invoke(["table", "--bound", "twosided_l",
                                "--nu", "-0.25,0,1,2.5,5",
                                "--x", "1,2.5,5,10,15,25,50,100"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "nu,1,2.5,5,10,15,25,50,100"
        assert len(lines) == 6
        row0 = lines[2].split(",")
        assert row0[0] == "0"
        assert row0[3] == "0.0528"

    def test_json_format(self):
        code, text, _ = invoke(["table", "--bound", "twosided_u", "--nu", "1",
                                "--x", "10", "--format", "json"])
        assert code == 0
        d = json.loads(text)
        assert d["results"][0][0] == pytest.approx(0.0464, abs=1e-12)


    def test_repeated_value_is_taken_once(self):
        # a repeated x once made two JSON columns but one CSV column, whose keys collided;
        # -0 is 0, as on a sweep axis
        argv = ["table", "--bound", "twosided_l", "--nu=0,1,-0", "--x", "1,10,1"]
        code, text, _ = invoke(argv)
        assert code == 0
        assert text.splitlines() == ["nu,1,10", "0,0.0002,0.1305", "1,0.0000,0.0154"]
        code, text, _ = invoke(argv + ["--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["parameters"]["nu"] == doc["summary"]["nu_values"] == [0.0, 1.0]
        assert doc["parameters"]["x"] == doc["summary"]["x_values"] == [1.0, 10.0]
        assert [len(row) for row in doc["results"]] == [2, 2]


class TestTightnessVerb:
    def test_csv(self):
        code, text, _ = invoke(["tightness", "--bound", "lower4", "--nu", "0",
                                "--n", "0", "--gamma", "0",
                                "--x-logspace", "25,400,5", "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "x,ratio"
        ratios = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


def _both_formats(argv):
    """Run ``argv`` as JSON and as CSV; return the document and the CSV rows."""
    code, text, _ = invoke(argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(text)
    code, text, _ = invoke(argv + ["--format", "csv"])
    assert code == 0
    return doc, list(csv.reader(io.StringIO(text)))


def _dict_rows(rows):
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def _assert_rows_agree(doc, rows, header):
    """Each CSV row under ``header`` is its JSON result flattened, and each float
    cell holds the JSON number's own digits, so it parses to exactly that float."""
    assert rows[0] == header
    assert len(rows) - 1 == len(doc["results"]) > 0
    for row, result in zip(rows[1:], doc["results"]):
        values = [v for value in result.values()
                  for v in (value.values() if isinstance(value, dict) else (value,))]
        assert len(row) == len(values) == len(header)
        for cell, value in zip(row, values):
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert cell == json.dumps(value) and float(cell) == value
            else:
                assert cell == str(value)


def _decimal(sign, log_abs):
    """The ``decimal`` member that a ``{sign, log_abs}`` record member no longer carries."""
    return exp_float(sign, log_abs) if abs(log_abs) < 700.0 else None


class TestDroppedMembers:
    """A record carries no member derived from another: each dropped one is rebuilt,
    bit for bit, from what the record keeps."""

    def test_sweep(self):
        code, text, _ = invoke("sweep --bounds all --gamma 0".split())
        assert code == 0
        results = json.loads(text)["results"]
        reports = sweep(list(BoundId), replace(default_grid(), gamma_values=(0.0,))).reports
        assert len(results) == len(reports) == 5952
        for result, report in zip(results, reports):
            assert result["reason"] is None
            b, o = result["bound_value"], result["oracle_value"]
            assert _decimal(b["sign"], b["log_abs"]) == _decimal(report.bound_sign,
                                                                  report.bound_log)
            assert _decimal(o["sign"], o["log_abs"]) == _decimal(report.oracle.sign,
                                                                  report.oracle.log_abs)
            # the old ``oracle_err``
            rebuilt = QuadResult(o["sign"], o["log_abs"], result["oracle_rel_err"], 0, False)
            assert rebuilt.abs_err == report.oracle.abs_err

    @pytest.mark.parametrize("x", [0.0, 2.0, 750.0])
    def test_eval(self, x):
        code, text, _ = invoke(f"eval --mu 0 --ord 0 --gamma 0 --x {x}".split())
        assert code == 0
        [result] = json.loads(text)["results"]
        expected = bessel_integral(IntegralSpec(0.0, 0.0, 0.0, x))
        v = result["value"]
        assert _decimal(v["sign"], v["log_abs"]) == _decimal(expected.sign, expected.log_abs)
        # the old ``abs_err``
        rebuilt = QuadResult(v["sign"], v["log_abs"], result["rel_err"], 0, False)
        assert rebuilt.abs_err == expected.abs_err

    def test_bound(self):
        code, text, _ = invoke("bound --bound lower3 --nu 0.5 --gamma 0.9 --x 4".split())
        assert code == 0
        v = json.loads(text)["results"][0]["value"]
        expected = bound_value(BoundId.LOWER3, nu=0.5, gamma=0.9, x=4.0).value
        assert _decimal(v["sign"], v["log_abs"]) == _decimal(expected.sign, expected.log_abs)


class TestJsonCsvAgree:
    """Every CSV row carries the same values as the matching JSON result."""

    @pytest.mark.parametrize("x", ["2", "750"])
    def test_eval(self, x):
        doc, rows = _both_formats(["eval", "--mu", "0", "--ord", "0", "--gamma", "0",
                                   "--x", x])
        _assert_rows_agree(doc, rows, ["value_sign", "value_log_abs", "rel_err",
                                       "segments", "converged"])

    def test_bound(self):
        doc, rows = _both_formats(["bound", "--bound", "lower3", "--nu", "0.5",
                                   "--gamma", "0.9", "--x", "4"])
        _assert_rows_agree(doc, rows, ["value_sign", "value_log_abs", "direction",
                                       "truncation_terms", "tail_share"])
        assert doc["results"][0]["tail_share"] > 0

    @pytest.mark.parametrize("argv", [
        ["check", "--bound", "lower3", "--nu", "0.5", "--gamma", "0.7", "--x", "4"],
        ["sweep", "--bounds", "main,lower1,prop1", "--nu", "0,1", "--gamma", "0,0.5",
         "--mu", "0.5,1", "--x", "1,20"],
    ])
    def test_check_and_sweep(self, argv):
        doc, rows = _both_formats(argv)
        _assert_rows_agree(doc, rows, CHECK_COLUMNS)

    def test_table(self):
        doc, rows = _both_formats(["table", "--bound", "twosided_l", "--nu", "-0.25,1",
                                   "--x", "1,10,50"])
        assert [float(v) for v in rows[0][1:]] == doc["parameters"]["x"]
        assert [float(row[0]) for row in rows[1:]] == doc["parameters"]["nu"]
        assert [row[1:] for row in rows[1:]] == [
            [f"{v:.4f}" for v in entries] for entries in doc["results"]]

    def test_tightness(self):
        doc, rows = _both_formats(["tightness", "--bound", "new1", "--nu", "1",
                                   "--x", "25,100,400"])
        _assert_rows_agree(doc, rows, ["x", "ratio"])

    @pytest.mark.parametrize("mu, nu", [("0", "0"), ("1", "1")])
    def test_crossover(self, mu, nu):
        doc, rows = _both_formats(["crossover", "--mu", mu, "--nu", nu, "--gamma", "0"])
        xstar = doc["results"][0]["crossover"]
        [header, [cell]] = rows
        assert header == ["crossover"]
        assert (cell == "") if xstar is None else (float(cell) == xstar)


class TestCheckRecords:
    """A sweep writes each check's record as ``check`` writes it at that point: the
    sweep's records are zipped from its packed rows, the check's from its report."""

    # every bound; PROP1 skips nu = 0, and the oracle fails at x = 2e5
    ARGV = ["--nu", "0,1", "--gamma", "0,0.5", "--mu", "0.5,1", "--x", "2,2e5"]
    GRID = replace(default_grid(), nu_values=(0.0, 1.0), gamma_values=(0.0, 0.5),
                   mu_values=(0.5, 1.0), x_values=(2.0, 2e5))

    def test_csv_rows_are_the_check_verbs_rows(self):
        code, text, _ = invoke(["sweep", "--bounds", "all", *self.ARGV, "--format", "csv"])
        assert code == 0
        header, *lines = text.splitlines(keepends=True)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len({row["bound"] for row in rows}) == len(BoundId)
        failed = [line for line, row in zip(lines, rows) if row["reason"]]
        assert 0 < len(failed) < len(lines)
        for line, row in zip(lines, rows):
            argv = ["check", "--bound", row["bound"], "--format", "csv"] + [
                arg for key in ("nu", "n", "mu", "gamma", "x") if row[key]
                for arg in (f"--{key}", row[key])]
            code, expected, _ = invoke(argv)
            if row["reason"]:  # a check whose oracle fails exits with no record
                assert (code, expected, row["oracle_rel_err"]) == (3, "", "nan")
            else:
                assert code == 0 and expected == header + line
        # a failed check's row is its report's, flattened
        reports = [r for r in sweep(list(BoundId), self.GRID).reports if r.reason]
        out = io.StringIO()
        csv.writer(out).writerows(r.flat() for r in reports)
        assert out.getvalue().splitlines(keepends=True) == failed

    def test_json_results_are_the_reports(self):
        code, text, _ = invoke(["sweep", "--bounds", "all", *self.ARGV])
        assert code == 0
        doc = _strict_loads(text)
        result = sweep(list(BoundId), self.GRID)
        assert len(doc["skipped"]) == len(result.skipped) > 0
        assert doc["results"] == _finite_or_null([r.to_dict() for r in result.reports])
        assert any(r["reason"] and r["oracle_rel_err"] is None for r in doc["results"])


def _finite_or_null(value):
    """``value`` with each NaN or infinity, in any dict or list, as None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _dumped_members(argv):
    """The verb's members as one strict ``json.dumps`` of the whole document, a
    non-finite float as null, with the iterators that ``body()`` may return listed first."""
    args = _parser().parse_args(argv)
    parameters, _, body, _ = args.handler(args)
    members = {key: list(value) if isinstance(value, Iterator) else value
               for key, value in body().items()}
    return json.dumps(_finite_or_null({"command": args.verb, "parameters": parameters,
                                       **members}), allow_nan=False)


def _strict_loads(text):
    """``json.loads`` that refuses the NaN, Infinity and -Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


class TestJsonLayout:
    """One member per line and one list entry per line, parsing to the same document."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--mu", "0", "--ord", "0", "--gamma", "0.5", "--x", "2"],
        ["bound", "--bound", "lower3", "--nu", "0.5", "--gamma", "0.9", "--x", "4"],
        ["check", "--bound", "lower3", "--nu", "0.5", "--gamma", "0.7", "--x", "4"],
        # an empty skipped list
        ["sweep", "--bounds", "main", "--nu", "0", "--gamma", "0", "--x", "1,5"],
        # failed checks: rel_margin NaN and uncertainty inf, written null
        ["sweep", "--bounds", "lower2", "--nu", "1,1e200", "--x", "1"],
        # results are lists of lists
        ["table", "--bound", "twosided_l", "--nu", "0,1", "--x", "1,10,50"],
        ["tightness", "--bound", "new1", "--nu", "1", "--x", "25,100,400"],
        ["crossover", "--mu", "0", "--nu", "0", "--gamma", "0"],
    ])
    def test_parses_to_the_dumped_document(self, argv):
        _, text, _ = invoke(argv + ["--format", "json"])
        assert _strict_loads(text) == json.loads(_dumped_members(argv))

    @pytest.mark.parametrize("argv, margin, uncertain", [
        # the negative bound is e^2239 times the oracle: the margin 1 - ratio is infinite
        ("check --bound intineq0 --nu 1 --gamma 0.5 --x 5e-324", "inf", False),
        # the oracle fails at x = 2e5: a NaN margin and an infinite uncertainty
        ("sweep --bounds main --nu 0 --gamma 0 --x 1,2e5", "nan", True),
    ], ids=["intineq0-inf", "main-x2e5"])
    def test_non_finite_floats_are_null(self, argv, margin, uncertain):
        code, text, _ = invoke(argv.split())
        assert code == 0
        nulls = [r for r in _strict_loads(text)["results"] if r["rel_margin"] is None]
        assert all((r["uncertainty"] is None) == uncertain for r in nulls)
        # CSV keeps the float's own text
        code, text, _ = invoke(argv.split() + ["--format", "csv"])
        assert code == 0
        rows = [r for r in csv.DictReader(io.StringIO(text)) if r["rel_margin"] == margin]
        assert len(rows) == len(nulls) > 0
        assert all((r["uncertainty"] == "inf") == uncertain for r in rows)

    def test_failed_check_has_a_null_oracle_error(self):
        # the oracle fails at x = 2e5: its error is unknown, not the 0 of an exact value
        doc, rows = _both_formats("sweep --bounds main --nu 0 --gamma 0 --x 1,2e5".split())
        done, failed = doc["results"]
        assert done["reason"] is None and 0.0 < done["oracle_rel_err"] < 1e-10
        assert failed["reason"].startswith("NonConvergence: ")
        assert failed["oracle_rel_err"] is None
        assert [row["oracle_rel_err"] for row in _dict_rows(rows)] == [
            repr(done["oracle_rel_err"]), "nan"]

    def test_one_line_per_record(self):
        _, text, _ = invoke(["sweep", "--bounds", "main,prop1", "--nu", "0", "--gamma", "0",
                             "--x", "1,5"])
        doc = json.loads(text)
        lines = text.splitlines()
        assert len(doc["results"]) == 2 and len(doc["skipped"]) == 10
        for key in ("results", "skipped"):
            start = lines.index(f'"{key}": [') + 1
            entries = lines[start:start + len(doc[key])]
            assert [json.loads(line.rstrip(",")) for line in entries] == doc[key]
            assert lines[start + len(doc[key])] in ("]", "],")
        # braces, one line per member, the records, and the two closing brackets
        assert len(lines) == 2 + len(doc) + 12 + 2


class _Discard:
    """A text sink that keeps nothing, so only the writer's own memory is traced."""

    def write(self, text):
        pass

    def writelines(self, lines):
        for _ in lines:
            pass


class TestStreamedSweep:
    def test_records_are_made_as_they_are_written(self, monkeypatch):
        # the sweep runs first, so that only the emission is traced: a writer
        # that held every record dict at once would peak above their size
        argv = ["sweep", "--bounds", "all", "--nu", "0,1,2.5", "--gamma", "0,0.5",
                "--x-logspace", "1e-3,200,8"]
        grid = replace(default_grid(), nu_values=(0.0, 1.0, 2.5), gamma_values=(0.0, 0.5),
                       x_values=tuple(logspace(1e-3, 200.0, 8)))
        result = sweep(list(BoundId), grid)
        assert len(result.reports) > 1000 and len(result.skipped) > 400
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: result)

        tracemalloc.start()
        try:
            records = ([r.to_dict() for r in result.reports],
                       [s.to_dict() for s in result.skipped])
            materialised, _ = tracemalloc.get_traced_memory()
            del records
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            assert run(argv + ["--format", "json"], out=_Discard()) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < materialised / 4, (peak - base, materialised)


class TestHugeFiniteInputs:
    """Finite values far past the supported range end in one error line."""

    def test_huge_x_bound_is_numerical_failure(self):
        code, out, err = invoke("bound --bound main --nu 0 --x 1e308".split())
        assert code == 3
        assert out == ""
        assert err == ("besselint bound: NonConvergence: I ratio continued fraction "
                       "stalled at nu=0.0, x=1e+308\n")

    def test_huge_x_tightness_ends_quickly(self):
        # the I ratio's iteration cap does not grow with x
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-m", "besselint", "tightness", "--bound", "main",
             "--nu", "0", "--x", "1e300"],
            capture_output=True, text=True, env=env, timeout=5)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("besselint tightness: NonConvergence:")

    def test_huge_order_check_is_one_error_line(self):
        code, out, err = invoke("check --bound main --nu 1e308 --x 1".split())
        assert code in (2, 3)
        assert out == ""
        assert err.startswith("besselint check: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "eval --mu 1e300 --ord 894.77 --gamma 0 --x 4747",
        "eval --mu 1e308 --ord 1e308 --gamma 0.5 --x 4.5e-12",
        "bound --bound prop1 --nu 1 --mu 1e308 --x 1e300",
        "check --bound lower2 --nu 1e200 --x 1",
        "crossover --mu 7.7e-17 --nu 1e-300 --gamma 0 --x-max 5e-324",
    ])
    def test_finite_input_past_the_representation_is_usage_error(self, argv):
        code, out, err = invoke(argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith(f"besselint {argv.split()[0]}: InvalidDomain: ")
        assert err.count("\n") == 1

    def test_equality_point_where_two_nu_plus_n_is_tiny(self):
        # 2 nu + n + 1 is 1.2e-19 here and must not round to 0
        code, text, _ = invoke("bound --bound new1 --nu 5.77e-20 --n -1 --gamma 0 "
                               "--x 9115.9".split())
        assert code == 0
        assert json.loads(text)["summary"]["direction"] == "equality"

    @pytest.mark.parametrize("argv", [
        # the logs of bound and oracle differ by one rounding unit at nu = 1e16
        "check --bound lower3 --nu 1e16 --x 1",
        "check --bound lower4 --nu 1e16 --x 1",
        # the oracle's anchor log is tens of units off; it counts as a factor
        "check --bound new1 --nu 7115676407749083 --n -1.8333430404577944 --x 9662.24961242215",
        "check --bound lower3 --nu 9770533196362902 --x 78362.25787491772",
        "check --bound day --nu 165858391298106.66 --n 1.9816503765090498 "
        "--x 4.022699798492363",
        "check --bound lower4 --nu 1226501732499647.5 --n 0.1883005703586047 "
        "--gamma 0.35337912090240575 --x 1295.8867393452933",
    ], ids=["lower3", "lower4", "new1-7.1e15", "lower3-9.8e15", "day-1.7e14", "lower4-1.2e15"])
    def test_huge_order_rounding_is_not_a_violation(self, argv):
        code, text, _ = invoke(argv.split())
        assert code == 0
        assert json.loads(text)["summary"]["verdict"] == "inconclusive"

    def test_sweep_keeps_the_points_before_a_failed_order(self):
        code, text, _ = invoke("sweep --bounds lower2 --nu 1,1e200 --x 1 --format csv"
                               .split())
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [(r["nu"], r["verdict"]) for r in rows] == (
            [("1.0", "holds")] * 7 + [("1e+200", "inconclusive")] * 7)
        assert all(r["reason"] == "" for r in rows[:7])
        assert all(r["reason"].startswith("InvalidDomain: ") for r in rows[7:])

    def test_huge_order_reduction_fails_without_allocating(self):
        # the order reduction would need 7.9e9 ratios; the address-space cap
        # makes a run that builds them fail fast instead of filling memory
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 1024 ** 3, 2 * 1024 ** 3))

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-m", "besselint", "bound", "--bound", "lower3",
             "--nu", "7937559750", "--x", "3172660715105"],
            capture_output=True, text=True, env=env, timeout=5, preexec_fn=cap_memory)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("besselint bound: NonConvergence: ")
        assert proc.stderr.count("\n") == 1


class TestClosedPipe:
    """A reader that closes stdout early ends the run with the verb's exit code
    and nothing on stderr, not even at the interpreter's final flush."""

    @pytest.mark.parametrize("argv, code", [
        ("sweep --bounds main --format csv", 0),
        ("sweep --bounds main", 0),
        ("check --bound prop1 --nu 0 --mu 0 --gamma 0 --x 200 --exploratory", 1),
    ], ids=["csv", "json", "violated"])
    def test_verb_keeps_its_exit_code(self, argv, code):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        with subprocess.Popen([sys.executable, "-m", "besselint", *argv.split()],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            try:
                proc.stdout.read(10)
                proc.stdout.close()
                returncode = proc.wait(timeout=60)
            finally:
                proc.kill()  # nothing to do once it has exited
            err = proc.stderr.read()
        assert (returncode, err) == (code, b"")


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-m", "besselint", "check", "--bound", "main",
             "--nu", "0", "--gamma", "0.5", "--x", "10"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["summary"]["verdict"] == "holds"


class TestCrossoverVerb:
    def test_found(self):
        code, text, _ = invoke(["crossover", "--mu", "0", "--nu", "0", "--gamma", "0"])
        assert code == 0
        d = json.loads(text)
        assert d["summary"]["found"] is True
        assert d["results"][0]["crossover"] > 0

    def test_none_for_safe_parameters(self):
        code, text, _ = invoke(["crossover", "--mu", "1", "--nu", "1",
                                "--gamma", "0.3"])
        assert code == 0
        assert json.loads(text)["summary"]["found"] is False

    def test_not_found_is_numerical_failure(self):
        code, _, err = invoke(["crossover", "--mu", "0", "--nu", "0", "--gamma", "0",
                               "--x-max", "0.5"])
        assert code == 3
        assert "NotFound" in err
