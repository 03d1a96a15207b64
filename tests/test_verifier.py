import gc
import io
import json
import math
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from besselint.bounds import CATALOG, BoundId, Direction, Point, bound_value, row_step
from besselint import bounds, cli, kernel, oracle
from besselint.errors import InvalidDomain, NonConvergence, NotFound
from besselint.oracle import IntegralSpec, QuadResult, bessel_integral
from besselint.scaled import ScaledValue
from besselint.verifier import (
    CHECK_COLUMNS,
    CheckReport,
    Grid,
    Verdict,
    check_point,
    default_grid,
    find_crossover,
    logspace,
    relative_error_table,
    sweep,
    tightness_scan,
)

from reference import invalid_reason


class TestCheckPoint:
    def test_main_holds(self):
        r = check_point(BoundId.MAIN, Point(nu=-0.25, gamma=0.5, x=10.0))
        assert r.verdict is Verdict.HOLDS
        assert r.rel_margin > 0

    def test_prop1_exploratory_violated_at_large_x(self):
        r = check_point(BoundId.PROP1, Point(nu=0.0, mu=0.0, gamma=0.0, x=100.0),
                        exploratory=True)
        assert r.verdict is Verdict.VIOLATED
        assert r.rel_margin < -r.uncertainty

    def test_equality_point_is_inconclusive(self):
        r = check_point(BoundId.NEW1, Point(nu=1.0, n=-1.0, gamma=0.0, x=3.0))
        assert r.verdict is Verdict.INCONCLUSIVE
        assert abs(r.rel_margin) <= r.uncertainty

    @pytest.mark.parametrize("bid", [BoundId.LOWER2, BoundId.INTINEQ0])
    def test_zero_bracket_holds_with_the_whole_margin(self, bid):
        # at nu = 1, gamma = 0 the per-x coefficient 1 - 4/x is exactly 0 at x = 4
        assert bound_value(bid, nu=1.0, gamma=0.0, x=4.0).sign == 0
        r = check_point(bid, Point(nu=1.0, gamma=0.0, x=4.0))
        assert r.verdict is Verdict.HOLDS
        assert r.rel_margin == 1.0

    def test_out_of_domain_raises_with_hypothesis(self):
        with pytest.raises(InvalidDomain, match="mu >= nu >= 1/2"):
            check_point(BoundId.PROP1, Point(nu=0.0, mu=0.0, gamma=0.0, x=100.0))

    @pytest.mark.parametrize("tol", [1e-14, 1e-5])
    def test_tolerance_out_of_range_raises(self, tol):
        with pytest.raises(InvalidDomain, match=r"tolerance must lie in \[1e-13, 1e-06\]"):
            check_point(BoundId.MAIN, Point(nu=0.0, gamma=0.3, x=2.0), tol=tol)

    @pytest.mark.parametrize("bid", [BoundId.MAIN, BoundId.NEED2, BoundId.LOWER3,
                                     BoundId.LOWER4])
    def test_huge_order_margin_is_within_log_rounding(self, bid):
        # |log_abs| is about 3.65e17 at nu = 1e16, so one rounding unit of each
        # log (64) swamps the margin of about 6e27 either way
        r = check_point(bid, Point(nu=1e16, x=1.0))
        assert r.verdict is Verdict.INCONCLUSIVE
        assert abs(r.rel_margin) <= r.uncertainty

    # at the examples the oracle's anchor log is tens of units off, an error
    # that counts only as the factor e^log_err on F, never as a small one
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(bid=st.sampled_from(list(BoundId)),
           nu=st.floats(0.0, 18.0).map(lambda t: 10.0 ** t), n=st.floats(-3.0, 3.0),
           dmu=st.floats(0.0, 3.0), gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
           x=st.floats(-2.0, 5.0).map(lambda t: 10.0 ** t))
    @example(bid=BoundId.NEW1, nu=7115676407749083.0, n=-1.8333430404577944, dmu=0.0,
             gamma=0.0, x=9662.24961242215)
    @example(bid=BoundId.LOWER3, nu=9770533196362902.0, n=0.0, dmu=0.0, gamma=0.0,
             x=78362.25787491772)
    @example(bid=BoundId.DAY, nu=165858391298106.66, n=1.9816503765090498, dmu=0.0,
             gamma=0.0, x=4.022699798492363)
    @example(bid=BoundId.LOWER4, nu=1226501732499647.5, n=0.1883005703586047, dmu=0.0,
             gamma=0.35337912090240575, x=1295.8867393452933)
    def test_no_check_inside_the_hypotheses_is_violated(self, bid, nu, n, dmu, gamma, x):
        point = Point(nu, n, nu + dmu, gamma, x)
        assume(invalid_reason(CATALOG[bid], point) is None)
        try:
            verdict = check_point(bid, point).verdict
        except InvalidDomain:
            return  # F past the representation, or a bound past the float range
        assert verdict in (Verdict.HOLDS, Verdict.INCONCLUSIVE)

    @pytest.mark.parametrize("bid", [BoundId.LOWER4, BoundId.TWOSIDED_L])
    def test_verdict_reads_no_tolerance(self, bid):
        # the margin (8.73e-11) is above the band (2.25e-11, of which the oracle's
        # rel_err is 1.63e-11) and below the default tol: a band that read tol
        # would turn this check INCONCLUSIVE
        point = Point(nu=1000.0, n=-0.5, gamma=0.0, x=1e4)
        grid = Grid((point.nu,), (point.gamma,), (point.x,), n_values=(point.n,))
        seen = set()
        for tol in (1e-6, 1e-10, 1e-13):
            (swept,) = sweep([bid], grid, tol=tol).reports
            for r in (check_point(bid, point, tol=tol), swept):
                assert r.verdict is Verdict.HOLDS
                seen.add((r.rel_margin, r.uncertainty))
        assert len(seen) == 1

    def test_edge_of_the_upper_bound_hypotheses_holds(self):
        # nu + n + 1 is 1.5e-16 here; a 50-digit series puts bound/F - 1 at +0.174
        r = check_point(BoundId.TWOSIDED_U, Point(nu=4e-17, n=-0.9999999999999999, x=3.0))
        assert r.verdict is Verdict.HOLDS

    def test_report_round_trips_through_json(self):
        # the CLI's JSON record is the report's to_dict, member for member
        r = check_point(BoundId.MAIN, Point(nu=0.0, gamma=0.3, x=2.0))
        out = io.StringIO()
        assert cli.run("check --bound main --nu 0 --gamma 0.3 --x 2".split(), out=out) == 0
        assert json.loads(out.getvalue())["results"] == [r.to_dict()]

    @pytest.mark.parametrize("bid", list(BoundId), ids=[b.value for b in BoundId])
    def test_checked_and_exploratory_checks_agree(self, bid):
        # inside the hypotheses the checked route (bound_value) and the exploratory
        # one (a bare row_step step) must give the same bound and the same report
        entry = CATALOG[bid]
        gamma = 0.0 if bid in (BoundId.TWOSIDED_L, BoundId.TWOSIDED_U) else 0.5
        for x in (0.5, 20.0):
            point = Point(1.0, 0.5 if entry.uses_n else 0.0, 1.5 if entry.uses_mu else None,
                          gamma, x)
            assert invalid_reason(entry, point) is None
            assert (check_point(bid, point, exploratory=True).to_dict()
                    == check_point(bid, point).to_dict())
            ev = bound_value(bid, point.nu, point.n, point.mu, point.gamma, x)
            assert ev[:4] == row_step(bid, point)(x)
            assert ev.direction is entry.direction_at(point)


class TestZeroMargin:
    """A bound equal to its integral: the margin is +0.0 for UPPER, LOWER and
    REVERSED, and -0.0 for EQUALITY, where any gap counts against."""

    @pytest.mark.parametrize("bid, point, direction, sign", [
        (BoundId.MAIN, Point(1.0, gamma=0.5, x=5.0), Direction.UPPER, 1.0),
        (BoundId.LOWER3, Point(1.0, gamma=0.5, x=5.0), Direction.LOWER, 1.0),
        (BoundId.NEW1, Point(2.0, n=-2.0, x=5.0), Direction.REVERSED, 1.0),
        (BoundId.NEW1, Point(1.0, n=-1.0, x=5.0), Direction.EQUALITY, -1.0),
    ])
    def test_equal_logs_give_a_signed_zero(self, monkeypatch, bid, point, direction, sign):
        o = bessel_integral(CATALOG[bid].integrand(point))  # the oracle at the default tol
        # the one place that turns a row's terms into its step gives the oracle's bits
        monkeypatch.setattr(bounds, "_combination",
                            lambda *row: lambda x, c=None: (o.sign, o.log_abs, 0, 0.0))
        grid = Grid((point.nu,), (point.gamma,), (point.x,), n_values=(point.n,))
        (swept,) = sweep([bid], grid).reports
        for r in (swept, check_point(bid, point)):
            assert (r.direction, r.bound_log_abs, r.oracle_sign, r.oracle_log_abs,
                    r.oracle_rel_err) == (direction, o.log_abs, *o[:3])
            assert r.rel_margin == 0.0 and math.copysign(1.0, r.rel_margin) == sign


class TestSweep:
    def test_tolerance_out_of_range_raises(self):
        g = Grid(nu_values=(0.0,), gamma_values=(0.0,), x_values=(1.0,))
        with pytest.raises(InvalidDomain, match=r"tolerance must lie in .* got 1\.0$"):
            sweep([BoundId.MAIN], g, tol=1.0)

    def test_empty_grid(self):
        g = Grid(nu_values=(), gamma_values=(), x_values=())
        res = sweep([BoundId.MAIN], g)
        assert res.reports == [] and res.skipped == []
        assert res.counts == {"holds": 0, "violated": 0, "inconclusive": 0}

    def test_out_of_domain_point_recorded(self):
        g = Grid(nu_values=(-0.75, 1.0), gamma_values=(0.0,), x_values=(2.0,))
        res = sweep([BoundId.MAIN], g)
        assert len(res.reports) == 1
        assert len(res.skipped) == 1
        assert "nu > -0.5" in res.skipped[0].reason

    def test_small_grid_all_hold(self):
        g = Grid(nu_values=(0.0, 1.0), gamma_values=(0.0, 0.5),
                 x_values=(0.5, 5.0, 40.0), n_values=(0.0, 1.0),
                 mu_values=(0.5, 1.0))
        res = sweep(list(BoundId), g, tol=1e-10)
        assert res.counts["violated"] == 0
        # inconclusive only at the LOWER1 gamma=0 equality regime
        for r in res.reports:
            if r.verdict is Verdict.INCONCLUSIVE:
                assert r.direction is Direction.EQUALITY

    def test_deterministic_output(self):
        # the same grid with its bounds, and then every axis, in reverse order;
        # NEW1 and PROP1 bring the n and mu axes and some skipped points
        g = Grid(nu_values=(0.0, 2.5), gamma_values=(0.0, 0.9), x_values=(1.0, 10.0),
                 n_values=(0.0, 1.0), mu_values=(0.5, 2.5))
        reverse = Grid(*(tuple(reversed(axis)) for axis in (
            g.nu_values, g.gamma_values, g.x_values, g.n_values, g.mu_values)))
        ids = [BoundId.MAIN, BoundId.LOWER3, BoundId.NEED2, BoundId.NEW1, BoundId.PROP1]
        a = sweep(ids, g)
        assert a.skipped
        for b in (sweep(ids[::-1], g), sweep(ids, reverse)):
            assert (b.reports, b.skipped, b.counts) == (a.reports, a.skipped, a.counts)

    def test_far_row_holds(self):
        # one oracle row out to x = 20000, where the integral passes e^19990
        res = sweep([BoundId.MAIN], Grid((0.0,), (0.0,), logspace(1.0, 20000.0, 40)),
                    tol=1e-12)
        assert res.counts == {"holds": 40, "violated": 0, "inconclusive": 0}
        assert all(r.reason is None for r in res.reports)

    def test_far_point_fails_alone(self):
        # x = 2e5 needs more series terms than the oracle allows; x = 1, on
        # the same (mu, ord, gamma) row, is checked as usual
        res = sweep([BoundId.MAIN], Grid((0.0,), (0.0,), (1.0, 2e5)))
        near, far = res.reports
        assert (near.point.x, near.verdict, near.reason) == (1.0, Verdict.HOLDS, None)
        assert (far.point.x, far.verdict) == (2e5, Verdict.INCONCLUSIVE)
        assert far.reason == ("NonConvergence: F(mu=0.0, ord=0.0, gamma=0.0, x=200000.0) "
                              "needs more than 100000 series terms")
        # its oracle error is unknown, not the 0 of an exact value
        assert (far.oracle_sign, far.oracle_log_abs) == (0, 0.0)
        assert math.isnan(far.oracle_rel_err)
        with pytest.raises(InvalidDomain):
            QuadResult(far.oracle_sign, far.oracle_log_abs, far.oracle_rel_err, 0, False).abs_err
        assert res.counts == {"holds": 1, "violated": 0, "inconclusive": 1}

    def test_infinite_limit_fails_alone(self):
        # x = inf is no upper limit of the integral; x = 1, on the same row, is
        # checked as usual
        res = sweep([BoundId.MAIN], Grid((0.0,), (0.5,), (1.0, math.inf)))
        near, far = res.reports
        assert (near.point.x, near.verdict, near.reason) == (1.0, Verdict.HOLDS, None)
        assert (far.point.x, far.verdict) == (math.inf, Verdict.INCONCLUSIVE)
        assert far.reason == "InvalidDomain: upper limit must be finite and >= 0, got inf"

    def test_failed_oracle_row_is_inconclusive(self, monkeypatch):
        g = Grid(nu_values=(0.0, 1.0), gamma_values=(0.0, 0.5),
                 x_values=(1.0, 20.0))
        ids = [BoundId.MAIN, BoundId.LOWER1, BoundId.LOWER3]
        clean = sweep(ids, g)
        # F(1, 1) at gamma = 0.5 and x = 20, used by MAIN and LOWER3; its row
        # neighbour at x = 1 serves the same two bounds
        bad = (1.0, 1.0, 0.5, 20.0)
        real = oracle._series

        def failing(row, x, tol):  # the per-x step of a (mu, ord, gamma) row
            if (*row[:3], x) == bad:
                raise NonConvergence("F needs more than 100000 series terms")
            return real(row, x, tol)

        monkeypatch.setattr(oracle, "_series", failing)
        res = sweep(ids, g)
        assert len(res.reports) == len(clean.reports)
        failed = neighbours = 0
        for r, c in zip(res.reports, clean.reports):
            assert (r.bound, r.point) == (c.bound, c.point)
            spec = CATALOG[r.bound].integrand(r.point)
            if (spec.mu, spec.ord, spec.gamma, spec.x) == bad:
                failed += 1
                assert r.verdict is Verdict.INCONCLUSIVE
                assert r.reason.startswith("NonConvergence: F needs more")
            else:
                neighbours += (spec.mu, spec.ord, spec.gamma) == bad[:3]
                assert r == c
        assert (failed, neighbours) == (2, 2)  # MAIN and LOWER3 at x = 20, then x = 1
        assert sum(res.counts.values()) == len(res.reports)
        for verdict in Verdict:
            assert res.counts[verdict.value] == sum(
                r.verdict is verdict for r in res.reports)

    def test_sweep_and_check_point_give_the_same_reports(self):
        # sweep evaluates a row at a time and shares each integral among the
        # checks that need it; check_point computes its own for one check, at
        # the smallest, a middle and the largest x of every (bound, nu, n, mu,
        # gamma) row of the default grid
        rows = {}
        for r in sweep(list(BoundId), default_grid()).reports:
            p = r.point
            rows.setdefault((r.bound, p.nu, p.n, p.mu, p.gamma), []).append(r)
        assert len(rows) == 1196
        for row in rows.values():
            assert [r.point.x for r in row] == sorted(default_grid().x_values)
            for r in (row[0], row[len(row) // 2], row[-1]):
                assert check_point(r.bound, r.point).to_dict() == r.to_dict()

    def test_row_whose_coefficients_raise_fails_at_every_x(self, monkeypatch):
        g = Grid(nu_values=(0.0, 1.0), gamma_values=(0.0,), x_values=(0.5, 1.0, 5.0))
        clean = sweep([BoundId.MAIN], g)
        entry = CATALOG[BoundId.MAIN]

        def terms(row):
            if row.nu == 1.0:
                raise ZeroDivisionError("float division by zero")
            return entry.terms(row)

        monkeypatch.setitem(CATALOG, BoundId.MAIN, replace(entry, terms=terms))
        res = sweep([BoundId.MAIN], g)
        assert res.reports[:3] == clean.reports[:3]
        for r, c in zip(res.reports[3:], clean.reports[3:]):
            assert (r.point, r.verdict, r.direction) == (c.point, Verdict.INCONCLUSIVE,
                                                         c.direction)
            assert r.reason == "InvalidDomain: main: the closed form divides by zero here"
        assert res.counts == {"holds": 3, "violated": 0, "inconclusive": 3}


class TestFlatRecords:
    """Sweep reports and skips carry their coordinates and bound value as fields."""

    # MAIN skips nu = -0.75, and PROP1 skips mu = 0.5 below nu = 1
    GRID = Grid(nu_values=(-0.75, 1.0), gamma_values=(0.0, 0.5), x_values=(0.5, 5.0),
                mu_values=(0.5, 1.0))
    IDS = [BoundId.MAIN, BoundId.LOWER3, BoundId.PROP1]

    @staticmethod
    def _live_points() -> int:
        gc.collect()
        return sum(type(o) is Point for o in gc.get_objects())

    def test_held_result_keeps_no_point(self):
        before = self._live_points()
        res = sweep(self.IDS, self.GRID)
        assert res.reports and res.skipped
        assert self._live_points() <= before

    def test_point_and_bound_value_are_built_from_the_fields(self):
        res = sweep(self.IDS, self.GRID)
        for r in res.reports:
            assert r.point == Point(r.nu, r.n, r.mu, r.gamma, r.x)
            assert r.bound_value == ScaledValue(r.bound_sign, r.bound_log_abs)
        for s in res.skipped:
            assert s.point == Point(s.nu, s.n, s.mu, s.gamma, s.x)

    def test_default_grid_result_keeps_no_scaled_value(self):
        # an oracle result is three fields of the record: no value or result is built
        res = sweep(list(BoundId), default_grid())
        fields = [o for r in res.reports for o in gc.get_referents(r)]
        assert not any(type(o) in (ScaledValue, QuadResult) for o in fields)

    def test_result_is_held_as_rows(self):
        # a checked row keeps its checks as columns and a skipped row its xs and
        # reasons, packed, and the records are built when read; a list of one tuple
        # per record held about 230 B and 1.23 collector objects per record, and
        # unpacked per-row columns about 108 B and 0.47
        grid = replace(default_grid(), gamma_values=(0.0, 0.5))
        tracemalloc.start()
        try:
            res = sweep(list(BoundId), grid)
            gc.collect()
            held, objects = tracemalloc.get_traced_memory()[0], len(gc.get_objects())
            records = len(res.reports) + len(res.skipped)
            del res
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
            objects -= len(gc.get_objects())
        finally:
            tracemalloc.stop()
        assert records == 9744 + 4944
        assert held / records <= 70
        assert objects / records <= 0.6

    def test_held_result_gives_the_collector_nothing_to_walk(self):
        # every row holds only values the collector untracks (str, float, int, None,
        # bytes and tuples of these), so a held result keeps a few containers
        # whatever the grid's size; unpacked columns kept about 6 870 objects here.
        # After a warm sweep too: rows that held their xs as a tuple stayed tracked
        grid = replace(default_grid(), gamma_values=(0.0, 0.5))
        for warm in (False, True):
            if warm:
                sweep(list(BoundId), grid)
            res = sweep(list(BoundId), grid)
            gc.collect()
            objects = len(gc.get_objects())
            assert not any(map(gc.is_tracked, res.reports._rows + res.skipped._rows))
            del res
            gc.collect()
            assert objects - len(gc.get_objects()) <= 32

    def test_records_carry_what_the_emitters_leave_out(self):
        # JSON and CSV write each enum as its value, so the pinned output digests
        # cannot see a plain string or a wrong member in place of the enum
        res = sweep(list(BoundId), default_grid())
        reports = list(res.reports)
        assert reports == list(res.reports) and list(res.skipped) == list(res.skipped)
        assert res.counts == {v.value: sum(r.verdict is v for r in reports) for v in Verdict}
        for r in reports:
            assert r.bound is BoundId(r.bound.value) and r.verdict is Verdict(r.verdict.value)
            assert r.direction is Direction(r.direction.value)
        for s in res.skipped:
            assert s.bound is BoundId(s.bound.value)
        inconclusive = [r for r in reports if r.verdict is Verdict.INCONCLUSIVE][:5]
        assert len(inconclusive) == 5
        for r in random.Random(33).sample(reports, 300) + inconclusive:
            expected = check_point(r.bound, r.point)
            assert expected._asdict() == r._asdict()

    GRIDS = [
        (IDS, GRID),
        ([BoundId.MAIN], Grid((0.0,), (0.0,), (1.0, 2e5))),  # x = 2e5 fails
        ([BoundId.PROP1], Grid((0.0,), (0.0,), (1.0, 5.0), mu_values=(0.0,))),  # all skipped
        # nu = -0.75 skips x = 0 and x = 1 for two reasons, nu = 0 only x = 0 for one
        ([BoundId.MAIN], Grid((-0.75, 0.0), (0.0,), (0.0, 1.0))),
        ([BoundId.MAIN], Grid((0.0,), (0.0,), (math.nan, 1.0))),  # a NaN x is skipped
    ]

    @pytest.mark.parametrize("ids, grid", GRIDS)
    def test_flat_records_are_the_reports_flattened(self, ids, grid):
        res = sweep(ids, grid)
        for record in res.reports:
            assert type(record) is CheckReport and record._fields == CHECK_COLUMNS
            assert (type(record.bound), type(record.direction), type(record.verdict)) == (
                BoundId, Direction, Verdict)
            # the JSON nesting holds the record's values in column order
            nested = record.to_dict()
            assert [v for m in nested.values()
                    for v in (m.values() if type(m) is dict else (m,))] == list(record)
            assert list(nested["point"]) == list(CHECK_COLUMNS[1:6])

    @pytest.mark.parametrize("ids, grid", GRIDS)
    def test_reports_and_skipped_are_sequences(self, ids, grid):
        res = sweep(ids, grid)
        assert len(res.reports) == sum(res.counts.values())
        for seq in (res.reports, res.skipped):
            records = list(seq)
            size = len(seq)
            assert len(records) == size and bool(seq) is bool(size)
            assert seq == records and records == seq and seq == list(seq)
            keys = [(r.bound.value, r.nu, r.n, r.mu, r.gamma, r.x) for r in records]
            assert all(a < b for a, b in zip(keys, keys[1:]))  # canonical order, each once
            if size:
                assert (seq[0], seq[-1], seq[-size]) == (records[0], records[-1], records[0])
                assert [seq[i] for i in range(size)] == records
                assert seq[1:] == records[1:] and type(seq[1:]) is list
            for i in (size, -size - 1):
                with pytest.raises(IndexError):
                    seq[i]
        assert res.reports or res.skipped
        for r in res.reports:
            # a failed check too: check_point turns its oracle's error into the reason
            assert check_point(r.bound, r.point) == r
            if r.reason is not None:
                assert (r.verdict, r.bound_sign, r.uncertainty) == (
                    Verdict.INCONCLUSIVE, 0, math.inf)
                assert math.isnan(r.rel_margin) and math.isnan(r.oracle_rel_err)
        for s in res.skipped:
            with pytest.raises(InvalidDomain) as skipped:
                check_point(s.bound, s.point)
            assert str(skipped.value) == f"{s.bound.value}: violated hypothesis: {s.reason}"

    def test_fields_are_read_only(self):
        res = sweep(self.IDS, self.GRID)
        r, s = res.reports[0], res.skipped[0]
        for record, name in [(r, "x"), (r, "verdict"), (r, "bound_log_abs"), (r, "point"),
                             (r, "bound_value"), (s, "nu"), (s, "reason"), (s, "point")]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


class TestTables:
    def test_spec_spot_values(self):
        t = relative_error_table(BoundId.TWOSIDED_L, [0.0, -0.25], [5.0, 10.0])
        assert t.entries[0][0] == pytest.approx(0.0528, abs=1e-12)
        assert t.entries[1][1] == pytest.approx(0.3593, abs=1e-12)
        t = relative_error_table(BoundId.TWOSIDED_U, [1.0], [10.0])
        assert t.entries[0][0] == pytest.approx(0.0464, abs=1e-12)

    def test_entries_rounded_to_four_places(self):
        t = relative_error_table(BoundId.TWOSIDED_U, [0.0], [1.0, 5.0])
        for v in t.entries[0]:
            assert v == pytest.approx(round(v, 4), abs=1e-12)

    def test_rejects_other_bounds(self):
        with pytest.raises(InvalidDomain):
            relative_error_table(BoundId.MAIN, [0.0], [1.0])


class TestTightness:
    def test_new1_tight_at_zero_for_gamma_zero(self):
        r = tightness_scan(BoundId.NEW1, Point(nu=1.0, n=0.0, gamma=0.0),
                           [0.01, 0.1])
        assert abs(r[0] - 1.0) < abs(r[1] - 1.0)
        assert abs(r[0] - 1.0) < 1e-4

    def test_lower2_increases_toward_one(self):
        r = tightness_scan(BoundId.LOWER2, Point(nu=1.0, gamma=0.5),
                           [50.0, 100.0, 200.0, 400.0])
        assert all(a < b for a, b in zip(r, r[1:]))
        assert all(v < 1.0 for v in r)
        assert abs(r[-1] - 1.0) < 0.05
        assert tightness_scan(BoundId.LOWER2, Point(nu=1.0, gamma=0.5),
                              [400.0, 50.0, 200.0, 100.0]) == [r[3], r[0], r[2], r[1]]

    def test_lower4_tight_at_zero(self):
        # the gap closes linearly in x when gamma > 0 (like gamma x/(2nu+2))
        r = tightness_scan(BoundId.LOWER4, Point(nu=0.0, n=0.0, gamma=0.5),
                           [1.0, 0.1, 0.01, 0.001])
        assert abs(r[-1] - 1.0) < abs(r[0] - 1.0)
        assert abs(r[-1] - 1.0) < 1e-3

    def test_domain_enforced_for_every_x(self):
        with pytest.raises(InvalidDomain):
            tightness_scan(BoundId.TWOSIDED_U, Point(nu=1.0, n=0.0, gamma=0.5),
                           [1.0, 2.0])


class TestCrossover:
    def test_exists_for_small_mu(self):
        xs = find_crossover(0.0, 0.0, 0.0)
        assert xs is not None and 0.1 < xs < 500.0

    def test_none_in_safe_region(self):
        assert find_crossover(1.0, 1.0, 0.3) is None

    def test_not_found_reports_range(self):
        with pytest.raises(NotFound, match="0.5"):
            find_crossover(0.0, 0.0, 0.0, x_max=0.5)

    def test_borderline_mu_returns_or_raises(self):
        try:
            xs = find_crossover(0.4, 0.4, 0.0, x_max=500.0)
            assert xs is None or xs > 0
        except NotFound as exc:
            assert "500" in str(exc)

    def test_domain(self):
        with pytest.raises(InvalidDomain):
            find_crossover(-0.6, -0.6, 0.0)
        with pytest.raises(InvalidDomain):
            find_crossover(0.0, 0.0, 1.0)


def test_logspace_endpoints():
    xs = logspace(1e-3, 200.0, 24)
    assert len(xs) == 24
    assert xs[0] == pytest.approx(1e-3, rel=1e-12)
    assert xs[-1] == pytest.approx(200.0, rel=1e-12)
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_default_grid_shape():
    g = default_grid()
    assert len(g.nu_values) == 9
    assert len(g.gamma_values) == 7
    assert len(g.x_values) == 24
    assert len(g.n_values) == 4
    assert len(g.mu_values) == 5


class TestSharedTables:
    def test_grouped_rows_give_the_results_of_lone_integrals(self):
        # a sweep runs its oracle rows grouped by mu + ord + 1, so that rows with
        # one p0 share their S tables; every integral alone, after one at another
        # p0 (1.125, which no integrand of the grid has), must give the same result
        grouped = {}
        for r in sweep(list(BoundId), default_grid()).reports:
            if r.reason is None:
                grouped[CATALOG[r.bound].integrand(r.point)] = (
                    r.oracle_sign, r.oracle_log_abs, r.oracle_rel_err)
        assert len(grouped) == 11928
        spacer = IntegralSpec(0.125, 0.0, 0.5, 1.0)
        for spec, result in grouped.items():
            bessel_integral(spacer, 1e-11)
            assert bessel_integral(spec, 1e-11)[:3] == result


class TestOneIntegralAtATime:
    """A sweep checks each oracle row's bounds as soon as the row is summed."""

    def test_cold_sweep_peak(self):
        # all 11 928 oracle results alive at once took the peak to about 4.7 MB
        kernel.besseli.cache_clear()
        kernel.besselk.cache_clear()
        tracemalloc.start()
        try:
            sweep(list(BoundId), default_grid())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0e6

    def test_integral_order_shares_the_tables(self, monkeypatch):
        # integrals go by mu + ord + 1, then mu, then gamma: p0's S tables are each
        # built once, and LOWER1 at nu and LOWER3 at nu + 1/2, which share p0, do not
        # take turns in the one-entry ratio-list cache
        calls = {"s": 0, "ratios": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(oracle, "_s_ratios", counted("s", oracle._s_ratios))
        monkeypatch.setattr(kernel, "besseli_ratios", counted("ratios", kernel.besseli_ratios))
        oracle._s_tables.cache_clear()
        bounds._ratio_lists.cache_clear()
        sweep(list(BoundId), default_grid())
        assert calls["s"] == 5436
        assert calls["ratios"] <= 1060
