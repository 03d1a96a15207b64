"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines live.
"""

import math
import time

from besselint.bounds import BoundId, Direction, Point, m_bound_constant, m_value
from besselint.kernel import besseli, besseli_ratio, besselk
from besselint.oracle import IntegralSpec, bessel_integral
from besselint.scaled import ScaledValue
from besselint.verifier import (
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

from reference import antiderivative_gamma1, rel_gap

NU_AXIS = (-0.25, 0.0, 1.0, 2.5, 5.0)
X_AXIS = (1.0, 2.5, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0)

# published relative errors of the lower member of the two-sided enclosure
TABLE_LOWER = (
    (0.0006, 0.0199, 0.1528, 0.3593, 0.3747, 0.3105, 0.1943, 0.1081),
    (0.0002, 0.0074, 0.0528, 0.1305, 0.1425, 0.1227, 0.0789, 0.0445),
    (0.0000, 0.0006, 0.0046, 0.0154, 0.0199, 0.0199, 0.0142, 0.0085),
    (0.0000, 0.0000, 0.0005, 0.0023, 0.0037, 0.0045, 0.0038, 0.0025),
    (0.0000, 0.0000, 0.0000, 0.0003, 0.0006, 0.0009, 0.0010, 0.0007),
)

# published relative errors of the upper member.  The (nu=2.5, x=1) cell is
# printed as 0.0001, but that digit belongs to the x=0.5 column of a
# superseded draft of the same table (the 0.0001 survives there verbatim
# while every other row's first entry was recomputed for x=1).  This
# package's series oracle and a 40-digit tanh-sinh quadrature both give
# 0.00052903 at x=1, so the expected value below carries the corrected
# 0.0005.
TABLE_UPPER = (
    (0.0403, 0.2132, 0.4675, 0.4323, 0.3268, 0.2137, 0.1134, 0.0584),
    (0.0199, 0.0991, 0.2038, 0.1973, 0.1543, 0.1034, 0.0558, 0.0290),
    (0.0030, 0.0156, 0.0368, 0.0464, 0.0411, 0.0303, 0.0175, 0.0094),
    (0.0005, 0.0030, 0.0084, 0.0144, 0.0149, 0.0125, 0.0080, 0.0045),
    (0.0000, 0.0005, 0.0017, 0.0039, 0.0049, 0.0050, 0.0037, 0.0023),
)


def _verdict_line(num: int, ok: bool, desc: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} - {desc} ({elapsed:.1f} s)")
    assert ok, f"criterion {num} failed: {desc}"


def _table_mismatches(bound: BoundId, expected) -> list:
    table = relative_error_table(bound, NU_AXIS, X_AXIS)
    bad = []
    for i, nu in enumerate(NU_AXIS):
        for j, x in enumerate(X_AXIS):
            if abs(table.entries[i][j] - expected[i][j]) > 0.0001 + 1e-12:
                bad.append((nu, x, table.entries[i][j], expected[i][j]))
    return bad


def test_criterion_1_table_lower():
    t0 = time.perf_counter()
    bad = _table_mismatches(BoundId.TWOSIDED_L, TABLE_LOWER)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _verdict_line(1, ok, f"lower-bound table, 40 entries within 1e-4 (bad={bad})",
                  elapsed)


def test_criterion_2_table_upper():
    t0 = time.perf_counter()
    bad = _table_mismatches(BoundId.TWOSIDED_U, TABLE_UPPER)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _verdict_line(2, ok, "upper-bound table, 40 entries within 1e-4; "
                  f"(nu=2.5, x=1) carries the recomputed 0.0005 (bad={bad})",
                  elapsed)


def test_criterion_3_oracle_exactness():
    t0 = time.perf_counter()
    worst_closed = 0.0
    for nu in (-0.4, 0.0, 1.0, 2.5, 5.0):
        for x in (0.5, 1.0, 5.0, 10.0, 30.0):
            got = bessel_integral(IntegralSpec(nu, nu, 1.0, x), 1e-12).value
            worst_closed = max(worst_closed, rel_gap(got, antiderivative_gamma1(nu, x)))
    worst_deriv = 0.0
    for nu in (0.5, 1.0, 2.5):
        for x in (1.0, 5.0, 20.0):
            got = bessel_integral(IntegralSpec(nu, nu - 1.0, 0.0, x), 1e-12).value
            exact = ScaledValue.from_log(nu * math.log(x)) * besseli(nu, x)
            worst_deriv = max(worst_deriv, rel_gap(got, exact))
    elapsed = time.perf_counter() - t0
    ok = worst_closed < 1e-10 and worst_deriv < 1e-10 and elapsed < 10.0
    _verdict_line(3, ok, "oracle matches exponential-weight closed form "
                  f"(worst {worst_closed:.2e}) and derivative identity "
                  f"(worst {worst_deriv:.2e})", elapsed)


def _documented_near_equality(r) -> bool:
    """Configurations where a strict inequality degenerates numerically.

    * direction EQUALITY: exact equality cases (LOWER1 at gamma=0; NEW1 at
      gamma=0, n=-1);
    * LOWER4 / TWOSIDED_L at gamma=0 near x=0: both sides agree to O(x^4)
      with a coefficient that shrinks as the order grows, so the margin
      sits below double resolution up to x ~ 0.2 at nu = 10;
    * NEED2 near x=0: the linear terms of bound and integral cancel
      exactly, leaving an O(x^2) margin with a tiny coefficient;
    * PROP1 on the diagonal mu=nu=1/2: the defect equals
      (1 - e^-(1+g)x)/(1-g^2), exponentially small next to the integral
      once (1-gamma) x is large.

    Every documented case also caps |margin|, so this list cannot mask a
    materially wrong verdict.
    """
    p = r.point
    if abs(r.rel_margin) > 1e-11:
        return False
    if r.direction is Direction.EQUALITY:
        return True
    if (r.bound in (BoundId.LOWER4, BoundId.TWOSIDED_L)
            and p.gamma == 0.0 and p.x <= 0.25):
        return True
    if r.bound is BoundId.NEED2 and p.x <= 0.02:
        return True
    if (r.bound is BoundId.PROP1 and p.mu == 0.5 and p.nu == 0.5
            and (1.0 - p.gamma) * p.x > 20.0):
        return True
    return False


def test_criterion_4_sweep_no_violations():
    t0 = time.perf_counter()
    result = sweep(list(BoundId), default_grid(), tol=1e-10)
    elapsed = time.perf_counter() - t0
    undocumented = [r for r in result.reports
                    if r.verdict is Verdict.INCONCLUSIVE
                    and not _documented_near_equality(r)]
    errors = [r for r in result.reports if r.reason is not None]
    # the pinned counts: a change that moves any verdict must explain it here
    pinned = (result.counts == {"holds": 28034, "violated": 0, "inconclusive": 670}
              and len(result.skipped) == 22704)
    ok = (result.counts["violated"] == 0 and not undocumented and not errors
          and pinned and elapsed < 300.0)
    _verdict_line(4, ok, f"default grid sweep: {result.counts}, "
                  f"{len(result.skipped)} skipped "
                  f"(undocumented inconclusive: {len(undocumented)}, "
                  f"evaluation errors: {len(errors)})", elapsed)


def test_wide_grid_sweep_counts():
    # orders up to 1000, tilts up to 0.999 and x from 1e-4 to 1e4, beyond the
    # default grid on every axis; its counts are pinned as criterion 4 pins those
    # of the default grid
    grid = Grid(
        nu_values=(-0.499, -0.49, -0.25, 0.0, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                   100.0, 300.0, 1000.0),
        gamma_values=(0.0, 0.1, 0.5, 0.9, 0.99, 0.999),
        x_values=logspace(1e-4, 1e4, 33),
        n_values=(-0.9, -0.5, 0.0, 1.0, 2.0, 5.0),
        mu_values=(0.0, 0.4, 0.5, 1.0, 2.0, 10.0),
    )
    result = sweep(list(BoundId), grid)
    assert result.counts == {"holds": 67859, "violated": 0, "inconclusive": 3751}
    assert len(result.skipped) == 53130
    assert [r for r in result.reports if r.reason is not None] == []


def test_criterion_5_kernel_inequalities():
    t0 = time.perf_counter()
    nus = (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0)
    xs = logspace(0.5, 30.0, 25)
    failures = []

    def check(label, cond):
        if not cond:
            failures.append(label)

    for nu in nus:
        ratios = []
        for x in xs:
            i_nu = besseli(nu, x)
            i_nu1 = besseli(nu + 1.0, x)
            i_nu2 = besseli(nu + 2.0, x)
            k_nu = besselk(nu, x)
            k_nu1 = besselk(nu + 1.0, x)
            check(("Imon", nu, x), i_nu1 < i_nu)
            check(("cake", nu, x), k_nu1 > k_nu)
            r = besseli_ratio(nu, x)
            ratios.append(r)
            check(("nas2a", nu, x), r < x / (nu + 0.5 + x))
            check(("nas2b", nu, x), r < x / (2.0 * nu + 2.0))
            a = (nu + 0.5) / (2.0 * nu + 2.0)
            lhs = i_nu1
            rhs = i_nu * (1.0 - a) + i_nu2 * a
            check(("ytineq", nu, x), lhs < rhs)
            if nu > 0.5:
                prod1 = (k_nu * i_nu).to_float() * x
                check(("prod1", nu, x), 0.0 <= prod1 < 0.5)
            prod2 = (k_nu1 * i_nu).to_float() * x
            check(("prod2", nu, x), 0.5 < prod2 <= 1.0 + 1e-12)
            wronskian = (i_nu * k_nu1 + i_nu1 * k_nu).to_float() * x
            check(("wronskian", nu, x), abs(wronskian - 1.0) < 1e-10)
            if nu >= 0.5:
                i_num1 = besseli(nu - 1.0, x)
                resid = (abs((i_nu1 - i_num1 + i_nu * (2.0 * nu / x)).to_float())
                         / i_num1.to_float())
                check(("Iidentity", nu, x), resid < 1e-10)
                h = 1e-5 * x
                fd = ((x + h) ** nu * besseli(nu, x + h).to_float()
                      - (x - h) ** nu * besseli(nu, x - h).to_float()) / (2.0 * h)
                exact = x ** nu * i_num1.to_float()
                check(("diffone", nu, x), abs(fd - exact) / abs(exact) < 1e-6)
        check(("ratio monotone", nu), all(a < b for a, b in zip(ratios, ratios[1:])))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _verdict_line(5, ok, f"kernel inequality suite on {len(nus) * len(xs)} points "
                  f"(failures: {failures[:5]})", elapsed)


def test_criterion_6_tightness():
    t0 = time.perf_counter()
    xs = [25.0, 50.0, 100.0, 200.0, 400.0]
    problems = []
    for nu in (0.0, 1.0, 2.5):
        up = tightness_scan(BoundId.NEW1, Point(nu=nu, n=0.0, gamma=0.0), xs)
        down = tightness_scan(BoundId.LOWER4, Point(nu=nu, n=0.0, gamma=0.0), xs)
        if not all(a > b >= 1.0 for a, b in zip(up, up[1:])):
            problems.append(("new1 monotone", nu, up))
        if not all(1.0 >= b > a for a, b in zip(down, down[1:])):
            problems.append(("lower4 monotone", nu, down))
        if abs(up[-1] - 1.0) >= 0.02:
            problems.append(("new1 at 400", nu, up[-1]))
        if abs(down[-1] - 1.0) >= 0.02:
            problems.append(("lower4 at 400", nu, down[-1]))
    for bid in (BoundId.LOWER1, BoundId.LOWER2, BoundId.LOWER3, BoundId.INTINEQ0):
        ratio = tightness_scan(bid, Point(nu=1.0, gamma=0.5), [400.0])[0]
        if abs(ratio - 1.0) >= 0.05:
            problems.append((bid.value, 1.0, ratio))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    _verdict_line(6, ok, f"tightness scans (problems: {problems})", elapsed)


def test_criterion_7_crossover():
    t0 = time.perf_counter()
    xstar = find_crossover(0.0, 0.0, 0.0)
    before = check_point(BoundId.PROP1, Point(nu=0.0, mu=0.0, gamma=0.0,
                                              x=0.9 * xstar), exploratory=True)
    after = check_point(BoundId.PROP1, Point(nu=0.0, mu=0.0, gamma=0.0,
                                             x=1.1 * xstar), exploratory=True)
    none_case = find_crossover(1.0, 1.0, 0.3)
    elapsed = time.perf_counter() - t0
    ok = (xstar is not None and math.isfinite(xstar)
          and before.verdict is Verdict.HOLDS
          and after.verdict is Verdict.VIOLATED
          and none_case is None)
    _verdict_line(7, ok, f"crossover at x*={xstar:.6g} with confirmed sign flip; "
                  "none on the safe diagonal", elapsed)


def test_criterion_8_stein_factor_bounds():
    t0 = time.perf_counter()
    violations = []
    for nu in (-0.25, 0.0, 1.0, 5.0):
        for beta in (0.0, -0.3, -0.9):
            for n in (0, 1, 2):
                cap = m_bound_constant(nu, beta, n)
                for x in logspace(1e-2, 100.0, 16):
                    got = m_value(nu, beta, n, x).to_float()
                    if not got < cap:
                        violations.append((nu, beta, n, x, got, cap))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    _verdict_line(8, ok, f"uniform Stein-factor bounds on 576 points "
                  f"(violations: {violations[:3]})", elapsed)
