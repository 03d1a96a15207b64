import itertools
import math

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from besselint import bounds, kernel
from besselint.bounds import (
    CATALOG,
    BoundId,
    Direction,
    Point,
    bound_value,
    c_nu,
    geometric_tail_series,
    m_bound_constant,
    m_value,
    row_step,
    x_star,
)
from besselint.errors import BesselIntError, InvalidDomain, InvalidOrder
from besselint.kernel import besseli, besseli_ratios
from besselint.oracle import bessel_integral
from besselint.scaled import ScaledValue
from besselint.verifier import default_grid, logspace

from conftest import sv_relerr, threads_disagree
from reference import invalid_reason, rel_gap

TWO_I_1_2 = 3.1812737092746581


def oracle(id: BoundId, **kw) -> ScaledValue:
    p = Point(nu=kw["nu"], n=kw.get("n", 0.0), mu=kw.get("mu"),
              gamma=kw.get("gamma", 0.0), x=kw["x"])
    return bessel_integral(CATALOG[id].integrand(p), 1e-12).value


# one point just outside each hypothesis, with the full message it must give
VIOLATIONS = [
    (BoundId.MAIN, dict(nu=-0.6), "nu > -0.5 (got nu=-0.6)"),
    (BoundId.MAIN, dict(nu=0.0, gamma=1.0), "0 <= gamma < 1 (got gamma=1.0)"),
    (BoundId.MAIN, dict(nu=0.0, x=0.0), "x > 0 (got x=0.0)"),
    (BoundId.SIMPLE, dict(nu=-0.5), "nu > -0.5 (got nu=-0.5)"),
    (BoundId.GAU1, dict(nu=0.0, gamma=0.5),
     "nu >= 1/2, or nu > -1/2 with gamma = 0 (got nu=0.0, gamma=0.5)"),
    (BoundId.BAAAD, dict(nu=-0.5),
     "nu >= 1/2, or nu > -1/2 with gamma = 0 (got nu=-0.5, gamma=0.0)"),
    (BoundId.NEW1, dict(nu=0.0, n=-1.0),
     "nu > 0 at the equality point (got nu=0.0)"),
    (BoundId.NEW1, dict(nu=0.5, n=-2.0),
     "nu > -(n+1) in the reversed regime (got nu=0.5, n=-2.0)"),
    (BoundId.NEW1, dict(nu=1.0, n=-1.0, gamma=0.5), "n > -1 (got n=-1.0)"),
    (BoundId.NEW1, dict(nu=-0.6, n=0.0), "nu > -(n+1)/2 (got nu=-0.6, n=0.0)"),
    (BoundId.NEW1, dict(nu=0.4, n=0.0, gamma=0.5),
     "nu >= 1/2 when gamma > 0 (got nu=0.4)"),
    (BoundId.LOWER4, dict(nu=1.0, n=-1.0), "n > -1 (got n=-1.0)"),
    (BoundId.LOWER4, dict(nu=-1.0, n=1.0), "nu > -(n+1)/2 (got nu=-1.0, n=1.0)"),
    (BoundId.TWOSIDED_L, dict(nu=1.0, gamma=0.5), "gamma = 0 (got gamma=0.5)"),
    (BoundId.TWOSIDED_L, dict(nu=1.0, n=-1.0), "n > -1 (got n=-1.0)"),
    (BoundId.TWOSIDED_U, dict(nu=1.0, gamma=0.5), "gamma = 0 (got gamma=0.5)"),
    (BoundId.TWOSIDED_U, dict(nu=1.0, n=-2.0), "n > -1 (got n=-2.0)"),
    (BoundId.TWOSIDED_U, dict(nu=-0.6, n=0.0), "nu > -(n+1)/2 (got nu=-0.6, n=0.0)"),
    (BoundId.LOWER1, dict(nu=-1.0), "nu > -1.0 (got nu=-1.0)"),
    (BoundId.LOWER3, dict(nu=-0.5), "nu > -0.5 (got nu=-0.5)"),
    (BoundId.INTINEQ0, dict(nu=0.5), "nu > 0.5 (got nu=0.5)"),
    (BoundId.LOWER2, dict(nu=0.5), "nu > 0.5 (got nu=0.5)"),
    (BoundId.PROP1, dict(nu=1.0), "mu must be supplied"),
    (BoundId.PROP1, dict(nu=0.5, mu=0.4), "mu >= nu >= 1/2 (got mu=0.4, nu=0.5)"),
    (BoundId.PROP1, dict(nu=0.4, mu=1.0), "mu >= nu >= 1/2 (got mu=1.0, nu=0.4)"),
    (BoundId.NEED2, dict(nu=-0.5), "nu > -0.5 (got nu=-0.5)"),
    (BoundId.DAY, dict(nu=1.0, n=-3.0), "n > -3 (got n=-3.0)"),
    (BoundId.DAY, dict(nu=-1.0, n=-1.0), "nu > -(n+3)/2 (got nu=-1.0, n=-1.0)"),
]


class TestConstants:
    def test_c_nu_values(self):
        assert c_nu(0.0) == 0.0
        assert c_nu(-0.25) == pytest.approx(0.75, rel=1e-15)
        assert c_nu(3.0) == 0.0

    def test_c_nu_supremum_not_attained(self):
        # sup over (-1/2, 0) is 1
        grid = [-0.5 + 1e-6 + k * 1e-4 for k in range(5000)]
        vals = [c_nu(v) for v in grid if v < 0.0]
        assert max(vals) < 1.0
        assert c_nu(-0.499999) > 0.999999

    def test_c_nu_domain(self):
        with pytest.raises(InvalidDomain):
            c_nu(-0.5)

    def test_x_star_values(self):
        assert x_star(0.5, 0.0) == pytest.approx(2.0)          # equals 2 nu + 1
        assert x_star(0.0, 0.0) == pytest.approx(1.5)
        assert x_star(2.0, 0.9) == pytest.approx(-77.5)        # may be negative

    def test_x_star_domain(self):
        with pytest.raises(InvalidDomain):
            x_star(-0.5, 0.0)
        with pytest.raises(InvalidDomain):
            x_star(1.0, 1.0)


class TestBoundValues:
    def test_main_at_origin_constants(self):
        # constant 2(nu+1)/((2nu+1)(1-gamma)) = 2 at nu=0, gamma=0
        ev = bound_value(BoundId.MAIN, nu=0.0, gamma=0.0, x=2.0)
        assert sv_relerr(ev.value, TWO_I_1_2) < 1e-12
        assert ev.direction is Direction.UPPER

    def test_new1_equality_case(self):
        ev = bound_value(BoundId.NEW1, nu=1.0, n=-1.0, gamma=0.0, x=3.0)
        f = oracle(BoundId.NEW1, nu=1.0, n=-1.0, gamma=0.0, x=3.0)
        assert ev.direction is Direction.EQUALITY
        assert rel_gap(ev.value, f) < 1e-11

    def test_new1_reversed_regime_is_lower_bound(self):
        ev = bound_value(BoundId.NEW1, nu=1.5, n=-2.0, gamma=0.0, x=5.0)
        assert ev.direction is Direction.REVERSED
        f = oracle(BoundId.NEW1, nu=1.5, n=-2.0, gamma=0.0, x=5.0)
        assert ev.value < f

    @pytest.mark.parametrize("bid", [BoundId.INTINEQ0, BoundId.LOWER2])
    @pytest.mark.parametrize("nu", [1e154, 1e200])
    def test_huge_order_bracket_is_finite(self, bid, nu):
        # 2 nu (2 nu + c_{nu-1}) overflows past nu ~ 1e154; the bracket
        # 1 - (2 nu/(2 nu - 1)) (2 nu/(1 - gamma))/x is about -2 nu at x = 1
        ev = bound_value(bid, nu=nu, x=1.0)
        assert ev.sign == -1 and math.isfinite(ev.log_abs)
        expected = besseli(nu, 1.0).log_abs + math.log(2.0 * nu)
        assert ev.log_abs == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("bid,nu,x,expected", [
        (BoundId.TWOSIDED_U, 0.0, 5.0, 0.2038),
        (BoundId.TWOSIDED_L, 0.0, 5.0, 0.0528),
    ])
    def test_twosided_relative_errors(self, bid, nu, x, expected):
        ev = bound_value(bid, nu=nu, n=0.0, gamma=0.0, x=x)
        f = oracle(bid, nu=nu, n=0.0, gamma=0.0, x=x)
        rel = abs((ev.value - f).to_float()) / f.to_float()
        assert rel == pytest.approx(expected, abs=5e-5)

    @pytest.mark.parametrize("bid, kw, reason", VIOLATIONS,
                             ids=[f"{bid.value}-{i}" for i, (bid, _, _) in enumerate(VIOLATIONS)])
    def test_validity_violations_name_the_hypothesis(self, bid, kw, reason):
        kw = {"gamma": 0.0, "x": 1.0, **kw}
        with pytest.raises(InvalidDomain) as exc:
            bound_value(bid, **kw)
        assert str(exc.value) == f"{bid.value}: violated hypothesis: {reason}"
        point = Point(nu=kw["nu"], n=kw.get("n", 0.0), mu=kw.get("mu"),
                      gamma=kw["gamma"], x=kw["x"])
        assert invalid_reason(CATALOG[bid], point) == reason

    def test_every_bound_has_a_pinned_violation(self):
        assert {bid for bid, _, _ in VIOLATIONS} == set(BoundId)

    @pytest.mark.parametrize("alias, base", [
        (BoundId.TWOSIDED_L, BoundId.LOWER4),
        (BoundId.TWOSIDED_U, BoundId.NEW1),
    ])
    def test_twosided_are_gamma_zero_aliases(self, alias, base):
        g = default_grid()
        for nu in g.nu_values:
            for n in g.n_values:  # every grid n is > -1, where TWOSIDED_U is NEW1
                for x in (1e-3, 1.0, 200.0):
                    point = Point(nu=nu, n=n, gamma=0.0, x=x)
                    if invalid_reason(CATALOG[base], point) is not None:
                        assert invalid_reason(CATALOG[alias], point) is not None
                        continue
                    a = bound_value(alias, nu=nu, n=n, gamma=0.0, x=x)
                    b = bound_value(base, nu=nu, n=n, gamma=0.0, x=x)
                    case = (nu, n, x)
                    assert a.value == b.value and a.tail_share == b.tail_share, case
                    assert a.direction is b.direction, case
                    assert a.truncation_terms == b.truncation_terms, case
                    assert CATALOG[alias].integrand(point) == CATALOG[base].integrand(point)
        with pytest.raises(InvalidDomain, match="gamma = 0"):
            bound_value(alias, nu=1.0, n=0.0, gamma=0.5, x=1.0)

    def test_boundary_points(self):
        # closed boundaries are accepted
        bound_value(BoundId.GAU1, nu=0.5, gamma=0.5, x=1.0)
        bound_value(BoundId.PROP1, nu=0.5, mu=0.5, gamma=0.0, x=1.0)
        bound_value(BoundId.MAIN, nu=0.0, gamma=0.0, x=1.0)
        # open ones are not
        with pytest.raises(InvalidDomain):
            bound_value(BoundId.MAIN, nu=-0.5, gamma=0.0, x=1.0)

    def test_exploratory_evaluation_skips_domain(self):
        sign, _, _, _ = row_step(BoundId.PROP1, Point(nu=0.0, mu=0.0, gamma=0.0, x=10.0))(10.0)
        assert sign == 1

    @pytest.mark.parametrize("x", [0.0, -1.0])
    @pytest.mark.parametrize("bid", list(BoundId), ids=[b.value for b in BoundId])
    def test_unchecked_step_rejects_x_not_positive(self, bid, x):
        # the hypotheses are skipped, the domain of the integral is not
        with pytest.raises(InvalidDomain, match=f"^{bid.value}: the integral needs x > 0"):
            row_step(bid, Point(nu=1.0, mu=1.0, x=x))(x)

    @pytest.mark.parametrize("bid", list(BoundId), ids=[b.value for b in BoundId])
    def test_exploratory_evaluation_fails_only_with_package_errors(self, bid):
        # hypothesis boundaries where closed forms divide by zero: 2 nu + 1 = 0,
        # 2 nu + n + 1 = 0, gamma = 1; nu = -1 and n = -1, -3 give integer orders
        for nu, n, mu, gamma, x in itertools.product(
                (-1.0, -0.5, 0.0, 0.5, 1.0), (-3.0, -1.0, 0.0), (None, 0.5),
                (0.0, 0.5, 1.0), (1e-3, 1.0, 50.0)):
            try:
                value = row_step(bid, Point(nu, n, mu, gamma, x))(x)
            except BesselIntError:
                continue
            assert len(value) == 4, (nu, n, mu, gamma, x)


def _general_step(gamma, power, terms, x):
    """The combination step for any number of terms, written out: ``math.fsum``
    of the terms relative to the largest ``I``, with the prefactor as a log."""
    pre = -gamma * x + power * math.log(x)
    scaled = [(c * i.sign, i.log_abs) for c, order in terms
              if c and (i := besseli(order, x)).sign]
    top = max([log for _, log in scaled], default=0.0)
    total = math.fsum([c * math.exp(log - top) for c, log in scaled])
    sign = (total > 0) - (total < 0)
    return sign, pre + top + math.log(abs(total)) if sign else -math.inf


class TestOneTermStep:
    # the row's one combination step, for one to three terms, must give the bits
    # and the errors of the general formula written out above
    @pytest.mark.parametrize("terms", [
        ((-2.5, 1.0),), ((1e-300, 1.0),), ((1e300, 1.0),), ((-1e300, 0.5),),
        ((3.0, -1.5),),  # I_{-3/2} < 0 at small x
        ((0.75, 2.0), (0.0, 4.0)),  # NEW1 and LOWER4 at n = -1: a zero term drops
        ((1.0, 1.0), (-1.0, 1.0)),  # cancelling coefficients: the sum is zero
        ((1.0, 2.0), (-1.0, 2.0), (0.5, 3.0)),
        ((2.5, 1.5), (-1.0, 3.5)),  # BAAAD's shape
        ((1.0, 1.0), (-0.2, 3.0), (0.02, 5.0)),  # LOWER4's shape
        ((3.0, -1.5), (1.0, 0.5)),
        ((3.0, -1.5), (-1.0, 0.5), (2.0, 2.5)),
        ((0.75, 2.0), (0.0, 4.0), (-0.5, 3.0)),  # a zero coefficient: two live terms
        ((0.0, 2.0), (1e300, 1.0), (-1e-300, 6.0)),
        ((0.0, -2.0),),  # a zero coefficient forms no I: I_{-2} raises InvalidOrder
    ])
    @pytest.mark.parametrize("gamma,power", [(0.0, 0.5), (0.9, -0.25)])
    def test_matches_the_general_formula(self, terms, gamma, power):
        step = bounds._combination(gamma, power, *terms)
        for x in (1e-3, 0.37, 1.0, 20.0, 700.0):
            assert step(x)[:2] == _general_step(gamma, power, terms, x), x

    @pytest.mark.parametrize("c", [-2.5, 1e-300, 1e300])
    def test_prefactor_underflow(self, c):
        # 1e307 log(1e-300) is -inf: the log of the prefactor underflows
        step = bounds._combination(0.0, 1e307, (c, 1.0))
        assert step(1e-300)[:2] == _general_step(0.0, 1e307, ((c, 1.0),), 1e-300)
        assert step(1e-300)[1] == -math.inf

    @pytest.mark.parametrize("terms", [((math.inf, 1.0),), ((math.nan, 1.0), (0.0, 3.0)),
                                       ((1.0, 1.0), (math.inf, 2.0)),
                                       ((1.0, 1.0), (-1.0, 3.0), (math.nan, 2.0))])
    def test_non_finite_coefficient_raises_at_every_x(self, terms):
        step = bounds._combination(0.5, 1.0, *terms)
        c = next(c for c, _ in terms if not math.isfinite(c))
        message = f"cannot represent {c!r} as a ScaledValue"
        for x in (1e-3, 1.0, 100.0):
            with pytest.raises(InvalidDomain, match=f"^{message}$"):
                step(x)

    def test_non_finite_coefficient_in_a_row(self):
        # MAIN's coefficient at nu = 1e308 is inf/inf
        step = row_step(BoundId.MAIN, Point(nu=1e308))
        for x in (0.25, 0.5, 1.0):
            with pytest.raises(InvalidDomain, match="^cannot represent nan as a ScaledValue$"):
                step(x)

    @pytest.mark.parametrize("terms", [((2.0, 1.0), (-1.0, 3.0)),
                                       ((2.0, 1.0), (-1.0, 3.0), (0.5, 7.0))])
    def test_multi_term_prefactor_underflow(self, terms):
        step = bounds._combination(0.0, 1e307, *terms)
        assert step(1e-300)[:2] == _general_step(0.0, 1e307, terms, 1e-300)
        assert step(1e-300)[1] == -math.inf

    @pytest.mark.parametrize("terms", [((2.0, 1.0), (-1.0, 3.0)),
                                       ((2.0, 1.0), (-1.0, 3.0), (0.5, 7.0)),
                                       ((None, 1.0), (0.5, 3.0))])
    def test_a_zero_i_drops_its_term(self, terms, monkeypatch):
        # no I of a package order is exactly zero at x > 0: make one so
        real = kernel.besseli

        def besseli_with_a_zero(order, x):
            return ScaledValue.zero() if order == 3.0 else real(order, x)
        monkeypatch.setattr(kernel, "besseli", besseli_with_a_zero)
        monkeypatch.setitem(globals(), "besseli", besseli_with_a_zero)
        step = bounds._combination(0.5, 1.0, *terms)
        at_x = [(-1.5 if c is None else c, order) for c, order in terms]  # a per-x c of -1.5
        for x in (1e-3, 1.0, 20.0):
            value = step(x, -1.5) if terms[0][0] is None else step(x)
            assert value[:2] == _general_step(0.5, 1.0, at_x, x), x

    @pytest.mark.parametrize("terms", [((None, -2.0),), ((None, -2.0), (1.0, 1.0))])
    def test_a_zero_per_x_coefficient_forms_no_i(self, terms):
        # I_{-2} raises InvalidOrder: a per-x c of 0 must drop its term unformed
        step = bounds._combination(0.5, 1.0, *terms)
        at_x = [(0.0 if c is None else c, order) for c, order in terms]
        for x in (1e-3, 1.0, 20.0):
            assert step(x, 0.0)[:2] == _general_step(0.5, 1.0, at_x, x), x

    def test_prefactor_error_comes_before_the_coefficient_error(self):
        # 1e308 log(10) is inf
        with pytest.raises(InvalidDomain, match="^non-finite log magnitude inf$"):
            bounds._combination(0.0, 1e308, (math.nan, 1.0))(10.0)

    def test_an_earlier_i_error_comes_before_the_coefficient_error(self):
        # the terms are taken in order: I_{-2} raises before inf is read, unless
        # its coefficient is 0 and it is never formed
        step = bounds._combination(0.5, 1.0, (None, -2.0), (math.inf, 1.0))
        with pytest.raises(InvalidOrder, match="^negative integer order -2.0"):
            step(1.0, 1.0)
        with pytest.raises(InvalidDomain, match="^cannot represent inf as a ScaledValue$"):
            step(1.0, 0.0)
        # LOWER4 off its hypotheses: I_{nu+n+1} = I_{-5e199}, and an inf second coefficient
        with pytest.raises(InvalidOrder, match="^negative integer order -5e\\+199"):
            row_step(BoundId.LOWER4, Point(nu=5e199, n=-1e200))(2.0)

    @pytest.mark.parametrize("terms,c,message", [
        (((None, 1.0),), -math.inf, "-inf"),
        (((None, 1.0), (0.5, 2.0)), math.nan, "nan"),
        (((None, 1.0), (math.inf, 2.0)), 1.0, "inf"),
    ])
    def test_non_finite_per_x_coefficient_raises_at_every_x(self, terms, c, message):
        step = bounds._combination(0.5, 1.0, *terms)
        for x in (1e-3, 1.0, 100.0):
            with pytest.raises(InvalidDomain, match=f"^cannot represent {message} as a ScaledValue$"):
                step(x, c)

    # bounds whose first coefficient is formed per x pass it into the row's step
    @pytest.mark.parametrize("bid", [BoundId.LOWER1, BoundId.LOWER3, BoundId.LOWER2,
                                     BoundId.INTINEQ0, BoundId.NEED2])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.99])
    def test_per_x_coefficients_match_the_general_formula(self, bid, gamma):
        for nu in (0.75, 1.0, 2.5, 10.0, 1e153):
            step = row_step(bid, Point(nu=nu, gamma=gamma))
            for x in (1e-3, 0.37, 1.0, 20.0, 700.0):
                if bid in (BoundId.LOWER1, BoundId.LOWER3):
                    total = geometric_tail_series(nu, gamma, x)[0]
                    power = nu + 1.0 if bid is BoundId.LOWER1 else nu
                    terms = ((total, nu + 1.0),)
                elif bid is BoundId.NEED2:
                    d = 2.0 * nu + 1.0
                    power = nu + 1.0
                    terms = (((2.0 * (nu + 1.0) / x + gamma) / d, nu + 1.0),
                             (gamma * gamma / d, nu + 2.0))
                else:
                    num = 2.0 * nu * (2.0 * nu + c_nu(nu - 1.0))
                    den = (2.0 * nu - 1.0) * (1.0 - gamma)
                    power, terms = nu, (((1.0 - num / (den * x)) / (1.0 - gamma), nu),)
                expected = _general_step(gamma, power, terms, x)
                if expected[1] == -math.inf:
                    expected = (0, 0.0)  # row_step's zero
                assert step(x)[:2] == expected, (nu, x)


class TestOrderings:
    NUS = [-0.49, -0.25, 0.0, 0.5, 1.0, 2.5, 10.0]
    XS = [0.01, 0.5, 3.0, 20.0, 150.0]
    GAMMAS = [0.0, 0.5, 0.99]

    def test_main_below_simple(self):
        for nu in self.NUS:
            for g in self.GAMMAS:
                for x in self.XS:
                    a = bound_value(BoundId.MAIN, nu=nu, gamma=g, x=x).value
                    b = bound_value(BoundId.SIMPLE, nu=nu, gamma=g, x=x).value
                    assert a <= b

    def test_main_equals_gau1_for_nonnegative_nu(self):
        for nu in (0.0, 0.5, 1.0, 2.5, 10.0):
            for g in self.GAMMAS:
                a = bound_value(BoundId.MAIN, nu=nu, gamma=g, x=5.0).value
                b = ScaledValue(*row_step(BoundId.GAU1, Point(nu=nu, gamma=g, x=5.0))(5.0)[:2])
                assert rel_gap(a, b) < 1e-15

    def test_baaad_below_gau1(self):
        for nu in (0.5, 1.0, 2.5, 10.0):
            for g in self.GAMMAS:
                for x in self.XS:
                    a = bound_value(BoundId.BAAAD, nu=nu, gamma=g, x=x).value
                    b = bound_value(BoundId.GAU1, nu=nu, gamma=g, x=x).value
                    assert a <= b

    def test_two_sided_enclosure(self):
        for nu in (0.0, 1.0, 2.5):
            for x in (0.5, 5.0, 50.0):
                lo = bound_value(BoundId.TWOSIDED_L, nu=nu, n=0.0, gamma=0.0, x=x).value
                hi = bound_value(BoundId.TWOSIDED_U, nu=nu, n=0.0, gamma=0.0, x=x).value
                f = oracle(BoundId.TWOSIDED_L, nu=nu, n=0.0, gamma=0.0, x=x)
                assert lo < f < hi

    def test_intineq0_and_lower2_hold_against_their_oracles(self):
        for nu in (1.0, 2.5):
            for g in (0.0, 0.5):
                for x in (0.5, 5.0, 60.0):
                    for bid in (BoundId.INTINEQ0, BoundId.LOWER2):
                        b = bound_value(bid, nu=nu, gamma=g, x=x).value
                        f = oracle(bid, nu=nu, gamma=g, x=x)
                        assert b < f


class TestSeriesBounds:
    def test_gamma_zero_is_single_term(self):
        assert geometric_tail_series(0.5, 0.0, 5.0) == (1.0, 1, 0.0)

    def test_partial_sums_nondecreasing_and_always_lower(self):
        nu, gamma, x = 0.5, 0.7, 5.0
        f = oracle(BoundId.LOWER3, nu=nu, gamma=gamma, x=x)
        total, terms, _ = geometric_tail_series(nu, gamma, x)
        # LOWER3's e^-gx x^nu I_{nu+1}, the unit of the series
        unit = ScaledValue.from_log(-gamma * x + nu * math.log(x)) * besseli(nu + 1.0, x)
        value = unit * ScaledValue.from_float(total)
        # the catalog bound is that product at the certified stop
        assert value == bound_value(BoundId.LOWER3, nu=nu, gamma=gamma, x=x).value
        assert value < f
        # every shorter partial sum, from the same ratios, is a smaller lower bound
        partial, term, prev = 1.0, 1.0, None
        for r in besseli_ratios(nu + 1.0, terms, x)[:-1]:
            assert unit * ScaledValue.from_float(partial) < f
            if prev is not None:
                assert prev < partial
            prev, term = partial, term * gamma * r
            partial += term
        assert partial == pytest.approx(total, rel=1e-14)

    def test_tail_certificate_brackets_true_tail(self):
        # (nu, gamma, x): both ends of the grid's x range at gamma = 0.99, the
        # LOWER1 edge nu -> -1, and large and small orders against x
        cases = [
            (0.0, 0.99, 1e-3), (0.0, 0.99, 200.0),
            (-0.49, 0.99, 200.0), (-0.99, 0.99, 1e-3),
            (0.5, 0.7, 5.0), (2.5, 0.7, 5.0),
            (10.0, 0.1, 1e-3), (-0.49, 0.5, 1.0),
            (10.0, 0.99, 200.0), (-0.9, 0.3, 50.0),
        ]
        for nu, gamma, x in cases:
            total, terms, tail = geometric_tail_series(nu, gamma, x)
            # the true tail sum_{k >= K} gamma^k I_{nu+k+1}(x), summed with
            # mpmath in units of I_{nu+1}(x) like the series
            true_tail, k = mp.mpf(0), terms
            while True:
                t = mp.mpf(gamma) ** k * mp.besseli(nu + k + 1, x)
                true_tail += t
                if t < mp.mpf("1e-30") * true_tail:
                    break
                k += 1
            true_tail /= mp.besseli(nu + 1, x)
            case = (nu, gamma, x, terms)
            assert true_tail <= tail <= gamma ** terms / (1 - gamma), case
            assert tail <= 1e-12 * total, case
        # the old bound needed about 3 200 terms here
        assert geometric_tail_series(0.0, 0.99, 1e-3)[1] <= 10

    @pytest.mark.parametrize("nu, x", [(0.0, 200.0), (2.5, 5.0), (-0.49, 50.0)])
    def test_shared_ratio_lists_do_not_depend_on_the_call_order(self, nu, x):
        # the ratio lists of the last nu serve every gamma: 0.99 needs a longer
        # list than 0.1, and whichever comes first, each gives its lone call's result
        def after_a_nu_change(gammas):
            geometric_tail_series(nu + 1.0, 0.5, x)  # the lists of nu start empty
            return {gamma: geometric_tail_series(nu, gamma, x) for gamma in gammas}

        alone = {**after_a_nu_change([0.99]), **after_a_nu_change([0.1])}
        assert alone[0.99][1] > 2 * alone[0.1][1]
        assert after_a_nu_change([0.99, 0.1]) == alone
        assert after_a_nu_change([0.1, 0.99]) == alone

    def test_an_int_nu_shares_the_lists_of_the_equal_float(self, monkeypatch):
        expected = geometric_tail_series(1.0, 0.5, 2.0)
        monkeypatch.setattr(kernel, "besseli_ratios", None)  # a rebuilt list would call it
        assert geometric_tail_series(1, 0.5, 2.0) == expected

    def test_threads_share_only_whole_ratio_lists(self):
        # the lists are process state: threads that switch nu under each other may
        # rebuild a list, but never read one that another thread grew in place
        cases = [(nu, gamma, x) for nu in (0.0, 0.5, 2.5, 10.0) for x in (5.0, 200.0)
                 for gamma in (0.1, 0.5, 0.99)]
        assert threads_disagree(geometric_tail_series, cases, passes=20) == []

    def test_ratio_decreases_in_order(self):
        # the certificate rests on I_{m+1}(x)/I_m(x) decreasing in m; check it
        # with mpmath over the grid's x values and every order the series reaches
        g = default_grid()
        for nu in g.nu_values:
            for x in g.x_values:
                reach = max(geometric_tail_series(nu, gamma, x)[1] for gamma in g.gamma_values)
                i_m = [mp.besseli(nu + 1 + j, x) for j in range(reach + 2)]
                ratios = [b / a for a, b in zip(i_m, i_m[1:])]  # r_{nu+1} .. r_{nu+K+1}
                assert all(b < a for a, b in zip(ratios, ratios[1:])), (nu, x)

    def test_tail_below_series_tol(self):
        # the series stops at the first K whose certified tail is at most
        # 1e-12 of the sum: at K - 1 terms, recomputed with mpmath, it is not
        for nu, gamma, x in ((1.0, 0.3, 8.0), (1.0, 0.9, 8.0), (0.0, 0.99, 200.0)):
            total, terms, tail = geometric_tail_series(nu, gamma, x)
            assert tail <= 1e-12 * total
            assert terms >= 2
            # t_k = gamma^k I_{nu+k+1}/I_{nu+1}; the certificate after t_{K-2}
            # is t_{K-2} q/(1-q) with q = gamma I_{nu+K}/I_{nu+K-1}
            i_m = [mp.besseli(nu + 1 + j, x) for j in range(terms)]
            t = [mp.mpf(gamma) ** k * i_m[k] / i_m[0] for k in range(terms - 1)]
            q = gamma * i_m[terms - 1] / i_m[terms - 2]
            assert t[-1] * q / (1 - q) > 1e-12 * mp.fsum(t), (nu, gamma, x, terms)

    def test_lower1_prefactor_power(self):
        # LOWER1 carries x^(nu+1), LOWER3 carries x^nu
        e1 = bound_value(BoundId.LOWER1, nu=0.5, gamma=0.3, x=2.0).value
        e3 = bound_value(BoundId.LOWER3, nu=0.5, gamma=0.3, x=2.0).value
        assert (e1 / e3).to_float() == pytest.approx(2.0, rel=1e-12)


def _mp_besseli_run(order, count, x):
    """``I_{order+k}(x)`` for ``k < count``: two mpmath seeds at the top orders,
    then the downward recurrence ``I_{m-1} = I_{m+1} + (2m/x) I_m``, which is
    stable for I."""
    run = [mp.besseli(order + count, x), mp.besseli(order + count - 1, x)]
    for m in range(count - 1, 0, -1):
        run.append(run[-2] + 2 * (order + m) / x * run[-1])
    return run[:0:-1]


def _closed_form(bid: BoundId, p: Point, series_terms: int):
    """``(e^-gx x^power, [c_i I_i])`` of ``bid`` at ``p``, from the formulas of
    the catalog table, in the current mpmath precision."""
    nu, n, g, x = (mp.mpf(v) for v in (p.nu, p.n, p.gamma, p.x))
    c_v = max(0, -4 * nu * (nu + 1))
    d = (2 * nu + 1) * (1 - g)
    s, s3 = 2 * nu + n + 1, 2 * nu + n + 3
    I = lambda order: mp.besseli(order, x)  # noqa: E731
    B = BoundId
    if bid in (B.NEW1, B.TWOSIDED_U):
        power, terms = nu, [2 * (nu + n + 1) / (s * (1 - g)) * I(nu + n + 1),
                            -(n + 1) / (s * (1 - g)) * I(nu + n + 3)]
    elif bid in (B.LOWER4, B.TWOSIDED_L):
        power, terms = nu, [2 * (nu + n + 1) / s * I(nu + n + 1),
                            -2 * (n + 1) * (nu + n + 3) / (s3 * s) * I(nu + n + 3),
                            (n + 1) * (n + 3) / (s3 * s) * I(nu + n + 5)]
    elif bid in (B.MAIN, B.SIMPLE, B.GAU1):
        num = {B.MAIN: 2 * (nu + 1) + c_v, B.SIMPLE: 2 * nu + 3, B.GAU1: 2 * (nu + 1)}[bid]
        power, terms = nu, [num / d * I(nu + 1)]
    elif bid is B.BAAAD:
        power, terms = nu, [2 * (nu + 1) / d * I(nu + 1), -I(nu + 3) / d]
    elif bid in (B.LOWER1, B.LOWER3):
        run = _mp_besseli_run(nu + 1, series_terms, x)
        power = nu + 1 if bid is B.LOWER1 else nu
        terms = [g ** k * i for k, i in enumerate(run)]
    elif bid in (B.INTINEQ0, B.LOWER2):
        a = 2 * nu * (2 * nu + max(0, -4 * (nu - 1) * nu)) / ((2 * nu - 1) * (1 - g) * x)
        power, terms = nu, [I(nu) / (1 - g), -a * I(nu) / (1 - g)]
    elif bid is B.PROP1:
        power, terms = mp.mpf(p.mu), [I(nu) / (1 - g)]
    elif bid is B.NEED2:
        power, terms = nu + 1, [(2 * (nu + 1) / x + g) / (2 * nu + 1) * I(nu + 1),
                                g * g / (2 * nu + 1) * I(nu + 2)]
    else:
        power, terms = nu, [I(nu + n + 3)]
    return mp.exp(-g * x) * x ** power, terms


def _declared_form(bid: BoundId, p: Point, series_terms: int):
    """``(power, power magnitude, [(c_i, magnitude, o_i)])`` of ``bid`` at ``p`` from
    the catalog table: the power and the coefficients (a per-x one at ``p.x``) in
    the current mpmath precision, each with the sum of the magnitudes it is formed
    from, and the orders as floats, added as the table writes them."""
    nu, n, g, x = (mp.mpf(v) for v in (p.nu, p.n, p.gamma, p.x))
    c_v = max(0, -4 * nu * (nu + 1))
    d = (2 * nu + 1) * (1 - g)
    s, s3 = 2 * nu + n + 1, 2 * nu + n + 3
    power, B = nu, BoundId
    if bid in (B.NEW1, B.TWOSIDED_U):
        terms = [(2 * (nu + n + 1) / (s * (1 - g)), p.nu + p.n + 1.0),
                 (-(n + 1) / (s * (1 - g)), p.nu + p.n + 3.0)]
    elif bid in (B.LOWER4, B.TWOSIDED_L):
        terms = [(2 * (nu + n + 1) / s, p.nu + p.n + 1.0),
                 (-2 * (n + 1) * (nu + n + 3) / (s3 * s), p.nu + p.n + 3.0),
                 ((n + 1) * (n + 3) / (s3 * s), p.nu + p.n + 5.0)]
    elif bid in (B.MAIN, B.SIMPLE, B.GAU1):
        num = {B.MAIN: 2 * (nu + 1) + c_v, B.SIMPLE: 2 * nu + 3, B.GAU1: 2 * (nu + 1)}[bid]
        terms = [(num / d, p.nu + 1.0)]
    elif bid is B.BAAAD:
        terms = [(2 * (nu + 1) / d, p.nu + 1.0), (-1 / d, p.nu + 3.0)]
    elif bid in (B.LOWER1, B.LOWER3):
        run = _mp_besseli_run(nu + 1, series_terms, x)
        power = nu + 1 if bid is B.LOWER1 else nu
        terms = [(mp.fsum(g ** k * i for k, i in enumerate(run)) / run[0], p.nu + 1.0)]
    elif bid in (B.INTINEQ0, B.LOWER2):
        # the bracket cancels: it is exactly 0 at nu = 1, gamma = 0, x = 4
        a = 2 * nu * (2 * nu + max(0, -4 * (nu - 1) * nu)) / ((2 * nu - 1) * (1 - g) * x)
        return power, abs(power), [((1 - a) / (1 - g), (1 + abs(a)) / (1 - g), p.nu)]
    elif bid is B.PROP1:
        power, terms = mp.mpf(p.mu), [(1 / (1 - g), p.nu)]
    elif bid is B.NEED2:
        power, terms = nu + 1, [((2 * (nu + 1) / x + g) / (2 * nu + 1), p.nu + 1.0),
                                (g * g / (2 * nu + 1), p.nu + 2.0)]
    else:
        terms = [(mp.mpf(1), p.nu + p.n + 3.0)]
    magnitude = abs(nu) + 1 if bid in (B.LOWER1, B.NEED2) else abs(power)
    return power, magnitude, [(c, abs(c), order) for c, order in terms]


@pytest.mark.parametrize("bid", list(BoundId), ids=[b.value for b in BoundId])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(nu=st.floats(-1.0, 10.0), n=st.floats(-3.0, 3.0), mu_over_nu=st.floats(0.0, 10.0),
       gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
       x=st.floats(math.log(1e-3), math.log(200.0)).map(math.exp))
# the default grid's worst-conditioned combination: LOWER4 there has cond 314
@example(nu=-0.49, n=0.0, mu_over_nu=0.0, gamma=0.0, x=logspace(1e-3, 200.0, 24)[-1])
def test_bound_value_against_mpmath_closed_form(bid, nu, n, mu_over_nu, gamma, x):
    """Every bound matches its closed form at 40 digits to 1e-13 times the
    condition number ``sum |c_i I_i| / |sum c_i I_i|`` of its combination, and its
    declared power, orders and coefficients are the table's: the orders exactly,
    the rest to 1e-14 of the magnitudes they are formed from."""
    entry = CATALOG[bid]
    p = Point(nu=nu, n=n if entry.uses_n else 0.0,
              mu=nu + mu_over_nu if entry.uses_mu else None, gamma=gamma, x=x)
    assume(invalid_reason(entry, p) is None)
    ev = bound_value(bid, nu=p.nu, n=p.n, mu=p.mu, gamma=p.gamma, x=p.x)
    with mp.workdps(40):
        pre, terms = _closed_form(bid, p, ev.truncation_terms)
        exact = pre * mp.fsum(terms)
        cond = mp.fsum(abs(t) for t in terms) / abs(mp.fsum(terms))
        err = abs(ev.value.sign * mp.exp(ev.value.log_abs) - exact) / abs(exact)
        power, power_magnitude, table = _declared_form(bid, p, ev.truncation_terms)
        declared = entry.terms(p)
        assert [order for _, order in declared] == [order for _, _, order in table]
        assert abs(entry.power(p) - power) <= 1e-14 * power_magnitude, (entry.power(p), power)
        for (c, _), (expected, magnitude, _) in zip(declared, table):
            c = c.at(p.x)[0] if isinstance(c, bounds._PerX) else c
            assert abs(c - expected) <= 1e-14 * magnitude, (c, expected)
    assert err <= 1e-13 * max(1.0, float(cond)), (err, cond)


@pytest.mark.parametrize("bid", [BoundId.NEW1, BoundId.LOWER4])
@pytest.mark.parametrize("nu, n, x", [(1e-12, -0.99999, 1.0),
                                      (4e-17, -0.9999999999999999, 3.0)])
def test_nu_plus_n_plus_one_is_rounded_once(bid, nu, n, x):
    # nu + n + 1 cancels here: rounding nu + n first put a relative error of
    # 2.5e-12 into the NEW1 bound at the first point and 0.32 at the second
    ev = bound_value(bid, nu=nu, n=n, x=x)
    with mp.workdps(40):
        pre, terms = _closed_form(bid, Point(nu=nu, n=n, x=x), 0)
        assert abs(mp.exp(ev.value.log_abs) / (pre * mp.fsum(terms)) - 1) < 1e-14


@pytest.mark.parametrize("bid, nu, gamma, x", [
    (BoundId.NEED2, 1.0, 0.0, 1e-308),
    (BoundId.NEED2, 1.0, 0.5, 1e-308),
    (BoundId.NEED2, 0.999999, 0.5, 5e-324),
    (BoundId.LOWER2, 1.0, 0.0, 1e-308),
    (BoundId.INTINEQ0, 1.0, 0.5, 1e-308),
    (BoundId.INTINEQ0, 1.0, 0.5, 5e-324),
])
def test_tiny_x_coefficient_overflow(bid, nu, gamma, x):
    # 2(nu+1)/x and num/(den x) overflow here, and at 5e-324 den x underflows to 0:
    # the bound is the closed form to two rounding units of its log, which is
    # -2235 to -707 here
    ev = bound_value(bid, nu=nu, gamma=gamma, x=x)
    with mp.workdps(40):
        pre, terms = _closed_form(bid, Point(nu=nu, gamma=gamma, x=x), 0)
        exact = pre * mp.fsum(terms)
        assert ev.sign == mp.sign(exact)
        assert abs(mp.exp(ev.log_abs) / abs(exact) - 1) < 2 * 2.0 ** -53 * abs(ev.log_abs)


# the smallest float x whose per-x coefficient is finite, and the float below it,
# where one 1/x goes into the power: the logs are frozen bit for bit on both sides
@pytest.mark.parametrize("bid, nu, gamma, x, log_abs, log_below", [
    (BoundId.NEED2, 1.0, 0.5, 2.225073858507202e-308, -2126.9810150660196, -2126.98101506602),
    (BoundId.LOWER2, 1.0, 0.0, 2.225073858507202e-308, -707.7032713517041, -707.7032713517041),
    (BoundId.INTINEQ0, 1.0, 0.5, 8.900295434028808e-308, -704.9306826294643,
     -704.9306826294643),
])
def test_tiny_x_switch_point(bid, nu, gamma, x, log_abs, log_below):
    below = math.nextafter(x, 0.0)
    (c, _), *_ = CATALOG[bid].terms(Point(nu=nu, gamma=gamma))
    assert math.isfinite(c.at(x)[0]) and not math.isfinite(c.at(below)[0])
    assert bound_value(bid, nu=nu, gamma=gamma, x=x).log_abs == log_abs
    assert bound_value(bid, nu=nu, gamma=gamma, x=below).log_abs == log_below


class TestSteinFactors:
    def test_spec_examples(self):
        assert m_value(1.0, 0.0, 2, 1.0).to_float() < 4.0 / 3.0
        assert m_value(0.5, -0.5, 1, 10.0).to_float() < 1.5

    def test_constants(self):
        assert m_bound_constant(0.0, 0.0, 2) == pytest.approx(2.0)
        assert m_bound_constant(0.0, 0.0, 1) == pytest.approx(1.0)
        assert m_bound_constant(-0.25, -0.5, 2) == pytest.approx(9.0)
        assert m_bound_constant(0.5, 0.0, 0) == m_bound_constant(0.5, 0.0, 1)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_huge_order(self, n):
        # K_{nu+n} at nu = 1e7 comes from Debye's expansion, not 1e7
        # recurrence steps
        cap = m_bound_constant(1e7, -0.5, n)
        for x in (1.0, 10.0, 1000.0):
            assert 0.0 < m_value(1e7, -0.5, n, x).to_float() < cap

    def test_small_x_quadratic_decay(self):
        # with n = 0 the product behaves like x^2 near the origin
        a = m_value(1.0, -0.3, 0, 1e-2).to_float()
        b = m_value(1.0, -0.3, 0, 1e-3).to_float()
        assert a / b == pytest.approx(100.0, rel=0.05)

    def test_domains(self):
        with pytest.raises(InvalidDomain):
            m_value(-0.5, 0.0, 2, 1.0)
        with pytest.raises(InvalidDomain):
            m_value(0.5, 0.5, 2, 1.0)
        with pytest.raises(InvalidDomain):
            m_value(0.5, 0.0, 3, 1.0)
        with pytest.raises(InvalidDomain):
            m_value(0.5, 0.0, 2, 0.0)
        with pytest.raises(InvalidDomain):
            m_bound_constant(0.5, -1.0, 2)
