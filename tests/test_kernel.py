import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from besselint.errors import InvalidDomain, InvalidOrder, NonConvergence
from besselint.kernel import (
    ACCURACY_LARGE_X, ACCURACY_SMALL_X, asym_large, asym_small, besseli, besseli_ratio,
    besselk,
)

from conftest import log_relerr, sv_relerr

# reference values frozen from closed forms and an mpmath power-series/quad
# oracle at 25 significant digits
I_HALF_2 = 2.046236863089055        # sqrt(2/(pi x)) sinh x at x = 2
I_1_2 = 1.5906368546373291
I_0_1 = 1.2660658777520083
I_MINUS03_1 = 1.3128748576757479
I_MINUS16_25 = 5480577488.5057847
LOG_I_0_1000 = 995.62730888986946
LOG_I_105_700 = 695.72689514400449
K_HALF_2 = 0.11993777196806145      # sqrt(pi/(2x)) e^-x at x = 2
K_0_2 = 0.11389387274953344         # quadrature of the cosh representation
K_03_1 = 0.43507602420880202
RATIO_0_1 = 0.44638996589653451     # I_1(1)/I_0(1)


class TestBesselI:
    @pytest.mark.parametrize("order,x,expected", [
        (0.5, 2.0, I_HALF_2),
        (1.0, 2.0, I_1_2),
        (0.0, 1.0, I_0_1),
        (-0.3, 1.0, I_MINUS03_1),
        (-1.6, 25.0, I_MINUS16_25),
    ])
    def test_reference_values(self, order, x, expected):
        assert sv_relerr(besseli(order, x), expected) < 1e-12

    def test_series_limit_at_zero(self):
        assert besseli(0.0, 0.0).to_float() == 1.0
        assert besseli(2.5, 0.0).sign == 0
        # the least subnormal x, where x/2 rounds to 0: I_{1/2}(x) ~ sqrt(2x/pi)
        x = 5e-324
        assert log_relerr(besseli(0.5, x), 0.5 * (math.log(2.0 / math.pi) + math.log(x))) < 1e-15

    @pytest.mark.parametrize("order,x,log_expected", [
        (0.0, 1000.0, LOG_I_0_1000),
        (10.5, 700.0, LOG_I_105_700),
    ])
    def test_huge_arguments_no_overflow(self, order, x, log_expected):
        assert log_relerr(besseli(order, x), log_expected) < 1e-10

    def test_rejects_negative_integer_orders(self):
        with pytest.raises(InvalidOrder):
            besseli(-1.0, 2.0)
        with pytest.raises(InvalidOrder):
            besseli(-7.0, 0.5)

    def test_order_past_log_gamma_range_is_invalid(self):
        with pytest.raises(InvalidOrder, match="overflows"):
            besseli(1e308, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidDomain):
            besseli(0.5, -1.0)
        with pytest.raises(InvalidDomain):
            besseli(-0.5, 0.0)

    def test_accuracy_sweep_against_mpmath(self):
        worst_small = worst_large = 0.0
        for nu in (-1.5, -0.49, 0.0, 0.5, 2.5, 7.5, 12.0):
            for x in (0.01, 0.7, 5.0, 17.0, 19.0, 50.0, 120.0, 1000.0):
                mine = besseli(nu, x)
                true = mp.besseli(nu, x)
                err = abs(float(
                    (mp.mpf(mine.sign) * mp.e ** mp.mpf(mine.log_abs) - true) / true))
                if x <= 50.0:
                    worst_small = max(worst_small, err)
                worst_large = max(worst_large, err)
        assert worst_small < 1e-12
        assert worst_large < 1e-10

    # orders below -1 stay with the fixed cases above: I_nu has real zeros
    # there (I_{-3/2} near x = 1.2), where no method has a bounded relative
    # error
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(order=st.floats(-1.0, 60.0, exclude_min=True).filter(lambda v: v != math.floor(v)),
           x=st.floats(math.log(1e-3), math.log(1000.0)).map(math.exp))
    def test_advertised_accuracy_against_mpmath(self, order, x):
        mine = besseli(order, x)
        err = abs(mp.mpf(mine.sign) * mp.exp(mine.log_abs) / mp.besseli(order, x) - 1)
        assert err < (ACCURACY_SMALL_X if x <= 50.0 else ACCURACY_LARGE_X)


class TestBesselK:
    @pytest.mark.parametrize("order,x,expected", [
        (0.5, 2.0, K_HALF_2),
        (0.0, 2.0, K_0_2),
        (0.3, 1.0, K_03_1),
    ])
    def test_reference_values(self, order, x, expected):
        assert sv_relerr(besselk(order, x), expected) < 1e-10

    def test_even_in_order(self):
        assert besselk(-0.3, 1.0) == besselk(0.3, 1.0)
        assert besselk(-4.5, 7.0) == besselk(4.5, 7.0)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(InvalidDomain):
            besselk(0.5, 0.0)

    def test_accuracy_sweep_against_mpmath(self):
        for nu in (0.0, 0.5, 2.0, 9.5):
            for x in (0.01, 1.0, 20.0, 300.0):
                mine = besselk(nu, x)
                true = mp.besselk(nu, x)
                err = abs(float(
                    (mp.mpf(mine.sign) * mp.e ** mp.mpf(mine.log_abs) - true) / true))
                assert err < 1e-10, (nu, x, err)

    # besselk is even in the order, so the range reaches what besseli's
    # reflection asks of it.  The example has log(K e^x) near 511, where the
    # converged trapezoid sums of successive steps still differ by one ulp,
    # which is above the stop tolerance
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(order=st.floats(-1.0, 60.0, exclude_min=True),
           x=st.floats(math.log(1e-3), math.log(1000.0)).map(math.exp))
    @example(order=56.01, x=0.004342)
    def test_advertised_accuracy_against_mpmath(self, order, x):
        mine = besselk(order, x)
        err = abs(mp.mpf(mine.sign) * mp.exp(mine.log_abs) / mp.besselk(order, x) - 1)
        assert err < (ACCURACY_SMALL_X if x <= 50.0 else ACCURACY_LARGE_X)


class TestRatio:
    def test_reference_value(self):
        assert besseli_ratio(0.0, 1.0) == pytest.approx(RATIO_0_1, rel=1e-12)

    def test_below_simple_bound(self):
        # I_{nu+1}/I_nu < x/(nu + 1/2 + x), strict only for nu > -1/2
        assert besseli_ratio(0.0, 1.0) < 1.0 / (0.5 + 1.0)
        for nu in (-0.49, 0.0, 1.0, 4.0):
            for x in (0.2, 2.0, 30.0):
                assert besseli_ratio(nu, x) < x / (nu + 0.5 + x)
        assert besseli_ratio(0.0, 400.0) < 400.0 / 400.5

    def test_small_x_limit(self):
        # ratio ~ x/(2 nu + 2) as x -> 0
        nu = 1.0
        for x in (1e-3, 1e-4):
            assert besseli_ratio(nu, x) == pytest.approx(x / (2 * nu + 2), rel=1e-5)

    def test_strictly_increasing_in_x(self):
        # at nu = -1/2 the ratio is tanh(x), which saturates to 1.0 in
        # doubles past x ~ 40; keep the grid below that
        for nu in (-0.5, 0.0, 2.5):
            xs = [0.1 * 1.9 ** k for k in range(10)]
            vals = [besseli_ratio(nu, x) for x in xs]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("nu", [1e290, 1e299, 1e300])
    def test_huge_order(self, nu):
        # ratio = x/(2(nu+1)) (1 - x^2/(4(nu+1)(nu+2)) + ...), where the
        # correction is far below one rounding unit
        assert besseli_ratio(nu, 1.0) == pytest.approx(0.5 / nu, rel=4e-16, abs=0.0)

    def test_iteration_cap_does_not_grow_with_x(self):
        # about 19 000 steps; I_1/I_0 = 1 - 1/(2x) - 1/(8x^2) - ...
        assert besseli_ratio(0.0, 1e7) == pytest.approx(1.0 - 0.5e-7, rel=1e-12, abs=0.0)
        with pytest.raises(NonConvergence):
            besseli_ratio(0.0, 1e300)

    def test_domain(self):
        with pytest.raises(InvalidDomain):
            besseli_ratio(0.0, 0.0)
        with pytest.raises(InvalidDomain):
            besseli_ratio(-0.6, 1.0)


class TestAsymptotics:
    def test_small_argument_form(self):
        assert asym_small(0.0, 0.1) == pytest.approx(1.0025, rel=1e-15)
        # true series value 1.0025015629340956: two-term form is close
        assert abs(asym_small(0.0, 0.1) - 1.0025015629340956) < 2e-6
        assert asym_small(1.0, 0.2) == pytest.approx(0.1005, rel=1e-14)
        assert asym_small(0.0, 0.0) == 1.0
        with pytest.raises(InvalidDomain):  # I_nu(0) diverges, as in besseli
            asym_small(-0.5, 0.0)
        # the least subnormal x, where x/2 rounds to 0: I_{1/2}(x) ~ sqrt(2x/pi)
        assert asym_small(0.5, 5e-324) == pytest.approx(
            math.exp(0.5 * math.log(2.0 / math.pi) + 0.5 * math.log(5e-324)), rel=1e-14)

    def test_large_argument_form(self):
        approx = asym_large(0.0, 50.0)
        exact = besseli(0.0, 50.0)
        assert approx.rel_gap(exact) < 3e-5

    def test_large_argument_two_term_factor(self):
        # the correction factor at nu=1, x=50 is 1 - 3/400
        lead = math.exp(50.0 - 0.5 * math.log(2.0 * math.pi * 50.0))
        assert asym_large(1.0, 50.0).to_float() == pytest.approx(
            lead * (1.0 - 3.0 / 400.0), rel=1e-12)

    def test_ratio_approaches_one_monotonically(self):
        ratios = [(asym_large(0.0, x) / besseli(0.0, x)).to_float()
                  for x in (50.0, 100.0, 200.0, 400.0)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 1e-6
