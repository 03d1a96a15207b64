import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from besselint.errors import InvalidDomain, InvalidOrder, NonConvergence
from besselint.kernel import (
    _RATIO_TERMS, ACCURACY_LARGE_X, ACCURACY_SMALL_X, _besselk_debye_log, besseli,
    besseli_ratio, besseli_ratios, besselk, power_series_sum,
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
# log I at huge orders, from 40-digit mpmath.besseli(..., maxterms=10**7)
LOG_I_1E5_1E5 = 53277.148847441684
LOG_I_1E5_2E5 = 175478.53748364750


def assert_k_log_close(order, x, log_true, rel=1e-14):
    """besselk's log within ``rel`` of ``log_true`` (a relative error of rel in
    K), or within two ulps of it where a log past about 20 is coarser."""
    mine = besselk(order, x)
    assert mine.sign == 1
    err = abs(mp.mpf(mine.log_abs) - log_true)
    assert err <= max(rel, 2 * math.ulp(float(log_true))), (order, x, float(err))


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

    @pytest.mark.parametrize("order,x,log_expected", [
        (1e5, 1e5, LOG_I_1E5_1E5),
        (1e5, 2e5, LOG_I_1E5_2E5),
    ])
    def test_series_runs_past_its_largest_term(self, order, x, log_expected):
        # the terms peak near k = (hypot(order, x) - order)/2: 20 711 and
        # 61 803 here, past a fixed cap of 20 000 terms
        v = besseli(order, x)
        assert v.sign == 1
        assert abs(v.log_abs - log_expected) <= 1e-9

    @pytest.mark.parametrize("order", [1e10, 1.5e308])
    def test_series_gives_up_past_a_million_terms(self, order):
        # the largest term lies far past 1e6 terms here (hypot overflows at 1.5e308)
        with pytest.raises(NonConvergence, match="I power series stalled"):
            besseli(order, order)

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

    # rejected at the top: a NaN order would sum NaN series terms up to the cap
    @pytest.mark.parametrize("order, x", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.3, math.nan), (0.3, math.inf),
    ])
    def test_rejects_non_finite_input(self, order, x):
        with pytest.raises(InvalidDomain):
            besseli(order, x)

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

    @pytest.mark.parametrize("order, x", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.3, math.nan), (0.3, math.inf),
    ])
    def test_rejects_non_finite_input(self, order, x):
        with pytest.raises(InvalidDomain):
            besselk(order, x)

    def test_accuracy_sweep_against_mpmath(self):
        for nu in (0.0, 0.5, 2.0, 9.5):
            for x in (0.01, 1.0, 20.0, 300.0):
                mine = besselk(nu, x)
                true = mp.besselk(nu, x)
                err = abs(float(
                    (mp.mpf(mine.sign) * mp.e ** mp.mpf(mine.log_abs) - true) / true))
                assert err < 1e-10, (nu, x, err)

    # besselk is even in the order, so the range reaches what besseli's
    # reflection asks of it.  The example sits in Temme's branch with 56
    # recurrence steps, where log K is near 520 and one ulp of it is a
    # relative error of 1.1e-13
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(order=st.floats(-1.0, 60.0, exclude_min=True),
           x=st.floats(math.log(1e-3), math.log(1000.0)).map(math.exp))
    @example(order=56.01, x=0.004342)
    def test_advertised_accuracy_against_mpmath(self, order, x):
        mine = besselk(order, x)
        err = abs(mp.mpf(mine.sign) * mp.exp(mine.log_abs) / mp.besselk(order, x) - 1)
        assert err < (ACCURACY_SMALL_X if x <= 50.0 else ACCURACY_LARGE_X)

    # Temme's series serves x <= 2 and Steed's continued fraction x > 2
    @pytest.mark.parametrize("x", [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)])
    @pytest.mark.parametrize("order", [0.0, 0.3, -0.4999, 0.5, 1.0, 7.25, 40.6])
    def test_method_switch_at_two(self, order, x):
        assert_k_log_close(order, x, mp.log(mp.besselk(order, x)))

    # mu = 0 takes the limits pi mu/sin(pi mu) -> 1 and sinh(e)/e -> 1
    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.9, 3.0, 30.0])
    @pytest.mark.parametrize("order", [0.0, 1e-17, -1e-17])
    def test_order_zero_limits(self, order, x):
        assert_k_log_close(order, x, mp.log(mp.besselk(order, x)))

    @pytest.mark.parametrize("x", [1e-300, 1e-3, 0.7, 2.0, 2.5, 30.0, 1000.0, 1e300])
    @pytest.mark.parametrize("order", [0.5, -0.5, 1.5, -1.5, 2.5, -2.5])
    def test_half_integer_closed_forms(self, order, x):
        # K_{1/2} = sqrt(pi/(2x)) e^-x, K_{3/2} = K_{1/2} (1 + 1/x),
        # K_{5/2} = K_{1/2} (1 + 3/x + 3/x^2)
        t = 1 / mp.mpf(x)
        poly = {0.5: 1, 1.5: 1 + t, 2.5: 1 + 3 * t + 3 * t * t}[abs(order)]
        assert_k_log_close(order, x, 0.5 * mp.log(mp.pi * t / 2) - 1 / t + mp.log(poly))

    @pytest.mark.parametrize("order", range(13))
    def test_integer_orders(self, order):
        for x in (1e-3, 0.5, 2.0, 5.0, 50.0, 700.0):
            assert_k_log_close(float(order), x, mp.log(mp.besselk(order, x)))

    @pytest.mark.parametrize("order", [0.0, 0.3, 2.5, 12.0, 40.6])
    def test_tiny_argument(self, order):
        assert_k_log_close(order, 1e-300, mp.log(mp.besselk(order, mp.mpf(1e-300))))

    @pytest.mark.parametrize("order", [0.0, 0.3, 2.5, 12.0])
    def test_huge_argument(self, order):
        # CF2 carries e^-x as a log term: log K ~ -x - log(2x/pi)/2
        x = 1e300
        assert besselk(order, x).log_abs == pytest.approx(-x - 0.5 * math.log(2 * x / math.pi),
                                                         rel=1e-15)
        assert_k_log_close(order, 1e10, mp.log(mp.besselk(order, 1e10)))

    # mpmath returns in milliseconds at order 1e4 and x <= 1000; from
    # x ~ 6600 up it raises NoConvergence or runs past 10 s
    @pytest.mark.parametrize("x", [1e-3, 1.0, 10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("nu", [1e4, 10000.3, 10000.5])
    def test_debye_against_mpmath(self, nu, x):
        true = mp.log(mp.besselk(nu, x))
        assert abs(_besselk_debye_log(nu, x) - true) <= math.ulp(float(true))

    @pytest.mark.parametrize("frac", [-0.5, -0.25, 0.0, 0.25, 0.4999])
    def test_recurrence_across_debye_switch(self, frac):
        # K_{nu+1} = (2 nu/x) K_nu + K_{nu-1}, with K_{nu+1} from Debye's
        # expansion and the other two from the forward recurrence; at
        # x = 0.6627 nu, where eta(x/nu) = 0, log K is small and one ulp
        # of it is far below 1e-12
        nu = _RATIO_TERMS + frac
        x = 0.6627434193 * nu
        logs = [mp.mpf(besselk(nu + d, x).log_abs) for d in (-1, 0, 1)]
        k_lo, k_mid, k_hi = (mp.exp(v) for v in logs)
        assert abs(k_hi - 2 * nu / x * k_mid - k_lo) / k_hi < 1e-12


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

    @pytest.mark.parametrize("nu, x", [
        (0.3, math.inf), (0.3, math.nan), (math.inf, 1.0), (math.nan, 1.0),
    ])
    def test_rejects_non_finite_input(self, nu, x):
        with pytest.raises(InvalidDomain):
            besseli_ratio(nu, x)

    @pytest.mark.parametrize("lo", [1.0, -0.4])
    def test_no_ratios_for_count_zero(self, lo):
        assert besseli_ratios(lo, 0, 1.0) == []

    @pytest.mark.parametrize("lo, count", [(1.0, -3), (-0.4, -1)])
    def test_negative_count_is_named(self, lo, count):
        with pytest.raises(InvalidDomain, match=f"requires count >= 0, got {count}$"):
            besseli_ratios(lo, count, 1.0)


def _signed_series_sum(order, x2_4, factors):
    """``power_series_sum`` for terms of any sign, written out: the reference
    for the loop without ``abs`` that it takes once every term is >= 0."""
    t = s = a = abs_t = 1.0
    shift = 0
    for k, ratio in enumerate(factors):
        c = order + k + 1.0
        q = x2_4 / ((k + 1) * c)
        if q < 1.0 and c > 0.0:
            tail = abs_t * q / (1.0 - q)
            if tail <= 2.0 ** -53 * abs(s):
                return s, a, tail, shift, k + 1
        t *= q * ratio
        s += t
        a += (abs_t := abs(t))
        if abs_t > 2.0 ** 500:
            t, e = math.frexp(t)
            s, a, shift, abs_t = math.ldexp(s, -e), math.ldexp(a, -e), shift + e, abs(t)
    return None


class TestPowerSeriesSum:
    @pytest.mark.parametrize("order", [-0.999, -0.5, 0.0, 0.3, 5.0, 1e3])
    @pytest.mark.parametrize("x", [1e-3, 1.0, 30.0, 700.0, 2000.0])  # 700 and up rescale
    @pytest.mark.parametrize("factors", ["ones", "falling", "zero"])
    def test_nonnegative_terms_match_the_signed_loop(self, order, x, factors):
        n = 3000
        factors = {"ones": [1.0] * n, "falling": [(k + 1.0) / (k + 3.0) for k in range(n)],
                   "zero": [1.0, 1.0, 0.0] + [1.0] * n}[factors]
        mine = power_series_sum(order, 0.25 * x * x, factors)
        assert mine == _signed_series_sum(order, 0.25 * x * x, factors)
        assert mine[1] == mine[0]  # every term is >= 0: the sum of |T_k| is the sum

    def test_factors_that_run_out_give_none(self):
        assert power_series_sum(0.0, 1e4, [1.0] * 10) is None
