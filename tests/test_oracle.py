import math
import random
import tracemalloc

import mpmath
import pytest

from besselint import kernel
from besselint.bounds import BoundId, m_value
from besselint.errors import InvalidDomain, NonConvergence
from besselint.oracle import (
    TOL_MAX,
    TOL_MIN,
    IntegralSpec,
    bessel_integral,
    check_tol,
    cumulative_bessel_integral,
)
from besselint.scaled import ScaledValue
from besselint.verifier import Grid, Verdict, sweep

from conftest import sv_relerr, threads_disagree
from reference import (
    IdentityId,
    antiderivative_gamma1,
    identity_residual,
    integral_asymptote,
    rel_gap,
)

# values frozen from an mpmath tanh-sinh quadrature oracle (25 digits),
# independent of the series under test
F_REFERENCE = [
    # (mu, ord, gamma, x, value)
    (0.0, 0.0, 0.5, 2.0, 1.6328572258966945),
    (1.0, 0.3, 0.25, 7.5, 368.46692157928771),
    (-0.2, 0.9, 0.7, 3.0, 0.95033665237015053),
    (0.5, 0.5, 0.0, 25.0, 28725798740.934444),
    (2.0, 1.0, 0.9, 40.0, 37109.230190309363),
    (1.5, -0.7, 0.3, 6.0, 169.65760879195326),
]

TWO_I_1_2 = 3.1812737092746581
ANTIDER_0_1 = 0.67367002294334889


class TestBesselIntegral:
    def test_reduces_to_bessel_identity(self):
        # integral of t I_0(t) over [0, 2] equals 2 I_1(2)
        res = bessel_integral(IntegralSpec(1.0, 0.0, 0.0, 2.0), 1e-12)
        assert res.converged
        assert sv_relerr(res.value, TWO_I_1_2) < 1e-12

    def test_empty_range(self):
        res = bessel_integral(IntegralSpec(0.0, 0.0, 0.5, 0.0), 1e-10)
        assert res.value.sign == 0 and res.converged

    @pytest.mark.parametrize("mu,ordv,gamma,x,expected", F_REFERENCE)
    def test_against_independent_quadrature(self, mu, ordv, gamma, x, expected):
        res = bessel_integral(IntegralSpec(mu, ordv, gamma, x), 1e-12)
        assert res.converged
        assert sv_relerr(res.value, expected) < 1e-11

    def test_gamma_one_matches_closed_form(self):
        res = bessel_integral(IntegralSpec(2.5, 2.5, 1.0, 5.0), 1e-12)
        assert rel_gap(res.value, antiderivative_gamma1(2.5, 5.0)) < 1e-10

    def test_converged_means_error_below_tolerance(self):
        for tol in (1e-8, 1e-11):
            res = bessel_integral(IntegralSpec(0.3, 0.8, 0.4, 12.0), tol)
            assert res.converged
            assert res.rel_err <= tol

    def test_tolerance_range_is_closed(self):
        check_tol(TOL_MIN)
        check_tol(TOL_MAX)
        for tol in (TOL_MIN * 0.99, TOL_MAX * 1.01):
            with pytest.raises(InvalidDomain, match="tolerance must lie in"):
                check_tol(tol)

    def test_monotone_in_x_and_gamma(self):
        vals = [bessel_integral(IntegralSpec(0.5, 0.5, 0.3, x), 1e-10).value
                for x in (1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        by_gamma = [bessel_integral(IntegralSpec(0.5, 0.5, g, 5.0), 1e-10).value
                    for g in (0.0, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(by_gamma, by_gamma[1:]))

    def test_precondition_violations(self):
        with pytest.raises(InvalidDomain):
            bessel_integral(IntegralSpec(-1.0, -0.5, 0.0, 1.0), 1e-10)
        with pytest.raises(InvalidDomain):
            bessel_integral(IntegralSpec(0.0, 0.0, 1.5, 1.0), 1e-10)
        with pytest.raises(InvalidDomain):
            bessel_integral(IntegralSpec(0.0, 0.0, 0.5, 1.0), 1e-20)

    def test_singular_endpoint_integrand(self):
        # mu + ord barely above -1: the leading term carries the weight
        res = bessel_integral(IntegralSpec(-0.55, -0.4, 0.2, 2.0), 1e-11)
        assert res.converged

    def test_term_cap_fails_fast(self):
        # x = 1e7 needs ~5e6 terms; the cap must reject it before any table
        # of that size is built
        tracemalloc.start()
        try:
            for gamma in (0.0, 0.5):
                with pytest.raises(NonConvergence, match="series terms"):
                    bessel_integral(IntegralSpec(0.0, 0.0, gamma, 1e7), 1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_huge_upper_limit_stays_scaled(self):
        res = bessel_integral(IntegralSpec(0.0, 0.0, 0.0, 400.0), 1e-11)
        assert res.converged
        assert res.value.log_abs > 390.0  # grows like e^x / x

    def test_rel_err_covers_the_log_at_a_huge_order(self):
        # one ulp of log F is 64 here, and the anchor's log is 28.6 off; the
        # error of that log must reach rel_err as a factor, not vanish in it
        nu = 1e16
        res = bessel_integral(IntegralSpec(nu, nu, 0.0, 1.0))
        assert math.isfinite(res.rel_err)
        with mpmath.workdps(40):
            v = mpmath.mpf(nu)
            # the first two terms of the series; the third is about 1e-33 of F
            ref = (-v * mpmath.log(2) - mpmath.loggamma(v + 1) - mpmath.log(2 * v + 1)
                   + mpmath.log1p((2 * v + 1) / (4 * (v + 1) * (2 * v + 3))))
            assert abs(mpmath.mpf(res.value.log_abs) - ref) <= math.log1p(res.rel_err)


def _mp_series(mu, order, gamma, x):
    """F at 40 digits: ``sum_k a_k J(p_k)`` with every ``J(p)`` from mpmath's
    lower incomplete gamma function, ``J(p) = gamma^-p gammainc(p, 0, gamma x)``.

    ``mpmath.quad`` is no reference here: at mu + ord = -0.95 and x <= 1 it
    is off by 6e-3.
    """
    with mpmath.workdps(40):
        mu, order, gamma, x = (mpmath.mpf(v) for v in (mu, order, gamma, x))
        total = mpmath.mpf(0)
        k = 0
        while True:
            p = mu + order + 2 * k + 1
            a = mpmath.mpf(2) ** -(order + 2 * k) * mpmath.rgamma(order + k + 1) / mpmath.factorial(k)
            j = x ** p / p if gamma == 0 else mpmath.gammainc(p, 0, gamma * x) / gamma ** p
            total += a * j
            # past the peak near k = x/2 and the signed head, terms only fall
            if k > x / 2 + abs(order) and abs(a * j) < mpmath.mpf(10) ** -45 * abs(total):
                return total
            k += 1


# mu + ord = -0.95 near the integrability edge, and orders below -1 whose
# head terms alternate in sign
_EDGE_PAIRS = [(-0.5, -0.45), (1.0, -1.5), (2.0, -2.7)]
_DIFFERENTIAL_CASES = (
    [(mu, o, g, x) for mu, o in _EDGE_PAIRS for g in (0.0, 0.5, 0.99, 1.0) for x in (1e-3, 200.0)]
    + [(mu, o, 0.0, 1000.0) for mu, o in _EDGE_PAIRS]
    + [(1.0, -1.5, 1.0, 1000.0)]
    + [
        (5.0, 5.0, 0.5, 0.00289),          # the anchor's rounding sets abs_err
        (0.314, -0.0037, 0.757, 979.6),    # w(p0) = 1/S(p0) underflows to subnormal
    ]
)


def _covered(mu, ordv, gamma, x):
    """The oracle's result at tol 1e-10, after asserting that its ``abs_err``
    covers its distance from the 40-digit series."""
    res = bessel_integral(IntegralSpec(mu, ordv, gamma, x), 1e-10)
    ref = _mp_series(mu, ordv, gamma, x)
    with mpmath.workdps(40):
        got = res.value.sign * mpmath.exp(mpmath.mpf(res.value.log_abs))
        err = mpmath.exp(mpmath.mpf(res.abs_err.log_abs))
        assert abs(got - ref) <= err
    return res


@pytest.mark.parametrize("mu,ordv,gamma,x", _DIFFERENTIAL_CASES)
def test_abs_err_covers_the_40_digit_error(mu, ordv, gamma, x):
    assert _covered(mu, ordv, gamma, x).converged


def test_abs_err_covers_a_cancelling_head():
    # just past a zero of F the signed head cancels to 1.6e-9 of sum |T_k|, so
    # the rounding bound scales by sum |T_k| / |sum| and the result is not converged
    res = _covered(1.0, -1.5, 0.0, 2.2961623001686453 * (1 + 1e-9))
    assert not res.converged


@pytest.mark.parametrize("x", [2.0, 20.0])
def test_interleaved_p0_share_no_table(x):
    # F(0, 0) and F(0.5, 0) have the same z = gamma x and the same number of
    # terms, but p0 = 1 and 1.5: a table taken from the other p0 is far off
    first = [_covered(mu, 0.0, 0.5, x) for mu in (0.0, 0.5)]
    assert [_covered(mu, 0.0, 0.5, x) for mu in (0.0, 0.5)] == first


def test_threads_get_only_their_own_p0_tables():
    # the S tables are process state: threads that switch p0 under each other
    # may rebuild a table, but must never read one of another p0
    specs = [(IntegralSpec(mu, 0.0, 0.5, x),) for mu in (0.0, 0.5, 1.0, 1.5) for x in (2.0, 20.0)]
    assert threads_disagree(bessel_integral, specs, passes=100) == []


@pytest.mark.parametrize("mu", [0.0, -0.5])
def test_gamma_zero_list_serves_every_limit(mu):
    # at gamma = 0, S(p) = 1/p, so p0's table for n terms is the n ratios
    # p/(p + 2): x = 200 needs more than x = 2, and whichever comes first,
    # each limit gives its lone integral's result
    spacer = IntegralSpec(0.125, 0.0, 0.0, 1.0)  # another p0: the tables start empty

    def after_a_p0_change(xs):
        bessel_integral(spacer)
        return {x: bessel_integral(IntegralSpec(mu, 0.0, 0.0, x)) for x in xs}

    alone = {**after_a_p0_change([200.0]), **after_a_p0_change([2.0])}
    assert after_a_p0_change([200.0, 2.0]) == alone
    assert after_a_p0_change([2.0, 200.0]) == alone


def test_threads_get_whole_gamma_zero_lists():
    # threads that add p0's gamma = 0 tables under each other may replace one,
    # but never read one that another thread is still building
    specs = [(IntegralSpec(mu, 0.0, 0.0, x),) for mu in (0.0, 0.5) for x in (2.0, 20.0, 200.0)]
    assert threads_disagree(bessel_integral, specs, passes=100) == []


class TestFlatResult:
    @pytest.mark.parametrize("spec", [IntegralSpec(0.5, 0.5, 0.3, 5.0),
                                      IntegralSpec(1.0, -1.5, 0.0, 1.0)])
    def test_value_and_abs_err_are_built_from_the_fields(self, spec):
        res = bessel_integral(spec)
        assert res.value == ScaledValue(res.sign, res.log_abs)
        assert res.abs_err == ScaledValue(1, res.log_abs + math.log(res.rel_err))

    def test_empty_range(self):
        res = bessel_integral(IntegralSpec(0, 0, 0.5, 0))
        assert res == (0, 0.0, 0.0, 0, True)
        assert (res.value, res.abs_err) == (ScaledValue.zero(), ScaledValue.zero())


class TestNonFiniteLimit:
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_integral(self, x):
        with pytest.raises(InvalidDomain, match="upper limit must be finite and >= 0"):
            bessel_integral(IntegralSpec(0.0, 0.0, 0.5, x))

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_cumulative(self, x):
        with pytest.raises(InvalidDomain, match="finite, strictly positive limits"):
            cumulative_bessel_integral(0.0, 0.0, 0.5, [1.0, x])

    def test_m_value(self):
        with pytest.raises(InvalidDomain, match="upper limit must be finite and >= 0"):
            m_value(0.0, -0.5, 0, math.inf)


class TestNonFiniteOrder:
    """An infinite mu or ord is refused as an infinite order is by ``besseli``; the series
    took 1/inf = 0 as its S sum and divided by it."""

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("mu, ord", [(math.inf, 0.0), (0.0, math.inf)])
    def test_integral(self, mu, ord, gamma):
        with pytest.raises(InvalidDomain, match=r"^mu and ord must be finite, got mu="):
            bessel_integral(IntegralSpec(mu, ord, gamma, 3.0))

    def test_m_value(self):
        with pytest.raises(InvalidDomain, match=r"^mu and ord must be finite, got mu=inf"):
            m_value(math.inf, -0.5, 0, 0.5)

    def test_minus_infinity_is_not_integrable(self):
        with pytest.raises(InvalidDomain, match="is not integrable at 0"):
            bessel_integral(IntegralSpec(-math.inf, 0.0, 0.5, 3.0))

    def test_sweep_records_the_checks_inconclusive(self):
        res = sweep([BoundId.MAIN, BoundId.LOWER1], Grid((math.inf,), (0.5,), (3.0,)))
        assert res.counts == {"holds": 0, "violated": 0, "inconclusive": 2}
        for r in res.reports:
            assert r.verdict is Verdict.INCONCLUSIVE
            assert r.reason.startswith("InvalidDomain: ")


class TestCumulative:
    def test_matches_single_shot(self):
        # limits in any order, a repeat included: each result is its own limit's
        xs = [20.0, 0.5, 5.0, 1.0, 50.0, 2.0, 10.0, 0.5]
        cum = cumulative_bessel_integral(0.5, 0.5, 0.3, xs, 1e-11)
        assert len(cum) == len(xs)
        for x, qr in zip(xs, cum):
            single = bessel_integral(IntegralSpec(0.5, 0.5, 0.3, x), 1e-11)
            assert qr.converged
            assert qr == single


class TestAntiderivative:
    def test_reference_value(self):
        assert sv_relerr(antiderivative_gamma1(0.0, 1.0), ANTIDER_0_1) < 1e-12

    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
    def test_matches_oracle_half_order(self, x):
        res = bessel_integral(IntegralSpec(0.5, 0.5, 1.0, x), 1e-12)
        assert rel_gap(res.value, antiderivative_gamma1(0.5, x)) < 1e-10

    def test_domain_boundary_rejected(self):
        with pytest.raises(InvalidDomain):
            antiderivative_gamma1(-0.5, 1.0)
        with pytest.raises(InvalidDomain):
            antiderivative_gamma1(0.5, 0.0)


class TestAsymptote:
    def test_matches_oracle_at_large_x(self):
        res = bessel_integral(IntegralSpec(0.0, 0.0, 0.0, 100.0), 1e-11)
        approx = integral_asymptote(0.0, 0.0, 0.0, 100.0)
        assert rel_gap(approx, res.value) < 1e-3

    def test_leading_term(self):
        # with the 1/x correction stripped, the prefactor is
        # x^(mu-1/2) e^((1-gamma)x) / (sqrt(2 pi) (1-gamma))
        mu, nu, gamma, x = 1.5, 1.5, 0.3, 50.0
        lead = ScaledValue.from_log(
            (mu - 0.5) * math.log(x) + (1.0 - gamma) * x
            - 0.5 * math.log(2.0 * math.pi) - math.log(1.0 - gamma))
        second = 1.0 - ((4.0 * nu * nu - 1.0) / 8.0 + (mu - 0.5) / (1.0 - gamma)) / x
        assert rel_gap(integral_asymptote(mu, nu, gamma, x), lead * second) < 1e-14

    def test_exceeds_comparison_expansion_for_small_mu(self):
        # for mu < 1/2 the integral's 1/x correction is *less* negative than
        # the one of e^-gx x^mu I_nu/(1-gamma), so the approximant is bigger
        mu, nu, gamma, x = 0.0, 0.5, 0.2, 50.0
        comparison = ScaledValue.from_log(
            (mu - 0.5) * math.log(x) + (1.0 - gamma) * x
            - 0.5 * math.log(2.0 * math.pi) - math.log(1.0 - gamma)
        ) * (1.0 - (4.0 * nu * nu - 1.0) / (8.0 * x))
        assert integral_asymptote(mu, nu, gamma, x) > comparison

    def test_convergence_along_x(self):
        gaps = []
        for x in (25.0, 50.0, 100.0, 200.0):
            res = bessel_integral(IntegralSpec(1.0, 0.5, 0.3, x), 1e-11)
            gaps.append(rel_gap(integral_asymptote(1.0, 0.5, 0.3, x), res.value))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestIdentities:
    def test_spec_points(self):
        assert identity_residual(IdentityId.JJ25, 0.5, 0.0, 0.3, 4.0) < 1e-10
        assert identity_residual(IdentityId.BADBAD, 1.0, 0.0, 0.0, 3.0) < 1e-10
        assert identity_residual(IdentityId.WRONSKIAN, 0.7, 0.0, 0.0, 2.0) < 1e-10
        assert identity_residual(IdentityId.FIRSTINT, 1.2, 0.0, 0.6, 5.0) < 1e-10

    @pytest.mark.parametrize("nu,log_k,cap", [
        # besseli's log error -1.05e-10 plus K's rounding -3.4e-11
        (1e5, "890353.1278206188339360213", 1.39e-10),
        # besseli's log error -2.69e-10 (1.15 ulp) plus K's rounding -1.15e-10
        (2e5, "1919331.665884394313400938", 3.85e-10),
    ])
    def test_wronskian_at_huge_order(self, nu, log_k, cap):
        # x (I_nu K_{nu+1} + I_{nu+1} K_nu) = 1, so the residual is the sum of
        # the two log errors of I_nu(10) and K_{nu+1}(10).  Those logs are
        # near 1e6, where one ulp is 1.2e-10 (nu = 1e5) or 2.3e-10 (2e5).
        # log_k is log K_{nu+1}(10) from the forward recurrence run in mpmath
        # at 40 digits from K_0 and K_1; besselk rounds it once
        k = kernel.besselk(nu + 1.0, 10.0)
        half_ulp = 0.5 * math.ulp(k.log_abs)
        assert abs(k.log_abs - mpmath.mpf(log_k)) <= half_ulp
        err_i = abs(kernel.besseli(nu, 10.0).log_abs - mpmath.log(mpmath.besseli(nu, 10.0)))
        residual = identity_residual(IdentityId.WRONSKIAN, nu, 0.0, 0.0, 10.0)
        assert residual <= min(cap, err_i + half_ulp)

    def test_domains(self):
        with pytest.raises(InvalidDomain):
            identity_residual(IdentityId.FIRSTINT, 0.0, 0.0, 0.3, 2.0)
        with pytest.raises(InvalidDomain):
            identity_residual(IdentityId.BADBAD, 1.0, 0.0, 0.5, 2.0)
        with pytest.raises(InvalidDomain):
            identity_residual(IdentityId.JJ25, -1.2, 0.0, 0.3, 2.0)

    def test_random_grid_residuals(self):
        # fixed seed for reproducibility
        rng = random.Random(20240817)
        worst = 0.0
        for _ in range(100):
            gamma = rng.uniform(0.0, 0.95)
            x = 10.0 ** rng.uniform(-1.5, 1.5)
            which = rng.choice([IdentityId.JJ25, IdentityId.FIRSTINT,
                                IdentityId.BADBAD, IdentityId.WRONSKIAN])
            if which is IdentityId.JJ25:
                r = identity_residual(which, rng.uniform(-0.9, 5.0), 0.0, gamma, x)
            elif which is IdentityId.FIRSTINT:
                r = identity_residual(which, rng.uniform(0.05, 5.0), 0.0, gamma, x)
            elif which is IdentityId.BADBAD:
                nu = rng.uniform(-0.45, 5.0)
                lo = max(-nu - 1.0, -2.0 * nu - 1.0)
                n = rng.uniform(lo + 0.1, 2.0)
                r = identity_residual(which, nu, n, 0.0, x)
            else:
                r = identity_residual(which, rng.uniform(-0.45, 5.0), 0.0, 0.0, x)
            worst = max(worst, r)
        assert worst < 1e-9
