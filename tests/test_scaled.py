import json
import math
import random

import pytest

from besselint.scaled import ScaledValue, exp_float

from reference import rel_gap


def test_zero_is_canonical():
    assert ScaledValue.from_float(0.0) == ScaledValue.zero()
    assert ScaledValue.zero().sign == 0
    assert ScaledValue.from_log(-math.inf) == ScaledValue.zero()
    assert ScaledValue.zero().to_float() == 0.0


def test_log_abs_finite_when_nonzero():
    v = ScaledValue.from_float(-3.5)
    assert v.sign == -1 and math.isfinite(v.log_abs)
    with pytest.raises(ValueError):
        ScaledValue.from_float(math.inf)
    with pytest.raises(ValueError):
        ScaledValue.from_log(math.nan)


def test_multiplication_is_log_addition():
    a = ScaledValue.from_log(800.0)
    b = ScaledValue.from_log(650.0, -1)
    prod = a * b
    assert prod.sign == -1
    assert prod.log_abs == 1450.0
    quot = a / b
    assert quot.sign == -1
    assert quot.log_abs == 150.0


def test_same_sign_addition_never_overflows():
    a = ScaledValue.from_log(1000.0)
    b = ScaledValue.from_log(1000.0)
    s = a + b
    assert s.log_abs == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)
    tiny = ScaledValue.from_log(-900.0)
    assert (a + tiny).log_abs == pytest.approx(1000.0)


def test_opposite_sign_cancellation():
    a = ScaledValue.from_log(5.0)
    assert (a - a).sign == 0
    b = ScaledValue.from_log(5.0, -1)
    assert (a + b).sign == 0
    c = ScaledValue.from_float(3.0) - ScaledValue.from_float(2.0)
    assert c.to_float() == pytest.approx(1.0, rel=1e-15)


def test_near_cancellation_stays_finite():
    # log magnitudes differing by ~1 ulp must not blow up in log1p/exp
    a = ScaledValue.from_log(0.04363972533751542, -1)
    b = ScaledValue.from_log(0.04363972533751537)
    diff = a + b
    assert diff.sign != 0 and diff.log_abs < -30.0


def test_ordering():
    vals = [ScaledValue.from_float(v) for v in (-2.0, -0.5, 0.0, 0.25, 3.0)]
    for a, b in zip(vals, vals[1:]):
        assert a < b and b > a and a <= b
    assert ScaledValue.from_log(900.0) > ScaledValue.from_float(1e300)
    assert ScaledValue.from_log(900.0, -1) < ScaledValue.from_float(-1e300)


def test_to_float_saturates():
    assert ScaledValue.from_log(800.0).to_float() == math.inf
    assert ScaledValue.from_log(800.0, -1).to_float() == -math.inf
    assert ScaledValue.from_log(-800.0).to_float() == 0.0


@pytest.mark.parametrize("value, decimal", [
    (ScaledValue.from_float(-2.5), -2.5),
    (ScaledValue.zero(), 0.0),
    (ScaledValue.from_log(699.0), math.exp(699.0)),
    (ScaledValue.from_log(700.0), None),
    (ScaledValue.from_log(-700.0, -1), None),
])
def test_dict_round_trip(value, decimal):
    d = value.to_dict()
    assert d == {"sign": value.sign, "log_abs": value.log_abs}
    assert json.loads(json.dumps(d)) == d  # JSON keeps every member exactly
    # the dropped ``decimal`` member, a plain float where |log_abs| < 700, is rebuilt
    rebuilt = exp_float(d["sign"], d["log_abs"]) if abs(d["log_abs"]) < 700.0 else None
    assert rebuilt == decimal


def test_rel_gap():
    a = ScaledValue.from_float(2.0)
    b = ScaledValue.from_float(2.0 * (1 + 1e-9))
    assert rel_gap(a, b) == pytest.approx(1e-9, rel=1e-5)
    assert rel_gap(a, a) == 0.0
    assert rel_gap(ScaledValue.zero(), ScaledValue.zero()) == 0.0


def test_mixed_scalar_operands():
    v = ScaledValue.from_float(4.0)
    assert (v * 0.5).to_float() == pytest.approx(2.0)
    assert (v / 2).to_float() == pytest.approx(2.0)
    assert (v + 1.0).to_float() == pytest.approx(5.0)
    assert (3.0 - v).to_float() == pytest.approx(-1.0)
    assert (v * 0.0).sign == 0


def test_fuzz_against_float_arithmetic():
    rng = random.Random(20250808)
    for _ in range(300):
        x = rng.uniform(-50.0, 50.0)
        y = rng.uniform(-50.0, 50.0)
        if x == 0.0 or y == 0.0:
            continue
        if abs(x + y) < 1e-3 * max(abs(x), abs(y)):
            continue  # log-space addition legitimately loses digits there
        sx, sy = ScaledValue.from_float(x), ScaledValue.from_float(y)
        assert (sx * sy).to_float() == pytest.approx(x * y, rel=1e-13)
        assert (sx / sy).to_float() == pytest.approx(x / y, rel=1e-13)
        assert (sx + sy).to_float() == pytest.approx(x + y, rel=1e-10, abs=1e-300)
        assert (sx - sy).to_float() == pytest.approx(x - y, rel=1e-10, abs=1e-300)
        assert (sx < sy) == (x < y)
