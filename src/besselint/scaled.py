"""Sign/log-magnitude arithmetic for quantities that overflow floats.

A :class:`ScaledValue` stores a real number ``v`` as ``(sign, log|v|)``.
Products and quotients reduce to additions in log space and are therefore
immune to overflow; sums of same-sign values go through log-sum-exp.  This
is the carrier type for everything in this package that grows like
``exp((1-gamma)*x)``, which exceeds float range long before x reaches the
upper end of the supported domain.
Power series (``kernel.power_series_sum``) and bound combinations
(``bounds._combination``) are summed in float frames, not term by term here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidDomain

__all__ = ["ScaledValue", "exp_float", "log_dict"]

#: values with |log| below this render as a plain float without overflow
_FLOAT_SAFE_LOG = 700.0


def exp_float(sign: int, log_abs: float) -> float:
    """``sign * exp(log_abs)``, saturating to +-inf past log 700 and to 0 below -745."""
    if sign == 0 or log_abs < -745.0:
        return 0.0
    return math.inf * sign if log_abs > _FLOAT_SAFE_LOG else sign * math.exp(log_abs)


def log_dict(sign: int, log_abs: float) -> dict:
    """``{sign, log_abs}`` of ``sign * exp(log_abs)``; :func:`exp_float` is its float."""
    return {"sign": sign, "log_abs": log_abs}


@dataclass(frozen=True, slots=True)
class ScaledValue:
    """A real number represented as ``sign * exp(log_abs)``.

    ``sign`` is -1, 0 or +1; ``log_abs`` is the natural log of the
    magnitude and is kept finite whenever ``sign != 0`` (the zero value is
    canonically ``(0, 0.0)``).
    """

    sign: int
    log_abs: float

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "ScaledValue":
        return ScaledValue(0, 0.0)

    @staticmethod
    def one() -> "ScaledValue":
        return ScaledValue(1, 0.0)

    @staticmethod
    def from_float(value: float) -> "ScaledValue":
        if value == 0.0:
            return ScaledValue.zero()
        if math.isnan(value) or math.isinf(value):
            raise InvalidDomain(f"cannot represent {value!r} as a ScaledValue")
        return ScaledValue(1 if value > 0 else -1, math.log(abs(value)))

    @staticmethod
    def from_log(log_abs: float, sign: int = 1) -> "ScaledValue":
        if sign == 0 or log_abs == -math.inf:
            return ScaledValue.zero()
        if math.isnan(log_abs) or log_abs == math.inf:
            raise InvalidDomain(f"non-finite log magnitude {log_abs!r}")
        return ScaledValue(1 if sign > 0 else -1, log_abs)

    # -- queries -----------------------------------------------------------

    def to_float(self) -> float:
        """Nearest float; overflows to +-inf rather than raising."""
        return exp_float(self.sign, self.log_abs)

    def to_dict(self) -> dict:
        """:func:`log_dict` of the value."""
        return log_dict(self.sign, self.log_abs)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "ScaledValue":
        return ScaledValue(-self.sign, self.log_abs)

    def __mul__(self, other):
        other = _coerce(other)
        s = self.sign * other.sign
        if s == 0:
            return ScaledValue.zero()
        return ScaledValue(s, self.log_abs + other.log_abs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.sign == 0:
            raise ZeroDivisionError("ScaledValue division by zero")
        if self.sign == 0:
            return ScaledValue.zero()
        return ScaledValue(self.sign * other.sign, self.log_abs - other.log_abs)

    def __add__(self, other):
        other = _coerce(other)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.sign == other.sign:
            # log-sum-exp keeps the sum in range for any magnitudes
            hi, lo = max(self.log_abs, other.log_abs), min(self.log_abs, other.log_abs)
            return ScaledValue(self.sign, hi + math.log1p(math.exp(lo - hi)))
        if self.log_abs == other.log_abs:
            return ScaledValue.zero()
        if self.log_abs > other.log_abs:
            big, small = self, other
        else:
            big, small = other, self
        # -expm1(d) stays exact for d near 0, where exp(d) would round to 1
        log = big.log_abs + math.log(-math.expm1(small.log_abs - big.log_abs))
        return ScaledValue(big.sign, log)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    # -- ordering (numeric, not lexicographic) ------------------------------

    def _cmp(self, other) -> int:
        other = _coerce(other)
        if self.sign != other.sign:
            return -1 if self.sign < other.sign else 1
        if self.sign == 0:
            return 0
        if self.log_abs == other.log_abs:
            return 0
        bigger_mag = self.log_abs > other.log_abs
        if self.sign > 0:
            return 1 if bigger_mag else -1
        return -1 if bigger_mag else 1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self) -> str:
        if self.sign == 0:
            return "ScaledValue(0)"
        return f"ScaledValue(sign={self.sign:+d}, log_abs={self.log_abs!r})"


def _coerce(value) -> ScaledValue:
    if isinstance(value, ScaledValue):
        return value
    if isinstance(value, (int, float)):
        return ScaledValue.from_float(float(value))
    raise TypeError(f"cannot mix ScaledValue with {type(value).__name__}")
