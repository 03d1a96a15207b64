"""Incomplete Bessel integrals: evaluation, closed-form bounds, certification.

The package evaluates the integral family

    F(mu, ord, gamma, x) = integral_0^x e^(-gamma t) t^mu I_ord(t) dt

to high relative accuracy, computes a catalog of closed-form upper and
lower bounds for it, and certifies every bound numerically over parameter
grids.  All exponentially growing magnitudes travel as
:class:`~besselint.scaled.ScaledValue` (sign + log magnitude), so the
x-range is limited by mathematics, not by float overflow.
"""

from .bounds import (
    BoundEval,
    BoundId,
    Direction,
    Point,
    bound_value,
    c_nu,
    m_bound_constant,
    m_value,
    x_star,
)
from .errors import (
    BesselIntError,
    InvalidDomain,
    InvalidOrder,
    NonConvergence,
    NotFound,
)
from .kernel import besseli, besseli_ratio, besselk
from .oracle import (
    IntegralSpec,
    QuadResult,
    bessel_integral,
    cumulative_bessel_integral,
)
from .scaled import ScaledValue
from .verifier import (
    CheckReport,
    Grid,
    RelErrTable,
    SkippedPoint,
    SweepResult,
    Verdict,
    check_point,
    default_grid,
    find_crossover,
    relative_error_table,
    sweep,
    tightness_scan,
)

__version__ = "0.1.0"

__all__ = [
    "ScaledValue",
    "besseli", "besselk", "besseli_ratio",
    "IntegralSpec", "QuadResult", "bessel_integral", "cumulative_bessel_integral",
    "BoundId", "Direction", "Point", "BoundEval", "bound_value",
    "c_nu", "x_star", "m_value", "m_bound_constant",
    "Verdict", "CheckReport", "SkippedPoint", "SweepResult", "Grid", "RelErrTable",
    "check_point", "sweep", "default_grid", "relative_error_table",
    "tightness_scan", "find_crossover",
    "BesselIntError", "InvalidDomain", "InvalidOrder", "NonConvergence", "NotFound",
]
