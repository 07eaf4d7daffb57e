"""Marked rational points of the projective line and exact local jets.

A marked point is a rational coordinate or the point at infinity; its
canonical local parameter is t = z - p at a finite point p and t = 1/z at
infinity.  Local series are truncated power series in that parameter with
exact rational coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from ._record import Record
from .errors import PreconditionError, ProblemFormatError
from .exact import format_rational, ipoly, ipoly_fractions, ipoly_reverse, ipoly_shift, iseries_div

#: Coordinate of the point at infinity.
INFINITY = math.inf

Coordinate = Union[Fraction, float]


def is_infinite(coordinate) -> bool:
    return not isinstance(coordinate, Fraction) and coordinate == INFINITY


def coordinate_str(coordinate) -> str:
    return "inf" if is_infinite(coordinate) else format_rational(coordinate)


class MarkedPoint(Record):
    """A rational point of P^1 with its canonical local parameter."""

    id: int
    coordinate: Coordinate

    def __post_init__(self):
        if not is_infinite(self.coordinate) and not isinstance(self.coordinate, Fraction):
            object.__setattr__(self, "coordinate", Fraction(self.coordinate))

    @property
    def is_infinite(self) -> bool:
        return is_infinite(self.coordinate)


class TangentScaling(Record):
    """A nonzero rational rescaling of the canonical tangent vector d/dt."""

    point: int
    scalar: Fraction

    def __post_init__(self):
        object.__setattr__(self, "scalar", Fraction(self.scalar))
        if self.scalar == 0:
            raise ProblemFormatError(f"scaling for point {self.point} must be nonzero")


class LocalSeries(Record):
    """A truncated exact power series in the local parameter of one point."""

    point: int
    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if not coeffs:
            raise ProblemFormatError(f"series at point {self.point} has no coefficients")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        """Truncation order M; the series carries coefficients c_0..c_M."""
        return len(self.coefficients) - 1


def expand_rational_at_point(num, den, point: MarkedPoint, order: int) -> LocalSeries:
    """Exact jet of num/den in the local parameter at `point`, to `order`.

    num and den are polynomial coefficient sequences in z (ascending).
    Raises PreconditionError when den is identically zero or when num/den
    has a pole at the point (in the given, unreduced representation).
    """
    if order < 0:
        raise PreconditionError("expansion order must be >= 0")
    num_p, den_p = ipoly(num), ipoly(den)
    if not den_p[0]:
        raise PreconditionError("zero denominator polynomial")
    if not num_p[0]:
        return LocalSeries(point.id, (Fraction(0),) * (order + 1))
    if point.is_infinite:
        # t = 1/z: divide the degree-D reversals, D = max(deg num, deg den)
        deg = max(len(num_p[0]), len(den_p[0])) - 1
        num_t = ipoly_reverse(num_p, deg)
        den_t = ipoly_reverse(den_p, deg)
    else:
        num_t = ipoly_shift(num_p, point.coordinate)
        den_t = ipoly_shift(den_p, point.coordinate)
    if den_t[0][0] == 0:
        raise PreconditionError(
            f"pole at the marked point {coordinate_str(point.coordinate)}"
        )
    coeffs = ipoly_fractions(iseries_div(num_t, den_t, order), order + 1)
    return LocalSeries(point.id, coeffs)


def check_distinct_points(points: Sequence[MarkedPoint]) -> None:
    """Raise if ids or coordinates repeat."""
    ids = [p.id for p in points]
    if len(set(ids)) != len(ids):
        raise ProblemFormatError("duplicate point id")
    coords = [p.coordinate for p in points]
    if len(set(coords)) != len(coords):
        raise ProblemFormatError("duplicate point coordinate")
