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
from .exact import (IPoly, format_rational, ipoly, ipoly_fractions, ipoly_reverse, ipoly_shift,
                    iseries_div)

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
    jet = ipoly_jet(ipoly(num), ipoly(den), point, order)
    return LocalSeries(point.id, ipoly_fractions(jet, order + 1))


def ipoly_jet(num: IPoly, den: IPoly, point: MarkedPoint, order: int) -> IPoly:
    """`expand_rational_at_point` on integer polynomials: the jet's first
    order + 1 coefficients, reduced over one denominator (see `exact`)."""
    if not den[0]:
        raise PreconditionError("zero denominator polynomial")
    if not num[0]:
        return [], 1
    if point.is_infinite:
        # t = 1/z: divide the degree-D reversals, D = max(deg num, deg den)
        deg = max(len(num[0]), len(den[0])) - 1
        num_t = ipoly_reverse(num, deg)
        den_t = ipoly_reverse(den, deg)
    else:
        num_t = ipoly_shift(num, point.coordinate)
        den_t = ipoly_shift(den, point.coordinate)
    if den_t[0][0] == 0:
        raise PreconditionError(
            f"pole at the marked point {coordinate_str(point.coordinate)}"
        )
    return iseries_div(num_t, den_t, order)


def check_distinct_points(points: Sequence[MarkedPoint]) -> None:
    """Raise if ids or coordinates repeat."""
    ids = [p.id for p in points]
    if len(set(ids)) != len(ids):
        raise ProblemFormatError("duplicate point id")
    coords = [p.coordinate for p in points]
    if len(set(coords)) != len(coords):
        raise ProblemFormatError("duplicate point coordinate")
