"""Closed-form Green functions and Robin constants at the real place.

Supported domains are exactly those with elementary Green functions:

* Disk(c, R)                 -- { |z - c| < R }
* ExteriorDisk(c, R)         -- { |z - c| > R } together with infinity
* IntervalComplement(a, b)   -- P^1 minus the real segment [a, b]
* DisjointUnion(...)         -- finitely many components with pairwise
                                disjoint closures

All domain parameters are real rationals, so every domain is stable under
complex conjugation as required at a real place.  Green values are computed
in double precision; the formulas are exact, so values are good to roughly
machine precision and the numerical oracle in `validate_green` can check
harmonicity, boundary vanishing and positivity independently.

Each closed form is written once, over element operations: single points
(`green`, `robin_constant`) use `math`/`cmath` on Python numbers, and only
the grids of `validate_green` import numpy.  `validate_green` and
`GreenDiagnostics` live in `greengrid`, which loads on first use.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property, wraps
from types import SimpleNamespace
from typing import Mapping, Optional, Sequence, Union

from ._record import Record
from .errors import PreconditionError, ProblemFormatError
from .formal import INFINITY, MarkedPoint, coordinate_str, is_infinite


class _Component(Record):
    @cached_property
    def floats(self) -> tuple:
        """(center, radius) or (a, b) as floats, computed once."""
        return tuple(float(v) for v in self._values())


class _Circle(_Component):
    center: Fraction
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise ProblemFormatError("disk radius must be positive")


class Disk(_Circle):
    """The region |z - c| < R."""

    contains_infinity = False


class ExteriorDisk(_Circle):
    """The region |z - c| > R, including the point at infinity."""

    contains_infinity = True


class IntervalComplement(_Component):
    """P^1 minus a real segment [a, b]; contains the point at infinity."""

    a: Fraction
    b: Fraction
    contains_infinity = True

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not self.a < self.b:
            raise ProblemFormatError("interval complement needs a < b")


Component = Union[Disk, ExteriorDisk, IntervalComplement]


class DisjointUnion(Record):
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ProblemFormatError("union needs at least one component")
        object.__setattr__(self, "components", comps)
        _check_disjoint_closures(comps)


ArchDomain = Union[Disk, ExteriorDisk, IntervalComplement, DisjointUnion]


def _check_disjoint_closures(comps: Sequence[Component]) -> None:
    # Interval complements close up to all of P^1, so they cannot share a
    # union with anything; at most one component may contain infinity.
    if any(isinstance(c, IntervalComplement) for c in comps) and len(comps) > 1:
        raise ProblemFormatError(
            "an interval complement has dense closure and cannot be a union component"
        )
    unbounded = [c for c in comps if isinstance(c, ExteriorDisk)]
    if len(unbounded) > 1:
        raise ProblemFormatError("at most one exterior-disk component is possible")
    disks = [c for c in comps if isinstance(c, Disk)]
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            d1, d2 = disks[i], disks[j]
            if (d1.center - d2.center) ** 2 <= (d1.radius + d2.radius) ** 2:
                raise ProblemFormatError("union components have intersecting closures")
    for d in disks:
        for e in unbounded:
            # closed disk must sit strictly inside the removed disk of e
            gap = e.radius - d.radius
            if gap <= 0 or (d.center - e.center) ** 2 >= gap**2:
                raise ProblemFormatError("union components have intersecting closures")


def components_of(domain: ArchDomain) -> tuple:
    if isinstance(domain, DisjointUnion):
        return domain.components
    return (domain,)


def contains_point(comp: Component, coordinate) -> bool:
    """Exact strict-interior test for a rational (or infinite) coordinate."""
    if is_infinite(coordinate):
        return comp.contains_infinity
    c = Fraction(coordinate)
    if isinstance(comp, Disk):
        return (c - comp.center) ** 2 < comp.radius**2
    if isinstance(comp, ExteriorDisk):
        return (c - comp.center) ** 2 > comp.radius**2
    return c < comp.a or c > comp.b


def on_boundary(comp: Component, coordinate) -> bool:
    if is_infinite(coordinate):
        return False
    c = Fraction(coordinate)
    if isinstance(comp, Disk) or isinstance(comp, ExteriorDisk):
        return (c - comp.center) ** 2 == comp.radius**2
    return comp.a <= c <= comp.b


def locate_component(domain: ArchDomain, coordinate) -> int:
    """Index of the component whose interior contains the coordinate."""
    for idx, comp in enumerate(components_of(domain)):
        if contains_point(comp, coordinate):
            return idx
    for comp in components_of(domain):
        if on_boundary(comp, coordinate):
            raise PreconditionError(
                f"point {coordinate_str(coordinate)} lies on the domain boundary"
            )
    raise PreconditionError(f"point {coordinate_str(coordinate)} lies outside the domain")


class ArchDomainAssignment(Record):
    """A domain together with the component housing each marked point."""

    domain: ArchDomain
    placement: tuple  # sorted tuple of (point id, component index)

    def __post_init__(self):
        object.__setattr__(self, "placement", tuple(sorted(self.placement)))

    @classmethod
    def build(
        cls,
        domain: ArchDomain,
        points: Sequence[MarkedPoint],
        placement: Optional[Mapping[int, int]] = None,
    ) -> "ArchDomainAssignment":
        """Infer (or validate) the placement of every point."""
        pairs = []
        for pt in points:
            idx = locate_component(domain, pt.coordinate)
            if placement is not None:
                declared = placement.get(pt.id)
                if declared is None:
                    raise ProblemFormatError(f"placement missing point {pt.id}")
                if declared != idx:
                    raise ProblemFormatError(
                        f"point {pt.id} is not inside component {declared}"
                    )
            pairs.append((pt.id, idx))
        return cls(domain, tuple(pairs))

    def component_index(self, point_id: int) -> int:
        for pid, idx in self.placement:
            if pid == point_id:
                return idx
        raise PreconditionError(f"point {point_id} is not placed in this domain")


# ---------------------------------------------------------------------------
# Green function evaluation


def _point_abs(z) -> float:
    try:
        return abs(z)
    except OverflowError:  # |z| above the largest float
        return math.inf


def _point_log(x: float) -> float:
    if x > 0:
        return math.log(x)
    return -math.inf if x == 0 else math.nan


def _by_zero(x: float, zero: float) -> float:
    """x / zero in IEEE arithmetic: +-inf, or nan for 0/0 and nan/0."""
    if x == 0 or x != x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, zero)


def _point_div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        if isinstance(a, complex) or isinstance(b, complex):
            # numpy divides each part by |b| when b is a complex zero
            a = complex(a)
            return complex(_by_zero(a.real, 0.0), _by_zero(a.imag, 0.0))
        return _by_zero(a, b)


# Element operations the closed forms are written in.  Points use the stdlib
# on Python numbers, with the IEEE results where the stdlib raises (log 0,
# division by zero, |z| overflow); `validate_green` passes numpy's ufuncs to
# the same formulas for its grids.
_POINT = SimpleNamespace(
    abs=_point_abs, sqrt=cmath.sqrt, log=_point_log, conj=lambda z: z.conjugate(),
    div=_point_div,
)


def _inverse_joukowski(xp, phi):
    """The branch of phi + sqrt(phi^2 - 1) with modulus >= 1 off [-1, 1]."""
    return phi + xp.sqrt(phi - 1.0) * xp.sqrt(phi + 1.0)


def _radius_unit(radius: float) -> float:
    """A power of two near the radius.

    The disk formulas square the radius, which overflows from R ~ 1.3e154.
    Every coordinate is divided by this unit first; a power of two scales
    each rounding exactly, so the results keep every bit."""
    return math.ldexp(1.0, math.frexp(radius)[1])


def _disk_green_values(xp, center: complex, radius: float, pole: complex, z):
    unit = _radius_unit(radius)
    center, radius, pole, z = center / unit, radius / unit, pole / unit, z / unit
    num = xp.abs(radius * radius - xp.conj(pole - center) * (z - center))
    den = radius * xp.abs(z - pole)
    return xp.log(xp.div(num, den))


def _exterior_green_values(xp, center: complex, radius: float, pole, z):
    # invert through the circle: m(z) = c + R^2/(z - c) maps the exterior
    # onto the disk and infinity onto the center
    unit = _radius_unit(radius)
    center, radius, z = center / unit, radius / unit, z / unit
    r2 = radius * radius
    m_pole = center if pole is None else center + _point_div(r2, pole / unit - center)
    m_z = center + xp.div(r2, z - center)
    return _disk_green_values(xp, center, radius, m_pole, m_z)


def _interval_green_values(xp, a: float, b: float, pole, z):
    psi_z = _inverse_joukowski(xp, xp.div(2.0 * z - a - b, b - a))
    if pole is None:
        return xp.log(xp.abs(psi_z))
    psi_w = _inverse_joukowski(_POINT, _point_div(2.0 * pole - a - b, b - a))
    return xp.log(xp.div(xp.abs(psi_z * xp.conj(psi_w) - 1.0), xp.abs(psi_z - psi_w)))


def _component_green(xp, comp: Component, pole, z):
    """Green values on one component, on a point or a grid as the element
    operations xp decide; pole None means infinity."""
    if isinstance(comp, Disk):
        if pole is None:
            raise PreconditionError("a bounded disk does not contain infinity")
        return _disk_green_values(xp, *comp.floats, complex(pole), z)
    if isinstance(comp, ExteriorDisk):
        return _exterior_green_values(xp, *comp.floats, pole, z)
    return _interval_green_values(xp, *comp.floats, pole, z)


def _green_at_infinity(comp: Component, pole: complex) -> float:
    """Limit of the Green function at z = infinity (finite pole)."""
    if isinstance(comp, Disk):
        raise PreconditionError("infinity is outside a bounded disk")
    if isinstance(comp, ExteriorDisk):
        # m(infinity) = center
        unit = _radius_unit(comp.floats[1])
        c, r = (v / unit for v in comp.floats)
        m_pole = c + _point_div(r * r, pole / unit - c)
        return _disk_green_values(_POINT, c, r, m_pole, complex(c))
    a, b = comp.floats
    psi_w = _inverse_joukowski(_POINT, _point_div(2.0 * pole - a - b, b - a))
    return _point_log(_point_abs(psi_w))


def _closure_contains_complex(comp: Component, z: complex, tol: float = 1e-9) -> bool:
    if isinstance(comp, Disk):
        return _point_abs(z - comp.floats[0]) <= comp.floats[1] * (1 + tol)
    if isinstance(comp, ExteriorDisk):
        return _point_abs(z - comp.floats[0]) >= comp.floats[1] * (1 - tol)
    return True  # the closure of an interval complement is all of P^1


def _float_range(fn):
    """fn, with an OverflowError of its float conversions raised as a PreconditionError."""
    @wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise PreconditionError("not computable in floating point: a coordinate or a "
                                    f"domain parameter lies beyond the float range ({exc})") from exc
    return checked


def _pole_frame(domain: ArchDomain, pole) -> tuple:
    """The domain's components, the one containing the pole, and the pole as
    a complex number (None at infinity): what every value at this pole shares."""
    comps = components_of(domain)
    return comps, comps[locate_component(domain, pole)], None if is_infinite(pole) else complex(pole)


@_float_range
def green(domain: ArchDomain, pole, z) -> float:
    """Green function of the domain with the given pole, evaluated at z.

    `pole` is a rational coordinate or INFINITY and must lie strictly inside
    the domain; `z` is a complex number (or INFINITY) in the closure, z != pole.
    A z with an infinite part is INFINITY.  Across distinct components of a
    union the value is 0.
    """
    if not isinstance(z, Fraction):
        if cmath.isnan(z):
            raise PreconditionError(f"evaluation point ({z.real}, {z.imag}) is not a number")
        if cmath.isinf(z):
            z = INFINITY
    return _green_from(_pole_frame(domain, pole), z)


def _green_from(frame: tuple, z) -> float:
    """`green` at z, given the pole's `_pole_frame`."""
    comps, comp, pole_arg = frame
    if is_infinite(z):
        if pole_arg is None:
            raise PreconditionError("evaluation point equals the pole")
        if not comp.contains_infinity:
            return 0.0 if any(c.contains_infinity for c in comps) else _outside(z)
        return max(_green_at_infinity(comp, pole_arg), 0.0)

    zc = complex(z)
    if pole_arg is not None and zc == pole_arg:
        raise PreconditionError("evaluation point equals the pole")
    if _closure_contains_complex(comp, zc):
        val = _component_green(_POINT, comp, pole_arg, zc)
        if val < -1e-9:
            raise PreconditionError("evaluation point is outside the domain closure")
        return max(val, 0.0)
    if any(_closure_contains_complex(c, zc) for c in comps):
        return 0.0
    return _outside(z)


def _outside(z):
    raise PreconditionError(f"evaluation point {z} is outside the domain closure")


@_float_range
def robin_constant(domain: ArchDomain, pole, convention: Optional[str] = None) -> float:
    """Finite limit of g(z) + log|t(z)| as z approaches the pole.

    The local parameter is t = z - p at a finite pole and t = 1/z at
    infinity; `convention` ("z-p" or "1/z") may be passed to assert the
    expectation explicitly.
    """
    expected = "1/z" if is_infinite(pole) else "z-p"
    if convention is not None and convention != expected:
        raise PreconditionError(
            f"parameter convention {convention!r} does not match the pole"
        )
    return _robin_from(_pole_frame(domain, pole), pole)


def _robin_from(frame: tuple, pole) -> float:
    """`robin_constant` at the pole, given its `_pole_frame`."""
    comp, p = frame[1], frame[2]
    try:
        if isinstance(comp, Disk):
            unit = _radius_unit(comp.floats[1])
            w, r = (comp.floats[0] - p.real) / unit, comp.floats[1] / unit
            # g + log|z - w| -> log((R^2 - |w - c|^2) / R)
            return math.log((r * r - w * w) / r * unit)
        if isinstance(comp, ExteriorDisk):
            if p is None:
                # g(z) = log(|z - c| / R), so g - log|z| -> -log R
                return -math.log(float(comp.radius))
            unit = _radius_unit(comp.floats[1])
            d, r = abs(p.real - comp.floats[0]) / unit, comp.floats[1] / unit
            return math.log((d * d - r * r) / r * unit)
        a, b = comp.floats
        if p is None:
            # capacity of [a, b] is (b - a)/4
            return math.log(4.0 / (b - a))
        phi = (2.0 * p.real - a - b) / (b - a)
        psi = abs(_inverse_joukowski(_POINT, complex(phi)))
        dpsi = (2.0 / (b - a)) * psi / math.sqrt(phi * phi - 1.0)
        return math.log((psi * psi - 1.0) / dpsi)
    except (ZeroDivisionError, ValueError) as exc:
        # a division by zero or a log/sqrt outside its domain: exact data
        # that differ (a radius and 0, a pole and the center or an endpoint,
        # the two endpoints) became equal when rounded to floats
        raise PreconditionError(
            f"Robin constant at {coordinate_str(pole)} is not computable in "
            f"floating point: the domain and the pole collide after rounding ({exc})"
        ) from exc


@_float_range
def arch_matrix(assignment: ArchDomainAssignment, points: Sequence[MarkedPoint]) -> tuple:
    """The per-place matrix at the real place, indexed by sorted point id.

    Off-diagonal (i, j) is the Green value with pole at point i evaluated at
    point j (zero across distinct components); the diagonal holds the Robin
    constant in the canonical parameter.  Each row locates its pole once.
    Tangent scalings are applied by `gamematrix.gauge_shift`.
    """
    pts = sorted(points, key=lambda p: p.id)
    zs = [INFINITY if p.is_infinite else complex(p.coordinate) for p in pts]
    rows = []
    for i, pi in enumerate(pts):
        assignment.component_index(pi.id)  # placement must cover every point
        frame = _pole_frame(assignment.domain, pi.coordinate)
        diagonal = _robin_from(frame, pi.coordinate)
        rows.append(tuple(diagonal if j == i else _green_from(frame, z) for j, z in enumerate(zs)))
    return tuple(rows)


def __getattr__(name):
    # the grid oracle loads on first use (PEP 562)
    if name in ("GreenDiagnostics", "validate_green"):
        from . import greengrid

        return getattr(greengrid, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
