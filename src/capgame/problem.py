"""Problem documents: parsing, validation, and canonical serialization.

A problem is a single JSON object with the keys `points`, `series`,
`arch_places`, `nonarch_places`, `scalings`, `degree_bound`; rationals are
serialized as strings "p/q" and the point at infinity as "inf".  Two
optional keys extend the format: `infinite_tail` (records a declared
divergent tail of places) and `extra_places` (user-supplied numeric place
matrices, the escape hatch for geometries without closed forms).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

from ._record import Record
from .arch import (
    ArchDomain,
    ArchDomainAssignment,
    Disk,
    DisjointUnion,
    ExteriorDisk,
    IntervalComplement,
)
from .errors import ProblemFormatError
from .exact import format_rational, parse_rational
from .formal import (
    INFINITY,
    LocalSeries,
    MarkedPoint,
    TangentScaling,
    check_distinct_points,
    coordinate_str,
)
from .nonarch import SIZE_PRESETS, NonArchPlace, size_preset


class ExtraPlace(Record):
    """A user-supplied numeric place matrix ("inf" entries allowed)."""

    label: str
    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.entries)
        if any(len(r) != len(rows) for r in rows):
            raise ProblemFormatError(f"extra place {self.label!r} must be square")
        object.__setattr__(self, "entries", rows)


class ProblemSpec(Record):
    points: tuple
    series: tuple
    arch_places: tuple = ()
    nonarch_places: tuple = ()
    scalings: tuple = ()
    degree_bound: Optional[int] = None
    infinite_tail: bool = False
    extra_places: tuple = ()

    def __post_init__(self):
        points = tuple(self.points)
        check_distinct_points(points)
        ids = {p.id for p in points}
        series = tuple(self.series)
        if sorted(s.point for s in series) != sorted(ids):
            raise ProblemFormatError("exactly one series per declared point is required")
        for sc in self.scalings:
            if sc.point not in ids:
                raise ProblemFormatError(f"scaling references unknown point {sc.point}")
        if len({sc.point for sc in self.scalings}) != len(self.scalings):
            raise ProblemFormatError("duplicate scaling for a point")
        if len({pl.p for pl in self.nonarch_places}) != len(self.nonarch_places):
            raise ProblemFormatError("duplicate nonarch place for a prime")
        for place in self.nonarch_places:
            for pid in place.log_size_coeffs:
                if pid not in ids:
                    raise ProblemFormatError(
                        f"place p={place.p} references unknown point {pid}"
                    )
            for i, j in place.off_diagonal:
                if i not in ids or j not in ids:
                    raise ProblemFormatError(
                        f"place p={place.p} references unknown point pair ({i}, {j})"
                    )
        for extra in self.extra_places:
            if len(extra.entries) != len(points):
                raise ProblemFormatError(
                    f"extra place {extra.label!r} size does not match the point set"
                )
        if self.degree_bound is not None and self.degree_bound < 1:
            raise ProblemFormatError("degree_bound must be a positive integer")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "arch_places", tuple(self.arch_places))
        object.__setattr__(self, "nonarch_places", tuple(self.nonarch_places))
        object.__setattr__(self, "scalings", tuple(self.scalings))
        object.__setattr__(self, "extra_places", tuple(self.extra_places))

    def sorted_points(self) -> tuple:
        return tuple(sorted(self.points, key=lambda p: p.id))

    def sorted_ids(self) -> tuple:
        return tuple(p.id for p in self.sorted_points())

    def scaling_map(self) -> dict:
        out = {p.id: Fraction(1) for p in self.points}
        for sc in self.scalings:
            out[sc.point] = sc.scalar
        return out

    def series_for(self, point_id: int) -> LocalSeries:
        for s in self.series:
            if s.point == point_id:
                return s
        raise ProblemFormatError(f"no series for point {point_id}")


def _require(obj: dict, key: str, kind, where: str):
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where} must be an object")
    if key not in obj:
        raise ProblemFormatError(f"missing field {key!r} in {where}")
    val = obj[key]
    # bool is a subclass of int, but true is not an integer field
    if kind is not None and (
        not isinstance(val, kind) or (kind is int and isinstance(val, bool))
    ):
        raise ProblemFormatError(f"field {key!r} in {where} has the wrong type")
    return val


def _optional(obj: dict, key: str, kind, where: str):
    """An optional field of the given JSON type, empty when absent."""
    val = obj.get(key, kind())
    if not isinstance(val, kind):
        raise ProblemFormatError(f"field {key!r} in {where} has the wrong type")
    return val


def _parse_int(text, where: str) -> int:
    if isinstance(text, bool):
        raise ProblemFormatError(f"bad integer {text!r} in {where}")
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ProblemFormatError(f"bad integer {text!r} in {where}") from None


def _parse_coordinate(text, where: str):
    if isinstance(text, str) and text.strip() == "inf":
        return INFINITY
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ProblemFormatError(f"bad coordinate in {where}: {exc}") from exc


def _parse_fraction(text, where: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ProblemFormatError(f"bad rational in {where}: {exc}") from exc


def parse_domain(obj: dict) -> ArchDomain:
    kind = _require(obj, "kind", str, "domain")
    if kind == "disk":
        return Disk(_parse_fraction(_require(obj, "center", None, "disk"), "disk center"),
                    _parse_fraction(_require(obj, "radius", None, "disk"), "disk radius"))
    if kind == "exterior_disk":
        return ExteriorDisk(
            _parse_fraction(_require(obj, "center", None, "exterior_disk"), "center"),
            _parse_fraction(_require(obj, "radius", None, "exterior_disk"), "radius"),
        )
    if kind == "interval_complement":
        return IntervalComplement(
            _parse_fraction(_require(obj, "a", None, "interval_complement"), "endpoint a"),
            _parse_fraction(_require(obj, "b", None, "interval_complement"), "endpoint b"),
        )
    if kind == "union":
        comps = _require(obj, "components", list, "union")
        return DisjointUnion(tuple(parse_domain(c) for c in comps))
    raise ProblemFormatError(f"unknown domain kind {kind!r}")


def domain_to_json(domain: ArchDomain) -> dict:
    if isinstance(domain, Disk):
        return {"kind": "disk", "center": format_rational(domain.center),
                "radius": format_rational(domain.radius)}
    if isinstance(domain, ExteriorDisk):
        return {"kind": "exterior_disk", "center": format_rational(domain.center),
                "radius": format_rational(domain.radius)}
    if isinstance(domain, IntervalComplement):
        return {"kind": "interval_complement", "a": format_rational(domain.a),
                "b": format_rational(domain.b)}
    return {"kind": "union", "components": [domain_to_json(c) for c in domain.components]}


def parse_problem(text) -> ProblemSpec:
    """Parse and validate a problem document (bytes or str of JSON)."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"parse error at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer past int(str)'s digit limit, or nesting past the recursion limit
        raise ProblemFormatError(f"parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")

    points = []
    for k, entry in enumerate(_require(doc, "points", list, "document")):
        pid = _require(entry, "id", int, f"points[{k}]")
        coord = _parse_coordinate(_require(entry, "coordinate", None, f"points[{k}]"),
                                  f"points[{k}]")
        points.append(MarkedPoint(pid, coord))
    points = tuple(points)
    check_distinct_points(points)

    series = []
    for k, entry in enumerate(_require(doc, "series", list, "document")):
        pid = _require(entry, "point", int, f"series[{k}]")
        coeffs = _require(entry, "coefficients", list, f"series[{k}]")
        series.append(LocalSeries(pid, tuple(
            _parse_fraction(c, f"series[{k}].coefficients") for c in coeffs)))

    arch_places = []
    for k, entry in enumerate(_optional(doc, "arch_places", list, "document")):
        where = f"arch_places[{k}]"
        domain = parse_domain(_require(entry, "domain", dict, where))
        placement = None
        if "placement" in entry:
            placement = {_parse_int(i, f"{where}.placement"): _parse_int(c, f"{where}.placement")
                         for i, c in _require(entry, "placement", dict, where).items()}
        arch_places.append(ArchDomainAssignment.build(domain, points, placement))

    nonarch_places = []
    for k, entry in enumerate(_optional(doc, "nonarch_places", list, "document")):
        where = f"nonarch_places[{k}]"
        p = _require(entry, "p", int, where)
        coeffs = {}
        for i, q in _optional(entry, "log_size_coeffs", dict, where).items():
            coeffs[_parse_int(i, f"{where}.log_size_coeffs")] = _parse_fraction(
                q, f"{where}.log_size_coeffs")
        for i, name in _optional(entry, "preset", dict, where).items():
            pid = _parse_int(i, f"{where}.preset")
            if name not in SIZE_PRESETS:
                raise ProblemFormatError(f"unknown preset {name!r} in {where}")
            if pid in coeffs:
                raise ProblemFormatError(
                    f"point {pid} has both a preset and an explicit coefficient in {where}"
                )
            coeffs[pid] = size_preset(name, p)
        off = {}
        for key, val in _optional(entry, "off_diagonal", dict, where).items():
            off[key] = _parse_fraction(val, f"{where}.off_diagonal")
        nonarch_places.append(NonArchPlace(p, coeffs, off))

    scalings = []
    for k, entry in enumerate(_optional(doc, "scalings", list, "document")):
        pid = _require(entry, "point", int, f"scalings[{k}]")
        scalar = _parse_fraction(_require(entry, "scalar", None, f"scalings[{k}]"),
                                 f"scalings[{k}]")
        scalings.append(TangentScaling(pid, scalar))

    extras = []
    for k, entry in enumerate(_optional(doc, "extra_places", list, "document")):
        where = f"extra_places[{k}]"
        rows = _require(entry, "entries", list, where)
        label = _require(entry, "label", str, where) if "label" in entry else f"user[{k}]"
        try:
            parsed = tuple(
                tuple(math.inf if v == "inf" else float(v) for v in row) for row in rows
            )
        except (TypeError, ValueError):
            raise ProblemFormatError(f"non-numeric matrix entry in {where}") from None
        extras.append(ExtraPlace(label, parsed))

    degree_bound = doc.get("degree_bound")
    # bool is a subclass of int, but true is not a degree
    if degree_bound is not None and (
        isinstance(degree_bound, bool) or not isinstance(degree_bound, int)
    ):
        raise ProblemFormatError("degree_bound must be an integer")

    return ProblemSpec(
        points=points,
        series=tuple(series),
        arch_places=tuple(arch_places),
        nonarch_places=tuple(nonarch_places),
        scalings=tuple(scalings),
        degree_bound=degree_bound,
        infinite_tail=_optional(doc, "infinite_tail", bool, "document"),
        extra_places=tuple(extras),
    )


def problem_to_json(spec: ProblemSpec) -> dict:
    doc = {
        "points": [
            {"id": p.id, "coordinate": coordinate_str(p.coordinate)}
            for p in spec.points
        ],
        "series": [
            {"point": s.point, "coefficients": [format_rational(c) for c in s.coefficients]}
            for s in spec.series
        ],
        "arch_places": [
            {"domain": domain_to_json(a.domain), "placement": {str(i): c for i, c in a.placement}}
            for a in spec.arch_places
        ],
        "nonarch_places": [
            {
                "p": pl.p,
                "log_size_coeffs": {str(i): format_rational(q)
                                    for i, q in sorted(pl.log_size_coeffs.items())},
                **(
                    {"off_diagonal": {f"{i},{j}": format_rational(v)
                                      for (i, j), v in sorted(pl.off_diagonal.items())}}
                    if pl.off_diagonal else {}
                ),
            }
            for pl in spec.nonarch_places
        ],
        "scalings": [
            {"point": sc.point, "scalar": format_rational(sc.scalar)}
            for sc in spec.scalings
        ],
    }
    if spec.degree_bound is not None:
        doc["degree_bound"] = spec.degree_bound
    if spec.infinite_tail:
        doc["infinite_tail"] = True
    if spec.extra_places:
        doc["extra_places"] = [
            {"label": e.label,
             "entries": [["inf" if math.isinf(v) else v for v in row] for row in e.entries]}
            for e in spec.extra_places
        ]
    return doc


def serialize_problem(spec: ProblemSpec) -> str:
    """Canonical JSON text; parse_problem(serialize_problem(s)) == s."""
    return json.dumps(problem_to_json(spec), indent=2, sort_keys=True)
