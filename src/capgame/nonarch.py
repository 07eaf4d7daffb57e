"""Non-archimedean place data: per-point sizes and per-prime matrices.

At a prime p every entry is an exact rational multiple of log p.  A point's
log-size coefficient q_i <= 0 encodes a size S = p**q_i (S = 1 in the
good-reduction case); off-diagonal interactions default to 0 and may only
be supplied explicitly.  Sizes are input data or presets, never computed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._record import Record
from .errors import PreconditionError, ProblemFormatError
from .exact import format_rational, is_prime

SIZE_PRESETS = ("good_reduction", "leaf", "leaf_p_curvature")


def size_preset(kind: str, p: int) -> Fraction:
    """Log-size coefficient for a named model at the prime p.

    good_reduction -> 0, leaf -> -1/(p-1), leaf_p_curvature -> -1/(p(p-1)).
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if kind == "good_reduction":
        return Fraction(0)
    if kind == "leaf":
        return Fraction(-1, p - 1)
    if kind == "leaf_p_curvature":
        return Fraction(-1, p * (p - 1))
    raise PreconditionError(f"unknown size preset {kind!r}")


class NonArchPlace(Record):
    """One prime's contribution: log-size coefficients and optional
    off-diagonal entries, all as rational multiples of log p."""

    p: int
    log_size_coeffs: dict = {}  # __post_init__ stores fresh copies of both dicts
    off_diagonal: dict = {}

    def __post_init__(self):
        if not is_prime(self.p):
            raise ProblemFormatError(f"{self.p} is not prime")
        coeffs = {int(i): Fraction(q) for i, q in self.log_size_coeffs.items()}
        for i, q in coeffs.items():
            if q > 0:
                raise ProblemFormatError(
                    f"log-size coefficient {format_rational(q)} at point {i} "
                    f"must be <= 0 (sizes are at most 1)"
                )
        off = {}
        for key, val in self.off_diagonal.items():
            i, j = (int(k) for k in key) if isinstance(key, tuple) else _parse_pair(key)
            v = Fraction(val)
            if i == j:
                raise ProblemFormatError("off-diagonal entries need distinct indices")
            if v < 0:
                raise ProblemFormatError("off-diagonal coefficients must be >= 0")
            off[(i, j)] = v
        object.__setattr__(self, "log_size_coeffs", coeffs)
        object.__setattr__(self, "off_diagonal", off)

    def coeff(self, point_id: int) -> Fraction:
        return self.log_size_coeffs.get(point_id, Fraction(0))


def _parse_pair(key: str) -> tuple[int, int]:
    try:
        i, j = key.split(",")
        return int(i), int(j)
    except ValueError as exc:
        raise ProblemFormatError(f"bad off-diagonal index {key!r}") from exc


class PrimeMatrix(Record):
    """An exact per-prime matrix; entry (i, j) stands for coeffs[i][j]*log p."""

    p: int
    coeffs: tuple  # tuple of tuples of Fractions

    def __post_init__(self):
        if any(len(r) != len(self.coeffs) for r in self.coeffs):
            raise ProblemFormatError("prime matrix must be square")
        if not all(isinstance(c, (int, Fraction)) for row in self.coeffs for c in row):
            raise PreconditionError("prime matrix coefficients must be exact (int or Fraction)")

    @property
    def size(self) -> int:
        return len(self.coeffs)


def nonarch_matrix(place: NonArchPlace, ids: Sequence[int]) -> PrimeMatrix:
    """Exact matrix of the place over the given point-id order.

    Diagonal (i, i) is the log-size coefficient q_i (times log p);
    off-diagonal entries are the supplied coefficients or 0.  Tangent
    scalings, which add v_p(a_i) to the diagonal, are applied by
    `gamematrix.gauge_shift`.
    """
    ids = list(ids)
    n = len(ids)
    pos = {pid: k for k, pid in enumerate(ids)}
    rows = [[Fraction(0)] * n for _ in range(n)]
    for pid, q in place.log_size_coeffs.items():
        if pid not in pos:
            raise PreconditionError(f"place p={place.p} references unknown point {pid}")
        rows[pos[pid]][pos[pid]] = q
    for (i, j), v in place.off_diagonal.items():
        if i not in pos or j not in pos:
            raise PreconditionError(f"place p={place.p} references unknown point pair {(i, j)}")
        rows[pos[i]][pos[j]] = v
    return PrimeMatrix(place.p, tuple(tuple(r) for r in rows))


class AnalyticityReport(Record):
    """Per-point totals of the log sizes over all declared places."""

    totals: dict  # point id -> {prime: coefficient}
    verdict: bool

    def to_report(self) -> dict:
        return {
            "verdict": self.verdict,
            "totals": {
                str(pid): {str(p): c for p, c in sorted(per.items())}
                for pid, per in sorted(self.totals.items())
            },
        }


def a_analyticity_check(
    places: Sequence[NonArchPlace],
    ids: Sequence[int] = (),
    infinite_tail: bool = False,
) -> AnalyticityReport:
    """Sum each point's log-size coefficients over the declared places.

    With finitely many places the product of sizes is automatically positive,
    so the verdict is true unless a divergent tail has been declared.
    """
    totals: dict[int, dict[int, Fraction]] = {pid: {} for pid in ids}
    for place in places:
        for pid, q in place.log_size_coeffs.items():
            per = totals.setdefault(pid, {})
            per[place.p] = per.get(place.p, Fraction(0)) + q
    return AnalyticityReport(totals=totals, verdict=not infinite_tail)
