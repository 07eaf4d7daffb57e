"""Exact evaluation-filtration ranks for degree-N forms on the line.

The ambient space is the polynomials of degree <= N (dimension N+1).  A
schedule prescribes vanishing orders omega_i(k) at the marked points, with
vanishing at infinity encoded as a cap on the degree.  On the line the
conditions at distinct points are independent, so the k-th rank is simply
max(N+1-k, 0); `rank_oracle` recomputes any single rank by exact linear
algebra as an independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from ._record import Record
from .errors import PreconditionError
from .exact import matrix_rank
from .formal import MarkedPoint, check_distinct_points
from .schedule import Schedule


class FiltrationProfile(Record):
    """Ranks r_0, r_1, ... of the nested vanishing subspaces, down to 0."""

    N: int
    ranks: tuple

    def __post_init__(self):
        r = tuple(int(v) for v in self.ranks)
        if not r or r[0] != self.N + 1:
            raise PreconditionError("profile must start at rank N+1")
        for a, b in zip(r, r[1:]):
            if b not in (a, a - 1):
                raise PreconditionError("ranks may drop by at most 1 per step")
        if r[-1] != 0 or (len(r) > 1 and 0 in r[:-1]):
            raise PreconditionError("profile must end at its first zero rank")
        object.__setattr__(self, "ranks", r)


def filtration_ranks(N: int, schedule: Schedule, points: Sequence[MarkedPoint]) -> FiltrationProfile:
    """Rank profile of the schedule's vanishing filtration on degree-N forms."""
    if N < 0:
        raise PreconditionError("degree N must be >= 0")
    check_distinct_points(points)
    ids = {p.id for p in points}
    if set(schedule.ids) - ids:
        raise PreconditionError("schedule references unknown points")
    if schedule.K < N + 1 + len(points):
        raise PreconditionError("schedule horizon must be at least N+1+|I|")
    # distinct points: each step imposes one fresh independent condition
    ranks = tuple(max(N + 1 - k, 0) for k in range(N + 2))
    return FiltrationProfile(N=N, ranks=ranks)


def rank_oracle(N: int, points: Sequence[MarkedPoint], orders: Sequence[int]) -> int:
    """Dimension of {deg <= N polynomials vanishing to the given orders},
    computed by row-reducing the exact jet-constraint system."""
    if N < 0:
        raise PreconditionError("degree N must be >= 0")
    check_distinct_points(points)
    if len(orders) != len(points):
        raise PreconditionError("one vanishing order per point is required")
    if any(m < 0 for m in orders):
        raise PreconditionError("vanishing orders must be >= 0")
    if sum(orders) > N + 2:
        raise PreconditionError("total vanishing order exceeds N+2")
    rows = []
    for pt, m in zip(points, orders):
        if pt.is_infinite:
            # order m at infinity <=> coefficients of z^(N-m+1)..z^N vanish
            for j in range(m):
                row = [Fraction(0)] * (N + 1)
                idx = N - j
                if idx < 0:
                    continue
                row[idx] = Fraction(1)
                rows.append(row)
        else:
            p = Fraction(pt.coordinate)
            for r in range(m):
                # r-th Taylor coefficient of the polynomial at p
                row = [
                    Fraction(comb(s, r)) * p ** (s - r) if s >= r else Fraction(0)
                    for s in range(N + 1)
                ]
                rows.append(row)
    if not rows:
        return N + 1
    return N + 1 - matrix_rank(rows)


def abel_check(profile: FiltrationProfile) -> bool:
    """Summation-by-parts identity: sum_k k*(r_{k-1}-r_k) == sum_k r_k."""
    r = profile.ranks
    lhs = sum(k * (r[k - 1] - r[k]) for k in range(1, len(r)))
    return lhs == sum(r)


def quadratic_bound_check(profile: FiltrationProfile) -> bool:
    """Triangular lower bound: sum_k r_k >= r_0 (r_0 + 1) / 2, exactly."""
    r = profile.ranks
    if any(r[k] < max(r[0] - k, 0) for k in range(len(r))):
        raise PreconditionError("profile drops faster than one rank per step")
    return sum(r) * 2 >= r[0] * (r[0] + 1)
