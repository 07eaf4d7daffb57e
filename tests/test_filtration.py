from fractions import Fraction

import pytest

from capgame.errors import PreconditionError
from capgame.filtration import (
    FiltrationProfile,
    abel_check,
    filtration_ranks,
    quadratic_bound_check,
    rank_oracle,
)
from capgame.formal import INFINITY, MarkedPoint
from capgame.schedule import build_schedule

F = Fraction


def points_for(coords):
    return [MarkedPoint(i + 1, c) for i, c in enumerate(coords)]


def test_profile_invariants():
    FiltrationProfile(3, (4, 3, 2, 1, 0))
    with pytest.raises(PreconditionError):
        FiltrationProfile(3, (3, 2, 1, 0))  # must start at N+1
    with pytest.raises(PreconditionError):
        FiltrationProfile(2, (3, 3, 0))  # drop of 3
    with pytest.raises(PreconditionError):
        FiltrationProfile(2, (3, 2, 1))  # must end at 0
    with pytest.raises(PreconditionError):
        FiltrationProfile(2, (3, 2, 1, 0, 0))  # must stop at the first 0


def test_filtration_ranks_single_point():
    pts = points_for([F(0)])
    sched = build_schedule([F(1)], 10)
    prof = filtration_ranks(3, sched, pts)
    assert prof.ranks == (4, 3, 2, 1, 0)


def test_filtration_ranks_two_points():
    pts = points_for([F(0), F(1)])
    sched = build_schedule([F(1, 2), F(1, 2)], 10)
    prof = filtration_ranks(2, sched, pts)
    assert prof.ranks == (3, 2, 1, 0)


def test_filtration_ranks_constants():
    pts = points_for([F(0)])
    sched = build_schedule([F(1)], 5)
    assert filtration_ranks(0, sched, pts).ranks == (1, 0)


def test_filtration_horizon_precondition():
    pts = points_for([F(0)])
    sched = build_schedule([F(1)], 3)
    with pytest.raises(PreconditionError):
        filtration_ranks(3, sched, pts)  # needs K >= N+1+|I| = 5


def test_rank_oracle_examples():
    assert rank_oracle(3, points_for([F(0)]), [2]) == 2
    assert rank_oracle(2, points_for([F(0), F(1)]), [1, 1]) == 1
    assert rank_oracle(2, points_for([F(0), F(1)]), [0, 0]) == 3


def test_rank_oracle_at_infinity():
    # vanishing at infinity caps the degree
    pts = points_for([INFINITY])
    assert rank_oracle(3, pts, [2]) == 2  # degree <= 1
    pts = points_for([F(0), INFINITY])
    assert rank_oracle(3, pts, [2, 2]) == 0


def test_rank_oracle_matches_closed_form():
    # exact linear algebra agrees with max(N+1-k, 0) along greedy schedules
    cases = [
        [F(0)],
        [F(0), F(1)],
        [F(0), F(-2), INFINITY],
        [F(1, 2), F(3)],
        [F(2, 3), F(-1, 5), F(7)],
    ]
    for coords in cases:
        pts = points_for(coords)
        m = len(pts)
        a = [F(1, m)] * m if m > 1 else [F(1)]
        if m == 3:
            a = [F(1, 2), F(1, 4), F(1, 4)]
        for N in range(0, 6):
            sched = build_schedule(a, N + 2 + m, ids=[p.id for p in pts])
            counts = {pid: 0 for pid in sched.ids}
            for k, pid in enumerate(sched.sequence, start=1):
                counts[pid] += 1
                if k > N + 2:
                    break
                orders = [counts[p.id] for p in pts]
                expected = max(N + 1 - k, 0)
                assert rank_oracle(N, pts, orders) == expected


def test_abel_identity():
    assert abel_check(FiltrationProfile(3, (4, 3, 2, 1, 0)))
    assert abel_check(FiltrationProfile(0, (1, 0)))
    assert abel_check(FiltrationProfile(2, (3, 3, 2, 2, 1, 0)))


def test_quadratic_bound():
    assert quadratic_bound_check(FiltrationProfile(3, (4, 3, 2, 1, 0)))  # equality
    assert quadratic_bound_check(FiltrationProfile(1, (2, 2, 1, 0)))  # 5 >= 3
    assert quadratic_bound_check(FiltrationProfile(0, (1, 0)))
    # single-step drops force r_k >= max(r_0 - k, 0), so the generic profile
    # attains the triangular bound exactly
    prof = FiltrationProfile(4, (5, 4, 3, 2, 1, 0))
    assert sum(prof.ranks) * 2 == prof.ranks[0] * (prof.ranks[0] + 1)
