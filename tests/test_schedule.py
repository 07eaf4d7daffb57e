import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgame.errors import PreconditionError
from capgame.exact import scaled
from capgame.game import _column_payoffs, rationalize_matrix
from capgame.schedule import (
    BoundsReport,
    Schedule,
    WeightedFloorReport,
    _one_period,
    _worst_step,
    build_schedule,
    check_bounds,
    weighted_floor,
)

F = Fraction


def normalized(weights):
    total = sum(weights)
    return [F(w, total) for w in weights]


def test_single_point_schedule():
    s = build_schedule([F(1)], 5)
    assert s.sequence == (1, 1, 1, 1, 1)
    assert s.omega_final() == {1: 5}


def test_hand_example_two_thirds():
    s = build_schedule([F(2, 3), F(1, 3)], 3)
    assert s.sequence == (1, 2, 1)
    assert s.omega_final() == {1: 2, 2: 1}


def test_tie_break_smallest_id():
    s = build_schedule([F(1, 2), F(1, 2)], 4)
    assert s.sequence == (1, 2, 1, 2)


def test_custom_ids():
    s = build_schedule([F(1, 2), F(1, 2)], 2, ids=[10, 42])
    assert s.sequence == (10, 42)
    with pytest.raises(PreconditionError):
        build_schedule([F(1, 2), F(1, 2)], 2, ids=[42, 10])  # not ascending


def test_weight_validation():
    with pytest.raises(PreconditionError):
        build_schedule([F(1, 2), F(1, 3)], 3)
    with pytest.raises(PreconditionError):
        build_schedule([F(3, 2), F(-1, 2)], 3)
    with pytest.raises(PreconditionError):
        build_schedule([F(1)], -1)


def test_bounds_of_greedy_schedule():
    rng = random.Random(5)
    for _ in range(25):
        m = rng.randint(1, 8)
        a = normalized([rng.randint(1, 9) for _ in range(m)])
        s = build_schedule(a, 500)
        rep = check_bounds(s)
        assert rep.verdict
        assert rep.max_dev <= 1 and rep.min_dev >= 1 - m


def test_bounds_reject_bad_schedule():
    from capgame.schedule import Schedule

    bad = Schedule(ids=(1, 2), a=(F(1, 2), F(1, 2)), K=4, sequence=(1, 1, 1, 1))
    rep = check_bounds(bad)
    assert not rep.verdict
    assert rep.max_dev == 2  # omega_1(4) - 4/2 = 4 - 2


def test_bounds_empty_schedule():
    s = build_schedule([F(1, 3), F(2, 3)], 0)
    rep = check_bounds(s)
    assert rep.verdict and rep.max_dev == 0 and rep.min_dev == 0


def test_omega_history_counts_visits():
    s = build_schedule([F(2, 3), F(1, 3)], 3)
    history = [(k, dict(counts)) for k, counts in s.omega_history()]
    assert history[0] == (0, {1: 0, 2: 0})
    assert history[-1] == (3, {1: 2, 2: 1})
    assert all(sum(c.values()) == k for k, c in history)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=200))
def test_bounds_property(weights, K):
    a = normalized(weights)
    s = build_schedule(a, K)
    assert check_bounds(s).verdict


def test_weighted_floor_single_point():
    s = build_schedule([F(1)], 100)
    rep = weighted_floor(s, [[math.log(2)]], F(1, 2))
    assert rep.c == 0
    assert rep.precondition_ok


def test_weighted_floor_two_points():
    s = build_schedule([F(1, 2), F(1, 2)], 100)
    rep = weighted_floor(s, [[F(0), F(1)], [F(1), F(0)]], F(1, 4))
    assert rep.precondition_ok
    assert 0 <= rep.c <= 1  # bounded by max deviation times max entry


def test_weighted_floor_k_zero():
    s = build_schedule([F(1, 2), F(1, 2)], 0)
    assert weighted_floor(s, [[F(0), F(1)], [F(1), F(0)]], F(1, 4)).c == 0


def test_weighted_floor_constant_beyond_burn_in():
    # the corollary's constant does not grow with the horizon
    a = [F(2, 5), F(3, 5)]
    g = [[F(1, 3), F(2)], [F(2), F(1, 2)]]
    c_small = weighted_floor(build_schedule(a, 1000), g, F(1, 5)).c
    c_large = weighted_floor(build_schedule(a, 10000), g, F(1, 5)).c
    assert c_small == c_large


def test_weighted_floor_infinite_entries():
    s = build_schedule([F(1, 2), F(1, 2)], 50)
    g = [[F(0), math.inf], [math.inf, F(0)]]
    rep = weighted_floor(s, g, F(100))
    # once a column picks up an infinite contribution its constraint holds
    assert rep.c <= 100
    assert rep.precondition_ok


def test_weighted_floor_precondition_diagnostic():
    s = build_schedule([F(1, 2), F(1, 2)], 10)
    rep = weighted_floor(s, [[F(0), F(1)], [F(1), F(0)]], F(2))
    assert not rep.precondition_ok  # reported, not raised
    assert rep.c > 0


# --- equivalence with the step-by-step Fraction loops -------------------------
#
# The library certifies one period and extrapolates; the reference below walks
# every step with Fraction sums.  Whole reports and schedules must agree.


def _ref_build(a, K, ids=None):
    weights = tuple(F(v) for v in a)
    m = len(weights)
    id_list = tuple(ids) if ids is not None else tuple(range(1, m + 1))
    d = math.lcm(*(w.denominator for w in weights))
    n = [int(w * d) for w in weights]
    v = [0] * m
    seq = []
    for _ in range(K):
        j = v.index(min(v))
        seq.append(id_list[j])
        v = [v[i] - n[i] for i in range(m)]
        v[j] += d
    return Schedule(ids=id_list, a=weights, K=K, sequence=tuple(seq))


def _ref_bounds(schedule):
    m = schedule.size
    d = math.lcm(*(w.denominator for w in schedule.a))
    n = [int(w * d) for w in schedule.a]
    pos = {pid: i for i, pid in enumerate(schedule.ids)}
    v = [0] * m
    max_num, min_num = 0, 0
    for pid in schedule.sequence:
        j = pos[pid]
        v = [v[i] - n[i] for i in range(m)]
        v[j] += d
        max_num = max(max_num, max(v))
        min_num = min(min_num, min(v))
    max_dev, min_dev = F(max_num, d), F(min_num, d)
    return BoundsReport(max_dev=max_dev, min_dev=min_dev,
                        verdict=(max_dev <= 1 and min_dev >= 1 - m))


def _ref_floor(schedule, matrix, v_prime):
    rows = rationalize_matrix(matrix)
    m = schedule.size
    v_prime = F(v_prime)
    precondition_ok = all(col > v_prime for col in _column_payoffs(rows, schedule.a))
    pos = {pid: i for i, pid in enumerate(schedule.ids)}
    sums = [F(0)] * m
    c, worst_k, worst_j = F(0), 0, 0
    for k, pid in enumerate(schedule.sequence, start=1):
        i = pos[pid]
        for j in range(m):
            if sums[j] == math.inf:
                continue
            entry = rows[i][j]
            sums[j] = math.inf if entry == math.inf else sums[j] + entry
            if sums[j] != math.inf:
                gap = k * v_prime - sums[j]
                if gap > c:
                    c, worst_k, worst_j = gap, k, j
    return WeightedFloorReport(c=c, precondition_ok=precondition_ok,
                               worst_k=worst_k, worst_column=worst_j)


def _random_weights(rng, m, short_period):
    if short_period:
        raw = [rng.randint(1, 6) for _ in range(m)]
        return normalized(raw)
    raw = [F(rng.random()).limit_denominator(10**6) for _ in range(m)]
    return [w / sum(raw) for w in raw]


def _random_matrix(rng, m, kind):
    def entry():
        if kind == "float":
            return rng.uniform(-2, 3)
        return F(rng.randint(-20, 30), rng.randint(1, 12))

    rows = [[entry() for _ in range(m)] for _ in range(m)]
    if kind == "inf":
        for _ in range(rng.randint(1, m)):
            rows[rng.randrange(m)][rng.randrange(m)] = math.inf
    return rows


def _assert_same(sched, matrix, v_prime):
    assert check_bounds(sched) == _ref_bounds(sched)
    assert weighted_floor(sched, matrix, v_prime) == _ref_floor(sched, matrix, v_prime)


def test_equivalence_random_schedules():
    rng = random.Random(2024)
    for case in range(300):
        m = rng.randint(1, 8)
        a = _random_weights(rng, m, short_period=case % 2 == 0)
        d = math.lcm(*(w.denominator for w in a))
        horizons = [0, 1, rng.randint(1, 400)]
        if d <= 100:  # K a multiple of the period, and one that is not
            horizons += [d, 2 * d, 3 * d + rng.randint(1, max(1, d - 1))]
        K = rng.choice(horizons)
        sched = build_schedule(a, K)
        assert sched == _ref_build(a, K)
        for kind in ("float", "fraction", "inf"):
            matrix = _random_matrix(rng, m, kind)
            v_prime = F(rng.randint(-10, 40), rng.randint(1, 9))
            _assert_same(sched, matrix, v_prime)


def test_equivalence_lcm_above_horizon():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(2, 6)
        a = _random_weights(rng, m, short_period=False)
        K = rng.randint(50, 300)
        assert math.lcm(*(w.denominator for w in a)) > K
        sched = build_schedule(a, K, ids=range(10, 10 + m))
        assert sched == _ref_build(a, K, ids=range(10, 10 + m))
        _assert_same(sched, _random_matrix(rng, m, "float"), F(1, 3))


def test_equivalence_column_dies_mid_period():
    # period 7; the +inf entry in row 2 kills column 0 at the first visit to
    # point 2, in the middle of the first period
    a = [F(3, 7), F(2, 7), F(2, 7)]
    sched = build_schedule(a, 7 * 20 + 3)
    assert sched.sequence[:7] == (1, 2, 3, 1, 2, 3, 1)
    g = [[F(1, 2), F(0), F(1)], [F(1), F(1, 3), F(0)], [math.inf, F(2), F(1, 5)]]
    for v_prime in (F(1, 10), F(1, 2), F(2), F(5)):
        _assert_same(sched, g, v_prime)
    assert weighted_floor(sched, g, F(5)).worst_column != 0


def test_equivalence_horizon_multiple_and_not_of_period():
    a = [F(1, 2), F(1, 3), F(1, 6)]
    g = [[F(1), F(-1), F(2)], [F(0), F(3), F(-1)], [F(2), F(1), F(0)]]
    for K in (0, 5, 6, 12, 600, 601, 605):
        sched = build_schedule(a, K)
        assert sched == _ref_build(a, K)
        for v_prime in (F(-1), F(1, 2), F(3, 4), F(7, 6), F(3)):
            _assert_same(sched, g, v_prime)


def test_equivalence_ties():
    # small integer entries make equal gaps common: across columns, across
    # residues of the period, and between the last two periods of the horizon
    rng = random.Random(3)
    for _ in range(300):
        m = rng.randint(1, 4)
        a = _random_weights(rng, m, short_period=True)
        K = rng.randint(0, 60)
        g = [[F(rng.randint(0, 2)) for _ in range(m)] for _ in range(m)]
        _assert_same(build_schedule(a, K), g, F(rng.randint(1, 4), 2))


def test_equivalence_broken_periodic_prefix():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(2, 5)
        a = _random_weights(rng, m, short_period=True)
        d = math.lcm(*(w.denominator for w in a))
        K = d * rng.randint(3, 8) + rng.randint(0, d)
        seq = list(build_schedule(a, K).sequence)
        # break the repetition late in the sequence
        k = rng.randint(max(d, K - d), K - 1)
        seq[k] = rng.choice([pid for pid in range(1, m + 1) if pid != seq[k]])
        bad = Schedule(ids=tuple(range(1, m + 1)), a=tuple(a), K=K, sequence=tuple(seq))
        matrix = _random_matrix(rng, m, rng.choice(["float", "fraction", "inf"]))
        _assert_same(bad, matrix, F(rng.randint(0, 20), 7))



def _global_denominator_floor(schedule, matrix, v_prime):
    """weighted_floor with one common denominator D of v' and every column."""
    game = rationalize_matrix(matrix)
    v_prime = F(v_prime)
    precondition_ok = all(col > v_prime for col in _column_payoffs(game, schedule.a))
    n, d = scaled(schedule.a)
    idx = _one_period(schedule, d, n)
    K, P = len(schedule.sequence), len(idx)
    D = math.lcm(v_prime.denominator, *(scale for _, scale, _ in game.columns))
    V = v_prime.numerator * (D // v_prime.denominator)
    c, worst_k, worst_j = 0, 0, 0
    for j, (nums, scale, inf_rows) in enumerate(game.columns):
        gain = [V - a * (D // scale) for a in nums]
        end = min((idx.index(i) for i in inf_rows if i in idx), default=P)
        gaps = list(accumulate(gain[i] for i in idx[:end]))
        if not gaps:
            continue
        gap, k = _worst_step(gaps, K, P)
        if gap > c or (gap == c and k < worst_k):
            c, worst_k, worst_j = gap, k, j
    return WeightedFloorReport(c=F(c, D), precondition_ok=precondition_ok,
                               worst_k=worst_k, worst_column=worst_j)


def test_weighted_floor_matches_the_global_denominator():
    # each column on its own denominator, compared by cross-multiplication,
    # against one denominator for the whole matrix: same c, worst_k and
    # worst_column, with ties across columns (duplicated columns and small
    # entries), +inf columns, and points no step visits (K < m: weight 0)
    rng = random.Random(523)
    for case in range(600):
        m = rng.randint(1, 7)
        a = _random_weights(rng, m, short_period=case % 3 != 0)
        d = math.lcm(*(w.denominator for w in a))
        horizons = [0, 1, max(0, m - 2), rng.randint(1, 300)]
        K = rng.choice(horizons + ([d, 3 * d + 1] if d <= 60 else []))
        sched = build_schedule(a, K)
        # small entries on small denominators make equal gaps at different steps common
        small = case % 2
        choices = (1, 2) if small else (1, 2, 3, 4, 6, 10**12 - 11, 2**40)
        dens = [rng.choice(choices) for _ in range(m)]
        cols = [[F(rng.randint(0, 2) if small else rng.randint(-6, 12), dj) for _ in range(m)]
                for dj in dens]
        for _ in range(rng.randint(0, 2)):  # a duplicated column ties with its copy
            cols[rng.randrange(m)] = list(cols[rng.randrange(m)])
        for _ in range(rng.randint(0, m)):
            cols[rng.randrange(m)][rng.randrange(m)] = math.inf
        matrix = [list(row) for row in zip(*cols)]
        v_prime = F(rng.randint(-10, 40), rng.choice((1, 2, 3, 7, 9, 10**9 + 7)))
        if small:
            v_prime = F(rng.randint(1, 4), rng.choice((1, 2, 4)))
        got = weighted_floor(sched, matrix, v_prime)
        assert got == _global_denominator_floor(sched, matrix, v_prime), (case, matrix, v_prime)
