import math
import random
from fractions import Fraction

import pytest

from capgame import lp
from capgame.errors import ComputationError, PreconditionError
from capgame.game import (
    GameValueResult,
    Strategy,
    _beats,
    _column_payoffs,
    _simplify_strategy,
    game_value,
    minimax_check,
    payoff_floor,
    rational_strategy,
    rationalize_entry,
    rationalize_matrix,
)

F = Fraction
INF = math.inf


def random_matrix(rng, n, lo=-6, hi=6, den=6):
    return [[F(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]


def test_strategy_validation():
    with pytest.raises(PreconditionError):
        Strategy((F(1, 2), F(1, 3)))
    with pytest.raises(PreconditionError):
        Strategy((F(3, 2), F(-1, 2)))
    s = Strategy.uniform(4)
    assert sum(s) == 1 and len(s) == 4


def test_payoff_floor_examples():
    assert payoff_floor([[F(1)]], (F(1),)) == 1
    assert payoff_floor([[F(0), F(1)], [F(1), F(0)]], (F(1, 2), F(1, 2))) == F(1, 2)
    assert payoff_floor([[0.0, INF], [INF, 0.0]], (F(1, 2), F(1, 2))) == INF
    # the 0 * inf = 0 convention
    assert payoff_floor([[F(1), INF], [F(5), F(2)]], (F(0), F(1))) == 2


def test_game_value_singleton():
    r = game_value([[math.log(2)]])
    assert float(r.value) == pytest.approx(math.log(2), abs=1e-12)
    assert list(r.x_star) == [1] and list(r.y_star) == [1]


def test_game_value_two_by_two_exact():
    r = game_value([[F(0), F(1)], [F(1), F(0)]])
    assert r.value == F(1, 2)
    assert list(r.x_star) == [F(1, 2), F(1, 2)]
    assert list(r.y_star) == [F(1, 2), F(1, 2)]
    assert r.certificate == (F(1, 2), F(1, 2))
    assert r.margin_flag == "ok"


def test_game_value_infinite():
    r = game_value([[0.0, INF], [INF, 0.0]])
    assert r.is_infinite
    assert r.y_star is None
    assert payoff_floor([[0.0, INF], [INF, 0.0]], r.x_star) == INF


def test_game_value_infinite_entry_finite_value():
    # column 0 is infinity-free, so the value is finite; here it is the
    # supremum 2 = lim over x = (eps, 1-eps), which no strategy attains,
    # so the returned maximizer is only required to come within 1e-9
    g = [[F(1), INF], [F(2), F(0)]]
    r = game_value(g)
    assert not r.is_infinite
    assert r.value == 2
    assert payoff_floor(g, r.x_star) >= r.value - F(1, 10**9)
    assert all(w > 0 for w in r.x_star)  # full support forces column 1 to inf


def test_game_value_infinite_entry_attained():
    # only column 2 is infinity-free, so V = 1, and x = (1/2, 1/2, 0)
    # attains it: both other columns then pay +inf
    g = [[F(0), INF, F(1)], [INF, F(0), F(1)], [F(1), F(1), F(0)]]
    r = game_value(g)
    assert r.value == 1
    assert payoff_floor(g, r.x_star) >= r.value - F(1, 10**9)


def test_margin_flag():
    assert game_value([[F(1, 10**9)]]).margin_flag == "marginal"
    assert game_value([[F(0)]]).margin_flag == "marginal"
    assert game_value([[F(1, 2)]]).margin_flag == "ok"


def test_minimax_on_random_matrices():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        assert minimax_check(random_matrix(rng, n))


def test_minimax_requires_finite():
    with pytest.raises(PreconditionError):
        minimax_check([[0.0, INF], [INF, 0.0]])


def test_value_bounded_below_by_row_minima():
    # the always-true degeneration bound: playing the pure row i floors the
    # value at min_j G_ij, hence at G_ii whenever G_ii is its row minimum
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 5)
        g = [
            [
                F(rng.randint(-8, 8), rng.randint(1, 4)) if i == j
                else F(rng.randint(0, 8), rng.randint(1, 4))
                for j in range(n)
            ]
            for i in range(n)
        ]
        r = game_value(g)
        assert r.value >= max(min(row) for row in g)


def test_value_dominates_diagonal_when_diagonal_nonpositive():
    # with off-diagonal >= 0 and every G_ii <= 0, each diagonal entry is its
    # row minimum, so the value dominates the whole diagonal
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 5)
        g = [
            [
                F(-rng.randint(0, 8), rng.randint(1, 4)) if i == j
                else F(rng.randint(0, 8), rng.randint(1, 4))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert game_value(g).value >= max(g[i][i] for i in range(n))


def test_value_can_drop_below_a_positive_diagonal():
    # the naive bound value >= max_i G_ii fails once positive diagonal
    # entries stop being their rows' minima: two far-apart points with
    # identical capacities average out
    r = game_value([[F(5), F(0)], [F(0), F(5)]])
    assert r.value == F(5, 2)
    # it also fails with unequal capacities: the value is the harmonic blend
    r = game_value([[F(1), F(0)], [F(0), F(5)]])
    assert r.value == F(5, 6)


def test_value_monotone_in_entries():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        g = random_matrix(rng, n)
        bigger = [
            [g[i][j] + F(rng.randint(0, 3), rng.randint(1, 3)) for j in range(n)]
            for i in range(n)
        ]
        assert game_value(g).value <= game_value(bigger).value


def test_value_shift_invariance():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 4)
        g = random_matrix(rng, n)
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        shifted = [[v + c for v in row] for row in g]
        r, rs = game_value(g), game_value(shifted)
        assert rs.value == r.value + c
        # the old optimal strategies stay optimal for the shifted game
        assert payoff_floor(shifted, r.x_star) >= rs.value


def test_certificate_soundness_random():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 5)
        g = random_matrix(rng, n)
        r = game_value(g)
        assert payoff_floor(g, r.x_star) >= r.value
        assert min(r.certificate) >= r.value


def test_rational_strategy_examples():
    r = rational_strategy([[math.log(2)]], F(1, 2))
    assert list(r) == [1]
    r = rational_strategy([[F(0), F(1)], [F(1), F(0)]], F(1, 4))
    assert list(r) == [F(1, 2), F(1, 2)]
    r = rational_strategy([[0.0, INF], [INF, 0.0]], F(100))
    assert list(r) == [F(1, 2), F(1, 2)]


def test_rational_strategy_strictly_positive_and_beats():
    rng = random.Random(43)
    done = 0
    while done < 25:
        n = rng.randint(2, 5)
        g = random_matrix(rng, n)
        res = game_value(g)
        if res.value <= 0:
            continue
        v_prime = res.value / 2
        a = rational_strategy(g, v_prime, result=res)
        assert all(w > 0 for w in a)
        assert sum(a.weights) == 1
        for j in range(n):
            assert sum(a[i] * g[i][j] for i in range(n)) > v_prime
        done += 1


def test_rational_strategy_precondition():
    with pytest.raises(PreconditionError):
        rational_strategy([[F(1)]], F(2))


def reference_rational_strategy(matrix, v_prime, result=None):
    """rational_strategy by the former search: halve the blend eps from 1/2
    up to 200 times until every column payoff beats v_prime."""
    rows = rationalize_matrix(matrix)
    n = len(rows)
    v_prime = F(v_prime)
    if result is None:
        result = game_value(rows)
    if not result.is_infinite and v_prime >= result.value:
        raise PreconditionError("v_prime must be strictly below the game value")
    bary = Strategy.uniform(n)
    if result.is_infinite:
        if _beats(rows, bary.weights, v_prime):
            return bary
        raise ComputationError("barycenter fails to certify an infinite value")
    eps = F(1, 2)
    for _ in range(200):
        cand = tuple((1 - eps) * xs + eps * bi for xs, bi in zip(result.x_star, bary))
        if all(v > 0 for v in cand) and _beats(rows, cand, v_prime):
            return _simplify_strategy(rows, cand, v_prime)
        eps /= 2
    raise ComputationError("failed to construct a strictly positive strategy")


def strategy_outcome(fn, *args):
    try:
        return fn(*args)
    except (ComputationError, PreconditionError) as exc:
        return type(exc), str(exc)


def strategy_pool():
    """Seeded 2-8 point games, about 10% +inf off the diagonal, with their
    optimal results, and at v' = V/2 with a random (suboptimal) x_star."""
    rng = random.Random(107)
    for trial in range(80):
        n = rng.randint(2, 8)
        g = random_matrix(rng, n, lo=-2) if trial % 2 else float_matrix(rng, n, n)
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.1:
                    g[i][j] = INF
        res = game_value(g)
        raw = [F(rng.randint(0, 5)) for _ in range(n)]
        raw[rng.randrange(n)] += 1
        mixed = GameValueResult(res.value, Strategy(tuple(w / sum(raw) for w in raw)), None, ())
        v = F(1) if res.is_infinite else res.value
        for v_prime in (v / 2, v - F(1, 10**9), v - F(1, 10**12), 999 * v / 1000):
            yield g, v_prime, res
        if not res.is_infinite:
            yield g, v / 2, mixed
    # the largest admissible eps lies above 2**-200 in one case, below it in the other
    g = [[F(2), F(0)], [F(0), F(1)]]
    res = game_value(g)
    yield g, res.value - F(1, 2**190), res
    yield g, res.value - F(1, 2**250), res


def beats_exactly(g, strategy, v_prime):
    """Every weight is positive and every column pays more than v_prime."""
    return all(w > 0 for w in strategy) and payoff_floor(g, strategy) > v_prime


def test_rational_strategy_matches_the_halving_search():
    kinds = set()
    rescued = 0
    for g, v_prime, res in strategy_pool():
        got = strategy_outcome(rational_strategy, g, v_prime, res)
        want = strategy_outcome(reference_rational_strategy, g, v_prime, res)
        blended = not res.is_infinite and res.certificate and min(res.certificate) < res.value
        if blended and isinstance(want, tuple) and want[0] is ComputationError:
            # the halving search blends game_value's blend, which may sit
            # above v_prime; rational_strategy then blends the LP maximizer
            assert isinstance(got, Strategy) and beats_exactly(g, got, v_prime), g
            rescued += 1
        else:
            assert got == want, g
        kinds.add(got[0] if isinstance(got, tuple) else Strategy)
    assert kinds == {Strategy, ComputationError, PreconditionError}
    assert rescued > 0


def test_rationalization_of_floats():
    # float input is rationalized before the LP, so 0.5 is exactly 1/2
    r = game_value([[0.0, 0.5], [0.5, 0.0]])
    assert r.value == F(1, 4)


# --- crossover against the exact simplex ---------------------------------------


def bland_game_value(monkeypatch, matrix):
    """game_value with the crossover switched off: the Bland simplex alone."""
    with monkeypatch.context() as m:
        m.setattr(lp, "_crossover", lambda rows: None)
        return game_value(matrix)


def float_matrix(rng, m, k):
    return [[rng.uniform(-3, 3) for _ in range(k)] for _ in range(m)]


def rationalized(matrix):
    return [[rationalize_entry(v) for v in row] for row in matrix]


def test_crossover_matches_bland_on_square_games(monkeypatch):
    rng = random.Random(61)
    certified = 0
    for n in range(1, 17):
        cases = [random_matrix(rng, n, den=rng.choice((1, 6)))]
        if n <= 12:
            cases.append(float_matrix(rng, n, n))
        for g in cases:
            certified += lp._crossover(rationalized(g)) is not None
            assert game_value(g) == bland_game_value(monkeypatch, g)
    # all 28 seeded games are certified today; the bound only makes sure
    # that the crossover, not the fallback, is what was compared
    assert certified >= 20


def test_crossover_matches_bland_on_rectangular_games():
    rng = random.Random(67)
    for _ in range(60):
        m, k = rng.randint(1, 16), rng.randint(1, 16)
        g = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)] for _ in range(m)]
        cases = [g]
        if max(m, k) <= 10:
            cases.append(rationalized(float_matrix(rng, m, k)))
        for rows in cases:
            assert lp.solve(rows) == lp.solve_bland(rows)


def test_crossover_certifies_generic_float_games():
    # a generic game has a unique equilibrium, so the crossover must not fall back
    rng = random.Random(71)
    for _ in range(30):
        m, k = rng.randint(1, 12), rng.randint(1, 12)
        rows = rationalized(float_matrix(rng, m, k))
        assert lp._crossover(rows) == lp.solve_bland(rows)


DEGENERATE_GAMES = [
    # duplicate rows in the support: x is not unique
    [[F(0), F(1), F(9)], [F(1), F(0), F(9)], [F(0), F(1), F(9)]],
    # duplicate columns in the support: y is not unique
    [[F(0), F(1), F(0)], [F(1), F(0), F(1)], [F(-9), F(-9), F(-9)]],
    # a constant matrix: every strategy is optimal
    [[F(2), F(2)], [F(2), F(2)]],
    # a pure saddle point tied along its row
    [[F(1), F(1)], [F(0), F(2)]],
    # a pure saddle point tied along its column
    [[F(1), F(3)], [F(1), F(0)]],
    # a column outside the support paying exactly the value
    [[F(0), F(1), F(1, 2)], [F(1), F(0), F(1, 2)], [F(-5), F(-5), F(-5)]],
    # a row outside the support paying exactly the value
    [[F(0), F(1), F(5)], [F(1), F(0), F(5)], [F(1, 2), F(1, 2), F(5)]],
]


@pytest.mark.parametrize("g", DEGENERATE_GAMES)
def test_crossover_falls_back_on_degenerate_games(monkeypatch, g):
    assert lp._crossover(rationalized(g)) is None
    assert game_value(g) == bland_game_value(monkeypatch, g)


def test_crossover_falls_back_on_a_singular_support(monkeypatch):
    # a float guess whose support submatrix has two equal columns: the
    # bordered system is singular, so the crossover gives up and Bland decides
    rows = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    monkeypatch.setattr(lp, "_float_supports", lambda rows: ([0, 1], [0, 1]))
    assert lp._solve_bordered([[F(1), F(1)], [F(0), F(0)]]) is None
    assert lp._crossover(rows) is None
    assert lp.solve(rows) == lp.solve_bland(rows)


def test_crossover_certifies_strict_pure_saddle_point(monkeypatch):
    g = [[F(3), F(5), F(4)], [F(1), F(0), F(2)], [F(2), F(-1), F(0)]]
    r = game_value(g)
    assert lp._crossover(g) is not None
    assert r == bland_game_value(monkeypatch, g)
    assert r.value == 3 and list(r.x_star) == [1, 0, 0] and list(r.y_star) == [1, 0, 0]


def test_crossover_matches_bland_on_infinite_games(monkeypatch):
    rng = random.Random(73)
    games = [
        [[F(1), INF], [F(2), F(0)]],
        [[F(0), INF, F(1)], [INF, F(0), F(1)], [F(1), F(1), F(0)]],
    ]
    for n in range(3, 7):
        # the shape of a divergent extra place: one +inf pair on a random game
        g = random_matrix(rng, n)
        i, j = rng.sample(range(n), 2)
        g[i][j] = g[j][i] = INF
        games.append(g)
    for g in games:
        assert game_value(g) == bland_game_value(monkeypatch, g)


def count_simplex_calls(monkeypatch, matrix):
    calls = []
    real = lp._simplex_max

    def spy(*args):
        calls.append(1)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(lp, "_simplex_max", spy)
        result = game_value(matrix)
    return result, len(calls)


def test_generic_game_never_enters_the_simplex(monkeypatch):
    g = float_matrix(random.Random(79), 14, 14)
    _, calls = count_simplex_calls(monkeypatch, g)
    assert calls == 0
    _, calls = count_simplex_calls(monkeypatch, DEGENERATE_GAMES[0])
    assert calls > 0


def test_symmetric_game_n20_certified_exactly(monkeypatch):
    rng = random.Random(83)
    n = 20
    g = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.uniform(0, 3) if i == j else math.log(rng.uniform(0.1, 5))
    r, calls = count_simplex_calls(monkeypatch, g)
    assert calls == 0
    rows = rationalized(g)
    # exact optimality: x guarantees the value and y concedes no more
    assert min(r.certificate) == r.value
    assert max(sum(row[j] * r.y_star[j] for j in range(n)) for row in rows) == r.value


def test_fourteen_infinity_patterns_value_is_a_supremum():
    # only column 0 is infinity-free, so V = val(G[:, {0}]) = 1; no strategy
    # attains it: column 0 pays 1 only against row 1 alone, which leaves
    # column 1 at 0.  The old cap doubling never settled here, and 14
    # infinity patterns were past its support enumeration
    n = 14
    g = [[F(-100)] * n for _ in range(n)]
    g[0] = [F(0), INF] + [F(5)] * (n - 2)
    g[1] = [F(1), F(0)] + [F(5)] * (n - 2)
    for i in range(2, n):
        g[i][i] = INF
    assert payoff_floor(g, Strategy.uniform(n)) == F(-1199, 14)
    r = game_value(g)
    assert r.value == 1
    assert payoff_floor(g, r.x_star) >= 1 - F(1, 10**9)
    assert max_row_payoff(g, r.y_star) <= 1


def test_strategy_beats_values_just_below_a_supremum():
    # game_value's x_star floors at most 1e-9 below V = 1 on this matrix, so
    # v' closer to V needs a blend of the unblended LP maximizer
    n = 14
    g = [[F(-100)] * n for _ in range(n)]
    g[0] = [F(0), INF] + [F(5)] * (n - 2)
    g[1] = [F(1), F(0)] + [F(5)] * (n - 2)
    for i in range(2, n):
        g[i][i] = INF
    r = game_value(g)
    assert payoff_floor(g, r.x_star) < 1
    for v_prime in (F(1, 2), 1 - F(1, 10**10), 1 - F(1, 10**12)):
        assert beats_exactly(g, rational_strategy(g, v_prime, r), v_prime)


# --- +inf games against an exact support enumeration --------------------------


def max_row_payoff(rows, y):
    """max over rows i of sum_j G_ij y_j, with the convention 0*inf = 0."""
    transposed = [list(col) for col in zip(*rows)]
    return max(_column_payoffs(transposed, tuple(y)))


def reference_value(rows):
    """The sup-inf value by enumeration over row supports.

    A strategy fully mixed on a row support S pays +inf on every column that
    meets an infinity in S, so its best floor is the value of the finite game
    S x (the other columns), or +inf when no column is left.  Closing S up
    to every row whose infinities lie in the same blocked set never lowers
    that value, so unions of the distinct infinity patterns suffice.
    """
    n = len(rows)
    pattern = [frozenset(j for j in range(n) if rows[i][j] == INF) for i in range(n)]
    distinct = sorted(set(pattern), key=sorted)
    best = None
    for mask in range(1 << len(distinct)):
        blocked = frozenset().union(*(p for t, p in enumerate(distinct) if mask >> t & 1))
        support = [i for i in range(n) if pattern[i] <= blocked]
        if not support:
            continue
        effective = frozenset().union(*(pattern[i] for i in support))
        cols = [j for j in range(n) if j not in effective]
        if not cols:
            return INF
        value = lp.solve([[rows[i][j] for j in cols] for i in support])[0]
        best = value if best is None else max(best, value)
    return best


def test_infinite_entry_y_star_is_optimal():
    # only column 1 is infinity-free, so V = max(-2, -1) = -1, and y must
    # put all its weight there: (1/12, 11/12) made row 0 pay +inf
    g = [[INF, F(-2)], [F(-1), F(-1)]]
    r = game_value(g)
    assert r.value == -1
    assert list(r.y_star) == [0, 1]
    assert max_row_payoff(g, r.y_star) == -1
    assert payoff_floor(g, r.x_star) == -1


def test_infinite_games_match_support_enumeration():
    rng = random.Random(101)
    slack = F(1, 10**9)
    for _ in range(150):
        n = rng.randint(1, 9)
        g = random_matrix(rng, n, den=rng.choice((1, 4)))
        density = rng.choice((0.1, 0.2, 0.35))
        for i in range(n):
            for j in range(n):
                if rng.random() < density:
                    g[i][j] = INF
        r = game_value(g)
        assert r.value == reference_value(g), g
        floor = payoff_floor(g, r.x_star)
        if r.is_infinite:
            assert floor == INF and r.y_star is None
        else:
            assert floor >= r.value - slack, g
            assert max_row_payoff(g, r.y_star) <= r.value, g
            assert r.certificate == tuple(_column_payoffs(g, r.x_star.weights))


# --- column payoffs on integers ------------------------------------------------


def running_sum_payoff(rows, weights, j):
    """Column payoff as one Fraction addition per term (the former kernel)."""
    acc = F(0)
    for i, w in enumerate(weights):
        if w == 0:
            continue
        if rows[i][j] == INF:
            return INF
        acc += w * rows[i][j]
    return acc


def test_column_payoffs_equal_the_running_sum():
    rng = random.Random(97)
    for trial in range(60):
        n = rng.randint(1, 12)
        rows = rationalized(float_matrix(rng, n, n)) if trial % 2 else random_matrix(rng, n)
        for _ in range(rng.randint(0, n)):
            rows[rng.randrange(n)][rng.randrange(n)] = INF
        raw = [F(rng.randint(0, 3), rng.randint(1, 10**rng.randint(1, 12))) for _ in range(n)]
        weights = [w / sum(raw) for w in raw] if sum(raw) else raw  # zeros included
        got = list(_column_payoffs(rows, weights))
        want = [running_sum_payoff(rows, weights, j) for j in range(n)]
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        assert payoff_floor(rows, weights) == min(want)


# --- the exact game: integer rationalization and stored columns ----------------


def test_rationalize_entry_matches_limit_denominator():
    rng = random.Random(113)
    floats = [0.0, -0.0, 1.0, -3.0, 2.0**52, 0.5, -0.375, 3 / 1024, 1 / 3, -2 / 3, math.pi,
              1e-12, 1e12 + 0.5, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
    for _ in range(400):
        kind = rng.randrange(5)
        if kind == 0:
            floats.append(rng.uniform(-10, 10))
        elif kind == 1:
            floats.append(float(rng.randint(-10**15, 10**15)))
        elif kind == 2:  # dyadic, denominators below and above the bound
            floats.append(rng.randint(-2**20, 2**20) / 2**rng.randint(0, 60))
        elif kind == 3:  # subnormal
            floats.append(rng.uniform(-1, 1) * 2.0**-1022)
        else:
            floats.append(rng.uniform(-1, 1) * 10.0**rng.randint(-300, 308))
    for f in floats:
        got, want = rationalize_entry(f), F(f).limit_denominator(10**12)
        assert type(got) is type(want) and got == want, f
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_stored_columns_match_the_plain_rows():
    rng = random.Random(131)
    for trial in range(60):
        n = rng.randint(1, 10)
        matrix = float_matrix(rng, n, n)
        for _ in range(rng.randint(0, n)):
            matrix[rng.randrange(n)][rng.randrange(n)] = INF
        game = rationalize_matrix(matrix)
        assert rationalize_matrix(game) is game
        plain = [list(r) for r in game]
        raw = [F(rng.randint(0, 3), rng.randint(1, 10**rng.randint(1, 12))) for _ in range(n)]
        weights = [w / sum(raw) for w in raw] if sum(raw) else raw  # zeros included
        got = list(_column_payoffs(game, weights))
        want = [running_sum_payoff(plain, weights, j) for j in range(n)]
        assert got == want == list(_column_payoffs(plain, weights))
        assert [type(v) for v in got] == [type(v) for v in want]
        for v_prime in {F(0), F(-1, 3)} | {v - F(1, 10**9) for v in want if v != INF}:
            assert _beats(game, weights, v_prime) == all(v == INF or v > v_prime for v in want)


def test_rationalize_matrix_memo_is_keyed_on_floats():
    # 2**-50 == F(1, 2**50), yet the float rationalizes to 0 and the Fraction stays
    # itself, whichever of the two the memo meets first
    game = rationalize_matrix([[2**-50, F(1, 2**50)], [F(1, 2**50), 2**-50]])
    assert [list(r) for r in game] == [[0, F(1, 2**50)], [F(1, 2**50), 0]]
    assert all(type(v) is F for r in game for v in r)
    assert [list(r) for r in rationalize_matrix([[0.0, -0.0], [-0.0, 0.0]])] == [[0, 0], [0, 0]]
    with pytest.raises(PreconditionError):
        rationalize_matrix([[1.0, math.nan], [math.nan, 1.0]])


def test_beats_matches_the_fraction_comparison():
    # _beats is an integer sign test; the reference compares reduced Fractions
    rng = random.Random(211)
    for case in range(600):
        n = rng.randint(1, 8)
        if case % 2:
            matrix = float_matrix(rng, n, n)
        else:
            matrix = random_matrix(rng, n, den=rng.choice((6, 10**12)))
        for _ in range(rng.randint(0, n)):
            matrix[rng.randrange(n)][rng.randrange(n)] = INF
        game = rationalize_matrix(matrix)
        raw = [F(rng.randint(0, 3), rng.randint(1, 10**rng.randint(1, 12))) for _ in range(n)]
        weights = [w / sum(raw) for w in raw] if sum(raw) else [F(1, n)] * n  # zeros included
        payoffs = [running_sum_payoff(list(game), weights, j) for j in range(n)]
        finite = [v for v in payoffs if v != INF]
        tests = {F(rng.randint(-20, 20), rng.randint(1, 7))}
        for v in finite:
            tests |= {v, v - F(1, 10**rng.randint(1, 30)), v + F(1, 10**rng.randint(1, 30))}
        for v_prime in tests:
            assert _beats(game, weights, v_prime) == all(v == INF or v > v_prime for v in payoffs)
        if finite:  # a column paying exactly v' does not beat it
            assert not _beats(game, weights, min(finite))
