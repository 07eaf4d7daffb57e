"""The exact LP core of matrix games over the rationals.

`solve` takes a finite rational matrix (rows maximize, columns minimize)
and returns its value with optimal strategies as tuples of Fractions.  It
first tries a crossover: a float simplex guesses the optimal supports, one
fraction-free integer solve gives the candidate pair, and exact
strict-complementarity checks prove that the equilibrium is unique, hence
the pair any exact LP returns.  Degenerate or non-unique games, and float
trouble, fall back to an exact-rational simplex with Bland's rule.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ComputationError
from .exact import bareiss, scaled

# ---------------------------------------------------------------------------
# exact simplex (maximize c.x subject to A x <= b, x >= 0, with b >= 0)


def _simplex_max(A, b, c):
    """Bland-rule simplex from the slack basis; returns (value, x, duals)."""
    m, n = len(A), len(A[0])
    rows = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]] + [Fraction(0)] * m + [Fraction(b[i])]
        row[n + i] = Fraction(1)
        rows.append(row)
    cost = [-Fraction(v) for v in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise ComputationError("linear program is unbounded")
        pivot = rows[leave][enter]
        rows[leave] = [v / pivot for v in rows[leave]]
        prow = rows[leave]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [v - f * p for v, p in zip(rows[i], prow)]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [v - f * p for v, p in zip(cost, prow)]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rows[i][-1]
    duals = [cost[n + i] for i in range(m)]
    return cost[-1], x, duals


def _positive_game(rows):
    """Value and strategies for an all-positive rational matrix (may be
    rectangular: rows for the maximizer, columns for the minimizer).

    Solves max sum(w) s.t. G w <= 1, w >= 0; the optimal objective is 1/V,
    w/|w| is the column player's strategy, and the dual prices give the row
    player's.  All simplex identities are verified exactly before returning.
    """
    m, k = len(rows), len(rows[0])
    total, w, duals = _simplex_max(rows, [Fraction(1)] * m, [Fraction(1)] * k)
    if total <= 0:
        raise ComputationError("positive game produced a nonpositive objective")
    value = 1 / total
    y = tuple(wi * value for wi in w)
    if sum(duals) != total:
        raise ComputationError("simplex duality certificate failed")
    x = tuple(ui * value for ui in duals)
    for j in range(k):
        if sum(x[i] * rows[i][j] for i in range(m)) < value:
            raise ComputationError("row-strategy certificate failed")
    for i in range(m):
        if sum(rows[i][j] * y[j] for j in range(k)) > value:
            raise ComputationError("column-strategy certificate failed")
    return value, x, y


def solve_bland(rows):
    """(value, x, y) for a finite rational matrix by the exact simplex, via a
    positivity shift."""
    lo = min(min(r) for r in rows)
    shift = Fraction(1) - lo if lo < 1 else Fraction(0)
    shifted = [[v + shift for v in r] for r in rows]
    value, x, y = _positive_game(shifted)
    return value - shift, x, y


def solve(rows):
    """(value, x, y) for a finite rational matrix, rectangular allowed: the
    certified crossover when the equilibrium is unique, else Bland."""
    found = _crossover(rows)
    return found if found is not None else solve_bland(rows)


# ---------------------------------------------------------------------------
# crossover: float supports, one exact solve, a uniqueness certificate

# A wrong float guess costs only the fallback, never a wrong answer, so the
# tolerance is tiny: a tiny pivot is still tried rather than skipped.
FLOAT_TOL = 1e-30


def _crossover(rows):
    """(value, x, y) of a finite rational matrix with a unique equilibrium,
    or None.

    A float simplex guesses the optimal supports I (rows) and J (columns).
    The bordered systems G[I,J] y = V 1, sum y = 1 and x G[I,J] = V 1,
    sum x = 1 are then solved exactly.  The pair is accepted only if
    |I| = |J|, x_I > 0, y_J > 0, every row outside I pays strictly less than
    V against y and every column outside J strictly more than V against x.
    Then any optimal y' is supported on J (x pays more than V elsewhere) and
    makes every row of I pay exactly V (x_I > 0), so it solves the
    nonsingular y-system and equals y; likewise any optimal x' equals x.
    The equilibrium is unique, so it is the pair the exact simplex returns.
    """
    supports = _float_supports(rows)
    if supports is None:
        return None
    I, J = supports
    if len(I) != len(J):
        return None
    y_sol = _solve_bordered([[rows[i][j] for j in J] for i in I])
    if y_sol is None:
        return None
    x_sol = _solve_bordered([[rows[i][j] for i in I] for j in J])
    if x_sol is None:
        return None
    y_num, vy, dy = y_sol
    x_num, vx, dx = x_sol
    if min(y_num) <= 0 or min(x_num) <= 0:
        return None
    in_i, in_j = set(I), set(J)
    for i in range(len(rows)):
        if i not in in_i and not _excess([rows[i][j] for j in J], y_num, vy) < 0:
            return None
    for j in range(len(rows[0])):
        if j not in in_j and not _excess([rows[i][j] for i in I], x_num, vx) > 0:
            return None
    x = [Fraction(0)] * len(rows)
    for i, v in zip(I, x_num):
        x[i] = Fraction(v, dx)
    y = [Fraction(0)] * len(rows[0])
    for j, v in zip(J, y_num):
        y[j] = Fraction(v, dy)
    return Fraction(vy, dy), tuple(x), tuple(y)


def _excess(line, nums, v):
    """A number with the sign of sum_t line[t] * nums[t] - v, on integers."""
    ints, scale = scaled(line)
    return sum(a * z for a, z in zip(ints, nums)) - scale * v


def _solve_bordered(lines):
    """Exact solution of sum_t line[t] z_t = V for each line, sum_t z_t = 1.

    Each line is scaled by the lcm of its denominators, so the system is on
    integers and Bareiss elimination solves it without fractions.  Returns
    (numerators of z, numerator of V, common denominator > 0), or None when
    the system is singular.
    """
    k = len(lines)
    n = k + 1
    mat = []
    for line in lines:
        ints, scale = scaled(line)
        mat.append(ints + [-scale, 0])
    mat.append([1] * k + [0, 1])
    if bareiss(mat)[0] != list(range(n)):
        return None
    det = mat[n - 1][n - 1]
    # det * z_t is an integer by Cramer's rule, so each division is exact
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = mat[i]
        acc = det * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))
        nums[i] = acc // row[i]
    if det < 0:
        nums, det = [-v for v in nums], -det
    return nums[:k], nums[k], det


def _float_supports(rows):
    """Supports (I, J) of an optimal pair, guessed by a float simplex on the
    LP max sum(w) s.t. A w <= 1, w >= 0 that `_positive_game` solves
    exactly (A the positively shifted matrix, here scaled to max 1).  J holds
    the basic columns and I the rows whose slacks left the basis, so
    |I| = |J|.  None when floats cannot represent the matrix or the simplex
    does not finish."""
    m, k = len(rows), len(rows[0])
    try:
        a = [[float(v) for v in r] for r in rows]
    except OverflowError:
        return None
    lo = min(map(min, a))
    shift = 1.0 - lo if lo < 1 else 0.0
    top = max(map(max, a)) + shift
    if not math.isfinite(top):
        return None
    tab = []
    for i, r in enumerate(a):
        row = [(v + shift) / top for v in r] + [0.0] * m + [1.0]
        row[k + i] = 1.0
        tab.append(row)
    cost = [-1.0] * k + [0.0] * (m + 1)
    basis = list(range(k, k + m))
    for _ in range(10 * (m + k)):
        enter = min(range(k + m), key=cost.__getitem__)
        if cost[enter] >= -FLOAT_TOL:
            break
        leave, best = None, math.inf
        for i in range(m):
            piv = tab[i][enter]
            if piv > FLOAT_TOL and tab[i][-1] / piv < best:
                leave, best = i, tab[i][-1] / piv
        if leave is None:
            return None
        prow = tab[leave]
        piv = prow[enter]
        prow = tab[leave] = [v / piv for v in prow]
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f != 0.0:
                tab[i] = [v - f * q for v, q in zip(tab[i], prow)]
        f = cost[enter]
        cost = [v - f * q for v, q in zip(cost, prow)]
        basis[leave] = enter
    else:
        return None
    J = sorted(v for v in basis if v < k)
    I = sorted(set(range(m)) - {v - k for v in basis if v >= k})
    return I, J
