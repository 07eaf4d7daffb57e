"""Two-player zero-sum matrix games over the rationals.

The value V = sup_x inf_y <x, Gy> over mixed strategies is exact, and so are
the strategies and duality certificates.  Every finite (sub-)game is solved
by one exact LP core, `lp.solve`.  Floating-point entries are rationalized
first by continued fractions (denominators up to 10**12), once per game: an
`ExactGame` holds each column on integers, so a payoff is one integer dot
product.  +infinity entries stay symbolic; a game with them has the value of
its sub-game on the infinity-free columns (see `game_value`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional, Union

from . import lp
from ._record import Record
from .errors import ComputationError, PreconditionError
from .exact import scaled

INF = math.inf

RATIONALIZE_DENOMINATOR = 10**12
MARGIN_EPS = 1e-6

Entry = Union[Fraction, float]


class Strategy(Record):
    """A mixed strategy: exact nonnegative rational weights summing to 1."""

    weights: tuple

    def __post_init__(self):
        w = tuple(Fraction(v) for v in self.weights)
        if not w:
            raise PreconditionError("empty strategy")
        nums, den = scaled(w)
        if any(a < 0 for a in nums):
            raise PreconditionError("strategy weights must be nonnegative")
        if sum(nums) != den:
            raise PreconditionError("strategy weights must sum to 1 exactly")
        object.__setattr__(self, "weights", w)

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    @classmethod
    def uniform(cls, n: int) -> "Strategy":
        return cls((Fraction(1, n),) * n)


class GameValueResult(Record):
    """Value, optimal strategies, and the per-column payoff certificate."""

    value: Entry  # exact Fraction, or math.inf
    x_star: Strategy
    y_star: Optional[Strategy]
    certificate: tuple  # column payoffs of x_star, each >= value

    @property
    def is_infinite(self) -> bool:
        return self.value == INF

    @property
    def margin_flag(self) -> str:
        if self.is_infinite:
            return "ok"
        return "marginal" if abs(float(self.value)) < MARGIN_EPS else "ok"

    def to_report(self) -> dict:
        return {
            "value": "inf" if self.is_infinite else float(self.value),
            "x_star": [v for v in self.x_star],
            "y_star": [v for v in self.y_star] if self.y_star is not None else None,
            "margin_flag": self.margin_flag,
        }


def rationalize_entry(v) -> Entry:
    """Exact rationals pass through; finite floats get a continued-fraction
    approximation with bounded denominator; infinities stay infinite."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    f = float(v)
    if math.isinf(f):
        if f < 0:
            raise PreconditionError("-infinity entries are not allowed")
        return INF
    if math.isnan(f):
        raise PreconditionError("NaN matrix entry")
    # Fraction(f).limit_denominator(RATIONALIZE_DENOMINATOR) on integers: the closer of
    # the last convergent p1/q1 (n/d once b = 0) and semiconvergent p2/q2, p1/q1 on a tie
    n, d = f.as_integer_ratio()
    p0, q0, p1, q1, a, b = 0, 1, 1, 0, n, d
    while b and q0 + (t := a // b) * q1 <= RATIONALIZE_DENOMINATOR:
        p0, q0, p1, q1, a, b = p1, q1, p0 + t * p1, q0 + t * q1, b, a - t * b
    k = (RATIONALIZE_DENOMINATOR - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return Fraction(p1, q1)
    return Fraction(p2, q2)


class ExactGame(tuple):
    """A rationalized square game: a tuple of rows of Fractions and INF, with
    `columns[j]` = (numerators over the lcm of the column's finite entries,
    0 at +infinity; that lcm; the rows where the column is +infinity)."""

    def __new__(cls, rows):
        game = super().__new__(cls, (tuple(r) for r in rows))
        game.columns = tuple(
            (*scaled([0 if isinstance(v, float) else v for v in col]),
             tuple(i for i, v in enumerate(col) if isinstance(v, float)))
            for col in zip(*game))
        return game


def rationalize_matrix(matrix) -> ExactGame:
    """The exact game of a square matrix; an ExactGame is returned as is."""
    if isinstance(matrix, ExactGame):
        return matrix
    exact: dict = {}  # float -> Fraction; floats only, as 2**-50 == Fraction(1, 2**50)
    rows = [[(exact[v] if v in exact else exact.setdefault(v, rationalize_entry(v)))
             if isinstance(v, float) else rationalize_entry(v) for v in row]
            for row in getattr(matrix, "entries", matrix)]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise PreconditionError("game matrix must be square and nonempty")
    return ExactGame(rows)


def payoff_floor(matrix, x) -> Entry:
    """min over columns j of sum_i x_i G_ij, with the convention 0*inf = 0."""
    game = rationalize_matrix(matrix)
    weights = tuple(Fraction(v) for v in x)
    if len(weights) != len(game):
        raise PreconditionError("strategy length does not match the matrix")
    return min(_column_payoffs(game, weights))


def _column_payoffs(matrix, weights):
    """Yield sum_i w_i G_ij for each column j, with the convention 0*inf = 0."""
    for s, d in _column_sums(matrix, weights):
        yield Fraction(s, d) if d else INF


def _column_sums(matrix, weights):
    """Yield (s, d), d > 0, with s/d = sum_i w_i G_ij for each column j, or (1, 0) where
    it is +infinity (0*inf = 0): one integer dot product with the stored column, unreduced."""
    w_ints, w_scale = scaled([Fraction(w) for w in weights])
    for nums, scale, inf_rows in rationalize_matrix(matrix).columns:
        if any(w_ints[i] for i in inf_rows):
            yield 1, 0
        else:
            yield sum(map(mul, w_ints, nums)), w_scale * scale


def game_value(matrix) -> GameValueResult:
    """Game value with optimal strategies and an exact certificate.

    With C the columns free of +infinity, V = val(G[:, C]), and V = +infinity
    exactly when C is empty (the uniform strategy then certifies it).  Proof:
    every strategy's floor is at most its payoff on C, hence at most
    val(G[:, C]); and (1 - eps) x + eps u, x optimal on C and u uniform,
    sends every other column to +infinity, so its floor tends to val(G[:, C]).

    One exact LP on all rows times C gives V, x and y; y padded with zeros
    makes every row pay at most V.  If x's exact floor on the whole matrix
    falls short of V (a supremum no strategy attains), the blend above with
    the largest admissible eps comes within 1e-9 of V.  A finite matrix takes
    the same path with C = all columns.
    """
    rows = rationalize_matrix(matrix)
    n = len(rows)
    cols, solved = _solve_finite_columns(rows)
    if solved is None:
        bary = Strategy.uniform(n)
        return GameValueResult(INF, bary, None, tuple(_column_payoffs(rows, bary.weights)))

    value, x, y_sub = solved
    y = [Fraction(0)] * n
    for j, w in zip(cols, y_sub):
        y[j] = w
    certificate = tuple(_column_payoffs(rows, x))
    if min(certificate) < value:
        # the least k >= 1 with (1 - 2**-k) x + 2**-k u within 1e-9 of V
        k = _blend_exponent(rows, x, value - Fraction(1, 10**9), strict=False)
        x = _blend(x, Fraction(1, 2**k))
        certificate = tuple(_column_payoffs(rows, x))
    return GameValueResult(value, Strategy(x), Strategy(tuple(y)), certificate)


def _solve_finite_columns(rows) -> tuple:
    """The columns C free of +infinity, and lp.solve on all rows times C
    (None when C is empty)."""
    cols = [j for j, (_, _, inf_rows) in enumerate(rows.columns) if not inf_rows]
    return cols, lp.solve([[r[j] for j in cols] for r in rows]) if cols else None


def _blend(x, eps) -> tuple:
    """(1 - eps) x + eps u, u uniform."""
    return tuple((1 - eps) * w + eps / len(x) for w in x)


def _blend_exponent(rows, x, target, strict) -> Optional[int]:
    """The least k >= 1 whose blend (1 - eps) x + eps u, eps = 2**-k, pays
    at least target (more when strict) on each column j whose u-payoff b_j
    is below its x-payoff a_j; None when no eps > 0 does.

    Column j pays a_j + eps (b_j - a_j), or +infinity for every eps > 0 if it
    holds a +infinity entry.  When b_j < a_j that bounds eps from above by
    (a_j - target) / (a_j - b_j); any other column holds for all eps above
    some bound or for none.  So if this eps fails on the whole matrix, every
    smaller power of two fails too.
    """
    n, p, q = len(rows), target.numerator, target.denominator
    top, bot = 1, 1  # 1/eps for the largest eps admitted so far
    for (sa, da), (sb, db) in zip(_column_sums(rows, x), _column_sums(rows, (Fraction(1, n),) * n)):
        if da and db and sb * da < sa * db:  # finite a_j = sa/da above b_j = sb/db
            num, den = q * (sa * db - sb * da), (sa * q - p * da) * db  # 1/(that bound on eps)
            if den <= 0:
                return None
            if num * bot > top * den:
                top, bot = num, den
    # the least k with 2**k > top/bot (strict) or 2**k >= top/bot
    return max(1, (top // bot if strict else -(-top // bot) - 1).bit_length())


def minimax_check(matrix) -> bool:
    """Exact equality of the sup-inf and inf-sup values (finite matrices).

    The two sides are solved as independent programs: the inf-sup value of G
    is computed directly, and the sup-inf value as minus the inf-sup value of
    the negated transpose.
    """
    rows = rationalize_matrix(matrix)
    if any(inf_rows for _, _, inf_rows in rows.columns):
        raise PreconditionError("minimax equality check needs a finite matrix")
    n = len(rows)
    inf_sup = lp.solve(rows)[0]
    swapped = [[-rows[j][i] for j in range(n)] for i in range(n)]
    sup_inf = -lp.solve(swapped)[0]
    return inf_sup == sup_inf


def rational_strategy(matrix, v_prime, result: Optional[GameValueResult] = None) -> Strategy:
    """A strictly positive exact rational strategy beating v_prime on every
    column: the blend (1 - eps) x* + eps u of the LP maximizer with the
    barycenter for the largest eps = 2**-k, 1 <= k <= 200, whose column
    payoffs all exceed v_prime (found in closed form), with coordinates then
    simplified by continued fractions and re-verified.  When x* is itself
    game_value's blend (its certificate falls short of V) and no such eps
    exists for it, the unblended LP maximizer is blended instead."""
    rows = rationalize_matrix(matrix)
    n = len(rows)
    v_prime = Fraction(v_prime)
    if result is None:
        result = game_value(rows)
    if not result.is_infinite and v_prime >= result.value:
        raise PreconditionError("v_prime must be strictly below the game value")

    bary = Strategy.uniform(n)
    if result.is_infinite:
        if _beats(rows, bary.weights, v_prime):
            return bary
        raise ComputationError("barycenter fails to certify an infinite value")

    cand = _blend_beating(rows, result.x_star.weights, v_prime)
    if cand is None and result.certificate and min(result.certificate) < result.value:
        # x_star is game_value's blend, whose floor sits up to 1e-9 below V:
        # blend the LP maximizer on the infinity-free columns instead
        _, (_, x, _) = _solve_finite_columns(rows)
        cand = _blend_beating(rows, x, v_prime)
    if cand is None:
        raise ComputationError("failed to construct a strictly positive strategy")
    return _simplify_strategy(rows, cand, v_prime)


def _blend_beating(rows, x, v_prime: Fraction) -> Optional[tuple]:
    """The blend (1 - eps) x + eps u with the largest eps = 2**-k,
    1 <= k <= 200, that beats v_prime on every column, or None."""
    k = _blend_exponent(rows, x, v_prime, strict=True)
    if k is not None and k <= 200:
        cand = _blend(x, Fraction(1, 2**k))
        if _beats(rows, cand, v_prime):
            return cand
    return None


def _beats(rows, weights, v_prime: Fraction) -> bool:
    """Every column pays more than v_prime (+infinity does): s/d > p/q as s*q > p*d."""
    p, q = v_prime.numerator, v_prime.denominator
    return all(s * q > p * d for s, d in _column_sums(rows, weights))


def _simplify_strategy(rows, weights, v_prime: Fraction) -> Strategy:
    for bound in (10**3, 10**6, 10**9):
        approx = [Fraction(w).limit_denominator(bound) for w in weights]
        total = sum(approx)
        if total == 0:
            continue
        cand = tuple(w / total for w in approx)
        if all(v > 0 for v in cand) and _beats(rows, cand, v_prime):
            return Strategy(cand)
    return Strategy(tuple(weights))
