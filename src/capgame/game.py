"""Two-player zero-sum matrix games over the rationals.

The value V = sup_x inf_y <x, Gy> over mixed strategies is exact, and so are
the strategies and duality certificates.  Every finite (sub-)game is solved
by one exact LP core, `lp.solve`.  Floating-point entries are rationalized
first by continued fractions (denominators up to 10**12); +infinity entries
are kept symbolic and handled by support analysis plus a doubling finite
cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import lp
from .errors import ComputationError, PreconditionError

INF = math.inf

RATIONALIZE_DENOMINATOR = 10**12
MARGIN_EPS = 1e-6
MAX_CAP_DOUBLINGS = 60

Entry = Union[Fraction, float]


@dataclass(frozen=True)
class Strategy:
    """A mixed strategy: exact nonnegative rational weights summing to 1."""

    weights: tuple

    def __post_init__(self):
        w = tuple(Fraction(v) for v in self.weights)
        if not w:
            raise PreconditionError("empty strategy")
        if any(v < 0 for v in w):
            raise PreconditionError("strategy weights must be nonnegative")
        if sum(w) != 1:
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


@dataclass(frozen=True)
class GameValueResult:
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


def _entries(matrix) -> Sequence[Sequence]:
    return getattr(matrix, "entries", matrix)


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
    return Fraction(f).limit_denominator(RATIONALIZE_DENOMINATOR)


def rationalize_matrix(matrix) -> list:
    rows = [[rationalize_entry(v) for v in row] for row in _entries(matrix)]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise PreconditionError("game matrix must be square and nonempty")
    return rows


def payoff_floor(matrix, x) -> Entry:
    """min over columns j of sum_i x_i G_ij, with the convention 0*inf = 0."""
    rows = rationalize_matrix(matrix)
    weights = tuple(Fraction(v) for v in x)
    if len(weights) != len(rows):
        raise PreconditionError("strategy length does not match the matrix")
    return min(_column_payoffs(rows, weights))


def _column_payoffs(rows, weights):
    """Yield sum_i w_i G_ij for each column j, with the convention 0*inf = 0.

    Each sum is taken on integers over one common denominator and reduced
    once, instead of one Fraction addition (a gcd on big numbers) per term.
    """
    live = [i for i, w in enumerate(weights) if w]
    w_ints, w_scale = lp._scaled([Fraction(weights[i]) for i in live])
    for j in range(len(rows)):
        col = [rows[i][j] for i in live]
        if INF in col:
            yield INF
            continue
        g_ints, g_scale = lp._scaled(col)
        yield Fraction(sum(a * b for a, b in zip(w_ints, g_ints)), w_scale * g_scale)


def _finite_game(rows):
    """(value, x, y) for a finite rational matrix, rectangular allowed."""
    value, x, y = lp.solve(rows)
    return value, Strategy(x), Strategy(y)


SUPPORT_ENUMERATION_LIMIT = 12  # distinct infinity row patterns


def game_value(matrix) -> GameValueResult:
    """Game value with optimal strategies and an exact certificate.

    For finite matrices this is the exact LP value.  If every column holds a
    +infinity entry, a fully mixed row strategy certifies value +infinity.
    Otherwise infinite entries are replaced by a finite cap doubling from
    1 + n*max|finite entry| until the value agrees across two consecutive
    caps; because a capped value can keep creeping toward a supremum that no
    strategy attains, the doubling result is cross-checked (and the
    non-stabilized case resolved) by exact enumeration over row supports.
    With more than SUPPORT_ENUMERATION_LIMIT infinity patterns and no stable
    cap, ComputationError is raised rather than a guess.
    """
    rows = rationalize_matrix(matrix)
    n = len(rows)

    has_inf = any(v == INF for r in rows for v in r)
    if not has_inf:
        value, x, y = _finite_game(rows)
        return GameValueResult(value, x, y, _certificate(rows, x))

    bary = Strategy.uniform(n)
    if payoff_floor(rows, bary) == INF:
        return GameValueResult(INF, bary, None, _certificate(rows, bary))

    finite_vals = [abs(v) for r in rows for v in r if v != INF]
    cap = Fraction(1) + n * (max(finite_vals) if finite_vals else Fraction(0))
    prev = None
    stabilized = None
    for _ in range(MAX_CAP_DOUBLINGS + 1):
        capped = [[cap if v == INF else v for v in r] for r in rows]
        value, x, y = _finite_game(capped)
        if prev is not None and value == prev:
            stabilized = GameValueResult(value, x, y, _certificate(rows, x))
            break
        prev = value
        cap *= 2

    exact = _support_enumeration(rows)
    if exact is None:
        # too many infinity patterns to enumerate; trust the doubling rule,
        # which proves nothing when the capped values never settled
        if stabilized is not None:
            return stabilized
        raise ComputationError(
            "capped game values did not stabilize and there are too many "
            "infinity patterns for exact support enumeration"
        )
    if stabilized is not None and stabilized.value == exact.value:
        return stabilized
    return exact


def _support_enumeration(rows) -> Optional[GameValueResult]:
    """Exact sup-inf value of a matrix with +infinity entries.

    For a row support S, every column meeting an infinity in S pays out
    +infinity against a fully mixed strategy on S, so the floor reduces to
    the finite game on S times the surviving columns; the overall value is
    the maximum over supports.  When the maximum is a supremum that no
    strategy attains, the returned maximizer is an exact blend whose floor
    sits within 1e-9 of the value (verified exactly).
    """
    n = len(rows)
    pattern = [frozenset(j for j in range(n) if rows[i][j] == INF) for i in range(n)]
    distinct = sorted(set(pattern), key=sorted)
    if len(distinct) > SUPPORT_ENUMERATION_LIMIT:
        return None

    # A support S only matters through the columns it blocks; closing S up to
    # all rows finite on the surviving columns never lowers the sub-value, so
    # it suffices to enumerate unions of the distinct infinity patterns.
    candidates: dict = {}
    for mask in range(1 << len(distinct)):
        blocked: frozenset = frozenset()
        for t in range(len(distinct)):
            if mask >> t & 1:
                blocked |= distinct[t]
        support = tuple(i for i in range(n) if pattern[i] <= blocked)
        if not support:
            continue
        effective: frozenset = frozenset()
        for i in support:
            effective |= pattern[i]
        cols = tuple(j for j in range(n) if j not in effective)
        candidates[(support, cols)] = None

    best = None
    for support, cols in candidates:
        sub = [[rows[i][j] for j in cols] for i in support]
        value, x_sub, y_sub = _finite_game(sub)
        if best is None or value > best[0]:
            best = (value, support, cols, x_sub, y_sub)
    value, support, cols, x_sub, y_sub = best

    y = [Fraction(0)] * n
    for j, w in zip(cols, y_sub):
        y[j] = w
    x = _blend_to_floor(rows, support, x_sub, value)
    return GameValueResult(value, x, Strategy(tuple(y)), _certificate(rows, x))


def _blend_to_floor(rows, support, x_sub, value) -> Strategy:
    """Mix the sub-game maximizer with the uniform strategy on its support
    until the floor on the true matrix is within 1e-9 of the value."""
    n = len(rows)
    slack = Fraction(1, 10**9)
    unif = Fraction(1, len(support))
    eps = Fraction(1, 2)
    for _ in range(400):
        x = [Fraction(0)] * n
        for i, w in zip(support, x_sub):
            x[i] += (1 - eps) * w
        for i in support:
            x[i] += eps * unif
        floor = payoff_floor(rows, x)
        if floor == INF or floor >= value - slack:
            return Strategy(tuple(x))
        eps /= 2
    raise ComputationError("failed to approach the game value from below")


def _certificate(rows, x: Strategy) -> tuple:
    return tuple(_column_payoffs(rows, x.weights))


def minimax_check(matrix) -> bool:
    """Exact equality of the sup-inf and inf-sup values (finite matrices).

    The two sides are solved as independent programs: the inf-sup value of G
    is computed directly, and the sup-inf value as minus the inf-sup value of
    the negated transpose.
    """
    rows = rationalize_matrix(matrix)
    if any(v == INF for r in rows for v in r):
        raise PreconditionError("minimax equality check needs a finite matrix")
    n = len(rows)
    inf_sup, _, _ = _finite_game(rows)
    swapped = [[-rows[j][i] for j in range(n)] for i in range(n)]
    sup_inf = -_finite_game(swapped)[0]
    return inf_sup == sup_inf


def rational_strategy(matrix, v_prime, result: Optional[GameValueResult] = None) -> Strategy:
    """A strictly positive exact rational strategy beating v_prime on every
    column: blend the LP maximizer with the barycenter, halving the blend
    until all column payoffs exceed v_prime strictly, then simplify the
    coordinates by continued fractions and re-verify."""
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

    x_star = result.x_star.weights
    eps = Fraction(1, 2)
    for _ in range(200):
        cand = tuple((1 - eps) * xs + eps * bi for xs, bi in zip(x_star, bary.weights))
        if all(v > 0 for v in cand) and _beats(rows, cand, v_prime):
            return _simplify_strategy(rows, cand, v_prime)
        eps /= 2
    raise ComputationError("failed to construct a strictly positive strategy")


def _beats(rows, weights, v_prime: Fraction) -> bool:
    return all(col == INF or col > v_prime for col in _column_payoffs(rows, weights))


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
