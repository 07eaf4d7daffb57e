"""Assembly of the global matrix: the entrywise sum over all places.

Entries live in R together with +infinity (kept as math.inf, never as a
large finite float).  The diagonal must stay finite; off-diagonal entries
are nonnegative.  `gauge_shift` is the one place that applies tangent
scalings: the real and prime matrices are built in the canonical
parameters and shifted here.  By the product formula the diagonal does not
depend on the scalings once every supporting place is included in the sum.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Optional, Sequence, Union

from ._record import Record
from .errors import PreconditionError, ProblemFormatError
from .exact import padic_valuation, scaled
from .nonarch import PrimeMatrix

INF = math.inf

_SYM_TOL = 1e-9
_NEG_TOL = 1e-9


class GameMatrix(Record):
    """The summed place-by-place matrix, indexed by sorted point id."""

    ids: tuple
    entries: tuple  # tuple of tuples of floats, math.inf allowed off-diagonal
    places: tuple = ()

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ProblemFormatError("game matrix must be square")
        ids = tuple(self.ids) if self.ids else tuple(range(n))
        if len(ids) != n:
            raise ProblemFormatError("id list does not match matrix size")
        for i in range(n):
            if not math.isfinite(rows[i][i]):
                raise PreconditionError("infinite diagonal entry")
            for j in range(n):
                if i != j and rows[i][j] < 0:
                    raise PreconditionError("negative off-diagonal entry")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "places", tuple(self.places))

    @property
    def size(self) -> int:
        return len(self.entries)

    def to_report(self) -> dict:
        return {
            "ids": list(self.ids),
            "entries": [["inf" if math.isinf(v) else v for v in row] for row in self.entries],
            "places": list(self.places),
        }


FloatMatrix = Sequence[Sequence[float]]


def assemble(
    arch: Sequence[FloatMatrix] = (),
    nonarch: Sequence[PrimeMatrix] = (),
    extra: Sequence[FloatMatrix] = (),
    ids: Optional[Sequence[int]] = None,
    extra_labels: Optional[Sequence[str]] = None,
) -> GameMatrix:
    """Sum per-place matrices into the global matrix, +infinity absorbing.

    Exact per-prime coefficients are summed on integers first and converted
    to floats only at the end.  Asymmetry is an error for the built-in
    contributions and a warning when user-supplied extra matrices are present.
    """
    sizes = (
        [len(m) for m in arch]
        + [m.size for m in nonarch]
        + [len(m) for m in extra]
    )
    if not sizes:
        raise PreconditionError("no matrices to assemble")
    n = sizes[0]
    if any(s != n for s in sizes):
        raise PreconditionError("place matrices have inconsistent sizes")

    total = [[0.0] * n for _ in range(n)]
    places: list[str] = []

    for k, m in enumerate(arch):
        _add_float_matrix(total, m)
        places.append("real" if len(arch) == 1 else f"real[{k}]")

    by_prime: dict[int, list] = {}  # p -> the coefficients of its matrices, flattened
    for pm in nonarch:
        by_prime.setdefault(pm.p, []).extend(c for row in pm.coeffs for c in row)
    for p in sorted(by_prime):
        # entry t sums nums[t], nums[t + n*n], ...; int / int rounds as float(Fraction) does
        nums, den = scaled(by_prime[p])
        logp = math.log(p)
        for t in range(n * n):
            total[t // n][t % n] += sum(nums[t::n * n]) / den * logp
        places.append(f"p={p}")

    for k, m in enumerate(extra):
        _add_float_matrix(total, m)
        label = extra_labels[k] if extra_labels else f"user[{k}]"
        places.append(label)

    for i in range(n):
        if not math.isfinite(total[i][i]):
            raise PreconditionError("assembled diagonal is not finite")
        for j in range(n):
            if i != j and total[i][j] < 0:
                if total[i][j] < -_NEG_TOL:
                    raise PreconditionError(
                        f"negative off-diagonal entry at ({i}, {j}): {total[i][j]}"
                    )
                total[i][j] = 0.0

    scale = max(
        (abs(v) for row in total for v in row if math.isfinite(v)), default=0.0
    )
    asym = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = total[i][j], total[j][i]
            if math.isinf(a) and math.isinf(b):
                continue
            if math.isinf(a) or math.isinf(b):
                asym = INF
            else:
                asym = max(asym, abs(a - b))
    if asym > _SYM_TOL * (1.0 + scale):
        if extra:
            warnings.warn(
                f"assembled matrix is asymmetric (max deviation {asym}); "
                f"check the user-supplied place matrices",
                stacklevel=2,
            )
        else:
            raise PreconditionError(f"assembled matrix is asymmetric by {asym}")

    return GameMatrix(
        ids=tuple(ids) if ids is not None else tuple(range(n)),
        entries=tuple(tuple(row) for row in total),
        places=tuple(places),
    )


def _add_float_matrix(total, m) -> None:
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            total[i][j] += float(v)


PlaceMatrix = Union[FloatMatrix, PrimeMatrix]


def gauge_shift(
    matrices: Sequence[PlaceMatrix],
    scalings: Sequence[Fraction],
) -> list:
    """Shift every place matrix's diagonal by -log|a_i| at that place.

    At the real place the shift is -log|a_i|; at a prime p it is the exact
    coefficient v_p(a_i) (times log p).  Off-diagonal entries never change,
    and when every a_i is 1 the matrices are returned as they are.
    `scalings` is aligned with the matrix index order.
    """
    a = [Fraction(s) for s in scalings]
    if any(s == 0 for s in a):
        raise PreconditionError("tangent scaling must be nonzero")
    if any((m.size if isinstance(m, PrimeMatrix) else len(m)) != len(a) for m in matrices):
        raise PreconditionError("scaling vector does not match matrix size")
    if all(s == 1 for s in a):
        return list(matrices)
    out: list = []
    for m in matrices:
        if isinstance(m, PrimeMatrix):
            rows = [list(row) for row in m.coeffs]
            for i, ai in enumerate(a):
                rows[i][i] += padic_valuation(ai, m.p)
            out.append(PrimeMatrix(m.p, tuple(tuple(r) for r in rows)))
        else:
            rows = [[float(v) for v in row] for row in m]
            for i, ai in enumerate(a):
                rows[i][i] -= _log_abs(ai)
            out.append(tuple(tuple(r) for r in rows))
    return out


def _log_abs(q: Fraction) -> float:
    """log|q|, taken on the numerator and denominator only when q is beyond
    the float range (float(q) overflows or rounds to zero)."""
    try:
        f = float(q)
    except OverflowError:
        f = 0.0
    return math.log(abs(f)) if f else math.log(abs(q.numerator)) - math.log(q.denominator)


def irreducibility(matrix) -> bool:
    """True when the directed graph with edges i -> j iff G_ij > 0 (i != j)
    is strongly connected (single points count as irreducible)."""
    entries = getattr(matrix, "entries", matrix)
    n = len(entries)
    if n <= 1:
        return True
    fwd = [[j for j in range(n) if j != i and entries[i][j] > 0] for i in range(n)]
    rev = [[j for j in range(n) if j != i and entries[j][i] > 0] for i in range(n)]

    def reaches_all(adj) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n

    return reaches_all(fwd) and reaches_all(rev)
