"""Independent certification of rationality from exact jets.

Three devices, all exact: Hankel determinant profiles (a trailing run of
zeros signals rationality at the given truncation), single-point Pade
approximants, and simultaneous reconstruction from jets at several points.
Pade runs the reconstruction's Euclid at its one point.  A
candidate is only ever returned after re-expanding it at every point and
matching the full input jets -- the oracle certifies, it never guesses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb
from typing import Optional, Sequence

from ._record import Record
from .errors import PreconditionError
from .exact import (
    F0,
    F1,
    IPoly,
    _reduced,
    determinant,
    ipoly,
    ipoly_add,
    ipoly_euclid,
    ipoly_fractions,
    ipoly_gcd,
    ipoly_mul,
    ipoly_quotient,
    ipoly_reverse,
    ipoly_shift,
    iseries_div,
    scaled,
)
from .formal import LocalSeries, MarkedPoint, check_distinct_points, expand_rational_at_point, ipoly_jet


class RationalFunction(Record):
    """A reduced rational function with monic denominator."""

    numerator: tuple
    denominator: tuple

    def __post_init__(self):
        self._store(*_normal_form(ipoly(self.numerator), ipoly(self.denominator)))

    def _store(self, num: IPoly, den: IPoly) -> None:
        object.__setattr__(self, "numerator", ipoly_fractions(num))
        object.__setattr__(self, "denominator", ipoly_fractions(den))

    @property
    def degree(self) -> int:
        return max(len(self.numerator), len(self.denominator)) - 1

    def jet(self, point: MarkedPoint, order: int) -> LocalSeries:
        return expand_rational_at_point(self.numerator, self.denominator, point, order)


def _normal_form(num: IPoly, den: IPoly) -> tuple[IPoly, IPoly]:
    """num/den without common factors and with a monic denominator, as two
    reduced integer pairs."""
    (n, dn), (d, dd) = num, den
    if not d:
        raise PreconditionError("zero denominator")
    if not n:
        return ([], 1), ([1], 1)
    g = ipoly_gcd(n, d)
    if len(g) > 1:
        n, d = ipoly_quotient(n, g), ipoly_quotient(d, g)
    # (n/dn) / (d/dd) = (n*dd / (dn*lead)) / (d/lead), lead = lc(d)
    lead = d[-1]
    if lead < 0:
        n, d, lead = [-v for v in n], [-v for v in d], -lead
    return _reduced([v * dd for v in n], dn * lead), _reduced(d, lead)


def _coefficients(series) -> tuple:
    return series.coefficients if isinstance(series, LocalSeries) else tuple(map(Fraction, series))


def hankel_profile(series, max_order: int) -> list:
    """Exact determinants D_n = det(c_{i+j})_{0<=i,j<=n} for n = 0..max_order.

    Needs the series truncated to order at least 2*max_order."""
    coeffs = _coefficients(series)
    if max_order < 0:
        raise PreconditionError("max_order must be >= 0")
    if len(coeffs) - 1 < 2 * max_order:
        raise PreconditionError(
            f"insufficient truncation: order {len(coeffs) - 1} < {2 * max_order}"
        )
    dets = []
    for n in range(max_order + 1):
        mat = [[coeffs[i + j] for j in range(n + 1)] for i in range(n + 1)]
        dets.append(determinant(mat))
    return dets


def pade(series, d_num: int, d_den: int) -> Optional[RationalFunction]:
    """Rational function with deg num <= d_num, deg den <= d_den matching the
    series at its base point, verified against the full given jet.

    Two such functions that match the jet agree on its first
    d_num + d_den + 1 coefficients, so they are equal, and one
    reconstruction (`_reconstruct`) finds the one there is.  Returns None
    when no candidate survives verification (in particular when every Pade
    form has a denominator vanishing at the point)."""
    coeffs = _coefficients(series)
    if d_num < 0 or d_den < 0:
        raise PreconditionError("degrees must be >= 0")
    if len(coeffs) < d_num + d_den + 1:
        raise PreconditionError(
            f"insufficient truncation: need {d_num + d_den + 1} coefficients, "
            f"have {len(coeffs)}"
        )
    point = MarkedPoint(getattr(series, "point", 0), F0)
    return _reconstruct([coeffs], [point], d_num, d_den)


def multipoint_reconstruct(jets: Sequence[LocalSeries], d: int,
                           points: Optional[Sequence[MarkedPoint]] = None,
                           ) -> Optional[RationalFunction]:
    """The rational function of degree <= d matching every jet simultaneously.

    Jets are matched in each point's own local parameter.  Two functions of
    degree <= d that agree on 2d + 1 conditions are equal, so the answer is
    unique; it is found by rational reconstruction (`_reconstruct`) and
    re-expanded at every point against the full jets, otherwise None is
    returned.  Without `points`, a single jet is taken at coordinate 0.
    """
    if d < 0:
        raise PreconditionError("degree bound must be >= 0")
    if points is None:
        if len(jets) > 1:
            raise PreconditionError("points are required for more than one jet")
        points = [MarkedPoint(j.point, Fraction(0)) for j in jets]
    if len(points) != len(jets):
        raise PreconditionError("one marked point per jet is required")
    check_distinct_points(points)
    conditions = sum(j.order + 1 for j in jets)
    if conditions < 2 * d + 2:
        raise PreconditionError(
            f"insufficient total jet order: {conditions} conditions for "
            f"{2 * d + 2} unknowns"
        )
    return _reconstruct(jets, points, d, d)


def _moebius_jet(jet: IPoly, a, b) -> IPoly:
    """The jet sum_k c_k t^k (integers over one denominator, untrimmed)
    rewritten in s, where t = a*s / (1 + b*s), over one denominator.

    The coefficient of s^n in (a*s)^k (1 + b*s)^(-k) is
    a^k (-b)^(n-k) C(n-1, k-1) for 1 <= k <= n, which is
    alpha^k beta^(n-k) C(n-1, k-1) / gamma^n with a = a1/a2, b = b1/b2,
    alpha = a1*b2, beta = -b1*a2 and gamma = a2*b2."""
    cs, den = jet
    order = len(cs) - 1
    alpha = a.numerator * b.denominator
    beta = -b.numerator * a.denominator
    gamma = a.denominator * b.denominator
    a_pow, b_pow, g_pow = [1], [1], [1]
    for _ in range(order):
        a_pow.append(a_pow[-1] * alpha)
        b_pow.append(b_pow[-1] * beta)
        g_pow.append(g_pow[-1] * gamma)
    out = [cs[0] * g_pow[order]]
    for n in range(1, order + 1):
        out.append(g_pow[order - n] * sum(cs[k] * a_pow[k] * b_pow[n - k] * comb(n - 1, k - 1)
                                          for k in range(1, n + 1) if cs[k]))
    return out, den * g_pow[order]


def _reconstruct(jets: Sequence[LocalSeries], points: Sequence[MarkedPoint],
                 d_num: int, d_den: int) -> Optional[RationalFunction]:
    """Rational function reconstruction from the first d_num + d_den + 2
    conditions (or all of them, if fewer), verified against the full jets.

    If infinity is marked, w = 1/(z - c) moves every point to a finite one,
    c the least non-negative integer that is not a marked coordinate (the
    callers that mark infinity pass d_num = d_den, a bound on the degree in
    z and in w alike).  The jets are combined by CRT into F mod M, deg M the
    number of conditions read, and the extended Euclidean algorithm on
    (M, F) runs to the first remainder r of degree <= d_num, with cofactor t
    (t*F = r mod M); a t of degree > d_den is rejected.  A p/q with
    deg p <= d_num, deg q <= d_den matching the data equals r/t (von zur
    Gathen and Gerhard, Modern Computer Algebra, Thm 5.16 with
    k = d_num + 1).  Each jet is converted once to integers over one
    denominator, and every step to the verified function runs on integer
    polynomials (see `exact`); the Euclid's primitive remainders change r
    and t by the same scalar."""
    remaining = d_num + d_den + 2
    c = None
    if any(pt.is_infinite for pt in points):
        marked = {pt.coordinate for pt in points}
        c = next(n for n in count() if n not in marked)
    ints = [scaled(_coefficients(j)) for j in jets]
    nodes = []
    for (cs, den), pt in zip(ints, points):
        jet = cs[:remaining], den
        if not jet[0]:
            break
        n = len(jet[0])
        remaining -= n
        if c is None:
            nodes.append((pt.coordinate, n, jet))
        elif pt.is_infinite:
            nodes.append((F0, n, _moebius_jet(jet, F1, c)))
        else:
            u = pt.coordinate - c
            nodes.append((1 / u, n, _moebius_jet(jet, -u * u, u)))

    # Hermite CRT on integer polynomials: F <- F + M*h with M*h = jet - F
    # mod (z - x)**n at each node; M is kept primitive as a product of
    # (b*z - a)**n, x = a/b, which leaves F unchanged
    f, m = ([], 1), ([1], 1)
    for x, n, jet in nodes:
        h = iseries_div(ipoly_add(jet, ipoly_shift(f, x), -1), ipoly_shift(m, x), n - 1)
        f = ipoly_add(f, ipoly_mul(m, ipoly_shift(h, -x)))
        m = ipoly_mul(m, (ipoly_shift(([0] * n + [1], 1), -x)[0], 1))

    # extended Euclid on (M, F) to the first remainder of degree <= d_num
    for num, den in ipoly_euclid(m[0], f):
        if len(num) - 1 <= d_num:
            break
    if len(den) - 1 > d_den:
        return None
    if c is not None:
        # z = c + 1/w: multiply through by (z - c)**D
        deg = max(len(num), len(den)) - 1
        num, den = (ipoly_shift(ipoly_reverse((p, 1), deg), -c)[0] for p in (num, den))
    num, den = _normal_form((num, 1), (den, 1))
    for (cs, d), pt in zip(ints, points):
        try:
            got, got_d = ipoly_jet(num, den, pt, len(cs) - 1)
        except PreconditionError:  # a pole at the point
            return None
        if got_d != d or got + [0] * (len(cs) - len(got)) != cs:
            return None
    found = object.__new__(RationalFunction)  # already in normal form
    found._store(num, den)
    return found


class OracleReport(Record):
    status: str  # "rational" | "not_found"
    function: Optional[RationalFunction]
    verified_orders: dict  # point id -> jet order matched
    degree_cap: int

    def to_report(self) -> dict:
        return {
            "status": self.status,
            "numerator": list(self.function.numerator) if self.function else None,
            "denominator": list(self.function.denominator) if self.function else None,
            "verified_orders": {str(k): v for k, v in sorted(self.verified_orders.items())},
            "degree_cap": self.degree_cap,
        }


def certify_rationality(
    jets: Sequence[LocalSeries],
    points: Sequence[MarkedPoint],
    degree_bound: Optional[int] = None,
) -> OracleReport:
    """The verified rational match of least degree up to the data-supported
    cap (and the given bound, if any); it is unique, so one reconstruction
    at the cap finds it."""
    conditions = sum(j.order + 1 for j in jets)
    cap = (conditions - 2) // 2
    if degree_bound is not None:
        if degree_bound < 0:
            raise PreconditionError("degree bound must be >= 0")
        cap = min(cap, degree_bound)
    orders = {j.point: j.order for j in jets}
    if cap >= 0:
        if len(points) != len(jets):
            raise PreconditionError("one marked point per jet is required")
        check_distinct_points(points)
        found = _reconstruct(jets, points, cap, cap)
        if found is not None:
            return OracleReport("rational", found, orders, cap)
    return OracleReport("not_found", None, orders, cap)
