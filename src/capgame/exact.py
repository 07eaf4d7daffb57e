"""Exact arithmetic toolkit: rational parsing, p-adic valuations, dense
polynomials over the rationals, and one fraction-free elimination on
integer rows (`bareiss`), under the determinant, the rank and the exact
LP's linear solve.

Everything in here is pure and exact; floating point never enters.

Polynomials run fraction-free on integer polynomials: a pair
(coefficients, denominator) of a trimmed list of Python ints in ascending
degree order and one positive int, standing for the polynomial with
coefficients c_k / denominator (the zero polynomial is ([], 1)).  Each
helper reduces its result once, by the gcd of the denominator and all
coefficients, instead of one gcd per coefficient operation.  The Taylor
shift, series division, sum, product, pseudo-division with its extended
Euclidean sequence, gcd and exact quotient are written on these pairs or
on their integer parts; Fraction tuples appear only at the edges
(`ipoly`, `ipoly_fractions`).

Linear algebra scales each rational row to integers by the lcm of its
denominators (`scaled`) and eliminates with Bareiss's fraction-free
scheme, in which every division is exact.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PreconditionError

F0 = Fraction(0)
F1 = Fraction(1)

IPoly = tuple  # (list[int], int): integer coefficients over one positive denominator


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal notation into an exact Fraction."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return format_int(q.numerator)
    return f"{format_int(q.numerator)}/{format_int(q.denominator)}"


def format_int(n: int) -> str:
    """The decimal digits of n, also past the interpreter's limit on
    int-to-str conversion (`sys.get_int_max_str_digits`), which
    `decimal.Decimal`'s exact conversion does not apply."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015)
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n below MILLER_RABIN_LIMIT."""
    if n < 2:
        return False
    for p in MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n >= MILLER_RABIN_LIMIT:
        raise PreconditionError(f"primality of {n} cannot be certified (n >= 3.3e24)")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_valuation(q: Fraction, p: int) -> int:
    """v_p(q) for nonzero rational q; |q|_p = p**(-v_p(q))."""
    if q == 0:
        raise PreconditionError("p-adic valuation of zero is undefined")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    v = 0
    n = abs(q.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


# trial division bound of `support_primes`: a cofactor left without a
# factor up to it is prime below its square, and is tested above it
FACTOR_BOUND = 10**6


def support_primes(q: Fraction) -> tuple[int, ...]:
    """Primes dividing the numerator or denominator of a nonzero rational.

    Raises PreconditionError when the numerator or the denominator has a
    composite factor with no prime factor up to FACTOR_BOUND."""
    if q == 0:
        raise PreconditionError("zero has no prime support")
    primes = set()
    for n in (abs(q.numerator), q.denominator):
        f = 2
        while f * f <= n and f <= FACTOR_BOUND:
            if n % f == 0:
                primes.add(f)
                while n % f == 0:
                    n //= f
            f += 1 if f == 2 else 2
        if n > 1:
            if f * f <= n and not is_prime(n):
                raise PreconditionError(
                    f"cannot factor {n}: composite with no prime factor up to {FACTOR_BOUND}"
                )
            primes.add(n)
    return tuple(sorted(primes))


# ---------------------------------------------------------------------------
# integer polynomials: (coefficients, denominator) pairs


def scaled(line: Sequence) -> tuple[list, int]:
    """The rational `line` times the lcm of its denominators, and that lcm."""
    scale = math.lcm(*(a.denominator for a in line))
    return [a.numerator * (scale // a.denominator) for a in line], scale


def ipoly(p: Iterable) -> IPoly:
    """Rational coefficients as integers over their least common denominator."""
    cs = [Fraction(c) for c in p]
    while cs and cs[-1] == 0:
        cs.pop()
    return scaled(cs)


def ipoly_fractions(p: IPoly, length: int = 0) -> tuple:
    """The Fraction coefficients of p, zero-padded to at least `length`."""
    cs, den = p
    return tuple(Fraction(c, den) for c in cs) + (F0,) * (length - len(cs))


def _reduced(cs: list, den: int) -> IPoly:
    """cs/den over the least denominator: one gcd pass over the result."""
    while cs and cs[-1] == 0:
        cs.pop()
    g = math.gcd(den, *cs)
    if g > 1:
        cs, den = [c // g for c in cs], den // g
    return cs, den


def ipoly_add(p: IPoly, q: IPoly, sign: int = 1) -> IPoly:
    """p + sign*q over the common denominator."""
    (a, da), (b, db) = p, q
    g = math.gcd(da, db)
    fa, fb = db // g, sign * (da // g)
    out = [c * fa for c in a] + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c * fb
    return _reduced(out, da * fa)


def ipoly_mul(p: IPoly, q: IPoly) -> IPoly:
    """p*q over the product of the denominators."""
    (a, da), (b, db) = p, q
    if not a or not b:
        return [], 1
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b):
                out[i + j] += c * e
    return _reduced(out, da * db)


def ipoly_shift(p: IPoly, a) -> IPoly:
    """p(t + a) for a = n/b in lowest terms (integer Taylor shift).

    R(u) = b**D p(u/b), D = deg p, has integer coefficients; it is shifted
    by the integer n in place (Horner: additions and products with n), and
    R(b*t + n) = b**D p(t + a)."""
    a = Fraction(a)
    n, b = a.numerator, a.denominator
    cs, den = p
    deg = len(cs) - 1
    r = list(cs)
    if b != 1:
        power = 1
        for k in range(deg - 1, -1, -1):
            power *= b
            r[k] *= power
    if n:
        for i in range(deg):
            for j in range(deg - 1, i - 1, -1):
                r[j] += n * r[j + 1]
    if b == 1:
        return r, den  # an integer shift keeps the content: still reduced
    power = 1
    for k in range(1, deg + 1):
        power *= b
        r[k] *= power
    return _reduced(r, den * power)


def ipoly_reverse(p: IPoly, degree: int) -> IPoly:
    """z**degree * p(1/z); requires degree >= deg(p)."""
    cs, den = p
    if len(cs) - 1 > degree:
        raise PreconditionError("reversal degree below polynomial degree")
    return _reduced([0] * (degree + 1 - len(cs)) + cs[::-1], den)


def iseries_div(num: IPoly, den: IPoly, order: int) -> IPoly:
    """num/den as a power series to t**order; den(0) != 0.

    With integer parts n and q of num and den, H_k = q0**(k+1) (n/q)_k is
    an integer: H_k = q0**k n_k - sum_{j>=1} q_j q0**(j-1) H_{k-j}
    (fraction-free, as in Bareiss elimination).  The result is returned
    over the one denominator q0**(order+1)."""
    (ns, dn), (qs, dq) = num, den
    if not qs or qs[0] == 0:
        raise PreconditionError("series division needs a unit constant term")
    q0 = qs[0]
    weights = [0]
    for qj in qs[1: order + 1]:
        weights.append(qj * q0 ** (len(weights) - 1))
    out: list[int] = []
    power = 1  # q0**k
    for k in range(order + 1):
        acc = ns[k] * power if k < len(ns) else 0
        for j in range(1, min(k, len(weights) - 1) + 1):
            acc -= weights[j] * out[k - j]
        out.append(acc)
        power *= q0
    # H_k * q0**(order-k) over q0**(order+1), times dq/dn
    scale = 1
    for k in range(order, -1, -1):
        out[k] *= scale * dq
        scale *= q0
    if scale < 0:
        out, scale = [-c for c in out], -scale
    return _reduced(out, scale * dn)


def ipoly_pdivmod(a: list, b: list) -> tuple[list, list]:
    """Pseudo-division of integer polynomials: q, r with
    lc(b)**(deg a - deg b + 1) * a = q*b + r and deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lead = len(b) - 1, b[-1]
    steps = len(a) - db
    if steps <= 0:
        return [], list(a)
    q = [0] * steps
    r = list(a)
    while len(r) - 1 >= db:
        shift, c = len(r) - 1 - db, r[-1]
        q = [v * lead for v in q]
        q[shift] += c
        r = [v * lead for v in r]
        for i, e in enumerate(b):
            r[i + shift] -= c * e
        while r and r[-1] == 0:
            r.pop()
        steps -= 1
    if steps:
        f = lead**steps
        q, r = [v * f for v in q], [v * f for v in r]
    return q, r


def ipoly_euclid(a: list, b: IPoly):
    """The extended Euclidean remainder sequence of a and b by
    pseudo-division: yields integer polynomials (r, t) with t*b = r mod a,
    starting at (den*b, den) and ending at the first zero remainder.  Each
    remainder and its cofactor are divided by their joint content instead
    of being made monic, so r/t is the monic run's r/t at every step."""
    r0, r1, t0, t1 = a, b[0], [], [b[1]]
    yield r1, t1
    while r1:
        q, r = ipoly_pdivmod(r0, r1)
        lead = r1[-1] ** (len(r0) - len(r1) + 1)
        # t = lead*t0 - q*t1; its degree is deg q + deg t1 > deg t0
        t = [v * lead for v in t0] + [0] * (len(q) + len(t1) - 1 - len(t0))
        for i, c in enumerate(q):
            if c:
                for j, e in enumerate(t1):
                    t[i + j] -= c * e
        g = math.gcd(*r, *t)
        if g > 1:
            r, t = [v // g for v in r], [v // g for v in t]
        r0, r1, t0, t1 = r1, r, t1, t
        yield r1, t1


def ipoly_gcd(a: list, b: list) -> list:
    """A primitive greatest common divisor of two integer polynomials
    (Euclid on primitive pseudo-remainders); [] when both are zero."""
    while b:
        r = ipoly_pdivmod(a, b)[1]
        g = math.gcd(*r)
        a, b = b, [v // g for v in r]
    g = math.gcd(*a)
    return [v // g for v in a]


def ipoly_quotient(a: list, b: list) -> list:
    """a / b for integer polynomials where the primitive b divides a; the
    quotient has integer coefficients (Gauss's lemma), so every leading
    division is exact."""
    db, lead = len(b) - 1, b[-1]
    r, q = list(a), [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] // lead
        for i, e in enumerate(b):
            r[k + i] -= c * e
    return q


# ---------------------------------------------------------------------------
# dense exact linear algebra on integer rows


def bareiss(mat: list) -> tuple[list, int]:
    """Fraction-free Gaussian elimination of the integer rows `mat`, in place
    (Bareiss, Math. Comp. 1968), with row pivoting and column skipping.

    Returns the pivot columns and the sign of the row permutation.  mat ends
    in row echelon form: past the pivots, row k holds minors of the permuted
    matrix on rows 0..k and columns pivots[:k] plus its own column, so each
    division by the previous pivot is exact, and for a nonsingular square
    matrix sign * mat[-1][-1] is the determinant.  Rows past the rank are zero.
    """
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        top = mat[r]
        a = top[c]
        for row in mat[r + 1:]:
            b = row[c]
            row[c] = 0
            for j in range(c + 1, ncols):
                row[j] = (a * row[j] - b * top[j]) // prev
        prev = a
        pivots.append(c)
    return pivots, sign


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(bareiss([scaled(list(map(Fraction, r)))[0] for r in rows])[0])


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """det of a square rational matrix: the determinant of its integer-scaled
    rows, over the product of their scales."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PreconditionError("determinant of a non-square matrix")
    mat, scale = [], 1
    for r in rows:
        ints, s = scaled(list(map(Fraction, r)))
        mat.append(ints)
        scale *= s
    pivots, sign = bareiss(mat)
    if len(pivots) < n:
        return F0
    return Fraction(sign * mat[-1][-1], scale) if n else F1
