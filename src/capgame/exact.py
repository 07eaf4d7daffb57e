"""Exact arithmetic toolkit: rational parsing, p-adic valuations, dense
polynomials over Fraction, and Gaussian elimination over the rationals.

Everything in here is pure and exact; floating point never enters.
Polynomials are tuples of Fractions in ascending degree order, trimmed of
trailing zeros (the zero polynomial is the empty tuple).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PreconditionError

F0 = Fraction(0)
F1 = Fraction(1)

Poly = tuple  # tuple[Fraction, ...], ascending coefficients, trimmed


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
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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
# polynomials over Fraction


def poly(coeffs: Iterable) -> Poly:
    """Build a trimmed coefficient tuple from any iterable of rationals."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_deg(p: Poly) -> int:
    """Degree, with deg(0) = -1."""
    return len(p) - 1


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly((p[i] if i < len(p) else F0) + (q[i] if i < len(q) else F0) for i in range(n))


def poly_sub(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly((p[i] if i < len(p) else F0) - (q[i] if i < len(q) else F0) for i in range(n))


def poly_scale(p: Poly, c: Fraction) -> Poly:
    return poly(v * c for v in p)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [F0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def poly_eval(p: Poly, x):
    acc = F0 if isinstance(x, Fraction) else 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_shift(p: Poly, a: Fraction) -> Poly:
    """Coefficients of p(t + a) as a polynomial in t (exact Taylor shift)."""
    a = Fraction(a)
    out: list[Fraction] = []
    for c in reversed(p):
        # out <- out*(t + a) + c
        new = [F0] * (len(out) + 1)
        for i, v in enumerate(out):
            new[i + 1] += v
            new[i] += a * v
        new[0] += Fraction(c)
        out = new
    return poly(out)


def poly_reverse(p: Poly, degree: int) -> Poly:
    """Coefficients of z**degree * p(1/z); requires degree >= deg(p)."""
    if poly_deg(p) > degree:
        raise PreconditionError("reversal degree below polynomial degree")
    out = [F0] * (degree + 1)
    for k, c in enumerate(p):
        out[degree - k] = c
    return poly(out)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a, b = poly(a), poly(b)
    db, lead = poly_deg(b), b[-1]
    q = [F0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) - 1 >= db:
        coeff = r[-1] / lead
        shift = len(r) - 1 - db
        q[shift] = coeff
        for i, c in enumerate(b):
            r[i + shift] -= coeff * c
        while r and r[-1] == 0:
            r.pop()
    return poly(q), poly(r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rationals (Euclid)."""
    a, b = poly(a), poly(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])


def series_div(num: Sequence, den: Sequence, order: int) -> list[Fraction]:
    """First order+1 coefficients of num/den as a power series; den[0] != 0."""
    if not den or den[0] == 0:
        raise PreconditionError("series division needs a unit constant term")
    d0 = Fraction(den[0])
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = Fraction(num[k]) if k < len(num) else F0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= Fraction(den[j]) * out[k - j]
        out.append(acc / d0)
    return out


def binomial(n: int, k: int) -> int:
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# dense exact linear algebra (row lists of Fractions)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of the given row system (ncols unknowns)."""
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [F0] * ncols
        vec[fc] = F1
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -reduced[row_idx][fc]
        basis.append(tuple(vec))
    return basis


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise PreconditionError("determinant of a non-square matrix")
    det = F1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return F0
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [vi - f * vc for vi, vc in zip(m[i], m[c])]
    return det
