"""Fraction-tuple polynomial helpers over `capgame.exact`'s integer pairs,
and Fraction references for the package's exact polynomial and linear
algebra.

The package itself runs on (coefficients, denominator) pairs; the thin
wrappers let tests state inputs and expected values as tuples of Fractions.
The references are plain computations over the rationals: trimmed
coefficient tuples with long division, the monic Euclidean gcd, the
normal form and the jets of a rational function, Gauss-Jordan elimination
and the Pade solve by one nullspace, which `capgame.exact`,
`capgame.oracle` and `capgame.formal` are checked against.
"""

from fractions import Fraction

from capgame.errors import PreconditionError
from capgame.exact import (
    F0,
    F1,
    ipoly,
    ipoly_add,
    ipoly_fractions,
    ipoly_mul,
    ipoly_reverse,
    ipoly_shift,
    iseries_div,
)
from capgame.formal import MarkedPoint
from capgame.oracle import RationalFunction


def poly_add(p, q):
    return ipoly_fractions(ipoly_add(ipoly(p), ipoly(q)))


def poly_mul(p, q):
    return ipoly_fractions(ipoly_mul(ipoly(p), ipoly(q)))


def poly_sub(p, q):
    return ipoly_fractions(ipoly_add(ipoly(p), ipoly(q), -1))


def poly_eval(p, x):
    acc = F0 if isinstance(x, Fraction) else 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_shift(p, a):
    """Coefficients of p(t + a) as a polynomial in t (exact Taylor shift)."""
    return ipoly_fractions(ipoly_shift(ipoly(p), a))


def poly_reverse(p, degree: int):
    """Coefficients of z**degree * p(1/z); requires degree >= deg(p)."""
    return ipoly_fractions(ipoly_reverse(ipoly(p), degree))


def series_div(num, den, order: int) -> list:
    """First order+1 coefficients of num/den as a power series; den[0] != 0."""
    return list(ipoly_fractions(iseries_div(ipoly(num[: order + 1]), ipoly(den), order),
                                order + 1))


# --- Fraction references -----------------------------------------------------


def poly(coeffs):
    """A trimmed tuple of Fractions from any iterable of rationals."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_deg(p) -> int:
    """Degree, with deg(0) = -1."""
    return len(p) - 1


def poly_scale(p, c):
    return poly(v * c for v in p)


def poly_divmod(a, b):
    """Quotient and remainder of a by b by long division over the rationals."""
    q = [F0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        coeff, shift = r[-1] / b[-1], len(r) - len(b)
        q[shift] = coeff
        for i, c in enumerate(b):
            r[i + shift] -= coeff * c
        r = list(poly(r))
    return poly(q), tuple(r)


def poly_gcd(a, b):
    """Monic greatest common divisor by the Euclidean algorithm."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_scale(a, 1 / a[-1]) if a else ()


def reference_normal_form(num, den):
    """num/den over its monic gcd, scaled to a monic denominator."""
    num, den = poly(num), poly(den)
    if not num:
        return (), (F1,)
    g = poly_gcd(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    return poly_scale(num, 1 / den[-1]), poly_scale(den, 1 / den[-1])


def fraction_mul(p, q):
    out = [F0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def fraction_shift(p, a):
    """p(t + a) by Horner's rule, out <- out*(t + a) + c."""
    out = []
    for c in reversed(p):
        new = [F0] * (len(out) + 1)
        for i, v in enumerate(out):
            new[i + 1] += v
            new[i] += a * v
        new[0] += c
        out = new
    return poly(out)


def fraction_series_div(num, den, order):
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else F0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def reference_jet(num, den, point, order):
    """The first order + 1 coefficients of num/den in the local parameter
    at `point`; PreconditionError at a pole of the given representation."""
    num, den = poly(num), poly(den)
    if point.is_infinite:
        deg = max(len(num), len(den)) - 1
        num, den = (tuple(reversed(p + (F0,) * (deg + 1 - len(p)))) for p in (num, den))
    else:
        num, den = fraction_shift(num, point.coordinate), fraction_shift(den, point.coordinate)
    if not den or den[0] == 0:
        raise PreconditionError("pole at the point")
    return tuple(fraction_series_div(num, den, order))


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
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


def nullspace(rows, ncols):
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


def reference_determinant(rows):
    """Gaussian elimination over the rationals."""
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
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


def reference_pade(coeffs, d_num, d_den):
    """The Pade solve by one nullspace: q*f = p mod t^(d_num+d_den+1), every
    kernel vector with q(0) != 0 verified against the full jet at 0."""
    coeffs = tuple(map(Fraction, coeffs))
    # unknowns q_0..q_{d_den}; rows kill t^(d_num+1)..t^(d_num+d_den) of q*f
    rows = []
    for r in range(d_num + 1, d_num + d_den + 1):
        rows.append([coeffs[r - k] if 0 <= r - k < len(coeffs) else F0
                     for k in range(d_den + 1)])
    kernel = nullspace(rows, d_den + 1) if rows else [(F1,)]
    for vec in kernel:
        den = poly(vec)
        if not den or vec[0] == 0:
            continue
        num = poly(poly_mul(den, poly(coeffs))[: d_num + 1])
        candidate = RationalFunction(num, den)
        try:
            if candidate.jet(MarkedPoint(0, F0), len(coeffs) - 1).coefficients == coeffs:
                return candidate
        except PreconditionError:
            continue
    return None
