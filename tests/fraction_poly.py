"""Fraction-tuple polynomial helpers over `capgame.exact`'s integer pairs,
and Fraction references for the package's exact linear algebra.

The package itself runs on (coefficients, denominator) pairs; these thin
wrappers let tests state inputs and expected values as tuples of Fractions.
The references are plain Gauss-Jordan elimination over the rationals and the
Pade solve by one nullspace that `capgame.exact.bareiss` and
`capgame.oracle.pade` are checked against.
"""

from fractions import Fraction

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
    poly,
)
from capgame.formal import MarkedPoint
from capgame.oracle import RationalFunction, _matches_jet


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
        if _matches_jet(candidate, MarkedPoint(0, F0), coeffs):
            return candidate
    return None
