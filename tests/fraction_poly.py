"""Fraction-tuple polynomial helpers over `capgame.exact`'s integer pairs.

The package itself runs on (coefficients, denominator) pairs; these thin
wrappers let tests state inputs and expected values as tuples of Fractions.
"""

from fractions import Fraction

from capgame.exact import F0, ipoly, ipoly_add, ipoly_fractions, ipoly_reverse, ipoly_shift, iseries_div


def poly_add(p, q):
    return ipoly_fractions(ipoly_add(ipoly(p), ipoly(q)))


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
