from fractions import Fraction

import pytest

from capgame.errors import PreconditionError
from capgame.exact import (
    determinant,
    format_rational,
    is_prime,
    matrix_rank,
    nullspace,
    padic_valuation,
    parse_rational,
    poly,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_reverse,
    poly_shift,
    poly_sub,
    series_div,
    support_primes,
)

F = Fraction


def test_parse_rational_forms():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-5") == F(-5)
    assert parse_rational("1.25") == F(5, 4)
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_format_round_trip():
    for q in [F(3, 2), F(-7, 3), F(0), F(4)]:
        assert parse_rational(format_rational(q)) == q


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(91)
    assert is_prime(97)


def _trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == _trial_division_is_prime(n) for n in range(10**5))


def test_is_prime_carmichael_and_large():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    assert not any(is_prime(n) for n in carmichael)
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to all primes up to 37
    assert not is_prime(3215031751)
    assert not is_prime(318665857834031151167461)
    assert is_prime(1000000000000000009)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)


def test_is_prime_refuses_beyond_certified_range():
    with pytest.raises(PreconditionError):
        is_prime(3317044064679887385961981)  # strong pseudoprime to all 13 bases


def test_padic_valuation():
    assert padic_valuation(F(3, 2), 2) == -1
    assert padic_valuation(F(3, 2), 3) == 1
    assert padic_valuation(F(3, 2), 5) == 0
    assert padic_valuation(F(-12), 2) == 2
    with pytest.raises(PreconditionError):
        padic_valuation(F(0), 2)
    with pytest.raises(PreconditionError):
        padic_valuation(F(1), 4)


def test_support_primes():
    assert support_primes(F(-5, 6)) == (2, 3, 5)
    assert support_primes(F(1)) == ()
    assert support_primes(F(30)) == (2, 3, 5)


def test_support_primes_bounded_factoring():
    # numerator and denominator are factored apart, each up to FACTOR_BOUND
    assert support_primes(F(10**18 + 3, 10**18 + 9)) == (10**18 + 3, 10**18 + 9)
    assert support_primes(F(999983 * 1000003)) == (999983, 1000003)
    assert support_primes(F(2**5 * 1000003)) == (2, 1000003)
    with pytest.raises(PreconditionError, match="cannot factor"):
        support_primes(F(999999999989 * 1000000000039))
    with pytest.raises(PreconditionError, match="cannot factor"):
        support_primes(F(1, 1000003**2))


def test_poly_basics():
    p = poly([1, 0, 2, 0])  # 1 + 2z^2, trailing zero trimmed
    assert p == (F(1), F(0), F(2))
    assert poly_mul(p, poly([0, 1])) == (F(0), F(1), F(0), F(2))
    q, r = poly_divmod(poly([0, 0, 1]), poly([0, 1]))  # z^2 / z
    assert q == (F(0), F(1)) and r == ()


def test_poly_shift_is_taylor_shift():
    # p(z) = z^2 shifted to z = 3 + t: 9 + 6t + t^2
    assert poly_shift(poly([0, 0, 1]), F(3)) == (F(9), F(6), F(1))
    # shifting by 0 is the identity
    p = poly([F(1, 2), F(-2), F(3)])
    assert poly_shift(p, F(0)) == p
    # evaluation law: (shifted p)(t) == p(t + a)
    for t in (F(0), F(1, 3), F(-2)):
        assert poly_eval(poly_shift(p, F(5, 2)), t) == poly_eval(p, t + F(5, 2))


def test_poly_add_sub_cancellation():
    p, q = poly([1, 2, 3]), poly([1, 2, 3])
    assert poly_sub(p, q) == ()
    assert poly_add(poly_sub(p, poly([0, 1])), poly([0, 1])) == p


def test_poly_reverse():
    assert poly_reverse(poly([1, -2]), 1) == (F(-2), F(1))
    assert poly_reverse(poly([1]), 2) == (F(0), F(0), F(1))
    with pytest.raises(PreconditionError):
        poly_reverse(poly([1, 1, 1]), 1)


def test_poly_gcd():
    a = poly_mul(poly([1, 1]), poly([2, 1]))  # (1+z)(2+z)
    b = poly_mul(poly([1, 1]), poly([3, 1]))
    assert poly_gcd(a, b) == (F(1), F(1))
    assert poly_gcd(poly([4]), poly([0, 2])) == (F(1),)


def test_series_div_geometric():
    assert series_div([1], [1, -2], 4) == [F(1), F(2), F(4), F(8), F(16)]
    with pytest.raises(PreconditionError):
        series_div([1], [0, 1], 3)


def test_linear_algebra():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert matrix_rank(rows) == 2
    ker = nullspace(rows, 3)
    assert len(ker) == 1
    v = ker[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0
    assert determinant([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
    assert determinant([[F(1), F(2)], [F(2), F(4)]]) == 0
