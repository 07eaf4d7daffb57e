import math
import random
from fractions import Fraction

import pytest

from capgame.errors import PreconditionError
from capgame.exact import (
    bareiss,
    determinant,
    format_rational,
    ipoly,
    ipoly_add,
    ipoly_euclid,
    ipoly_fractions,
    ipoly_gcd,
    ipoly_mul,
    ipoly_pdivmod,
    ipoly_quotient,
    ipoly_shift,
    is_prime,
    iseries_div,
    matrix_rank,
    padic_valuation,
    parse_rational,
    support_primes,
)
from fraction_poly import (
    fraction_mul,
    fraction_series_div,
    fraction_shift,
    poly,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_reverse,
    poly_shift,
    poly_sub,
    reference_determinant,
    rref,
    series_div,
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
    # on integers: a primitive gcd, and exact quotients by it
    assert ipoly_gcd([4, 6, 2], [-6, -8, -2]) in ([1, 1], [-1, -1])
    assert ipoly_gcd([4], [0, 2]) == [1] and ipoly_gcd([], []) == []
    assert ipoly_quotient([2, 6, 4], [1, 1]) == [2, 4]
    assert ipoly_quotient([-6, 7, -2], [-2, 1]) == [3, -2]


def test_series_div_geometric():
    assert series_div([1], [1, -2], 4) == [F(1), F(2), F(4), F(8), F(16)]
    with pytest.raises(PreconditionError):
        series_div([1], [0, 1], 3)


def test_linear_algebra():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert matrix_rank(rows) == 2
    assert determinant([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
    assert determinant([[F(1), F(2)], [F(2), F(4)]]) == 0


# --- integer polynomial core against plain Fraction computations ---------------


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def monic_euclid(a, b):
    """The extended Euclidean sequence over Fraction with monic remainders."""
    r0, r1, t0, t1 = a, b, (), (F(1),)
    yield r1, t1
    while r1:
        q, r = poly_divmod(r0, r1)
        prod = fraction_mul(q, t1)
        t = trim((t0[i] if i < len(t0) else 0) - (prod[i] if i < len(prod) else 0)
                 for i in range(max(len(t0), len(prod))))
        if r:
            r, t = tuple(v / r[-1] for v in r), tuple(v / r[-1] for v in t)
        r0, r1, t0, t1 = r1, r, t1, t
        yield r1, t1


# nodes: zero, negative, non-integer, and with a large denominator
NODES = [F(0), F(-3), F(2), F(-7, 3), F(5, 2), F(11, 10**20 + 39)]
DENOMINATORS = [1, 1, 2, 3, 7, 12, 10**25 + 13]


def random_fraction_poly(rng, max_len=8):
    """Random trimmed Fraction coefficients, the zero polynomial included."""
    return trim(F(rng.randint(-9, 9), rng.choice(DENOMINATORS))
                for _ in range(rng.randint(0, max_len)))


def is_reduced(p):
    cs, den = p
    return den > 0 and math.gcd(den, *cs) == 1 and (not cs or cs[-1] != 0)


def test_ipoly_round_trip():
    rng = random.Random(401)
    for _ in range(100):
        p = random_fraction_poly(rng)
        ip = ipoly(p)
        assert is_reduced(ip)
        assert ipoly_fractions(ip) == p
    assert ipoly([]) == ([], 1)
    assert ipoly_fractions(([], 1), 3) == (F(0), F(0), F(0))


def test_integer_taylor_shift_matches_fractions():
    rng = random.Random(402)
    for _ in range(300):
        p = random_fraction_poly(rng)
        a = rng.choice(NODES + [F(rng.randint(-20, 20), rng.randint(1, 9))])
        got = ipoly_shift(ipoly(p), a)
        assert is_reduced(got)
        assert ipoly_fractions(got) == fraction_shift(p, a)
        assert poly_shift(p, a) == fraction_shift(p, a)


def test_integer_series_division_matches_fractions():
    rng = random.Random(403)
    for _ in range(300):
        num = random_fraction_poly(rng)
        den = (F(rng.choice([1, -1, 2, -3]), rng.choice(DENOMINATORS)),) + \
            random_fraction_poly(rng, 5)
        order = rng.randint(0, 10)
        want = fraction_series_div(num, den, order)
        got = iseries_div(ipoly(num), ipoly(den), order)
        assert is_reduced(got)
        assert ipoly_fractions(got, order + 1) == tuple(want)
        assert series_div(num, den, order) == want
    with pytest.raises(PreconditionError):
        iseries_div(ipoly([1]), ipoly([0, 1]), 3)


def test_integer_product_and_sum_match_fractions():
    rng = random.Random(404)
    for _ in range(300):
        p, q = random_fraction_poly(rng), random_fraction_poly(rng)
        n = max(len(p), len(q))
        pad = [(p[i] if i < len(p) else 0, q[i] if i < len(q) else 0) for i in range(n)]
        for got, want in ((ipoly_mul(ipoly(p), ipoly(q)), fraction_mul(p, q)),
                          (ipoly_add(ipoly(p), ipoly(q)), trim(a + b for a, b in pad)),
                          (ipoly_add(ipoly(p), ipoly(q), -1), trim(a - b for a, b in pad))):
            assert is_reduced(got)
            assert ipoly_fractions(got) == want
        assert poly_mul(p, q) == fraction_mul(p, q)


def test_pseudo_division_matches_fractions():
    rng = random.Random(405)
    for _ in range(300):
        a, b = random_fraction_poly(rng), random_fraction_poly(rng, 5)
        if not b:
            continue
        (acs, da), (bcs, db) = ipoly(a), ipoly(b)
        q, r = ipoly_pdivmod(acs, bcs)
        lead = bcs[-1] ** max(len(acs) - len(bcs) + 1, 0)
        prod = fraction_mul(tuple(map(F, q)), tuple(map(F, bcs)))
        assert trim(lead * F(v) for v in acs) == trim(
            (prod[i] if i < len(prod) else 0) + (r[i] if i < len(r) else 0)
            for i in range(max(len(prod), len(r))))
        assert len(r) < len(bcs)
        scale = da * lead
        assert poly_divmod(a, b) == (poly(F(v * db, scale) for v in q), poly(F(v, scale) for v in r))
    with pytest.raises(ZeroDivisionError):
        ipoly_pdivmod([1, 2], [])


def test_euclid_matches_the_monic_run_at_every_step():
    rng = random.Random(406)
    for _ in range(200):
        # a modulus as in the oracle: a product of (b*z - a)**n over nodes
        m = [1]
        for x in rng.sample(NODES, rng.randint(1, 3)):
            factor = [-x.numerator, x.denominator]
            for _ in range(rng.randint(1, 4)):
                m = ipoly_mul((m, 1), (factor, 1))[0]
        f = random_fraction_poly(rng, len(m) - 1)
        steps = list(ipoly_euclid(m, ipoly(f)))
        reference = list(monic_euclid(tuple(map(F, m)), f))
        assert len(steps) == len(reference)
        for (r, t), (r_monic, t_monic) in zip(steps, reference):
            # the same r/t: one scalar carries the monic pair onto the integer one
            scale = F(r[-1]) / r_monic[-1] if r else F(t[-1]) / t_monic[-1]
            assert tuple(map(F, r)) == tuple(scale * v for v in r_monic)
            assert tuple(map(F, t)) == tuple(scale * v for v in t_monic)
            assert math.gcd(*r, *t) == 1 or (r, t) == steps[0]


def test_poly_gcd_matches_the_monic_run():
    rng = random.Random(407)
    for _ in range(200):
        common = random_fraction_poly(rng, 3)
        a = poly_mul(common, random_fraction_poly(rng, 4))
        b = poly_mul(common, random_fraction_poly(rng, 4))
        last = ()
        for r, _ in monic_euclid(a, b):
            last = r or last
        want = tuple(v / last[-1] for v in last) if last else ()
        if not b:
            want = tuple(v / a[-1] for v in a) if a else ()
        assert poly_gcd(a, b) == want
        g = ipoly_gcd(ipoly(a)[0], ipoly(b)[0])
        assert math.gcd(*g) in (0, 1)
        assert tuple(F(v, g[-1]) for v in g) == want


# --- one Bareiss elimination against Fraction Gauss-Jordan ---------------------


BAREISS_CASES = {
    "rank_deficient": [[2, 4, 6], [1, 2, 3], [0, 1, 1]],
    "rectangular": [[1, 2, 3, 4], [5, 6, 7, 8]],
    "tall": [[1, 2], [3, 4], [5, 6]],
    "skips_a_column": [[0, 1, 2], [0, 3, 4], [0, 5, 7]],
    "swaps_rows": [[0, 1], [1, 0]],
    "all_zero": [[0, 0], [0, 0], [0, 0]],
    "nonsingular": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(BAREISS_CASES))
def test_bareiss_matches_fraction_elimination(name):
    rows = BAREISS_CASES[name]
    mat = [list(r) for r in rows]
    pivots, sign = bareiss(mat)
    assert pivots == rref(rows)[1]
    assert all(isinstance(v, int) for row in mat for v in row)
    # row echelon form, zero past the rank
    for k, row in enumerate(mat):
        lead = pivots[k] if k < len(pivots) else len(row)
        assert not any(row[:lead])
        assert k >= len(pivots) or row[lead] != 0
    if rows and len(rows) == len(rows[0]) and len(pivots) == len(rows):
        assert sign * mat[-1][-1] == reference_determinant(rows)


def random_rational_matrix(rng, nrows, ncols):
    """Dense, sparse, or with one row a multiple of another."""
    kind = rng.choice(["dense", "sparse", "dependent"])
    density = 0.3 if kind == "sparse" else 1.0
    rows = [[F(rng.randint(-5, 5), rng.choice(DENOMINATORS)) if rng.random() < density else F(0)
             for _ in range(ncols)] for _ in range(nrows)]
    if kind == "dependent" and nrows > 1:
        i, j = rng.sample(range(nrows), 2)
        c = F(rng.randint(-3, 3), rng.choice(DENOMINATORS))
        rows[i] = [c * v for v in rows[j]]
    return rows


def test_determinant_and_rank_match_fraction_reference():
    rng = random.Random(408)
    singular = deficient = 0
    for _ in range(1000):
        n = rng.randint(0, 6)
        square = random_rational_matrix(rng, n, n)
        det = determinant(square)
        assert det == reference_determinant(square)
        singular += det == 0
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        rows = random_rational_matrix(rng, nrows, ncols)
        rank = matrix_rank(rows)
        assert rank == len(rref(rows)[1])
        deficient += rank < min(nrows, ncols)
    assert singular > 100 and deficient > 100
