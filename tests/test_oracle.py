import random
from fractions import Fraction
from math import factorial

import pytest

import capgame.exact
import capgame.oracle
from capgame.errors import PreconditionError
from capgame.formal import INFINITY, LocalSeries, MarkedPoint, expand_rational_at_point
from capgame.oracle import (
    OracleReport,
    RationalFunction,
    certify_rationality,
    hankel_profile,
    multipoint_reconstruct,
    pade,
)
from fraction_poly import (
    fraction_mul,
    nullspace,
    poly,
    poly_deg,
    poly_reverse,
    poly_shift,
    reference_jet,
    reference_normal_form,
    reference_pade,
)

F = Fraction


def geometric(order):
    return LocalSeries(0, tuple(F(2) ** k for k in range(order + 1)))


def exp_jet(order):
    return LocalSeries(0, tuple(F(1, factorial(k)) for k in range(order + 1)))


# --- RationalFunction normal form -------------------------------------------


def test_normal_form_reduces_and_monicizes():
    # (2 + 2z)/(2 - 4z) reduces to (1 + z)/(1 - 2z), monic: (-1/2 - z/2)/(z - 1/2)
    f = RationalFunction((2, 2), (2, -4))
    g = RationalFunction((1, 1), (1, -2))
    assert f == g
    assert f.denominator[-1] == 1


def test_normal_form_cancels_common_factor():
    # (z^2 - 1)/(z - 1) == z + 1
    f = RationalFunction((-1, 0, 1), (-1, 1))
    assert f == RationalFunction((1, 1), (1,))
    assert f.degree == 1


def test_normal_form_zero():
    assert RationalFunction((0,), (3, 7)) == RationalFunction((), (1,))
    with pytest.raises(PreconditionError):
        RationalFunction((1,), ())


# --- Hankel ------------------------------------------------------------------


def test_hankel_geometric_series():
    dets = hankel_profile(geometric(6), 3)
    assert dets == [F(1), F(0), F(0), F(0)]


def test_hankel_zero_series():
    dets = hankel_profile(LocalSeries(0, (0,) * 9), 4)
    assert dets == [F(0)] * 5


def test_hankel_exp_jet():
    dets = hankel_profile(exp_jet(4), 2)
    assert dets == [F(1), F(-1, 2), F(-1, 144)]


def test_hankel_insufficient_truncation():
    with pytest.raises(PreconditionError, match="truncation"):
        hankel_profile(geometric(3), 2)


def test_hankel_vanishing_threshold():
    # for p/q with deg p = m, deg q = n, q(0) != 0, the Hankel rank is
    # max(m+1, n): determinants vanish from that size on
    rng = random.Random(3)
    for _ in range(20):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        num = [F(rng.randint(-4, 4)) for _ in range(m)] + [F(rng.randint(1, 4))]
        den = [F(rng.randint(1, 4))] + [F(rng.randint(-4, 4)) for _ in range(n - 1)]
        den += [F(rng.randint(1, 4))] if n else []
        f = RationalFunction(num, den)
        m_eff = poly_deg(f.numerator)
        n_eff = poly_deg(f.denominator)
        rank = max(m_eff + 1, n_eff)
        jet = f.jet(MarkedPoint(0, F(0)), 2 * (rank + 3))
        dets = hankel_profile(jet, rank + 3)
        assert all(d == 0 for d in dets[rank:])


# --- Pade --------------------------------------------------------------------


def test_pade_geometric():
    f = pade(LocalSeries(0, (1, 2, 4, 8, 16)), 0, 1)
    assert f == RationalFunction((1,), (1, -2))


def test_pade_sine_jet_rejected():
    # the (1,1) solve yields t, which fails re-expansion against the full jet
    sine = LocalSeries(0, (F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120)))
    assert pade(sine, 1, 1) is None


def test_pade_constant():
    assert pade(LocalSeries(0, (5,)), 0, 0) == RationalFunction((5,), (1,))


def test_pade_insufficient_truncation():
    with pytest.raises(PreconditionError, match="truncation"):
        pade(LocalSeries(0, (1, 2)), 1, 1)


def test_pade_recovers_random_functions():
    rng = random.Random(9)
    trials = 0
    while trials < 30:
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        num = [F(rng.randint(-5, 5)) for _ in range(m + 1)]
        den = [F(rng.randint(1, 5))] + [F(rng.randint(-5, 5)) for _ in range(n)]
        if not any(num) or den[0] == 0:
            continue
        f = RationalFunction(num, den)
        jet = f.jet(MarkedPoint(0, F(0)), m + n + 2)
        got = pade(jet, m, n)
        assert got == f
        trials += 1


# --- multi-point reconstruction ---------------------------------------------


def random_rational_function(rng, max_degree=5):
    while True:
        dn = rng.randint(0, max_degree)
        dd = rng.randint(0, max_degree)
        num = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dn + 1)]
        den = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dd + 1)]
        if any(num) and any(den):
            return RationalFunction(num, den)


def random_points(rng, f, count):
    pool = sorted({F(n, d) for n in range(-8, 9) for d in (1, 2, 3)})
    rng.shuffle(pool)
    pts = []
    for c in pool:
        try:
            expand_rational_at_point(f.numerator, f.denominator, MarkedPoint(0, c), 0)
        except PreconditionError:
            continue
        pts.append(c)
        if len(pts) == count:
            return [MarkedPoint(i, c) for i, c in enumerate(pts)]
    raise AssertionError("could not place points")


def test_multipoint_two_point_geometric():
    p0, pinf = MarkedPoint(0, F(0)), MarkedPoint(1, INFINITY)
    j0 = expand_rational_at_point([1], [1, -2], p0, 4)
    jinf = expand_rational_at_point([1], [1, -2], pinf, 4)
    f = multipoint_reconstruct([j0, jinf], 1, points=[p0, pinf])
    assert f == RationalFunction((1,), (1, -2))


def test_multipoint_rejects_mismatched_jets():
    p0, pinf = MarkedPoint(0, F(0)), MarkedPoint(1, INFINITY)
    j0 = expand_rational_at_point([1], [1, -1], p0, 5)
    jinf = expand_rational_at_point([1], [1, -2], pinf, 5)
    assert multipoint_reconstruct([j0, jinf], 3, points=[p0, pinf]) is None


def test_multipoint_zero_jets():
    jets = [LocalSeries(0, (0,) * 4), LocalSeries(1, (0,) * 4)]
    pts = [MarkedPoint(0, F(0)), MarkedPoint(1, F(1))]
    f = multipoint_reconstruct(jets, 1, points=pts)
    assert f == RationalFunction((), (1,))


def test_multipoint_default_points():
    # without points, a single jet sits at coordinate 0; two jets need points
    f = multipoint_reconstruct([geometric(3)], 1)
    assert f == RationalFunction((1,), (1, -2))
    jets = [LocalSeries(0, (1, 2)), LocalSeries(1, (3, 4))]
    with pytest.raises(PreconditionError, match="points are required"):
        multipoint_reconstruct(jets, 1)


def test_multipoint_insufficient_order():
    jets = [LocalSeries(0, (1, 2)), LocalSeries(1, (3,))]
    pts = [MarkedPoint(0, F(0)), MarkedPoint(1, F(1))]
    with pytest.raises(PreconditionError, match="insufficient"):
        multipoint_reconstruct(jets, 1, points=pts)


def test_multipoint_round_trip_random():
    # soundness + completeness on random rational functions from two-point jets
    rng = random.Random(101)
    for _ in range(60):
        f = random_rational_function(rng, max_degree=4)
        d = f.degree
        pts = random_points(rng, f, 2)
        jets = [f.jet(pt, d) for pt in pts]  # total conditions 2d+2
        got = multipoint_reconstruct(jets, d, points=pts)
        assert got == f


def test_multipoint_includes_infinity_round_trip():
    rng = random.Random(103)
    done = 0
    while done < 25:
        f = random_rational_function(rng, max_degree=4)
        if poly_deg(f.numerator) > poly_deg(f.denominator):
            continue  # pole at infinity
        d = f.degree
        pinf = MarkedPoint(7, INFINITY)
        pts = random_points(rng, f, 1) + [pinf]
        jets = [f.jet(pts[0], d), f.jet(pinf, d)]
        got = multipoint_reconstruct(jets, d, points=pts)
        assert got == f
        done += 1


def test_certify_search_finds_minimal_degree():
    p0 = MarkedPoint(0, F(0))
    jets = [expand_rational_at_point([1], [1, -2], p0, 10)]
    rep = certify_rationality(jets, [p0], degree_bound=4)
    assert rep.status == "rational"
    assert rep.function == RationalFunction((1,), (1, -2))
    assert rep.verified_orders == {0: 10}


def test_certify_truncated_exp_not_found():
    p0 = MarkedPoint(0, F(0))
    rep = certify_rationality([exp_jet(10)], [p0])
    assert rep.status == "not_found"
    assert rep.function is None
    assert rep.degree_cap == 4  # (11 - 2) // 2


# --- reference: one nullspace per degree -------------------------------------


def reference_multipoint(jets, d, points):
    """The degree-d solve of the earlier oracle: rows in the monomial basis
    (homogenized at infinity), one exact nullspace, every kernel vector
    verified against the full jets."""
    ncols = 2 * (d + 1)
    rows = []
    monomials = [tuple(F(int(k == j)) for k in range(d + 1)) for j in range(d + 1)]
    for jet, pt in zip(jets, points):
        coeffs = jet.coefficients
        order = len(coeffs) - 1
        if pt.is_infinite:
            basis = [poly_reverse(mono, d) for mono in monomials]
        else:
            basis = [poly_shift(mono, pt.coordinate) for mono in monomials]
        for r in range(order + 1):
            row = [F(0)] * ncols
            for k in range(d + 1):
                row[k] = -(basis[k][r] if r < len(basis[k]) else F(0))
                row[d + 1 + k] = sum((qc * coeffs[r - m] for m, qc in enumerate(basis[k])
                                      if qc != 0 and 0 <= r - m <= order), F(0))
            rows.append(row)
    for vec in nullspace(rows, ncols):
        den = poly(vec[d + 1:])
        if not den:
            continue
        candidate = RationalFunction(poly(vec[: d + 1]), den)
        if all(_matches(candidate, pt, j) for j, pt in zip(jets, points)):
            return candidate
    if all(all(c == 0 for c in j.coefficients) for j in jets):
        return RationalFunction((), (F(1),))
    return None


def _matches(f, pt, jet):
    try:
        return f.jet(pt, jet.order).coefficients == jet.coefficients
    except PreconditionError:
        return False


def _has_pole(f, pt):
    try:
        f.jet(pt, 0)
    except PreconditionError:
        return True
    return False


def reference_certify(jets, points, degree_bound=None):
    """The earlier degree scan: d = 0, 1, ... up to the cap."""
    cap = (sum(j.order + 1 for j in jets) - 2) // 2
    if degree_bound is not None:
        cap = min(cap, degree_bound)
    orders = {j.point: j.order for j in jets}
    for d in range(cap + 1):
        found = reference_multipoint(jets, d, points)
        if found is not None:
            return OracleReport("rational", found, orders, cap)
    return OracleReport("not_found", None, orders, cap)


def random_pade_case(rng):
    """Degrees (m, n) and a jet at 0 with m + n + 1 coefficients or a few
    more: of a random function without a pole at 0, the same jet with one
    coefficient perturbed, mostly zeros, or a non-rational series."""
    m, n = rng.randint(0, 4), rng.randint(0, 4)
    length = m + n + 1 + rng.choice([0, 0, 1, 2, 4])
    kind = rng.choice(["rational", "perturbed", "zero_heavy", "non_rational"])
    if kind == "zero_heavy":
        return [F(rng.randint(-3, 3)) if rng.random() < 0.25 else F(0) for _ in range(length)], m, n
    if kind == "non_rational":
        series = rng.choice([lambda k: F(1, factorial(k)), lambda k: F((-1) ** k, k + 1),
                             lambda k: F(rng.randint(-9, 9), rng.randint(1, 4))])
        return [series(k) for k in range(length)], m, n
    f = random_rational_function(rng, max_degree=4)
    while _has_pole(f, MarkedPoint(0, F(0))):
        f = random_rational_function(rng, max_degree=4)
    coeffs = list(f.jet(MarkedPoint(0, F(0)), length - 1).coefficients)
    if kind == "perturbed":
        coeffs[rng.randrange(length)] += rng.choice([1, -1, F(1, 7)])
    return coeffs, m, n


def test_pade_matches_nullspace_reference():
    rng = random.Random(20261)
    seen = set()
    for _ in range(2000):
        coeffs, m, n = random_pade_case(rng)
        want = reference_pade(coeffs, m, n)
        assert pade(LocalSeries(0, tuple(coeffs)), m, n) == want
        seen.add((want is None, m == n, len(coeffs) == m + n + 1))
    # found and not found, m = n and m != n, exact and longer truncation
    assert len(seen) == 8


# small integers are marked often, so the point infinity moves to is not 0
POINT_POOL = [F(0), F(1), F(2), F(-1), F(1, 2), F(-2, 3), F(3)]


def random_oracle_case(rng):
    """Jets at 1-3 points (infinity marked in about half) of a random
    function, of the same jets with one coefficient perturbed (often the
    last, past the first 2*cap + 2 conditions), or of zero; with a
    degree_bound below or at the data cap in half the cases."""
    kind = rng.choice(["rational", "perturbed", "perturbed_last", "zero"])
    f = random_rational_function(rng, max_degree=3)
    if kind == "zero":
        f = RationalFunction((), (1,))
    npts = rng.randint(1, 3)
    candidates = rng.sample(POINT_POOL, len(POINT_POOL))
    if rng.random() < 0.5:
        candidates.insert(rng.randint(0, npts - 1), INFINITY)
    coords = [c for c in candidates if not _has_pole(f, MarkedPoint(0, c))][:npts]
    points = [MarkedPoint(i, c) for i, c in enumerate(coords)]
    total = rng.randint(len(points), 2 * f.degree + 4)
    cuts = sorted(rng.sample(range(1, total), len(points) - 1))
    orders = [b - a - 1 for a, b in zip([0] + cuts, cuts + [total])]
    jets = [f.jet(pt, m) for pt, m in zip(points, orders)]
    if kind.startswith("perturbed"):
        i = len(jets) - 1 if kind == "perturbed_last" else rng.randrange(len(jets))
        k = jets[i].order if kind == "perturbed_last" else rng.randint(0, jets[i].order)
        coeffs = list(jets[i].coefficients)
        coeffs[k] += rng.choice([1, -1, F(1, 7)])
        jets[i] = LocalSeries(jets[i].point, tuple(coeffs))
    cap = (total - 2) // 2
    bound = rng.choice([None, None, max(cap, 0), rng.randint(0, max(cap, 0))])
    return jets, points, bound


def test_certify_matches_degree_scan():
    rng = random.Random(20231)
    seen = set()
    for _ in range(400):
        jets, points, bound = random_oracle_case(rng)
        want = reference_certify(jets, points, bound)
        assert certify_rationality(jets, points, bound) == want
        conditions = sum(j.order + 1 for j in jets)
        seen.add((want.status, any(p.is_infinite for p in points),
                  conditions > 2 * want.degree_cap + 2))
    # every mix of answer, infinity marked, and data past the 2*cap + 2
    # conditions the reconstruction reads was compared
    assert len(seen) == 8


def test_multipoint_matches_reference_every_degree():
    rng = random.Random(20232)
    for _ in range(120):
        jets, points, _ = random_oracle_case(rng)
        cap = (sum(j.order + 1 for j in jets) - 2) // 2
        for d in range(cap + 1):
            assert multipoint_reconstruct(jets, d, points=points) == \
                reference_multipoint(jets, d, points)


def test_reconstruction_reads_only_2cap_plus_2_conditions(monkeypatch):
    # 14 points with order-5 jets and cap 1: the Euclidean run starts from
    # a modulus of degree 4, not 84
    degrees = []
    real_pdivmod = capgame.exact.ipoly_pdivmod

    def spy(a, b):
        degrees.append(len(a) - 1)
        return real_pdivmod(a, b)

    monkeypatch.setattr(capgame.exact, "ipoly_pdivmod", spy)
    f = RationalFunction((1, 2), (3, 1))
    points = [MarkedPoint(i, F(i + 1)) for i in range(13)] + [MarkedPoint(13, INFINITY)]
    jets = [f.jet(pt, 5) for pt in points]
    rep = certify_rationality(jets, points, degree_bound=1)
    assert rep.function == f
    assert max(degrees) == 4


# --- integer normal form and verification against Fraction references ---------

BIG = 10**21 + 7  # jet denominators above 10**20


def random_coefficients(rng, length, big=False):
    dens = [1, 1, 2, 3, BIG] if big else [1, 1, 2, 3]
    return [F(rng.randint(-5, 5), rng.choice(dens)) for _ in range(length)]


def test_normal_form_matches_the_fraction_reference():
    rng = random.Random(20291)
    for k in range(120):
        common = poly(random_coefficients(rng, rng.randint(1, 3), big=k % 3 == 0))
        num = poly(random_coefficients(rng, rng.randint(0, 4), big=k % 2 == 0))
        den = poly(random_coefficients(rng, rng.randint(1, 4), big=k % 5 == 0))
        if not common or not den:
            continue
        num, den = fraction_mul(num, common), fraction_mul(den, common)
        f = RationalFunction(num, den)
        assert (f.numerator, f.denominator) == reference_normal_form(num, den)
        assert f.degree == max(poly_deg(f.numerator), poly_deg(f.denominator), 0)
    with pytest.raises(PreconditionError, match="zero denominator"):
        RationalFunction((1, 2), (0,))


def test_certify_matches_the_fraction_reference():
    # jets of a random function by plain Fraction expansion, at 1-3 points
    # (infinity or a point with a 10**21 denominator among them in turn);
    # complete jets give back its reference normal form, and jets whose
    # last coefficient (past the 2*cap + 2 conditions read) is off by one
    # give not_found
    rng = random.Random(20292)
    pool = [F(0), F(1), F(-2), F(3, 2), F(5, BIG), INFINITY]
    found = 0
    for k in range(100):
        num = random_coefficients(rng, rng.randint(1, 4), big=k % 2 == 0)
        den = random_coefficients(rng, rng.randint(1, 4), big=k % 3 == 0)
        if not any(den):
            continue
        want = reference_normal_form(num, den)
        coords = []
        for c in rng.sample(pool, len(pool)):
            try:
                reference_jet(*want, MarkedPoint(0, c), 0)
            except PreconditionError:
                continue
            coords.append(c)
        points = [MarkedPoint(i, c) for i, c in enumerate(coords[: rng.randint(1, 3)])]
        degree = max(len(want[0]), len(want[1])) - 1
        perturb = k % 2 == 1
        total = 2 * degree + 2 + rng.randint(0, 3) + perturb
        total += perturb and total % 2 == 0  # odd: the last condition is not read
        orders = [len(range(i, total, len(points))) - 1 for i in range(len(points))]
        coeffs = [list(reference_jet(*want, pt, m)) for pt, m in zip(points, orders)]
        if perturb:
            coeffs[-1][-1] += 1
        jets = [LocalSeries(pt.id, tuple(cs)) for pt, cs in zip(points, coeffs)]
        rep = certify_rationality(jets, points)
        if perturb:
            assert rep.status == "not_found"
            continue
        assert rep.status == "rational"
        assert (rep.function.numerator, rep.function.denominator) == want
        assert all(reference_jet(*want, pt, j.order) == j.coefficients
                   for pt, j in zip(points, jets))
        found += 1
    assert found > 30


def test_an_unreduced_candidate_is_reduced_before_verification(monkeypatch):
    # the Euclid's r/t times (z - 1)/(z - 1): unreduced, it has a pole at the
    # marked point 1; reduced first, it matches every jet
    real_euclid = capgame.oracle.ipoly_euclid

    def with_factor(a, b):
        for r, t in real_euclid(a, b):
            yield mul_z_minus_1(r), mul_z_minus_1(t)

    monkeypatch.setattr(capgame.oracle, "ipoly_euclid", with_factor)
    f = RationalFunction((2, F(1, 3)), (1, F(-1, BIG)))
    points = [MarkedPoint(0, F(0)), MarkedPoint(1, F(1))]
    jets = [f.jet(pt, 3) for pt in points]
    unreduced = mul_z_minus_1(f.numerator), mul_z_minus_1(f.denominator)
    with pytest.raises(PreconditionError, match="pole"):
        expand_rational_at_point(*unreduced, points[1], 0)
    rep = certify_rationality(jets, points)
    assert rep.status == "rational" and rep.function == f


def mul_z_minus_1(p):
    """p(z) * (z - 1) on a coefficient list."""
    p = list(p)
    return [a - b for a, b in zip([0] + p, p + [0])] if p else []
