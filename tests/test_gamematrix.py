import math
import random
from fractions import Fraction

import pytest

from capgame.errors import PreconditionError
from capgame.exact import support_primes
from capgame.gamematrix import GameMatrix, assemble, gauge_shift, irreducibility
from capgame.nonarch import NonArchPlace, PrimeMatrix, nonarch_matrix

F = Fraction
INF = math.inf


def test_assemble_single_arch():
    g = assemble(arch=[((math.log(2),),)])
    assert g.entries == ((math.log(2),),)
    assert g.places == ("real",)


def test_assemble_infinite_off_diagonal():
    extra = ((0.0, INF), (INF, 0.0))
    g = assemble(arch=[((0.0, 0.0), (0.0, 0.0))], extra=[extra])
    assert g.entries[0][1] == INF and g.entries[1][0] == INF
    assert g.entries[0][0] == 0.0 and g.entries[1][1] == 0.0
    assert g.to_report()["entries"] == [[0.0, "inf"], ["inf", 0.0]]


def test_assemble_borel_dwork_setup():
    # Disk(0, 2) Robin constant plus all-zero prime contributions
    g = assemble(
        arch=[((math.log(2),),)],
        nonarch=[PrimeMatrix(p, ((F(0),),)) for p in (2, 3, 5)],
    )
    assert g.entries[0][0] == pytest.approx(math.log(2), abs=1e-15)
    assert g.places == ("real", "p=2", "p=3", "p=5")


def test_assemble_rejects_infinite_diagonal():
    with pytest.raises(PreconditionError, match="diagonal"):
        assemble(extra=[((INF,),)])


def test_assemble_rejects_negative_off_diagonal():
    with pytest.raises(PreconditionError, match="negative"):
        assemble(arch=[((0.0, -1.0), (0.0, 0.0))])


def test_assemble_warns_on_asymmetric_extra():
    extra = ((0.0, 1.0), (2.0, 0.0))
    with pytest.warns(UserWarning, match="asymmetric"):
        g = assemble(extra=[extra])
    assert g.entries[0][1] == 1.0


def test_assemble_permutation_equivariance():
    # relabeling the index set conjugates the assembled matrix
    a = ((0.1, 0.2), (0.2, 0.4))
    m = PrimeMatrix(3, ((F(-1), F(0)), (F(0), F(-1, 2))))
    g = assemble(arch=[a], nonarch=[m])
    perm = [1, 0]
    a_p = tuple(tuple(a[perm[i]][perm[j]] for j in range(2)) for i in range(2))
    m_p = PrimeMatrix(3, tuple(tuple(m.coeffs[perm[i]][perm[j]] for j in range(2)) for i in range(2)))
    g_p = assemble(arch=[a_p], nonarch=[m_p])
    for i in range(2):
        for j in range(2):
            assert g_p.entries[i][j] == g.entries[perm[i]][perm[j]]


def gauge_places(scalar: F):
    """The real place plus every prime supporting the scalar, as zero data."""
    mats = [((0.0,),)]
    for p in support_primes(scalar):
        mats.append(nonarch_matrix(NonArchPlace(p), [0]))
    return mats


@pytest.mark.parametrize("scalar", [F(2), F(3, 2), F(-5, 6), F(7, 10), F(-1)])
def test_product_formula_gauge_invariance(scalar):
    mats = gauge_places(scalar)
    shifted = gauge_shift(mats, [scalar])
    base = assemble(
        arch=[mats[0]], nonarch=[m for m in mats[1:]]
    )
    after = assemble(
        arch=[shifted[0]], nonarch=[m for m in shifted[1:]]
    )
    assert abs(after.entries[0][0] - base.entries[0][0]) < 1e-9


def test_gauge_shift_leaves_off_diagonal():
    arch = ((0.5, 0.25), (0.25, 0.5))
    (shifted,) = gauge_shift([arch], [F(2), F(3)])
    assert shifted[0][1] == 0.25 and shifted[1][0] == 0.25
    assert shifted[0][0] == pytest.approx(0.5 - math.log(2), abs=1e-15)
    assert shifted[1][1] == pytest.approx(0.5 - math.log(3), abs=1e-15)


def test_gauge_shift_trivial_and_errors():
    arch = ((1.0,),)
    assert gauge_shift([arch], [F(1)])[0] == arch
    with pytest.raises(PreconditionError):
        gauge_shift([arch], [F(0)])


def test_gauge_shift_prime_matrix_exact():
    m = PrimeMatrix(2, ((F(0), F(1)), (F(1), F(0))))
    (shifted,) = gauge_shift([m], [F(3, 2), F(4)])
    assert shifted.coeffs == ((F(-1), F(1)), (F(1), F(2)))


def test_irreducibility():
    assert irreducibility(((0.0,),)) is True
    assert irreducibility(((0.0, 1.0), (1.0, 0.0))) is True
    assert irreducibility(((0.0, 0.0), (0.0, 0.0))) is False
    # one-way connection is not strong connectivity
    assert irreducibility(((0.0, 1.0), (0.0, 0.0))) is False
    g = GameMatrix(ids=(0, 1), entries=((0.0, INF), (INF, 0.0)))
    assert irreducibility(g) is True


def test_game_matrix_validation():
    with pytest.raises(PreconditionError):
        GameMatrix(ids=(0,), entries=((INF,),))
    with pytest.raises(PreconditionError):
        GameMatrix(ids=(0, 1), entries=((0.0, -0.5), (0.0, 0.0)))


def _fraction_sum_assemble(arch, nonarch, n):
    """The entries assemble gives, with each prime's coefficients summed as Fractions."""
    total = [[0.0] * n for _ in range(n)]
    for m in arch:
        for i in range(n):
            for j in range(n):
                total[i][j] += m[i][j]
    for p in sorted({pm.p for pm in nonarch}):
        for i in range(n):
            for j in range(n):
                acc = sum((pm.coeffs[i][j] for pm in nonarch if pm.p == p), F(0))
                total[i][j] += float(acc) * math.log(p)
    return total


def test_assemble_prime_sums_match_the_fraction_sum():
    # integer numerators over one denominator per prime give bit-identical floats
    rng = random.Random(331)

    def coeff():  # numerators and denominators up to 10**20
        return F(rng.randint(-10**rng.randint(0, 20), 10**rng.randint(0, 20)),
                 rng.randint(1, 10**rng.randint(0, 20)))

    for case in range(600):
        n = rng.randint(1, 5)
        nonarch = []
        for p in rng.sample((2, 3, 5, 7, 11), rng.randint(1, 3)):
            for _ in range(rng.randint(1, 3)):  # one to three matrices per prime
                rows = [[F(0)] * n for _ in range(n)]
                for i in range(n):
                    rows[i][i] = coeff()
                    for j in range(i):
                        if rng.random() < 0.5:
                            rows[i][j] = rows[j][i] = abs(coeff())
                nonarch.append(PrimeMatrix(p, tuple(map(tuple, rows))))
        arch = []
        if case % 2:
            r = [[rng.uniform(0, 3) for _ in range(n)] for _ in range(n)]
            arch.append(tuple(tuple((r[i][j] + r[j][i]) / 2 for j in range(n)) for i in range(n)))
        got = assemble(arch, nonarch).entries
        want = _fraction_sum_assemble(arch, nonarch, n)
        assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in want]


def test_prime_matrix_coefficients_must_be_exact():
    with pytest.raises(PreconditionError, match="exact"):
        PrimeMatrix(2, ((F(-1, 2), 0), (0, 0.5)))
    assert PrimeMatrix(2, ((F(-1, 2), 0), (0, F(1, 2)))).size == 2


def test_gauge_shift_without_scalings_returns_the_matrices():
    arch = ((1.0, 0.5), (0.5, 2.0))
    primes = [PrimeMatrix(2, ((F(0), F(1)), (F(1), F(0)))), nonarch_matrix(NonArchPlace(3), [0, 1])]
    shifted = gauge_shift([arch] + primes, [F(1), F(1)])
    assert len(shifted) == 3 and all(s is m for s, m in zip(shifted, [arch] + primes))
    # the size and zero checks still run
    with pytest.raises(PreconditionError, match="does not match"):
        gauge_shift(primes, [F(1)])
    with pytest.raises(PreconditionError, match="nonzero"):
        gauge_shift(primes, [F(1), F(0)])
