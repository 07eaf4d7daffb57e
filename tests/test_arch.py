import math
import random
from fractions import Fraction

import pytest

from capgame.arch import (
    ArchDomainAssignment,
    Disk,
    DisjointUnion,
    ExteriorDisk,
    IntervalComplement,
    arch_matrix,
    green,
    locate_component,
    robin_constant,
    validate_green,
)
from capgame.errors import PreconditionError, ProblemFormatError
from capgame.formal import INFINITY, MarkedPoint
from capgame.gamematrix import gauge_shift
from capgame.greengrid import _grid_green

F = Fraction


def numeric_robin(domain, pole, steps=(1e-5, 1e-6)):
    """Independent oracle: evaluate g + log|t| along a sequence z -> pole."""
    vals = []
    for d in steps:
        if pole == INFINITY:
            z = complex(1.0 / d, 0.3 / d)
            vals.append(green(domain, pole, z) + math.log(1.0 / abs(z)))
        else:
            z = complex(Fraction(pole)) + complex(d, d / 3)
            vals.append(green(domain, pole, z) + math.log(abs(z - complex(Fraction(pole)))))
    assert abs(vals[0] - vals[1]) < 1e-4  # the limit has stabilized
    return vals[-1]


# --- closed-form values ----------------------------------------------------


def test_green_disk_centered():
    assert green(Disk(0, 2), F(0), 1 + 0j) == pytest.approx(math.log(2), abs=1e-12)
    assert green(Disk(0, 2), F(0), 2 + 0j) == pytest.approx(0.0, abs=1e-12)


def test_green_interval_complement_at_five():
    got = green(IntervalComplement(-1, 1), INFINITY, 5 + 0j)
    assert got == pytest.approx(math.log(5 + math.sqrt(24)), abs=1e-12)
    assert got == pytest.approx(2.2924, abs=1e-4)


def test_green_errors():
    with pytest.raises(PreconditionError):
        green(Disk(0, 2), F(3), 1 + 0j)  # pole outside
    with pytest.raises(PreconditionError):
        green(Disk(0, 2), F(2), 1 + 0j)  # pole on boundary
    with pytest.raises(PreconditionError):
        green(Disk(0, 2), F(1), 1 + 0j)  # z equals the pole
    with pytest.raises(PreconditionError):
        green(Disk(0, 2), F(0), 5 + 0j)  # z outside the closure


def test_robin_constants_disks():
    assert robin_constant(Disk(0, 2), F(0)) == pytest.approx(math.log(2), abs=1e-12)
    assert robin_constant(Disk(0, 1), F(0)) == pytest.approx(0.0, abs=1e-12)
    # off-center pole: log((R^2 - d^2)/R)
    assert robin_constant(Disk(0, 2), F(1)) == pytest.approx(math.log(3 / 2), abs=1e-12)


def test_robin_polya_threshold():
    assert robin_constant(IntervalComplement(-1, 1), INFINITY) == pytest.approx(
        math.log(2), abs=1e-12
    )
    assert robin_constant(IntervalComplement(-2, 2), INFINITY) == pytest.approx(
        0.0, abs=1e-12
    )


def test_robin_exterior_disk():
    assert robin_constant(ExteriorDisk(0, 1), INFINITY) == pytest.approx(0.0, abs=1e-12)
    assert robin_constant(ExteriorDisk(0, 2), INFINITY) == pytest.approx(
        -math.log(2), abs=1e-12
    )


@pytest.mark.parametrize(
    "domain,pole",
    [
        (Disk(0, 2), F(1, 2)),
        (ExteriorDisk(0, 1), F(3)),
        (IntervalComplement(-1, 1), F(4)),
        (IntervalComplement(-1, 1), F(-3)),
        (ExteriorDisk(1, 2), INFINITY),
        (IntervalComplement(0, 3), INFINITY),
    ],
)
def test_robin_matches_numeric_limit(domain, pole):
    assert robin_constant(domain, pole) == pytest.approx(
        numeric_robin(domain, pole), abs=1e-4
    )


def test_robin_convention_mismatch():
    with pytest.raises(PreconditionError):
        robin_constant(Disk(0, 2), F(0), convention="1/z")
    assert robin_constant(Disk(0, 2), F(0), convention="z-p") == pytest.approx(
        math.log(2)
    )


# --- structural properties -------------------------------------------------


def random_disk_setup(rng):
    c = F(rng.randint(-8, 8), rng.randint(1, 4))
    r = F(rng.randint(20, 35), 10)
    w = c + F(rng.randint(-25, 25), 100) * r
    z = c + F(rng.randint(-60, 60), 100) * r + 1j * rng.uniform(-0.5, 0.5) * float(r)
    return Disk(c, r), w, z


def test_symmetry_on_random_disks():
    rng = random.Random(7)
    count = 0
    while count < 50:
        disk, w, _ = random_disk_setup(rng)
        w2 = disk.center + F(rng.randint(-25, 25), 100) * disk.radius
        if w2 == w:
            continue
        a = green(disk, w, complex(w2))
        b = green(disk, w2, complex(w))
        assert abs(a - b) <= 1e-9 * (1 + abs(a) + abs(b))
        count += 1


def test_nonnegative_and_boundary_vanishing():
    rng = random.Random(11)
    for _ in range(30):
        disk, w, z = random_disk_setup(rng)
        if abs(z - complex(w)) < 1e-9:
            continue
        if abs(z - complex(disk.center)) < float(disk.radius):
            assert green(disk, w, z) >= 0
        theta = rng.uniform(0, 2 * math.pi)
        zb = complex(disk.center) + float(disk.radius) * complex(
            math.cos(theta), math.sin(theta)
        )
        assert abs(green(disk, w, zb)) <= 1e-8


def test_monotone_under_shrinking():
    rng = random.Random(13)
    for _ in range(30):
        c = F(rng.randint(-4, 4))
        big = Disk(c, F(3))
        small = Disk(c, F(2))
        w = c + F(rng.randint(-10, 10), 10)
        rad = rng.uniform(0.1, 1.95)
        ang = rng.uniform(0, 2 * math.pi)
        z = complex(c) + rad * complex(math.cos(ang), math.sin(ang))
        if abs(z - complex(w)) < 1e-6:
            continue
        assert green(small, w, z) <= green(big, w, z) + 1e-12


def test_inclusion_inequalities():
    # a domain containing Disk(pole, S) dominates log(S/|t|); its Robin
    # constant dominates log S
    rng = random.Random(17)
    for _ in range(30):
        disk, w, _ = random_disk_setup(rng)
        s = (disk.radius - abs(w - disk.center)) * F(7, 8)
        robin = robin_constant(disk, w)
        assert robin >= math.log(float(s)) - 1e-9
        for _ in range(5):
            t = rng.uniform(0.05, 0.95) * float(s)
            ang = rng.uniform(0, 2 * math.pi)
            z = complex(w) + t * complex(math.cos(ang), math.sin(ang))
            assert green(disk, w, z) >= math.log(float(s) / t) - 1e-9


def test_centered_disk_green_is_exact_log():
    # equality case: green of Disk(w, S) with pole w is exactly log(S/|t|)
    disk = Disk(F(1), F(3, 2))
    for t in (0.1, 0.5, 1.2):
        assert green(disk, F(1), 1 + t * 1j) == pytest.approx(
            math.log(1.5 / t), abs=1e-12
        )


# --- unions and assignments ------------------------------------------------


def test_union_cross_component_zero():
    u = DisjointUnion((Disk(0, 1), Disk(3, 1)))
    assert green(u, F(0), 3 + 0j) == 0.0
    assert green(u, F(0), 0.5 + 0j) > 0
    u = DisjointUnion((Disk(0, 1), Disk(3, 1), ExteriorDisk(1, 10)))
    assert green(u, F(1, 5), INFINITY) == 0.0
    assert green(u, INFINITY, 0.3j) == 0.0


def test_union_disjointness_enforced():
    with pytest.raises(ProblemFormatError):
        DisjointUnion((Disk(0, 1), Disk(1, 1)))
    with pytest.raises(ProblemFormatError):
        DisjointUnion((Disk(0, 1), IntervalComplement(2, 3)))
    with pytest.raises(ProblemFormatError):
        DisjointUnion((ExteriorDisk(0, 1), ExteriorDisk(5, 1)))
    # disks strictly inside the removed disk of an exterior component are fine
    u = DisjointUnion((Disk(0, 1), Disk(3, 1), ExteriorDisk(1, 10)))
    assert locate_component(u, INFINITY) == 2


def test_assignment_placement_validation():
    pts = [MarkedPoint(0, F(0)), MarkedPoint(1, F(3))]
    u = DisjointUnion((Disk(0, 1), Disk(3, 1)))
    a = ArchDomainAssignment.build(u, pts)
    assert a.component_index(0) == 0 and a.component_index(1) == 1
    with pytest.raises(ProblemFormatError):
        ArchDomainAssignment.build(u, pts, placement={0: 1, 1: 1})
    with pytest.raises(PreconditionError):
        ArchDomainAssignment.build(u, [MarkedPoint(0, F(2))])  # in no component


def test_arch_matrix_single_point():
    pts = [MarkedPoint(0, F(0))]
    a = ArchDomainAssignment.build(Disk(0, 2), pts)
    m = arch_matrix(a, pts)
    assert m[0][0] == pytest.approx(math.log(2), abs=1e-12)


def test_arch_matrix_two_unit_disks():
    pts = [MarkedPoint(0, F(0)), MarkedPoint(1, F(3))]
    u = DisjointUnion((Disk(0, 1), Disk(3, 1)))
    m = arch_matrix(ArchDomainAssignment.build(u, pts), pts)
    assert m == ((0.0, 0.0), (0.0, 0.0))


def test_arch_matrix_symmetry_and_scaling():
    pts = [MarkedPoint(0, F(0)), MarkedPoint(1, F(1))]
    a = ArchDomainAssignment.build(Disk(0, 2), pts)
    m = arch_matrix(a, pts)
    assert m[0][1] == pytest.approx(math.log(2), abs=1e-12)
    assert m[1][0] == pytest.approx(math.log(2), abs=1e-12)  # |(4-0)/(2*1)|
    (shifted,) = gauge_shift([m], [F(2), F(1)])
    assert shifted[0][0] == pytest.approx(m[0][0] - math.log(2), abs=1e-12)
    assert shifted[0][1] == m[0][1]


def test_arch_matrix_with_infinity_point():
    pts = [MarkedPoint(0, F(3)), MarkedPoint(1, INFINITY)]
    dom = IntervalComplement(-1, 1)
    m = arch_matrix(ArchDomainAssignment.build(dom, pts), pts)
    assert m[0][1] == pytest.approx(m[1][0], abs=1e-12)
    assert m[0][1] == pytest.approx(math.log(3 + math.sqrt(8)), abs=1e-12)


def test_arch_matrix_locates_each_pole_once_per_row(monkeypatch):
    # the pole's component depends only on the row, so n points cost O(n)
    # lookups, not one per entry; the entries equal the public green
    from capgame import arch

    calls = []
    locate = arch.locate_component

    def counting(domain, coordinate):
        calls.append(coordinate)
        return locate(domain, coordinate)

    u = DisjointUnion((Disk(0, 1), Disk(5, 2), ExteriorDisk(3, 10)))
    pts = [MarkedPoint(k, F(c)) for k, c in enumerate(
        ["0", "1/3", "-1/2", "5", "6", "4", "20", "-15", "31/2"])]
    pts.append(MarkedPoint(len(pts), INFINITY))
    assignment = ArchDomainAssignment.build(u, pts)
    monkeypatch.setattr(arch, "locate_component", counting)
    m = arch_matrix(assignment, pts)
    n = len(pts)
    assert len(calls) <= 2 * n < n * n
    monkeypatch.setattr(arch, "locate_component", locate)
    for i, pi in enumerate(pts):
        assert m[i][i] == robin_constant(u, pi.coordinate)
        for j, pj in enumerate(pts):
            if i != j:
                zj = INFINITY if pj.is_infinite else complex(pj.coordinate)
                assert m[i][j] == green(u, pi.coordinate, zj)


# --- grid oracle -----------------------------------------------------------


def test_validate_green_disk_example():
    rep = validate_green(Disk(0, 2), F(0), 0.01)
    assert rep.laplacian_residual < 1e-4
    assert rep.boundary_residual < 1e-6
    assert rep.interior_min >= 0


def test_validate_green_interval_example():
    rep = validate_green(IntervalComplement(-1, 1), INFINITY, 0.01)
    assert rep.laplacian_residual < 1e-4
    assert rep.boundary_residual < 1e-8


def test_validate_green_total_on_huge_step():
    rep = validate_green(Disk(0, 2), F(0), 10.0)
    assert rep.interior_count == 0
    assert rep.laplacian_ok  # nothing sampled, nothing violated


def test_validate_green_exterior_and_offcenter():
    rep = validate_green(ExteriorDisk(0, 1), F(3), 0.01)
    assert rep.laplacian_residual < 1e-4
    rep = validate_green(Disk(0, 2), F(1, 2), 0.01)
    assert rep.laplacian_residual < 1e-4


# --- accuracy against 50-digit evaluations of the same closed forms ----------


def mp_closed_forms():
    """(green, robin) of one component at 50 digits; None means infinity."""
    mpmath = pytest.importorskip("mpmath")

    def num(x):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / x.denominator
        return mpmath.mpc(x.real, x.imag)  # a float or complex is exact in mpc

    def psi(phi):
        return phi + mpmath.sqrt(phi - 1) * mpmath.sqrt(phi + 1)

    def green(comp, pole, z):
        with mpmath.workdps(50):
            if isinstance(comp, IntervalComplement):
                a, b = num(comp.a), num(comp.b)
                phi = lambda x: (2 * num(x) - a - b) / (b - a)
                if pole is None:
                    return mpmath.log(abs(psi(phi(z))))
                pw = psi(phi(pole))
                if z is None:
                    return mpmath.log(abs(pw))
                pz = psi(phi(z))
                return mpmath.log(abs(pz * mpmath.conj(pw) - 1) / abs(pz - pw))
            c, r = num(comp.center), num(comp.radius)
            w, x = (None if pole is None else num(pole)), (None if z is None else num(z))
            if isinstance(comp, ExteriorDisk):
                # m(x) = c + R^2/(x - c) maps the exterior onto the disk
                w = c if w is None else c + r * r / (w - c)
                x = c if x is None else c + r * r / (x - c)
            return mpmath.log(abs(r * r - mpmath.conj(w - c) * (x - c)) / (r * abs(x - w)))

    def robin(comp, pole):
        with mpmath.workdps(50):
            if isinstance(comp, IntervalComplement):
                a, b = num(comp.a), num(comp.b)
                if pole is None:
                    return mpmath.log(4 / (b - a))
                phi = (2 * num(pole) - a - b) / (b - a)
                p = abs(psi(phi))
                return mpmath.log((p * p - 1) / (2 / (b - a) * p / mpmath.sqrt(phi * phi - 1)))
            c, r = num(comp.center), num(comp.radius)
            if pole is None:
                return -mpmath.log(r)
            d2 = (num(pole) - c) ** 2
            return mpmath.log(abs(r * r - d2) / r)

    return green, robin


def polar(rng, center, lo, hi):
    rad, ang = rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi)
    return complex(center) + rad * complex(math.cos(ang), math.sin(ang))


def accuracy_cases(rng):
    """(domain, component, pole, points) with poles and points well inside
    the pole's component and away from its boundary and the pole."""
    cases = []
    for _ in range(6):
        c, r = F(rng.randint(-8, 8), rng.randint(1, 4)), F(rng.randint(10, 40), 10)
        disk = Disk(c, r)
        pole = c + F(rng.randint(-60, 60), 100) * r
        pts = [polar(rng, c, 0, 0.8 * float(r)) for _ in range(8)]
        cases.append((disk, disk, pole, pts))

        ext = ExteriorDisk(c, r)
        pts = [polar(rng, c, 1.3 * float(r), 6 * float(r)) for _ in range(8)]
        pole = c + F(rng.choice((-1, 1)) * rng.randint(130, 400), 100) * r
        cases.append((ext, ext, pole, pts + [INFINITY]))
        cases.append((ext, ext, INFINITY, pts))

        a = F(rng.randint(-8, 2), rng.randint(1, 3))
        b = a + F(rng.randint(5, 40), 10)
        cut = IntervalComplement(a, b)
        length = float(b - a)
        pts = [
            complex(rng.uniform(float(a) - length, float(b) + length),
                    rng.choice((-1, 1)) * rng.uniform(0.3, 3) * length)
            for _ in range(8)
        ]
        gap = F(rng.randint(3, 30), 10) * (b - a)
        cases.append((cut, cut, rng.choice((a - gap, b + gap)), pts + [INFINITY]))
        cases.append((cut, cut, INFINITY, pts))

    union = DisjointUnion((Disk(0, 1), Disk(3, 1), ExteriorDisk(1, 10)))
    inner = [polar(rng, 0, 0, 0.8) for _ in range(4)]
    outer = [polar(rng, 1, 13, 60) for _ in range(4)]
    cases.append((union, union.components[0], F(1, 5), inner))
    cases.append((union, union.components[2], F(-15), outer + [INFINITY]))
    cases.append((union, union.components[2], INFINITY, outer))
    return cases


def rel_err(got, ref):
    return abs(got - ref) / max(abs(ref), 0.01)  # a Robin constant may be 0


def test_green_and_robin_match_mpmath():
    mp_green, mp_robin = mp_closed_forms()
    rng = random.Random(2023)
    worst = 0.0
    for domain, comp, pole, pts in accuracy_cases(rng):
        p = None if pole == INFINITY else pole
        worst = max(worst, rel_err(robin_constant(domain, pole), mp_robin(comp, p)))
        for z in pts:
            ref = mp_green(comp, p, None if z == INFINITY else z)
            worst = max(worst, rel_err(green(domain, pole, z), ref))
    assert worst < 1e-13


def test_grid_path_matches_point_path():
    np = pytest.importorskip("numpy")
    rng = random.Random(2023)
    for domain, comp, pole, pts in accuracy_cases(rng):
        finite = [z for z in pts if z != INFINITY]
        p = None if pole == INFINITY else complex(pole)
        grid = _grid_green(comp, p, np.array(finite, dtype=complex))
        for z, g in zip(finite, grid):
            assert rel_err(float(g), green(domain, pole, z)) < 1e-13
