from fractions import Fraction

import pytest

from capgame.errors import PreconditionError, ProblemFormatError
from capgame.gamematrix import gauge_shift
from capgame.nonarch import (
    NonArchPlace,
    a_analyticity_check,
    nonarch_matrix,
    size_preset,
)

F = Fraction


def test_size_presets():
    assert size_preset("good_reduction", 7) == 0
    assert size_preset("leaf", 2) == F(-1)
    assert size_preset("leaf_p_curvature", 3) == F(-1, 6)
    assert size_preset("leaf", 5) == F(-1, 4)
    with pytest.raises(PreconditionError):
        size_preset("leaf", 6)
    with pytest.raises(PreconditionError):
        size_preset("bogus", 5)


def test_place_validation():
    with pytest.raises(ProblemFormatError):
        NonArchPlace(4)
    with pytest.raises(ProblemFormatError):
        NonArchPlace(3, {0: F(1, 2)})  # positive log-size
    with pytest.raises(ProblemFormatError):
        NonArchPlace(3, {}, {"0,0": F(1)})  # diagonal key
    with pytest.raises(ProblemFormatError):
        NonArchPlace(3, {}, {"0,1": F(-1)})  # negative interaction


def test_matrix_good_reduction_trivial_scaling():
    place = NonArchPlace(2, {0: F(0)})
    m = nonarch_matrix(place, [0])
    assert m.coeffs == ((F(0),),)


def test_matrix_scaling_valuation():
    # a = 3/2 at p = 2: v_2(3/2) = -1, so the diagonal entry is -log 2
    place = NonArchPlace(2, {0: F(0)})
    (m,) = gauge_shift([nonarch_matrix(place, [0])], [F(3, 2)])
    assert m.coeffs == ((F(-1),),)
    # same scaling at p = 3: v_3(3/2) = +1, entry +log 3
    (m3,) = gauge_shift([nonarch_matrix(NonArchPlace(3), [0])], [F(3, 2)])
    assert m3.coeffs == ((F(1),),)


def test_matrix_half_size():
    m = nonarch_matrix(NonArchPlace(3, {0: F(-1, 2)}), [0])
    assert m.coeffs == ((F(-1, 2),),)


def test_matrix_off_diagonal_and_order():
    place = NonArchPlace(5, {7: F(-1)}, {(2, 7): F(1, 3)})
    m = nonarch_matrix(place, [2, 7])
    assert m.coeffs == ((F(0), F(1, 3)), (F(0), F(-1)))


def test_matrix_unknown_point():
    with pytest.raises(PreconditionError):
        nonarch_matrix(NonArchPlace(2, {5: F(0)}), [0, 1])


def test_analyticity_empty():
    rep = a_analyticity_check([], ids=[0])
    assert rep.verdict is True
    assert rep.totals == {0: {}}


def test_analyticity_totals():
    places = [NonArchPlace(2, {0: F(-1)}), NonArchPlace(2, {0: F(-1, 2)})]
    rep = a_analyticity_check(places, ids=[0])
    assert rep.totals[0] == {2: F(-3, 2)}
    assert rep.verdict is True


def test_analyticity_declared_divergence():
    rep = a_analyticity_check([], ids=[0], infinite_tail=True)
    assert rep.verdict is False
