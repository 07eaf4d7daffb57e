import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from capgame.arch import Disk, ExteriorDisk
from capgame.formal import LocalSeries, MarkedPoint
from capgame.game import Strategy
from capgame.nonarch import NonArchPlace
from capgame.problem import ProblemSpec, parse_problem, serialize_problem
from capgame.schedule import build_schedule

F = Fraction

PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))


def test_fields_are_frozen():
    point = MarkedPoint(1, F(1, 2))
    with pytest.raises(AttributeError):
        point.coordinate = F(1)
    with pytest.raises(AttributeError):
        del point.id
    assert point.coordinate == F(1, 2)


def test_equal_records_compare_and_hash_equal():
    a, b = MarkedPoint(1, "1/2"), MarkedPoint(id=1, coordinate=F(1, 2))
    assert a == b and hash(a) == hash(b) == hash((1, F(1, 2)))
    assert a != MarkedPoint(2, F(1, 2))
    # same fields, different record type
    assert Disk(0, 1) != ExteriorDisk(0, 1)
    assert len({Strategy((F(1, 2), F(1, 2))), Strategy([F(1, 2), F(1, 2)])}) == 1


def test_construction_defaults_post_init_and_repr():
    assert repr(MarkedPoint(1, 2)) == "MarkedPoint(id=1, coordinate=Fraction(2, 1))"
    first, second = NonArchPlace(5), NonArchPlace(p=5)
    assert first == second
    assert first.log_size_coeffs == {} and first.log_size_coeffs is not second.log_size_coeffs
    spec = ProblemSpec([MarkedPoint(0, 0)], [LocalSeries(0, [1])], degree_bound=3)
    assert spec.points == (MarkedPoint(0, 0),) and spec.extra_places == () and spec.degree_bound == 3
    with pytest.raises(TypeError):
        MarkedPoint(1)
    with pytest.raises(TypeError):
        MarkedPoint(1, 2, 3)
    with pytest.raises(TypeError):
        MarkedPoint(1, id=2)
    with pytest.raises(TypeError):
        MarkedPoint(1, place=2)


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_serialize_round_trip_is_equal(path):
    spec = parse_problem(path.read_bytes())
    again = parse_problem(serialize_problem(spec))
    assert again == spec
    assert again.points == spec.points and hash(again.points) == hash(spec.points)


def test_dataclasses_replace_and_fields_accept_records():
    sched = build_schedule([F(2, 3), F(1, 3)], 6)
    again = dataclasses.replace(sched, sequence=tuple(reversed(sched.sequence)))
    assert again.sequence == tuple(reversed(sched.sequence)) and again.K == sched.K
    assert [f.name for f in dataclasses.fields(sched)] == ["ids", "a", "K", "sequence"]
