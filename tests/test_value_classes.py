"""The value classes of the package: construction, equality, hashing, repr,
immutability and validation, pinned class by class."""

import copy
import pickle
from fractions import Fraction

import pytest

from straightedge import (
    Angle, Check, Circle, Constructible, GoldenRectangle, IcosaMesh, Line, Point,
    Point3, Polygon, Refusal, RenderConfig, Report, Step, Trace, Verdict,
)

C = Constructible.of
P = Point.of


def P3(x, y, z):
    return Point3(C(x), C(y), C(z))


def _corners(z):
    return (P3(1, 2, z), P3(-1, 2, z), P3(-1, -2, z), P3(1, -2, z))


# name -> (build a value, build an equal value, build a different value, repr)
VALUES = {
    "Angle": (
        lambda: Angle(Fraction(3, 4)), lambda: Angle(degrees=Fraction(6, 8)),
        lambda: Angle(Fraction(45)), "Angle(degrees=Fraction(3, 4))",
    ),
    "Refusal": (
        lambda: Refusal("non-fermat-prime", 7), lambda: Refusal(kind="non-fermat-prime", prime=7),
        lambda: Refusal("repeated-odd-prime", 7), "Refusal(kind='non-fermat-prime', prime=7)",
    ),
    "Verdict": (
        lambda: Verdict(12, True, 2, (3,)),
        lambda: Verdict(n=12, constructible=True, two_exponent=2, fermat_primes=(3,), refusal=None),
        lambda: Verdict(7, False, 0, (), Refusal("non-fermat-prime", 7)),
        "Verdict(n=12, constructible=True, two_exponent=2, fermat_primes=(3,), refusal=None)",
    ),
    "Point": (
        lambda: P(1, 0), lambda: Point(x=C(1), y=C(0)), lambda: P(0, 1),
        "Point(x=Constructible('1'), y=Constructible('0'))",
    ),
    "Line": (
        lambda: Line(P(1, 0), P(0, 1)), lambda: Line(p=P(1, 0), q=P(0, 1)),
        lambda: Line(P(0, 1), P(1, 0)),
        "Line(p=Point(x=Constructible('1'), y=Constructible('0')), "
        "q=Point(x=Constructible('0'), y=Constructible('1')))",
    ),
    "Circle": (
        lambda: Circle(P(0, 0), P(1, 0)), lambda: Circle(center=P(0, 0), through=P(1, 0)),
        lambda: Circle(P(0, 0), P(0, 1)),
        "Circle(center=Point(x=Constructible('0'), y=Constructible('0')), "
        "through=Point(x=Constructible('1'), y=Constructible('0')))",
    ),
    "Step": (
        lambda: Step("line", ("A", "B"), "l"),
        lambda: Step(kind="line", inputs=("A", "B"), output="l", selector=None, coords=None),
        lambda: Step("intersect", ("l", "c"), "X", selector="lex-min"),
        "Step(kind='line', inputs=('A', 'B'), output='l', selector=None, coords=None)",
    ),
    "Trace": (
        lambda: Trace([Step("line", ("A", "B"), "l")], {"A": P(1, 0)}),
        lambda: Trace(steps=[Step("line", ("A", "B"), "l")], bindings={"A": P(1, 0)}),
        lambda: Trace([], {}),
        "Trace(steps=[Step(kind='line', inputs=('A', 'B'), output='l', selector=None, "
        "coords=None)], bindings={'A': Point(x=Constructible('1'), y=Constructible('0'))})",
    ),
    "Polygon": (
        lambda: Polygon(3, (P(1, 0), P(0, 1), P(-1, 0)), P(0, 0)),
        lambda: Polygon(n=3, vertices=(P(1, 0), P(0, 1), P(-1, 0)), center=P(0, 0)),
        lambda: Polygon(3, (P(1, 0), P(0, 1), P(0, -1)), P(0, 0)),
        "Polygon(n=3, vertices=(Point(x=Constructible('1'), y=Constructible('0')), "
        "Point(x=Constructible('0'), y=Constructible('1')), "
        "Point(x=Constructible('-1'), y=Constructible('0'))), "
        "center=Point(x=Constructible('0'), y=Constructible('0')))",
    ),
    "Point3": (
        lambda: P3(1, 2, 3), lambda: Point3(x=C(1), y=C(2), z=C(3)), lambda: P3(1, 2, 4),
        "Point3(x=Constructible('1'), y=Constructible('2'), z=Constructible('3'))",
    ),
    "GoldenRectangle": (
        lambda: GoldenRectangle(_corners(0), "xy"),
        lambda: GoldenRectangle(corners=_corners(0), plane="xy"),
        lambda: GoldenRectangle(_corners(1), "xy"),
        "GoldenRectangle(corners=("
        + ", ".join(
            f"Point3(x=Constructible('{x}'), y=Constructible('{y}'), z=Constructible('0'))"
            for x, y in ((1, 2), (-1, 2), (-1, -2), (1, -2))
        )
        + "), plane='xy')",
    ),
    "IcosaMesh": (
        lambda: IcosaMesh((P3(0, 0, 0),), ((0, 1),), ((0, 1, 2),)),
        lambda: IcosaMesh(vertices=(P3(0, 0, 0),), edges=((0, 1),), faces=((0, 1, 2),)),
        lambda: IcosaMesh((), (), ()),
        "IcosaMesh(vertices=(Point3(x=Constructible('0'), y=Constructible('0'), "
        "z=Constructible('0')),), edges=((0, 1),), faces=((0, 1, 2),))",
    ),
    "Check": (
        lambda: Check("radii", True), lambda: Check(name="radii", passed=True, detail=""),
        lambda: Check("radii", False, "off by one"), "Check(name='radii', passed=True, detail='')",
    ),
    "Report": (
        lambda: Report((Check("radii", True),)), lambda: Report(checks=(Check("radii", True),)),
        lambda: Report(), "Report(checks=(Check(name='radii', passed=True, detail=''),))",
    ),
    "RenderConfig": (
        lambda: RenderConfig(labels=False),
        lambda: RenderConfig(False),
        lambda: RenderConfig(),
        "RenderConfig(labels=False)",
    ),
}
FROZEN = sorted(set(VALUES) - {"Trace"})


def test_every_value_class_is_pinned():
    assert len(VALUES) == 15


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_is_field_wise(name):
    make, make_equal, make_other, _ = VALUES[name]
    a, b, other = make(), make_equal(), make_other()
    assert a is not b
    assert a == b and not (a != b)
    assert a != other and not (a == other)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_repr(name):
    make, _, _, text = VALUES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_hash_by_value(name):
    make, make_equal, _, _ = VALUES[name]
    assert hash(make()) == hash(make_equal())
    assert len({make(), make_equal()}) == 1


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_refuse_assignment(name):
    value = VALUES[name][0]()
    field = repr(value).split("(", 1)[1].split("=", 1)[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert repr(value) == before


@pytest.mark.parametrize("name", sorted(VALUES))
def test_copy_and_pickle_round_trip(name):
    value = VALUES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == repr(value)


def test_equality_across_classes():
    assert P(1, 2) != P3(1, 2, 0)
    assert P3(1, 2, 0) != P(1, 2)
    assert Angle(Fraction(45)) != Fraction(45)
    assert Check("a", True) != ("a", True, "")
    assert Refusal("non-fermat-prime", 7) != Check("non-fermat-prime", 7)
    assert Report() != Trace([], {})
    assert P(1, 2).__eq__((C(1), C(2))) is NotImplemented


def test_trace_is_mutable_and_unhashable():
    trace = Trace([], {})
    trace.steps = [Step("line", ("A", "B"), "l")]
    trace.bindings["A"] = P(1, 0)
    assert trace == VALUES["Trace"][0]()
    with pytest.raises(TypeError):
        hash(trace)


def test_line_and_circle_keep_their_derived_values():
    line = Line(P(2, 0), P(0, 2))
    assert line.coefficients == (C(1), C(1), C(2))
    assert Circle(P(0, 0), P(3, 4)).radius_sq == 25


def test_defaults():
    assert Step("line", ("A", "B"), "l").selector is None
    assert Step("line", ("A", "B"), "l").coords is None
    assert Verdict(5, True, 0, (5,)).refusal is None
    assert Check("a", True).detail == ""
    assert Report().checks == () and Report().ok
    assert RenderConfig(labels=False).labels is False
    assert RenderConfig().labels is True


@pytest.mark.parametrize("build, error, message", [
    (lambda: Angle(45), TypeError, "degrees must be a Fraction"),
    (lambda: Angle(Fraction(0)), ValueError, "0 degrees is outside (0, 90]"),
    (lambda: Angle(Fraction(93)), ValueError, "93 degrees is outside (0, 90]"),
    (lambda: Angle(Fraction(1)), ValueError, "1 degrees is off the constructible grid 3*m/2^k"),
    (lambda: Angle(Fraction(3, 5)), ValueError, "3/5 degrees is off the constructible grid"),
    (lambda: Line(P(1, 2), P(1, 2)), ValueError, "a line needs two distinct points"),
    (lambda: Circle(P(1, 2), P(1, 2)), ValueError,
     "a circle through its own center has zero radius"),
    (lambda: Polygon(2, (P(1, 0), P(-1, 0)), P(0, 0)), ValueError,
     "a polygon needs at least 3 vertices"),
    (lambda: Polygon(4, (P(1, 0), P(0, 1), P(-1, 0)), P(0, 0)), ValueError,
     "expected 4 vertices, got 3"),
])
def test_validation(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value).startswith(message)
