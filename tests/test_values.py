"""The public value types: immutable, equal by value, picklable, copyable.

ScaledLaurent, SignedWeightSum, TorusKnotSpec and ColoredJonesResult are
slotted subclasses of laurent._Value, which derives the whole protocol
from each class's own __slots__; the rest are NamedTuples.  Their reprs,
equality, hashing and validation messages are pinned here literally, so
they stay what the CLI and the users print.
"""

import copy
import pickle
import re

import pytest

from sl3jones.jones import (ColoredJonesResult, DegreeReport, TorusKnotSpec,
                            degree_report, jones_rosso, jones_t2b)
from sl3jones.laurent import ScaledLaurent, _Value
from sl3jones.sl3rep import ROOT_DATA, RootDataSl3, SignedWeightSum, Weight

T23 = jones_t2b(3, (1, 0))

VALUES = [
    Weight(3, 5),
    ROOT_DATA,
    RootDataSl3((1, 0), (0, 1), (2, 2)),
    TorusKnotSpec(2, 3),
    T23,
    T23.mirrored(),
    jones_rosso(TorusKnotSpec(3, 4), (2, 1)),
    ColoredJonesResult(ScaledLaurent(2, {1: 3}), TorusKnotSpec(3, 4),
                       Weight(0, 2), "qinv"),
    degree_report(T23),
    ScaledLaurent.zero(),
    ScaledLaurent(21, {-5: -1, 2: 4, 9: 2**70}),
    SignedWeightSum(),
    SignedWeightSum({(0, 0): 1, (1, 2): -3, (4, 1): 2**65}),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_pickle_and_copy_round_trip(value):
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for c in copies:
        assert type(c) is type(value)
        assert c == value
        assert hash(c) == hash(value)
        assert repr(c) == repr(value)


def test_every_public_value_type_is_covered():
    assert {type(v) for v in VALUES} == {
        Weight, RootDataSl3, TorusKnotSpec, ColoredJonesResult, DegreeReport,
        ScaledLaurent, SignedWeightSum}


def _value_subclasses(cls=_Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_subclasses(sub)


def test_value_subclasses_declare_their_own_slots():
    # _Value reads the fields from __slots__: a subclass without its own
    # would gain a __dict__ and compare, hash and pickle its parent's fields
    subclasses = set(_value_subclasses())
    assert {ScaledLaurent, SignedWeightSum, TorusKnotSpec,
            ColoredJonesResult} <= subclasses
    for cls in subclasses:
        assert "__slots__" in vars(cls), cls.__name__
    for value in VALUES:
        if isinstance(value, _Value):
            assert not hasattr(value, "__dict__"), type(value).__name__
            assert type(value)._trusted(*value._fields()) == value


def test_reprs():
    assert repr(TorusKnotSpec(2, 3)) == "TorusKnotSpec(a=2, b=3)"
    assert repr(T23) == (
        "ColoredJonesResult(value=ScaledLaurent(1, '-1*q^-6 + 1*q^-4 + "
        "1*q^-2'), knot=TorusKnotSpec(a=2, b=3), color=Weight(m1=1, m2=0),"
        " variable='q')")
    assert repr(VALUES[7]) == (
        "ColoredJonesResult(value=ScaledLaurent(2, '3*q^(1/2)'), "
        "knot=TorusKnotSpec(a=3, b=4), color=Weight(m1=0, m2=2), "
        "variable='qinv')")
    assert repr(degree_report(T23)) == (
        "DegreeReport(min_deg=-6, max_deg=-2, min_coeff=-1, max_coeff=1, "
        "min_coeff_exponents=(-6,), max_coeff_exponents=(-4, -2), "
        "leading=1, trailing=-1)")


def test_equality_and_hash_by_value():
    k = TorusKnotSpec(2, 3)
    assert k == TorusKnotSpec(2, 3) and hash(k) == hash(TorusKnotSpec(2, 3))
    assert k != TorusKnotSpec(2, 5)
    assert k != (2, 3)
    assert len({k, TorusKnotSpec(2, 3), TorusKnotSpec(3, 2)}) == 2
    again = jones_t2b(3, (1, 0))
    assert again is not T23
    assert again == T23 and hash(again) == hash(T23)
    assert T23 != T23.mirrored()
    assert T23 != ColoredJonesResult(T23.value, T23.knot, T23.color, "qinv")
    assert T23 != ColoredJonesResult(T23.value, T23.knot, Weight(0, 1))
    assert T23 != ColoredJonesResult(T23.value, TorusKnotSpec(3, 2),
                                     T23.color)
    assert T23 != T23.value
    assert len({T23, again, T23.mirrored()}) == 2


@pytest.mark.parametrize("value, names", [
    (TorusKnotSpec(2, 3), ["a", "b", "c"]),
    (T23, ["value", "knot", "color", "variable", "other"]),
    (ScaledLaurent(21, {-5: -1, 2: 4}), ["scale", "_terms", "other"]),
    (SignedWeightSum({(1, 2): -3}), ["_terms", "other"]),
])
def test_attribute_writes_raise(value, names):
    message = f"^{type(value).__name__} is immutable$"
    for name in names:
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert value == copy.copy(value)


def test_mirrored_twice_is_the_identity():
    for r in VALUES[4:8]:
        assert r.mirrored().mirrored() == r
        assert r.mirrored().variable != r.variable
        assert r.mirrored().value == r.value.mirror()


def test_keyword_construction_and_default_variable():
    r = ColoredJonesResult(value=T23.value, knot=TorusKnotSpec(a=2, b=3),
                           color=Weight(1, 0))
    assert r == T23 and r.variable == "q"


@pytest.mark.parametrize("build, exc, message", [
    (lambda: TorusKnotSpec(2.0, 3), TypeError,
     "torus parameters must be ints, got TorusKnotSpec(a=2.0, b=3)"),
    (lambda: TorusKnotSpec(0, 3), ValueError,
     "torus parameters must be positive, got TorusKnotSpec(a=0, b=3)"),
    (lambda: TorusKnotSpec(2, -3), ValueError,
     "torus parameters must be positive, got TorusKnotSpec(a=2, b=-3)"),
    (lambda: TorusKnotSpec(2, 4), ValueError, "T(2,4) is a link, not a knot"),
    (lambda: ColoredJonesResult(T23.value, T23.knot, T23.color, "x"),
     ValueError, "variable must be 'q' or 'qinv', got 'x'"),
])
def test_validation_messages(build, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        build()
