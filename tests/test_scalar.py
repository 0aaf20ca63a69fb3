"""Gaussian-rational literals: construction, parsing, printing and comparison."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weakcomm.errors import LiteralFormatError
from weakcomm.scalar import Scalar


small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(Scalar, small_fractions, small_fractions)


def test_constructor_normalizes_parts():
    assert Scalar() == Scalar(0, 0) == 0
    s = Scalar(Fraction(2, 4), Fraction(-6, 4))
    assert s.re == Fraction(1, 2)
    assert s.im == Fraction(-3, 2)


def test_coerce():
    assert Scalar.coerce(3) == Scalar(3)
    assert Scalar.coerce(Fraction(1, 3)) == Scalar(Fraction(1, 3))
    s = Scalar(1, 2)
    assert Scalar.coerce(s) is s
    with pytest.raises(TypeError):
        Scalar.coerce(1.5)


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", Scalar(0)),
        ("1", Scalar(1)),
        ("-1", Scalar(-1)),
        ("1/2", Scalar(Fraction(1, 2))),
        ("-7/3", Scalar(Fraction(-7, 3))),
        ("i", Scalar(0, 1)),
        ("-i", Scalar(0, -1)),
        ("2i", Scalar(0, 2)),
        ("1+i", Scalar(1, 1)),
        ("1/2-3/4i", Scalar(Fraction(1, 2), Fraction(-3, 4))),
        (" 2 + 3i ", Scalar(2, 3)),
    ],
)
def test_parse(text, value):
    assert Scalar.parse(text) == value


@pytest.mark.parametrize("bad", ["", "x", "1+", "i2", "1//2", "+", "1/0", "-3/00i", "1+2/0i"])
def test_parse_rejects(bad):
    with pytest.raises(LiteralFormatError):
        Scalar.parse(bad)


@given(scalars)
def test_literal_round_trip(s):
    assert Scalar.parse(s.literal()) == s


@pytest.mark.parametrize("bad", [0.1, 1.5, "1.5", "1e3", "i", "1", True, None, 1j])
def test_constructor_takes_only_int_and_fraction_parts(bad):
    # a float would become its binary expansion, and a string would parse
    # under Fraction's grammar rather than the literal grammar
    with pytest.raises(TypeError):
        Scalar(bad)
    with pytest.raises(TypeError):
        Scalar(0, bad)


def test_strings_go_through_the_literal_grammar():
    assert Scalar.coerce("i") == Scalar.parse("i") == Scalar(0, 1)
    assert Scalar.coerce("3/2") == Scalar(Fraction(3, 2))
    for text in ("1.5", "1e3"):
        with pytest.raises(LiteralFormatError):
            Scalar.coerce(text)
    with pytest.raises(TypeError):
        Scalar.coerce(0.1)


def test_equal_values_hash_equal():
    half = Fraction(1, 2)
    assert {Scalar(half): 0}[half] == 0
    assert {Scalar(1): "one"}[1] == "one"
    assert {1: "one"}[Scalar(1)] == "one"
    assert hash(Scalar(half)) == hash(half) and hash(Scalar(-3)) == hash(-3)
    assert {Scalar(1, 2), Scalar.parse("1+2i")} == {Scalar(1, 2)}
    assert Scalar(0, 1) != 0 and Scalar(2) == 2 and Scalar(half) == half


def test_scalar_has_no_arithmetic():
    s = Scalar(1, 2)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__"):
        assert not hasattr(s, op), op
    assert not hasattr(s, "conjugate") and not hasattr(s, "abs2")
    with pytest.raises(TypeError):
        s + 1


def test_immutable():
    with pytest.raises(AttributeError):
        Scalar(1).re = Fraction(2)
