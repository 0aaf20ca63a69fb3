"""Gaussian rational scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weakcomm.errors import LiteralFormatError
from weakcomm.scalar import I, ONE, ZERO, Scalar


small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(Scalar, small_fractions, small_fractions)


def test_constructor_and_constants():
    assert Scalar() == ZERO
    assert Scalar(1) == ONE
    assert Scalar(0, 1) == I
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
        ("0", ZERO),
        ("1", ONE),
        ("-1", Scalar(-1)),
        ("1/2", Scalar(Fraction(1, 2))),
        ("-7/3", Scalar(Fraction(-7, 3))),
        ("i", I),
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


def test_field_ops():
    a = Scalar(1, 2)
    b = Scalar(Fraction(1, 2), -1)
    assert a + b == Scalar(Fraction(3, 2), 1)
    assert a - b == Scalar(Fraction(1, 2), 3)
    assert a * b == Scalar(Fraction(5, 2))  # (1+2i)(1/2-i) = 1/2 - i + i - 2i^2
    assert (a / b) * b == a
    assert a * 2 == Scalar(2, 4)
    assert 2 * a == Scalar(2, 4)
    assert 1 - a == Scalar(0, -2)
    assert a ** 2 == Scalar(-3, 4)
    assert a ** 0 == ONE
    assert I * I == Scalar(-1)


def test_division():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    assert 1 / I == Scalar(0, -1)
    assert Scalar(5) / Scalar(2) == Scalar(Fraction(5, 2))


@given(scalars, scalars)
def test_mul_commutes_and_conjugate_is_homomorphism(a, b):
    assert a * b == b * a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(scalars)
def test_abs2_matches_conjugate_product(s):
    prod = s * s.conjugate()
    assert prod.im == 0
    assert prod.re == s.abs2()


@given(scalars)
def test_nonzero_has_inverse(s):
    if s.is_zero():
        assert not bool(s)
    else:
        assert s * (ONE / s) == ONE


def test_powers_negative():
    s = Scalar(0, 2)
    assert s ** -1 == Scalar(0, Fraction(-1, 2))
    assert s ** -2 == Scalar(Fraction(-1, 4))


def test_complex_cast():
    assert complex(Scalar(Fraction(1, 2), -2)) == 0.5 - 2j


def test_is_real():
    assert Scalar(3).is_real()
    assert not I.is_real()
