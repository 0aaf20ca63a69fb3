"""Exact complex rational scalars.

A ``Scalar`` is a Gaussian rational: a pair of ``fractions.Fraction`` values
(real and imaginary part). All field operations are exact; equality is exact
structural equality. Scalars are immutable and hashable.

Literal grammar (whitespace is ignored everywhere):

    scalar   := real | imag | real SIGN uimag
    real     := SIGN? rational
    imag     := SIGN? uimag
    uimag    := rational 'i' | 'i'
    rational := int ('/' int)?    (the denominator is not zero)

Examples: ``1``, ``-2/3``, ``i``, ``-i``, ``3i``, ``1/2-1/3i``, ``2+i``.
The formatter always emits a canonical form that the parser accepts.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import LiteralFormatError

_RATIONAL = r"\d+(?:/\d*[1-9]\d*)?"
_SCALAR_RE = _re.compile(
    rf"^(?P<first>[+-]?{_RATIONAL}i?|[+-]?i)(?P<second>[+-](?:{_RATIONAL})?i)?$"
)


class Scalar:
    """Immutable Gaussian rational number."""

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "Scalar":
        """Coerce an int, Fraction, Scalar, or literal string to a Scalar."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse a scalar literal.

        >>> Scalar.parse("1/2-1/3i")
        Scalar('1/2-1/3i')
        """
        compact = "".join(text.split())
        if not compact:
            raise LiteralFormatError("empty scalar literal")
        m = _SCALAR_RE.match(compact)
        if m is None:
            raise LiteralFormatError(f"bad scalar literal: {text!r}")
        first, second = m.group("first"), m.group("second")

        def split_term(term: str) -> tuple[Fraction, bool]:
            is_imag = term.endswith("i")
            if is_imag:
                term = term[:-1]
            if term in ("", "+"):
                value = Fraction(1)
            elif term == "-":
                value = Fraction(-1)
            else:
                value = Fraction(term)
            return value, is_imag

        v1, imag1 = split_term(first)
        if second is None:
            return cls(0, v1) if imag1 else cls(v1, 0)
        v2, imag2 = split_term(second)
        if imag1 or not imag2:
            raise LiteralFormatError(f"bad scalar literal: {text!r}")
        return cls(v1, v2)

    # -- presentation ------------------------------------------------------

    def literal(self) -> str:
        """Canonical literal, parseable by :meth:`parse`."""
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}i"
        if self.re == 0:
            return imag
        if self.im > 0:
            return f"{self.re}+{imag}"
        return f"{self.re}{imag}"

    def __repr__(self):
        return f"Scalar({self.literal()!r})"

    def __str__(self):
        return self.literal()

    # -- field operations --------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (Scalar(1) / self) ** (-k)
        out = Scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, exactly."""
        return self.re * self.re + self.im * self.im

    # -- predicates / conversions ------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
