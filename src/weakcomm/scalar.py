"""Gaussian-rational literals and views.

A ``Scalar`` is a Gaussian rational held as a pair of ``fractions.Fraction``
values (real and imaginary part). It is the literal and view type of the
package: what parsing a literal returns, the entry views that ``exact`` hands
out for printing and tests, and the reported parameters of an identity. It
has no arithmetic; every computation runs on the integer format of ``exact``.
Equality is exact, a real Scalar equals (and hashes like) its real part, and
Scalars are immutable.

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
    """Immutable Gaussian rational: parse, print and compare."""

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if isinstance(part, bool) or not isinstance(part, (int, Fraction)):
                raise TypeError(
                    f"Scalar parts are int or Fraction, not {type(part).__name__};"
                    " literals go through Scalar.parse"
                )
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

    # -- comparison --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # equal to its real part when real, so hashed like it, as complex is
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))
