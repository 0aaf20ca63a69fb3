"""Gaussian-rational field arithmetic for the reference oracles of the tests.

The package computes only in the integer format of ``weakcomm.exact``; its
``Scalar`` parses, prints and compares. The oracles that the tests check that
format against work one Scalar at a time, and ``FieldScalar`` gives them the
field operations to do it. An int, a Fraction or a plain Scalar (an entry
view, a parsed literal) meets a FieldScalar on either side of an operator
and comes out a FieldScalar.
"""

from fractions import Fraction

from weakcomm.scalar import Scalar


class FieldScalar(Scalar):
    """A Scalar with exact field operations."""

    __slots__ = ()

    @classmethod
    def coerce(cls, value):
        if isinstance(value, Scalar) and not isinstance(value, cls):
            return cls(value.re, value.im)
        return super().coerce(value)

    def _coerced(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return FieldScalar.coerce(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return FieldScalar(
            (self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n
        )

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (FieldScalar(1) / self) ** (-k)
        out = FieldScalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return FieldScalar(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return FieldScalar(self.re, -self.im)

    def abs2(self):
        """Squared modulus, exactly."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(float(self.re), float(self.im))
