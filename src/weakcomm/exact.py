"""Exact linear algebra over the Gaussian rationals.

Three immutable value types live here:

``ExactMatrix``
    A square matrix of Gaussian rationals, stored as an integer matrix over
    a common positive denominator. Arithmetic is exact; equality is exact.
    Hot operations (products, powers, characteristic polynomials, rank and
    kernel computations) run on the integer kernels in ``_kernel_py``.

``ExactPoly``
    A polynomial with ``Scalar`` coefficients, ascending order, normalized
    so the leading coefficient is nonzero. Supports exact division, gcd,
    squarefree parts and radicals, and evaluation at matrices.

``SubspaceBasis``
    A subspace of column vectors in canonical reduced-row-echelon form, so
    equal subspaces compare equal. Supports membership, containment, sums,
    intersections, and images under a matrix.

Matrix literal format (used by the CLI and the registry data files): rows
separated by ``;``, entries separated by ``,``, each entry a scalar literal
such as ``1``, ``-2/3`` or ``1/2+1/3i``. Indices in this API are 0-based.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _kernel_py as kernel
from .errors import (
    DimensionMismatchError,
    LiteralFormatError,
    NotNilpotentError,
    ZeroPolynomialError,
)
from .scalar import Scalar

__all__ = [
    "ExactMatrix",
    "ExactPoly",
    "SubspaceBasis",
    "charpoly",
    "rank_kernel",
    "inverse",
    "nilpotency_degree",
    "exp_exact_nilpotent",
    "poly_radical",
    "poly_radical_nonzero",
    "parse_matrix",
]


class ExactMatrix:
    """Immutable square matrix of Gaussian rationals."""

    __slots__ = ("dim", "_den", "_re", "_im")

    def __init__(self, rows):
        entries = [[Scalar.coerce(v) for v in row] for row in rows]
        d = len(entries)
        if d == 0 or any(len(row) != d for row in entries):
            raise DimensionMismatchError("matrix must be square with dim >= 1")
        den = 1
        for row in entries:
            for v in row:
                den = lcm(den, v.re.denominator, v.im.denominator)
        re = [v.re.numerator * (den // v.re.denominator) for row in entries for v in row]
        im = [v.im.numerator * (den // v.im.denominator) for row in entries for v in row]
        self._init_rep(d, kernel.normalize(den, re, im))

    def _init_rep(self, dim, rep):
        den, re, im = rep
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_re", tuple(re))
        object.__setattr__(self, "_im", tuple(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _from_rep(cls, dim, rep):
        obj = object.__new__(cls)
        obj._init_rep(dim, rep)
        return obj

    def _rep(self):
        return (self._den, list(self._re), list(self._im))

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, dim):
        re = [0] * (dim * dim)
        for i in range(dim):
            re[i * dim + i] = 1
        return cls._from_rep(dim, (1, re, [0] * (dim * dim)))

    @classmethod
    def zeros(cls, dim):
        if dim < 1:
            raise DimensionMismatchError("dim must be >= 1")
        return cls._from_rep(dim, (1, [0] * (dim * dim), [0] * (dim * dim)))

    @classmethod
    def diagonal(cls, values):
        values = [Scalar.coerce(v) for v in values]
        d = len(values)
        rows = [[values[i] if i == j else 0 for j in range(d)] for i in range(d)]
        return cls(rows)

    @classmethod
    def single_entry(cls, dim, i, j, value=1):
        """Matrix with one nonzero entry at 0-based position (i, j)."""
        rows = [[0] * dim for _ in range(dim)]
        rows[i][j] = Scalar.coerce(value)
        return cls(rows)

    @classmethod
    def parse(cls, text):
        return parse_matrix(text)

    # -- entry access ---------------------------------------------------------

    def entry(self, i, j):
        k = i * self.dim + j
        return Scalar(Fraction(self._re[k], self._den), Fraction(self._im[k], self._den))

    def rows(self):
        d = self.dim
        return tuple(tuple(self.entry(i, j) for j in range(d)) for i in range(d))

    def column(self, j):
        return tuple(self.entry(i, j) for i in range(self.dim))

    # -- arithmetic -----------------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim} differ")

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_dim(other)
        return ExactMatrix._from_rep(self.dim, kernel.mat_add(self.dim, self._rep(), other._rep()))

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_dim(other)
        return ExactMatrix._from_rep(self.dim, kernel.mat_sub(self.dim, self._rep(), other._rep()))

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            self._check_dim(other)
            return ExactMatrix._from_rep(
                self.dim, kernel.mat_mul(self.dim, self._rep(), other._rep())
            )
        if isinstance(other, int):
            rep = kernel.mat_scale(self.dim, self._rep(), other, 0, 1)
            return ExactMatrix._from_rep(self.dim, rep)
        if isinstance(other, (Fraction, Scalar)):
            s = Scalar.coerce(other)
            den = lcm(s.re.denominator, s.im.denominator)
            re = s.re.numerator * (den // s.re.denominator)
            im = s.im.numerator * (den // s.im.denominator)
            rep = kernel.mat_scale(self.dim, self._rep(), re, im, den)
            return ExactMatrix._from_rep(self.dim, rep)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    __matmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.coerce(other)
            if s.is_zero():
                raise ZeroDivisionError("division of matrix by zero scalar")
            return self * (Scalar(1) / s)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return inverse(self) ** (-k)
        return ExactMatrix._from_rep(self.dim, kernel.mat_pow(self.dim, self._rep(), k))

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self._den == other._den
            and self._re == other._re
            and self._im == other._im
        )

    def __hash__(self):
        return hash((self.dim, self._den, self._re, self._im))

    # -- structure ------------------------------------------------------------

    def transpose(self):
        d = self.dim
        re = [self._re[j * d + i] for i in range(d) for j in range(d)]
        im = [self._im[j * d + i] for i in range(d) for j in range(d)]
        return ExactMatrix._from_rep(d, (self._den, re, im))

    def conj_transpose(self):
        d = self.dim
        re = [self._re[j * d + i] for i in range(d) for j in range(d)]
        im = [-self._im[j * d + i] for i in range(d) for j in range(d)]
        return ExactMatrix._from_rep(d, (self._den, re, im))

    def trace(self):
        d = self.dim
        tr = sum(self._re[i * d + i] for i in range(d))
        ti = sum(self._im[i * d + i] for i in range(d))
        return Scalar(Fraction(tr, self._den), Fraction(ti, self._den))

    def is_zero(self):
        return not any(self._re) and not any(self._im)

    def is_identity(self):
        return self == ExactMatrix.identity(self.dim)

    def frobenius(self):
        """Frobenius norm as a float.

        The integer true division rounds correctly, so this is the float of
        the exact squared norm, as ``float(Fraction(...))`` would give.
        """
        total = sum(x * x for x in self._re) + sum(y * y for y in self._im)
        return (total / (self._den * self._den)) ** 0.5

    def to_complex_rows(self):
        """Entries as a nested list of Python complex numbers."""
        return [[complex(self.entry(i, j)) for j in range(self.dim)] for i in range(self.dim)]

    # -- presentation -----------------------------------------------------------

    def literal(self):
        d = self.dim
        return ";".join(
            ",".join(self.entry(i, j).literal() for j in range(d)) for i in range(d)
        )

    def __repr__(self):
        return f"ExactMatrix({self.literal()!r})"

    __str__ = __repr__


def parse_matrix(text):
    """Parse a matrix literal: rows split on ';', entries on ','."""
    rows = [r for r in text.strip().split(";")]
    if not rows or rows == [""]:
        raise LiteralFormatError("empty matrix literal")
    parsed = []
    for row in rows:
        entries = row.split(",")
        if entries == [""]:
            raise LiteralFormatError(f"empty row in matrix literal: {text!r}")
        parsed.append([Scalar.parse(e) for e in entries])
    if any(len(r) != len(parsed) for r in parsed):
        raise LiteralFormatError(
            f"matrix literal is not square: {len(parsed)} rows, "
            f"row lengths {[len(r) for r in parsed]}"
        )
    return ExactMatrix(parsed)


# -- polynomials ---------------------------------------------------------------


class ExactPoly:
    """Polynomial with Scalar coefficients, ascending order, exact arithmetic.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Scalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ExactPoly is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def variable(cls):
        return cls((0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return ExactPoly(
            [
                (a[k] if k < len(a) else Scalar(0)) + (b[k] if k < len(b) else Scalar(0))
                for k in range(n)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExactPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.coerce(other)
            return ExactPoly([c * s for c in self.coeffs])
        if not isinstance(other, ExactPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ExactPoly.zero()
        out = [Scalar(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ExactPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroPolynomialError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Scalar(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        lead = other.coeffs[-1]
        db = other.degree
        while len(rem) - 1 >= db and rem:
            c = rem[-1] / lead
            k = len(rem) - 1 - db
            q[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return ExactPoly(q), ExactPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ExactPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divides(self, other):
        """True when self divides other exactly (self nonzero)."""
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial divides nothing")
        return (other % self).is_zero()

    def derivative(self):
        return ExactPoly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return ExactPoly([c / lead for c in self.coeffs])

    def gcd(self, other):
        """Monic greatest common divisor (zero polynomial if both are zero)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def squarefree_part(self):
        """Monic product of the distinct irreducible factors."""
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no squarefree part")
        if self.degree == 0:
            return ExactPoly.one()
        g = self.gcd(self.derivative())
        q, r = divmod(self, g)
        if not r.is_zero():
            raise ArithmeticError("squarefree part: gcd(p, p') does not divide p")
        return q.monic()

    def strip_zero_roots(self):
        """Divide out every factor of the variable."""
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no nonzero part")
        k = 0
        while self.coeffs[k].is_zero():
            k += 1
        return ExactPoly(self.coeffs[k:])

    def eval_scalar(self, x):
        x = Scalar.coerce(x)
        acc = Scalar(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, a):
        acc = ExactMatrix.zeros(a.dim)
        ident = ExactMatrix.identity(a.dim)
        for c in reversed(self.coeffs):
            acc = acc * a + ident * c
        return acc

    def literal(self, variable="x"):
        """Human-readable form, e.g. 'x^2 - 1'. The zero polynomial is '0'."""
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            if k == 0:
                body = c.literal()
            else:
                power = variable if k == 1 else f"{variable}^{k}"
                if c == Scalar(1):
                    body = power
                elif c == Scalar(-1):
                    body = f"-{power}"
                elif c.is_real() or c.re == 0:
                    body = f"{c.literal()}{power}"
                else:
                    body = f"({c.literal()}){power}"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(f"- {body[1:]}")
            else:
                parts.append(f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"ExactPoly({self.literal()!r})"


def poly_radical(p):
    """Monic squarefree part: same roots, all simple."""
    return p.squarefree_part()


def poly_radical_nonzero(p):
    """Monic squarefree part with every zero root removed.

    Two matrices have equal nonzero eigenvalue sets exactly when this agrees
    on their characteristic polynomials.
    """
    return p.strip_zero_roots().squarefree_part()


# -- matrix-level operations -----------------------------------------------------


def charpoly(a):
    """Monic characteristic polynomial det(x*I - a), ascending coefficients."""
    d = a.dim
    den, re, im = a._rep()
    cre, cim = kernel.charpoly_ints(d, re, im)
    coeffs = []
    for j in range(d + 1):
        scale = den ** (d - j)
        coeffs.append(Scalar(Fraction(cre[j], scale), Fraction(cim[j], scale)))
    return ExactPoly(coeffs)


def inverse(a):
    """Exact inverse; raises ZeroDivisionError when singular."""
    p = charpoly(a)
    c0 = p.coeffs[0]
    if c0.is_zero():
        raise ZeroDivisionError("matrix is singular")
    # p(a) = 0, so a * q(a) = -c0 * I with q(x) = (p(x) - c0) / x
    q = ExactPoly(p.coeffs[1:])
    return q.eval_matrix(a) * (Scalar(-1) / c0)


def rank_kernel(a):
    """Exact rank, kernel basis and column-space basis of a square matrix.

    Returns (rank, kernel, image) with rank + kernel.dim == dim always.
    """
    d = a.dim
    den, re, im = a._rep()
    rank, pivots, ere, eim = kernel.echelon(d, d, re, im)
    ker_vectors = _kernel_from_echelon(d, d, rank, pivots, ere, eim)
    image_vectors = [a.column(j) for j in pivots]
    return (
        rank,
        SubspaceBasis.span(ker_vectors, ambient=d),
        SubspaceBasis.span(image_vectors, ambient=d),
    )


def _kernel_from_echelon(nrows, ncols, rank, pivots, ere, eim):
    """Back-substitute an integer echelon form into exact kernel vectors."""
    rows = [
        [
            Scalar(Fraction(ere[i * ncols + j]), Fraction(eim[i * ncols + j]))
            for j in range(ncols)
        ]
        for i in range(rank)
    ]
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    vectors = []
    for f in free_cols:
        x = [Scalar(0)] * ncols
        x[f] = Scalar(1)
        for i in range(rank - 1, -1, -1):
            p = pivots[i]
            s = Scalar(0)
            for j in range(p + 1, ncols):
                if not x[j].is_zero() and not rows[i][j].is_zero():
                    s = s + rows[i][j] * x[j]
            if not s.is_zero():
                x[p] = -s / rows[i][p]
        vectors.append(tuple(x))
    return vectors


def nilpotency_degree(a):
    """Least n >= 1 with a**n == 0, or None when a is not nilpotent."""
    # a d x d matrix is nilpotent exactly when a**d == 0; square up to an
    # exponent of at least d
    power = a
    exponent = 1
    while exponent < a.dim and not power.is_zero():
        power = power * power
        exponent *= 2
    if not power.is_zero():
        return None
    power = a
    n = 1
    while not power.is_zero():
        power = power * a
        n += 1
    return n


def exp_exact_nilpotent(a):
    """Exact exponential sum(a^k / k!) of a nilpotent matrix."""
    deg = nilpotency_degree(a)
    if deg is None:
        raise NotNilpotentError("exp_exact_nilpotent requires a nilpotent matrix")
    acc = ExactMatrix.identity(a.dim)
    term = ExactMatrix.identity(a.dim)
    fact = 1
    for k in range(1, deg):
        term = term * a
        fact *= k
        acc = acc + term * Fraction(1, fact)
    return acc


# -- subspaces --------------------------------------------------------------------


def _rref(rows):
    """Reduced row echelon form over Scalars; returns (rows, pivots), no zero rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    row = 0
    for col in range(ncols):
        p = None
        for r in range(row, len(rows)):
            if not rows[r][col].is_zero():
                p = r
                break
        if p is None:
            continue
        rows[row], rows[p] = rows[p], rows[row]
        pivot_row = rows[row]
        lead = pivot_row[col]
        nonzero = [j for j in range(col, ncols) if not pivot_row[j].is_zero()]
        for j in nonzero:
            pivot_row[j] = pivot_row[j] / lead
        for r in range(len(rows)):
            target = rows[r]
            if r != row and not target[col].is_zero():
                f = target[col]
                for j in nonzero:
                    target[j] = target[j] - f * pivot_row[j]
        pivots.append(col)
        row += 1
        if row == len(rows):
            break
    return rows[:row], pivots


class SubspaceBasis:
    """Subspace of ambient column vectors, held in canonical RREF form.

    Equal subspaces compare equal regardless of the generating vectors.
    """

    __slots__ = ("ambient", "vectors", "_pivots")

    def __init__(self, vectors, ambient=None):
        vectors = [tuple(Scalar.coerce(v) for v in vec) for vec in vectors]
        if ambient is None:
            if not vectors:
                raise DimensionMismatchError("ambient dimension required for empty basis")
            ambient = len(vectors[0])
        if any(len(v) != ambient for v in vectors):
            raise DimensionMismatchError("vectors of mixed length")
        reduced, pivots = _rref(vectors)
        if len(reduced) != len(vectors):
            raise ValueError("vectors are linearly dependent; use SubspaceBasis.span")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "vectors", tuple(tuple(r) for r in reduced))
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @classmethod
    def span(cls, vectors, ambient=None):
        """Subspace spanned by possibly dependent vectors."""
        vectors = [tuple(Scalar.coerce(v) for v in vec) for vec in vectors]
        if ambient is None:
            if not vectors:
                raise DimensionMismatchError("ambient dimension required for empty span")
            ambient = len(vectors[0])
        if any(len(v) != ambient for v in vectors):
            raise DimensionMismatchError("vectors of mixed length")
        reduced, pivots = _rref(vectors)
        obj = object.__new__(cls)
        object.__setattr__(obj, "ambient", ambient)
        object.__setattr__(obj, "vectors", tuple(tuple(r) for r in reduced))
        object.__setattr__(obj, "_pivots", tuple(pivots))
        return obj

    @classmethod
    def zero(cls, ambient):
        return cls.span([], ambient=ambient)

    @classmethod
    def full(cls, ambient):
        rows = ExactMatrix.identity(ambient).rows()
        return cls.span(rows, ambient=ambient)

    @property
    def dim(self):
        return len(self.vectors)

    def contains_vector(self, vec):
        vec = [Scalar.coerce(v) for v in vec]
        if len(vec) != self.ambient:
            raise DimensionMismatchError("vector length differs from ambient")
        for row, p in zip(self.vectors, self._pivots):
            c = vec[p]
            if not c.is_zero():
                vec = [vec[j] - c * row[j] for j in range(self.ambient)]
        return all(v.is_zero() for v in vec)

    def contains(self, other):
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimensions differ")
        return all(self.contains_vector(v) for v in other.vectors)

    def coordinates_of(self, vec):
        """Coefficients of vec in this basis, or None when not contained."""
        vec = [Scalar.coerce(v) for v in vec]
        if len(vec) != self.ambient:
            raise DimensionMismatchError("vector length differs from ambient")
        coords = tuple(vec[p] for p in self._pivots)
        residue = list(vec)
        for c, row in zip(coords, self.vectors):
            residue = [residue[j] - c * row[j] for j in range(self.ambient)]
        if any(not v.is_zero() for v in residue):
            return None
        return coords

    def sum_with(self, other):
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimensions differ")
        return SubspaceBasis.span(list(self.vectors) + list(other.vectors), ambient=self.ambient)

    def intersect(self, other):
        """Zassenhaus block elimination."""
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimensions differ")
        n = self.ambient
        zero = [Scalar(0)] * n
        block = [list(v) + list(v) for v in self.vectors]
        block += [list(v) + zero for v in other.vectors]
        reduced, _ = _rref(block)
        out = []
        for row in reduced:
            if all(v.is_zero() for v in row[:n]):
                out.append(tuple(row[n:]))
        return SubspaceBasis.span(out, ambient=n)

    def image_under(self, a):
        """Span of a*v over the basis vectors."""
        if a.dim != self.ambient:
            raise DimensionMismatchError("matrix dim differs from ambient")
        d = self.ambient
        imgs = []
        for v in self.vectors:
            img = [Scalar(0)] * d
            for j in range(d):
                if not v[j].is_zero():
                    col = a.column(j)
                    img = [img[i] + col[i] * v[j] for i in range(d)]
            imgs.append(tuple(img))
        return SubspaceBasis.span(imgs, ambient=d)

    def vector_literals(self):
        return [",".join(v.literal() for v in vec) for vec in self.vectors]

    def __eq__(self, other):
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        return self.ambient == other.ambient and self.vectors == other.vectors

    def __hash__(self):
        return hash((self.ambient, self.vectors))

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient})"
