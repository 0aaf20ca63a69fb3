"""Exact linear algebra over the Gaussian rationals.

Three immutable value types live here:

``ExactMatrix``
    A square matrix of Gaussian rationals, stored as an integer matrix over
    a common positive denominator. Arithmetic is exact; equality is exact.
    Hot operations (products, powers, characteristic polynomials, rank and
    kernel computations) run on the integer kernels in ``_kernel_py``.

``ExactPoly``
    A polynomial in the same format: ascending integer coefficient lists
    ``(re, im)`` over one positive denominator, normalized by
    ``kernel.normalize`` with trailing zeros stripped, so equality is
    structural. Arithmetic stays in integers: products are convolutions,
    division is the kernel's pseudo-division ``poly_divmod`` over Z[i]
    followed by one exact division, gcds and squarefree parts (so radicals)
    come from its primitive remainder sequence ``poly_chain``, except that a
    polynomial that ``squarefree_mod_q`` certifies squarefree modulo a
    prime is its own squarefree part. Also
    evaluates at matrices. ``coeffs`` is a Scalar view for printing and
    tests.

``SubspaceBasis``
    A subspace in the same format: its canonical reduced row echelon rows as
    one flat integer block over one positive denominator, plus the pivots, so
    equal subspaces have equal storage. Membership and containment reduce
    against that block; sums, intersections and images eliminate from it.

``charpoly`` and ``inverse`` share one Faddeev-LeVerrier pass,
``charpoly_ints`` on the sparse rows of the integer numerator: the charpoly
is built straight from its coefficients, and the inverse is its last
iterate, the adjugate up to sign, over the constant term.

Every rank, kernel, image and subspace comes from one canonical reduced row
echelon form, ``_rref``: row singletons peeled in time linear in the
nonzeros, then Bareiss ``echelon`` from ``_kernel_py`` on the sparse
Gaussian-integer rows that are left, one back-substitution over their
nonzeros and a single division by the last pivot. Scalars appear only at
the parse/print boundary.

Matrix literal format (used by the CLI and the registry data files): rows
separated by ``;``, entries separated by ``,``, each entry a scalar literal
such as ``1``, ``-2/3`` or ``1/2+1/3i``. Indices in this API are 0-based.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
        rows = [list(row) for row in rows]
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise DimensionMismatchError("matrix must be square with dim >= 1")
        self._init_rep(d, _clear_denominators(_parts(v) for row in rows for v in row))

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

    def __reduce__(self):
        # __setattr__ blocks pickle's slot restore, so rebuild from the rep
        return (type(self)._from_rep, (self.dim, self._rep()))

    # -- constructors --------------------------------------------------------

    @classmethod
    def _diagonal_rep(cls, den, re, im):
        """The diagonal matrix of the normalized integer entries (den, re, im)."""
        d = _check_dim(len(re))
        out_re, out_im = [0] * (d * d), [0] * (d * d)
        out_re[::d + 1], out_im[::d + 1] = re, im
        return cls._from_rep(d, (den, out_re, out_im))

    @classmethod
    def identity(cls, dim):
        return cls._diagonal_rep(1, [1] * dim, [0] * dim)

    @classmethod
    def zeros(cls, dim):
        return cls._diagonal_rep(1, [0] * dim, [0] * dim)

    @classmethod
    def diagonal(cls, values):
        return cls._diagonal_rep(*_clear_denominators(map(_parts, values)))

    @classmethod
    def single_entry(cls, dim, i, j, value=1):
        """Matrix with one nonzero entry at 0-based position (i, j)."""
        if not (0 <= i < dim and 0 <= j < dim):
            raise DimensionMismatchError(f"entry ({i}, {j}) is outside a {dim}x{dim} matrix")
        den, (vr,), (vi,) = _clear_denominators([_parts(value)])
        re, im = [0] * (dim * dim), [0] * (dim * dim)
        re[i * dim + j], im[i * dim + j] = vr, vi
        return cls._from_rep(dim, (den, re, im))

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
        if isinstance(other, (int, Fraction, Scalar)):
            den, (re,), (im,) = _clear_denominators([_parts(other)])
            rep = kernel.mat_scale(self.dim, self._rep(), re, im, den)
            return ExactMatrix._from_rep(self.dim, rep)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    __matmul__ = __mul__

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

    def frobenius(self):
        """Frobenius norm as a float.

        The integer true division rounds correctly, so this is the float of
        the exact squared norm, as ``float(Fraction(...))`` would give.
        """
        total = sum(x * x for x in self._re) + sum(y * y for y in self._im)
        return (total / (self._den * self._den)) ** 0.5

    # -- presentation -----------------------------------------------------------

    def literal(self):
        d = self.dim
        return ";".join(
            ",".join(self.entry(i, j).literal() for j in range(d)) for i in range(d)
        )

    def __repr__(self):
        return f"ExactMatrix({self.literal()!r})"

    __str__ = __repr__


def _check_dim(dim):
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    return dim


def _parts(value):
    """An int, Fraction, Scalar or scalar literal as its exact (re, im) pair."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value, 0
    value = Scalar.coerce(value)
    return value.re, value.im


def _clear_denominators(pairs):
    """Exact (re, im) pairs as Gaussian integers over one common denominator.

    Each part is an int or a Fraction; the result is (den, re, im), already
    normalized: each prime's full power in den divides some part's reduced
    denominator, so that part's scaled numerator is prime to it.
    """
    pairs = list(pairs)
    den = 1
    for x, y in pairs:
        den = lcm(den, x.denominator, y.denominator)
    re = [x.numerator * (den // x.denominator) for x, _ in pairs]
    im = [y.numerator * (den // y.denominator) for _, y in pairs]
    return den, re, im


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
    """Polynomial with Gaussian-rational coefficients, ascending order, exact arithmetic.

    Stored like ``ExactMatrix``: integer coefficient lists ``(re, im)`` over
    one positive denominator, normalized by ``kernel.normalize`` and with
    trailing zeros stripped, so equal polynomials have equal storage. The
    zero polynomial has empty lists and degree -1. ``coeffs`` is a read-only
    view of the coefficients as Scalars.
    """

    __slots__ = ("_den", "_re", "_im")

    def __init__(self, coeffs):
        self._init_rep(*_clear_denominators(map(_parts, coeffs)))

    def _init_rep(self, den, re, im):
        n = len(re)
        while n and not re[n - 1] and not im[n - 1]:
            n -= 1
        den, re, im = kernel.normalize(den, re[:n], im[:n])
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_re", tuple(re))
        object.__setattr__(self, "_im", tuple(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactPoly is immutable")

    @classmethod
    def _from_rep(cls, den, re, im):
        obj = object.__new__(cls)
        obj._init_rep(den, re, im)
        return obj

    def __reduce__(self):
        return (type(self)._from_rep, (self._den, self._re, self._im))

    @classmethod
    def zero(cls):
        return cls._from_rep(1, [], [])

    @classmethod
    def one(cls):
        return cls._from_rep(1, [1], [0])

    @classmethod
    def variable(cls):
        return cls._from_rep(1, [0, 1], [0, 0])

    @property
    def coeffs(self):
        den = self._den
        return tuple(
            Scalar(Fraction(x, den), Fraction(y, den)) for x, y in zip(self._re, self._im)
        )

    @property
    def degree(self):
        return len(self._re) - 1

    def is_zero(self):
        return not self._re

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self._den == other._den and self._re == other._re and self._im == other._im

    def __hash__(self):
        return hash((self._den, self._re, self._im))

    def __add__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        da, db = self._den, other._den
        n = max(len(self._re), len(other._re))
        ar, ai, br, bi = (
            list(c) + [0] * (n - len(c)) for c in (self._re, self._im, other._re, other._im)
        )
        re = [x * db + y * da for x, y in zip(ar, br)]
        im = [x * db + y * da for x, y in zip(ai, bi)]
        return ExactPoly._from_rep(da * db, re, im)

    def __sub__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExactPoly._from_rep(self._den, [-x for x in self._re], [-y for y in self._im])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = ExactPoly((other,))
        elif not isinstance(other, ExactPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ExactPoly.zero()
        n = len(self._re) + len(other._re) - 1
        re, im = [0] * n, [0] * n
        pairs = list(zip(other._re, other._im))
        for i, (xr, xi) in enumerate(zip(self._re, self._im)):
            if xr or xi:
                for j, (yr, yi) in enumerate(pairs, i):
                    re[j] += xr * yr - xi * yi
                    im[j] += xr * yi + xi * yr
        return ExactPoly._from_rep(self._den * other._den, re, im)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Pseudo-division over Z[i] (``kernel.poly_divmod``), then one exact division.

        With A, B the integer numerators of self and other, the kernel gives
        m*A = Q*B + R for a positive integer m; the quotient and remainder
        are Q/m and R/m, rescaled by the two denominators.
        """
        if not isinstance(other, ExactPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroPolynomialError("polynomial division by zero")
        m, qr, qi, rr, ri = kernel.poly_divmod(self._re, self._im, other._re, other._im)
        den = self._den * m
        return (
            ExactPoly._from_rep(den, [x * other._den for x in qr], [y * other._den for y in qi]),
            ExactPoly._from_rep(den, rr, ri),
        )

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
        re = [k * x for k, x in enumerate(self._re)]
        im = [k * y for k, y in enumerate(self._im)]
        return ExactPoly._from_rep(self._den, re[1:], im[1:])

    def monic(self):
        """The numerators times conj(l) over |l|^2, l the leading numerator."""
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no monic form")
        lr, li = self._re[-1], self._im[-1]
        pairs = list(zip(self._re, self._im))
        return ExactPoly._from_rep(
            lr * lr + li * li, [x * lr + y * li for x, y in pairs], [y * lr - x * li for x, y in pairs]
        )

    def gcd(self, other):
        """Monic greatest common divisor (zero polynomial if both are zero),
        the last element of the primitive remainder sequence."""
        if other.is_zero():
            return self if self.is_zero() else self.monic()
        re, im = kernel.poly_chain(self._re, self._im, other._re, other._im)[-1]
        return ExactPoly._from_rep(1, re, im).monic()

    def squarefree_part(self):
        """Monic product of the distinct irreducible factors: the monic form
        itself where ``kernel.squarefree_mod_q`` certifies it squarefree,
        else the quotient by gcd(p, p') from the remainder sequence."""
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no squarefree part")
        if self.degree == 0:
            return ExactPoly.one()
        if kernel.squarefree_mod_q(self._re, self._im):
            return self.monic()
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
        while not (self._re[k] or self._im[k]):
            k += 1
        return ExactPoly._from_rep(self._den, self._re[k:], self._im[k:])

    def eval_matrix(self, a):
        """Horner's rule on the integer numerators, then one division by den."""
        d = a.dim
        rep = a._rep()
        ident = ExactMatrix.identity(d)._rep()
        acc = ExactMatrix.zeros(d)._rep()
        for cr, ci in zip(reversed(self._re), reversed(self._im)):
            acc = kernel.mat_mul(d, acc, rep)
            acc = kernel.mat_add(d, acc, kernel.mat_scale(d, ident, cr, ci, 1))
        return ExactMatrix._from_rep(d, kernel.mat_scale(d, acc, 1, 0, self._den))

    def literal(self, variable="x"):
        """Human-readable form, e.g. 'x^2 - 1'. The zero polynomial is '0'."""
        if self.is_zero():
            return "0"
        parts = []
        den = self._den
        for k in range(self.degree, -1, -1):
            if not (self._re[k] or self._im[k]):
                continue
            c = Scalar(Fraction(self._re[k], den), Fraction(self._im[k], den))
            if k == 0:
                body = c.literal()
            else:
                power = variable if k == 1 else f"{variable}^{k}"
                if c == 1:
                    body = power
                elif c == -1:
                    body = f"-{power}"
                elif c.im == 0 or c.re == 0:
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
    return _charpoly_rows(a.dim, a._den, kernel.sparse_rows(a.dim, a._re, a._im))[0]


def inverse(a):
    """Exact inverse; raises ZeroDivisionError when singular.

    The charpoly's Faddeev-LeVerrier pass on the numerator N = den * a ends
    at M_d with N * M_d = -c * I, c the constant term of N's charpoly, so
    a^-1 = -den * M_d / c: no matrix product beyond that pass.
    """
    d, den = a.dim, a._den
    p, last = _charpoly_rows(d, den, kernel.sparse_rows(d, a._re, a._im))
    cr, ci = p._re[0], p._im[0]
    if not (cr or ci):
        raise ZeroDivisionError("matrix is singular")
    # c = den^d * (cr + ci*i) / p._den, so -den / c is
    # -p._den * conj(cr + ci*i) / (den^(d-1) * |cr + ci*i|^2)
    rep = kernel.mat_scale(
        d, (den ** (d - 1), *kernel.dense_rows(d, last)), -p._den * cr, p._den * ci, cr * cr + ci * ci
    )
    return ExactMatrix._from_rep(d, rep)


def _charpoly_rows(d, den, rows):
    """The charpoly of the d x d matrix rows / den, for integer
    ``sparse_rows`` over a positive den that may share a factor with them,
    and the last Faddeev-LeVerrier iterate of ``kernel.charpoly_ints``."""
    cre, cim, last = kernel.charpoly_ints(rows)
    # coefficient j is cre[j] / den^(d-j) = cre[j] * den^j / den^d
    scale = [den ** j for j in range(d + 1)]
    p = ExactPoly._from_rep(
        den ** d, [x * s for x, s in zip(cre, scale)], [y * s for y, s in zip(cim, scale)]
    )
    return p, last


def rank_kernel(a):
    """Exact rank, kernel basis and column-space basis of a square matrix.

    Returns (rank, kernel, image) with rank + kernel.dim == dim always.
    """
    d = a.dim
    pivots, kernel_basis = _null_space(a)
    if len(pivots) == d:
        return d, kernel_basis, SubspaceBasis.full(d)
    re, im = a._re, a._im
    columns = [
        [(i, re[i * d + j], im[i * d + j]) for i in range(d) if re[i * d + j] or im[i * d + j]]
        for j in pivots
    ]
    return len(pivots), kernel_basis, SubspaceBasis._make(d, *_rref(d, columns))


def _null_space(a):
    """The pivot columns (so the rank) and the canonical kernel of a square matrix."""
    rows = kernel.sparse_rows(a.dim, a._re, a._im)
    return _kernel(a.dim, kernel.pattern(rows), lambda: rows)


def _kernel(ncols, cols_of, values):
    """The pivots and kernel of ``sparse_rows`` with ncols columns, given as for ``_reduce``.

    With N/den the reduced form, free column f gives the kernel vector den at
    f and -N[i][f] at pivot i. A pivot that ``_reduce`` peels has the reduced
    row e_i, zero at every free column, so it adds to no kernel vector. When
    every pivot is peeled, as on a shift section, each kernel vector is
    den * e_f, a singleton that ``_rref`` peels too, and no Bareiss step
    runs.
    """
    pivots, den, reduced = _reduce(ncols, cols_of, values)
    if len(pivots) == ncols:
        return pivots, SubspaceBasis.zero(ncols)
    vectors = {f: [(f, den, 0)] for f in sorted(set(range(ncols)) - set(pivots))}
    for p, row in zip(pivots, reduced):
        for f, xr, xi in row:
            vectors[f].append((p, -xr, -xi))
    return pivots, SubspaceBasis._make(ncols, *_rref(ncols, list(vectors.values())))


def nilpotency_degree(a):
    """Least n >= 1 with a**n == 0, or None when a is not nilpotent."""
    # a**n is zero exactly when its numerator is, so the denominator is dropped
    rows = kernel.sparse_rows(a.dim, a._re, a._im)
    return kernel.nilpotency_degree_ints(kernel.pattern(rows), lambda: rows)


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


def _peel(ncols, cols_of):
    """The row-singleton peel on a ``pattern`` alone: (peeled, left), the
    pivot columns it finds and the rows it leaves nonzero. A row with one
    live nonzero, at column j, puts e_j in the row space, so j is a pivot and
    column j leaves every other row, which may make another row a singleton
    or empty it: the first step of sparse elimination toward a triangular
    form (Duff, Erisman, Reid, *Direct Methods for Sparse Matrices*, 1986),
    in time linear in the nonzeros. A shift section peels whole.
    """
    # each singleton's column, then each row's of rest as it falls to one
    queue, live, rest = [], [], []
    for i, cols in enumerate(cols_of):
        live.append(len(cols))
        if len(cols) > 1:
            rest.append(i)
        elif cols:
            queue.append(cols[0])
    if not queue:
        return [], rest
    rows_of = {}  # the rows of rest at each column
    for i in rest:
        for j in cols_of[i]:
            rows_of.setdefault(j, []).append(i)
    done = [False] * ncols
    peeled = []
    for j in queue:
        if done[j]:
            continue  # peeled meanwhile, which emptied the row that queued it
        done[j] = True
        peeled.append(j)
        if j in rows_of:
            for t in rows_of[j]:
                live[t] -= 1
                if live[t] == 1:
                    queue.append(next(k for k in cols_of[t] if not done[k]))
    return peeled, [i for i in rest if live[i]]


def _reduce(ncols, cols_of, values):
    """Reduced row echelon form of Gaussian-integer ``sparse_rows`` with
    ncols columns, given as their ``pattern`` and a function that returns
    them, over one denominator that is not yet normalized.

    Returns (pivots, den, reduced): the pivot column of each nonzero reduced
    row, and each such row's nonzeros off its pivot column, where its entry
    is den. ``values`` is called only when ``_peel`` leaves a row, and only
    those rows are read, without the peeled columns and divided by their
    content, which keeps Bareiss pivots small. ``echelon`` clears below each
    pivot. Its last pivot D is the determinant of the pivot minor, so D*R is
    integral (Cramer's rule): one back-substitution, bottom row first,
    clears above each pivot in integers with
    D*R_i = (D*E_i - sum over k > i of E_i[p_k] * D*R_k) / E_i[p_i],
    and R = D*R * conj(D) / |D|^2. No peeled column is live in those rows,
    so their reduced rows are zero at the peeled pivots. Every step reads
    nonzeros only.
    """
    peeled, left = _peel(ncols, cols_of)
    rows, gone, primitive = values() if left else None, set(peeled), []
    for i in left:
        row = [cell for cell in rows[i] if cell[0] not in gone] if gone else rows[i]
        g = 0
        for _, vr, vi in row:
            g = gcd(g, vr, vi)
            if g == 1:
                break
        primitive.append([(j, vr // g, vi // g) for j, vr, vi in row] if g > 1 else row)
    pivots, echelon = kernel.echelon(ncols, primitive) if primitive else ([], [])
    if len(pivots) + len(peeled) == ncols or not pivots:
        # every pivot peeled, or one in every column: each reduced row is
        # the pivot's unit vector
        return sorted(pivots + peeled), 1, [[] for _ in range(len(pivots) + len(peeled))]
    rank = len(pivots)
    where = {p: k for k, p in enumerate(pivots)}
    dr, di = next((er, ei) for j, er, ei in echelon[-1] if j == pivots[-1])
    scaled = [None] * rank  # D*R_i over its nonzero non-pivot columns
    for i in range(rank - 1, -1, -1):
        row, above = {}, []
        for j, er, ei in echelon[i]:
            k = where.get(j)
            if k is None:
                row[j] = (er * dr - ei * di, er * di + ei * dr)
            elif k == i:
                pr, pi = er, ei
            else:
                above.append((scaled[k], er, ei))
        for other, cr, ci in above:
            for j, (yr, yi) in other.items():
                xr, xi = row.get(j, (0, 0))
                row[j] = (xr - cr * yr + ci * yi, xi - cr * yi - ci * yr)
        scaled[i] = {
            j: kernel._gdiv_exact(xr, xi, pr, pi) for j, (xr, xi) in row.items() if xr or xi
        }
    reduced = [
        [(j, xr * dr + xi * di, xi * dr - xr * di) for j, (xr, xi) in row.items()]
        for row in scaled
    ]
    if peeled:
        merged = sorted([*zip(pivots, reduced), *((p, []) for p in peeled)])
        pivots, reduced = [p for p, _ in merged], [row for _, row in merged]
    return pivots, dr * dr + di * di, reduced


def _rref(ncols, rows):
    """The canonical form of ``_reduce`` as (pivots, (den, re, im)): the
    reduced rows as one flat integer block over a positive denominator,
    normalized by ``kernel.normalize``."""
    pivots, den, reduced = _reduce(ncols, kernel.pattern(rows), lambda: rows)
    out_re, out_im = [0] * (len(pivots) * ncols), [0] * (len(pivots) * ncols)
    for off, p, row in zip(range(0, len(out_re), ncols), pivots, reduced):
        out_re[off + p] = den
        for j, xr, xi in row:
            out_re[off + j], out_im[off + j] = xr, xi
    return pivots, kernel.normalize(den, out_re, out_im)


class SubspaceBasis:
    """Subspace of ambient column vectors, held in canonical RREF form.

    Stored like ``ExactMatrix``: the reduced rows as one flat integer block
    ``(re, im)`` over a positive denominator, normalized by
    ``kernel.normalize``, plus each row's pivot column. The reduced form is
    unique, so equal subspaces have equal storage. ``vectors`` is a
    read-only Scalar view. Scaling a row keeps its span, so sums,
    intersections and images reduce the numerators alone.
    """

    __slots__ = ("ambient", "_pivots", "_den", "_re", "_im")

    def __init__(self, vectors, ambient=None):
        vectors = list(vectors)
        basis = SubspaceBasis.span(vectors, ambient=ambient)
        if basis.dim != len(vectors):
            raise ValueError("vectors are linearly dependent; use SubspaceBasis.span")
        for name in SubspaceBasis.__slots__:
            object.__setattr__(self, name, getattr(basis, name))

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @classmethod
    def _make(cls, ambient, pivots, rep):
        den, re, im = rep
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, (ambient, tuple(pivots), den, tuple(re), tuple(im))):
            object.__setattr__(obj, name, value)
        return obj

    def __reduce__(self):
        return (type(self)._make, (self.ambient, self._pivots, (self._den, self._re, self._im)))

    @classmethod
    def span(cls, vectors, ambient=None):
        """Subspace spanned by possibly dependent vectors."""
        vectors = [list(vec) for vec in vectors]
        if ambient is None:
            if not vectors:
                raise DimensionMismatchError("ambient dimension required for empty span")
            ambient = len(vectors[0])
        _check_dim(ambient)
        if any(len(v) != ambient for v in vectors):
            raise DimensionMismatchError("vectors of mixed length")
        _, re, im = _clear_denominators(_parts(v) for vec in vectors for v in vec)
        return cls._make(ambient, *_rref(ambient, kernel.sparse_rows(ambient, re, im)))

    @classmethod
    def zero(cls, ambient):
        return cls._make(_check_dim(ambient), (), (1, (), ()))

    @classmethod
    def full(cls, ambient):
        return cls._make(ambient, range(ambient), ExactMatrix.identity(ambient)._rep())

    @property
    def dim(self):
        return len(self._pivots)

    def _rows(self):
        """The reduced rows' numerators as (re, im) tuple pairs."""
        n = self.ambient
        return [(self._re[o:o + n], self._im[o:o + n]) for o in range(0, self.dim * n, n)]

    @property
    def vectors(self):
        den = self._den
        return tuple(
            tuple(Scalar(Fraction(x, den), Fraction(y, den)) for x, y in zip(re, im))
            for re, im in self._rows()
        )

    def _matrix(self):
        """The basis vectors as the first rows of an ambient x ambient matrix."""
        n = self.ambient
        pad = [0] * ((n - self.dim) * n)
        return ExactMatrix._from_rep(n, (self._den, list(self._re) + pad, list(self._im) + pad))

    def contains_vector(self, vec):
        return self.coordinates_of(vec) is not None

    def contains(self, other):
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimensions differ")
        return self._spans(other._rows())

    def coordinates_of(self, vec):
        """Coefficients of vec in this basis, or None when not contained.

        Reduced row i is 1 at pivot i and 0 at the other pivots, so the
        coefficients of a contained vector are its pivot entries.
        """
        vec = list(vec)
        if len(vec) != self.ambient:
            raise DimensionMismatchError("vector length differs from ambient")
        if not self._spans([_clear_denominators(map(_parts, vec))[1:]]):
            return None
        return tuple(Scalar.coerce(vec[p]) for p in self._pivots)

    def _spans(self, vectors):
        """Whether each integer vector (re, im) of ``vectors`` is in the span:
        with N_i = den * R_i the stored rows, den * w - sum_i w[p_i] * N_i = 0,
        which holds at every pivot, so only the free columns are reduced."""
        den, pivots, rows = self._den, self._pivots, self._rows()
        free = sorted(set(range(self.ambient)) - set(pivots))
        for re, im in vectors:
            terms = [(re[p], im[p], nr, ni) for p, (nr, ni) in zip(pivots, rows) if re[p] or im[p]]
            for j in free:
                xr, xi = den * re[j], den * im[j]
                for cr, ci, nr, ni in terms:
                    xr -= cr * nr[j] - ci * ni[j]
                    xi -= cr * ni[j] + ci * nr[j]
                if xr or xi:
                    return False
        return True

    def sum_with(self, other):
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimensions differ")
        n = self.ambient
        rows = kernel.sparse_rows(n, self._re + other._re, self._im + other._im)
        return SubspaceBasis._make(n, *_rref(n, rows))

    def intersect(self, other):
        """Zassenhaus block elimination.

        The reduced rows of [[u, u], [w, 0]] whose pivot lies in the right
        half are zero on the left; their right halves are the intersection,
        already in canonical form.
        """
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimensions differ")
        n = self.ambient
        u, w = self._rows(), other._rows()
        re = [x for r, _ in u for x in r + r] + [x for r, _ in w for x in r + (0,) * n]
        im = [y for _, i in u for y in i + i] + [y for _, i in w for y in i + (0,) * n]
        pivots, (den, bre, bim) = _rref(2 * n, kernel.sparse_rows(2 * n, re, im))
        k = sum(p < n for p in pivots)
        right = [o + j for o in range(k * 2 * n, len(bre), 2 * n) for j in range(n, 2 * n)]
        rep = kernel.normalize(den, [bre[x] for x in right], [bim[x] for x in right])
        return SubspaceBasis._make(n, [p - n for p in pivots[k:]], rep)

    def image_under(self, a):
        """Span of a*v over the basis vectors: the rows of V*a^T."""
        if a.dim != self.ambient:
            raise DimensionMismatchError("matrix dim differs from ambient")
        n, k = self.ambient, self.dim
        _, re, im = (self._matrix() * a.transpose())._rep()
        return SubspaceBasis._make(n, *_rref(n, kernel.sparse_rows(n, re[:k * n], im[:k * n])))

    def _key(self):
        return self.ambient, self._den, self._re, self._im

    def __eq__(self, other):
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient})"
