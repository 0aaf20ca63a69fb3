"""Exact matrix core: arithmetic, charpoly, polynomials, rank/kernel, subspaces.

The characteristic polynomial has an independent oracle here: cofactor
expansion of det(xI - A) over ``ReferencePoly``, a polynomial over
``FieldScalar`` coefficients (``field_scalar.py``) that shares no code with
the Faddeev-LeVerrier implementation or with the integer ``ExactPoly`` under
test.
"""

import pickle
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from weakcomm import _kernel_py
from weakcomm.errors import (
    DimensionMismatchError,
    LiteralFormatError,
    NotNilpotentError,
    SamplerBudgetError,
)
from weakcomm.exact import (
    ExactMatrix,
    ExactPoly,
    SubspaceBasis,
    _clear_denominators,
    _parts,
    _reduce,
    _rref,
    charpoly,
    exp_exact_nilpotent,
    inverse,
    nilpotency_degree,
    poly_radical,
    poly_radical_nonzero,
    rank_kernel,
)
from weakcomm.instances import RelationClass, _comm_r_system, sample_pair
from weakcomm.registry import ExampleId, paper_example
from weakcomm.scalar import Scalar
from weakcomm.shiftlab import finite_support_kernel, parse_spec, truncate

from field_scalar import FieldScalar


def _rand_scalar(rng, small=False):
    num = rng.randint(-4, 4)
    den = rng.randint(1, 3)
    if small or rng.random() < 0.75:
        return FieldScalar(Fraction(num, den))
    return FieldScalar(Fraction(num, den), Fraction(rng.randint(-3, 3), den))


def _rand_matrix(rng, d):
    return ExactMatrix([[_rand_scalar(rng) for _ in range(d)] for _ in range(d)])


def _rand_shift_matrix(rng, d):
    """Weighted shift on the sub- or superdiagonal plus a few finite-rank entries."""
    rows = [[Scalar(0)] * d for _ in range(d)]
    below = rng.random() < 0.5
    for i in range(d - 1):
        if rng.random() < 0.8:
            if below:
                rows[i + 1][i] = _rand_scalar(rng)
            else:
                rows[i][i + 1] = _rand_scalar(rng)
    for _ in range(rng.randint(0, 2)):
        rows[rng.randrange(d)][rng.randrange(d)] = _rand_scalar(rng)
    return ExactMatrix(rows)


def _rand_one_per_row_matrix(rng, d):
    """Exactly one nonzero entry in each row, in a random column."""
    rows = [[Scalar(0)] * d for _ in range(d)]
    for i in range(d):
        value = _rand_scalar(rng)
        while value.is_zero():
            value = _rand_scalar(rng)
        rows[i][rng.randrange(d)] = value
    return ExactMatrix(rows)


# -- oracle: the Scalar-coefficient polynomial ---------------------------------------


class ReferencePoly:
    """Polynomial over Scalars, ascending, arithmetic coefficient by coefficient.

    The earlier ``ExactPoly``, kept as the oracle for the integer (den, re, im)
    form: every operation works on Scalars one at a time.
    """

    def __init__(self, coeffs):
        cs = [FieldScalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        zero = FieldScalar(0)
        return ReferencePoly(
            [(a[k] if k < len(a) else zero) + (b[k] if k < len(b) else zero) for k in range(n)]
        )

    def __neg__(self):
        return ReferencePoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ReferencePoly):
            return ReferencePoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return ReferencePoly(())
        out = [FieldScalar(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ReferencePoly(out)

    def __divmod__(self, other):
        rem = list(self.coeffs)
        q = [FieldScalar(0)] * max(0, len(rem) - len(other.coeffs) + 1)
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
        return ReferencePoly(q), ReferencePoly(rem)

    def derivative(self):
        return ReferencePoly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def monic(self):
        lead = self.coeffs[-1]
        return ReferencePoly([c / lead for c in self.coeffs])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        return a.monic() if not a.is_zero() else a

    def squarefree_part(self):
        if self.degree == 0:
            return ReferencePoly((1,))
        return divmod(self, self.gcd(self.derivative()))[0].monic()

    def strip_zero_roots(self):
        k = 0
        while self.coeffs[k].is_zero():
            k += 1
        return ReferencePoly(self.coeffs[k:])

    def eval_matrix(self, a):
        acc = ExactMatrix.zeros(a.dim)
        ident = ExactMatrix.identity(a.dim)
        for c in reversed(self.coeffs):
            acc = acc * a + ident * c
        return acc

    def literal(self):
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
                power = "x" if k == 1 else f"x^{k}"
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


def reference_inverse(a):
    p = ReferencePoly(charpoly(a).coeffs)
    return ReferencePoly(p.coeffs[1:]).eval_matrix(a) * (FieldScalar(-1) / p.coeffs[0])


# -- oracle: cofactor-expansion charpoly ---------------------------------------------


def _poly_det(rows):
    """Determinant of a matrix of ReferencePoly entries by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ReferencePoly(())
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _poly_det(minor)
        total = total + term if sign > 0 else total - term
        sign = -sign
    return total


def charpoly_oracle(a):
    d = a.dim
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            diag = (0, 1) if i == j else ()
            row.append(ReferencePoly(diag) - ReferencePoly([a.entry(i, j)]))
        rows.append(row)
    return _poly_det(rows)


def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(42)
    for make in (_rand_matrix, _rand_shift_matrix, _rand_one_per_row_matrix):
        for _ in range(200):
            d = rng.randint(1, 5)
            a = make(rng, d)
            assert charpoly(a).coeffs == charpoly_oracle(a).coeffs


def test_cayley_hamilton():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randint(1, 5)
        a = _rand_matrix(rng, d)
        assert charpoly(a).eval_matrix(a).is_zero()


def test_charpoly_frozen_examples():
    p = ExactMatrix([[0, 1], [0, 0]])
    s = ExactMatrix([[0, 0], [1, 0]])
    assert charpoly(p).literal() == "x^2"
    assert charpoly(p + s).literal() == "x^2 - 1"
    assert charpoly(ExactMatrix.identity(3)).literal() == "x^3 - 3x^2 + 3x - 1"
    rot = ExactMatrix([[0, -1], [1, 0]])
    assert charpoly(rot).literal() == "x^2 + 1"


# -- oracle: the dense Faddeev-LeVerrier loop ----------------------------------------


def reference_charpoly_ints(d, re, im, iterates=None):
    """Faddeev-LeVerrier with a dense product and a full nonzero rescan per step.

    When ``iterates`` is a list, each step appends its (M, A*M) as flat
    (re, im) pairs.
    """
    n = d * d
    bre = [0] * (d + 1)
    bim = [0] * (d + 1)
    bre[0] = 1
    mre = [0] * n
    mim = [0] * n
    for i in range(d):
        mre[i * d + i] = 1
    for k in range(1, d + 1):
        m_nz = [
            [j for j in range(d) if mre[koff + j] or mim[koff + j]]
            for koff in range(0, n, d)
        ]
        amre = [0] * n
        amim = [0] * n
        for i in range(d):
            ioff = i * d
            for kk in range(d):
                avr = re[ioff + kk]
                avi = im[ioff + kk]
                if avr or avi:
                    koff = kk * d
                    for j in m_nz[kk]:
                        bvr = mre[koff + j]
                        bvi = mim[koff + j]
                        amre[ioff + j] += avr * bvr - avi * bvi
                        amim[ioff + j] += avr * bvi + avi * bvr
        if iterates is not None:
            iterates.append(((list(mre), list(mim)), (list(amre), list(amim))))
        tr_re = sum(amre[i * d + i] for i in range(d))
        tr_im = sum(amim[i * d + i] for i in range(d))
        ck_re, rem_re = divmod(-tr_re, k)
        ck_im, rem_im = divmod(-tr_im, k)
        if rem_re or rem_im:
            raise ArithmeticError(f"trace {tr_re}+{tr_im}i is not divisible by {k}")
        bre[k] = ck_re
        bim[k] = ck_im
        if k < d:
            mre = amre
            mim = amim
            for i in range(d):
                mre[i * d + i] += ck_re
                mim[i * d + i] += ck_im
    cre = [bre[d - j] for j in range(d + 1)]
    cim = [bim[d - j] for j in range(d + 1)]
    return cre, cim


def _cancels_then_returns(d, re, im):
    """True when an entry of A*M can be nonzero from the nonzero pattern, is
    zero at one step, and is nonzero again at a later step."""
    iterates = []
    reference_charpoly_ints(d, re, im, iterates)
    cancelled = set()
    for (mre, mim), (amre, amim) in iterates:
        for i in range(d):
            for j in range(d):
                if amre[i * d + j] or amim[i * d + j]:
                    if (i, j) in cancelled:
                        return True
                    continue
                if any(
                    (re[i * d + kk] or im[i * d + kk]) and (mre[kk * d + j] or mim[kk * d + j])
                    for kk in range(d)
                ):
                    cancelled.add((i, j))
    return False


def _charpoly_inputs():
    rng = random.Random(808)
    for case in range(300):
        d = rng.randint(1, 7)
        density = rng.choice((0.15, 0.35, 1.0))
        yield (d, *_rand_int_matrix(rng, d, d, density, case % 2 == 1))
    for _ in range(100):
        d = rng.randint(1, 7)
        make = rng.choice((_rand_shift_matrix, _rand_one_per_row_matrix))
        _, re, im = make(rng, d)._rep()
        yield d, re, im
    # diagonal, with a superdiagonal now and then: c_k is mostly nonzero
    for _ in range(60):
        d = rng.randint(1, 7)
        re, im = [0] * (d * d), [0] * (d * d)
        for i in range(d):
            re[i * d + i] = rng.choice((-3, -2, -1, 1, 2, 3))
            im[i * d + i] = rng.choice((0, 0, 1, -2))
            if i + 1 < d and rng.random() < 0.3:
                re[i * d + i + 1] = rng.randint(-3, 3)
        yield d, re, im
    # entries of A*M that cancel to zero and come back at a later step
    returns = 0
    while returns < 40:
        d = rng.randint(3, 6)
        complex_entries = rng.random() < 0.3
        re = [rng.choice((-1, 0, 0, 1)) for _ in range(d * d)]
        im = [rng.choice((-1, 0, 0, 1)) if complex_entries else 0 for _ in range(d * d)]
        if _cancels_then_returns(d, re, im):
            returns += 1
            yield d, re, im
    t_spec, _ = paper_example(ExampleId.EXNILP_T)
    n_spec, _ = paper_example(ExampleId.EXNILP_N)
    q_spec, _ = paper_example(ExampleId.EXNILP_Q)
    for spec in (t_spec, n_spec, q_spec, t_spec + n_spec, t_spec + q_spec):
        for n in (4, 5, 8, 13, 24):
            _, re, im = truncate(spec, n)._rep()
            yield n, re, im


def test_charpoly_ints_matches_dense_reference():
    for d, re, im in _charpoly_inputs():
        expected = reference_charpoly_ints(d, re, im)
        cre, cim, _ = _kernel_py.charpoly_ints(_kernel_py.sparse_rows(d, re, im))
        assert (cre, cim) == expected, (d, re, im)


def test_charpoly_ints_ends_at_the_adjugate():
    # A * M_d == -c_d * I, c_d the constant term, singular A included
    rng = random.Random(414)
    singular = 0
    for case in range(240):
        d = 1 + case % 7
        re, im = _rand_int_matrix(rng, d, d, rng.choice((0.35, 1.0)), case % 2 == 1)
        if case % 3 == 0:
            # repeat a row, so that A is singular
            i, k = rng.randrange(d), rng.randrange(d)
            re[i * d : i * d + d], im[i * d : i * d + d] = re[k * d : k * d + d], im[k * d : k * d + d]
        cre, cim, last = _kernel_py.charpoly_ints(_kernel_py.sparse_rows(d, re, im))
        _, pre, pim = _kernel_py.mat_mul(d, (1, re, im), (1, *_kernel_py.dense_rows(d, last)))
        ident = [int(i == j) for i in range(d) for j in range(d)]
        assert pre == [-cre[0] * v for v in ident] and pim == [-cim[0] * v for v in ident]
        singular += not (cre[0] or cim[0])
    assert singular >= 40


def test_inverse_multiplies_no_dense_matrices(monkeypatch):
    rng = random.Random(415)
    cases = []
    while len(cases) < 60:
        d = rng.randint(1, 5)
        a = _rand_matrix(rng, d)
        if rank_kernel(a)[0] == d:
            cases.append((a, reference_inverse(a)))
    calls = []
    mat_mul = _kernel_py.mat_mul
    monkeypatch.setattr(_kernel_py, "mat_mul", lambda *args: calls.append(args) or mat_mul(*args))
    for a, expected in cases:
        assert inverse(a) == expected
    assert calls == []


# -- matrix arithmetic ---------------------------------------------------------------


def test_constructors():
    assert ExactMatrix.identity(2) == ExactMatrix([[1, 0], [0, 1]])
    assert ExactMatrix.zeros(2).is_zero()
    assert ExactMatrix.diagonal([1, 2]).entry(1, 1) == Scalar(2)
    e = ExactMatrix.single_entry(3, 2, 0, Fraction(1, 2))
    assert e.entry(2, 0) == Scalar(Fraction(1, 2))
    assert sum(1 for i in range(3) for j in range(3) if not e.entry(i, j).is_zero()) == 1


def test_single_entry_checks_indices():
    rng = random.Random(41)
    for _ in range(40):
        d = rng.randint(1, 4)
        i, j = rng.randrange(d), rng.randrange(d)
        value = _rand_scalar(rng) if rng.random() < 0.9 else 0
        rows = [[0] * d for _ in range(d)]
        rows[i][j] = value
        e = ExactMatrix.single_entry(d, i, j, value)
        assert e == ExactMatrix(rows) and hash(e) == hash(ExactMatrix(rows))
    # a negative index must not wrap around to the last row
    for i, j in ((-1, 0), (0, -1), (3, 0), (0, 3)):
        with pytest.raises(DimensionMismatchError):
            ExactMatrix.single_entry(3, i, j, 5)
    with pytest.raises(DimensionMismatchError):
        ExactMatrix.single_entry(0, 0, 0)


def test_dimensions_below_one_are_rejected_alike():
    for dim in (0, -1):
        for build in (
            ExactMatrix.identity,
            ExactMatrix.zeros,
            SubspaceBasis.zero,
            SubspaceBasis.full,
            lambda n: SubspaceBasis([], ambient=n),
            lambda n: SubspaceBasis.span([], ambient=n),
        ):
            with pytest.raises(DimensionMismatchError, match="dim must be >= 1"):
                build(dim)
    with pytest.raises(DimensionMismatchError, match="dim must be >= 1"):
        ExactMatrix.diagonal([])
    assert SubspaceBasis([], ambient=1) == SubspaceBasis.zero(1)


def test_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        ExactMatrix([[1, 2]])
    with pytest.raises(DimensionMismatchError):
        ExactMatrix([[1], [2, 3]])


def test_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        ExactMatrix.identity(2) * ExactMatrix.identity(3)


def test_ring_ops():
    rng = random.Random(3)
    for _ in range(50):
        d = rng.randint(1, 4)
        a, b, c = (_rand_matrix(rng, d) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == ExactMatrix.zeros(d)
        assert a * ExactMatrix.identity(d) == a
        assert (a * Fraction(2, 3)) * 3 == a * 2
        assert -a == a * -1


def test_pow():
    a = ExactMatrix([[1, 1], [0, 1]])
    assert a ** 0 == ExactMatrix.identity(2)
    assert a ** 5 == ExactMatrix([[1, 5], [0, 1]])
    assert a ** -1 == ExactMatrix([[1, -1], [0, 1]])


def _rand_rep(rng, d):
    re = [rng.randint(-60, 60) for _ in range(d * d)]
    im = [rng.randint(-60, 60) if rng.random() < 0.4 else 0 for _ in range(d * d)]
    return _kernel_py.normalize(rng.randint(1, 40), re, im)


def test_kernel_normalization_invariants():
    rng = random.Random(77)
    for _ in range(300):
        d = rng.randint(1, 4)
        den, re, im = _kernel_py.mat_mul(d, _rand_rep(rng, d), _rand_rep(rng, d))
        assert den >= 1
        assert gcd(den, *re, *im) == 1
    zero = (1, [0] * 4, [0] * 4)
    assert _kernel_py.normalize(6, [0] * 4, [0] * 4) == zero
    assert _kernel_py.mat_mul(2, _rand_rep(rng, 2), zero) == zero


def test_sparse_mul_is_the_product_over_its_content():
    rng = random.Random(83)
    for _ in range(300):
        d = rng.randint(1, 6)
        # sparse Gaussian-integer operands with a common factor, so that the
        # content of the product exceeds 1
        factor = rng.choice((1, 2, 6))
        re_a, im_a, re_b, im_b = (
            [factor * rng.randint(-9, 9) if rng.random() < 0.4 else 0 for _ in range(d * d)]
            for _ in range(4)
        )
        product, content = _kernel_py.sparse_mul(
            d, _kernel_py.sparse_rows(d, re_a, im_a), _kernel_py.sparse_rows(d, re_b, im_b)
        )
        _, re, im = _kernel_py.mat_mul(d, (1, re_a, im_a), (1, re_b, im_b))
        g = gcd(*re, *im) or 1
        expected = _kernel_py.sparse_rows(d, [v // g for v in re], [v // g for v in im])
        assert content == gcd(*re, *im)
        rows = [[(j, vr // g, vi // g) for j, vr, vi in row] for row in product]
        assert [sorted(row) for row in rows] == expected
        assert gcd(*(v for row in rows for _, vr, vi in row for v in (vr, vi))) in (0, 1)


def test_cleared_denominators_are_already_normalized():
    # ExactMatrix, single_entry and shiftlab.truncate store this output as is
    rng = random.Random(91)
    cases = [[], [Scalar(0)] * 5, [Scalar(Fraction(-3, 4))], [Scalar(0, Fraction(-5, 6))]]
    for _ in range(400):
        values = []
        for _ in range(rng.randint(1, 12)):
            kind = rng.random()
            if kind < 0.3:
                values.append(Scalar(0))
            else:
                re = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 9, 12, 35)))
                im = Fraction(rng.randint(-30, 30), rng.randint(1, 20)) if kind > 0.7 else 0
                values.append(Scalar(re, im))
        cases.append(values)
    for values in cases:
        rep = _clear_denominators(map(_parts, values))
        assert _kernel_py.normalize(*rep) == rep, values
        den, re, im = rep
        assert [Scalar(Fraction(x, den), Fraction(y, den)) for x, y in zip(re, im)] == values


def test_gdiv_exact_raises_on_remainder():
    assert _kernel_py._gdiv_exact(4, 2, 2, 0) == (2, 1)
    assert _kernel_py._gdiv_exact(2, 0, 1, 1) == (1, -1)
    with pytest.raises(ArithmeticError):
        _kernel_py._gdiv_exact(1, 0, 2, 0)


# -- oracle: dense Bareiss echelon -----------------------------------------------------


def _reference_gdiv(xr, xi, pr, pi):
    nrm = pr * pr + pi * pi
    qr = xr * pr + xi * pi
    qi = xi * pr - xr * pi
    assert qr % nrm == 0 and qi % nrm == 0
    return qr // nrm, qi // nrm


def reference_echelon(nrows, ncols, re, im):
    """Dense Gaussian Bareiss loop that visits every entry; the kernel must agree."""
    r = [list(re[i * ncols:(i + 1) * ncols]) for i in range(nrows)]
    m = [list(im[i * ncols:(i + 1) * ncols]) for i in range(nrows)]
    prev_r, prev_i = 1, 0
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        p = -1
        for rr in range(row, nrows):
            if r[rr][col] or m[rr][col]:
                p = rr
                break
        if p < 0:
            continue
        if p != row:
            r[row], r[p] = r[p], r[row]
            m[row], m[p] = m[p], m[row]
        pr = r[row][col]
        pi = m[row][col]
        for rr in range(row + 1, nrows):
            fr = r[rr][col]
            fi = m[rr][col]
            for cc in range(col + 1, ncols):
                xr = (pr * r[rr][cc] - pi * m[rr][cc]) - (fr * r[row][cc] - fi * m[row][cc])
                xi = (pr * m[rr][cc] + pi * r[rr][cc]) - (fr * m[row][cc] + fi * r[row][cc])
                if prev_r != 1 or prev_i != 0:
                    xr, xi = _reference_gdiv(xr, xi, prev_r, prev_i)
                r[rr][cc] = xr
                m[rr][cc] = xi
            r[rr][col] = 0
            m[rr][col] = 0
        prev_r, prev_i = pr, pi
        pivots.append(col)
        row += 1
    ere = [v for rowvals in r for v in rowvals]
    eim = [v for rowvals in m for v in rowvals]
    return row, pivots, ere, eim


def _rand_int_matrix(rng, nrows, ncols, density, complex_entries):
    re = [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(nrows * ncols)]
    if complex_entries:
        im = [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(nrows * ncols)]
    else:
        im = [0] * (nrows * ncols)
    return re, im


def _rank_deficient(rng, nrows, ncols, complex_entries):
    """Product of an nrows x k and a k x ncols matrix, k below both sizes."""
    k = rng.randint(0, max(0, min(nrows, ncols) - 1))
    lre, lim = _rand_int_matrix(rng, nrows, k, 0.7, complex_entries)
    rre, rim = _rand_int_matrix(rng, k, ncols, 0.7, complex_entries)
    re = [0] * (nrows * ncols)
    im = [0] * (nrows * ncols)
    for i in range(nrows):
        for t in range(k):
            ar, ai = lre[i * k + t], lim[i * k + t]
            for j in range(ncols):
                br, bi = rre[t * ncols + j], rim[t * ncols + j]
                re[i * ncols + j] += ar * br - ai * bi
                im[i * ncols + j] += ar * bi + ai * br
    return re, im


def _echelon_inputs():
    rng = random.Random(2024)
    for case in range(400):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7) if case % 2 else nrows
        complex_entries = case % 3 == 0
        if case % 5 == 4:
            re, im = _rank_deficient(rng, nrows, ncols, complex_entries)
        else:
            density = rng.choice((0.15, 0.35, 1.0))
            re, im = _rand_int_matrix(rng, nrows, ncols, density, complex_entries)
        if case % 7 == 0:
            zero_row = rng.randrange(nrows)
            re[zero_row * ncols:(zero_row + 1) * ncols] = [0] * ncols
            im[zero_row * ncols:(zero_row + 1) * ncols] = [0] * ncols
        yield nrows, ncols, re, im
    examples = (ExampleId.EXNILP_T, ExampleId.EXNILP_N, ExampleId.EXNILP_Q)
    specs = [paper_example(e)[0] for e in examples]
    for spec in specs:
        for n in (10, 20):
            _, re, im = truncate(spec, n)._rep()
            yield n, n, re, im
    # sections at n = 30 over their common denominator, without the content
    # division of _rref, so that pivots are not units and the Bareiss
    # divisions are exact divisions by them; the transposes are up shifts
    t, n, q = specs
    for spec in (*specs, t + n, t + q):
        section = truncate(spec, 30)
        for m in (section, section.transpose()):
            _, re, im = m._rep()
            yield 30, 30, re, im
    # the 16 x 16 systems b -> b a^2 - a b a of sampled dim-4 comm_r pairs,
    # the largest blocks that any command eliminates
    for seed in range(4):
        a, _ = sample_pair(RelationClass.COMM_R, 4, seed)
        _, re, im = _comm_r_system(a)._rep()
        yield 16, 16, re, im
    # a dense Gaussian block, and a taller one of lower rank
    yield (9, 9, *_rand_int_matrix(rng, 9, 9, 1.0, True))
    yield (10, 8, *_rank_deficient(rng, 10, 8, True))
    # pivot rows with entries that the rows they clear lack (fill-in), and
    # rows with entries that the pivot row lacks
    yield 4, 5, [2, 0, 3, 0, 1, 4, 0, 0, 0, 0, 0, 1, 0, 5, 0, 6, 0, 0, 7, 0], [0] * 20
    yield 3, 4, [1, 2, 0, 0, 3, 0, 0, 1, 0, 0, 5, 0], [1, 0, 0, 3, 0, 0, 0, 0, 2, 0, 0, 1]


def sparse_echelon(nrows, ncols, re, im):
    """``echelon`` on the rows of a flat block, as a dense (rank, pivots, re, im)."""
    pivots, rows = _kernel_py.echelon(ncols, _kernel_py.sparse_rows(ncols, re, im))
    ere, eim = [0] * (nrows * ncols), [0] * (nrows * ncols)
    for off, row in zip(range(0, nrows * ncols, ncols), rows):
        for j, vr, vi in row:
            assert vr or vi
            ere[off + j], eim[off + j] = vr, vi
    return len(pivots), pivots, ere, eim


def test_echelon_matches_dense_reference():
    non_unit = 0
    for nrows, ncols, re, im in _echelon_inputs():
        expected = reference_echelon(nrows, ncols, re, im)
        assert sparse_echelon(nrows, ncols, re, im) == expected, (nrows, ncols, re, im)
        _, pivots, ere, eim = expected
        if nrows == 30:
            at = [i * ncols + p for i, p in enumerate(pivots)]
            non_unit += any(ere[k] ** 2 + eim[k] ** 2 > 1 for k in at)
    # every n = 30 section but EXNILP_N's single entry and its transpose
    assert non_unit == 8


def test_echelon_raises_on_a_broken_division(monkeypatch):
    # the third row's last entry is divided by the first pivot, real or not
    for pr, pi in ((2, 0), (1, 1)):
        rows = [
            [(0, pr, pi), (1, 1, 0), (2, 1, 0)],
            [(0, 1, 0), (1, 3, 0), (2, 1, 0)],
            [(0, 1, 0), (1, 1, 0), (2, 2, 0)],
        ]
        re = [v for row in rows for _, v, _ in row]
        im = [v for row in rows for _, _, v in row]
        assert sparse_echelon(3, 3, re, im) == reference_echelon(3, 3, re, im)
        with monkeypatch.context() as patch:
            # a division that leaves a remainder
            patch.setattr(_kernel_py, "divmod", lambda x, y: (x // y, 1), raising=False)
            with pytest.raises(ArithmeticError):
                _kernel_py.echelon(3, rows)


# -- oracle: Gauss-Jordan over Scalars ----------------------------------------------------


def reference_rref(rows):
    """Gauss-Jordan over Scalars, pivot by pivot; returns (rows, pivots), no zero rows."""
    rows = [[FieldScalar.coerce(x) for x in r] for r in rows]
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


def reference_kernel_from_echelon(nrows, ncols, rank, pivots, ere, eim):
    """Back-substitute an integer echelon form into exact kernel vectors."""
    rows = [
        [
            FieldScalar(Fraction(ere[i * ncols + j]), Fraction(eim[i * ncols + j]))
            for j in range(ncols)
        ]
        for i in range(rank)
    ]
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    vectors = []
    for f in free_cols:
        x = [FieldScalar(0)] * ncols
        x[f] = FieldScalar(1)
        for i in range(rank - 1, -1, -1):
            p = pivots[i]
            s = FieldScalar(0)
            for j in range(p + 1, ncols):
                if not x[j].is_zero() and not rows[i][j].is_zero():
                    s = s + rows[i][j] * x[j]
            if not s.is_zero():
                x[p] = -s / rows[i][p]
        vectors.append(tuple(x))
    return vectors


def reference_span(vectors):
    reduced, pivots = reference_rref(vectors)
    return tuple(tuple(r) for r in reduced), tuple(pivots)


def reference_rank_kernel(a):
    d = a.dim
    _, re, im = a._rep()
    rank, pivots, ere, eim = sparse_echelon(d, d, re, im)
    kernel = reference_kernel_from_echelon(d, d, rank, pivots, ere, eim)
    return rank, reference_span(kernel), reference_span([a.column(j) for j in pivots])


def reference_coordinates(rows, pivots, vec):
    """Coefficients of vec in reduced rows by Scalar elimination, or None."""
    vec = [FieldScalar.coerce(v) for v in vec]
    coords = tuple(vec[p] for p in pivots)
    for c, row in zip(coords, rows):
        if not c.is_zero():
            vec = [x if y.is_zero() else x - c * y for x, y in zip(vec, row)]
    if any(not v.is_zero() for v in vec):
        return None
    return coords


def reference_mat_vec(a, vec):
    """The column vector a * vec, entry by entry in Scalars."""
    terms = [(j, FieldScalar.coerce(v)) for j, v in enumerate(vec) if not v.is_zero()]
    return tuple(
        sum((a.entry(i, j) * v for j, v in terms), FieldScalar(0)) for i in range(a.dim)
    )


def _canonical(basis):
    return basis.vectors, basis._pivots


def _assert_integer_storage(basis):
    """Only ints, over a positive denominator coprime to the entries."""
    ints = (basis.ambient, basis._den, *basis._pivots, *basis._re, *basis._im)
    assert all(type(x) is int for x in ints)
    assert basis._den > 0 and gcd(basis._den, *basis._re, *basis._im) == 1
    assert len(basis._re) == len(basis._im) == basis.dim * basis.ambient


def _rand_rows(rng, nrows, ncols, complex_entries, density):
    """Scalar rows with denominators up to 6, some rows combinations of others."""

    def entry():
        if rng.random() >= density:
            return FieldScalar(0)
        im = Fraction(rng.randint(-5, 5), rng.randint(1, 6)) if complex_entries else 0
        return FieldScalar(Fraction(rng.randint(-7, 7), rng.randint(1, 6)), im)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _span_inputs():
    rng = random.Random(4096)
    for case in range(300):
        ncols = rng.randint(1, 7)
        nrows = rng.randint(0, 8) if case % 2 else ncols
        complex_entries = case % 3 == 0
        rows = _rand_rows(rng, nrows, ncols, complex_entries, rng.choice((0.3, 0.6, 1.0)))
        if rows and case % 5 == 4:
            # rank-deficient: append combinations of the rows already drawn
            for _ in range(rng.randint(1, 3)):
                c1 = FieldScalar(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-1, 1)
                )
                c2 = FieldScalar(rng.randint(-2, 2))
                u, w = rng.choice(rows), rng.choice(rows)
                rows.append([c1 * x + c2 * y for x, y in zip(u, w)])
        if rows and case % 7 == 0:
            rows.insert(rng.randrange(len(rows) + 1), [Scalar(0)] * ncols)
        yield ncols, rows
        if case % 4 == 1:
            # Zassenhaus-shaped block [[u, u], [w, 0]]
            other = _rand_rows(rng, rng.randint(0, 4), ncols, complex_entries, 0.6)
            block = [r + r for r in rows] + [r + [Scalar(0)] * ncols for r in other]
            yield 2 * ncols, block
    for example in (ExampleId.EXNILP_T, ExampleId.EXNILP_N, ExampleId.EXNILP_Q):
        spec, _ = paper_example(example)
        for n in (10, 20):
            rows = [list(r) for r in truncate(spec, n).rows()]
            yield n, rows
            yield n, [list(r) for r in truncate(spec, n).transpose().rows()]


def test_span_matches_gauss_jordan_reference():
    for ambient, rows in _span_inputs():
        basis = SubspaceBasis.span(rows, ambient=ambient)
        assert _canonical(basis) == reference_span(rows), rows
        if len(basis.vectors) == len(rows):
            assert _canonical(SubspaceBasis(rows, ambient=ambient)) == _canonical(basis)
        else:
            with pytest.raises(ValueError):
                SubspaceBasis(rows, ambient=ambient)


def _zassenhaus_inputs():
    rng = random.Random(4097)
    for case in range(120):
        n = rng.randint(1, 6)
        complex_entries = case % 3 == 0
        u = _rand_rows(rng, rng.randint(0, n), n, complex_entries, 0.7)
        w = _rand_rows(rng, rng.randint(0, n), n, complex_entries, 0.7)
        if u and w and case % 2:
            w.append(list(u[0]))  # force a shared direction
        yield n, u, w


def reference_intersect(n, u_rows, w_rows):
    """Zassenhaus over Scalars: right halves of the reduced rows that are zero on the left."""
    block = [list(v) + list(v) for v in u_rows] + [list(v) + [Scalar(0)] * n for v in w_rows]
    reduced, _ = reference_rref(block)
    return reference_span([row[n:] for row in reduced if all(x.is_zero() for x in row[:n])])


def test_intersect_matches_zassenhaus_reference():
    for n, u, w in _zassenhaus_inputs():
        a = SubspaceBasis.span(u, ambient=n)
        b = SubspaceBasis.span(w, ambient=n)
        assert _canonical(a.intersect(b)) == reference_intersect(n, a.vectors, b.vectors), (u, w)


def _subspace_pairs():
    """(ambient, u, w): span inputs paired by ambient (EXNILP sections and their
    transposes included), then the Zassenhaus draws."""
    last = {}
    for ambient, rows in _span_inputs():
        if ambient in last:
            yield ambient, last[ambient], rows
        last[ambient] = rows
    yield from _zassenhaus_inputs()


def test_subspace_ops_match_scalar_references():
    rng = random.Random(4099)
    for n, u, w in _subspace_pairs():
        a = SubspaceBasis.span(u, ambient=n)
        b = SubspaceBasis.span(w, ambient=n)
        ref_a, ref_b = reference_span(u), reference_span(w)
        total, meet = a.sum_with(b), a.intersect(b)
        m = ExactMatrix(_rand_rows(rng, n, n, rng.random() < 0.3, rng.choice((0.3, 1.0))))
        image = a.image_under(m)
        for basis in (a, b, total, meet, image):
            _assert_integer_storage(basis)
        assert (_canonical(a), _canonical(b)) == (ref_a, ref_b)
        assert _canonical(total) == reference_span(u + w)
        assert _canonical(meet) == reference_intersect(n, ref_a[0], ref_b[0])
        assert _canonical(image) == reference_span([reference_mat_vec(m, v) for v in ref_a[0]])
        assert a.contains(b) == all(reference_coordinates(*ref_a, v) is not None for v in ref_b[0])
        assert total.contains(a) and a.contains(meet) and b.contains(meet)
        # equality and hash are structural: equal spans compare equal however generated
        assert (a == b) == (ref_a == ref_b)
        assert total == b.sum_with(a) and hash(total) == hash(b.sum_with(a))
        rebuilt = SubspaceBasis.span(a.vectors, ambient=n)
        assert rebuilt == a and hash(rebuilt) == hash(a)
        # coordinates: rows of w (mostly outside a) and combinations of u (inside a)
        combos = []
        for _ in range(2):
            c = [FieldScalar(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in u]
            combos.append([sum(x * r[j] for x, r in zip(c, u)) for j in range(n)])
        for vec in w + (combos if u else []):
            expected = reference_coordinates(*ref_a, vec)
            assert a.coordinates_of(vec) == expected, (u, vec)
            assert a.contains_vector(vec) == (expected is not None)
        full, zero = SubspaceBasis.full(n), SubspaceBasis.zero(n)
        assert _canonical(full) == reference_span(ExactMatrix.identity(n).rows())
        assert _canonical(zero) == ((), ()) and zero.intersect(a) == zero
        for vec in w:
            assert full.coordinates_of(vec) == tuple(vec)
            assert zero.contains_vector(vec) == all(x.is_zero() for x in vec)
        if len(u) == n:
            sq = ExactMatrix(u)
            rank, kernel, img = rank_kernel(sq)
            _assert_integer_storage(kernel)
            _assert_integer_storage(img)
            assert (rank, _canonical(kernel), _canonical(img)) == reference_rank_kernel(sq)


def test_contains_agrees_with_the_sum_test():
    # contains reduces the other basis against the stored block; the sum test
    # eliminates the stacked rows. Both decide other <= self.
    rng = random.Random(4111)
    seen = set()
    for n, u, w in _subspace_pairs():
        a, b = SubspaceBasis.span(u, ambient=n), SubspaceBasis.span(w, ambient=n)
        m = ExactMatrix(_rand_rows(rng, n, n, rng.random() < 0.3, rng.choice((0.3, 1.0))))
        bases = (a, b, a.sum_with(b), a.intersect(b), a.image_under(m), SubspaceBasis.zero(n))
        for x in bases:
            for y in bases:
                want = x.sum_with(y) == x
                assert x.contains(y) == want, (u, w)
                seen.add(want)
    assert seen == {True, False}
    with pytest.raises(DimensionMismatchError):
        SubspaceBasis.full(2).contains(SubspaceBasis.full(3))


@pytest.fixture
def count_scalars(monkeypatch):
    """Call it to start counting Scalar constructions; it returns their arguments."""

    def start():
        built = []
        original = Scalar.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Scalar, "__init__", counting_init)
        return built

    return start


def test_subspace_layer_builds_no_scalars(count_scalars):
    pairs = [sample_pair(cls, 4, 41 + k) for k, cls in enumerate(RelationClass)]
    sections = [truncate(paper_example(e)[0], 10) for e in (ExampleId.EXNILP_T, ExampleId.EXNILP_Q)]
    pairs.append(tuple(sections))
    built = count_scalars()
    for a, b in pairs:
        rank, ker_a, img_a = rank_kernel(a)
        _, ker_b, img_b = rank_kernel(b)
        assert rank + ker_a.dim == a.dim
        assert ker_a.contains(ker_a.intersect(img_b)) and img_a.contains(img_a.image_under(a))
        assert ker_a.image_under(a) == SubspaceBasis.zero(a.dim)
        assert img_a.sum_with(ker_b).contains(ker_b)
        assert SubspaceBasis.full(a.dim).contains(ker_b.sum_with(img_b))
    assert built == []
    Scalar(1)
    assert len(built) == 1


def test_samplers_and_sections_build_no_scalars(count_scalars):
    exnilp = (ExampleId.EXNILP_T, ExampleId.EXNILP_N, ExampleId.EXNILP_Q)
    t, n, q = (paper_example(e)[0] for e in exnilp)
    specs = [t, n, q, t + n, t + q]
    built = count_scalars()
    sampled = 0
    for k, cls in enumerate(RelationClass):
        for dim in (2, 3, 4, 5):
            for strict in (False, True):
                for nilpotent in (False, True):
                    if strict and cls is RelationClass.COMM:
                        continue
                    try:
                        sample_pair(cls, dim, 50 + k, strict, nilpotent)
                        sampled += 1
                    except SamplerBudgetError:
                        pass
    assert built == [] and sampled > 50
    for spec in specs:
        for size in (6, 10, 20):
            truncate(spec, size)
            finite_support_kernel(spec, size)
    assert built == []
    Scalar(1)
    assert len(built) == 1


def _rank_kernel_inputs():
    rng = random.Random(4098)
    for case in range(200):
        d = rng.randint(1, 6)
        rows = _rand_rows(rng, d, d, case % 3 == 0, rng.choice((0.3, 0.6, 1.0)))
        if d > 1 and case % 4 == 3:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
        if case % 7 == 0:
            rows[rng.randrange(d)] = [Scalar(0)] * d
        yield ExactMatrix(rows)
    yield ExactMatrix.zeros(3)
    yield ExactMatrix.identity(3)
    for example in (ExampleId.EXNILP_T, ExampleId.EXNILP_N, ExampleId.EXNILP_Q):
        spec, _ = paper_example(example)
        for n in (10, 20):
            yield truncate(spec, n)


def test_rank_kernel_matches_reference():
    for a in _rank_kernel_inputs():
        rank, kernel, image = rank_kernel(a)
        assert (rank, _canonical(kernel), _canonical(image)) == reference_rank_kernel(a), a


def _peel_rows(rng):
    """Sparse Gaussian-integer rows, (ncols, rows), shaped for the singleton peel.

    A chain of rows each holds its own column and some columns of the rows
    before it, so the peel cascades along it; twins repeat a singleton on a
    chain column, zero rows and rows inside the chain's columns are emptied,
    and free rows over all columns are left to Bareiss.
    """
    ncols = rng.randint(1, 8)
    nrows = rng.randint(1, 9)
    chain = rng.sample(range(ncols), rng.randint(0, min(nrows, ncols)))
    patterns = [
        {c, *rng.sample(chain[:t], rng.randint(0, min(2, t)))} for t, c in enumerate(chain)
    ]
    while len(patterns) < nrows:
        kind = rng.randrange(4)
        if kind == 0:
            patterns.append(set())
        elif kind == 1 and chain:
            patterns.append({rng.choice(chain)})
        elif kind == 2 and chain:
            patterns.append(set(rng.sample(chain, rng.randint(1, len(chain)))))
        else:
            patterns.append(set(rng.sample(range(ncols), rng.randint(1, ncols))))
    rng.shuffle(patterns)

    def entry():
        while True:
            vr, vi = rng.randint(-4, 4), rng.randint(-2, 2) if rng.random() < 0.3 else 0
            if vr or vi:
                return rng.choice((1, 1, 3, 6)) * vr, vi

    return ncols, [[(j, *entry()) for j in sorted(cols)] for cols in patterns]


def _naive_peel(rows):
    """The peel by a slow loop: (peeled columns, the column sets left to Bareiss).

    Any row with one column outside the peeled set peels that column, until
    none is left; the peeled set is the least one closed under that rule, so
    the order does not matter.
    """
    patterns = [{j for j, _, _ in row} for row in rows]
    peeled = set()
    while True:
        fresh = {j for cols in patterns for j in cols - peeled if len(cols - peeled) == 1}
        if not fresh:
            return peeled, [cols - peeled for cols in patterns if cols - peeled]
        peeled.add(min(fresh))


def _chunks(flat, ncols):
    return [flat[o:o + ncols] for o in range(0, len(flat), ncols)]


def _dense_rows(ncols, rows):
    """``sparse_rows`` of Gaussian integers as dense rows of Scalars."""
    dense = [[Scalar(0)] * ncols for _ in rows]
    for vec, row in zip(dense, rows):
        for j, vr, vi in row:
            vec[j] = Scalar(vr, vi)
    return dense


def test_reduce_peels_singletons_and_matches_reference(monkeypatch):
    rng = random.Random(3011)
    seen = dict.fromkeys(("cascade", "emptied", "twins", "zero row", "tall", "wide"), 0)
    seen.update(whole=0, bareiss=0)
    handed = []
    echelon = _kernel_py.echelon

    def recorded(ncols, rows):
        handed.append([{j for j, _, _ in row} for row in rows])
        return echelon(ncols, rows)

    for _ in range(400):
        ncols, rows = _peel_rows(rng)
        peeled, left = _naive_peel(rows)
        singles = [row[0][0] for row in rows if len(row) == 1]
        inside = sum(1 for row in rows if row and {j for j, _, _ in row} <= peeled)
        seen["cascade"] += bool(peeled - set(singles))
        seen["emptied"] += inside > len(peeled)  # one row peels each column
        seen["twins"] += len(singles) > len(set(singles))
        seen["zero row"] += any(not row for row in rows)
        seen["tall"] += len(rows) > ncols
        seen["wide"] += len(rows) < ncols
        seen["bareiss" if left else "whole"] += 1
        # echelon gets exactly the rows that the peel leaves, without the
        # peeled columns, and is not called when the peel takes every row
        del handed[:]
        with monkeypatch.context() as patch:
            patch.setattr(_kernel_py, "echelon", recorded)
            pivots, den, reduced = _reduce(ncols, _kernel_py.pattern(rows), lambda: rows)
        assert handed == ([left] if left else []), rows
        assert peeled <= set(pivots)
        vectors = _dense_rows(ncols, rows)
        got = []
        for p, row in zip(pivots, reduced):
            vec = [FieldScalar(0)] * ncols
            vec[p] = FieldScalar(1)
            for j, xr, xi in row:
                vec[j] = FieldScalar(Fraction(xr, den), Fraction(xi, den))
            got.append(vec)
        assert (got, pivots) == reference_rref(vectors), rows
        basis = SubspaceBasis.span(vectors, ambient=ncols)
        assert _canonical(basis) == reference_span(vectors), rows
        canonical_pivots, (cden, cre, cim) = _rref(ncols, rows)
        canonical = [
            [FieldScalar(Fraction(x, cden), Fraction(y, cden)) for x, y in zip(re, im)]
            for re, im in zip(_chunks(cre, ncols), _chunks(cim, ncols))
        ]
        assert (canonical, canonical_pivots) == reference_rref(vectors), rows
        d = max(ncols, len(rows))
        square = [vec + [Scalar(0)] * (d - ncols) for vec in vectors]
        square = ExactMatrix(square + [[Scalar(0)] * d] * (d - len(rows)))
        rank, kernel_basis, image = rank_kernel(square)
        got = (rank, _canonical(kernel_basis), _canonical(image))
        assert got == reference_rank_kernel(square), rows
    assert all(seen.values()), seen


def test_kernel_negative_den_sign_flip():
    assert _kernel_py.normalize(-2, [2, 0, 0, 2], [0, 0, 0, 0]) == (
        1,
        [-1, 0, 0, -1],
        [0, 0, 0, 0],
    )


def test_transpose_conj():
    a = ExactMatrix([[Scalar(1, 2), Scalar(0)], [Scalar(3), Scalar(0, -1)]])
    assert a.transpose().entry(0, 1) == Scalar(3)
    assert a.conj_transpose().entry(0, 0) == Scalar(1, -2)
    rng = random.Random(11)
    for _ in range(40):
        x = _rand_matrix(rng, 3)
        y = _rand_matrix(rng, 3)
        assert (x * y).conj_transpose() == y.conj_transpose() * x.conj_transpose()


def test_trace_frobenius():
    a = ExactMatrix([[1, 2], [3, 4]])
    assert a.trace() == Scalar(5)
    assert a.frobenius() == float(30) ** 0.5


def _frobenius_reference(m):
    """The Frobenius norm summed in Fractions, entry by entry."""
    den, re, im = m._rep()
    total = sum(Fraction(x * x + y * y, den * den) for x, y in zip(re, im))
    return float(total) ** 0.5


def _outcome(norm, m):
    try:
        return norm(m)
    except OverflowError:
        return "overflow"


def test_frobenius_matches_fraction_reference():
    rng = random.Random(23)
    seen = set()
    for trial in range(400):
        d = rng.randint(1, 4)
        bits = rng.choice((3, 40, 200, 620))
        den = rng.choice((1, rng.randint(2, 50), rng.getrandbits(rng.randint(1, bits)) | 1))
        re = [rng.randint(-(1 << bits), 1 << bits) for _ in range(d * d)]
        if trial % 2:
            im = [rng.randint(-(1 << bits), 1 << bits) for _ in range(d * d)]
        else:
            im = [0] * (d * d)
        m = ExactMatrix._from_rep(d, _kernel_py.normalize(den, re, im))
        expected = _outcome(_frobenius_reference, m)
        assert _outcome(ExactMatrix.frobenius, m) == expected
        seen.add((bits, m._den > 1, expected == "overflow"))
    # entries above 2**600 are covered both in range and overflowing
    assert {(620, True, False), (620, True, True)} <= seen
    den = 3**130
    rep = _kernel_py.normalize(den, [1 << 700, 5, -7, 1], [0, 1 << 650, 0, 2])
    big = ExactMatrix._from_rep(2, rep)
    assert big.frobenius() == _frobenius_reference(big) > 2.0 ** 490


def test_frobenius_overflow_raises_like_reference():
    m = ExactMatrix._from_rep(2, _kernel_py.normalize(1, [1 << 1100, 0, 0, 1], [0] * 4))
    with pytest.raises(OverflowError):
        _frobenius_reference(m)
    with pytest.raises(OverflowError):
        m.frobenius()


def test_construction_mixed_denominators_round_trips():
    rng = random.Random(31)
    for _ in range(60):
        d = rng.randint(1, 4)
        rows = [
            [
                Scalar(
                    Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                    Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if rng.random() < 0.6 else 0,
                )
                for _ in range(d)
            ]
            for _ in range(d)
        ]
        m = ExactMatrix(rows)
        assert m.rows() == tuple(tuple(r) for r in rows)
        flat = [v for row in rows for v in row]
        assert list(m._re) == [int(v.re * m._den) for v in flat]
        assert list(m._im) == [int(v.im * m._den) for v in flat]
    m = ExactMatrix(
        [[Fraction(1, 6), Scalar(Fraction(-3, 4), Fraction(5, 9))], [0, Fraction(7, 10)]]
    )
    assert m._den == 180
    assert m.entry(0, 1) == Scalar(Fraction(-3, 4), Fraction(5, 9))
    assert m.entry(1, 1) == Scalar(Fraction(7, 10))


def test_scaling_by_int_fraction_and_scalar_agree():
    rng = random.Random(37)
    for _ in range(40):
        a = _rand_matrix(rng, rng.randint(1, 4))
        k = rng.randint(-9, 9)
        assert a * k == a * Scalar(k) == a * Fraction(k) == k * a
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert a * q == a * Scalar(q)
        scaled = tuple(tuple(FieldScalar.coerce(v) * q for v in row) for row in a.rows())
        assert (a * q).rows() == scaled


def test_literal_round_trip():
    rng = random.Random(9)
    for _ in range(60):
        a = _rand_matrix(rng, rng.randint(1, 4))
        assert ExactMatrix.parse(a.literal()) == a


def test_parse_rejects_zero_denominator():
    for text in ("1/0,1;0,1", "1,0;0,2/00", "1,1/2+3/0i;0,1"):
        with pytest.raises(LiteralFormatError):
            ExactMatrix.parse(text)


def test_parse_rejects():
    with pytest.raises(LiteralFormatError):
        ExactMatrix.parse("")
    with pytest.raises(LiteralFormatError):
        ExactMatrix.parse("1,2;3")


def test_immutable():
    a = ExactMatrix.identity(2)
    with pytest.raises(AttributeError):
        a.dim = 3


def _pickle_inputs():
    """Matrices, polynomials and subspaces of dims 1-4 with zero, complex and
    mixed-denominator entries, the zero and full subspaces, the zero polynomial."""
    rng = random.Random(47)
    out = [ExactPoly.zero(), ExactPoly.one()]
    for d in range(1, 5):
        mixed = ExactMatrix(
            [
                [
                    Scalar(
                        Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                    )
                    for _ in range(d)
                ]
                for _ in range(d)
            ]
        )
        complex_diag = ExactMatrix.diagonal([Scalar(k, -k) for k in range(d)])
        out += [ExactMatrix.zeros(d), ExactMatrix.identity(d), mixed, complex_diag]
        out += [charpoly(mixed), ExactPoly(mixed.rows()[0])]
        out += [SubspaceBasis.zero(d), SubspaceBasis.full(d)]
        out += [SubspaceBasis.span(mixed.rows()[:2]), SubspaceBasis.span([mixed.rows()[0]] * 2)]
    return out


def test_exact_types_pickle_round_trip():
    for x in _pickle_inputs():
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is type(x)
        assert back == x and hash(back) == hash(x)
        assert {s: getattr(back, s) for s in type(x).__slots__} == {
            s: getattr(x, s) for s in type(x).__slots__
        }
        with pytest.raises(AttributeError):
            back._den = 2
    pair = sample_pair(RelationClass.COMM_L, 3, 1)
    back = pickle.loads(pickle.dumps(pair))
    ctx, back_ctx = pair.context, back.context
    assert back == pair and back_ctx.report == ctx.report and back_ctx._words == ctx._words


# -- inverse, rank, kernel -----------------------------------------------------------


def test_inverse_random():
    rng = random.Random(5)
    count = 0
    while count < 40:
        d = rng.randint(1, 4)
        a = _rand_matrix(rng, d)
        r, _, _ = rank_kernel(a)
        if r < d:
            continue
        count += 1
        assert a * inverse(a) == ExactMatrix.identity(d)
        assert inverse(a) * a == ExactMatrix.identity(d)
        assert inverse(a) == reference_inverse(a)


def test_inverse_singular():
    with pytest.raises(ZeroDivisionError):
        inverse(ExactMatrix([[1, 1], [1, 1]]))


def test_rank_kernel_consistency():
    rng = random.Random(13)
    for _ in range(80):
        d = rng.randint(1, 5)
        a = _rand_matrix(rng, d)
        rank, kernel, image = rank_kernel(a)
        assert rank + kernel.dim == d
        assert image.dim == rank
        for vec in kernel.vectors:
            assert reference_mat_vec(a, vec) == (0,) * d
        for j in range(d):
            assert image.contains_vector(list(a.column(j)))


def test_rank_small_cases():
    assert rank_kernel(ExactMatrix.zeros(3))[0] == 0
    assert rank_kernel(ExactMatrix.identity(3))[0] == 3
    assert rank_kernel(ExactMatrix([[1, 2], [2, 4]]))[0] == 1


# -- nilpotency and exponential ------------------------------------------------------


def _jordan_block(d):
    return ExactMatrix([[1 if j == i + 1 else 0 for j in range(d)] for i in range(d)])


def test_nilpotency_degree():
    n = ExactMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert nilpotency_degree(n) == 3
    assert nilpotency_degree(n * n) == 2
    assert nilpotency_degree(ExactMatrix.zeros(2)) == 1
    assert nilpotency_degree(ExactMatrix.identity(2)) is None
    assert nilpotency_degree(ExactMatrix.zeros(1)) == 1
    assert nilpotency_degree(ExactMatrix([[Fraction(-1, 3)]])) is None
    # squaring overshoots d when d is not a power of two
    for d in range(1, 10):
        assert nilpotency_degree(_jordan_block(d)) == d
    # singular with zero trace, yet not nilpotent
    assert nilpotency_degree(ExactMatrix.diagonal([1, -1, 0])) is None
    # None exactly when the charpoly is not x^d
    rng = random.Random(31)
    nilpotent = 0
    for _ in range(120):
        d = rng.randint(1, 5)
        if rng.random() < 0.5:
            a = _rand_matrix(rng, d)
        else:
            # conjugate a strictly upper triangular matrix by an invertible one
            upper = ExactMatrix(
                [[_rand_scalar(rng) if j > i else 0 for j in range(d)] for i in range(d)]
            )
            s = _rand_matrix(rng, d)
            while rank_kernel(s)[0] < d:
                s = _rand_matrix(rng, d)
            a = s * upper * inverse(s)
        deg = nilpotency_degree(a)
        x_to_d = ExactPoly([0] * d + [1])
        assert (deg is None) == (charpoly(a) != x_to_d)
        if deg is not None:
            nilpotent += 1
            assert (a ** deg).is_zero()
            assert deg == 1 or not (a ** (deg - 1)).is_zero()
    assert 20 < nilpotent < 100


def reference_nilpotency_degree(a):
    """Squaring test for nilpotency, then the linear power loop a, a^2, ..."""
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


def _nonzero_scalar(rng):
    value = _rand_scalar(rng)
    while value.is_zero():
        value = _rand_scalar(rng)
    return value


def _jordan_sum(rng, sizes):
    """Direct sum of nilpotent Jordan blocks with nonzero (complex) weights."""
    d = sum(sizes)
    rows = [[Scalar(0)] * d for _ in range(d)]
    start = 0
    for size in sizes:
        for i in range(start, start + size - 1):
            rows[i][i + 1] = _nonzero_scalar(rng)
        start += size
    return ExactMatrix(rows)


def _unimodular(rng, d):
    """Gaussian-integer matrix of determinant 1: unit upper times unit lower."""
    def unit_triangular(upper):
        rows = [[Scalar(int(i == j)) for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                entry = Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
                if upper:
                    rows[i][j] = entry
                else:
                    rows[j][i] = entry
        return ExactMatrix(rows)

    return unit_triangular(True) * unit_triangular(False)


def _partition(rng, d):
    sizes = []
    while d:
        size = rng.randint(1, d)
        sizes.append(size)
        d -= size
    rng.shuffle(sizes)
    return sizes


def _nilpotency_inputs():
    """(matrix, known degree or None when not known in advance)."""
    rng = random.Random(1601)
    # one block of every size, so the largest block hits 2^j and 2^j +- 1
    for d in range(1, 21):
        yield _jordan_sum(rng, [d]), d
    for _ in range(80):
        sizes = _partition(rng, rng.randint(1, 20))
        yield _jordan_sum(rng, sizes), max(sizes)
    for d in (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17):
        sizes = _partition(rng, d)
        u = _unimodular(rng, d)
        yield u * _jordan_sum(rng, sizes) * inverse(u), max(sizes)
    # not nilpotent: random, a Jordan chain closed into a cycle, shifted blocks
    for d in range(1, 9):
        yield _rand_matrix(rng, d), None
        cycle = _jordan_sum(rng, [d]) + ExactMatrix.single_entry(d, d - 1, 0, _nonzero_scalar(rng))
        yield cycle, None
        yield _jordan_sum(rng, _partition(rng, d)) + ExactMatrix.identity(d), None
    for d in range(1, 6):
        yield ExactMatrix.zeros(d), 1
    for _ in range(10):
        value = _rand_scalar(rng)
        yield ExactMatrix([[value]]), 1 if value.is_zero() else None
    t_spec, _ = paper_example(ExampleId.EXNILP_T)
    n_spec, _ = paper_example(ExampleId.EXNILP_N)
    q_spec, _ = paper_example(ExampleId.EXNILP_Q)
    for n in [*range(4, 25), 160, 320]:
        yield truncate(t_spec, n), n
        yield truncate(t_spec + n_spec, n), n - 1
        yield truncate(t_spec + q_spec, n), 2


def test_nilpotency_degree_matches_linear_reference():
    for a, known in _nilpotency_inputs():
        degree = nilpotency_degree(a)
        if known is not None:
            assert degree == known, a
        if a.dim < 320:
            assert degree == reference_nilpotency_degree(a), a
        else:
            # the linear loop takes seconds at n = 320: bracket the degree
            # with two dense powers instead
            assert (a ** degree).is_zero() and not (a ** (degree - 1)).is_zero()


def _count_sparse_mul(monkeypatch):
    calls = []
    sparse_mul = _kernel_py.sparse_mul

    def counted(d, a, b):
        calls.append(d)
        return sparse_mul(d, a, b)

    monkeypatch.setattr(_kernel_py, "sparse_mul", counted)
    return calls


def test_nilpotency_degree_takes_logarithmic_products(monkeypatch):
    # EXNILP_T with loops at coordinates 1 and 2: the graph of the section
    # has a cycle, so the path certificate declines it and the squarings run
    spec, _ = paper_example(ExampleId.EXNILP_T)
    spec += parse_spec("finite: 1 1 1\nfinite: 1 2 -2\nfinite: 2 2 -1\n")
    section = truncate(spec, 160)
    calls = _count_sparse_mul(monkeypatch)
    assert nilpotency_degree(section) == 160
    # squarings up to a^256, then one product for each of the bits 6..0:
    # below 2 * ceil(log2 160) = 16, where the linear loop made 167
    assert len(calls) == 8 + 7


def test_nilpotency_degree_of_a_shift_section_takes_no_products(monkeypatch):
    # the section of EXNILP_T is one path of n - 1 edges, and e_1 pushed
    # along it is nonzero: the certificate decides the degree n alone
    spec, _ = paper_example(ExampleId.EXNILP_T)
    sections = {n: truncate(spec, n) for n in (160, 320)}
    calls = _count_sparse_mul(monkeypatch)
    for n, section in sections.items():
        assert nilpotency_degree(section) == n
    assert calls == []


def test_nilpotency_degree_falls_back_when_paths_cancel(monkeypatch):
    # the diamond 0 -> 1 -> 3, 0 -> 2 -> 3 with weights 1, 1, 1, -1: its
    # longest paths have 2 edges, but A^2 e_0 = e_3 - e_3 = 0, so the
    # certificate declines it and the squarings find A^2 = 0
    rows = [[], [(0, 1, 0)], [(0, 1, 0)], [(1, 1, 0), (2, -1, 0)]]
    calls = _count_sparse_mul(monkeypatch)
    assert _kernel_py.nilpotency_degree_ints(_kernel_py.pattern(rows), lambda: rows) == 2
    assert calls != []


def test_nilpotency_degree_certified_by_a_unique_longest_path(monkeypatch):
    # two starts of height 2: vertex 0 has the two paths of a diamond that
    # cancels (0 -> 1 -> 3, 0 -> 2 -> 3 with weights 1, 1, 1, -1), vertex 4
    # the one path 4 -> 5 -> 6, which gives A^2 e_4 = (2 - i)(2 + i) e_6 =
    # 5 e_6: the path alone certifies the degree
    rows = [[], [(0, 1, 0)], [(0, 1, 0)], [(1, 1, 0), (2, -1, 0)], [], [(4, 2, 1)], [(5, 2, -1)]]
    products = _count_sparse_mul(monkeypatch)
    assert _kernel_py.nilpotency_degree_ints(_kernel_py.pattern(rows), lambda: rows) == 3
    assert products == []
    dense_re, dense_im = _kernel_py.dense_rows(7, rows)
    a = ExactMatrix._from_rep(7, (1, dense_re, dense_im))
    assert reference_nilpotency_degree(a) == 3


def test_nilpotency_degree_squares_on_two_longest_paths(monkeypatch):
    # the diamond with weights 1, 1, 1, 1: two longest paths that add up,
    # A^2 e_0 = 2 e_3, which no path alone certifies, so the squarings find
    # the degree 3
    rows = [[], [(0, 1, 0)], [(0, 1, 0)], [(1, 1, 0), (2, 1, 0)]]
    products = _count_sparse_mul(monkeypatch)
    assert _kernel_py.nilpotency_degree_ints(_kernel_py.pattern(rows), lambda: rows) == 3
    assert products != []


def _gaussian_entry(rng):
    if rng.random() < 0.5:
        return Scalar(0)
    return Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if rng.random() < 0.3 else 0)


def test_nilpotency_degree_ints_matches_reference_on_random_matrices(monkeypatch):
    # strictly lower matrices are nilpotent with acyclic graphs, permuting
    # them hides the order, general matrices mostly have cycles, and
    # conjugating a strictly lower one gives nilpotents with cycles; sparse
    # small entries make some paths cancel as well
    rng = random.Random(2909)
    calls = _count_sparse_mul(monkeypatch)
    certified = fell_back = 0
    for case in range(1200):
        d = rng.randint(1, 9)
        kind = case % 4
        rows = [
            [_gaussian_entry(rng) if kind == 2 or j < i else Scalar(0) for j in range(d)]
            for i in range(d)
        ]
        if kind == 1:
            perm = list(range(d))
            rng.shuffle(perm)
            rows = [[rows[perm[i]][perm[j]] for j in range(d)] for i in range(d)]
        a = ExactMatrix(rows)
        if kind == 3:
            u = _unimodular(rng, d)
            a = u * a * inverse(u)
        _, re, im = a._rep()
        del calls[:]
        rows = _kernel_py.sparse_rows(d, re, im)
        degree = _kernel_py.nilpotency_degree_ints(_kernel_py.pattern(rows), lambda: rows)
        assert degree == reference_nilpotency_degree(a), a
        if degree is not None:
            if calls:
                fell_back += 1
            else:
                certified += 1
    assert certified > 400 and fell_back > 100


def test_exp_exact_nilpotent():
    n = ExactMatrix([[0, 1], [0, 0]])
    assert exp_exact_nilpotent(n) == ExactMatrix([[1, 1], [0, 1]])
    with pytest.raises(NotNilpotentError):
        exp_exact_nilpotent(ExactMatrix.identity(2))
    rng = random.Random(21)
    for _ in range(30):
        d = rng.randint(2, 4)
        rows = [
            [_rand_scalar(rng) if j < i else Scalar(0) for j in range(d)]
            for i in range(d)
        ]
        a = ExactMatrix(rows)
        b = a * Fraction(rng.randint(-2, 2), 1)
        # commuting nilpotents: exp is a homomorphism
        assert exp_exact_nilpotent(a) * exp_exact_nilpotent(b) == exp_exact_nilpotent(a + b)


# -- polynomials ---------------------------------------------------------------------


def _rand_poly(rng):
    """Real or complex, den > 1 likely, often with repeated (and zero) roots."""
    kind = rng.randrange(4)
    if kind == 0:
        return ReferencePoly([_rand_scalar(rng) for _ in range(rng.randint(0, 6))])
    p = ReferencePoly([_rand_scalar(rng, small=kind == 1)])
    for _ in range(rng.randint(1, 3)):
        root = _rand_scalar(rng, small=kind == 1) if rng.random() < 0.8 else FieldScalar(0)
        for _ in range(rng.randint(1, 3)):
            p = p * ReferencePoly((-root, 1))
    return p


def _poly_inputs():
    rng = random.Random(6060)
    polys = [ReferencePoly(()), ReferencePoly((3,)), ReferencePoly((Scalar(Fraction(-2, 3), 1),))]
    polys += [_rand_poly(rng) for _ in range(150)]
    for k, cls in enumerate(RelationClass):
        for dim in range(2, 9):
            a, b = sample_pair(cls, dim, 700 + 10 * k + dim, nilpotent=dim % 3 == 0)
            polys += [ReferencePoly(charpoly(m).coeffs) for m in (a, b, a * b, a + b)]
    for example in (ExampleId.EXNILP_T, ExampleId.EXNILP_N, ExampleId.EXNILP_Q):
        spec, _ = paper_example(example)
        for n in (4, 6, 10):
            polys.append(ReferencePoly(charpoly(truncate(spec, n)).coeffs))
    t, _ = paper_example(ExampleId.EXNILP_T)
    nspec, _ = paper_example(ExampleId.EXNILP_N)
    polys.append(ReferencePoly(charpoly(truncate(t + nspec, 6)).coeffs))
    return polys


def _same(p, ref):
    assert p.coeffs == ref.coeffs
    assert p.literal() == ref.literal()
    assert p == ExactPoly(ref.coeffs) and hash(p) == hash(ExactPoly(ref.coeffs))


def test_poly_matches_scalar_reference():
    rng = random.Random(6061)
    refs = _poly_inputs()
    for ref, other in zip(refs, refs[1:] + refs[:1]):
        p, q = ExactPoly(ref.coeffs), ExactPoly(other.coeffs)
        _same(p, ref)
        assert p.degree == ref.degree
        _same(p + q, ref + other)
        _same(p - q, ref - other)
        _same(p * q, ref * other)
        for c in (rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 7), _rand_scalar(rng)):
            _same(p * c, ref * c)
            _same(c * p, ref * c)
        _same(p.derivative(), ref.derivative())
        _same(p.gcd(q), ref.gcd(other))
        if not other.is_zero():
            quo, rem = divmod(p, q)
            rquo, rrem = divmod(ref, other)
            _same(quo, rquo)
            _same(rem, rrem)
        if not ref.is_zero():
            _same(p.monic(), ref.monic())
            _same(p.squarefree_part(), ref.squarefree_part())
            _same(p.strip_zero_roots(), ref.strip_zero_roots())
        if ref.degree <= 6:
            m = _rand_matrix(rng, rng.randint(1, 3))
            assert p.eval_matrix(m) == ref.eval_matrix(m)


def test_poly_layer_builds_no_scalars(count_scalars):
    pairs = [sample_pair(cls, 4, 31 + k) for k, cls in enumerate(RelationClass)]
    built = count_scalars()
    for a, b in pairs:
        for m in (a, b, a * b, a + b):
            p = charpoly(m)
            rad = poly_radical(p)
            assert rad.gcd(p) == rad
            assert p.eval_matrix(m).is_zero()
    assert built == []
    Scalar(1)
    assert len(built) == 1


def test_poly_arith():
    x = ExactPoly.variable()
    p = (x - ExactPoly.one()) * (x + ExactPoly.one())
    assert p.literal() == "x^2 - 1"
    q, r = divmod(p, x - ExactPoly.one())
    assert r.is_zero()
    assert q.literal() == "x + 1"
    assert (x - ExactPoly.one()).divides(p)
    assert not x.divides(p)


def test_poly_radical():
    x = ExactPoly.variable()
    p = (x - ExactPoly.one()) ** 3 * x ** 2
    assert poly_radical(p).literal() == "x^2 - x"
    assert poly_radical_nonzero(p).literal() == "x - 1"
    assert poly_radical_nonzero(x ** 4).literal() == "1"


def _remainder_sequence_squarefree(p):
    """squarefree_part's general route: p / gcd(p, p'), made monic."""
    q, r = divmod(p, p.gcd(p.derivative()))
    assert r.is_zero()
    return q.monic()


def test_squarefree_part_of_a_monomial_is_x():
    x = ExactPoly.variable()
    for c in (Scalar(3), Scalar(Fraction(-2, 5)), Scalar(0, 7), Scalar(0, Fraction(-1, 3)),
              Scalar(1, 1), Scalar(Fraction(-3, 2), 4)):
        for n in range(1, 9):
            p = x ** n * c
            assert p.degree == n and not any(p._re[:-1]) and not any(p._im[:-1])
            assert p.squarefree_part() == _remainder_sequence_squarefree(p) == x
            assert poly_radical(p) == x
            assert poly_radical_nonzero(p) == ExactPoly.one()
            # a nonzero lower term takes the remainder sequence as before
            for q in (p + ExactPoly((c,)), p * (x - ExactPoly((c,)))):
                assert q.squarefree_part() == _remainder_sequence_squarefree(q)
                assert poly_radical_nonzero(q) == _remainder_sequence_squarefree(
                    q.strip_zero_roots()
                )


def test_large_squarefree_part_takes_under_half_a_second():
    # degree 25 with 100-bit coefficients: a Euclid over the fraction field
    # took 3.4 s here, the primitive remainder sequence takes milliseconds
    rng = random.Random(1)
    p = ExactPoly([rng.randrange(-(2**100), 2**100) for _ in range(25)] + [1])
    start = time.perf_counter()
    assert p.squarefree_part() == p
    assert time.perf_counter() - start < 0.5


def _chain_calls(monkeypatch):
    """A list that grows by one on each ``poly_chain`` call."""
    calls, original = [], _kernel_py.poly_chain

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_kernel_py, "poly_chain", counting)
    return calls


def test_squarefree_certificate_maps_z_i_to_a_prime_field():
    # q = 2^64 - 59 is prime (Miller-Rabin on the first twelve primes is
    # deterministic below 3.3e24) and r^2 = -1 mod q, so x + iy -> x + ry
    # is a ring homomorphism Z[i] -> F_q
    q, r = _kernel_py.Q, _kernel_py.SQRT_M1
    assert q == 2**64 - 59 and q % 4 == 1
    assert r * r % q == q - 1
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, q)
        assert x in (1, q - 1) or q - 1 in (pow(x, 2**j, q) for j in range(1, s))
    rng = random.Random(71)
    for _ in range(200):
        xr, xi, yr, yi = (rng.randrange(-(2**80), 2**80) for _ in range(4))
        image = lambda re, im: (re + r * im) % q  # noqa: E731
        product = image(xr * yr - xi * yi, xr * yi + xi * yr)
        assert product == image(xr, xi) * image(yr, yi) % q


def test_certified_squarefree_parts_match_the_remainder_sequence(monkeypatch):
    # every charpoly of a, b, ab and s from sample_pair, every class, dims
    # 2-8, plain and nilpotent: the certificate holds exactly where p is
    # squarefree, and there the part is p made monic, with no remainder
    # sequence
    chains = _chain_calls(monkeypatch)
    certified = refused = 0
    for k, cls in enumerate(RelationClass):
        for dim in range(2, 9):
            for nilpotent in (False, True):
                a, b = sample_pair(cls, dim, 900 + 10 * k + dim, nilpotent=nilpotent)
                for m in (a, b, a * b, a + b):
                    p = charpoly(m)
                    ref = _remainder_sequence_squarefree(p)
                    ok = _kernel_py.squarefree_mod_q(p._re, p._im)
                    assert ok == (ref.degree == p.degree), p.literal()
                    if ok:
                        certified += 1
                        del chains[:]
                        assert p.squarefree_part() == ref == p.monic()
                        assert chains == []
                    else:
                        refused += 1
                        assert p.squarefree_part() == ref
    assert certified > 100 and refused > 100


def test_squares_fall_back_to_the_remainder_sequence(monkeypatch):
    # f^2 g is never certified, whatever f and g: its part comes from the
    # remainder sequence, and equals the part of f g made squarefree
    chains = _chain_calls(monkeypatch)
    rng = random.Random(72)

    def coeff():
        return Scalar(rng.randint(-4, 4), rng.choice((0, rng.randint(-3, 3))))

    for _ in range(120):
        f = ExactPoly([coeff() for _ in range(rng.randint(1, 3))] + [1])
        g = ExactPoly([coeff() for _ in range(rng.randint(0, 3))] + [rng.choice((1, -2, Scalar(1, 1)))])
        p = f * f * g
        assert not _kernel_py.squarefree_mod_q(p._re, p._im)
        del chains[:]
        part = p.squarefree_part()
        assert part == _remainder_sequence_squarefree(p) == (f * g).squarefree_part()
        assert chains


def test_a_leading_coefficient_divisible_by_q_falls_back(monkeypatch):
    # the image of q x^2 + x + 1 has degree 1, so it certifies nothing,
    # although the polynomial is squarefree
    chains = _chain_calls(monkeypatch)
    q = _kernel_py.Q
    for lead in (q, -3 * q, Scalar(q, q), Scalar(0, 2 * q)):
        p = ExactPoly([1, 1, lead])
        assert not _kernel_py.squarefree_mod_q(p._re, p._im)
        del chains[:]
        assert p.squarefree_part() == _remainder_sequence_squarefree(p) == p.monic()
        assert chains


def _poly_mul(ar, ai, br, bi):
    re, im = [0] * (len(ar) + len(br) - 1), [0] * (len(ar) + len(br) - 1)
    for i, (xr, xi) in enumerate(zip(ar, ai)):
        for j, (yr, yi) in enumerate(zip(br, bi)):
            re[i + j] += xr * yr - xi * yi
            im[i + j] += xr * yi + xi * yr
    return re, im


def test_poly_divmod_kernel_identity():
    # m*A = Q*B + R with m > 0 and deg R < deg B, for real and Gaussian
    # leading coefficients of either sign
    rng = random.Random(23)
    for trial in range(200):
        da, db = rng.randint(0, 7), rng.randint(0, 4)
        ar, ai = [rng.randint(-9, 9) for _ in range(da + 1)], [0] * (da + 1)
        br, bi = [rng.randint(-9, 9) for _ in range(db)] + [rng.choice((-3, -1, 2))], [0] * (db + 1)
        if trial % 2:
            ai = [rng.randint(-9, 9) for _ in range(da + 1)]
            bi[-1] = rng.randint(-2, 2)
        m, qr, qi, rr, ri = _kernel_py.poly_divmod(ar, ai, br, bi)
        assert m > 0 and len(rr) == len(ri) <= db
        assert not rr or rr[-1] or ri[-1]
        re, im = _poly_mul(qr, qi, br, bi) if qr else ([], [])
        for a, qb, r in ((ar, re, rr), (ai, im, ri)):
            n = max(len(a), len(qb))
            a, qb, r = (list(c) + [0] * (n - len(c)) for c in (a, qb, r))
            assert [m * x for x in a] == [x + y for x, y in zip(qb, r)]


def test_poly_chain_ends_in_the_gcd():
    # (x - 1)^2 (x + 2) and its derivative share x - 1; every element after
    # the first two is primitive
    p = [2, -3, 0, 1]
    chain = _kernel_py.poly_chain(p, [0] * 4, [-3, 0, 3], [0] * 3)
    assert chain[-1] == ([-1, 1], [0, 0])
    assert all(gcd(*re, *im) == 1 for re, im in chain[2:])


def test_poly_eval():
    x = ExactPoly.variable()
    p = x ** 2 - ExactPoly.one()
    a = ExactMatrix([[0, 1], [1, 0]])
    assert p.eval_matrix(a).is_zero()


# -- subspaces -----------------------------------------------------------------------


def _vecs(*literals):
    return [[Scalar.parse(x) for x in lit.split(",")] for lit in literals]


def test_subspace_span_and_membership():
    v = SubspaceBasis.span(_vecs("1,0,0", "2,0,0", "0,1,0"), ambient=3)
    assert v.dim == 2
    assert v.contains_vector(_vecs("5,-3,0")[0])
    assert not v.contains_vector(_vecs("0,0,1")[0])


def test_subspace_dependent_constructor_rejects():
    with pytest.raises(ValueError):
        SubspaceBasis(_vecs("1,0", "2,0"), ambient=2)


def test_subspace_intersect_sum():
    a = SubspaceBasis.span(_vecs("1,0,0", "0,1,0"), ambient=3)
    b = SubspaceBasis.span(_vecs("0,1,0", "0,0,1"), ambient=3)
    inter = a.intersect(b)
    assert inter.dim == 1
    assert inter.contains_vector(_vecs("0,4,0")[0])
    total = a.sum_with(b)
    assert total.dim == 3
    assert SubspaceBasis.zero(3).dim == 0
    assert SubspaceBasis.full(3).dim == 3


def test_subspace_contains_and_image():
    a = SubspaceBasis.span(_vecs("1,1"), ambient=2)
    rot = ExactMatrix([[0, -1], [1, 0]])
    img = a.image_under(rot)
    assert img.dim == 1
    assert img.contains_vector(_vecs("-1,1")[0])
    assert SubspaceBasis.full(2).contains(a)
    assert not a.contains(SubspaceBasis.full(2))
