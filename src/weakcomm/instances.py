"""Relation-class samplers and counterexample search.

Samplers produce deterministic pseudo-random pairs lying in a requested
relation class. Classes are conjugation-stable (their defining equations are
preserved by similarity), so structured seed patterns are dressed by random
invertible conjugations. comm_r additionally has a constraint-solving
strategy: draw a singular a, solve the linear system b*a*a = a*b*a for b,
then filter the quadratic condition (a*b)*b = b*(a*b). Every sampler output
is re-verified before being returned; a wrong class is never silently
produced.

Every pair is read through one ``relations.PairContext``, which keeps its
flags, words and spectra. ``sample_pair`` returns the tuple (a, b) with the
``context`` that decided its flags, so ``verify`` reuses it; the search
screens each candidate through a context built from its drawn residue rows,
and its ``WitnessRecord`` keeps the witness's context. The search reads the
predicates of ``relations.witness_predicates``.

Only ``verify`` and ``search`` load this module. The example registry, which
every command loads, is ``registry``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import product
from math import lcm

from ._kernel_py import normalize
from .errors import SamplerBudgetError, UnknownPredicateError
from .exact import (
    ExactMatrix,
    _clear_denominators,
    _null_space,
    _parts,
    inverse,
    nilpotency_degree,
)
from .relations import _PREDICATES, _R, PairContext, _pair, relation_flags
from .scalar import Scalar

__all__ = [
    "RelationClass",
    "WitnessRecord",
    "SpectralInstance",
    "derive_seed",
    "sample_pair",
    "sample_spectral_instance",
    "search_witness",
    "class_matches",
]


class RelationClass(str, Enum):
    COMM = "comm"
    COMM_L = "comm_l"
    COMM_R = "comm_r"
    COMM_W = "comm_w"
    NONE = "none"


def derive_seed(*parts):
    """Stable 63-bit seed from arbitrary labeled parts."""
    blob = "|".join(repr(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def class_matches(report, cls, require_noncommuting=False):
    # every class but none names the report flag that decides it
    cls = RelationClass(cls)
    if cls is RelationClass.NONE:
        ok = not (report.comm_l or report.comm_r or report.comm)
    else:
        ok = getattr(report, cls.value)
    if require_noncommuting:
        ok = ok and not report.comm
    return ok


# -- deterministic random building blocks -----------------------------------------

_SMALL_INTS = (-2, -1, 0, 1, 2)


def _rand_fraction(rng, nonzero=False):
    while True:
        num = rng.randint(-3, 3)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, 3))


def _rand_entry(rng):
    """One random entry as an exact (re, im) pair."""
    r = rng.random()
    if r < 0.70:
        return rng.choice(_SMALL_INTS), 0
    if r < 0.92:
        return _rand_fraction(rng), 0
    return 0, _rand_fraction(rng, nonzero=True)


def _matrix_of(dim, cells):
    """The dim x dim matrix of row-major (re, im) pairs, in one integer block."""
    return ExactMatrix._from_rep(dim, _clear_denominators(cells))


def _rand_matrix(rng, dim):
    return _matrix_of(dim, [_rand_entry(rng) for _ in range(dim * dim)])


def _rand_int_matrix(rng, dim, lo=-3, hi=3):
    re = [rng.randint(lo, hi) for _ in range(dim * dim)]
    return ExactMatrix._from_rep(dim, (1, re, [0] * (dim * dim)))


def _rand_strict_lower(rng, dim):
    return _matrix_of(
        dim, [_rand_entry(rng) if j < i else (0, 0) for i in range(dim) for j in range(dim)]
    )


def _rand_strict_upper(rng, dim):
    return _rand_strict_lower(rng, dim).transpose()


def _conjugate_pair(rng, a, b):
    """(g a g^-1, g b g^-1) for the first invertible g drawn."""
    while True:
        g = _rand_int_matrix(rng, a.dim, -2, 2)
        try:
            gi = inverse(g)
        except ZeroDivisionError:
            continue
        return g * a * gi, g * b * gi


def _poly_of(rng, a, nilpotent):
    dim = a.dim
    c1 = _rand_fraction(rng)
    c2 = _rand_fraction(rng)
    b = a * c1 + (a * a) * c2
    if not nilpotent:
        b = b + ExactMatrix.identity(dim) * _rand_fraction(rng)
    return b


def _block_diag(m1, m2):
    """diag(m1, m2), joined on the integer blocks over their common denominator."""
    d = m1.dim + m2.dim
    den = lcm(m1._den, m2._den)
    re, im = [0] * (d * d), [0] * (d * d)
    for m, off in ((m1, 0), (m2, m1.dim)):
        s, k = den // m._den, m.dim
        for i in range(k):
            at = (off + i) * d + off
            re[at:at + k] = [x * s for x in m._re[i * k:(i + 1) * k]]
            im[at:at + k] = [y * s for y in m._im[i * k:(i + 1) * k]]
    return ExactMatrix._from_rep(d, normalize(den, re, im))


# -- class builders ----------------------------------------------------------------
# Each builder returns a candidate pair or None; sample_pair re-verifies.


def _build_comm(rng, dim, nilpotent):
    a = _rand_strict_lower(rng, dim) if nilpotent else _rand_matrix(rng, dim)
    return a, _poly_of(rng, a, nilpotent)


def _pattern_comm_l(rng, dim):
    """diag(u, 0, junk) and a multiple of the (2,1) unit: strict comm_l."""
    u = _rand_fraction(rng, nonzero=True)
    b = ExactMatrix.diagonal([u, 0] + [_rand_fraction(rng) for _ in range(dim - 2)])
    a = ExactMatrix.single_entry(dim, 1, 0, _rand_fraction(rng, nonzero=True))
    return a, b


def _pattern_shift_corner(rng, dim):
    """Weighted lower shift plus a corner perturbation: strict comm_r for dim>=4."""
    cells = [(0, 0)] * (dim * dim)
    for k in range(1, dim):
        cells[k * dim + k - 1] = _rand_fraction(rng, nonzero=True), 0
    b = ExactMatrix.single_entry(dim, 1, 0, _rand_fraction(rng, nonzero=True))
    return _matrix_of(dim, cells), b


def _pattern_comm_w(rng, dim, nilpotent):
    """Two-step nilpotent chain against a corner entry: strict comm_w, dim>=3."""
    alpha = _rand_fraction(rng)
    beta = _rand_fraction(rng, nonzero=True)
    gamma = _rand_fraction(rng, nonzero=True)
    a3 = ExactMatrix.single_entry(3, 1, 0, alpha) + ExactMatrix.single_entry(
        3, 2, 1, beta
    )
    b3 = ExactMatrix.single_entry(3, 1, 0, gamma)
    if dim == 3:
        return a3, b3
    m = _rand_strict_lower(rng, dim - 3) if nilpotent else _rand_matrix(rng, dim - 3)
    return _block_diag(a3, m), _block_diag(b3, _poly_of(rng, m, nilpotent))


def _comm_r_system(a):
    """Matrix of b -> b*a^2 - a*b*a on row-major b, for an integer matrix a.

    Row (i, j), column (p, q) holds (E_pq*a^2 - a*E_pq*a)_ij, which is
    [i == p]*(a^2)_qj - a_ip*a_qj.
    """
    d = a.dim
    _, ar, ai = a._rep()
    _, sr, si = (a * a)._rep()
    re, im = [], []
    for i, j, p, q in product(range(d), repeat=4):
        xr, xi, yr, yi = ar[i * d + p], ai[i * d + p], ar[q * d + j], ai[q * d + j]
        re.append((sr[q * d + j] if i == p else 0) - (xr * yr - xi * yi))
        im.append((si[q * d + j] if i == p else 0) - (xr * yi + xi * yr))
    return ExactMatrix._from_rep(d * d, (1, re, im))


def _solve_comm_r(rng, dim):
    """Draw singular a; solve the linear system b a^2 = a b a for b.

    The solution space always contains polynomials in a; random combinations
    of a kernel basis are filtered through the quadratic condition
    (ab)b = b(ab) and non-commutation.
    """
    rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    coeffs = [rng.randint(-2, 2) for _ in range(dim - 1)]
    rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(dim)]
    a = ExactMatrix(rows)
    kernel = _null_space(_comm_r_system(a))[1]
    if kernel.dim == 0:
        return None
    rows = kernel._rows()
    for _ in range(24):
        # one integer combination of the kernel rows over their denominator
        re = im = [0] * (dim * dim)
        for row_re, row_im in rows:
            c = rng.randint(-2, 2)
            if c:
                re = [x + c * y for x, y in zip(re, row_re)]
                im = [x + c * y for x, y in zip(im, row_im)]
        b = ExactMatrix._from_rep(dim, normalize(kernel._den, re, im))
        ctx = PairContext(a, b)
        if ctx.flag("comm_r") and not ctx.flag("comm"):
            return a, b
    return None


def _build_comm_l(rng, dim, nilpotent, strict):
    if nilpotent:
        if not strict and rng.random() < 0.5:
            return _build_comm(rng, dim, True)
        if dim < 4:
            return None if strict else _build_comm(rng, dim, True)
        a, b = _pattern_shift_corner(rng, dim)
        return a.conj_transpose(), b.conj_transpose()
    if not strict and rng.random() < 0.25:
        return _build_comm(rng, dim, False)
    a, b = _pattern_comm_l(rng, dim)
    if rng.random() < 0.5:
        a, b = b, a
    return a, b


def _build_comm_r(rng, dim, nilpotent, strict):
    if nilpotent:
        if not strict and rng.random() < 0.5:
            return _build_comm(rng, dim, True)
        if dim < 4:
            return None if strict else _build_comm(rng, dim, True)
        return _pattern_shift_corner(rng, dim)
    r = rng.random()
    if not strict and r < 0.25:
        return _build_comm(rng, dim, False)
    if dim <= 4 and r < 0.55:
        got = _solve_comm_r(rng, dim)
        if got is not None:
            return got
    if dim >= 4 and r >= 0.75:
        return _pattern_shift_corner(rng, dim)
    a, b = _pattern_comm_l(rng, dim)
    if rng.random() < 0.5:
        a, b = b, a
    return a.conj_transpose(), b.conj_transpose()


def _build_comm_w(rng, dim, nilpotent, strict):
    if dim < 3:
        # two-dimensional weakly commuting pairs are commuting; only the
        # relaxed request can be served
        return None if strict else _build_comm(rng, dim, nilpotent)
    if not strict and rng.random() < 0.25:
        return _build_comm(rng, dim, nilpotent)
    a, b = _pattern_comm_w(rng, dim, nilpotent)
    if rng.random() < 0.5:
        a, b = b, a
    return a, b


def _build_none(rng, dim, nilpotent):
    if nilpotent:
        return _rand_strict_lower(rng, dim), _rand_strict_upper(rng, dim)
    return _rand_matrix(rng, dim), _rand_matrix(rng, dim)


_SAMPLE_BUDGET = 64


def sample_pair(class_, dim, seed, require_noncommuting=False, nilpotent=False):
    """Deterministic pair in the requested relation class.

    The returned pair always re-verifies: its relation flags match the class,
    plus non-commutation or nilpotency when requested. It carries the
    ``context`` that decided these flags, which ``verify_suite`` checks.
    Exhausting the attempt budget raises SamplerBudgetError with
    statistics; for classes that are impossible to satisfy (strict comm_w
    at dim 2) this is the expected outcome.
    """
    cls = RelationClass(class_)
    if not 2 <= dim <= 8:
        raise ValueError("dim must be between 2 and 8")
    if cls is RelationClass.COMM and require_noncommuting:
        raise ValueError("commuting pairs cannot be noncommuting")
    rng = random.Random(
        derive_seed("sample_pair", cls.value, dim, seed, require_noncommuting, nilpotent)
    )
    for attempt in range(1, _SAMPLE_BUDGET + 1):
        if cls is RelationClass.COMM:
            cand = _build_comm(rng, dim, nilpotent)
        elif cls is RelationClass.COMM_L:
            cand = _build_comm_l(rng, dim, nilpotent, require_noncommuting)
        elif cls is RelationClass.COMM_R:
            cand = _build_comm_r(rng, dim, nilpotent, require_noncommuting)
        elif cls is RelationClass.COMM_W:
            cand = _build_comm_w(rng, dim, nilpotent, require_noncommuting)
        else:
            cand = _build_none(rng, dim, nilpotent)
        if cand is None:
            continue
        a, b = cand
        if rng.random() < 0.8:
            a, b = _conjugate_pair(rng, a, b)
        if nilpotent and (
            nilpotency_degree(a) is None or nilpotency_degree(b) is None
        ):
            continue
        ctx = PairContext(a, b)
        if class_matches(ctx.report, cls, require_noncommuting):
            return _pair(ctx)
    raise SamplerBudgetError(
        f"no {cls.value} pair found at dim {dim}"
        + (" (strict weak commutation needs dim >= 3)" if cls is RelationClass.COMM_W and dim < 3 else ""),
        attempts=_SAMPLE_BUDGET,
    )


@dataclass(frozen=True)
class SpectralInstance:
    """Perturbation instance: t with known eigenvalue lam, nilpotent n.

    Built so that the pair (t, n) lies in the requested class (comm_r or
    comm_w), n squares to zero, and lam is a nonzero exact eigenvalue of t.
    """

    t: ExactMatrix
    n: ExactMatrix
    lam: Scalar
    p: int

    def __post_init__(self):
        if not (self.n ** self.p).is_zero():
            raise ValueError(f"n**{self.p} must be zero")
        shifted = self.t - ExactMatrix.identity(self.t.dim) * self.lam
        if len(_null_space(shifted)[0]) == self.t.dim:
            raise ValueError(f"{self.lam.literal()} is not an eigenvalue of t")


_EIGEN_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3),
    Fraction(1, 3),
    Fraction(-3, 2),
    Fraction(-1, 3),
)


def sample_spectral_instance(dim, seed, kind="comm_r"):
    kind = RelationClass(kind)
    if kind not in (RelationClass.COMM_R, RelationClass.COMM_W):
        raise ValueError("spectral instances exist for comm_r and comm_w kinds")
    min_dim = 3 if kind is RelationClass.COMM_R else 4
    if dim < min_dim or dim > 8:
        raise ValueError(f"dim must be between {min_dim} and 8 for kind {kind.value}")
    rng = random.Random(derive_seed("spectral", kind.value, dim, seed))
    if kind is RelationClass.COMM_R:
        k = rng.randint(3, dim - 1) if dim >= 4 else 2
        blk, nblk = _pattern_shift_corner(rng, k)
    else:
        k = 3
        blk, nblk = _pattern_comm_w(rng, 3, nilpotent=True)
    eigen = rng.sample(_EIGEN_POOL, dim - k)
    d = ExactMatrix.diagonal(eigen)
    zero_k = ExactMatrix.zeros(dim - k)
    if rng.random() < 0.5:
        t, n = _block_diag(d, blk), _block_diag(zero_k, nblk)
    else:
        t, n = _block_diag(blk, d), _block_diag(nblk, zero_k)
    t, n = _conjugate_pair(rng, t, n)
    lam = Scalar(rng.choice(eigen))
    if not class_matches(relation_flags(t, n), kind):
        raise ArithmeticError("spectral construction left its class")
    return SpectralInstance(t=t, n=n, lam=lam, p=2)


# -- witness search ----------------------------------------------------------------

_SEARCH_ALPHABET = (
    Scalar(0),
    Scalar(1),
    Scalar(-1),
    Scalar(2),
    Scalar(-2),
    Scalar(Fraction(1, 2)),
    Scalar(Fraction(-1, 2)),
    Scalar(0, 1),
    Scalar(0, -1),
)


@dataclass(frozen=True)
class WitnessRecord:
    a: ExactMatrix
    b: ExactMatrix
    predicate: str
    samples_tried: int
    seed: int
    # the PairContext of (a, b) that decided its flags; one is built when none is given
    context: PairContext = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.context is None:
            object.__setattr__(self, "context", PairContext(self.a, self.b))
        if not _PREDICATES[self.predicate](self.context.flag):
            raise ValueError("witness does not satisfy its predicate")

    def to_json_dict(self):
        return {
            "a": self.a.literal(),
            "b": self.b.literal(),
            "predicate": self.predicate,
            "samples_tried": self.samples_tried,
            "seed": self.seed,
        }


# the alphabet over its common denominator; each cell as a probe residue re + R*im, and back
_SEARCH_DEN, _SEARCH_RE, _SEARCH_IM = _clear_denominators(map(_parts, _SEARCH_ALPHABET))
_SEARCH_CELLS = tuple(re + _R * im for re, im in zip(_SEARCH_RE, _SEARCH_IM))
_SEARCH_PARTS = dict(zip(_SEARCH_CELLS, zip(_SEARCH_RE, _SEARCH_IM)))
# a cell index is drawn as this many random bits, redrawn while out of range
_SEARCH_BITS = len(_SEARCH_CELLS).bit_length()


def _search_rows(rng, dim):
    """A candidate's numerator over ``_SEARCH_DEN``, drawn straight into the
    probe's residue rows: d lists of d cells ``_SEARCH_CELLS[k]``.

    The matrix is sparse when ``rng.random() < 0.5``. Each cell, row by
    row, is zero when the matrix is sparse and a further ``rng.random()``
    is below 0.6 (a dense matrix draws no such number). Otherwise it is
    ``_SEARCH_CELLS[k]`` for the first k = ``rng.getrandbits(4)`` below 9,
    the stream of ``rng.choice(_SEARCH_CELLS)`` without calling it.
    """
    # zero-biased draws keep sparse patterns (the interesting ones) reachable
    sparse = rng.random() < 0.5
    n = dim * dim
    cells = [0] * n
    draw = rng.getrandbits
    for k in range(n):
        if not (sparse and rng.random() < 0.6):
            c = draw(_SEARCH_BITS)
            while c >= len(_SEARCH_CELLS):
                c = draw(_SEARCH_BITS)
            cells[k] = _SEARCH_CELLS[c]
    return [cells[i : i + dim] for i in range(0, n, dim)]


def _search_matrix(rows):
    """The ExactMatrix of the residue rows that ``_search_rows`` drew."""
    re, im = zip(*[_SEARCH_PARTS[c] for row in rows for c in row])
    return ExactMatrix._from_rep(len(rows), normalize(_SEARCH_DEN, re, im))


def search_witness(predicate, dim, budget, seed):
    """First sampled pair satisfying the named predicate, or None.

    Each candidate is drawn as residue rows (``_search_rows``) and screened
    on them. Its ``ExactMatrix`` is built only for a flag the probe does not
    refute, or for the witness, so a refuted pair builds no matrix. The
    record carries the screen's ``context``, so no flag is decided twice.
    """
    if predicate not in _PREDICATES:
        raise UnknownPredicateError(predicate)
    if not 2 <= dim <= 8:
        raise ValueError("dim must be between 2 and 8")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pred = _PREDICATES[predicate]
    rng = random.Random(derive_seed("witness", predicate, dim, seed))
    for i in range(1, budget + 1):
        a, b = _search_rows(rng, dim), _search_rows(rng, dim)
        ctx = PairContext._of_rows((a, b), _search_matrix)
        if pred(ctx.flag):
            return WitnessRecord(
                a=ctx.a, b=ctx.b, predicate=predicate, samples_tried=i, seed=seed, context=ctx
            )
    return None
