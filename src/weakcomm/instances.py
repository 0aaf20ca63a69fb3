"""Example registry, relation-class samplers, and counterexample search.

The registry holds the fixed pairs (and l2 operator specs) whose algebraic
behavior anchors the whole test surface: each entry stores the matrices, the
relation flags asserted for them, and word-equation claims ("PQP equals P2Q",
"NR differs from RN") that are re-verified exactly on demand.

Every pair is read through one ``relations.PairContext``, which keeps its
flags, words and spectra. ``sample_pair`` and ``paper_example`` return the
tuple (a, b) with the ``context`` that decided its flags, so ``verify`` and
the registry's word claims and bespoke checks reuse it; the search screens
each candidate through a context built from its drawn residue rows.

Samplers produce deterministic pseudo-random pairs lying in a requested
relation class. Classes are conjugation-stable (their defining equations are
preserved by similarity), so structured seed patterns are dressed by random
invertible conjugations. comm_r additionally has a constraint-solving
strategy: draw a singular a, solve the linear system b*a*a = a*b*a for b,
then filter the quadratic condition (a*b)*b = b*(a*b). Every sampler output
is re-verified before being returned; a wrong class is never silently
produced.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from pathlib import Path
from enum import Enum

from ._kernel_py import normalize
from .errors import (
    SamplerBudgetError,
    UnknownExampleError,
    UnknownPredicateError,
)
from .exact import (
    ExactMatrix,
    _clear_denominators,
    _null_space,
    _parts,
    charpoly,
    inverse,
    nilpotency_degree,
    poly_radical_nonzero,
)
from .relations import _R, PairContext, _checked, relation_flags
from .scalar import Scalar
from . import shiftlab

__all__ = [
    "RelationClass",
    "ExampleId",
    "ExampleEntry",
    "WitnessRecord",
    "SpectralInstance",
    "derive_seed",
    "paper_example",
    "example_entry",
    "registry_self_test",
    "evaluate_word",
    "sample_pair",
    "sample_spectral_instance",
    "search_witness",
    "witness_predicates",
    "class_matches",
]

_DATA_DIR = Path(__file__).resolve().parent / "data"


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


class _Pair(tuple):
    """The tuple (a, b) of a pair, with the ``PairContext`` that decided its flags."""


def _pair(ctx):
    pair = _Pair((ctx.a, ctx.b))
    pair.context = ctx
    return pair


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

# each predicate reads the flags it needs through a getter (``PairContext.flag``),
# so a candidate is screened only as far as its first deciding flag
_PREDICATES = {
    "not_c1": lambda f: not f("c1_pair"),
    "not_c2": lambda f: not f("c2_pair"),
    "not_c3": lambda f: not f("c3_pair"),
    "comm_w_not_comm": lambda f: f("comm_w") and not f("comm"),
    "comm_l_not_comm": lambda f: f("comm_l") and not f("comm"),
    "comm_r_not_comm": lambda f: f("comm_r") and not f("comm"),
    "comm_l_not_comm_r": lambda f: f("comm_l") and not f("comm_r"),
    "comm_r_not_comm_l": lambda f: f("comm_r") and not f("comm_l"),
    "comm_not_comm": lambda f: f("comm") and not f("comm"),
}


def witness_predicates():
    return sorted(_PREDICATES)


@dataclass(frozen=True)
class WitnessRecord:
    a: ExactMatrix
    b: ExactMatrix
    predicate: str
    samples_tried: int
    seed: int

    def __post_init__(self):
        pred = _PREDICATES[self.predicate]
        if not pred(PairContext(self.a, self.b).flag):
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
    refute, or for the witness, so a refuted pair builds no matrix.
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
            return WitnessRecord(a=ctx.a, b=ctx.b, predicate=predicate, samples_tried=i, seed=seed)
    return None


# -- example registry --------------------------------------------------------------


class ExampleId(str, Enum):
    SEX_I_PQ = "SEX_I_PQ"
    SEX_I_PS = "SEX_I_PS"
    SEX_II_TS = "SEX_II_TS"
    SEX_II_MN = "SEX_II_MN"
    SEX_III_TN = "SEX_III_TN"
    SEX_IV_N1N2 = "SEX_IV_N1N2"
    SEX_V_PQ = "SEX_V_PQ"
    REMARK_TN = "REMARK_TN"
    EX4_RN = "EX4_RN"
    EXNILP_T = "EXNILP_T"
    EXNILP_N = "EXNILP_N"
    EXNILP_Q = "EXNILP_Q"


def evaluate_word(word, a, b):
    """Product of a/b letters; "0" is the zero matrix, "1" the identity."""
    if word == "0":
        return ExactMatrix.zeros(a.dim)
    if word == "1":
        return ExactMatrix.identity(a.dim)
    if not word or not set(word) <= {"a", "b"}:
        raise ValueError(f"{word!r} is not 0, 1 or a word in the letters a and b")
    return PairContext(a, b).word(word)


@dataclass(frozen=True)
class ExampleEntry:
    id: ExampleId
    kind: str  # "pair" or "op_spec"
    min_dim: int
    default_dim: int
    summary: str
    expected_flags: dict | None
    claims: tuple  # (lhs_word, rhs_word, equal) triples


def _read_data(relpath):
    return (_DATA_DIR / relpath).read_text()


@lru_cache(maxsize=None)
def _pair_from_file(example_id):
    text = _read_data(f"matrices/{example_id}.txt")
    mats = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, literal = line.partition(":")
        mats[key.strip()] = ExactMatrix.parse(literal.strip())
    return mats["a"], mats["b"]


@lru_cache(maxsize=None)
def _spec_from_file(example_id):
    return shiftlab.parse_spec(_read_data(f"shiftspecs/{example_id}.txt"))


def _build_sex_ii_ts(dim):
    t = ExactMatrix.identity(dim) + ExactMatrix.single_entry(
        dim, 1, 0, 1
    ) - ExactMatrix.single_entry(dim, 1, 1, 1)
    s = ExactMatrix.single_entry(dim, 0, 0, 1)
    return t, s


def _build_sex_iv(dim):
    n1 = ExactMatrix.single_entry(dim, 1, 0, 1) + ExactMatrix.single_entry(dim, 2, 1, 1)
    n2 = ExactMatrix.single_entry(dim, 1, 0, -1)
    return n2, n1


def _build_ex4(dim):
    r = ExactMatrix.zeros(dim)
    for k in range(1, dim):
        r = r + ExactMatrix.single_entry(dim, k, k - 1, 1)
    n = ExactMatrix.single_entry(dim, 1, 0, -1)
    return r, n


_PAIR_BUILDERS = {
    ExampleId.SEX_II_TS: _build_sex_ii_ts,
    ExampleId.SEX_IV_N1N2: _build_sex_iv,
    ExampleId.EX4_RN: _build_ex4,
}

_REGISTRY = {
    ExampleId.SEX_I_PQ: ExampleEntry(
        id=ExampleId.SEX_I_PQ,
        kind="pair",
        min_dim=2,
        default_dim=2,
        summary="upper-corner nilpotent against a rank-one idempotent-like mate",
        expected_flags={
            "comm": False,
            "ab_in_comm_a": True,
            "ab_in_comm_b": False,
            "ba_in_comm_a": True,
            "ba_in_comm_b": True,
            "comm_l": True,
            "comm_r": False,
            "comm_w": False,
        },
        claims=(
            ("aba", "aab", True),
            ("aab", "baa", True),
            ("baa", "bab", True),
            ("bab", "bba", True),
            ("abb", "bba", False),
            ("ab", "ba", False),
        ),
    ),
    ExampleId.SEX_I_PS: ExampleEntry(
        id=ExampleId.SEX_I_PS,
        kind="pair",
        min_dim=2,
        default_dim=2,
        summary="squares commute while neither product commutes with a factor",
        expected_flags={
            "comm": False,
            "ab_in_comm_a": False,
            "ab_in_comm_b": False,
            "ba_in_comm_a": False,
            "ba_in_comm_b": False,
        },
        claims=(
            ("baa", "aab", True),
            ("abb", "bba", True),
            ("aba", "aab", False),
            ("abb", "bab", False),
            ("baa", "aba", False),
            ("bab", "bba", False),
        ),
    ),
    ExampleId.SEX_II_TS: ExampleEntry(
        id=ExampleId.SEX_II_TS,
        kind="pair",
        min_dim=2,
        default_dim=2,
        summary="coordinate-duplicating block against the first-coordinate projection",
        expected_flags={
            "comm": False,
            "ab_in_comm_a": True,
            "ab_in_comm_b": False,
            "ba_in_comm_a": False,
            "ba_in_comm_b": True,
            "comm_l": True,
            "comm_r": False,
        },
        claims=(
            ("aba", "aab", True),
            ("bab", "bba", True),
            ("baa", "aba", False),
            ("abb", "bab", False),
        ),
    ),
    ExampleId.SEX_II_MN: ExampleEntry(
        id=ExampleId.SEX_II_MN,
        kind="pair",
        min_dim=2,
        default_dim=2,
        summary="rank-one row pattern absorbed by multiplication on either side",
        expected_flags={
            "comm": False,
            "ab_in_comm_a": True,
            "ab_in_comm_b": False,
            "ba_in_comm_a": False,
            "ba_in_comm_b": True,
            "comm_l": True,
            "comm_r": False,
        },
        claims=(
            ("ab", "a", True),
            ("abb", "bab", False),
            ("baa", "aba", False),
        ),
    ),
    ExampleId.SEX_III_TN: ExampleEntry(
        id=ExampleId.SEX_III_TN,
        kind="pair",
        min_dim=2,
        default_dim=2,
        summary="matrix units whose squares vanish yet no product commutes",
        expected_flags={
            "comm": False,
            "ab_in_comm_a": False,
            "ab_in_comm_b": False,
            "ba_in_comm_a": False,
            "ba_in_comm_b": False,
        },
        claims=(
            ("abb", "bba", True),
            ("baa", "aab", True),
            ("abb", "0", True),
            ("bba", "0", True),
            ("baa", "0", True),
            ("aab", "0", True),
            ("aba", "aab", False),
            ("abb", "bab", False),
            ("baa", "aba", False),
            ("bab", "bba", False),
        ),
    ),
    ExampleId.SEX_IV_N1N2: ExampleEntry(
        id=ExampleId.SEX_IV_N1N2,
        kind="pair",
        min_dim=3,
        default_dim=4,
        summary="two-step shift weakly commutes with a negated corner entry",
        expected_flags={
            "comm": False,
            "ab_in_comm_a": True,
            "ab_in_comm_b": True,
            "ba_in_comm_a": True,
            "ba_in_comm_b": True,
            "comm_w": True,
        },
        claims=(("ab", "ba", False),),
    ),
    ExampleId.SEX_V_PQ: ExampleEntry(
        id=ExampleId.SEX_V_PQ,
        kind="pair",
        min_dim=3,
        default_dim=3,
        summary="fractional two-step chain with every length-3 product vanishing",
        expected_flags={
            "comm": False,
            "ab_in_comm_a": True,
            "ab_in_comm_b": True,
            "ba_in_comm_a": True,
            "ba_in_comm_b": True,
            "comm_w": True,
        },
        claims=(
            ("aba", "0", True),
            ("aab", "0", True),
            ("baa", "0", True),
            ("bab", "0", True),
            ("bba", "0", True),
            ("abb", "0", True),
            ("ab", "ba", False),
        ),
    ),
    ExampleId.REMARK_TN: ExampleEntry(
        id=ExampleId.REMARK_TN,
        kind="pair",
        min_dim=2,
        default_dim=2,
        summary="nilpotent pair whose sum acquires the eigenvalues +1 and -1",
        expected_flags={
            "comm": False,
            "ab_in_comm_a": False,
            "ab_in_comm_b": False,
            "ba_in_comm_a": False,
            "ba_in_comm_b": False,
        },
        claims=(
            ("abb", "0", True),
            ("bba", "0", True),
            ("baa", "0", True),
            ("aab", "0", True),
        ),
    ),
    ExampleId.EX4_RN: ExampleEntry(
        id=ExampleId.EX4_RN,
        kind="pair",
        min_dim=4,
        default_dim=4,
        summary="lower shift with corner perturbation: one-sided but not two-sided",
        expected_flags={
            "comm": False,
            "ab_in_comm_a": False,
            "ab_in_comm_b": True,
            "ba_in_comm_a": True,
            "ba_in_comm_b": True,
            "comm_l": False,
            "comm_r": True,
        },
        claims=(
            ("ba", "0", True),
            ("baa", "aba", True),
            ("ab", "ba", False),
        ),
    ),
    ExampleId.EXNILP_T: ExampleEntry(
        id=ExampleId.EXNILP_T,
        kind="op_spec",
        min_dim=2,
        default_dim=6,
        summary="lower shift with harmonic weights 1/(k+1)",
        expected_flags=None,
        claims=(),
    ),
    ExampleId.EXNILP_N: ExampleEntry(
        id=ExampleId.EXNILP_N,
        kind="op_spec",
        min_dim=2,
        default_dim=6,
        summary="rank-one perturbation cancelling the first shift weight",
        expected_flags=None,
        claims=(),
    ),
    ExampleId.EXNILP_Q: ExampleEntry(
        id=ExampleId.EXNILP_Q,
        kind="op_spec",
        min_dim=2,
        default_dim=6,
        summary="odd-index weight cancellation making the sum square to zero",
        expected_flags=None,
        claims=(),
    ),
}


def example_entry(example_id):
    try:
        example_id = ExampleId(example_id)
    except ValueError as exc:
        raise UnknownExampleError(str(example_id)) from exc
    return _REGISTRY[example_id]


def paper_example(example_id, dim=None):
    """Registry payload for one id: (pair-or-spec, relation report or None).

    A pair carries the ``context`` that decided its report, whose memo the
    registry's word claims read. For pair entries the stored flag
    expectations are re-asserted on every build, so a corrupted registry
    cannot hand out a wrong report.
    """
    entry = example_entry(example_id)
    if entry.kind == "op_spec":
        if dim is not None:
            raise ValueError("operator specs are truncated via shiftlab, not dim")
        return _spec_from_file(entry.id.value), None
    if dim is None:
        dim = entry.default_dim
    if dim < entry.min_dim:
        raise ValueError(f"{entry.id.value} needs dim >= {entry.min_dim}")
    if entry.id in _PAIR_BUILDERS:
        a, b = _PAIR_BUILDERS[entry.id](dim)
    else:
        if dim != entry.default_dim:
            raise ValueError(f"{entry.id.value} is fixed at dim {entry.default_dim}")
        a, b = _pair_from_file(entry.id.value)
    ctx = PairContext(a, b)
    report = _checked(ctx)
    for flag, want in (entry.expected_flags or {}).items():
        got = getattr(report, flag)
        if got != want:
            raise AssertionError(f"{entry.id.value}: flag {flag} is {got}, registry asserts {want}")
    return _pair(ctx), report


def _check_extra(example_id, payload, checks):
    """Bespoke exact checks per id, appended to the claim verdicts.

    ``payload`` is the id's pair, with its ``context``, or spec, as
    paper_example built it.
    """
    from .exact import exp_exact_nilpotent

    eid = ExampleId(example_id)
    if eid is ExampleId.SEX_V_PQ:
        ctx, exp = payload.context, exp_exact_nilpotent
        corr = exp(ctx.a) * exp(ctx.b) - exp(ctx.s)
        expected = (ctx.ab - ctx.ba) * Fraction(1, 2)
        checks.append(("exp product correction equals half the commutator", corr == expected))
        checks.append(
            (
                "correction concentrates at entry (3,1) with value -1/12",
                corr.entry(2, 0) == Fraction(-1, 12)
                and sum(
                    0 if corr.entry(i, j).is_zero() else 1
                    for i in range(3)
                    for j in range(3)
                )
                == 1,
            )
        )
    elif eid is ExampleId.REMARK_TN:
        ctx = payload.context
        rad_t, rad_sum = ctx.radical_nonzero("a"), ctx.radical_nonzero("s")
        checks.append(("nonzero radical of t is 1", rad_t.literal() == "1"))
        checks.append(
            ("nonzero radical of t+n is x^2 - 1", rad_sum.literal() == "x^2 - 1")
        )
        checks.append(("nonzero spectra differ", rad_t != rad_sum))
        checks.append(
            ("full radical of t is x", ctx.radical("a").literal() == "x")
        )
    elif eid is ExampleId.SEX_II_TS:
        a, b = payload
        dual = relation_flags(a.conj_transpose(), b.conj_transpose())
        checks.append(("adjoint pair is comm_r", dual.comm_r))
        checks.append(("adjoint product breaks membership in comm(a*)", not dual.ab_in_comm_a))
        checks.append(("adjoint reversed product breaks comm(b*)", not dual.ba_in_comm_b))
    elif eid is ExampleId.EX4_RN:
        a, b = payload
        checks.append(("shift truncation has corank one", len(_null_space(a)[0]) == a.dim - 1))
    elif eid is ExampleId.EXNILP_T:
        spec = payload
        t6 = shiftlab.truncate(spec, 6)
        want = [Fraction(1, k + 1) for k in range(1, 6)]
        got = [t6.entry(k, k - 1) for k in range(1, 6)]
        checks.append(
            ("subdiagonal weights are 1/2..1/6", got == want)
        )
        checks.append(("charpoly of the 6-truncation is x^6", charpoly(t6).literal() == "x^6"))
        checks.append(
            ("no finitely supported kernel", shiftlab.finite_support_kernel(spec, 6).dim == 0)
        )
    elif eid is ExampleId.EXNILP_N:
        spec_n = payload
        spec_t, _ = paper_example(ExampleId.EXNILP_T)
        n4 = shiftlab.truncate(spec_n, 4)
        checks.append(("single entry -1/2 at (2,1)", n4 == ExactMatrix.single_entry(4, 1, 0, Fraction(-1, 2))))
        checks.append(("squares to zero", (n4 * n4).is_zero()))
        for size in (4, 6):
            t = shiftlab.truncate(spec_t, size)
            n = shiftlab.truncate(spec_n, size)
            ctx = PairContext(t, n)
            rep = ctx.report
            chain_zero = all(
                ctx.word(w).is_zero() for w in ("aba", "baa", "ba", "bba", "bab", "abb")
            )
            checks.append((f"six-term product chain vanishes at n={size}", chain_zero))
            checks.append(
                (f"remaining product t^2 n is nonzero at n={size}", not ctx.word("aab").is_zero())
            )
            checks.append((f"pair is comm_r at n={size}", rep.comm_r))
            checks.append((f"pair is not comm_l at n={size}", not rep.comm_l))
            fsk = shiftlab.finite_support_kernel(spec_t + spec_n, size)
            e1 = [1] + [0] * (size - 1)
            checks.append(
                (f"certified kernel of t+n is span(e1) at n={size}", fsk.dim == 1 and fsk.contains_vector(e1))
            )
        checks.append(
            (
                "truncated sum keeps nonzero radical 1",
                poly_radical_nonzero(charpoly(shiftlab.truncate(spec_t + spec_n, 6))).literal() == "1",
            )
        )
    elif eid is ExampleId.EXNILP_Q:
        spec_q = payload
        spec_t, _ = paper_example(ExampleId.EXNILP_T)
        q6 = shiftlab.truncate(spec_q, 6)
        checks.append(
            (
                "entries sit at (2,1), (4,3), (6,5) with values -1/2, -1/4, -1/6",
                q6
                == ExactMatrix.single_entry(6, 1, 0, Fraction(-1, 2))
                + ExactMatrix.single_entry(6, 3, 2, Fraction(-1, 4))
                + ExactMatrix.single_entry(6, 5, 4, Fraction(-1, 6)),
            )
        )
        checks.append(("squares to zero", (q6 * q6).is_zero()))
        for size in (6, 10):
            ts = shiftlab.truncate(spec_t + spec_q, size)
            checks.append((f"(t+q) truncation squares to zero at n={size}", (ts * ts).is_zero()))
        fsk8 = shiftlab.finite_support_kernel(spec_t + spec_q, 8)
        fsk12 = shiftlab.finite_support_kernel(spec_t + spec_q, 12)
        checks.append(("certified kernel dimension 4 at n=8", fsk8.dim == 4))
        checks.append(("certified kernel grows to 6 at n=12", fsk12.dim == 6))
    return checks


def registry_self_test(example_id, dim=None):
    """Re-verify every claim the registry makes about one id.

    Returns (check_name, passed) tuples; the flag expectations are asserted
    inside paper_example itself.
    """
    entry = example_entry(example_id)
    return _registry_checks(entry, paper_example(entry.id, dim))


def _registry_checks(entry, built):
    """registry_self_test on ``built``, the entry's paper_example payload."""
    payload, report = built
    checks = []
    if entry.kind == "pair":
        for flag, want in (entry.expected_flags or {}).items():
            checks.append((f"flag {flag} is {want}", getattr(report, flag) == want))
        ctx = payload.context
        for lhs, rhs, equal in entry.claims:
            x = ctx.word(lhs)
            got = x.is_zero() if rhs == "0" else x == ctx.word(rhs)
            rel = "equals" if equal else "differs from"
            checks.append((f"word {lhs} {rel} word {rhs}", got == equal))
    else:
        checks.append(
            ("spec file round-trips through the text format", shiftlab.parse_spec(shiftlab.format_spec(payload)) == payload)
        )
    return _check_extra(entry.id, payload, checks)
