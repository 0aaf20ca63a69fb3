"""Weak commutation relation checks for ordered matrix pairs.

Convention (fixed across the package and the report schema): for a report
on the ordered pair (a, b), membership is always read as "b belongs to the
one-sided commutation set OF a". The four primitive flags test which of the
two products commutes with which factor:

    ab_in_comm_a:  (ab)a == a(ab)
    ab_in_comm_b:  (ab)b == b(ab)
    ba_in_comm_a:  (ba)a == a(ba)
    ba_in_comm_b:  (ba)b == b(ba)

Derived memberships:

    comm_l = ab_in_comm_a and ba_in_comm_b
    comm_r = ab_in_comm_b and ba_in_comm_a
    comm_w = all four

As ordered-pair relations these three are symmetric: swapping (a, b)
permutes the primitive flags among themselves, so comm_l/comm_r/comm_w are
unchanged. Conjugate transposition swaps comm_l and comm_r.

The pointwise pieces of the three algebra-wide commutativity conditions:

    c1_pair = ab_in_comm_a or ba_in_comm_a or ba_in_comm_b
    c2_pair = ab_in_comm_a or ba_in_comm_a or ab_in_comm_b
    c3_pair = ab_in_comm_b or ba_in_comm_b

Everything the package reads of one pair is kept in one place, a
``PairContext``: its words, its flags and its spectra, each computed when
first read and kept. ``flag(name)`` decides one of the eleven report names
and keeps it, and ``report`` holds all eleven, decided on first read. The
derived flags above are written once, in the table ``_DERIVED``, which
``flag`` and ``_report`` both read. Each is read left to right and stops at
its first deciding flag, so ``comm_w`` on a pair whose ab_in_comm_a is
false reads nothing more. A primitive flag is screened first. Its two
words have the same letters, so their integer numerators over one
denominator are compared, each applied to a fixed probe vector v with
entries (-1)^j (j^2 + j + 41) in Z/M, M = R^2 + 1, R = 2^32: x + iy maps
to x + Ry, a ring homomorphism as R^2 = -1 mod M. A word's image of v is
one matrix-vector product mod M from that of its suffix, computed when
first needed and kept, so the twelve suffix words cost at most twelve
products. X v != Y v mod M proves X != Y, so the flag is false. The probe
is fixed, not drawn, so no random state is read. A flag the probe does not
refute (every true flag, and a false one whose defect maps v to 0 mod M)
falls back to the exact products, so a flag is true only when the exact
products are equal (Freivalds, "Probabilistic machines can use less
running time", IFIP 1977, with the random vector fixed and the exact check
as fallback). No nonzero x + iy with |x|, |y| < R is 0 mod M, so while the
images' parts stay below 2^31 the residues refute every flag that the
exact images refute. A search candidate enters as the residue rows it was
drawn into (``instances._search_rows``): its numerator over the alphabet's
denominator 2, which is c times the normalized numerator for c = 1 or 2.
Both words of a flag have the same letters, so both images are scaled by
the same positive c_a^k c_b^l, a unit mod the odd M; their parts stay below
2^31 up to dim 8, so the probe refutes exactly the flags it refutes on the
normalized numerators. The candidate's matrices are built only when a flag
needs the exact products. ``relation_flags`` reads every name and returns
the flags with ``residuals=None``. ``relation_check`` adds ``residuals``,
which maps each primitive flag name to the Frobenius norm of its defect
matrix (exactly 0.0 when the flag is true). A reader of a few flags, such
as a search predicate, takes a context's ``flag`` and decides only those.

Words are multiplied in one place too: ``_product`` multiplies a word
missing from a context's memo, from its longest memoized prefix or
suffix, and keeps it, so no context multiplies a word twice. This module
is the only one that knows the memo: the sampler, the search, the registry
and ``verify`` read a pair through its context. The context that accepts a
pair in ``sample_pair`` or builds one in ``paper_example`` goes with the
pair, as its ``context``, so ``verify`` and the registry's word claims
decide no flag and multiply no word twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm
from operator import mul

from . import _kernel_py
from .exact import ExactMatrix, ExactPoly, charpoly, nilpotency_degree, poly_radical

__all__ = ["RelationReport", "relation_check", "relation_flags", "FLAG_NAMES", "PairContext"]

FLAG_NAMES = ("comm", "ab_in_comm_a", "ab_in_comm_b", "ba_in_comm_a", "ba_in_comm_b")


@dataclass(frozen=True)
class RelationReport:
    comm: bool
    ab_in_comm_a: bool
    ab_in_comm_b: bool
    ba_in_comm_a: bool
    ba_in_comm_b: bool
    comm_l: bool
    comm_r: bool
    comm_w: bool
    c1_pair: bool
    c2_pair: bool
    c3_pair: bool
    residuals: dict | None = field(compare=False)

    def flags(self):
        return {name: getattr(self, name) for name in _REPORT_NAMES}

    def to_json_dict(self):
        if self.residuals is None:
            raise ValueError("a relation_flags report has no residuals; use relation_check")
        out = dict(self.flags())
        out["residuals"] = {k: float(v) for k, v in sorted(self.residuals.items())}
        return out


def relation_check(a, b):
    """Exact relation report for the ordered pair (a, b) of ExactMatrix:
    the flags of ``relation_flags`` and the residuals of the false ones."""
    return _checked(PairContext(a, b))


def _checked(ctx):
    """``relation_check`` on the pair of ctx, from the words its memo keeps."""
    w = ctx.word
    residuals = {
        k: 0.0 if ctx.flag(k) else (w(x) - w(y)).frobenius() for k, (x, y) in _FLAG_WORDS.items()
    }
    return _report(ctx.flag, residuals)


def relation_flags(a, b):
    """The flags of ``relation_check(a, b)`` with ``residuals=None``.

    Each flag is first screened with the fixed probe: a flag whose two
    words differ on the probe is false. Only a flag the probe does not
    refute is decided by the exact products, each multiplied once.
    """
    return PairContext(a, b).report


class PairContext:
    """One ordered pair (a, b): its words, flags and spectra, each computed
    when first read and kept.

    ``word(w)`` is the product of the letters of w over ``a``, ``b`` and
    ``s`` (s = a + b), with ``""`` the identity. A missing word is built
    from its longest kept prefix or suffix (``_product``), so each word is
    multiplied once per pair; ``""`` and ``s`` are built when first read.
    ``flag(name)`` decides one of the eleven report names: a primitive flag
    by the images of its two words mod M, each kept per suffix word, and
    only where they agree by the exact products; a derived flag by the
    names of ``_DERIVED``, up to the first that decides it. ``report`` holds
    every flag, without residuals, decided when first read. ``combo`` sums
    integer multiples of words in one pass over their integer numerators,
    and ``defect`` evaluates a word combination, a sequence of (word, int)
    terms that must vanish: x - y as the pair of its two words, decided by
    equality, and any other through ``combo``. ``nil_degree``, ``radical``
    and ``radical_nonzero`` are kept per word.

    ``PairContext(a, b)`` takes the matrices; a search candidate enters
    through ``_of_rows`` as its residue rows, and its letters are built
    from them when a word is first needed, so a pair the probe refutes
    builds no matrix. ``ExactMatrix`` stores a normalized (den, re, im)
    that is unique for each matrix, so a word's value does not depend on
    how its product was associated.
    """

    def __init__(self, a, b):
        a._check_dim(b)
        self._start({"a": a, "b": b}, {"a": _residue_rows(a), "b": _residue_rows(b)}, None)

    @classmethod
    def _of_rows(cls, rows, build):
        """The candidate drawn as the residue rows (a, b); ``build`` makes a
        letter's matrix from its rows."""
        ctx = cls.__new__(cls)
        ctx._start({}, {"a": rows[0], "b": rows[1]}, build)
        return ctx

    def _start(self, words, rows, build):
        self.dim = len(rows["a"])
        self._words, self._rows, self._build = words, rows, build
        self._images = {"": _probe(self.dim)}
        self._values = {}

    @property
    def a(self):
        return self.word("a")

    @property
    def b(self):
        return self.word("b")

    @property
    def s(self):
        return self.word("s")

    @property
    def ab(self):
        return self.word("ab")

    @property
    def ba(self):
        return self.word("ba")

    def word(self, w):
        """The product of the letters of w, e.g. ``word("ab" * 2)`` = (ab)^2."""
        m = self._words.get(w)  # most calls find the word: skip the call
        return self._new_word(w) if m is None else m

    def _new_word(self, w):
        """A word missing from the memo. A candidate's letters are built
        first, "" and s when first read, and any other word by ``_product``."""
        words = self._words
        if not words:
            words["a"], words["b"] = map(self._build, self._rows.values())
        if not w:
            words[""] = ExactMatrix.identity(self.dim)
        elif "s" in w and "s" not in words:
            words["s"] = words["a"] + words["b"]
        m = words.get(w)
        return _product(words, w) if m is None else m

    def flag(self, name):
        value = self._values.get(name)
        if value is None:
            derived = _DERIVED.get(name)
            if derived is None:
                x, y = _FLAG_WORDS[name]
                value = self._image(x) == self._image(y) and self.word(x) == self.word(y)
            else:
                test, names = derived
                value = test(map(self.flag, names))
            self._values[name] = value
        return value

    def _image(self, w):
        """The numerator of the word w times the probe, mod M, kept per word."""
        v = self._images.get(w)
        if v is None:
            v = self._images[w] = _apply(self._rows[w[0]], self._image(w[1:]))
        return v

    @cached_property
    def report(self):
        """Every flag, without residuals."""
        return _report(self.flag, None)

    def combo(self, terms):
        """Sum of c * word(w) over the (w, c) pairs; c is an int, w may repeat."""
        terms = [(self.word(w), c) for w, c in terms]
        den = lcm(*[m._den for m, _ in terms])
        re = im = [0] * (self.dim * self.dim)
        for m, c in terms:
            f = c * (den // m._den)
            re = [x + f * y for x, y in zip(re, m._re)]
            im = [x + f * y for x, y in zip(im, m._im)]
        return ExactMatrix._from_rep(self.dim, _kernel_py.normalize(den, re, im))

    def defect(self, terms):
        """The word combination ``terms`` on this pair, for
        ``identities._from_defects``: x - y as the pair (word(x), word(y)),
        which is decided by equality, and any other combination as its
        ``combo`` matrix."""
        if len(terms) == 2:
            (x, c), (y, d) = terms
            if c == 1 and d == -1:
                return self.word(x), self.word(y)
        return self.combo(terms)

    @cached_property
    def _spectra(self):
        """Per word: its nilpotency degree, charpoly radical and nonzero radical."""
        return {}, {}, {}

    def nil_degree(self, w):
        """The nilpotency degree of word w, or None where w is not nilpotent."""
        nil = self._spectra[0]
        if w not in nil:
            nil[w] = nilpotency_degree(self.word(w))
        return nil[w]

    def radical(self, w):
        """The charpoly radical of word w: x where w's nilpotency degree is kept."""
        nil, radicals, _ = self._spectra
        if nil.get(w) is not None:
            return ExactPoly.variable()
        if w not in radicals:
            radicals[w] = poly_radical(charpoly(self.word(w)))
        return radicals[w]

    def radical_nonzero(self, w):
        """``poly_radical_nonzero`` of the charpoly, derived from the radical.

        The radical is monic and squarefree, so x divides it at most once and
        dividing that factor out leaves the monic radical of the nonzero roots.
        """
        nonzero = self._spectra[2]
        if w not in nonzero:
            nonzero[w] = self.radical(w).strip_zero_roots()
        return nonzero[w]


def _product(words, w):
    """The product of the letters of w, kept in the memo ``words`` of a
    ``PairContext``.

    ``words`` maps words to matrices and holds at least every letter of w.
    A missing word is the product of its longest memoized prefix or suffix
    and the rest, and every product made is kept, so no word is multiplied
    twice. On a tie the piece comes from the end where a letter repeats, or
    else from the front: aab = a(ab) and abb = (ab)b, so the rest is the
    ab or ba that other flags share. A zero factor is kept as the product
    without a multiplication (``_times``).
    """
    m = words.get(w)
    if m is None:
        k = len(w) - 1
        while k > 0 and w[:k] not in words and w[-k:] not in words:
            k -= 1
        if k < 1:
            raise KeyError(f"no matrix for the word {w!r}")
        if w[:k] in words and (w[-k:] not in words or w[0] == w[1] or w[-1] != w[-2]):
            x, y = words[w[:k]], _product(words, w[k:])
        else:
            x, y = _product(words, w[:-k]), words[w[-k:]]
        m = words[w] = _times(x, y)
    return m


def _times(x, y):
    """x * y. A zero factor is already the normalized product, so it is
    returned without a multiplication."""
    return x if x.is_zero() else y if y.is_zero() else x * y


# each flag compares two words: (ab)a with a(ab), and so on
_FLAG_WORDS = {
    "comm": ("ab", "ba"),
    "ab_in_comm_a": ("aba", "aab"),
    "ab_in_comm_b": ("abb", "bab"),
    "ba_in_comm_a": ("baa", "aba"),
    "ba_in_comm_b": ("bab", "bba"),
}

# each derived flag: all or any of the flags it reads, in the order read
_DERIVED = {
    "comm_l": (all, ("ab_in_comm_a", "ba_in_comm_b")),
    "comm_r": (all, ("ab_in_comm_b", "ba_in_comm_a")),
    "comm_w": (all, ("ab_in_comm_a", "ab_in_comm_b", "ba_in_comm_a", "ba_in_comm_b")),
    "c1_pair": (any, ("ab_in_comm_a", "ba_in_comm_a", "ba_in_comm_b")),
    "c2_pair": (any, ("ab_in_comm_a", "ba_in_comm_a", "ab_in_comm_b")),
    "c3_pair": (any, ("ab_in_comm_b", "ba_in_comm_b")),
}

# the names of a report, in the order of its fields
_REPORT_NAMES = FLAG_NAMES + tuple(_DERIVED)


# the probe's ring: Z[i] -> Z/M with i -> R, a homomorphism as R^2 = -1 mod M
_R = 1 << 32
_M = _R * _R + 1


@lru_cache(maxsize=None)
def _probe(dim):
    """The fixed probe, built once per dim: entry j is (-1)^j (j^2 + j + 41)."""
    return tuple((j * j + j + 41) * (-1) ** j for j in range(dim))


def _residue_rows(m):
    """The rows of the integer numerator RE + i*IM of m, each entry re + R*im."""
    d = m.dim
    e = [x + _R * y for x, y in zip(m._re, m._im)]
    return [e[i : i + d] for i in range(0, d * d, d)]


def _apply(rows, v):
    """A numerator, given by its ``_residue_rows``, times the vector v, mod M."""
    return [sum(map(mul, r, v)) % _M for r in rows]


def _report(flag, residuals):
    """The report of every name that the getter ``flag`` decides."""
    return RelationReport(**{name: flag(name) for name in _REPORT_NAMES}, residuals=residuals)
