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

Every flag is decided in one place, a ``_Decider`` per pair memo, and only
when it is read: ``flag(name)`` decides one of the eleven report names and
keeps it. The derived flags above are written once, in the table
``_DERIVED``, which ``flag`` and ``_report`` both read. Each is read left
to right and stops at its first deciding flag, so ``comm_w`` on a pair
whose ab_in_comm_a is false reads nothing more. A primitive flag is
screened first. Its two words have the same letters, so their integer
numerators over one denominator are compared, each applied to a fixed
probe vector v with entries (-1)^j (j^2 + j + 41) in Z/M, M = R^2 + 1,
R = 2^32: x + iy maps to x + Ry, a ring homomorphism as R^2 = -1 mod M.
A word's image of v is one matrix-vector product mod M from that of its
suffix, computed when first needed and kept, so the twelve suffix words
cost at most twelve products. X v != Y v mod M proves X != Y, so the flag
is false. The probe is fixed, not drawn, so no random state is read. A
flag the probe does not refute (every true flag, and a false one whose
defect maps v to 0 mod M) falls back to the exact products, so a flag is
true only when the exact products are equal (Freivalds, "Probabilistic
machines can use less running time", IFIP 1977, with the random vector
fixed and the exact check as fallback). No nonzero x + iy with |x|, |y| <
R is 0 mod M, so while the images' parts stay below 2^31 the residues
refute every flag that the exact images refute. A search candidate enters
as the residue rows it was drawn into (``instances._search_rows``): its
numerator over the alphabet's denominator 2, which is c times the
normalized numerator for c = 1 or 2. Both words of a flag have the same
letters, so both images are scaled by the same positive c_a^k c_b^l, a
unit mod the odd M; their parts stay below 2^31 up to dim 8, so the probe
refutes exactly the flags it refutes on the normalized numerators. The
candidate's matrices are built only when a flag needs the exact products.
``relation_flags`` reads every name and returns the flags with
``residuals=None``. ``relation_check`` adds ``residuals``, which maps each
primitive flag name to the Frobenius norm of its defect matrix (exactly 0.0
when the flag is true). A reader of a few flags, such as a search
predicate, takes the getter of ``_flags`` and decides only those.

Words are multiplied in one place too: ``_product`` keeps a memo of words
keyed by their letters and multiplies only a missing word, from its longest
memoized prefix or suffix. The screen, the residuals, ``PairContext`` in
``identities`` and the registry's word claims all fill such a memo, and no
memo multiplies a word twice. The memo that accepts a pair in ``sample_pair``
goes with it into its ``PairContext``, so ``verify`` decides its flags once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

__all__ = ["RelationReport", "relation_check", "relation_flags", "FLAG_NAMES"]

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
    words = {"a": a, "b": b}
    flag = _Decider(words).flag
    residuals = {
        k: 0.0 if flag(k) else (_product(words, x) - _product(words, y)).frobenius()
        for k, (x, y) in _FLAG_WORDS.items()
    }
    return _report(flag, residuals)


def relation_flags(a, b):
    """The flags of ``relation_check(a, b)`` with ``residuals=None``.

    Each flag is first screened with the fixed probe: a flag whose two
    words differ on the probe is false. Only a flag the probe does not
    refute is decided by the exact products, each multiplied once.
    """
    return _decide({"a": a, "b": b})


def _decide(words):
    """The report, without residuals, of the pair in the memo ``words``,
    which keeps the products of the flags the probe does not refute."""
    return _report(_Decider(words).flag, None)


def _flags(a, b):
    """The getter ``flag(name)`` of the pair (a, b), for a reader of a few flags."""
    return _Decider({"a": a, "b": b}).flag


class _Decider:
    """The flags of the pair in the memo ``words``, each decided when first read.

    ``flag(name)`` takes any of the eleven report names and keeps its value.
    A primitive flag computes the probe images of its two words mod M, each
    kept per suffix word. Images that differ refute it (Z[i] -> Z/M is a ring
    homomorphism), and below 2^31 they differ whenever the exact ones do;
    only images that agree lead to ``_product``. A derived flag reads its
    names in the order of ``_DERIVED`` and stops at the first that decides it.

    ``_Decider(words)`` takes the residue rows from the letters of the memo
    and fills it. The search passes ``rows``, the residue rows of a and b,
    with a function in place of the memo that builds a letter's matrix from
    its rows; ``words()`` calls it for both letters the first time a flag
    needs the exact products, so a pair the probe refutes builds no matrix.
    """

    __slots__ = ("_words", "_rows", "_images", "_values")

    def __init__(self, words, rows=None):
        if rows is None:
            words["a"]._check_dim(words["b"])
            rows = _residue_rows(words["a"]), _residue_rows(words["b"])
        self._words = words
        self._rows = {"a": rows[0], "b": rows[1]}
        self._images = {"": _probe(len(rows[0]))}
        self._values = {}

    def words(self):
        """The pair's memo. A function given in its place builds each letter
        from its residue rows, once, when first needed."""
        if callable(self._words):
            self._words = {w: self._words(rows) for w, rows in self._rows.items()}
        return self._words

    def flag(self, name):
        value = self._values.get(name)
        if value is None:
            derived = _DERIVED.get(name)
            if derived is None:
                x, y = _FLAG_WORDS[name]
                value = self._image(x) == self._image(y) and (
                    _product(self.words(), x) == _product(self.words(), y)
                )
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


def _product(words, w):
    """The product of the letters of w, kept in the memo ``words``.

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
