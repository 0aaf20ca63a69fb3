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

Every flag is decided in one place, the screen behind ``relation_flags``.
The two words of a flag have the same letters, so their integer numerators
over one denominator are compared, each applied to a fixed probe vector v
with entries (-1)^j (j^2 + j + 41). Twelve matrix-vector products give
every word's image of v, and X v != Y v proves X != Y, so the flag is
false. The probe is fixed, not drawn, so no random state is read. A flag the
probe does not refute (every true flag, and a false one whose defect has v
in its kernel) falls back to the exact products, so a flag is true only when
the exact products are equal (Freivalds, "Probabilistic machines can use
less running time", IFIP 1977, with the random vector fixed and the exact
check as fallback). ``relation_flags`` returns these flags with
``residuals=None``. ``relation_check`` adds ``residuals``, which maps each
flag name to the Frobenius norm of its defect matrix (exactly 0.0 when the
flag is true).

Words are multiplied in one place too: ``_product`` keeps a memo of words
keyed by their letters and multiplies only a missing word, from its longest
memoized prefix or suffix. The screen, the residuals, ``PairContext`` in
``identities`` and the registry's word claims all fill such a memo, and no
memo multiplies a word twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul, neg

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
        return {
            "comm": self.comm,
            "ab_in_comm_a": self.ab_in_comm_a,
            "ab_in_comm_b": self.ab_in_comm_b,
            "ba_in_comm_a": self.ba_in_comm_a,
            "ba_in_comm_b": self.ba_in_comm_b,
            "comm_l": self.comm_l,
            "comm_r": self.comm_r,
            "comm_w": self.comm_w,
            "c1_pair": self.c1_pair,
            "c2_pair": self.c2_pair,
            "c3_pair": self.c3_pair,
        }

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
    flags = _decide(words)
    residuals = {
        k: 0.0 if flags[k] else (_product(words, x) - _product(words, y)).frobenius()
        for k, (x, y) in _FLAG_WORDS.items()
    }
    return _report(flags, residuals)


def relation_flags(a, b):
    """The flags of ``relation_check(a, b)`` with ``residuals=None``.

    Each flag is first screened with the fixed probe: a flag whose two
    words differ on the probe is false. Only a flag the probe does not
    refute is decided by the exact products, each multiplied once.
    """
    return _report(_decide({"a": a, "b": b}), None)


def _decide(words):
    """The five primitive flags of the pair in the memo ``words``, which
    keeps the products of the flags the probe does not refute."""
    a, b = words["a"], words["b"]
    a._check_dim(b)
    rows = {"a": _numerator_rows(a), "b": _numerator_rows(b)}
    images = {"": _probe(a.dim)}
    for w, first, rest in _PROBE_STEPS:
        images[w] = _apply(rows[first], images[rest])
    return {
        k: images[x] == images[y] and _product(words, x) == _product(words, y)
        for k, (x, y) in _FLAG_WORDS.items()
    }


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

# the nonempty suffixes of the compared words, shortest first: the probe
# image of each is one matrix-vector product from that of its own suffix
_PROBE_STEPS = tuple(
    (w, w[0], w[1:])
    for w in sorted(
        {w[k:] for pair in _FLAG_WORDS.values() for w in pair for k in range(len(w))},
        key=lambda w: (len(w), w),
    )
)


def _probe(dim):
    """The fixed probe: entry j is (-1)^j (j^2 + j + 41), a prime for j < 40."""
    return tuple((j * j + j + 41) * (-1) ** j for j in range(dim))


def _numerator_rows(m):
    """The rows (RE | -IM) and (IM | RE) of the integer numerator RE + i*IM of m.

    A dot product of the first or the second with (re | im) of a vector is
    the real or the imaginary part of the numerator times that vector.
    """
    d, n = m.dim, m.dim * m.dim
    re = [m._re[i : i + d] for i in range(0, n, d)]
    im = [m._im[i : i + d] for i in range(0, n, d)]
    return [r + tuple(map(neg, y)) for r, y in zip(re, im)], [y + r for r, y in zip(re, im)]


def _apply(rows, v):
    """A numerator, given by its ``_numerator_rows``, times the vector v.

    A vector is its real part, followed by its imaginary part only when that
    is not zero, so equal vectors are equal lists; ``map`` stops at the end
    of a real v.
    """
    first, second = rows
    re = [sum(map(mul, r, v)) for r in first]
    im = [sum(map(mul, r, v)) for r in second]
    return re + im if any(im) else re


def _report(flags, residuals):
    """The report of the five primitive flags, with the memberships they imply."""
    ab_a, ab_b = flags["ab_in_comm_a"], flags["ab_in_comm_b"]
    ba_a, ba_b = flags["ba_in_comm_a"], flags["ba_in_comm_b"]
    return RelationReport(
        comm=flags["comm"],
        ab_in_comm_a=ab_a,
        ab_in_comm_b=ab_b,
        ba_in_comm_a=ba_a,
        ba_in_comm_b=ba_b,
        comm_l=ab_a and ba_b,
        comm_r=ab_b and ba_a,
        comm_w=ab_a and ab_b and ba_a and ba_b,
        c1_pair=ab_a or ba_a or ba_b,
        c2_pair=ab_a or ba_a or ab_b,
        c3_pair=ab_b or ba_b,
        residuals=residuals,
    )
