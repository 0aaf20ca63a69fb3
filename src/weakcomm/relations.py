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

``residuals`` maps each flag name to the Frobenius norm of its defect
matrix (exactly 0.0 when the flag is true).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RelationReport", "relation_check", "FLAG_NAMES"]

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
    residuals: dict = field(compare=False)

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
        out = dict(self.flags())
        out["residuals"] = {k: float(v) for k, v in sorted(self.residuals.items())}
        return out


def relation_check(a, b):
    """Exact relation report for the ordered pair (a, b) of ExactMatrix."""
    return _relation_words(a, b)[0]


# each flag compares two words: (ab)a with a(ab), and so on
_FLAG_WORDS = {
    "comm": ("ab", "ba"),
    "ab_in_comm_a": ("aba", "aab"),
    "ab_in_comm_b": ("abb", "bab"),
    "ba_in_comm_a": ("baa", "aba"),
    "ba_in_comm_b": ("bab", "bba"),
}


def _relation_words(a, b):
    """(relation report, the eight products it compares keyed by word).

    The words are ab, ba and the six distinct products of three letters with
    one of them: each is multiplied once. ExactMatrix is normalized, so a
    flag is decided by equality, and a defect is built only for a residual.
    """
    ab, ba = a * b, b * a
    words = {
        "ab": ab,
        "ba": ba,
        "aab": a * ab,
        "aba": ab * a,
        "baa": ba * a,
        "abb": ab * b,
        "bab": b * ab,
        "bba": b * ba,
    }
    flags = {}
    residuals = {}
    for k, (x, y) in _FLAG_WORDS.items():
        flags[k] = words[x] == words[y]
        residuals[k] = 0.0 if flags[k] else (words[x] - words[y]).frobenius()
    ab_a, ab_b = flags["ab_in_comm_a"], flags["ab_in_comm_b"]
    ba_a, ba_b = flags["ba_in_comm_a"], flags["ba_in_comm_b"]
    report = RelationReport(
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
    return report, words
