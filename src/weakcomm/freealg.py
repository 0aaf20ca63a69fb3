"""Word combinations decided in the free algebra Q<a,b> modulo word relations.

A word relation x = y equates two words over the letters a and b. In the
free algebra, the two-sided ideal that the binomials x - y generate is
spanned by the differences u x v - u y v, so a combination lies in it
exactly when its coefficients sum to zero on every class of the word
congruence that the relations generate. That congruence joins two words
when one rewrite u x v -> u y v links them, and its classes are the
connected components of those links (the binomial case of Bergman's
diamond lemma, "The diamond lemma for ring theory", Adv. Math. 29, 1978).

Every relation here has two words of one length, so a rewrite keeps a
word's length, and the congruence is decided degree by degree: a
``Congruence`` runs a union-find over the 2^n words of length n, the
first time a word of that length is asked for, and keeps it. The letter s
stands for a + b and is expanded first (``expand``). The arithmetic is
exact: integer coefficient sums, with no elimination.

A combination in the ideal vanishes in every algebra, of matrices or of
operators, on every pair whose words satisfy the relations. One outside it
is refuted: ``refute`` names the class of the smallest representative
word whose coefficient sum is nonzero.

``flag_relations`` turns relation flags into word relations: a primitive
flag is the pair of words that ``relations`` compares, and comm_l, comm_r
and comm_w are the conjunctions of theirs.
"""

from __future__ import annotations

from itertools import product

from .relations import _DERIVED, _FLAG_WORDS

__all__ = ["Congruence", "expand", "flag_relations"]


def flag_relations(flags):
    """The word relations (x, y) that the relation flags ``flags`` assert."""
    out = []
    for name in flags:
        test, names = _DERIVED.get(name, (all, (name,)))
        if test is not all:
            raise ValueError(f"{name} is a disjunction of flags, not a word relation")
        out += [_FLAG_WORDS[flag] for flag in names]
    return tuple(out)


def expand(combo):
    """The combination ``combo``, (word, int) terms over a, b and s = a + b,
    as a dict word -> coefficient over a and b, without zero coefficients."""
    out = {}
    for w, c in combo:
        for letters in product(*("ab" if x == "s" else x for x in w)):
            v = "".join(letters)
            out[v] = out.get(v, 0) + c
    return {w: c for w, c in out.items() if c}


class Congruence:
    """The word congruence of the relations x = y, decided degree by degree."""

    def __init__(self, relations):
        self.relations = tuple(relations)
        for x, y in self.relations:
            if len(x) != len(y) or not set(x + y) <= {"a", "b"}:
                raise ValueError(f"{x} = {y} is not a relation of two words of one length")
        self._classes = {}  # length -> {word: the smallest word of its class}

    def representative(self, w):
        """The smallest word (a < b) congruent to the word w."""
        classes = self._classes.get(len(w))
        if classes is None:
            classes = self._classes[len(w)] = self._union_find(len(w))
        return classes[w]

    def _union_find(self, n):
        words = ["".join(p) for p in product("ab", repeat=n)]
        parent = {w: w for w in words}

        def find(w):
            root = w
            while parent[root] != root:
                root = parent[root]
            while parent[w] != root:
                parent[w], w = root, parent[w]
            return root

        for w in words:
            for x, y in self.relations:
                i = w.find(x)
                while i >= 0:
                    u, v = find(w), find(w[:i] + y + w[i + len(x) :])
                    if u != v:
                        parent[max(u, v)] = min(u, v)
                    i = w.find(x, i + 1)
        return {w: find(w) for w in words}

    def refute(self, combo):
        """None when the combination lies in the ideal of the relations, else
        (word, sum): the smallest representative whose class has the nonzero
        coefficient sum ``sum``."""
        sums = {}
        for w, c in expand(combo).items():
            r = self.representative(w)
            sums[r] = sums.get(r, 0) + c
        bad = min((r for r, total in sums.items() if total), default=None)
        return None if bad is None else (bad, sums[bad])
