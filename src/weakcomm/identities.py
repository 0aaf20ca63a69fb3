"""Catalog of verifiable consequences of one-sided commutation hypotheses.

Every identity in the catalog is a statement "hypothesis (relation flags,
possibly nilpotency) implies conclusion (exact matrix/polynomial equation,
membership, degree bound, or spectral-radius inequality)". Checking an
identity on a concrete pair yields an :class:`IdentityResult` with a
three-way verdict:

    pass     hypothesis met, conclusion holds
    fail     hypothesis met, conclusion violated
    vacuous  hypothesis not met

For most identities ``check_identity`` still evaluates the conclusion of a
vacuous result and reports its raw outcome informationally. Seven do not.
EXP_CORR, NIL_PROD, NIL_SUM, QUASI_CLOSURE and KER_INCL return ``_vacuous``
(holds, residual 0.0, no witness) without evaluating anything. R.iv and
NIL_TELE build their defect list from the flags, so an unmet hypothesis
leaves it empty and the result holds.

The word identities (L1.*, R.*, NEWTON_*, BINOM, TELESCOPE, NIL_TELE) are
polynomial identities in a, b and s = a + b. Each states that some word
combinations vanish: sequences of (word, int) terms over the letters a, b
and s. ``PairContext.defect`` is their one evaluator. The sixteen whose
hypothesis is a conjunction of relation flags are rows of one table,
``_WORD_IDENTITIES``, which pairs the flags with a recipe of
combinations; the others have checkers of their own.

RAD_PROD and RAD_SUM compare spectral radii with zero tolerance: the
charpoly radicals of the pair's words go to ``algebraic``, which decides
each bound exactly, and no checker reads a float or loads NumPy.

``verify_suite`` samples pairs from the relation-class samplers and runs
the whole catalog over them deterministically, producing a JSON-stable
report with per-identity counts and a first-failure witness. It decides
each hypothesis first and counts an unmet one as vacuous without
evaluating the conclusion, which the report never reads. A fault can
be injected into one identity (its computed verdict is inverted) to prove
the harness actually detects failures.

Each pair comes from its own seed, derived from (seed, class, index), so
the pairs are independent: ``verify_suite`` checks them in forked worker
processes, one per usable CPU. A pair's outcome, its verdicts and one
payload per failing identity, is pickled through a pipe, and the outcomes
are merged in (class, index) order, which alone decides each first failure.
The report is the same on any number of CPUs, and where no worker can be
forked every pair is checked in the calling process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, lcm

from . import _kernel_py
from .algebraic import radius_product_bound, radius_sum_bound
from .errors import UnknownIdentityError
from .exact import (
    ExactMatrix,
    charpoly,
    exp_exact_nilpotent,
    nilpotency_degree,
    poly_radical,
)
from .relations import _decide, _product
from .scalar import Scalar
from .structure import kernel_inclusion_forward, kernel_inclusion_reverse, range_kernel_criterion

__all__ = [
    "IdentityId",
    "IdentityResult",
    "PairContext",
    "check_identity",
    "verify_suite",
    "SuiteReport",
    "identity_catalog",
]

class IdentityId(str, Enum):
    L1_I_i = "L1.I.i"
    L1_I_ii = "L1.I.ii"
    L1_I_iii = "L1.I.iii"
    L1_II_i = "L1.II.i"
    L1_II_ii = "L1.II.ii"
    L1_II_iii = "L1.II.iii"
    L1_III_i = "L1.III.i"
    L1_III_ii = "L1.III.ii"
    L1_III_iii = "L1.III.iii"
    L1_IV_i = "L1.IV.i"
    L1_IV_ii = "L1.IV.ii"
    L1_IV_iii = "L1.IV.iii"
    R_i = "R.i"
    R_ii = "R.ii"
    R_iii = "R.iii"
    R_iv = "R.iv"
    R_v = "R.v"
    NEWTON_R = "NEWTON_R"
    NEWTON_L = "NEWTON_L"
    BINOM = "BINOM"
    TELESCOPE = "TELESCOPE"
    EXP_CORR = "EXP_CORR"
    NIL_PROD = "NIL_PROD"
    NIL_SUM = "NIL_SUM"
    NIL_TELE = "NIL_TELE"
    RAD_PROD = "RAD_PROD"
    RAD_SUM = "RAD_SUM"
    QUASI_CLOSURE = "QUASI_CLOSURE"
    SPEC_INCL = "SPEC_INCL"
    SPEC_EQ_N2 = "SPEC_EQ_N2"
    SPEC_EQ_W = "SPEC_EQ_W"
    KER_INCL = "KER_INCL"
    KRITERION_RANGE = "KRITERION_RANGE"


@dataclass(frozen=True)
class IdentityResult:
    """One checker evaluation.

    ``witness`` is the defect text, the first nonzero defect matrix, or None.
    ``defect`` renders a matrix witness as its literal, only when read.
    """

    identity: IdentityId
    hypothesis_met: bool
    holds: bool
    residual: float
    params: dict
    witness: ExactMatrix | str | None

    @property
    def defect(self):
        w = self.witness
        return w.literal() if isinstance(w, ExactMatrix) else w

    @property
    def verdict(self):
        if not self.hypothesis_met:
            return "vacuous"
        return "pass" if self.holds else "fail"

    def to_json_dict(self):
        return {
            "identity": self.identity.value,
            "hypothesis_met": self.hypothesis_met,
            "holds": self.holds,
            "verdict": self.verdict,
            "residual": float(self.residual),
            "params": _json_params(self.params),
            "defect": self.defect,
        }


def _json_params(params):
    out = {}
    for k, v in params.items():
        if isinstance(v, Scalar):
            out[k] = v.literal()
        else:
            out[k] = v
    return out


class PairContext:
    """Per-pair memo of the products and spectral data the checkers share.

    A context serves one ordered pair (a, b) and nothing outlives it:
    ``verify_suite`` builds one per sampled pair and ``check_identity`` a
    fresh one per call. Products are keyed by words over the letters ``a``,
    ``b`` and ``s`` (s = a + b), with ``""`` the identity; ``word`` builds a
    missing word from its longest cached prefix or suffix (``relations._product``),
    so each word is multiplied once per pair. ``report`` holds the relation
    flags, without residuals; deciding them leaves in the memo the products
    of the flags the probe does not refute, and no others. ``verify_suite``
    takes both over from the sampled pair (``sample_pair``) through ``_init``.
    ``combo`` sums integer multiples of words in one pass over their integer
    numerators. ``defect`` evaluates a word combination, a sequence of such
    (word, int) terms that must vanish: x - y as the pair of its two words,
    decided by equality, and any other through ``combo``. Nilpotency
    degrees are kept per word; for the base words ``a``, ``b``, ``ab`` and
    ``s`` the charpoly radical and nonzero radical are each computed once.

    ``ExactMatrix`` stores a normalized (den, re, im) that is unique for each
    matrix, so a word's value does not depend on how its product was
    associated: every result equals the one computed without the memo.
    """

    def __init__(self, a, b):
        words = {"a": a, "b": b}
        self._init(words, _decide(words))

    def _init(self, words, report):
        """Serve the pair of the memo ``words``, whose flags ``report`` holds."""
        a, b = self.a, self.b = words["a"], words["b"]
        self.dim = a.dim
        words.update({"": ExactMatrix.identity(a.dim), "s": a + b})
        self._words, self.report, self._memo = words, report, {}

    @property
    def ab(self):
        return self.word("ab")

    @property
    def ba(self):
        return self.word("ba")

    @property
    def s(self):
        return self._words["s"]

    def word(self, w):
        """The product of the letters of w, e.g. ``word("ab" * 2)`` = (ab)^2."""
        m = self._words.get(w)  # most calls find the word: skip the call
        return _product(self._words, w) if m is None else m

    def combo(self, terms):
        """Sum of c * word(w) over the (w, c) pairs; c is an int, w may repeat."""
        terms = [(self.word(w), c) for w, c in terms]
        # a list: unpacking a generator raised verify's peak RSS 2.5 MB (CPython 3.11)
        den = lcm(*[m._den for m, _ in terms])
        re = im = [0] * (self.dim * self.dim)
        for m, c in terms:
            f = c * (den // m._den)
            re = [x + f * y for x, y in zip(re, m._re)]
            im = [x + f * y for x, y in zip(im, m._im)]
        return ExactMatrix._from_rep(self.dim, _kernel_py.normalize(den, re, im))

    def defect(self, terms):
        """The word combination ``terms`` on this pair, for ``_from_defects``:
        x - y as the pair (word(x), word(y)), which is decided by equality,
        and any other combination as its ``combo`` matrix."""
        if len(terms) == 2:
            (x, c), (y, d) = terms
            if c == 1 and d == -1:
                return self.word(x), self.word(y)
        return self.combo(terms)

    def _cached(self, key, compute):
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def nil_degree(self, w):
        return self._cached(("nil", w), lambda: nilpotency_degree(self.word(w)))

    def radical(self, w):
        return self._cached(("radical", w), lambda: poly_radical(charpoly(self.word(w))))

    def radical_nonzero(self, w):
        """``poly_radical_nonzero`` of the charpoly, derived from the radical.

        The radical is monic and squarefree, so x divides it at most once and
        dividing that factor out leaves the monic radical of the nonzero roots.
        """
        return self._cached(("radical_nonzero", w), lambda: self.radical(w).strip_zero_roots())


def _from_defects(defects):
    """(holds, residual, witness) over defects that must vanish.

    A defect is a matrix that must be zero or a pair (lhs, rhs) that must be
    equal; a pair is decided by equality and lhs - rhs is built only when the
    two differ. The first nonzero defect is the witness.
    """
    residual = 0.0
    witness = None
    for d in defects:
        if isinstance(d, tuple):
            lhs, rhs = d
            if lhs == rhs:
                continue
            d = lhs - rhs
        elif d.is_zero():
            continue
        residual = max(residual, d.frobenius())
        if witness is None:
            witness = d
    return witness is None, residual, witness


def _bool_result(ok, defect):
    return ok, 0.0 if ok else 1.0, None if ok else defect


def _vacuous():
    """The conclusion of a checker whose unmet hypothesis leaves nothing to
    evaluate, e.g. a nilpotency bound without a nilpotent factor."""
    return True, 0.0, None


# -- word combinations ----------------------------------------------------------
# A word combination is a sequence of (word, c) terms over the letters a, b
# and s = a + b, with c a nonzero int, standing for the sum of c * word; each
# word identity is a list of combinations that must vanish, and
# PairContext.defect evaluates one on a pair. Every word of a combination
# has one length, with s counted as one letter.


def _eq(x, y):
    """Word x equals word y: x - y."""
    return (x, 1), (y, -1)


def _memb(x, y):
    """Word x is in comm(word y): xy - yx."""
    return _eq(x + y, y + x)


def _telescope(n, lhs, s_ab, diff_right):
    """a^n - b^n + lhs - S(a - b), or - (a - b)S if not diff_right, where S is
    s_ab = sum_j a^(n-1-j) b^j or else s_ba = sum_j b^j a^(n-1-j), 0 <= j < n."""
    terms = [("a" * n, 1), ("b" * n, -1), *lhs]
    for j in range(n):
        w = "a" * (n - 1 - j) + "b" * j if s_ab else "b" * j + "a" * (n - 1 - j)
        terms += [(w + "a", -1), (w + "b", 1)] if diff_right else [("a" + w, -1), ("b" + w, 1)]
    return terms


def _power_words(left):
    """(ab)^n = a^n b^n and three words equal to (ba)^n, n = 2, 3, 4: those of
    L1.I.ii (ab in comm(a)) if left, else of L1.II.ii (ab in comm(b))."""
    for n in (2, 3, 4):
        a1, b1, ban = "a" * (n - 1), "b" * (n - 1), "ba" * n
        yield _eq("ab" * n, a1 + "a" + b1 + "b")
        if left:
            yield _eq(ban, "b" + a1 + "a" + b1)
            yield _eq(ban, "ba" + "ab" * (n - 1))
        else:
            yield _eq(ban, a1 + "b" + b1 + "a")
            yield _eq(ban, "ab" * (n - 1) + "ba")
        yield _eq(ban, "b" + a1 + b1 + "a")


def _l1_telescopes(diff_right):
    """The telescoping defects of L1.III.ii (diff_right) or L1.IV.ii, n = 2..5."""
    for n in (2, 3, 4, 5):
        a1, b1 = "a" * (n - 1), "b" * (n - 1)
        if diff_right:
            yield _telescope(n, _eq("b" + a1, a1 + "b"), False, True)
            yield _telescope(n, _eq(b1 + "a", "a" + b1), True, True)
        else:
            yield _telescope(n, _eq("a" + b1, b1 + "a"), False, False)
            yield _telescope(n, _eq(a1 + "b", "b" + a1), True, False)


def _newton(n, left):
    """(a+b)^n less sum_k C(n-1, k-1) (a^(n-k) b^k + b^(n-k) a^k), k = 1..n,
    with the powers in each product swapped if left."""
    terms = [("s" * n, 1)]
    for k in range(1, n + 1):
        i, j = (k, n - k) if left else (n - k, k)
        c = -comb(n - 1, k - 1)
        terms += [("a" * i + "b" * j, c), ("b" * i + "a" * j, c)]
    return terms


def _binom(n):
    """(a+b)^n less the binomial expansion, with a first and with b first."""
    for x, y in (("a", "b"), ("b", "a")):
        yield [("s" * n, 1)] + [(x * k + y * (n - k), -comb(n, k)) for k in range(n + 1)]


# -- checkers -------------------------------------------------------------------
# Each checker maps (ctx, params) to (hypothesis_met, conclude), where
# conclude() gives (holds, residual, witness). The hypothesis is decided
# first and the conclusion builds nothing until it is called, so a caller
# that only counts a vacuous evaluation skips its cost.
#
# The word identities whose hypothesis is a conjunction of RelationReport
# flags are rows of _WORD_IDENTITIES: identity -> (the flags, recipe), where
# recipe(params) yields the word combinations that must vanish in defect
# order, so the first nonzero one is the witness. _word_checker makes their
# checkers; the other identities have checkers of their own.

_POWERS = (1, 2, 3, 4)
_TRIPLE = (1, 2, 3)

_WORD_IDENTITIES = {
    IdentityId.L1_I_i: (
        ("ab_in_comm_a",),
        lambda p: (_memb("a" * n + "b", "a" * m) for n in _POWERS for m in _POWERS),
    ),
    IdentityId.L1_I_ii: (("ab_in_comm_a",), lambda p: _power_words(True)),
    IdentityId.L1_I_iii: (("ab_in_comm_a",), lambda p: [_memb("as", "a")]),
    IdentityId.L1_II_i: (
        ("ab_in_comm_b",),
        lambda p: (_memb("a" + "b" * n, "b" * m) for n in _POWERS for m in _POWERS),
    ),
    IdentityId.L1_II_ii: (("ab_in_comm_b",), lambda p: _power_words(False)),
    IdentityId.L1_II_iii: (("ab_in_comm_b",), lambda p: [_memb("sb", "b")]),
    IdentityId.L1_III_i: (
        ("comm_l",),
        lambda p: (
            _memb("a" * n + "b" * m, "a" * k) for n in _TRIPLE for m in _TRIPLE for k in _TRIPLE
        ),
    ),
    IdentityId.L1_III_ii: (("comm_l",), lambda p: _l1_telescopes(True)),
    IdentityId.L1_III_iii: (("comm_l",), lambda p: [_memb("sa", "s"), _memb("bs", "b")]),
    IdentityId.L1_IV_i: (
        ("comm_r",),
        lambda p: (
            _memb("a" * n + "b" * m, "b" * k) for n in _TRIPLE for m in _TRIPLE for k in _TRIPLE
        ),
    ),
    IdentityId.L1_IV_ii: (("comm_r",), lambda p: _l1_telescopes(False)),
    IdentityId.L1_IV_iii: (("comm_r",), lambda p: [_memb("as", "s"), _memb("sb", "b")]),
    IdentityId.R_iii: (
        ("comm_w",),
        lambda p: (_memb("a" * n, "b" * m) for n in _TRIPLE for m in _TRIPLE if n * m >= 2),
    ),
    # aab = aba = baa, the words of ab_in_comm_a and ba_in_comm_a
    IdentityId.R_v: (
        ("ab_in_comm_a", "ba_in_comm_a"),
        lambda p: (_memb("a" * n, "b" * m) for n in (2, 3, 4) for m in _TRIPLE),
    ),
    IdentityId.NEWTON_R: (("comm_r",), lambda p: [_newton(p.get("n", 3), False)]),
    IdentityId.NEWTON_L: (("comm_l",), lambda p: [_newton(p.get("n", 3), True)]),
}


def _word_checker(conjuncts, recipe):
    """The checker of a _WORD_IDENTITIES row."""

    def check(ctx, p):
        rep = ctx.report
        hyp = all(getattr(rep, flag) for flag in conjuncts)
        return hyp, lambda: _from_defects(map(ctx.defect, recipe(p)))

    return check


# With A = a - lam and B = b - mu, ABA - AAB = A(BA - AB) = (a - lam)(ba - ab)
# and BAA - ABA = (ba - ab)(a - lam), whatever mu is.
def _shifted_memb(ctx, x, lam):
    """Defect of x = ab or ba in comm(a), less lam(ba - ab); the pair itself
    when lam = 0."""
    if lam.is_zero():
        return ctx.defect(_memb(x, "a"))
    w = ctx.word
    return (w(x + "a") - w("a" + x)) - (w("ba") - w("ab")) * lam


def _chk_r_i(ctx, p):
    lam = Scalar.coerce(p.get("lam", 0))
    hyp = ctx.report.ab_in_comm_a and (ctx.report.comm or lam.is_zero())
    return hyp, lambda: _from_defects([_shifted_memb(ctx, "ab", lam)])


def _chk_r_ii(ctx, p):
    lam = Scalar.coerce(p.get("lam", 0))
    hyp = ctx.report.ba_in_comm_a and (ctx.report.comm or lam.is_zero())
    return hyp, lambda: _from_defects([_shifted_memb(ctx, "ba", lam)])


def _chk_r_iv(ctx, p):
    # comm_l and comm_r of the pair (s, b), from the memoized words
    rep = ctx.report

    def defects():
        if rep.comm_l:
            yield _memb("sb", "s")
            yield _memb("bs", "b")
        if rep.comm_r:
            yield _memb("sb", "b")
            yield _memb("bs", "s")

    return rep.comm_l or rep.comm_r, lambda: _from_defects(map(ctx.defect, defects()))


def _chk_binom(ctx, p):
    n = p.get("n", 3)
    hyp = ctx.report.comm_w and n != 2
    return hyp, lambda: _from_defects(map(ctx.defect, _binom(n)))


def _chk_telescope(ctx, p):
    n = p.get("n", 3)
    hyp = ctx.report.comm_w and n != 2
    return hyp, lambda: _from_defects(
        ctx.defect(_telescope(n, [], s_ab, diff_right))
        for s_ab in (False, True)
        for diff_right in (True, False)
    )


def _chk_exp_corr(ctx, p):
    hyp = (
        ctx.report.comm_w
        and ctx.nil_degree("a") is not None
        and ctx.nil_degree("b") is not None
    )
    if not hyp:
        return False, _vacuous
    if ctx.nil_degree("s") is None:
        return True, lambda: (False, 1.0, "a+b not nilpotent")

    def conclude():
        ea = exp_exact_nilpotent(ctx.a)
        eb = exp_exact_nilpotent(ctx.b)
        es = exp_exact_nilpotent(ctx.s)
        commutator = ctx.ab - ctx.ba
        defects = [
            (ea * eb, es + commutator * Fraction(1, 2)),
            (ea * eb - eb * ea, commutator),
        ]
        return _from_defects(defects)

    return True, conclude


def _chk_nil_prod(ctx, p):
    rep = ctx.report
    qa, qb = ctx.nil_degree("a"), ctx.nil_degree("b")
    via_ab = rep.ab_in_comm_a or rep.ab_in_comm_b
    via_ba = rep.ba_in_comm_a or rep.ba_in_comm_b
    if not ((qa is not None or qb is not None) and (via_ab or via_ba)):
        return False, _vacuous

    def conclude():
        q = min(d for d in (qa, qb) if d is not None)
        dab, dba = ctx.nil_degree("ab"), ctx.nil_degree("ba")
        ok = dab is not None and dba is not None
        if ok and via_ab:
            ok = dab <= q and dba <= q + 1
        if ok and via_ba:
            ok = dba <= q and dab <= q + 1
        return _bool_result(ok, f"d(ab)={dab}, d(ba)={dba}, bound q={q}")

    return True, conclude


def _chk_nil_sum(ctx, p):
    rep = ctx.report
    qa, qb = ctx.nil_degree("a"), ctx.nil_degree("b")
    if not (qa is not None and qb is not None and (rep.comm_l or rep.comm_r)):
        return False, _vacuous

    def conclude():
        ds = ctx.nil_degree("s")
        ok = ds is not None and abs(qa - qb) <= ds <= qa + qb
        return _bool_result(ok, f"d(a)={qa}, d(b)={qb}, d(a+b)={ds}")

    return True, conclude


def _in_comm(ctx, x, y):
    lhs, rhs = ctx.defect(_memb(x, y))
    return lhs == rhs


def _detect_power_membership(ctx, x, base):
    """Smallest n <= dim with word x in comm(base^n), or None."""
    for n in range(1, ctx.dim + 1):
        if _in_comm(ctx, x, base * n):
            return n
    return None


def _chk_nil_tele(ctx, p):
    # applicability rests on the membership search, so it is decided in full
    rep = ctx.report
    n_given = p.get("n")
    orders = []
    if rep.comm_l:
        n = n_given if n_given is not None else _detect_power_membership(ctx, "b", "a")
        if n is not None and _in_comm(ctx, "b", "a" * n):
            orders += [(m, True) for m in (n + 1, n + 2, n + 3)]
    if rep.comm_r:
        n = n_given if n_given is not None else _detect_power_membership(ctx, "a", "b")
        if n is not None and _in_comm(ctx, "a", "b" * n):
            orders += [(m, False) for m in (n + 1, n + 2, n + 3)]
    return bool(orders), lambda: _from_defects(
        ctx.defect(_telescope(m, [], False, diff_right)) for m, diff_right in orders
    )


def _chk_rad_prod(ctx, p):
    rep = ctx.report
    hyp = rep.ab_in_comm_a or rep.ab_in_comm_b
    r = ctx.radical
    return hyp, lambda: (*radius_product_bound(r("a"), r("b"), r("ab")), None)


def _chk_rad_sum(ctx, p):
    rep = ctx.report
    hyp = rep.comm_l or rep.comm_r
    r = ctx.radical
    return hyp, lambda: (*radius_sum_bound(r("a"), r("b"), r("s")), None)


def _chk_quasi_closure(ctx, p):
    rep = ctx.report
    qa, qb = ctx.nil_degree("a"), ctx.nil_degree("b")
    sum_branch = qa is not None and qb is not None and (rep.comm_l or rep.comm_r)
    prod_branch = (qa is not None or qb is not None) and (
        rep.ab_in_comm_a or rep.ab_in_comm_b or rep.ba_in_comm_a or rep.ba_in_comm_b
    )
    if not (sum_branch or prod_branch):
        return False, _vacuous

    def conclude():
        ok = True
        if sum_branch:
            ok = ok and ctx.nil_degree("s") is not None
        if prod_branch:
            ok = ok and ctx.nil_degree("ab") is not None and ctx.nil_degree("ba") is not None
        return _bool_result(ok, "nilpotency lost")

    return True, conclude


def _poly_defect(ok, lhs, rhs):
    if ok:
        return True, 0.0, None
    return False, 1.0, f"{lhs.literal()} vs {rhs.literal()}"


def _chk_spec_incl(ctx, p):
    def conclude():
        ra, rs = ctx.radical_nonzero("a"), ctx.radical_nonzero("s")
        return _poly_defect(ra.divides(rs), ra, rs)

    return ctx.report.ba_in_comm_a and ctx.nil_degree("b") is not None, conclude


def _chk_spec_eq_n2(ctx, p):
    def conclude():
        ra, rs = ctx.radical_nonzero("a"), ctx.radical_nonzero("s")
        return _poly_defect(ra == rs, ra, rs)

    return ctx.report.ba_in_comm_a and ctx.word("bb").is_zero(), conclude


def _chk_spec_eq_w(ctx, p):
    def conclude():
        fa, fs = ctx.radical("a"), ctx.radical("s")
        return _poly_defect(fa == fs, fa, fs)

    return ctx.report.comm_w and ctx.nil_degree("b") is not None, conclude


def _chk_ker_incl(ctx, p):
    lam = Scalar.coerce(p.get("lam", 1))
    hyp = (
        not lam.is_zero()
        and ctx.report.ba_in_comm_a
        and ctx.nil_degree("b") is not None
    )
    if not hyp:
        return False, _vacuous

    def conclude():
        ok = kernel_inclusion_forward(ctx.a, ctx.b, lam)
        if ctx.word("bb").is_zero() or ctx.report.ab_in_comm_b:
            ok = ok and kernel_inclusion_reverse(ctx.a, ctx.b, lam)
        return _bool_result(ok, f"kernel inclusion failed at lam={lam.literal()}")

    return True, conclude


def _chk_kriterion_range(ctx, p):
    def conclude():
        first, second = range_kernel_criterion(ctx.b, ctx.a)
        ok = first == ctx.report.ab_in_comm_a and second == ctx.report.ba_in_comm_a
        return _bool_result(ok, "range/kernel criterion disagrees with product flags")

    return True, conclude


# the identities with a checker of their own, in catalog order
_BESPOKE = {
    IdentityId.R_i: _chk_r_i,
    IdentityId.R_ii: _chk_r_ii,
    IdentityId.R_iv: _chk_r_iv,
    IdentityId.BINOM: _chk_binom,
    IdentityId.TELESCOPE: _chk_telescope,
    IdentityId.EXP_CORR: _chk_exp_corr,
    IdentityId.NIL_PROD: _chk_nil_prod,
    IdentityId.NIL_SUM: _chk_nil_sum,
    IdentityId.NIL_TELE: _chk_nil_tele,
    IdentityId.RAD_PROD: _chk_rad_prod,
    IdentityId.RAD_SUM: _chk_rad_sum,
    IdentityId.QUASI_CLOSURE: _chk_quasi_closure,
    IdentityId.SPEC_INCL: _chk_spec_incl,
    IdentityId.SPEC_EQ_N2: _chk_spec_eq_n2,
    IdentityId.SPEC_EQ_W: _chk_spec_eq_w,
    IdentityId.KER_INCL: _chk_ker_incl,
    IdentityId.KRITERION_RANGE: _chk_kriterion_range,
}

_CHECKERS = {
    **{ident: _word_checker(*row) for ident, row in _WORD_IDENTITIES.items()},
    **_BESPOKE,
}


# the parameters an identity reads; check_identity rejects any other
_READS = {
    IdentityId.NEWTON_R: ("n",),
    IdentityId.NEWTON_L: ("n",),
    IdentityId.BINOM: ("n",),
    IdentityId.TELESCOPE: ("n",),
    IdentityId.NIL_TELE: ("n",),
    IdentityId.R_i: ("lam", "mu"),
    IdentityId.R_ii: ("lam", "mu"),
    IdentityId.KER_INCL: ("lam",),
}


def identity_catalog():
    """All identity ids in catalog order."""
    return list(IdentityId)


# the parameter grids of verify_suite, built once and only read
_NEWTON_GRID = tuple({"n": n} for n in (2, 3, 4, 5, 6, 7, 8))
_BINOM_GRID = tuple({"n": n} for n in (1, 2, 3, 4, 5, 6))
_LAM_MU_GRID = (
    {"lam": Scalar(0), "mu": Scalar(0)},
    {"lam": Scalar(0), "mu": Scalar(1)},
    {"lam": Scalar(1), "mu": Scalar(0)},
)
_KER_INCL_GRID = ({"lam": Scalar(1)}, {"lam": Scalar(-1)}, {"lam": Scalar(0, 1)})


def _suite_plan(identity):
    """Parameter grid for one identity inside verify_suite."""
    if identity in (IdentityId.NEWTON_R, IdentityId.NEWTON_L):
        return _NEWTON_GRID
    if identity in (IdentityId.BINOM, IdentityId.TELESCOPE):
        return _BINOM_GRID
    if identity in (IdentityId.R_i, IdentityId.R_ii):
        return _LAM_MU_GRID
    if identity is IdentityId.KER_INCL:
        return _KER_INCL_GRID
    return ({},)


# every (identity, params) evaluation of one pair, in report order
_SUITE_EVALUATIONS = tuple(
    (identity, params) for identity in IdentityId for params in _suite_plan(identity)
)


def _run_checker(identity, ctx, params, invert=False, skip_vacuous=False):
    """The checker's result; with ``skip_vacuous`` None for an unmet
    hypothesis, whose conclusion is then never evaluated."""
    hyp, conclude = _CHECKERS[identity](ctx, params)
    if skip_vacuous and not hyp:
        return None
    ok, residual, witness = conclude()
    if invert and hyp:
        ok = not ok
    return IdentityResult(
        identity=identity,
        hypothesis_met=hyp,
        holds=ok,
        residual=residual,
        params=params,
        witness=witness,
    )


def check_identity(identity, a, b, n=None, lam=None, mu=None):
    """Check one catalog identity on the ordered pair (a, b); n must be an int >= 1.

    A parameter the identity does not read raises ValueError.
    """
    if not isinstance(identity, IdentityId):
        try:
            identity = IdentityId(identity)
        except ValueError as exc:
            raise UnknownIdentityError(str(identity)) from exc
    params = {}
    if n is not None:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be an int >= 1, got {n!r}")
        params["n"] = n
    if lam is not None:
        params["lam"] = Scalar.coerce(lam)
    if mu is not None:
        params["mu"] = Scalar.coerce(mu)
    for name in params:
        if name not in _READS.get(identity, ()):
            raise ValueError(f"{identity.value} does not read the parameter {name}")
    return _run_checker(identity, PairContext(a, b), params)


# -- suite ------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    config: dict
    identities: dict
    totals: dict

    @property
    def failures(self):
        return self.totals["fail"]

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "config": self.config,
            "identities": self.identities,
            "totals": self.totals,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def verify_suite(
    classes=None,
    dims=(2, 3, 4),
    samples_per_class=250,
    seed=7,
    inject_fault=None,
    progress=None,
):
    """Run the whole identity catalog over sampled pairs of each relation class.

    Sampling is deterministic in (seed, class, index). ``inject_fault`` names
    an identity whose computed verdict is inverted on every evaluation, a
    self-test that the harness records failures. The pairs are checked on
    every CPU the process may use and merged in (class, index) order, so the
    report and the ``progress`` calls do not depend on the number of CPUs.
    """
    from .instances import RelationClass, derive_seed

    if classes is None:
        classes = list(RelationClass)
    else:
        classes = [RelationClass(c) for c in classes]
        if len(set(classes)) < len(classes):
            raise ValueError(f"relation classes repeat: {','.join(c.value for c in classes)}")
    dims = list(dims)
    if not dims or samples_per_class < 0:
        raise ValueError("dims must be nonempty and samples_per_class >= 0")
    if inject_fault is not None:
        inject_fault = IdentityId(inject_fault)

    jobs = []
    for cls in classes:
        for i in range(samples_per_class):
            dim = dims[i % len(dims)]
            strict = cls is not RelationClass.COMM and not (
                cls is RelationClass.COMM_W and dim < 3
            )
            jobs.append((cls, i, dim, derive_seed(seed, cls.value, i), strict))
    counts = {
        ident.value: {"pass": 0, "vacuous": 0, "fail": 0, "first_failure": None}
        for ident in IdentityId
    }
    outcomes = _outcomes(jobs, lambda job: _pair_outcome(job, inject_fault))
    try:
        for (cls, i, *_), (verdicts, failures) in zip(jobs, outcomes):
            for (identity, _), verdict in zip(_SUITE_EVALUATIONS, verdicts):
                slot = counts[identity.value]
                slot[verdict] += 1
                if verdict == "fail" and slot["first_failure"] is None:
                    slot["first_failure"] = failures[identity.value]
            if progress is not None:
                progress(cls.value, i)
    finally:
        outcomes.close()

    totals = {"pass": 0, "vacuous": 0, "fail": 0}
    for slot in counts.values():
        for key in totals:
            totals[key] += slot[key]
    config = {
        "classes": [c.value for c in classes],
        "dims": dims,
        "samples_per_class": samples_per_class,
        "seed": seed,
        "inject_fault": inject_fault.value if inject_fault else None,
    }
    return SuiteReport(config=config, identities=counts, totals=totals)


def _pair_outcome(job, inject_fault):
    """Sample one pair and run the suite plan on it.

    Returns the verdicts in ``_SUITE_EVALUATIONS`` order and, keyed by
    identity, the payload of each failing identity's first failing
    evaluation on this pair. A pair without a failure renders no literal.
    """
    from .instances import sample_pair

    cls, i, dim, pair_seed, strict = job
    a, b = pair = sample_pair(cls, dim, pair_seed, require_noncommuting=strict)
    ctx = PairContext.__new__(PairContext)
    ctx._init(pair.words, pair.report)
    verdicts, failures = [], {}
    for identity, params in _SUITE_EVALUATIONS:
        res = _run_checker(
            identity, ctx, params, invert=identity is inject_fault, skip_vacuous=True
        )
        verdict = "vacuous" if res is None else res.verdict
        verdicts.append(verdict)
        if verdict == "fail" and identity.value not in failures:
            failures[identity.value] = {
                "class": cls.value,
                "dim": dim,
                "index": i,
                "seed": pair_seed,
                "a": a.literal(),
                "b": b.literal(),
                "params": _json_params(params),
                "residual": float(res.residual),
                "defect": res.defect,
            }
    return verdicts, failures


def _worker_count(jobs):
    """Processes that check ``jobs`` pairs: one per CPU the process may run
    on, at most one per pair, and one where forking is unsafe (no
    ``os.fork``, or more than one thread in the process)."""
    import os

    if not hasattr(os, "fork"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        threads = threading.active_count()
    if threads > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, jobs))


def _outcomes(jobs, check):
    """Yield ``check(job)`` for every job, in job order.

    With W workers, job k is checked by worker k mod W. Worker 0 is this
    process; the others are forked children that pickle each outcome into
    a pipe, and as their last record the exception that ended them, if one
    did. A record that is an exception is raised here at its job's turn,
    and a missing or cut record (pickle marks where a record ends) is a
    ``RuntimeError``. Where no pipe or child can be made (out of processes,
    memory or file descriptors), the children made so far are stopped and
    every job is checked here. Every child is killed and reaped before the
    generator ends.
    """
    import os
    import pickle
    import signal

    workers = _worker_count(len(jobs))
    pids, readers = [], []

    def stop():
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        for reader in readers:
            reader.close()
        pids.clear()
        readers.clear()

    try:
        try:
            for w in range(1, workers):
                r, wfd = os.pipe()
                readers.append(os.fdopen(r, "rb"))
                try:
                    pid = os.fork()
                except OSError:
                    os.close(wfd)
                    raise
                if pid == 0:
                    status = 1
                    try:
                        for reader in readers:
                            reader.close()
                        with os.fdopen(wfd, "wb") as out:
                            for job in jobs[w::workers]:
                                try:
                                    record = check(job)
                                except BaseException as exc:
                                    record = exc
                                pickle.dump(record, out)
                                out.flush()
                                if isinstance(record, BaseException):
                                    break
                        status = 0
                    finally:
                        os._exit(status)
                os.close(wfd)
                pids.append(pid)
        except OSError:
            stop()
            workers = 1
        for k, job in enumerate(jobs):
            w = k % workers
            if w == 0:
                yield check(job)
                continue
            try:
                record = pickle.load(readers[w - 1])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"verify worker {w} exited before sending pair {k}") from None
            if isinstance(record, BaseException):
                raise record
            yield record
    finally:
        stop()
