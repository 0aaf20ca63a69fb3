"""Catalog of verifiable consequences of one-sided commutation hypotheses.

Every identity in the catalog is a statement "hypothesis implies
conclusion", declared once, in ``_IDENTITIES``. The hypothesis is a
disjunction of branches, each a conjunction of named atoms: relation flags,
parameter atoms such as ``lam != 0``, and atoms of the pair's words,
``nil(w)``, ``zero(w)`` and NIL_TELE's ``x in comm(base^n)``. The
conclusion is an exact matrix or polynomial equation, a membership, a
degree bound or a spectral-radius inequality. The README's identity catalog
states each hypothesis. Checking an identity on a concrete pair yields an
:class:`IdentityResult` with a three-way verdict:

    pass     hypothesis met, conclusion holds
    fail     hypothesis met, conclusion violated
    vacuous  hypothesis not met

A conclusion is stated either of the pair or per branch, and that decides
what ``check_identity`` reports on a vacuous pair. A conclusion of the pair
is evaluated wherever it is asked for, so a vacuous result carries its raw
outcome informationally. A conclusion per branch is the conjunction of the
conclusions of the branches that hold, so a vacuous pair has none to
evaluate, and the result holds with residual 0.0 and no witness. Seven
identities state theirs per branch: R.iv, NIL_TELE, NIL_PROD and
QUASI_CLOSURE, whose branches differ, and EXP_CORR, NIL_SUM and KER_INCL,
whose conclusions need the nilpotency that their hypothesis asserts.

The word identities (L1.*, R.*, NEWTON_*, BINOM, TELESCOPE, NIL_TELE,
KRITERION_RANGE) declare word combinations whose vanishing implies their
conclusion: sequences of (word, int) terms over the letters a, b and
s = a + b, which ``PairContext.defect`` evaluates. A pair evaluates R.i and
R.ii as a matrix equation in lam, and KRITERION_RANGE as the range/kernel
criterion, which ran(x) in ker(y) iff yx = 0 reduces to its words.

RAD_PROD and RAD_SUM compare spectral radii with zero tolerance: the
charpoly radicals of the pair's words go to ``algebraic``, which decides
each bound exactly, and no checker reads a float or loads NumPy.

Every checker reads the pair through its ``PairContext`` (defined in
``relations``, which alone keeps the pair's words): the flags, the words
and the spectral data, each computed once per pair. KER_INCL and
KRITERION_RANGE call the cores of ``structure``'s kernel inclusions and
range/kernel criterion, with the hypotheses, the degree of b and
c = ba - ab taken from the context, so no hypothesis is decided twice and
no image basis is built. ``check_identity`` builds a context per call, and
``verify_suite`` checks the very context with which ``sample_pair``
accepted the pair, so its flags are decided once.

``verify_suite`` samples pairs from the relation-class samplers and runs
the whole catalog over them deterministically, producing a JSON-stable
report with per-identity counts and a first-failure witness. It decides
each hypothesis first and counts an unmet one as vacuous without
evaluating the conclusion, which the report never reads. A fault can
be injected into one identity, whose pass and fail verdicts then swap, to
prove the harness actually detects failures.

``verify_suite`` serves most met word-identity hypotheses from proofs, not
from products. A word conclusion on the branches that hold is a theorem of
Q<a,b> when its combinations lie in the ideal generated by the word
relations of those branches' atoms (``freealg``), so it vanishes in every
algebra where those relations hold. The claims are derived from the
declarations (``_suite_claims``), decided once per process in a proof table
(``_proof_table``), and a met hypothesis of a proved claim counts as a pass
without multiplying a word. This is exact: the hypothesis is still decided
on the pair's exact matrices, where a flag is true only when its exact
products agree, and the conclusion then holds by a theorem. A claim the
table does not prove is evaluated, and ``check_identity`` evaluates every
conclusion.

The flags and parameter atoms of every branch are read before any atom of
the pair's words. So an evaluation whose every branch has a false flag or
parameter atom is vacuous, and one whose live branches read no word and
whose conclusion the table proves is a pass, whatever the pair's matrices:
both verdicts depend only on the relation report. The proof table keeps
one plan per report (``_report_plan``), built on the first pair with that
report and kept as long as the table: the served verdicts, and for each
open evaluation its parameters and its live branches, those whose flags
and parameter atoms hold. A pair copies the verdicts and runs a checker
only on the open evaluations, deciding the word atoms of their live
branches; an injected fault then swaps the pass and fail verdicts of its
identity, and decides nothing anew. The derived flags are functions of
the five primitive ones, so a table holds at most 32 plans.

Each pair comes from its own seed, derived from (seed, class, index), so
the pairs are independent: ``verify_suite`` checks them in forked worker
processes, one per usable CPU, which inherit the table and every plan
built before the fork. A pair's outcome, its verdicts and one
payload per failing identity, is pickled through a pipe, and the outcomes
are merged in (class, index) order, which alone decides each first failure.
The report is the same on any number of CPUs, and where no worker can be
forked every pair is checked in the calling process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple

from .algebraic import radius_product_bound, radius_sum_bound
from .errors import UnknownIdentityError
from .exact import ExactMatrix, exp_exact_nilpotent
from .relations import _REPORT_NAMES, PairContext
from .scalar import Scalar
from .structure import _criterion, _kernel_annihilated

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


def _telescopes(n):
    """TELESCOPE's four orders: S from s_ba and s_ab, with a - b on each side."""
    for s_ab in (False, True):
        for diff_right in (True, False):
            yield _telescope(n, [], s_ab, diff_right)


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
    """The one combination (a+b)^n less sum_k C(n-1, k-1) (a^(n-k) b^k +
    b^(n-k) a^k), k = 1..n, with the powers in each product swapped if left."""
    terms = [("s" * n, 1)]
    for k in range(1, n + 1):
        i, j = (k, n - k) if left else (n - k, k)
        c = -comb(n - 1, k - 1)
        terms += [("a" * i + "b" * j, c), ("b" * i + "a" * j, c)]
    yield terms


def _binom(n):
    """(a+b)^n less the binomial expansion, with a first and with b first."""
    for x, y in (("a", "b"), ("b", "a")):
        yield [("s" * n, 1)] + [(x * k + y * (n - k), -comb(n, k)) for k in range(n + 1)]


# R.iv's combinations per branch: comm_l or comm_r of the pair (s, b)
_R_IV = {
    "comm_l": (_memb("sb", "s"), _memb("bs", "b")),
    "comm_r": (_memb("sb", "b"), _memb("bs", "s")),
}

# KRITERION_RANGE's words, a(ba - ab) = aba - aab and (ba - ab)a = baa - aba:
# as ran(x) is in ker(y) exactly when yx = 0, the criterion is then the flags
_KRITERION = (
    (("aba", 1), ("aab", -1), ("aba", -1), ("aab", 1)),
    (("baa", 1), ("aba", -1), ("baa", -1), ("aba", 1)),
)


def _nil_tele(q, held):
    """NIL_TELE's combinations: under comm_l and b in comm(a^n), the
    telescopes of orders n+1..n+3 with a - b on the right; under comm_r and
    a in comm(b^n), with a - b on the left."""
    for branch, n in held:
        for m in (n + 1, n + 2, n + 3):
            yield _telescope(m, [], False, branch.label == "comm_l")


# With A = a - lam and B = b - mu, ABA - AAB = A(BA - AB) = (a - lam)(ba - ab)
# and BAA - ABA = (ba - ab)(a - lam), whatever mu is.
def _shifted(x):
    """The words and the conclusion of R.i (x = ab) or R.ii (x = ba): x is
    in comm(a), less lam(ba - ab); at lam != 0 comm adds ba = ab."""

    def words(q, held):
        return [_memb(x, "a")] + ([] if q["lam"].is_zero() else [_eq("ba", "ab")])

    def conclude(ctx, q, held):
        w = ctx.word
        return _from_defects([(w(x + "a") - w("a" + x)) - (w("ba") - w("ab")) * q["lam"]])

    return words, conclude


# -- conclusions that are not word combinations ----------------------------------
# Each maps (ctx, q, held) to (holds, residual, witness): q holds the
# parameters with their defaults, and held the branches of the hypothesis
# that hold on the pair, each with its power n (see _held).


def _exp_corr(ctx, q, held):
    if ctx.nil_degree("s") is None:
        return False, 1.0, "a+b not nilpotent"
    ea = exp_exact_nilpotent(ctx.a)
    eb = exp_exact_nilpotent(ctx.b)
    es = exp_exact_nilpotent(ctx.s)
    commutator = ctx.ab - ctx.ba
    defects = [
        (ea * eb, es + commutator * Fraction(1, 2)),
        (ea * eb - eb * ea, commutator),
    ]
    return _from_defects(defects)


def _nil_prod(ctx, q, held):
    """d(x) <= q and d(y) <= q + 1 for each held branch of x in comm(a) or
    comm(b), {x, y} = {ab, ba}, where q is the least degree of a held
    branch's nilpotent factor."""
    bound = min(ctx.nil_degree(w) for branch, _ in held for w in branch.nil)
    d = {"ab": ctx.nil_degree("ab"), "ba": ctx.nil_degree("ba")}
    ok = None not in d.values()
    for x, y in ("ab", "ba"), ("ba", "ab"):
        if ok and any(branch.label.startswith(x) for branch, _ in held):
            ok = d[x] <= bound and d[y] <= bound + 1
    return _bool_result(ok, f"d(ab)={d['ab']}, d(ba)={d['ba']}, bound q={bound}")


def _nil_sum(ctx, q, held):
    qa, qb, ds = ctx.nil_degree("a"), ctx.nil_degree("b"), ctx.nil_degree("s")
    ok = ds is not None and abs(qa - qb) <= ds <= qa + qb
    return _bool_result(ok, f"d(a)={qa}, d(b)={qb}, d(a+b)={ds}")


def _quasi_closure(ctx, q, held):
    """a + b is nilpotent on a held branch of comm_l or comm_r, and ab and ba
    are on a held branch of a product flag."""
    labels = {branch.label for branch, _ in held}
    words = ["s"] if labels & {"comm_l", "comm_r"} else []
    if labels - {"comm_l", "comm_r"}:
        words += ["ab", "ba"]
    ok = all(ctx.nil_degree(w) is not None for w in words)
    return _bool_result(ok, "nilpotency lost")


def _rad_prod(ctx, q, held):
    r = ctx.radical
    return (*radius_product_bound(r("a"), r("b"), r("ab")), None)


def _rad_sum(ctx, q, held):
    r = ctx.radical
    return (*radius_sum_bound(r("a"), r("b"), r("s")), None)


def _poly_defect(ok, lhs, rhs):
    if ok:
        return True, 0.0, None
    return False, 1.0, f"{lhs.literal()} vs {rhs.literal()}"


def _spec_incl(ctx, q, held):
    ra, rs = ctx.radical_nonzero("a"), ctx.radical_nonzero("s")
    return _poly_defect(ra.divides(rs), ra, rs)


def _spec_eq_n2(ctx, q, held):
    ra, rs = ctx.radical_nonzero("a"), ctx.radical_nonzero("s")
    return _poly_defect(ra == rs, ra, rs)


def _spec_eq_w(ctx, q, held):
    fa, fs = ctx.radical("a"), ctx.radical("s")
    return _poly_defect(fa == fs, fa, fs)


def _ker_incl(ctx, q, held):
    # kernel_inclusion_forward, then _reverse when bb == 0 (power 2) or ab in comm(b)
    lam = q["lam"]
    shift, p = ctx.word("") * lam, ctx.nil_degree("b")
    x, y = ctx.a - shift, ctx.s - shift
    ok = _kernel_annihilated(x, y, p)
    if ok and (ctx.word("bb").is_zero() or ctx.report.ab_in_comm_b):
        ok = _kernel_annihilated(y, x, 2 if ctx.word("bb").is_zero() else p)
    return _bool_result(ok, f"kernel inclusion failed at lam={lam.literal()}")


def _kriterion_range(ctx, q, held):
    first, second = _criterion(ctx.a, ctx.ba - ctx.ab)  # range_kernel_criterion(b, a)
    ok = first == ctx.report.ab_in_comm_a and second == ctx.report.ba_in_comm_a
    return _bool_result(ok, "range/kernel criterion disagrees with product flags")


def _in_comm(ctx, x, y):
    lhs, rhs = ctx.defect(_memb(x, y))
    return lhs == rhs


def _detect_power_membership(ctx, x, base):
    """Smallest n <= dim with word x in comm(base^n), or None."""
    for n in range(1, ctx.dim + 1):
        if _in_comm(ctx, x, base * n):
            return n
    return None


# -- hypotheses -------------------------------------------------------------------


class _Branch:
    """One conjunction of a hypothesis, written "x & y": a hypothesis is a
    disjunction of branches, "x & y | z", and "" is the one empty branch.
    Its atoms are parsed into ``flags`` (RelationReport flags), ``params``
    ("lam = 0", "lam != 0" or "n != 2", as name, whether it is an equality,
    value), and the atoms of the pair's words: ``nil`` ("nil(w)", w is
    nilpotent), ``zero`` ("zero(w)", w is 0) and ``member`` (x, base) for
    NIL_TELE's "x in comm(base^n)", at the parameter n or else the least
    n <= dim. Its ``label`` is its flags, joined, and it is ``decided``
    where it has no atom of the pair's words."""

    __slots__ = ("atoms", "flags", "params", "nil", "zero", "member", "label", "decided")

    def __init__(self, text):
        self.atoms = tuple(text.split(" & ")) if text else ()
        self.flags, self.params, self.nil, self.zero, self.member = [], [], [], [], None
        for atom in self.atoms:
            fn, _, word = atom[:-1].partition("(")
            parts = atom.split(" ")
            if atom in _REPORT_NAMES:
                self.flags.append(atom)
            elif fn in ("nil", "zero") and atom.endswith(")") and word and set(word) <= set("abs"):
                getattr(self, fn).append(word)
            elif len(parts) == 3 and parts[0] in ("lam", "n") and parts[1] in ("=", "!="):
                self.params.append((parts[0], parts[1] == "=", int(parts[2])))
            elif parts[0] in ("a", "b") and parts[1:] in (["in", "comm(a^n)"], ["in", "comm(b^n)"]):
                self.member = parts[0], parts[2][5]
            else:
                raise ValueError(f"unknown atom {atom!r}")
        self.label = " & ".join(self.flags)
        self.decided = not (self.nil or self.zero or self.member)

    def allows(self, q):
        """Whether the parameter atoms hold for the parameters q."""
        return all((q[name] == value) == equal for name, equal, value in self.params)

    def reported(self, report, q):
        """Whether the flags and the parameter atoms hold."""
        return all(getattr(report, flag) for flag in self.flags) and self.allows(q)

    # loops, not all() over a generator: verify runs this on every live
    # branch of every open evaluation of every pair
    def power(self, ctx, n):
        """False where a word atom fails on the pair, else the power n of the
        membership atom (for n None, the least n <= dim), or n without one."""
        for w in self.nil:
            if ctx.nil_degree(w) is None:
                return False
        for w in self.zero:
            if not ctx.word(w).is_zero():
                return False
        if self.member is None:
            return n
        x, base = self.member
        if n is None:
            n = _detect_power_membership(ctx, x, base)
        return n if n is not None and _in_comm(ctx, x, base * n) else False


@dataclass(frozen=True)
class _Identity:
    """One catalog identity: ``hypothesis``, its conclusion, the parameters
    it reads (name -> default) and its parameter grid in ``verify_suite``.

    ``words(q, held)`` lists the word combinations whose vanishing implies
    the conclusion, which the proof table proves (see PairContext.defect),
    and ``conclude(ctx, q, held)`` evaluates it on a pair, by default as
    ``words``. A conclusion ``per_branch`` is stated for the branches that
    hold, so it is evaluated only over them: on a pair where none holds
    there is nothing to evaluate, and it holds with residual 0.0 and no
    witness. Any other conclusion is of the pair alone, and is evaluated
    wherever it is asked for.
    """

    hypothesis: str
    words: object = None
    conclude: object = None
    per_branch: bool = False
    reads: dict = field(default_factory=dict)
    grid: tuple = ({},)
    branches: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(map(_Branch, self.hypothesis.split(" | "))))

    def conclusion(self, ctx, q, held):
        if self.conclude is not None:
            return self.conclude(ctx, q, held)
        return _from_defects(map(ctx.defect, self.words(q, held)))


_POWERS = (1, 2, 3, 4)
_TRIPLE = (1, 2, 3)
_N = {"n": 3}
_NEWTON_GRID = tuple({"n": n} for n in (2, 3, 4, 5, 6, 7, 8))
_BINOM_GRID = tuple({"n": n} for n in (1, 2, 3, 4, 5, 6))
_LAM_MU = {"lam": Scalar(0), "mu": Scalar(0)}
_LAM_MU_GRID = (
    {"lam": Scalar(0), "mu": Scalar(0)},
    {"lam": Scalar(0), "mu": Scalar(1)},
    {"lam": Scalar(1), "mu": Scalar(0)},
)
_NIL_SUM = "comm_l & nil(a) & nil(b) | comm_r & nil(a) & nil(b)"
_NIL_PROD = " | ".join(
    f"{x}_in_comm_{y} & nil({z})" for x in ("ab", "ba") for y in "ab" for z in "ab"
)

# every identity, declared once, in catalog order
_IDENTITIES = {
    IdentityId.L1_I_i: _Identity(
        "ab_in_comm_a",
        lambda q, held: (_memb("a" * n + "b", "a" * m) for n in _POWERS for m in _POWERS),
    ),
    IdentityId.L1_I_ii: _Identity("ab_in_comm_a", lambda q, held: _power_words(True)),
    IdentityId.L1_I_iii: _Identity("ab_in_comm_a", lambda q, held: [_memb("as", "a")]),
    IdentityId.L1_II_i: _Identity(
        "ab_in_comm_b",
        lambda q, held: (_memb("a" + "b" * n, "b" * m) for n in _POWERS for m in _POWERS),
    ),
    IdentityId.L1_II_ii: _Identity("ab_in_comm_b", lambda q, held: _power_words(False)),
    IdentityId.L1_II_iii: _Identity("ab_in_comm_b", lambda q, held: [_memb("sb", "b")]),
    IdentityId.L1_III_i: _Identity(
        "comm_l",
        lambda q, held: (
            _memb("a" * n + "b" * m, "a" * k) for n in _TRIPLE for m in _TRIPLE for k in _TRIPLE
        ),
    ),
    IdentityId.L1_III_ii: _Identity("comm_l", lambda q, held: _l1_telescopes(True)),
    IdentityId.L1_III_iii: _Identity(
        "comm_l", lambda q, held: [_memb("sa", "s"), _memb("bs", "b")]
    ),
    IdentityId.L1_IV_i: _Identity(
        "comm_r",
        lambda q, held: (
            _memb("a" * n + "b" * m, "b" * k) for n in _TRIPLE for m in _TRIPLE for k in _TRIPLE
        ),
    ),
    IdentityId.L1_IV_ii: _Identity("comm_r", lambda q, held: _l1_telescopes(False)),
    IdentityId.L1_IV_iii: _Identity(
        "comm_r", lambda q, held: [_memb("as", "s"), _memb("sb", "b")]
    ),
    IdentityId.R_i: _Identity(
        "ab_in_comm_a & lam = 0 | ab_in_comm_a & comm & lam != 0",
        *_shifted("ab"), reads=_LAM_MU, grid=_LAM_MU_GRID,
    ),
    IdentityId.R_ii: _Identity(
        "ba_in_comm_a & lam = 0 | ba_in_comm_a & comm & lam != 0",
        *_shifted("ba"), reads=_LAM_MU, grid=_LAM_MU_GRID,
    ),
    IdentityId.R_iii: _Identity(
        "comm_w",
        lambda q, held: (_memb("a" * n, "b" * m) for n in _TRIPLE for m in _TRIPLE if n * m >= 2),
    ),
    IdentityId.R_iv: _Identity(
        "comm_l | comm_r",
        lambda q, held: [c for branch, _ in held for c in _R_IV[branch.label]],
        per_branch=True,
    ),
    # aab = aba = baa, the words of ab_in_comm_a and ba_in_comm_a
    IdentityId.R_v: _Identity(
        "ab_in_comm_a & ba_in_comm_a",
        lambda q, held: (_memb("a" * n, "b" * m) for n in (2, 3, 4) for m in _TRIPLE),
    ),
    IdentityId.NEWTON_R: _Identity(
        "comm_r", lambda q, held: _newton(q["n"], False), reads=_N, grid=_NEWTON_GRID
    ),
    IdentityId.NEWTON_L: _Identity(
        "comm_l", lambda q, held: _newton(q["n"], True), reads=_N, grid=_NEWTON_GRID
    ),
    IdentityId.BINOM: _Identity(
        "comm_w & n != 2", lambda q, held: _binom(q["n"]), reads=_N, grid=_BINOM_GRID
    ),
    IdentityId.TELESCOPE: _Identity(
        "comm_w & n != 2", lambda q, held: _telescopes(q["n"]), reads=_N, grid=_BINOM_GRID
    ),
    IdentityId.EXP_CORR: _Identity(
        "comm_w & nil(a) & nil(b)", conclude=_exp_corr, per_branch=True
    ),
    IdentityId.NIL_PROD: _Identity(_NIL_PROD, conclude=_nil_prod, per_branch=True),
    IdentityId.NIL_SUM: _Identity(_NIL_SUM, conclude=_nil_sum, per_branch=True),
    IdentityId.NIL_TELE: _Identity(
        "comm_l & b in comm(a^n) | comm_r & a in comm(b^n)",
        _nil_tele, per_branch=True, reads={"n": None},
    ),
    IdentityId.RAD_PROD: _Identity("ab_in_comm_a | ab_in_comm_b", conclude=_rad_prod),
    IdentityId.RAD_SUM: _Identity("comm_l | comm_r", conclude=_rad_sum),
    IdentityId.QUASI_CLOSURE: _Identity(
        f"{_NIL_SUM} | {_NIL_PROD}", conclude=_quasi_closure, per_branch=True
    ),
    IdentityId.SPEC_INCL: _Identity("ba_in_comm_a & nil(b)", conclude=_spec_incl),
    IdentityId.SPEC_EQ_N2: _Identity("ba_in_comm_a & zero(bb)", conclude=_spec_eq_n2),
    IdentityId.SPEC_EQ_W: _Identity("comm_w & nil(b)", conclude=_spec_eq_w),
    IdentityId.KER_INCL: _Identity(
        "lam != 0 & ba_in_comm_a & nil(b)",
        conclude=_ker_incl,
        per_branch=True,
        reads={"lam": Scalar(1)},
        grid=({"lam": Scalar(1)}, {"lam": Scalar(-1)}, {"lam": Scalar(0, 1)}),
    ),
    IdentityId.KRITERION_RANGE: _Identity("", lambda q, held: _KRITERION, _kriterion_range),
}


def _params(identity, params):
    """The parameters identity's checks read: its defaults, then params."""
    return {**_IDENTITIES[identity].reads, **params}


def _live(identity, report, q):
    """The branches of identity's hypothesis whose flags and parameter atoms
    hold under the relation report, at the parameters q."""
    return tuple(b for b in _IDENTITIES[identity].branches if b.reported(report, q))


def _held(identity, ctx, q, live=None):
    """The branches of identity's hypothesis that hold on the pair, each with
    its power n (see _Branch.power). A branch's flags and parameter atoms
    are read before its word atoms are decided, through the memo; ``live``,
    where given, holds the branches whose flags and parameter atoms hold
    (``_live``), so only their word atoms are decided."""
    if live is None:
        live = _live(identity, ctx.report, q)
    held, n = [], q.get("n")
    for branch in live:
        power = branch.power(ctx, n)
        if power is not False:
            held.append((branch, power))
    return held


def identity_catalog():
    """All identity ids in catalog order."""
    return list(IdentityId)


# every (identity, params) evaluation of one pair, in report order
_SUITE_EVALUATIONS = tuple(
    (identity, params) for identity in IdentityId for params in _IDENTITIES[identity].grid
)


def _run_checker(identity, ctx, params, proofs=None, planned=None):
    """The checker's result. With ``proofs``, verify_suite's proof table, an
    unmet hypothesis gives None and its conclusion is never evaluated, and
    a met one whose conclusion the table proves holds without evaluation.
    ``planned`` is (q, live) from the plan of ctx's report (``_report_plan``):
    the parameters with their defaults, and the live branches."""
    decl = _IDENTITIES[identity]
    q, live = planned or (_params(identity, params), None)
    held = _held(identity, ctx, q, live)
    if proofs is not None and not held:
        return None
    if (not held and decl.per_branch) or (
        proofs is not None and decl.words and _proved(proofs, identity, held)
    ):
        ok, residual, witness = True, 0.0, None
    else:
        ok, residual, witness = decl.conclusion(ctx, q, held)
    return IdentityResult(
        identity=identity,
        hypothesis_met=bool(held),
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
        if name not in _IDENTITIES[identity].reads:
            raise ValueError(f"{identity.value} does not read the parameter {name}")
    return _run_checker(identity, PairContext(a, b), params)


# -- proofs (see the module docstring) --------------------------------------------


def _groups(held):
    """The held branches as their proof claims group them: those the report
    decides together, and each with a membership atom alone, at its power."""
    decided = [h for h in held if h[0].decided]
    return ([decided] if decided else []) + [[h] for h in held if not h[0].decided]


def _key(identity, group):
    """The key of the claim of identity on a group of held branches."""
    return (identity, *(branch.label for branch, _ in group), group[0][1])


def _suite_claims(max_dim):
    """(key, (flags, extra), combos) of each claim that verify_suite can
    serve from a proof on pairs of dimension <= max_dim: the flags and the
    membership relations of its branches, and the combinations that must
    vanish. At each point of a word identity's grid, a claim is made for
    every set of the branches the report decides that the parameters allow,
    and for each branch with a membership atom at each power n <= max_dim,
    the largest that its membership search detects."""
    seen = set()
    for identity, decl in _IDENTITIES.items():
        if decl.words is None:
            continue
        for p in decl.grid:
            q = _params(identity, p)
            allowed = [b for b in decl.branches if b.allows(q)]
            decided = [b for b in allowed if b.decided]
            sets = [
                [(b, q.get("n")) for b in s]
                for k in range(1, len(decided) + 1)
                for s in combinations(decided, k)
            ]
            sets += [[(b, n)] for b in allowed if b.member for n in range(1, max_dim + 1)]
            for group in (group for held in sets for group in _groups(held)):
                key = _key(identity, group)
                if key in seen:
                    continue
                seen.add(key)
                flags = tuple(flag for branch, _ in group for flag in branch.flags)
                extra = tuple(
                    tuple(w for w, _ in _memb(branch.member[0], branch.member[1] * n))
                    for branch, n in group
                    if branch.member
                )
                yield key, (flags, extra), decl.words(q, group)


class _ProofTable(dict):
    """Claim key -> proved. ``max_dim`` is the largest dimension whose claims
    it holds, and ``plans`` maps each relation report to its plan
    (``_report_plan``), built under this table."""

    __slots__ = ("max_dim", "plans")

    def __init__(self):
        super().__init__()
        self.max_dim, self.plans = 0, {}


# _proof_table adds the claims of larger dimensions
_PROOFS = _ProofTable()


def _proof_table(max_dim):
    """The proof table of every claim in ``_suite_claims(max_dim)``.

    It is kept for the process and grows only by the claims it lacks, so
    verify_suite builds it once, before it forks its workers, which inherit
    it with every plan built so far. The claims of a dimension include
    those of every smaller one, so a table that holds them is returned at
    once. The congruences it decides with are dropped once it is built.
    """
    from .freealg import Congruence, flag_relations

    table = _PROOFS
    if max_dim <= table.max_dim:
        return table
    congruences = {}
    for key, (flags, extra), combos in _suite_claims(max_dim):
        if key not in table:
            relations = flag_relations(flags) + extra
            cong = congruences.get(relations)
            if cong is None:
                cong = congruences[relations] = Congruence(relations)
            table[key] = all(cong.refute(c) is None for c in combos)
    table.max_dim = max_dim
    return table


def _proved(proofs, identity, held):
    """Whether the table ``proofs`` proves every claim of identity's
    conclusion on the held branches; one it lacks proves nothing."""
    groups = _groups(held)
    return bool(groups) and all(proofs.get(_key(identity, group), False) for group in groups)


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
    an identity whose pass and fail verdicts swap on every evaluation, a
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
            # every comm_w pair of 2x2 matrices commutes (README, search)
            strict = cls is not RelationClass.COMM and not (
                cls is RelationClass.COMM_W and dim < 3
            )
            jobs.append((cls, i, dim, derive_seed(seed, cls.value, i), strict))
    counts = {
        ident.value: {"pass": 0, "vacuous": 0, "fail": 0, "first_failure": None}
        for ident in IdentityId
    }
    proofs = _proof_table(min(max(dims), 8))  # sample_pair draws dims 2..8
    slots = [(counts[identity.value], identity.value) for identity, _ in _SUITE_EVALUATIONS]
    outcomes = _outcomes(jobs, lambda job: _pair_outcome(job, inject_fault, proofs))
    try:
        for (cls, i, *_), (verdicts, failures) in zip(jobs, outcomes):
            for (slot, name), verdict in zip(slots, verdicts):
                slot[verdict] += 1
                if verdict == "fail" and slot["first_failure"] is None:
                    slot["first_failure"] = failures[name]
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


def _pair_outcome(job, inject_fault, proofs):
    """Sample one pair and run the suite on it: the verdicts of its report's
    plan in ``proofs`` (``_report_plan``), built here on the report's first
    pair, and a checker on each open evaluation. The injected fault's
    identity then has its pass and fail verdicts swapped; a swapped pass
    fails with residual 0.0 and no defect.

    Returns the verdicts in ``_SUITE_EVALUATIONS`` order and, keyed by
    identity, the payload of each failing identity's first failing
    evaluation on this pair. A pair without a failure renders no literal.
    """
    from .instances import sample_pair

    cls, i, dim, pair_seed, strict = job
    a, b = pair = sample_pair(cls, dim, pair_seed, require_noncommuting=strict)
    ctx = pair.context
    plan = proofs.plans.get(ctx.report)
    if plan is None:
        plan = proofs.plans[ctx.report] = _report_plan(ctx.report, proofs)
    verdicts, failures = list(plan.verdicts), {}

    def fail(identity, params, residual, defect):
        if identity.value not in failures:
            failures[identity.value] = {
                "class": cls.value,
                "dim": dim,
                "index": i,
                "seed": pair_seed,
                "a": a.literal(),
                "b": b.literal(),
                "params": _json_params(params),
                "residual": float(residual),
                "defect": defect,
            }

    for k, identity, params, q, live in plan.open:
        res = _run_checker(identity, ctx, params, proofs=proofs, planned=(q, live))
        verdict = verdicts[k] = "vacuous" if res is None else res.verdict
        if verdict == "fail" and identity is not inject_fault:
            fail(identity, params, res.residual, res.defect)
    if inject_fault is not None:
        for k, (identity, params) in enumerate(_SUITE_EVALUATIONS):
            if identity is inject_fault and verdicts[k] != "vacuous":
                verdicts[k] = "pass" if verdicts[k] == "fail" else "fail"
                if verdicts[k] == "fail":
                    fail(identity, params, 0.0, None)
    return verdicts, failures


class _Plan(NamedTuple):
    """verify_suite's plan for one relation report: the verdict of each of
    ``_SUITE_EVALUATIONS`` that the report decides, None where it is open,
    and the ``_evaluation`` of each open one, in that order."""

    verdicts: tuple
    open: tuple


def _evaluation(k, report):
    """(k, identity, params, q, live) of evaluation k of ``_SUITE_EVALUATIONS``
    on the pairs whose report is ``report``: q holds the parameters with
    their defaults and live the branches whose flags and parameter atoms
    hold (``_live``)."""
    identity, params = _SUITE_EVALUATIONS[k]
    q = _params(identity, params)
    return k, identity, params, q, _live(identity, report, q)


def _report_plan(report, proofs):
    """The plan of ``report`` under the proof table ``proofs``: vacuous where
    every branch has a false flag or parameter atom, pass where the report
    decides every live branch and ``proofs`` proves the conclusion on them,
    and open, for a checker to decide on the pair, everywhere else. Served
    verdicts read only claims of decided branches, which every dimension
    enumerates, so a plan does not depend on the table's ``max_dim``."""
    verdicts, open_ = [], []
    for k in range(len(_SUITE_EVALUATIONS)):
        entry = _evaluation(k, report)
        _, identity, _, q, live = entry
        verdict = None
        if not live:
            verdict = "vacuous"
        elif (
            _IDENTITIES[identity].words
            and all(b.decided for b in live)
            and _proved(proofs, identity, [(b, q.get("n")) for b in live])
        ):
            verdict = "pass"
        verdicts.append(verdict)
        if verdict is None:
            open_.append(entry)
    return _Plan(tuple(verdicts), tuple(open_))


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
