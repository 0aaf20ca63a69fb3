"""The example registry: the paper's fixed pairs and l2 operator specs.

Each entry stores its matrices (built in code or read from ``data/``), the
relation flags asserted for them, and word-equation claims ("PQP equals
P2Q", "NR differs from RN") that are re-verified exactly on demand, next to
a few bespoke checks per id. ``paper_example`` returns a pair as the tuple
(a, b) with the ``relations.PairContext`` that decided its flags, as its
``context``, so the word claims and the bespoke checks read its memo and
multiply no word twice.

The registry stands on the arithmetic core, ``relations`` and ``shiftlab``
alone. Every cli command loads it, and none loads the samplers and the
search of ``instances`` until it runs them.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .errors import UnknownExampleError
from .exact import ExactMatrix, _null_space, charpoly, poly_radical_nonzero
from .relations import PairContext, _checked, _pair, relation_flags
from . import shiftlab

__all__ = [
    "ExampleId",
    "ExampleEntry",
    "paper_example",
    "example_entry",
    "registry_self_test",
    "evaluate_word",
]

_DATA_DIR = Path(__file__).resolve().parent / "data"


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


# one registry id: kind is "pair" or "op_spec", expected_flags maps flag
# names to the values asserted for a pair (None for a spec), and claims
# holds (lhs_word, rhs_word, equal) triples
ExampleEntry = namedtuple(
    "ExampleEntry", "id kind min_dim default_dim summary expected_flags claims"
)


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
