"""Registry pairs, relation-class samplers, spectral instances, witness search."""

import ast
import functools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakcomm
from weakcomm.errors import SamplerBudgetError, UnknownExampleError, UnknownPredicateError
from weakcomm.exact import ExactMatrix, Scalar, rank_kernel
from weakcomm.instances import (
    _SEARCH_ALPHABET,
    RelationClass,
    SpectralInstance,
    class_matches,
    derive_seed,
    sample_pair,
    sample_spectral_instance,
    search_witness,
    _search_matrix,
    _search_rows,
)
from weakcomm.registry import (
    _PAIR_BUILDERS,
    ExampleId,
    evaluate_word,
    example_entry,
    paper_example,
    registry_self_test,
)
from weakcomm.relations import relation_check, relation_flags, witness_predicates

from field_scalar import FieldScalar


@pytest.mark.parametrize("example_id", list(ExampleId), ids=lambda e: e.value)
def test_registry_self_tests_all_green(example_id):
    checks = registry_self_test(example_id)
    assert checks, "registry entry must carry at least one check"
    failed = [name for name, ok in checks if not ok]
    assert failed == []


@pytest.mark.parametrize(
    "example_id",
    [e for e in ExampleId if example_entry(e).kind == "pair"],
    ids=lambda e: e.value,
)
def test_registry_flags_and_claims(example_id):
    entry = example_entry(example_id)
    (a, b), report = paper_example(example_id)
    for flag, want in entry.expected_flags.items():
        assert getattr(report, flag) == want
    for left, right, equal in entry.claims:
        lhs = evaluate_word(left, a, b)
        rhs = evaluate_word(right, a, b)
        assert (lhs == rhs) == equal, (left, right, equal)


@pytest.mark.parametrize("example_id", list(_PAIR_BUILDERS), ids=lambda e: e.value)
def test_builder_entries_pass_at_every_dim(example_id):
    # paper_example asserts the expected flags at every dim it accepts
    entry = example_entry(example_id)
    for dim in range(entry.min_dim, 9):
        checks = registry_self_test(example_id, dim)
        assert [name for name, ok in checks if not ok] == [], dim
    with pytest.raises(ValueError, match=f"needs dim >= {entry.min_dim}"):
        paper_example(example_id, dim=entry.min_dim - 1)


def test_evaluate_word():
    a = ExactMatrix.parse("0,1;0,0")
    b = ExactMatrix.parse("0,0;1,0")
    assert evaluate_word("ab", a, b) == a * b
    assert evaluate_word("bab", a, b) == b * a * b
    assert evaluate_word("1", a, b) == ExactMatrix.identity(2)
    assert evaluate_word("0", a, b).is_zero()
    for word in ("", "abc", "a1"):
        with pytest.raises(ValueError, match="not 0, 1 or a word"):
            evaluate_word(word, a, b)


def test_unknown_example_rejected():
    with pytest.raises(UnknownExampleError):
        example_entry("SEX_IX")


def test_registry_entries_are_immutable():
    entry = example_entry(ExampleId.SEX_I_PQ)
    for name in ("id", "kind", "min_dim", "expected_flags", "claims"):
        with pytest.raises(AttributeError):
            setattr(entry, name, None)
    assert example_entry("SEX_I_PQ") is entry


def test_paper_example_dim_validation():
    with pytest.raises(ValueError):
        paper_example(ExampleId.EXNILP_T, dim=6)  # op_spec takes no dim
    with pytest.raises(ValueError):
        paper_example(ExampleId.SEX_IV_N1N2, dim=2)  # below min_dim
    with pytest.raises(ValueError):
        paper_example(ExampleId.SEX_I_PQ, dim=3)  # fixed-dim entry
    # builder-backed entries do scale
    (a, b), rep = paper_example(ExampleId.SEX_IV_N1N2, dim=6)
    assert a.dim == 6 and rep.comm_w and not rep.comm


def reference_comm_r_system(a):
    """The system of b*a^2 = a*b*a on row-major b, built cell by cell in Scalars."""
    dim = a.dim
    a2 = a * a
    n2 = dim * dim
    sys_rows = [[FieldScalar(0)] * n2 for _ in range(n2)]
    for i in range(dim):
        for j in range(dim):
            r = i * dim + j
            for q in range(dim):
                sys_rows[r][i * dim + q] += a2.entry(q, j)
            for p in range(dim):
                apart = FieldScalar.coerce(a.entry(i, p))
                if apart.is_zero():
                    continue
                for q in range(dim):
                    sys_rows[r][p * dim + q] -= apart * a.entry(q, j)
    return ExactMatrix(sys_rows)


def test_comm_r_system_matches_cell_by_cell_reference():
    from weakcomm.instances import _comm_r_system

    rng = random.Random(2024)
    for case in range(40):
        dim = rng.randint(2, 4)
        rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        if case % 2:
            rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]  # singular, as sampled
        a = ExactMatrix(rows)
        system = _comm_r_system(a)
        reference = reference_comm_r_system(a)
        assert system == reference
        _, kernel, _ = rank_kernel(system)
        assert kernel == rank_kernel(reference)[1]
        for v in kernel.vectors:
            b = ExactMatrix([v[i * dim:(i + 1) * dim] for i in range(dim)])
            assert b * a * a == a * b * a


def reference_solve_comm_r(rng, dim):
    """_solve_comm_r with each candidate built as a chain of normalized
    ``m * c`` and ``b + ...`` over the kernel basis matrices."""
    from weakcomm._kernel_py import normalize
    from weakcomm.exact import _null_space
    from weakcomm.instances import _comm_r_system
    from weakcomm.relations import PairContext

    rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    coeffs = [rng.randint(-2, 2) for _ in range(dim - 1)]
    rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(dim)]
    a = ExactMatrix(rows)
    kernel = _null_space(_comm_r_system(a))[1]
    if kernel.dim == 0:
        return None
    basis = [ExactMatrix._from_rep(dim, normalize(kernel._den, *row)) for row in kernel._rows()]
    for _ in range(24):
        b = ExactMatrix.zeros(dim)
        for m in basis:
            c = rng.randint(-2, 2)
            if c:
                b = b + m * c
        ctx = PairContext(a, b)
        if ctx.flag("comm_r") and not ctx.flag("comm"):
            return a, b
    return None


def test_solve_comm_r_candidates_match_the_matrix_chain():
    # the candidates, the pair drawn and the rng state after it
    from weakcomm.instances import _solve_comm_r

    found = missed = 0
    for seed in range(60):
        for dim in (2, 3, 4):
            rng, ref = random.Random(seed), random.Random(seed)
            got, want = _solve_comm_r(rng, dim), reference_solve_comm_r(ref, dim)
            assert got == want, (seed, dim)
            assert rng.random() == ref.random(), (seed, dim)
            found += got is not None
            missed += got is None
    assert found > 30 and missed > 10


def test_solve_comm_r_draws_are_pinned():
    # (seed, dim) -> (a, b) literals, drawn with the system built cell by cell
    # as in reference_comm_r_system
    from weakcomm.instances import _solve_comm_r

    pinned = {
        (0, 3): ("1,1,-2;0,2,1;0,4,2", "-2,-2,-1;0,-1,3/2;0,-2,3"),
        (7, 4): (
            "0,-1,1,-2;-2,2,-2,0;2,-2,2,-1;-2,4,-4,6",
            "2,1,0,0;-1,223/66,-23/33,-19/22;-1,-71/66,31/33,-5/22;-1,-71/22,-13/11,29/22",
        ),
        (10, 3): ("2,-2,1;1,2,-2;-1,-2,2", "-1,0,-2;-2/3,1,10/3;2/3,-1,-10/3"),
    }
    for (seed, dim), literals in pinned.items():
        a, b = _solve_comm_r(random.Random(seed), dim)
        assert (a.literal(), b.literal()) == literals


def test_builder_entries_match_their_data_files():
    from weakcomm.registry import _pair_from_file

    for eid in (ExampleId.SEX_II_TS, ExampleId.SEX_IV_N1N2, ExampleId.EX4_RN):
        (a, b), _ = paper_example(eid)
        fa, fb = _pair_from_file(eid.value)
        assert a == fa and b == fb


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
def test_rank_one_absorbing_pattern_generalizes(p, q):
    # The registered 2x2 pair with m*n == m is one point of a family:
    # columns of m equal, n idempotent with unit first row. The flag
    # pattern persists whenever q != 0 and p + q != 0.
    if q == 0 or p + q == 0:
        return
    m = ExactMatrix([[Scalar(p), Scalar(p)], [Scalar(q), Scalar(q)]])
    n = ExactMatrix([[Scalar(1), Scalar(1)], [Scalar(0), Scalar(0)]])
    assert m * n == m
    rep = relation_check(m, n)
    assert rep.comm_l and not rep.comm_r and not rep.comm
    assert (rep.ab_in_comm_a, rep.ab_in_comm_b, rep.ba_in_comm_a, rep.ba_in_comm_b) == (
        True,
        False,
        False,
        True,
    )


def test_derive_seed_stable_and_sensitive():
    s = derive_seed("x", 1, "y")
    assert s == derive_seed("x", 1, "y")
    assert s != derive_seed("x", 2, "y")
    assert 0 <= s < 2**63


@pytest.mark.parametrize("cls", list(RelationClass), ids=lambda c: c.value)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sample_pair_lands_in_class(cls, dim):
    for seed in range(8):
        strict = cls is not RelationClass.COMM
        if cls is RelationClass.COMM_W and dim < 3:
            strict = False
        a, b = sample_pair(cls, dim, seed, require_noncommuting=strict)
        assert a.dim == b.dim == dim
        rep = relation_check(a, b)
        assert class_matches(rep, cls, require_noncommuting=strict), (
            cls,
            dim,
            seed,
            rep.flags(),
        )


def test_sample_pair_deterministic():
    a1, b1 = sample_pair(RelationClass.COMM_R, 4, 123, require_noncommuting=True)
    a2, b2 = sample_pair(RelationClass.COMM_R, 4, 123, require_noncommuting=True)
    assert a1 == a2 and b1 == b2
    a3, _ = sample_pair(RelationClass.COMM_R, 4, 124, require_noncommuting=True)
    assert a1 != a3  # overwhelmingly likely; fixed seeds make it stable


def test_sampled_pair_carries_the_memo_that_accepted_it():
    # the flags a sampled pair carries are relation_flags(a, b), and every
    # product in its memo is the product of the word's letters, multiplied
    # left to right without the memo
    flag_words = {"ab", "ba", "aab", "aba", "baa", "abb", "bab", "bba"}
    for cls in RelationClass:
        for dim in (2, 3, 4):
            strict = cls is not RelationClass.COMM and not (cls is RelationClass.COMM_W and dim < 3)
            pair = sample_pair(cls, dim, 30 + dim, require_noncommuting=strict)
            a, b = pair
            ctx = pair.context
            assert ctx.a is a and ctx.b is b
            # the sampler read the report that accepted the pair, and kept it
            assert "report" in vars(ctx)
            assert ctx.report == relation_flags(a, b)
            assert class_matches(ctx.report, cls, require_noncommuting=strict)
            assert set(ctx._words) - {"a", "b"} <= flag_words, (cls, dim)
            for w, m in ctx._words.items():
                assert m == functools.reduce(lambda x, y: x * y, ({"a": a, "b": b}[c] for c in w)), (cls, dim, w)


def test_sample_pair_nilpotent_mode():
    for cls in (RelationClass.COMM_L, RelationClass.COMM_R, RelationClass.COMM_W):
        a, b = sample_pair(cls, 4, 5, require_noncommuting=True, nilpotent=True)
        from weakcomm.exact import nilpotency_degree

        assert nilpotency_degree(a) is not None
        assert nilpotency_degree(b) is not None
        assert class_matches(relation_check(a, b), cls, require_noncommuting=True)


def test_sample_pair_impossible_combinations():
    with pytest.raises(SamplerBudgetError) as exc:
        sample_pair(RelationClass.COMM_W, 2, 0, require_noncommuting=True)
    assert "dim >= 3" in str(exc.value)
    with pytest.raises(SamplerBudgetError):
        sample_pair(RelationClass.COMM_L, 3, 0, require_noncommuting=True, nilpotent=True)


def test_sample_pair_argument_validation():
    with pytest.raises(ValueError):
        sample_pair(RelationClass.COMM_L, 1, 0)
    with pytest.raises(ValueError):
        sample_pair(RelationClass.COMM_L, 9, 0)
    with pytest.raises(ValueError):
        sample_pair(RelationClass.COMM, 3, 0, require_noncommuting=True)


@pytest.mark.parametrize("kind,min_dim", [("comm_r", 3), ("comm_w", 4)])
def test_spectral_instance_properties(kind, min_dim):
    for dim in range(min_dim, 7):
        inst = sample_spectral_instance(dim, 42 + dim, kind=kind)
        assert inst.t.dim == dim
        assert (inst.n ** inst.p).is_zero()
        assert not inst.lam.is_zero()
        from weakcomm.exact import charpoly

        lam = FieldScalar.coerce(inst.lam)
        assert sum(c * lam ** k for k, c in enumerate(charpoly(inst.t).coeffs)).is_zero()
        rep = relation_check(inst.t, inst.n)
        if kind == "comm_r":
            assert rep.ba_in_comm_a and rep.ab_in_comm_b
        else:
            assert rep.comm_w


def test_spectral_instance_validation():
    with pytest.raises(ValueError):
        sample_spectral_instance(2, 0, kind="comm_r")
    with pytest.raises(ValueError):
        sample_spectral_instance(3, 0, kind="comm_w")
    with pytest.raises(ValueError):
        sample_spectral_instance(4, 0, kind="bogus")


def test_spectral_instance_rejects_broken_hypotheses():
    good = sample_spectral_instance(4, 7, kind="comm_r")
    not_nilpotent = ExactMatrix.identity(4)
    with pytest.raises(ValueError):
        SpectralInstance(t=good.t, n=not_nilpotent, lam=good.lam, p=2)
    with pytest.raises(ValueError):
        SpectralInstance(t=good.t, n=good.n, lam=Scalar(1000), p=2)


def test_spectral_instance_check_survives_optimize_flag():
    code = (
        "from weakcomm.exact import ExactMatrix, Scalar\n"
        "from weakcomm.instances import SpectralInstance\n"
        "try:\n"
        "    SpectralInstance(t=ExactMatrix.identity(2), n=ExactMatrix.identity(2),"
        " lam=Scalar(1), p=2)\n"
        "except ValueError:\n"
        "    print('raised')\n"
    )
    src = pathlib.Path(weakcomm.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_package_has_no_assert_statements():
    # python -O strips assert; invariants in the package raise instead
    sources = sorted(pathlib.Path(weakcomm.__file__).resolve().parent.rglob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_spectral_instance_deterministic():
    i1 = sample_spectral_instance(4, 7, kind="comm_r")
    i2 = sample_spectral_instance(4, 7, kind="comm_r")
    assert i1.t == i2.t and i1.n == i2.n and i1.lam == i2.lam


def test_witness_predicates_catalog():
    preds = witness_predicates()
    assert preds == sorted(preds)
    assert {"not_c1", "not_c2", "not_c3", "comm_w_not_comm"} <= set(preds)


@pytest.mark.parametrize("predicate", ["not_c1", "not_c2", "not_c3"])
def test_search_witness_finds_dim2(predicate):
    rec = search_witness(predicate, 2, 10_000, 1)
    assert rec is not None
    assert rec.samples_tried <= 10_000
    rep = relation_check(rec.a, rec.b)
    flag = {"not_c1": "c1_pair", "not_c2": "c2_pair", "not_c3": "c3_pair"}[predicate]
    assert not getattr(rep, flag)
    d = rec.to_json_dict()
    assert d["predicate"] == predicate
    assert d["samples_tried"] == rec.samples_tried


def test_search_witness_deterministic():
    r1 = search_witness("not_c3", 2, 1000, 9)
    r2 = search_witness("not_c3", 2, 1000, 9)
    assert r1.a == r2.a and r1.b == r2.b and r1.samples_tried == r2.samples_tried


def test_search_witness_unsatisfiable_returns_none():
    assert search_witness("comm_not_comm", 2, 50, 0) is None


def test_search_witness_validation():
    with pytest.raises(UnknownPredicateError):
        search_witness("bogus", 2, 10, 0)
    with pytest.raises(ValueError):
        search_witness("not_c1", 2, 0, 0)


@pytest.mark.parametrize("dim", [-1, 0, 1, 9])
def test_search_witness_rejects_dims_outside_2_to_8(dim):
    # as sample_pair and the CLI do: no range() error, no empty search
    with pytest.raises(ValueError, match="^dim must be between 2 and 8$"):
        search_witness("not_c1", dim, 5, 1)


@pytest.mark.parametrize("dim", [2, 8])
def test_search_witness_accepts_dims_2_and_8(dim):
    rec = search_witness("not_c1", dim, 50, 1)
    assert rec is not None and rec.a.dim == rec.b.dim == dim
    assert not relation_check(rec.a, rec.b).c1_pair


def test_weak_but_not_commuting_witness_dim3():
    rec = search_witness("comm_w_not_comm", 3, 10_000, 1)
    assert rec is not None
    rep = relation_check(rec.a, rec.b)
    assert rep.comm_w and not rep.comm


def _witness_candidate(rng, dim):
    """One search candidate, its residue rows drawn and built at once."""
    return _search_matrix(_search_rows(rng, dim))


def reference_witness_candidate(rng, dim):
    """The Scalar-per-entry draw that the integer draw replaced."""
    sparse = rng.random() < 0.5

    def entry():
        if sparse and rng.random() < 0.6:
            return Scalar(0)
        return rng.choice(_SEARCH_ALPHABET)

    return ExactMatrix([[entry() for _ in range(dim)] for _ in range(dim)])


def test_witness_candidate_matches_the_scalar_draw():
    halves = 0
    for dim in range(1, 9):
        for seed in range(150):
            new, ref = random.Random(seed), random.Random(seed)
            for _ in range(4):
                got, want = _witness_candidate(new, dim), reference_witness_candidate(ref, dim)
                assert got == want, (dim, seed)
                assert (got._den, got._re, got._im) == (want._den, want._re, want._im)
                halves += got._den == 2
            assert new.random() == ref.random(), (dim, seed)
    assert halves > 1000


def test_search_rows_build_the_witness_candidates():
    # a pair drawn as residue rows and built on demand by its context equals
    # the pair _witness_candidate draws from the same stream (which the test
    # above holds to the Scalar draw), and leaves the stream at the same place
    from weakcomm.relations import PairContext

    for dim in range(1, 9):
        for seed in range(150):
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(2):
                rows = _search_rows(new, dim), _search_rows(new, dim)
                ctx = PairContext._of_rows(rows, _search_matrix)
                want = _witness_candidate(old, dim), _witness_candidate(old, dim)
                for got, w in zip((ctx.a, ctx.b), want):
                    assert (got.dim, got._den, got._re, got._im) == (w.dim, w._den, w._re, w._im), seed
            assert new.random() == old.random(), (dim, seed)


def test_the_search_draw_never_calls_random_choice(monkeypatch):
    # the candidate stream rests on Random.random and Random.getrandbits
    # alone, not on how Random.choice turns random bits into an index
    predicates = ("comm_w_not_comm", "comm_l_not_comm_r", "not_c3")
    commands = [(p, dim, 400, 5) for p in predicates for dim in (3, 4)]
    searched = [search_witness(*args) for args in commands]
    drawn = [_witness_candidate(random.Random(seed), dim) for seed in range(20) for dim in range(1, 9)]
    assert any(searched) and not all(searched)

    def refuse(self, seq):
        raise AssertionError("Random.choice was called")

    monkeypatch.setattr(random.Random, "choice", refuse)
    assert [search_witness(*args) for args in commands] == searched
    assert [_witness_candidate(random.Random(seed), dim) for seed in range(20) for dim in range(1, 9)] == drawn
