"""Relation flags: truth on frozen pairs, symmetry, duality."""

import gc
import itertools
import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcomm.errors import DimensionMismatchError, SamplerBudgetError
from weakcomm.exact import ExactMatrix, Scalar
from weakcomm.instances import (
    _PREDICATES,
    _SEARCH_PARTS,
    RelationClass,
    _search_matrix,
    _search_rows,
    derive_seed,
    sample_pair,
    search_witness,
)
from weakcomm.relations import (
    _FLAG_WORDS,
    FLAG_NAMES,
    PairContext,
    RelationReport,
    relation_check,
    relation_flags,
)

E = ExactMatrix.single_entry


def _witness_candidate(rng, dim):
    """One search candidate, its residue rows drawn and built at once."""
    return _search_matrix(_search_rows(rng, dim))


def _rand_matrix(rng, dim):
    rows = [
        [
            Scalar(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                Fraction(rng.randint(-1, 1)) if rng.random() < 0.2 else Fraction(0),
            )
            for _ in range(dim)
        ]
        for _ in range(dim)
    ]
    return ExactMatrix(rows)


def test_commuting_pair_sets_everything():
    a = ExactMatrix.parse("1,2;0,1")
    b = a * a
    r = relation_check(a, b)
    assert all(r.flags().values())
    assert all(v == 0.0 for v in r.residuals.values())


def test_one_sided_left_pair():
    # b = diag(1, 0), a = E21: ab = a (commutes with a, not with b),
    # ba = 0 (commutes with everything).
    a = E(2, 1, 0)
    b = ExactMatrix.diagonal([Scalar(1), Scalar(0)])
    r = relation_check(a, b)
    assert (r.ab_in_comm_a, r.ab_in_comm_b, r.ba_in_comm_a, r.ba_in_comm_b) == (
        True,
        False,
        True,
        True,
    )
    assert r.comm_l and not r.comm_r and not r.comm_w and not r.comm


def test_strict_weak_pair_dim3():
    # a = E21 + E32, b = E21: all four triple products balance but ab != ba.
    a = E(3, 1, 0) + E(3, 2, 1)
    b = E(3, 1, 0)
    r = relation_check(a, b)
    assert r.comm_w and r.comm_l and r.comm_r and not r.comm
    assert r.residuals["comm"] > 0


def test_no_relation_pair():
    a = ExactMatrix.parse("0,1;0,0")
    b = ExactMatrix.parse("0,0;1,0")
    r = relation_check(a, b)
    assert not any(
        (r.ab_in_comm_a, r.ab_in_comm_b, r.ba_in_comm_a, r.ba_in_comm_b)
    )
    assert not r.c1_pair and not r.c2_pair and not r.c3_pair


def test_derived_flags_are_functions_of_primitives():
    rng = random.Random(5)
    for _ in range(200):
        a = _rand_matrix(rng, rng.randint(2, 4))
        b = _rand_matrix(rng, a.dim)
        r = relation_check(a, b)
        assert r.comm_l == (r.ab_in_comm_a and r.ba_in_comm_b)
        assert r.comm_r == (r.ab_in_comm_b and r.ba_in_comm_a)
        assert r.comm_w == (r.comm_l and r.comm_r)
        assert r.c1_pair == (r.ab_in_comm_a or r.ba_in_comm_a or r.ba_in_comm_b)
        assert r.c2_pair == (r.ab_in_comm_a or r.ba_in_comm_a or r.ab_in_comm_b)
        assert r.c3_pair == (r.ab_in_comm_b or r.ba_in_comm_b)
        if r.comm:
            assert r.comm_w


def test_swap_symmetry_of_derived_relations():
    # Swapping (a, b) renames the primitive flags but fixes comm_l/r/w.
    rng = random.Random(11)
    for _ in range(200):
        a = _rand_matrix(rng, rng.randint(2, 4))
        b = _rand_matrix(rng, a.dim)
        r = relation_check(a, b)
        s = relation_check(b, a)
        assert r.comm == s.comm
        assert r.comm_l == s.comm_l
        assert r.comm_r == s.comm_r
        assert r.comm_w == s.comm_w
        # the primitive flags swap pairwise
        assert r.ab_in_comm_a == s.ba_in_comm_a
        assert r.ab_in_comm_b == s.ba_in_comm_b
        assert r.ba_in_comm_a == s.ab_in_comm_a
        assert r.ba_in_comm_b == s.ab_in_comm_b


def test_conjugate_transpose_swaps_left_and_right():
    rng = random.Random(23)
    for _ in range(200):
        a = _rand_matrix(rng, rng.randint(2, 4))
        b = _rand_matrix(rng, a.dim)
        r = relation_check(a, b)
        d = relation_check(a.conj_transpose(), b.conj_transpose())
        assert r.comm_l == d.comm_r
        assert r.comm_r == d.comm_l
        assert r.comm_w == d.comm_w
        assert r.comm == d.comm


def test_residuals_zero_iff_flag():
    rng = random.Random(31)
    for _ in range(100):
        a = _rand_matrix(rng, 3)
        b = _rand_matrix(rng, 3)
        r = relation_check(a, b)
        f = r.flags()
        for name in FLAG_NAMES:
            assert (r.residuals[name] == 0.0) == f[name]


def test_json_dict_shape():
    r = relation_check(E(2, 1, 0), E(2, 0, 1))
    d = r.to_json_dict()
    assert set(d) == {
        "comm",
        "ab_in_comm_a",
        "ab_in_comm_b",
        "ba_in_comm_a",
        "ba_in_comm_b",
        "comm_l",
        "comm_r",
        "comm_w",
        "c1_pair",
        "c2_pair",
        "c3_pair",
        "residuals",
    }
    assert set(d["residuals"]) == set(FLAG_NAMES)
    assert all(isinstance(v, float) for v in d["residuals"].values())


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_any_pair_of_polynomials_in_one_matrix_fully_commutes(c0, c1, d0, d1):
    m = ExactMatrix.parse("0,1,0;0,0,1;1,0,0")
    one = ExactMatrix.identity(3)
    a = one * Scalar(c0) + m * Scalar(c1)
    b = one * Scalar(d0) + m * Scalar(d1)
    r = relation_check(a, b)
    assert r.comm and r.comm_w


# search candidates per dimension: small dims have true flags, large ones
# almost only false flags refuted by the probe
_SCREEN_PAIRS = {2: 3000, 3: 3000, 4: 2000, 5: 800, 6: 500, 7: 400, 8: 300}


def test_flags_match_relation_check_on_search_candidates():
    # 10,000 drawn pairs, 20,000 candidates, each pair in both orders
    assert sum(_SCREEN_PAIRS.values()) == 10_000
    true_flags = 0
    for dim, count in _SCREEN_PAIRS.items():
        rng = random.Random(1000 + dim)
        for _ in range(count):
            a, b = _witness_candidate(rng, dim), _witness_candidate(rng, dim)
            for x, y in ((a, b), (b, a)):
                want = relation_check(x, y).flags()
                got = relation_flags(x, y)
                assert got.flags() == want, (x, y)
                assert got.residuals is None
                true_flags += sum(want[k] for k in FLAG_NAMES)
    assert true_flags > 1000


def test_flags_match_relation_check_on_sampled_pairs():
    checked = 0
    for cls in RelationClass:
        for dim in (2, 3, 4, 5):
            for seed in range(4):
                for strict in (False, True) if cls is not RelationClass.COMM else (False,):
                    for nilpotent in (False, True):
                        try:
                            a, b = sample_pair(cls, dim, seed, strict, nilpotent)
                        except SamplerBudgetError:
                            continue
                        for x, y in ((a, b), (b, a)):
                            assert relation_flags(x, y) == relation_check(x, y), (cls, x, y)
                            checked += 1
    assert checked > 500


def test_flags_read_no_random_state():
    a = ExactMatrix.parse("1,2,0;0,1/2,i;3,0,-1")
    b = ExactMatrix.parse("0,1,1;i,0,2;0,0,1/3")
    state = random.getstate()
    first = relation_flags(a, b)
    assert random.getstate() == state
    assert relation_flags(a, b) == first


def test_flags_report_has_no_residuals():
    r = relation_flags(E(2, 1, 0), E(2, 0, 1))
    assert r.residuals is None
    with pytest.raises(ValueError, match="no residuals"):
        r.to_json_dict()


def test_flags_reject_mismatched_dims():
    with pytest.raises(DimensionMismatchError):
        relation_flags(E(2, 1, 0), E(3, 1, 0))
    with pytest.raises(DimensionMismatchError):
        relation_check(E(2, 1, 0), E(3, 1, 0))


def test_product_with_a_zero_factor_skips_the_kernel(monkeypatch):
    # a zero factor is the normalized product, kept without a multiplication
    from weakcomm import _kernel_py, relations

    a = ExactMatrix.parse("1/2,i;3,-1/3")
    zeros = (ExactMatrix.zeros(2), a - a, a * 0)
    kernel_zero = ExactMatrix._from_rep(2, _kernel_py.mat_mul(2, zeros[0]._rep(), a._rep()))
    calls = []
    monkeypatch.setattr(_kernel_py, "mat_mul", lambda *args: calls.append(args))
    for z in zeros:
        for words in ({"a": a, "b": z}, {"a": z, "b": a}, {"a": z, "b": z}):
            for w in ("ab", "ba", "aab", "bab", "abab"):
                product = relations._product(words, w)
                assert product == kernel_zero and product._den == 1 and words[w] is product
    assert calls == []
    for z in zeros:
        with pytest.raises(DimensionMismatchError):
            relation_check(z, ExactMatrix.zeros(3))
        with pytest.raises(DimensionMismatchError):
            relation_flags(ExactMatrix.identity(3), z)


# -- reference: every product first, then every flag and residual ---------------

# the eight compared words, each the product of two shorter ones
_REF_PRODUCTS = {
    "ab": ("a", "b"),
    "ba": ("b", "a"),
    "aab": ("a", "ab"),
    "aba": ("ab", "a"),
    "baa": ("ba", "a"),
    "abb": ("ab", "b"),
    "bab": ("b", "ab"),
    "bba": ("b", "ba"),
}


def _ref_word(words, w):
    m = words.get(w)
    if m is None:
        x, y = _REF_PRODUCTS[w]
        m = words[w] = _ref_word(words, x) * _ref_word(words, y)
    return m


def _ref_relation_words(a, b):
    """(flags, residuals) from all eight products, without the probe screen."""
    words = {"a": a, "b": b}
    for w in _REF_PRODUCTS:
        _ref_word(words, w)
    flags = {}
    residuals = {}
    for k, (x, y) in _FLAG_WORDS.items():
        flags[k] = words[x] == words[y]
        residuals[k] = 0.0 if flags[k] else (words[x] - words[y]).frobenius()
    return flags, residuals


def _assert_matches_reference(a, b):
    flags, residuals = _ref_relation_words(a, b)
    r = relation_check(a, b)
    assert {k: r.flags()[k] for k in FLAG_NAMES} == flags, (a, b)
    assert r.residuals == residuals, (a, b)
    return sum(flags.values())


def test_relation_check_matches_the_reference_on_sampled_pairs():
    true_flags = checked = 0
    for cls in RelationClass:
        for dim in (2, 3, 4, 5):
            for seed in range(3):
                for nilpotent in (False, True):
                    try:
                        a, b = sample_pair(cls, dim, 500 + seed, cls is not RelationClass.COMM, nilpotent)
                    except SamplerBudgetError:
                        continue
                    for x, y in ((a, b), (b, a)):
                        true_flags += _assert_matches_reference(x, y)
                        checked += 1
    assert checked > 200 and true_flags > 200


def test_relation_check_matches_the_reference_on_search_candidates():
    true_flags = 0
    for dim in (2, 3, 4):
        rng = random.Random(2000 + dim)
        for _ in range(400):
            a, b = _witness_candidate(rng, dim), _witness_candidate(rng, dim)
            true_flags += _assert_matches_reference(a, b)
    assert true_flags > 100


# -- flags decided on demand -------------------------------------------------------

# the eleven names of a report
_NAMES = tuple(f.name for f in fields(RelationReport) if f.name != "residuals")

# the predicates in the form that reads a whole report: the oracle of _PREDICATES
_REPORT_PREDICATES = {
    "not_c1": lambda r: not r.c1_pair,
    "not_c2": lambda r: not r.c2_pair,
    "not_c3": lambda r: not r.c3_pair,
    "comm_w_not_comm": lambda r: r.comm_w and not r.comm,
    "comm_l_not_comm": lambda r: r.comm_l and not r.comm,
    "comm_r_not_comm": lambda r: r.comm_r and not r.comm,
    "comm_l_not_comm_r": lambda r: r.comm_l and not r.comm_r,
    "comm_r_not_comm_l": lambda r: r.comm_r and not r.comm_l,
    "comm_not_comm": lambda r: r.comm and not r.comm,
}


def _getter_pairs():
    """Sampled pairs of every class at dims 2-5, then search candidates at
    dims 2-4, each in both orders."""
    sampled = []
    for cls in RelationClass:
        for dim in (2, 3, 4, 5):
            for seed, nilpotent in itertools.product(range(2), (False, True)):
                try:
                    sampled.append(sample_pair(cls, dim, 700 + seed, cls is not RelationClass.COMM, nilpotent))
                except SamplerBudgetError:
                    continue
    assert len(sampled) > 60
    for a, b in sampled:
        yield a, b
        yield b, a
    for dim in (2, 3, 4):
        rng = random.Random(3000 + dim)
        for _ in range(300):
            a, b = _witness_candidate(rng, dim), _witness_candidate(rng, dim)
            yield a, b
            yield b, a


def test_each_flag_read_alone_equals_the_report():
    # a fresh getter per name decides that name alone; one getter read in
    # reverse field order decides every name from the flags it kept
    true_flags = 0
    for x, y in _getter_pairs():
        report = relation_flags(x, y)
        for name in _NAMES:
            assert PairContext(x, y).flag(name) == getattr(report, name), (name, x, y)
        flag = PairContext(x, y).flag
        assert [flag(n) for n in reversed(_NAMES)] == [getattr(report, n) for n in reversed(_NAMES)]
        true_flags += sum(report.flags().values())
    assert true_flags > 1000


def test_predicates_agree_with_their_report_form():
    assert set(_PREDICATES) == set(_REPORT_PREDICATES)
    met = Counter()
    for x, y in _getter_pairs():
        report = relation_flags(x, y)
        for name, pred in _PREDICATES.items():
            want = _REPORT_PREDICATES[name](report)
            assert pred(PairContext(x, y).flag) == want, (name, x, y)
            met[name] += want
    # every satisfiable predicate is met, so both of its outcomes are compared
    assert {name for name in _PREDICATES if not met[name]} == {"comm_not_comm"}


def test_a_refuted_first_conjunct_ends_the_screen(monkeypatch):
    # comm_w reads ab_in_comm_a first. When the probe refutes it, screening
    # the candidate for comm_w_not_comm takes the images of aba and aab and
    # of their suffixes a, ba, b and ab, and no product
    from weakcomm import _kernel_py, relations

    rng = random.Random(derive_seed("witness", "comm_w_not_comm", 4, 1))
    a, b = _witness_candidate(rng, 4), _witness_candidate(rng, 4)
    assert not relation_flags(a, b).ab_in_comm_a
    applied, multiplied = [], []
    apply, mat_mul = relations._apply, _kernel_py.mat_mul
    monkeypatch.setattr(relations, "_apply", lambda rows, v: applied.append(v) or apply(rows, v))
    monkeypatch.setattr(_kernel_py, "mat_mul", lambda *args: multiplied.append(args) or mat_mul(*args))
    assert search_witness("comm_w_not_comm", 4, 1, 1) is None
    assert len(applied) == 6 and multiplied == []
    ctx = PairContext(a, b)
    assert not _PREDICATES["comm_w_not_comm"](ctx.flag)
    assert set(ctx._images) == {"", "a", "b", "ab", "ba", "aab", "aba"}


# -- the probe's residues mod M ------------------------------------------------------

# the derived flags from the primitive ones, as the relations docstring defines them
_REF_DERIVED = {
    "comm_l": lambda f: f["ab_in_comm_a"] and f["ba_in_comm_b"],
    "comm_r": lambda f: f["ab_in_comm_b"] and f["ba_in_comm_a"],
    "comm_w": lambda f: all(f[k] for k in FLAG_NAMES[1:]),
    "c1_pair": lambda f: f["ab_in_comm_a"] or f["ba_in_comm_a"] or f["ba_in_comm_b"],
    "c2_pair": lambda f: f["ab_in_comm_a"] or f["ba_in_comm_a"] or f["ab_in_comm_b"],
    "c3_pair": lambda f: f["ab_in_comm_b"] or f["ba_in_comm_b"],
}


def _ref_flags(a, b):
    """The eleven flags of (a, b) from the exact products alone."""
    words = {"a": a, "b": b}
    flags = {k: _ref_word(words, x) == _ref_word(words, y) for k, (x, y) in _FLAG_WORDS.items()}
    flags.update({name: test(flags) for name, test in _REF_DERIVED.items()})
    return flags


def test_a_wrapped_image_decides_no_flag():
    # every image through a = M E01 is 0 mod M, and every compared word has
    # the letter a, so the probe refutes no flag; yet ab = M E00 and
    # ba = M E11 differ, and so do the words of every primitive flag
    from weakcomm import relations

    a, b = E(2, 0, 1) * relations._M, E(2, 1, 0)
    for x, y in ((a, b), (b, a)):
        want = _ref_flags(x, y)
        assert not any(want.values())
        ctx = PairContext(x, y)
        assert all(ctx._image(w) == [0, 0] for pair in _FLAG_WORDS.values() for w in pair)
        assert relation_flags(x, y).flags() == want
        assert ctx.report.flags() == want
        # the exact products of every flag were taken
        assert set(ctx._words) == {"a", "b", "ab", "ba", "aab", "aba", "abb", "bab", "baa", "bba"}


def _wide_part(rng, bits):
    return rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1))


def _wide_matrix(rng, dim, bits):
    """A Gaussian integer matrix whose nonzero entries have ``bits``-bit parts."""
    def entry():
        return Scalar(_wide_part(rng, bits), _wide_part(rng, bits)) if rng.random() < 0.7 else Scalar(0)

    return ExactMatrix([[entry() for _ in range(dim)] for _ in range(dim)])


def _wide_pairs(rng):
    """Pairs with 64- to 200-bit entries, whose images wrap mod M: unrelated
    pairs, a with a polynomial in a, and sampled pairs of every class, each
    letter scaled by a wide Gaussian scalar, which keeps every flag."""
    for _ in range(40):
        dim, bits = rng.randint(2, 5), rng.randint(64, 200)
        a = _wide_matrix(rng, dim, bits)
        yield a, _wide_matrix(rng, dim, bits)
        scalars = [Scalar(_wide_part(rng, bits), _wide_part(rng, bits)) for _ in range(3)]
        yield a, a * a * scalars[0] + a * scalars[1] + ExactMatrix.identity(dim) * scalars[2]
    for k, cls in enumerate(RelationClass):
        for dim in (2, 3, 4):
            try:
                a, b = sample_pair(cls, dim, 900 + k, cls is not RelationClass.COMM)
            except SamplerBudgetError:
                continue
            bits = rng.randint(64, 200)
            yield (a * Scalar(_wide_part(rng, bits), _wide_part(rng, bits)),
                   b * Scalar(_wide_part(rng, bits), _wide_part(rng, bits)))


def test_flags_match_the_reference_on_wide_gaussian_entries():
    met, unmet = Counter(), Counter()
    for a, b in _wide_pairs(random.Random(26)):
        assert max(map(abs, a._re + a._im)).bit_length() > 64
        for x, y in ((a, b), (b, a)):
            want = _ref_flags(x, y)
            for name in _NAMES:
                assert PairContext(x, y).flag(name) == want[name], (name, x, y)
                met[name] += want[name]
                unmet[name] += not want[name]
    # every name is compared both when it holds and when it fails
    assert set(met) == set(unmet) == set(_NAMES) and min(met.values()) > 0


def test_a_gaussian_residue_vanishes_only_past_parts_of_two_to_the_32():
    # x + iy -> x + Ry mod M is 0 for no nonzero x + iy with parts below
    # 2^32 (the difference of two images with parts below 2^31), and it is
    # 0 for -R + i, just past that bound
    from weakcomm import relations

    def residue(x, y):
        return relations._apply(relations._residue_rows(ExactMatrix([[Scalar(x, y)]])), (1,))[0]

    powers = tuple(sign * 2**k for k in range(8, 32) for sign in (1, -1))
    parts = (0, 1, -1, 2**31 - 1, 2**32 - 1, -(2**32 - 1)) + powers
    assert [(x, y) for x in parts for y in parts if residue(x, y) == 0] == [(0, 0)]
    r = relations._R
    assert residue(-r, 1) == residue(1, r) == residue(r * r + 1, 0) == 0


def _gaussian_image(m, v):
    """The integer numerator of m times the Gaussian vector v, exactly, as (re, im) pairs."""
    d = m.dim
    return [
        (
            sum(m._re[i * d + j] * vr - m._im[i * d + j] * vi for j, (vr, vi) in enumerate(v)),
            sum(m._re[i * d + j] * vi + m._im[i * d + j] * vr for j, (vr, vi) in enumerate(v)),
        )
        for i in range(d)
    ]


def test_residues_refute_what_the_exact_images_refute():
    # on search candidates of every dim, whose images have parts below 2^31,
    # two words' residues differ exactly when their Gaussian images differ
    from weakcomm import relations

    refuted = kept = 0
    for dim in range(2, 9):
        rng = random.Random(4000 + dim)
        for _ in range(40):
            a, b = _witness_candidate(rng, dim), _witness_candidate(rng, dim)
            ctx = PairContext(a, b)
            for x, y in _FLAG_WORDS.values():
                exact = []
                for w in (x, y):
                    v = [(p, 0) for p in relations._probe(dim)]
                    for letter in reversed(w):
                        v = _gaussian_image(a if letter == "a" else b, v)
                    assert max(max(abs(re), abs(im)) for re, im in v) < 2**31
                    exact.append(v)
                differ = ctx._image(x) != ctx._image(y)
                assert differ == (exact[0] != exact[1]), (x, y, a, b)
                refuted += differ
                kept += not differ
    assert refuted > 1000 and kept > 40


def _drawn_image(rows, v):
    """The drawn numerator over den 2, given by its residue rows, times the
    Gaussian vector v, exactly, as (re, im) pairs."""
    parts = [[_SEARCH_PARTS[c] for c in row] for row in rows]
    return [
        (
            sum(re * vr - im * vi for (re, im), (vr, vi) in zip(row, v)),
            sum(re * vi + im * vr for (re, im), (vr, vi) in zip(row, v)),
        )
        for row in parts
    ]


def test_drawn_residues_refute_what_the_exact_images_refute():
    # a search candidate enters the probe as its den-2 numerator, which is
    # the normalized one times 1 or 2; both words of a flag have the same
    # letters, so their images are scaled alike, and below 2^31 the residues
    # differ exactly when the normalized Gaussian images differ. The screen
    # builds no matrix, and every flag equals relation_flags of the matrices
    from weakcomm import relations

    refuted = kept = scaled = 0
    for dim in range(2, 9):
        rng = random.Random(4100 + dim)
        for _ in range(40):
            a, b = _search_rows(rng, dim), _search_rows(rng, dim)
            ctx = PairContext._of_rows((a, b), _search_matrix)
            built = {"a": _search_matrix(a), "b": _search_matrix(b)}
            scaled += built["a"]._den == 1 or built["b"]._den == 1
            for x, y in _FLAG_WORDS.values():
                exact = []
                for w in (x, y):
                    v = drawn = [(p, 0) for p in relations._probe(dim)]
                    for letter in reversed(w):
                        v = _gaussian_image(built[letter], v)
                        drawn = _drawn_image(a if letter == "a" else b, drawn)
                    assert max(max(abs(re), abs(im)) for re, im in drawn) < 2**31
                    exact.append(v)
                differ = ctx._image(x) != ctx._image(y)
                assert differ == (exact[0] != exact[1]), (x, y, a, b)
                refuted += differ
                kept += not differ
            assert ctx._words == {}
            assert [ctx.flag(n) for n in _NAMES] == [
                getattr(relation_flags(built["a"], built["b"]), n) for n in _NAMES
            ]
    assert refuted > 1000 and kept > 40 and scaled > 40


def _count_calls(monkeypatch, owner, name, counter):
    original = getattr(owner, name)

    def counted(*args):
        counter[name] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


def test_a_refuted_search_builds_no_matrix(monkeypatch):
    # on each of these 800 pairs the probe refutes the first flag that the
    # predicate reads (comm, and ab_in_comm_a of comm_w), so the search
    # builds no ExactMatrix, normalizes nothing and multiplies nothing
    from weakcomm import _kernel_py, instances

    calls = Counter()
    for owner, name in (
        (ExactMatrix, "_init_rep"),
        (instances, "normalize"),
        (_kernel_py, "normalize"),
        (_kernel_py, "mat_mul"),
    ):
        _count_calls(monkeypatch, owner, name, calls)
    assert search_witness("comm_not_comm", 4, 400, 0) is None
    assert search_witness("comm_w_not_comm", 8, 400, 0) is None
    assert calls == Counter()


def test_a_witness_search_builds_only_its_fallback_pairs(monkeypatch):
    # the letters are built for each pair whose flags reach the exact
    # products, and for the witness, once: in the screen when it fell back,
    # or else when it is returned. The record's own check is left out, so
    # every memo that reaches the products is a screened pair
    from weakcomm import instances, relations

    fell_back = []
    runs = (("comm_l_not_comm_r", 4, 400, 3), ("comm_l_not_comm_r", 4, 400, 5), ("not_c1", 4, 400, 1))
    for args in runs:
        built, memos = [], []
        build, product = instances._search_matrix, relations._product

        def counted_build(rows):
            built.append(rows)
            return build(rows)

        def counted_product(words, w):
            if not any(m is words for m in memos):
                memos.append(words)
            return product(words, w)

        monkeypatch.setattr(instances, "_search_matrix", counted_build)
        monkeypatch.setattr(relations, "_product", counted_product)
        monkeypatch.setattr(instances, "WitnessRecord", lambda **kw: kw)
        rec = search_witness(*args)
        monkeypatch.undo()
        assert rec is not None, args
        fell_back.append(any(m["a"] is rec["a"] for m in memos))
        assert len(built) == 2 * len(memos) + 2 * (not fell_back[-1]), args
        assert [_search_matrix(rows) for rows in built[-2:]] == [rec["a"], rec["b"]]
    assert fell_back == [True, True, False]


# (pairs whose flags reach the exact products, pairs screened, witnesses) of
# every predicate at seeds 0-9 and budget 400, per dim; each witness's own
# check in WitnessRecord counts as one more pair when its flags reach the
# products. Recorded before the screen ran on the drawn residues
_FALLBACK_PIN = {2: (2177, 9464, 70), 4: (131, 20514, 47), 8: (0, 24030, 30)}


def test_exact_fallbacks_are_pinned(monkeypatch):
    from weakcomm import relations

    memos = {}
    product = relations._product

    def counted(words, w):
        memos.setdefault(id(words), words)
        return product(words, w)

    monkeypatch.setattr(relations, "_product", counted)
    got = {}
    for dim in _FALLBACK_PIN:
        memos.clear()
        pairs = found = 0
        for name in sorted(_PREDICATES):
            for seed in range(10):
                rec = search_witness(name, dim, 400, seed)
                pairs += rec.samples_tried if rec else 400
                found += rec is not None
        got[dim] = (len(memos), pairs, found)
    assert got == _FALLBACK_PIN
    # at dim 4, fewer than 1% of the candidates screened are built: a pair
    # that reaches the products builds its two
    fallbacks, pairs, _ = got[4]
    assert fallbacks < 0.01 * pairs


def test_search_makes_no_reference_cycles():
    # every screened pair is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        search_witness("comm_w_not_comm", 4, 400, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- one module knows the word memo ---------------------------------------------


def _memo_uses(path):
    """The lines of the module at ``path`` that import or read ``_product``
    or build a word dict with the keys "a" and "b" and no others."""
    import ast

    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and any(a.name == "_product" for a in node.names):
            uses.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_product":
            uses.append(node.lineno)
        elif isinstance(node, ast.Dict) and len(node.keys) == 2:
            keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
            if keys == {"a", "b"}:
                uses.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            if sorted(k.arg for k in node.keywords) == ["a", "b"]:
                uses.append(node.lineno)
    return uses


def test_only_relations_knows_the_word_memo():
    # every other module reads a pair's words through its PairContext
    from pathlib import Path

    import weakcomm

    package = Path(weakcomm.__file__).parent
    found = {p.name: _memo_uses(p) for p in sorted(package.glob("*.py"))}
    assert found.pop("relations.py"), "the detector finds the memo where it is"
    assert {name: lines for name, lines in found.items() if lines} == {}
