"""Relation flags: truth on frozen pairs, symmetry, duality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcomm.errors import DimensionMismatchError, SamplerBudgetError
from weakcomm.exact import ExactMatrix, Scalar
from weakcomm.instances import RelationClass, _witness_candidate, sample_pair
from weakcomm.relations import _FLAG_WORDS, FLAG_NAMES, relation_check, relation_flags

E = ExactMatrix.single_entry


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
