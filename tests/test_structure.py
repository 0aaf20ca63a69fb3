"""Chain profiles, range/kernel criteria, inclusions, spectrum equality."""

import random
from fractions import Fraction
from itertools import product

import pytest

from weakcomm.errors import HypothesisNotMetError, NotNilpotentError
from weakcomm.exact import ExactMatrix, Scalar, rank_kernel
from weakcomm.instances import RelationClass, sample_pair, sample_spectral_instance
from weakcomm.relations import relation_check
from weakcomm.structure import (
    _criterion,
    _kernel_annihilated,
    chain_profile,
    dis_propagation,
    full_spectrum_equal_exact,
    invariant_restriction,
    kernel_inclusion_forward,
    kernel_inclusion_reverse,
    nonzero_spectrum_equal_exact,
    range_kernel_criterion,
)

E = ExactMatrix.single_entry


def _jordan_nilpotent(d):
    m = ExactMatrix.zeros(d)
    for i in range(d - 1):
        m = m + E(d, i, i + 1)
    return m


def _rand_matrix(rng, dim):
    rows = [
        [Scalar(Fraction(rng.randint(-2, 2))) for _ in range(dim)] for _ in range(dim)
    ]
    return ExactMatrix(rows)


def test_chain_profile_nilpotent_jordan_block():
    for d in (2, 3, 4, 5):
        p = chain_profile(_jordan_nilpotent(d))
        assert p.dim == d
        assert p.alpha_seq == tuple([1] * d + [0])
        assert p.beta_seq == p.alpha_seq
        assert p.ascent == d and p.descent == d
        assert p.stable_degree == d
        assert p.essential_degree == 0
        assert p.index == 0


def test_chain_profile_invertible():
    p = chain_profile(ExactMatrix.parse("1,1;0,1"))
    assert p.alpha_seq == (0, 0, 0)
    assert p.ascent == 0 and p.descent == 0 and p.stable_degree == 0


def test_chain_profile_mixed_block():
    # J_2(0) + unit block: the chain dies at step 2
    t = E(3, 0, 1) + E(3, 2, 2)
    p = chain_profile(t)
    assert p.alpha_seq == (1, 1, 0, 0)
    assert p.beta_seq == (1, 1, 0, 0)
    assert p.ascent == 2 and p.descent == 2 and p.stable_degree == 2


def test_chain_alpha_equals_beta_randomly():
    # two independent computation routes for the same invariant
    rng = random.Random(13)
    for _ in range(60):
        t = _rand_matrix(rng, rng.randint(2, 5))
        p = chain_profile(t)
        assert p.alpha_seq == p.beta_seq
        assert p.ascent == p.descent
        assert p.alpha_seq[-1] == 0
        assert p.index == 0


def test_stable_degree_zero_iff_kernel_in_all_ranges():
    rng = random.Random(17)
    mats = [
        _jordan_nilpotent(3),
        ExactMatrix.identity(3),
        E(3, 0, 1) + E(3, 2, 2),
    ] + [_rand_matrix(rng, rng.randint(2, 4)) for _ in range(40)]
    for t in mats:
        p = chain_profile(t)
        _, ker, _ = rank_kernel(t)
        power = ExactMatrix.identity(t.dim)
        contained = True
        for _ in range(t.dim):
            power = power * t
            _, _, img = rank_kernel(power)
            if not img.contains(ker):
                contained = False
                break
        assert (p.stable_degree == 0) == contained


def test_range_kernel_criterion_matches_product_flags():
    rng = random.Random(19)
    for _ in range(120):
        a = _rand_matrix(rng, rng.randint(2, 4))
        b = _rand_matrix(rng, a.dim)
        rep = relation_check(a, b)
        first, second = range_kernel_criterion(b, a)
        assert first == rep.ab_in_comm_a
        assert second == rep.ba_in_comm_a


def _criterion_and_flags(a, b, report):
    """_criterion(a, ba - ab) and the flags (ab_in_comm_a, ba_in_comm_a)."""
    return _criterion(a, b * a - a * b), (report.ab_in_comm_a, report.ba_in_comm_a)


def test_criterion_is_the_product_flags_on_the_dim_2_grid():
    # verify serves KRITERION_RANGE from the flags, by ran(x) in ker(y) iff
    # yx = 0; every pair with entries in {-1, 0, 1} meets each outcome
    seen = set()
    for entries in product((-1, 0, 1), repeat=8):
        a = ExactMatrix([entries[0:2], entries[2:4]])
        b = ExactMatrix([entries[4:6], entries[6:8]])
        got, flags = _criterion_and_flags(a, b, relation_check(a, b))
        assert got == flags, (a.literal(), b.literal())
        seen.add(got)
    assert len(seen) == 4


def test_criterion_is_the_product_flags_on_sampled_pairs():
    # the pairs verify samples, strict where a class allows, with the report
    # the sampler carries to verify
    seen = set()
    for k, cls in enumerate(RelationClass):
        for dim in range(2, 9):
            strict = cls is not RelationClass.COMM and not (
                cls is RelationClass.COMM_W and dim < 3
            )
            for seed in range(3):
                pair = sample_pair(cls, dim, 900 + 30 * k + 3 * dim + seed, strict)
                a, b = pair
                got, flags = _criterion_and_flags(a, b, pair.context.report)
                assert got == flags, (cls, dim, seed)
                seen.add(got)
    assert len(seen) == 4


def test_invariant_restriction_on_spectral_instance():
    inst = sample_spectral_instance(4, 9, kind="comm_r")
    v = invariant_restriction(inst.n, inst.t, inst.lam)
    assert v.hypothesis_met and v.invariant and v.restrictions_commute
    assert v.subspace_dim >= 1
    d = v.to_json_dict()
    assert d["invariant"] is True


def test_invariant_restriction_hypothesis_gate():
    t = ExactMatrix.parse("0,1;0,0")
    s = ExactMatrix.parse("0,0;1,0")
    v = invariant_restriction(s, t, 1)
    assert not v.hypothesis_met
    with pytest.raises(ValueError):
        invariant_restriction(s, t, 0)


def test_invariant_restriction_empty_eigenspace():
    t = ExactMatrix.parse("0,1;0,0")
    v = invariant_restriction(t * t, t, 5)  # s = 0 commutes; lam not an eigenvalue
    assert v.hypothesis_met and v.invariant and v.restrictions_commute
    assert v.subspace_dim == 0


def test_kernel_inclusions_on_spectral_instances():
    for seed in range(6):
        inst = sample_spectral_instance(4, 100 + seed, kind="comm_r")
        assert kernel_inclusion_forward(inst.t, inst.n, inst.lam, p=inst.p)
        if (inst.n * inst.n).is_zero():
            assert kernel_inclusion_reverse(inst.t, inst.n, inst.lam)


def test_kernel_inclusion_error_paths():
    t = ExactMatrix.parse("0,1;0,0")
    n = ExactMatrix.parse("0,0;1,0")
    with pytest.raises(ValueError):
        kernel_inclusion_forward(t, n, 0)
    with pytest.raises(HypothesisNotMetError):
        kernel_inclusion_forward(t, n, 1)  # t does not commute with n*t
    with pytest.raises(HypothesisNotMetError):
        kernel_inclusion_reverse(t, n, 1)
    with pytest.raises(NotNilpotentError):
        kernel_inclusion_forward(t, ExactMatrix.identity(2), 1)


def test_kernel_inclusion_forward_explicit():
    # t = diag(1, 0) with n = E12: n*t = 0 so the hypothesis is trivial;
    # ker(t - 1) = e1 and (t + n - 1)^2 kills it.
    t = E(2, 0, 0)
    n = E(2, 0, 1)
    assert (n * t).is_zero()
    assert kernel_inclusion_forward(t, n, 1, p=2)
    assert kernel_inclusion_reverse(t, n, 1)


def test_spectrum_equality_helpers():
    a = ExactMatrix.diagonal([Scalar(1), Scalar(0)])
    b = ExactMatrix.identity(2)
    assert nonzero_spectrum_equal_exact(a, b)
    assert not full_spectrum_equal_exact(a, b)
    assert full_spectrum_equal_exact(a, a)


def test_spectrum_equality_remark_counterexample():
    t = ExactMatrix.parse("0,1;0,0")
    n = ExactMatrix.parse("0,0;1,0")
    assert not nonzero_spectrum_equal_exact(t, t + n)
    assert not full_spectrum_equal_exact(t, t + n)


def test_dis_propagation_positive():
    t = ExactMatrix.parse("1,1;0,1")
    v = dis_propagation(t, t)
    assert v.hypothesis_met and v.holds
    assert v.stable_degree_ts == 0 and v.stable_degree_s == 0 and v.stable_degree_t == 0


def test_dis_propagation_gated():
    s = ExactMatrix.parse("0,0;1,0")
    t = ExactMatrix.parse("0,1;0,0")
    v = dis_propagation(s, t)
    assert not v.hypothesis_met and not v.holds
    d = v.to_json_dict()
    assert set(d) == {
        "hypothesis_met",
        "holds",
        "stable_degree_ts",
        "stable_degree_s",
        "stable_degree_t",
    }


def test_chain_profile_json_round_trip():
    import json

    p = chain_profile(_jordan_nilpotent(3))
    d = p.to_json_dict()
    json.dumps(d)
    assert d["alpha_seq"] == [1, 1, 1, 0]
    assert d["stable_degree"] == 3


# -- the subspace cores against the elimination route ------------------------------

_LAMS = (Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(2))


def _old_inclusion(x, y, p):
    """ker(x) inside ker(y^p) by rank_kernel of the power and a sum test."""
    lhs, rhs = rank_kernel(x)[1], rank_kernel(y ** p)[1]
    return rhs.sum_with(lhs) == rhs


def _old_criterion(t, c):
    """(ran(c) inside ker(t), ran(t) inside ker(c)) from rank_kernel's kernel
    and image bases and sum tests."""
    _, ker_t, img_t = rank_kernel(t)
    _, ker_c, img_c = rank_kernel(c)
    return ker_t.sum_with(img_c) == ker_t, ker_c.sum_with(img_t) == ker_c


def _differential_cases():
    """(t, n, lam, p) over dims 2-5 and lam in _LAMS, unconstrained by any
    hypothesis. t - lam is an integer matrix, singular in two cases of three
    (a dependent last row), and n is random, strictly upper triangular, zero or
    a polynomial in t, so that every outcome occurs."""
    rng = random.Random(3301)
    for k in range(320):
        d, lam = 2 + k % 4, _LAMS[(k // 4) % 4]
        rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        if k % 3:
            coeffs = [rng.randint(-1, 1) for _ in range(d - 1)]
            rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(d)]
        t = ExactMatrix(rows) + ExactMatrix.identity(d) * lam
        kind = k % 5
        if kind == 0:
            n = ExactMatrix.zeros(d)
        elif kind == 1:
            n = t * t - t * 2
        elif kind == 2:
            n = _rand_matrix(rng, d)
        else:
            n = ExactMatrix.zeros(d)
            for i in range(d - 1):
                n = n + E(d, i, rng.randint(i + 1, d - 1), rng.randint(-2, 2))
        yield t, n, lam, rng.randint(1, 3)


def test_inclusion_core_matches_the_elimination_route():
    seen = set()
    for t, n, lam, p in _differential_cases():
        shift = ExactMatrix.identity(t.dim) * lam
        x, y = t - shift, t + n - shift
        for u, v in ((x, y), (y, x)):
            got = _kernel_annihilated(u, v, p)
            assert got == _old_inclusion(u, v, p), (t, n, lam, p)
            seen.add(got)
    assert seen == {True, False}


def test_criterion_core_matches_the_elimination_route():
    seen = set()
    for t, s, _, _ in _differential_cases():
        c = s * t - t * s
        got = _criterion(t, c)
        assert got == _old_criterion(t, c) == range_kernel_criterion(s, t), (t, s)
        seen.update(enumerate(got))
    assert seen == {(0, True), (0, False), (1, True), (1, False)}
