"""The free-algebra prover: its proofs, its refutations and the proof table.

A prover that merged congruence classes would prove too much: every
membership defect xy - yx has coefficient sum 0, so one class of all words
"proves" it. So besides the proofs, these tests pin refutations: the
catalog's excluded n = 2, every dropped conjunct, and the empty relation set.
"""

import subprocess
import sys

import pytest

from weakcomm import identities
from weakcomm.freealg import Congruence, expand, flag_relations
from weakcomm.identities import IdentityId, check_identity
from weakcomm.instances import RelationClass, sample_pair


def _rows():
    """The word identities whose hypothesis is one branch of flags alone,
    each with that branch."""
    for identity, decl in identities._IDENTITIES.items():
        (branch, *rest) = decl.branches
        if decl.words and not rest and branch.atoms == tuple(branch.flags):
            yield identity, branch


def _combinations(identity, params):
    """The combinations of a word identity at params, its branches held."""
    q = identities._params(identity, params)
    held = [(branch, q.get("n")) for branch in identities._IDENTITIES[identity].branches]
    return list(identities._IDENTITIES[identity].words(q, held))


def test_every_claim_the_suite_serves_is_proved():
    # a claim's key is the identity, the flags of each branch it holds on,
    # joined, and its power n
    table = identities._proof_table(8)
    rows = {
        (identity, branch.label, p.get("n"))
        for identity, branch in _rows()
        for p in identities._IDENTITIES[identity].grid
    }
    # KRITERION_RANGE's row is its one empty branch, ""
    assert len(rows) == 15 + 2 * 7
    expected = rows | {
        *((ident, "comm_w", n)
          for ident in (IdentityId.BINOM, IdentityId.TELESCOPE) for n in (1, 3, 4, 5, 6)),
        (IdentityId.R_iv, "comm_l", None),
        (IdentityId.R_iv, "comm_r", None),
        (IdentityId.R_iv, "comm_l", "comm_r", None),
        (IdentityId.R_i, "ab_in_comm_a", None),
        (IdentityId.R_ii, "ba_in_comm_a", None),
        (IdentityId.R_i, "ab_in_comm_a & comm", None),
        (IdentityId.R_ii, "ba_in_comm_a & comm", None),
        *((IdentityId.NIL_TELE, flag, n) for flag in ("comm_l", "comm_r") for n in range(1, 9)),
    }
    assert expected == {key for key, _, _ in identities._suite_claims(8)}
    assert expected <= set(table)
    assert all(table[key] for key in expected)


def test_the_table_grows_only_by_what_it_lacks(fresh_proofs):
    small = dict(identities._proof_table(3))
    assert (IdentityId.NIL_TELE, "comm_l", 3) in small
    assert (IdentityId.NIL_TELE, "comm_l", 4) not in small
    grown = identities._proof_table(5)
    assert {k: grown[k] for k in small} == small
    assert (IdentityId.NIL_TELE, "comm_r", 5) in grown
    assert len(grown) == len(small) + 4


def test_the_suite_proves_nothing_beyond_the_sampled_dims():
    # NIL_TELE's claims at power n have words of length n + 3, so a dim the
    # sampler rejects must not reach the prover
    with pytest.raises(ValueError, match="dim must be between 2 and 8"):
        identities.verify_suite(["comm"], (40,), 1, 1)
    assert (IdentityId.NIL_TELE, "comm_l", 9) not in identities._PROOFS


def test_binom_and_telescope_at_n2_are_refuted_and_fail_on_a_pair():
    cong = Congruence(flag_relations(["comm_w"]))
    # (a+b)^2 less its expansion is ba - ab with a first, ab - ba with b
    # first; ab and ba are two classes of length 2, and ab is the smaller
    assert [cong.refute(c) for c in identities._binom(2)] == [("ab", -1), ("ab", 1)]
    assert [cong.refute(c) for c in identities._telescopes(2)] == [
        ("ab", 1), ("ab", -1), ("ab", 1), ("ab", -1)
    ]
    a, b = sample_pair(RelationClass.COMM_W, 3, 1, require_noncommuting=True)
    for identity in (IdentityId.BINOM, IdentityId.TELESCOPE):
        res = check_identity(identity, a, b, n=2)
        assert not res.hypothesis_met and not res.holds
        assert res.residual == pytest.approx(2.708, abs=1e-3)
        assert res.residual == (a * b - b * a).frobenius()


def test_dropping_any_conjunct_refutes_each_multi_conjunct_row():
    rows = 0
    for identity, branch in _rows():
        relations = flag_relations(branch.flags)
        if len(relations) < 2:
            continue
        rows += 1
        params = {"n": 4} if identity in (IdentityId.NEWTON_R, IdentityId.NEWTON_L) else {}
        combos = _combinations(identity, params)
        assert all(Congruence(relations).refute(c) is None for c in combos), identity
        for k in range(len(relations)):
            kept = Congruence(relations[:k] + relations[k + 1 :])
            assert any(kept.refute(c) is not None for c in combos), (identity, relations[k])
    assert rows == 10


def test_without_relations_every_nonzero_combination_is_refuted():
    free = Congruence(())
    nonzero = 0
    for _, _, combos in identities._suite_claims(8):
        for c in combos:
            terms = expand(c)
            if not terms:
                assert free.refute(c) is None
                continue
            nonzero += 1
            word = min(terms)
            assert free.refute(c) == (word, terms[word])
    assert nonzero > 200


def test_refutation_names_the_smallest_class_with_a_nonzero_sum():
    # aba = aab joins those two words; every other word of length 3 is alone
    cong = Congruence([("aba", "aab")])
    assert cong.representative("aba") == cong.representative("aab") == "aab"
    assert cong.representative("baa") == "baa"
    assert cong.refute([("aba", 1), ("aab", -1)]) is None
    assert cong.refute([("aba", 1), ("baa", -1)]) == ("aab", 1)
    assert cong.refute([("baa", 2), ("bba", -2), ("aab", 1), ("aba", -1)]) == ("baa", 2)
    # s expands into a and b: sa - as is ba - ab
    assert expand([("sa", 1), ("as", -1)]) == {"ba": 1, "ab": -1}
    assert Congruence([("ab", "ba")]).refute([("sa", 1), ("as", -1)]) is None


def test_relations_must_be_words_of_one_length():
    with pytest.raises(ValueError):
        Congruence([("ab", "a")])
    with pytest.raises(ValueError):
        Congruence([("as", "sa")])
    with pytest.raises(ValueError):
        flag_relations(["c1_pair"])
    assert flag_relations(["comm_l"]) == (("aba", "aab"), ("bab", "bba"))
    assert flag_relations(["comm_w"]) == (
        ("aba", "aab"), ("abb", "bab"), ("baa", "aba"), ("bab", "bba")
    )


def test_comm_w_forces_commutation_at_dim_2():
    # In the comm_w ideal the commutator c = ab - ba squares to zero and
    # commutes with a and b, but c itself is not in it. In M2 a central
    # traceless c is 0, and c = gE12 with g != 0 would make a and b scalar
    # plus multiples of E12, which commute. So every comm_w pair of 2x2
    # matrices commutes, and verify_suite asks no noncommuting one of them.
    c = [("ab", 1), ("ba", -1)]
    square = [("abab", 1), ("abba", -1), ("baab", -1), ("baba", 1)]
    with_a = [("aba", 2), ("aab", -1), ("baa", -1)]
    with_b = [("abb", 1), ("bab", -2), ("bba", 1)]
    comm_w = Congruence(flag_relations(["comm_w"]))
    assert comm_w.refute(square) is None
    assert comm_w.refute(with_a) is None and comm_w.refute(with_b) is None
    assert comm_w.refute(c) == ("ab", 1)
    for flag in ("comm_l", "comm_r"):
        assert Congruence(flag_relations([flag])).refute(square) is None, flag
    for s in range(200):
        a, b = sample_pair(RelationClass.COMM_W, 2, s, require_noncommuting=False)
        assert a * b == b * a, s


_IMPORT_SCOPE = """
import contextlib, io, sys

def loaded():
    return {m for m in sys.modules if m.startswith("weakcomm.")}

SUITE = {"weakcomm." + m for m in ("identities", "structure", "algebraic", "freealg", "numeric")}
# start-up loads neither the samplers and search nor the stdlib modules
# that a dataclass needs, unless a site hook loaded those before weakcomm
LATER = SUITE | {"weakcomm.instances"} | ({"dataclasses", "inspect"} - set(sys.modules))

def early():
    return sorted(LATER & set(sys.modules))

import weakcomm
assert not loaded(), sorted(loaded())
import weakcomm.cli
from weakcomm import ExampleId, paper_example
for example in ExampleId:
    paper_example(example)
assert not early(), ("registry", early())
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["truncate", "EXNILP_T"], ["example", "SEX_I_PQ"]):
        assert weakcomm.cli.main(argv) == 0, argv
    try:
        weakcomm.cli.main(["--version"])
    except SystemExit:
        pass
    assert not early(), ("commands", early())
    argv = ["search", "--predicate", "comm_w_not_comm", "--dim", "4", "--budget", "400", "--seed", "1"]
    assert weakcomm.cli.main(argv) in (0, 1)
    assert "weakcomm.instances" in loaded()
    assert not SUITE & loaded(), ("search", sorted(SUITE & loaded()))
    argv = ["verify", "--classes", "comm_l", "--dims", "2", "--samples", "1", "--seed", "1"]
    assert weakcomm.cli.main(argv) == 0
assert "weakcomm.identities" in loaded()
print("ok")
"""


def test_the_package_does_not_import_the_prover():
    # importing the package loads none of its modules; the cli, the registry,
    # example, truncate and --version load neither the samplers nor the
    # identity suite nor dataclasses, search loads the samplers but not the
    # suite, and verify loads the suite
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCOPE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
