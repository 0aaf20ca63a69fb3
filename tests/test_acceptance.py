"""Acceptance gate: 11 verification criteria, one test and one verdict line each.

The heavy shared computation (the full 250-sample identity suite) runs once
per session. Every criterion prints "ACCEPTANCE n: PASS/FAIL" so the tee'd
log carries a self-contained scoreboard.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from weakcomm.exact import (
    ExactMatrix,
    Scalar,
    charpoly,
    exp_exact_nilpotent,
    nilpotency_degree,
    poly_radical_nonzero,
    rank_kernel,
)
from weakcomm.identities import IdentityId, check_identity, verify_suite
from weakcomm.instances import (
    ExampleId,
    RelationClass,
    derive_seed,
    evaluate_word,
    example_entry,
    paper_example,
    registry_self_test,
    sample_pair,
    sample_spectral_instance,
    search_witness,
)
from weakcomm.numeric import CMatrix
from weakcomm.relations import relation_check
from weakcomm.shiftlab import finite_support_kernel, truncate
from weakcomm.structure import (
    chain_profile,
    dis_propagation,
    full_spectrum_equal_exact,
    kernel_inclusion_forward,
    kernel_inclusion_reverse,
    nonzero_spectrum_equal_exact,
)

from float_oracle import expm


class _Verdict:
    def __init__(self, n):
        self.n = n

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"ACCEPTANCE {self.n}: " + ("PASS" if exc_type is None else "FAIL"))
        return False


@pytest.fixture(scope="session")
def suite_report():
    return verify_suite(dims=(2, 3, 4), samples_per_class=250, seed=7)


@pytest.fixture(scope="session")
def spectral_instances_comm_r():
    out = []
    dims = (3, 4, 5, 6)
    for i in range(200):
        out.append(
            sample_spectral_instance(dims[i % 4], derive_seed("acc-spec-r", i), kind="comm_r")
        )
    return out


@pytest.fixture(scope="session")
def spectral_instances_comm_w():
    out = []
    dims = (4, 5, 6)
    for i in range(200):
        out.append(
            sample_spectral_instance(dims[i % 3], derive_seed("acc-spec-w", i), kind="comm_w")
        )
    return out


def test_criterion_01_registry_regression():
    with _Verdict(1):
        for example_id in ExampleId:
            checks = registry_self_test(example_id)
            bad = [name for name, ok in checks if not ok]
            assert bad == [], (example_id.value, bad)
        # the worked chains, spelled out
        (p, q), rep = paper_example(ExampleId.SEX_I_PQ)
        words = [evaluate_word(w, p, q) for w in ("aba", "aab", "baa", "bab", "bba")]
        assert all(w == words[0] for w in words)
        assert evaluate_word("abb", p, q) != evaluate_word("bba", p, q)
        assert p * q != q * p
        for eid in (ExampleId.SEX_IV_N1N2, ExampleId.SEX_V_PQ):
            _, r = paper_example(eid)
            assert r.comm_w and not r.comm
        (r_mat, n_mat), rep4 = paper_example(ExampleId.EX4_RN)
        nr = n_mat * r_mat
        assert (nr * r_mat) == (r_mat * nr)  # NR in comm(R)
        assert n_mat * r_mat != r_mat * n_mat


def test_criterion_02_identity_suite(suite_report):
    with _Verdict(2):
        rep = suite_report
        assert rep.totals["fail"] == 0
        families = [i for i in IdentityId if i.value.startswith(("L1.", "R."))]
        families += [
            IdentityId.NEWTON_R,
            IdentityId.NEWTON_L,
            IdentityId.BINOM,
            IdentityId.TELESCOPE,
            IdentityId.NIL_PROD,
            IdentityId.NIL_SUM,
            IdentityId.NIL_TELE,
        ]
        for ident in families:
            slot = rep.identities[ident.value]
            assert slot["fail"] == 0, ident.value
            assert slot["pass"] >= 1, f"{ident.value} never fired"
        print(
            "criterion 2 totals: "
            f"pass={rep.totals['pass']} vacuous={rep.totals['vacuous']} "
            f"fail={rep.totals['fail']}"
        )


def test_criterion_03_binom_n2_defect():
    with _Verdict(3):
        dims = (3, 4, 5)
        for i in range(100):
            a, b = sample_pair(
                RelationClass.COMM_W,
                dims[i % 3],
                derive_seed("acc-binom", i),
                require_noncommuting=True,
            )
            s = a + b
            defect = s * s - (a * a + a * b * 2 + b * b)
            assert defect == b * a - a * b
        (p, q), _ = paper_example(ExampleId.SEX_V_PQ)
        s = p + q
        defect = s * s - (p * p + p * q * 2 + q * q)
        assert defect == q * p - p * q
        assert not defect.is_zero()


def _series_exp(m):
    # independent finite exponential: plain power series, stops at the
    # nilpotency degree
    total = ExactMatrix.identity(m.dim)
    term = ExactMatrix.identity(m.dim)
    for k in range(1, m.dim + 1):
        term = term * m
        total = total + term * Fraction(1, math.factorial(k))
        if term.is_zero():
            break
    return total


def test_criterion_04_exp_correction():
    with _Verdict(4):
        dims = (3, 4, 5)
        checked = 0
        for i in range(100):
            a, b = sample_pair(
                RelationClass.COMM_W,
                dims[i % 3],
                derive_seed("acc-exp", i),
                require_noncommuting=True,
                nilpotent=True,
            )
            ea, eb, es = exp_exact_nilpotent(a), exp_exact_nilpotent(b), exp_exact_nilpotent(a + b)
            commutator = a * b - b * a
            exact_diff = ea * eb - es
            assert exact_diff == commutator * Fraction(1, 2)
            # numeric twin on float casts
            fa, fb = CMatrix.from_exact(a), CMatrix.from_exact(b)
            numeric_diff = expm(fa) * expm(fb) - expm(CMatrix.from_exact(a + b))
            ref = CMatrix.from_exact(exact_diff)
            rel = (numeric_diff - ref).frobenius() / (1.0 + ref.frobenius())
            assert rel <= 1e-10
            checked += 1
        assert checked >= 100
        # the worked pinpoint, via the independent series oracle
        (p, q), _ = paper_example(ExampleId.SEX_V_PQ)
        diff = _series_exp(p) * _series_exp(q) - _series_exp(p + q)
        expected = ExactMatrix.single_entry(3, 2, 0, Scalar(Fraction(-1, 12)))
        assert diff == expected
        assert exp_exact_nilpotent(p) * exp_exact_nilpotent(q) - exp_exact_nilpotent(
            p + q
        ) == expected


def test_criterion_05_spectral_inequalities():
    with _Verdict(5):
        classes = (
            RelationClass.COMM_L,
            RelationClass.COMM_R,
            RelationClass.COMM_W,
            RelationClass.COMM,
        )
        dims = (2, 3, 4, 5, 6)
        checked_prod = 0
        for i in range(500):
            cls = classes[i % 4]
            dim = dims[i % 5]
            strict = cls is not RelationClass.COMM and not (
                cls is RelationClass.COMM_W and dim < 3
            )
            a, b = sample_pair(
                cls, dim, derive_seed("acc-rad-prod", i), require_noncommuting=strict
            )
            rep = relation_check(a, b)
            assert rep.ab_in_comm_a or rep.ab_in_comm_b
            # rho(ab) <= rho(a)rho(b), decided exactly
            res = check_identity(IdentityId.RAD_PROD, a, b)
            assert (res.verdict, res.residual) == ("pass", 0.0), (i, res)
            checked_prod += 1
        assert checked_prod == 500
        checked_sum = 0
        for i in range(500):
            cls = RelationClass.COMM_L if i % 2 == 0 else RelationClass.COMM_R
            dim = dims[i % 5]
            a, b = sample_pair(
                cls, dim, derive_seed("acc-rad-sum", i), require_noncommuting=True
            )
            # rho(a+b) <= rho(a) + rho(b), decided exactly
            res = check_identity(IdentityId.RAD_SUM, a, b)
            assert (res.verdict, res.residual) == ("pass", 0.0), (i, res)
            checked_sum += 1
        assert checked_sum == 500


def test_criterion_06_spectrum_perturbation(
    spectral_instances_comm_r, spectral_instances_comm_w
):
    with _Verdict(6):
        for inst in spectral_instances_comm_r:
            assert nilpotency_degree(inst.n) is not None
            rep = relation_check(inst.t, inst.n)
            assert rep.ba_in_comm_a and rep.ab_in_comm_b
            assert nonzero_spectrum_equal_exact(inst.t, inst.t + inst.n)
        for inst in spectral_instances_comm_w:
            assert relation_check(inst.t, inst.n).comm_w
            assert full_spectrum_equal_exact(inst.t, inst.t + inst.n)
        # the dim-2 counterexample without the hypothesis
        (t, n), _ = paper_example(ExampleId.REMARK_TN)
        assert not nonzero_spectrum_equal_exact(t, t + n)
        assert poly_radical_nonzero(charpoly(t)).literal() == "1"
        assert poly_radical_nonzero(charpoly(t + n)).literal() == "x^2 - 1"


def test_criterion_07_kernel_inclusions(spectral_instances_comm_r):
    with _Verdict(7):
        assert len(spectral_instances_comm_r) == 200
        for inst in spectral_instances_comm_r:
            t, n, lam, p = inst.t, inst.n, inst.lam, inst.p
            nt = n * t
            assert (t * nt) == (nt * t)  # T in comm(NT)
            assert (n ** p).is_zero()
            assert not lam.is_zero()
            assert kernel_inclusion_forward(t, n, lam, p=p)
            if (n * n).is_zero():
                assert kernel_inclusion_reverse(t, n, lam)


def test_criterion_08_chain_structure():
    with _Verdict(8):
        rng = random.Random(derive_seed("acc-chain"))
        for _ in range(200):
            dim = rng.randint(2, 5)
            t = ExactMatrix(
                [
                    [Scalar(Fraction(rng.randint(-2, 2))) for _ in range(dim)]
                    for _ in range(dim)
                ]
            )
            profile = chain_profile(t)
            _, ker, _ = rank_kernel(t)
            power = ExactMatrix.identity(dim)
            contained = True
            for _ in range(dim):
                power = power * t
                _, _, img = rank_kernel(power)
                if not img.contains(ker):
                    contained = False
                    break
            assert (profile.stable_degree == 0) == contained
        # propagation across products on comm_r pairs; invertible commuting
        # pairs are appended so the hypothesis demonstrably fires
        dims = (2, 3, 4)
        pairs = []
        for i in range(200):
            pairs.append(
                sample_pair(
                    RelationClass.COMM_R,
                    dims[i % 3],
                    derive_seed("acc-dis", i),
                    require_noncommuting=True,
                )
            )
        u = ExactMatrix.parse("1,1;0,1")
        pairs.append((u, u))
        pairs.append((ExactMatrix.parse("2,0;0,3"), ExactMatrix.parse("5,0;0,7")))
        fired = 0
        for t, s in pairs:
            verdict = dis_propagation(s, t)
            if verdict.hypothesis_met:
                fired += 1
                assert verdict.holds
        assert fired >= 1
        print(f"criterion 8 dis_propagation fired on {fired} pairs")


def test_criterion_09_cset_contrapositive():
    with _Verdict(9):
        for predicate, flag in (
            ("not_c3", "c3_pair"),
            ("not_c1", "c1_pair"),
            ("not_c2", "c2_pair"),
        ):
            record = search_witness(predicate, 2, 10_000, 7)
            assert record is not None, predicate
            assert record.samples_tried <= 10_000
            rep = relation_check(record.a, record.b)
            assert not getattr(rep, flag)
            print(
                f"criterion 9 {predicate}: witness after {record.samples_tried} samples"
            )


def test_criterion_10_shiftlab_truncations():
    with _Verdict(10):
        t_spec, _ = paper_example(ExampleId.EXNILP_T)
        n_spec, _ = paper_example(ExampleId.EXNILP_N)
        q_spec, _ = paper_example(ExampleId.EXNILP_Q)
        tn = t_spec + n_spec
        tq = t_spec + q_spec
        for size in (10, 20, 40, 80, 160):
            tm = truncate(t_spec, size)
            tnm = truncate(tn, size)
            assert charpoly(tm).literal() == f"x^{size}"
            assert charpoly(tnm).literal() == f"x^{size}"
            # N cancels the first weight of T, so T+N has one step less
            assert nilpotency_degree(tm) == size
            assert nilpotency_degree(tnm) == size - 1
            tqm = truncate(tq, size)
            assert (tqm * tqm).is_zero()  # even sizes
            assert nilpotency_degree(tqm) == 2
            # certified kernel stays exactly span{e1}
            ker = finite_support_kernel(tn, size)
            assert ker.dim == 1
            vec = ker.vectors[0]
            assert not vec[0].is_zero()
            assert all(vec[j].is_zero() for j in range(1, size))
        # product chain drives the flags at every size
        for size in list(range(3, 13)) + [20, 40]:
            a = truncate(t_spec, size)
            b = truncate(n_spec, size)
            for word in ("aba", "baa", "ba", "bba", "bab", "abb"):
                assert evaluate_word(word, a, b).is_zero(), (size, word)
            rep = relation_check(a, b)
            assert rep.ab_in_comm_b and rep.ba_in_comm_a and rep.ba_in_comm_b
            assert not rep.comm
            aab = evaluate_word("aab", a, b)
            if size == 3:
                # the truncation cuts the chain short: T*TN falls off the end
                assert aab.is_zero()
                assert rep.ab_in_comm_a and rep.comm_w
            else:
                assert not aab.is_zero()
                assert not rep.ab_in_comm_a and not rep.comm_l


def test_criterion_11_determinism_and_mutant(tmp_path):
    with _Verdict(11):
        base = [
            sys.executable,
            "-m",
            "weakcomm",
            "verify",
            "--dims",
            "2,3",
            "--samples",
            "12",
            "--seed",
            "7",
        ]
        blobs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            proc = subprocess.run(
                base + ["--out", str(out)], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert payload["totals"]["fail"] == 0
        mutant = subprocess.run(
            base + ["--inject-fault", "NEWTON_L"], capture_output=True, text=True
        )
        assert mutant.returncode == 1
        mutant_payload = json.loads(mutant.stdout)
        assert mutant_payload["totals"]["fail"] > 0
