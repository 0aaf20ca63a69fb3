"""Identity catalog: targeted pairs per identity and the suite harness."""

import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from weakcomm import algebraic, exact, identities, instances, relations, structure
from weakcomm.cli import main
from weakcomm.errors import SamplerBudgetError
from weakcomm.errors import UnknownIdentityError
from weakcomm.exact import ExactMatrix, Scalar, charpoly, poly_radical, poly_radical_nonzero
from weakcomm.identities import (
    IdentityId,
    PairContext,
    _detect_power_membership,
    _from_defects,
    _json_params,
    _run_checker,
    check_identity,
    identity_catalog,
    verify_suite,
)
from weakcomm.instances import ExampleId, RelationClass, paper_example, sample_pair
from weakcomm.numeric import spectral_radius_exact
from weakcomm.relations import FLAG_NAMES, RelationReport, _probe, relation_check, relation_flags

from field_scalar import FieldScalar

E = ExactMatrix.single_entry


def _pair(example_id):
    (a, b), _ = paper_example(example_id)
    return a, b


def test_catalog_is_complete_and_ordered():
    cat = identity_catalog()
    assert cat == list(IdentityId)
    assert len(cat) == len(set(cat)) == 33


def test_check_identity_accepts_string_ids():
    a, b = _pair(ExampleId.SEX_V_PQ)
    res = check_identity("R.iii", a, b)
    assert res.identity is IdentityId.R_iii
    assert res.verdict == "pass"


@pytest.mark.parametrize(
    "identity, n",
    [
        ("NEWTON_R", 0),
        ("NEWTON_R", -2),
        ("BINOM", -1),
        ("NIL_TELE", 0),
        ("TELESCOPE", -3),
        ("TELESCOPE", 2.0),
        ("BINOM", True),
        ("L1.I.i", 0),
    ],
)
def test_check_identity_rejects_bad_n(identity, n):
    a, b = _pair(ExampleId.SEX_I_PQ)
    with pytest.raises(ValueError, match="n must be an int >= 1"):
        check_identity(identity, a, b, n=n)


@pytest.mark.parametrize(
    "identity, params",
    [
        ("L1.I.i", {"n": 5}),
        ("L1.I.i", {"lam": 3}),
        ("L1.I.i", {"mu": 2}),
        ("R.iii", {"n": 2}),
        ("NEWTON_R", {"lam": 1}),
        ("BINOM", {"mu": 1}),
        ("NIL_TELE", {"lam": 2}),
        ("R.i", {"n": 3}),
        ("R.ii", {"n": 3}),
        ("KER_INCL", {"mu": 1}),
        ("KER_INCL", {"n": 2}),
        ("RAD_PROD", {"lam": 1}),
        ("SPEC_EQ_W", {"n": 2}),
    ],
)
def test_check_identity_rejects_unread_parameters(identity, params):
    a, b = _pair(ExampleId.SEX_I_PQ)
    (name,) = params
    with pytest.raises(ValueError, match=rf"^{identity} does not read the parameter {name}$"):
        check_identity(identity, a, b, **params)


@pytest.mark.parametrize(
    "identity, params",
    [
        ("NEWTON_R", {"n": 4}),
        ("NEWTON_L", {"n": 4}),
        ("BINOM", {"n": 4}),
        ("TELESCOPE", {"n": 4}),
        ("NIL_TELE", {"n": 1}),
        ("R.i", {"lam": 0, "mu": 1}),
        ("R.ii", {"lam": 0, "mu": 1}),
        ("KER_INCL", {"lam": 2}),
    ],
)
def test_check_identity_accepts_read_parameters(identity, params):
    a, b = _pair(ExampleId.SEX_I_PQ)
    res = check_identity(identity, a, b, **params)
    assert set(res.params) == set(params)


def test_unknown_identity_rejected():
    a, b = _pair(ExampleId.SEX_I_PQ)
    with pytest.raises(UnknownIdentityError):
        check_identity("NOPE", a, b)


def test_l1_one_sided_families():
    # SEX_I_PQ is strictly comm_l: the left family passes, the right
    # family is vacuous.
    a, b = _pair(ExampleId.SEX_I_PQ)
    rep = relation_check(a, b)
    assert rep.comm_l and not rep.comm_r
    for ident in (IdentityId.L1_I_i, IdentityId.L1_I_ii, IdentityId.L1_I_iii):
        assert check_identity(ident, a, b).verdict == "pass"
    for ident in (IdentityId.L1_III_i, IdentityId.L1_III_ii, IdentityId.L1_III_iii):
        assert check_identity(ident, a, b).verdict == "pass"
    for ident in (IdentityId.L1_IV_i, IdentityId.L1_IV_ii, IdentityId.L1_IV_iii):
        res = check_identity(ident, a, b)
        assert res.verdict == "vacuous"
        assert not res.hypothesis_met


def test_l1_right_family_on_transpose():
    # Transposing swaps the families.
    a, b = _pair(ExampleId.SEX_I_PQ)
    at, bt = a.transpose(), b.transpose()
    assert relation_check(at, bt).comm_r
    for ident in (
        IdentityId.L1_II_i,
        IdentityId.L1_II_ii,
        IdentityId.L1_IV_i,
        IdentityId.L1_IV_ii,
        IdentityId.L1_IV_iii,
    ):
        assert check_identity(ident, at, bt).verdict == "pass"


def test_newton_left_and_right():
    a, b = _pair(ExampleId.SEX_I_PQ)
    for n in range(2, 9):
        res = check_identity(IdentityId.NEWTON_L, a, b, n=n)
        assert res.verdict == "pass" and res.residual == 0.0
    at, bt = a.transpose(), b.transpose()
    for n in range(2, 9):
        assert check_identity(IdentityId.NEWTON_R, at, bt, n=n).verdict == "pass"
    # Newton-R on a strictly left pair is vacuous
    assert check_identity(IdentityId.NEWTON_R, a, b, n=3).verdict == "vacuous"


def test_binom_holds_except_n2():
    a, b = _pair(ExampleId.SEX_V_PQ)
    for n in (1, 3, 4, 5, 6):
        res = check_identity(IdentityId.BINOM, a, b, n=n)
        assert res.verdict == "pass" and res.residual == 0.0
    res2 = check_identity(IdentityId.BINOM, a, b, n=2)
    assert res2.verdict == "vacuous"


def test_binom_n2_defect_is_reversed_commutator():
    # (a+b)^2 - (a^2 + 2ab + b^2) == ba - ab whenever anything is true;
    # on a weakly commuting non-commuting pair it is nonzero.
    a, b = _pair(ExampleId.SEX_V_PQ)
    s = a + b
    lhs = s * s - (a * a + a * b * 2 + b * b)
    assert lhs == b * a - a * b
    assert not lhs.is_zero()


def test_telescope_all_four_orders():
    a, b = _pair(ExampleId.SEX_V_PQ)
    for n in (1, 3, 4, 5, 6):
        res = check_identity(IdentityId.TELESCOPE, a, b, n=n)
        assert res.verdict == "pass"
    assert check_identity(IdentityId.TELESCOPE, a, b, n=2).verdict == "vacuous"


def test_exp_corr_on_nilpotent_weak_pair():
    a, b = _pair(ExampleId.SEX_V_PQ)
    res = check_identity(IdentityId.EXP_CORR, a, b)
    assert res.verdict == "pass" and res.residual == 0.0


def test_exp_corr_vacuous_without_nilpotency():
    a = ExactMatrix.identity(2)
    res = check_identity(IdentityId.EXP_CORR, a, a)
    assert res.verdict == "vacuous"


def test_nil_prod_and_sum_and_closure():
    a, b = _pair(ExampleId.SEX_V_PQ)
    for ident in (IdentityId.NIL_PROD, IdentityId.NIL_SUM, IdentityId.QUASI_CLOSURE):
        res = check_identity(ident, a, b)
        assert res.verdict == "pass"


def test_nil_tele_left_direction():
    # SEX_V: b is in comm(a^2) but not comm(a); the telescoping
    # factorization must close at every order above 2.
    a, b = _pair(ExampleId.SEX_V_PQ)
    assert not (b * a - a * b).is_zero()
    a2 = a * a
    assert (b * a2 - a2 * b).is_zero()
    res = check_identity(IdentityId.NIL_TELE, a, b)
    assert res.verdict == "pass" and res.residual == 0.0
    forced = check_identity(IdentityId.NIL_TELE, a, b, n=2)
    assert forced.verdict == "pass"


def test_nil_tele_right_direction():
    a, b = _pair(ExampleId.SEX_V_PQ)
    at, bt = a.transpose(), b.transpose()
    res = check_identity(IdentityId.NIL_TELE, at, bt)
    assert res.verdict == "pass" and res.residual == 0.0


def test_nil_tele_vacuous_when_no_power_membership():
    a = ExactMatrix.parse("0,1;0,0")
    b = ExactMatrix.parse("0,0;1,0")
    res = check_identity(IdentityId.NIL_TELE, a, b)
    assert res.verdict == "vacuous"


def test_rad_prod_and_sum_commuting():
    a = ExactMatrix.parse("-1,4;-1,3")  # defective, radius exactly 1
    b = a * a
    for ident in (IdentityId.RAD_PROD, IdentityId.RAD_SUM):
        res = check_identity(ident, a, b)
        assert res.verdict == "pass"
        assert res.residual == 0.0


def test_rad_bounds_vacuous_on_free_pair():
    # a and b are nilpotent while ab and a + b have the radius 1: both
    # conclusions fail by exactly 1
    a = ExactMatrix.parse("0,1;0,0")
    b = ExactMatrix.parse("0,0;1,0")
    for ident in (IdentityId.RAD_PROD, IdentityId.RAD_SUM):
        res = check_identity(ident, a, b)
        assert (res.verdict, res.holds, res.residual) == ("vacuous", False, 1.0)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_rad_ties_are_decided_exactly(monkeypatch):
    compared = _counting(monkeypatch, algebraic, "_compare")
    tied = _counting(monkeypatch, algebraic, "_tie_polynomial")
    # ab has the eigenvalues +-i, no product of the eigenvalues +-1 of a and
    # b, so spectral inclusion fails; rho(ab) = rho(a)rho(b) = 1 is rational,
    # and the exact enclosures meet
    a, b = ExactMatrix.parse("1,0;0,-1"), ExactMatrix.parse("0,1;1,0")
    res = check_identity(IdentityId.RAD_PROD, a, b)
    assert (res.holds, res.residual) == (True, 0.0)
    assert (len(compared), len(tied)) == (1, 0)
    # the first block gives rho(ab) = rho(a)rho(b) = 1 + sqrt(2) and
    # rho(a+b) = rho(a) + rho(b) = 2 + sqrt(2), and the second block the
    # eigenvalues +-i/4 of ab and +-sqrt(2)/2 of a + b, no products or sums
    # of eigenvalues of a and b: the ties are irrational, refinement stalls
    # and the tie polynomials decide
    a = ExactMatrix.parse("1,1,0,0;2,1,0,0;0,0,1/2,0;0,0,0,-1/2")
    b = ExactMatrix.parse("1,0,0,0;0,1,0,0;0,0,0,1/2;0,0,1/2,0")
    for ident in (IdentityId.RAD_PROD, IdentityId.RAD_SUM):
        res = check_identity(ident, a, b)
        assert (res.holds, res.residual) == (True, 0.0), ident
    assert (len(compared), len(tied)) == (3, 2)


def test_rad_verdicts_agree_with_the_float_oracle():
    rng = random.Random(19)
    decided = 0
    for i in range(120):
        dim = 2 + i % 4
        a, b = (
            ExactMatrix([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
            for _ in range(2)
        )
        r = spectral_radius_exact
        gaps = {
            IdentityId.RAD_PROD: r(a * b) - r(a) * r(b),
            IdentityId.RAD_SUM: r(a + b) - r(a) - r(b),
        }
        for ident, gap in gaps.items():
            if abs(gap) <= 1e-6:
                continue
            res = check_identity(ident, a, b)
            assert res.holds == (gap < 0), (ident, a.literal(), b.literal(), gap)
            assert res.residual == (0.0 if gap < 0 else pytest.approx(gap, abs=1e-9))
            decided += 1
    assert decided > 150


def test_verify_never_reaches_the_general_comparison(monkeypatch):
    # the spectral-inclusion certificate decides every RAD evaluation whose
    # hypothesis is met
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 1)
    compared = _counting(monkeypatch, algebraic, "_compare")
    rep = verify_suite(dims=(2, 3, 4), samples_per_class=20, seed=7)
    assert rep.failures == 0
    assert rep.identities["RAD_PROD"]["pass"] > 0 and rep.identities["RAD_SUM"]["pass"] > 0
    assert compared == []


def test_subspace_checkers_build_no_image_and_eliminate_only_for_kernels(monkeypatch):
    # KER_INCL and KRITERION_RANGE read kernels only: no rank_kernel, so no
    # image basis, and each containment is a reduction, so the only _rref
    # calls are the canonical forms of the kernels that _kernel builds.
    # verify serves KRITERION_RANGE from its words, so its checker runs
    # through check_identity, on the pairs that the suite samples
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 1)
    inside = []
    counts = {"rank_kernel": 0, "_rref": 0, "_kernel": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += bool(inside)
            return original(*args, **kwargs)

        return counted

    for module, name in ((exact, "rank_kernel"), (structure, "rank_kernel"),
                         (exact, "_rref"), (exact, "_kernel")):
        monkeypatch.setattr(module, name, counting(name, getattr(exact, name)))

    def marked(conclude):
        def run(ctx, q, held):
            inside.append(True)
            try:
                return conclude(ctx, q, held)
            finally:
                inside.pop()

        return run

    concluded, pairs = {}, []
    for ident in (IdentityId.KER_INCL, IdentityId.KRITERION_RANGE):
        decl = identities._IDENTITIES[ident]
        marked_decl = dataclasses.replace(decl, conclude=marked(decl.conclude))
        monkeypatch.setitem(identities._IDENTITIES, ident, marked_decl)
    sample = instances.sample_pair

    def sampling(*args, **kwargs):
        pairs.append(sample(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(instances, "sample_pair", sampling)
    rep = verify_suite(dims=(2, 3, 4), samples_per_class=4, seed=5)
    concluded["KER_INCL"] = rep.identities["KER_INCL"]["pass"] + rep.identities["KER_INCL"]["fail"]
    results = [check_identity(IdentityId.KRITERION_RANGE, a, b) for a, b in pairs]
    concluded["KRITERION_RANGE"] = sum(res.hypothesis_met for res in results)
    assert len(pairs) == 4 * len(RelationClass) and all(res.holds for res in results)
    assert rep.failures == 0 and all(concluded.values()), concluded
    assert counts["rank_kernel"] == 0
    assert 0 < counts["_rref"] <= counts["_kernel"], counts


def test_spec_identities_on_spectral_instance():
    from weakcomm.instances import sample_spectral_instance

    inst = sample_spectral_instance(4, 3, kind="comm_r")
    t, n = inst.t, inst.n
    assert check_identity(IdentityId.SPEC_INCL, t, n).verdict == "pass"
    if (n * n).is_zero():
        assert check_identity(IdentityId.SPEC_EQ_N2, t, n).verdict == "pass"
    res = check_identity(IdentityId.KER_INCL, t, n, lam=inst.lam)
    assert res.verdict == "pass"


def test_spec_eq_fails_without_hypothesis():
    # The classical counterexample: swapping off-diagonal units changes
    # the nonzero spectrum; the hypothesis gate must be what saves us.
    a, b = _pair(ExampleId.REMARK_TN)
    res = check_identity(IdentityId.SPEC_EQ_N2, a, b)
    assert res.verdict == "vacuous"
    assert not res.holds  # informational: the conclusion really is false


def test_spec_eq_w_on_weak_pair():
    a, b = _pair(ExampleId.SEX_V_PQ)
    res = check_identity(IdentityId.SPEC_EQ_W, a, b)
    assert res.verdict == "pass"


def test_kriterion_range_always_applicable():
    a, b = _pair(ExampleId.SEX_I_PS)
    res = check_identity(IdentityId.KRITERION_RANGE, a, b)
    assert res.hypothesis_met and res.verdict == "pass"


def test_r_shift_params():
    a, b = _pair(ExampleId.SEX_I_PQ)
    res = check_identity(IdentityId.R_i, a, b, lam=0, mu=1)
    assert res.verdict == "pass"
    assert res.params["lam"] == Scalar(0)
    # nonzero lam without full commutation gates the hypothesis off
    res2 = check_identity(IdentityId.R_i, a, b, lam=1, mu=0)
    assert res2.verdict == "vacuous"


def test_result_json_shape():
    a, b = _pair(ExampleId.SEX_V_PQ)
    d = check_identity(IdentityId.BINOM, a, b, n=3).to_json_dict()
    assert d["identity"] == "BINOM"
    assert d["verdict"] == "pass"
    assert d["params"] == {"n": 3}
    assert d["defect"] is None
    json.dumps(d)


def test_failure_reports_defect_literal():
    # Force a fail by lying about the hypothesis via fault injection in
    # a tiny suite run instead: BINOM holds on weak pairs, so flip it.
    rep = verify_suite(
        classes=["comm_w"], dims=(3,), samples_per_class=2, seed=11, inject_fault="BINOM"
    )
    slot = rep.identities["BINOM"]
    assert slot["fail"] > 0
    ff = slot["first_failure"]
    assert ff is not None
    assert set(ff) >= {"class", "dim", "index", "seed", "a", "b", "params"}


def test_failing_conclusion_defect_literal():
    a = ExactMatrix.parse("1,2;0,1/2")
    b = ExactMatrix.parse("0,1;i,0")
    res = check_identity(IdentityId.L1_I_iii, a, b)
    assert (res.hypothesis_met, res.holds) == (False, False)
    assert res.residual == 4.2793106921559225
    assert isinstance(res.witness, ExactMatrix)
    assert res.defect == "-1i,-1/2+4i;1/4i,1i"
    assert res.to_json_dict()["defect"] == res.defect
    spec = check_identity(IdentityId.SPEC_EQ_W, a, b)
    assert spec.defect == "x^2 - 3/2x + 1/2 vs x^2 - 3/2x + 1/2-3i"


@pytest.fixture
def one_worker(monkeypatch):
    """verify_suite checks every pair in this process, where spies see it."""
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 1)


def test_clean_suite_renders_no_defect_literal(monkeypatch, one_worker):
    # defect text is rendered only for a first failure
    rendered = []
    original = ExactMatrix.literal

    def counting_literal(self):
        rendered.append(self)
        return original(self)

    monkeypatch.setattr(ExactMatrix, "literal", counting_literal)
    rep = verify_suite(dims=(2, 3), samples_per_class=2, seed=9)
    assert rep.failures == 0
    assert rendered == []


def test_r_iv_matches_relation_check_of_the_shifted_pair():
    # force each hypothesis on arbitrary pairs, so the shifted pair (a+b, b)
    # can fail, and compare with its relation report
    groups = {
        "comm_l": ("ab_in_comm_a", "ba_in_comm_b"),
        "comm_r": ("ab_in_comm_b", "ba_in_comm_a"),
    }
    failed = 0
    for a, b in _memo_sweep():
        shifted = relation_check(a + b, b)
        for forced in (("comm_l",), ("comm_r",), ("comm_l", "comm_r")):
            ctx = PairContext(a, b)
            ctx.report = dataclasses.replace(
                ctx.report, comm_l="comm_l" in forced, comm_r="comm_r" in forced
            )
            res = _run_checker(IdentityId.R_iv, ctx, {})
            assert res.hypothesis_met
            assert res.holds == all(getattr(shifted, g) for g in forced)
            flags = [k for g in forced for k in groups[g]]
            assert res.residual == max(shifted.residuals[k] for k in flags)
            failed += not res.holds
    assert failed > 0


def test_suite_small_run_clean_and_deterministic():
    kw = dict(classes=["comm_l", "none"], dims=(2, 3), samples_per_class=4, seed=5)
    r1 = verify_suite(**kw)
    r2 = verify_suite(**kw)
    assert r1.to_json() == r2.to_json()
    assert r1.failures == 0
    assert r1.totals["pass"] > 0
    d = r1.to_json_dict()
    assert d["schema_version"] == 1
    assert d["config"]["seed"] == 5


def test_suite_rejects_bad_config():
    with pytest.raises(ValueError):
        verify_suite(dims=(), samples_per_class=1, seed=1)
    with pytest.raises(ValueError):
        verify_suite(classes=["nonsense"], samples_per_class=1, seed=1)
    with pytest.raises(ValueError, match="relation classes repeat: comm,comm_l,comm"):
        verify_suite(classes=["comm", "comm_l", "comm"], samples_per_class=1, seed=1)


# -- pairs checked on several workers ----------------------------------------------


@pytest.fixture
def no_child_left():
    """Fails a test that leaves a child process behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _in_a_child(action, index=1):
    """sample_pair that calls ``action`` for ``index``, when a forked worker draws it."""
    parent, original = os.getpid(), instances.sample_pair

    def sample(cls, dim, seed, **kwargs):
        if os.getpid() != parent and seed == instances.derive_seed(1, "comm", index):
            action()
        return original(cls, dim, seed, **kwargs)

    return sample


def test_worker_count_is_one_per_cpu_and_pair():
    # a fresh interpreter runs one thread, and so does this one after NumPy
    # loads: conftest.py keeps its BLAS on one thread, so the suites of the
    # test process, the acceptance gate's included, fork their workers
    import numpy  # noqa: F401

    cpus = len(os.sched_getaffinity(0))
    probe = "from weakcomm.identities import _worker_count as w; print(w(0), w(1), w(1000))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "1", str(cpus)]
    assert identities._worker_count(1000) == cpus
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert identities._worker_count(1000) == 1
    finally:
        release.set()
        other.join()


def test_later_suites_keep_their_workers():
    # without the BLAS variables a NumPy import starts a thread, after which
    # a suite would check its pairs in one process; verify loads no NumPy
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    code = (
        "import sys\n"
        "from weakcomm import identities\n"
        "before = identities._worker_count(100)\n"
        "for _ in range(2):\n"
        "    identities.verify_suite(['comm_l', 'comm_r'], (2, 3), 4, 3)\n"
        "    assert 'numpy' not in sys.modules\n"
        "    assert identities._worker_count(100) == before, before\n"
        "print(before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{min(len(os.sched_getaffinity(0)), 100)}\n"


def test_suite_reports_progress_in_order_on_two_workers(monkeypatch, no_child_left):
    seen = {}
    for workers in (1, 2):
        monkeypatch.setattr(identities, "_worker_count", lambda jobs: workers)
        calls = seen[workers] = []
        rep = verify_suite(["comm_r", "none"], (2, 3), 3, 4, progress=lambda c, i: calls.append((c, i)))
        assert rep.failures == 0
    assert seen[1] == seen[2] == [(c, i) for c in ("comm_r", "none") for i in range(3)]


def test_worker_error_reaches_the_caller(monkeypatch, capsys, tmp_path, no_child_left):
    def give_up():
        raise SamplerBudgetError("comm pair not found", attempts=64, accepted=3)

    # worker 1 stops at its error: it never draws its next pair, index 3
    drawn = tmp_path / "drawn"
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 2)
    monkeypatch.setattr(instances, "sample_pair", _in_a_child(drawn.touch, index=3))
    monkeypatch.setattr(instances, "sample_pair", _in_a_child(give_up))
    with _deadline(60), pytest.raises(SamplerBudgetError) as info:
        verify_suite(["comm"], (2,), 5, 1)
    assert not drawn.exists()
    assert type(info.value) is SamplerBudgetError
    assert str(info.value) == "comm pair not found (attempts=64, accepted=3)"
    assert (info.value.attempts, info.value.accepted) == (64, 3)
    with _deadline(60):
        status = main(["verify", "--classes", "comm", "--dims", "2", "--samples", "3", "--seed", "1"])
    assert status == 2
    assert capsys.readouterr().err == "error: comm pair not found (attempts=64, accepted=3)\n"


def test_worker_that_exits_early_is_an_error(monkeypatch, no_child_left):
    # worker 1 exits before its first record, or after part of it
    parent, original = os.getpid(), pickle.dump

    def write_part(keep):
        def dump(record, out):
            if os.getpid() == parent:
                return original(record, out)
            data = pickle.dumps(record)
            out.write(data[:keep(len(data))])
            out.flush()
            os._exit(3)

        return dump

    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 2)
    exit_early = _in_a_child(lambda: os._exit(3))
    for sample, dump in [(exit_early, original)] + [
        (instances.sample_pair, write_part(keep)) for keep in (lambda n: 1, lambda n: n // 2, lambda n: n - 1)
    ]:
        monkeypatch.setattr(instances, "sample_pair", sample)
        monkeypatch.setattr(pickle, "dump", dump)
        with _deadline(60), pytest.raises(RuntimeError, match="worker 1 exited before sending pair 1"):
            verify_suite(["comm"], (2,), 3, 1)


@pytest.mark.parametrize("error", [SamplerBudgetError("comm pair not found", attempts=1), KeyboardInterrupt()])
def test_error_in_the_callers_pair_stops_the_workers(monkeypatch, no_child_left, error):
    # worker 1 would sleep for a minute: only killing it returns in time
    parent = os.getpid()

    def sample(cls, dim, seed, **kwargs):
        if os.getpid() == parent:
            raise error
        time.sleep(60)

    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 2)
    monkeypatch.setattr(instances, "sample_pair", sample)
    with _deadline(20), pytest.raises(type(error)):
        verify_suite(["comm"], (2,), 3, 1)


def test_suite_on_workers_leaves_no_child(monkeypatch, no_child_left):
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 3)
    rep = verify_suite(["comm_l"], (2, 3), 4, 2)
    assert rep.failures == 0 and rep.totals["pass"] > 0


def _fails_after(call, n, error):
    """``call`` that raises ``error`` from its (n+1)-th use on."""
    made = []

    def limited():
        if len(made) == n:
            raise error
        made.append(None)
        return call()

    return limited


@pytest.mark.parametrize(
    "name, workers, made, error",
    [("fork", 2, 0, BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
     ("fork", 3, 1, BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
     ("pipe", 3, 1, OSError(errno.EMFILE, "Too many open files"))],
)
def test_suite_without_a_worker_to_spare_checks_every_pair_here(
    monkeypatch, no_child_left, name, workers, made, error
):
    # the workers made before the failure are stopped; the report is the serial one
    config = (["comm", "comm_l"], (2, 3), 3, 6)
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 1)
    serial = verify_suite(*config, inject_fault="TELESCOPE").to_json_dict()
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: workers)
    monkeypatch.setattr(os, name, _fails_after(getattr(os, name), made, error))
    with _deadline(60):
        assert verify_suite(*config, inject_fault="TELESCOPE").to_json_dict() == serial
    assert serial["totals"]["fail"] > 0


# -- the per-pair memo ------------------------------------------------------------


def _memo_sweep():
    """Seeded pairs of every relation class at dims 2-4, nilpotent ones included."""
    pairs = []
    for k, cls in enumerate(RelationClass):
        for dim in (2, 3, 4):
            nilpotent = (k + dim) % 2 == 0
            pairs.append(sample_pair(cls, dim, 100 + 7 * k + dim, nilpotent=nilpotent))
    return pairs


def _shifted_defects(a, b, lam, mu):
    """R.i and R.ii defects built from the shifted factors a - lam and b - mu."""
    ident = ExactMatrix.identity(a.dim)
    sa, sb = a - ident * lam, b - ident * mu
    sab, sba = sa * sb, sb * sa
    return sab * sa - sa * sab, sba * sa - sa * sba


def test_r_i_r_ii_match_the_shifted_products():
    grid = [(0, 0), (0, 1), (1, 0), (1, -1), (Scalar(0, 1), Fraction(1, 2)), (Fraction(-2, 3), 3)]
    nonzero = 0
    for a, b in _memo_sweep():
        ctx = PairContext(a, b)
        for lam, mu in grid:
            params = {"lam": Scalar.coerce(lam), "mu": Scalar.coerce(mu)}
            defects = _shifted_defects(a, b, lam, mu)
            for identity, defect in zip((IdentityId.R_i, IdentityId.R_ii), defects):
                res = _run_checker(identity, ctx, params)
                expected = None if defect.is_zero() else defect
                assert res.witness == expected, (identity, lam, mu)
                assert res.residual == (0.0 if expected is None else defect.frobenius())
                nonzero += expected is not None
    assert nonzero > 0


def test_r_i_r_ii_words_imply_the_conclusion_at_every_lam():
    # the defect of the matrix equation is the words' first combination, x
    # in comm(a), less lam times the second, ba = ab, on every pair: so the
    # conclusion holds wherever the words vanish
    nonzero = 0
    for a, b in _memo_sweep():
        ctx = PairContext(a, b)
        for identity in (IdentityId.R_i, IdentityId.R_ii):
            decl = identities._IDENTITIES[identity]
            for lam in (0, 1, -1, Scalar(0, 1), Fraction(-2, 3)):
                q = identities._params(identity, {"lam": Scalar.coerce(lam)})
                combos = [ctx.combo(c) for c in decl.words(q, [])]
                assert len(combos) == (1 if q["lam"].is_zero() else 2)
                defect = combos[0]
                if len(combos) == 2:
                    defect = defect - combos[1] * q["lam"]
                _, _, witness = decl.conclude(ctx, q, [])
                assert (defect.is_zero() and witness is None) or witness == defect, (identity, lam)
                nonzero += witness is not None
    assert nonzero > 0


def test_shared_context_matches_fresh_context():
    # One context serves the whole suite in verify_suite's order; every
    # result must equal the one a fresh context gives for that call alone.
    for a, b in _memo_sweep():
        ctx = PairContext(a, b)
        for identity in IdentityId:
            for params in identities._IDENTITIES[identity].grid:
                shared = _run_checker(identity, ctx, params)
                fresh = check_identity(identity, a, b, **params)
                assert shared == fresh, (identity, params, a.literal(), b.literal())


def test_spectral_memo_matches_direct():
    # The nonzero radical is derived from the radical, not from the charpoly.
    pairs = _memo_sweep()
    n = ExactMatrix.parse("0,1,0;0,0,1;0,0,0")
    pairs.append((n, n.transpose()))
    nilpotent_seen = False
    for a, b in pairs:
        ctx = PairContext(a, b)
        for w in ("a", "b", "ab", "s"):
            m = ctx.word(w)
            assert ctx.radical_nonzero(w) == poly_radical_nonzero(charpoly(m))
            assert ctx.radical(w) == poly_radical(charpoly(m))
            if ctx.radical(w).literal() == "x":
                nilpotent_seen = True
                assert ctx.radical_nonzero(w).literal() == "1"
    assert nilpotent_seen


def test_radical_of_a_word_of_cached_nilpotency_degree_is_x(monkeypatch):
    # nilpotent words, upper triangular and conjugated out of that shape: a
    # cached degree gives the radical x without a charpoly, which equals the
    # radical of the charpoly; a cached None (not nilpotent) gives the
    # radical of the charpoly
    rng = random.Random(5)
    words = ("a", "b", "ab", "ba", "s", "aab", "bab")
    nilpotent = not_nilpotent = 0
    for dim in (2, 3, 4, 5):
        for _ in range(6):
            upper = [
                ExactMatrix([[rng.randint(-3, 3) if j > i else 0 for j in range(dim)]
                             for i in range(dim)])
                for _ in range(2)
            ]
            # unit lower times unit upper: invertible, full of nonzeros
            p = ExactMatrix([[rng.randint(-2, 2) if j < i else int(i == j) for j in range(dim)]
                             for i in range(dim)])
            p = p * p.transpose()
            q = exact.inverse(p)
            pairs = [upper, [p * m * q for m in upper], [upper[0], upper[1].transpose()]]
            for a, b in pairs:
                ctx = PairContext(a, b)
                for w in words:
                    want = poly_radical(charpoly(ctx.word(w)))
                    degree = ctx.nil_degree(w)
                    with monkeypatch.context() as m:
                        if degree is not None:
                            m.setattr(relations, "charpoly", None)  # must not be called
                        got = ctx.radical(w)
                    assert got == want, (a.literal(), b.literal(), w)
                    if degree is None:
                        not_nilpotent += 1
                    else:
                        nilpotent += 1
                        assert got == exact.ExactPoly.variable()
    assert nilpotent > 300 and not_nilpotent > 50
    # a degree not yet cached: the radical of the charpoly, which is x
    n = ExactMatrix.parse("0,1,0;0,0,1;0,0,0")
    ctx = PairContext(n, n)
    assert ctx.radical("a") == poly_radical(charpoly(n)) == exact.ExactPoly.variable()


def test_words_are_products_of_letters():
    a, b = _pair(ExampleId.SEX_I_PQ)
    ctx = PairContext(a, b)
    s = a + b
    assert ctx.word("") == ExactMatrix.identity(a.dim)
    assert ctx.word("abab") == a * b * a * b
    assert ctx.word("sba") == s * (b * a)
    assert ctx.word("ab" * 3) == (a * b) ** 3
    assert ctx.ab == a * b and ctx.ba == b * a and ctx.s == s
    # combo: repeated words, negative coefficients, the empty word, s words,
    # and words with mixed denominators (2, 3, 5, 7)
    a = ExactMatrix.parse("1/2,1;0,-1/3")
    b = ExactMatrix.parse("0,1/5;1/7+2i,i")
    ctx = PairContext(a, b)
    s = a + b
    assert ctx.combo([("ab", 1), ("ab", 2)]) == a * b * 3
    assert ctx.combo([("a", 2), ("b", -3), ("ba", -1)]) == a * 2 - b * 3 - b * a
    assert ctx.combo([("", 5), ("a", -1)]) == ExactMatrix.identity(2) * 5 - a
    assert ctx.combo([("ss", 1), ("sa", -1)]) == s * b
    assert ctx.combo([("ss", 1), ("aa", -1), ("ab", -1), ("ba", -1), ("bb", -1)]).is_zero()
    assert ctx.combo([("ab", 1), ("ab", -1), ("b", 0)]) == ExactMatrix.zeros(2)
    assert ctx.combo([]) == ExactMatrix.zeros(2)
    assert ctx.combo([("aab", 3), ("b", -2), ("aab", -1)]) == a * a * b * 2 - b * 2


# -- reference checkers: the per-term loops that the word combinations replaced --


def _ref_memb(ctx, x, y):
    return ctx.word(x + y) - ctx.word(y + x)


def _ref_telescope_sums(ctx, n):
    s_ba = s_ab = ExactMatrix.zeros(ctx.dim)
    for j in range(n):
        s_ba = s_ba + ctx.word("b" * j + "a" * (n - 1 - j))
        s_ab = s_ab + ctx.word("a" * (n - 1 - j) + "b" * j)
    return s_ba, s_ab


def _ref_l1_iii_ii(ctx, p):
    w = ctx.word
    diff = ctx.a - ctx.b
    defects = []
    for n in (2, 3, 4, 5):
        an, bn = w("a" * n), w("b" * n)
        s_ba, s_ab = _ref_telescope_sums(ctx, n)
        defects.append((an - bn + w("b" + "a" * (n - 1)) - w("a" * (n - 1) + "b")) - s_ba * diff)
        defects.append((an - bn + w("b" * (n - 1) + "a") - w("a" + "b" * (n - 1))) - s_ab * diff)
    return ctx.report.comm_l, *_from_defects(defects)


def _ref_l1_iv_ii(ctx, p):
    w = ctx.word
    diff = ctx.a - ctx.b
    defects = []
    for n in (2, 3, 4, 5):
        an, bn = w("a" * n), w("b" * n)
        s_ba, s_ab = _ref_telescope_sums(ctx, n)
        defects.append((an - bn + w("a" + "b" * (n - 1)) - w("b" * (n - 1) + "a")) - diff * s_ba)
        defects.append((an - bn + w("a" * (n - 1) + "b") - w("b" + "a" * (n - 1))) - diff * s_ab)
    return ctx.report.comm_r, *_from_defects(defects)


def _ref_newton_r(ctx, p):
    n, w = p["n"], ctx.word
    total = ExactMatrix.zeros(ctx.dim)
    for k in range(1, n + 1):
        term = w("a" * (n - k) + "b" * k) + w("b" * (n - k) + "a" * k)
        total = total + term * comb(n - 1, k - 1)
    return ctx.report.comm_r, *_from_defects([w("s" * n) - total])


def _ref_newton_l(ctx, p):
    n, w = p["n"], ctx.word
    total = ExactMatrix.zeros(ctx.dim)
    for k in range(1, n + 1):
        term = w("a" * k + "b" * (n - k)) + w("b" * k + "a" * (n - k))
        total = total + term * comb(n - 1, k - 1)
    return ctx.report.comm_l, *_from_defects([w("s" * n) - total])


def _ref_binom(ctx, p):
    n, w = p["n"], ctx.word
    s1 = s2 = ExactMatrix.zeros(ctx.dim)
    for k in range(n + 1):
        c = comb(n, k)
        s1 = s1 + w("a" * k + "b" * (n - k)) * c
        s2 = s2 + w("b" * k + "a" * (n - k)) * c
    sn = w("s" * n)
    return ctx.report.comm_w and n != 2, *_from_defects([sn - s1, sn - s2])


def _ref_telescope(ctx, p):
    n = p["n"]
    diff = ctx.a - ctx.b
    target = ctx.word("a" * n) - ctx.word("b" * n)
    s_ba, s_ab = _ref_telescope_sums(ctx, n)
    defects = [target - s_ba * diff, target - diff * s_ba, target - s_ab * diff, target - diff * s_ab]
    return ctx.report.comm_w and n != 2, *_from_defects(defects)


def _ref_nil_tele(ctx, p):
    rep = ctx.report
    n_given = p.get("n")
    diff = ctx.a - ctx.b
    defects = []
    applicable = False
    if rep.comm_l:
        n = n_given if n_given is not None else _detect_power_membership(ctx, "b", "a")
        if n is not None and _ref_memb(ctx, "b", "a" * n).is_zero():
            applicable = True
            for m in (n + 1, n + 2, n + 3):
                s_ba, _ = _ref_telescope_sums(ctx, m)
                defects.append((ctx.word("a" * m) - ctx.word("b" * m)) - s_ba * diff)
    if rep.comm_r:
        n = n_given if n_given is not None else _detect_power_membership(ctx, "a", "b")
        if n is not None and _ref_memb(ctx, "a", "b" * n).is_zero():
            applicable = True
            for m in (n + 1, n + 2, n + 3):
                s_ba, _ = _ref_telescope_sums(ctx, m)
                defects.append((ctx.word("a" * m) - ctx.word("b" * m)) - diff * s_ba)
    return applicable, *_from_defects(defects)


_REFERENCES = {
    IdentityId.L1_III_ii: _ref_l1_iii_ii,
    IdentityId.L1_IV_ii: _ref_l1_iv_ii,
    IdentityId.NEWTON_R: _ref_newton_r,
    IdentityId.NEWTON_L: _ref_newton_l,
    IdentityId.BINOM: _ref_binom,
    IdentityId.TELESCOPE: _ref_telescope,
    IdentityId.NIL_TELE: _ref_nil_tele,
}


def test_word_combinations_match_the_loop_references():
    # every class at dims 2-5, nilpotent pairs included, n = 1..8: the
    # hypothesis, verdict, residual and witness matrix must all be equal
    orders = [{"n": n} for n in range(1, 9)]
    plans = {IdentityId.L1_III_ii: [{}], IdentityId.L1_IV_ii: [{}], IdentityId.NIL_TELE: [{}] + orders}
    evaluations = failing = 0
    for k, cls in enumerate(RelationClass):
        for dim in (2, 3, 4, 5):
            for seed in (0, 1):
                nilpotent = (k + dim + seed) % 2 == 0
                a, b = sample_pair(cls, dim, 300 + 11 * k + 2 * dim + seed, nilpotent=nilpotent)
                ctx, ref = PairContext(a, b), PairContext(a, b)
                for identity, reference in _REFERENCES.items():
                    for params in plans.get(identity, orders):
                        res = _run_checker(identity, ctx, params)
                        got = (res.hypothesis_met, res.holds, res.residual, res.witness)
                        assert got == reference(ref, params), (identity, params, cls, dim)
                        evaluations += 1
                        failing += not res.holds
    assert evaluations == 40 * (2 + 4 * 8 + 9)
    assert failing > evaluations // 5


def _recipe_combinations():
    """(identity, params, combination) for every combination of every word
    identity's declaration, each branch held, at each suite grid point and
    at n = 1..8; and of the telescopes' builder in its four orders."""
    orders = [{"n": n} for n in range(1, 9)]
    for identity, decl in identities._IDENTITIES.items():
        if decl.words is None:
            continue
        for params in list(decl.grid) + orders:
            q = identities._params(identity, params)
            held = [(branch, q.get("n") or 1) for branch in decl.branches]
            for terms in decl.words(q, held):
                yield identity, params, terms
    for params in orders:
        n = params["n"]
        for s_ab in (False, True):
            for diff_right in (True, False):
                terms = identities._telescope(n, [], s_ab, diff_right)
                yield IdentityId.TELESCOPE, params, terms


def test_recipes_yield_homogeneous_integer_combinations():
    # words over a, b and s of one length (s is one letter), nonzero int
    # coefficients: a dropped letter or a zero term shows here
    seen = set()
    for identity, params, terms in _recipe_combinations():
        assert terms, (identity, params)
        assert {len(w) for w, _ in terms} == {len(terms[0][0])}, (identity, params, terms)
        for w, c in terms:
            assert set(w) <= {"a", "b", "s"}, (identity, params, w)
            assert type(c) is int and c != 0, (identity, params, w, c)
        seen.add(identity)
    assert seen == {ident for ident, decl in identities._IDENTITIES.items() if decl.words}
    assert len(seen) == 23


def test_every_identity_is_declared_once_from_known_atoms():
    # one declaration per identity, in catalog order; each atom a report
    # flag or an atom kind, and each grid key a parameter the identity reads
    assert list(identities._IDENTITIES) == list(IdentityId)
    flags = {f.name for f in dataclasses.fields(RelationReport)} - {"residuals"}
    for identity, decl in identities._IDENTITIES.items():
        for branch in decl.branches:
            assert set(branch.flags) <= flags, identity
            kinds = (branch.flags, branch.params, branch.nil, branch.zero)
            parsed = sum(map(len, kinds)) + (branch.member is not None)
            assert parsed == len(branch.atoms), (identity, branch.atoms)
            assert {name for name, _, _ in branch.params} <= set(decl.reads), identity
        assert all(set(p) <= set(decl.reads) for p in decl.grid), identity
    with pytest.raises(ValueError, match="unknown atom 'comm_x'"):
        identities._Identity("comm_l & comm_x")
    with pytest.raises(ValueError, match=r"unknown atom 'mu = 0'"):
        identities._Identity("mu = 0")


def _readme_catalog():
    """(identity, hypothesis, grid) of each item of the README's identity
    catalog, its wrapped lines joined; "true" is the empty hypothesis."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Identity catalog\n", 1)[1].split("\n## ", 1)[0]
    items = []
    for line in section.splitlines():
        if line.startswith("- "):
            items.append(line)
        elif line.startswith("  ") and items:
            items[-1] += " " + line.strip()
    rows = []
    for item in items:
        m = re.fullmatch(r"- `([^`]+)`: `([^`]+)`(?: at `([^`]+)`)?: .+", item)
        assert m, item
        ident, hypothesis, grid = m.groups()
        rows.append((ident, "" if hypothesis == "true" else hypothesis, _grid_points(grid)))
    return rows


def _grid_points(text):
    """The points of "n = 1, 2" or "(lam, mu) = (0, 0), (1, 0)", as dicts of
    literals; no text is the one empty point."""
    if text is None:
        return [{}]
    names, values = text.split(" = ")
    names = names.strip("()").split(", ")
    points = re.findall(r"\(([^)]*)\)", values) if len(names) > 1 else values.split(", ")
    return [dict(zip(names, point.split(", "))) for point in points]


def test_readme_states_each_declared_identity():
    declared = [
        (ident.value, decl.hypothesis,
         [{k: str(v) for k, v in _json_params(p).items()} for p in decl.grid])
        for ident, decl in identities._IDENTITIES.items()
    ]
    assert _readme_catalog() == declared


def test_defect_is_a_word_pair_only_for_a_difference_of_two_words():
    a, b = _pair(ExampleId.SEX_I_PQ)
    ctx = PairContext(a, b)
    assert ctx.defect([("ab", 1), ("ba", -1)]) == (a * b, b * a)
    for terms, value in (
        ([("ab", -1), ("ba", 1)], b * a - a * b),
        ([("ab", 2), ("ba", -2)], (a * b - b * a) * 2),
        ([("ss", 1), ("ab", -1), ("ba", -1)], a * a + b * b),
        ([("aab", 1)], a * a * b),
    ):
        got = ctx.defect(terms)
        assert isinstance(got, ExactMatrix) and got == value, terms


def test_inject_fault_binom_flips_only_binom(capsys):
    argv = ["verify", "--dims", "2,3,4", "--samples", "2", "--seed", "13"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)
    assert main(argv + ["--inject-fault", "BINOM"]) == 1
    faulty = json.loads(capsys.readouterr().out)
    for name, slot in clean["identities"].items():
        if name != "BINOM":
            assert faulty["identities"][name] == slot
    before, after = clean["identities"]["BINOM"], faulty["identities"]["BINOM"]
    assert before["fail"] == 0 and before["pass"] > 0
    assert after["fail"] == before["pass"]
    assert after["pass"] == before["fail"]
    assert after["vacuous"] == before["vacuous"]


def test_inject_fault_runs_no_extra_checker(monkeypatch):
    # a fault flips the verdicts of its identity; it decides nothing anew
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 1)
    calls = _counting(monkeypatch, identities, "_run_checker")
    clean = verify_suite(dims=(2, 3, 4), samples_per_class=5, seed=3)
    checked = len(calls)
    faulty = verify_suite(dims=(2, 3, 4), samples_per_class=5, seed=3, inject_fault="BINOM")
    assert len(calls) - checked == checked > 0
    assert faulty.identities["BINOM"]["fail"] == clean.identities["BINOM"]["pass"] > 0


# -- hypothesis first: the suite skips conclusions no verdict reads --------------


def reference_verify_counts(classes, dims, samples_per_class, seed, inject_fault=None):
    """verify_suite's loop with every checker run in full, conclusions of
    unmet hypotheses included: (identities, totals)."""
    from weakcomm.instances import derive_seed

    if inject_fault is not None:
        inject_fault = IdentityId(inject_fault)
    counts = {
        ident.value: {"pass": 0, "vacuous": 0, "fail": 0, "first_failure": None}
        for ident in IdentityId
    }
    for cls in (RelationClass(c) for c in classes):
        for i in range(samples_per_class):
            dim = dims[i % len(dims)]
            pair_seed = derive_seed(seed, cls.value, i)
            strict = cls is not RelationClass.COMM and not (
                cls is RelationClass.COMM_W and dim < 3
            )
            a, b = sample_pair(cls, dim, pair_seed, require_noncommuting=strict)
            ctx = PairContext(a, b)
            for identity in IdentityId:
                for params in identities._IDENTITIES[identity].grid:
                    res = _run_checker(identity, ctx, params)
                    verdict, residual, defect = res.verdict, res.residual, res.defect
                    if identity is inject_fault and verdict != "vacuous":
                        verdict = "pass" if verdict == "fail" else "fail"
                        residual, defect = 0.0, None
                    slot = counts[identity.value]
                    slot[verdict] += 1
                    if verdict == "fail" and slot["first_failure"] is None:
                        slot["first_failure"] = {
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
    totals = {"pass": 0, "vacuous": 0, "fail": 0}
    for slot in counts.values():
        for key in totals:
            totals[key] += slot[key]
    return counts, totals


@pytest.mark.parametrize(
    "seed, inject_fault",
    [(1, None), (2, None), (23, None), (5, "NEWTON_R"), (6, "TELESCOPE"),
     (7, "RAD_PROD"), (8, "SPEC_EQ_W"), (9, "KER_INCL")],
)
def test_suite_counts_equal_the_full_evaluation(monkeypatch, seed, inject_fault):
    # every class, dims 2-5: skipping vacuous conclusions changes no count
    # and no first failure, on one, two or three workers
    classes = [c.value for c in RelationClass]
    dims = (2, 3, 4, 5)
    counts, totals = reference_verify_counts(classes, dims, 4, seed, inject_fault)
    assert totals["vacuous"] > 0
    if inject_fault is not None:
        assert counts[inject_fault]["fail"] > 0
    for workers in (1, 2, 3):
        monkeypatch.setattr(identities, "_worker_count", lambda jobs: workers)
        rep = verify_suite(classes, dims, 4, seed, inject_fault=inject_fault)
        assert rep.identities == counts, workers
        assert rep.totals == totals, workers


# -- proofs: the suite serves proved conclusions without evaluating them ---------


@pytest.mark.parametrize("inject_fault", [None, "TELESCOPE", "L1.III.ii", "R.iv", "NEWTON_R"])
def test_proofs_and_evaluation_give_one_report(monkeypatch, inject_fault):
    # the live proof table, and an empty one under which every conclusion of
    # a met hypothesis is evaluated on the matrices
    classes = [c.value for c in RelationClass]
    args = (classes, (2, 3, 4, 5), 4, 31)
    proved = verify_suite(*args, inject_fault=inject_fault)
    monkeypatch.setattr(identities, "_proof_table", lambda max_dim: identities._ProofTable())
    evaluated = verify_suite(*args, inject_fault=inject_fault)
    assert proved.to_json() == evaluated.to_json()
    if inject_fault is not None:
        assert proved.identities[inject_fault]["fail"] > 0


def test_every_served_conclusion_evaluates_to_zero(monkeypatch, fresh_proofs):
    # record each conclusion the table proves, with the pair being checked
    # (the suite is serial) and the parameters it was served at: a plan
    # reads the live branches at them (_live) just before the proof, and a
    # checker the held ones (_held); then evaluate it, and its words, there.
    # The table is fresh, so each report's plan is built, and read, while
    # this records
    served, current, points = [], [], []
    original, sample = identities._proved, instances.sample_pair

    def recording(proofs, identity, held):
        ok = original(proofs, identity, held)
        if ok:
            served.append((current[-1], identity, points[-1], held))
        return ok

    def sampling(*args, **kwargs):
        pair = sample(*args, **kwargs)
        current.append(pair.context)
        return pair

    def at_point(function):
        def run(identity, pair, q, *args):
            points.append(q)
            return function(identity, pair, q, *args)

        return run

    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 1)
    monkeypatch.setattr(identities, "_proved", recording)
    monkeypatch.setattr(identities, "_live", at_point(identities._live))
    monkeypatch.setattr(identities, "_held", at_point(identities._held))
    monkeypatch.setattr(instances, "sample_pair", sampling)
    rep = verify_suite(dims=(2, 3, 4, 5), samples_per_class=4, seed=31)
    assert rep.failures == 0
    claims = {identity for _, identity, _, _ in served}
    assert claims == {ident for ident, decl in identities._IDENTITIES.items() if decl.words}
    # R.i and R.ii are served at lam = 1 too, where their words read comm
    shifted = {(identity, q["lam"]) for _, identity, q, _ in served if "lam" in q}
    assert shifted == {(i, Scalar(lam)) for i in (IdentityId.R_i, IdentityId.R_ii) for lam in (0, 1)}
    for ctx, identity, q, held in served:
        decl = identities._IDENTITIES[identity]
        assert decl.conclusion(ctx, q, held) == (True, 0.0, None), (identity, q)
        words = identities._from_defects(map(ctx.defect, decl.words(q, held)))
        assert words == (True, 0.0, None), (identity, q)


def _newton_r_sides(a, b, n):
    rhs = ExactMatrix.zeros(a.dim)
    for k in range(1, n + 1):
        rhs = rhs + (a ** (n - k) * b**k + b ** (n - k) * a**k) * comb(n - 1, k - 1)
    return (a + b) ** n, rhs


def test_suite_renders_the_witness_of_a_forced_hypothesis(monkeypatch):
    # none-class pairs with ab_in_comm_a and comm_r forced: L1.I.iii fails
    # on a defect pair and NEWTON_R on a word combination, and the suite's
    # first failure must render what check_identity and lhs - rhs render;
    # a proof trusts the flags, so with the proof table empty the forged
    # hypotheses still reach the evaluator. The report is forced on the
    # context of each sampled pair, once the sampler accepted it, and on
    # the context check_identity builds
    sample = instances.sample_pair

    def force(ctx):
        ctx.report = dataclasses.replace(ctx.report, ab_in_comm_a=True, comm_r=True)
        return ctx

    def forced(*args, **kwargs):
        pair = sample(*args, **kwargs)
        force(pair.context)
        return pair

    monkeypatch.setattr(instances, "sample_pair", forced)
    monkeypatch.setattr(identities, "PairContext", lambda a, b: force(PairContext(a, b)))
    monkeypatch.setattr(identities, "_proof_table", lambda max_dim: identities._ProofTable())
    rep = verify_suite(["none"], (2, 3), 2, 17)
    sides = {
        "L1.I.iii": lambda a, b, p: (a * (a + b) * a, a * a * (a + b)),
        "NEWTON_R": lambda a, b, p: _newton_r_sides(a, b, p["n"]),
    }
    for name, defect_sides in sides.items():
        ff = rep.identities[name]["first_failure"]
        assert ff is not None and ff["class"] == "none", name
        a, b = ExactMatrix.parse(ff["a"]), ExactMatrix.parse(ff["b"])
        res = check_identity(name, a, b, **ff["params"])
        assert res.verdict == "fail"
        assert ff["defect"] == res.defect
        assert ff["residual"] == res.residual > 0
        lhs, rhs = defect_sides(a, b, ff["params"])
        assert ff["defect"] == (lhs - rhs).literal()
        assert ff["residual"] == (lhs - rhs).frobenius()


@pytest.mark.parametrize("inject_fault", [None, "L1.I.i", "BINOM", "R.i", "RAD_PROD"])
def test_served_verdicts_and_checkers_give_one_report(monkeypatch, fresh_proofs, inject_fault):
    # the verdicts served per flag set, and none served, so that every
    # evaluation runs its checker: 61 a pair, on a fresh table whose plans
    # are built with none served
    classes = [c.value for c in RelationClass]
    args = (classes, (2, 3, 4, 5), 4, 37)
    served = verify_suite(*args, inject_fault=inject_fault)
    evaluations = len(identities._SUITE_EVALUATIONS)
    assert evaluations == 61

    def unserved(report, proofs):
        every = tuple(identities._evaluation(k, report) for k in range(evaluations))
        return identities._Plan((None,) * evaluations, every)

    calls = 0
    original = identities._run_checker

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, "_PROOFS", identities._ProofTable())
    monkeypatch.setattr(identities, "_report_plan", unserved)
    monkeypatch.setattr(identities, "_run_checker", counting)
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 1)
    checked = verify_suite(*args, inject_fault=inject_fault)
    assert served.to_json() == checked.to_json()
    assert calls == evaluations * 4 * len(RelationClass)
    if inject_fault is not None:
        assert served.identities[inject_fault]["fail"] > 0


def test_a_table_keeps_its_claims_and_plans_across_calls(monkeypatch, fresh_proofs):
    # within one table, the claims are enumerated once per max_dim and each
    # report's plan is built once: a second call does neither, and a larger
    # max_dim over the same pairs (with three samples a class, dims 2-4 and
    # 2-5 draw the same ones) enumerates the claims again and builds no plan
    calls = {"claims": 0, "plans": 0}
    claims, plan = identities._suite_claims, identities._report_plan

    def counting_claims(max_dim):
        calls["claims"] += 1
        return claims(max_dim)

    def counting_plans(report, proofs):
        calls["plans"] += 1
        return plan(report, proofs)

    monkeypatch.setattr(identities, "_suite_claims", counting_claims)
    monkeypatch.setattr(identities, "_report_plan", counting_plans)
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 1)
    first = verify_suite(dims=(2, 3, 4), samples_per_class=3, seed=43)
    built = len(fresh_proofs.plans)
    assert calls == {"claims": 1, "plans": built} and built > 1
    again = verify_suite(dims=(2, 3, 4), samples_per_class=3, seed=43)
    assert again.to_json() == first.to_json()
    assert calls == {"claims": 1, "plans": built}
    larger = verify_suite(dims=(2, 3, 4, 5), samples_per_class=3, seed=43)
    assert larger.identities == first.identities
    assert calls == {"claims": 2, "plans": built} and fresh_proofs.max_dim == 5


def _every_report():
    """The report of each of the 32 settings of the five primitive flags."""
    from weakcomm.relations import _DERIVED, _report

    for mask in range(1 << len(FLAG_NAMES)):
        flags = {name: bool(mask >> k & 1) for k, name in enumerate(FLAG_NAMES)}
        for name, (combine, read) in _DERIVED.items():
            flags[name] = combine(flags[x] for x in read)
        yield _report(flags.__getitem__, None)


def test_plans_do_not_depend_on_the_table_dimension(monkeypatch):
    plans, tables = {}, {}
    for max_dim in (3, 8):
        monkeypatch.setattr(identities, "_PROOFS", identities._ProofTable())
        tables[max_dim] = identities._proof_table(max_dim)
        plans[max_dim] = [identities._report_plan(r, tables[max_dim]) for r in _every_report()]
    assert len(tables[3]) < len(tables[8])
    assert plans[3] == plans[8]
    # the plans serve both verdicts, leave some open, and differ by report
    verdicts = {v for plan in plans[8] for v in plan.verdicts}
    assert verdicts == {"pass", "vacuous", None}
    assert len({plan.verdicts for plan in plans[8]}) > 16
    for plan in plans[8]:
        assert [k for k, v in enumerate(plan.verdicts) if v is None] == [e[0] for e in plan.open]


def test_only_the_identities_that_need_the_matrices_are_left_open(fresh_proofs):
    # every word identity, KRITERION_RANGE and R.i and R.ii at lam != 0
    # among them, is served wherever the report decides its live branches;
    # what stays open reads nilpotency, spectra, kernels or a membership
    # power of the pair
    table = identities._proof_table(8)
    plans = [identities._report_plan(report, table) for report in _every_report()]
    left_open = {identity.value for plan in plans for _, identity, _, _, _ in plan.open}
    assert left_open == {
        "EXP_CORR", "KER_INCL", "NIL_PROD", "NIL_SUM", "NIL_TELE", "QUASI_CLOSURE",
        "RAD_PROD", "RAD_SUM", "SPEC_EQ_N2", "SPEC_EQ_W", "SPEC_INCL",
    }


@pytest.mark.parametrize("inject_fault", [None, "RAD_PROD"])
@pytest.mark.parametrize("workers", [1, 2])
def test_cold_and_warm_tables_give_one_report(monkeypatch, fresh_proofs, workers, inject_fault):
    # a cold table builds each plan on the report's first pair; a warm one
    # serves the plans the first call built, and its workers inherit them
    monkeypatch.setattr(identities, "_worker_count", lambda jobs: workers)
    args = ([c.value for c in RelationClass], (2, 3, 4), 4, 47)
    cold = verify_suite(*args, inject_fault=inject_fault)
    assert fresh_proofs.plans
    warm = verify_suite(*args, inject_fault=inject_fault)
    assert cold.to_json() == warm.to_json()
    if inject_fault is not None:
        assert cold.identities[inject_fault]["fail"] > 0


def test_flag_decided_verdicts_reach_no_checker(monkeypatch):
    # a serial suite: an evaluation whose verdict the report decides (every
    # branch has a false flag or parameter atom, or the live branches read
    # no word and their conclusion is proved) is served from its report's
    # table and reaches no checker; the others reach theirs on every pair
    proofs = identities._proof_table(5)
    reached, reports = [], set()
    calls = 0
    original = identities._run_checker

    def counting(identity, ctx, params, **kwargs):
        nonlocal calls
        calls += 1
        reports.add(ctx.report)
        q = identities._params(identity, params)
        live = [b for b in identities._IDENTITIES[identity].branches if b.reported(ctx.report, q)]
        held = [(b, q.get("n")) for b in live]
        if not live or all(b.decided for b in live) and identities._proved(proofs, identity, held):
            reached.append((identity, params))
        return original(identity, ctx, params, **kwargs)

    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 1)
    monkeypatch.setattr(identities, "_run_checker", counting)
    pairs = 6 * len(RelationClass)
    rep = verify_suite(dims=(2, 3, 4, 5), samples_per_class=6, seed=41)
    assert rep.failures == 0
    assert 1 < len(reports) < pairs
    assert reached == []
    # 61 evaluations a pair; the report leaves the verdict open on about 12
    assert calls < 15 * pairs


def test_suite_builds_no_combination_without_a_hypothesis(monkeypatch):
    # none-class pairs have comm_l, comm_r and comm_w false, so no binomial,
    # Newton or telescoping conclusion may be evaluated
    def refuse(self, terms):
        raise AssertionError(f"combo called on {self.a.literal()}, {self.b.literal()}")

    monkeypatch.setattr(PairContext, "combo", refuse)
    rep = verify_suite(["none"], (2, 3, 4), 6, 29)
    assert rep.totals["vacuous"] > 0
    for name in ("NEWTON_R", "NEWTON_L", "BINOM", "TELESCOPE", "L1.III.ii", "L1.IV.ii"):
        grid = identities._IDENTITIES[IdentityId(name)].grid
        assert rep.identities[name]["vacuous"] == 6 * len(grid)


def test_suite_computes_no_nilpotency_degree_without_a_flag(monkeypatch, one_worker):
    # none-class pairs: the flags of every hypothesis with a nil atom are
    # false, and the report decides them before any degree is computed
    degrees = _counting(monkeypatch, relations, "nilpotency_degree")
    rep = verify_suite(["none"], (2, 3, 4), 30, 7)
    assert rep.failures == 0 and rep.identities["NIL_PROD"]["vacuous"] == 30
    assert degrees == []


def _count_products(monkeypatch):
    # every word made from two factors, also one that a zero factor settles
    # without a multiplication
    from weakcomm import relations

    calls = []
    original = relations._times

    def counting(x, y):
        calls.append((x, y))
        return original(x, y)

    monkeypatch.setattr(relations, "_times", counting)
    return calls


_RELATION_WORDS = ("ab", "ba", "aab", "aba", "baa", "abb", "bab", "bba")


def test_relation_check_multiplies_eight_words(monkeypatch):
    a = ExactMatrix.parse("1,2,0;0,1/2,i;3,0,-1")
    b = ExactMatrix.parse("0,1,1;i,0,2;0,0,1/3")
    calls = _count_products(monkeypatch)
    rep = relation_check(a, b)
    assert len(calls) == 8
    assert not rep.comm and rep.residuals["comm"] == (a * b - b * a).frobenius()


def test_pair_context_multiplies_only_the_words_of_unrefuted_flags(monkeypatch):
    # construction multiplies nothing, and neither does deciding the report
    # of the first pair, whose every flag the probe refutes; SEX_I_PQ keeps
    # three flags, whose seven words are multiplied once each
    first = (ExactMatrix.parse("1,2,0;0,1/2,i;3,0,-1"), ExactMatrix.parse("0,1,1;i,0,2;0,0,1/3"))
    for (a, b), made in ((first, set()), (_pair(ExampleId.SEX_I_PQ), set(_RELATION_WORDS) - {"abb"})):
        letters = {"a": a, "b": b}
        want = relation_flags(a, b)
        calls = _count_products(monkeypatch)
        ctx = PairContext(a, b)
        assert calls == [] and set(ctx._words) == {"a", "b"}
        assert ctx.report == want and ctx.report.residuals is None
        assert len(calls) == len(made)
        assert set(ctx._words) == {"a", "b"} | made
        words = {w: ctx.word(w) for w in _RELATION_WORDS}
        assert len(calls) == 8
        for w, m in words.items():
            x, y, *rest = (letters[c] for c in w)
            expected = x * y
            for z in rest:
                expected = expected * z
            assert m == expected, w


def test_pair_context_multiplies_no_word_twice(monkeypatch):
    # one context per pair runs every checker of verify_suite's plan in
    # full; each word is multiplied once, by one product, and kept
    pairs = _memo_sweep()
    original = relations._product
    made = []
    nesting = inside = 0  # depth of _product calls, products made inside them

    def recording(words, w):
        nonlocal nesting, inside
        if w not in words:
            made.append(w)
        before = len(calls)
        nesting += 1
        m = original(words, w)
        nesting -= 1
        if nesting == 0:
            inside += len(calls) - before
        return m

    monkeypatch.setattr(relations, "_product", recording)
    calls = _count_products(monkeypatch)
    total = 0
    for a, b in pairs:
        made.clear()
        ctx = PairContext(a, b)
        for identity in IdentityId:
            for params in identities._IDENTITIES[identity].grid:
                _run_checker(identity, ctx, params)
        assert len(made) == len(set(made)), sorted(w for w in made if made.count(w) > 1)
        assert set(made) == set(ctx._words) - {"", "a", "b", "s"}
        assert len(made) > 50
        total += len(made)
    assert inside == total


def test_suite_decides_each_sampled_pair_once(monkeypatch):
    # the sampler decides the flags that accept a pair, and verify checks
    # that very context without deciding them again
    decided, accepted, checked = [], [], []
    report, sample, run = relations._report, instances.sample_pair, identities._run_checker

    def deciding(flag, residuals):
        decided.append(flag.__self__)
        return report(flag, residuals)

    def sampling(*args, **kwargs):
        pair = sample(*args, **kwargs)
        accepted.append(pair.context)
        return pair

    def checking(identity, ctx, *args, **kwargs):
        checked.append(ctx)
        return run(identity, ctx, *args, **kwargs)

    monkeypatch.setattr(identities, "_worker_count", lambda jobs: 1)
    monkeypatch.setattr(relations, "_report", deciding)
    monkeypatch.setattr(instances, "sample_pair", sampling)
    monkeypatch.setattr(identities, "_run_checker", checking)
    rep = verify_suite(dims=(2, 3, 4), samples_per_class=5, seed=1)
    assert rep.failures == 0
    assert len(accepted) == 5 * len(RelationClass)
    # every report was decided once, by the sampler, on the context it kept
    assert len({id(ctx) for ctx in decided}) == len(decided) >= len(accepted)
    assert all(any(ctx is d for d in decided) for ctx in accepted)
    assert checked and all(any(ctx is c for c in accepted) for ctx in checked)


def test_sampled_pair_context_equals_a_fresh_one():
    # the context a sampled pair carries equals the one that
    # PairContext(a, b) builds; the pair is still the tuple (a, b)
    for cls in RelationClass:
        for dim in (2, 3, 4, 5):
            for strict in (False, True):
                if strict and (cls is RelationClass.COMM or (cls is RelationClass.COMM_W and dim < 3)):
                    continue
                pair = sample_pair(cls, dim, 60 + dim, require_noncommuting=strict)
                a, b = pair
                assert len(pair) == 2 and pair == (a, b) == tuple(pair)
                ctx, fresh = pair.context, PairContext(a, b)
                assert (ctx.a, ctx.b, ctx.dim) == (a, b, dim)
                assert ctx.report == fresh.report
                assert ctx.report.flags() == fresh.report.flags() and ctx.report.residuals is None
                assert set(ctx._words) == set(fresh._words)
                for w in ("", "s") + _RELATION_WORDS:
                    assert ctx.word(w) == fresh.word(w), (cls, dim, strict, w)


def test_r_v_hypothesis_reads_the_flags(monkeypatch):
    # aab = aba = baa is ab_in_comm_a and ba_in_comm_a; on none-class pairs
    # whose probe refuted one of them, the hypothesis multiplies no word
    for a, b in _memo_sweep():
        aba = a * b * a
        hyp = bool(identities._held(IdentityId.R_v, PairContext(a, b), {}))
        assert hyp == (aba == a * a * b and aba == b * a * a)
    calls = _count_products(monkeypatch)
    refuted = 0
    for i, dim in enumerate((2, 3, 4) * 4):
        ctx = sample_pair(RelationClass.NONE, dim, 40 + i).context
        if {"aab", "aba", "baa"} <= set(ctx._words):
            continue
        refuted += 1
        words, before = set(ctx._words), len(calls)
        assert not identities._held(IdentityId.R_v, ctx, {})
        assert set(ctx._words) == words and len(calls) == before
    assert refuted > 6


def test_relation_flags_multiplies_nothing_on_a_noncommuting_pair(monkeypatch):
    a = ExactMatrix.parse("1,2,0;0,1/2,i;3,0,-1")
    b = ExactMatrix.parse("0,1,1;i,0,2;0,0,1/3")
    want = relation_check(a, b)
    assert not any(want.flags().values())
    calls = _count_products(monkeypatch)
    assert relation_flags(a, b) == want
    assert calls == []


def _probe_kernel_pair():
    """a = A0 P and b = B0 P with P v = 0 for the probe v, so every word of
    the relation check maps v to 0 and the probe refutes no flag."""
    v = _probe(3)
    p = ExactMatrix.identity(3) - ExactMatrix(
        [[Fraction(v[i], v[0]) if j == 0 else 0 for j in range(3)] for i in range(3)]
    )
    a = ExactMatrix.parse("2,0,2;-1,0,1;2,0,1") * p
    b = ExactMatrix.parse("0,0,0;0,0,-1;0,0,0") * p
    return a, b, v


def test_relation_flags_decides_a_probe_kernel_pair_exactly(monkeypatch):
    a, b, v = _probe_kernel_pair()
    ctx = PairContext(a, b)
    for w in _RELATION_WORDS:
        m = ctx.word(w)
        assert all(
            sum(FieldScalar.coerce(m.entry(i, j)) * v[j] for j in range(3)).is_zero()
            for i in range(3)
        ), w
    calls = _count_products(monkeypatch)
    for x, y in ((a, b), (b, a)):
        want = relation_check(x, y)
        prim = [want.flags()[k] for k in FLAG_NAMES]
        assert any(prim) and not all(prim)
        before = len(calls)
        assert relation_flags(x, y) == want
        # every flag went to the exact products, each word multiplied once
        assert len(calls) - before == 8


def test_relation_flags_multiplies_only_for_unrefuted_flags(monkeypatch):
    # SEX_I_PQ: ab in comm(a), ba in comm(a) and ba in comm(b) hold, ab and
    # ba differ; the three true flags need ab, ba, aab, aba, baa, bab, bba
    a, b = _pair(ExampleId.SEX_I_PQ)
    want = relation_check(a, b)
    calls = _count_products(monkeypatch)
    got = relation_flags(a, b)
    assert got == want and got.comm_l and not got.comm
    assert len(calls) == 7


@pytest.mark.parametrize(
    "identity",
    ["EXP_CORR", "NIL_PROD", "NIL_SUM", "QUASI_CLOSURE", "KER_INCL", "R.iv", "NIL_TELE"],
)
def test_seven_identities_hold_when_vacuous(identity):
    # the module docstring: these report no raw outcome for an unmet hypothesis
    for k in range(6):
        a, b = sample_pair("none", 3, 70 + k)
        res = check_identity(identity, a, b)
        assert not res.hypothesis_met
        assert (res.holds, res.residual, res.witness) == (True, 0.0, None)


# -- pins of check_identity's outcomes and of the proof claims -------------------


def _outcome_lines():
    """check_identity's JSON dict at every suite evaluation, on a plain and a
    nilpotent pair of every relation class at dims 2-4, one line each."""
    lines = []
    for k, cls in enumerate(RelationClass):
        for dim in (2, 3, 4):
            for nilpotent in (False, True):
                a, b = sample_pair(cls, dim, 500 + 7 * k + dim, nilpotent=nilpotent)
                for identity, params in identities._SUITE_EVALUATIONS:
                    res = check_identity(identity, a, b, **params)
                    lines.append(json.dumps(res.to_json_dict(), sort_keys=True))
    return lines


def test_check_identity_outcomes_are_pinned():
    # the raw outcome of every evaluation, a vacuous one's included
    lines = _outcome_lines()
    vacuous = sum('"verdict": "vacuous"' in line for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), vacuous, digest) == (
        1830, 644, "bced306b890ac605ad5460bd14b2d6d3f746a055e197c750c6bb6878875002d2"
    )


def test_proof_claims_are_pinned():
    # what each claim asserts and whether the table proves it, not its key
    from weakcomm.freealg import flag_relations

    table = identities._proof_table(8)
    # the claims of KRITERION_RANGE and of R.i and R.ii at lam != 0, each
    # proved; the other 59 are pinned as they were before these were made
    later = {
        (IdentityId.KRITERION_RANGE, "", None),
        (IdentityId.R_i, "ab_in_comm_a & comm", None),
        (IdentityId.R_ii, "ba_in_comm_a & comm", None),
    }
    triples, earlier = [], []
    for key, (flags, extra), combos in identities._suite_claims(8):
        triple = json.dumps(
            [sorted(flag_relations(flags) + extra), [list(c) for c in combos], table[key]]
        )
        triples.append(triple)
        if key in later:
            assert table[key], key
        else:
            earlier.append(triple)

    def digest(lines):
        return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()

    assert (len(earlier), digest(earlier)) == (
        59, "035f7de4141413a70d262a4042341a8b9850d5478dd025dbb0b3de7d95fc9dfa"
    )
    assert (len(triples), digest(triples)) == (
        62, "c00c83ef6566002712838790de2aee737f1848ce0160f8dad5abffb6ca0a57f0"
    )
