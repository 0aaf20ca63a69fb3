"""Identity catalog: targeted pairs per identity and the suite harness."""

import contextlib
import dataclasses
import errno
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import comb

import pytest

from weakcomm import identities, instances
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
    _suite_plan,
    check_identity,
    identity_catalog,
    verify_suite,
)
from weakcomm.instances import ExampleId, RelationClass, paper_example, sample_pair
from weakcomm.numeric import spectral_radius_exact
from weakcomm.relations import FLAG_NAMES, _probe, relation_check, relation_flags

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
        assert res.residual <= 1e-8


def test_rad_bounds_vacuous_on_free_pair():
    a = ExactMatrix.parse("0,1;0,0")
    b = ExactMatrix.parse("0,0;1,0")
    assert check_identity(IdentityId.RAD_PROD, a, b).verdict == "vacuous"
    assert check_identity(IdentityId.RAD_SUM, a, b).verdict == "vacuous"


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


def test_shared_context_matches_fresh_context():
    # One context serves the whole suite in verify_suite's order; every
    # result must equal the one a fresh context gives for that call alone.
    for a, b in _memo_sweep():
        ctx = PairContext(a, b)
        for identity in IdentityId:
            for params in _suite_plan(identity):
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
            assert ctx.spectral_radius(w) == spectral_radius_exact(m)
            if ctx.radical(w).literal() == "x":
                nilpotent_seen = True
                assert ctx.radical_nonzero(w).literal() == "1"
    assert nilpotent_seen


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
                for params in _suite_plan(identity):
                    res = _run_checker(identity, ctx, params, invert=identity is inject_fault)
                    slot = counts[identity.value]
                    slot[res.verdict] += 1
                    if res.verdict == "fail" and slot["first_failure"] is None:
                        slot["first_failure"] = {
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


def _newton_r_sides(a, b, n):
    rhs = ExactMatrix.zeros(a.dim)
    for k in range(1, n + 1):
        rhs = rhs + (a ** (n - k) * b**k + b ** (n - k) * a**k) * comb(n - 1, k - 1)
    return (a + b) ** n, rhs


def test_suite_renders_the_witness_of_a_forced_hypothesis(monkeypatch):
    # none-class pairs with ab_in_comm_a and comm_r forced: L1.I.iii fails
    # on a defect pair and NEWTON_R on a word combination, and the suite's
    # first failure must render what check_identity and lhs - rhs render
    original = PairContext.__init__

    def forced(self, a, b):
        original(self, a, b)
        self.report = dataclasses.replace(self.report, ab_in_comm_a=True, comm_r=True)

    monkeypatch.setattr(PairContext, "__init__", forced)
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


def test_suite_builds_no_combination_without_a_hypothesis(monkeypatch):
    # none-class pairs have comm_l, comm_r and comm_w false, so no binomial,
    # Newton or telescoping conclusion may be evaluated
    def refuse(self, terms):
        raise AssertionError(f"combo called on {self.a.literal()}, {self.b.literal()}")

    monkeypatch.setattr(PairContext, "combo", refuse)
    rep = verify_suite(["none"], (2, 3, 4), 6, 29)
    assert rep.totals["vacuous"] > 0
    for name in ("NEWTON_R", "NEWTON_L", "BINOM", "TELESCOPE", "L1.III.ii", "L1.IV.ii"):
        assert rep.identities[name]["vacuous"] == 6 * len(_suite_plan(IdentityId(name)))


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
    # the probe refutes every flag of the first pair, so construction
    # multiplies nothing; SEX_I_PQ keeps three flags, whose seven words are
    # multiplied once each
    first = (ExactMatrix.parse("1,2,0;0,1/2,i;3,0,-1"), ExactMatrix.parse("0,1,1;i,0,2;0,0,1/3"))
    for (a, b), made in ((first, set()), (_pair(ExampleId.SEX_I_PQ), set(_RELATION_WORDS) - {"abb"})):
        letters = {"a": a, "b": b}
        want = relation_flags(a, b)
        calls = _count_products(monkeypatch)
        ctx = PairContext(a, b)
        assert len(calls) == len(made)
        assert set(ctx._words) == {"", "a", "b", "s"} | made
        assert ctx.report == want and ctx.report.residuals is None
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
    from weakcomm import identities, relations

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
    monkeypatch.setattr(identities, "_product", recording)
    calls = _count_products(monkeypatch)
    total = 0
    for a, b in pairs:
        made.clear()
        ctx = PairContext(a, b)
        for identity in IdentityId:
            for params in _suite_plan(identity):
                _run_checker(identity, ctx, params)
        assert len(made) == len(set(made)), sorted(w for w in made if made.count(w) > 1)
        assert set(made) == set(ctx._words) - {"", "a", "b", "s"}
        assert len(made) > 50
        total += len(made)
    assert inside == total


def test_r_v_hypothesis_reads_the_flags(monkeypatch):
    # aab = aba = baa is ab_in_comm_a and ba_in_comm_a; on none-class pairs
    # whose probe refuted one of them, the hypothesis multiplies no word
    for a, b in _memo_sweep():
        aba = a * b * a
        hyp, _ = identities._CHECKERS[IdentityId.R_v](PairContext(a, b), {})
        assert hyp == (aba == a * a * b and aba == b * a * a)
    calls = _count_products(monkeypatch)
    refuted = 0
    for i, dim in enumerate((2, 3, 4) * 4):
        ctx = PairContext(*sample_pair(RelationClass.NONE, dim, 40 + i))
        if {"aab", "aba", "baa"} <= set(ctx._words):
            continue
        refuted += 1
        words, before = set(ctx._words), len(calls)
        hyp, _ = identities._CHECKERS[IdentityId.R_v](ctx, {})
        assert not hyp
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
