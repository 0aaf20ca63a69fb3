"""Command line contract: exit codes, determinism, formats, file output."""

import json
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from weakcomm import __version__
from weakcomm.cli import main
from weakcomm.exact import ExactMatrix
from weakcomm.instances import _search_matrix
from weakcomm.registry import ExampleId

FAST_VERIFY = [
    "verify",
    "--classes",
    "comm_l,none",
    "--dims",
    "2,3",
    "--samples",
    "4",
    "--seed",
    "3",
]


def _run_inproc(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_verify_clean_exits_zero(capsys):
    status, out, err = _run_inproc(FAST_VERIFY, capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    assert payload["schema_version"] == 1
    assert payload["totals"]["fail"] == 0
    assert payload["config"]["seed"] == 3


def test_verify_byte_deterministic(capsys):
    _, out1, _ = _run_inproc(FAST_VERIFY, capsys)
    _, out2, _ = _run_inproc(FAST_VERIFY, capsys)
    assert out1 == out2


def test_verify_injected_fault_exits_one(capsys):
    status, out, _ = _run_inproc(FAST_VERIFY + ["--inject-fault", "L1.I.i"], capsys)
    assert status == 1
    payload = json.loads(out)
    assert payload["totals"]["fail"] > 0
    assert payload["identities"]["L1.I.i"]["first_failure"] is not None


def test_verify_bad_class_exits_two(capsys):
    status, out, err = _run_inproc(
        ["verify", "--seed", "1", "--classes", "sideways", "--samples", "1"], capsys
    )
    assert status == 2
    assert out == ""
    assert "error" in err


def test_verify_repeated_class_exits_two(capsys):
    status, out, err = _run_inproc(
        ["verify", "--seed", "1", "--classes", "comm,comm", "--samples", "1"], capsys
    )
    assert status == 2
    assert out == ""
    assert "relation classes repeat: comm,comm" in err


def test_verify_bad_samples_exits_two(capsys):
    status, _, err = _run_inproc(["verify", "--seed", "1", "--samples", "0"], capsys)
    assert status == 2
    assert "samples" in err


def test_missing_seed_is_config_error():
    # argparse handles required flags; exit code must be 2
    proc = subprocess.run(
        [sys.executable, "-m", "weakcomm", "verify", "--samples", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_bad_dims_rejected():
    proc = subprocess.run(
        [sys.executable, "-m", "weakcomm", "verify", "--seed", "1", "--dims", "1,9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_example_pair_payload(capsys):
    status, out, _ = _run_inproc(["example", "SEX_V_PQ"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["command"] == "example"
    assert payload["all_ok"] is True
    assert payload["kind"] == "pair"
    assert payload["relation"]["comm_w"] is True
    assert payload["relation"]["comm"] is False
    assert all(c["ok"] for c in payload["checks"])


def test_example_spec_payload(capsys):
    status, out, _ = _run_inproc(["example", "EXNILP_Q"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["kind"] == "op_spec"
    assert "weights_odd" in payload["spec"]


def test_example_bad_dim_exits_two(capsys):
    status, _, err = _run_inproc(["example", "SEX_I_PQ", "--dim", "5"], capsys)
    assert status == 2
    assert "error" in err
    for dim in ("1", "9", "100000"):
        status, out, err = _run_inproc(["example", "EX4_RN", "--dim", dim], capsys)
        assert (status, out, err) == (2, "", "error: --dim must be in 2..8\n"), dim


def test_example_below_min_dim_exits_two(capsys):
    # at dim 3 the EX4_RN pair is comm_l as well, so its flags fail there
    status, out, err = _run_inproc(["example", "EX4_RN", "--dim", "3"], capsys)
    assert status == 2 and out == ""
    assert "needs dim >= 4" in err
    assert _run_inproc(["example", "EX4_RN", "--dim", "4"], capsys)[0] == 0


def test_search_found_exits_zero(capsys):
    status, out, _ = _run_inproc(
        ["search", "--predicate", "not_c3", "--dim", "2", "--budget", "10000", "--seed", "1"],
        capsys,
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["witness"]["samples_tried"] >= 1
    assert payload["relation"]["c3_pair"] is False


def test_search_empty_exits_one(capsys):
    status, out, _ = _run_inproc(
        ["search", "--predicate", "comm_not_comm", "--dim", "2", "--budget", "20", "--seed", "1"],
        capsys,
    )
    assert status == 1
    payload = json.loads(out)
    assert payload["found"] is False
    assert payload["witness"] is None


def test_search_bad_dim_exits_two(capsys):
    status, _, _ = _run_inproc(
        ["search", "--predicate", "not_c1", "--dim", "11", "--budget", "5", "--seed", "1"],
        capsys,
    )
    assert status == 2


def test_truncate_payload(capsys):
    status, out, _ = _run_inproc(["truncate", "EXNILP_T", "--sizes", "4,6"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["command"] == "truncate"
    assert [r["n"] for r in payload["rows"]] == [4, 6]
    assert payload["rows"][0]["charpoly"] == "x^4"
    assert payload["rows"][0]["nilpotency_degree"] == 4
    assert payload["rows"][0]["certified_kernel_dim"] == 0
    for row in payload["rows"]:
        assert row["spectrum"] == [[0.0, 0.0, row["n"]]]
        assert row["max_modulus"] == 0.0


def test_truncate_spectrum_matches_the_float_oracle(capsys):
    from weakcomm import shiftlab
    from weakcomm.registry import example_entry, paper_example
    from weakcomm.numeric import CMatrix, eigenvalues

    for entry in ExampleId:
        if example_entry(entry).kind != "op_spec":
            continue
        spec, _ = paper_example(entry)
        sizes = range(max(2, spec.support() + 1), 13)
        argv = ["truncate", entry.value, "--sizes", ",".join(map(str, sizes))]
        status, out, _ = _run_inproc(argv, capsys)
        assert status == 0
        for row in json.loads(out)["rows"]:
            oracle = eigenvalues(CMatrix.from_exact(shiftlab.truncate(spec, row["n"])))
            assert [m for _, m in oracle.points] == [m for _, _, m in row["spectrum"]]
            assert abs(oracle.max_modulus() - row["max_modulus"]) <= 1e-6


def test_truncate_rejects_a_section_with_nonzero_roots(monkeypatch, capsys):
    from weakcomm import shiftlab

    original = shiftlab._section

    def with_a_diagonal_entry(spec, n):
        # a down shift's first row is empty; the entry den at (0, 0) is 1
        pattern, values = original(spec, n)

        def with_the_entry():
            den, rows = values()
            return den, [[(0, den, 0)], *rows[1:]]

        return [[0], *pattern[1:]], with_the_entry

    monkeypatch.setattr(shiftlab, "_section", with_a_diagonal_entry)
    status, out, err = _run_inproc(["truncate", "EXNILP_T", "--sizes", "4,6"], capsys)
    assert status == 2 and out == ""
    assert err.startswith("error: EXNILP_T at n = 4: charpoly x^4 - x^3 has nonzero roots")
    assert "Traceback" not in err


def test_truncate_runs_no_charpoly_on_nilpotent_sections(monkeypatch, capsys):
    from weakcomm import _kernel_py

    def no_charpoly(*args):
        raise AssertionError("charpoly_ints called")

    monkeypatch.setattr(_kernel_py, "charpoly_ints", no_charpoly)
    for entry in ("EXNILP_T", "EXNILP_N", "EXNILP_Q"):
        status, out, err = _run_inproc(["truncate", entry, "--sizes", "4,6,10"], capsys)
        assert status == 0 and err == "", entry
        rows = json.loads(out)["rows"]
        assert [row["charpoly"] for row in rows] == ["x^4", "x^6", "x^10"]


def test_truncate_builds_each_section_once_as_sparse_rows(monkeypatch, capsys):
    from weakcomm import _kernel_py, shiftlab
    from weakcomm.exact import ExactMatrix

    built, converted, dense = [], [], []
    section, sparse_rows = shiftlab._section, _kernel_py.sparse_rows
    init_rep = ExactMatrix._init_rep

    def counted_section(spec, n):
        built.append(n)
        return section(spec, n)

    def counted_sparse_rows(ncols, re, im):
        converted.append(ncols)
        return sparse_rows(ncols, re, im)

    def counted_init_rep(self, dim, rep):
        if dim >= 10:
            dense.append(dim)
        init_rep(self, dim, rep)

    monkeypatch.setattr(shiftlab, "_section", counted_section)
    monkeypatch.setattr(_kernel_py, "sparse_rows", counted_sparse_rows)
    monkeypatch.setattr(ExactMatrix, "_init_rep", counted_init_rep)
    status, _, err = _run_inproc(["truncate", "EXNILP_T", "--sizes", "10,20,40,80"], capsys)
    assert status == 0 and err == ""
    # nilpotency and the certified kernel read the one sparse build of each
    # section: no dense section, and no flat block converted to rows
    assert built == [10, 20, 40, 80]
    assert converted == [] and dense == []


def test_truncate_certificates_at_large_sizes_take_no_elimination_or_product(
    monkeypatch, capsys
):
    from weakcomm import _kernel_py

    eliminated, products = [], []
    echelon, sparse_mul = _kernel_py.echelon, _kernel_py.sparse_mul

    def counted_echelon(ncols, rows):
        if rows:
            eliminated.append(ncols)
        return echelon(ncols, rows)

    def counted_sparse_mul(d, a, b):
        products.append(d)
        return sparse_mul(d, a, b)

    monkeypatch.setattr(_kernel_py, "echelon", counted_echelon)
    monkeypatch.setattr(_kernel_py, "sparse_mul", counted_sparse_mul)
    expected = {
        "EXNILP_T": [(160, 0), (320, 0)],
        "EXNILP_N": [(2, 158), (2, 318)],
        "EXNILP_Q": [(2, 79), (2, 159)],
    }
    for entry, degrees in expected.items():
        status, out, err = _run_inproc(["truncate", entry, "--sizes", "160,320"], capsys)
        assert status == 0 and err == ""
        rows = json.loads(out)["rows"]
        assert [(r["nilpotency_degree"], r["certified_kernel_dim"]) for r in rows] == degrees
    # each section is one path (T), one edge (N) or disjoint edges (Q): the
    # peel takes every row of the certified kernel's block and a unique
    # longest path gives the degree, so the work is linear in the nonzeros,
    # with no Bareiss step and no product
    assert eliminated == [] and products == []


def _count_numerators(monkeypatch):
    from weakcomm.shiftlab import WeightRule

    calls = []
    numerators = WeightRule.numerators

    def counted(self, count, den=1):
        calls.append(count)
        return numerators(self, count, den)

    monkeypatch.setattr(WeightRule, "numerators", counted)
    return calls


def test_truncate_reads_no_weight_value_of_a_registry_spec(monkeypatch, capsys):
    calls = _count_numerators(monkeypatch)
    for entry in ("EXNILP_T", "EXNILP_N", "EXNILP_Q"):
        for sizes in ("10,20,40,80", "160,320"):
            status, _, err = _run_inproc(["truncate", entry, "--sizes", sizes], capsys)
            assert status == 0 and err == "", entry
    # the peel and the unique longest paths decide every section on its pattern
    assert calls == []


def test_truncate_builds_the_values_once_for_a_section_that_needs_them(monkeypatch, capsys):
    from weakcomm import cli
    from weakcomm.shiftlab import parse_spec

    # the block [[1, 1], [-1, -1]] is a cycle whose rows the peel leaves, so
    # both the degree (squarings) and the kernel (Bareiss) need the values
    spec = parse_spec(
        "direction: up\nweights: 1/(k+1)\nweights_prefix: 0 0\n"
        "finite: 1 1 1\nfinite: 1 2 1\nfinite: 2 1 -1\nfinite: 2 2 -1\n"
    )
    monkeypatch.setattr(cli, "paper_example", lambda _id: (spec, None))
    calls = _count_numerators(monkeypatch)
    status, out, err = _run_inproc(["truncate", "EXNILP_T", "--sizes", "6,9,12"], capsys)
    assert status == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert [(r["nilpotency_degree"], r["certified_kernel_dim"]) for r in rows] == [
        (4, 2), (7, 2), (10, 2)
    ]
    # one build of the n - 1 weights of each section
    assert calls == [5, 8, 11]


def test_truncate_bad_sizes():
    proc = subprocess.run(
        [sys.executable, "-m", "weakcomm", "truncate", "EXNILP_T", "--sizes", "6,4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_truncate_sizes_below_the_support_exit_two(capsys):
    # EXNILP_N's finite-rank part reaches coordinate 2, so sizes start at 3
    status, out, err = _run_inproc(["truncate", "EXNILP_N", "--sizes", "2,3"], capsys)
    assert status == 2 and out == ""
    assert "--sizes must be >= 3 for EXNILP_N" in err
    assert _run_inproc(["truncate", "EXNILP_N", "--sizes", "3"], capsys)[0] == 0


def test_markdown_rendering(capsys):
    status, out, _ = _run_inproc(FAST_VERIFY + ["--format", "markdown"], capsys)
    assert status == 0
    assert out.startswith("# weakcomm verify report")
    assert "| identity |" in out
    status2, out2, _ = _run_inproc(
        ["example", "SEX_I_PQ", "--format", "markdown"], capsys
    )
    assert status2 == 0
    assert "| flag | value |" in out2
    status3, out3, _ = _run_inproc(
        ["truncate", "EXNILP_N", "--sizes", "4,6", "--format", "markdown"], capsys
    )
    assert status3 == 0
    assert "| n | charpoly |" in out3


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status, out, _ = _run_inproc(["example", "REMARK_TN", "--out", str(target)], capsys)
    assert status == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["id"] == "REMARK_TN"


def test_out_unwritable_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    status, out, err = _run_inproc(
        ["truncate", "EXNILP_T", "--sizes", "4,8", "--out", str(target)], capsys
    )
    assert status == 2
    assert out == ""
    assert err.startswith("error:")
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["truncate", "EXNILP_T", "--sizes", "4,6", "--cluster-tol", "1e-8"],
        ["example", "EXNILP_T", "--dim", "3"],
    ],
    ids=["tol-unknown-option", "spec-with-dim"],
)
def test_bad_values_exit_two(argv, capsys):
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse rejects bad option values itself
        status = exc.code
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "error" in captured.err


def test_one_parser_serves_every_call(monkeypatch, capsys):
    from weakcomm import cli

    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    commands = [
        FAST_VERIFY,
        ["search", "--predicate", "comm_l_not_comm_r", "--dim", "4", "--budget", "60", "--seed", "2"],
        ["truncate", "EXNILP_N", "--sizes", "4,9"],
        ["verify", "--classes", "comm_w", "--dims", "3", "--samples", "2", "--seed", "5",
         "--format", "markdown"],
    ]
    rejected = ["truncate", "EXNILP_T", "--sizes", "6,4"]
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main(rejected)
        assert exc.value.code == 2
        capsys.readouterr()
        status, out, err = _run_inproc(argv, capsys)
        fresh = subprocess.run(
            [sys.executable, "-m", "weakcomm", *argv], capture_output=True, text=True
        )
        assert (status, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert built == [1]


def test_version():
    proc = subprocess.run(
        [sys.executable, "-m", "weakcomm", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == f"weakcomm {__version__}\n"


def test_cross_process_byte_determinism(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        target = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "weakcomm"]
            + FAST_VERIFY
            + ["--out", str(target)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


# Put first in a child's code: NumPy and SciPy cannot be imported, and every
# attempt to import them, a guarded one too, is kept in ``tried``.
_NO_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
    "tried = []\n"
    "sys.addaudithook(lambda event, args: event == 'import'"
    " and args[0].split('.')[0] in ('numpy', 'scipy') and tried.append(args[0]))\n"
)


def test_verify_does_not_load_numpy():
    # RAD_PROD and RAD_SUM are decided exactly, also when a fault inverts them
    code = _NO_NUMPY + (
        "import contextlib, io\n"
        "import weakcomm.cli\n"
        f"argv = {FAST_VERIFY!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert weakcomm.cli.main(argv) == 0\n"
        "    assert weakcomm.cli.main(argv + ['--inject-fault', 'RAD_PROD']) == 1\n"
        "assert not tried, tried\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_search_truncate_and_import_do_not_load_numpy():
    # NumPy serves only the float twin, which no command loads
    code = _NO_NUMPY + (
        "import contextlib, io\n"
        "import weakcomm, weakcomm.cli\n"
        "assert not tried, 'import'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for pred in ('comm_w_not_comm', 'comm_l_not_comm_r'):\n"
        "        weakcomm.cli.main(['search', '--dim', '3', '--budget', '200',"
        " '--seed', '5', '--predicate', pred])\n"
        "    weakcomm.cli.main(['example', 'SEX_I_PQ'])\n"
        "    for fmt in ('json', 'markdown'):\n"
        "        weakcomm.cli.main(['truncate', 'EXNILP_N', '--sizes', '3,10', '--format', fmt])\n"
        "assert not tried, 'commands'\n"
        "del sys.modules['numpy'], sys.modules['scipy']\n"
        "import weakcomm.numeric\n"
        "assert 'numpy' in tried, 'numeric'\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_install_has_no_runtime_dependency():
    # NumPy and SciPy serve only the tests' float oracle
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    test_extra = {re.match(r"[\w.-]+", req)[0] for req in project["optional-dependencies"]["test"]}
    assert {"numpy", "scipy"} <= test_extra


def test_numeric_names_live_only_in_numeric():
    import weakcomm
    import weakcomm.numeric

    for name in ("CMatrix", "SpectrumSet", "eigenvalues", "spectral_radius_exact"):
        assert name in weakcomm.numeric.__all__
        assert getattr(weakcomm.numeric, name).__module__ == "weakcomm.numeric"
    for name in ("CMatrix", "SpectrumSet", "eigenvalues", "expm", "spectral_radius_exact"):
        assert name not in weakcomm.__all__
        with pytest.raises(AttributeError):
            getattr(weakcomm, name)
    with pytest.raises(AttributeError):
        weakcomm.no_such_name


def test_every_public_name_resolves_to_its_module():
    import weakcomm

    for name in weakcomm.__all__:
        if name == "__version__":
            continue
        obj = getattr(weakcomm, name)
        assert obj.__module__.startswith("weakcomm."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(weakcomm.__all__) <= set(dir(weakcomm))
    with pytest.raises(AttributeError):
        weakcomm.no_such_name


def test_star_import_binds_every_public_name():
    code = (
        "import weakcomm\n"
        "from weakcomm import *\n"
        "missing = [n for n in weakcomm.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert ExactMatrix is weakcomm.exact.ExactMatrix\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_a_public_name_reads_a_patched_module():
    # the package binds no name, so a patch at the defining module shows
    import weakcomm
    from weakcomm import relations

    original = relations.relation_check
    try:
        relations.relation_check = marker = object()
        assert weakcomm.relation_check is marker
    finally:
        relations.relation_check = original
    assert weakcomm.relation_check is original


def test_bad_inject_fault_exits_two_naming_the_ids():
    from weakcomm.identities import IdentityId

    proc = subprocess.run(
        [sys.executable, "-m", "weakcomm", *FAST_VERIFY, "--inject-fault", "NOPE"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "'NOPE'" in lines[0]
    assert all(i.value in lines[0] for i in IdentityId)


def test_search_witness_gets_one_context(monkeypatch, capsys):
    # the screen's context decides the witness's flags, its record's check
    # and the report's relation: each candidate, the witness too, starts one
    from weakcomm import relations

    started = []
    start = relations.PairContext._start

    def counting(ctx, words, rows, build):
        started.append(rows)
        return start(ctx, words, rows, build)

    monkeypatch.setattr(relations.PairContext, "_start", counting)
    argv = ["search", "--predicate", "comm_l_not_comm_r", "--dim", "3", "--seed", "0"]
    status, out, _ = _run_inproc(argv, capsys)
    payload = json.loads(out)
    assert status == 0 and payload["found"]
    assert len(started) == payload["witness"]["samples_tried"]
    last = started[-1]
    assert [ExactMatrix.parse(payload["witness"][k]) for k in "ab"] == [
        _search_matrix(last[k]) for k in "ab"
    ]


def test_example_checks_its_pair_once(monkeypatch, capsys):
    from weakcomm import registry

    calls = []
    original = registry._checked

    def counting(ctx):
        calls.append(ctx)
        return original(ctx)

    monkeypatch.setattr(registry, "_checked", counting)
    status, out, _ = _run_inproc(["example", "SEX_V_PQ"], capsys)
    assert status == 0 and json.loads(out)["all_ok"]
    assert len(calls) == 1


@pytest.mark.parametrize(
    "example_id", [e for e in ExampleId if e.value not in ("EXNILP_T", "EXNILP_N", "EXNILP_Q")]
)
def test_example_multiplies_each_word_of_its_pair_once(monkeypatch, capsys, example_id):
    # the flags, the residuals, the word claims and the bespoke checks of an
    # example read one memo per pair, so no word of the pair is multiplied
    # twice: a product is first-time where its word is missing from the
    # memo, and every multiplication makes one
    from weakcomm import relations

    made, memos, multiplied = [], [], []
    product, times = relations._product, relations._times

    def recording(words, w):
        if w not in words:
            memos.append(words)  # keeps the letters alive, so their ids stay unique
            made.append((id(words["a"]), id(words["b"]), w))
        return product(words, w)

    def counting(x, y):
        multiplied.append((x, y))
        return times(x, y)

    monkeypatch.setattr(relations, "_product", recording)
    monkeypatch.setattr(relations, "_times", counting)
    status, out, _ = _run_inproc(["example", example_id.value], capsys)
    assert status == 0 and json.loads(out)["all_ok"]
    assert len(made) >= 8 and len(multiplied) == len(made)
    assert len(made) == len(set(made)), sorted(key[2] for key in made if made.count(key) > 1)
