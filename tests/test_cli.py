"""Command line contract: exit codes, determinism, formats, file output."""

import json
import subprocess
import sys

import pytest

from weakcomm import __version__
from weakcomm.cli import main

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
        assert sum(m for _, _, m in row["spectrum"]) == row["n"]
        assert row["max_modulus"] < 0.6  # nilpotent truncations stay near 0


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
        ["truncate", "EXNILP_T", "--sizes", "4,6", "--cluster-tol", "-1"],
        ["truncate", "EXNILP_T", "--sizes", "4,6", "--cluster-tol", "0"],
        ["truncate", "EXNILP_T", "--sizes", "4,6", "--cluster-tol", "nan"],
        ["truncate", "EXNILP_T", "--sizes", "4,6", "--cluster-tol", "inf"],
        ["example", "EXNILP_T", "--dim", "3"],
    ],
    ids=["tol-negative", "tol-zero", "tol-nan", "tol-inf", "spec-with-dim"],
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


def test_search_and_import_do_not_load_numpy():
    # NumPy serves only the float twin: truncate spectra and spectral radii
    code = (
        "import contextlib, io, sys\n"
        "import weakcomm, weakcomm.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for pred in ('comm_w_not_comm', 'comm_l_not_comm_r'):\n"
        "        weakcomm.cli.main(['search', '--dim', '3', '--budget', '200',"
        " '--seed', '5', '--predicate', pred])\n"
        "    weakcomm.cli.main(['example', 'SEX_I_PQ'])\n"
        "assert 'numpy' not in sys.modules, 'commands'\n"
        "weakcomm.CMatrix\n"
        "assert 'numpy' in sys.modules, 'lazy name'\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_numeric_names_stay_exported():
    import weakcomm

    for name in ("CMatrix", "SpectrumSet", "eigenvalues", "expm", "spectral_radius_exact"):
        assert name in weakcomm.__all__
        assert getattr(weakcomm, name).__module__ == "weakcomm.numeric"
    with pytest.raises(AttributeError):
        weakcomm.no_such_name


def test_example_checks_its_pair_once(monkeypatch, capsys):
    from weakcomm import instances

    calls = []
    original = instances.relation_check

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(instances, "relation_check", counting)
    status, out, _ = _run_inproc(["example", "SEX_V_PQ"], capsys)
    assert status == 0 and json.loads(out)["all_ok"]
    assert len(calls) == 1
