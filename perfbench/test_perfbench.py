"""Tests of the benchmark itself, on its smoke sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("record: ")
    return json.loads(lines[-2][len("record: "):]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke():
    """record and result of an untraced and a traced run per workload."""
    return {
        workload: tuple(
            parse(run_bench("--workload", workload, "--seed", "3", "--smoke", "--trace", trace))
            for trace in ("0", "1")
        )
        for workload in WORKLOADS
    }


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(smoke, workload):
    (_, plain), (_, traced) = smoke[workload]
    for result, declared in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared} == {
            name: metric["unit"] for name, metric in result["metrics"].items()
        }
    assert all(m["value"] > 0 for m in plain["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_reports(smoke, workload):
    (plain_record, _), (traced_record, _) = smoke[workload]
    assert plain_record["report_sha256"] == traced_record["report_sha256"]
    assert plain_record["command_sha256"] == traced_record["command_sha256"]
    for record in (plain_record, traced_record):
        assert record["backend"] == "pure" and record["seed"] == 3
        assert {"commit", "python", "nproc"} <= set(record)
        assert record["absent"] == [] and record["span_errors"] == 0


def folded(spans):
    t = tracer.Tracer()
    t.spans.extend([list(span) for span in spans])
    t.fold()
    return t


def test_fold_takes_child_spans_out_of_self_time():
    t = folded([
        ["instances.sample_pair", 0.0, 10.0, -1],
        ["relations.relation_check", 1.0, 4.0, 0],
        ["kernel.mat_mul", 2.0, 3.0, 1],
        ["relations.relation_check", 5.0, 6.0, 0],
        ["cli.render", 11.0, 12.0, -1],
    ])
    assert t.span_errors == 0 and t.spans == []
    assert t.calls == {"instances.sample_pair": 1, "relations.relation_check": 2,
                       "kernel.mat_mul": 1, "cli.render": 1}
    assert t.self_s == {"instances.sample_pair": 6.0, "relations.relation_check": 3.0,
                        "kernel.mat_mul": 1.0, "cli.render": 1.0}
    assert t.sample_pair_checks == 2


@pytest.mark.parametrize("spans", [
    [["a", 0.0, 1.0, 1], ["b", 0.0, 1.0, -1]],  # parent after its child
    [["a", 0.0, 1.0, -1], ["b", 0.5, 2.0, 0]],  # child ends after its parent
    [["a", 0.0, 1.0, -1], ["b", 0.0, 0.8, 0], ["c", 0.2, 0.9, 0]],  # children overlap
], ids=["parent-after-child", "child-outside-parent", "children-overlap"])
def test_fold_counts_spans_that_do_not_nest(spans):
    assert folded(spans).span_errors > 0


def test_layers_work_where_expected(smoke):
    def self_time(workload, prefix):
        metrics = smoke[workload][1][1]["metrics"]
        return sum(m["value"] for name, m in metrics.items()
                   if name.startswith(prefix) and name.endswith(".self_s"))

    assert self_time("verify", "exact.ExactPoly.") > 0
    assert self_time("search", "exact.ExactPoly.") == 0
    assert self_time("truncate", "shiftlab.") > 0
    assert self_time("verify", "shiftlab.") == 0 and self_time("search", "shiftlab.") == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_long_search_run_without_witnesses_fails(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import child

    argv = ["search", "--predicate", "comm_w_not_comm", "--budget", "400"]
    miss = json.dumps({"found": False, "witness": None})
    for witnesses in (0, 1):
        tally = child.Tally("search")
        for _ in range(child.SEARCH_PAIRS_FOR_A_WITNESS // 400):
            tally.add(argv, 1, miss)
        tally.witnesses += witnesses
        tally.check_run()
        assert tally.failed == (witnesses == 0)
    short = child.Tally("search")
    short.add(argv, 1, miss)
    short.check_run()
    assert short.failed == 0 and short.attempted == 1
