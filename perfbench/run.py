"""End-to-end and per-layer benchmark of the weakcomm command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Workloads: verify, truncate, search (see perfbench/README.md). Each run
starts fresh single-threaded interpreters with ``src`` on PYTHONPATH and the
pure backend pinned, so nothing has to be installed or compiled:

* a few set-up children that only import weakcomm and load the example
  registry, for ``setup_s``;
* one workload child that runs the workload's commands through
  ``weakcomm.cli.main`` and checks every report. With ``--trace 0`` it runs
  commands until ``--seconds`` have passed; with ``--trace 1`` it runs a
  fixed list of commands, each once untraced and once traced.

Times are scaled to a nominal machine speed measured with a reference loop
around each command (see perfbench/README.md); the raw medians are in the
record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it, ``record: {...}``, names the commit, backend, Python version,
core count, seed and the sha256 of every report. ``--smoke`` runs tiny sizes
and a fixed command count, for tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORKLOADS = ("verify", "truncate", "search")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
ITEMS = {
    "verify": "sampled pairs fully checked",
    "truncate": "operator sections truncated and analysed",
    "search": "candidate pairs screened",
}
SETUP_CHILDREN = 6  # plus the workload child itself
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["WEAKCOMM_PURE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_child(config, deadline):
    """Run child.py to the end; (parsed last line, monotonic start time)."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(config)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def commit_of(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="weakcomm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, fixed command count")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "weakcomm" / "__init__.py").is_file():
        print(f"error: no weakcomm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(argparse.Namespace(**dict(vars(args), workload=workload)))
    return 0


def run_workload(args):
    """One run of one workload; prints its metrics, record and result line."""
    deadline = time.monotonic() + DEADLINE_S
    config = {
        "mode": "setup", "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "smoke": args.smoke,
    }
    # an untimed first start warms the file cache and writes bytecode where
    # Python does so, which a user pays only once
    start_child(config, deadline)
    setups, raw_setups = [], []

    def add_setup(out, started):
        raw_setups.append(out["ready"] - started)
        setups.append(raw_setups[-1] / out["slowness"])

    def time_setups(count):
        for _ in range(count):
            add_setup(*start_child(config, deadline))

    # set-up starts before and after the workload child meet different
    # spells of the shared machine
    time_setups(1 if args.smoke else SETUP_CHILDREN // 2)
    out, started = start_child(dict(config, mode="run"), deadline)
    add_setup(out, started)
    time_setups(0 if args.smoke else SETUP_CHILDREN - SETUP_CHILDREN // 2)

    correct = out["failed"] == 0 and out.get("span_errors", 0) == 0
    if args.trace:
        units = tracer.metric_units()
        values = out["per_layer"]
    else:
        units = END_TO_END_UNITS
        walls = out["walls"]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "items_per_s": out["items"] / sum(walls),
            "peak_rss_mb": out["peak_rss_kb"] / 1024,
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit_of(ROOT),
        "source_sha256": source_sha256(ROOT),
        "backend": out["backend"],
        "python": out["python"],
        "nproc": nproc(),
        "commands": out["commands"],
        "setup_samples": len(setups),
        "raw_setup_s": statistics.median(raw_setups),
        "raw_wall_s": statistics.median(out["raw_walls"]) if not args.trace else None,
        "report_sha256": hashlib.sha256("".join(out["hashes"]).encode()).hexdigest(),
        "command_sha256": out["hashes"],
        "absent": out.get("absent", []),
        "span_errors": out.get("span_errors", 0),
    }
    print(f"weakcomm benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"backend={record['backend']} python={record['python']} nproc={record['nproc']} "
          f"commit={record['commit'] or 'unknown'}")
    if not args.trace:
        print(f"  wall_s       {values['wall_s']:.4f} s    median of {len(walls)} commands "
              f"(raw {record['raw_wall_s']:.4f} s)")
        print(f"  setup_s      {values['setup_s']:.4f} s    median of {len(setups)} "
              f"interpreter starts (raw {record['raw_setup_s']:.4f} s)")
        print(f"  items_per_s  {values['items_per_s']:.2f} 1/s  {ITEMS[args.workload]} per second")
        if args.workload != "truncate":
            print(f"  pairs_per_s  {values['items_per_s']:.2f} 1/s  = items_per_s on this workload")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB   "
              "peak resident memory of the workload child")
    else:
        for name in sorted(values):
            print(f"  {name:<52} {values[name]:.6g} {units[name]}")
        if record["absent"]:
            print(f"  absent trace targets: {', '.join(record['absent'])}")
    print(f"  error_rate   {out['failed'] / out['attempted']:.4g}      "
          f"{out['failed']} failed of {out['attempted']} checks")
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
