"""One benchmark run inside a fresh interpreter.

Run by ``run.py`` as ``python child.py '<json config>'`` with ``src`` on
PYTHONPATH and the pure backend pinned. It imports weakcomm and loads the
example registry (set-up), then drives the workload's commands through
``weakcomm.cli.main`` and checks every report. The last line it prints is
one JSON object for the parent.

Config keys: mode ("setup" or "run"), workload, seed, seconds, trace,
smoke.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import platform
import random
import resource
import signal
import statistics
import sys
import time

import weakcomm
import weakcomm.cli
from weakcomm import ExampleId, paper_example

for _example in ExampleId:
    paper_example(_example)
READY = time.monotonic()

# Fixed workload shapes. Untraced runs take commands until the time is up;
# traced runs take a fixed number.
VERIFY_DIMS = {False: "2,3,4", True: "2,3"}
VERIFY_SAMPLES = {False: 5, True: 1}
TRUNCATE_SIZES = {False: "10,20,40,80", True: "4,8"}
SEARCH_BUDGET = {False: 400, True: 30}
SEARCH_DIM = 4
SEARCH_PREDICATES = ("comm_w_not_comm", "comm_l_not_comm_r", "comm_r_not_comm_l")
# A run that screens this many pairs must find a witness. Over the three
# predicates about 8 pairs in 10,000 are witnesses, so 20,000 pairs give
# about 16 on average, and none at all has odds below one in a million. A
# 30 s run screens about 40,000.
SEARCH_PAIRS_FOR_A_WITNESS = 20000
# time of _reference_loop at the machine speed that scaled times refer to
REFERENCE_LOOP_S = 0.0034
SPEED_INTERVAL_S = 0.5
TRACE_COMMANDS = {"verify": 3, "truncate": 1, "search": 9}
SMOKE_COMMANDS = 2

# verify_suite evaluates each identity once per pair, except for these
# parameter grids
PLAN_SIZES = {"NEWTON_R": 7, "NEWTON_L": 7, "BINOM": 6, "TELESCOPE": 6,
              "R.i": 3, "R.ii": 3, "KER_INCL": 3}

# predicate -> (required relation flags, forbidden relation flags)
PREDICATE_FLAGS = {
    "comm_w_not_comm": (("comm_w",), ("comm",)),
    "comm_l_not_comm_r": (("comm_l",), ("comm_r",)),
    "comm_r_not_comm_l": (("comm_r",), ("comm_l",)),
}


def commands(workload, seed, smoke):
    """The workload's endless command sequence; the seed fixes every input.

    ``truncate`` has one fixed input, so its sequence repeats one command.
    """
    rng = random.Random(f"{workload}:{seed}")
    for k in itertools.count():
        if workload == "verify":
            yield ["verify", "--dims", VERIFY_DIMS[smoke], "--samples",
                   str(VERIFY_SAMPLES[smoke]), "--seed", str(rng.randrange(2**31))]
        elif workload == "search":
            yield ["search", "--predicate", SEARCH_PREDICATES[k % len(SEARCH_PREDICATES)],
                   "--dim", str(SEARCH_DIM), "--budget", str(SEARCH_BUDGET[smoke]),
                   "--seed", str(rng.randrange(2**31))]
        else:
            yield ["truncate", "EXNILP_T", "--sizes", TRUNCATE_SIZES[smoke]]


def run_command(argv):
    """(exit status or None on a crash, seconds, report text)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = weakcomm.cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a crash fails every check of the command
        print(f"command {argv} crashed: {exc!r}", file=sys.stderr)
        status = None
    return status, time.perf_counter() - start, out.getvalue()


def _reference_loop():
    start = time.perf_counter()
    acc = 0
    values = list(range(1, 200))
    for k in range(150):
        for v in values:
            acc = (acc * 31 + v * k) % 1000003
    return time.perf_counter() - start


def machine_slowness():
    """How slow the shared machine runs now: reference loop time over nominal.

    The loop is plain interpreter work outside weakcomm, so no change to
    the program moves it; only the machine's speed does.
    """
    return min(_reference_loop() for _ in range(3)) / REFERENCE_LOOP_S


def run_scaled(argv):
    """run_command, plus the time scaled to the nominal machine speed.

    The speed is sampled right before and after the command and every
    SPEED_INTERVAL_S during it, from a timer signal; the time the samples
    take is not counted.
    """
    slowness = [machine_slowness()]
    spent = 0.0

    def sample(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        slowness.append(machine_slowness())
        spent += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
    try:
        status, wall, text = run_command(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= spent
    slowness.append(machine_slowness())
    return status, wall, wall * statistics.fmean(1 / f for f in slowness), text


def _option(argv, name):
    return argv[argv.index(name) + 1]


def check_verify(argv, status, report):
    """(checks attempted, checks failed, work items, witnesses found)."""
    samples = int(_option(argv, "--samples"))
    pairs = samples * len(weakcomm.RelationClass)
    plan = {i.value: pairs * PLAN_SIZES.get(i.value, 1) for i in weakcomm.identity_catalog()}
    attempted = sum(plan.values()) + 1  # every evaluation, plus the plan-size check
    if status not in (0, 1) or report is None:
        return attempted, attempted, pairs, 0
    slots = report["identities"]
    failed = sum(slot["fail"] for slot in slots.values())
    counted = {name: slot["pass"] + slot["vacuous"] + slot["fail"] for name, slot in slots.items()}
    if counted != plan or report["totals"]["fail"] != failed:
        failed += 1
    return attempted, failed, pairs, 0


def check_truncate(argv, status, report):
    sizes = [int(n) for n in _option(argv, "--sizes").split(",")]
    attempted = 3 * len(sizes)
    if status != 0 or report is None:
        return attempted, attempted, len(sizes), 0
    rows = {row["n"]: row for row in report["rows"]}
    failed = 0
    for n in sizes:
        row = rows.get(n, {})
        failed += row.get("charpoly") != f"x^{n}"
        failed += row.get("nilpotency_degree") != n
        failed += row.get("certified_kernel_dim") != 0
    return attempted, failed, len(sizes), 0


def _witness_holds(predicate, a_literal, b_literal):
    a = weakcomm.ExactMatrix.parse(a_literal)
    b = weakcomm.ExactMatrix.parse(b_literal)
    flags = weakcomm.relation_check(a, b).flags()
    # the primitive memberships again, straight from the products
    ab, ba = a * b, b * a
    direct = {
        "comm": ab == ba,
        "comm_l": ab * a == a * ab and ba * b == b * ba,
        "comm_r": ab * b == b * ab and ba * a == a * ba,
    }
    direct["comm_w"] = direct["comm_l"] and direct["comm_r"]
    required, forbidden = PREDICATE_FLAGS[predicate]
    return all(flags[f] == direct[f] for f in direct) and all(
        flags[f] for f in required) and not any(flags[f] for f in forbidden)


def check_search(argv, status, report):
    budget = int(_option(argv, "--budget"))
    if status not in (0, 1) or report is None:
        return 1, 1, budget, 0
    witness = report["witness"]
    if witness is None:
        return 1, int(status != 1 or report["found"]), budget, 0
    tried = witness["samples_tried"]
    outcome_ok = status == 0 and report["found"] and 1 <= tried <= budget
    holds = _witness_holds(_option(argv, "--predicate"), witness["a"], witness["b"])
    return 2, int(not outcome_ok) + int(not holds), tried, 1


CHECKS = {"verify": check_verify, "truncate": check_truncate, "search": check_search}


def check(workload, argv, status, text):
    """(checks attempted, checks failed, work items, witnesses) for one command."""
    try:
        return CHECKS[workload](argv, status, json.loads(text) if status is not None else None)
    except (ValueError, KeyError, TypeError, AttributeError):
        # an unreadable report fails every check of the command
        return CHECKS[workload](argv, None, None)


class Tally:
    """Checks, work items and report hashes over the commands of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = self.items = self.witnesses = 0
        self.hashes = []

    def add(self, argv, status, text):
        attempted, failed, items, witnesses = check(self.workload, argv, status, text)
        self.attempted += attempted
        self.failed += failed
        self.items += items
        self.witnesses += witnesses
        self.hashes.append(hashlib.sha256(text.encode()).hexdigest())

    def check_run(self):
        """Checks over the whole run: a long search run must find a witness.

        Each search that finds nothing is a valid result, so only the run
        as a whole shows a search that has stopped finding witnesses.
        """
        if self.workload == "search" and self.items >= SEARCH_PAIRS_FOR_A_WITNESS:
            self.attempted += 1
            self.failed += self.witnesses == 0

    def same_report(self, first, again):
        """Tracing must not change the report."""
        self.attempted += 1
        self.failed += first != again


def measure(workload, seed, seconds, smoke, tally):
    """Scaled and raw time of each command run until ``seconds`` have passed."""
    started = time.perf_counter()
    scaled, raw = [], []
    for argv in commands(workload, seed, smoke):
        status, wall, wall_scaled, text = run_scaled(argv)
        tally.add(argv, status, text)
        raw.append(wall)
        scaled.append(wall_scaled)
        if len(raw) == SMOKE_COMMANDS if smoke else time.perf_counter() - started >= seconds:
            return scaled, raw


def trace_commands(workload, seed, smoke, tracer, tally):
    """Run a fixed list of commands once untraced and once traced.

    Returns the tracing overhead of each command (traced minus untraced time).
    """
    count = SMOKE_COMMANDS if smoke else TRACE_COMMANDS[workload]
    overheads = []
    for argv in itertools.islice(commands(workload, seed, smoke), count):
        status, wall, text = run_command(argv)
        tally.add(argv, status, text)
        tracer.install()
        try:
            _, traced_wall, traced_text = run_command(argv)
        finally:
            tracer.uninstall()
        tracer.fold()
        tally.same_report(text, traced_text)
        overheads.append(traced_wall - wall)
    return overheads


def main():
    config = json.loads(sys.argv[1])
    result = {"ready": READY, "slowness": machine_slowness()}
    if config["mode"] == "setup":
        print(json.dumps(result))
        return
    workload, seed, smoke = config["workload"], config["seed"], config["smoke"]
    tally = Tally(workload)
    if config["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        overheads = trace_commands(workload, seed, smoke, tracer, tally)
        result.update(
            per_layer=tracer.metrics(statistics.median(overheads)),
            absent=tracer.absent,
            span_errors=tracer.span_errors,
        )
    else:
        result["walls"], result["raw_walls"] = measure(
            workload, seed, config["seconds"], smoke, tally)
    tally.check_run()
    result.update(
        commands=len(tally.hashes),
        items=tally.items,
        attempted=tally.attempted,
        failed=tally.failed,
        hashes=tally.hashes,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        backend=getattr(weakcomm, "BACKEND", "pure"),
        python=platform.python_version(),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
