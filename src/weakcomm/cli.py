"""Batch command line entry point.

Four commands: verify (run the identity suite over sampled pairs), example
(rebuild a registry pair or operator spec and re-verify its claims), search
(look for a witness pair satisfying a relation predicate), truncate (finite
sections of an operator spec, with exact nilpotency degrees and the charpolys
and spectra they imply).

Exit status: 0 when everything verified (vacuous verdicts do not fail),
1 when any check failed or a search came up empty, 2 on configuration
errors. Reports are byte-stable for a fixed config; --format picks JSON or
Markdown and --out redirects the report to a file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import WeakcommError
from ._kernel_py import nilpotency_degree_ints
from .exact import _charpoly_rows
from .identities import IdentityId, verify_suite
from .instances import (
    ExampleId,
    RelationClass,
    example_entry,
    _registry_checks,
    paper_example,
    search_witness,
    witness_predicates,
)
from .relations import relation_check
from . import shiftlab

SCHEMA_VERSION = 1


def _parse_dims(text):
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims list: {text!r}")
    if not dims or any(d < 2 or d > 8 for d in dims):
        raise argparse.ArgumentTypeError("dims must be integers in 2..8")
    return dims


def _parse_sizes(text):
    try:
        sizes = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list: {text!r}")
    if not sizes or any(n < 2 for n in sizes) or any(
        b <= a for a, b in zip(sizes, sizes[1:])
    ):
        raise argparse.ArgumentTypeError("sizes must be ascending integers >= 2")
    return sizes


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weakcomm",
        description="exact verification laboratory for weak commutation relations",
    )
    parser.add_argument("--version", action="version", version=f"weakcomm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity suite on sampled pairs")
    p_verify.add_argument("--dims", type=_parse_dims, default=(2, 3, 4))
    p_verify.add_argument("--samples", type=int, default=250)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument(
        "--classes",
        default=None,
        help="comma list of relation classes (default: all)",
    )
    p_verify.add_argument(
        "--inject-fault",
        default=None,
        choices=[i.value for i in IdentityId],
        help="invert one identity's verdicts (harness self-test)",
    )

    p_example = sub.add_parser("example", help="re-verify a registry example")
    p_example.add_argument("id", choices=[e.value for e in ExampleId])
    p_example.add_argument("--dim", type=int, default=None)

    p_search = sub.add_parser(
        "search",
        help="search for a witness pair",
        description=(
            "Search sampled pairs for a witness of a relation predicate. "
            "comm_w_not_comm has no witness at --dim 2: comm_w makes c = ab - ba "
            "square to zero and commute with a and b in every algebra, and in 2x2 "
            "matrices that forces c = 0 (see the README)."
        ),
    )
    p_search.add_argument("--predicate", required=True, choices=witness_predicates())
    p_search.add_argument("--dim", type=int, required=True)
    p_search.add_argument("--budget", type=int, default=10_000)
    p_search.add_argument("--seed", type=int, required=True)

    p_trunc = sub.add_parser("truncate", help="finite sections of an operator spec")
    p_trunc.add_argument(
        "id",
        choices=[e.value for e in ExampleId if example_entry(e).kind == "op_spec"],
    )
    p_trunc.add_argument("--sizes", type=_parse_sizes, default=(10, 20, 40))

    for p in (p_verify, p_example, p_search, p_trunc):
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--out", default=None, help="write the report to a file")
    return parser


# -- command payloads ---------------------------------------------------------------


def _run_verify(args):
    classes = None
    if args.classes is not None:
        try:
            classes = [RelationClass(c.strip()) for c in args.classes.split(",")]
        except ValueError as exc:
            raise ConfigError(str(exc))
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    report = verify_suite(
        classes=classes,
        dims=args.dims,
        samples_per_class=args.samples,
        seed=args.seed,
        inject_fault=IdentityId(args.inject_fault) if args.inject_fault else None,
    )
    payload = report.to_json_dict()
    payload["command"] = "verify"
    return payload, 0 if report.failures == 0 else 1


def _run_example(args):
    if args.dim is not None and not 2 <= args.dim <= 8:
        raise ConfigError("--dim must be in 2..8")
    entry = example_entry(args.id)
    built = paper_example(entry.id, args.dim)
    checks = _registry_checks(entry, built)
    ok = all(passed for _, passed in checks)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "example",
        "id": entry.id.value,
        "kind": entry.kind,
        "summary": entry.summary,
        "checks": [{"name": name, "ok": passed} for name, passed in checks],
        "all_ok": ok,
    }
    if entry.kind == "pair":
        (a, b), report = built
        payload["dim"] = a.dim
        payload["a"] = a.literal()
        payload["b"] = b.literal()
        payload["relation"] = report.to_json_dict()
    else:
        payload["spec"] = shiftlab.format_spec(built[0])
    return payload, 0 if ok else 1


def _run_search(args):
    if args.dim < 2 or args.dim > 8:
        raise ConfigError("--dim must be in 2..8")
    if args.budget < 1:
        raise ConfigError("--budget must be >= 1")
    record = search_witness(args.predicate, args.dim, args.budget, args.seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "search",
        "predicate": args.predicate,
        "dim": args.dim,
        "budget": args.budget,
        "seed": args.seed,
        "found": record is not None,
    }
    if record is None:
        payload["witness"] = None
        return payload, 1
    payload["witness"] = record.to_json_dict()
    payload["relation"] = relation_check(record.a, record.b).to_json_dict()
    return payload, 0


def _run_truncate(args):
    spec, _ = paper_example(args.id)
    least = max(2, spec.support() + 1)
    if args.sizes[0] < least:
        raise ConfigError(
            f"--sizes must be >= {least} for {args.id}: "
            f"its finite-rank part reaches coordinate {spec.support()}"
        )
    rows = []
    for n in args.sizes:
        pattern, values = section = shiftlab._section(spec, n)
        # an n x n matrix is nilpotent exactly when its charpoly is x^n
        degree = nilpotency_degree_ints(pattern, lambda: values()[1])
        if degree is None:
            p, _ = _charpoly_rows(n, *values())
            raise ConfigError(
                f"{args.id} at n = {n}: charpoly {p.literal()} has nonzero roots, "
                "and truncate certifies only the root 0"
            )
        rows.append(
            {
                "n": n,
                "charpoly": f"x^{n}",  # --sizes are >= 2
                "nilpotency_degree": degree,
                "certified_kernel_dim": shiftlab.finite_support_kernel(spec, n, section=section).dim,
                # the root 0 with multiplicity n
                "spectrum": [[0.0, 0.0, n]],
                "max_modulus": 0.0,
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "truncate",
        "id": args.id,
        "spec": shiftlab.format_spec(spec),
        "sizes": list(args.sizes),
        "rows": rows,
    }
    return payload, 0


# -- rendering ----------------------------------------------------------------------


def _md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return out


def render_markdown(payload):
    cmd = payload["command"]
    lines = [f"# weakcomm {cmd} report", ""]
    if cmd == "verify":
        cfg = payload["config"]
        lines.append(
            f"- dims: {cfg['dims']}  samples/class: {cfg['samples_per_class']}  seed: {cfg['seed']}"
        )
        tot = payload["totals"]
        lines.append(
            f"- totals: {tot['pass']} pass, {tot['vacuous']} vacuous, {tot['fail']} fail"
        )
        lines.append("")
        rows = [
            (name, slot["pass"], slot["vacuous"], slot["fail"])
            for name, slot in sorted(payload["identities"].items())
        ]
        lines += _md_table(("identity", "pass", "vacuous", "fail"), rows)
        failures = {
            name: slot["first_failure"]
            for name, slot in sorted(payload["identities"].items())
            if slot["fail"]
        }
        if failures:
            lines.append("")
            lines.append("## first failures")
            for name, info in failures.items():
                lines.append(f"- {name}: {json.dumps(info, sort_keys=True)}")
    elif cmd == "example":
        lines.append(f"- id: {payload['id']} ({payload['kind']})")
        lines.append(f"- {payload['summary']}")
        if payload["kind"] == "pair":
            lines.append(f"- a: `{payload['a']}`")
            lines.append(f"- b: `{payload['b']}`")
            lines.append("")
            flags = [
                (k, v)
                for k, v in sorted(payload["relation"].items())
                if k != "residuals"
            ]
            lines += _md_table(("flag", "value"), flags)
            lines.append("")
            res = payload["relation"]["residuals"]
            lines += _md_table(("residual", "value"), sorted(res.items()))
        else:
            lines.append("")
            lines.append("```")
            lines.append(payload["spec"].rstrip("\n"))
            lines.append("```")
        lines.append("")
        lines += _md_table(
            ("check", "ok"), [(c["name"], c["ok"]) for c in payload["checks"]]
        )
        lines.append("")
        lines.append(f"all_ok: {payload['all_ok']}")
    elif cmd == "search":
        lines.append(
            f"- predicate: {payload['predicate']}  dim: {payload['dim']}  "
            f"budget: {payload['budget']}  seed: {payload['seed']}"
        )
        if payload["found"]:
            w = payload["witness"]
            lines.append(f"- found after {w['samples_tried']} samples")
            lines.append(f"- a: `{w['a']}`")
            lines.append(f"- b: `{w['b']}`")
        else:
            lines.append("- no witness within budget")
    else:
        lines.append(f"- id: {payload['id']}")
        lines.append("")
        lines.append("```")
        lines.append(payload["spec"].rstrip("\n"))
        lines.append("```")
        lines.append("")
        rows = [
            (
                r["n"],
                r["charpoly"],
                r["nilpotency_degree"],
                r["certified_kernel_dim"],
                f"{r['max_modulus']:.3e}",
            )
            for r in payload["rows"]
        ]
        lines += _md_table(
            ("n", "charpoly", "nilpotency degree", "certified kernel dim", "max |eig|"),
            rows,
        )
    return "\n".join(lines) + "\n"


def render(payload, fmt):
    if fmt == "markdown":
        return render_markdown(payload)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class ConfigError(Exception):
    pass


_RUNNERS = {
    "verify": _run_verify,
    "example": _run_example,
    "search": _run_search,
    "truncate": _run_truncate,
}


_PARSER = None  # built on the first call; parsing keeps no state in it


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        payload, status = _RUNNERS[args.command](args)
    except (ConfigError, WeakcommError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render(payload, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
