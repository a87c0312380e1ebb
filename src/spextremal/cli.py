"""Command line front end.

Subcommands: enumerate, weights, verify, table, search.  Every JSON or
CSV output embeds a run manifest (command, config, version, seed,
timestamp) sufficient to reproduce the run.  verify deals its instances,
and search its restart batches, over the CPUs the process may use (its
affinity): each CPU but the first gets a forked worker, and the output
does not depend on how many there are.  Exit codes: 0 success, 1
verification failure, 2 bound violation, 64 usage error or a size limit
hit, 65 parse error, 71 a verify or search worker could not start or
ended without a result, 74 stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from datetime import datetime, timezone

from . import __version__
from .extremal import build, class_table, count_classes, verify_instance
from .numeric import MAX_EDGES, BruteForceCapError, require_edge_limit
from .search import DEDUP_TOL, EPS, STEPS, SearchConfig, accumulate
from .sptree import (
    SpTreeError,
    TreeParseError,
    enumerate_rooted,
    format_tree,
    leaf_count,
    parse_tree,
    require_two_connected,
)
from .weights import induced_weights, weights_to_json
from .workers import WorkerError, cpus, in_order

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_OSERR = 71
EXIT_IOERR = 74

# the largest row table prints: row 30 takes about 50 ms, and its
# entries already run to 12 digits
TABLE_MAX = 30

# a size N or a range N..M, for verify's spec and its k range
_SIZES = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def run_manifest(command: str, config: dict, trees=()) -> dict:
    stamp = os.environ.get("EXTREMAL_TIMESTAMP")
    if not stamp:
        stamp = datetime.now(timezone.utc).isoformat()
    return {
        "command": command,
        "config": config,
        "version": __version__,
        "seed": config.get("seed"),
        "timestamp": stamp,
        "trees": list(trees),
    }


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def cmd_enumerate(args) -> int:
    if args.n < 2 or args.n > MAX_EDGES or not 1 <= args.k < args.n:
        raise UsageError(f"need 2 <= n <= {MAX_EDGES} and 1 <= k <= n - 1")
    trees = enumerate_rooted(args.n, args.k)
    classes = count_classes(args.n, args.k)
    if args.format == "json":
        manifest = run_manifest("enumerate", {"n": args.n, "k": args.k})
        _emit_json({
            "manifest": manifest,
            "trees": [format_tree(t) for t in trees],
            "classes": classes,
        })
    else:
        for tree in trees:
            print(format_tree(tree))
        print(f"classes: {classes}")
    return EXIT_OK


def cmd_weights(args) -> int:
    weights = induced_weights(parse_tree(args.tree))
    if args.format == "json":
        manifest = run_manifest("weights", {"tree": args.tree}, trees=[args.tree])
        _emit_json({"manifest": manifest, "weights": weights_to_json(weights)})
    else:
        print(", ".join(str(weights[e]) for e in sorted(weights)))
    return EXIT_OK


def _verify_trees(args):
    match = _SIZES.match(args.spec)
    if not match:
        if args.k_range is not None:
            raise UsageError("a tree spec takes no k range")
        tree = parse_tree(args.spec)
        require_two_connected(tree)
        require_edge_limit(leaf_count(tree))
        yield tree
        return
    lo = int(match.group(1))
    hi = int(match.group(2) or lo)
    if lo < 2 or hi < lo or hi > MAX_EDGES:
        raise UsageError(f"verify sizes must satisfy 2 <= lo <= hi <= {MAX_EDGES}")
    if args.k_range is not None:
        kmatch = _SIZES.match(args.k_range)
        if not kmatch:
            raise UsageError("k range must look like 2 or 2..4")
        klo = int(kmatch.group(1))
        khi = int(kmatch.group(2) or klo)
        if klo < 1 or khi < klo:
            raise UsageError("k range must satisfy 1 <= klo <= khi")
    else:
        klo, khi = 1, hi - 1
    for n in range(lo, hi + 1):
        for k in range(klo, min(n - 1, khi) + 1):
            yield from enumerate_rooted(n, k)


def _verified(trees) -> list:
    return [verify_instance(build(tree)) for tree in trees]


def _verified_on_every_cpu(trees: list) -> list:
    """_verified(trees), dealt over the CPUs this process may use: with
    width of them, worker i verifies trees[i::width] in a forked process
    and the caller verifies trees[::width] itself, so a width of 1 forks
    nothing."""
    width = min(cpus(), len(trees))
    reports = [None] * len(trees)
    shares = [trees[i::width] for i in range(width)]
    for i, share in enumerate(in_order(_verified, shares)):
        reports[i::width] = share
    return reports


def _nested(value, level: int) -> str:
    """json.dumps(value, indent=2) as it reads level deep in an indented payload."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _emit_verify(manifest: dict, reports: list, ok: bool) -> None:
    """Write _emit_json({"manifest": manifest, "instances": reports,
    "all_ok": ok})'s bytes one instance at a time; reports is not empty."""
    write = sys.stdout.write
    write('{\n  "manifest": ' + _nested(manifest, 1) + ',\n  "instances": [')
    for i, report in enumerate(reports):
        write(("," if i else "") + "\n    " + _nested(report, 2))
    write('\n  ],\n  "all_ok": ' + json.dumps(ok) + "\n}\n")


def cmd_verify(args) -> int:
    manifest = run_manifest("verify", {"spec": args.spec, "k_range": args.k_range})
    trees = list(_verify_trees(args))
    if not trees:
        raise UsageError("no instance matches; each has 1 <= k <= n - 1")
    reports = _verified_on_every_cpu(trees)
    failed = [report for report in reports
              if not (report["eigen_ok"] and report["degenerate_ok"]
                      and report["target_ok"] and report["dual_ok"])]
    for report in failed:
        print(json.dumps(report), file=sys.stderr)
    _emit_verify(manifest, reports, not failed)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_table(args) -> int:
    if args.n_max < 2 or args.n_max > TABLE_MAX:
        raise UsageError(f"table needs 2 <= n-max <= {TABLE_MAX}")
    manifest = run_manifest("table", {"n_max": args.n_max})
    print("# manifest " + json.dumps(manifest))
    print("n," + ",".join(f"k={k}" for k in range(1, args.n_max)))
    for n, row in enumerate(class_table(args.n_max), start=2):
        print(",".join(map(str, [n] + row)))
    return EXIT_OK


def cmd_search(args) -> int:
    if args.n < 2 or args.k < 1 or args.k >= args.n:
        raise UsageError("need n > k >= 1")
    require_edge_limit(args.n)
    try:
        config = SearchConfig(attempts=args.N, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = accumulate(args.n, args.k, config)
    manifest = run_manifest("search", {
        "n": args.n, "k": args.k, "seed": config.seed, "N": config.attempts,
        "eps": EPS, "steps": STEPS, "dedup_tol": DEDUP_TOL})
    payload = {
        "manifest": manifest,
        "n": args.n,
        "k": args.k,
        "classes": len(result.classes),
        "violation": result.violation is not None,
        "restarts": result.restarts,
        "representatives": [
            [float(x) for x in member.basis.flatten()]
            for member, _ in result.classes
        ],
        "scores": [score for _, score in result.classes],
    }
    if result.violation is not None:
        payload["violation_report"] = {
            "deviation_cos": result.violation.deviation_cos,
            "subset": list(result.violation.subset),
            "basis": [float(x) for x in result.violation.subspace.basis.flatten()],
        }
    _emit_json(payload)
    return EXIT_VIOLATION if result.violation is not None else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="spextremal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list canonical trees and class count")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("weights", help="induced edge weights of a tree")
    p.add_argument("tree")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("verify", help="verify instances (size like 8 or range like "
                       "2..7, optionally with k like 2 or 2..4; or one tree)")
    p.add_argument("spec")
    p.add_argument("k_range", nargs="?", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="CSV triangle of class counts")
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("search", help="randomized extremal-subspace search")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--N", type=int, default=SearchConfig.attempts)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TreeParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SpTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BruteForceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OSERR
    except BrokenPipeError:
        # the reader closed stdout; pointing it at the null device leaves
        # the interpreter's last flush nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IOERR


if __name__ == "__main__":
    sys.exit(main())
