"""Command line front end.

Subcommands: enumerate, weights, verify, table, search.  Every JSON or
CSV output embeds a run manifest (command, config, version, seed,
timestamp) sufficient to reproduce the run.  Exit codes: 0 success,
1 verification failure, 2 bound violation, 64 usage error or a size
limit hit, 65 parse error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone

from . import __version__
from .extremal import build, class_table, count_classes, verify_instance
from .numeric import MAX_EDGES, BruteForceCapError, require_edge_limit
from .search import SearchConfig, accumulate
from .sptree import (
    Parallel,
    SpTreeError,
    TreeParseError,
    enumerate_rooted,
    format_tree,
    leaf_count,
    parse_tree,
)
from .weights import induced_weights, weights_to_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 64
EXIT_PARSE = 65

# the largest row table prints: row 30 takes about 50 ms, and its
# entries already run to 12 digits
TABLE_MAX = 30

# the deepest nesting of compositions a tree argument may have: the
# recursive walks (parse, layout, realize, format) take at most two frames
# per level and fail near 495 levels at Python's default recursion limit
# of 1000, so 400 leaves room for the caller's frames
NESTING_MAX = 400

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


def _parse_two_sp(text: str):
    depth = max(itertools.accumulate((c == "(") - (c == ")") for c in text), default=0)
    if depth > NESTING_MAX:
        raise UsageError(f"tree nests {depth} levels deep, above the limit of {NESTING_MAX}")
    tree = parse_tree(text)
    if not isinstance(tree, Parallel):
        raise TreeParseError(
            "root must be a parallel composition (the graph is not 2-connected)", 0)
    return tree


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
    tree = _parse_two_sp(args.tree)
    weights = induced_weights(tree)
    if args.format == "json":
        manifest = run_manifest("weights", {"tree": args.tree}, trees=[args.tree])
        _emit_json({"manifest": manifest, "weights": weights_to_json(weights)})
    else:
        print(", ".join(str(weights[e]) for e in sorted(weights)))
    return EXIT_OK


def _verify_trees(args):
    match = _SIZES.match(args.spec)
    if not match:
        if args.k_range:
            raise UsageError("a tree spec takes no k range")
        tree = _parse_two_sp(args.spec)
        require_edge_limit(leaf_count(tree))
        yield tree
        return
    lo = int(match.group(1))
    hi = int(match.group(2) or lo)
    if lo < 2 or hi < lo or hi > MAX_EDGES:
        raise UsageError(f"verify sizes must satisfy 2 <= lo <= hi <= {MAX_EDGES}")
    if args.k_range:
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


def cmd_verify(args) -> int:
    manifest = run_manifest("verify", {"spec": args.spec, "k_range": args.k_range})
    reports = []
    ok = True
    for tree in _verify_trees(args):
        report = verify_instance(build(tree))
        passed = (report["eigen_ok"] and report["degenerate_ok"]
                  and report["target_ok"] and report["dual_ok"])
        reports.append(report)
        if not passed:
            ok = False
            print(json.dumps(report), file=sys.stderr)
    if not reports:
        raise UsageError("no instance matches; each has 1 <= k <= n - 1")
    _emit_json({"manifest": manifest, "instances": reports, "all_ok": ok})
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_table(args) -> int:
    if args.n_max < 2 or args.n_max > TABLE_MAX:
        raise UsageError(f"table needs 2 <= n-max <= {TABLE_MAX}")
    manifest = run_manifest("table", {"n_max": args.n_max})
    print("# manifest " + json.dumps(manifest))
    print("n," + ",".join(f"k={k}" for k in range(1, args.n_max)))
    for n, row in enumerate(class_table(args.n_max), start=2):
        print(",".join(map(str, [n] + row)))
    return EXIT_OK


def _search_dest(name: str) -> str:
    """The search option holding a SearchConfig field (--N is the budget)."""
    return "N" if name == "attempts" else name


def cmd_search(args) -> int:
    if args.n < 2 or args.k < 1 or args.k >= args.n:
        raise UsageError("need n > k >= 1")
    try:
        config = SearchConfig(**{f.name: getattr(args, _search_dest(f.name))
                                 for f in fields(SearchConfig)})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = accumulate(args.n, args.k, config)
    settings = asdict(config)
    config_dict = {"n": args.n, "k": args.k, "seed": settings.pop("seed"),
                   "N": settings.pop("attempts"), **settings}
    manifest = run_manifest("search", config_dict)
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
    for field in fields(SearchConfig):
        if field.name != "seed":
            dest = _search_dest(field.name)
            p.add_argument("--" + dest.replace("_", "-"), type=type(field.default),
                           default=field.default)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
