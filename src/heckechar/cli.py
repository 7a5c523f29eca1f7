"""Command-line interface.

Subcommands: ``char`` (one character value), ``table`` (full table for a
degree, printable or persisted to the JSON cache), ``bitrace``,
``verify`` (invariant suites) and ``bench`` (wall-clock per algorithm).

Exit status 0 on success, 1 on verification failure (with a
machine-readable JSON failure report on stdout), 2 on usage errors.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .partitions import (
    format_partition, parse_composition, parse_partition, sort_to_partition,
)
from .characters import (
    ALGORITHM_NAMES, char_table, character, clear_caches, dumps_table,
    entry_document, resolve_algorithm, save_table,
)
from .applications import bitrace
from .verify import SUITE_NAMES, run_suites

CACHE_ENV = "HECKECHAR_CACHE"


def _poly_str(poly, fmt, var="q"):
    if fmt == "latex":
        return poly.latex(var)
    return poly.format(var)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="heckechar",
        description="Exact irreducible characters of the type-A "
                    "Iwahori-Hecke algebra H_n(q).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("char", help="print one character value")
    p_char.add_argument("--lambda", dest="lam", required=True,
                        help="upper partition, e.g. 4,2 (use - for empty)")
    p_char.add_argument("--mu", required=True,
                        help="lower partition, e.g. 3,2,1")
    p_char.add_argument("--algorithm", default="auto",
                        choices=ALGORITHM_NAMES)
    p_char.add_argument("--format", default="plain",
                        choices=("plain", "json", "latex"))

    p_table = sub.add_parser("table", help="full character table for degree n")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--algorithm", default="auto",
                         choices=ALGORITHM_NAMES)
    p_table.add_argument("--format", default="plain",
                         choices=("plain", "json", "latex"))
    p_table.add_argument("--cache", default=None,
                         help="persist the table here instead of printing "
                              f"(default from ${CACHE_ENV})")

    p_btr = sub.add_parser("bitrace", help="bitrace of the regular "
                                           "representation")
    p_btr.add_argument("--lambda", dest="lam", required=True,
                       help="composition, e.g. 2,1")
    p_btr.add_argument("--mu", required=True)
    p_btr.add_argument("--method", default="matrices",
                       choices=("matrices", "char_sum"))

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("--n-max", type=int, default=5)
    p_verify.add_argument("--suites", default="all",
                          help="comma-separated subset of "
                               f"{','.join(SUITE_NAMES)} or 'all'")

    p_bench = sub.add_parser("bench", help="time algorithms on a full table")
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--algorithms", default="mn,strips,oracle",
                         help="comma-separated algorithm names")
    p_bench.add_argument("--repetitions", type=int, default=1)

    return parser


def _cmd_char(args):
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    value = character(lam, mu, args.algorithm)
    if args.format == "json":
        tag = resolve_algorithm(args.algorithm)
        doc = entry_document(lam, sort_to_partition(mu), tag, value)
        print(json.dumps(doc))
    else:
        print(_poly_str(value, args.format))
    return 0


def _cmd_table(args):
    cache_path = args.cache or os.environ.get(CACHE_ENV)
    # checked before the fill, which can take long
    if cache_path and (os.path.isdir(cache_path) or not os.path.isdir(
            os.path.dirname(os.path.abspath(cache_path)))):
        raise ValueError(f"cache path {cache_path!r} is a directory or lies "
                         "in a directory that does not exist")
    table = char_table(args.n, algorithm=args.algorithm)
    if cache_path:
        save_table(table, cache_path)
        print(f"wrote {len(table.entries)} entries to {cache_path}",
              file=sys.stderr)
        return 0
    if args.format == "json":
        sys.stdout.write(dumps_table(table))
        return 0
    for (lam, mu), poly in table.entries.items():
        if args.format == "latex":
            print(f"\\chi^{{({format_partition(lam)})}}"
                  f"_{{({format_partition(mu)})}}(q) = {poly.latex('q')}")
        else:
            print(f"{format_partition(lam)}\t{format_partition(mu)}\t"
                  f"{poly.format('q')}")
    return 0


def _cmd_bitrace(args):
    lam = parse_composition(args.lam)
    mu = parse_composition(args.mu)
    value = bitrace(lam, mu, args.method)
    print(value.format("q"))
    return 0


def _cmd_verify(args):
    names = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    report = run_suites(names, n_max=args.n_max)
    failed = False
    for name, failures in report.items():
        if failures:
            failed = True
            print(f"{name}: FAIL ({len(failures)} counterexamples)")
        else:
            print(f"{name}: pass")
    if failed:
        print(json.dumps({"n_max": args.n_max, "suites": report,
                          "ok": False}))
        return 1
    return 0


def _cmd_bench(args):
    if args.repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ValueError("no algorithm selected")
    for alg in algorithms:
        resolve_algorithm(alg)
    for alg in algorithms:
        best = None
        for _ in range(args.repetitions):
            clear_caches()
            start = time.perf_counter()
            char_table(args.n, algorithm=alg)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        print(f"{alg}\t{best:.3f}s")
    return 0


_COMMANDS = {
    "char": _cmd_char,
    "table": _cmd_table,
    "bitrace": _cmd_bitrace,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as err:   # malformed input: a usage error, exit 2
        parser.error(str(err))


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
