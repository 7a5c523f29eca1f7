"""Command-line interface.

Subcommands: ``char`` (one character value), ``table`` (full table for a
degree, printed or exported to a JSON file row by row as the rows are
computed, with the fill and write times on stderr), ``bitrace`` and
``verify`` (invariant suites).

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
    format_partition, parse_composition, parse_partition, partitions_of,
    sort_to_partition,
)
from .characters import (
    ALGORITHM_NAMES, character, entry_document, resolve_algorithm,
    row_texts, table_rows, write_atomic,
)
from .applications import bitrace
from .verify import SUITE_NAMES, run_suites


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
    # no default, so that an explicit plain clashes with --cache; printed
    # plain when not given
    p_table.add_argument("--format", default=None,
                         choices=("plain", "json", "latex"))
    p_table.add_argument("--cache", default=None,
                         help="write the table here as JSON instead of "
                              "printing it; an export, not a speed-up: "
                              "reading it back is slower than a fill")

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

    return parser


def _cmd_char(args):
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    value = character(lam, mu, args.algorithm)
    if args.format == "json":
        tag = resolve_algorithm(args.algorithm)
        doc = entry_document(lam, sort_to_partition(mu), tag, value)
        print(json.dumps(doc))
    elif args.format == "latex":
        print(value.latex("q"))
    else:
        print(value.format("q"))
    return 0


class _FillClock:
    """Iterates ``rows``, summing in ``seconds`` the time spent inside
    the generator, so a fill streamed into its output is timed apart
    from the formatting and writing."""

    def __init__(self, rows):
        self.rows = rows
        self.seconds = 0.0

    def __iter__(self):
        while True:
            start = time.perf_counter()
            item = next(self.rows, None)
            self.seconds += time.perf_counter() - start
            if item is None:
                return
            yield item


def _cmd_table(args):
    path = args.cache
    if path is not None:
        # checked before the fill, which can take long
        if args.format not in (None, "json"):
            raise ValueError(f"--cache writes JSON, not --format "
                             f"{args.format}")
        parent = os.path.dirname(os.path.abspath(path))
        if not path or os.path.isdir(path) or not os.path.isdir(parent):
            raise ValueError(f"cache path {path!r} is empty, is a directory "
                             "or lies in a directory that does not exist")
    n, tag = args.n, resolve_algorithm(args.algorithm)
    parts = partitions_of(n)
    # each row is written as it comes: no table is ever held
    rows = _FillClock(table_rows(n, tag))
    if path is not None:
        start = time.perf_counter()
        write_atomic(path, map("".join, row_texts(n, tag, rows)))
        spent = time.perf_counter() - start
        print(f"wrote {len(parts) ** 2} entries to {path} "
              f"(fill {rows.seconds:.3f} s, "
              f"write {spent - rows.seconds:.3f} s)", file=sys.stderr)
    elif args.format == "json":
        for pieces in row_texts(n, tag, rows):
            sys.stdout.write("".join(pieces))
    elif args.format == "latex":
        for lam, row in rows:
            head = f"\\chi^{{({format_partition(lam)})}}"
            sys.stdout.write("".join(
                f"{head}_{{({format_partition(mu)})}}(q) = {poly.latex('q')}\n"
                for mu, poly in zip(parts, row)))
    else:
        for lam, row in rows:
            head = f"{format_partition(lam)}\t"
            sys.stdout.write("".join(
                f"{head}{format_partition(mu)}\t{poly.format('q')}\n"
                for mu, poly in zip(parts, row)))
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


_COMMANDS = {
    "char": _cmd_char,
    "table": _cmd_table,
    "bitrace": _cmd_bitrace,
    "verify": _cmd_verify,
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
