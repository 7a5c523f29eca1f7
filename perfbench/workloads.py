"""The benchmark's three workloads: inputs, timed rounds and value checks.

Every workload runs closed loop: one client in one process sends the
next operation only when the previous one has returned, with ``jobs=1``.
A run repeats rounds until the time budget is spent; each round starts
from cold caches.  The program receives only the generated inputs.

Checks run after the timed region and compare values only (never the
``algorithm`` provenance tag), so a change of route dispatch that keeps
every value passes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent

TABLE_N = 14
REDUCTIONS = (("gen_newton", 7), ("gen_sn", 8))
# degrees per character route.  Cold iterative queries at n=11-12 and
# matrix bitraces at n=7 are left out: single queries there take up to
# 1.4 s (compositions_of and contingency-matrix blow-up), so one draw
# changed a round's throughput by up to 2x between seeds.
QUERY_DEGREES = {
    "auto": (9, 10, 11, 12),
    "mn": (9, 10, 11, 12),
    "strips": (9, 10, 11, 12),
    "det": (9, 10, 11, 12),
    "iterative": (9, 10),
    "oracle": (9, 10, 11, 12),
}
QUERIES_PER_CELL = 40           # per (route, degree)
BITRACE_DEGREES = (5, 6)
BITRACES_PER_DEGREE = 80


@lru_cache(maxsize=None)
def partitions_of(n):
    """Partitions of n in reverse-lexicographic order, enumerated here so
    that generating inputs touches none of the program's memo tables."""
    out = []

    def rec(rem, cap, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rem, cap), 0, -1):
            prefix.append(part)
            rec(rem - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def fmt(parts):
    return ",".join(map(str, parts)) or "-"


def fingerprint(poly):
    """Value-only digest of one polynomial through its public pair form."""
    return hashlib.sha1(repr(poly.to_pairs()).encode()).digest()


def row_digests(table, n):
    """SHA-256 per row lambda over the (lambda, mu, polynomial) triples."""
    rows = {}
    for lam in partitions_of(n):
        h = hashlib.sha256()
        for mu in partitions_of(n):
            h.update(f"{fmt(lam)}|{fmt(mu)}|{table.value(lam, mu).to_pairs()}\n".encode())
        rows[fmt(lam)] = h.hexdigest()
    return rows


def clear_all(hk):
    """Empty every memo table.  ``clear_caches()`` misses the entry-weight
    cache of ``applications``, so it is cleared here as well."""
    hk.characters.clear_caches()
    entry_weight = getattr(hk.applications, "entry_weight", None)
    if hasattr(entry_weight, "cache_clear"):
        entry_weight.cache_clear()


class Outcome(NamedTuple):
    value: object
    seconds: float
    error: str | None


class Round(NamedTuple):
    values: int          # exact values delivered by the round
    latencies: list      # seconds per operation
    seconds: float       # timed seconds of the round


class Query(NamedTuple):
    route: str           # a character algorithm, or "bitrace"
    lam: tuple
    mu: tuple

    def describe(self):
        return f"lambda={fmt(self.lam)} mu={fmt(self.mu)} route={self.route}"


def query_block(seed, index):
    """Round ``index`` of the seeded query stream: a fixed number of
    queries per (route, degree) cell, pairs drawn uniformly, order shuffled."""
    rng = random.Random(f"heckechar-queries:{seed}:{index}")
    block = []
    for route, degrees in QUERY_DEGREES.items():
        for n in degrees:
            parts = partitions_of(n)
            block += [Query(route, rng.choice(parts), rng.choice(parts))
                      for _ in range(QUERIES_PER_CELL)]
    for n in BITRACE_DEGREES:
        parts = partitions_of(n)
        for _ in range(BITRACES_PER_DEGREE):
            # bitrace takes compositions: shuffle the parts
            lam, mu = list(rng.choice(parts)), list(rng.choice(parts))
            rng.shuffle(lam)
            rng.shuffle(mu)
            block.append(Query("bitrace", tuple(lam), tuple(mu)))
    rng.shuffle(block)
    return block


class Workload:
    name = ""
    why = ""

    def __init__(self, hk, seed):
        self.hk = hk
        self.seed = seed
        self.attempted = 0
        self.failures = []   # one line per failed value

    @property
    def failed(self):
        return len(self.failures)

    def fail(self, message):
        self.failures.append(message)

    def finish(self):
        """Checks that need every round's results."""

    def layer_extras(self):
        """Workload-specific per-layer figures."""
        return {"characters.table_bytes": 0}


class TableWorkload(Workload):
    name = "table"
    why = ("full auto-route table at n=14 plus its JSON round trip: heavy memo "
           "reuse, LaurentPoly kernel, strip enumeration and serialisation")

    def __init__(self, hk, seed):
        super().__init__(hk, seed)
        # the table has no free parameters; the seed changes nothing here
        self.expected = json.loads((HERE / "expected" / f"table-{TABLE_N}.json").read_text())
        self.table_bytes = 0
        self.pairs = [(lam, mu) for lam in partitions_of(TABLE_N)
                      for mu in partitions_of(TABLE_N)]

    def run_round(self, index, timed):
        ch = self.hk.characters
        clear_all(self.hk)
        count = len(self.pairs)
        self.attempted += count
        fill = timed(ch.char_table, TABLE_N)
        text = back = None
        if fill.error is None:
            text = timed(ch.dumps_table, fill.value)
        if text is not None and text.error is None:
            back = timed(ch.loads_table, text.value)
        steps = [s for s in (fill, text, back) if s is not None]
        failed = next((s for s in steps if s.error is not None), None)
        seconds = sum(s.seconds for s in steps)
        if failed is not None:
            for lam, mu in self.pairs:
                self.fail(f"round {index} lambda={fmt(lam)} mu={fmt(mu)} "
                          f"route=auto: {failed.error}")
            return Round(0, [], seconds)
        self.table_bytes = len(text.value)
        self._check(index, fill.value, back.value)
        return Round(count, [seconds], seconds)

    def _check(self, index, table, reloaded):
        try:
            rows = row_digests(table, TABLE_N)
            changed = [(lam, mu, "loads_table: value changed in the JSON round trip")
                       for lam, mu in self.pairs
                       if reloaded.value(lam, mu) != table.value(lam, mu)]
        except Exception as exc:  # a table that cannot be read fails every value
            for lam, mu in self.pairs:
                self.fail(f"round {index} lambda={fmt(lam)} mu={fmt(mu)} "
                          f"route=auto: {type(exc).__name__}: {exc}")
            return
        provenance = getattr(table, "provenance", {})
        for lam in partitions_of(TABLE_N):
            if rows[fmt(lam)] != self.expected["row_sha256"][fmt(lam)]:
                changed += [(lam, mu, f"{provenance.get((lam, mu), '?')}: row differs "
                             "from the pinned digest") for mu in partitions_of(TABLE_N)]
        for lam, mu, what in changed:
            self.fail(f"round {index} lambda={fmt(lam)} mu={fmt(mu)} route={what}")

    def layer_extras(self):
        return {"characters.table_bytes": self.table_bytes}


class QueriesWorkload(Workload):
    name = "queries"
    why = ("stream of independent cold queries over six character routes at "
           "n=9-12 and matrix bitraces at n=5-6: no memo reuse")

    def __init__(self, hk, seed):
        super().__init__(hk, seed)
        self.blocks = {0: query_block(seed, 0)}
        self.results = []    # (round, query, fingerprint) per answered query

    def block(self, index):
        if index not in self.blocks:
            self.blocks[index] = query_block(self.seed, index)
        return self.blocks[index]

    def _call(self, query):
        if query.route == "bitrace":
            return self.hk.applications.bitrace(query.lam, query.mu, "matrices")
        return self.hk.characters.character(query.lam, query.mu, query.route)

    def run_round(self, index, timed):
        block = self.block(index)
        self.attempted += len(block)
        latencies = []
        for query in block:
            clear_all(self.hk)
            out = timed(self._call, query)
            if out.error is not None:
                self.fail(f"round {index} {query.describe()}: {out.error}")
                continue
            latencies.append(out.seconds)
            self.results.append((index, query, fingerprint(out.value)))
        return Round(len(latencies), latencies, sum(latencies))

    def _reference(self, query):
        """An independent route: char_sum for bitraces, mn for characters
        (strips where the query itself went through mn)."""
        hk = self.hk
        if query.route == "bitrace":
            return hk.applications.bitrace(query.lam, query.mu, "char_sum")
        route = "strips" if query.route in ("auto", "mn") else "mn"
        return hk.characters.character(query.lam, query.mu, route)

    def finish(self):
        clear_all(self.hk)
        expected = {}
        for index, query, got in self.results:
            if query not in expected:
                try:
                    expected[query] = fingerprint(self._reference(query))
                except Exception as exc:  # a failed reference is a failed value
                    expected[query] = f"reference failed: {exc!r}"
            if got != expected[query]:
                self.fail(f"round {index} {query.describe()}: differs from the "
                          "independent route")
        clear_all(self.hk)


class ReductionsWorkload(Workload):
    name = "reductions"
    why = ("gen_newton table at n=7 and gen_sn table at n=8: the only "
           "workload where RationalFn canonicalisation and poly_gcd dominate")

    def __init__(self, hk, seed):
        super().__init__(hk, seed)
        # the tables have no free parameters; the seed changes nothing here
        self.results = []    # (round, algorithm, n, {(lam, mu): fingerprint})

    def run_round(self, index, timed):
        ch = self.hk.characters
        clear_all(self.hk)
        seconds = 0.0
        values = 0
        for algorithm, n in REDUCTIONS:
            count = len(partitions_of(n)) ** 2
            self.attempted += count
            out = timed(ch.char_table, n, algorithm)
            seconds += out.seconds
            if out.error is not None:
                for lam in partitions_of(n):
                    for mu in partitions_of(n):
                        self.fail(f"round {index} lambda={fmt(lam)} mu={fmt(mu)} "
                                  f"route={algorithm}: {out.error}")
                continue
            values += count
            self.results.append((index, algorithm, n, {
                (lam, mu): fingerprint(out.value.value(lam, mu))
                for lam in partitions_of(n) for mu in partitions_of(n)}))
        return Round(values, [seconds] if values else [], seconds)

    def finish(self):
        ch = self.hk.characters
        clear_all(self.hk)
        reference = {}
        for index, algorithm, n, got in self.results:
            if n not in reference:
                try:
                    table = ch.char_table(n, "mn")
                    reference[n] = {key: fingerprint(table.value(*key)) for key in got}
                except Exception as exc:  # no reference: every value fails
                    reference[n] = {}
                    print(f"mn reference table at n={n} failed: {exc!r}", file=sys.stderr)
            for (lam, mu), fp in got.items():
                if fp != reference[n].get((lam, mu)):
                    self.fail(f"round {index} lambda={fmt(lam)} mu={fmt(mu)} "
                              f"route={algorithm}: differs from the mn table")
        clear_all(self.hk)


WORKLOADS = {w.name: w for w in (TableWorkload, QueriesWorkload, ReductionsWorkload)}
