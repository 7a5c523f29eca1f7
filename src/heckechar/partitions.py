"""Partitions, compositions and broken border strips.

Partitions are plain tuples of positive integers in weakly decreasing
order with no trailing zeros; compositions are tuples of non-negative
integers (zeros allowed internally, trimmed for display).  Everything
here is a pure function of immutable inputs, so unrestricted concurrent
use is safe.

This is the lowest module that memoises, so it holds the memo registry
of the whole package: :func:`cached` wraps a function in an unbounded
``lru_cache`` and lists it in ``MEMOS`` under its module's name, and
:func:`clear_caches` empties every table listed there, and
:func:`memo_stats` reports their sizes and hit counts.

Enumeration orders are fixed: compositions are produced in ascending
lexicographic order and partitions in reverse-lexicographic order, so
iterator-based tests are deterministic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

MEMOS = {}


def cached(fn):
    """``fn`` memoised without bound and registered in ``MEMOS``."""
    fn = lru_cache(maxsize=None)(fn)
    MEMOS.setdefault(fn.__module__, []).append(fn)
    return fn


def clear_caches():
    """Reset every memo table of the package, in every module (the
    benchmark does this between its cold rounds)."""
    for fns in MEMOS.values():
        for fn in fns:
            fn.cache_clear()


def memo_stats():
    """What every memo in ``MEMOS`` holds and how often it hit, as
    ``{"module.function": {"entries", "hits", "misses"}}`` (for example
    ``"schur._pattern_det"``); the counts run from the memo's last
    :func:`clear_caches`."""
    stats = {}
    for module, fns in MEMOS.items():
        prefix = module.rpartition(".")[2]
        for fn in fns:
            info = fn.cache_info()
            stats[f"{prefix}.{fn.__name__}"] = {
                "entries": info.currsize, "hits": info.hits,
                "misses": info.misses}
    return stats


# this module's memos; the benchmark tracer's memo_sizes reads the view
_CACHES = MEMOS.setdefault(__name__, [])


def _as_tuple(parts, kind):
    # a tuple or a list only: tuple() would also read bytes as ints and a
    # mapping's keys or a set, in no fixed order, as parts
    if not isinstance(parts, (tuple, list)):
        raise ValueError(f"not a {kind}: {parts!r}")
    return tuple(parts)


def check_partition(parts):
    """``parts`` as a tuple; ValueError unless it is a partition."""
    parts = _as_tuple(parts, "partition")
    prev = parts[0] if parts else 0
    for p in parts:
        if not (type(p) is int and 1 <= p <= prev):
            raise ValueError(f"not a partition: {parts}")
        prev = p
    return parts


def check_degree(n):
    """``n``; ValueError unless it is an int >= 0 (a bool is not)."""
    if type(n) is not int or n < 0:
        raise ValueError(f"not a degree: {n!r}")
    return n


def check_composition(parts):
    """``parts`` as a tuple; ValueError unless every part is an int >= 0
    (a bool is not a part)."""
    parts = _as_tuple(parts, "composition")
    if not all(type(p) is int and p >= 0 for p in parts):
        raise ValueError(f"not a composition: {parts}")
    return parts


def sort_to_partition(parts):
    """Sort a composition's nonzero parts into a partition."""
    return tuple(sorted((p for p in parts if p), reverse=True))


def weight(parts):
    return sum(parts)


def check_weights(lam, mu):
    if weight(lam) != weight(mu):
        raise ValueError(f"weight mismatch: |{lam}| != |{mu}|")


def check_indices(lam, mu):
    """Validate a character index pair and return ``(lam, sorted mu)``.

    ``lam`` must be a partition and ``mu`` a composition of the same
    weight (non-negative int parts, in any order); zero parts of ``mu``
    are dropped.
    """
    lam = check_partition(lam)
    mu = sort_to_partition(check_composition(mu))
    check_weights(lam, mu)
    return lam, mu


def _parse_parts(text, kind):
    if type(text) is not str:
        raise ValueError(f"cannot parse {kind} from {text!r}: not a str")
    text = text.strip()
    if text == "-" or text == "":
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse {kind} from {text!r}") from None


def parse_partition(text):
    """Parse "4,2,1"; "-" denotes the empty partition."""
    return check_partition(_parse_parts(text, "partition"))


def parse_composition(text):
    return check_composition(_parse_parts(text, "composition"))


def format_partition(parts):
    trimmed = tuple(p for p in check_composition(parts) if p)
    return ",".join(str(p) for p in trimmed) if trimmed else "-"


def conjugate(lam):
    """Reflect the diagram along the diagonal."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def sub_compositions(mu, k):
    """All tuples tau with 0 <= tau_i <= mu_i and sum k, ascending lex.

    Out-of-range k gives an empty list.
    """
    n = sum(mu)
    if k < 0 or k > n:
        return []
    l = len(mu)
    suffix = [0] * (l + 1)
    for i in range(l - 1, -1, -1):
        suffix[i] = suffix[i + 1] + mu[i]
    out = []
    prefix = []

    def rec(i, rem):
        if i == l:
            out.append(tuple(prefix))
            return
        lo = max(0, rem - suffix[i + 1])
        hi = min(mu[i], rem)
        for v in range(lo, hi + 1):
            prefix.append(v)
            rec(i + 1, rem - v)
            prefix.pop()

    rec(0, k)
    return out


def partitions_of(n):
    """All partitions of n in reverse-lexicographic order, as a tuple."""
    return _partitions_of(check_degree(n))


@cached
def _partitions_of(n):
    def rec(rem, maxp):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, maxp), 0, -1):
            for rest in rec(rem - first, first):
                yield (first,) + rest

    return tuple(rec(n, n))


def partition_count(n):
    """p(n) for n >= 0 without enumerating, by Euler's recurrence
    p(m) = sum_{k>=1} (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2))."""
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            pair = p[m - g] + (p[m - g - k] if g + k <= m else 0)
            total += pair if k % 2 else -pair
            k += 1
        p.append(total)
    return p[n]


def partition_tuples(nu):
    """Stream all tuples (rho_1, ..., rho_r) with rho_i a partition of nu_i."""
    return itertools.product(*(_partitions_of(k) for k in nu))


def subpartitions_of_weight(lam, w):
    """All partitions mu contained in lam (componentwise) of weight w."""
    l = len(lam)
    if w < 0 or w > sum(lam):
        return
    suffix = [0] * (l + 1)
    for i in range(l - 1, -1, -1):
        suffix[i] = suffix[i + 1] + lam[i]

    def rec(i, rem, prev):
        if rem == 0:
            yield ()
            return
        if i == l or rem > suffix[i]:
            return
        for v in range(min(lam[i], prev, rem), 0, -1):
            for rest in rec(i + 1, rem - v, v):
                yield (v,) + rest

    big = lam[0] if lam else 0
    yield from rec(0, w, big)


def strip_removals(lam, k):
    """Every broken k-strip lam/nu as ``(nu, m, j)``: m is its number of
    connected components and j the sum over them of rows - 1, all that
    the strip weights depend on (the cols - 1 sum to k - m - j), with nu
    in reverse-lexicographic order; lam is a partition and k an int."""
    lam = check_partition(lam)
    if type(k) is not int:
        raise ValueError(f"not a strip size: {k!r}")
    return _strip_tails(lam, k, False)


@cached
def _strip_tails(rows, k, joined):
    """The strips of size k over ``rows``, the lower rows of a partition,
    as in :func:`strip_removals`; ``joined`` says that the row above
    shares a column with the first row, which must then lose a box.

    A row that loses r boxes leaves no 2x2 block with the next row while
    r <= gap + 1, gap the difference of the two rows; at r = gap + 1 the
    two rows share a column and the next row is joined.
    """
    if not rows:
        return (((), 0, 0),) if k == 0 else ()
    head, rest = rows[0], rows[1:]
    gap = head - (rest[0] if rest else 0)
    # a joined row adds one to j, loses at least one box and starts no
    # component; the rows below can lose at most all their boxes
    j, new = (1, 0) if joined else (0, 1)
    out = []
    for r in range(max(j, k - sum(rest)), min(k, gap + 1, head) + 1):
        keep = head - r
        m = new if r else 0
        for nu, tm, tj in _strip_tails(rest, k - r, r > gap):
            out.append(((keep,) + nu if keep else nu, tm + m, tj + j))
    return tuple(out)


# the memo's counters under the public name, where the benchmark tracer
# reads the strip hit ratio
strip_removals.cache_info = _strip_tails.cache_info


def contingency_matrices(row_sums, col_sums):
    """Stream every non-negative integer matrix with the prescribed row
    and column sums, each exactly once.

    Rows are filled depth-first from the remaining column sums; within a
    row the leftmost entry decreases (descending lexicographic order), so
    the order is deterministic.  Many branches of the search reach the
    same (row index, remaining column sums) state, so each state's list
    of (row, new column sums) is built once per call and reused.
    """
    if sum(row_sums) != sum(col_sums):
        raise ValueError(
            f"weight mismatch: |{row_sums}| != |{col_sums}|")
    r = len(row_sums)
    steps = {}

    def rec(i, caps):
        if i == r:
            yield ()
            return
        options = steps.get((i, caps))
        if options is None:
            options = steps[i, caps] = [
                (row, tuple(c - v for c, v in zip(caps, row)))
                for row in reversed(sub_compositions(caps, row_sums[i]))]
        for row, new_caps in options:
            for rest in rec(i + 1, new_caps):
                yield (row,) + rest

    yield from rec(0, tuple(col_sums))
