"""Partitions, compositions, skew shapes and border strips.

Partitions are plain tuples of positive integers in weakly decreasing
order with no trailing zeros; compositions are tuples of non-negative
integers (zeros allowed internally, trimmed for display).  Everything
here is a pure function of immutable inputs, so unrestricted concurrent
use is safe.

This is the lowest module that memoises, so it holds the memo registry
of the whole package: :func:`cached` wraps a function in an unbounded
``lru_cache`` and lists it in ``MEMOS`` under its module's name, and
:func:`clear_caches` empties every table listed there.

Enumeration orders are fixed: compositions are produced in ascending
lexicographic order and partitions in reverse-lexicographic order, so
iterator-based tests are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

MEMOS = {}


def cached(fn):
    """``fn`` memoised without bound and registered in ``MEMOS``."""
    fn = lru_cache(maxsize=None)(fn)
    MEMOS.setdefault(fn.__module__, []).append(fn)
    return fn


def clear_caches():
    """Reset every memo table of the package, in every module (the CLI
    bench mode uses this between runs)."""
    for fns in MEMOS.values():
        for fn in fns:
            fn.cache_clear()


# this module's memos; the benchmark tracer's memo_sizes reads the view
_CACHES = MEMOS.setdefault(__name__, [])


def _as_tuple(parts, kind):
    try:
        return tuple(parts)
    except TypeError:  # not iterable: None, an int, ...
        raise ValueError(f"not a {kind}: {parts!r}") from None


def check_partition(parts):
    """``parts`` as a tuple; ValueError unless it is a partition."""
    parts = _as_tuple(parts, "partition")
    prev = parts[0] if parts else 0
    for p in parts:
        if not (type(p) is int and 1 <= p <= prev):
            raise ValueError(f"not a partition: {parts}")
        prev = p
    return parts


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


def nonzero_length(parts):
    """Length of a composition: the number of nonzero parts."""
    return sum(1 for p in parts if p)


def _parse_parts(text, kind):
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
    trimmed = tuple(p for p in parts if p)
    return ",".join(str(p) for p in trimmed) if trimmed else "-"


def conjugate(lam):
    """Reflect the diagram along the diagonal."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def inner_corner_removals(lam):
    """All partitions obtained by deleting one removable box of ``lam``.

    One result per distinct part value; empty input gives an empty list.
    """
    out = []
    for i in range(len(lam)):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if lam[i] > below:
            if lam[i] == 1:
                out.append(lam[:i])
            else:
                out.append(lam[:i] + (lam[i] - 1,) + lam[i + 1:])
    return out


@cached
def standard_tableaux_count(lam):
    """Number of standard fillings, by the branching recursion."""
    if not lam:
        return 1
    return sum(standard_tableaux_count(mu) for mu in inner_corner_removals(lam))


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


def compositions_of(total, slots):
    """All tuples of ``slots`` non-negative integers with the given sum,
    in ascending lexicographic order."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions_of(total - first, slots - 1):
            yield (first,) + rest


@cached
def partitions_of(n):
    """All partitions of n in reverse-lexicographic order, as a tuple."""
    if n < 0:
        return ()

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
    return itertools.product(*(partitions_of(k) for k in nu))


@dataclass(frozen=True, slots=True)
class StripComponent:
    """Row/column/box counts of one connected piece of a skew shape."""
    rows: int
    cols: int
    size: int


@dataclass(frozen=True)
class SkewShape:
    outer: tuple
    inner: tuple

    def __post_init__(self):
        if len(self.inner) > len(self.outer):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")
        for i, p in enumerate(self.inner):
            if p > self.outer[i]:
                raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")


def _analyze(outer, inner):
    # one pass over the rows; each piece is [rows, left, right, size]
    flag = True
    pieces = []
    prev_lo = prev_hi = 0
    for i, hi in enumerate(outer):
        lo = inner[i] if i < len(inner) else 0
        if lo >= hi:
            # an empty row joins nothing
            prev_lo = prev_hi = 0
            continue
        overlap = min(hi, prev_hi) - max(lo, prev_lo)
        if overlap > 0:
            if overlap > 1:
                flag = False
            piece = pieces[-1]
            piece[0] += 1
            piece[1] = min(piece[1], lo)
            piece[2] = max(piece[2], hi)
            piece[3] += hi - lo
        else:
            pieces.append([1, lo, hi, hi - lo])
        prev_lo, prev_hi = lo, hi
    return flag, tuple(StripComponent(rows=r, cols=right - left, size=size)
                       for r, left, right, size in pieces)


def analyze_skew(shape):
    """Decompose a skew shape into connected components, top to bottom.

    Row i of the shape is the column interval [inner_i, outer_i).  Two
    consecutive non-empty rows lie in one component exactly when their
    intervals overlap, and an overlap of two or more columns is a 2x2
    block; a component's column count is the width of the union of its
    intervals.

    Returns ``(is_broken_border_strip, components)`` where the flag is
    true iff no component contains a 2x2 block.  The empty skew is a
    broken border strip with zero components.
    """
    return _analyze(shape.outer, shape.inner)


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


@cached
def strip_removals(lam, k):
    """All (mu, components) with mu inside lam, |lam/mu| = k and lam/mu a
    k-broken border strip."""
    n = sum(lam)
    if k < 0 or k > n:
        return ()
    out = []
    for mu in subpartitions_of_weight(lam, n - k):
        flag, comps = _analyze(lam, mu)
        if flag:
            out.append((mu, comps))
    return tuple(out)


def contingency_matrices(row_sums, col_sums):
    """Stream every non-negative integer matrix with the prescribed row
    and column sums, each exactly once.

    Rows are filled depth-first from the remaining column sums; within a
    row the leftmost entry decreases (descending lexicographic order), so
    the order is deterministic.
    """
    if sum(row_sums) != sum(col_sums):
        raise ValueError(
            f"weight mismatch: |{row_sums}| != |{col_sums}|")
    r = len(row_sums)

    def rec(i, caps):
        if i == r:
            yield ()
            return
        for row in reversed(sub_compositions(caps, row_sums[i])):
            new_caps = tuple(c - v for c, v in zip(caps, row))
            for rest in rec(i + 1, new_caps):
                yield (row,) + rest

    yield from rec(0, tuple(col_sums))
