"""Partitions, compositions, skew shapes and border strips.

Partitions are plain tuples of positive integers in weakly decreasing
order with no trailing zeros; compositions are tuples of non-negative
integers (zeros allowed internally, trimmed for display).  Everything
here is a pure function of immutable inputs, so unrestricted concurrent
use is safe; the memo tables are ordinary dicts guarded by the caching
decorator.

Enumeration orders are fixed: compositions are produced in ascending
lexicographic order and partitions in reverse-lexicographic order, so
iterator-based tests are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

Partition = tuple
Composition = tuple

_CACHES = []


def _cached(fn):
    fn = lru_cache(maxsize=None)(fn)
    _CACHES.append(fn)
    return fn


def clear_enumeration_caches():
    for fn in _CACHES:
        fn.cache_clear()


def is_partition(parts):
    return all(isinstance(p, int) and p >= 1 for p in parts) and \
        all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts):
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def sort_to_partition(parts):
    """Sort a composition's nonzero parts into a partition."""
    return tuple(sorted((p for p in parts if p), reverse=True))


def weight(parts):
    return sum(parts)


def check_weights(lam, mu):
    if weight(lam) != weight(mu):
        raise ValueError(f"weight mismatch: |{lam}| != |{mu}|")


def nonzero_length(parts):
    """Length of a composition: the number of nonzero parts."""
    return sum(1 for p in parts if p)


def parse_partition(text):
    """Parse "4,2,1"; "-" denotes the empty partition."""
    text = text.strip()
    if text == "-" or text == "":
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return check_partition(parts)


def parse_composition(text):
    text = text.strip()
    if text == "-" or text == "":
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse composition from {text!r}") from None
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in composition {parts}")
    return parts


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


@_cached
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


@_cached
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


def partition_tuples(nu):
    """Stream all tuples (rho_1, ..., rho_r) with rho_i a partition of nu_i."""
    return itertools.product(*(partitions_of(k) for k in nu))


@dataclass(frozen=True)
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

    def boxes(self):
        return _skew_boxes(self.outer, self.inner)

    def size(self):
        return sum(self.outer) - sum(self.inner)


def _skew_boxes(outer, inner):
    boxes = []
    for i, op in enumerate(outer):
        ip = inner[i] if i < len(inner) else 0
        for j in range(ip, op):
            boxes.append((i, j))
    return boxes


def _components(boxes):
    # connectivity through edge-adjacent boxes only; diagonal contact
    # does NOT connect
    remaining = set(boxes)
    comps = []
    while remaining:
        seed = min(remaining)
        stack = [seed]
        remaining.discard(seed)
        comp = [seed]
        while stack:
            i, j = stack.pop()
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in remaining:
                    remaining.discard(nb)
                    stack.append(nb)
                    comp.append(nb)
        comps.append(comp)
    comps.sort(key=lambda c: (min(b[0] for b in c), min(b[1] for b in c)))
    return comps


def _is_strip(comp):
    cells = set(comp)
    for i, j in comp:
        if (i + 1, j) in cells and (i, j + 1) in cells and (i + 1, j + 1) in cells:
            return False
    return True


def _analyze(outer, inner):
    boxes = _skew_boxes(outer, inner)
    comps = _components(boxes)
    flag = True
    infos = []
    for comp in comps:
        if not _is_strip(comp):
            flag = False
        rows = len({b[0] for b in comp})
        cols = len({b[1] for b in comp})
        infos.append(StripComponent(rows=rows, cols=cols, size=len(comp)))
    return flag, tuple(infos)


def analyze_skew(shape):
    """Decompose a skew shape into connected components, top to bottom.

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


@_cached
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

    Rows are filled depth-first with remaining-column-sum pruning; within
    a row the leftmost entry decreases, so the order is deterministic.
    """
    if sum(row_sums) != sum(col_sums):
        raise ValueError(
            f"weight mismatch: |{row_sums}| != |{col_sums}|")
    r, s = len(row_sums), len(col_sums)

    def fill_row(target, caps, j):
        if j == s - 1:
            if target <= caps[-1]:
                yield (target,)
            return
        tail_cap = sum(caps[j + 1:])
        for v in range(min(target, caps[j]), -1, -1):
            if target - v > tail_cap:
                continue
            for rest in fill_row(target - v, caps, j + 1):
                yield (v,) + rest

    def rec(i, caps):
        if i == r:
            yield ()
            return
        for row in (fill_row(row_sums[i], caps, 0) if s else iter(((),))):
            if s == 0 and row_sums[i]:
                return
            new_caps = tuple(caps[j] - row[j] for j in range(s))
            for rest in rec(i + 1, new_caps):
                yield (row,) + rest

    if r == 0:
        if all(c == 0 for c in col_sums):
            yield ()
        return
    yield from rec(0, tuple(col_sums))
