"""Independent oracles used only by the tests.

These deliberately share no code with the library paths they check:
standard fillings are enumerated forwards, symmetric-group characters
come from alternant coefficient extraction in explicit variables,
straightening is done by literal adjacent exchanges, determinants are
summed over permutations (``peel_matrix`` writes out the whole matrix
that the ``det`` route splits into blocks), compositions are listed
without pruning, broken strips are found by filtering every subpartition
through a skew analysis of its rows, and the table document is built as
plain dicts for ``json.dumps`` to lay out.  ``strip_classical_character``
is the one that leans on the library: it reads rim hooks off the
broken-strip enumerator ``strip_removals``, which the beta-set rule of
``classical_character`` never calls.
``matrix_product_sum`` walks the library's ``contingency_matrices``
too, but multiplies every matrix's entry weights out on its own, from
their definition.
``first_row_groups`` groups the library's ``sub_compositions`` one tau
at a time, as the reductions did before their suffix recursion.
``deformed_centralizer`` is no oracle, only the library's centralizer
order and factors assembled into one rational function.
"""

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from heckechar.laurent import ONE, T, ZERO, LaurentPoly, RationalFn
from heckechar.partitions import (
    contingency_matrices, sort_to_partition, strip_removals,
    sub_compositions, subpartitions_of_weight,
)
from heckechar.schur import centralizer_order, centralizer_poly_factors


def deformed_centralizer(lam):
    """The deformed centralizer order as a rational function of t."""
    return RationalFn(centralizer_order(lam), centralizer_poly_factors(lam))


def factorwise_centralizer_factors(rho):
    """prod (1 - t^part) over the parts of rho, one factor at a time."""
    out = ONE
    for p in rho:
        out = out * LaurentPoly({0: 1, p: -1})
    return out


@functools.lru_cache(maxsize=None)
def _defined_entry_weight(e):
    return (T - ONE) ** 2 * LaurentPoly({2 * j: 1 for j in range(e)})


def matrix_product_sum(row_sums, col_sums):
    """The Gram pairing one matrix at a time: the sum over contingency
    matrices of the product over their nonzero entries e of the weight
    (t - 1)^2 (1 + t^2 + ... + t^(2e - 2))."""
    total = ZERO
    for matrix in contingency_matrices(row_sums, col_sums):
        term = ONE
        for row in matrix:
            for e in row:
                if e:
                    term = term * _defined_entry_weight(e)
        total = total + term
    return total


@functools.lru_cache(maxsize=None)
def strip_classical_character(lam, rho):
    """Symmetric-group character by the border-strip recursion: remove a
    strip of size rho_1 that is one connected piece in every way
    ``strip_removals`` lists, with sign (-1)^(rows - 1)."""
    if not rho:
        return 1
    total = 0
    for mu, m, j in strip_removals(lam, rho[0]):
        if m == 1:
            term = strip_classical_character(mu, rho[1:])
            total += -term if j % 2 else term
    return total


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


@functools.lru_cache(maxsize=None)
def standard_tableaux_count(lam):
    """Number of standard fillings, by the branching recursion."""
    if not lam:
        return 1
    return sum(standard_tableaux_count(mu) for mu in inner_corner_removals(lam))


def brute_standard_count(shape):
    """Count standard fillings by placing 1..n into addable boxes."""
    shape = tuple(shape)
    n = sum(shape)
    rows = len(shape)

    def rec(current, placed):
        if placed == n:
            return 1
        total = 0
        for i in range(rows):
            if current[i] < shape[i] and (i == 0 or current[i - 1] > current[i]):
                total += rec(current[:i] + (current[i] + 1,) + current[i + 1:],
                             placed + 1)
        return total

    return rec((0,) * rows, 0)


def _perm_sign(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def leibniz_det(rows):
    """Determinant as the signed sum over permutations of the products
    of one entry per row."""
    n = len(rows)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        term = ONE * _perm_sign(perm)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def peel_matrix(lam, mu):
    """The whole peel matrix of lam/mu with its rows scaled by 1 - t: in
    row i and column j, 0 where lam_i - i < mu_j - j, 1 where they are
    equal and 1 - t where it is greater; mu is padded with zeros to the
    length of lam."""
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    omt = ONE - T
    return [[ZERO if lam[i] - i < mu[j] - j
             else ONE if lam[i] - i == mu[j] - j else omt
             for j in range(len(lam))] for i in range(len(lam))]


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


def nonzero_length(parts):
    """Length of a composition: the number of nonzero parts."""
    return sum(1 for p in parts if p)


def first_row_groups(mu, i):
    """The tau in sub_compositions(mu, i), counted by (mu - tau sorted
    to a partition, nz(tau))."""
    return Counter(
        (sort_to_partition([m - x for m, x in zip(mu, tau)]),
         nonzero_length(tau)) for tau in sub_compositions(mu, i))


def frobenius_character(lam, rho):
    """Symmetric-group character via alternant coefficient extraction.

    Multiplies the Vandermonde alternant by the power sums in
    max(len(lam),1) explicit variables and reads the coefficient of the
    staircase-shifted target monomial.
    """
    lam = tuple(lam)
    rho = tuple(rho)
    m = max(len(lam), 1)
    delta = tuple(range(m - 1, -1, -1))
    target = tuple((lam[i] if i < len(lam) else 0) + delta[i] for i in range(m))
    cap = max(target) if target else 0

    poly = {}
    for perm in itertools.permutations(range(m)):
        expo = tuple(delta[p] for p in perm)
        poly[expo] = poly.get(expo, 0) + _perm_sign(perm)

    for r in rho:
        nxt = {}
        for expo, coeff in poly.items():
            for i in range(m):
                e = expo[i] + r
                if e > cap:
                    continue
                key = expo[:i] + (e,) + expo[i + 1:]
                s = nxt.get(key, 0) + coeff
                if s:
                    nxt[key] = s
                else:
                    del nxt[key]
        poly = nxt
    return poly.get(target, 0)


def exchange_straighten(word):
    """Straighten a Bernstein word by literal adjacent exchanges.

    Repeatedly rewrites an ascending adjacent pair (m, n) into
    (n-1, m+1) with a sign flip; (m, m+1) annihilates the word.  A
    negative tail after sorting kills the word too.
    """
    word = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] < word[i + 1]:
                if word[i + 1] == word[i] + 1:
                    return None
                word[i], word[i + 1] = word[i + 1] - 1, word[i] + 1
                sign = -sign
                changed = True
                break
    while word and word[-1] == 0:
        word.pop()
    if word and word[-1] < 0:
        return None
    return sign, tuple(word)


def box_skew_analysis(outer, inner):
    """Skew-shape analysis on an explicit set of boxes.

    Lists the boxes (i, j) with inner_i <= j < outer_i, flood-fills them
    into edge-connected components (diagonal contact does not connect),
    orders the components top to bottom and scans each one for a 2x2
    block.  Returns ``(no_2x2_block, ((rows, cols, size), ...))``.
    """
    boxes = set()
    for i, op in enumerate(outer):
        ip = inner[i] if i < len(inner) else 0
        boxes.update((i, j) for j in range(ip, op))
    comps = []
    remaining = set(boxes)
    while remaining:
        seed = min(remaining)
        remaining.discard(seed)
        stack, comp = [seed], [seed]
        while stack:
            i, j = stack.pop()
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in remaining:
                    remaining.discard(nb)
                    stack.append(nb)
                    comp.append(nb)
        comps.append(comp)
    comps.sort(key=lambda c: (min(b[0] for b in c), min(b[1] for b in c)))
    flag = not any((i + 1, j) in boxes and (i, j + 1) in boxes
                   and (i + 1, j + 1) in boxes for i, j in boxes)
    return flag, tuple((len({b[0] for b in c}), len({b[1] for b in c}), len(c))
                       for c in comps)


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
    outer, inner = shape.outer, shape.inner
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


def filtered_strips(lam, k):
    """Every broken k-strip lam/nu as ``(nu, components)``: each
    subpartition of weight |lam| - k, in the enumerator's
    reverse-lexicographic order, kept when ``analyze_skew`` finds no 2x2
    block."""
    out = []
    for nu in subpartitions_of_weight(lam, sum(lam) - k):
        flag, comps = analyze_skew(SkewShape(lam, nu))
        if flag:
            out.append((nu, comps))
    return tuple(out)


def strip_triple(nu, comps):
    """``(nu, m, j)`` as ``strip_removals`` reports a strip: m components,
    j the sum of their rows - 1."""
    return nu, len(comps), sum(c.rows - 1 for c in comps)


def reference_document(table):
    """The table cache document as the writer's reference builds it.

    Entries run in descending (lambda, mu) tuple order, which is
    reverse-lexicographic in both indices, each with the table's tag.
    ``json.dumps(reference_document(t), indent=2) + "\\n"`` is the
    canonical text.
    """
    entries = []
    for lam, mu in sorted(table.entries, reverse=True):
        terms = table.entries[(lam, mu)].terms
        entries.append({
            "lambda": list(lam),
            "mu": list(mu),
            "algorithm": table.algorithm,
            "poly": [[e, str(terms[e])] for e in sorted(terms)],
        })
    return {
        "format_version": 1,
        "n": table.n,
        "variable": "q",
        "entries": entries,
    }
