"""Independent oracles used only by the tests.

These deliberately share no code with the library paths they check:
standard fillings are enumerated forwards, symmetric-group characters
come from alternant coefficient extraction in explicit variables,
straightening is done by literal adjacent exchanges, determinants are
summed over permutations, compositions are listed without pruning, and
the table document is built as plain dicts for ``json.dumps`` to lay out.
``strip_classical_character`` is the one that leans on the library: it
reads rim hooks off the broken-strip enumerator ``strip_removals``, which
the beta-set rule of ``classical_character`` never calls.
``deformed_centralizer`` is no oracle, only the library's centralizer
order and factors assembled into one rational function.
"""

import functools
import itertools

from heckechar.laurent import ONE, ZERO, RationalFn
from heckechar.partitions import strip_removals
from heckechar.schur import centralizer_order, centralizer_poly_factors


def deformed_centralizer(lam):
    """The deformed centralizer order as a rational function of t."""
    return RationalFn(centralizer_order(lam), centralizer_poly_factors(lam))


@functools.lru_cache(maxsize=None)
def strip_classical_character(lam, rho):
    """Symmetric-group character by the border-strip recursion: remove a
    strip of size rho_1 that is one connected piece in every way
    ``strip_removals`` lists, with sign (-1)^(rows - 1)."""
    if not rho:
        return 1
    total = 0
    for mu, comps in strip_removals(lam, rho[0]):
        if len(comps) == 1:
            term = strip_classical_character(mu, rho[1:])
            total += -term if comps[0].rows % 2 == 0 else term
    return total


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


def reference_document(table):
    """The table cache document as the writer's reference builds it.

    Entries run in descending (lambda, mu) tuple order, which is
    reverse-lexicographic in both indices; a missing tag is "unknown".
    ``json.dumps(reference_document(t), indent=2) + "\\n"`` is the
    canonical text.
    """
    entries = []
    for lam, mu in sorted(table.entries, reverse=True):
        terms = table.entries[(lam, mu)].terms
        entries.append({
            "lambda": list(lam),
            "mu": list(mu),
            "algorithm": table.provenance.get((lam, mu), "unknown"),
            "poly": [[e, str(terms[e])] for e in sorted(terms)],
        })
    return {
        "format_version": 1,
        "n": table.n,
        "variable": "q",
        "entries": entries,
    }
