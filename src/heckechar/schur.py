"""The peeling engine.

A Schur vector is a plain dict mapping partitions of one common weight to
their nonzero LaurentPoly coefficients.  Removing one part of the lower
indexing partition at a time ("peeling") expands the dual one-row operator
on such vectors.  One loop (``_peel(k, vec, terms)``) does the expansion;
three interchangeable strategies, the term generators of ``_PEELERS``,
differ only in the (partition, weight) terms one partition expands into:

* ``iterative`` -- sum over the compositions into the available slots
  that survive straightening, generated slot by slot, with
  ``straighten`` giving each one's sign and partition;
* ``det``       -- determinant expansion over all contained
  subpartitions of the right coweight, each determinant the product of
  the Bareiss determinants of the peel matrix's diagonal blocks; a block
  starts at each row s with lam_s <= mu_{s-1}, and Bareiss runs once per
  distinct block pattern (``_pattern_det``);
* ``strips``    -- combinatorial expansion over broken border strips.

All three produce identical vectors; the pairing polynomial read off the
empty partition after a full peel is checked against an independent
power-sum oracle built from classical symmetric-group characters.  Those
come from the Murnaghan-Nakayama rule on beta-sets held as the set bits
of one int (a rim hook is a bead move), not from strip enumeration, so
the oracle shares only ``partitions_of``, ``partition_tuples`` and
``sort_to_partition`` with the peeling code and the strip routes.

Everything works in a generic variable t with exact coefficients, as
exponent -> int dicts; nothing here is packed.  The peel loop and the
oracle add their products in place into one term dict per output and
build one LaurentPoly from it at the end.  The memos hold what the
expansions share (the powers of 1 - t, written out from binomial
coefficients, the scaled determinants and their diagonal blocks,
classical characters, centralizer factors and Newton coefficients), not
the pairings themselves.  Every route of the package reads its powers
of 1 - t, or of t - 1 as (-1)^j (1 - t)^j, from the one table here.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, prod

from .laurent import (
    ZERO, ONE, T, LaurentPoly, RationalFn, _fold_product, monomial,
)
from .partitions import (
    MEMOS, cached, check_degree, check_indices, partition_tuples,
    sort_to_partition, strip_removals, subpartitions_of_weight, weight,
)

ONE_MINUS_T = ONE - T

# this module's memos; the benchmark tracer's memo_sizes reads the view
_CACHES = MEMOS.setdefault(__name__, [])


@cached
def _omt_pow(j):
    # (1 - t)^j = sum_k (-1)^k C(j, k) t^k, written out
    return LaurentPoly._raw({k: -comb(j, k) if k % 2 else comb(j, k)
                             for k in range(j + 1)})


def straighten(mu):
    """Straighten a product of Bernstein operators with integer indices.

    Adds the staircase (l-1, ..., 1, 0) to ``mu``; if the result has a
    repeated or negative entry the product vanishes and None is returned.
    Otherwise returns ``(sign, partition)`` where sign is the parity of
    the sorting permutation and the partition is the sorted sequence with
    the staircase subtracted and trailing zeros trimmed.
    """
    l = len(mu)
    w = [mu[i] + l - 1 - i for i in range(l)]
    seen = set()
    for x in w:
        if x < 0 or x in seen:
            return None
        seen.add(x)
    inversions = 0
    for i in range(l):
        wi = w[i]
        for j in range(i + 1, l):
            if wi < w[j]:
                inversions += 1
    ws = sorted(w, reverse=True)
    lam = [ws[i] - (l - 1 - i) for i in range(l)]
    while lam and lam[-1] == 0:
        lam.pop()
    return (-1 if inversions % 2 else 1), tuple(lam)


def _peel(k, vec, terms):
    # the one vector loop: each partition of weight >= k expands into the
    # (mu, weight) pairs of ``terms``, whose products are summed in place
    # into one term map per mu; zero sums are dropped at the end
    if k == 0:
        return vec
    out = {}
    for lam, coeff in vec.items():
        if k > weight(lam):
            continue
        for mu, w in terms(lam, k):
            acc = out.get(mu)
            if acc is None:
                out[mu] = acc = {}
            _fold_product(acc, coeff.terms, w.terms)
    out = {mu: LaurentPoly._sum(acc) for mu, acc in out.items()}
    return {mu: c for mu, c in out.items() if c.terms}


def _surviving_drops(lam, k):
    """The drops tau (k into len(lam) slots) that survive straightening.

    Exactly the compositions tau of k for which ``straighten(lam - tau)``
    is not None, in the same ascending lexicographic order: slot i drops
    by tau_i only while w_i = lam_i + len(lam) - 1 - i - tau_i stays
    non-negative and differs from every earlier slot's w, and the last
    slot takes what remains.  The later slots' w are distinct and
    non-negative, so together they drop at most the weight of their parts
    of lam; slot i drops at least the rest.
    """
    l = len(lam)
    tops = [lam[i] + l - 1 - i for i in range(l)]
    suffix = [0] * (l + 1)
    for i in range(l - 1, -1, -1):
        suffix[i] = suffix[i + 1] + lam[i]
    out = []
    prefix = []
    taken = set()

    def rec(i, rem):
        if i == l:
            if rem == 0:
                out.append(tuple(prefix))
            return
        top = tops[i]
        for drop in range(max(0, rem - suffix[i + 1]), min(rem, top) + 1):
            w = top - drop
            if w not in taken:
                taken.add(w)
                prefix.append(drop)
                rec(i + 1, rem - drop)
                prefix.pop()
                taken.discard(w)

    rec(0, k)
    return out


def _iterative_terms(lam, k):
    """Expand by summing over the ways to lower the parts by a total of k
    that survive straightening (``_surviving_drops``).  ``straighten``
    gives each survivor's sign and partition; a slot that drops at all
    contributes one factor (1 - t)."""
    l = len(lam)
    for tau in _surviving_drops(lam, k):
        sign, mu = straighten(tuple(lam[i] - tau[i] for i in range(l)))
        w = _omt_pow(sum(1 for x in tau if x))
        yield mu, (-w if sign < 0 else w)


def _bareiss(rows):
    # fraction-free elimination of a square block, in place
    n = len(rows)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if rows[k][k].is_zero():
            for i in range(k + 1, n):
                if not rows[i][k].is_zero():
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return ZERO
        pivot = rows[k][k]
        divide = not prev.is_one()
        for i in range(k + 1, n):
            rik = rows[i][k]
            row_i = rows[i]
            row_k = rows[k]
            for j in range(k + 1, n):
                v = pivot * row_i[j] - rik * row_k[j]
                row_i[j] = v.divexact(prev) if divide else v
            row_i[k] = ZERO
        prev = pivot
    d = rows[n - 1][n - 1] if n else ONE
    return -d if sign < 0 else d


_ENTRIES = (ZERO, ONE, ONE_MINUS_T)


@cached
def _pattern_det(pattern):
    """Bareiss determinant of one diagonal block of the peel matrix, given
    by its entry codes: 0 where lam_i - i < mu_j - j, 1 where they are
    equal, 2 where it is greater (entries 0, 1 and 1 - t)."""
    return _bareiss([[_ENTRIES[c] for c in row] for row in pattern])


@cached
def _scaled_det(lam, mu):
    """(1-t)^{l(lam)} * det M(lam/mu; t): an honest polynomial.

    Row i of the peel matrix compares lam_i - i with mu_j - j in column j;
    both decrease, so when lam_s <= mu_{s-1} every row from s on is zero
    left of column s.  The matrix is block upper triangular there, and a
    new diagonal block starts at each such s.
    """
    l = len(lam)
    mu = mu + (0,) * (l - len(mu))
    rows = [lam[i] - i for i in range(l)]
    cols = [mu[j] - j for j in range(l)]
    det = ONE
    start = 0
    for end in range(1, l + 1):
        if end < l and lam[end] > mu[end - 1]:
            continue
        block = _pattern_det(tuple(
            tuple((d >= e) + (d > e) for e in cols[start:end])
            for d in rows[start:end]))
        if block.is_zero():
            return ZERO
        if not block.is_one():
            det = det * block
        start = end
    return det


def _det_terms(lam, k):
    """Expand through determinants of the peel matrix.

    The (1-t)^l prefactor cancels the cleared row denominators exactly,
    so every coefficient stays an honest polynomial.
    """
    for mu in subpartitions_of_weight(lam, weight(lam) - k):
        d = _scaled_det(lam, mu)
        if not d.is_zero():
            yield mu, d


def _strip_terms(lam, k):
    """Expand over broken border strips: each removal of a k-broken border
    strip with components xi_1..xi_m contributes
    (1-t)^m * prod (-t)^(rows(xi_i) - 1)."""
    for mu, m, j in strip_removals(lam, k):
        w = _omt_pow(m).shift(j)
        yield mu, (-w if j % 2 else w)


_PEELERS = {
    "iterative": _iterative_terms,
    "det": _det_terms,
    "strips": _strip_terms,
}


def pairing_polynomial(lam, mu, strategy="strips"):
    """Pairing of the deformed one-row product against a Schur function.

    Peels the parts of ``mu`` (largest first) off the unit vector at
    ``lam`` with the ``iterative``, ``det`` or ``strips`` expansion and
    reads the coefficient of the empty partition; ``oracle`` takes the
    power-sum route instead.  The result is always a polynomial in t
    with integer coefficients.  It is not memoised, as each caller reads
    it once; the weights and classical characters it sums are.
    """
    lam, mu = check_indices(lam, mu)
    if strategy == "oracle":
        return _oracle(lam, mu)
    if type(strategy) is not str or strategy not in _PEELERS:
        raise ValueError(f"unknown strategy {strategy!r}")
    terms = _PEELERS[strategy]
    vec = {lam: ONE}
    for k in mu:
        vec = _peel(k, vec, terms)
        if not vec:
            return ZERO
    return vec.get((), ZERO)


@cached
def centralizer_order(lam):
    """Product of part^multiplicity * multiplicity! over distinct parts."""
    return prod(p ** m * factorial(m) for p, m in Counter(lam).items())


@cached
def centralizer_poly_factors(lam):
    """Product of (1 - t^part) over the parts; the polynomial part of the
    reciprocal deformed centralizer order.  A part p of multiplicity m
    contributes (1 - t^p)^m = sum_k (-1)^k C(m, k) t^(pk), written out
    directly, so there is one product per distinct part."""
    out = ONE
    for p, m in Counter(lam).items():
        out = out * LaurentPoly._raw({
            p * k: -comb(m, k) if k % 2 else comb(m, k)
            for k in range(m + 1)})
    return out


def _classical_mn(lam, rho):
    # the beta-set of lam, beta_i = lam_i + l - 1 - i, as the set bits of
    # one int: the rim-hook rule of _bead_chi runs on bit moves
    l = len(lam)
    beads = 0
    for i, p in enumerate(lam):
        beads |= 1 << (p + l - 1 - i)
    return _bead_chi(beads, rho)


@cached
def _bead_chi(beads, rho):
    # a rim hook of size k = rho_1 moves one bead x down to a free x - k;
    # the beads strictly between are the rows it crosses, and the parity
    # of their number (the leg length) gives the sign.  A bead at 0 is an
    # empty row: the run of beads from 0 up is dropped, so one partition
    # has one set of beads
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    between = (1 << (k - 1)) - 1
    total = 0
    free = (beads >> k) & ~beads
    while free:
        low = free & -free
        free ^= low
        c = low.bit_length() - 1
        mu = beads ^ low ^ (low << k)
        if mu & 1:
            mu >>= (mu ^ (mu + 1)).bit_length() - 1
        term = _bead_chi(mu, rest)
        total += -term if ((beads >> (c + 1)) & between).bit_count() % 2 \
            else term
    return total


def classical_character(lam, rho):
    """Symmetric-group irreducible character value, by the Murnaghan-Nakayama
    rule on beta-sets (rim hooks as bead moves, sign by leg length)."""
    lam, rho = check_indices(lam, rho)
    return _classical_mn(lam, rho)


def _power_sum_terms(nu):
    """For each tuple (rho_1, ..., rho_r) with rho_j a partition of nu_j,
    the merged partition rho and the product of the z_{rho_j}: the terms
    of prod_j h_{nu_j} = prod_j sum_{rho_j} p_{rho_j} / z_{rho_j}."""
    for tup in partition_tuples(nu):
        yield (sort_to_partition([p for block in tup for p in block]),
               prod(map(centralizer_order, tup)))


def _oracle(lam, mu):
    """Independent route to the pairing polynomial.

    Expands each one-row factor into the power-sum basis (one partition
    per factor, weighted by the reciprocal deformed centralizer order),
    pairs with the Schur function via classical characters, sums the
    integer numerators over the denominator prod_j mu_j! and ends with
    one exact division; the classical characters come from
    ``_classical_mn`` (see the module docstring).
    """
    # z_{rho_j} divides mu_j!, because mu_j! / z_{rho_j} is the size of
    # the conjugacy class of S_{mu_j} of cycle type rho_j; so every term
    # is integral over D = prod_j mu_j!
    den = prod(map(factorial, mu))
    acc = {}
    for rho, z in _power_sum_terms(mu):
        chi = _classical_mn(lam, rho)
        if chi:
            _fold_product(acc, centralizer_poly_factors(rho).terms,
                          {0: chi * (den // z)})
    return LaurentPoly._sum(acc).divexact(den)


def newton_coeffs(m):
    """Transition coefficients from the degree-m dual elementary vector to
    the one-row product basis, by the generalized Newton recursion.

    Returns a dict mapping each partition of m to a RationalFn in t.
    Treat the result as read-only (it is cached).  ValueError unless m
    is a non-negative int.
    """
    return _newton_coeffs(check_degree(m))


@cached
def _newton_coeffs(m):
    if m == 0:
        return {(): RationalFn(ONE)}
    acc = {}
    for k in range(1, m + 1):
        for rho, c in _newton_coeffs(m - k).items():
            key = tuple(sorted(rho + (k,), reverse=True))
            cur = acc.get(key)
            acc[key] = c if cur is None else cur + c
    scale = RationalFn(ONE, monomial(1, m) - ONE)
    return {rho: c * scale for rho, c in acc.items()}
