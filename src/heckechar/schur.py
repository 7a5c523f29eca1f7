"""The peeling engine.

A Schur vector is a plain dict mapping partitions of one common weight to
their nonzero LaurentPoly coefficients.  Removing one part of the lower
indexing partition at a time ("peeling") expands the dual one-row operator
on such vectors.  One loop (``_peel``) does the expansion; three
interchangeable strategies differ only in the (partition, weight) terms one
partition expands into:

* ``peel_iterative`` -- sum over compositions into the available slots,
  straightening each shifted index sequence;
* ``peel_det``       -- determinant expansion over all contained
  subpartitions of the right coweight;
* ``peel_strips``    -- combinatorial expansion over broken border strips.

All three produce identical vectors; the pairing polynomial read off the
empty partition after a full peel is checked against an independent
power-sum oracle built from classical symmetric-group characters.

Everything works in a generic variable t with exact coefficients.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod

from .laurent import ZERO, ONE, T, RationalFn, monomial
from .partitions import (
    MEMOS, cached, check_indices, compositions_of, partition_tuples,
    sort_to_partition, strip_removals, subpartitions_of_weight, weight,
)

ONE_MINUS_T = ONE - T

# this module's memos; the benchmark tracer's memo_sizes reads the view
_CACHES = MEMOS.setdefault(__name__, [])


@cached
def _omt_pow(j):
    return ONE_MINUS_T ** j


@cached
def _neg_t_pow(j):
    # (-t)^j
    return monomial(-1 if j % 2 else 1, j)


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
    # (mu, weight) pairs of ``terms``; zero sums are dropped
    if k == 0:
        return vec
    out = {}
    for lam, coeff in vec.items():
        if k > weight(lam):
            continue
        for mu, w in terms(lam, k):
            term = coeff * w
            cur = out.get(mu)
            out[mu] = term if cur is None else cur + term
    return {mu: c for mu, c in out.items() if not c.is_zero()}


def _iterative_terms(lam, k):
    l = len(lam)
    for tau in compositions_of(k, l):
        st = straighten(tuple(lam[i] - tau[i] for i in range(l)))
        if st is None:
            continue
        sign, mu = st
        w = _omt_pow(sum(1 for x in tau if x))
        yield mu, (-w if sign < 0 else w)


def peel_iterative(k, vec):
    """Expand by summing over all ways to lower the parts by a total of k.

    Each slot may drop by any amount (possibly overshooting into negative
    indices, which the straightening kills); a slot that drops at all
    contributes one factor (1 - t).
    """
    return _peel(k, vec, _iterative_terms)


def _strip_matrix(lam, mu_padded):
    # entries of the peel matrix with denominators cleared row by row:
    # greater -> (1-t), equal -> 1, less -> 0
    l = len(lam)
    rows = []
    for i in range(l):
        di = lam[i] - i
        row = []
        for j in range(l):
            ej = mu_padded[j] - j
            if di < ej:
                row.append(ZERO)
            elif di == ej:
                row.append(ONE)
            else:
                row.append(ONE_MINUS_T)
        rows.append(row)
    return rows


def _bareiss_det(rows):
    """Bareiss determinant over integer Laurent polynomials."""
    n = len(rows)
    if n == 0:
        return ONE
    for j in range(n):
        if all(rows[i][j].is_zero() for i in range(n)):
            return ZERO
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
        for i in range(k + 1, n):
            rik = rows[i][k]
            row_i = rows[i]
            row_k = rows[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - rik * row_k[j]).divexact(prev)
            row_i[k] = ZERO
        prev = pivot
    d = rows[n - 1][n - 1]
    return -d if sign < 0 else d


@cached
def _scaled_det(lam, mu):
    # (1-t)^{l(lam)} * det M(lam/mu; t): an honest polynomial
    mu_padded = mu + (0,) * (len(lam) - len(mu))
    return _bareiss_det(_strip_matrix(lam, mu_padded))


def _det_terms(lam, k):
    for mu in subpartitions_of_weight(lam, weight(lam) - k):
        d = _scaled_det(lam, mu)
        if not d.is_zero():
            yield mu, d


def peel_det(k, vec):
    """Expand through determinants of the peel matrix.

    The (1-t)^l prefactor cancels the cleared row denominators exactly,
    so every coefficient stays an honest polynomial.
    """
    return _peel(k, vec, _det_terms)


def _strip_terms(lam, k):
    for mu, comps in strip_removals(lam, k):
        rsum = sum(c.rows - 1 for c in comps)
        yield mu, _omt_pow(len(comps)) * _neg_t_pow(rsum)


def peel_strips(k, vec):
    """Expand over broken border strips: each removal of a k-broken border
    strip with components xi_1..xi_m contributes
    (1-t)^m * prod (-t)^(rows(xi_i) - 1)."""
    return _peel(k, vec, _strip_terms)


_PEELERS = {
    "iterative": peel_iterative,
    "det": peel_det,
    "strips": peel_strips,
}


@cached
def _pairing_cached(lam, mu, strategy):
    peel = _PEELERS[strategy]
    vec = {lam: ONE}
    for k in mu:
        vec = peel(k, vec)
        if not vec:
            return ZERO
    return vec.get((), ZERO)


def pairing_polynomial(lam, mu, strategy="strips"):
    """Pairing of the deformed one-row product against a Schur function.

    Peels the parts of ``mu`` (largest first) off the unit vector at
    ``lam`` with the ``iterative``, ``det`` or ``strips`` expansion and
    reads the coefficient of the empty partition; ``oracle`` takes the
    power-sum route instead.  The result is always a polynomial in t
    with integer coefficients.
    """
    lam, mu = check_indices(lam, mu)
    if strategy == "oracle":
        return _oracle_cached(lam, mu)
    if type(strategy) is not str or strategy not in _PEELERS:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _pairing_cached(lam, mu, strategy)


@cached
def centralizer_order(lam):
    """Product of part^multiplicity * multiplicity! over distinct parts."""
    return prod(p ** m * factorial(m) for p, m in Counter(lam).items())


@cached
def centralizer_poly_factors(lam):
    """Product of (1 - t^part) over the parts; the polynomial part of the
    reciprocal deformed centralizer order."""
    return prod((ONE - monomial(1, p) for p in lam), start=ONE)


@cached
def _classical_mn(lam, rho):
    if not rho:
        return 1
    k = rho[0]
    rest = rho[1:]
    total = 0
    for mu, comps in strip_removals(lam, k):
        if len(comps) == 1:
            term = _classical_mn(mu, rest)
            if comps[0].rows % 2 == 0:
                term = -term
            total += term
    return total


def classical_character(lam, rho):
    """Symmetric-group irreducible character value, by the classical
    border-strip recursion (single strips, sign by row count)."""
    lam, rho = check_indices(lam, rho)
    return _classical_mn(lam, rho)


def _power_sum_terms(nu):
    """For each tuple (rho_1, ..., rho_r) with rho_j a partition of nu_j,
    the merged partition rho and the product of the z_{rho_j}: the terms
    of prod_j h_{nu_j} = prod_j sum_{rho_j} p_{rho_j} / z_{rho_j}."""
    for tup in partition_tuples(nu):
        yield (sort_to_partition([p for block in tup for p in block]),
               prod(map(centralizer_order, tup)))


@cached
def _oracle_cached(lam, mu):
    """Independent route to the pairing polynomial.

    Expands each one-row factor into the power-sum basis (one partition
    per factor, weighted by the reciprocal deformed centralizer order),
    pairs with the Schur function via classical characters, sums the
    integer numerators over the denominator prod_j mu_j! and ends with
    one exact division.  Shares nothing with the peeling code beyond the
    partition enumerators.
    """
    # z_{rho_j} divides mu_j!, because mu_j! / z_{rho_j} is the size of
    # the conjugacy class of S_{mu_j} of cycle type rho_j; so every term
    # is integral over D = prod_j mu_j!
    den = prod(map(factorial, mu))
    acc = ZERO
    for rho, z in _power_sum_terms(mu):
        chi = _classical_mn(lam, rho)
        if chi:
            acc = acc + centralizer_poly_factors(rho) * (chi * (den // z))
    return acc.divexact(den)


@cached
def newton_coeffs(m):
    """Transition coefficients from the degree-m dual elementary vector to
    the one-row product basis, by the generalized Newton recursion.

    Returns a dict mapping each partition of m to a RationalFn in t.
    Treat the result as read-only (it is cached).
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return {(): RationalFn(ONE)}
    acc = {}
    for k in range(1, m + 1):
        for rho, c in newton_coeffs(m - k).items():
            key = tuple(sorted(rho + (k,), reverse=True))
            cur = acc.get(key)
            acc[key] = c if cur is None else cur + c
    scale = RationalFn(ONE, monomial(1, m) - ONE)
    return {rho: c * scale for rho, c in acc.items()}
