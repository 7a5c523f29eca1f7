"""The peeling engine.

A Schur vector is a finite formal combination of partitions of one common
weight.  Removing one part of the lower indexing partition at a time ("peeling")
expands the dual one-row operator on such vectors; three interchangeable
expansions are implemented:

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

from fractions import Fraction
from math import factorial

from .laurent import (
    ZERO, ONE, T, ExactnessError, LaurentPoly, RationalFn, monomial,
)
from .partitions import (
    MEMOS, SkewShape, cached, check_indices, compositions_of,
    partition_tuples, sort_to_partition, strip_removals,
    subpartitions_of_weight, weight,
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


class SchurVector:
    """Formal combination of equal-weight partitions with ring coefficients.

    Coefficients are LaurentPolys: every peel weight is an honest
    polynomial.  No zero coefficients are stored.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {lam: c for lam, c in (entries or {}).items()
                        if not c.is_zero()}

    @classmethod
    def unit(cls, lam):
        v = object.__new__(cls)
        v.entries = {tuple(lam): ONE}
        return v

    def coefficient(self, lam):
        return self.entries.get(tuple(lam), ZERO)

    def is_zero(self):
        return not self.entries

    def items(self):
        return self.entries.items()

    def __eq__(self, other):
        if not isinstance(other, SchurVector):
            return NotImplemented
        if self.entries.keys() != other.entries.keys():
            return False
        return all(other.entries[k] == c for k, c in self.entries.items())

    def __repr__(self):
        if not self.entries:
            return "SchurVector<0>"
        bits = ", ".join(f"{lam}: {c!r}" for lam, c in sorted(self.entries.items()))
        return f"SchurVector<{bits}>"


def _accumulate(out, lam, term):
    cur = out.get(lam)
    out[lam] = term if cur is None else cur + term


def peel_iterative(k, vec):
    """Expand by summing over all ways to lower the parts by a total of k.

    Each slot may drop by any amount (possibly overshooting into negative
    indices, which the straightening kills); a slot that drops at all
    contributes one factor (1 - t).
    """
    if k == 0:
        return vec
    out = {}
    for lam, coeff in vec.items():
        if k > weight(lam):
            continue
        l = len(lam)
        if l == 0:
            continue
        for tau in compositions_of(k, l):
            st = straighten(tuple(lam[i] - tau[i] for i in range(l)))
            if st is None:
                continue
            sign, mu = st
            nz = sum(1 for x in tau if x)
            term = coeff * _omt_pow(nz)
            if sign < 0:
                term = -term
            _accumulate(out, mu, term)
    return SchurVector(out)


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
    """Fraction-free determinant over integer Laurent polynomials."""
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


def det_matrix(lam, mu):
    """The peel matrix itself, with entries 0, 1 or 1/(1-t)."""
    SkewShape(lam, mu)  # ValueError unless mu lies inside lam
    l = len(lam)
    mu_padded = mu + (0,) * (l - len(mu))
    inv = RationalFn(ONE, ONE_MINUS_T)
    one = RationalFn(ONE)
    zero = RationalFn(ZERO)
    rows = []
    for i in range(l):
        di = lam[i] - i
        rows.append([zero if di < mu_padded[j] - j
                     else (inv if di == mu_padded[j] - j else one)
                     for j in range(l)])
    return rows


def det_value(lam, mu):
    """Determinant of the peel matrix, computed fraction-free."""
    SkewShape(lam, mu)  # ValueError unless mu lies inside lam
    return RationalFn(_scaled_det(lam, mu), _omt_pow(len(lam)))


def peel_det(k, vec):
    """Expand through determinants of the peel matrix.

    The (1-t)^l prefactor cancels the cleared row denominators exactly,
    so every coefficient stays an honest polynomial.
    """
    if k == 0:
        return vec
    out = {}
    for lam, coeff in vec.items():
        n = weight(lam)
        if k > n:
            continue
        for mu in subpartitions_of_weight(lam, n - k):
            d = _scaled_det(lam, mu)
            if d.is_zero():
                continue
            _accumulate(out, mu, coeff * d)
    return SchurVector(out)


def peel_strips(k, vec):
    """Expand over broken border strips: each removal of a k-broken border
    strip with components xi_1..xi_m contributes
    (1-t)^m * prod (-t)^(rows(xi_i) - 1)."""
    if k == 0:
        return vec
    out = {}
    for lam, coeff in vec.items():
        if k > weight(lam):
            continue
        for mu, comps in strip_removals(lam, k):
            m = len(comps)
            rsum = sum(c.rows - 1 for c in comps)
            _accumulate(out, mu, coeff * (_omt_pow(m) * _neg_t_pow(rsum)))
    return SchurVector(out)


_PEELERS = {
    "iterative": peel_iterative,
    "det": peel_det,
    "strips": peel_strips,
}


@cached
def _pairing_cached(lam, mu, strategy):
    peel = _PEELERS[strategy]
    vec = SchurVector.unit(lam)
    for k in mu:
        vec = peel(k, vec)
        if vec.is_zero():
            return ZERO
    return vec.coefficient(())


def pairing_polynomial(lam, mu, strategy="strips"):
    """Pairing of the deformed one-row product against a Schur function.

    Peels the parts of ``mu`` (largest first) off the unit vector at
    ``lam`` and reads the coefficient of the empty partition.  The result
    is always a polynomial in t with integer coefficients.
    """
    lam, mu = check_indices(lam, mu)
    if strategy == "oracle":
        return pairing_oracle(lam, mu)
    if strategy not in _PEELERS:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _pairing_cached(lam, mu, strategy)


@cached
def centralizer_order(lam):
    """Product of part^multiplicity * multiplicity! over distinct parts."""
    z = 1
    mult = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        z *= p ** m * factorial(m)
    return z


@cached
def centralizer_poly_factors(lam):
    """Product of (1 - t^part) over the parts; the polynomial part of the
    reciprocal deformed centralizer order."""
    out = ONE
    for p in lam:
        out = out * (ONE - monomial(1, p))
    return out


@cached
def deformed_centralizer(lam):
    """The deformed centralizer order as a rational function of t."""
    return RationalFn(centralizer_order(lam), centralizer_poly_factors(lam))


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


@cached
def pairing_oracle(lam, mu):
    """Independent route to the pairing polynomial.

    Expands each one-row factor into the power-sum basis (one partition
    per factor, weighted by the reciprocal deformed centralizer order),
    pairs with the Schur function via classical characters, and clears
    all integer denominators.  Shares nothing with the peeling code
    beyond the partition enumerators.
    """
    lam, mu = check_indices(lam, mu)
    acc = {}
    for tup in partition_tuples(mu):
        rho = sort_to_partition([p for block in tup for p in block])
        chi = _classical_mn(lam, rho)
        if not chi:
            continue
        zden = 1
        numer = ONE
        for block in tup:
            zden *= centralizer_order(block)
            numer = numer * centralizer_poly_factors(block)
        f = Fraction(chi, zden)
        for e, c in numer.terms.items():
            acc[e] = acc.get(e, Fraction(0)) + c * f
    terms = {}
    for e, fr in acc.items():
        if fr.denominator != 1:
            raise ExactnessError(
                f"oracle pairing left a non-integer coefficient {fr} at degree {e}")
        if fr.numerator:
            terms[e] = fr.numerator
    return LaurentPoly(terms)


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
