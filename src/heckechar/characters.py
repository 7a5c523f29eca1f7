"""Irreducible character values of the type-A Hecke algebra as exact
polynomials in q.

Public entry point is :func:`character`, which runs one of:

* the q-deformed Murnaghan-Nakayama recursion over broken border strips
  (``mn``, also what ``auto`` means for every shape); it evaluates at
  q = 2^bits, one int per value, and reads the coefficients back as
  balanced base-2^bits digits, bits fixed before the sum by the L1 bound
  f^lam * 2^(n - len(mu)), f^lam the number of standard tableaux; a
  table on it packs a whole row into one int instead (:func:`_mn_rows`);
* closed forms for one-row, one-column, hook and two-row shapes, driven
  by two weight sequences obtained from small generating-function
  products; each is an explicit route only, chosen by its name;
* the three peeling strategies of :mod:`heckechar.schur` composed with
  the normalization from the generic-variable pairing to the character;
* the power-sum pairing oracle;
* two general reduction formulas ("gen_sn" reduces to symmetric-group
  characters of lower degree, "gen_newton" to Hecke characters of lower
  degree via the Newton transition coefficients); each sums its terms
  packed in the same way, its bound times its divisor's L1 norm fixing
  bits, and ends in one int division by the packed divisor, checked to
  leave no remainder and a quotient within chi's L1 bound
  (:func:`_quotient`).

All routes return the identical polynomial; the value depends only on
the multiset of parts of the lower index, which is sorted on entry.
The peel routes and the oracle keep polynomial (dict) arithmetic
throughout, so they check the three packed routes independently.

Note on the weight-sequence symmetry: the hook weights satisfy
a_j(mu;t) = (-1)^len(mu) * t^(-len(mu)) * a_{n-j}(mu;1/t); the version
without the t^(-len(mu)) factor sometimes quoted in the literature fails
already for mu=(1).
"""

from __future__ import annotations

import json
import os
import stat
from itertools import chain, product, repeat
from math import factorial, prod

from .laurent import (
    ZERO, ONE, ExactnessError, LaurentPoly, biased_digits, digit_bits,
    monomial, pack, unpack,
)
# clear_caches is re-exported: the benchmark calls it from here
from .partitions import (
    MEMOS, _partitions_of, cached, check_composition, check_degree,
    check_indices, clear_caches, conjugate, partition_count, partitions_of,
    sort_to_partition, strip_removals, weight,
)
from .schur import (
    _classical_mn, _omt_pow, _power_sum_terms, centralizer_order,
    centralizer_poly_factors, newton_coeffs, pairing_polynomial,
)

# this module's memos; the benchmark tracer's memo_sizes reads the view
_CACHES = MEMOS.setdefault(__name__, [])

ONE_MINUS_TINV = ONE - monomial(1, -1)


@cached
def _tableaux_count(lam):
    """f^lam by the hook-length formula: with l_i the first column's
    hooks, the hooks of lam multiply to prod l_i! / prod_{i<j} (l_i - l_j)."""
    ls = [p + len(lam) - 1 - i for i, p in enumerate(lam)]
    return factorial(weight(lam)) * prod(x - y for i, x in enumerate(ls)
                                         for y in ls[i + 1:]) // \
        prod(map(factorial, ls))


def _chi_bound(lam, mu):
    """f^lam * 2^(n - len(mu)) bounds chi^lam_mu's L1 norm: filling each
    strip of a chain in reading order makes a distinct standard tableau,
    so at most f^lam chains of broken strips, and a strip of mu_i boxes
    has m <= mu_i components, a weight of L1 norm 2^(m-1)."""
    return _tableaux_count(lam) << (weight(mu) - len(mu))


def normalize_g_to_chi(g, n, l_mu):
    """Turn a generic-variable pairing polynomial into the character.

    Substitutes the variable by its reciprocal, multiplies by
    (-1)^l_mu * q^n / (1-q)^l_mu, and converts exactly; the division
    failing or a negative exponent surviving signals an upstream bug.
    """
    p = g.invert_variable().shift(n)
    if l_mu % 2:
        p = -p
    chi = p.divexact(_omt_pow(l_mu))
    if not chi.is_polynomial():
        raise ExactnessError(f"character has negative exponents: {chi!r}")
    return chi


# -- closed forms -------------------------------------------------------

def _v_product(factors):
    """Coefficient tuple, from v^0 up, of a product of polynomials in an
    auxiliary variable v, each given as the list of its coefficients."""
    out = [ONE]
    for f in factors:
        acc = [ZERO] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] = acc[i + j] + a * b
        out = acc
    return tuple(out)


def hook_weights(mu):
    """Coefficient sequence of (1 - v/t)^len(mu) * prod [mu_i]_v in v.

    Drives the hook closed form; entry 0 is 1 and the top entry, at
    v^|mu|, is (-1/t)^len(mu).  ``mu`` is a composition in any order;
    ValueError for anything else.
    """
    return _hook_weights(sort_to_partition(check_composition(mu)))


@cached
def _hook_weights(mu):
    return _v_product([[ONE, -monomial(1, -1)] for _ in mu] +
                      [[ONE] * m for m in mu])


def two_row_weights(mu):
    """Coefficient sequence of prod (1/t + v^mu_i + (1-1/t)[mu_i]_v) in v.

    Palindromic, from 1 at v^0 to 1 at v^|mu|; drives the two-row closed
    form.  ``mu`` is a composition in any order; ValueError for anything
    else.
    """
    return _two_row_weights(sort_to_partition(check_composition(mu)))


@cached
def _two_row_weights(mu):
    return _v_product([ONE] + [ONE_MINUS_TINV] * (m - 1) + [ONE] for m in mu)


def two_row_cumulative(mu):
    """Closed form of the sum of all two-row characters at mu:
    q^(n - len(mu)) times the middle two-row weight."""
    mu = sort_to_partition(check_composition(mu))
    n = weight(mu)
    b = _two_row_weights(mu)
    return b[n // 2].shift(n - len(mu))


# -- Murnaghan-Nakayama recursion ---------------------------------------

def broken_strip_weight(k, m, j):
    """(q-1)^(m-1) * prod (-1)^(rows-1) q^(cols-1) over the m components
    of a broken k-strip, j the sum of their rows - 1: the cols - 1 sum
    to k - m - j; (q-1)^(m-1) is (-1)^(m-1) (1-q)^(m-1)."""
    w = _omt_pow(m - 1).shift(k - m - j)
    return -w if (m - 1 + j) % 2 else w


@cached
def _packed_base(j, s, bits):
    # (t-1)^j * t^s at 2^bits, the (1 - t)^j entry signed; mn's weight
    # broken_strip_weight(k, m, i) is (-1)^i times it at (m - 1, k - m - i),
    # and (1 - 1/t)^j = (t-1)^j * t^-j gives the reductions' first row
    v = pack(_omt_pow(j).shift(s), bits)
    return -v if j % 2 else v


@cached
def _mn_cached(lam, mu, bits):
    """chi(Q) at Q = 2^bits, the character packed: the sum over strips
    of the packed weight times the packed smaller character."""
    if not mu:
        return 0 if lam else 1
    k, rest = mu[0], mu[1:]
    v = 0
    for nu, m, j in strip_removals(lam, k):
        sub = _mn_cached(nu, rest, bits)
        if sub:
            w = _packed_base(m - 1, k - m - j, bits) * sub
            v = v - w if j % 2 else v + w
    return v


def _mn_value(lam, mu):
    """Character by removing a broken border strip for each part of mu,
    largest part first: the packed sum read back, summed at the narrowest
    digits that hold chi's bound."""
    bound = _chi_bound(lam, mu)
    bits = digit_bits(bound)
    return unpack(_mn_cached(lam, mu, bits), bound, bits)


def _table_bound(n):
    """A bound on every coefficient of the degree-n table: in each row
    _chi_bound is largest at mu = (n), the mu with the fewest parts."""
    parts = partitions_of(n)
    return max(_chi_bound(lam, parts[0]) for lam in parts)


def _mn_rows(n, bits):
    """The function taking a partition lam of n to its row of mn values
    at ``partitions_of(n)``, every column in one packed int, which
    :func:`_row_reader` reads.

    A row is packed in two variables: q = 2^bits inside a slot, and one
    slot of n digits per mu, the mu in ascending lexicographic order.  A
    value has degree at most n - len(mu) < n, so the row is one
    polynomial in q, its coefficients bounded by :func:`_table_bound`,
    which ``bits`` must hold: digit i is the coefficient of q^(i mod n)
    in slot i // n.

    The partitions of m with parts <= c, in that order, are those with
    first part 1, then 2, ..., c, and those with first part k are k
    followed by the partitions of m - k with parts <= k.  So nu's values
    on them, row(nu, c), are the blocks block(nu, k) one after another,
    and block(nu, k) is the strip recursion at a first part k: the sum
    over the broken k-strips nu/rest of the packed weight times
    row(rest, k).  Both are memoised in dicts that live as long as the
    returned function; the rows of n themselves are memoised nowhere.
    """
    slot = n * bits
    # fewer[c][m]: the number of partitions of m with parts <= c
    fewer = [[1] + [0] * n]
    for c in range(1, n + 1):
        f = fewer[-1][:]
        for m in range(c, n + 1):
            f[m] += f[m - c]
        fewer.append(f)
    blocks, rows = {}, {}

    def block(nu, k):
        v = 0
        for rest, m, j in strip_removals(nu, k):
            w = _packed_base(m - 1, k - m - j, bits) * row(rest, k)
            v = v - w if j % 2 else v + w
        return v

    def memo_block(nu, k):
        v = blocks.get((nu, k))
        if v is None:
            v = blocks[(nu, k)] = block(nu, k)
        return v

    def total(nu, c, block_of):
        m = weight(nu)
        v = 0
        for k in range(1, min(c, m) + 1):
            v += block_of(nu, k) << slot * fewer[k - 1][m]
        return v

    def row(nu, c):
        if not nu:
            return 1
        key = (nu, min(c, weight(nu)))
        v = rows.get(key)
        if v is None:
            v = rows[key] = total(*key, memo_block)
        return v

    def packed(lam):
        return total(lam, n, block) if lam else 1

    return packed


def _row_reader(n, bound, bits):
    """The function taking a row packed by :func:`_mn_rows` and
    ``mirror`` to its values at ``partitions_of(n)``.  Mirrored, they are
    the conjugate's row through the duality: each digit e of mu's slot
    is read as the term (-1)^s * q^(s - e), s = n - len(mu), so the
    polynomials of the row itself are never built."""
    parts = partitions_of(n)
    half = 1 << (bits - 1)
    # mu = parts[k] sits in slot len(parts) - 1 - k, digits n apiece
    slots = [((len(parts) - 1 - k) * n, n - len(mu))
             for k, mu in enumerate(parts)]

    def read(v, mirror):
        if not n:
            return [ONE]
        digits = biased_digits(v, bound, bits, len(parts) * n)
        values = []
        for start, s in slots:
            slot = digits[start:start + n]
            if not mirror:
                terms = {e: d - half for e, d in enumerate(slot) if d != half}
            elif s % 2:
                terms = {s - e: half - d for e, d in enumerate(slot)
                         if d != half}
            else:
                terms = {s - e: d - half for e, d in enumerate(slot)
                         if d != half}
            values.append(LaurentPoly._raw(terms))
        return values

    return read


# -- general reduction formulas -----------------------------------------
#
# Both reductions sum their terms as ints, the polynomials evaluated at
# q = 2^bits (each shifted to non-negative exponents), and end in one int
# division by the packed divisor, _quotient.  The sum is chi times the
# divisor, so _chi_bound times the divisor's L1 norm fixes bits.  Every
# packed constant and inner sum is memoised per width; the first row's
# weights of both come from one table, _packed_base, which also holds
# mn's strip weights.


def _quotient(total, divisor, bound, bits):
    """The polynomial chi with chi(2^bits) * divisor == total, given
    ``bound`` on chi's L1 norm; ExactnessError unless the division leaves
    no remainder and the quotient's balanced digits meet the bound.

    Let D be the divisor polynomial, D(2^bits) == divisor, with
    bound * ||D||_1 < 2^(bits-1), as every caller fixes bits.  Given both
    checks, chi * D has every coefficient below 2^(bits-1) in absolute
    value and packs to total, so it is the polynomial that total's
    balanced digits spell, and chi is that polynomial's exact quotient by
    D.  Conversely an exact polynomial quotient within the bound passes
    both checks."""
    q, r = divmod(total, divisor)
    if r:
        # the ints themselves can pass the int-to-str digit limit
        raise ExactnessError("inexact division: the packed sum is not a "
                             "multiple of the packed divisor", remainder=r)
    chi = unpack(q, bound, bits)
    norm = sum(map(abs, chi.terms.values()))
    if norm > bound:
        raise ExactnessError(f"quotient {chi!r} has L1 norm {norm}, over "
                             f"its bound {bound}")
    return chi


@cached
def _first_row_level(mu, i):
    """The tau with 0 <= tau_k <= mu_k and |tau| = i, grouped: (rem, j,
    count) for each (mu - tau sorted to a partition, nz(tau)) met count
    times; at lam_1 <= i <= n, a tau is a term (1 - 1/t)^nz(tau) of the
    first row's vertex operator.  The first part keeps mu_1 - x boxes, for
    each x it can give up, and each group of mu[1:] at level i - x gains
    that part and counts x > 0; mu's suffixes are partitions, so their
    levels are memoised and shared by every mu that ends in them."""
    if not mu:
        return (((), 0, 1),) if i == 0 else ()
    head, rest = mu[0], mu[1:]
    groups = {}
    for x in range(max(0, i - weight(rest)), min(head, i) + 1):
        for rem, j, count in _first_row_level(rest, i - x):
            key = (sort_to_partition(rem + (head - x,)), j + (x > 0))
            groups[key] = groups.get(key, 0) + count
    return tuple((rem, j, count) for (rem, j), count in groups.items())


def _sn_numerator(tail, nu, z, fact):
    """Integer numerator over fact = |tail|! of the power-sum term
    p_nu / z paired with the classical characters of tail."""
    numer = 0
    for rho in _partitions_of(weight(tail) - weight(nu)):
        # valid indices by construction: nu and rho make a partition of
        # |tail|
        chi = _classical_mn(tail, sort_to_partition(nu + rho))
        if (len(nu) + len(rho)) % 2:
            chi = -chi
        numer += chi * (fact // (z * centralizer_order(rho)))
    return numer


@cached
def _sn_inner(tail, rem, bits):
    """The sum over the power-sum terms of prod_j h_rem_j of
    centralizer_poly_factors(nu) * numerator, packed.
    (tail, rem) fixes everything the sum reads: rho runs over the
    partitions of |tail| - |rem|, the denominator is |tail|!, and the
    product of h's does not depend on the order of rem's parts."""
    fact = factorial(weight(tail))
    v = 0
    for nu, z in _power_sum_terms(rem):
        numer = _sn_numerator(tail, nu, z, fact)
        if numer:
            v += pack(centralizer_poly_factors(nu), bits) * numer
    return v


def _sn_sum(lam, mu, bits):
    """The numerator _via_sn divides, packed."""
    tail = lam[1:]
    v = 0
    for i in range(lam[0], weight(mu) + 1):
        for rem, j, count in _first_row_level(mu, i):
            inner = _sn_inner(tail, rem, bits)
            if inner:
                # j = nz(tau) <= |tau| = i
                v += _packed_base(j, i - j, bits) * inner * count
    return v


def _via_sn(lam, mu):
    """Reduce to classical characters of lower-degree symmetric groups.

    The terms come from _first_row_level, one per group (i, mu - tau
    sorted, nz(tau)) times its count, so each inner sum is read once per
    group however many tau share it.  Each term's denominator z * z_rho
    divides (n - lam_1)!: the block sizes n_j (the parts of mu - tau,
    and i - lam_1) sum to n - lam_1, each n_j! / z_{rho_j} is a class
    size of S_{n_j}, and a product of the n_j! divides (n - lam_1)!.  So
    integer numerators are summed over that one denominator and a single
    exact division by (q-1)^len(mu) * (n - lam_1)! ends the sum.
    """
    fact, l = factorial(weight(lam) - lam[0]), len(mu)
    bound = _chi_bound(lam, mu)
    bits = digit_bits((bound << l) * fact)
    return _quotient(_sn_sum(lam, mu, bits),
                     _packed_base(l, 0, bits) * fact, bound, bits)


@cached
def _newton_scaled(top):
    """P(1/t) * t^deg P = prod_{k <= top} (1 - t^k) and, for each
    m <= top, the coefficients C = newton_coeffs(m) * P at 1/t *
    (t-1)^len(rho), each as (rho, C * t^deg P), where
    P = prod_{k <= top} (t^k - 1): C's exponents are at least -deg P."""
    p = prod((monomial(1, k) - ONE for k in range(1, top + 1)), start=ONE)
    deg = top * (top + 1) // 2

    def term(rho, c):
        c = (c.num * p).divexact(c.den).invert_variable() * \
            _omt_pow(len(rho))
        return rho, (-c if len(rho) % 2 else c).shift(deg)

    return p.invert_variable().shift(deg), [
        tuple(term(rho, c) for rho, c in newton_coeffs(m).items())
        for m in range(top + 1)]


@cached
def _newton_inner(tail, rem, bits):
    """The sum over rho of C_rho * chi^tail_(rem + rho), packed, with the
    C of _newton_scaled(|tail|), of degree |tail| - |rem|."""
    top = weight(tail)
    v = 0
    for rho, c in _newton_scaled(top)[1][top - weight(rem)]:
        sub = _via_newton_cached(tail, sort_to_partition(rem + rho))
        v += pack(c, bits) * pack(sub, bits)
    return v


def _newton_sum(lam, mu, bits):
    """The numerator _via_newton_cached divides, packed; it carries
    t^(deg P + len(mu)) from the offsets."""
    tail = lam[1:]
    l = len(mu)
    v = 0
    for i in range(lam[0], weight(mu) + 1):
        for rem, j, count in _first_row_level(mu, i):
            inner = _newton_inner(tail, rem, bits)
            if inner:
                # (1 - 1/t)^j * (t-1)^len(rem) * t^l; j = nz(tau) <= l
                v += _packed_base(j + len(rem), l - j, bits) * inner * count
    return v


@cached
def _via_newton_cached(lam, mu):
    """Reduce to Hecke characters of lower degree through the Newton
    transition coefficients; bottoms out at the empty partition.

    Every newton_coeffs(m) used here has m <= top = n - lam_1, so its
    denominators divide P = prod_{k <= top} (t^k - 1).  The sum runs over
    the coefficients times P, all at 1/t, grouped by mu - tau, and one
    exact division by P(1/t) * (t-1)^len(mu), of L1 norm at most
    2^(top + len(mu)), ends it.  The sum carries t^(deg P + len(mu)), so
    it is divided by P(1/t) * t^deg P * (t-1)^len(mu) and the quotient
    shifted by lam_1 - len(mu).  Each caller packs chi at its own width."""
    if not lam:
        return ONE if not mu else ZERO
    l, top = len(mu), weight(lam) - lam[0]
    bound = _chi_bound(lam, mu)
    bits = digit_bits(bound << (top + l))
    divisor = pack(_newton_scaled(top)[0], bits) * _packed_base(l, 0, bits)
    return _quotient(_newton_sum(lam, mu, bits), divisor, bound,
                     bits).shift(lam[0] - l)


def _via_newton(lam, mu):
    """The route: the value _via_newton_cached holds, under a name that
    its recursion does not call through."""
    return _via_newton_cached(lam, mu)


# -- dispatch ------------------------------------------------------------

def _one_row(lam, mu):
    if len(lam) > 1:
        raise ValueError(f"{lam} is not a one-row shape")
    return monomial(1, weight(mu) - len(mu))


def _one_column(lam, mu):
    if any(p != 1 for p in lam):
        raise ValueError(f"{lam} is not a one-column shape")
    s = weight(mu) - len(mu)
    return LaurentPoly.const(-1 if s % 2 else 1)


def _hook(lam, mu):
    """Hook with arm lam_1: the signed tail sum of the hook weights
    evaluated at the character variable."""
    if any(p != 1 for p in lam[1:]):
        raise ValueError(f"{lam} is not a hook")
    n, k = weight(mu), lam[0]
    a = _hook_weights(mu)
    total = ZERO
    for i in range(k, n + 1):
        total = total + a[i].shift(i)
    return -total if (n - k + len(mu)) % 2 else total


def _two_row(lam, mu):
    """Two-row shape (k, n-k), k = lam_1."""
    if len(lam) > 2:
        raise ValueError(f"{lam} is not a two-row shape")
    n, k = weight(mu), lam[0]
    b = _two_row_weights(mu)
    diff = b[k] - (b[k + 1] if k < n else ZERO)
    return diff.shift(n - len(mu))


def _via_peel(strategy):
    def run(lam, mu):
        g = pairing_polynomial(lam, mu, strategy)
        return normalize_g_to_chi(g, weight(mu), len(mu))
    return run


# Routes get valid indices and a nonempty lam (character() checks them,
# table_rows builds them, _run answers the empty pair), so each maps to
# an unchecked core.  The peel routes still call pairing_polynomial,
# which checks again: the benchmark tracer reads its schur.pairing.*
# spans from that call.
ALGORITHMS = {
    "one_row": _one_row,
    "one_column": _one_column,
    "hook": _hook,
    "two_row": _two_row,
    "mn": _mn_value,
    "iterative": _via_peel("iterative"),
    "det": _via_peel("det"),
    "strips": _via_peel("strips"),
    "oracle": _via_peel("oracle"),
    "gen_sn": _via_sn,
    "gen_newton": _via_newton,
}

ALGORITHM_NAMES = ("auto",) + tuple(ALGORITHMS)


def resolve_algorithm(algorithm="auto"):
    """Concrete algorithm tag for a query: ``auto`` is the strip
    recursion ``mn`` for every shape; the closed forms are reached only
    by their explicit names."""
    if algorithm == "auto":
        return "mn"
    if type(algorithm) is not str or algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return algorithm


def character(lam, mu, algorithm="auto"):
    """The irreducible character value at (lam, mu) as a polynomial in q.

    ``lam`` must be a partition; ``mu`` may be given in any order and is
    sorted (the value depends only on its part multiset).
    """
    lam, mu = check_indices(lam, mu)
    return _run(ALGORITHMS[resolve_algorithm(algorithm)], lam, mu)


def _run(route, lam, mu):
    """``route`` at valid indices; the empty pair is ONE on every route."""
    return route(lam, mu) if lam else ONE


# -- tables and persistence ----------------------------------------------

FORMAT_VERSION = 1


class CharTable:
    """All character values for one degree, and ``algorithm``, the tag
    of the route whose values fill it ("unknown" when none is given).
    Tables compare equal field by field, and so have no hash."""

    __hash__ = None

    def __init__(self, n, entries=None, algorithm="unknown"):
        self.n = n
        self.entries = {} if entries is None else entries
        self.algorithm = algorithm

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.entries, self.algorithm) == \
            (other.n, other.entries, other.algorithm)

    def __repr__(self):
        return (f"{type(self).__qualname__}(n={self.n!r}, "
                f"entries={self.entries!r}, algorithm={self.algorithm!r})")

    def value(self, lam, mu):
        return self.entries[(tuple(lam), sort_to_partition(mu))]


def _mirror(poly, s):
    """(-q)^s * poly(1/q): the duality's image of a value, with
    s = n - len(mu)."""
    return LaurentPoly._raw({s - e: -c if s % 2 else c
                             for e, c in poly.terms.items()})


def table_rows(n, tag):
    """Yield (lam, row) for each partition lam of n in reverse-lex order,
    row the list of values at ``partitions_of(n)`` on the route ``tag``
    (a resolved tag; ``n`` a checked degree).

    The rows with lam >= lam' (as tuples) are computed: on ``mn`` each
    whole, as one packed int from :func:`_mn_rows`, at one digit width
    for the table, fixed by :func:`_table_bound`; on every other route
    entry by entry.  Each other row is read off its conjugate's row,
    which that order yields first, through the duality
    chi^lam_mu(q) = (-q)^(n - len(mu)) * chi^lam'_mu(1/q).  Until then the
    conjugate's row is held as computed: on ``mn`` as its packed int,
    which :func:`_row_reader` reads mirrored, and on the other routes as
    values that go through :func:`_mirror`.  The route, called for one
    value, also computes a mirrored row's entry at mu = (n), which must
    equal the mirrored value (ExactnessError otherwise) and lets a closed
    form reject a shape outside its family; on ``mn`` that is the
    per-value recursion, so it checks the row engine.
    """
    route = ALGORITHMS[tag]
    parts = partitions_of(n)
    if tag == "mn":
        bound = _table_bound(n)
        bits = digit_bits(bound)
        fill, read = _mn_rows(n, bits), _row_reader(n, bound, bits)
    else:
        shifts = [n - len(mu) for mu in parts]

        def fill(lam):
            return [_run(route, lam, mu) for mu in parts]

        def read(row, mirror):
            return list(map(_mirror, row, shifts)) if mirror else row
    held = {}
    # valid indices by construction, so no check_indices
    for lam in parts:
        conj = conjugate(lam)
        if conj > lam:
            probe = _run(route, lam, parts[0])
            row = read(held.pop(conj), True)
            if row[0] != probe:
                raise ExactnessError(
                    f"duality fails at lambda={lam}, mu={parts[0]}: the "
                    f"route gives {probe.format('q')}, the mirror "
                    f"{row[0].format('q')}")
        else:
            computed = fill(lam)
            if conj < lam:
                held[lam] = computed
            row = read(computed, False)
        yield lam, row


def char_table(n, algorithm="auto"):
    """Fill the full table of character values for degree n.

    Both indices run over the partitions of n in reverse-lexicographic
    order, and the rows come from :func:`table_rows`: about half of them
    are computed, and each other one is read off its conjugate's row
    through the duality, checked at mu = (n) by the route's per-value
    call.  The table's tag names the route whose values fill it.
    """
    tag = resolve_algorithm(algorithm)
    parts = partitions_of(n)
    table = CharTable(n, algorithm=tag)
    for lam, row in table_rows(n, tag):
        table.entries.update(zip(zip(repeat(lam), parts), row))
    return table


class _Entry(tuple):
    """A checked table entry, ``((lam, mu), poly, tag)``; the JSON parser
    never makes one, so it cannot pass for an unread entry."""
    __slots__ = ()


def _read_entry(entry, shared):
    """The checked :class:`_Entry` of one entry object; ValueError if it
    is not one in the writer's form.

    Equal index tuples and tags are taken from ``shared`` (filled here),
    so a loaded table holds one tuple per partition.
    """
    try:
        lam, mu = entry["lambda"], entry["mu"]
        tag, pairs = entry["algorithm"], entry["poly"]
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed table entry: {err!r}") from err
    # tuple() would also read "" or {} as the empty partition
    if type(lam) is not list or type(mu) is not list:
        raise ValueError(f"index {lam!r}, {mu!r}: both must be JSON lists")
    lam, mu = tuple(lam), tuple(mu)
    # True and 1.0 hash and compare like 1, so only their type tells them
    # apart; checked before sharing, or (2, True) would read as (2, 1)
    if not set(map(type, lam + mu)) <= {int}:
        raise ValueError(f"index {lam}, {mu} has a part that is not an int")
    if type(tag) is not str:
        raise ValueError(f"tag {tag!r} at {lam}, {mu} is not a string")
    poly = LaurentPoly.from_pairs(pairs)
    key = (shared.setdefault(lam, lam), shared.setdefault(mu, mu))
    return _Entry((key, poly, shared.setdefault(tag, tag)))


def document_to_table(doc):
    """The table a parsed document holds.

    Every field must be in the form the writer emits: int degree and
    parts, one string tag on every entry, which becomes the table's
    ``algorithm``, polynomials as :meth:`LaurentPoly.from_pairs` requires
    them, and each pair of partitions of ``n`` once.  Anything else
    raises ValueError, naming the first entry whose tag differs from the
    first entry's, so a loaded table writes back the same values and tag
    it was read from.  An element of ``"entries"`` is an entry object or
    the :class:`_Entry` that :func:`loads_table` already made of one.
    """
    if not isinstance(doc, dict):
        raise ValueError("a table document must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    if doc.get("variable") != "q":
        raise ValueError(f"unexpected variable {doc.get('variable')!r}")
    n = check_degree(doc.get("n"))
    entries = doc.get("entries")
    # p(n) >= n, so n * n bounds the recurrence's work by the entry count
    if not isinstance(entries, list) or n * n > len(entries) or \
            partition_count(n) ** 2 != len(entries):
        raise ValueError(f"a table of degree {n} needs p({n})^2 entries")
    table, shared = None, {}
    # p(n)^2 >= 1 entries, so the first one makes the table
    for entry in entries:
        if type(entry) is not _Entry:
            entry = _read_entry(entry, shared)
        key, poly, tag = entry
        if table is None:
            table = CharTable(n=n, algorithm=tag)
        elif tag != table.algorithm:
            raise ValueError(f"the entry at {key} has the tag {tag!r}, the "
                             f"first entry {table.algorithm!r}: a table has "
                             "one tag")
        table.entries[key] = poly
    # no key twice, and each index a partition of n: every pair once
    parts, keys = set(partitions_of(n)), table.entries.keys()
    if len(entries) != len(keys) or \
            {lam for lam, _ in keys} | {mu for _, mu in keys} != parts:
        raise ValueError(f"the entries are not each pair of partitions of {n} once")
    return table


# The table text exactly as json.dumps lays it out with an indent of two
# spaces: entries at depth 2, their lists at depth 3, the
# [exponent, "coefficient"] pairs at depth 4.  An entry is a head, one
# per lambda, a middle, one per mu holding the tag, and its poly text;
# _BETWEEN closes one entry and opens the next, _END closes the last.
_BETWEEN = "\n    },\n"
_END = "\n    }\n  ]\n}\n"


def _int_list_text(parts):
    if not parts:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, parts)) + "\n      ]"


def _poly_text(poly):
    terms = poly.terms
    if not terms:
        return "[]"
    return "[\n" + ",\n".join([
        f'        [\n          {e},\n          "{c}"\n        ]'
        for e, c in sorted(terms.items())]) + "\n      ]"


def row_texts(n, tag, rows):
    """The canonical text of the degree-n table tagged ``tag``, given
    its (lam, row) pairs in reverse-lexicographic order: one list of
    pieces per row, then one list holding the closing text.

    Joined, the pieces are the text ``json.dumps`` gives, with an indent
    of two and a final newline, for the document holding format_version,
    n, variable and the entries in that order, the tag on every entry;
    p(n) >= 1, so the entry list is never empty.  Each partition's list
    is formatted once, and the tag escaped once, by ``json.dumps``
    itself; every piece but an entry's poly text is one of those shared
    strings, so the pieces of a whole table hold each text once.
    """
    parts = partitions_of(n)
    lists = {p: _int_list_text(p) for p in parts}
    tag = json.dumps(tag)
    mids = [f'{lists[mu]},\n      "algorithm": {tag},\n      "poly": '
            for mu in parts]
    # the document's opening, then _BETWEEN, precedes each entry's head
    before = (f'{{\n  "format_version": {FORMAT_VERSION},\n'
              f'  "n": {n},\n  "variable": "q",\n  "entries": [\n')
    for lam, row in rows:
        head = f'    {{\n      "lambda": {lists[lam]},\n      "mu": '
        pieces = []
        for mid, poly in zip(mids, row):
            pieces += before, head, mid, _poly_text(poly)
            before = _BETWEEN
        yield pieces
    yield [_END]


def _table_chunks(table):
    """The canonical text of a table in pieces, one list per row, as
    :func:`row_texts` gives them.  The tag is checked to be a string and
    every pair to hold a polynomial before the first list, so a table
    the reader would refuse yields no text.
    """
    if not isinstance(table, CharTable):
        raise ValueError(f"not a CharTable: {type(table).__name__}")
    if type(table.algorithm) is not str:
        raise ValueError(f"the table's tag is not a string: "
                         f"{table.algorithm!r}")
    parts = partitions_of(table.n)
    polys = list(map(table.entries.get, product(parts, repeat=2)))
    if not set(map(type, polys)) <= {LaurentPoly}:
        for key, poly in zip(product(parts, repeat=2), polys):
            if poly is None:
                raise ValueError(f"the table has no entry at {key}")
            if type(poly) is not LaurentPoly:
                raise ValueError(f"the entry at {key} is not a LaurentPoly: "
                                 f"{poly!r}")
    p = len(parts)
    yield from row_texts(table.n, table.algorithm, (
        (lam, polys[i * p:(i + 1) * p]) for i, lam in enumerate(parts)))


def dumps_table(table):
    """Canonical serialization; reading and re-writing is bit-exact."""
    return "".join(chain.from_iterable(_table_chunks(table)))


def loads_table(text):
    """The table a JSON text holds; ValueError for anything else.

    Each entry object becomes its :class:`_Entry` as soon as the parser
    closes it, so its dict and pair lists are freed at once and the
    parsed document is never held in full.  The hook rejects nothing: an
    object that is not an entry, or that has an ``"entries"`` key and so
    may be the document itself, stays a dict for
    :func:`document_to_table`, so a text is accepted exactly when its
    plain parsed document would be.
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise ValueError(f"a table text is str or bytes, not {type(text).__name__}")
    shared = {}

    def convert(obj):
        if "entries" not in obj:
            try:
                return _read_entry(obj, shared)
            except ValueError:
                pass
        return obj

    try:
        doc = json.loads(text, object_hook=convert)
    except RecursionError as err:
        raise ValueError("the table text is nested too deeply") from err
    return document_to_table(doc)


def write_atomic(path, texts):
    """Write the strings ``texts`` to ``path`` atomically: a failed
    write, or an exception from ``texts``, leaves an existing file as it
    was and no temporary file behind.

    A file replaced keeps its mode bits; a new one gets the mode
    ``open(path, "w")`` would give it, 0o666 less the umask.  A symbolic
    link is written through: it stays, and the file it names is written.
    """
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    # not tempfile.mkstemp, whose file is 0o600 whatever the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_table(table, path):
    """Write the table's canonical text to ``path`` by
    :func:`write_atomic`, one row at a time."""
    write_atomic(path, map("".join, _table_chunks(table)))


def load_table(path):
    with open(path, encoding="utf-8") as fh:
        return loads_table(fh.read())


def entry_document(lam, mu, tag, poly):
    """Single-entry JSON object in the same schema as the table cache."""
    return {
        "lambda": list(lam),
        "mu": list(mu),
        "algorithm": tag,
        "poly": poly.to_pairs(),
    }
