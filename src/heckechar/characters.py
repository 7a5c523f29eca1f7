"""Irreducible character values of the type-A Hecke algebra as exact
polynomials in q.

Public entry point is :func:`character`, which dispatches between:

* closed forms for one-row, one-column, hook and two-row shapes, driven
  by two weight sequences obtained from small generating-function
  products;
* the q-deformed Murnaghan-Nakayama recursion over broken border strips;
* the three peeling strategies of :mod:`heckechar.schur` composed with
  the normalization from the generic-variable pairing to the character;
* the power-sum pairing oracle;
* two general reduction formulas ("gen_sn" reduces to symmetric-group
  characters of lower degree, "gen_newton" to Hecke characters of lower
  degree via the Newton transition coefficients).

All routes return the identical polynomial; the value depends only on
the multiset of parts of the lower index, which is sorted on entry.

Note on the weight-sequence symmetry: the hook weights satisfy
a_j(mu;t) = (-1)^len(mu) * t^(-len(mu)) * a_{n-j}(mu;1/t); the version
without the t^(-len(mu)) factor sometimes quoted in the literature fails
already for mu=(1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from .laurent import (
    ZERO, ONE, T, ExactnessError, LaurentPoly, PolyV, RationalFn,
    monomial, polyv_product,
)
from .partitions import (
    check_weights, clear_enumeration_caches, nonzero_length,
    partition_tuples, partitions_of, sort_to_partition, strip_removals,
    sub_compositions, weight,
)
from .schur import (
    _omt_pow, centralizer_order, centralizer_poly_factors,
    classical_character, clear_engine_caches, newton_coeffs,
    pairing_polynomial,
)

_CACHES = []


def _cached(fn):
    fn = lru_cache(maxsize=None)(fn)
    _CACHES.append(fn)
    return fn


T_MINUS_ONE = T - ONE
ONE_MINUS_TINV = ONE - monomial(1, -1)


@_cached
def _qm1_pow(j):
    return T_MINUS_ONE ** j


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

@_cached
def hook_weights(mu):
    """Coefficient sequence of (1 - v/t)^len(mu) * prod [mu_i]_v in v.

    Drives the hook closed form; entry 0 is 1 and the top entry is
    (-1/t)^len(mu).
    """
    factors = [PolyV([ONE, -monomial(1, -1)]) for _ in mu]
    factors += [PolyV([ONE] * m) for m in mu]
    prod = polyv_product(factors)
    n = weight(mu)
    return tuple(prod.coeff(i) for i in range(n + 1))


@_cached
def two_row_weights(mu):
    """Coefficient sequence of prod (1/t + v^mu_i + (1-1/t)[mu_i]_v) in v.

    Palindromic; drives the two-row closed form.
    """
    factors = []
    for m in mu:
        factors.append(PolyV([ONE] + [ONE_MINUS_TINV] * (m - 1) + [ONE]))
    prod = polyv_product(factors)
    n = weight(mu)
    return tuple(prod.coeff(i) for i in range(n + 1))


def hook_character(k, mu):
    """Character at a hook with arm k: the signed tail sum of the hook
    weights evaluated at the character variable."""
    mu = sort_to_partition(mu)
    n = weight(mu)
    if not 1 <= k <= n:
        raise ValueError(f"hook arm {k} out of range 1..{n}")
    a = hook_weights(mu)
    total = ZERO
    for i in range(k, n + 1):
        total = total + a[i].shift(i)
    if (n - k + len(mu)) % 2:
        total = -total
    return total


def two_row_character(k, mu):
    """Character at the two-row shape (k, n-k)."""
    mu = sort_to_partition(mu)
    n = weight(mu)
    if not (n - k <= k <= n):
        raise ValueError(f"two-row arm {k} out of range for n={n}")
    b = two_row_weights(mu)
    diff = b[k] - (b[k + 1] if k + 1 <= n else ZERO)
    return (diff.shift(n - len(mu)))


def two_row_cumulative(mu):
    """Closed form of the sum of all two-row characters at mu:
    q^(n - len(mu)) times the middle two-row weight."""
    mu = sort_to_partition(mu)
    n = weight(mu)
    b = two_row_weights(mu)
    return b[n // 2].shift(n - len(mu))


# -- Murnaghan-Nakayama recursion ---------------------------------------

def broken_strip_weight(comps):
    """(q-1)^(m-1) * prod (-1)^(rows-1) q^(cols-1) over the components."""
    m = len(comps)
    rsum = sum(c.rows - 1 for c in comps)
    csum = sum(c.cols - 1 for c in comps)
    w = _qm1_pow(m - 1).shift(csum)
    return -w if rsum % 2 else w


@_cached
def _mn_cached(lam, mu):
    if not mu:
        return ONE if not lam else ZERO
    k = mu[0]
    rest = mu[1:]
    acc = ZERO
    for nu, comps in strip_removals(lam, k):
        sub = _mn_cached(nu, rest)
        if sub.is_zero():
            continue
        acc = acc + broken_strip_weight(comps) * sub
    return acc


def mn_character(lam, mu):
    """Character by removing a broken border strip for each part of mu,
    largest part first."""
    lam = tuple(lam)
    mu = sort_to_partition(mu)
    check_weights(lam, mu)
    return _mn_cached(lam, mu)


# -- general reduction formulas -----------------------------------------

def character_via_sn(lam, mu):
    """Reduce to classical characters of lower-degree symmetric groups.

    Exact rational accumulation; the final division by (q-1)^len(mu)
    must come out polynomial.
    """
    lam = tuple(lam)
    mu = sort_to_partition(mu)
    check_weights(lam, mu)
    if not lam:
        return ONE
    n = weight(mu)
    la1 = lam[0]
    tail = lam[1:]
    acc = RationalFn(ZERO)
    for i in range(la1, n + 1):
        shift_i = monomial(1, i)
        for tau in sub_compositions(mu, i):
            base = shift_i * (ONE_MINUS_TINV ** nonzero_length(tau))
            rem = tuple(mu[j] - tau[j] for j in range(len(mu)))
            for nu_tuple in partition_tuples(rem):
                lnu = sum(len(b) for b in nu_tuple)
                zint = 1
                zpoly = ONE
                parts = []
                for block in nu_tuple:
                    zint *= centralizer_order(block)
                    zpoly = zpoly * centralizer_poly_factors(block)
                    parts.extend(block)
                for rho in partitions_of(i - la1):
                    chi = classical_character(
                        tail, sort_to_partition(parts + list(rho)))
                    if not chi:
                        continue
                    if (lnu + len(rho)) % 2:
                        chi = -chi
                    acc = acc + RationalFn(
                        base * zpoly * chi, zint * centralizer_order(rho))
    result = acc / RationalFn(_qm1_pow(len(mu)))
    return result.to_laurent()


@_cached
def _newton_at_inverse(m):
    # Newton transition coefficients with the variable inverted once,
    # reused across the recursion
    return {rho: c.invert_variable() for rho, c in newton_coeffs(m).items()}


@_cached
def _via_newton_cached(lam, mu):
    if not lam:
        return ONE if not mu else ZERO
    n = weight(mu)
    la1 = lam[0]
    tail = lam[1:]
    acc = RationalFn(ZERO)
    for i in range(la1, n + 1):
        for tau in sub_compositions(mu, i):
            rem_star = sort_to_partition(mu[j] - tau[j] for j in range(len(mu)))
            base = (ONE_MINUS_TINV ** nonzero_length(tau)) * _qm1_pow(len(rem_star))
            for rho, c in _newton_at_inverse(i - la1).items():
                sub = _via_newton_cached(
                    tail, sort_to_partition(rem_star + rho))
                if sub.is_zero():
                    continue
                acc = acc + c * RationalFn(base * _qm1_pow(len(rho)) * sub)
    result = acc * RationalFn(monomial(1, la1)) / RationalFn(_qm1_pow(len(mu)))
    return result.to_laurent()


def character_via_newton(lam, mu):
    """Reduce to Hecke characters of lower degree through the Newton
    transition coefficients; bottoms out at the empty partition."""
    lam = tuple(lam)
    mu = sort_to_partition(mu)
    check_weights(lam, mu)
    return _via_newton_cached(lam, mu)


# -- dispatch ------------------------------------------------------------

def _closed_form_tag(lam):
    if len(lam) <= 1:
        return "one_row"
    if lam[0] == 1:
        return "one_column"
    if all(p == 1 for p in lam[1:]):
        return "hook"
    if len(lam) == 2:
        return "two_row"
    return "mn"


def _one_row(lam, mu):
    if len(lam) > 1:
        raise ValueError(f"{lam} is not a one-row shape")
    return monomial(1, weight(mu) - len(mu))


def _one_column(lam, mu):
    if any(p != 1 for p in lam):
        raise ValueError(f"{lam} is not a one-column shape")
    s = weight(mu) - len(mu)
    return LaurentPoly.const(-1 if s % 2 else 1)


def _hook_alg(lam, mu):
    if not lam or any(p != 1 for p in lam[1:]):
        raise ValueError(f"{lam} is not a hook")
    return hook_character(lam[0], mu)


def _two_row_alg(lam, mu):
    if not lam or len(lam) > 2:
        raise ValueError(f"{lam} is not a two-row shape")
    return two_row_character(lam[0], mu)


def _via_peel(strategy):
    def run(lam, mu):
        g = pairing_polynomial(lam, mu, strategy)
        return normalize_g_to_chi(g, weight(mu), len(mu))
    return run


ALGORITHMS = {
    "one_row": _one_row,
    "one_column": _one_column,
    "hook": _hook_alg,
    "two_row": _two_row_alg,
    "mn": mn_character,
    "iterative": _via_peel("iterative"),
    "det": _via_peel("det"),
    "strips": _via_peel("strips"),
    "oracle": _via_peel("oracle"),
    "gen_sn": character_via_sn,
    "gen_newton": character_via_newton,
}

ALGORITHM_NAMES = ("auto",) + tuple(ALGORITHMS)

_char_cache = {}


def resolve_algorithm(lam, algorithm="auto"):
    """Concrete algorithm tag used for a query (auto picks the cheapest
    applicable closed form, then the strip recursion)."""
    if algorithm != "auto":
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        return algorithm
    return _closed_form_tag(tuple(lam))


def character(lam, mu, algorithm="auto"):
    """The irreducible character value at (lam, mu) as a polynomial in q.

    ``lam`` must be a partition; ``mu`` may be given in any order and is
    sorted (the value depends only on its part multiset).
    """
    lam = tuple(lam)
    mu = sort_to_partition(mu)
    check_weights(lam, mu)
    if not lam:
        return ONE
    tag = resolve_algorithm(lam, algorithm)
    key = (lam, mu, tag)
    hit = _char_cache.get(key)
    if hit is None:
        hit = _char_cache[key] = ALGORITHMS[tag](lam, mu)
    return hit


def clear_caches():
    """Reset every memo table (the CLI bench mode uses this between runs)."""
    _char_cache.clear()
    for fn in _CACHES:
        fn.cache_clear()
    clear_engine_caches()
    clear_enumeration_caches()


# -- tables and persistence ----------------------------------------------

FORMAT_VERSION = 1


@dataclass
class CharTable:
    """All character values for one degree, with per-entry provenance."""
    n: int
    entries: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def value(self, lam, mu):
        return self.entries[(tuple(lam), sort_to_partition(mu))]


def char_table(n, algorithm="auto"):
    """Fill the full table of character values for degree n.

    Both indices run over the partitions of n in reverse-lexicographic
    order; each entry records the route that produced it.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    table = CharTable(n=n)
    parts = partitions_of(n)
    for lam in parts:
        tag = resolve_algorithm(lam, algorithm)
        for mu in parts:
            table.provenance[(lam, mu)] = tag
            table.entries[(lam, mu)] = character(lam, mu, algorithm)
    return table


def table_to_document(table):
    entries = []
    for lam in partitions_of(table.n):
        for mu in partitions_of(table.n):
            key = (lam, mu)
            entries.append({
                "lambda": list(lam),
                "mu": list(mu),
                "algorithm": table.provenance.get(key, "unknown"),
                "poly": table.entries[key].to_pairs(),
            })
    return {
        "format_version": FORMAT_VERSION,
        "n": table.n,
        "variable": "q",
        "entries": entries,
    }


def document_to_table(doc):
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {doc.get('format_version')!r}")
    if doc.get("variable") != "q":
        raise ValueError(f"unexpected variable {doc.get('variable')!r}")
    table = CharTable(n=doc["n"])
    for entry in doc["entries"]:
        key = (tuple(entry["lambda"]), tuple(entry["mu"]))
        table.entries[key] = LaurentPoly.from_pairs(entry["poly"])
        table.provenance[key] = entry["algorithm"]
    return table


def dumps_table(table):
    """Canonical serialization; reading and re-writing is bit-exact."""
    return json.dumps(table_to_document(table), indent=2) + "\n"


def loads_table(text):
    return document_to_table(json.loads(text))


def save_table(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_table(table))


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
