"""Irreducible character values of the type-A Hecke algebra as exact
polynomials in q.

Public entry point is :func:`character`, which runs one of:

* the q-deformed Murnaghan-Nakayama recursion over broken border strips
  (``mn``, also what ``auto`` means for every shape); it evaluates at
  q = 2^64, one int per value with a bound on its L1 norm, and reads the
  coefficients back as balanced base-2^64 digits; a value whose bound
  reaches 2^63 (at mu = 1^n the bound is the number of standard
  tableaux) is summed over its strips in polynomial arithmetic instead;
* closed forms for one-row, one-column, hook and two-row shapes, driven
  by two weight sequences obtained from small generating-function
  products; each is an explicit route only, chosen by its name;
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
import os
import tempfile
from dataclasses import dataclass, field
from itertools import chain
from math import factorial, prod

from .laurent import (
    ZERO, ONE, T, ExactnessError, LaurentPoly, monomial, pack, unpack,
)
# clear_caches is re-exported: the CLI and the benchmark call it from here
from .partitions import (
    MEMOS, cached, check_composition, check_indices, clear_caches,
    conjugate, nonzero_length, partition_count, partitions_of,
    sort_to_partition, strip_removals, sub_compositions, weight,
)
from .schur import (
    _classical_mn, _omt_pow, _power_sum_terms, centralizer_order,
    centralizer_poly_factors, newton_coeffs, pairing_polynomial,
)

# this module's memos; the benchmark tracer's memo_sizes reads the view
_CACHES = MEMOS.setdefault(__name__, [])

T_MINUS_ONE = T - ONE
ONE_MINUS_TINV = ONE - monomial(1, -1)


@cached
def _qm1_pow(j):
    return T_MINUS_ONE ** j


@cached
def _omtinv_pow(j):
    return ONE_MINUS_TINV ** j


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


@cached
def hook_weights(mu):
    """Coefficient sequence of (1 - v/t)^len(mu) * prod [mu_i]_v in v.

    Drives the hook closed form; entry 0 is 1 and the top entry, at
    v^|mu|, is (-1/t)^len(mu).
    """
    return _v_product([[ONE, -monomial(1, -1)] for _ in mu] +
                      [[ONE] * m for m in mu])


@cached
def two_row_weights(mu):
    """Coefficient sequence of prod (1/t + v^mu_i + (1-1/t)[mu_i]_v) in v.

    Palindromic, from 1 at v^0 to 1 at v^|mu|; drives the two-row closed
    form.
    """
    return _v_product([ONE] + [ONE_MINUS_TINV] * (m - 1) + [ONE] for m in mu)


def two_row_cumulative(mu):
    """Closed form of the sum of all two-row characters at mu:
    q^(n - len(mu)) times the middle two-row weight."""
    mu = sort_to_partition(check_composition(mu))
    n = weight(mu)
    b = two_row_weights(mu)
    return b[n // 2].shift(n - len(mu))


# -- Murnaghan-Nakayama recursion ---------------------------------------

@cached
def _strip_weight(m, odd_rows, csum):
    w = _qm1_pow(m - 1).shift(csum)
    return -w if odd_rows else w


@cached
def _packed_weight(m, odd_rows, csum):
    return pack(_strip_weight(m, odd_rows, csum))


def _weight_key(comps):
    """(m, parity of the sum of rows - 1, sum of cols - 1) over the
    components: all the strip weight depends on."""
    return (len(comps), sum(c.rows - 1 for c in comps) % 2,
            sum(c.cols - 1 for c in comps))


def broken_strip_weight(comps):
    """(q-1)^(m-1) * prod (-1)^(rows-1) q^(cols-1) over the components."""
    return _strip_weight(*_weight_key(comps))


@cached
def _mn_strips(lam, k):
    """(nu, packed weight, 2^(m-1)) for each broken k-strip lam/nu; the
    last is the L1 norm of the weight."""
    return tuple(
        (nu, _packed_weight(*_weight_key(comps)), 1 << (len(comps) - 1))
        for nu, comps in strip_removals(lam, k))


@cached
def _mn_cached(lam, mu):
    """(chi(Q), L) at Q = 2^64: the character packed, and a bound on its
    L1 norm, the sum over strips of 2^(m-1) * L(sub)."""
    if not mu:
        return (0, 0) if lam else (1, 1)
    rest = mu[1:]
    v = norm = 0
    for nu, w, w_norm in _mn_strips(lam, mu[0]):
        sub, sub_norm = _mn_cached(nu, rest)
        if sub:
            v += w * sub
            norm += w_norm * sub_norm
    return v, norm


def _mn_value(lam, mu):
    """Character by removing a broken border strip for each part of mu,
    largest part first: the packed value read back, or, when its bound
    is too wide for a 64-bit digit, the strip sum of its sub-values in
    polynomial arithmetic."""
    try:
        return unpack(*_mn_cached(lam, mu))
    except OverflowError:
        return _mn_wide(lam, mu)


@cached
def _mn_wide(lam, mu):
    acc = ZERO
    for nu, comps in strip_removals(lam, mu[0]):
        acc = acc + broken_strip_weight(comps) * _mn_value(nu, mu[1:])
    return acc


# -- general reduction formulas -----------------------------------------

def _first_row_terms(lam, mu):
    """The terms of the first row's vertex operator: for lam_1 <= i <= n
    and each tau in sub_compositions(mu, i), the triple
    (i, mu - tau, (1 - 1/t)^nz(tau))."""
    for i in range(lam[0], weight(mu) + 1):
        for tau in sub_compositions(mu, i):
            yield (i, tuple(m - x for m, x in zip(mu, tau)),
                   _omtinv_pow(nonzero_length(tau)))


def _via_sn(lam, mu):
    """Reduce to classical characters of lower-degree symmetric groups.

    Each term's denominator z * z_rho divides (n - lam_1)!: the block
    sizes n_j (the parts of mu - tau, and i - lam_1) sum to n - lam_1,
    each n_j! / z_{rho_j} is a class size of S_{n_j}, and a product of
    the n_j! divides (n - lam_1)!.  So integer numerators are summed
    over that one denominator and a single exact division ends the sum.
    """
    la1 = lam[0]
    tail = lam[1:]
    fact = factorial(weight(mu) - la1)
    acc = ZERO
    for i, rem, w in _first_row_terms(lam, mu):
        base = w.shift(i)
        for nu, z in _power_sum_terms(rem):
            numer = 0
            for rho in partitions_of(i - la1):
                # valid indices by construction: nu and rho make a
                # partition of n - lam_1 = |tail|
                chi = _classical_mn(tail, sort_to_partition(nu + rho))
                if (len(nu) + len(rho)) % 2:
                    chi = -chi
                numer += chi * (fact // (z * centralizer_order(rho)))
            if numer:
                acc = acc + base * centralizer_poly_factors(nu) * numer
    return acc.divexact(_qm1_pow(len(mu)) * fact)


@cached
def _newton_scaled(top):
    # P(1/t), and newton_coeffs(m) * P at 1/t * (t-1)^len(rho), m <= top
    p = prod((monomial(1, k) - ONE for k in range(1, top + 1)), start=ONE)
    return p.invert_variable(), [
        {rho: (c * p).to_laurent().invert_variable() * _qm1_pow(len(rho))
         for rho, c in newton_coeffs(m).items()} for m in range(top + 1)]


@cached
def _via_newton_cached(lam, mu):
    """Reduce to Hecke characters of lower degree through the Newton
    transition coefficients; bottoms out at the empty partition.

    Every newton_coeffs(m) used here has m <= top = n - lam_1, so its
    denominators divide P = prod_{k <= top} (t^k - 1).  The sum runs over
    the coefficients times P, all at 1/t, grouped by tau, and one exact
    division by P(1/t) * (t-1)^len(mu) ends it."""
    if not lam:
        return ONE if not mu else ZERO
    la1 = lam[0]
    tail = lam[1:]
    den, scaled = _newton_scaled(weight(mu) - la1)
    acc = ZERO
    for i, rem, w in _first_row_terms(lam, mu):
        rem_star = sort_to_partition(rem)
        inner = ZERO
        for rho, c in scaled[i - la1].items():
            sub = _via_newton_cached(tail, sort_to_partition(rem_star + rho))
            inner = inner + c * sub
        acc = acc + inner * (w * _qm1_pow(len(rem_star)))
    return acc.shift(la1).divexact(den * _qm1_pow(len(mu)))


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
    a = hook_weights(mu)
    total = ZERO
    for i in range(k, n + 1):
        total = total + a[i].shift(i)
    return -total if (n - k + len(mu)) % 2 else total


def _two_row(lam, mu):
    """Two-row shape (k, n-k), k = lam_1."""
    if len(lam) > 2:
        raise ValueError(f"{lam} is not a two-row shape")
    n, k = weight(mu), lam[0]
    b = two_row_weights(mu)
    diff = b[k] - (b[k + 1] if k < n else ZERO)
    return diff.shift(n - len(mu))


def _via_peel(strategy):
    def run(lam, mu):
        g = pairing_polynomial(lam, mu, strategy)
        return normalize_g_to_chi(g, weight(mu), len(mu))
    return run


# Routes get valid indices and a nonempty lam (character() checks them,
# char_table builds them, _run answers the empty pair), so each maps to
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
    "gen_newton": _via_newton_cached,
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


@dataclass
class CharTable:
    """All character values for one degree, with per-entry provenance."""
    n: int
    entries: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def value(self, lam, mu):
        return self.entries[(tuple(lam), sort_to_partition(mu))]


def _mirror(poly, s):
    """(-q)^s * poly(1/q): the duality's image of a value, with
    s = n - len(mu)."""
    return LaurentPoly._raw({s - e: -c if s % 2 else c
                             for e, c in poly.terms.items()})


def char_table(n, algorithm="auto"):
    """Fill the full table of character values for degree n.

    Both indices run over the partitions of n in reverse-lexicographic
    order.  The route runs on the rows with lam >= lam' (as tuples); each
    other row is read off its conjugate's row, which that order fills
    first, through the duality
    chi^lam_mu(q) = (-q)^(n - len(mu)) * chi^lam'_mu(1/q).  The route
    also computes a mirrored row's entry at mu = (n), which must equal
    the mirrored value (ExactnessError otherwise) and lets a closed form
    reject a shape outside its family.  Each entry's tag names the route
    whose values fill the table; about half of them are read through the
    duality.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a non-negative int, not {n!r}")
    tag = resolve_algorithm(algorithm)
    route = ALGORITHMS[tag]
    table = CharTable(n=n)
    entries, provenance = table.entries, table.provenance
    parts = partitions_of(n)
    # valid indices by construction, so no check_indices
    for lam in parts:
        conj = conjugate(lam)
        if conj > lam:
            probe = _run(route, lam, parts[0])
            row = [_mirror(entries[(conj, mu)], n - len(mu))
                   for mu in parts]
            if row[0] != probe:
                raise ExactnessError(
                    f"duality fails at lambda={lam}, mu={parts[0]}: the "
                    f"route gives {probe.format('q')}, the mirror "
                    f"{row[0].format('q')}")
        else:
            row = [_run(route, lam, mu) for mu in parts]
        for mu, value in zip(parts, row):
            provenance[(lam, mu)] = tag
            entries[(lam, mu)] = value
    return table


def document_to_table(doc):
    """The table a parsed document holds.

    Every field must be in the form the writer emits: int degree and
    parts, string tags, polynomials as :meth:`LaurentPoly.from_pairs`
    requires them, and each pair of partitions of ``n`` once.  Anything
    else raises ValueError, so a loaded table writes back the same
    values and tags it was read from.
    """
    if not isinstance(doc, dict):
        raise ValueError("a table document must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    if doc.get("variable") != "q":
        raise ValueError(f"unexpected variable {doc.get('variable')!r}")
    n = doc.get("n")
    if type(n) is not int or n < 0:
        raise ValueError(f"bad degree n={n!r}")
    entries = doc.get("entries")
    # p(n) >= n, so n * n bounds the recurrence's work by the entry count
    if not isinstance(entries, list) or n * n > len(entries) or \
            partition_count(n) ** 2 != len(entries):
        raise ValueError(f"a table of degree {n} needs p({n})^2 entries")
    table = CharTable(n=n)
    try:
        for entry in entries:
            key = (tuple(entry["lambda"]), tuple(entry["mu"]))
            tag = entry["algorithm"]
            if type(tag) is not str:
                raise ValueError(f"tag {tag!r} at {key} is not a string")
            table.entries[key] = LaurentPoly.from_pairs(entry["poly"])
            table.provenance[key] = tag
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed table entry: {err!r}") from err
    # no key twice, every part an int (True and 1.0 hash and compare like
    # 1, so only their type tells them apart), and each index a partition
    # of n: every pair once
    parts, keys = set(partitions_of(n)), table.entries.keys()
    indices = chain.from_iterable(keys)
    if len(entries) != len(keys) or \
            set(map(type, chain.from_iterable(indices))) - {int} or \
            {lam for lam, _ in keys} | {mu for _, mu in keys} != parts:
        raise ValueError(f"the entries are not each pair of partitions of {n} once")
    return table


# An entry of the table text exactly as json.dumps lays it out with an
# indent of two spaces: entries at depth 2, their lists at depth 3, the
# [exponent, "coefficient"] pairs at depth 4.
_ENTRY = ('    {\n      "lambda": %s,\n      "mu": %s,\n'
          '      "algorithm": %s,\n      "poly": %s\n    }')


def _int_list_text(parts):
    if not parts:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, parts)) + "\n      ]"


def _poly_text(poly):
    terms = poly.terms
    if not terms:
        return "[]"
    return "[\n" + ",\n".join(
        f'        [\n          {e},\n          "{terms[e]}"\n        ]'
        for e in sorted(terms)) + "\n      ]"


def _table_chunks(table):
    """The canonical text of a table, one entry per chunk.

    Joined, the chunks are the text ``json.dumps`` gives, with an indent
    of two and a final newline, for the document holding format_version,
    n, variable and the entries in reverse-lexicographic (lambda, mu)
    order, with a missing tag written as "unknown"; p(n) >= 1, so the
    entry list is never empty.  Each partition's list is formatted once
    and each tag escaped once, by ``json.dumps`` itself.
    """
    parts = partitions_of(table.n)
    lists = {p: _int_list_text(p) for p in parts}
    tags = {}
    yield (f'{{\n  "format_version": {FORMAT_VERSION},\n'
           f'  "n": {table.n},\n  "variable": "q",\n  "entries": [\n')
    sep = ""
    for lam in parts:
        for mu in parts:
            key = (lam, mu)
            tag = table.provenance.get(key, "unknown")
            if tag not in tags:
                tags[tag] = json.dumps(tag)
            yield sep + _ENTRY % (lists[lam], lists[mu], tags[tag],
                                  _poly_text(table.entries[key]))
            sep = ",\n"
    yield "\n  ]\n}\n"


def dumps_table(table):
    """Canonical serialization; reading and re-writing is bit-exact."""
    return "".join(_table_chunks(table))


def loads_table(text):
    return document_to_table(json.loads(text))


def save_table(table, path):
    """Write atomically: a failed save leaves an existing file as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(_table_chunks(table))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
