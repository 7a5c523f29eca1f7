import functools
import hashlib
import importlib
import json
import pkgutil
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from heckechar.laurent import (
    ONE, T, ZERO, ExactnessError, LaurentPoly, RationalFn, monomial, pack,
)
from heckechar.partitions import (
    format_partition, partitions_of, standard_tableaux_count, strip_removals,
)
from heckechar.schur import classical_character, pairing_polynomial
from heckechar.characters import (
    ALGORITHMS, ALGORITHM_NAMES, CharTable, char_table, character,
    document_to_table, dumps_table, entry_document, hook_weights,
    loads_table, normalize_g_to_chi, resolve_algorithm, _v_product, two_row_cumulative, two_row_weights, broken_strip_weight,
    _mn_cached, _mn_strips, clear_caches,
)

from oracles import reference_document

OMT = ONE - T
TINV = monomial(1, -1)


def sub_composition_weight_sum(mu, i, kind):
    """The defining sums for the weight sequences, as rational functions.

    Independent of the generating-function products the library uses.
    """
    from heckechar.partitions import nonzero_length, sub_compositions
    l = len(mu)
    total = RationalFn(ZERO)
    for tau in sub_compositions(mu, i):
        rem_len = sum(1 for j in range(l) if mu[j] - tau[j])
        tau_len = nonzero_length(tau)
        if kind == "hook":
            total = total + RationalFn(
                OMT ** rem_len * (ONE - TINV) ** tau_len)
        else:
            total = total + RationalFn((ONE - TINV) ** (rem_len + tau_len))
    if kind == "hook":
        return total / RationalFn(OMT ** l)
    return total / RationalFn((ONE - TINV) ** l)


def test_normalize_examples():
    assert normalize_g_to_chi(4 * OMT ** 6, 6, 4) == 4 * (T - ONE) ** 2
    assert normalize_g_to_chi(OMT * monomial(-1, 1), 3, 1) == monomial(-1, 1)
    for lam in partitions_of(5):
        f = standard_tableaux_count(lam)
        assert normalize_g_to_chi(OMT ** 5 * f, 5, 5) == LaurentPoly.const(f)


def test_normalize_rejects_garbage():
    with pytest.raises(ExactnessError):
        normalize_g_to_chi(ONE + T, 2, 1)


def test_golden_character_values():
    assert character((6, 1, 1), (2, 2, 2, 2)) == LaurentPoly({2: 6, 3: -12, 4: 3})
    assert character((4, 2), (3, 2, 1)) == LaurentPoly({1: 1, 2: -3, 3: 2})
    assert character((2, 1), (3,)) == monomial(-1, 1)
    assert character((2, 1), (2, 1)) == T - ONE
    assert character((2, 1), (1, 1, 1)) == LaurentPoly.const(2)
    assert character((3, 2, 1), (2, 2, 1, 1)) == 4 * (T - ONE) ** 2


def test_one_row_one_column_laws():
    for n in range(1, 8):
        for mu in partitions_of(n):
            l = len(mu)
            assert character((n,), mu) == monomial(1, n - l)
            assert character((1,) * n, mu) == \
                LaurentPoly.const(-1 if (n - l) % 2 else 1)


def test_v_product():
    # products of polynomials in the auxiliary variable v of the weights
    two_factors = _v_product([[ONE, ONE], [ONE, ONE]])
    assert two_factors == (ONE, LaurentPoly.const(2), ONE)
    tinv = monomial(1, -1)
    mixed = _v_product([[ONE, -tinv], [ONE, ONE]])
    assert mixed == (ONE, ONE - tinv, -tinv)


def test_weight_sequences_frozen():
    a = hook_weights((2, 1))
    assert list(a) == [ONE, ONE - 2 * TINV, TINV * TINV - 2 * TINV, TINV * TINV]
    assert hook_weights((3,))[0] == ONE
    assert two_row_weights((3, 2, 1))[0] == ONE


def test_weight_sequences_match_defining_sums():
    for n in range(1, 7):
        for mu in partitions_of(n):
            a = hook_weights(mu)
            b = two_row_weights(mu)
            for i in range(n + 1):
                assert RationalFn(a[i]) == \
                    sub_composition_weight_sum(mu, i, "hook"), (mu, i)
                assert RationalFn(b[i]) == \
                    sub_composition_weight_sum(mu, i, "two_row"), (mu, i)


def test_weight_sequence_identities():
    for n in range(1, 9):
        for mu in partitions_of(n):
            a = hook_weights(mu)
            b = two_row_weights(mu)
            assert a[0] == ONE and b[0] == ONE
            total = ZERO
            for i, ai in enumerate(a):
                total = total + ai.shift(i)
            assert total.is_zero(), mu
            l = len(mu)
            for j in range(n + 1):
                sym = a[n - j].invert_variable().shift(-l)
                if l % 2:
                    sym = -sym
                assert a[j] == sym, (mu, j)
                assert b[j] == b[n - j], (mu, j)


def test_paper_symmetry_without_correction_fails():
    # the remark-form symmetry, missing the t^(-l) factor, is false
    a = hook_weights((1,))
    assert a[0] != -a[1].invert_variable()


def test_hook_character():
    assert character((6, 1, 1), (2, 2, 2, 2), "hook") == \
        LaurentPoly({2: 6, 3: -12, 4: 3})
    for n in range(1, 8):
        for mu in partitions_of(n):
            assert character((n,), mu, "hook") == monomial(1, n - len(mu))
            for k in range(1, n + 1):
                lam = (k,) + (1,) * (n - k)
                assert character(lam, mu, "hook") == \
                    character(lam, mu, "mn"), (k, mu)
    # the route takes hooks of the weight of mu only, and int parts
    with pytest.raises(ValueError):
        character((2, 2), (2, 1, 1), "hook")
    with pytest.raises(ValueError):
        character((4,), (2, 1), "hook")
    for arm in (True, 1.0):
        with pytest.raises(ValueError):
            character((arm,), (1,), "hook")


def test_two_row_character():
    assert character((4, 2), (3, 2, 1), "two_row") == \
        LaurentPoly({1: 1, 2: -3, 3: 2})
    for n in range(1, 9):
        for mu in partitions_of(n):
            assert character((n,), mu, "two_row") == monomial(1, n - len(mu))
            for k in range((n + 1) // 2, n + 1):
                lam = (k, n - k) if n - k else (k,)
                assert character(lam, mu, "two_row") == \
                    character(lam, mu, "mn")
    with pytest.raises(ValueError):
        character((1, 1, 1), (3,), "two_row")
    for arm in (True, 1.0):
        with pytest.raises(ValueError):
            character((arm,), (1,), "two_row")


def test_two_row_cumulative():
    for n in range(1, 9):
        for mu in partitions_of(n):
            total = ZERO
            for i in range(n // 2 + 1):
                lam = (n - i, i) if i else (n,)
                total = total + character(lam, mu)
            assert total == two_row_cumulative(mu), mu


def test_mn_specializes_to_classical():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert character(lam, mu, "mn").evaluate_at_one() == \
                    classical_character(lam, mu)


def test_reduction_to_symmetric_group():
    assert character((2, 1), (1, 1, 1), "gen_sn") == LaurentPoly.const(2)
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert character((n,), mu, "gen_sn") == monomial(1, n - len(mu))
            for lam in partitions_of(n):
                assert character(lam, mu, "gen_sn") == \
                    character(lam, mu, "mn")


def test_reduction_via_newton():
    assert character((1,), (1,), "gen_newton") == ONE
    assert character((2, 1), (3,), "gen_newton") == monomial(-1, 1)
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert character(lam, mu, "gen_newton") == \
                    character(lam, mu, "mn")


def test_all_algorithms_coincide():
    algs = tuple(ALGORITHMS)
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                ref = character(lam, mu, "mn")
                for alg in algs:
                    if alg == "one_row" and len(lam) > 1:
                        continue
                    if alg == "one_column" and lam and lam[0] != 1:
                        continue
                    if alg == "hook" and any(p != 1 for p in lam[1:]):
                        continue
                    if alg == "two_row" and len(lam) > 2:
                        continue
                    assert character(lam, mu, alg) == ref, (lam, mu, alg)


def test_polynomiality_and_degree_bound():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                chi = character(lam, mu)
                assert chi.is_polynomial(), (lam, mu)
                if not chi.is_zero():
                    assert chi.max_exp() <= n - len(mu), (lam, mu)


def test_character_interface():
    assert character((), ()) == ONE
    # the route name is checked at the empty pair too, as char_table(0) does
    with pytest.raises(ValueError):
        character((), (), "bogus")
    # the lower index is a multiset
    assert character((3, 1), (1, 2, 1)) == character((3, 1), (2, 1, 1))
    # zero parts of the lower index are dropped
    assert character((3, 1), (2, 0, 2)) == character((3, 1), (2, 2))
    # auto is the strip recursion for every shape
    assert resolve_algorithm() == "mn"
    assert resolve_algorithm("auto") == "mn"
    assert resolve_algorithm("hook") == "hook"
    assert resolve_algorithm("oracle") == "oracle"
    with pytest.raises(ValueError):
        resolve_algorithm("nope")
    with pytest.raises(ValueError):
        character((2,), (1, 1, 1))
    with pytest.raises(ValueError):
        character((2, 1), (2, 1), "nope")
    # an unhashable name is an unknown name, not a TypeError
    with pytest.raises(ValueError):
        char_table(2, ["mn"])
    with pytest.raises(ValueError):
        character((2, 1), (2, 1), ["mn"])
    # the degree of a table is an int; a bool one would be written as
    # "n": True, which is not JSON
    for n in (-1, True, 2.0, "3", None):
        with pytest.raises(ValueError):
            char_table(n)


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@pytest.mark.parametrize("lam, mu", [
    ((2, 3), (5,)),           # lambda not a partition
    ((3, 0), (3,)),           # zero part in lambda
    ((3,), (4, -1)),          # negative part in mu
    ((2,), (1.0, 1.0)),       # non-int parts in mu
    ((True,), (1,)),          # a bool is not a part
    ((1,), (True,)),
    (None, (1,)),             # an index that is not iterable
    ((1,), 5),
])
def test_character_rejects_malformed_indices(lam, mu, algorithm):
    with pytest.raises(ValueError):
        character(lam, mu, algorithm)


def test_closed_form_algorithms_reject_wrong_shapes():
    with pytest.raises(ValueError):
        character((3, 2), (3, 2), "hook")
    with pytest.raises(ValueError):
        character((2, 2, 1), (2, 2, 1), "two_row")
    with pytest.raises(ValueError):
        character((2, 1), (2, 1), "one_row")
    with pytest.raises(ValueError):
        character((2, 1), (2, 1), "one_column")
    # and they accept everything they claim to cover
    assert character((3,), (2, 1), "hook") == character((3,), (2, 1), "mn")
    assert character((3,), (2, 1), "two_row") == character((3,), (2, 1), "mn")


def test_clear_caches_resets_state():
    import heckechar
    from heckechar import characters, partitions, schur
    from heckechar.characters import clear_caches, _mn_cached
    from heckechar.applications import bitrace, entry_weight
    from heckechar.partitions import MEMOS
    character((3, 2, 1), (2, 2, 1, 1))
    bitrace((2, 1), (3,))
    assert _mn_cached.cache_info().currsize
    assert entry_weight.cache_info().currsize
    clear_caches()
    assert _mn_cached.cache_info().currsize == 0
    assert entry_weight.cache_info().currsize == 0
    assert character((3, 2, 1), (2, 2, 1, 1)) == 4 * (T - ONE) ** 2

    # one registry: every memo of every module is listed under the module
    # that defines it, and the per-module views are those same lists
    modules = [importlib.import_module(f"heckechar.{info.name}")
               for info in pkgutil.iter_modules(heckechar.__path__)]
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                assert value in MEMOS[value.__module__], value
    for module in (partitions, schur, characters):
        assert module._CACHES is MEMOS[module.__name__]
    assert entry_weight in MEMOS["heckechar.applications"]
    assert entry_weight not in characters._CACHES

    # and clear_caches empties all of them, whichever route filled them
    shapes = {"one_row": (3,), "one_column": (1, 1, 1)}
    for algorithm in ALGORITHM_NAMES:
        character(shapes.get(algorithm, (2, 1)), (2, 1), algorithm)
    for method in ("matrices", "char_sum"):
        bitrace((2, 1), (2, 1), method)
    clear_caches()
    for memos in MEMOS.values():
        for fn in memos:
            assert fn.cache_info().currsize == 0, fn


def test_character_memo_thread_consistency():
    pairs = [(lam, mu) for lam in partitions_of(5) for mu in partitions_of(5)]
    expected = [character(lam, mu) for lam, mu in pairs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda p: character(*p), pairs * 3))
    assert got == expected * 3


def test_small_tables():
    t2 = char_table(2)
    assert t2.value((2,), (2,)) == T
    assert t2.value((2,), (1, 1)) == ONE
    assert t2.value((1, 1), (2,)) == -ONE
    assert t2.value((1, 1), (1, 1)) == ONE

    t3 = char_table(3)
    column = [t3.value(lam, (1, 1, 1)) for lam in partitions_of(3)]
    assert column == [ONE, 2 * ONE, ONE]

    for algorithm in ALGORITHM_NAMES:
        t0 = char_table(0, algorithm)
        assert t0.value((), ()) == ONE
        assert t0.provenance[((), ())] == resolve_algorithm(algorithm)


def test_packed_strip_weights_are_the_strip_weights():
    # the packed recursion multiplies by exactly the weight verify checks
    for n in range(1, 9):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                packed = _mn_strips(lam, k)
                strips = strip_removals(lam, k)
                assert [nu for nu, _, _ in packed] == [nu for nu, _ in strips]
                for (_, w, norm), (_, comps) in zip(packed, strips):
                    assert w == pack(broken_strip_weight(comps))
                    assert norm == 2 ** (len(comps) - 1)


def test_packed_table_matches_dict_route():
    # cross-checks the packed-int recursion (mn) against a route on
    # LaurentPoly dict arithmetic (strips); TABLE_DIGESTS pins mn alone.
    # Both tables mirror the same rows, so this compares the rows with
    # lam >= lam'; the per-entry test below checks the mirrored ones
    packed, peeled = char_table(9, "mn"), char_table(9, "strips")
    assert packed.entries.keys() == peeled.entries.keys()
    for key, value in packed.entries.items():
        assert value == peeled.entries[key], key


@pytest.mark.parametrize("algorithm, n_max", [("auto", 10)] + [
    (alg, 6) for alg in
    ("strips", "det", "iterative", "oracle", "gen_sn", "gen_newton")])
def test_table_matches_per_entry_character(algorithm, n_max):
    # character() runs the route on every entry, mirrored rows included
    for n in range(n_max + 1):
        parts = partitions_of(n)
        table = char_table(n, algorithm)
        assert list(table.entries) == [(lam, mu) for lam in parts
                                       for mu in parts]
        for (lam, mu), value in table.entries.items():
            assert value == character(lam, mu, algorithm), (lam, mu)


CLOSED_FORM_FAMILIES = {
    "one_row": lambda lam: len(lam) <= 1,
    "one_column": lambda lam: all(p == 1 for p in lam),
    "hook": lambda lam: all(p == 1 for p in lam[1:]),
    "two_row": lambda lam: len(lam) <= 2,
}


@pytest.mark.parametrize("name", CLOSED_FORM_FAMILIES)
def test_closed_form_tables_reject_shapes_outside_the_family(name):
    # a mirrored row still runs the route at mu = (n), so a closed form
    # raises at the first shape it does not cover, mirrored or not
    for n in range(7):
        outside = [lam for lam in partitions_of(n)
                   if not CLOSED_FORM_FAMILIES[name](lam)]
        if not outside:
            assert char_table(n, name).entries == char_table(n).entries
            continue
        with pytest.raises(ValueError) as want:
            character(outside[0], (n,), name)
        with pytest.raises(ValueError) as got:
            char_table(n, name)
        assert str(got.value) == str(want.value), (n, name)


def test_closed_form_tables_raise_at_mirrored_rows():
    # each failing row is the mirror of a row the closed form covers
    for n, name, lam in ((2, "one_row", (1, 1)), (3, "two_row", (1, 1, 1)),
                         (4, "two_row", (2, 1, 1))):
        with pytest.raises(ValueError, match=re.escape(str(lam))):
            char_table(n, name)


def test_table_probe_catches_a_broken_mirror(monkeypatch):
    # negative control: one wrong value at ((3, 1), (4,)) is mirrored into
    # the row (2, 1, 1), where the route's own entry at (4,) disagrees
    clear_caches()
    right = ALGORITHMS["mn"]
    with monkeypatch.context() as m:
        m.setitem(ALGORITHMS, "mn", lambda lam, mu: right(lam, mu) + (
            ONE if (lam, mu) == ((3, 1), (4,)) else ZERO))
        with pytest.raises(ExactnessError,
                           match=re.escape("lambda=(2, 1, 1), mu=(4,)")):
            char_table(4)
    clear_caches()
    assert char_table(4).entries == char_table(4, "strips").entries


def test_wide_bound_falls_back_to_polynomials():
    # at mu = 1^49 the bound is f^lam, about 4.7e23 for lam = 7^7: past
    # one 64-bit digit, so the value is summed from its strips
    lam = (7,) * 7
    ones = (1,) * 49
    assert _mn_cached(lam, ones)[1] == standard_tableaux_count(lam) >= 2 ** 63
    assert character(lam, ones) == standard_tableaux_count(lam) * ONE

    @functools.cache
    def reference(lam, mu):
        # the strip recursion on LaurentPoly arithmetic throughout
        if not mu:
            return ZERO if lam else ONE
        return sum((broken_strip_weight(comps) * reference(nu, mu[1:])
                    for nu, comps in strip_removals(lam, mu[0])), ZERO)

    mixed = (3, 2, 2) + (1,) * 42
    assert _mn_cached(lam, mixed)[1] >= 2 ** 63
    assert character(lam, mixed) == reference(lam, mixed)


def test_table_q1_matches_classical():
    t5 = char_table(5)
    for lam in partitions_of(5):
        for mu in partitions_of(5):
            assert t5.value(lam, mu).evaluate_at_one() == \
                classical_character(lam, mu)


def test_table_value_independent_of_algorithm():
    auto = char_table(4)
    oracle = char_table(4, algorithm="oracle")
    assert auto.entries == oracle.entries
    assert auto.entries == char_table(4, algorithm="mn").entries
    assert set(auto.provenance.values()) == {"mn"}
    assert set(oracle.provenance.values()) == {"oracle"}


def test_table_round_trip_bit_exact():
    table = char_table(4)
    text = dumps_table(table)
    again = loads_table(text)
    assert dumps_table(again) == text
    assert again.entries == table.entries
    doc = reference_document(table)
    assert doc["format_version"] == 1
    assert doc["n"] == 4
    assert doc["variable"] == "q"
    first = doc["entries"][0]
    assert list(first) == ["lambda", "mu", "algorithm", "poly"]
    # reverse-lexicographic entry order, as the library enumerates
    keys = [(tuple(e["lambda"]), tuple(e["mu"])) for e in doc["entries"]]
    assert keys == [(lam, mu) for lam in partitions_of(4)
                    for mu in partitions_of(4)]


def edge_case_table():
    """A degree-2 table with what the writer must escape or order: a zero
    polynomial, a negative exponent, a coefficient above 2**64, a tag
    with a quote, a newline and a non-ASCII letter, and a missing tag."""
    table = CharTable(n=2)
    values = {
        ((2,), (2,)): ZERO,
        ((2,), (1, 1)): LaurentPoly({-3: 1, 0: -2, 5: 7}),
        ((1, 1), (2,)): LaurentPoly({2: 3 ** 50, 1: -(2 ** 70)}),
        ((1, 1), (1, 1)): ONE,
    }
    tags = {((2,), (2,)): "mn", ((2,), (1, 1)): 'quo"te\nand é',
            ((1, 1), (2,)): "oracle"}
    table.entries.update(values)
    table.provenance.update(tags)
    return table


def test_writer_matches_the_reference_document():
    tables = [char_table(n) for n in range(11)] + [edge_case_table()]
    for table in tables:
        assert dumps_table(table) == \
            json.dumps(reference_document(table), indent=2) + "\n", table.n
    # the edge cases read back as written, the missing tag as "unknown"
    edge = edge_case_table()
    again = loads_table(dumps_table(edge))
    assert again.entries == edge.entries
    assert again.provenance[((1, 1), (1, 1))] == "unknown"
    assert dumps_table(again) == dumps_table(edge)


# SHA-256 of the (lambda, mu, to_pairs()) rows of char_table(n) for
# n = 0..10: the values alone, independent of the provenance tags
VALUE_DIGESTS = (
    "48a92cf11c8baddf719f5d65500a4674f743b732d95f75bbb040dd6b36e5fa1a",
    "17c26e7e2a0ed4b9981ce07e770efe416932ee9e8c7140c408d7d375dbdfa45b",
    "f26569ae9096cd78f2fcfed97ece2fd6ebb01ba0960fd5736b456b81cf38ca7c",
    "d702c70f20629fb98cab6d00dce74dc1ad8ec2ef560e4485ad4402c9b7cdd9da",
    "4781f72f89cbd3eb84473566bf037519c3e7cfaa89cd0f06a7acfe4329075324",
    "701a34df61848ddd603974bf3efeac273cd61e5f5ea800e9085302abd55b8815",
    "d476b4db3323ceab963af93ae671ec0341a37e7eab6639c59d032896ad3dce8d",
    "4e59fee5aa263b865b6e00f417eab7a1a14ebe998c5d1c491910a4f276cdcb75",
    "b94368c176f275c6a5bcf2e6e321cad12d80b5796887fc8fa9e9212ab85817f8",
    "be2e4ca97c94c11dbe138af4989128c5eb2b5846e32e4ccaab07947b5bc5632e",
    "56050958216d9bdfdfdfc5707ec9608a360ad2ef67767fd5007a587bfc2ea39c",
)


def values_digest(table):
    h = hashlib.sha256()
    for lam in partitions_of(table.n):
        for mu in partitions_of(table.n):
            h.update(f"{format_partition(lam)}|{format_partition(mu)}|"
                     f"{table.value(lam, mu).to_pairs()}\n".encode())
    return h.hexdigest()


def test_table_values_pinned():
    for n, digest in enumerate(VALUE_DIGESTS):
        assert values_digest(char_table(n)) == digest, n


# SHA-256 of dumps_table(char_table(n)) for n = 0..10
TABLE_DIGESTS = (
    "f4c9aa10c16acb1e0fa2639758f0e2688f221ecedaf6871214c504fb5584485c",
    "070151b10e7206471717c9c098ecee2c3ece16d457a9b4afad2bd8c48944afae",
    "6a7db8ebb23362f9ba7de3b8537aa2bf3c1d8a6426dea584e2ef24d3e73aef24",
    "efb36055e7354e5b9ad80d54a9220ceb55f07b2079320974978c88fabff01752",
    "a966167db55ebe96b41ad84d40d6ff0d0eea15639c98dac7f32b159dd06f0589",
    "c91d6e4c291573f4202a8e6572c412e8568d1934146cc20ce89ab8797710ee2b",
    "b90f70f0f452049c3669d287b7018f737ddc11586c0b1e5a45da4f48ccb63ef7",
    "9fcd64756187720bd5286802f51825173ee45fd07ba8c36934a7936a3b9351c0",
    "3e1529500c946e2f45e2056a88eb048a61eca1bd81d8f96abe302d9e966dba4d",
    "ca107e7653c219b57a6bde777fddec59992f1781131c39251b72c23bdad01367",
    "3845fdcf939daaf81e5e487489eb2d9084cbfad92e5fe4380ae2036ae197afbb",
)


def test_table_bytes_pinned():
    for n, digest in enumerate(TABLE_DIGESTS):
        text = dumps_table(char_table(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def test_table_file_round_trip(tmp_path):
    from heckechar.characters import load_table, save_table
    table = char_table(3)
    path = tmp_path / "table3.json"
    save_table(table, path)
    again = load_table(path)
    assert again.entries == table.entries
    assert again.provenance == table.provenance


def test_document_validation():
    doc = reference_document(char_table(2))
    doc["format_version"] = 99
    with pytest.raises(ValueError):
        document_to_table(doc)


def test_loads_table_rejects_wrong_entry_sets():
    # the reader requires every pair of partitions of n as a key, once each
    def truncated(doc):
        doc["entries"] = doc["entries"][:2]

    def non_partition(doc):
        doc["entries"][4]["lambda"] = [1, 2]

    def wrong_n(doc):
        doc["n"] = 4

    def duplicated(doc):
        doc["entries"].append(dict(doc["entries"][0]))

    def no_entries(doc):
        del doc["entries"]

    def no_lambda(doc):
        del doc["entries"][4]["lambda"]

    def entry_not_object(doc):
        doc["entries"][4] = 5

    def poly_not_pairs(doc):
        doc["entries"][4]["poly"] = 5

    # only what the writer emits: each of these would load as some table
    # that writes back different bytes
    def float_coefficient(doc):
        doc["entries"][4]["poly"] = [[1, 1.5]]

    def underscored_coefficient(doc):
        doc["entries"][4]["poly"] = [[1, "1_0"]]

    def zero_coefficient(doc):
        doc["entries"][4]["poly"] = [[0, "0"]]

    def descending_exponents(doc):
        doc["entries"][4]["poly"] = [[2, "1"], [1, "1"]]

    def tag_not_string(doc):
        doc["entries"][4]["algorithm"] = 5

    def float_part(doc):
        doc["entries"][4]["lambda"] = [2, 1.0]

    def bool_part(doc):
        doc["entries"][4]["mu"] = [2, True]

    def float_version(doc):
        doc["format_version"] = 1.0

    for corrupt in (truncated, non_partition, wrong_n, duplicated,
                    no_entries, no_lambda, entry_not_object, poly_not_pairs,
                    float_coefficient, underscored_coefficient,
                    zero_coefficient, descending_exponents, tag_not_string,
                    float_part, bool_part, float_version):
        doc = json.loads(dumps_table(char_table(3)))
        assert doc["entries"][4]["lambda"] == [2, 1]
        corrupt(doc)
        with pytest.raises(ValueError):
            loads_table(json.dumps(doc))
    # a bool degree: True == 1, so only its type gives it away
    doc = json.loads(dumps_table(char_table(1)))
    doc["n"] = True
    with pytest.raises(ValueError):
        loads_table(json.dumps(doc))


def test_loads_table_checks_the_count_before_enumerating():
    with pytest.raises(ValueError):
        loads_table("[]")
    doc = json.loads(dumps_table(char_table(3)))
    doc["n"], doc["entries"] = 60, doc["entries"][:1]
    before = partitions_of.cache_info()
    with pytest.raises(ValueError):
        loads_table(json.dumps(doc))
    after = partitions_of.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_save_table_failure_keeps_old_file(tmp_path):
    from heckechar.characters import save_table
    path = tmp_path / "table3.json"
    save_table(char_table(3), path)
    before = path.read_bytes()
    with pytest.raises(KeyError):
        save_table(CharTable(n=3), path)   # no entries: serialising fails
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table3.json"]


def test_entry_document_schema():
    doc = entry_document((2, 1), (2, 1), "mn", T - ONE)
    assert json.loads(json.dumps(doc)) == {
        "lambda": [2, 1], "mu": [2, 1], "algorithm": "mn",
        "poly": [[0, "-1"], [1, "1"]]}


def test_pairing_normalization_consistency():
    # the strip-strategy pairing followed by normalization is the same
    # polynomial as the direct recursion
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                g = pairing_polynomial(lam, mu, "strips")
                assert normalize_g_to_chi(g, n, len(mu)) == \
                    character(lam, mu, "mn")
