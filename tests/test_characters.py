import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from heckechar.laurent import (
    ONE, T, ZERO, ExactnessError, LaurentPoly, RationalFn, monomial,
)
from heckechar.partitions import partitions_of, standard_tableaux_count
from heckechar.schur import classical_character, pairing_polynomial
from heckechar.characters import (
    ALGORITHMS, ALGORITHM_NAMES, CharTable, char_table, character,
    character_via_newton, character_via_sn, document_to_table, dumps_table,
    entry_document, hook_character, hook_weights, loads_table, mn_character,
    normalize_g_to_chi, resolve_algorithm, table_to_document,
    two_row_character, two_row_cumulative, two_row_weights,
)

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
    assert hook_character(6, (2, 2, 2, 2)) == LaurentPoly({2: 6, 3: -12, 4: 3})
    for n in range(1, 8):
        for mu in partitions_of(n):
            assert hook_character(n, mu) == monomial(1, n - len(mu))
            for k in range(1, n + 1):
                lam = (k,) + (1,) * (n - k)
                assert hook_character(k, mu) == mn_character(lam, mu), (k, mu)
    with pytest.raises(ValueError):
        hook_character(0, (2, 1))
    with pytest.raises(ValueError):
        hook_character(4, (2, 1))


def test_two_row_character():
    assert two_row_character(4, (3, 2, 1)) == LaurentPoly({1: 1, 2: -3, 3: 2})
    for n in range(1, 9):
        for mu in partitions_of(n):
            assert two_row_character(n, mu) == monomial(1, n - len(mu))
            for k in range((n + 1) // 2, n + 1):
                lam = (k, n - k) if n - k else (k,)
                assert two_row_character(k, mu) == mn_character(lam, mu)
    with pytest.raises(ValueError):
        two_row_character(1, (3,))


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
                assert mn_character(lam, mu).evaluate_at_one() == \
                    classical_character(lam, mu)


def test_reduction_to_symmetric_group():
    assert character_via_sn((2, 1), (1, 1, 1)) == LaurentPoly.const(2)
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert character_via_sn((n,), mu) == monomial(1, n - len(mu))
            for lam in partitions_of(n):
                assert character_via_sn(lam, mu) == mn_character(lam, mu)


def test_reduction_via_newton():
    assert character_via_newton((1,), (1,)) == ONE
    assert character_via_newton((2, 1), (3,)) == monomial(-1, 1)
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert character_via_newton(lam, mu) == mn_character(lam, mu)


def test_all_algorithms_coincide():
    algs = tuple(ALGORITHMS)
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                ref = mn_character(lam, mu)
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
    # the lower index is a multiset
    assert character((3, 1), (1, 2, 1)) == character((3, 1), (2, 1, 1))
    # zero parts of the lower index are dropped
    assert character((3, 1), (2, 0, 2)) == character((3, 1), (2, 2))
    assert resolve_algorithm((5,)) == "one_row"
    assert resolve_algorithm((1, 1)) == "one_column"
    assert resolve_algorithm((3, 1, 1)) == "hook"
    assert resolve_algorithm((3, 2)) == "two_row"
    assert resolve_algorithm((3, 2, 1)) == "mn"
    assert resolve_algorithm((3, 2, 1), "oracle") == "oracle"
    with pytest.raises(ValueError):
        character((2,), (1, 1, 1))
    with pytest.raises(ValueError):
        character((2, 1), (2, 1), "nope")


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@pytest.mark.parametrize("lam, mu", [
    ((2, 3), (5,)),           # lambda not a partition
    ((3, 0), (3,)),           # zero part in lambda
    ((3,), (4, -1)),          # negative part in mu
    ((2,), (1.0, 1.0)),       # non-int parts in mu
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
    from heckechar.characters import clear_caches, _mn_cached
    from heckechar.applications import bitrace, entry_weight
    character((3, 2, 1), (2, 2, 1, 1))
    bitrace((2, 1), (3,))
    assert _mn_cached.cache_info().currsize
    assert entry_weight.cache_info().currsize
    clear_caches()
    assert _mn_cached.cache_info().currsize == 0
    assert entry_weight.cache_info().currsize == 0
    assert character((3, 2, 1), (2, 2, 1, 1)) == 4 * (T - ONE) ** 2


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

    t0 = char_table(0)
    assert t0.value((), ()) == ONE


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
    assert set(auto.provenance.values()) >= {"one_row", "hook"}
    assert set(oracle.provenance.values()) == {"oracle"}


def test_table_round_trip_bit_exact():
    table = char_table(4)
    text = dumps_table(table)
    again = loads_table(text)
    assert dumps_table(again) == text
    assert again.entries == table.entries
    doc = table_to_document(table)
    assert doc["format_version"] == 1
    assert doc["n"] == 4
    assert doc["variable"] == "q"
    first = doc["entries"][0]
    assert list(first) == ["lambda", "mu", "algorithm", "poly"]
    # reverse-lexicographic entry order
    lams = [tuple(e["lambda"]) for e in doc["entries"]]
    assert lams == sorted(lams, reverse=True)


# SHA-256 of dumps_table(char_table(n)) for n = 0..10
TABLE_DIGESTS = (
    "d2f40b0d585317cd3e44fded6ba2e1ebcad52b30e1a811f1d7ea0c6b17e6449e",
    "6a91bd0be5e2180ee663fad3c76f81fd11c147319f9654e2441c2ee70ddf1d66",
    "982aa884f8412d09a88252f68bf2fc7ad733ef52aaf46b7f7aa8b4103fce37e1",
    "b81cdcc83fb06531138a18278ec5ae071c411906643c9c1b8be8e453a3af2322",
    "6c688c66aafab8dad88ee17c6e9361852ffd3f40d5625b1b980cb4261dbcd3da",
    "92f6614e6b14ebd322a25488ac00d686f56421deaafbf730470741f825771fa4",
    "82a9b9b78535583741817c45205ede592f605906088379e6b32906998ce085a5",
    "9dab3b37b33e51fdba188a51c143e2b8c601c95851dc7b8d97eb7b1a25fb9dda",
    "f99ee1bbc184310b6e3faccaea0f5fcc188278350357f07e89061e5c19c1251b",
    "0923cb7fcc1097840ea063d20578b0c2ac32e215ea9a28eb865ba542296174a2",
    "a9880ff8eaadc9171b37c96cd0c33d0cbd487e308fcf7ce8963d11324971abda",
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
    doc = table_to_document(char_table(2))
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

    for corrupt in (truncated, non_partition, wrong_n, duplicated):
        doc = json.loads(dumps_table(char_table(3)))
        assert doc["entries"][4]["lambda"] == [2, 1]
        corrupt(doc)
        with pytest.raises(ValueError):
            loads_table(json.dumps(doc))


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
                    mn_character(lam, mu)
