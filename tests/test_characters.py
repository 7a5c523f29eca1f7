import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from heckechar.laurent import (
    ONE, T, ZERO, ExactnessError, LaurentPoly, RationalFn, monomial,
)
from heckechar.partitions import partitions_of, standard_tableaux_count
from heckechar.schur import classical_character, pairing_polynomial
from heckechar.characters import (
    ALGORITHMS, CharTable, char_table, character, character_via_newton,
    character_via_sn, document_to_table, dumps_table, entry_document,
    hook_character, hook_weights, loads_table, mn_character,
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
    from heckechar.characters import clear_caches, _char_cache
    from heckechar.applications import bitrace, entry_weight
    character((3, 2, 1), (2, 2, 1, 1))
    bitrace((2, 1), (3,))
    assert _char_cache
    assert entry_weight.cache_info().currsize
    clear_caches()
    assert not _char_cache
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
