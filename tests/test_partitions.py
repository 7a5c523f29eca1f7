import itertools
import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from heckechar import partitions
from heckechar.characters import character
from heckechar.laurent import ONE
from heckechar.partitions import (
    MEMOS, clear_caches, conjugate, contingency_matrices, format_partition,
    memo_stats, parse_composition, parse_partition, partition_count,
    partition_tuples, partitions_of, strip_removals, sub_compositions,
)
from oracles import (
    SkewShape, analyze_skew, box_skew_analysis, brute_standard_count,
    filtered_strips, inner_corner_removals, standard_tableaux_count,
    strip_triple,
)


def test_conjugate_examples():
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((4, 1)) == (2, 1, 1, 1)


def test_conjugate_involution():
    for n in range(9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_inner_corner_removals():
    assert inner_corner_removals((2, 1)) == [(1, 1), (2,)]
    assert inner_corner_removals((7,)) == [(6,)]
    assert inner_corner_removals((3, 3, 1)) == [(3, 2, 1), (3, 3)]
    assert inner_corner_removals(()) == []
    # one removal per distinct part value, results pairwise distinct
    for lam in partitions_of(7):
        out = inner_corner_removals(lam)
        assert len(out) == len(set(out)) == len(set(lam))


def test_standard_tableaux_count():
    assert standard_tableaux_count((2, 1)) == 2
    assert standard_tableaux_count((5,)) == 1
    assert standard_tableaux_count((1, 1, 1, 1)) == 1
    assert standard_tableaux_count((3, 2, 1)) == brute_standard_count((3, 2, 1))
    assert standard_tableaux_count((3, 2, 1)) == 16


def test_standard_tableaux_against_brute_force():
    for n in range(7):
        for lam in partitions_of(n):
            assert standard_tableaux_count(lam) == brute_standard_count(lam)


def test_tableaux_conjugation_and_square_sum():
    for n in range(9):
        total = 0
        for lam in partitions_of(n):
            f = standard_tableaux_count(lam)
            assert f == standard_tableaux_count(conjugate(lam))
            total += f * f
        assert total == math.factorial(n)


def test_memo_stats_reads_every_registered_memo():
    clear_caches()
    stats = memo_stats()
    assert len(stats) == sum(map(len, MEMOS.values()))
    assert all(s == {"entries": 0, "hits": 0, "misses": 0}
               for s in stats.values())
    # two det queries of one degree share the 1x1 blocks of their peel
    # matrices: each distinct block is one miss of _pattern_det
    character((3, 2, 1), (2, 2, 1, 1), "det")
    character((3, 2, 1), (2, 2, 1, 1), "det")
    pattern = memo_stats()["schur._pattern_det"]
    assert pattern["entries"] == pattern["misses"] > 0
    assert pattern["hits"] > 0
    clear_caches()
    assert memo_stats()["schur._pattern_det"]["entries"] == 0


def test_tableaux_memo_linearizable():
    # concurrent calls into the package memos must agree with the serial
    # values: at mu = 1^n the character is the number of standard tableaux
    shapes = [lam for n in range(9) for lam in partitions_of(n)]
    expected = [standard_tableaux_count(lam) * ONE for lam in shapes]
    clear_caches()
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda lam: character(lam, (1,) * sum(lam)),
                            shapes * 4))
    assert got == expected * 4


def test_sub_compositions():
    assert sub_compositions((2, 1), 1) == [(0, 1), (1, 0)]
    assert sub_compositions((2, 1), 3) == [(2, 1)]
    assert sub_compositions((2, 2), 2) == [(0, 2), (1, 1), (2, 0)]
    assert sub_compositions((2, 1), -1) == []
    assert sub_compositions((2, 1), 4) == []
    # lexicographic order
    out = sub_compositions((3, 2, 2), 4)
    assert out == sorted(out)


def test_sub_compositions_total_count():
    for mu in [(3, 1), (2, 2, 1), (4, 3, 2)]:
        total = sum(len(sub_compositions(mu, k)) for k in range(sum(mu) + 1))
        expected = 1
        for p in mu:
            expected *= p + 1
        assert total == expected


def test_partitions_of():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(0) == ((),)
    assert len(partitions_of(8)) == 22
    # Euler's recurrence counts what the enumeration lists
    assert [partition_count(n) for n in range(21)] == \
        [len(partitions_of(n)) for n in range(21)]
    assert partition_count(100) == 190569292


def test_partition_tuples():
    got = set(partition_tuples((2, 1)))
    assert got == {((2,), (1,)), ((1, 1), (1,))}
    assert list(partition_tuples(())) == [()]
    assert list(partition_tuples((0, 2))) == [((), (2,)), ((), (1, 1))]


def test_analyze_skew_examples():
    flag, comps = analyze_skew(SkewShape((3, 1), (1,)))
    assert flag
    assert [(c.rows, c.cols, c.size) for c in comps] == [(1, 2, 2), (1, 1, 1)]

    flag, comps = analyze_skew(SkewShape((2, 2), ()))
    assert not flag

    flag, comps = analyze_skew(SkewShape((2, 1), ()))
    assert flag
    assert [(c.rows, c.cols, c.size) for c in comps] == [(2, 2, 3)]

    flag, comps = analyze_skew(SkewShape((3, 2), (3, 2)))
    assert flag and comps == ()


def _row_analysis(outer, inner):
    flag, comps = analyze_skew(SkewShape(outer, inner))
    return flag, tuple((c.rows, c.cols, c.size) for c in comps)


def test_analyze_skew_matches_box_analysis():
    pairs = 0
    for n in range(10):
        for lam in partitions_of(n):
            for m in range(n + 1):
                for mu in partitions_of(m):
                    if len(mu) <= len(lam) and all(
                            p <= lam[i] for i, p in enumerate(mu)):
                        pairs += 1
                        assert _row_analysis(lam, mu) == \
                            box_skew_analysis(lam, mu), (lam, mu)
    assert pairs == 1592
    # rows that are arbitrary column intervals, not a partition's
    rng = random.Random(2104)
    for _ in range(5000):
        rows = [sorted(rng.randrange(7) for _ in range(2))
                for _ in range(rng.randrange(7))]
        outer = tuple(hi for _, hi in rows)
        inner = tuple(lo for lo, _ in rows)[:rng.randrange(len(rows) + 1)]
        assert _row_analysis(outer, inner) == \
            box_skew_analysis(outer, inner), (outer, inner)


def test_skew_shape_validation():
    with pytest.raises(ValueError):
        SkewShape((2, 1), (3,))
    with pytest.raises(ValueError):
        SkewShape((2,), (1, 1))


def test_strip_row_col_identity():
    # every border-strip component satisfies rows + cols = size + 1, so
    # the cols - 1 of a strip's components sum to k - m - j, the column
    # shift the strip weights read off the (nu, m, j) triple
    for n in range(1, 9):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                for nu, comps in filtered_strips(lam, k):
                    for c in comps:
                        assert c.rows + c.cols == c.size + 1
                    _, m, j = strip_triple(nu, comps)
                    assert sum(c.cols - 1 for c in comps) == k - m - j


def test_strip_removals_examples():
    # a hook is one component over two rows
    assert strip_removals((2, 1), 3) == (((), 1, 1),)
    assert strip_removals((6,), 6) == (((), 1, 0),)
    # (3, 2)/(2, 1) is two single boxes, one in each row
    assert strip_removals((3, 2), 2) == (((3,), 1, 0), ((2, 1), 2, 0))
    assert strip_removals((2, 1), 0) == (((2, 1), 0, 0),)
    assert strip_removals((2, 1), 9) == ()
    assert strip_removals((2, 1), -1) == ()


def test_strip_removals_match_the_subpartition_filter():
    # the same strips, in the same order, as filtering every subpartition
    # of weight |lam| - k through the skew analysis, out-of-range k included
    pairs = 0
    for n in range(13):
        for lam in partitions_of(n):
            for k in range(-1, n + 2):
                expected = tuple(strip_triple(nu, comps)
                                 for nu, comps in filtered_strips(lam, k))
                assert strip_removals(lam, k) == expected, (lam, k)
                pairs += 1
    assert pairs == 3462


def test_strip_removals_never_reenter_their_module_name(monkeypatch):
    # the benchmark spans partitions.strip_removals by rebinding that
    # name: one call must be one span, however deep the recursion goes
    calls = []
    original = partitions.strip_removals

    def counted(lam, k):
        calls.append((lam, k))
        return original(lam, k)

    monkeypatch.setattr(partitions, "strip_removals", counted)
    clear_caches()
    assert len(partitions.strip_removals((6, 5, 3, 3, 2, 1), 9)) > 1
    assert calls == [((6, 5, 3, 3, 2, 1), 9)]


@pytest.mark.parametrize("lam, k", [
    ((2, 3), 1), ((2, 0), 1), ((2, -1), 1), ((2.0,), 1), (None, 1),
    ((3, 1), 1.0), ((3, 1), True), ((3, 1), None)])
def test_strip_removals_reject_malformed_input(lam, k):
    clear_caches()
    with pytest.raises(ValueError):
        strip_removals(lam, k)


@pytest.mark.parametrize("lam, k", [
    ((3, 1), True), ((3, 1), 1.0), ((3, True), 1)])
def test_strip_removals_check_on_a_warm_memo(lam, k):
    # each malformed call equals a memoised key, (3, 1) and 1, and must
    # still be rejected once the strips of that key are memoised
    clear_caches()
    strip_removals((3, 1), 1)
    with pytest.raises(ValueError):
        strip_removals(lam, k)


def test_strip_removals_read_a_list_like_its_tuple():
    clear_caches()
    assert strip_removals([3, 1], 1) == strip_removals((3, 1), 1)
    assert strip_removals([4, 2, 1], 3) == strip_removals((4, 2, 1), 3)


def test_contingency_matrices():
    assert list(contingency_matrices((1,), (1,))) == [((1,),)]
    assert list(contingency_matrices((2,), (1, 1))) == [((1, 1),)]
    got = list(contingency_matrices((1, 1), (1, 1)))
    assert got == [((1, 0), (0, 1)), ((0, 1), (1, 0))]
    with pytest.raises(ValueError):
        list(contingency_matrices((2,), (1,)))


def _compositions_up_to(weight, length):
    # every composition, zero parts included, of the given weight and at
    # most the given length
    return [c for l in range(length + 1)
            for c in itertools.product(range(weight + 1), repeat=l)
            if sum(c) == weight]


def test_contingency_matrices_match_brute_force():
    # every matrix with entries bounded by its margins, filtered by them:
    # the enumerator gives each once, in descending lexicographic order
    # of the rows (depth-first, each row's leftmost entry decreasing)
    for weight in range(6):
        comps = _compositions_up_to(weight, 3)
        for rows in comps:
            for cols in comps:
                r, c = len(rows), len(cols)
                brute = []
                for flat in itertools.product(*(
                        range(min(rows[i], cols[j]) + 1)
                        for i in range(r) for j in range(c))):
                    matrix = tuple(flat[i * c:(i + 1) * c] for i in range(r))
                    if (all(sum(row) == s for row, s in zip(matrix, rows))
                            and all(sum(row[j] for row in matrix) == cols[j]
                                    for j in range(c))):
                        brute.append(matrix)
                got = list(contingency_matrices(rows, cols))
                assert got == sorted(brute, reverse=True), (rows, cols)


def test_contingency_transpose_count():
    cases = [((3, 1), (2, 2)), ((2, 2, 1), (3, 2)), ((4,), (1, 1, 1, 1))]
    for lam, mu in cases:
        a = sum(1 for _ in contingency_matrices(lam, mu))
        b = sum(1 for _ in contingency_matrices(mu, lam))
        assert a == b
        seen = set(contingency_matrices(lam, mu))
        assert len(seen) == a


def test_parse_and_format():
    assert parse_partition("4,2,1") == (4, 2, 1)
    assert parse_partition("-") == ()
    assert format_partition((4, 2, 1)) == "4,2,1"
    assert format_partition(()) == "-"
    assert parse_composition("1,2") == (1, 2)
    assert parse_composition("2,0,1") == (2, 0, 1)
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("2,x")
    with pytest.raises(ValueError):
        parse_partition("3,0,1")
    with pytest.raises(ValueError):
        parse_composition("1,-2")
