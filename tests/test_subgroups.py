from time import perf_counter

import pytest

from orbicyclic.subgroups import (
    free_group_conjugacy_classes,
    free_group_subgroups,
    transitive_pair_counts,
)


def test_rank_two_values():
    assert [free_group_subgroups(2, n) for n in range(1, 5)] == [1, 3, 13, 71]
    assert [free_group_conjugacy_classes(2, n) for n in range(1, 5)] == [1, 3, 7, 26]


def test_rank_three_values():
    assert [free_group_subgroups(3, n) for n in range(1, 5)] == [1, 7, 97, 2143]
    assert [free_group_conjugacy_classes(3, n) for n in range(1, 5)] == [1, 7, 41, 604]


def test_rank_one_is_the_integers():
    for n in range(1, 13):
        assert free_group_subgroups(1, n) == 1
        assert free_group_conjugacy_classes(1, n) == 1


def test_classes_never_exceed_subgroups():
    for rank in range(1, 5):
        for n in range(1, 9):
            m = free_group_subgroups(rank, n)
            c = free_group_conjugacy_classes(rank, n)
            assert 1 <= c <= m
            # index 1 and 2 subgroups are normal
            if n <= 2:
                assert c == m


def test_brute_force_agreement():
    for rank in (1, 2, 3):
        for n in (1, 2, 3):
            assert transitive_pair_counts(rank, n) == (
                free_group_subgroups(rank, n),
                free_group_conjugacy_classes(rank, n),
            )
    assert transitive_pair_counts(2, 4) == (71, 26)
    # Hall: M(3) = 3 * 6^4 - 2^4 * M(1) - M(2) with M(2) = 2 * 2^4 - 1
    assert transitive_pair_counts(5, 3) == (3841, 1361) == (
        free_group_subgroups(5, 3),
        free_group_conjugacy_classes(5, 3),
    )


def test_guards():
    with pytest.raises(ValueError):
        free_group_subgroups(0, 2)
    with pytest.raises(ValueError):
        free_group_subgroups(2, 0)
    with pytest.raises(ValueError):
        free_group_subgroups(2, 13)
    with pytest.raises(ValueError):
        transitive_pair_counts(3, 5)


def test_rank_guard():
    # the largest allowed rank still converts to decimal at the largest index
    assert len(str(free_group_subgroups(400, 12))) == 3465
    assert len(str(free_group_conjugacy_classes(400, 12))) == 3464
    start = perf_counter()
    for count in (free_group_subgroups, free_group_conjugacy_classes):
        with pytest.raises(ValueError, match="rank 1000000 exceeds guard 400"):
            count(10**6, 12)
    assert perf_counter() - start < 1


def test_tuple_scan_guard_counts_steps():
    # the guard bounds rank * index * (index!)**rank steps, not the
    # (index!)**rank tuples: one permutation of 8 points fits (322,560 steps)
    assert transitive_pair_counts(1, 8) == (1, 1)
    # 2**15 tuples are fewer than 8!, but 15 * 2 * 2**15 = 983,040 steps
    start = perf_counter()
    with pytest.raises(ValueError, match="rank=15, index=2 exceeds guard 500000"):
        transitive_pair_counts(15, 2)
    assert perf_counter() - start < 1
