from time import perf_counter

import pytest

from orbicyclic.arith import GuardError
from orbicyclic.subgroups import (
    RANK_GUARD,
    TUPLE_SCAN_GUARD,
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
    with pytest.raises(GuardError, match="^index 13 exceeds the guard 12$"):
        free_group_subgroups(2, 13)
    # the edge of rank 4 agrees with Hall; rank 3 at index 5 charges
    # 5 * 120**2 * 5 * 3 = 1,080,000 steps and is refused before any work
    assert transitive_pair_counts(4, 3) == (
        free_group_subgroups(4, 3),
        free_group_conjugacy_classes(4, 3),
    )
    start = perf_counter()
    with pytest.raises(GuardError, match="^tuple-scan steps 1080000 exceeds the guard 500000$"):
        transitive_pair_counts(3, 5)
    assert perf_counter() - start < 1


def test_rank_guard():
    # the largest allowed rank still converts to decimal at the largest index
    assert len(str(free_group_subgroups(400, 12))) == 3465
    assert len(str(free_group_conjugacy_classes(400, 12))) == 3464
    start = perf_counter()
    for count in (free_group_subgroups, free_group_conjugacy_classes):
        with pytest.raises(GuardError, match="^rank 1000000 exceeds the guard 400$"):
            count(10**6, 12)
    assert perf_counter() - start < 1


def test_rank_guard_bounds_the_scan_recursion():
    # the canonical scan recurses index * rank levels; at index 1 and the
    # largest rank it still fits under the interpreter's recursion limit
    assert transitive_pair_counts(RANK_GUARD, 1) == (1, 1)


def test_tuple_scan_guard_counts_steps():
    # the guard charges index * (index!)**(rank-1) leaves, Hall's first term,
    # at index * rank steps each, not the (index!)**rank tuples: one
    # permutation of 12 points is 144 steps, though 12! tuples exist
    assert transitive_pair_counts(1, 12) == (1, 1)
    # 2 * 2**14 leaves at 30 steps each are 983,040 steps
    start = perf_counter()
    with pytest.raises(GuardError, match="^tuple-scan steps 983040 exceeds the guard 500000$"):
        transitive_pair_counts(15, 2)
    assert perf_counter() - start < 1


def test_a_huge_charge_is_shown_by_its_digit_count():
    # at the rank and index guards the scan's charge has 3,469 digits, which
    # the refusal once printed in full
    message = "tuple-scan steps a 3469-digit number exceeds the guard 500000"
    with pytest.raises(GuardError) as refused:
        transitive_pair_counts(RANK_GUARD, 12)
    assert str(refused.value) == message


@pytest.mark.parametrize("rank, largest", [(1, 12), (2, 7), (3, 4), (4, 3), (5, 3)])
def test_tuple_scan_reach(rank, largest):
    # the oracle equals Hall's recursion and the Jordan sum at the largest
    # index the guard accepts, and the next index is refused
    assert transitive_pair_counts(rank, largest) == (
        free_group_subgroups(rank, largest),
        free_group_conjugacy_classes(rank, largest),
    )
    if largest < 12:
        with pytest.raises(GuardError, match=f" exceeds the guard {TUPLE_SCAN_GUARD}$"):
            transitive_pair_counts(rank, largest + 1)
