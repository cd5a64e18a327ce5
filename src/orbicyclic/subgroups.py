"""Subgroup counting in free groups of finite rank.

M(n), the number of index-n subgroups of the rank-r free group, satisfies
Hall's recursion

    M(n) = n * (n!)^(r-1) - sum_{i=1}^{n-1} ((n-i)!)^(r-1) * M(i)

and the number N(n) of conjugacy classes of index-n subgroups reduces to
a divisor sum over M with Jordan-totient weights:

    N(n) = (1/n) * sum_{d | n} phi_{(r-1)d+1}(n/d) * M(d).

Everything is exact; the divisor sum's integrality is asserted because a
failure there would be an implementation bug, not bad input.  The
brute-force check, like mapcount's, visits each rooted action once (Sims,
Computation with Finitely Presented Groups, 1994, ch. 5).
"""

from __future__ import annotations

from math import factorial

from .arith import _exact_quotient, _require_int, _require_within, divisors, jordan_phi

INDEX_GUARD = 12
# Keeps M(12), about 8.7 * (rank - 1) digits, within Python's 4,300-digit str limit.
# It also keeps _canonical_actions's index * rank levels of recursion, at most
# 400 within TUPLE_SCAN_GUARD (index 1), under the interpreter's limit: at index
# 1 rank 990 completes and 1,000 raises RecursionError (CPython 3.11.7).
RANK_GUARD = 400
# transitive_pair_counts visits at most n * (n!)^(r-1) leaves (Hall's first term)
# at about n * r steps each, and charges that before any work.  Measured (rank,
# index: steps, seconds; best of 5, 2-core VM, CPython 3.11.7): 2, 7: 493,920,
# 0.20; 14, 2: 458,752, 0.23; 5, 3: 58,320, 0.03; 3, 4: 27,648, 0.01.
# Refused: 4, 4: 884,736, 0.38; 3, 5: 1,080,000, 0.47; 15, 2: 983,040, 0.47.
TUPLE_SCAN_GUARD = 500_000


def _check_args(rank: int, index: int) -> None:
    _require_int(rank, "rank", 1)
    _require_int(index, "index", 1)
    _require_within("rank", rank, RANK_GUARD)
    _require_within("index", index, INDEX_GUARD)


def _hall(r: int, n: int) -> list[int]:
    """[M(0), M(1), ..., M(n)] for F_r by Hall's recursion, with M(0) = 0 unused."""
    w = [factorial(i) ** (r - 1) for i in range(n + 1)]
    counts = [0]
    for k in range(1, n + 1):
        counts.append(k * w[k] - sum(w[k - i] * counts[i] for i in range(1, k)))
    return counts


def free_group_subgroups(rank: int, index: int) -> int:
    """Number of index-`index` subgroups of the free group of rank `rank`."""
    _check_args(rank, index)
    return _hall(rank, index)[index]


def free_group_conjugacy_classes(rank: int, index: int) -> int:
    """Number of conjugacy classes of index-`index` subgroups of F_rank."""
    _check_args(rank, index)
    n, r = index, rank
    counts = _hall(r, n)
    total = sum(jordan_phi((r - 1) * d + 1, n // d) * counts[d] for d in divisors(n))
    return _exact_quotient(total, n, f"divisor sum at rank={r}, index={n}")


def _canonical_actions(points: int, rank: int, paired: bool = False):
    """Yield (perms, least) once per transitive action of `rank` permutations
    of range(points), rooted at 0.

    perms is canonically labelled: taking points in label order and the
    permutations in turn, each image is a labelled point not yet hit or the
    next new label; a branch whose labelled points close early stops.  With
    `paired`, x <-> x ^ 1 acts too and a new label opens a pair.  `least`
    marks a code (images in label order) least over all roots: one leaf per
    action up to relabelling.  The lists are reused.
    """
    perms = [[-1] * points for _ in range(rank)]
    hit = [[False] * points for _ in range(rank)]
    step = 2 if paired else 1

    def rerooted_sign(root: int) -> int:  # code from root minus code from 0
        order, label = [root, root ^ 1][:step], [-1] * points
        for i, point in enumerate(order):
            label[point] = i
        for x, point in enumerate(order):  # order grows while it is walked
            for perm in perms:
                y = perm[point]
                if label[y] < 0:
                    for z in (y, y ^ 1)[:step]:
                        label[z] = len(order)
                        order.append(z)
                if label[y] != perm[x]:
                    return label[y] - perm[x]
        return 0

    def extend(k: int, labelled: int):
        if k == points * rank:
            yield perms, all(rerooted_sign(v) >= 0 for v in range(1, points))
            return
        x, j = divmod(k, rank)
        if x == labelled:  # the labelled points are closed: not transitive
            return
        perm, used = perms[j], hit[j]
        for y in range(min(labelled + 1, points)):  # y == labelled: a new label
            if not used[y]:
                perm[x], used[y] = y, True
                yield from extend(k + 1, labelled + step * (y == labelled))
                used[y] = False

    yield from extend(0, step)


def transitive_pair_counts(rank: int, index: int) -> tuple[int, int]:
    """(subgroups, conjugacy classes) by brute force, for cross-checking.

    Index-n subgroups of F_r are the transitive r-tuples of permutations of n
    points up to relabellings fixing a basepoint, and conjugacy classes are
    those tuples up to all relabellings.
    """
    _check_args(rank, index)
    steps = index**2 * rank * factorial(index) ** (rank - 1)
    _require_within("tuple-scan steps", steps, TUPLE_SCAN_GUARD)
    leaves = [least for _, least in _canonical_actions(index, rank)]
    return len(leaves), sum(leaves)
