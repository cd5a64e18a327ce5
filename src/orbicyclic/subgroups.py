"""Subgroup counting in free groups of finite rank.

M(n), the number of index-n subgroups of the rank-r free group, satisfies
Hall's recursion

    M(n) = n * (n!)^(r-1) - sum_{i=1}^{n-1} ((n-i)!)^(r-1) * M(i)

and the number N(n) of conjugacy classes of index-n subgroups reduces to
a divisor sum over M with Jordan-totient weights:

    N(n) = (1/n) * sum_{d | n} phi_{(r-1)d+1}(n/d) * M(d).

Everything is exact; the divisor sum's integrality is asserted because a
failure there would be an implementation bug, not bad input.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial

from .arith import _require_int, divisors, jordan_phi

INDEX_GUARD = 12
# Keeps M(12), about 8.7 * (rank - 1) digits, within Python's 4,300-digit str limit.
RANK_GUARD = 400
# transitive_pair_counts touches the r permutations of each of the (n!)^r tuples
# point by point: r * n * (n!)^r steps.  Measured (rank, index: steps, seconds;
# best of 5, 2-core VM, CPython 3.11.7): 14, 2: 458,752, 0.39; 1, 8: 322,560,
# 0.16; 3, 4: 165,888, 0.06; 2, 5: 144,000, 0.04; 5, 3: 116,640, 0.05.
TUPLE_SCAN_GUARD = 500_000


def _check_args(rank: int, index: int) -> None:
    _require_int(rank, "rank must be an integer")
    _require_int(index, "index must be an integer")
    _require_int(rank, "rank must be >= 1", 1)
    if rank > RANK_GUARD:
        raise ValueError(f"rank {rank} exceeds guard {RANK_GUARD}")
    _require_int(index, "index must be >= 1", 1)
    if index > INDEX_GUARD:
        raise ValueError(f"index {index} exceeds guard {INDEX_GUARD}")


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
    count, rem = divmod(total, n)
    if rem:
        raise ArithmeticError(
            f"divisor sum {total} not divisible by {n} at rank={r}, index={n}"
        )
    return count


def _transitive(perms, n: int) -> bool:
    """Whether the permutations of range(n) together reach every point from 0."""
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for p in perms:
            if p[x] not in seen:
                seen.add(p[x])
                stack.append(p[x])
    return len(seen) == n


def _conjugacy_orbits(tuples, group) -> int:
    """Number of orbits of permutation tuples under simultaneous conjugation.

    group must list a whole permutation group, so that one pass over it
    from any tuple sweeps out that tuple's orbit.
    """
    # (tau p tau^-1)[i] = tau[p[inv[i]]], with inv the inverse of tau
    pairs = [(tau, sorted(range(len(tau)), key=tau.__getitem__)) for tau in group]
    pending = set(tuples)
    orbits = 0
    while pending:
        seed = pending.pop()
        orbits += 1
        for tau, inv in pairs:
            pending.discard(tuple(tuple([tau[p[j]] for j in inv]) for p in seed))
    return orbits


def transitive_pair_counts(rank: int, index: int) -> tuple[int, int]:
    """(subgroups, conjugacy classes) by brute force, for cross-checking.

    Index-n subgroups of F_r correspond to transitive r-tuples of
    permutations of n points with a marked basepoint: divide the tuple
    count by (n-1)!.  Conjugacy classes of subgroups correspond to
    orbits of the tuples under simultaneous relabeling of all points.
    """
    _check_args(rank, index)
    n, r = index, rank
    if r * n * factorial(n) ** r > TUPLE_SCAN_GUARD:
        raise ValueError(
            f"brute force at rank={r}, index={n} exceeds guard {TUPLE_SCAN_GUARD}"
        )
    perms = list(permutations(range(n)))
    tuples = [t for t in product(perms, repeat=r) if _transitive(t, n)]
    subgroups, rem = divmod(len(tuples), factorial(n - 1))
    if rem:
        raise ArithmeticError("transitive tuple count not divisible by (n-1)!")
    return subgroups, _conjugacy_orbits(tuples, perms)
