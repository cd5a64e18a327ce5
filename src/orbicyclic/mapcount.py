"""Counting maps on orientable surfaces: rooted counts and unrooted totals.

N_g(n) is the number of rooted maps with n edges on the genus-g surface,
extended by N_g(n) = 0 whenever n is negative.  Every genus comes from
the exact Carrell-Chapuy recurrence; genus 0 also has a sum-free closed
formula, kept as the reference for the recurrence's planar row.  theta()
combines rooted counts with the cyclic-orbifold and epimorphism
machinery, Burnside-style, to count maps up to all orientation-preserving
isomorphisms rather than up to rooted ones; both share the enumerators' guards.

An exhaustive oracle over dart pairs (sigma, alpha), which visits each rooted
map once (Walsh and Lehman 1972), cross-checks both counts at small sizes.
"""

from __future__ import annotations

from math import comb, factorial, inf

from .arith import _ENTRY_BYTES, _exact_quotient, _require_int, _require_printable
from .arith import _require_within, _Store, divisors
from .epi import count_epi
from .orbifold import ELL_GUARD, GAMMA_GUARD, enumerate_orbifolds
from .subgroups import _canonical_actions

# The census visits each of the at most 2n * (2n-1)!! rooted maps and its 2n - 1
# re-rootings.  Seconds, best of 5 (2-core VM, CPython 3.11.7): n = 3 0.0006,
# 4 0.007, 5 0.09; refused: 6 1.23.
DART_PAIR_GUARD = 5


def planar_rooted_count(n: int) -> int:
    """Rooted planar maps with n edges: 2 * 3^n * (2n)! / (n! (n+2)!)."""
    _require_int(n, "edge count", 0)
    _require_printable("planar_rooted_count", n, 12)  # N_0(n) <= 12^n
    return 2 * 3**n * factorial(2 * n) // (factorial(n) * factorial(n + 2))


def _recurrence(key: tuple[int, int]) -> int:
    """N_g(n) by the Carrell-Chapuy recurrence, for key = (g, n).

    (n+1) N_g(n) = 4(2n-1) N_g(n-1) + (2n-3)(n-1)(2n-1) N_{g-1}(n-2)
        + 3 sum_{k+l=n; k,l>=1} (2k-1)(2l-1) sum_{g1+g2=g} N_g1(k-1) N_g2(l-1),

    the published form multiplied through by 6, so every step is an exact
    integer division by n + 1 (Carrell and Chapuy 2015).
    """
    g, n = key
    if g < 0 or n < 0:
        return 0
    if n == 0:
        return 1 if g == 0 else 0
    for k in range(1, n - 1):  # the row from below, so the recursion stays about g deep
        _carrell_chapuy[g, k]
    total = 4 * (2 * n - 1) * _carrell_chapuy[g, n - 1]
    total += (2 * n - 3) * (n - 1) * (2 * n - 1) * _carrell_chapuy[g - 1, n - 2]
    pairs = 0
    for k in range(1, n):
        l = n - k
        pairs += (2 * k - 1) * (2 * l - 1) * sum(
            _carrell_chapuy[g1, k - 1] * _carrell_chapuy[g - g1, l - 1]
            for g1 in range(g + 1)
        )
    what = f"Carrell-Chapuy step at g={g}, n={n}"
    return _exact_quotient(total + 3 * pairs, n + 1, what)


# The recurrence's table, {(g, n): N_g(n)}, each count charged _ENTRY_BYTES and
# its bytes.  Its budget is unbounded: a table that stopped keeping values would
# turn the recurrence exponential, and theta's guard bounds its size.  Measured
# with tracemalloc under CPython 3.11.7: an atlas round keeps 243 counts, 0.03 MB
# traced for 0.05 MB charged.
_carrell_chapuy = _Store(_recurrence, inf, lambda key, N: _ENTRY_BYTES + N.bit_length() // 8)


def _require_guarded(g: int, n: int) -> None:
    """Refuse a genus or edge count past theta's domain: the enumerators' guards at ell = 2n."""
    _require_within("genus", g, GAMMA_GUARD)
    _require_within("edge count", n, ELL_GUARD // 2)


def rooted_map_count(g: int, n: int) -> int:
    """N_g(n), with N_g(n) = 0 for negative n.

    The zero-edge map exists only on the sphere.  Any other genus and edge
    count must lie in theta's guarded domain; within it every genus uses
    the Carrell-Chapuy recurrence.
    """
    _require_int(g, "genus", 0)
    _require_int(n, "edge count")
    if n < 0:
        return 0
    if n == 0:
        return 1 if g == 0 else 0
    _require_guarded(g, n)
    return _carrell_chapuy[g, n]


def _multinomial(top: int, parts: list[int]) -> int:
    """top! / (parts[0]! ... (top - sum(parts))!), or 0 if the parts exceed top."""
    rest = top - sum(parts)
    if rest < 0:
        return 0
    value = factorial(top)
    for k in parts:
        value //= factorial(k)
    return value // factorial(rest)


def _check_args(gamma: int, n: int) -> None:
    _require_int(gamma, "genus", 0)
    _require_int(n, "edge count", 1)


def theta(gamma: int, n: int) -> int:
    """Number of maps with n edges on the genus-gamma surface, unrooted.

    Burnside sum over cyclic symmetry orders ell | 2n and admissible
    quotient orbifolds; each term weights an epimorphism count by the
    ways to place branch points on the quotient map's cells and by the
    rooted count of quotient maps.  The grand total must come out
    divisible by 2n.

    Inputs past the enumerators' guards, gamma <= GAMMA_GUARD and 2n <=
    ELL_GUARD, the largest ell summed over, are rejected before any work.
    """
    _check_args(gamma, n)
    _require_guarded(gamma, n)
    total = 0
    for ell in divisors(2 * n):
        dart_orbits = 2 * n // ell
        for sig in enumerate_orbifolds(gamma, ell):
            mult = sig.branch_multiplicities()
            b2 = mult.pop(2, 0)
            higher = [mult[i] for i in sorted(mult)]
            epi = count_epi(sig, ell)
            sig_sum = 0
            # The quotient map has (2n/ell - s2) / 2 edges, so s2 keeps the
            # parity of 2n/ell.
            for s2 in range(dart_orbits % 2, min(b2, dart_orbits) + 1, 2):
                quotient_edges = (dart_orbits - s2) // 2
                placements = _multinomial(
                    quotient_edges + 2 - 2 * sig.g, [b2 - s2] + higher
                )
                if placements == 0:
                    continue
                ways = comb(dart_orbits, s2)
                sig_sum += ways * placements * _carrell_chapuy[sig.g, quotient_edges]
            total += epi * sig_sum
    return _exact_quotient(total, 2 * n, f"Burnside sum at gamma={gamma}, n={n}")


def _cycle_count(perm) -> int:
    """Number of cycles of a permutation of range(len(perm))."""
    count, seen = 0, set()
    for i in range(len(perm)):
        count += i not in seen
        while i not in seen:
            seen.add(i)
            i = perm[i]
    return count


def _dart_pair_census(n: int) -> dict[int, tuple[int, int]]:
    """Canonical dart-pair census with n edges: genus -> (rooted, unrooted)."""
    tally: dict[int, list[int]] = {}
    for (sigma,), least in _canonical_actions(2 * n, 1, paired=True):
        faces = _cycle_count([sigma[a ^ 1] for a in range(2 * n)])
        counts = tally.setdefault((n + 2 - _cycle_count(sigma) - faces) // 2, [0, 0])
        counts[0] += 1
        counts[1] += least
    return {genus: tuple(counts) for genus, counts in tally.items()}


# One census per edge count, {n: {genus: (rooted, unrooted)}}, each charged
# _ENTRY_BYTES and 200 bytes per genus; unbounded, as the dart-pair guard
# bounds it to n <= 5.  Measured with tracemalloc under CPython 3.11.7: an atlas
# round keeps 3 censuses, 1.3 KB traced for 1.6 KB charged.
_map_census = _Store(_dart_pair_census, inf, lambda n, census: _ENTRY_BYTES + 200 * len(census))


def dart_pair_oracle(gamma: int, n: int) -> tuple[int, int]:
    """(rooted, unrooted) map counts at genus gamma with n edges, by brute force.

    Models a map as a permutation pair on 2n darts with a fixed fixed-point-free
    involution; genus comes from Euler's relation.  Each canonical pair is one
    rooted map, and one unrooted map when its code is least over all root darts.
    """
    _check_args(gamma, n)
    _require_within("dart-pair edge count", n, DART_PAIR_GUARD)
    return _map_census[n].get(gamma, (0, 0))
