"""Cyclic orbifolds on orientable surfaces.

A signature (g; m_1, ..., m_r) records the quotient genus g and the
branch orders m_j >= 2 of a cyclic group action Z_ell on a surface of
genus gamma, tied together by the Riemann-Hurwitz relation, in integers

    sum_j (ell - ell/m_j) = 2*gamma - 2 - ell*(2g - 2).

This module provides the signature type, the Riemann-Hurwitz solver,
Harvey's admissibility conditions, the equivalent nonvanishing test on
the epimorphism count, and exhaustive enumeration and census of the
admissible orbifolds for a given gamma.

Both enumeration routes filter one candidate generator, which applies
no admissibility condition and prunes every branch whose remaining sum
cannot be reached.  Its sorted output is kept once per (gamma, ell), and
so is the result of the epimorphism route; Harvey's route, the oracle,
is recomputed on every call.  The guards are checked as a list is built.
The generator draws from search tables (divisors, their contributions and
reach bitsets), one per ell and all-ones top 2^k - 1, the least at or above
the target asked, so any order of requests builds the same tables.  Each
kind is kept in a store within a byte budget.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator

from .arith import _ENTRY_BYTES, _require_int, _require_ints, _require_within, _Store, divisors
from .orbicyclic import PeriodTuple, _vanishing_primes

GAMMA_GUARD = 6
ELL_GUARD = 200


def _wiman_range(gamma: int) -> range:
    """Group orders ell <= 4*gamma + 2, all that act on genus gamma >= 2 (Wiman)."""
    return range(1, 4 * gamma + 3)


class OrbifoldSignature(namedtuple("OrbifoldSignature", "g periods")):
    """Quotient genus plus branch orders, periods canonically ascending."""

    __slots__ = ()

    def __new__(cls, g: int, periods: Iterable[int] = ()):
        _require_int(g, "quotient genus", 0)
        periods = _require_ints(periods, "branch order", 2)
        periods.sort()
        return super().__new__(cls, g, tuple(periods))

    @classmethod
    def _make(cls, iterable) -> "OrbifoldSignature":
        # namedtuple's _make, which _replace also uses, skips __new__.
        return cls(*iterable)

    @property
    def m(self) -> int:
        """lcm of the periods (1 for an unbranched signature)."""
        return math.lcm(*self.periods)

    @property
    def r(self) -> int:
        return len(self.periods)

    def branch_multiplicities(self) -> dict[int, int]:
        """Map i -> number of branch points of order i (absent i omitted)."""
        return dict(Counter(self.periods))

    def __str__(self) -> str:
        inner = ",".join(str(mj) for mj in self.periods) if self.periods else "-"
        return f"({self.g};{inner})"


def rh_gamma(sig: OrbifoldSignature, ell: int) -> int | None:
    """Surface genus gamma solving Riemann-Hurwitz, or None.

    Returns the unique gamma >= 0 with 2m*(gamma - 1) =
    ell * (m*(2g - 2) + sum (m - m/m_j)), m = lcm(m_j), if that makes gamma
    a nonnegative integer; None otherwise.  The m_j need not divide ell.
    """
    _require_int(ell, "group order", 1)
    m = sig.m
    rhs = ell * (m * (2 * sig.g - 2) + sum(m - m // mj for mj in sig.periods))
    gamma, rem = divmod(rhs + 2 * m, 2 * m)
    if rem == 0 and gamma >= 0:
        return gamma
    return None


def harvey_admissible(
    sig: OrbifoldSignature, ell: int, gamma: int
) -> tuple[bool, list[str]]:
    """Harvey's test for a genus-gamma surface admitting the orbifold.

    True iff Riemann-Hurwitz holds for (sig, ell, gamma) and

      H1  the lcm of any r-1 of the periods equals m = lcm of all r;
      H2  m | ell, and m = ell if g = 0;
      H3  r != 1, and r >= 3 if g = 0;
      H4  if m is even, the number of periods divisible by the maximal
          power of 2 dividing m is even;

    where for gamma = 0 the condition r = 2 replaces H3, and for
    gamma = 1 the extra constraint r in {0, 3, 4} supplements it
    (the test assumes ell >= 2; ell = 1 admits exactly the unbranched
    signature, which enumerate_orbifolds_via_harvey accepts untested).
    """
    _require_int(gamma, "gamma")
    violated: list[str] = []
    if rh_gamma(sig, ell) != gamma:
        violated.append("RH")
    m = sig.m
    r = sig.r
    if r == 1:
        violated.append("H1")
    elif r >= 2:
        for j in range(r):
            if math.lcm(*(sig.periods[:j] + sig.periods[j + 1 :])) != m:
                violated.append("H1")
                break
    if ell % m != 0 or (sig.g == 0 and m != ell):
        violated.append("H2")
    if gamma == 0:
        if r != 2:
            violated.append("H3a")
    else:
        if r == 1 or (sig.g == 0 and r < 3):
            violated.append("H3")
        if gamma == 1 and r not in (0, 3, 4):
            violated.append("H3a")
    if m % 2 == 0:
        two_power = m & -m
        if sum(1 for mj in sig.periods if mj % two_power == 0) % 2 != 0:
            violated.append("H4")
    return not violated, violated


def epi_nonvanishing(sig: OrbifoldSignature, ell: int) -> tuple[bool, list[str]]:
    """Whether the order-preserving epimorphism count is nonzero.

    The count vanishes iff one of these holds:

      E1  m does not divide ell;
      E2  g = 0 and ell > m;
      E3  s(p) = 1 for some odd prime p | m;
      E4  m is even and s(2) is odd.
    """
    _require_int(ell, "group order", 1)
    violated: list[str] = []
    m = sig.m
    if ell % m != 0:
        violated.append("E1")
    if sig.g == 0 and ell > m:
        violated.append("E2")
    if sig.periods:
        for p, _ in _vanishing_primes(PeriodTuple(sig.periods)):
            violated.append("E4" if p == 2 else "E3")
    violated.sort()
    return not violated, violated


def _check_order(gamma: int, ell: int) -> None:
    """Refuse a (gamma, ell) of the wrong type or sign; _sorted_candidates applies the guards."""
    _require_int(gamma, "gamma", 0)
    _require_int(ell, "group order", 1)


def _search_space(key: tuple[int, int]) -> tuple[list[int], list[int], list[int]]:
    """(divs, parts, reach) for key = (ell, top), exact for every target up to top.

    divs are the divisors >= 2, largest contribution first, and parts their
    contributions ell - ell/d; reach[i] has bit k <= top set iff k is a sum
    of parts[i:], repeats allowed.
    """
    ell, top = key
    divs = divisors(ell)[:0:-1]
    parts = [ell - ell // d for d in divs]
    mask = (2 << top) - 1
    reach = [1] * (len(parts) + 1)
    for i in range(len(parts) - 1, -1, -1):
        bits, step = reach[i + 1], parts[i]
        while step <= top:  # add 0..2^j - 1 copies of parts[i] after j rounds
            bits |= (bits << step) & mask
            step *= 2
        reach[i] = bits
    return divs, parts, reach


# The search tables, {(ell, top): (divs, parts, reach)}, top = 2^k - 1 the
# smallest such top at or above the target asked, so any order of requests
# builds the same tables and none serves a target past its top; over
# gamma <= 6 an ell >= 5 takes one or two.  Each reach bitset is charged its
# top / 8 bytes and 120 for its header and the divisor and contribution beside
# it.  Measured with tracemalloc under CPython 3.11.7: an atlas round, which
# covers the guarded grid, keeps 237 tables, 0.18 MB traced for 0.24 MB charged.
_search_tables = _Store(
    _search_space, 2**20, lambda key, table: _ENTRY_BYTES + len(table[2]) * (key[1] // 8 + 120)
)


def _candidate_signatures(gamma: int, ell: int) -> Iterator[OrbifoldSignature]:
    """Signatures solving Riemann-Hurwitz in the bounded search space.

    For each quotient genus g <= gamma, the periods are the multisets of
    at most 2*gamma + 2 divisors m_j >= 2 of ell whose contributions
    ell - ell/m_j sum to 2*gamma - 2 - ell*(2g - 2).  Periods are chosen
    non-increasing in contribution, so each multiset comes out once.  A
    branch is entered only if the sum it leaves is still a sum of the
    contributions from its divisor on.  (gamma, ell) must pass _check_order and the guards.
    """
    top = 2 * gamma - 2 + 2 * ell  # the g = 0 target, the largest
    divs, parts, reach = _search_tables[ell, (1 << top.bit_length()) - 1]

    def rec(start: int, left: int, slots: int, periods: tuple[int, ...]):
        if left == 0:
            yield periods
            return
        for i in range(start, len(divs)):
            part = parts[i]
            if left > slots * part:
                return  # every later divisor contributes at most this much
            if part <= left and reach[i] >> (left - part) & 1:
                yield from rec(i, left - part, slots - 1, periods + (divs[i],))

    for g in range(gamma + 1):
        target = 2 * gamma - 2 - ell * (2 * g - 2)
        if target >= 0 and reach[0] >> target & 1:
            for periods in rec(0, target, 2 * gamma + 2, ()):
                yield OrbifoldSignature(g, periods)


def _sorted_candidates(key: tuple[int, int]) -> tuple[OrbifoldSignature, ...]:
    """The candidate signatures for key = (gamma, ell), sorted by (g, r, periods)."""
    gamma, ell = key
    _require_within("gamma", gamma, GAMMA_GUARD)
    _require_within("group order", ell, ELL_GUARD)
    # the module global, so that a rebinding of the generator sees every draw
    found = _candidate_signatures(gamma, ell)
    return tuple(sorted(found, key=lambda s: (s.g, s.r, s.periods)))


def _nonvanishing(key: tuple[int, int]) -> tuple[OrbifoldSignature, ...]:
    """The candidates for key = (gamma, ell) whose epimorphism count is nonzero."""
    return tuple(sig for sig in _candidates[key] if epi_nonvanishing(sig, key[1])[0])


def _list_bytes(key: tuple[int, int], sigs: tuple[OrbifoldSignature, ...]) -> int:
    return _ENTRY_BYTES + 150 * len(sigs)


# One candidate list and one E-route list per (gamma, ell).  A dict takes True
# for 1 and 2.0 for 2, so every lookup comes after _check_order; the guards
# are checked on a miss, before any work, so a kept list costs no check.  A
# list is charged 150 bytes per signature, which the E route shares with the
# candidate list.  Measured with tracemalloc under CPython 3.11.7: an atlas
# round keeps all 1,400 pairs of the guarded grid in each, 0.17 and 0.23 MB
# traced (the latter with the 521 signatures both hold) for 0.44 and 0.36 MB
# charged.
_candidates = _Store(_sorted_candidates, 2**20, _list_bytes)
_epi_route = _Store(_nonvanishing, 2**20, _list_bytes)


def enumerate_orbifolds(gamma: int, ell: int) -> list[OrbifoldSignature]:
    """All signatures in Orb(S_gamma / Z_ell), sorted.

    Searches quotient genus g <= gamma and r <= 2*gamma + 2 branch
    points with orders dividing ell, keeps those satisfying
    Riemann-Hurwitz (exactly, by construction) whose epimorphism count
    is nonzero.  Each (gamma, ell) is computed once; every call returns
    a fresh list.
    """
    _check_order(gamma, ell)
    return list(_epi_route[gamma, ell])


def enumerate_orbifolds_via_harvey(gamma: int, ell: int) -> list[OrbifoldSignature]:
    """Same result as enumerate_orbifolds, filtered by Harvey's test instead.

    Kept as a genuinely independent route for cross-checking; the two
    enumerations must agree everywhere in the guarded range.  It shares
    only the candidate list and keeps no result of its own.
    """
    _check_order(gamma, ell)
    # ell = 1 yields only (gamma; -), the surface covering itself; Harvey's
    # test assumes ell >= 2 and would reject it at gamma = 0.
    return [
        sig
        for sig in _candidates[gamma, ell]
        if ell == 1 or harvey_admissible(sig, ell, gamma)[0]
    ]


class CensusResult(namedtuple("CensusResult", "gamma orbifolds")):
    """Admissible orbifolds for one surface genus, as (ell, signature) pairs.

    a counts the orbifolds (signature together with its admitting ell);
    a_distinct, the count of distinct signatures, is the same number:
    for gamma >= 2 the bracket of Riemann-Hurwitz is nonzero, so a
    signature determines its ell (census raises otherwise).
    """

    __slots__ = ()

    @property
    def a(self) -> int:
        return len(self.orbifolds)

    a_distinct = a

    @property
    def a_by_g(self) -> dict[int, int]:
        """Map quotient genus g -> number of orbifolds, ascending in g."""
        return dict(sorted(Counter(sig.g for _, sig in self.orbifolds).items()))


def census(gamma: int) -> CensusResult:
    """Count all admissible orbifolds for surface genus gamma >= 2.

    The union over ell is exhausted by ell <= 4*gamma + 2 (Wiman); gamma 0
    and 1 are rejected, their orbifold families being infinite in ell, and
    a gamma past GAMMA_GUARD by the first enumeration, before any work.
    """
    _require_int(gamma, "gamma", 0)
    if gamma in (0, 1):
        raise ValueError(f"census is infinite for gamma = {gamma}")
    seen: dict[OrbifoldSignature, int] = {}
    for ell in _wiman_range(gamma):
        for sig in enumerate_orbifolds(gamma, ell):
            if sig in seen:
                raise ArithmeticError(
                    f"signature {sig} admitted by both ell={seen[sig]} and ell={ell}"
                )
            seen[sig] = ell
    return CensusResult(gamma, tuple((ell, sig) for sig, ell in seen.items()))
