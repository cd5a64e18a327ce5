"""The orbicyclic multivariate function E(m_1, ..., m_r).

E is the mean over one period of a product of von Sterneck values,

    E(m_1, ..., m_r) = (1/M) * sum_{k=1..M} Phi(k, m_1) ... Phi(k, m_r),

where M is any common multiple of the m_j (M = lcm suffices; the value
does not depend on the choice).  E is symmetric, multiplicative, takes
nonnegative integer values, E() = E(1, ..., 1) = 1, and arguments equal
to 1 can be dropped.  The closed form multiplies one local factor

    E_p = (p-1)^(r(p)-s(p)+1) * p^v(p) * h_s(p)(p)

per prime p | lcm, where a(p) is the exponent of p in the lcm, s(p)
counts arguments attaining it, v(p) = sum_{p | m_j} (a_j(p)-1) - a(p) + 1,
r(p) counts arguments divisible by p, and h_s is the integer polynomial
h_s(x) = ((x-1)^(s-1) + (-1)^s) / x.

E_closed and E_bruteforce each keep their values, one per period tuple, in a
store of their own within a byte budget, so that a sweep evaluates a repeated
tuple once per evaluator; E_bruteforce also keeps its class sizes per lcm and
its Phi columns per (lcm, period).  Each guard is a module constant checked
before any work, so a refusal is never kept and a kept value is returned as
kept.  A call that finds its tuple kept takes about 0.8 us for three periods,
0.65 us of it _coerce, which checks and sorts the caller's values before any
lookup, since a dict takes True for 1 and 2.0 for 2.  The stores do not
extend reach: a first call does all the work it did without them, and about
0.6-0.7 us more to keep its value.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import product, repeat
from operator import mul

from .arith import _ENTRY_BYTES, PRINT_DIGITS, _exact_quotient, _factorizations, _require_int
from .arith import _require_ints, _require_printable, _require_within, _shown, _Store, divisors
from .arith import is_prime

# Bounds the lcm of enumerate_nonvanishing_triples, and so the triples --check
# scan, _nonvanishing_triples_by_scan, which evaluates tau(m)^3 triples of
# divisors.  Best of 3 fresh processes, 2-core VM, CPython 3.11.7: m = 7560 and
# 9240 (tau = 64, 262,144 triples) 0.25 and 0.36 s, m = 5040 (216,000) 0.19 s;
# enumerate_nonvanishing_triples(7560) takes 2 ms.
TRIPLES_GUARD = 10**4


class PeriodTuple(tuple):
    """Multiset of integers >= 1, the argument tuple of E.

    A tuple stored nonincreasing, so that equality and hashing ignore
    input order; m is the lcm.  Values equal to 1 are retained;
    reduced() drops them, which leaves E unchanged.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int] = ()):
        return tuple.__new__(cls, _canonical(values))

    @property
    def m(self) -> int:
        """lcm of the values (1 for the empty tuple)."""
        return math.lcm(*self)

    def reduced(self) -> "PeriodTuple":
        """The same multiset with all 1s removed."""
        return PeriodTuple(v for v in self if v > 1)

    def __repr__(self) -> str:
        return f"PeriodTuple([{', '.join(map(_shown, self))}])"


Periods = Iterable[int]


def _canonical(values: Periods) -> list[int]:
    """The values of PeriodTuple(values), each checked by the domain rule, nonincreasing."""
    values = _require_ints(values, "period value", 1)
    values.sort(reverse=True)
    return values


def _coerce(t: Periods) -> PeriodTuple:
    # tuple.__new__ skips the dispatch to PeriodTuple.__new__: with the one
    # pass of _require_ints, coercing [12, 6, 4] takes 0.65 us against 0.85-0.95
    return t if type(t) is PeriodTuple else tuple.__new__(PeriodTuple, _canonical(t))


class LocalProfile(namedtuple("LocalProfile", "p a s v r_p")):
    """Per-prime parameters (a, s, v, r_p) of a period tuple at p."""

    __slots__ = ()


def local_profile(t: Periods, p: int) -> LocalProfile:
    """Profile of the tuple at a prime p dividing its lcm.

    a = exponent of p in the lcm, s = number of arguments attaining it,
    v = sum over p-divisible arguments of (a_j - 1), minus a, plus 1,
    r_p = number of arguments divisible by p.
    """
    _require_int(p, "local_profile p", 2)
    if not is_prime(p):
        raise ValueError(f"local_profile p must be a prime, got {p}")
    return _local_profile(_coerce(t), p)


def _local_profile(t: PeriodTuple, p: int) -> LocalProfile:
    """local_profile without the primality test."""
    if all(mj % p for mj in t):  # for a prime p, the same as p not dividing the lcm
        raise ValueError(f"{p} divides no value of {t!r}")
    return LocalProfile(p, *_profile(t, p))


def _profile(t: PeriodTuple, p: int) -> tuple[int, int, int, int]:
    """(a, s, v, r_p) of t at a prime p dividing its lcm, as plain ints."""
    exps = []
    for mj in t:
        e = 0
        while mj % p == 0:
            e += 1
            mj //= p
        if e:
            exps.append(e)
    a, r_p = max(exps), len(exps)
    return a, exps.count(a), sum(exps) - r_p - a + 1, r_p


def h_poly(s: int, x: int) -> int:
    """h_s(x) = ((x-1)^(s-1) + (-1)^s) / x, an integer polynomial.

    h_1 = 0, h_2 = 1, h_3(x) = x - 2, h_4(x) = x^2 - 3x + 3.  The
    numerator is divisible by x for every nonzero integer x, since
    (x-1)^(s-1) = (-1)^(s-1) mod x.  |h_s(x)| <= max(1, |x-1|^(s-1)), which
    must stay within PRINT_DIGITS digits.
    """
    _require_int(s, "h_poly index", 1)
    _require_int(x, "h_poly argument")
    if x == 0:
        raise ValueError("h_poly is indeterminate at x = 0")
    _require_printable("h_poly", s - 1, abs(x - 1))
    return _h_poly(s, x)


def _h_poly(s: int, x: int) -> int:
    """h_poly without its checks, for the primes and counts of a factored lcm."""
    return _exact_quotient((x - 1) ** (s - 1) + (-1) ** s, x, "h_s(x)")


def E_local(profile: LocalProfile) -> int:
    """Local factor (p-1)^(r_p-s+1) * p^v * h_s(p) at one prime of a local_profile."""
    return _local_factor(profile.p, profile.s, profile.v, profile.r_p)


def _local_factor(p: int, s: int, v: int, r_p: int) -> int:
    """E_local from the numbers of a profile, which _closed_value reads as plain ints."""
    return (p - 1) ** (r_p - s + 1) * p**v * _h_poly(s, p)


def E_closed(t: Periods) -> int:
    """E via the closed multiplicative formula (product of local factors).

    A nonzero E must stay within PRINT_DIGITS digits; since E <= prod m_j,
    only a tuple whose product passes that limit is looked at more closely.
    There, unless E vanishes, |h_s(p)| <= (p-1)^(s-1) bounds each local
    factor by (p-1)^r_p * p^v, from profiles alone, before any power.
    """
    return _closed[_coerce(t)]


def _closed_value(t: PeriodTuple) -> int:
    """E_closed(t), refused past the print limit before any power."""
    fac = _factorizations[t.m]  # a PeriodTuple's lcm is already a valid argument
    if sum(map(math.log10, t)) >= PRINT_DIGITS and not vanishes(t)[0]:
        logs = []
        for p, _ in fac:
            _, _, v, r_p = _profile(t, p)
            logs.append(r_p * math.log10(p - 1) + v * math.log10(p))
        _require_printable("E", digits=sum(logs))
    result = 1
    for p, _ in fac:
        _, s, v, r_p = _profile(t, p)
        result *= _local_factor(p, s, v, r_p)
        if result == 0:
            return 0
    return result


# E_bruteforce's steps, charged before any work: tau(M) per distinct period for
# its column, and per class k * sqrt(k) for each of the (distinct periods + 1)
# passes over terms of k 1024-bit words (terms are below M ** (len + 1)).
# Best of 5 first calls, shared 2-core VM, CPython 3.11.7, with the stores
# emptied: the first 16 primes' product 0.03 s, (that product,) * 14 0.06 s.
_MEAN_GUARD = 2**18


def _divisor_table(M: int, local: Callable[[int, int], list[int]]) -> tuple[int, ...]:
    """prod of local(p, a)[e] over the p^a || M, for each divisor prod p^e of M."""
    table = [1]
    for p, a in _factorizations[M]:  # the last prime's exponent varies fastest: one order per M
        factors = local(p, a)
        table = [v * f for v in table for f in factors]
    return tuple(table)


def _class_sizes(M: int) -> tuple[int, ...]:
    """phi(M/g) for each g | M: the number of k < M with gcd(k, M) = g."""
    return _divisor_table(M, lambda p, a: [p**k - p**k // p for k in range(a, -1, -1)])


def _von_sterneck_column(key: tuple[int, int]) -> tuple[int, ...]:
    """Phi(g, m) for each g | M, key = (M, m), by von Sterneck's local rule.

    With p^b || m and q = p^b // p, Phi(p^e, p^b) is p^b - q for e >= b, -q at e = b - 1, else 0.
    """
    M, m = key

    def local(p: int, a: int) -> list[int]:
        b = next(e for e in range(a + 1) if m % p ** (e + 1))
        q = p**b // p
        return [p**b - q if e >= b else -q if e == b - 1 else 0 for e in range(a + 1)]
    return _divisor_table(M, local)


# E_bruteforce's tables, one tuple per lcm and per (lcm, period), aligned by
# _divisor_table, each divisor charged 40 bytes, its pointer and its int.
# Measured with tracemalloc under CPython 3.11.7: an e-triangle round keeps 60
# and 261 tables, 0.01 and 0.05 MB, an e-wide round 22 and 58, 0.01 and 0.04 MB;
# the 2^15-divisor tables of the product of the first 15 primes, 1.34 MB traced
# for 1.31 MB charged each, still fit.
_classes = _Store(_class_sizes, 2**21, lambda M, table: _ENTRY_BYTES + 40 * len(table))
_columns = _Store(_von_sterneck_column, 2**21, lambda key, table: _ENTRY_BYTES + 40 * len(table))


def E_bruteforce(t: Periods) -> int:
    """E from the defining mean over one period k = 1..M, M the lcm, by gcd class.

    Phi(k, m) for m | M depends on k only through g = gcd(k, M), which phi(M/g)
    residues share: E = (1/M) * sum_{g | M} phi(M/g) * prod_j Phi(g, m_j) ** c_j,
    c_j the multiplicity of m_j.  No local profile, h_s or product over primes.
    """
    return _means[_coerce(t)]


def _mean(t: PeriodTuple) -> int:
    """E_bruteforce(t), refused past _MEAN_GUARD before any work."""
    M = t.m
    counts: dict[int, int] = {}
    for m in t:
        counts[m] = counts.get(m, 0) + 1
    kbits = 1 + (len(t) + 1) * M.bit_length() // 1024
    tau = math.prod([a + 1 for _, a in _factorizations[M]])
    steps = tau * ((len(counts) + 1) * kbits * math.isqrt(kbits) + len(counts))
    _require_within("brute-force steps", steps, _MEAN_GUARD)
    terms = _classes[M]
    for m, c in counts.items():
        column = _columns[M, m]
        terms = map(mul, terms, column if c == 1 else map(pow, column, repeat(c)))
    return _exact_quotient(sum(terms), M, "brute-force sum")  # the mean is an integer


# One value per period tuple for each evaluator, each guard checked by its
# builder before any work, so a refusal is never kept and a kept value is
# returned as kept.  The stores are apart, so that no evaluator reads a value
# of another.  A sweep repeats its tuples: an e-triangle round draws about
# 1,790 distinct ones among 10,000, and a call that finds its tuple costs
# 0.75-0.85 us, 0.65 us of it the coercion (timeit, best of 15), against
# 3-3.5 us without the stores (e-triangle 77k to 132k ops/s, median of 10
# alternated 28 s pairs, 2-core VM).  Each entry is charged
# _ENTRY_BYTES, 40 bytes per period and the value's bytes.  Measured with
# tracemalloc under CPython 3.11.7: an e-triangle round keeps 1,779 tuples in
# each store, 0.21 MB traced for 0.59 MB charged; full with 5,945 distinct
# tuples of up to 6 divisors of m <= 5000, 0.82 MB traced for 2.10 MB charged.


def _entry_bytes(t: PeriodTuple, value: int) -> int:
    return _ENTRY_BYTES + 40 * len(t) + value.bit_length() // 8


_closed = _Store(_closed_value, 2**21, _entry_bytes)
_means = _Store(_mean, 2**21, _entry_bytes)


def _vanishing_primes(t: PeriodTuple) -> Iterator[tuple[int, int]]:
    """Primes p | lcm whose local factor is 0, ascending, each with s(p).

    The witnesses are the odd p with s(p) = 1 and p = 2 with s(2) odd.
    """
    for p, _ in _factorizations[t.m]:
        s = _profile(t, p)[1]
        if (s % 2 == 1) if p == 2 else (s == 1):
            yield p, s


def vanishes(t: Periods) -> tuple[bool, str | None]:
    """Whether E(t) = 0, with the witnessing local condition.

    E vanishes iff some odd prime p | lcm has s(p) = 1, or the lcm is
    even and s(2) is odd.
    """
    for p, s in _vanishing_primes(_coerce(t)):
        return True, f"s(2) = {s} is odd" if p == 2 else f"s({p}) = 1"
    return False, None


def f_r(m: int, r: int) -> int:
    """E(m, ..., m) with r repetitions, via f_r(p^a) = (p-1) p^((r-1)(a-1)) h_r(p).

    r = 0 is the empty tuple, so f_0(m) = 1; f_r(m) <= m^(r-1) must fit PRINT_DIGITS.
    """
    _require_int(m, "f_r m", 1)
    _require_int(r, "f_r r", 0)
    if r == 0:
        return 1
    _require_printable("f_r", r - 1, m)
    result = 1
    for p, a in _factorizations[m]:
        result *= (p - 1) * p ** ((r - 1) * (a - 1)) * _h_poly(r, p)
        if result == 0:
            return 0
    return result


def enumerate_nonvanishing_triples(m: int) -> list[tuple[int, int, int]]:
    """All ordered triples (m_1, m_2, m_3) with lcm m and E != 0, sorted.

    Built per prime p | m: the p-parts of a nonvanishing triple are
    p^a, p^a, p^c with 0 <= c <= a = a(p), in three arrangements when
    c < a and one when c = a.  For p = 2 the all-equal choice c = a is
    excluded, since it forces s(2) = 3 and E = 0.  The total is
    therefore prod over odd p of (3a(p) + 1), times 3a(2) if m is even.
    """
    _require_int(m, "lcm", 1)
    _require_within("triples lcm", m, TRIPLES_GUARD)
    per_prime: list[list[tuple[int, int, int]]] = []
    for p, a in _factorizations[m]:
        options = [] if p == 2 else [(p**a, p**a, p**a)]
        for c in range(a):
            top, low = p**a, p**c
            options.extend([(low, top, top), (top, low, top), (top, top, low)])
        per_prime.append(options)
    triples = []
    for combo in product(*per_prime):
        triple = tuple(math.prod(parts) for parts in zip(*combo)) if combo else (1, 1, 1)
        triples.append(triple)
    return sorted(triples)


def _nonvanishing_triples_by_scan(m: int) -> list[tuple[int, int, int]]:
    """enumerate_nonvanishing_triples by scanning every triple of divisors of m."""
    triples = product(divisors(m), repeat=3)
    return sorted(t for t in triples if math.lcm(*t) == m and E_closed(t) != 0)


def equals_phi_classification(t: Periods) -> bool:
    """Structural test for E(t) = phi(lcm t).

    Holds iff for every prime p | lcm the p-parts of the arguments
    (with exponent-0 entries dropped) form one of:

      * a pair (p^a, p^a);
      * the triple (3, 3, 3) for p = 3;
      * (2^a, 2^a, 2, ..., 2) for p = 2, with r(2) >= 3 arguments and
        r(2) even when a = 1.
    """
    t = _coerce(t)
    for p, _ in _factorizations[t.m]:
        a, s, v, r_p = _profile(t, p)
        if s == 2 and r_p == 2:
            continue
        if p == 3 and a == 1 and s == 3 and r_p == 3:
            continue
        # Dyadic chain: two top entries, the rest single 2s.  In profile
        # terms v = a - 1 together with s counting the top entries.
        if p == 2 and r_p >= 3 and v == a - 1:
            if a == 1:
                if r_p % 2 == 0:
                    continue
            elif s == 2:
                continue
        return False
    return True
