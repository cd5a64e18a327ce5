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
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import product, repeat
from operator import mul

from .arith import PRINT_DIGITS, _exact_quotient, _factorize, _require_int
from .arith import _require_printable, _require_within, divisors, is_prime

TRIPLES_GUARD = 10**4


class PeriodTuple(tuple):
    """Multiset of integers >= 1, the argument tuple of E.

    A tuple stored nonincreasing, so that equality and hashing ignore
    input order; m is the lcm.  Values equal to 1 are retained;
    reduced() drops them, which leaves E unchanged.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int] = ()):
        values = list(values)
        for v in values:
            _require_int(v, "period value", 1)
        values.sort(reverse=True)
        return super().__new__(cls, values)

    @property
    def m(self) -> int:
        """lcm of the values (1 for the empty tuple)."""
        return math.lcm(*self)

    def reduced(self) -> "PeriodTuple":
        """The same multiset with all 1s removed."""
        return PeriodTuple(v for v in self if v > 1)

    def __repr__(self) -> str:
        return f"PeriodTuple({list(self)!r})"


Periods = Iterable[int]


def _coerce(t: Periods) -> PeriodTuple:
    return t if isinstance(t, PeriodTuple) else PeriodTuple(t)


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
    """local_profile without the primality test, for primes from _factorize."""
    exps = []
    for mj in t:
        e = 0
        while mj % p == 0:
            e += 1
            mj //= p
        if e:
            exps.append(e)
    if not exps:  # for a prime p, the same as p not dividing the lcm
        raise ValueError(f"{p} divides no value of {t!r}")
    a, r_p = max(exps), len(exps)
    return LocalProfile(p, a, exps.count(a), sum(exps) - r_p - a + 1, r_p)


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
    p, s = profile.p, profile.s
    return (p - 1) ** (profile.r_p - s + 1) * p**profile.v * _h_poly(s, p)


def E_closed(t: Periods) -> int:
    """E via the closed multiplicative formula (product of local factors).

    A nonzero E must stay within PRINT_DIGITS digits; since E <= prod m_j,
    only a tuple whose product passes that limit is looked at more closely.
    There, unless E vanishes, |h_s(p)| <= (p-1)^(s-1) bounds each local
    factor by (p-1)^r_p * p^v, from profiles alone, before any power.
    """
    t = _coerce(t)
    fac = _factorize(t.m)  # a PeriodTuple's lcm is already a valid argument
    if sum(map(math.log10, t)) >= PRINT_DIGITS and not vanishes(t)[0]:
        profiles = [_local_profile(t, p) for p, _ in fac]
        logs = [q.r_p * math.log10(q.p - 1) + q.v * math.log10(q.p) for q in profiles]
        _require_printable("E", digits=sum(logs))
    result = 1
    for p, _ in fac:
        result *= E_local(_local_profile(t, p))
        if result == 0:
            return 0
    return result


# E_bruteforce's steps, charged before any work: tau(M) per distinct period for
# its column, and per class k * sqrt(k) for each of the (distinct periods + 1)
# passes over terms of k 1024-bit words (terms are below M ** (len + 1)).
# Best of 5 first calls, shared 2-core VM, CPython 3.11.7, with the stores
# emptied: the first 16 primes' product 0.03 s, (that product,) * 14 0.06 s.
_MEAN_GUARD = 2**18


class _Store(dict):
    """{key: build(key)}, each value kept only while the sizes sum to <= budget.

    A value's size is size(key, value), its length by default; nothing is evicted.
    """

    def __init__(self, build: Callable, budget: int, size: Callable = lambda k, v: len(v)):
        self.build, self.budget, self.size, self.held = build, budget, size, 0

    def __missing__(self, key):
        value = self.build(key)
        size = self.size(key, value)
        if self.held + size <= self.budget:
            self[key] = value
            self.held += size
        return value

    def clear(self) -> None:
        super().clear()
        self.held = 0


def _divisor_table(M: int, local: Callable[[int, int], list[int]]) -> tuple[int, ...]:
    """prod of local(p, a)[e] over the p^a || M, for each divisor prod p^e of M."""
    table = [1]
    for p, a in _factorize(M):  # the last prime's exponent varies fastest: one order per M
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
# _divisor_table.  With tracemalloc, CPython 3.11.7, each full with the 2^15
# divisors of the product of the first 15 primes: 1.34 MB each.
_classes = _Store(_class_sizes, 2**15)
_columns = _Store(_von_sterneck_column, 2**15)


def E_bruteforce(t: Periods) -> int:
    """E from the defining mean over one period k = 1..M, M the lcm, by gcd class.

    Phi(k, m) for m | M depends on k only through g = gcd(k, M), which phi(M/g)
    residues share: E = (1/M) * sum_{g | M} phi(M/g) * prod_j Phi(g, m_j) ** c_j,
    c_j the multiplicity of m_j.  No local profile, h_s or product over primes.
    """
    t = _coerce(t)
    M = t.m
    counts: dict[int, int] = {}
    for m in t:
        counts[m] = counts.get(m, 0) + 1
    kbits = 1 + (len(t) + 1) * M.bit_length() // 1024
    tau = math.prod([a + 1 for _, a in _factorize(M)])
    steps = tau * ((len(counts) + 1) * kbits * math.isqrt(kbits) + len(counts))
    _require_within("brute-force steps", steps, _MEAN_GUARD)
    terms = _classes[M]
    for m, c in counts.items():
        column = _columns[M, m]
        terms = map(mul, terms, column if c == 1 else map(pow, column, repeat(c)))
    return _exact_quotient(sum(terms), M, "brute-force sum")  # the mean is an integer


def _vanishing_primes(t: PeriodTuple) -> Iterator[tuple[int, int]]:
    """Primes p | lcm whose local factor is 0, ascending, each with s(p).

    The witnesses are the odd p with s(p) = 1 and p = 2 with s(2) odd.
    """
    for p, _ in _factorize(t.m):
        s = _local_profile(t, p).s
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
    for p, a in _factorize(m):
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
    for p, a in _factorize(m):
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
    for p, _ in _factorize(t.m):
        prof = _local_profile(t, p)
        a, s, r_p = prof.a, prof.s, prof.r_p
        if s == 2 and r_p == 2:
            continue
        if p == 3 and a == 1 and s == 3 and r_p == 3:
            continue
        # Dyadic chain: two top entries, the rest single 2s.  In profile
        # terms v = a - 1 together with s counting the top entries.
        if p == 2 and r_p >= 3 and prof.v == a - 1:
            if a == 1:
                if r_p % 2 == 0:
                    continue
            elif s == 2:
                continue
        return False
    return True
