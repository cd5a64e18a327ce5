"""Restricted linear congruence counting, an independent oracle for E.

Counts solutions (x_1, ..., x_r) modulo M of

    x_1 + ... + x_r = 0 (mod M),    gcd(x_j, M) = M / m_j,

where each m_j divides M.  The count does not depend on the admissible
M chosen and equals E(m_1, ..., m_r), which makes it a combinatorial
cross-check for both the brute-force and the closed-form evaluators.

By the Chinese remainder theorem the system holds modulo M iff it holds
modulo each of pairwise coprime blocks q with product M, where the
periods become their q-parts gcd(m_j, q); so the count is the product of
the block counts.  This is elementary CRT, not the multiplicativity of E,
which the count thus checks.  A block of M that divides no period counts
1, so only the blocks of the lcm are counted: the powers of the primes
below 1,000 and, for what trial division leaves, powers of a coprime base
built from gcds alone; a base element left composite is trial-divided
further, as far as a block the step guard can count.  Within a block, the
residues of each order form a 0/1 polynomial packed into one integer, and
the block count is read off a product of these modulo z^L - 1.  Class
polynomials are kept, within a byte budget, for the next count that needs
them, and so is each count, once per period tuple, in a store of its own
that no evaluator of E reads; a count refused by the step guard is not kept.
"""

from __future__ import annotations

import math

from .orbicyclic import _ENTRY_BYTES, Periods, _coerce, _require_int, _require_within, _shown
from .orbicyclic import _Store

# Bounds one count's steps, summed over its blocks and charged before any
# work.  A step is one residue visited to build a class or to take a sparse
# product (0.15-0.2 us), charged even when the class is kept, so no refusal
# depends on earlier calls.  A product of two packed N-bit polynomials is
# charged (N / 354) ** 1.585 steps (Karatsuba: 12 ns times (N / 30) ** 1.585,
# at 0.5 us a step), a product by a class of order n taken as n shifted sums
# n * N / 2700, whichever is less, and each reduction mod z^L - 1 N / 900.
# A trial division past 1,000, made to split a block (0.1 us), is one step.
# First call, 2-core VM, CPython 3.11.7: 0.11-0.42 us per charged step over
# 60 shapes; the largest prime blocks passed with 3, 4 and 5 coordinates,
# 61879, 27437 and 16381, take 0.34, 0.42 and 0.39 s, and (2**19,) * 2 +
# (64,) * 2 0.42 s.
STEP_GUARD = 10**6

# Trial division by 2 and the odd numbers below 1,000: an odd composite never
# divides what the division by its primes has left, so only the primes split.
_TRIAL_DIVISORS = (2, *range(3, 1000, 2))


def count_congruence_solutions(M: int, t: Periods) -> int:
    """Number of solutions of the restricted congruence system above.

    In a block the orders n_j = gcd(m_j, q) of the x_j are powers of one
    base element, so they form a chain.  The count is 0 unless the largest
    order L is taken at least twice, since x_1, one x_j of order L, is
    solved from the congruence and -x_1 = x_2 + ... + x_r must reach order
    L.  Then the class of order n in Z_L is the polynomial sum of z^y over
    the y of order n; the classes of x_2, ..., x_r are multiplied mod
    z^L - 1, so the coefficient of z^s counts the partial tuples summing to
    s, and the block count sums the coefficients at the s of order L.
    Coefficients stay below 2^B, B the bit length of L times the number of
    x_2, ..., x_r of order above 1, since n - 1 bounds a class of order n
    and the others are 0; they are packed B bits apart, rounded up to whole
    bytes, and the sum is one mask and one remainder mod 2^B - 1.  A small
    class multiplies as shifted sums, a large one as one product of integers.
    """
    t = _coerce(t)
    _require_int(M, "modulus", 1)
    for mj in t:
        if M % mj != 0:
            raise ValueError(f"period {_shown(mj)} does not divide modulus {_shown(M)}")
    return _counts[t]


def _count(t: tuple[int, ...]) -> int:
    """The count for t at its lcm, refused past STEP_GUARD before any class is built."""
    m = t.m
    blocks, divisions = _blocks(m, t), 0
    if m > _TRIAL_DIVISORS[-1] ** 2:  # below, every block is a prime power
        blocks, divisions = _split_blocks(blocks, t)
    plans = []
    for q in blocks:
        orders = sorted([g for mj in t if (g := math.gcd(mj, q)) > 1])
        L = orders.pop()
        if not orders or orders.pop() != L:  # the count is 0: no work, no charge
            return 0
        if L >> 64:  # the float model could overflow; the pass over Z_L is past the guard
            plans.append((L, q, L, 0, []))
            continue
        cost, slot, products = _plan(L, orders)
        plans.append((int(cost), q, L, slot, products))
    steps = divisions + sum(plan[0] for plan in plans)
    if steps > STEP_GUARD:  # the costliest block is sought only for the message
        worst, q = max(plan[:2] for plan in plans)
        _require_within("congruence steps (block {} takes {})", steps, STEP_GUARD, q, worst)
    count = 1
    for _, _, L, slot, products in plans:
        span = L * slot
        w = generators = _polynomials[L, slot, L]
        for n, sparse in products:
            if sparse:
                stride = L // n * slot
                w = sum(w << u * stride for u in _units(n))
            else:
                w *= _polynomials[L, slot, n]
            w = (w & (1 << span) - 1) + (w >> span)
        ones = (1 << slot) - 1
        count *= (w & generators * ones) % ones
    return count


def _plan(L: int, orders: list[int]) -> tuple[float, int, list[tuple[int, bool]]]:
    """(steps, slot, products) of a block whose order L is taken twice, orders the rest."""
    slot = ((len(orders) + 1) * L.bit_length() + 7) // 8 * 8
    N = L * slot
    dense = (N / 354) ** 1.585
    products = [(n, n * N / 2700 < dense) for n in orders]
    cost = L + (len(orders) + 1) * N / 900
    for n, sparse in products:
        cost += n + (n * N / 2700 if sparse else dense)
    return cost, slot, products


def _blocks(m: int, t: tuple[int, ...]) -> list[int]:
    """Pairwise coprime blocks with product m, each a power of one base element.

    Trial division by the primes below 1,000 splits off their powers.  A
    rest that trial division passed the square root of is 1 or a prime;
    any other rest is split by a coprime base of it and its gcds with the
    periods, so that each period's part in a block is a power of its base.
    """
    blocks, rest = [], m
    for p in _TRIAL_DIVISORS:
        if p * p > rest:
            break
        if rest % p == 0:
            q = p
            rest //= p
            while rest % p == 0:
                q *= p
                rest //= p
            blocks.append(q)
    else:
        for b in _coprime_base([rest] + [math.gcd(mj, rest) for mj in t]):
            q = b
            while rest % (q * b) == 0:
                q *= b
            blocks.append(q)
        return blocks
    if rest > 1:
        blocks.append(rest)
    return blocks


def _split_blocks(blocks: list[int], t: tuple[int, ...]) -> tuple[list[int], int]:
    """The _blocks of t, each one they leave composite split further; and the
    trial divisions that took.

    Only a base element past 1,000^2, which no prime below 1,000 divides, may
    be composite, and it is split only if two periods reach it in full, so
    that its count is not 0 at once.
    """
    split, divisions = [], 0
    for q in blocks:
        if q > _TRIAL_DIVISORS[-1] ** 2 and all(q % p for p in _TRIAL_DIVISORS):
            reached = [g for mj in t if (g := math.gcd(mj, q)) > 1]
            if reached.count(q) > 1:
                parts, spent = _trial_split(q, len(reached) - 2)
                split += parts
                divisions += spent
                continue
        split.append(q)
    return split, divisions


def _trial_split(q: int, others: int) -> tuple[list[int], int]:
    """q's prime-power parts found by trial division, then its cofactor; and the
    divisions made.

    q has no prime below 1,000; its order q is taken twice and others more
    coordinates have order above 1, so a block of a prime p of q has all its
    orders p or above.  Odd d is tried up to the square root of what is left,
    and no further than the largest L whose block of such orders fits in
    STEP_GUARD: a prime past it is refused whatever block it lands in.
    """
    lo, hi = 1, STEP_GUARD  # a block's steps rise with its orders
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if _plan(mid, [mid] * others)[0] <= STEP_GUARD else (lo, mid - 1)
    parts, start = [], _TRIAL_DIVISORS[-1] + 2
    d = start
    while d <= lo and d * d <= q:
        if q % d == 0:
            part = 1
            while q % d == 0:
                part *= d
                q //= d
            parts.append(part)
        d += 2
    return parts + [q] * (q > 1), (d - start) // 2


def _coprime_base(values: list[int]) -> list[int]:
    """Pairwise coprime b > 1 such that each value is a product of powers of them.

    Two elements with g = gcd(a, b) > 1 are replaced by g, a / g and b / g,
    which lowers the product of all elements, until none share a factor.
    """
    base: list[int] = []
    todo = [v for v in values if v > 1]
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                del base[i]
                todo += [v for v in (g, a // g, b // g) if v > 1]
                break
        else:
            base.append(a)
    return base


def _units(n: int) -> list[int]:
    """The u in range(n) prime to n: y = u * L / n runs over the order-n class of Z_L."""
    return [u for u in range(n) if math.gcd(u, n) == 1]


def _class_polynomial(key: tuple[int, int, int]) -> int:
    """The sum of 2^(slot * y) over the y of order n in Z_L, key = (L, slot, n)."""
    L, slot, n = key
    stride = L // n * slot // 8
    packed = bytearray(L * slot // 8)
    for u in _units(n):
        packed[u * stride] = 1
    return int.from_bytes(packed, "little")


# Class polynomials kept across calls: a sweep repeats its blocks, and a
# class build is most of a small count.  Over 10 alternated 28 s e-triangle
# pairs (2-core VM, CPython 3.11.7) the store took 69.6k to 76.4k ops/s in
# the median against building every class afresh (10 of 10 pairs; IQR
# without it 68.1k-70.9k), and p90 0.0259 to 0.0216 ms.  Each class is
# charged its packed bytes plus _ENTRY_BYTES.  Measured with tracemalloc under
# CPython 3.11.7: full with the 2,701 classes of order L of the L < 5000 at
# one-byte slots, 4.29 MB traced for 4.19 MB charged; an e-triangle round keeps
# 61 classes, 0.01 MB.
_polynomials = _Store(_class_polynomial, 2**22, lambda key, _: key[0] * key[1] // 8 + _ENTRY_BYTES)


# One count per period tuple: a sweep repeats its tuples (an e-triangle round
# draws about 1,790 distinct ones among 10,000), and the count does not depend
# on the admissible M.  The step guard is checked before any class is built, so
# a refusal is never kept and a kept count is returned as kept.  Each entry is
# charged _ENTRY_BYTES, 40 bytes per period and the count's bytes.  Measured
# with tracemalloc under CPython 3.11.7: an e-triangle round keeps 1,779
# counts, 0.21 MB traced for 0.59 MB charged; full with 5,945 distinct tuples of
# up to 6 divisors of m <= 5000, 0.82 MB traced for 2.10 MB charged.
_counts = _Store(
    _count, 2**21, lambda t, count: _ENTRY_BYTES + 40 * len(t) + count.bit_length() // 8
)
