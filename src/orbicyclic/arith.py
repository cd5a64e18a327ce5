"""Elementary multiplicative number theory.

Factorization, the Mobius and Euler functions, the Jordan totient, the
von Sterneck function Phi(k, n), Ramanujan sums C_n(k), and the generic
periodic-average functional whose semi-multiplicativity underlies the
closed formulas elsewhere in this package.

All functions are pure and use exact integer (or Fraction) arithmetic; the
caches kept here are of factorizations and of the two tables of
factorization's p - 1 method: the exponent stage one raises 2 to and the
pairs stage two multiplies over.  Four rules serve the whole
package: _require_int refuses an argument outside its integer domain with a
ValueError (_require_ints is its form for a sequence), _require_printable
and _require_within refuse a valid input past a library bound with a
GuardError, and every kept value lives in a _Store, a dict within a byte
budget.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Callable, Iterable
from itertools import compress, count

# A Factorization is an ordered list of (prime, exponent) pairs with the
# primes strictly increasing; [] represents 1.
Factorization = list[tuple[int, int]]

_TRIAL_LIMIT = 10_000
# Trial division stops at the first odd d past _TRIAL_LIMIT, and decides
# alone every n below d**2
_PAST_TRIAL = 10_001**2

# periodic_average calls f per residue of each distinct period and multiplies
# modulus-long rows in C.  Best of 3, 2-core VM, CPython 3.11.7: von_sterneck
# on (720720, 720720) 0.55 s, on (10**6,) 0.68 s; gcd on (720720, 360360) 0.25 s.
BRUTE_FORCE_GUARD = 10**6

# Python's default int-to-str limit; _require_printable refuses values past it.
PRINT_DIGITS = 4300

# A refusal by _require_within shows a number of more digits by its digit count.
_WITHIN_DIGITS = 50

# The first 13 primes make Miller-Rabin deterministic below psi_13, the
# least strong pseudoprime to all of them (Sorenson and Webster 2015).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


class GuardError(ValueError):
    """A valid input refused by a library bound on cost, printed digits or a proven range."""


def _shown(value, most: float = math.inf) -> str:
    """repr(value), or for an int past Python's int-to-str limit, or of more than
    most digits, its sign and digit count."""
    try:
        text = repr(value)
    except ValueError:  # an int past the str limit
        pass
    else:
        if not isinstance(value, int) or len(text.lstrip("-")) <= most:
            return text
    size = abs(value)
    # 2**(b-1) <= size < 2**b leaves two digit counts; one power of 10 decides
    digits = int(size.bit_length() * math.log10(2)) + 1
    if size < 10 ** (digits - 1):
        digits -= 1
    return f"a {'negative ' if value < 0 else ''}{digits}-digit number"


def _require_int(value, what: str, least: int | None = None) -> None:
    """Refuse value unless it is an int, and >= least if given: the one domain rule.

    A bool is an int subclass but never a valid argument here.
    """
    # a plain int, the hot-path case, is settled by its type and skips isinstance
    if type(value) is int or isinstance(value, int) and not isinstance(value, bool):
        if least is None or value >= least:
            return
    bound = "" if least is None else f" >= {least}"
    raise ValueError(f"{what} must be an integer{bound}, got {_shown(value)}")


def _require_ints(values: Iterable, what: str, least: int) -> list[int]:
    """list(values), each refused as _require_int refuses it, the first bad one in order.

    One pass: a plain int >= least is settled inline, any other value by the rule.
    """
    values = list(values)
    for v in values:
        if type(v) is not int or v < least:
            _require_int(v, what, least)
    return values


def _require_printable(
    name: str, exponent: int = 0, base: int = 1, digits: float = 0.0
) -> None:
    """Refuse a value that may pass PRINT_DIGITS digits.

    The value is at most base**exponent * 10**digits.  The exponent is
    compared, never raised to, so any size takes constant time; a base
    <= 1 bounds nothing.
    """
    room = PRINT_DIGITS - digits
    if room <= 0 or (base > 1 and exponent >= room / math.log10(base)):
        raise GuardError(f"{name} may exceed the {PRINT_DIGITS}-digit print limit")


def _require_within(what: str, value: int, guard: int, *named: int) -> None:
    """Refuse a valid input whose measure of cost or size, value, passes its guard.

    Each {} in what stands for one of named, shown as the value is: by its
    digit count past _WITHIN_DIGITS digits, so that a refusal stays readable.
    """
    if value > guard:
        what = what.format(*(_shown(v, _WITHIN_DIGITS) for v in named))
        raise GuardError(f"{what} {_shown(value, _WITHIN_DIGITS)} exceeds the guard {guard}")


# Bytes charged per kept entry for its key, int header and dict slot, beside
# what a store's size function charges for the value itself.
_ENTRY_BYTES = 200


class _Store(dict):
    """{key: build(key)}, each value kept only while the charges sum to <= budget bytes.

    A value's charge is size(key, value) bytes.  The first values that fit are
    kept and none is evicted, so a call never costs more than with an empty
    store; a build that raises keeps nothing.
    """

    # read on every miss, where slots save about 0.3 us against an instance dict
    __slots__ = ("build", "budget", "size", "held")

    def __init__(self, build: Callable, budget: float, size: Callable) -> None:
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


def _exact_quotient(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator, exact by proof: a remainder is an internal error."""
    q, rem = divmod(numerator, denominator)
    if rem:
        raise ArithmeticError(f"{what}: {numerator} is not divisible by {denominator}")
    return q


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < MR_BOUND."""
    _require_int(n, "is_prime argument")
    _require_within("Miller-Rabin argument", n, MR_BOUND - 1)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Rho takes about sqrt(p) steps for the least prime p of n, so the slowest
# cofactor factorize accepts is a product of two primes just below
# sqrt(MR_BOUND), about 2**40.7, that both p - 1 stages leave to rho.
# Measured on a 2-core VM under CPython 3.11.7 over 17 semiprimes near
# sqrt(MR_BOUND)**2, both stages in front: the 11 they leave to rho took a
# median 0.62 s, range 0.24-1.1 s per call.  That is the worst case, so the
# walk needs no step budget.
def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of an odd composite n (Brent's variant).

    Brent's cycle detection (Brent 1980) on the walk y -> y^2 + c mod n.
    In round r = 1, 2, 4, ... the point x = y is saved, y takes r steps
    unchecked and then r more, each multiplying x - y into a running
    product, reduced mod n once per four steps, with one gcd per batch of
    steps.  If a batch's gcd is n, the batch is replayed from its saved
    start with one gcd per step; only if that also gives n is a fresh walk
    taken.  Every walk starts from y = 2, the first with c = 1 and each
    fresh one with the next c, so the factor found depends only on n.
    """
    batch = 128
    for c in count(1):
        y = 2
        g = q = r = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, batch):
                ys = y
                steps = min(batch, r - k)
                for _ in range(steps % 4):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                for _ in range(steps // 4):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _prime_sieve(bound: int) -> bytearray:
    """sieve[i] == 1 exactly for the primes i <= bound."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound + 1, i)))
    return sieve


def _smooth_exponent(bound: int) -> int:
    """The product of the largest power <= bound of each prime <= bound."""
    exponent = 1
    for p in compress(range(bound + 1), _prime_sieve(bound)):
        power = p
        while power * p <= bound:
            power *= p
        exponent *= power
    return exponent


# Stage two's wheel, 2 * 3 * 5 * 7 * 11: every prime q past 11 is k * w - j
# or k * w + j for one k and one j < w / 2 coprime to w.
_WHEEL = 2310


def _stage_two_rows(low: int, high: int) -> tuple[bytes, ...]:
    """Stage two's pairs for the primes in (low, high], low >= _WHEEL / 2.

    Row k lists, by index among the j < _WHEEL / 2 coprime to _WHEEL, each j
    for which k * _WHEEL - j or k * _WHEEL + j is such a prime.
    """
    half = _WHEEL // 2
    sieve = _prime_sieve(high + _WHEEL)
    sieve[: low + 1] = bytes(low + 1)
    sieve[high + 1 :] = bytes(_WHEEL)
    babies = [j for j in range(1, half, 2) if math.gcd(j, _WHEEL) == 1]
    rows = [b""]
    for c in range(_WHEEL, high + half, _WHEEL):
        window = sieve[c - half : c + half]  # window[half + d] is sieve[c + d]
        rows.append(bytes(i for i, j in enumerate(babies) if window[half - j] or window[half + j]))
    return tuple(rows)


def _stage_table(key):
    """Stage one's exponent for the key bound, stage two's rows for a key (low, high)."""
    return _stage_two_rows(*key) if isinstance(key, tuple) else _smooth_exponent(key)


def _stage_table_bytes(key, table) -> int:
    """A table's charge: the exponent's bytes, or each row's and 41 for its header and slot."""
    if isinstance(table, int):
        return _ENTRY_BYTES + table.bit_length() // 8
    return _ENTRY_BYTES + 41 * len(table) + sum(map(len, table))


# Pollard's p - 1 method needs two tables, {key: table}, each built on first
# use, never at import.  Stage one's exponent, key _TRIAL_LIMIT, has 14,447
# bits, is built in 1.2 ms and is charged 2,005 bytes; stage two's rows, key
# (_TRIAL_LIMIT, _STAGE_TWO_BOUND), hold 6,534 pairs in 44 rows, are built in
# 2.3 ms and are charged 8,538 bytes (tracemalloc: 8,246).
_stage_tables = _Store(_stage_table, 2**14, _stage_table_bytes)

# Stage two covers the primes in (_TRIAL_LIMIT, _STAGE_TWO_BOUND].  Mean
# factorize time over 600 products of two 32-bit primes drawn as e-wide draws
# them (random.Random(1)), two alternated passes, 2-core VM, CPython 3.11.7:
# 26.0-26.7 ms with no stage two, 21.8-23.7 ms to 3 * 10**4, 19.3-19.9 ms to
# 10**5, 22.4-22.6 ms to 3 * 10**5 and 26.8-34.4 ms to 10**6.  To 10**5 it
# splits 135 of the 416 cofactors that stage one leaves, at 1.6-2.7 ms each.
_STAGE_TWO_BOUND = 10**5


def _stage_two(h: int, n: int) -> int:
    """The product, mod n, of V(k w) - V(j) over stage two's pairs (k, j).

    V(x) = h^x + h^-x mod n and w = _WHEEL.  The babies V(j), for the j <
    w / 2 coprime to w, come from V(j + 2) = V(j) V(2) - V(j - 2), the
    giants from V((k + 1) w) = V(k w) V(w) - V((k - 1) w).
    """
    rows = _stage_tables[_TRIAL_LIMIT, _STAGE_TWO_BOUND]
    v = (h + pow(h, -1, n)) % n
    two = (v * v - 2) % n
    babies = []
    before = v  # V(-1) = V(1)
    for j in range(1, _WHEEL // 2, 2):
        if math.gcd(j, _WHEEL) == 1:
            babies.append(v)
        before, v = v, (v * two - before) % n
    step = (v * v - 2) % n  # v is V(w / 2), so this is V(w)
    before, giant = step, 2  # V(-w) and V(0)
    product = 1
    for row in rows:
        terms = map(babies.__getitem__, row)
        for _ in range(len(row) % 4):
            product = product * (giant - next(terms)) % n
        for a, b, c, d in zip(terms, terms, terms, terms):
            product = product * (giant - a) * (giant - b) * (giant - c) * (giant - d) % n
        before, giant = giant, (giant * step - before) % n
    return product


def _split(n: int) -> int:
    """Return a nontrivial factor of an odd composite n.

    Pollard's p - 1 method (Pollard 1974) in two stages, then Brent's rho.
    Stage one takes h = 2^E mod n, where E is the product of the largest
    power <= _TRIAL_LIMIT of each prime <= it, in one C-level pow; its gcd
    g = gcd(h - 1, n) is divisible by each prime p of n modulo which h has
    order 1, as it has when every prime power dividing p - 1 is at most the
    bound.  Where g is 1, stage two (Montgomery 1987) multiplies V(k w) -
    V(j) = h^-(k w) (h^(k w) - h^j) (h^(k w) - h^-j) over pairs that cover
    every prime in (_TRIAL_LIMIT, _STAGE_TWO_BOUND] as k w - j or k w + j,
    reduced mod n once per four terms, and takes one gcd: it is divisible by
    each prime p modulo which h has a covered prime order.  Where the last
    gcd taken is 1 or n, rho splits n.
    """
    h = pow(2, _stage_tables[_TRIAL_LIMIT], n)
    g = math.gcd(h - 1, n)
    if g == 1:
        g = math.gcd(_stage_two(h, n), n)
    return g if 1 < g < n else _pollard_rho(n)


def factorize(n: int) -> Factorization:
    """Factor n >= 1 into (prime, exponent) pairs, primes increasing.

    Trial division up to 10**4, which alone decides every n below 10**8 and
    is skipped from 10001**2 on for an n that one gcd shows coprime to every
    prime up to 10**4; then deterministic Miller-Rabin for a cofactor that
    trial division leaves undecided, split by Pollard's p - 1 method, stage
    one with the same bound 10**4 and stage two to 10**5, or, where both
    fail, by Pollard rho (Brent's variant with batched gcds); that cofactor
    must be below MR_BOUND (GuardError otherwise); no sub-exponential
    machinery.  Factorizations are kept in _factorizations; every call
    returns a fresh list.
    """
    _require_int(n, "factorize argument", 1)
    return list(_factorizations[n])


def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """factorize(n) as a tuple, for an n already known to be an int >= 1."""
    exponents: dict[int, int] = {}
    # From _PAST_TRIAL on, trial division of an n with no prime <= _TRIAL_LIMIT
    # runs all 5,000 steps and finds nothing.  Every such prime divides stage
    # one's exponent, so one gcd with it shows that at once; a gcd with 30
    # first spares an n with a factor 2, 3 or 5 that gcd's 8-10 us.
    if n < _PAST_TRIAL or math.gcd(n, 30) > 1 or math.gcd(n, _stage_tables[_TRIAL_LIMIT]) > 1:
        for p in (2, 3, 5):
            while n % p == 0:
                exponents[p] = exponents.get(p, 0) + 1
                n //= p
        d = 7
        while d <= _TRIAL_LIMIT and d * d <= n:
            while n % d == 0:
                exponents[d] = exponents.get(d, 0) + 1
                n //= d
            d += 2
        if d * d > n:  # trial division passed sqrt(n), so n is 1 or a prime
            if n > 1:
                exponents[n] = 1
            return tuple(sorted(exponents.items()))
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
        else:
            f = _split(m)
            stack.append(f)
            stack.append(m // f)
    return tuple(sorted(exponents.items()))


# Every E and every totient factors its modulus, and a sweep repeats its
# moduli, so each factorization is kept, {n: ((p, a), ...)}, indexed by an n
# already known to be an int >= 1.  A prime power is charged 100 bytes: its
# pair, two ints and a pointer.  Measured with tracemalloc under CPython
# 3.11.7: one benchmark round keeps 60 (e-triangle), 67 (e-wide) and 200
# (atlas), 0.02-0.05 MB; full, about 4,000 n near 10**6 or 10**12, 1.4-1.5 MB
# traced for 2.1 MB charged.
_factorizations = _Store(_factor, 2**21, lambda n, fac: _ENTRY_BYTES + 100 * len(fac))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, sorted increasing."""
    divs = [1]
    for p, a in factorize(n):
        divs = [d * p**e for d in divs for e in range(a + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    """mu(n): 0 if n has a squared prime factor, else (-1)^(number of primes)."""
    fac = factorize(n)
    if any(a > 1 for _, a in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    """phi(n), the number of 1 <= k <= n coprime to n."""
    return jordan_phi(1, n)


def jordan_phi(k: int, n: int) -> int:
    """Jordan totient phi_k(n) = n^k * prod_{p|n} (1 - p^(-k)).

    Equals sum_{d|n} d^k mu(n/d).  The k = 0 case degenerates to the
    unit: phi_0(1) = 1 and phi_0(n) = 0 for n > 1, which the product
    form already delivers (each local factor becomes 1 - 1 = 0).  It is at
    most n^k, which must stay within PRINT_DIGITS digits.
    """
    _require_int(k, "jordan_phi order", 0)
    fac = factorize(n)
    _require_printable("jordan_phi", k, n)
    return math.prod(p ** (a * k) - p ** ((a - 1) * k) for p, a in fac)


def von_sterneck(k: int, n: int) -> int:
    """The von Sterneck function Phi(k, n).

    Phi(k, n) = phi(n) / phi(n/g) * mu(n/g) with g = gcd(k, n), where k
    is first reduced mod n and k = 0 is treated as gcd n.  Evaluated
    multiplicatively over the prime powers p^a of n:

        Phi(k, p^a) = (p-1) p^(a-1)   if p^a     | k,
                    = -p^(a-1)        if p^(a-1) | k but p^a does not,
                    = 0               otherwise.
    """
    _require_int(n, "von_sterneck modulus", 1)
    if not isinstance(k, int):  # a bool k is harmless: it reduces like 0 or 1
        raise ValueError(f"von_sterneck argument must be an integer, got {k!r}")
    k %= n
    result = 1
    for p, a in factorize(n):
        pa = p**a
        if k % pa == 0:
            result *= (p - 1) * (pa // p)
        elif k % (pa // p) == 0:
            result *= -(pa // p)
        else:
            return 0
    return result


def ramanujan_sum(n: int, k: int) -> int:
    """Ramanujan's sum C_n(k) = sum_{d | gcd(k,n)} d * mu(n/d).

    The kernel is mu(n/d); a mu(k/d) sometimes seen in print is a
    misprint, and the test suite pins this form against von_sterneck
    (Hoelder's identity C_n(k) = Phi(k, n)).  gcd(0, n) counts as n.
    """
    _require_int(n, "ramanujan_sum modulus", 1)
    _require_int(k, "ramanujan_sum argument")
    g = math.gcd(k, n)
    return sum(d * mobius(n // d) for d in divisors(g))


def periodic_average(
    f: Callable[[int, int], int], periods: Iterable[int], modulus: int
) -> __import__("fractions").Fraction:  # loaded when the hint is read, not at import
    """Exact mean (1/M) * sum_{k=1..M} prod_j f(k, m_j), summed over every k.

    f(k, m) must be periodic in k modulo m (caller contract) and every
    period must divide the modulus M; the value is then independent of
    which admissible M is chosen, up to M <= BRUTE_FORCE_GUARD.  Each period,
    repeated c times, gives one row [f(k, m) ** c, k < m] that multiplies into
    an M-long column in C.  Returns a Fraction since the mean need not be an
    integer (f = gcd is the standard example).
    """
    _require_int(modulus, "modulus", 1)
    ms = _require_ints(periods, "period value", 1)
    for m in ms:
        if modulus % m != 0:
            raise ValueError(f"period {_shown(m)} does not divide modulus {_shown(modulus)}")
    _require_within("brute-force modulus", modulus, BRUTE_FORCE_GUARD)
    from fractions import Fraction  # its one user in the package: load it here
    column = [1] * modulus
    for m, c in Counter(ms).items():
        row = [f(k, m) ** c for k in range(m)]
        column = list(map(operator.mul, column, row * (modulus // m)))
    return Fraction(sum(column), modulus)
