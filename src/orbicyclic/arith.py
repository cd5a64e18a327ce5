"""Elementary multiplicative number theory.

Factorization, the Mobius and Euler functions, the Jordan totient, the
von Sterneck function Phi(k, n), Ramanujan sums C_n(k), and the generic
periodic-average functional whose semi-multiplicativity underlies the
closed formulas elsewhere in this package.

All functions are pure and use exact integer (or Fraction) arithmetic; the
one cache kept here is of factorizations.  Four rules serve the whole
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
from itertools import count

# A Factorization is an ordered list of (prime, exponent) pairs with the
# primes strictly increasing; [] represents 1.
Factorization = list[tuple[int, int]]

_TRIAL_LIMIT = 10_000

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
# sqrt(MR_BOUND), about 2**40.7.  Measured on a 2-core VM under CPython
# 3.11.7 over 16 such semiprimes, two rounds: median 0.8-0.9 s, range
# 0.45-2.2 s per call.  That is the worst case, so the walk needs no step
# budget.
def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of an odd composite n (Brent's variant).

    Brent's cycle detection (Brent 1980) on the walk y -> y^2 + c mod n.
    In round r = 1, 2, 4, ... the point x = y is saved, y takes r steps
    unchecked and then r more, each multiplying x - y into a running
    product mod n, with one gcd per batch of steps.  If a batch's gcd is
    n, the batch is replayed from its saved start with one gcd per step;
    only if that also gives n is a fresh walk taken.  Every walk starts
    from y = 2, the first with c = 1 and each fresh one with the next c, so
    the factor found depends only on n.
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
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
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


def factorize(n: int) -> Factorization:
    """Factor n >= 1 into (prime, exponent) pairs, primes increasing.

    Trial division up to 10**4, which alone decides every n below 10**8,
    then deterministic Miller-Rabin plus Pollard rho (Brent's variant with
    batched gcds) for a cofactor that trial division leaves undecided; that
    cofactor must be below MR_BOUND (GuardError otherwise); no
    sub-exponential machinery.  Factorizations are kept in _factorizations;
    every call returns a fresh list.
    """
    _require_int(n, "factorize argument", 1)
    return list(_factorizations[n])


def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """factorize(n) as a tuple, for an n already known to be an int >= 1."""
    exponents: dict[int, int] = {}
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
            f = _pollard_rho(m)
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
