"""Seeded op lists for the four benchmark workloads.

Stdlib only, and independent of the library: the benchmark generates
inputs here and hands them to a fresh interpreter, so the program under
test receives nothing but the generated inputs.  An op is a JSON-ready
list whose first element names its kind.

A run executes a sequence of rounds.  Round ``i`` of workload ``w`` at
seed ``s`` is ``ops_for(w, s, i)``: the same triple always yields the
same list, and a different seed yields a different one.
"""

from __future__ import annotations

import math
import random
from functools import cache

WORKLOADS = ("e-triangle", "e-wide", "atlas", "cli-cold")

# Op-list sizes per round (a cli-cold round runs each of the catalogue's
# base argvs once).  One round runs in one fresh interpreter (cli-cold: one
# interpreter per op), so these sizes fix how much reuse an in-process
# cache can find; they never depend on the run length.
E_TRIANGLE_OPS = 10000
# e-wide mixes op classes so that p50 falls inside the long-tuple ops and
# p90 inside the large brute-force ops, never on a boundary between classes.
E_WIDE_BRUTE_MODULI = (1260, 5040, 20160) + (27720, 45360, 50400, 55440) * 3
E_WIDE_SEMIPRIMES = 8
E_WIDE_LONG = 40

_WIDE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# Largest exponent per prime for long tuples: the lcm stays below 5e12 and
# every p-part stays <= 31, so the per-prime brute-force oracle is cheap.
_WIDE_MAX_EXP = {2: 4, 3: 2}


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a witness set that is exact below 3.3e24."""
    if n < 2:
        return False
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in witnesses:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_32(rng: random.Random) -> int:
    while True:
        c = rng.getrandbits(32) | (1 << 31) | 1
        if _is_probable_prime(c):
            return c


# ---------------------------------------------------------------------------
# e-triangle: the shape of acceptance criterion 1.

_SMALL_DIVISORS = {m: _divisors(m) for m in range(1, 61)}


def e_triangle_ops(rng: random.Random) -> list[list]:
    ops = []
    for _ in range(E_TRIANGLE_OPS):
        m = rng.randint(1, 60)
        r = rng.randint(0, 4)
        t = sorted((rng.choice(_SMALL_DIVISORS[m]) for _ in range(r)), reverse=True)
        ops.append(["triangle", m, t])
    return ops


# ---------------------------------------------------------------------------
# e-wide: big Phi tables, long tuples, and the Pollard-rho path.


@cache
def _large_divisors(M: int) -> tuple[int, ...]:
    return tuple(d for d in _divisors(M) if 8 * d >= M and 2 * d <= M)


def _brute_tuple(rng: random.Random, M: int) -> list[int]:
    """r = 2..6 entries: M and one large divisor d (M/8 <= d <= M/2), each at least once.

    E_bruteforce builds one Phi table per distinct entry, so its cost
    follows M + d; two distinct entries keep each op's cost set by M
    rather than by the draw, which keeps p90 steady across seeds.
    """
    d = rng.choice(_large_divisors(M))
    r = rng.randint(2, 6)
    t = [M, d] + [rng.choice((M, d)) for _ in range(r - 2)]
    return sorted(t, reverse=True)


def _long_tuple(rng: random.Random) -> list[int]:
    """6..12 entries whose lcm is a product of small prime powers (< 5e12).

    Half the tuples are built so that E does not vanish (every odd prime
    attained at least twice, 2 attained an even number of times); the
    rest are random and mostly vanish.
    """
    r = rng.randint(6, 12)
    primes = [p for p in _WIDE_PRIMES if rng.random() < 0.8] or [2]
    nonvanishing = rng.random() < 0.5
    entries = [1] * r
    for p in primes:
        a = rng.randint(1, _WIDE_MAX_EXP.get(p, 1))
        slots = list(range(r))
        rng.shuffle(slots)
        if nonvanishing:
            s = rng.randrange(2, r + 1, 2) if p == 2 else rng.randint(2, r)
        else:
            s = rng.randint(1, r)
        for j in slots[:s]:
            entries[j] *= p**a
        for j in slots[s:]:
            if a > 1 and rng.random() < 0.5:
                entries[j] *= p ** rng.randint(1, a - 1)
    return sorted(entries, reverse=True)


def e_wide_ops(rng: random.Random) -> list[list]:
    ops: list[list] = [["brute", _brute_tuple(rng, M)] for M in E_WIDE_BRUTE_MODULI]
    for _ in range(E_WIDE_SEMIPRIMES):
        p, q = sorted((_prime_32(rng), _prime_32(rng)))
        ops.append(["semiprime", p * q, p, q])
    ops.extend(["long", _long_tuple(rng)] for _ in range(E_WIDE_LONG))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# atlas: the whole guarded orbifold domain, in seeded order.


def atlas_domain() -> list[list]:
    ops: list[list] = [
        ["orbifolds", gamma, ell] for gamma in range(7) for ell in range(1, 201)
    ]
    ops.extend(["census", gamma] for gamma in range(2, 7))
    ops.extend(["theta", 0, n] for n in range(1, 101))
    ops.extend(["theta", gamma, n] for gamma in range(1, 4) for n in range(1, 13))
    ops.extend(
        ["freegroup", rank, index] for rank in range(1, 6) for index in range(1, 13)
    )
    ops.extend(["dart", gamma, n] for gamma in range(2) for n in range(1, 4))
    return ops


def atlas_ops(rng: random.Random) -> list[list]:
    ops = atlas_domain()
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-cold: one CLI process per op, drawn from a fixed catalogue whose
# expected stdout ships with the benchmark.

_CLI_BASES: tuple[tuple[tuple[str, ...], bool], ...] = (
    # (argv after the program name, whether --check is affordable)
    (("e", "12", "12"), True),
    (("e", "4", "6", "12"), True),
    (("e", "2", "2", "2", "2"), True),
    (("e", "30", "30", "15"), True),
    (("e", "60", "20", "12", "15"), True),
    (("e", "360", "360", "120", "90"), True),
    (("e", "9", "9", "3", "1"), False),
    (("e", "--brute", "24", "24", "8"), False),
    (("e", "--brute", "210", "210", "42"), False),
    (("epi", "--genus", "0", "--order", "12", "--periods", "4,6,12"), True),
    (("epi", "--genus", "1", "--order", "24", "--periods", "2,2"), True),
    (("epi", "--genus", "2", "--order", "60", "--periods", "3,3,5,5"), True),
    (("epi", "--genus", "3", "--order", "30", "--periods", ""), False),
    (("orbifolds", "--gamma", "2"), True),
    (("orbifolds", "--gamma", "3"), True),
    (("orbifolds", "--gamma", "5"), False),
    (("orbifolds", "--gamma", "0", "--order", "7"), True),
    (("orbifolds", "--gamma", "1", "--order", "12"), True),
    (("orbifolds", "--gamma", "4", "--order", "10"), False),
    (("census", "--gamma", "2"), True),
    (("census", "--gamma", "4"), True),
    (("census", "--gamma", "6"), False),
    (("theta", "--gamma", "0", "--edges", "3"), True),
    (("theta", "--gamma", "1", "--edges", "2"), True),
    (("theta", "--gamma", "0", "--edges", "12"), True),
    (("theta", "--gamma", "2", "--edges", "8"), False),
    (("theta", "--gamma", "3", "--edges", "12"), False),
    (("freegroup", "--rank", "2", "--index", "3"), True),
    (("freegroup", "--rank", "3", "--index", "3"), True),
    (("freegroup", "--rank", "5", "--index", "12"), False),
    (("triples", "--lcm", "12"), True),
    (("triples", "--lcm", "360"), True),
    (("triples", "--lcm", "5040"), False),
)
_CLI_FORMATS = ("table", "json", "csv")


def _cli_argv(argv: tuple[str, ...], fmt: str, check: bool) -> list[str]:
    return [*argv, "--format", fmt, *(["--check"] if check else [])]


def cli_catalogue() -> list[list[str]]:
    """Every argv the cli-cold workload may draw, each with a shipped expectation."""
    catalogue = []
    for argv, checkable in _CLI_BASES:
        for fmt in _CLI_FORMATS:
            catalogue.append(_cli_argv(argv, fmt, False))
            if checkable:
                catalogue.append(_cli_argv(argv, fmt, True))
    return catalogue


def cli_ops(rng: random.Random, round_index: int) -> list[list]:
    """Every base argv once per round, in seeded order and with a seeded format.

    Half of the checkable bases get --check, the other half in the next
    round, so every pair of rounds has the same mix of subcommands and
    checks (a third of all ops checked) and the costly ones keep a fixed
    share: the p90 does not move with how often a seed drew them.
    """
    ops = []
    checkable_seen = 0
    for argv, checkable in _CLI_BASES:
        check = checkable and (checkable_seen + round_index) % 2 == 0
        checkable_seen += checkable
        ops.append(["cli", _cli_argv(argv, rng.choice(_CLI_FORMATS), check)])
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "e-triangle": e_triangle_ops,
    "e-wide": e_wide_ops,
    "atlas": atlas_ops,
}


def ops_for(workload: str, seed: int, round_index: int) -> list[list]:
    rng = rng_for(workload, seed, round_index)
    if workload == "cli-cold":
        return cli_ops(rng, round_index)
    return _GENERATORS[workload](rng)


def op_modulus(op: list) -> int | None:
    """The modulus an op works modulo (lcm or ell), or None if it has none.

    This is the key a cache of factorizations, Phi tables or orbifold
    enumerations would be looked up by.
    """
    kind = op[0]
    if kind in ("triangle", "brute", "long"):
        return math.lcm(*op[-1]) if op[-1] else 1
    if kind == "semiprime":
        return op[1]
    if kind == "orbifolds":
        return op[2]
    if kind == "theta":
        return 2 * op[2]
    return None


def repeated_modulus(ops: list[list]) -> tuple[int, int]:
    """(ops whose modulus already occurred earlier in the list, ops with a modulus)."""
    seen: set[int] = set()
    repeated = based = 0
    for op in ops:
        m = op_modulus(op)
        if m is None:
            continue
        based += 1
        if m in seen:
            repeated += 1
        seen.add(m)
    return repeated, based
