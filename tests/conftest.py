import math
import sys

import pytest

from orbicyclic import arith, epi, orbifold


def module_caches() -> dict[str, object]:
    """Every cache a module of the package holds, found by type, each once.

    A functools cache (it has cache_clear) or a module-level dict: the
    budgeted stores and the orbifold search tables are dicts.  Each is named
    by the first module, in sorted order, that binds it.
    """
    found: dict[int, tuple[str, object]] = {}
    for name, module in sorted(sys.modules.items()):
        if name == "orbicyclic" or name.startswith("orbicyclic."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_clear") or (
                    isinstance(value, dict) and not attr.startswith("__")
                ):
                    found.setdefault(id(value), (f"{name}.{attr}", value))
    return dict(found.values())


# Every byte- or length-budgeted store: a module-level dict with a budget attribute.
STORES = [value for value in module_caches().values() if hasattr(value, "budget")]
assert len(STORES) == 6

# What fresh_caches empties before every test.
CLEARED = [
    arith._factorize,
    orbifold._candidates,
    orbifold._epi_route,
    orbifold._search_tables,
    epi._counts,
    *STORES,
]

# The caches left filled across tests, each with the reason that is safe.
EXEMPT = {
    "orbicyclic.cli.COMMANDS": "the subcommand table, filled at import; no cache",
    "orbicyclic.mapcount._carrell_chapuy": "values only: no test counts the calls a hit skips",
    "orbicyclic.mapcount._map_census": "values only: the dart-pair oracle's census, n <= 5",
}


def clear_caches() -> None:
    for cache in CLEARED:
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()
        else:
            cache.clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    """Start every test with empty per-modulus, per-order and per-count caches.

    A factorization, Phi column, class polynomial, kept value of E or of the
    congruence count, or epimorphism count cached by an earlier test would let
    a later one pass without running the code it counts calls of, and a
    candidate list, search table or orbifold list cached before a monkeypatch
    would hide the patched code.
    """
    clear_caches()


def wide_tuples(rng, count):
    """count period lists with lcm in (10**6, 5 * 10**12], from the primes up to 31."""
    primes, top = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31), {2: 4, 3: 2}
    seen = 0
    while seen < count:
        r = rng.randint(1, 8)
        entries = [1] * r
        for q in primes:
            a = rng.randint(0, top.get(q, 1))
            s = rng.randint(1, r)
            for j in range(r):
                entries[j] *= q ** (a if j < s else rng.randint(0, a))
            rng.shuffle(entries)
        if 10**6 < math.lcm(*entries) <= 5 * 10**12:
            seen += 1
            yield entries


def triangle_tuples(rng, count):
    """count period lists of up to 4 divisors of one m <= 60, as criterion 1 draws them."""
    for _ in range(count):
        m = rng.randint(1, 60)
        divs = [d for d in range(1, m + 1) if m % d == 0]
        yield [rng.choice(divs) for _ in range(rng.randint(0, 4))]
