import math
import sys

import pytest

import orbicyclic  # noqa: F401  (imports every layer module)
from orbicyclic.arith import _Store


def module_dicts() -> dict[str, dict]:
    """Every module-level dict of the package, found by type, each once.

    Each is named by the first module, in sorted order, that binds it.
    """
    found: dict[int, tuple[str, dict]] = {}
    for name, module in sorted(sys.modules.items()):
        if name == "orbicyclic" or name.startswith("orbicyclic."):
            for attr, value in vars(module).items():
                if isinstance(value, dict) and not attr.startswith("__"):
                    found.setdefault(id(value), (f"{name}.{attr}", value))
    return dict(found.values())


def stores() -> dict[str, _Store]:
    """Every kept-value store of the package: its module-level _Stores."""
    return {name: value for name, value in module_dicts().items() if isinstance(value, _Store)}


STORES = list(stores().values())
assert len(STORES) == 14


def clear_caches() -> None:
    for store in STORES:
        store.clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    """Start every test with every store empty.

    A factorization, Phi column, class polynomial, kept value of E or of the
    congruence count, epimorphism count or rooted count kept by an earlier test
    would let a later one pass without running the code it counts calls of, and
    a candidate list, search table or orbifold list kept before a monkeypatch
    would hide the patched code.  Every guard is checked when a value is built,
    and a kept value is returned as kept, so a test that rebinds a guard after
    a value was kept clears the stores first.
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
