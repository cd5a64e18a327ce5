import sys

import pytest

from orbicyclic import arith, orbifold

# Every byte- or length-budgeted store, found by type: a module-level dict with
# a budget attribute in any orbicyclic module, each store once.
STORES = list(
    {
        id(value): value
        for name, module in list(sys.modules.items())
        if name.startswith("orbicyclic")
        for value in vars(module).values()
        if isinstance(value, dict) and hasattr(value, "budget")
    }.values()
)
assert len(STORES) == 3


@pytest.fixture(autouse=True)
def fresh_caches():
    """Start every test with empty per-modulus and per-(gamma, ell) caches.

    A factorization, Phi column or class polynomial cached by an earlier test
    would let a later one pass without running the code it counts calls of,
    and a candidate or orbifold list cached before a monkeypatch would hide
    the patched code.
    """
    arith._factorize.cache_clear()
    for store in STORES:
        store.clear()
    orbifold._candidates.cache_clear()
    orbifold._epi_route.cache_clear()
