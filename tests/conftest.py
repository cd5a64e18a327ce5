import pytest

from orbicyclic import arith, congruence, orbifold


@pytest.fixture(autouse=True)
def fresh_caches():
    """Start every test with empty per-modulus and per-(gamma, ell) caches.

    A factorization, Phi row or class polynomial cached by an earlier test would
    let a later one pass without running the code it counts calls of, and a
    candidate or orbifold list cached before a monkeypatch would hide the
    patched code.
    """
    arith._factorize.cache_clear()
    for store in (arith._rows, arith._classes, arith._columns):
        store.clear()
    congruence._polynomials.clear()
    orbifold._candidates.cache_clear()
    orbifold._epi_route.cache_clear()
