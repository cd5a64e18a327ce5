import pytest

from orbicyclic import arith


@pytest.fixture(autouse=True)
def fresh_arith_caches():
    """Start every test with empty per-modulus caches.

    A factorization or Phi row cached by an earlier test would let a later
    one pass without running the code it counts calls of.
    """
    arith._factorize.cache_clear()
    arith._von_sterneck_by_divisor.cache_clear()
