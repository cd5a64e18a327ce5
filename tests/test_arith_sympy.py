"""The arithmetic layer against sympy, an implementation it shares no code with."""

import pytest
from hypothesis import given, settings, strategies as st

from orbicyclic.arith import euler_phi, factorize, jordan_phi, mobius

sympy = pytest.importorskip("sympy")

# p * q with p, q prime: balanced, unbalanced and 2**31 - 1 based below
# 2**64, and two primes near 2**41 just below MR_BOUND, the hardest
# cofactor factorize accepts
SEMIPRIMES = [
    4294967279 * 4294967291,
    2147483647 * 4294967291,
    998244353 * 1000000007,
    65537 * 281470681808891,
    1799999999977 * 1842802258109,
]

up_to_1e12 = st.integers(1, 10**12)


@settings(derandomize=True, deadline=None)
@given(up_to_1e12)
def test_factorize_mobius_and_totient_agree_with_sympy(n):
    assert factorize(n) == sorted(sympy.factorint(n).items())
    assert mobius(n) == sympy.mobius(n)
    assert euler_phi(n) == sympy.totient(n)


def test_semiprimes_agree_with_sympy():
    for n in SEMIPRIMES:
        assert factorize(n) == sorted(sympy.factorint(n).items())
        assert mobius(n) == sympy.mobius(n) == 1
        assert euler_phi(n) == sympy.totient(n)


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 6), up_to_1e12)
def test_jordan_phi_is_the_mobius_sum_over_divisors(k, n):
    # sympy has no Jordan totient; phi_k(n) = sum_{d | n} d^k mu(n/d)
    expected = sum(d**k * sympy.mobius(n // d) for d in sympy.divisors(n))
    assert jordan_phi(k, n) == expected
