"""The arithmetic layer against sympy, an implementation it shares no code with."""

import pytest
from hypothesis import given, settings, strategies as st

from orbicyclic.arith import euler_phi, factorize, jordan_phi, mobius

sympy = pytest.importorskip("sympy")

# p * q with p, q prime: balanced, unbalanced and 2**31 - 1 based below
# 2**64; three pairs near 10**6 that stage one splits, leaves to rho as n
# and leaves to stage two as 1; two primes near 2**41 just below MR_BOUND,
# the hardest cofactor factorize accepts; one product of three primes, two
# of which stage one splits off together; and two pairs near 2**32 with
# 4294967291, one that stage two splits (4294966812 = 2^2 * 3 * 61 * 179 *
# 32779) and one that it leaves to rho, since the largest prime of
# 4294728838 = 2 * 109 * 197 * 100003 lies just past its bound 10**5
SEMIPRIMES = [
    4294967279 * 4294967291,
    2147483647 * 4294967291,
    998244353 * 1000000007,
    65537 * 281470681808891,
    1000003 * 1000033,
    1000033 * 1000037,
    1000003 * 1000039,
    1799999999977 * 1842802258109,
    10007 * 10009 * 4294967291,
    4294966813 * 4294967291,
    4294728839 * 4294967291,
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
        fac = factorize(n)
        assert fac == sorted(sympy.factorint(n).items())
        assert mobius(n) == sympy.mobius(n) == (-1) ** len(fac)
        assert euler_phi(n) == sympy.totient(n)


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 6), up_to_1e12)
def test_jordan_phi_is_the_mobius_sum_over_divisors(k, n):
    # sympy has no Jordan totient; phi_k(n) = sum_{d | n} d^k mu(n/d)
    expected = sum(d**k * sympy.mobius(n // d) for d in sympy.divisors(n))
    assert jordan_phi(k, n) == expected
