import math
import random
import re
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from orbicyclic import arith
from orbicyclic.arith import (
    GuardError,
    _pollard_rho,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    jordan_phi,
    mobius,
    periodic_average,
    ramanujan_sum,
    von_sterneck,
)
from orbicyclic.congruence import count_congruence_solutions
from orbicyclic.epi import count_epi
from orbicyclic.mapcount import (
    dart_pair_oracle,
    planar_rooted_count,
    rooted_map_count,
    theta,
)
from orbicyclic.orbicyclic import (
    E_bruteforce,
    E_closed,
    _classes,
    _columns,
    _divisor_table,
    enumerate_nonvanishing_triples,
    f_r,
    h_poly,
)
from orbicyclic.orbifold import (
    OrbifoldSignature,
    census,
    enumerate_orbifolds,
    enumerate_orbifolds_via_harvey,
    epi_nonvanishing,
    harvey_admissible,
    rh_gamma,
)
from orbicyclic.subgroups import free_group_subgroups


def test_factorize_round_trip():
    for n in range(1, 10_001):
        fac = factorize(n)
        prod = 1
        for p, a in fac:
            assert is_prime(p)
            assert a >= 1
            prod *= p**a
        assert prod == n
        primes = [p for p, _ in fac]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(10) == [(2, 1), (5, 1)]


def test_factorize_below_trial_square_needs_no_miller_rabin(monkeypatch):
    # Trial division to 10**4 decides every n < 10**8: the cofactor it
    # leaves is 1 or a prime, so is_prime is never consulted.
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    cases = {
        99_999_989: [(99_999_989, 1)],  # the largest prime below 10**8
        9_973**2: [(9_973, 2)],
        9_967 * 9_973: [(9_967, 1), (9_973, 1)],
        2 * 49_999_991: [(2, 1), (49_999_991, 1)],
        10**8 - 1: [(3, 2), (11, 1), (73, 1), (101, 1), (137, 1)],
    }
    for n, fac in cases.items():
        assert factorize(n) == fac
    rng = random.Random(7)
    for n in [*range(1, 5_000), *(rng.randrange(1, 10**8) for _ in range(300))]:
        fac = factorize(n)
        assert math.prod(p**a for p, a in fac) == n
    assert calls == []


def test_factorize_rejects_bad_input():
    for bad in (0, -1, -12, 1.5, True):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factorize_result_is_a_fresh_list():
    fac = factorize(720)
    fac.append((7, 1))
    fac[0] = (3, 9)
    assert factorize(720) == [(2, 4), (3, 2), (5, 1)]
    assert factorize(720) is not factorize(720)


def test_factorize_checks_its_argument_before_the_memo():
    # True == 1.0 == 1 and all three hash alike, so a memo keyed on the
    # value and consulted before the check could answer them from factorize(1)
    assert factorize(1) == []
    for bad in (True, 1.0, 0):
        with pytest.raises(ValueError, match="^factorize argument must be an integer >= 1, got "):
            factorize(bad)


def test_factorize_runs_rho_once_per_modulus(monkeypatch):
    calls = []
    real = arith._pollard_rho
    monkeypatch.setattr(arith, "_pollard_rho", lambda n: calls.append(n) or real(n))
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == [(p, 1), (q, 1)]
    assert calls == [p * q]
    assert factorize(p * q) == [(p, 1), (q, 1)]
    assert mobius(p * q) == 1
    assert euler_phi(p * q) == (p - 1) * (q - 1)
    assert calls == [p * q]


def test_bruteforce_rows_are_built_once_per_modulus(monkeypatch):
    built = []
    build = _columns.build
    monkeypatch.setattr(_columns, "build", lambda key: built.append(key) or build(key))
    t = (360, 360, 120, 8)
    first = E_bruteforce(t)
    assert sorted(built) == [(360, 8), (360, 120), (360, 360)]
    assert E_bruteforce(t) == first
    assert E_bruteforce((120, 8)) == E_bruteforce((8, 120))
    assert sorted(built) == [(120, 8), (120, 120), (360, 8), (360, 120), (360, 360)]


def test_per_modulus_caches_are_bounded():
    maxsize = arith._factorize.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0
    # E_bruteforce's stores are bounded by the divisors they hold: a value
    # that does not fit in what is left is returned but not kept
    stores = (_classes, _columns)
    assert all(store.budget == 2**15 for store in stores)
    for store in stores:
        store.budget = 40
    try:
        for M in (360, 720, 5040, 12, 6, 60):
            t = (M, M // 2, 2)
            assert E_bruteforce(t) == E_closed(t)
        # the first keys that fit are kept: tau(360) = 24, tau(12) = 6, tau(6) = 4
        assert set(_columns) == {(360, 360), (12, 12), (12, 6), (6, 6)}
        assert set(_classes) == {360, 12, 6}
        for store in stores:
            assert store.held == sum(map(len, store.values())) <= 40
    finally:
        for store in stores:
            store.budget = 2**15


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == [(p, 1), (q, 1)]


def test_factorize_cofactors_split_more_than_once():
    # every prime factor lies past the 10**4 trial limit and n > 10**8, so
    # rho must split a prime power or split more than once
    assert factorize(10007**2) == [(10007, 2)]
    assert factorize(10007**3) == [(10007, 3)]
    assert factorize(10007 * 10009 * 10037) == [(10007, 1), (10009, 1), (10037, 1)]
    assert factorize(10007**2 * 10009) == [(10007, 2), (10009, 1)]


def test_pollard_rho_splits_every_small_odd_composite():
    # small n is where a batch's gcd most often comes out as n, so this
    # reaches the one-gcd-per-step replay and the fresh-walk draw
    limit = 10_000
    composite = [False] * limit
    for i in range(3, math.isqrt(limit) + 1, 2):
        for j in range(i * i, limit, 2 * i):
            composite[j] = True
    odd_composites = [n for n in range(9, limit, 2) if composite[n]]
    assert len(odd_composites) == 3771
    for n in odd_composites:
        d = _pollard_rho(n)
        assert 1 < d < n and n % d == 0, (n, d)


def test_factorize_ignores_global_random_state():
    p, q = 1_000_003, 1_000_033
    n = 7919**2 * p * q
    saved = random.getstate()
    try:
        random.seed(0)
        next_draw = random.random()
        random.seed(0)
        factor = _pollard_rho(p * q)
        assert factorize(n) == [(7919, 2), (p, 1), (q, 1)]
        # the global stream was left untouched
        assert random.random() == next_draw
        for seed in range(5):
            random.seed(seed)
            assert _pollard_rho(p * q) == factor
            assert factorize(n) == [(7919, 2), (p, 1), (q, 1)]
    finally:
        random.setstate(saved)


# The least strong pseudoprimes to the first 12 and the first 13 primes
# (Sorenson and Webster 2015).
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_is_prime_past_twelve_witnesses():
    assert is_prime(PSI_12) is False
    assert factorize(PSI_12) == [(399165290221, 1), (798330580441, 1)]


def test_is_prime_bound():
    assert is_prime(PSI_13 - 1) is False
    message = f"^Miller-Rabin argument {PSI_13} exceeds the guard {PSI_13 - 1}$"
    with pytest.raises(GuardError, match=message):
        is_prime(PSI_13)
    with pytest.raises(GuardError, match=message):
        factorize(PSI_13)


def test_is_prime_agrees_with_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(limit + 1):
        assert is_prime(n) == sieve[n]


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    for n in range(1, 200):
        divs = divisors(n)
        assert divs == sorted(divs)
        assert all(n % d == 0 for d in divs)
        assert len(divs) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_mobius():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(2) == -1
    assert mobius(30) == -1
    # sum over divisors is the unit function
    for n in range(2, 300):
        assert sum(mobius(d) for d in divisors(n)) == 0


def test_euler_phi_against_gcd_count():
    assert euler_phi(10) == 4
    assert euler_phi(12) == 4
    for n in range(1, 300):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_jordan_phi():
    # k=0 is the indicator of n=1
    assert jordan_phi(0, 1) == 1
    assert jordan_phi(0, 5) == 0
    with pytest.raises(ValueError, match="jordan_phi order must be an integer >= 0, got -1"):
        jordan_phi(-1, 5)
    # k=1 is the Euler totient
    for n in range(1, 100):
        assert jordan_phi(1, n) == euler_phi(n)
    assert jordan_phi(2, 2) == 3
    assert jordan_phi(2, 6) == 24
    # brute force for k=2: count pairs mod n generating Z_n x Z_n jointly coprime to n
    for n in range(1, 30):
        brute = sum(
            1
            for a in range(n)
            for b in range(n)
            if math.gcd(math.gcd(a, b), n) == 1
        )
        assert jordan_phi(2, n) == brute


def test_jordan_phi_print_bound():
    # phi_k(n) <= n^k: 3^9012 has 4,300 digits, 3^9013 has more, so order
    # 9013 and up is refused before any power; n = 1 bounds nothing
    assert len(str(jordan_phi(9012, 3))) == 4300
    start = perf_counter()
    for k in (9013, 10**6, 10**400):
        with pytest.raises(ValueError, match="^jordan_phi may exceed the 4300-digit print limit$"):
            jordan_phi(k, 3)
    assert perf_counter() - start < 1
    assert jordan_phi(10**400, 1) == 1


def test_require_printable_bounds_digits_alone():
    arith._require_printable("x", digits=4299.999)
    with pytest.raises(ValueError, match="^x may exceed the 4300-digit print limit$"):
        arith._require_printable("x", digits=4300.0)
    # the digits shrink the room left for the power: 9 * 10^4299 has 4,300
    # digits and 27 * 10^4299 has 4,301
    arith._require_printable("x", 2, 3, 4299.0)
    with pytest.raises(ValueError, match="print limit"):
        arith._require_printable("x", 3, 3, 4299.0)


def test_require_printable_compares_the_exponent_in_constant_time():
    start = perf_counter()
    with pytest.raises(ValueError, match="^x may exceed the 4300-digit print limit$"):
        arith._require_printable("x", 10**400, 3)
    assert perf_counter() - start < 0.01
    # a base <= 1 bounds nothing, however large the exponent
    for base in (1, 0):
        arith._require_printable("x", 10**400, base)


def test_exact_quotient():
    assert arith._exact_quotient(42, 6, "x") == 7
    assert arith._exact_quotient(-42, 6, "x") == -7
    with pytest.raises(ArithmeticError, match="^sum at n=3: 43 is not divisible by 6$"):
        arith._exact_quotient(43, 6, "sum at n=3")


def test_jordan_phi_divisible_by_euler_phi():
    for k in range(1, 4):
        for n in range(1, 501):
            assert jordan_phi(k, n) % euler_phi(n) == 0


def _totient_quotient(k, n):
    # von Sterneck's original form
    d = n // math.gcd(k, n)
    mu = mobius(d)
    if mu == 0:
        return 0
    q, r = divmod(euler_phi(n), euler_phi(d))
    assert r == 0
    return mu * q


def test_von_sterneck_examples():
    assert von_sterneck(0, 1) == 1
    assert von_sterneck(7, 1) == 1
    assert von_sterneck(3, 9) == -3
    assert von_sterneck(2, 6) == -1
    with pytest.raises(ValueError, match="von_sterneck modulus must be an integer >= 1, got 0"):
        von_sterneck(3, 0)


def test_von_sterneck_four_routes_agree():
    for n in range(1, 61):
        for k in range(n):
            v = von_sterneck(k, n)
            # route 2: divisor sum definition of the Ramanujan sum
            divisor_sum = sum(
                mobius(n // d) * d for d in divisors(math.gcd(k, n))
            )
            # route 3: totient quotient
            # route 4: sum of primitive roots of unity
            roots = sum(
                math.cos(2 * math.pi * j * k / n)
                for j in range(1, n + 1)
                if math.gcd(j, n) == 1
            )
            assert v == divisor_sum
            assert v == _totient_quotient(k, n)
            assert abs(v - roots) < 1e-6


def divisor_walk(M):
    """The divisors of M in the order of E_bruteforce's tables."""
    return _divisor_table(M, lambda p, a: [p**e for e in range(a + 1)])


def test_divisor_classes_count_the_residues_by_gcd():
    # every table of M lists its divisors in one order: the exponent of the
    # last prime of factorize(M) varies fastest
    for M in [*range(1, 401), 5040, 27720]:
        order = [1]
        for p, a in factorize(M):
            order = [g * p**e for g in order for e in range(a + 1)]
        assert divisor_walk(M) == tuple(order)
        by_gcd = dict.fromkeys(order, 0)
        for k in range(M):
            by_gcd[math.gcd(k, M)] += 1
        assert _classes[M] == tuple(by_gcd.values()), M


def test_von_sterneck_column_matches_pointwise():
    # Phi(k, m) for every k < M is the column value at gcd(k, M)
    for M in [*range(1, 401), 5040, 27720]:
        at = {g: i for i, g in enumerate(divisor_walk(M))}
        for m in divisors(M) if M <= 120 else (M, divisors(M)[-2], 1):
            column = _columns[M, m]
            for k in range(M):
                assert von_sterneck(k, m) == column[at[math.gcd(k, M)]], (M, m, k)


def test_von_sterneck_column_powers_match_pointwise():
    # a period repeated c times enters as its column raised to the power c
    for M in range(1, 61):
        for m in divisors(M):
            for c in range(5):
                t = (m,) * c + (M,)
                pointwise = sum(von_sterneck(k, m) ** c * von_sterneck(k, M) for k in range(M))
                assert E_bruteforce(t) * M == pointwise, t


def test_ramanujan_sum_argument_order():
    # ramanujan_sum(n, k) == von_sterneck(k, n)
    assert ramanujan_sum(1, 3) == 1
    assert ramanujan_sum(10, 0) == 4
    assert ramanujan_sum(6, 2) == -1
    with pytest.raises(ValueError, match="ramanujan_sum modulus must be an integer >= 1, got 0"):
        ramanujan_sum(0, 3)
    for n in range(1, 40):
        for k in range(n):
            assert ramanujan_sum(n, k) == von_sterneck(k, n)


def test_von_sterneck_is_integer_valued_and_periodic():
    for n in range(1, 201):
        for k in range(n):
            v = von_sterneck(k, n)
            assert isinstance(v, int)
            assert von_sterneck(k + n, n) == v
            assert von_sterneck(k - n, n) == v


def test_von_sterneck_multiplicative_in_modulus():
    for n1 in range(1, 30):
        for n2 in range(1, 30):
            if n1 * n2 > 200 or math.gcd(n1, n2) != 1:
                continue
            for k in range(n1 * n2):
                assert von_sterneck(k, n1 * n2) == von_sterneck(k, n1) * von_sterneck(
                    k, n2
                )


def test_periodic_average_examples():
    assert periodic_average(von_sterneck, (12, 12), 12) == 4
    assert periodic_average(math.gcd, (2,), 2) == Fraction(3, 2)
    assert periodic_average(von_sterneck, (), 1) == 1
    assert periodic_average(von_sterneck, (), 17) == 1


def test_periodic_average_modulus_invariance():
    tuples = [(12, 12), (4, 4, 3), (10, 5, 2), (6, 4), (2, 2, 2)]
    for t in tuples:
        lcm = math.lcm(*t)
        base = periodic_average(von_sterneck, t, lcm)
        assert periodic_average(von_sterneck, t, 2 * lcm) == base
        assert periodic_average(von_sterneck, t, math.prod(t)) == base


def test_periodic_average_calls_f_once_per_residue_of_each_distinct_period():
    calls = []

    def f(k, m):
        calls.append((k % m, m))
        return von_sterneck(k, m)

    assert periodic_average(f, (12, 12, 4), 24) == periodic_average(
        von_sterneck, (12, 12, 4), 48
    )
    assert len(calls) == 16
    assert set(calls) == {(k, m) for m in (12, 4) for k in range(m)}


def test_periodic_average_of_repeated_periods_matches_pointwise_mean():
    # f = gcd is no von Sterneck function, so each row is raised to its
    # period's multiplicity by periodic_average's own table
    for t, M in [((4, 4, 6), 12), ((6, 6, 6, 2), 12), ((5, 5), 10), ((3, 3, 3, 3), 9)]:
        pointwise = Fraction(sum(math.prod(math.gcd(k, m) for m in t) for k in range(M)), M)
        assert periodic_average(math.gcd, t, M) == pointwise, t


def test_periodic_average_rejects_bad_modulus():
    with pytest.raises(ValueError):
        periodic_average(von_sterneck, (4, 3), 4)
    with pytest.raises(ValueError):
        periodic_average(von_sterneck, (2,), 0)
    # the sum holds one entry per residue, so the modulus has a bound
    start = perf_counter()
    message = "^brute-force modulus 2000000 exceeds the guard 1000000$"
    with pytest.raises(GuardError, match=message):
        periodic_average(math.gcd, (2,), 2 * 10**6)
    assert perf_counter() - start < 1


@given(st.integers(min_value=1, max_value=120), st.integers(min_value=-500, max_value=500))
def test_von_sterneck_bounded_by_totient(n, k):
    assert abs(von_sterneck(k, n)) <= euler_phi(n)


@pytest.mark.parametrize(
    "fn, good, bad, message",
    [
        # a case whose message was reworded keeps the id it was first collected
        # under, so rewording renames no test
        pytest.param(
            jordan_phi,
            (2, 4),
            (2.5, 4),
            "jordan_phi order must be an integer >= 0, got 2.5",
            id="jordan_phi-good0-bad0-jordan_phi order must be an integer, got 2.5",
        ),
        (
            von_sterneck,
            (1, 4),
            (1.5, 4),
            "von_sterneck argument must be an integer, got 1.5",
        ),
        pytest.param(
            rh_gamma,
            (OrbifoldSignature(0, (2, 2)), 2),
            (OrbifoldSignature(0, (2, 2)), 2.0),
            "group order must be an integer >= 1, got 2.0",
            id="rh_gamma-good2-bad2-group order must be an integer, got 2.0",
        ),
        pytest.param(
            free_group_subgroups,
            (2, 3),
            (2.0, 3),
            "rank must be an integer >= 1, got 2.0",
            id="free_group_subgroups-good3-bad3-rank must be an integer, got 2.0",
        ),
        pytest.param(
            free_group_subgroups,
            (2, 3),
            (2, 3.0),
            "index must be an integer >= 1, got 3.0",
            id="free_group_subgroups-good4-bad4-index must be an integer, got 3.0",
        ),
        pytest.param(
            free_group_subgroups,
            (1, 3),
            (True, 3),
            "rank must be an integer >= 1, got True",
            id="free_group_subgroups-good5-bad5-rank must be an integer, got True",
        ),
    ],
)
def test_integer_arguments_reject_non_integers(fn, good, bad, message):
    # each bad call once returned a float or a wrong count (jordan_phi(2.5, 4)
    # gave 26.34..., free_group_subgroups(2.0, 3) gave 13.0); the good call
    # runs first, so a cached result cannot stand in for the check
    assert isinstance(fn(*good), int)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*bad)


@pytest.mark.parametrize(
    "fn, good, bad, message",
    [
        # a case whose message was reworded keeps the id it was first collected
        # under, so rewording renames no test
        pytest.param(
            count_congruence_solutions,
            (1, ()),
            (True, ()),
            "modulus must be an integer >= 1, got True",
            id="count_congruence_solutions-good0-bad0-modulus must be an integer, got True",
        ),
        pytest.param(
            count_congruence_solutions,
            (12, (4,)),
            (12.0, (4,)),
            "modulus must be an integer >= 1, got 12.0",
            id="count_congruence_solutions-good1-bad1-modulus must be an integer, got 12.0",
        ),
        pytest.param(
            f_r,
            (3, 4),
            (3, 4.0),
            "f_r r must be an integer >= 0, got 4.0",
            id="f_r-good2-bad2-f_r expects an integer r, got 4.0",
        ),
        pytest.param(
            f_r,
            (12, 2),
            (12, 2.5),
            "f_r r must be an integer >= 0, got 2.5",
            id="f_r-good3-bad3-f_r expects an integer r, got 2.5",
        ),
        pytest.param(
            f_r,
            (12, 2),
            (12.0, 2),
            "f_r m must be an integer >= 1, got 12.0",
            id="f_r-good4-bad4-f_r expects an integer m, got 12.0",
        ),
        pytest.param(
            epi_nonvanishing,
            (OrbifoldSignature(0, (2, 2)), 2),
            (OrbifoldSignature(0, (2, 2)), 2.0),
            "group order must be an integer >= 1, got 2.0",
            id="epi_nonvanishing-good5-bad5-group order must be an integer, got 2.0",
        ),
        pytest.param(
            census,
            (2,),
            (2.0,),
            "gamma must be an integer >= 0, got 2.0",
            id="census-good6-bad6-gamma must be an integer, got 2.0",
        ),
        pytest.param(
            census,
            (2,),
            (True,),
            "gamma must be an integer >= 0, got True",
            id="census-good7-bad7-gamma must be an integer, got True",
        ),
        pytest.param(
            theta,
            (1, 2),
            (1.0, 2),
            "genus must be an integer >= 0, got 1.0",
            id="theta-good8-bad8-genus must be an integer, got 1.0",
        ),
        pytest.param(
            theta,
            (1, 2),
            (1, 2.0),
            "edge count must be an integer >= 1, got 2.0",
            id="theta-good9-bad9-edge count must be an integer, got 2.0",
        ),
        pytest.param(
            rooted_map_count,
            (1, 2),
            (1.0, 2),
            "genus must be an integer >= 0, got 1.0",
            id="rooted_map_count-good10-bad10-genus must be an integer, got 1.0",
        ),
        (rooted_map_count, (1, 2), (1, 2.0), "edge count must be an integer, got 2.0"),
        pytest.param(
            ramanujan_sum,
            (1, 4),
            (1.5, 4),
            "ramanujan_sum modulus must be an integer >= 1, got 1.5",
            id="ramanujan_sum-good12-bad12-ramanujan_sum modulus must be an integer, got 1.5",
        ),
        (
            ramanujan_sum,
            (4, 2),
            (4, 2.0),
            "ramanujan_sum argument must be an integer, got 2.0",
        ),
        pytest.param(
            enumerate_orbifolds,
            (2, 2),
            (True, 2),
            "gamma must be an integer >= 0, got True",
            id="enumerate_orbifolds-good14-bad14-gamma must be an integer, got True",
        ),
        pytest.param(
            enumerate_orbifolds,
            (2, 12),
            (2.0, 12),
            "gamma must be an integer >= 0, got 2.0",
            id="enumerate_orbifolds-good15-bad15-gamma must be an integer, got 2.0",
        ),
        pytest.param(
            enumerate_orbifolds_via_harvey,
            (2, 12),
            (2.0, 12),
            "gamma must be an integer >= 0, got 2.0",
            id="enumerate_orbifolds_via_harvey-good16-bad16-gamma must be an integer, got 2.0",
        ),
        pytest.param(
            count_epi,
            (OrbifoldSignature(0, (2, 2)), 2),
            (OrbifoldSignature(0, (2, 2)), True),
            "group order must be an integer >= 1, got True",
            id="count_epi-good17-bad17-group order must be an integer, got True",
        ),
        pytest.param(
            count_epi,
            (OrbifoldSignature(0, (2, 2)), 2),
            (OrbifoldSignature(0, (2, 2)), "2"),
            "group order must be an integer >= 1, got '2'",
            id="count_epi-good18-bad18-group order must be an integer, got '2'",
        ),
        pytest.param(
            dart_pair_oracle,
            (1, 2),
            (1.0, 2),
            "genus must be an integer >= 0, got 1.0",
            id="dart_pair_oracle-good19-bad19-genus must be an integer, got 1.0",
        ),
        pytest.param(
            dart_pair_oracle,
            (1, 2),
            (True, 2),
            "genus must be an integer >= 0, got True",
            id="dart_pair_oracle-good20-bad20-genus must be an integer, got True",
        ),
        pytest.param(
            dart_pair_oracle,
            (1, 2),
            (1, True),
            "edge count must be an integer >= 1, got True",
            id="dart_pair_oracle-good21-bad21-edge count must be an integer, got True",
        ),
        pytest.param(
            dart_pair_oracle,
            (1, 2),
            (1, 2.0),
            "edge count must be an integer >= 1, got 2.0",
            id="dart_pair_oracle-good22-bad22-edge count must be an integer, got 2.0",
        ),
        (
            harvey_admissible,
            (OrbifoldSignature(0, (2, 2)), 2, 0),
            (OrbifoldSignature(0, (2, 2)), 2, 0.0),
            "gamma must be an integer, got 0.0",
        ),
        pytest.param(
            h_poly,
            (2, 3),
            (2.0, 3),
            "h_poly index must be an integer >= 1, got 2.0",
            id="h_poly-good24-bad24-h_poly index must be an integer, got 2.0",
        ),
        pytest.param(
            h_poly,
            (2, 3),
            (True, 3),
            "h_poly index must be an integer >= 1, got True",
            id="h_poly-good25-bad25-h_poly index must be an integer, got True",
        ),
        (h_poly, (2, 3), (2, 3.0), "h_poly argument must be an integer, got 3.0"),
        pytest.param(
            is_prime,
            (2,),
            (2.0,),
            "is_prime argument must be an integer, got 2.0",
            id="is_prime-good27-bad27-is_prime expects an integer, got 2.0",
        ),
        pytest.param(
            planar_rooted_count,
            (1,),
            (True,),
            "edge count must be an integer >= 0, got True",
            id="planar_rooted_count-good28-bad28-edge count must be an integer, got True",
        ),
        # an integer below the domain once leaked math.factorial's message
        pytest.param(
            planar_rooted_count,
            (0,),
            (-1,),
            "edge count must be an integer >= 0, got -1",
            id="planar_rooted_count-good29-bad29-edge count must be >= 0, got -1",
        ),
        pytest.param(
            periodic_average,
            (von_sterneck, (2,), 2),
            (von_sterneck, (True,), 2),
            "period value must be an integer >= 1, got True",
            id="periodic_average-good30-bad30-period values must be integers, got True",
        ),
        pytest.param(
            periodic_average,
            (von_sterneck, (2,), 2),
            (von_sterneck, (2,), 2.0),
            "modulus must be an integer >= 1, got 2.0",
            id="periodic_average-good31-bad31-modulus must be an integer, got 2.0",
        ),
        # these compared with 1 before any type check
        pytest.param(
            von_sterneck,
            (1, 3),
            (1, "3"),
            "von_sterneck modulus must be an integer >= 1, got '3'",
            id="von_sterneck-good32-bad32-von_sterneck modulus must be an integer, got '3'",
        ),
        pytest.param(
            von_sterneck,
            (1, 3),
            (1, None),
            "von_sterneck modulus must be an integer >= 1, got None",
            id="von_sterneck-good33-bad33-von_sterneck modulus must be an integer, got None",
        ),
        pytest.param(
            von_sterneck,
            (1, 2),
            (1, 2.0),
            "von_sterneck modulus must be an integer >= 1, got 2.0",
            id="von_sterneck-good34-bad34-von_sterneck modulus must be an integer, got 2.0",
        ),
        pytest.param(
            enumerate_nonvanishing_triples,
            (12,),
            ("12",),
            "lcm must be an integer >= 1, got '12'",
            id="enumerate_nonvanishing_triples-good35-bad35-lcm must be an integer, got '12'",
        ),
        pytest.param(
            enumerate_nonvanishing_triples,
            (12,),
            (None,),
            "lcm must be an integer >= 1, got None",
            id="enumerate_nonvanishing_triples-good36-bad36-lcm must be an integer, got None",
        ),
        pytest.param(
            enumerate_nonvanishing_triples,
            (12,),
            (12.0,),
            "lcm must be an integer >= 1, got 12.0",
            id="enumerate_nonvanishing_triples-good37-bad37-lcm must be an integer, got 12.0",
        ),
    ],
)
def test_entry_points_reject_non_integers(fn, good, bad, message):
    # each bad call once returned a wrong value (count_congruence_solutions(True, ())
    # gave 1, f_r(3, 4.0) gave 6.0, epi_nonvanishing(..., 2.0) gave (True, []))
    # or died in a bare TypeError; the good call runs first, as above
    fn(*good)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*bad)


MR_REFUSAL = "Miller-Rabin argument a {}-digit number exceeds the guard 3317044064679887385961980"


@pytest.mark.parametrize(
    "fn, args, error, message",
    [
        (is_prime, (10**5000,), GuardError, MR_REFUSAL.format(5001)),
        # trial division leaves a 4999-digit cofactor to Miller-Rabin
        (factorize, (10**5000 + 1,), GuardError, MR_REFUSAL.format(4999)),
        (E_closed, ((10**5000 + 1,),), GuardError, MR_REFUSAL.format(4999)),
        (
            count_congruence_solutions,
            (2**20000, (2**20000, 2**20000)),
            GuardError,
            "congruence steps (block a 6021-digit number takes a 6021-digit number)"
            " a 6021-digit number exceeds the guard 1000000",
        ),
        (
            factorize,
            (-(10**5000),),
            ValueError,
            "factorize argument must be an integer >= 1, got a negative 5001-digit number",
        ),
        (
            theta,
            (1, -(10**5000)),
            ValueError,
            "edge count must be an integer >= 1, got a negative 5001-digit number",
        ),
    ],
)
def test_refusal_survives_a_value_past_the_str_limit(fn, args, error, message):
    # formatting such a value once raised Python's own int-to-str error in
    # place of the refusal, so a --check past a guard failed, not skipped
    start = perf_counter()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as refused:
        fn(*args)
    assert type(refused.value) is error
    assert perf_counter() - start < 1


def test_shown_counts_the_digits_of_an_unprintable_int():
    from decimal import Decimal  # converts an int of any size without str

    for k in (4300, 5000):
        for size in (10**k, 10**k + 1, 10 ** (k + 1) - 1, 2 ** (4 * k), 2 ** (5 * k) - 1):
            digits = Decimal(size).adjusted() + 1
            assert arith._shown(size) == f"a {digits}-digit number"
            assert arith._shown(-size) == f"a negative {digits}-digit number"
    # a printable value is its repr, as is a value of another type
    shown = [arith._shown(v) for v in (-(10**4300 - 1), 2.5, "3")]
    assert shown == [repr(-(10**4300 - 1)), "2.5", "'3'"]
