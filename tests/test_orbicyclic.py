import math
import random
import re
import time
from itertools import combinations_with_replacement

import pytest

from orbicyclic.arith import GuardError, divisors, euler_phi, periodic_average, von_sterneck
from orbicyclic.congruence import count_congruence_solutions
from orbicyclic.orbicyclic import (
    E_bruteforce,
    E_closed,
    E_local,
    LocalProfile,
    PeriodTuple,
    _columns,
    _divisor_table,
    _nonvanishing_triples_by_scan,
    enumerate_nonvanishing_triples,
    equals_phi_classification,
    f_r,
    h_poly,
    local_profile,
    vanishes,
)


def small_tuples(max_value, max_len):
    for r in range(max_len + 1):
        yield from combinations_with_replacement(range(2, max_value + 1), r)


class TestPeriodTuple:
    def test_normalizes_order(self):
        assert PeriodTuple([3, 12, 4]) == (12, 4, 3)
        assert PeriodTuple([2, 2, 5]) == PeriodTuple([5, 2, 2])
        assert hash(PeriodTuple([2, 5])) == hash(PeriodTuple([5, 2]))

    def test_lcm_and_len(self):
        t = PeriodTuple([4, 4, 3])
        assert t.m == 12
        assert len(t) == 3
        assert list(t) == [4, 4, 3]
        assert PeriodTuple().m == 1

    def test_lcm_is_read_only(self):
        t = PeriodTuple((4, 6))
        with pytest.raises(AttributeError):
            t.m = 7
        assert t.m == 12

    def test_reduced_drops_ones(self):
        assert PeriodTuple([1, 2, 1, 3]).reduced() == PeriodTuple([3, 2])
        assert PeriodTuple([1, 1]).reduced() == PeriodTuple()

    def test_rejects_bad_values(self):
        for bad in ([0], [-2], [2.5], [True]):
            with pytest.raises(ValueError):
                PeriodTuple(bad)
        # values that cannot be compared are named, not left to sorted()
        with pytest.raises(ValueError, match="got None"):
            PeriodTuple([2, None])
        with pytest.raises(ValueError, match="got 'x'"):
            E_closed([3, "x"])
        with pytest.raises(ValueError, match="got None"):
            count_congruence_solutions(12, [3, None])


class TestLocalProfile:
    def test_examples(self):
        assert local_profile((4, 4, 3), 2) == LocalProfile(2, 2, 2, 1, 2)
        assert local_profile((10, 5, 2), 5) == LocalProfile(5, 1, 2, 0, 2)
        assert local_profile((10, 5, 2), 2) == LocalProfile(2, 1, 2, 0, 2)
        assert local_profile((12, 12), 3) == LocalProfile(3, 1, 2, 0, 2)

    def test_rejects_prime_not_dividing_lcm(self):
        with pytest.raises(ValueError):
            local_profile((4, 4, 3), 5)

    # p = 1 or -1 looped forever dividing by p, p = 0 divided by zero, and
    # p = 2.0 returned a profile with a float p
    @pytest.mark.parametrize("p", [1, -1, 0, 2.0, True])
    def test_rejects_p_below_two_or_not_an_int(self, p):
        message = f"local_profile p must be an integer >= 2, got {p!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            local_profile((2,), p)

    # a composite p dividing the lcm once gave a profile of no prime, such
    # as LocalProfile(p=4, a=1, s=1, v=0, r_p=1) for ((8,), 4)
    @pytest.mark.parametrize("p", [4, 6, 9])
    def test_rejects_composite_p(self, p):
        message = f"local_profile p must be a prime, got {p}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            local_profile((36,), p)


class TestHPoly:
    def test_small_indices(self):
        for x in range(-10, 11):
            if x == 0:
                continue
            assert h_poly(1, x) == 0
            assert h_poly(2, x) == 1
            assert h_poly(3, x) == x - 2
            assert h_poly(4, x) == x * x - 3 * x + 3

    def test_at_two(self):
        # h_s(2) alternates 0, 1
        for s in range(1, 12):
            assert h_poly(s, 2) == (1 if s % 2 == 0 else 0)

    def test_spot_values(self):
        assert h_poly(3, 3) == 1
        assert h_poly(4, 2) == 1
        assert h_poly(4, 3) == 3
        assert h_poly(5, 5) == 51

    def test_chromatic_identity(self):
        # x * h_s(x) counts proper colourings of a cycle, up to sign bookkeeping
        for s in range(1, 11):
            for x in range(-10, 11):
                if x == 0:
                    continue
                assert x * h_poly(s, x) == (x - 1) ** (s - 1) + (-1) ** s

    def test_errors(self):
        with pytest.raises(ValueError):
            h_poly(0, 3)
        with pytest.raises(ValueError):
            h_poly(3, 0)

    def test_print_bound(self):
        # |h_s(x)| <= max(1, |x-1|^(s-1)): 6^5525 < 10^4300 <= 6^5526, so
        # s = 5527 and up is refused before any power
        assert len(str(h_poly(5526, 7))) == 4299
        start = time.perf_counter()
        for s in (5527, 10**6, 10**400):
            with pytest.raises(ValueError, match="^h_poly may exceed the 4300-digit print limit$"):
                h_poly(s, 7)
        assert time.perf_counter() - start < 1
        # |x - 1| <= 1 bounds nothing: the value is 0 or +-1 at any s
        assert (h_poly(10**400, 2), h_poly(10**400 + 1, 1)) == (1, -1)


class TestEValues:
    def test_examples(self):
        assert E_closed((12, 12)) == 4
        assert E_closed((4, 4, 3)) == 0
        assert E_closed((10, 5, 2)) == 4
        assert E_closed((2, 2, 2)) == 0
        assert E_closed(()) == E_bruteforce(()) == 1
        assert E_closed((1, 1)) == 1
        for m in range(2, 21):
            assert E_closed((m,)) == 0

    def test_print_bound(self):
        # E(p x r) = (p-1) h_r(p) has about 6r digits at p = 999983, so r = 800
        # passes the limit; the tuple is refused before any power is taken
        start = time.perf_counter()
        for r in (800, 3000, 20000):
            with pytest.raises(ValueError, match="^E may exceed the 4300-digit print limit$"):
                E_closed((999983,) * r)
        assert time.perf_counter() - start < 1
        # a lone 999979 gives s = 1 there, so E = 0 however long the tuple
        assert E_closed((999983,) * 800 + (999979,)) == 0
        # prod m_j only bounds E: E(2 x 20000) = h_20000(2) = 1, and
        # E(9 x 4507) has 3,507 digits although 9^4507 has 4,301
        assert E_closed((2,) * 20000) == 1
        assert E_closed((9,) * 4507) == f_r(9, 4507)

    def test_ones_are_removable(self):
        for t in [(12, 12), (10, 5, 2), (4, 4, 3), ()]:
            assert E_closed(t + (1, 1)) == E_closed(t)

    def test_pair_is_euler_phi(self):
        for m in range(1, 101):
            assert E_closed((m, m)) == euler_phi(m)

    def test_nonnegative_integers(self):
        for t in small_tuples(10, 3):
            v = E_closed(t)
            assert isinstance(v, int)
            assert v >= 0

    def test_matches_bruteforce_exhaustively(self):
        for t in small_tuples(12, 3):
            assert E_closed(t) == E_bruteforce(t)

    def test_matches_bruteforce_randomized(self):
        rng = random.Random(20260817)
        for _ in range(1000):
            m = rng.randint(1, 360)
            divs = [d for d in range(1, m + 1) if m % d == 0]
            t = tuple(rng.choice(divs) for _ in range(rng.randint(0, 6)))
            assert E_closed(t) == E_bruteforce(t)

    def test_splitting_coprime_factor(self):
        rests = [(), (6,), (12, 2), (5, 5)]
        for u in range(2, 10):
            for v in range(2, 10):
                if math.gcd(u, v) != 1:
                    continue
                for rest in rests:
                    assert E_closed((u * v,) + rest) == E_closed((u, v) + rest)

    def test_local_factor_ignores_multiplicity_at_two(self):
        # (2-1)^(r_p-s+1) = 1, so extra even entries below the top exponent
        # change nothing at p = 2
        for a, s, v in [(1, 2, 0), (2, 2, 1), (3, 4, 2)]:
            values = {E_local(LocalProfile(2, a, s, v, r)) for r in range(s, s + 4)}
            assert len(values) == 1

    def test_bruteforce_modulus_independence(self):
        # E_bruteforce averages over one lcm; any common multiple gives the same mean
        for t in [(12, 12), (4, 4, 3), (10, 5, 2), (6, 4), (2, 2, 2)]:
            m = math.lcm(*t)
            base = E_bruteforce(t)
            assert periodic_average(von_sterneck, t, 2 * m) == base
            assert periodic_average(von_sterneck, t, 3 * m) == base

    def test_bruteforce_rows_equal_von_sterneck(self):
        # each column is built positionally from the factorization, never from
        # von_sterneck, and must equal it at every divisor, in the tables' order
        def walk(n):
            return _divisor_table(n, lambda p, a: [p**e for e in range(a + 1)])

        for n in range(1, 5041):
            order = walk(n)
            assert sorted(order) == divisors(n), n
            assert _columns[n, n] == tuple(von_sterneck(g, n) for g in order), n
        n = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))
        order, column = walk(n), _columns[n, n]
        assert len(column) == len(order) == 2**16
        for i in random.Random(16).sample(range(2**16), 500):
            assert column[i] == von_sterneck(order[i], n), order[i]

    def test_bruteforce_semiprime_lcm_is_fast(self):
        # 988027 = 997 * 991: 988,027 residues but only 4 distinct Phi values
        t = (988027, 997, 991, 988027)
        start = time.perf_counter()
        assert E_bruteforce(t) == E_closed(t)
        assert time.perf_counter() - start < 2.0

    def test_bruteforce_many_distinct_periods(self):
        t = divisors(5040)
        assert len(t) == 60
        assert E_bruteforce(t) == E_closed(t)

    def test_bruteforce_errors(self):
        # the class sum pays tau(lcm), not the lcm: 1000001 = 101 * 9901 has 4 classes
        assert E_bruteforce((1000001,)) == E_closed((1000001,)) == 0
        # refused before any work: tau(M) per distinct period for its column,
        # and per class k * sqrt(k) for each of the (distinct periods + 1)
        # passes over terms of k 1024-bit words
        p = 2**61 - 1
        for r in (1, 27495):  # the last multiplicity under the guard: 262,082 steps
            assert E_bruteforce((p,) * r) == ((p - 1) ** r + (p - 1) * (-1) ** r) // p
        first = [q for q in range(2, 72) if euler_phi(q) == q - 1]
        for t, steps in [
            ((p,) * 27496, 262242),  # k = 1639: the first multiplicity past the guard
            ((math.prod(first[:17]),), 393216),  # 2**17 divisors
            ((math.prod(first[:20]),), 3145728),  # 2**20 divisors
        ]:
            message = f"^brute-force steps {steps} exceeds the guard 262144$"
            start = time.perf_counter()
            with pytest.raises(GuardError, match=message):
                E_bruteforce(t)
            assert time.perf_counter() - start < 1

    def test_bruteforce_calls_no_primary(self, monkeypatch):
        # the defining mean uses no closed form, local profile, local factor or h_s
        tuples = [(10, 5, 2), (12, 12, 6, 6), (3, 3, 3, 3), (2, 2, 2), (720720, 720720), ()]
        expected = [E_closed(t) for t in tuples]

        def refuse(*args):
            raise AssertionError("an oracle called a primary")

        for name in ("E_closed", "_local_profile", "E_local", "_h_poly"):
            monkeypatch.setattr(f"orbicyclic.orbicyclic.{name}", refuse)
        assert [E_bruteforce(t) for t in tuples] == expected == [4, 12, 6, 0, 138240, 1]
        # the patches bite: the closed form, which looks them up, now fails
        with pytest.raises(AssertionError, match="called a primary"):
            E_closed((10, 5, 2))

    def test_matches_bruteforce_past_a_million(self):
        # lcms in (10**6, 5 * 10**12] from the primes up to 31, as e-wide draws
        # them; before the class sum every one was past the brute-force guard
        rng = random.Random(20261019)
        primes, top = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31), {2: 4, 3: 2}
        seen = nonzero = 0
        while seen < 200:
            r = rng.randint(1, 8)
            entries = [1] * r
            for q in primes:
                a = rng.randint(0, top.get(q, 1))
                s = rng.randint(1, r)
                for j in range(r):
                    entries[j] *= q ** (a if j < s else rng.randint(0, a))
                rng.shuffle(entries)
            if 10**6 < math.lcm(*entries) <= 5 * 10**12:
                value = E_closed(entries)
                assert E_bruteforce(entries) == value, entries
                seen, nonzero = seen + 1, nonzero + (value != 0)
        assert nonzero >= 20
        for d in divisors(720720):
            assert E_bruteforce((d, 720720)) == E_closed((d, 720720))


class TestVanishes:
    def test_examples(self):
        assert vanishes((4, 2)) == (True, "s(2) = 1 is odd")
        assert vanishes((9, 3))[0] is True
        assert vanishes((2, 2, 2)) == (True, "s(2) = 3 is odd")
        assert vanishes((2, 2, 2, 2)) == (False, None)
        assert vanishes((3, 3, 3)) == (False, None)
        assert vanishes(()) == (False, None)

    def test_distinct_pairs_vanish(self):
        for m1 in range(2, 20):
            for m2 in range(2, 20):
                if m1 != m2:
                    assert vanishes((m1, m2))[0] is True

    def test_agrees_with_value(self):
        for t in small_tuples(12, 3):
            flag, reason = vanishes(t)
            assert flag == (E_closed(t) == 0)
            assert (reason is None) == (not flag)


class TestRepeatedTuples:
    def test_examples(self):
        assert f_r(12, 2) == 4
        assert f_r(4, 3) == 0
        assert f_r(1, 5) == 1
        assert f_r(7, 0) == 1

    def test_matches_closed_form(self):
        for m in range(1, 31):
            for r in range(0, 6):
                assert f_r(m, r) == E_closed((m,) * r)

    def test_errors(self):
        with pytest.raises(ValueError):
            f_r(0, 2)
        with pytest.raises(ValueError):
            f_r(6, -1)

    def test_print_bound(self):
        # f_r(m) <= m^(r-1): 9^4506 < 10^4300 <= 9^4507, so r = 4508 and up is refused
        assert len(str(f_r(9, 4507))) == 3507
        start = time.perf_counter()
        for r in (4508, 10**6, 10**400):
            with pytest.raises(ValueError, match="^f_r may exceed the 4300-digit print limit$"):
                f_r(9, r)
        assert time.perf_counter() - start < 1
        assert f_r(1, 10**400) == 1

    def test_prime_power_divisibility(self):
        # p divides f_r(p^a) except exactly when a = 1, r > 1 and
        # r is not 1 mod p.  The classical statement omits the last
        # condition and fails at p = 3, r = 4 (value 6).
        for p in (2, 3, 5):
            for a in (1, 2, 3):
                for r in range(1, 6):
                    value = f_r(p**a, r)
                    expected_coprime = a == 1 and r > 1 and r % p != 1
                    assert (value % p != 0) == expected_coprime

    def test_classical_divisibility_violations_pinned(self):
        violations = []
        for p in (2, 3, 5):
            for a in (1, 2, 3):
                for r in range(1, 6):
                    value = f_r(p**a, r)
                    if value == 0:
                        continue
                    if (value % p != 0) != (a == 1 and r > 1):
                        violations.append((p, a, r))
        assert violations == [(3, 1, 4)]
        assert f_r(3, 4) == 6

    def test_parity(self):
        # E is odd exactly for evenly many copies of 2 and nothing else
        for t in small_tuples(10, 4):
            reduced = PeriodTuple(t).reduced()
            expect_odd = all(v == 2 for v in reduced) and len(reduced) % 2 == 0
            assert (E_closed(t) % 2 == 1) == expect_odd


class TestPrimePowerTripleBranches:
    def test_top_pair_with_lower_third(self):
        for p in (2, 3, 5):
            for a in (1, 2, 3):
                for c in range(1, a):
                    assert E_closed((p**a, p**a, p**c)) == (p - 1) ** 2 * p ** (
                        a + c - 2
                    )

    def test_top_pair_alone(self):
        for p in (2, 3, 5):
            for a in (1, 2, 3):
                assert E_closed((p**a, p**a)) == (p - 1) * p ** (a - 1)

    def test_all_equal(self):
        for p in (2, 3, 5):
            for a in (1, 2, 3):
                assert E_closed((p**a,) * 3) == (p - 1) * (p - 2) * p ** (2 * a - 2)


class TestTriples:
    def test_unit_lcm(self):
        assert enumerate_nonvanishing_triples(1) == [(1, 1, 1)]

    def test_matches_direct_scan(self):
        for m in (1, 2, 3, 4, 6, 12, 30, 36):
            assert enumerate_nonvanishing_triples(m) == _nonvanishing_triples_by_scan(m)

    def test_counts(self):
        # prod over odd p of (3a+1), times 3a(2) when m is even
        def expected_count(m):
            count = 1
            n = m
            a2 = 0
            while n % 2 == 0:
                a2 += 1
                n //= 2
            if a2:
                count *= 3 * a2
            p = 3
            while p * p <= n:
                a = 0
                while n % p == 0:
                    a += 1
                    n //= p
                if a:
                    count *= 3 * a + 1
                p += 2
            if n > 1:
                count *= 4
            return count

        for m in range(1, 101):
            assert len(enumerate_nonvanishing_triples(m)) == expected_count(m)

    def test_validity_and_order(self):
        for m in (12, 30):
            triples = enumerate_nonvanishing_triples(m)
            assert triples == sorted(triples)
            assert len(set(triples)) == len(triples)
            for t in triples:
                assert math.lcm(*t) == m
                assert E_closed(t) != 0

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_nonvanishing_triples(10**5)
        with pytest.raises(ValueError):
            enumerate_nonvanishing_triples(0)


class TestEqualsPhi:
    def test_examples(self):
        assert equals_phi_classification((12, 12)) is True
        assert equals_phi_classification((3, 3, 3)) is True
        assert equals_phi_classification((2, 2, 2, 2)) is True
        assert equals_phi_classification((10, 5, 2)) is True
        assert equals_phi_classification((4, 4, 3)) is False
        assert equals_phi_classification((5, 5, 5)) is False
        assert equals_phi_classification(()) is True

    def test_structural_matches_numeric(self):
        for t in small_tuples(10, 4):
            structural = equals_phi_classification(t)
            numeric = E_closed(t) == euler_phi(PeriodTuple(t).m)
            assert structural == numeric, t

    def test_dyadic_chain(self):
        assert equals_phi_classification((8, 8, 2, 2)) is True
        assert equals_phi_classification((8, 8, 2)) is True
        assert equals_phi_classification((2, 2, 2)) is False
        assert equals_phi_classification((8, 8, 4)) is False
