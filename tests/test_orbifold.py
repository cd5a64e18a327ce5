import hashlib
import math
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from orbicyclic import orbifold
from orbicyclic.arith import GuardError, divisors, euler_phi
from orbicyclic.orbifold import (
    ELL_GUARD,
    GAMMA_GUARD,
    CensusResult,
    OrbifoldSignature,
    _candidate_signatures,
    census,
    enumerate_orbifolds,
    enumerate_orbifolds_via_harvey,
    epi_nonvanishing,
    harvey_admissible,
    rh_gamma,
)


def sig(g, *periods):
    return OrbifoldSignature(g, periods)


def naive_candidates(gamma, ell):
    """Every multiset of divisors >= 2 of ell, at every g <= gamma, that solves RH."""
    orders = [d for d in divisors(ell) if d >= 2]
    return {
        s
        for g in range(gamma + 1)
        for r in range(2 * gamma + 3)
        for ps in combinations_with_replacement(orders, r)
        if rh_gamma(s := OrbifoldSignature(g, ps), ell) == gamma
    }


class TestSignature:
    def test_normalizes_periods(self):
        s = sig(0, 10, 2, 5)
        assert s.periods == (2, 5, 10)
        assert s.m == 10
        assert s.r == 3
        assert str(s) == "(0;2,5,10)"
        assert str(sig(3)) == "(3;-)"

    def test_branch_multiplicities(self):
        assert sig(1, 2, 2, 3, 6).branch_multiplicities() == {2: 2, 3: 1, 6: 1}
        assert sig(2).branch_multiplicities() == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            sig(-1)
        with pytest.raises(ValueError):
            sig(0, 1)
        with pytest.raises(ValueError):
            sig(0, 0)
        with pytest.raises(ValueError, match="got None"):
            OrbifoldSignature(0, (2, None))
        # the first bad branch order in input order is named
        for periods, shown in (((3, True), "True"), ((2.0, 3), "2.0"), ((3, 1, 2.0), "1")):
            message = f"^branch order must be an integer >= 2, got {shown}$"
            with pytest.raises(ValueError, match=message):
                OrbifoldSignature(0, periods)
        for genus in (1.5, True):
            with pytest.raises(ValueError):
                sig(genus, 2, 2)
        # namedtuple's _make and _replace go through the same checks
        with pytest.raises(ValueError):
            sig(1, 2, 2)._replace(g=1.5)
        with pytest.raises(ValueError):
            OrbifoldSignature._make((True, (2,)))
        assert OrbifoldSignature._make((1, (3, 2))).periods == (2, 3)
        # signatures are immutable values, hashed regardless of period order
        assert hash(sig(1, 3, 2, 6)) == hash(sig(1, 6, 2, 3))
        s = sig(1, 2, 2)
        with pytest.raises(AttributeError):
            s.g = 2


class TestRiemannHurwitz:
    def test_examples(self):
        assert rh_gamma(sig(0, 2, 5, 10), 10) == 2
        assert rh_gamma(sig(1, 2, 2), 2) == 2
        assert rh_gamma(sig(0, 2, 2, 2, 2, 2, 2), 2) == 2
        assert rh_gamma(sig(g=2), 1) == 2
        assert rh_gamma(sig(1), 7) == 1
        # periods not dividing ell: 2m(gamma - 1) = ell(m(2g - 2) + sum(m - m/m_j))
        assert rh_gamma(sig(0, 3, 3, 3), 2) == 1

    def test_non_realizable(self):
        # non-integer or negative gamma
        assert rh_gamma(sig(0, 2, 4), 4) is None
        assert rh_gamma(sig(0, 2, 3), 6) is None

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            rh_gamma(sig(1), 0)
        with pytest.raises(ValueError, match="group order must be an integer >= 1, got 0"):
            epi_nonvanishing(sig(0, 2, 2), 0)


class TestHarvey:
    def test_admissible_example(self):
        ok, violated = harvey_admissible(sig(0, 2, 5, 10), 10, 2)
        assert ok
        assert violated == []

    def test_h1_needs_repeated_top_lcm(self):
        ok, violated = harvey_admissible(sig(0, 2, 4), 4, 0)
        assert not ok
        assert "H1" in violated

    def test_h2_order_mismatch(self):
        ok, violated = harvey_admissible(sig(0, 3, 3, 3, 3), 6, 2)
        assert not ok
        assert "H2" in violated

    def test_h3_single_branch_point(self):
        ok, violated = harvey_admissible(sig(1, 2), 2, 2)
        assert not ok
        assert "H1" in violated and "H3" in violated

    def test_h4_odd_count_of_top_even_periods(self):
        ok, violated = harvey_admissible(sig(0, 2, 2, 2), 2, 1)
        assert not ok
        assert "H4" in violated

    def test_gamma_one_supplement(self):
        ok, violated = harvey_admissible(sig(0, 2, 2, 2, 2, 2), 2, 1)
        assert not ok
        assert "H3a" in violated
        # for gamma = 0, r = 2 replaces H3 and is reported as H3a
        assert harvey_admissible(sig(0, 2, 2, 2), 4, 0) == (False, ["H2", "H3a", "H4"])
        assert harvey_admissible(sig(0, 3, 3, 3), 3, 0) == (False, ["RH", "H3a"])


class TestEpiNonvanishing:
    def test_examples(self):
        assert epi_nonvanishing(sig(0, 5, 5), 5) == (True, [])
        assert epi_nonvanishing(sig(0, 5, 5), 10) == (False, ["E2"])
        assert epi_nonvanishing(sig(0, 5, 5), 7) == (False, ["E1", "E2"])
        assert epi_nonvanishing(sig(1, 2, 2, 2), 2) == (False, ["E4"])
        assert epi_nonvanishing(sig(0, 2, 4), 4) == (False, ["E4"])
        assert epi_nonvanishing(sig(1, 3, 3, 3), 3) == (True, [])
        assert epi_nonvanishing(sig(2), 6) == (True, [])

    def test_one_entry_per_witnessing_prime(self):
        assert epi_nonvanishing(sig(0, 3, 5), 15) == (False, ["E3", "E3"])
        assert epi_nonvanishing(sig(0, 2, 3), 6) == (False, ["E3", "E4"])
        assert epi_nonvanishing(sig(1, 2, 3, 5), 60) == (False, ["E3", "E3", "E4"])


class TestEnumeration:
    def test_examples(self):
        assert enumerate_orbifolds(0, 5) == [sig(0, 5, 5)]
        assert enumerate_orbifolds(1, 5) == [sig(1)]
        assert enumerate_orbifolds(2, 9) == []
        assert enumerate_orbifolds(2, 1) == [sig(2)]

    def test_gamma_one_extras_only_at_small_orders(self):
        for ell in range(2, 13):
            extras = [s for s in enumerate_orbifolds(1, ell) if s.periods]
            assert bool(extras) == (ell in (2, 3, 4, 6)), ell

    def test_genus_two_order_two(self):
        assert enumerate_orbifolds(2, 2) == [
            sig(0, 2, 2, 2, 2, 2, 2),
            sig(1, 2, 2),
        ]

    def test_riemann_hurwitz_holds_on_output(self):
        for gamma in range(0, 5):
            for ell in range(2, 15):
                for s in enumerate_orbifolds(gamma, ell):
                    assert rh_gamma(s, ell) == gamma

    def test_routes_agree(self):
        for gamma in range(0, 5):
            top = 4 * gamma + 2 if gamma >= 2 else 14
            for ell in range(2, top + 1):
                assert enumerate_orbifolds(gamma, ell) == enumerate_orbifolds_via_harvey(
                    gamma, ell
                ), (gamma, ell)

    def test_candidates_match_a_naive_search(self):
        # Both admissibility routes filter the same generator, so a missing or
        # repeated candidate would go unseen by test_routes_agree; rebuild the
        # search space from every multiset of divisors instead.
        total = 0
        for gamma in range(4):
            for ell in sorted(set(range(1, 4 * gamma + 3)) | {24, 30}):
                found = list(_candidate_signatures(gamma, ell))
                assert len(found) == len(set(found)), (gamma, ell)
                assert set(found) == naive_candidates(gamma, ell), (gamma, ell)
                total += len(found)
        assert total == 86

    def test_pruned_candidates_match_a_naive_search_at_large_orders(self):
        # the generator skips a branch whose remaining sum no later divisor
        # can make up, and most branches die that way at large ell
        for gamma in (0, 1):
            for ell in (60, 120, 180, 200):
                found = list(_candidate_signatures(gamma, ell))
                assert len(found) == len(set(found)), (gamma, ell)
                assert set(found) == naive_candidates(gamma, ell), (gamma, ell)

    def test_whole_guarded_grid(self):
        total = 0
        for gamma in range(GAMMA_GUARD + 1):
            for ell in range(1, ELL_GUARD + 1):
                found = orbifold._candidates[gamma, ell]
                assert len(found) == len(set(found)), (gamma, ell)
                assert list(found) == sorted(found, key=lambda s: (s.g, s.r, s.periods))
                assert all(rh_gamma(s, ell) == gamma for s in found), (gamma, ell)
                total += len(found)
        assert total == 1049

    def test_guards(self):
        with pytest.raises(ValueError):
            enumerate_orbifolds(7, 2)
        with pytest.raises(ValueError):
            enumerate_orbifolds(2, 201)
        with pytest.raises(ValueError):
            enumerate_orbifolds(-1, 2)


class TestCaches:
    def test_bounded_by_the_guarded_domain(self, monkeypatch):
        # the whole guarded domain fits in both stores' byte budgets: each list
        # is built once, on its first call, and kept
        stores, builds = (orbifold._candidates, orbifold._epi_route), ([], [])
        for store, built in zip(stores, builds):

            def counted(key, build=store.build, record=built.append):
                record(key)
                return build(key)

            monkeypatch.setattr(store, "build", counted)
        domain = [
            (gamma, ell) for gamma in range(GAMMA_GUARD + 1) for ell in range(1, ELL_GUARD + 1)
        ]
        for gamma, ell in domain:
            enumerate_orbifolds(gamma, ell)
            enumerate_orbifolds(gamma, ell)
        for store, built in zip(stores, builds):
            assert built == domain
            assert len(store) == (GAMMA_GUARD + 1) * ELL_GUARD
            assert store.held == sum(map(store.size, store, store.values())) <= store.budget
            assert store.budget == 2**20

    def test_each_route_draws_the_candidates_once(self, monkeypatch):
        # the cached list is built through the module's generator binding, so
        # a wrapper there (as a tracer installs) sees every draw
        draws = []
        real = orbifold._candidate_signatures

        def counted(gamma, ell):
            draws.append((gamma, ell))
            return real(gamma, ell)

        monkeypatch.setattr(orbifold, "_candidate_signatures", counted)
        for _ in range(3):
            assert enumerate_orbifolds(2, 2) == enumerate_orbifolds_via_harvey(2, 2)
        assert draws == [(2, 2)]

    def test_returned_lists_are_fresh(self):
        expected = [sig(0, 2, 2, 2, 2, 2, 2), sig(1, 2, 2)]
        for fn in (enumerate_orbifolds, enumerate_orbifolds_via_harvey):
            found = fn(2, 2)
            found.append(sig(2))
            found[0] = sig(5)
            assert fn(2, 2) == expected

    def test_non_integers_are_refused_after_a_cached_call(self):
        # a store takes True for 1 and 2.0 for 2, so the checks come first
        for fn in (enumerate_orbifolds, enumerate_orbifolds_via_harvey):
            assert fn(1, 2) == [sig(0, 2, 2, 2, 2), sig(1)]
            with pytest.raises(ValueError, match="^gamma must be an integer >= 0, got True$"):
                fn(True, 2)
            with pytest.raises(ValueError, match="^group order must be an integer >= 1, got 2.0$"):
                fn(1, 2.0)


class TestSearchTables:
    GRID = [(gamma, ell) for ell in range(1, ELL_GUARD + 1) for gamma in range(GAMMA_GUARD + 1)]
    # sha256 of repr of the lists above, drawn in GRID order while the
    # generator still built its divisors and reach bitsets on every call
    DIGEST = "1cf15926c2fa6578dd50bc7367c419573447d4c82cd2abdf10232a7c9e22751c"

    def test_any_request_order_draws_the_same_candidates(self, monkeypatch):
        # a table is kept per (ell, 2^k - 1), the least such top at or above the
        # target asked, so it never serves a wider request, and rising and
        # falling gamma build the same tables; each list is compared as drawn
        alone = {}
        for key in self.GRID:
            orbifold._search_tables.clear()
            alone[key] = list(_candidate_signatures(*key))
        lists = [alone[key] for key in self.GRID]
        assert hashlib.sha256(repr(lists).encode()).hexdigest() == self.DIGEST
        store, builds = orbifold._search_tables, []
        build = store.build
        monkeypatch.setattr(store, "build", lambda key: builds.append(key) or build(key))
        # over gamma <= 6 the g = 0 target runs from 2*ell - 2 to 2*ell + 10
        expected = {
            (ell, (1 << top.bit_length()) - 1)
            for ell in range(1, ELL_GUARD + 1)
            for top in range(2 * ell - 2, 2 * ell + 11, 2)
        }
        tables = []
        for gammas in (range(GAMMA_GUARD + 1), range(GAMMA_GUARD, -1, -1)):
            store.clear()
            builds.clear()
            for ell in range(1, ELL_GUARD + 1):
                for gamma in gammas:
                    assert list(_candidate_signatures(gamma, ell)) == alone[gamma, ell]
            # each table built once, at most two per ell >= 5, all within the budget
            assert len(builds) == len(set(builds)) and set(builds) == expected
            assert max(Counter(ell for ell, _ in builds if ell >= 5).values()) == 2
            assert store.held == sum(map(store.size, store, store.values())) <= store.budget
            tables.append(dict(store))
        assert tables[0] == tables[1]


class TestCensus:
    def test_counts(self):
        for gamma, a, a0 in [(2, 10, 8), (3, 17, 12), (4, 25, 18)]:
            result = census(gamma)
            assert isinstance(result, CensusResult)
            assert result.a == a
            assert result.a_by_g[0] == a0
            assert result.a_distinct == result.a
            assert sum(result.a_by_g.values()) == result.a

    def test_by_quotient_genus(self):
        assert census(2).a_by_g == {0: 8, 1: 1, 2: 1}
        assert census(3).a_by_g == {0: 12, 1: 3, 2: 1, 3: 1}
        assert census(4).a_by_g == {0: 18, 1: 4, 2: 2, 4: 1}

    def test_genus_two_catalogue(self):
        expected = [
            (1, sig(2)),
            (2, sig(0, 2, 2, 2, 2, 2, 2)),
            (2, sig(1, 2, 2)),
            (3, sig(0, 3, 3, 3, 3)),
            (4, sig(0, 2, 2, 4, 4)),
            (5, sig(0, 5, 5, 5)),
            (6, sig(0, 3, 6, 6)),
            (6, sig(0, 2, 2, 3, 3)),
            (8, sig(0, 2, 8, 8)),
            (10, sig(0, 2, 5, 10)),
        ]
        assert list(census(2).orbifolds) == expected

    def test_rejects_infinite_cases(self):
        with pytest.raises(ValueError):
            census(0)
        with pytest.raises(ValueError):
            census(1)
        # a gamma past the guard is valid input refused on cost, by the
        # enumerators' own guard at the census's first group order
        with pytest.raises(GuardError, match="^gamma 7 exceeds the guard 6$"):
            census(7)
        with pytest.raises(ValueError, match="^gamma must be an integer >= 0, got -1$") as refused:
            census(-1)
        assert not isinstance(refused.value, GuardError)

    def test_signature_admitted_at_two_orders_is_an_error(self, monkeypatch):
        # for gamma >= 2 Riemann-Hurwitz fixes ell, so this is an internal fault
        def twice_admitted(gamma, ell):
            return [sig(1, 2, 2)] if ell in (2, 3) else []

        monkeypatch.setattr(orbifold, "enumerate_orbifolds", twice_admitted)
        with pytest.raises(ArithmeticError, match="admitted by both ell=2 and ell=3$"):
            census(2)

    def test_wiman_bound_is_sharp(self):
        # the largest admitting order is 4*gamma + 2, realized by (0;2,2*gamma+1,4*gamma+2)
        for gamma in (2, 3, 4):
            top = max(ell for ell, _ in census(gamma).orbifolds)
            assert top == 4 * gamma + 2
            assert (top, sig(0, 2, 2 * gamma + 1, top)) in census(gamma).orbifolds


class TestBounds:
    def test_quotient_genus_and_branch_count(self):
        for gamma in (2, 3, 4):
            for ell, s in census(gamma).orbifolds:
                assert s.g <= gamma
                assert s.r <= 2 * gamma + 2
                assert all(mj <= ell for mj in s.periods)
                if gamma >= 2 and ell > 1:
                    assert euler_phi(ell) <= 2 * gamma

    def test_order_divides_lcm_condition(self):
        for gamma in (2, 3, 4):
            for ell, s in census(gamma).orbifolds:
                assert ell % s.m == 0
                if s.g == 0 and s.periods:
                    assert s.m == ell
