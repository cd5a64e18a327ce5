from math import factorial
from time import perf_counter

import pytest

from orbicyclic import orbifold
from orbicyclic.arith import GuardError, divisors
from orbicyclic.mapcount import (
    DART_PAIR_GUARD,
    _carrell_chapuy,
    _map_census,
    dart_pair_oracle,
    planar_rooted_count,
    rooted_map_count,
    theta,
)
from orbicyclic.orbifold import (
    OrbifoldSignature,
    census,
    enumerate_orbifolds,
    enumerate_orbifolds_via_harvey,
)
from orbicyclic.subgroups import free_group_subgroups, transitive_pair_counts

# N_g(n) for n = 1..12.
PLANAR = [
    2, 9, 54, 378, 2916, 24057, 208494, 1876446,
    17399772, 165297834, 1602117468, 15792300756,
]
TORUS = [
    0, 1, 20, 307, 4280, 56914, 736568, 9370183,
    117822512, 1469283166, 18210135416, 224636864830,
]
GENUS2 = [
    0, 0, 0, 21, 966, 27954, 650076, 13271982,
    248371380, 4366441128, 73231116024, 1183803697278,
]
GENUS3 = [
    0, 0, 0, 0, 0, 1485, 113256, 5008230,
    167808024, 4721384790, 117593590752, 2675326679856,
]

THETA0 = [
    2, 4, 14, 57, 312, 2071, 15030, 117735, 967850, 8268816, 72833730, 658049140,
    6074058060, 57106433817, 545532037612, 5284835906037, 51833908183164,
    514019531037910, 5147924676612282, 52017438279806634, 529867070532745464,
    5437158683198415852, 56168213151585033438, 583825369323829741876,
    6102921193699676356284, 64130971334149516719996, 677183743279978343681498,
    7182984705497413204651038, 76511970567087552769326612,
    818199885251704414518808523,
]
THETA1 = [0, 1, 6, 46, 452, 4852, 52972, 587047]
THETA2 = [
    0, 0, 0, 4, 106, 2382, 46680, 830848, 13804864, 218353000, 3328822880, 49325772812,
]


class TestPlanarClosedForm:
    def test_sequence(self):
        assert [planar_rooted_count(n) for n in range(1, 13)] == PLANAR
        assert planar_rooted_count(0) == 1

    def test_print_limit(self):
        # N_0(n) <= 12^n: refused from n = 3985 on, before any factorial is taken
        for n in (3985, 10**6, 10**100):
            start = perf_counter()
            message = "^planar_rooted_count may exceed the 4300-digit print limit$"
            with pytest.raises(GuardError, match=message):
                planar_rooted_count(n)
            assert perf_counter() - start < 1
        assert len(str(planar_rooted_count(3984))) <= 4300


class TestRootedMapCount:
    def test_conventions(self):
        assert rooted_map_count(0, 0) == 1
        assert rooted_map_count(1, 0) == 0
        assert rooted_map_count(2, -1) == 0
        with pytest.raises(ValueError):
            rooted_map_count(-1, 2)

    def test_missing_data(self):
        # Past g <= 3, n <= 12, the range a packaged table used to cover.
        # A genus-4 map with 8 edges has one vertex and one face, so it is
        # a minimal gluing: (4g)! / ((2g+1)! 4^g) at g = 4.
        assert rooted_map_count(4, 8) == factorial(16) // (factorial(9) * 4**4) == 225225
        assert rooted_map_count(1, 13) == 2760899996816

    def test_pinned_values(self):
        for n in range(1, 13):
            assert rooted_map_count(0, n) == PLANAR[n - 1]
            assert rooted_map_count(1, n) == TORUS[n - 1]
            assert rooted_map_count(2, n) == GENUS2[n - 1]
            assert rooted_map_count(3, n) == GENUS3[n - 1]

    def test_guard(self):
        assert rooted_map_count(6, 100) > 0
        with pytest.raises(GuardError, match="^genus 7 exceeds the guard 6$"):
            rooted_map_count(7, 8)
        with pytest.raises(GuardError, match="^edge count 101 exceeds the guard 100$"):
            rooted_map_count(1, 101)
        # genus 0 (the closed formula) is held to the same limit; at
        # n = 10**5 the unguarded formula took seconds
        start = perf_counter()
        with pytest.raises(GuardError, match="^edge count 101 exceeds the guard 100$"):
            rooted_map_count(0, 101)
        with pytest.raises(GuardError, match="^edge count 100000 exceeds the guard 100$"):
            rooted_map_count(0, 10**5)
        assert perf_counter() - start < 1


class TestCarrellChapuy:
    def test_planar_row_matches_closed_form(self):
        for n in range(0, 101):
            assert _carrell_chapuy(0, n) == planar_rooted_count(n), n

    def test_matches_dart_pair_scan(self):
        # n edges allow genus at most n // 2; the census reports every genus it finds
        for n in range(1, DART_PAIR_GUARD + 1):
            census = {g: rooted for g, (rooted, _) in _map_census(n).items()}
            assert census == {g: _carrell_chapuy(g, n) for g in range(n // 2 + 1)}, n
            assert _carrell_chapuy(n // 2 + 1, n) == 0

    def test_minimal_genus_three(self):
        # a genus-3 map with 6 edges has one vertex and one face
        assert _carrell_chapuy(3, 6) == factorial(12) // (factorial(7) * 4**3) == 1485


class TestTheta:
    def test_sequences(self):
        assert [theta(0, n) for n in range(1, 31)] == THETA0
        assert [theta(1, n) for n in range(1, 9)] == THETA1
        assert [theta(2, n) for n in range(1, 13)] == THETA2

    def test_sparse_high_genus(self):
        # genus 4 needs at least 8 edges; small n dies in the multinomial.
        # test_enumerator_route_matches confirms both orbifold lists by Harvey's route.
        assert theta(4, 2) == 0
        assert theta(4, 8) == 14118
        assert theta(1, 13) == 106189359544

    def test_errors(self):
        with pytest.raises(ValueError):
            theta(0, 0)
        with pytest.raises(ValueError):
            theta(-1, 2)
        start = perf_counter()
        with pytest.raises(GuardError, match="^edge count 1000000 exceeds the guard 100$"):
            theta(0, 10**6)
        assert perf_counter() - start < 5
        with pytest.raises(GuardError, match="^edge count 101 exceeds the guard 100$"):
            theta(3, 101)
        with pytest.raises(GuardError, match="^genus 7 exceeds the guard 6$"):
            theta(7, 1)

    def test_enumerator_route_matches(self):
        # theta sums over enumerate_orbifolds at every ell | 2n; Harvey's
        # route must list the same orbifolds there, so it gives the same sum.
        # Calling theta runs its own divisibility check over the whole grid.
        for gamma in range(0, 7):
            for n in (*range(1, 7), 8, 12, 13, 30, 60, 100):
                assert theta(gamma, n) >= 0, (gamma, n)
                for ell in divisors(2 * n):
                    assert enumerate_orbifolds(gamma, ell) == (
                        enumerate_orbifolds_via_harvey(gamma, ell)
                    ), (gamma, n, ell)

    def test_trivial_group_term_only(self, monkeypatch):
        # restricting the sum to ell = 1 counts each rooted quotient map once
        def only_trivial(gamma, ell):
            if ell == 1:
                return [OrbifoldSignature(gamma, ())]
            return []

        monkeypatch.setattr("orbicyclic.mapcount.enumerate_orbifolds", only_trivial)
        assert theta(0, 3) == planar_rooted_count(3) // 6


class TestDartPairOracle:
    def test_single_edge(self):
        assert dart_pair_oracle(0, 1) == (2, 2)
        assert dart_pair_oracle(1, 1) == (0, 0)

    def test_rooted_totals_by_genus(self):
        assert dart_pair_oracle(0, 2)[0] == 9
        assert dart_pair_oracle(1, 2)[0] == 1
        assert dart_pair_oracle(0, 3)[0] == 54
        assert dart_pair_oracle(1, 3)[0] == 20
        # every genus, one past the largest a map with n edges can have
        for n in range(1, DART_PAIR_GUARD + 1):
            for gamma in range(n // 2 + 2):
                assert dart_pair_oracle(gamma, n)[0] == rooted_map_count(gamma, n)

    def test_unrooted_matches_theta(self):
        for n in range(1, DART_PAIR_GUARD + 1):
            for gamma in range(n // 2 + 2):
                assert dart_pair_oracle(gamma, n)[1] == theta(gamma, n), (gamma, n)
        unrooted = {g: dart_pair_oracle(g, 4)[1] for g in range(3)}
        assert unrooted == {0: 57, 1: 46, 2: 4}

    def test_guard(self):
        # the edge case agrees with both primaries; the next n is refused at once
        assert DART_PAIR_GUARD == 5
        assert dart_pair_oracle(2, 5) == (966, 106)
        start = perf_counter()
        with pytest.raises(GuardError, match="^dart-pair edge count 6 exceeds the guard 5$"):
            dart_pair_oracle(0, 6)
        assert perf_counter() - start < 1
        with pytest.raises(ValueError):
            dart_pair_oracle(0, 0)

    def test_rejects_negative_genus(self):
        # the same check and message as theta and rooted_map_count
        with pytest.raises(ValueError, match="genus must be an integer >= 0, got -1"):
            dart_pair_oracle(-1, 2)


def test_oracles_call_no_primary(monkeypatch):
    # the canonical generator is independent of what the two oracles check
    def refuse(*args):
        raise AssertionError("an oracle called a primary")

    for name in (
        "orbicyclic.subgroups._hall",
        "orbicyclic.subgroups.jordan_phi",
        "orbicyclic.mapcount._carrell_chapuy",
        "orbicyclic.mapcount.count_epi",
        "orbicyclic.mapcount.enumerate_orbifolds",
    ):
        monkeypatch.setattr(name, refuse)
    _map_census.cache_clear()
    assert [dart_pair_oracle(g, 3) for g in range(3)] == [(54, 14), (20, 6), (0, 0)]
    assert dart_pair_oracle(1, 4) == (307, 46)
    assert transitive_pair_counts(2, 4) == (71, 26)
    assert transitive_pair_counts(3, 3) == (97, 41)
    # the patches bite: both primaries now fail
    for primary, args in ((theta, (0, 3)), (free_group_subgroups, (2, 4))):
        with pytest.raises(AssertionError, match="called a primary"):
            primary(*args)


def test_theta_integrality_and_rooted_sandwich():
    for gamma in range(0, 3):
        for n in range(1, 9):
            unrooted = theta(gamma, n)
            rooted = rooted_map_count(gamma, n)
            assert unrooted * 2 * n >= rooted
            assert unrooted <= rooted or rooted == 0


def test_guards_refuse_before_any_work(monkeypatch):
    # census has no guard of its own, and theta and the rooted counts share
    # one: the enumerators' guards refuse on a cache miss, before a candidate
    # is drawn, whether or not lists of the guarded domain are kept (the
    # caches start empty, as in every test)
    drawn, draw = [], orbifold._candidate_signatures
    monkeypatch.setattr(
        orbifold, "_candidate_signatures", lambda *key: drawn.append(key) or draw(*key)
    )
    refusals = [
        (census, (7,), "gamma 7 exceeds the guard 6"),
        (theta, (7, 3), "genus 7 exceeds the guard 6"),
        (theta, (2, 101), "edge count 101 exceeds the guard 100"),
        (rooted_map_count, (2, 101), "edge count 101 exceeds the guard 100"),
    ]
    for route in (enumerate_orbifolds, enumerate_orbifolds_via_harvey):
        refusals.append((route, (7, 1), "gamma 7 exceeds the guard 6"))
        refusals.append((route, (6, 201), "group order 201 exceeds the guard 200"))
    for cached in ([], [(6, 200), (6, 1)]):
        for key in cached:
            assert enumerate_orbifolds(*key) == enumerate_orbifolds_via_harvey(*key)
        for refused, args, message in refusals:
            with pytest.raises(GuardError, match=f"^{message}$"):
                refused(*args)
        assert drawn == cached
