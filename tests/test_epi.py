from time import perf_counter

import pytest

from orbicyclic import epi
from orbicyclic.arith import euler_phi, jordan_phi
from orbicyclic.epi import count_epi
from orbicyclic.orbicyclic import E_bruteforce, E_closed, equals_phi_classification
from orbicyclic.orbifold import (
    ELL_GUARD,
    GAMMA_GUARD,
    OrbifoldSignature,
    enumerate_orbifolds,
    epi_nonvanishing,
)


def sig(g, *periods):
    return OrbifoldSignature(g, periods)


def test_examples():
    assert count_epi(sig(1), 2) == 3
    assert count_epi(sig(0, 2, 5, 10), 10) == 4
    for m in range(2, 40):
        assert count_epi(sig(0, m, m), m) == euler_phi(m)


def test_unbranched_is_jordan_totient():
    for g in range(0, 4):
        for ell in range(1, 30):
            assert count_epi(sig(g), ell) == jordan_phi(2 * g, ell)


def test_vanishes_when_lcm_does_not_divide_order():
    assert count_epi(sig(0, 2, 5, 10), 20) == 0
    assert count_epi(sig(1, 3, 3, 3), 7) == 0
    assert count_epi(sig(0, 5, 5), 10) == 0


def test_sphere_quotient_needs_exact_order():
    assert count_epi(sig(0, 5, 5), 5) == 4
    assert count_epi(sig(0, 5, 5), 15) == 0


def test_print_bound_is_checked_before_the_count():
    # ell^(2g) * prod(m_j) bounds the count; a genus past that bound is
    # refused in constant time, however large, and ell = 1 has no bound
    for g in (10**5, 10**400):
        start = perf_counter()
        with pytest.raises(ValueError, match="exceed the 4300-digit print limit"):
            count_epi(sig(g), 3)
        assert perf_counter() - start < 0.01
    assert count_epi(sig(4500), 3) == 3**9000 - 1
    assert count_epi(sig(10**400), 1) == 1


def test_order_one_skips_the_print_bound():
    # prod(m_j) alone passes the limit, but Z_1 has at most one epimorphism
    assert count_epi(sig(0, *(999983,) * 800), 1) == 0


def test_rejects_bad_order():
    with pytest.raises(ValueError):
        count_epi(sig(1), 0)


def test_nonvanishing_predicate_matches_count():
    from itertools import combinations_with_replacement

    for g in range(0, 3):
        for r in range(0, 4):
            for periods in combinations_with_replacement(range(2, 7), r):
                s = sig(g, *periods)
                for ell in range(1, 13):
                    assert (count_epi(s, ell) != 0) == epi_nonvanishing(s, ell)[0], (
                        s,
                        ell,
                    )


def test_divisible_by_totient_when_nonzero():
    for gamma in range(2, 5):
        for ell in range(2, 4 * gamma + 3):
            for s in enumerate_orbifolds(gamma, ell):
                n = count_epi(s, ell)
                assert n > 0
                assert n % euler_phi(ell) == 0
                assert E_bruteforce(s.periods) == E_closed(s.periods)


def test_equals_totient_criterion():
    for gamma in range(2, 5):
        for ell in range(2, 4 * gamma + 3):
            for s in enumerate_orbifolds(gamma, ell):
                expected = (
                    s.g == 0 and s.m == ell and equals_phi_classification(s.periods)
                )
                assert (count_epi(s, ell) == euler_phi(ell)) == expected


def test_memo_matches_the_formula_on_the_guarded_grid(monkeypatch):
    # each of the 521 orbifolds of the guarded grid, counted then read back,
    # against the formula with E's defining mean in place of the closed form
    store = epi._counts
    builds = []
    build = store.build
    monkeypatch.setattr(store, "build", lambda key: builds.append(key) or build(key))
    found = [
        (s, ell)
        for gamma in range(GAMMA_GUARD + 1)
        for ell in range(1, ELL_GUARD + 1)
        for s in enumerate_orbifolds(gamma, ell)
    ]
    assert len(found) == len(set(found)) == 521
    for s, ell in found:
        m = s.m
        expected = m ** (2 * s.g) * jordan_phi(2 * s.g, ell // m) * E_bruteforce(s.periods)
        assert count_epi(s, ell) == count_epi(s, ell) == expected, (s, ell)
    # each counted once and read back once, all within the budget
    assert sorted(builds) == sorted(found) and set(store) == set(found)
    assert store.held == sum(map(store.size, store, store.values())) <= store.budget
    assert store.budget == 2**21


def test_memo_counts_each_orbifold_once(monkeypatch):
    calls = []
    monkeypatch.setattr(epi, "E_closed", lambda t: calls.append(t) or E_closed(t))
    for _ in range(3):
        assert count_epi(sig(1, 2, 2), 2) == 4
        assert count_epi(sig(1, 2, 2), 4) == 12
    assert calls == [(2, 2), (2, 2)]


def test_memo_keeps_refusals_after_a_cached_call():
    # a store takes True for 1 and 2.0 for 2, so no key is made before the
    # checks; a plain tuple still fails on the attribute it lacks
    assert count_epi(sig(0, 2, 3, 6), 6) == 2
    assert [count_epi(sig(1), ell) for ell in (1, 2)] == [1, 3]
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match=f"^group order must be an integer >= 1, got {bad}$"):
            count_epi(sig(1), bad)
    for ell, attribute in ((6, "periods"), (1, "m")):
        with pytest.raises(AttributeError, match=f"^'tuple' object has no attribute '{attribute}'$"):
            count_epi((0, (2, 3, 6)), ell)
    # a refusal is never kept: the same guard refuses again
    for _ in range(2):
        with pytest.raises(ValueError, match="exceed the 4300-digit print limit"):
            count_epi(sig(10**5), 3)
