import math
import random
from itertools import combinations_with_replacement
from time import perf_counter

import pytest

from orbicyclic.congruence import count_congruence_solutions
from orbicyclic.orbicyclic import E_closed


def test_examples():
    assert count_congruence_solutions(12, (12, 12)) == 4
    assert count_congruence_solutions(24, (12, 12)) == 4
    assert count_congruence_solutions(1, ()) == 1
    assert count_congruence_solutions(360, ()) == 1
    assert count_congruence_solutions(10, (10, 5, 2)) == 4


def test_matches_closed_form_exhaustively():
    for r in range(0, 4):
        for t in combinations_with_replacement(range(1, 13), r):
            m = math.lcm(*t) if t else 1
            if m > 40:
                continue
            assert count_congruence_solutions(m, t) == E_closed(t), t


def test_matches_closed_form_spot_checks_length_four():
    rng = random.Random(4)
    for _ in range(40):
        m = rng.randint(1, 40)
        divs = [d for d in range(1, m + 1) if m % d == 0]
        t = tuple(rng.choice(divs) for _ in range(4))
        assert count_congruence_solutions(m, t) == E_closed(t), (m, t)


def test_modulus_independence():
    for t in [(12, 12), (4, 4, 3), (10, 5, 2), (2, 2, 2, 2), (6, 6, 3)]:
        m = math.lcm(*t)
        assert count_congruence_solutions(m, t) == count_congruence_solutions(2 * m, t)


def test_errors():
    with pytest.raises(ValueError):
        count_congruence_solutions(4, (4, 3))
    with pytest.raises(ValueError):
        count_congruence_solutions(0, ())
    with pytest.raises(ValueError):
        count_congruence_solutions(10**5, (2,))


def test_tuple_guard_fails_fast():
    # three coordinates of 9972 units each would need 9972**2 tuples
    start = perf_counter()
    limit = "99440784 residue tuples exceed the guard 1000000"
    with pytest.raises(ValueError, match=limit):
        count_congruence_solutions(9973, (9973, 9973, 9973))
    assert perf_counter() - start < 1
    # (101,) * 4 enumerates 100**3 tuples, exactly the guard
    assert count_congruence_solutions(101, (101,) * 4) == E_closed((101,) * 4)
