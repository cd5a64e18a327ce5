import ast
import math
import random
from collections import Counter
from itertools import combinations_with_replacement, product
from pathlib import Path
from time import perf_counter

import pytest

from orbicyclic import congruence
from orbicyclic.congruence import count_congruence_solutions
from orbicyclic.orbicyclic import E_closed


def naive_counts(M, r):
    """Solutions per ordered period tuple, by scanning every tuple in range(M)**r.

    A tuple x with x_1 + ... + x_r = 0 (mod M) satisfies the gcd
    conditions for exactly one t, t_j = M / gcd(x_j, M), so one scan
    tallies the count of every t whose entries divide M.
    """
    counts = Counter()
    for xs in product(range(M), repeat=r):
        if sum(xs) % M == 0:
            counts[tuple(M // math.gcd(x, M) for x in xs)] += 1
    return counts


def divisors_of(M):
    return [d for d in range(1, M + 1) if M % d == 0]


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
        count_congruence_solutions(10**7, (2,))


def test_tuple_guard_fails_fast():
    # three coordinates of 9972 units each: 9973 + 9972 + 9972**2 steps
    start = perf_counter()
    limit = "99460729 steps exceed the step guard 1000000"
    with pytest.raises(ValueError, match=limit):
        count_congruence_solutions(9973, (9973, 9973, 9973))
    assert perf_counter() - start < 1
    # (101,) * 4: 100**3 residue tuples, counted in about 2 * 10**4 steps
    assert count_congruence_solutions(101, (101,) * 4) == E_closed((101,) * 4)


def test_step_guard_follows_the_work():
    # 2**21 residue tuples, but the sums stay in {0, 3332, 6664}: about 10**4 steps
    assert count_congruence_solutions(9996, (3,) * 22) == E_closed((3,) * 22)
    # one fold of 138,240 units after the 720,720-step class pass
    t = (720720, 720720)
    assert count_congruence_solutions(720720, t) == E_closed(t)
    start = perf_counter()
    limit = "^modulus 1000001 exceeds the step guard 1000000$"
    with pytest.raises(ValueError, match=limit):
        count_congruence_solutions(10**6 + 1, (1,))
    assert perf_counter() - start < 1


def test_step_charge_bounds_the_fold_pairs(monkeypatch):
    # replays the folds, counting the (partial sum, residue) pairs they
    # visit; with the guard at M, the charge the message names is never less
    rng = random.Random(17)
    for _ in range(300):
        M = rng.randint(1, 90)
        divs = divisors_of(M)
        # nonincreasing, as PeriodTuple stores it, so ties fold in the same order
        t = sorted((rng.choice(divs) for _ in range(rng.randint(2, 5))), reverse=True)
        classes = {d: [x for x in range(M) if math.gcd(x, M) == d] for d in divs}
        ds = sorted((M // mj for mj in t), key=lambda d: len(classes[d]))[:-1]
        pairs, sums = M, {0}
        for d in ds:
            pairs += len(sums) * len(classes[d])
            sums = {(s + x) % M for s in sums for x in classes[d]}
        monkeypatch.setattr(congruence, "STEP_GUARD", M)
        with pytest.raises(ValueError, match=r"^\d+ steps exceed") as info:
            count_congruence_solutions(M, t)
        assert int(str(info.value).split()[0]) >= pairs, (M, t)


def test_matches_naive_scan():
    # every ordered t of divisors of M is checked against M, so each t
    # meets each multiple M <= 24 of its lcm, the lcm itself included
    for M in range(1, 25):
        divs = divisors_of(M)
        for r in range(4):
            counts = naive_counts(M, r)
            for t in product(divs, repeat=r):
                assert count_congruence_solutions(M, t) == counts[t], (M, t)


def test_matches_naive_scan_length_four():
    rng = random.Random(15)
    for M in range(1, 13):
        divs = divisors_of(M)
        counts = naive_counts(M, 4)
        draws = [tuple(rng.choice(divs) for _ in range(4)) for _ in range(30)]
        for t in draws + [(M,) * 4]:
            assert count_congruence_solutions(M, t) == counts[t], (M, t)


def test_residue_store_stays_within_its_budget():
    # moduli that sum past the budget, drawn with repeats, so the store both
    # serves kept classes and turns away moduli that no longer fit
    store, budget = congruence._classes_by_modulus, congruence._CLASS_BUDGET
    rng = random.Random(24)
    pool = rng.sample(range(1, 6001), 30)
    assert sum(pool) > budget
    sweep = []
    for _ in range(120):
        M = rng.choice(pool)
        divs = divisors_of(M)
        t = tuple(rng.choice(divs) for _ in range(rng.randint(1, 2)))
        before = set(store)
        sweep.append((M, t, count_congruence_solutions(M, t)))
        assert before <= set(store) and sum(store) <= budget, M
    assert not {M for M, _, _ in sweep} <= set(store)  # some were not kept
    for M, t, count in sweep:
        store.clear()
        assert count_congruence_solutions(M, t) == count, (M, t)
    # a modulus past the budget is counted but not kept, and evicts nothing
    kept = dict(store)
    M = budget + 1
    assert count_congruence_solutions(M, (M, M)) == E_closed((M, M))
    assert store == kept


def test_residue_store_keeps_a_large_modulus_across_small_ones():
    # a modulus near the budget stays kept while a small one that no longer
    # fits beside it is counted afresh each time
    store = congruence._classes_by_modulus
    big, small = 65_520, 60
    assert big <= congruence._CLASS_BUDGET < big + small
    for _ in range(3):
        assert count_congruence_solutions(big, (big, big)) == E_closed((big, big))
        assert count_congruence_solutions(small, (60, 30, 20)) == E_closed((60, 30, 20))
        assert set(store) == {big}


def test_oracle_imports_nothing_from_what_it_checks():
    # the oracle must stay independent of E: no arith, no closed form; even
    # GuardError comes through the module that supplies _coerce
    tree = ast.parse(Path(congruence.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            imported.update(f"{module}:{alias.name}" for alias in node.names)
    assert imported == {
        "math",
        ".orbicyclic:GuardError",
        ".orbicyclic:Periods",
        ".orbicyclic:_coerce",
    }
