import ast
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path
from time import perf_counter

import pytest
from conftest import triangle_tuples, wide_tuples

from orbicyclic import congruence
from orbicyclic.arith import GuardError
from orbicyclic.congruence import count_congruence_solutions
from orbicyclic.orbicyclic import E_closed, PeriodTuple


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
    # once refused as past the modulus guard, now counted: the lcm is 2
    assert count_congruence_solutions(10**7, (2,)) == E_closed((2,)) == 0


def test_tuple_guard_fails_fast():
    # a prime block near 10**5 with three coordinates: one product of two
    # 3.4-million-bit polynomials, refused before any work
    start = perf_counter()
    limit = (
        r"^congruence steps \(block 99991 takes 2863677\) 2863677 exceeds the guard 1000000$"
    )
    with pytest.raises(GuardError, match=limit):
        count_congruence_solutions(99991, (99991, 99991, 99991))
    assert perf_counter() - start < 1
    # (101,) * 4: 100**3 residue tuples, counted in two small products
    assert count_congruence_solutions(101, (101,) * 4) == E_closed((101,) * 4)


def test_a_block_past_the_guard_alone_is_refused_in_integers():
    # a block of order 2**64 or more is charged the pass over Z_L alone, in
    # integers: 2**700 is refused, not overflowed in the float model; its 211
    # digits are past what a refusal shows in full
    q = 2**700
    start = perf_counter()
    q = "a 211-digit number"
    limit = rf"^congruence steps \(block {q} takes {q}\) {q} exceeds the guard 1000000$"
    with pytest.raises(GuardError, match=limit):
        count_congruence_solutions(2**700, (2**700, 2**700))
    assert perf_counter() - start < 1


def test_step_guard_follows_the_work():
    # 2**21 residue tuples, but the lcm is 3: one block, and sums in Z_3
    assert count_congruence_solutions(9996, (3,) * 22) == E_closed((3,) * 22)
    # six small prime-power blocks, where one fold over Z_720720 took 0.2 s
    t = (720720, 720720)
    assert count_congruence_solutions(720720, t) == E_closed(t)
    # once refused as past the modulus guard, now counted: the lcm is 1
    start = perf_counter()
    assert count_congruence_solutions(10**6 + 1, (1,)) == E_closed((1,)) == 1
    assert perf_counter() - start < 1


@pytest.mark.parametrize(
    "M, t",
    [
        (9973, (9973,) * 3),
        (10**4, (10**4,) * 3),
        (5040, (5040,) * 4),
        (720720, (720720,) * 4),
        (720720 * 6, (720720 * 6, 720720 * 6)),
        (500000, (500000, 125, 125)),
        (2**19, (2**19, 2**19, 2)),
    ],
)
def test_counts_what_the_modulus_guard_refused(M, t):
    # each was past the old charge of M plus the fold terms, or (the last
    # two) inside it, and is counted by blocks in well under a second
    start = perf_counter()
    assert count_congruence_solutions(M, t) == E_closed(t), (M, t)
    assert perf_counter() - start < 1


def test_matches_closed_form_on_long_tuples():
    # e-wide's long-tuple shape: 6-12 entries over the primes up to 31,
    # 10**6 < lcm <= 5 * 10**12, half of them drawn so that E does not vanish
    rng = random.Random(20261020)
    primes, top = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31), {2: 4, 3: 2}
    tuples = []
    while len(tuples) < 200:
        r = rng.randint(6, 12)
        entries = [1] * r
        nonvanishing = rng.random() < 0.5
        for p in [p for p in primes if rng.random() < 0.8]:
            a = rng.randint(1, top.get(p, 1))
            if nonvanishing:  # each odd prime at least twice, 2 an even number of times
                s = rng.randrange(2, r + 1, 2) if p == 2 else rng.randint(2, r)
            else:
                s = rng.randint(1, r)
            slots = rng.sample(range(r), r)
            for j in slots[:s]:
                entries[j] *= p**a
            for j in slots[s:]:
                if a > 1 and rng.random() < 0.5:
                    entries[j] *= p ** rng.randint(1, a - 1)
        if 10**6 < math.lcm(*entries) <= 5 * 10**12:
            tuples.append(entries)
    expected = [E_closed(t) for t in tuples]
    assert sum(value != 0 for value in expected) >= 50
    start = perf_counter()
    counted = [count_congruence_solutions(math.lcm(*t), t) for t in tuples]
    assert perf_counter() - start < 1
    assert counted == expected


def test_blocks_of_large_primes():
    # primes past trial division are split by the coprime base of the periods'
    # gcds; 1009 * 1013 always occurs whole, so it stays one block
    t = (1009 * 1013, 1009 * 1013 * 1019, 1019 * 4, 2)
    assert sorted(congruence._blocks(math.lcm(*t), t)) == [4, 1019, 1009 * 1013]
    t = (1009 * 1013, 1009, 1013 * 1019, 1019)
    assert sorted(congruence._blocks(math.lcm(*t), t)) == [1009, 1013, 1019]
    t = (1009 * 2, 1009 * 2, 1009, 1013 * 1019, 1013 * 1019, 1013, 1019)
    assert count_congruence_solutions(math.lcm(*t) * 1021, t) == E_closed(t) != 0


def test_trial_division_splits_what_the_base_leaves_whole():
    # a block the gcd base leaves composite was once refused at 1,049,373 steps
    # for 1009 * 1013; trial division past 1,000 splits it, each division charged
    for q in (1009 * 1013, 1009 * 1013 * 1019):
        for r in (2, 3):
            t = (q,) * r
            assert count_congruence_solutions(q, t) == E_closed(t) != 0, t
    assert count_congruence_solutions(1022117, (1022117, 1022117)) == 1008 * 1012
    assert congruence._split_blocks([1022117], (1022117,) * 2) == ([1009, 1013], 5)
    # a block whose count is 0 at once is left whole, with no division
    assert congruence._split_blocks([2, 1022117], (1022117, 2, 2)) == ([2, 1022117], 0)
    # two primes past 10^6: trial division stops at the largest order a block
    # with three coordinates can count, 61,907, and the refusal charges the
    # 30,454 divisions it took
    M = 1000003 * 1000033
    start = perf_counter()
    message = (
        r"^congruence steps \(block 1000036000099 takes 991409768063970048\)"
        r" 991409768064000502 exceeds the guard 1000000$"
    )
    with pytest.raises(GuardError, match=message):
        count_congruence_solutions(M, (M, M, M))
    assert perf_counter() - start < 1


def test_step_charge_bounds_the_fold_pairs(monkeypatch):
    # replays each count with an empty store, tallying the residues visited
    # (class builds and shifted sums, one gcd each) and the dense products,
    # at their measured cost of d ** 1.585 / 50 steps for d-digit factors;
    # with the guard at 0, the charge the message names is never less
    rng = random.Random(17)
    visited, products = [], []
    units = congruence._units
    monkeypatch.setattr(congruence, "_units", lambda n: visited.append(n) or units(n))
    generators = set()

    class Tallied(congruence._Store):
        def __getitem__(self, key):
            # each block first looks up its generator class; later lookups are factors
            L, slot, _ = key
            if (L, slot) in generators:
                products.append(L * slot)
            generators.add((L, slot))
            return super().__getitem__(key)

    store = congruence._polynomials
    store = Tallied(congruence._class_polynomial, store.budget, store.size)
    monkeypatch.setattr(congruence, "_polynomials", store)
    for _ in range(300):
        M = rng.choice([rng.randint(1, 90), rng.randint(1, 3000), 2**rng.randint(1, 14)])
        divs = divisors_of(M)
        first = rng.choice(divs)
        t = [first] * rng.randint(1, 2) + [rng.choice(divs) for _ in range(rng.randint(0, 4))]
        store.clear()
        visited.clear(), products.clear(), generators.clear()
        monkeypatch.setattr(congruence, "STEP_GUARD", 10**9)
        congruence._counts.clear()  # a kept count would be replayed without its work
        count_congruence_solutions(M, t)
        work = sum(visited) + sum((bits / 30) ** 1.585 / 50 for bits in products)
        monkeypatch.setattr(congruence, "STEP_GUARD", 0)
        congruence._counts.clear()
        try:
            count_congruence_solutions(M, t)
        except GuardError as refusal:
            charged = int(str(refusal).split(" exceeds ")[0].split()[-1])
        else:  # no block to count, so nothing was charged or done
            assert work == 0, (M, t)
            continue
        assert charged >= work, (M, t, charged, work)


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


def held_bytes(store):
    return sum(L * slot // 8 + congruence._ENTRY_BYTES for L, slot, _ in store)


def test_polynomial_store_stays_within_its_budget(monkeypatch):
    # blocks whose classes sum past a budget of 2**16 bytes, drawn with
    # repeats, so the store both serves kept classes and turns away classes
    # that no longer fit
    store = congruence._polynomials
    assert store.budget == 2**22
    monkeypatch.setattr(store, "budget", 2**16)
    rng = random.Random(24)
    pool = rng.sample(range(2, 3001), 30)
    sweep = []
    for _ in range(120):
        M = rng.choice(pool)
        divs = divisors_of(M)
        t = (M, M) + tuple(rng.choice(divs) for _ in range(rng.randint(0, 2)))
        before = set(store)
        sweep.append((M, t, count_congruence_solutions(M, t)))
        assert before <= set(store), M
        assert store.held == held_bytes(store) <= store.budget, M
    assert store.held > store.budget // 2
    assert not all((M, (M.bit_length() + 7) // 8 * 8, M) in store for M in pool)
    for M, t, count in sweep:
        store.clear()
        congruence._counts.clear()  # so that the count is made again, from no class
        assert count_congruence_solutions(M, t) == count == E_closed(t), (M, t)
    # a class past the budget is counted but not kept, and evicts nothing
    kept = dict(store)
    M = 2**16
    assert count_congruence_solutions(M, (M, M)) == E_closed((M, M))
    assert store == kept


def test_polynomial_store_keeps_a_large_class_across_small_ones(monkeypatch):
    # a class that fills the budget stays kept, while a small block that no
    # longer fits beside it is built afresh each time
    store = congruence._polynomials
    big, small = 65_521, 60
    monkeypatch.setattr(store, "budget", big * 16 // 8 + congruence._ENTRY_BYTES)
    for _ in range(3):
        congruence._counts.clear()  # a kept count would build no class at all
        assert count_congruence_solutions(big, (big, big)) == E_closed((big, big))
        assert count_congruence_solutions(small, (60, 30, 20)) == E_closed((60, 30, 20))
        assert set(store) == {(big, 16, big)}
        assert store.held == store.budget


@pytest.mark.parametrize("draw", [triangle_tuples, wide_tuples])
def test_kept_count_equals_a_cold_one(draw):
    # a count is kept per tuple whatever the admissible M: the draws repeat
    # tuples, and each is asked again at twice its lcm
    store = congruence._counts
    tuples = list(draw(random.Random(34), 300))
    first = [count_congruence_solutions(math.lcm(*t), t) for t in tuples]
    assert len(store) == len({tuple(sorted(t)) for t in tuples})
    kept = [count_congruence_solutions(2 * math.lcm(*t), t) for t in tuples]
    assert len(store) == len({tuple(sorted(t)) for t in tuples})
    cold = []
    for t in tuples:
        store.clear()
        cold.append(count_congruence_solutions(3 * math.lcm(*t), t))
    assert first == kept == cold == [E_closed(t) for t in tuples]


def test_step_guard_refusal_is_never_kept():
    # a refusal is never kept: (99991,) * 3 is refused alike every time, with
    # the block that passed the guard named
    message = "congruence steps (block 99991 takes 2863677) 2863677 exceeds the guard 1000000"
    for _ in range(2):
        with pytest.raises(GuardError) as refused:
            count_congruence_solutions(99991, (99991,) * 3)
        assert str(refused.value) == message
    assert not congruence._counts and congruence._counts.held == 0


def test_count_is_kept_once_across_moduli(monkeypatch):
    # 1009 * 1013 is split by trial division, work the count makes once: asked
    # again at twice the modulus it is read from the store, kept under its
    # PeriodTuple alone
    splits = []
    trial_split = congruence._trial_split
    monkeypatch.setattr(
        congruence, "_trial_split", lambda *args: splits.append(args) or trial_split(*args)
    )
    M = 1009 * 1013
    t = (M, M)
    assert count_congruence_solutions(M, t) == 1008 * 1012
    assert count_congruence_solutions(2 * M, t) == 1008 * 1012
    assert len(splits) == 1
    assert congruence._counts == {t: 1008 * 1012}
    assert [type(key) for key in congruence._counts] == [PeriodTuple]


def test_bad_arguments_fail_after_a_kept_count():
    assert count_congruence_solutions(12, (12, 6, 4)) == 4
    assert count_congruence_solutions(1, ()) == 1
    assert count_congruence_solutions(2, (2,)) == 0
    assert count_congruence_solutions(2, (2, 2)) == 1
    # the Fraction(2) tuples compare and hash equal to the kept (2,) and (2, 2)
    for M, t, message in (
        (True, (), "modulus must be an integer >= 1, got True"),
        (2.0, (2,), "modulus must be an integer >= 1, got 2.0"),
        (0, (), "modulus must be an integer >= 1, got 0"),
        (12, (True,), "period value must be an integer >= 1, got True"),
        (12, (2.0,), "period value must be an integer >= 1, got 2.0"),
        (2, (Fraction(2),), "period value must be an integer >= 1, got Fraction(2, 1)"),
        (2, (Fraction(2), 2), "period value must be an integer >= 1, got Fraction(2, 1)"),
        (Fraction(2), (2, 2), "modulus must be an integer >= 1, got Fraction(2, 1)"),
        (5, (2,), "period 2 does not divide modulus 5"),
        (18, (12, 6, 4), "period 12 does not divide modulus 18"),
    ):
        with pytest.raises(ValueError) as refused:
            count_congruence_solutions(M, t)
        assert str(refused.value) == message
        assert not isinstance(refused.value, GuardError)
    assert len(congruence._counts) == 4


def test_count_store_stays_within_its_budget(monkeypatch):
    store = congruence._counts
    assert store.budget == 2**21

    def charge(t, count):  # bytes per entry, per period and per byte of the count
        return congruence._ENTRY_BYTES + 40 * len(t) + count.bit_length() // 8

    monkeypatch.setattr(store, "budget", 20_000)
    for t in triangle_tuples(random.Random(35), 400):
        before = dict(store)
        assert count_congruence_solutions(math.lcm(*t), t) == E_closed(t)
        assert before.items() <= store.items()
        assert store.held == sum(map(charge, store, store.values())) <= store.budget
    # filled to within one triangle entry of the budget, so a tuple of ten
    # periods is past what is left: counted and returned, not kept
    assert store.held > store.budget - charge((60,) * 4, 0)
    kept = dict(store)
    assert count_congruence_solutions(12, (12,) * 10) == E_closed((12,) * 10)
    assert store == kept


def test_oracle_imports_nothing_from_what_it_checks():
    # the oracle must stay independent of E: no arith, no closed form; even the
    # store and the two rules come through the module that supplies _coerce
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
        ".orbicyclic:_ENTRY_BYTES",
        ".orbicyclic:Periods",
        ".orbicyclic:_Store",
        ".orbicyclic:_coerce",
        ".orbicyclic:_require_int",
        ".orbicyclic:_require_within",
        ".orbicyclic:_shown",
    }
