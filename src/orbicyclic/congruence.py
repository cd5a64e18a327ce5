"""Restricted linear congruence counting, an independent oracle for E.

Counts solutions (x_1, ..., x_r) modulo M of

    x_1 + ... + x_r = 0 (mod M),    gcd(x_j, M) = M / m_j,

where each m_j divides M.  The count does not depend on the admissible
M chosen and equals E(m_1, ..., m_r), which makes it a combinatorial
cross-check for both the brute-force and the closed-form evaluators.
The residues of each modulus are sorted into gcd classes once and kept,
within a budget on the residues held, for the next count at that modulus.
"""

from __future__ import annotations

import math

from .orbicyclic import GuardError, Periods, _coerce

# Bounds one count's steps, charged before any work: M to sort range(M) into
# residue classes (charged even when the classes are kept, so no refusal
# depends on earlier calls), then one term per fold.  Best of 5, 2-core VM,
# CPython 3.11.7: M = 10**6, t = (1,), 10**6 steps, 0.22 s; (720720,) * 2,
# 858,960 steps, 0.22 s.  Both moduli are past _CLASS_BUDGET, so a repeat
# costs the same.
STEP_GUARD = 10**6

# Each modulus's residues sorted by their gcd with it, kept across calls: a
# sweep repeats its moduli, and the class pass is most of a small count.
# Modulus M holds M residues, so the keys sum to the residues held.  A
# modulus is kept only if it fits in what the budget leaves, and nothing is
# ever evicted: a sweep past the budget keeps its first moduli, and a call
# never costs more than with an empty store.  Measured with tracemalloc
# under CPython 3.11.7: one modulus near the budget (65,520) holds 2.7 MB,
# the moduli 1..60 together 0.05 MB.
_CLASS_BUDGET = 2**16
_classes_by_modulus: dict[int, dict[int, list[int]]] = {}


def count_congruence_solutions(M: int, t: Periods) -> int:
    """Number of solutions of the restricted congruence system above.

    One pass over range(M), made once per modulus and kept, sorts the
    residues by their gcd with M, where gcd(0, M) = M.  The coordinate with
    the largest class is solved from the congruence; the others are folded
    in one at a time, counting for each s mod M the partial tuples that sum
    to s, and a solution is a sum s with -s in the last class.  Class d
    holds multiples of d, so after classes d_1, ..., d_i the sums lie in
    g * Z_M, g = gcd(d_1, ..., d_i), and a fold costs at most
    min(P, M / g) x (class size), P the product of the earlier class sizes;
    STEP_GUARD bounds M plus these terms.
    """
    t = _coerce(t)
    if not isinstance(M, int) or isinstance(M, bool):
        raise ValueError(f"modulus must be an integer, got {M!r}")
    if M < 1:
        raise ValueError(f"modulus must be >= 1, got {M}")
    if M > STEP_GUARD:
        raise GuardError(f"modulus {M} exceeds the step guard {STEP_GUARD}")
    for mj in t:
        if M % mj != 0:
            raise ValueError(f"period {mj} does not divide modulus {M}")
    if len(t) == 0:
        return 1
    classes = _residue_classes(M)
    ds = sorted((M // mj for mj in t), key=lambda d: len(classes[d]))
    d_last = ds.pop()
    steps, prefix, g = M, 1, M
    for d in ds:
        steps += min(prefix, M // g) * len(classes[d])
        prefix, g = prefix * len(classes[d]), math.gcd(g, d)
    if steps > STEP_GUARD:
        raise GuardError(f"{steps} steps exceed the step guard {STEP_GUARD}")
    ways = {0: 1}
    for d in ds:
        step: dict[int, int] = {}
        for s, n in ways.items():
            for x in classes[d]:
                y = (s + x) % M
                step[y] = step.get(y, 0) + n
        ways = step
    return sum(n for s, n in ways.items() if math.gcd(s, M) == d_last)


def _residue_classes(M: int) -> dict[int, list[int]]:
    """{d: [x in range(M) with gcd(x, M) = d]}, kept or from one pass over range(M)."""
    classes = _classes_by_modulus.get(M)
    if classes is None:
        classes = {}
        for x in range(M):
            classes.setdefault(math.gcd(x, M), []).append(x)
        if sum(_classes_by_modulus) + M <= _CLASS_BUDGET:
            _classes_by_modulus[M] = classes
    return classes
