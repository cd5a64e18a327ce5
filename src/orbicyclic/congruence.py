"""Restricted linear congruence counting, an independent oracle for E.

Counts solutions (x_1, ..., x_r) modulo M of

    x_1 + ... + x_r = 0 (mod M),    gcd(x_j, M) = M / m_j,

where each m_j divides M.  The count does not depend on the admissible
M chosen and equals E(m_1, ..., m_r), which makes it a combinatorial
cross-check for both the brute-force and the closed-form evaluators.
"""

from __future__ import annotations

import math
from itertools import product

from .orbicyclic import Periods, _coerce

MODULUS_GUARD = 10**4
TUPLE_GUARD = 10**6  # residue tuples enumerated at most; 10**6 take about 0.3 s


def count_congruence_solutions(M: int, t: Periods) -> int:
    """Number of solutions of the restricted congruence system above.

    Residues are grouped by their gcd with M, and the coordinate with
    the largest residue class is solved from the congruence instead of
    being enumerated, so the cost is the product of the other class
    sizes.  gcd(0, M) counts as M.
    """
    t = _coerce(t)
    if M < 1:
        raise ValueError(f"modulus must be >= 1, got {M}")
    if M > MODULUS_GUARD:
        raise ValueError(f"modulus {M} exceeds the enumeration guard {MODULUS_GUARD}")
    for mj in t:
        if M % mj != 0:
            raise ValueError(f"period {mj} does not divide modulus {M}")
    if len(t) == 0:
        return 1
    gcd_of = [math.gcd(x, M) for x in range(M)]
    distinct = {M // mj for mj in t}
    classes = {d: [x for x in range(M) if gcd_of[x] == d] for d in distinct}
    # Enumerate every coordinate except the one with the most residues;
    # that one is determined by the congruence and merely checked.
    ds = sorted((M // mj for mj in t), key=lambda d: len(classes[d]))
    d_last = ds.pop()
    tuples = math.prod(len(classes[d]) for d in ds)
    if tuples > TUPLE_GUARD:
        raise ValueError(f"{tuples} residue tuples exceed the guard {TUPLE_GUARD}")
    count = 0
    for xs in product(*(classes[d] for d in ds)):
        if gcd_of[-sum(xs) % M] == d_last:
            count += 1
    return count
