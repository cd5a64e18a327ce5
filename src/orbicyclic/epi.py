"""Counting order-preserving epimorphisms onto cyclic groups.

For an orbifold with signature (g; m_1, ..., m_r) and m = lcm(m_j),
the number of order-preserving epimorphisms from its fundamental group
onto Z_ell is

    m^(2g) * phi_2g(ell / m) * E(m_1, ..., m_r),

where phi_k is the Jordan totient and the whole expression is 0 when
m does not divide ell (arithmetic functions vanish at non-integer
arguments).  The g = 0 case needs no special path: phi_0(ell/m) is 1
exactly when ell = m and 0 otherwise.  `epi --check` rechecks the E
factor by its defining mean; the rest of the formula has no oracle yet.

Each count is kept, up to 1,024 of them (at most 2.2 MB), once per
(signature, ell), so a sweep that meets an orbifold again, as theta does
for every n, counts it once.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import _require_int, _require_printable, jordan_phi
from .orbicyclic import E_closed
from .orbifold import OrbifoldSignature


def count_epi(sig: OrbifoldSignature, ell: int) -> int:
    """Number of order-preserving epimorphisms pi_1(orbifold) -> Z_ell."""
    _require_int(ell, "group order", 1)
    if type(sig) is OrbifoldSignature:  # its g and periods are checked ints, as ell is now
        return _counts(sig, ell)
    return _count(sig, ell)


def _count(sig: OrbifoldSignature, ell: int) -> int:
    if ell > 1:  # ell^(2g) * prod(m_j) bounds the count; Z_1 takes at most one
        digits = sum(map(math.log10, sig.periods))
        _require_printable("the count", 2 * sig.g, ell, digits)
    m = sig.m
    if ell % m != 0:
        return 0
    return m ** (2 * sig.g) * jordan_phi(2 * sig.g, ell // m) * E_closed(sig.periods)


# One count per (signature, ell): theta recounts each quotient orbifold for
# every n it sums over, and the guarded grid has 521 of them.  lru_cache takes
# True for 1 and 2.0 for 2, so only a validated OrbifoldSignature and an ell
# past _require_int make a key; anything else is counted afresh, and fails as
# it always has.  A refusal is never kept.  Measured with tracemalloc under
# CPython 3.11.7: the 521 orbifolds of the guarded grid hold 0.08 MB; a count
# has at most PRINT_DIGITS digits, 2.1 KB an entry at the limit, so 1,024
# entries stay under 2.2 MB plus about 40 bytes per period in their keys.
_counts = lru_cache(maxsize=1024)(_count)
