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

Each count is kept once per (signature, ell), within a byte budget, so a
sweep that meets an orbifold again, as theta does for every n, counts it
once.
"""

from __future__ import annotations

import math

from .arith import _ENTRY_BYTES, _require_int, _require_printable, _Store, jordan_phi
from .orbicyclic import E_closed
from .orbifold import OrbifoldSignature


def count_epi(sig: OrbifoldSignature, ell: int) -> int:
    """Number of order-preserving epimorphisms pi_1(orbifold) -> Z_ell."""
    _require_int(ell, "group order", 1)
    if type(sig) is OrbifoldSignature:  # its g and periods are checked ints, as ell is now
        return _counts[sig, ell]
    return _count((sig, ell))


def _count(key: tuple[OrbifoldSignature, int]) -> int:
    """The count for key = (sig, ell)."""
    sig, ell = key
    if ell > 1:  # ell^(2g) * prod(m_j) bounds the count; Z_1 takes at most one
        digits = sum(map(math.log10, sig.periods))
        _require_printable("the count", 2 * sig.g, ell, digits)
    m = sig.m
    if ell % m != 0:
        return 0
    return m ** (2 * sig.g) * jordan_phi(2 * sig.g, ell // m) * E_closed(sig.periods)


def _count_bytes(key: tuple[OrbifoldSignature, int], count: int) -> int:
    return _ENTRY_BYTES + 40 * len(key[0].periods) + count.bit_length() // 8


# One count per (signature, ell): theta recounts each quotient orbifold for
# every n it sums over, and the guarded grid has 521 of them.  A dict takes
# True for 1 and 2.0 for 2, so only a validated OrbifoldSignature and an ell
# past _require_int make a key; anything else is counted afresh, and fails as
# it always has.  Each count is charged _ENTRY_BYTES, 40 bytes per period and
# its bytes, at most 2.2 KB at the print limit.  Measured with tracemalloc
# under CPython 3.11.7: an atlas round keeps the grid's 521 counts, 0.05 MB
# traced for 0.14 MB charged.
_counts = _Store(_count, 2**21, _count_bytes)
