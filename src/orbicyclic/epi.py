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
"""

from __future__ import annotations

import math

from .arith import _require_int, _require_printable, jordan_phi
from .orbicyclic import E_closed
from .orbifold import OrbifoldSignature


def count_epi(sig: OrbifoldSignature, ell: int) -> int:
    """Number of order-preserving epimorphisms pi_1(orbifold) -> Z_ell."""
    _require_int(ell, "group order", 1)
    if ell > 1:  # ell^(2g) * prod(m_j) bounds the count; Z_1 takes at most one
        digits = sum(map(math.log10, sig.periods))
        _require_printable("the count", 2 * sig.g, ell, digits)
    m = sig.m
    if ell % m != 0:
        return 0
    return m ** (2 * sig.g) * jordan_phi(2 * sig.g, ell // m) * E_closed(sig.periods)
