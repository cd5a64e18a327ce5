"""Counting order-preserving epimorphisms onto cyclic groups.

For an orbifold with signature (g; m_1, ..., m_r) and m = lcm(m_j),
the number of order-preserving epimorphisms from its fundamental group
onto Z_ell is

    m^(2g) * phi_2g(ell / m) * E(m_1, ..., m_r),

where phi_k is the Jordan totient and the whole expression is 0 when
m does not divide ell (arithmetic functions vanish at non-integer
arguments).  The g = 0 case needs no special path: phi_0(ell/m) is 1
exactly when ell = m and 0 otherwise.
"""

from __future__ import annotations

import math

from .arith import PRINT_DIGITS, _require_int, jordan_phi
from .orbicyclic import E_bruteforce, E_closed
from .orbifold import OrbifoldSignature


def count_epi(sig: OrbifoldSignature, ell: int) -> int:
    """Number of order-preserving epimorphisms pi_1(orbifold) -> Z_ell."""
    _require_int(ell, "group order must be an integer")
    _require_int(ell, "group order must be >= 1", 1)
    room = PRINT_DIGITS - sum(map(math.log10, sig.periods))
    if ell > 1 and sig.g >= room / (2 * math.log10(ell)):
        raise ValueError(f"the count may exceed the {PRINT_DIGITS}-digit print limit")
    m = sig.m
    if ell % m != 0:
        return 0
    return m ** (2 * sig.g) * jordan_phi(2 * sig.g, ell // m) * E_closed(sig.periods)


def _count_epi_by_brute_force(sig: OrbifoldSignature, ell: int) -> int:
    """count_epi's formula with E taken from its defining mean, for cross-checking."""
    m = sig.m
    if ell % m != 0:
        return 0
    mean = E_bruteforce(sig.periods)
    return m ** (2 * sig.g) * jordan_phi(2 * sig.g, ell // m) * mean
