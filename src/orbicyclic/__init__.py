"""Exact arithmetic for cyclic symmetry counts.

The core object is the orbicyclic function E, a multiplicative mean of
von Sterneck (Ramanujan sum) values.  On top of it sit counts of
epimorphisms onto cyclic groups, enumeration of cyclic orbifolds on
orientable surfaces, unrooted map counting, and free-group subgroup
counts.  Everything is exact integer arithmetic; no floating point.
"""

from .arith import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    jordan_phi,
    mobius,
    periodic_average,
    ramanujan_sum,
    von_sterneck,
)
from .congruence import count_congruence_solutions
from .epi import count_epi
from .mapcount import (
    dart_pair_oracle,
    planar_rooted_count,
    rooted_map_count,
    theta,
)
from .orbicyclic import (
    E_bruteforce,
    E_closed,
    E_local,
    LocalProfile,
    PeriodTuple,
    enumerate_nonvanishing_triples,
    equals_phi_classification,
    f_r,
    h_poly,
    local_profile,
    vanishes,
)
from .orbifold import (
    CensusResult,
    OrbifoldSignature,
    census,
    enumerate_orbifolds,
    enumerate_orbifolds_via_harvey,
    epi_nonvanishing,
    harvey_admissible,
    rh_gamma,
)
from .subgroups import (
    free_group_conjugacy_classes,
    free_group_subgroups,
    transitive_pair_counts,
)

__version__ = "0.1.0"

__all__ = [
    "CensusResult",
    "E_bruteforce",
    "E_closed",
    "E_local",
    "LocalProfile",
    "OrbifoldSignature",
    "PeriodTuple",
    "census",
    "count_congruence_solutions",
    "count_epi",
    "dart_pair_oracle",
    "divisors",
    "enumerate_nonvanishing_triples",
    "enumerate_orbifolds",
    "enumerate_orbifolds_via_harvey",
    "epi_nonvanishing",
    "equals_phi_classification",
    "euler_phi",
    "f_r",
    "factorize",
    "free_group_conjugacy_classes",
    "free_group_subgroups",
    "h_poly",
    "harvey_admissible",
    "is_prime",
    "jordan_phi",
    "local_profile",
    "mobius",
    "periodic_average",
    "planar_rooted_count",
    "ramanujan_sum",
    "rh_gamma",
    "rooted_map_count",
    "theta",
    "transitive_pair_counts",
    "vanishes",
    "von_sterneck",
]
