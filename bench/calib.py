"""Calibration slices: a fixed piece of interpreter work, timed.

The machine this benchmark was built on changes speed by up to 2x for
seconds to minutes at a time (shared cores), so raw wall times of the same
op list drift far more than any bound worth enforcing.  Every round
therefore times a few calibration slices alongside its ops, and the
benchmark reports its times scaled to a reference speed:

    scaled = raw * REFERENCE_SLICE_S / median(slice times of the round)

A change to the library does not touch this code, so parent and change
are scaled alike, and a gain or a regression in the library shows in full.
Raw times are kept in the workload record.
"""

from __future__ import annotations

import math
from time import perf_counter

# Median slice time on the baseline machine (2-core shared x86 VM,
# CPython 3.11).  Only the scale of the reported times depends on it.
REFERENCE_SLICE_S = 0.0045

# Seconds of op work between two slices inside a round.
SLICE_PERIOD_S = 0.2

_TABLE = list(range(997))


def slice_seconds() -> float:
    """Run one calibration slice and return its wall time.

    The slice mixes what the library does most: small-integer arithmetic,
    gcd, list indexing, tuple and dict building, and Python calls.
    """
    start = perf_counter()
    acc = 0
    for k in range(1, 10000):
        g = math.gcd(k, 720720)
        q, r = divmod(k * k + acc, 97)
        acc = (acc + g * _TABLE[k % 997] + len({k: r, q: g})) & 0xFFFF
    return perf_counter() - start


def factor(slices: list[float]) -> float:
    """Multiplier from raw to reference-speed times for one round."""
    ordered = sorted(slices)
    return REFERENCE_SLICE_S / ordered[len(ordered) // 2]
