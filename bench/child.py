"""Execute one op list in a fresh interpreter and report per-op results.

Usage: python3 bench/child.py OPS_JSON_FILE TRACE(0|1)

Runs each op once, in order, with its oracle check, and prints one JSON
object on stdout: per-op digest, check outcome and wall time, the
calibration slices timed between ops (see calib.py), and with TRACE=1 the
tracer's per-function summary.  The op
list is never replayed inside this process, so a cache in the library
sees only the reuse that the list itself contains.

The library must be importable (the parent puts its ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from time import perf_counter

# Every library call goes through the package namespace at call time, so
# the traced run's rebinding (tracer.install) reaches the calls made here.
import orbicyclic as lib

import calib
import tracer

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _p_parts(t: list[int], p: int) -> list[int]:
    parts = []
    for m in t:
        q = 1
        while m % p == 0:
            m //= p
            q *= p
        parts.append(q)
    return parts


def op_triangle(m, t):
    a = lib.E_closed(t)
    b = lib.E_bruteforce(t)
    c = lib.count_congruence_solutions(m, t)
    return a, a == b == c


def op_brute(t):
    a = lib.E_bruteforce(t)
    return a, a == lib.E_closed(t)


def op_long(t):
    """E, vanishing and f_r on a long tuple; E checked prime by prime by brute force.

    E is semi-multiplicative: E(t) is the product over p | lcm of E on the
    tuple of p-parts, and each p-part tuple has a small lcm.
    """
    value = lib.E_closed(t)
    m = math.lcm(*t)
    r = len(t)
    fr = lib.f_r(m, r)
    by_primes = 1
    rest = m
    for p in _SMALL_PRIMES:
        if rest % p == 0:
            by_primes *= lib.E_bruteforce(_p_parts(t, p))
            while rest % p == 0:
                rest //= p
    ok = (
        rest == 1
        and value == by_primes
        and lib.vanishes(t)[0] == (value == 0)
        and fr == lib.E_closed([m] * r)
    )
    return (value, fr), ok


def op_semiprime(n, p, q):
    fac = lib.factorize(n)
    expected = [(p, 2)] if p == q else [(p, 1), (q, 1)]
    return fac, fac == expected


def op_orbifolds(gamma, ell):
    found = lib.enumerate_orbifolds(gamma, ell)
    ok = found == lib.enumerate_orbifolds_via_harvey(gamma, ell)
    epis = [lib.count_epi(sig, ell) for sig in found]
    ok = ok and all(e > 0 for e in epis)
    return [(str(sig), e) for sig, e in zip(found, epis)], ok


def op_census(gamma):
    c = lib.census(gamma)
    result = (
        c.a,
        c.a_distinct,
        sorted(c.a_by_g.items()),
        [(ell, str(sig)) for ell, sig in c.orbifolds],
    )
    return result, c.a == len(c.orbifolds) == sum(c.a_by_g.values())


def op_theta(gamma, n):
    value = lib.theta(gamma, n)
    return value, value >= 0


def op_freegroup(rank, index):
    value = lib.free_group_conjugacy_classes(rank, index)
    return value, value >= 1


def op_dart(gamma, n):
    rooted, unrooted = lib.dart_pair_oracle(gamma, n)
    ok = rooted == lib.rooted_map_count(gamma, n) and unrooted == lib.theta(gamma, n)
    return (rooted, unrooted), ok


OPS = {
    "triangle": op_triangle,
    "brute": op_brute,
    "long": op_long,
    "semiprime": op_semiprime,
    "orbifolds": op_orbifolds,
    "census": op_census,
    "theta": op_theta,
    "freegroup": op_freegroup,
    "dart": op_dart,
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def peak_rss_kb() -> int:
    """This process's own peak RSS since exec (VmHWM).

    getrusage's ru_maxrss is not used: on Linux it also keeps the
    high-water mark of the parent that forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    ops_path, trace = argv[1], argv[2] == "1"
    with open(ops_path, encoding="utf-8") as handle:
        ops = json.load(handle)
    rec = None
    if trace:
        rec = tracer.Recorder()
        tracer.install(rec)
    digests, oks, errors, times = [], [], [], []
    slices = [calib.slice_seconds()]
    since_slice = 0.0
    for i, op in enumerate(ops):
        if rec is not None:
            rec.op_id = i
        start = perf_counter()
        try:
            value, ok = OPS[op[0]](*op[1:])
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            value, ok, error = None, False, f"{type(exc).__name__}: {exc}"[:300]
        elapsed = perf_counter() - start
        times.append(elapsed)
        digests.append(digest(value))
        oks.append(ok)
        errors.append(error)
        since_slice += elapsed
        if since_slice >= calib.SLICE_PERIOD_S:
            slices.append(calib.slice_seconds())
            since_slice = 0.0
    slices.append(calib.slice_seconds())
    out = {
        "digests": digests,
        "ok": oks,
        "errors": errors,
        "times": times,
        "slices": slices,
        "peak_rss_kb": peak_rss_kb(),
    }
    if rec is not None:
        out["trace"] = rec.summary()
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
