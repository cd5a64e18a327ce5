"""Command-line interface.

One subcommand per library area; every invocation prints exactly one
record on stdout in the requested --format (table, json, or csv).
--check reruns the result through an independent route (brute force,
Harvey's conditions, exhaustive scans) and reports to stderr; a
mismatch flips the exit code to 3 without touching the primary output.

Exit codes: 0 ok, 1 domain or guard error, 2 usage error, 3 failed check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from itertools import product
from typing import Callable

from .arith import divisors, jordan_phi
from .congruence import count_congruence_solutions
from .epi import count_epi
from .mapcount import DART_PAIR_GUARD, dart_pair_oracle, theta
from .orbicyclic import (
    E_bruteforce,
    E_closed,
    PeriodTuple,
    enumerate_nonvanishing_triples,
)
from .orbifold import (
    OrbifoldSignature,
    census,
    enumerate_orbifolds,
    enumerate_orbifolds_via_harvey,
    _wiman_range,
)
from .subgroups import (
    free_group_conjugacy_classes,
    free_group_subgroups,
    transitive_pair_counts,
)

# Python's default int-to-str limit, which bounds every count the CLI prints.
PRINT_DIGITS = 4300


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _period_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    parse = _int_at_least(1)
    return tuple(parse(token) for token in text.split(","))


def _drop_unit_periods(periods) -> tuple[int, ...]:
    """Remove periods equal to 1 (they never change a count), with a notice."""
    kept = tuple(m for m in periods if m > 1)
    dropped = len(periods) - len(kept)
    if dropped:
        print(
            f"notice: dropped {dropped} period(s) equal to 1",
            file=sys.stderr,
        )
    return kept


def _shapes(kind: str, payload: dict, table: str, rows: list[list]) -> dict[str, str]:
    """One result in every --format (json record, table text, csv rows), by name.

    Counts live in the json payload as decimal strings.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return {
        "json": json.dumps({"kind": kind, "payload": payload}, sort_keys=True),
        "table": table,
        "csv": buf.getvalue().rstrip("\n"),
    }


def _orbifold_json(entries) -> list[dict]:
    """The json form of (ell, signature) pairs, shared by orbifolds and census."""
    return [
        {"ell": ell, "g": sig.g, "periods": list(sig.periods)} for ell, sig in entries
    ]


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns its result in every output format and
# its checks as (oracle, expected, observed[, detail]) tuples; a check
# passes when str(expected) == str(observed).

Handled = tuple[dict[str, str], list[tuple]]


def _handle_e(args, parser) -> Handled:
    periods = _drop_unit_periods(args.periods)
    t = PeriodTuple(periods)
    value = E_closed(t)
    shapes = _shapes(
        "e_value",
        {
            "periods": list(args.periods),
            "reduced": list(t),
            "value": str(value),
        },
        f"E({', '.join(str(m) for m in args.periods)}) = {value}",
        [["periods", "value"], [" ".join(map(str, args.periods)), value]],
    )
    checks = []
    if args.brute or args.check:
        checks.append(("brute_force", value, E_bruteforce(t)))
    if args.congruence is not None:
        observed = count_congruence_solutions(args.congruence, t)
        checks.append((f"congruence(M={args.congruence})", value, observed))
    return shapes, checks


def _handle_epi(args, parser) -> Handled:
    periods = _drop_unit_periods(args.periods)
    # The count is at most order^(2*genus) * prod(periods); genus stays an int.
    room = PRINT_DIGITS - sum(map(math.log10, periods))
    if args.order > 1 and args.genus >= room / (2 * math.log10(args.order)):
        raise ValueError(f"the count may exceed the {PRINT_DIGITS}-digit print limit")
    sig = OrbifoldSignature(args.genus, periods)
    value = count_epi(sig, args.order)
    shapes = _shapes(
        "epi_count",
        {
            "genus": args.genus,
            "order": args.order,
            "periods": list(sig.periods),
            "value": str(value),
        },
        f"epimorphisms {sig} -> Z_{args.order}: {value}",
        [
            ["genus", "order", "periods", "value"],
            [args.genus, args.order, " ".join(map(str, sig.periods)), value],
        ],
    )
    checks = []
    if args.check:
        m = sig.m
        if args.order % m == 0:
            observed = (
                m ** (2 * sig.g)
                * jordan_phi(2 * sig.g, args.order // m)
                * E_bruteforce(PeriodTuple(sig.periods))
            )
        else:
            observed = 0
        checks.append(("brute_force", value, observed))
    return shapes, checks


def _dual_route_check(gamma: int, ells, found) -> tuple:
    """Compare the epimorphism route's orbifolds with Harvey's route."""
    expected = [f"{ell}:{sig}" for ell, sig in found]
    observed = [
        f"{ell}:{sig}"
        for ell in ells
        for sig in enumerate_orbifolds_via_harvey(gamma, ell)
    ]
    only_e = [entry for entry in expected if entry not in observed]
    only_h = [entry for entry in observed if entry not in expected]
    return "harvey_route", expected, observed, f"epi-only={only_e} harvey-only={only_h}"


def _handle_orbifolds(args, parser) -> Handled:
    if args.order is None:
        if args.gamma < 2:
            parser.error(
                "--order is required for --gamma 0 or 1 "
                "(the orbifold family is infinite in the order)"
            )
        ells = _wiman_range(args.gamma)
        entries = census(args.gamma).orbifolds
    else:
        ells = [args.order]
        entries = [
            (args.order, sig) for sig in enumerate_orbifolds(args.gamma, args.order)
        ]
    shapes = _shapes(
        "orbifold_list",
        {
            "gamma": args.gamma,
            "order": args.order,
            "count": str(len(entries)),
            "signatures": _orbifold_json(entries),
        },
        "\n".join(
            [f"ell={ell:<3d} {sig}" for ell, sig in entries]
            + [f"count: {len(entries)}"]
        ),
        [["ell", "g", "periods"]]
        + [[ell, sig.g, " ".join(map(str, sig.periods))] for ell, sig in entries],
    )
    checks = [_dual_route_check(args.gamma, ells, entries)] if args.check else []
    return shapes, checks


def _handle_census(args, parser) -> Handled:
    result = census(args.gamma)
    gamma = result.gamma
    by_g = sorted(result.a_by_g.items())
    shapes = _shapes(
        "census",
        {
            "gamma": gamma,
            "a": str(result.a),
            "a_distinct": str(result.a_distinct),
            "a_by_g": {str(g): str(n) for g, n in by_g},
            "orbifolds": _orbifold_json(result.orbifolds),
        },
        "\n".join(
            [f"A({gamma}) = {result.a}"]
            + [f"A_{g}({gamma}) = {n}" for g, n in by_g]
            + [f"distinct signatures: {result.a_distinct}"]
        ),
        [["gamma", "quotient_genus", "count"]]
        + [[gamma, g, n] for g, n in by_g]
        + [[gamma, "all", result.a], [gamma, "distinct", result.a_distinct]],
    )
    checks = []
    if args.check:
        checks.append(_dual_route_check(gamma, _wiman_range(gamma), result.orbifolds))
    return shapes, checks


def _handle_theta(args, parser) -> Handled:
    value = theta(args.gamma, args.edges)
    shapes = _shapes(
        "theta",
        {
            "gamma": args.gamma,
            "edges": args.edges,
            "value": str(value),
            # Fixed schema field: the record once named the rooted-map table
            # it used; kept verbatim so existing consumers parse it unchanged.
            "table": "packaged default",
        },
        f"maps with {args.edges} edges on genus {args.gamma}: {value}",
        [["genus", "edges", "count"], [args.gamma, args.edges, value]],
    )
    checks = []
    if args.check:
        dual = theta(args.gamma, args.edges, enumerator=enumerate_orbifolds_via_harvey)
        checks.append(("harvey_route", value, dual))
        if args.edges <= DART_PAIR_GUARD:
            _, unrooted = dart_pair_oracle(args.gamma, args.edges)
            checks.append(("dart_pair_oracle", value, unrooted))
    return shapes, checks


def _handle_freegroup(args, parser) -> Handled:
    subgroups = free_group_subgroups(args.rank, args.index)
    classes = free_group_conjugacy_classes(args.rank, args.index)
    shapes = _shapes(
        "subgroup_count",
        {
            "rank": args.rank,
            "index": args.index,
            "subgroups": str(subgroups),
            "conjugacy_classes": str(classes),
        },
        f"F_{args.rank} index {args.index}: "
        f"{subgroups} subgroups, {classes} conjugacy classes",
        [
            ["rank", "index", "subgroups", "conjugacy_classes"],
            [args.rank, args.index, subgroups, classes],
        ],
    )
    checks = []
    if args.check:
        brute_subs, brute_classes = transitive_pair_counts(args.rank, args.index)
        expected = f"{subgroups}/{classes}"
        checks.append(("transitive_pairs", expected, f"{brute_subs}/{brute_classes}"))
    return shapes, checks


def _handle_triples(args, parser) -> Handled:
    triples = enumerate_nonvanishing_triples(args.lcm)
    valued = [(t, E_closed(t)) for t in triples]
    shapes = _shapes(
        "e_value",
        {
            "lcm": args.lcm,
            "count": str(len(triples)),
            "triples": [{"periods": list(t), "value": str(v)} for t, v in valued],
        },
        "\n".join(
            [f"{t}  E = {v}" for t, v in valued]
            + [f"nonvanishing triples with lcm {args.lcm}: {len(triples)}"]
        ),
        [["m1", "m2", "m3", "value"]] + [[*t, v] for t, v in valued],
    )
    checks = []
    if args.check:
        scan = sorted(
            combo
            for combo in product(divisors(args.lcm), repeat=3)
            if math.lcm(*combo) == args.lcm and E_closed(combo) != 0
        )
        checks.append(("exhaustive_scan", list(triples), scan))
    return shapes, checks


# ---------------------------------------------------------------------------
# Parser assembly.


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default=argparse.SUPPRESS,
        help="output format (default: table)",
    )
    common.add_argument(
        "--check",
        action="store_true",
        default=argparse.SUPPRESS,
        help="rerun the result through an independent oracle; exit 3 on mismatch",
    )

    parser = argparse.ArgumentParser(
        prog="orbicyclic",
        parents=[common],
        description="Exact counts for cyclic symmetries: the orbicyclic "
        "function E, cyclic orbifolds, epimorphisms, unrooted maps, and "
        "free-group subgroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("e", parents=[common], help="orbicyclic function E")
    p.add_argument("periods", nargs="*", type=_int_at_least(1), metavar="m")
    p.add_argument("--brute", action="store_true", help="cross-check by brute force")
    p.add_argument(
        "--congruence",
        type=_int_at_least(1),
        metavar="M",
        help="cross-check by counting congruence solutions modulo M",
    )
    p.set_defaults(func=_handle_e)

    p = sub.add_parser("epi", parents=[common], help="epimorphism count")
    p.add_argument("--genus", type=_int_at_least(0), required=True)
    p.add_argument("--order", type=_int_at_least(1), required=True)
    p.add_argument("--periods", type=_period_list, default=())
    p.set_defaults(func=_handle_epi)

    p = sub.add_parser("orbifolds", parents=[common], help="admissible orbifolds")
    p.add_argument("--gamma", type=_int_at_least(0), required=True)
    p.add_argument("--order", type=_int_at_least(1))
    p.set_defaults(func=_handle_orbifolds)

    p = sub.add_parser("census", parents=[common], help="orbifold census A(gamma)")
    p.add_argument("--gamma", type=_int_at_least(0), required=True)
    p.set_defaults(func=_handle_census)

    p = sub.add_parser("theta", parents=[common], help="unrooted map count")
    p.add_argument("--gamma", type=_int_at_least(0), required=True)
    p.add_argument("--edges", type=_int_at_least(1), required=True)
    p.set_defaults(func=_handle_theta)

    p = sub.add_parser("freegroup", parents=[common], help="free-group subgroups")
    p.add_argument("--rank", type=_int_at_least(1), required=True)
    p.add_argument("--index", type=_int_at_least(1), required=True)
    p.set_defaults(func=_handle_freegroup)

    p = sub.add_parser("triples", parents=[common], help="nonvanishing triples")
    p.add_argument("--lcm", type=_int_at_least(1), required=True)
    p.set_defaults(func=_handle_triples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    fmt = getattr(args, "format", "table")
    args.check = getattr(args, "check", False)

    try:
        shapes, checks = args.func(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(shapes[fmt])
    failed = False
    for oracle, expected, observed, *detail in checks:
        line = f"check[{oracle}]: ok"
        if str(expected) != str(observed):
            failed = True
            line = f"check[{oracle}]: MISMATCH expected={expected} observed={observed}"
            if detail:
                line += f" ({detail[0]})"
        print(line, file=sys.stderr)
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
