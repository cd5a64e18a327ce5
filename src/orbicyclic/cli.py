"""Command-line interface.

One subcommand per library area, each declared once in COMMANDS; every
invocation prints exactly one record on stdout in the requested --format
(table, json, or csv).  A handler only computes and renders: it returns
(kind, payload, table_lines, csv_rows, checks), the json record's kind and
payload (counts as decimal strings), the table text's lines, the csv rows
(header first) and its checks as (oracle, thunk) pairs.  main renders the
requested format, then calls each thunk for (expected, observed[, detail]),
a pass when str(expected) == str(observed).  --check (on e, also --brute)
reruns the result through an independent oracle and reports to stderr: a
mismatch exits 3 and leaves the record on stdout, and an oracle refused by
its own guard reports skipped, with the guard's message.  A reader that
closes stdout early gets no traceback: the verdicts and exit code stand.

Exit codes: 0 ok (every check passed or skipped), 1 a value outside the
command's domain or past its own guard (the library's message), 2 an argv
that does not parse, 3 failed check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .arith import GuardError, divisors
from .congruence import count_congruence_solutions
from .epi import count_epi
from .mapcount import dart_pair_oracle, theta
from .orbicyclic import (
    E_bruteforce,
    E_closed,
    PeriodTuple,
    _nonvanishing_triples_by_scan,
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


def _period_list(text: str) -> tuple[int, ...]:
    periods = []
    for token in text.split(",") if text else ():
        try:
            periods.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {token!r}")
    return tuple(periods)


def _drop_unit_periods(periods) -> PeriodTuple:
    """Remove periods equal to 1 (they never change a count), with a notice."""
    kept = PeriodTuple(periods).reduced()
    dropped = len(periods) - len(kept)
    if dropped:
        print(
            f"notice: dropped {dropped} period(s) equal to 1",
            file=sys.stderr,
        )
    return kept


def _orbifold_forms(entries) -> tuple[list[dict], list[str], list[list]]:
    """The json, table and csv forms of (ell, signature) pairs."""
    return (
        [
            {"ell": ell, "g": sig.g, "periods": list(sig.periods)}
            for ell, sig in entries
        ],
        [f"ell={ell:<3d} {sig}" for ell, sig in entries],
        [[ell, sig.g, " ".join(map(str, sig.periods))] for ell, sig in entries],
    )


# ---------------------------------------------------------------------------
# Subcommand handlers; a check's thunk looks its oracle up when main calls it.


def _handle_e(args):
    t = _drop_unit_periods(args.periods)
    value = E_closed(t)
    payload = {"periods": list(args.periods), "reduced": list(t), "value": str(value)}
    lines = [f"E({', '.join(str(m) for m in args.periods)}) = {value}"]
    rows = [["periods", "value"], [" ".join(map(str, args.periods)), value]]
    checks = [("brute_force", lambda: (value, E_bruteforce(t)))] if args.check else []
    if args.congruence is not None:  # a check of its own, with or without --check
        count = lambda: (value, count_congruence_solutions(args.congruence, t))
        checks.append((f"congruence(M={args.congruence})", count))
    return "e_value", payload, lines, rows, checks


def _handle_epi(args):
    sig = OrbifoldSignature(args.genus, _drop_unit_periods(args.periods))
    value = count_epi(sig, args.order)
    payload = {
        "genus": args.genus,
        "order": args.order,
        "periods": list(sig.periods),
        "value": str(value),
    }
    lines = [f"epimorphisms {sig} -> Z_{args.order}: {value}"]
    rows = [
        ["genus", "order", "periods", "value"],
        [args.genus, args.order, " ".join(map(str, sig.periods)), value],
    ]
    brute = lambda: (E_closed(sig.periods), E_bruteforce(sig.periods))
    checks = [("brute_force", brute)] if args.check else []  # count_epi's E factor
    return "epi_count", payload, lines, rows, checks


def _dual_route_check(gamma: int, ells, found) -> tuple:
    """The check comparing the epimorphism route's (ell, sig) pairs with Harvey's."""
    def compare():
        expected = [f"{ell}:{sig}" for ell, sig in found]
        observed = [
            f"{ell}:{sig}"
            for ell in ells
            for sig in enumerate_orbifolds_via_harvey(gamma, ell)
        ]
        only_e = [entry for entry in expected if entry not in observed]
        only_h = [entry for entry in observed if entry not in expected]
        return expected, observed, f"epi-only={only_e} harvey-only={only_h}"
    return "harvey_route", compare


def _handle_orbifolds(args):
    if args.order is None:
        ells = _wiman_range(args.gamma)
        entries = census(args.gamma).orbifolds
    else:
        ells = [args.order]
        entries = [(args.order, s) for s in enumerate_orbifolds(args.gamma, args.order)]
    signatures, lines, rows = _orbifold_forms(entries)
    lines.append(f"count: {len(entries)}")
    payload = {
        "gamma": args.gamma,
        "order": args.order,
        "count": str(len(entries)),
        "signatures": signatures,
    }
    checks = [_dual_route_check(args.gamma, ells, entries)] if args.check else []
    return "orbifold_list", payload, lines, [["ell", "g", "periods"]] + rows, checks


def _handle_census(args):
    result = census(args.gamma)
    gamma = result.gamma
    by_g = sorted(result.a_by_g.items())
    payload = {
        "gamma": gamma,
        "a": str(result.a),
        "a_distinct": str(result.a_distinct),
        "a_by_g": {str(g): str(n) for g, n in by_g},
        "orbifolds": _orbifold_forms(result.orbifolds)[0],
    }
    lines = (
        [f"A({gamma}) = {result.a}"]
        + [f"A_{g}({gamma}) = {n}" for g, n in by_g]
        + [f"distinct signatures: {result.a_distinct}"]
    )
    rows = (
        [["gamma", "quotient_genus", "count"]]
        + [[gamma, g, n] for g, n in by_g]
        + [[gamma, "all", result.a], [gamma, "distinct", result.a_distinct]]
    )
    ells = _wiman_range(gamma)
    checks = [_dual_route_check(gamma, ells, result.orbifolds)] if args.check else []
    return "census", payload, lines, rows, checks


def _handle_theta(args):
    value = theta(args.gamma, args.edges)
    payload = {
        "gamma": args.gamma,
        "edges": args.edges,
        "value": str(value),
        # Fixed schema field: the record once named the rooted-map table
        # it used; kept verbatim so existing consumers parse it unchanged.
        "table": "packaged default",
    }
    lines = [f"maps with {args.edges} edges on genus {args.gamma}: {value}"]
    rows = [["genus", "edges", "count"], [args.gamma, args.edges, value]]
    checks = []
    if args.check:  # found is a generator: both routes wait for main
        ells = divisors(2 * args.edges)
        found = ((ell, s) for ell in ells for s in enumerate_orbifolds(args.gamma, ell))
        darts = lambda: (value, dart_pair_oracle(args.gamma, args.edges)[1])
        route = _dual_route_check(args.gamma, ells, found)
        checks = [route, ("dart_pair_oracle", darts)]
    return "theta", payload, lines, rows, checks


def _handle_freegroup(args):
    subgroups = free_group_subgroups(args.rank, args.index)
    classes = free_group_conjugacy_classes(args.rank, args.index)
    payload = {
        "rank": args.rank,
        "index": args.index,
        "subgroups": str(subgroups),
        "conjugacy_classes": str(classes),
    }
    lines = [
        f"F_{args.rank} index {args.index}: "
        f"{subgroups} subgroups, {classes} conjugacy classes"
    ]
    rows = [
        ["rank", "index", "subgroups", "conjugacy_classes"],
        [args.rank, args.index, subgroups, classes],
    ]
    expected = f"{subgroups}/{classes}"
    scan = lambda: (expected, "%d/%d" % transitive_pair_counts(args.rank, args.index))
    checks = [("transitive_pairs", scan)] if args.check else []
    return "subgroup_count", payload, lines, rows, checks


def _handle_triples(args):
    triples = enumerate_nonvanishing_triples(args.lcm)
    valued = [(t, E_closed(t)) for t in triples]
    payload = {
        "lcm": args.lcm,
        "count": str(len(triples)),
        "triples": [{"periods": list(t), "value": str(v)} for t, v in valued],
    }
    lines = [f"{t}  E = {v}" for t, v in valued]
    lines.append(f"nonvanishing triples with lcm {args.lcm}: {len(triples)}")
    rows = [["m1", "m2", "m3", "value"]] + [[*t, v] for t, v in valued]
    scan = lambda: (triples, _nonvanishing_triples_by_scan(args.lcm))
    checks = [("exhaustive_scan", scan)] if args.check else []
    return "e_value", payload, lines, rows, checks


# ---------------------------------------------------------------------------
# Parser assembly.  Each subcommand is declared once: its help text, its
# handler, and the names of its required integer options.

COMMANDS = {
    "e": ("orbicyclic function E", _handle_e, ()),
    "epi": ("epimorphism count", _handle_epi, ("genus", "order")),
    "orbifolds": ("admissible orbifolds", _handle_orbifolds, ("gamma",)),
    "census": ("orbifold census A(gamma)", _handle_census, ("gamma",)),
    "theta": ("unrooted map count", _handle_theta, ("gamma", "edges")),
    "freegroup": ("free-group subgroups", _handle_freegroup, ("rank", "index")),
    "triples": ("nonvanishing triples", _handle_triples, ("lcm",)),
}


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
    subparsers = {}
    for name, (help_text, _, required) in COMMANDS.items():
        p = subparsers[name] = sub.add_parser(name, parents=[common], help=help_text)
        for option in required:
            p.add_argument(f"--{option}", type=int, required=True)

    p = subparsers["e"]
    p.add_argument("periods", nargs="*", type=int, metavar="m")
    # An alias of --check; SUPPRESS keeps it from overwriting a top-level --check.
    p.add_argument(
        "--brute",
        action="store_true",
        dest="check",
        default=argparse.SUPPRESS,
        help="cross-check by brute force",
    )
    p.add_argument(
        "--congruence",
        type=int,
        metavar="M",
        help="cross-check by counting congruence solutions modulo M",
    )
    subparsers["epi"].add_argument("--periods", type=_period_list, default=())
    subparsers["orbifolds"].add_argument("--order", type=int)
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
        kind, payload, lines, rows, checks = COMMANDS[args.command][1](args)
        if fmt == "json":
            text = json.dumps({"kind": kind, "payload": payload}, sort_keys=True)
        elif fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            text = buf.getvalue().rstrip("\n")
        else:
            text = "\n".join(lines)
        verdicts = []
        for oracle, thunk in checks:
            try:
                expected, observed, *detail = thunk()
            except GuardError as exc:  # refused by the oracle's own guard
                verdict = f"skipped ({exc})"
            else:
                verdict = "ok"
                if str(expected) != str(observed):
                    verdict = f"MISMATCH expected={expected} observed={observed}"
                    verdict += "".join(f" ({d})" for d in detail)
            verdicts.append((oracle, verdict))
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        print(text, flush=True)
    except BrokenPipeError:  # stdout now writes to devnull, so the final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    for oracle, verdict in verdicts:
        print(f"check[{oracle}]: {verdict}", file=sys.stderr)
    return 3 if any(v.startswith("MISMATCH") for _, v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
