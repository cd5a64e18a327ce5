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
import sys
from dataclasses import dataclass
from typing import Callable

from .arith import jordan_phi
from .congruence import count_congruence_solutions
from .epi import count_epi
from .mapcount import dart_pair_oracle, theta
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
)
from .subgroups import (
    free_group_conjugacy_classes,
    free_group_subgroups,
    transitive_pair_counts,
)

RECORD_KINDS = frozenset(
    {
        "e_value",
        "epi_count",
        "orbifold_list",
        "census",
        "theta",
        "subgroup_count",
        "oracle_check",
    }
)


@dataclass(frozen=True)
class OutputRecord:
    """One structured result; counts live in the payload as decimal strings."""

    kind: str
    payload: dict

    def __post_init__(self):
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {self.kind!r}")

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "payload": self.payload}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "OutputRecord":
        data = json.loads(text)
        return cls(kind=data["kind"], payload=data["payload"])


def _check_record(oracle: str, expected, observed, detail: str = "") -> OutputRecord:
    payload = {
        "oracle": oracle,
        "expected": str(expected),
        "observed": str(observed),
        "passed": str(expected) == str(observed),
    }
    if detail:
        payload["detail"] = detail
    return OutputRecord("oracle_check", payload)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _period_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad period {token!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(f"periods must be >= 1, got {value}")
        values.append(value)
    return tuple(values)


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


def _sig_entry(ell: int, sig: OrbifoldSignature) -> dict:
    return {"ell": ell, "g": sig.g, "periods": list(sig.periods)}


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (primary record, check records).


def _handle_e(args, parser) -> tuple[OutputRecord, list[OutputRecord]]:
    periods = _drop_unit_periods(args.periods)
    t = PeriodTuple(periods)
    value = E_closed(t)
    record = OutputRecord(
        "e_value",
        {
            "periods": list(args.periods),
            "reduced": list(t.values),
            "value": str(value),
        },
    )
    checks = []
    if args.brute or args.check:
        checks.append(_check_record("brute_force", value, E_bruteforce(t)))
    if args.congruence is not None:
        observed = count_congruence_solutions(args.congruence, t)
        checks.append(
            _check_record(f"congruence(M={args.congruence})", value, observed)
        )
    return record, checks


def _handle_epi(args, parser) -> tuple[OutputRecord, list[OutputRecord]]:
    periods = _drop_unit_periods(args.periods)
    sig = OrbifoldSignature(args.genus, periods)
    value = count_epi(sig, args.order)
    record = OutputRecord(
        "epi_count",
        {
            "genus": args.genus,
            "order": args.order,
            "periods": list(sig.periods),
            "value": str(value),
        },
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
        checks.append(_check_record("brute_force", value, observed))
    return record, checks


def _orbifold_entries(gamma: int, ells) -> list[tuple[int, OrbifoldSignature]]:
    return [(ell, sig) for ell in ells for sig in enumerate_orbifolds(gamma, ell)]


def _dual_route_check(gamma: int, ells) -> OutputRecord:
    expected = _orbifold_entries(gamma, ells)
    observed = [
        (ell, sig)
        for ell in ells
        for sig in enumerate_orbifolds_via_harvey(gamma, ell)
    ]
    detail = ""
    if expected != observed:
        only_e = [f"{ell}:{sig}" for ell, sig in expected if (ell, sig) not in observed]
        only_h = [f"{ell}:{sig}" for ell, sig in observed if (ell, sig) not in expected]
        detail = f"epi-only={only_e} harvey-only={only_h}"
    return _check_record(
        "harvey_route",
        [f"{ell}:{sig}" for ell, sig in expected],
        [f"{ell}:{sig}" for ell, sig in observed],
        detail,
    )


def _handle_orbifolds(args, parser) -> tuple[OutputRecord, list[OutputRecord]]:
    if args.order is None:
        if args.gamma < 2:
            parser.error(
                "--order is required for --gamma 0 or 1 "
                "(the orbifold family is infinite in the order)"
            )
        ells = range(1, 4 * args.gamma + 3)
    else:
        ells = [args.order]
    entries = _orbifold_entries(args.gamma, ells)
    record = OutputRecord(
        "orbifold_list",
        {
            "gamma": args.gamma,
            "order": args.order,
            "count": str(len(entries)),
            "signatures": [_sig_entry(ell, sig) for ell, sig in entries],
        },
    )
    checks = []
    if args.check:
        checks.append(_dual_route_check(args.gamma, ells))
    return record, checks


def _handle_census(args, parser) -> tuple[OutputRecord, list[OutputRecord]]:
    result = census(args.gamma)
    record = OutputRecord(
        "census",
        {
            "gamma": result.gamma,
            "a": str(result.a),
            "a_distinct": str(result.a_distinct),
            "a_by_g": {str(g): str(n) for g, n in sorted(result.a_by_g.items())},
            "orbifolds": [_sig_entry(ell, sig) for ell, sig in result.orbifolds],
        },
    )
    checks = []
    if args.check:
        checks.append(
            _dual_route_check(args.gamma, range(1, 4 * args.gamma + 3))
        )
    return record, checks


def _handle_theta(args, parser) -> tuple[OutputRecord, list[OutputRecord]]:
    value = theta(args.gamma, args.edges)
    record = OutputRecord(
        "theta",
        {
            "gamma": args.gamma,
            "edges": args.edges,
            "value": str(value),
            # Fixed schema field: the record once named the rooted-map table
            # it used; kept verbatim so existing consumers parse it unchanged.
            "table": "packaged default",
        },
    )
    checks = []
    if args.check:
        dual = theta(args.gamma, args.edges, enumerator=enumerate_orbifolds_via_harvey)
        checks.append(_check_record("harvey_route", value, dual))
        if args.edges <= 3:
            _, unrooted = dart_pair_oracle(args.gamma, args.edges)
            checks.append(_check_record("dart_pair_oracle", value, unrooted))
    return record, checks


def _handle_freegroup(args, parser) -> tuple[OutputRecord, list[OutputRecord]]:
    subgroups = free_group_subgroups(args.rank, args.index)
    classes = free_group_conjugacy_classes(args.rank, args.index)
    record = OutputRecord(
        "subgroup_count",
        {
            "rank": args.rank,
            "index": args.index,
            "subgroups": str(subgroups),
            "conjugacy_classes": str(classes),
        },
    )
    checks = []
    if args.check:
        brute_subs, brute_classes = transitive_pair_counts(args.rank, args.index)
        checks.append(
            _check_record(
                "transitive_pairs",
                f"{subgroups}/{classes}",
                f"{brute_subs}/{brute_classes}",
            )
        )
    return record, checks


def _handle_triples(args, parser) -> tuple[OutputRecord, list[OutputRecord]]:
    triples = enumerate_nonvanishing_triples(args.lcm)
    record = OutputRecord(
        "e_value",
        {
            "lcm": args.lcm,
            "count": str(len(triples)),
            "triples": [
                {"periods": list(t), "value": str(E_closed(t))} for t in triples
            ],
        },
    )
    checks = []
    if args.check:
        import math
        from itertools import product as _product

        from .arith import divisors

        divs = divisors(args.lcm)
        scan = sorted(
            combo
            for combo in _product(divs, repeat=3)
            if math.lcm(*combo) == args.lcm and E_closed(combo) != 0
        )
        checks.append(_check_record("exhaustive_scan", list(triples), scan))
    return record, checks


# ---------------------------------------------------------------------------
# Rendering.


def _render_json(record: OutputRecord) -> str:
    return record.to_json()


def _render_csv(record: OutputRecord) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    payload = record.payload
    if record.kind == "e_value" and "triples" in payload:
        writer.writerow(["m1", "m2", "m3", "value"])
        for item in payload["triples"]:
            writer.writerow(item["periods"] + [item["value"]])
    elif record.kind == "e_value":
        writer.writerow(["periods", "value"])
        writer.writerow(
            [" ".join(str(m) for m in payload["periods"]), payload["value"]]
        )
    elif record.kind == "epi_count":
        writer.writerow(["genus", "order", "periods", "value"])
        writer.writerow(
            [
                payload["genus"],
                payload["order"],
                " ".join(str(m) for m in payload["periods"]),
                payload["value"],
            ]
        )
    elif record.kind == "orbifold_list":
        writer.writerow(["ell", "g", "periods"])
        for entry in payload["signatures"]:
            writer.writerow(
                [
                    entry["ell"],
                    entry["g"],
                    " ".join(str(m) for m in entry["periods"]),
                ]
            )
    elif record.kind == "census":
        writer.writerow(["gamma", "quotient_genus", "count"])
        for g, count in sorted(payload["a_by_g"].items(), key=lambda kv: int(kv[0])):
            writer.writerow([payload["gamma"], g, count])
        writer.writerow([payload["gamma"], "all", payload["a"]])
        writer.writerow([payload["gamma"], "distinct", payload["a_distinct"]])
    elif record.kind == "theta":
        writer.writerow(["genus", "edges", "count"])
        writer.writerow([payload["gamma"], payload["edges"], payload["value"]])
    elif record.kind == "subgroup_count":
        writer.writerow(["rank", "index", "subgroups", "conjugacy_classes"])
        writer.writerow(
            [
                payload["rank"],
                payload["index"],
                payload["subgroups"],
                payload["conjugacy_classes"],
            ]
        )
    else:
        writer.writerow(["oracle", "passed", "expected", "observed"])
        writer.writerow(
            [
                payload["oracle"],
                payload["passed"],
                payload["expected"],
                payload["observed"],
            ]
        )
    return buf.getvalue().rstrip("\n")


def _format_sig(entry: dict) -> str:
    inner = ",".join(str(m) for m in entry["periods"]) if entry["periods"] else "-"
    return f"({entry['g']};{inner})"


def _render_table(record: OutputRecord) -> str:
    payload = record.payload
    if record.kind == "e_value" and "triples" in payload:
        lines = [
            f"({', '.join(str(m) for m in item['periods'])})  E = {item['value']}"
            for item in payload["triples"]
        ]
        lines.append(f"nonvanishing triples with lcm {payload['lcm']}: {payload['count']}")
        return "\n".join(lines)
    if record.kind == "e_value":
        shown = ", ".join(str(m) for m in payload["periods"])
        return f"E({shown}) = {payload['value']}"
    if record.kind == "epi_count":
        sig = _format_sig({"g": payload["genus"], "periods": payload["periods"]})
        return f"epimorphisms {sig} -> Z_{payload['order']}: {payload['value']}"
    if record.kind == "orbifold_list":
        lines = [
            f"ell={entry['ell']:<3d} {_format_sig(entry)}"
            for entry in payload["signatures"]
        ]
        lines.append(f"count: {payload['count']}")
        return "\n".join(lines)
    if record.kind == "census":
        gamma = payload["gamma"]
        lines = [f"A({gamma}) = {payload['a']}"]
        for g, count in sorted(payload["a_by_g"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"A_{g}({gamma}) = {count}")
        lines.append(f"distinct signatures: {payload['a_distinct']}")
        return "\n".join(lines)
    if record.kind == "theta":
        return (
            f"maps with {payload['edges']} edges on genus {payload['gamma']}: "
            f"{payload['value']}"
        )
    if record.kind == "subgroup_count":
        return (
            f"F_{payload['rank']} index {payload['index']}: "
            f"{payload['subgroups']} subgroups, "
            f"{payload['conjugacy_classes']} conjugacy classes"
        )
    status = "ok" if payload["passed"] else "MISMATCH"
    line = f"check[{payload['oracle']}]: {status}"
    if not payload["passed"]:
        line += f" expected={payload['expected']} observed={payload['observed']}"
        if payload.get("detail"):
            line += f" ({payload['detail']})"
    return line


_RENDERERS: dict[str, Callable[[OutputRecord], str]] = {
    "table": _render_table,
    "json": _render_json,
    "csv": _render_csv,
}


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
    p.add_argument("periods", nargs="*", type=_positive_int, metavar="m")
    p.add_argument("--brute", action="store_true", help="cross-check by brute force")
    p.add_argument(
        "--congruence",
        type=_positive_int,
        metavar="M",
        help="cross-check by counting congruence solutions modulo M",
    )
    p.set_defaults(func=_handle_e)

    p = sub.add_parser("epi", parents=[common], help="epimorphism count")
    p.add_argument("--genus", type=_nonnegative_int, required=True)
    p.add_argument("--order", type=_positive_int, required=True)
    p.add_argument("--periods", type=_period_list, default=())
    p.set_defaults(func=_handle_epi)

    p = sub.add_parser("orbifolds", parents=[common], help="admissible orbifolds")
    p.add_argument("--gamma", type=_nonnegative_int, required=True)
    p.add_argument("--order", type=_positive_int)
    p.set_defaults(func=_handle_orbifolds)

    p = sub.add_parser("census", parents=[common], help="orbifold census A(gamma)")
    p.add_argument("--gamma", type=_nonnegative_int, required=True)
    p.set_defaults(func=_handle_census)

    p = sub.add_parser("theta", parents=[common], help="unrooted map count")
    p.add_argument("--gamma", type=_nonnegative_int, required=True)
    p.add_argument("--edges", type=_positive_int, required=True)
    p.set_defaults(func=_handle_theta)

    p = sub.add_parser("freegroup", parents=[common], help="free-group subgroups")
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--index", type=_positive_int, required=True)
    p.set_defaults(func=_handle_freegroup)

    p = sub.add_parser("triples", parents=[common], help="nonvanishing triples")
    p.add_argument("--lcm", type=_positive_int, required=True)
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
        record, checks = args.func(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(_RENDERERS[fmt](record))
    failed = False
    for check in checks:
        print(_render_table(check), file=sys.stderr)
        if not check.payload["passed"]:
            failed = True
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
