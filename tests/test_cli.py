import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

import orbicyclic
from orbicyclic import cli
from orbicyclic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEValue:
    def test_table(self, capsys):
        code, out, err = run(capsys, "e", "12", "12")
        assert code == 0
        assert out == "E(12, 12) = 4\n"
        assert err == ""

    def test_empty_tuple(self, capsys):
        code, out, _ = run(capsys, "e")
        assert code == 0
        assert out == "E() = 1\n"

    def test_unit_period_notice(self, capsys):
        code, out, err = run(capsys, "e", "12", "12", "1")
        assert code == 0
        assert out == "E(12, 12, 1) = 4\n"
        assert "dropped 1 period(s) equal to 1" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "e", "10", "5", "2")
        assert code == 0
        record = json.loads(out)
        assert record == {
            "kind": "e_value",
            "payload": {"periods": [10, 5, 2], "reduced": [10, 5, 2], "value": "4"},
        }

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "e", "12", "12")
        assert out == "periods,value\n12 12,4\n"

    def test_format_flag_after_subcommand(self, capsys):
        _, before, _ = run(capsys, "--format", "csv", "e", "12", "12")
        _, after, _ = run(capsys, "e", "12", "12", "--format", "csv")
        assert before == after

    def test_brute_check_passes(self, capsys):
        code, out, err = run(capsys, "--check", "e", "4", "4", "3")
        assert code == 0
        assert out == "E(4, 4, 3) = 0\n"
        assert "check[brute_force]: ok" in err

    def test_congruence_check(self, capsys):
        code, _, err = run(capsys, "e", "12", "12", "--congruence", "24")
        assert code == 0
        assert "check[congruence(M=24)]: ok" in err

    def test_congruence_guard_fails_fast(self, capsys):
        # the count is refused by the oracle's own step guard, fast, and the
        # record it would have checked still goes out
        start = perf_counter()
        code, out, err = run(capsys, "e", "99991", "99991", "99991", "--congruence", "99991")
        assert perf_counter() - start < 1
        assert code == 0
        assert out == "E(99991, 99991, 99991) = 9997900110\n"
        assert err == (
            "check[congruence(M=99991)]: skipped (congruence steps (block 99991 takes "
            "2863677) 2863677 exceeds the guard 1000000)\n"
        )
        # the shape the guard refused before the count split M into blocks
        code, out, err = run(capsys, "e", "9973", "9973", "9973", "--congruence", "9973")
        assert code == 0
        assert out == "E(9973, 9973, 9973) = 99430812\n"
        assert err == "check[congruence(M=9973)]: ok\n"

    def test_congruence_guard_refuses_a_huge_block(self, capsys):
        # a block of order 2**700 is refused by the guard, not by a float
        # overflow, so the record still goes out and the check is skipped; the
        # refusal shows its 211-digit numbers by their digit count
        q, shown = str(2**700), "a 211-digit number"
        start = perf_counter()
        code, out, err = run(capsys, "e", q, q, "--congruence", q)
        assert perf_counter() - start < 1
        assert code == 0
        assert out == f"E({q}, {q}) = {2**699}\n"
        assert err == (
            f"check[congruence(M={q})]: skipped (congruence steps (block {shown} takes "
            f"{shown}) {shown} exceeds the guard 1000000)\n"
        )

    def test_congruence_past_a_million(self, capsys):
        # an e-wide-shaped long tuple: the count splits 2406725881560 into
        # prime-power blocks, none larger than 16
        periods = ("20224587240", "6077590610", "661188429", "194467185", "63399960", "2040885")
        start = perf_counter()
        code, out, err = run(capsys, "e", *periods, "--congruence", "2406725881560")
        assert perf_counter() - start < 1
        assert code == 0
        assert out == f"E({', '.join(periods)}) = 1523866321877667576805938601820160000\n"
        assert err == "check[congruence(M=2406725881560)]: ok\n"

    def test_miller_rabin_bound(self, capsys):
        psi_13, guard = "3317044064679887385961981", "3317044064679887385961980"
        code, out, err = run(capsys, "e", psi_13, psi_13)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: Miller-Rabin argument {psi_13} exceeds the guard {guard}\n"
        )
        # the same guard in a check's oracle skips the check, not the record:
        # the count is 0 without E, since the period does not divide 12
        code, out, err = run(
            capsys, "epi", "--check", "--genus", "0", "--order", "12", "--periods", psi_13
        )
        assert code == 0
        assert out == f"epimorphisms (0;{psi_13}) -> Z_12: 0\n"
        assert err == (
            f"check[brute_force]: skipped (Miller-Rabin argument {psi_13} exceeds "
            f"the guard {guard})\n"
        )


class TestEpi:
    def test_table(self, capsys):
        code, out, _ = run(
            capsys, "epi", "--genus", "0", "--order", "10", "--periods", "2,5,10"
        )
        assert code == 0
        assert out == "epimorphisms (0;2,5,10) -> Z_10: 4\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "epi", "--genus", "1", "--order", "2")
        assert json.loads(out)["payload"] == {
            "genus": 1,
            "order": 2,
            "periods": [],
            "value": "3",
        }

    def test_check(self, capsys):
        code, _, err = run(
            capsys,
            "--check",
            "epi",
            "--genus",
            "0",
            "--order",
            "10",
            "--periods",
            "2,5,10",
        )
        assert code == 0
        assert "check[brute_force]: ok" in err

    def test_check_mismatch_exits_3(self, capsys, monkeypatch):
        # the check compares count_epi's E factor with E's defining mean
        monkeypatch.setattr(cli, "E_bruteforce", lambda periods: -1)
        argv = ("--check", "epi", "--genus", "0", "--order", "10", "--periods", "2,5,10")
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "epimorphisms (0;2,5,10) -> Z_10: 4\n"
        assert err == "check[brute_force]: MISMATCH expected=4 observed=-1\n"

    def test_check_takes_the_mean_when_the_count_vanishes(self, capsys):
        # lcm 1000003 does not divide 12, so the count is 0 without E; the
        # check still takes E's mean, over the 2 gcd classes of 1000003
        argv = ("epi", "--genus", "0", "--order", "12", "--periods", "1000003")
        record = "epimorphisms (0;1000003) -> Z_12: 0\n"
        assert run(capsys, *argv) == (0, record, "")
        assert run(capsys, "--check", *argv) == (0, record, "check[brute_force]: ok\n")
        # e --check takes the same mean
        assert run(capsys, "--check", "e", "1000003") == (
            0,
            "E(1000003) = 0\n",
            "check[brute_force]: ok\n",
        )
        # the product of the first 17 primes has 2**17 gcd classes, which
        # pass the brute-force guard: the check is skipped, the count goes out
        lcm = "1922760350154212639070"
        argv = ("epi", "--genus", "0", "--order", "12", "--periods", lcm)
        skipped = (
            "check[brute_force]: skipped "
            "(brute-force steps 393216 exceeds the guard 262144)\n"
        )
        start = perf_counter()
        assert run(capsys, "--check", *argv) == (
            0,
            f"epimorphisms (0;{lcm}) -> Z_12: 0\n",
            skipped,
        )
        # e --check skips the same mean in the same words
        assert run(capsys, "--check", "e", lcm) == (0, f"E({lcm}) = 0\n", skipped)
        assert perf_counter() - start < 1

    def test_check_past_the_print_limit_is_skipped(self, capsys):
        # the count vanishes without E, and the check's E_closed is refused by
        # the print limit: a bound of the oracle's side, not of the count
        periods = ",".join(["999983"] * 800)
        argv = ("epi", "--genus", "0", "--order", "1", "--periods", periods)
        record = f"epimorphisms (0;{periods}) -> Z_1: 0\n"
        assert run(capsys, *argv) == (0, record, "")
        skipped = "check[brute_force]: skipped (E may exceed the 4300-digit print limit)\n"
        assert run(capsys, "--check", *argv) == (0, record, skipped)

    def test_genus_guard_fails_fast(self, capsys):
        for genus in ("10000", "100000000", str(10**400)):
            start = perf_counter()
            code, out, err = run(capsys, "epi", "--genus", genus, "--order", "3")
            assert perf_counter() - start < 1
            assert code == 1
            assert out == ""
            assert err == "error: the count may exceed the 4300-digit print limit\n"
        # phi_9000(3) = 3^9000 - 1 has 4,295 digits, just inside the limit
        code, out, _ = run(capsys, "epi", "--genus", "4500", "--order", "3")
        assert code == 0
        assert out == f"epimorphisms (4500;-) -> Z_3: {3**9000 - 1}\n"
        # order 1 has one epimorphism at any genus
        code, out, _ = run(capsys, "epi", "--genus", str(10**400), "--order", "1")
        assert code == 0
        assert out == f"epimorphisms ({10**400};-) -> Z_1: 1\n"


class TestOrbifolds:
    def test_fixed_order(self, capsys):
        code, out, _ = run(capsys, "orbifolds", "--gamma", "2", "--order", "2")
        assert code == 0
        assert out == "ell=2   (0;2,2,2,2,2,2)\nell=2   (1;2,2)\ncount: 2\n"

    def test_sweep_needs_finite_census(self, capsys):
        # a domain error, not a usage error: the census names its rule
        code, out, err = run(capsys, "orbifolds", "--gamma", "1")
        assert code == 1
        assert out == ""
        assert err == "error: census is infinite for gamma = 1\n"
        # the sweep is the census, refused by the enumerators' gamma guard
        code, out, err = run(capsys, "orbifolds", "--gamma", "7")
        assert code == 1
        assert out == ""
        assert err == "error: gamma 7 exceeds the guard 6\n"

    def test_check(self, capsys):
        code, _, err = run(capsys, "--check", "orbifolds", "--gamma", "2", "--order", "6")
        assert code == 0
        assert "check[harvey_route]: ok" in err

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "--format", "csv", "orbifolds", "--gamma", "2", "--order", "2")
        assert out == "ell,g,periods\n2,0,2 2 2 2 2 2\n2,1,2 2\n"


class TestCensus:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "census", "--gamma", "2")
        assert code == 0
        assert out.splitlines()[:2] == ["A(2) = 10", "A_0(2) = 8"]
        assert "distinct signatures: 10" in out

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "--format", "csv", "census", "--gamma", "2")
        assert out == (
            "gamma,quotient_genus,count\n"
            "2,0,8\n2,1,1\n2,2,1\n2,all,10\n2,distinct,10\n"
        )

    def test_json_counts_are_strings(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "census", "--gamma", "3")
        payload = json.loads(out)["payload"]
        assert payload["a"] == "17"
        assert payload["a_by_g"] == {"0": "12", "1": "3", "2": "1", "3": "1"}

    def test_infinite_genus_rejected(self, capsys):
        code, out, err = run(capsys, "census", "--gamma", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestTheta:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "theta", "--gamma", "1", "--edges", "3")
        assert code == 0
        assert out == "maps with 3 edges on genus 1: 6\n"

    def test_missing_data(self, capsys):
        # past g <= 3, n <= 12, the range a packaged table used to cover
        code, out, err = run(capsys, "theta", "--gamma", "4", "--edges", "8")
        assert code == 0
        assert out == "maps with 8 edges on genus 4: 14118\n"
        assert err == ""

    def test_json_record(self, capsys):
        # "table" is a frozen schema field; its value no longer varies
        code, out, _ = run(capsys, "--format", "json", "theta", "--gamma", "1", "--edges", "3")
        assert code == 0
        assert out == (
            '{"kind": "theta", "payload": {"edges": 3, "gamma": 1, '
            '"table": "packaged default", "value": "6"}}\n'
        )

    def test_guard_fails_fast(self, capsys):
        start = perf_counter()
        code, out, err = run(capsys, "theta", "--gamma", "0", "--edges", "1000000")
        assert perf_counter() - start < 5
        assert code == 1
        assert out == ""
        assert err == "error: edge count 1000000 exceeds the guard 100\n"

    def test_check_passes(self, capsys):
        code, _, err = run(capsys, "--check", "theta", "--gamma", "0", "--edges", "3")
        assert code == 0
        assert "check[harvey_route]: ok" in err
        assert "check[dart_pair_oracle]: ok" in err

    def test_oracle_mismatch_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("orbicyclic.cli.dart_pair_oracle", lambda gamma, n: (20, 7))
        code, out, err = run(capsys, "--check", "theta", "--gamma", "1", "--edges", "3")
        assert code == 3
        # the primary result is still reported
        assert out == "maps with 3 edges on genus 1: 6\n"
        assert "check[harvey_route]: ok" in err
        assert "check[dart_pair_oracle]: MISMATCH expected=6 observed=7" in err

    def test_dart_pair_check_past_its_guard_is_skipped(self, capsys):
        # n = 12 is past the dart-pair oracle's guard (n <= 5): the check says
        # so instead of vanishing, and the Harvey route still runs
        code, out, err = run(capsys, "--check", "theta", "--gamma", "0", "--edges", "12")
        assert code == 0
        assert out == "maps with 12 edges on genus 0: 658049140\n"
        assert err == (
            "check[harvey_route]: ok\n"
            "check[dart_pair_oracle]: skipped (dart-pair edge count 12 exceeds the guard 5)\n"
        )


class TestFreegroup:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "freegroup", "--rank", "2", "--index", "3")
        assert code == 0
        assert out == "F_2 index 3: 13 subgroups, 7 conjugacy classes\n"

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "--format", "csv", "freegroup", "--rank", "2", "--index", "3")
        assert out == "rank,index,subgroups,conjugacy_classes\n2,3,13,7\n"

    def test_check(self, capsys):
        code, _, err = run(capsys, "--check", "freegroup", "--rank", "2", "--index", "4")
        assert code == 0
        assert "check[transitive_pairs]: ok" in err

    def test_check_past_the_scan_guard_is_skipped(self, capsys):
        code, out, err = run(capsys, "freegroup", "--rank", "3", "--index", "6", "--check")
        assert code == 0
        assert out == "F_3 index 6: 3011263 subgroups, 504243 conjugacy classes\n"
        assert err == (
            "check[transitive_pairs]: skipped "
            "(tuple-scan steps 55987200 exceeds the guard 500000)\n"
        )

    def test_check_past_the_scan_guard_shows_a_huge_charge_by_its_digits(self, capsys):
        code, _, err = run(capsys, "freegroup", "--rank", "400", "--index", "12", "--check")
        assert code == 0
        assert err == (
            "check[transitive_pairs]: skipped "
            "(tuple-scan steps a 3469-digit number exceeds the guard 500000)\n"
        )

    def test_guard(self, capsys):
        code, _, err = run(capsys, "freegroup", "--rank", "2", "--index", "13")
        assert code == 1
        assert err == "error: index 13 exceeds the guard 12\n"

    def test_rank_guard_fails_fast(self, capsys):
        start = perf_counter()
        code, out, err = run(capsys, "freegroup", "--rank", "1000000", "--index", "12")
        assert perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert err == "error: rank 1000000 exceeds the guard 400\n"


class TestTriples:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "triples", "--lcm", "2")
        assert code == 0
        assert out == "m1,m2,m3,value\n1,2,2,1\n2,1,2,1\n2,2,1,1\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "triples", "--lcm", "2")
        payload = json.loads(out)["payload"]
        assert payload["count"] == "3"
        assert payload["triples"][0] == {"periods": [1, 2, 2], "value": "1"}

    def test_check(self, capsys):
        code, _, err = run(capsys, "--check", "triples", "--lcm", "12")
        assert code == 0
        assert "check[exhaustive_scan]: ok" in err

    @pytest.mark.parametrize(
        "patch, check, code, verdict",
        [
            ("", False, 0, None),
            ("", True, 0, "ok"),
            ("cli._nonvanishing_triples_by_scan = lambda m: []; ", True, 3, "MISMATCH"),
        ],
        ids=["record", "ok", "mismatch"],
    )
    def test_closed_stdout_prints_no_traceback(self, patch, check, code, verdict):
        # the reader takes one byte and closes the pipe, as `| head -c 1` does;
        # the 112 KB record overfills the 64 KiB pipe, so the write meets the
        # closed end, and the verdict still reaches stderr with its exit code
        probe = f"import sys; from orbicyclic import cli; {patch}sys.exit(cli.main(sys.argv[1:]))"
        argv = ["triples", "--lcm", "9240", "--format", "json"] + ["--check"] * check
        env = dict(os.environ, PYTHONPATH=os.path.dirname(orbicyclic.__path__[0]))
        with subprocess.Popen(
            [sys.executable, "-c", probe, *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:  # leaving the block closes stderr too
            assert proc.stdout.read(1) == "{"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == code
        if verdict is None:
            assert err == ""
        else:
            assert err.startswith(f"check[exhaustive_scan]: {verdict}")
            assert err.count("\n") == 1 and err.endswith("\n")


# Exact stdout of every subcommand x format pair not pinned above.
EXACT_STDOUT = [
    (
        ("--format", "json", "e", "12", "12"),
        '{"kind": "e_value", "payload": {"periods": [12, 12], '
        '"reduced": [12, 12], "value": "4"}}\n',
    ),
    (
        ("--format", "csv", "epi", "--genus", "0", "--order", "10", "--periods", "2,5,10"),
        "genus,order,periods,value\n0,10,2 5 10,4\n",
    ),
    (
        ("--format", "json", "orbifolds", "--gamma", "2", "--order", "2"),
        '{"kind": "orbifold_list", "payload": {"count": "2", "gamma": 2, "order": 2, '
        '"signatures": [{"ell": 2, "g": 0, "periods": [2, 2, 2, 2, 2, 2]}, '
        '{"ell": 2, "g": 1, "periods": [2, 2]}]}}\n',
    ),
    (
        ("census", "--gamma", "2"),
        "A(2) = 10\nA_0(2) = 8\nA_1(2) = 1\nA_2(2) = 1\ndistinct signatures: 10\n",
    ),
    (
        ("--format", "json", "census", "--gamma", "2"),
        '{"kind": "census", "payload": {"a": "10", '
        '"a_by_g": {"0": "8", "1": "1", "2": "1"}, "a_distinct": "10", "gamma": 2, '
        '"orbifolds": [{"ell": 1, "g": 2, "periods": []}, '
        '{"ell": 2, "g": 0, "periods": [2, 2, 2, 2, 2, 2]}, '
        '{"ell": 2, "g": 1, "periods": [2, 2]}, '
        '{"ell": 3, "g": 0, "periods": [3, 3, 3, 3]}, '
        '{"ell": 4, "g": 0, "periods": [2, 2, 4, 4]}, '
        '{"ell": 5, "g": 0, "periods": [5, 5, 5]}, '
        '{"ell": 6, "g": 0, "periods": [3, 6, 6]}, '
        '{"ell": 6, "g": 0, "periods": [2, 2, 3, 3]}, '
        '{"ell": 8, "g": 0, "periods": [2, 8, 8]}, '
        '{"ell": 10, "g": 0, "periods": [2, 5, 10]}]}}\n',
    ),
    (
        ("--format", "csv", "theta", "--gamma", "1", "--edges", "3"),
        "genus,edges,count\n1,3,6\n",
    ),
    (
        ("--format", "json", "freegroup", "--rank", "2", "--index", "3"),
        '{"kind": "subgroup_count", "payload": {"conjugacy_classes": "7", '
        '"index": 3, "rank": 2, "subgroups": "13"}}\n',
    ),
    (
        ("triples", "--lcm", "2"),
        "(1, 2, 2)  E = 1\n(2, 1, 2)  E = 1\n(2, 2, 1)  E = 1\n"
        "nonvanishing triples with lcm 2: 3\n",
    ),
    (
        ("--format", "json", "triples", "--lcm", "2"),
        '{"kind": "e_value", "payload": {"count": "3", "lcm": 2, "triples": '
        '[{"periods": [1, 2, 2], "value": "1"}, {"periods": [2, 1, 2], "value": "1"}, '
        '{"periods": [2, 2, 1], "value": "1"}]}}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, expected", EXACT_STDOUT, ids=[" ".join(argv) for argv, _ in EXACT_STDOUT]
)
def test_exact_stdout(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == expected
    assert err == ""


def test_route_mismatch_detail(capsys, monkeypatch):
    monkeypatch.setattr("orbicyclic.cli.enumerate_orbifolds_via_harvey", lambda gamma, ell: [])
    cases = [
        (
            ("orbifolds", "--gamma", "2", "--order", "2"),
            "ell=2   (0;2,2,2,2,2,2)\nell=2   (1;2,2)\ncount: 2\n",
            "['2:(0;2,2,2,2,2,2)', '2:(1;2,2)']",
            "",
        ),
        # theta's check compares the orbifold lists at every ell | 2n, not the sums
        (
            ("theta", "--gamma", "1", "--edges", "3"),
            "maps with 3 edges on genus 1: 6\n",
            "['1:(1;-)', '2:(0;2,2,2,2)', '2:(1;-)', '3:(0;3,3,3)', '3:(1;-)', "
            "'6:(0;2,3,6)', '6:(1;-)']",
            "check[dart_pair_oracle]: ok\n",
        ),
    ]
    for argv, stdout, found, trailing in cases:
        code, out, err = run(capsys, "--check", *argv)
        assert code == 3
        # the primary result is still reported
        assert out == stdout
        assert err == (
            f"check[harvey_route]: MISMATCH expected={found} observed=[] "
            f"(epi-only={found} harvey-only=[])\n" + trailing
        )


class TestUsageErrors:
    def test_bad_period(self, capsys):
        # a period below 1 parses, and PeriodTuple rejects it (never dropped as a 1)
        error = "error: period value must be an integer >= 1, got 0\n"
        assert run(capsys, "e", "0") == (1, "", error)

    @pytest.mark.parametrize(
        "periods, code, error",
        [
            # a token that parses reaches PeriodTuple, which owns the bound
            pytest.param(
                "0",
                1,
                "error: period value must be an integer >= 1, got 0\n",
                id="0-must be >= 1, got 0",
            ),
            # a token that does not parse is argparse's usage error
            pytest.param(
                "x",
                2,
                "error: argument --periods: not an integer: 'x'\n",
                id="x-not an integer: 'x'",
            ),
            pytest.param(
                "4,x",
                2,
                "error: argument --periods: not an integer: 'x'\n",
                id="4,x-not an integer: 'x'",
            ),
        ],
    )
    def test_bad_period_list(self, capsys, periods, code, error):
        argv = ["epi", "--genus", "0", "--order", "12", "--periods", periods]
        observed, out, err = run(capsys, *argv)
        assert observed == code
        assert out == ""
        assert err.endswith(error)
        if code == 1:
            assert err == error

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "nosuch")[0] == 2

    def test_no_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_brute_force_guard(self, capsys):
        # a lcm of 12 digits has 4 gcd classes, well inside the brute-force guard
        code, out, err = run(capsys, "e", "1000003", "999983", "--brute")
        assert code == 0
        assert out == "E(1000003, 999983) = 0\n"
        assert err == "check[brute_force]: ok\n"
        # an e-wide-shaped long tuple, lcm 2406725881560, is checked too
        periods = ("20224587240", "6077590610", "661188429", "194467185", "63399960", "2040885")
        code, out, err = run(capsys, "e", *periods, "--brute")
        assert code == 0
        assert out == f"E({', '.join(periods)}) = 1523866321877667576805938601820160000\n"
        assert err == "check[brute_force]: ok\n"
        # past the brute-force guard the check is skipped, not the value: the
        # product of the first 20 primes has 2**20 gcd classes
        lcm = "557940830126698960967415390"
        start = perf_counter()
        code, out, err = run(capsys, "e", lcm, "--brute")
        assert perf_counter() - start < 1
        assert code == 0
        assert out == f"E({lcm}) = 0\n"
        assert err == (
            "check[brute_force]: skipped "
            "(brute-force steps 3145728 exceeds the guard 262144)\n"
        )


# A value in the domain of each required option, and for each subcommand's
# required option a value just below its domain with the library's message.
IN_DOMAIN = {
    "genus": "0",
    "order": "12",
    "gamma": "2",
    "edges": "3",
    "rank": "2",
    "index": "3",
    "lcm": "12",
}
BELOW_DOMAIN = {
    ("epi", "genus"): ("-1", "quotient genus must be an integer >= 0, got -1"),
    ("epi", "order"): ("0", "group order must be an integer >= 1, got 0"),
    ("orbifolds", "gamma"): ("-1", "gamma must be an integer >= 0, got -1"),
    ("census", "gamma"): ("-1", "gamma must be an integer >= 0, got -1"),
    ("theta", "gamma"): ("-1", "genus must be an integer >= 0, got -1"),
    ("theta", "edges"): ("0", "edge count must be an integer >= 1, got 0"),
    ("freegroup", "rank"): ("0", "rank must be an integer >= 1, got 0"),
    ("freegroup", "index"): ("0", "index must be an integer >= 1, got 0"),
    ("triples", "lcm"): ("0", "lcm must be an integer >= 1, got 0"),
}


def out_of_domain_cases():
    """(argv, message) for every required option of every subcommand, then
    for the integer inputs that are not required options."""
    for command, (_, _, required) in cli.COMMANDS.items():
        for option in required:
            value, message = BELOW_DOMAIN.get((command, option), ("-1", "unlisted"))
            argv = [command]
            for other in required:
                argv += [f"--{other}", value if other == option else IN_DOMAIN[other]]
            yield argv, message
    yield ["e", "0"], "period value must be an integer >= 1, got 0"
    yield ["e", "12", "--congruence", "0"], "modulus must be an integer >= 1, got 0"
    yield (
        ["epi", "--genus", "0", "--order", "12", "--periods", "4,0"],
        "period value must be an integer >= 1, got 0",
    )
    yield (
        ["orbifolds", "--gamma", "2", "--order", "0"],
        "group order must be an integer >= 1, got 0",
    )


OUT_OF_DOMAIN = list(out_of_domain_cases())


@pytest.mark.parametrize(
    "argv, message", OUT_OF_DOMAIN, ids=[" ".join(argv) for argv, _ in OUT_OF_DOMAIN]
)
def test_out_of_domain_value_exits_1_with_the_library_bound(capsys, argv, message):
    # only an argv that does not parse is a usage error (exit 2)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("periods", [("4", "4", "3"), ("1000003", "999983")])
def test_brute_is_an_alias_of_check(capsys, periods):
    assert run(capsys, "e", *periods, "--brute") == run(capsys, "--check", "e", *periods)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_print_limit_fails_in_every_format(capsys, fmt):
    # E(999983 x 800) has about 4,800 digits, past the 4,300-digit print limit
    code, out, err = run(capsys, "--format", fmt, "e", *["999983"] * 800)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_print_limit_is_the_library_message(capsys):
    # E_closed refuses the tuple itself, so every caller sees one message
    limit = "error: E may exceed the 4300-digit print limit\n"
    assert run(capsys, "e", *["999983"] * 800) == (1, "", limit)
    # a tuple whose E vanishes has no digits to bound
    code, out, _ = run(capsys, "--format", "json", "e", *["999983"] * 800, "999979")
    assert code == 0
    assert json.loads(out)["payload"]["value"] == "0"


def test_cli_imports_only_the_standard_library():
    # the package declares dependencies = []; importing the CLI must keep to it
    probe = (
        "import sys; before = set(sys.modules); import orbicyclic.cli; "
        "print(*{m.split('.')[0] for m in set(sys.modules) - before})"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(orbicyclic.__path__[0]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(out.split()) - {"orbicyclic"}
    assert loaded and loaded <= sys.stdlib_module_names, loaded
    # the heaviest standard-library imports stay off the CLI's start-up path
    assert not loaded & {"dataclasses", "inspect"}, loaded


class OracleCalled(Exception):
    pass


def refusing(when):
    """An oracle stand-in that raises OracleCalled(when)."""

    def oracle(*args):
        raise OracleCalled(when)

    return oracle


# The cli names the checks read, and for each subcommand an argv asking for
# every check it has, with the names only its checks read (E_closed is epi's
# expected side, enumerate_orbifolds theta's).
ORACLES = (
    "E_bruteforce",
    "count_congruence_solutions",
    "dart_pair_oracle",
    "enumerate_orbifolds_via_harvey",
    "transitive_pair_counts",
    "_nonvanishing_triples_by_scan",
)
CHECKED = {
    "e": (["e", "12", "12", "--congruence", "24"], ()),
    "epi": (["epi", "--genus", "0", "--order", "10", "--periods", "2,5,10"], ("E_closed",)),
    "orbifolds": (["orbifolds", "--gamma", "2", "--order", "6"], ()),
    "census": (["census", "--gamma", "2"], ()),
    "theta": (["theta", "--gamma", "1", "--edges", "3"], ("enumerate_orbifolds",)),
    "freegroup": (["freegroup", "--rank", "2", "--index", "3"], ()),
    "triples": (["triples", "--lcm", "12"], ()),
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_handlers_call_no_oracle(monkeypatch, command):
    # a handler only computes and renders; each check's thunk reads its oracle
    # from the cli module when main calls it, so a later rebinding is seen
    argv, only_checked = CHECKED[command]
    args = cli.build_parser().parse_args(["--check", *argv])
    for name in ORACLES + only_checked:
        monkeypatch.setattr(cli, name, refusing("early"))
    *_, checks = cli.COMMANDS[command][1](args)
    assert len(checks) == (2 if command in ("e", "theta") else 1)
    for name in ORACLES + only_checked:
        monkeypatch.setattr(cli, name, refusing("late"))
    for _, thunk in checks:
        with pytest.raises(OracleCalled, match="late"):
            thunk()


# Each subcommand with its options; values and periods are drawn from TOKENS.
CLI_OPTIONS = {
    "e": ["--congruence"],
    "epi": ["--genus", "--order", "--periods"],
    "orbifolds": ["--gamma", "--order"],
    "census": ["--gamma"],
    "theta": ["--gamma", "--edges"],
    "freegroup": ["--rank", "--index"],
    "triples": ["--lcm"],
}
BAD_TOKENS = ["x", "", "1.5", "-1", "10000000"]
TOKENS = st.sampled_from([str(i) for i in range(13)] + BAD_TOKENS)


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(CLI_OPTIONS)))
    argv = [command]
    for option in CLI_OPTIONS[command]:
        if draw(st.integers(0, 4)) == 0:
            continue  # a missing required option is a usage error
        if option == "--periods":
            argv += [option, ",".join(draw(st.lists(TOKENS, max_size=3)))]
        else:
            argv += [option, draw(TOKENS)]
    if command == "e":
        argv += draw(st.lists(TOKENS, max_size=4))
        if draw(st.booleans()):
            argv.append("--brute")
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["table", "json", "csv", "x"]))]
    if draw(st.booleans()):
        argv.append("--check")
    return argv


def test_fuzz_covers_every_command():
    for command, (_, _, required) in cli.COMMANDS.items():
        assert command in CLI_OPTIONS
        assert {f"--{option}" for option in required} <= set(CLI_OPTIONS[command])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cli_argvs())
def test_cli_never_raises_and_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    lines = err.getvalue().splitlines()
    if code == 1:
        # a domain or guard error: the library's message, and no record
        assert out.getvalue() == "", argv
        assert any(line.startswith("error: ") for line in lines), (argv, lines)
    elif code == 2:
        assert any(line.startswith("usage: ") for line in lines), (argv, lines)
    # every check line is a verdict: passed, failed or refused by its own guard
    verdicts = [line.partition("]: ")[2] for line in lines if line.startswith("check[")]
    for verdict in verdicts:
        assert (
            verdict == "ok"
            or verdict.startswith("MISMATCH ")
            or (verdict.startswith("skipped (") and verdict.endswith(")"))
        ), (argv, verdict)
    assert (code == 3) == any(v.startswith("MISMATCH ") for v in verdicts), (argv, lines)
    if code in (0, 3):
        assert out.getvalue() != "", argv
