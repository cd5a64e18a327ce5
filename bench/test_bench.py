"""Self-tests for the benchmark itself (not part of the library's tier-1 suite).

Run from the repository root: python3 -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))


def _traced_child(ops: list, tmp_path: Path) -> dict:
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps(ops), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(ops_path), "1"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert all(out["ok"]), [e for e in out["errors"] if e]
    return out["trace"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    first = workloads.ops_for(workload, 7, 0)
    assert first == workloads.ops_for(workload, 7, 0)
    assert first != workloads.ops_for(workload, 8, 0)
    assert first != workloads.ops_for(workload, 7, 1)
    assert json.loads(json.dumps(first)) == first


def test_generated_inputs_stay_in_the_supported_domain():
    for op in workloads.ops_for("e-triangle", 3, 0):
        _, m, t = op
        assert 1 <= m <= 60 and len(t) <= 4 and all(m % x == 0 for x in t)
    for op in workloads.ops_for("e-wide", 3, 0):
        if op[0] == "brute":
            assert 10**3 <= math.lcm(*op[1]) <= 10**5 and 2 <= len(op[1]) <= 6
        elif op[0] == "long":
            assert math.lcm(*op[1]) < 5 * 10**12 and 6 <= len(op[1]) <= 12
        else:
            _, n, p, q = op
            assert n == p * q and p.bit_length() == q.bit_length() == 32


def test_every_drawable_op_has_a_shipped_expectation():
    assert set(EXPECTED["cli-cold"]) == {json.dumps(a) for a in workloads.cli_catalogue()}
    assert set(EXPECTED["atlas"]) == {json.dumps(op) for op in workloads.atlas_domain()}

    drawn = [op[1] for i in range(20) for op in workloads.ops_for("cli-cold", 9, i)]
    assert {json.dumps(a) for a in drawn} <= set(EXPECTED["cli-cold"])
    assert {a[0] for a in drawn} == {"e", "epi", "orbifolds", "census", "theta", "freegroup", "triples"}
    assert sum("--check" in a for a in drawn) * 3 == len(drawn)


def _fake_child(out: dict, code: int = 0) -> run.Child:
    return run.Child(code, json.dumps(out).encode(), "", 1, 0.0)


def test_a_wrong_answer_is_a_failed_op():
    ops = [["theta", 0, 1], ["theta", 0, 2]]
    good = [EXPECTED["atlas"][json.dumps(op)] for op in ops]
    result = {"digests": good, "ok": [True, True], "errors": [None, None],
              "times": [0.1, 0.1], "slices": [0.004], "peak_rss_kb": 1}
    tally = run.Tally(EXPECTED["atlas"])
    tally.check_library_round(ops, _fake_child(result))
    assert tally.failures == []

    wrong = dict(result, digests=[good[0], "0" * 16])
    tally = run.Tally(EXPECTED["atlas"])
    tally.check_library_round(ops, _fake_child(wrong))
    assert len(tally.failures) == 1 and tally.record()["error_rate"] == 0.5

    refuted = dict(result, ok=[True, False])
    tally = run.Tally({})
    tally.check_library_round(ops, _fake_child(refuted))
    assert len(tally.failures) == 1

    tally = run.Tally({})
    tally.check_library_round(ops, _fake_child({}, code=1))
    assert len(tally.failures) == 2


def test_traced_counts_repeat_exactly(tmp_path):
    ops = (
        workloads.ops_for("e-triangle", 5, 0)[:400]
        + workloads.ops_for("e-wide", 5, 0)[:12]
        + [op for op in workloads.ops_for("atlas", 5, 0) if op[0] != "orbifolds"]
        + [["orbifolds", 4, ell] for ell in range(1, 31)]
    )
    first, second = _traced_child(ops, tmp_path), _traced_child(ops, tmp_path)
    assert run._count_key(first) == run._count_key(second)
    assert first["candidates_generated"] > first["candidates_accepted"] > 0


def test_tracer_reaches_second_bindings_and_defaults(tmp_path):
    # theta reaches enumerate_orbifolds only through its default argument,
    # and count_epi reaches E_closed through epi's own import binding.
    summary = _traced_child([["theta", 1, 4]], tmp_path)["functions"]
    assert summary["mapcount.theta"]["calls"] == 1
    assert summary["orbifold.enumerate_orbifolds"]["calls"] > 0
    assert summary["epi.count_epi"]["calls"] > 0
    assert summary["orbicyclic.E_closed"]["calls"] > 0
    assert summary["arith.factorize"]["calls"] > 0


def test_traced_cli_keeps_stdout(tmp_path):
    argv = json.loads(next(a for a in EXPECTED["cli-cold"] if '"census"' in a))
    summary_path = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(summary_path), *argv],
        cwd=ROOT, env=run.child_env(), capture_output=True, timeout=120,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == EXPECTED["cli-cold"][json.dumps(argv)]
    functions = json.loads(summary_path.read_text())["functions"]
    assert functions["cli.main"]["calls"] == 1
    assert functions["orbifold.census"]["calls"] == 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "atlas", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _mutated_checkout(tmp_path: Path, old: str, new: str) -> Path:
    """A copy of the benchmark and the library with one edit in orbicyclic.py."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "orbicyclic" / "orbicyclic.py"
    text = target.read_text(encoding="utf-8")
    assert old in text
    target.write_text(text.replace(old, new, 1), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize(
    "old, new",
    [
        # a fast wrong answer: the closed form is off by one whenever it is nonzero
        ("            return 0\n    return result", "            return 0\n    return result + 1"),
        # a library that no longer imports
        ("from .arith import", "import no_such_module\nfrom .arith import"),
    ],
)
def test_a_broken_library_fails_the_run(tmp_path, old, new):
    checkout = _mutated_checkout(tmp_path, old, new)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "e-triangle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout.strip() else None
    assert result is None or (result["correct"] is False and result["failed"] > 0)
