"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are e-triangle, e-wide, atlas and cli-cold (see README.md in
this directory).  All are closed loops with one client, single-process
and single-threaded: the next op starts only after the previous one has
returned (cli-cold: after the previous CLI process has exited).

A run executes rounds until S seconds have passed and at least
MIN_SAMPLES ops have been timed.  Round i runs the op list generated
from (workload, seed, i) once, in one fresh interpreter (cli-cold: one
fresh interpreter per op).  Every op is checked, by an oracle inside the
child or against the expectation shipped in expected.json; a failed op
makes the run exit 1.

Times are reported at a reference machine speed: each round also times
calibration slices, and its times are scaled by calib.factor (see
calib.py).  The workload record keeps the raw values too.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 repeats the round-0 list, each time once untraced and once
traced (each in a fresh interpreter), and reports the per-layer metrics
and the tracing overhead.  End-to-end metrics come from untraced runs
only.

Before the last line, one JSON line holds the workload record: seed, op
counts per kind, the repeated-modulus share, every metric with its
sample counts, the result digest, the Python version and the git sha.
The last line is the result object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import calib
import workloads
from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
SETUP_PROBES = 11
CLI_MODULE = "orbicyclic.cli"

_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import {module}; "
    "print(t0, time.perf_counter())"
)


class Child:
    __slots__ = ("code", "out", "err", "maxrss_kb", "wall_s")

    def __init__(self, code, out, err, maxrss_kb, wall_s):
        self.code, self.out, self.err = code, out, err
        self.maxrss_kb, self.wall_s = maxrss_kb, wall_s

    def result(self) -> dict | None:
        """The child's JSON output, or None if it failed to produce one."""
        if self.code != 0:
            return None
        try:
            return json.loads(self.out)
        except ValueError:
            return None


def child_env() -> dict:
    """The environment of every child: the checkout's src/ and no outside Python or table settings."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k != "ORBICYCLIC_TABLE"
    }
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Starts children one at a time and waits for each (closed loop)."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()

    def spawn(self, args: list[str]) -> tuple[Child, float]:
        """Run ``python args...`` to completion; return it and its launch time."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            launch = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                cwd=ROOT,
                env=self.env,
            )
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - launch
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        err_text = err_path.read_text(encoding="utf-8", errors="replace")
        return Child(proc.returncode, out, err_text, usage.ru_maxrss, wall), launch

    def probes(self, args: list[str]) -> tuple[list[Child], list[float], float]:
        """SETUP_PROBES runs of ``python args...``, each after a calibration slice.

        Returns the children, their launch times and the batch's scale factor.
        """
        children, launches, slices = [], [], []
        for _ in range(SETUP_PROBES):
            slices.append(calib.slice_seconds())
            child, launch = self.spawn(args)
            if child.code != 0:
                raise RuntimeError(f"probe {args} failed: {child.err.strip()}")
            children.append(child)
            launches.append(launch)
        slices.append(calib.slice_seconds())
        return children, launches, calib.factor(slices)

    def import_probes(self, module: str) -> tuple[list[float], list[float]]:
        """Scaled (launch-to-import, import-only) seconds per fresh interpreter."""
        children, launches, f = self.probes(["-c", _IMPORT_PROBE.format(module=module)])
        setups, imports = [], []
        for child, launch in zip(children, launches):
            t0, t1 = map(float, child.out.split())
            setups.append((t1 - launch) * f)
            imports.append((t1 - t0) * f)
        return setups, imports

    def library_child(self, ops: list, trace: bool) -> Child:
        ops_path = self.work / "ops.json"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")
        child, _ = self.spawn([str(BENCH_DIR / "child.py"), str(ops_path), str(int(trace))])
        return child

    def cli(self, argv: list[str], trace: bool) -> tuple[Child, dict | None]:
        if not trace:
            return self.spawn(["-m", CLI_MODULE, *argv])[0], None
        summary_path = self.work / "cli-trace.json"
        summary_path.unlink(missing_ok=True)
        child, _ = self.spawn([str(BENCH_DIR / "trace_cli.py"), str(summary_path), *argv])
        summary = None
        if summary_path.exists():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
        return child, summary


class Tally:
    """Attempted and failed ops, per-op times (scaled and raw), and the result digest."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.loop_s = 0.0
        self.raw_loop_s = 0.0
        self.factors: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.kinds: Counter = Counter()
        self.digest = hashlib.sha256()
        self.repeated = 0
        self.with_modulus = 0
        self.peak_rss_kb = 0

    def fail(self, op, why: str) -> None:
        self.failures.append(f"{json.dumps(op)}: {why}")

    def add_times(self, raw: list[float], factor: float) -> None:
        """Record one round's op times, raw and scaled to the reference speed."""
        self.raw_times.extend(raw)
        self.times.extend(t * factor for t in raw)
        self.raw_loop_s += sum(raw)
        self.loop_s += sum(raw) * factor
        self.factors.append(factor)

    def check_library_round(self, ops: list, child: Child) -> dict | None:
        """Check one child's results against the op list; return its output."""
        self.attempted += len(ops)
        self.kinds.update(op[0] for op in ops)
        repeated, based = workloads.repeated_modulus(ops)
        self.repeated += repeated
        self.with_modulus += based
        result = child.result()
        if result is not None and len(result["digests"]) != len(ops):
            result = None
        if result is None:
            why = f"child exited {child.code}: {child.err.strip()[-300:]}"
            for op in ops:
                self.fail(op, why)
            return None
        self.peak_rss_kb = max(self.peak_rss_kb, result["peak_rss_kb"])
        for op, dig, ok, error in zip(ops, result["digests"], result["ok"], result["errors"]):
            self.digest.update(dig.encode())
            if error is not None:
                self.fail(op, error)
            elif not ok:
                self.fail(op, "oracle disagrees")
            elif self.expected and self.expected.get(json.dumps(op)) != dig:
                self.fail(op, f"digest {dig} != expected {self.expected.get(json.dumps(op))}")
        return result

    def check_cli_op(self, op: list, child: Child) -> None:
        # wait4's ru_maxrss also covers this process's own high-water mark
        # at spawn time (Linux), which stays far below a CLI process's.
        self.peak_rss_kb = max(self.peak_rss_kb, child.maxrss_kb)
        self.attempted += 1
        self.kinds[op[1][0]] += 1
        dig = hashlib.sha256(child.out).hexdigest()
        self.digest.update(dig.encode())
        want = self.expected.get(json.dumps(op[1]))
        if child.code != 0:
            self.fail(op, f"exit {child.code}: {child.err.strip()[-300:]}")
        elif want != dig:
            self.fail(op, f"stdout sha256 {dig[:16]} != expected {str(want)[:16]}")

    def record(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "error_rate": len(self.failures) / max(self.attempted, 1),
            "op_counts": dict(sorted(self.kinds.items())),
            "repeated_modulus": {
                "share": self.repeated / self.with_modulus if self.with_modulus else 0.0,
                "repeated": self.repeated,
                "ops_with_modulus": self.with_modulus,
            },
            "digest": self.digest.hexdigest(),
            "failures": self.failures[:10],
        }


def rank(n: int, q: float) -> int:
    """1-based nearest-rank position of the q-quantile among n samples."""
    return max(1, math.ceil(n * q))


def end_to_end(tally: Tally, setups: list[float]) -> dict:
    times = sorted(tally.times)
    raw = sorted(tally.raw_times)
    n = len(times)
    if n == 0:
        return {}
    return {
        "throughput_ops_s": {"value": n / tally.loop_s, "unit": "1/s", "samples": n,
                             "raw": n / tally.raw_loop_s},
        "latency_p50_ms": {"value": times[rank(n, 0.5) - 1] * 1e3, "unit": "ms",
                           "samples": n, "raw": raw[rank(n, 0.5) - 1] * 1e3},
        "latency_p90_ms": {"value": times[rank(n, 0.9) - 1] * 1e3, "unit": "ms",
                           "samples": n, "beyond": n - rank(n, 0.9),
                           "raw": raw[rank(n, 0.9) - 1] * 1e3},
        "peak_rss_mb": {"value": tally.peak_rss_kb / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "error_rate": {"value": len(tally.failures) / max(tally.attempted, 1), "unit": "ratio"},
    }


def _cli_round(runner: Runner, tally: Tally, ops: list, trace: bool, stop=None):
    """Run CLI ops, a calibration slice before each; return (raw walls, factor, summaries)."""
    walls, slices, summaries = [], [], []
    for op in ops:
        slices.append(calib.slice_seconds())
        child, summary = runner.cli(op[1], trace)
        tally.check_cli_op(op, child)
        walls.append(child.wall_s)
        summaries.append(summary)
        if stop is not None and stop(len(walls)):
            break
    slices.append(calib.slice_seconds())
    return walls, calib.factor(slices), summaries


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics.


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float, tally: Tally):
    module = CLI_MODULE if workload == "cli-cold" else "orbicyclic"
    setups, _ = runner.import_probes(module)
    deadline = perf_counter() + seconds

    def done(extra: int = 0) -> bool:
        return perf_counter() >= deadline and len(tally.times) + extra >= MIN_SAMPLES

    rounds = 0
    while rounds == 0 or not done():
        ops = workloads.ops_for(workload, seed, rounds)
        rounds += 1
        if workload == "cli-cold":
            walls, f, _ = _cli_round(runner, tally, ops, False, stop=done)
            tally.add_times(walls, f)
        else:
            result = tally.check_library_round(ops, runner.library_child(ops, False))
            if result is None:
                break  # the child crashed: no times to report, and the run has failed
            tally.add_times(result["times"], calib.factor(result["slices"]))
    return end_to_end(tally, setups), rounds


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics.


def _count_key(summary: dict) -> dict:
    counts = {name: f["calls"] for name, f in summary["functions"].items()}
    counts["candidates_generated"] = summary["candidates_generated"]
    counts["candidates_accepted"] = summary["candidates_accepted"]
    return counts


def _merge(summaries: list[dict], factor: float) -> dict:
    """Sum summaries (one per CLI process) into one, self times scaled by factor."""
    functions: dict[str, dict] = {}
    for s in summaries:
        for name, f in s["functions"].items():
            into = functions.setdefault(name, {"calls": 0, "self_ms": 0.0, "errors": 0})
            into["calls"] += f["calls"]
            into["self_ms"] += f["self_ms"] * factor
            into["errors"] += f["errors"]
    return {
        "functions": functions,
        "spans": sum(s["spans"] for s in summaries),
        "candidates_generated": sum(s["candidates_generated"] for s in summaries),
        "candidates_accepted": sum(s["candidates_accepted"] for s in summaries),
    }


def per_layer(passes: list[dict], interpreter_ms: float, import_ms: float, overhead: float):
    """Per-layer metrics: counts from the first pass (all equal), self times as medians."""
    first = passes[0]["functions"]
    names = sorted(set().union(*(p["functions"] for p in passes)))

    def self_ms(members: list[str]) -> float:
        return statistics.median(
            sum(p["functions"].get(n, {}).get("self_ms", 0.0) for n in members) for p in passes
        )

    metrics: dict[str, float] = {}
    for name in names:
        metrics[f"{name}.calls"] = first.get(name, {}).get("calls", 0)
        metrics[f"{name}.self_ms"] = self_ms([name])
        metrics[f"{name}.errors"] = first.get(name, {}).get("errors", 0)
    for layer in (*LAYERS, "cli"):
        members = [n for n in names if n.startswith(layer + ".")]
        metrics[f"{layer}.self_ms"] = self_ms(members)
        metrics[f"{layer}.errors"] = sum(first.get(n, {}).get("errors", 0) for n in members)
    generated = passes[0]["candidates_generated"]
    accepted = passes[0]["candidates_accepted"]
    metrics["orbifold.candidates_generated"] = generated
    metrics["orbifold.candidates_accepted"] = accepted
    metrics["orbifold.accept_ratio"] = accepted / generated if generated else 0.0
    metrics["cli.main.calls"] = metrics.get("cli.main.calls", 0)
    metrics["cli.main_self_ms"] = metrics.get("cli.main.self_ms", 0.0)
    metrics["cli.interpreter_ms"] = interpreter_ms
    metrics["cli.import_ms"] = import_ms
    metrics["trace_overhead_ratio"] = overhead
    return metrics


def run_traced(runner: Runner, workload: str, seed: int, seconds: float, tally: Tally):
    bare, _, f = runner.probes(["-c", "pass"])
    interpreter_ms = statistics.median(c.wall_s for c in bare) * f * 1e3
    _, imports = runner.import_probes(CLI_MODULE)
    ops = workloads.ops_for(workload, seed, 0)
    deadline = perf_counter() + seconds
    passes: list[dict] = []
    plain_s = traced_s = 0.0
    while not passes or perf_counter() < deadline:
        if workload == "cli-cold":
            walls, f, _ = _cli_round(runner, tally, ops, False)
            plain_s += sum(walls) * f
            walls, f, summaries = _cli_round(runner, tally, ops, True)
            traced_s += sum(walls) * f
            tally.add_times(walls, f)
            summary = None if None in summaries else _merge(summaries, f)
        else:
            plain = runner.library_child(ops, False).result()
            result = tally.check_library_round(ops, runner.library_child(ops, True))
            summary = None
            if plain is not None and result is not None:
                plain_s += sum(plain["times"]) * calib.factor(plain["slices"])
                f = calib.factor(result["slices"])
                tally.add_times(result["times"], f)
                traced_s += sum(result["times"]) * f
                summary = _merge([result["trace"]], f)
        if summary is None:
            tally.failures.append("a traced pass produced no trace summary")
            break
        passes.append(summary)
    mismatched = {
        name
        for p in passes[1:]
        for name, _ in _count_key(p).items() ^ _count_key(passes[0]).items()
    }
    for name in sorted(mismatched):
        tally.failures.append(f"count {name} differs between traced passes of one op list")
    if not passes:
        return {}, 0, 0
    metrics = per_layer(
        passes, interpreter_ms, statistics.median(imports) * 1e3, traced_s / plain_s
    )
    return metrics, len(passes), passes[0]["spans"]


# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # Turn a termination request into SystemExit, so the running child is
    # killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "orbicyclic" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no orbicyclic sources under {SRC}, or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    expected = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    tally = Tally(expected.get(args.workload, {}))

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        runner = Runner(Path(work))
        if args.trace:
            metrics, rounds, spans = run_traced(
                runner, args.workload, args.seed, args.seconds, tally
            )
            wanted = spec["per_layer"]
        else:
            metrics, rounds = run_untraced(runner, args.workload, args.seed, args.seconds, tally)
            wanted = spec["end_to_end"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": rounds,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "speed_factors": tally.factors,
        **tally.record(),
    }
    if args.trace:
        record["spans_per_pass"] = spans
        record["per_layer"] = metrics
    else:
        record["end_to_end"] = metrics
    print(json.dumps(record))

    correct = not tally.failures and bool(metrics)
    result_metrics = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)
        if isinstance(value, dict):
            value = value["value"]
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(tally.attempted, 1),
                "failed": len(tally.failures),
                "metrics": result_metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
