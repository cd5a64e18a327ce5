"""Regenerate expected.json, the expectations shipped with the benchmark.

Usage (from the repository root): python3 bench/make_expected.py

The atlas op set is the same for every seed (only its order changes), so
its expected result digests are computed here once per op.  cli-cold
draws from a fixed catalogue; the sha256 of each entry's stdout is
recorded, and every entry must exit 0.  Regenerate only at a commit whose
outputs are trusted: the run compares against these values.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    atlas = {}
    for op in workloads.atlas_domain():
        value, ok = child.OPS[op[0]](*op[1:])
        if not ok:
            raise SystemExit(f"oracle disagrees on {op}")
        atlas[json.dumps(op)] = child.digest(value)

    env = run.child_env()
    cli = {}
    for argv in workloads.cli_catalogue():
        proc = subprocess.run(
            [sys.executable, "-m", "orbicyclic.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{argv} exited {proc.returncode}: {proc.stderr.decode()}")
        cli[json.dumps(argv)] = hashlib.sha256(proc.stdout).hexdigest()

    path = BENCH_DIR / "expected.json"
    path.write_text(json.dumps({"atlas": atlas, "cli-cold": cli}, indent=0) + "\n")
    print(f"wrote {path.relative_to(ROOT)}: {len(atlas)} atlas ops, {len(cli)} CLI argvs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
