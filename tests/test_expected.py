"""Replay the benchmark's shipped expectations in-process.

bench/expected.json pins a digest for every atlas op and the sha256 of
stdout for every CLI argv the benchmark may draw.  These tests run the
same ops through the same helpers (bench/workloads.py, bench/child.py)
and compare, so any change to a printed or computed result shows up in
the tier-1 suite rather than only in a benchmark run.  The bench files
are read, never written.
"""

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import workloads  # noqa: E402

from orbicyclic.cli import main  # noqa: E402

EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))


def test_cli_catalogue_stdout_matches(capsys):
    catalogue = workloads.cli_catalogue()
    assert len(catalogue) == len(EXPECTED["cli-cold"])
    for argv in catalogue:
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 0, argv
        # every catalogue check runs within its guards and passes
        assert "error:" not in err and "MISMATCH" not in err, (argv, err)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == EXPECTED["cli-cold"][json.dumps(argv)], argv


def test_atlas_digests_match():
    domain = workloads.atlas_domain()
    assert len(domain) == len(EXPECTED["atlas"])
    for op in domain:
        value, ok = child.OPS[op[0]](*op[1:])
        assert ok, op
        assert child.digest(value) == EXPECTED["atlas"][json.dumps(op)], op
