"""Run the orbicyclic CLI once with every layer traced.

Usage: python3 bench/trace_cli.py SUMMARY_JSON_FILE [cli arguments ...]

Behaves like ``python -m orbicyclic.cli [cli arguments ...]`` (same
stdout and exit code) and writes the tracer's summary, with ``main``
as the ``cli.main`` span, to SUMMARY_JSON_FILE when the call ends.
"""

from __future__ import annotations

import json
import sys

import orbicyclic.cli as cli

import tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    tracer.install(rec)
    traced_main = rec.wrap(cli.main, "cli.main")
    try:
        return traced_main(argv)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(rec.summary(), handle)


if __name__ == "__main__":
    sys.exit(main())
