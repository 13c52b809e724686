"""Traced stand-in for `python -m gatecap.cli ...`, used by the cli-analyze
workload's traced run.

Usage: python analyze_child.py <spans.json> <gatecap arguments...>

Runs gatecap.cli.main with spans recorded, writes them to <spans.json> and
exits with main's exit code.
"""

import json
import sys

from tracing import Tracer

import gatecap.cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    with Tracer() as tracer:
        rc = gatecap.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
