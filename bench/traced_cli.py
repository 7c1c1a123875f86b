"""Run one ``mpqc`` CLI invocation with spans installed.

Usage: python3 bench/traced_cli.py <mpqc arguments...>

Prints one JSON object: the CLI's exit code, its captured standard output
and the aggregated spans of the process.  ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import mpqc.cli
from spans import Tracer, aggregate, install


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mpqc.cli.main(argv)
    json.dump({"exit": code, "stdout": out.getvalue(), "spans": aggregate(tracer.spans)}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
