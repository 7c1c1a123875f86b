"""Byte-identity gate: one committed list of CLI invocations, each run in a
cold process in this tree and in another, and every invocation whose
stdout, stderr or exit code differs printed.

    python tests/identity.py PARENT_TREE

PARENT_TREE is a copy of the tree to compare against, for example the parent
commit unpacked by ``git archive``.  Each invocation runs
``python -m mpqc.cli ARGV`` with PYTHONPATH set to the tree's ``src`` and no
bytecode written, from one scratch working directory shared by both trees.
The last line is the summary; exits 0 when nothing differs.

Standard library only.  The file name does not match ``test_*.py``, so tier-1
does not collect it; tests/test_golden.py checks that every golden's
invocation is on the list.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the argv of every snapshot in tests/golden, each run as text (md) and json
GOLDEN = [
    ["table1"],
    ["table1", "--deep"],
    ["example", "--which", "3.8", "--l", "5"],
    ["example", "--which", "3.8", "--l", "13"],
    ["example", "--which", "3.8", "--l", "9", "--deep"],
    ["example", "--which", "3.10", "--l", "7"],
    ["example", "--which", "3.10", "--l", "7", "--strict"],
    ["example", "--which", "3.10", "--l", "11", "--strict"],
    ["example", "--which", "3.10", "--l", "11", "--deep"],
    ["build", "--theorem", "3.1", "--l", "3", "--d", "1,2,2,4"],
    ["build", "--theorem", "3.1", "--l", "3", "--d", "1,2,3,3"],
    ["build", "--theorem", "3.1", "--l", "5", "--d", "2,3,3,5"],
    ["build", "--theorem", "3.5", "--l", "5", "--d", "4", "--case", "i"],
    ["build", "--theorem", "3.5", "--l", "5", "--d", "4", "--case", "v"],
    ["build", "--theorem", "main1", "--family", "half", "--l", "7", "--deltas", "1,1,2"],
    ["build", "--theorem", "main2", "--l", "5", "--deltas", "0,1,2"],
    ["build", "--theorem", "main2", "--l", "17", "--deltas", "1,2,3"],
    ["build", "--theorem", "main3", "--l", "7", "--deltas", "1,2,3"],
    *(["verify", "--suite", "all", "--seed", str(s)] for s in (1, 2, 3, 4, 5, 7, 42)),
]

INVOCATIONS = [
    *(argv + fmt for argv in GOLDEN for fmt in ([], ["--format", "json"])),
    # the three chain theorems at l = 13, 17 and 29
    *(
        ["build", "--theorem", theorem, "--l", str(l), "--deltas", "1,2,3"]
        for theorem in ("main1", "main2", "main3")
        for l in (13, 17, 29)
    ),
    # refusals: a column-subset budget, the extension cap, a curve drop that
    # cannot be certified, a code that cannot be built, an input outside the
    # theorem
    ["build", "--theorem", "3.5", "--l", "37", "--d", "4", "--case", "i"],
    ["build", "--theorem", "main2", "--l", "37", "--deltas", "1,2,3"],
    ["build", "--theorem", "3.1", "--l", "7", "--d", "1,2,2,7"],
    ["build", "--theorem", "3.1", "--l", "2", "--d", "1,2,2,4"],
    ["build", "--theorem", "main3", "--l", "5", "--deltas", "1,2,3"],
]


def run(tree: Path, argv: list[str], cwd: str) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "mpqc.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    return proc.stdout, proc.stderr, proc.returncode


def main(args: list[str]) -> int:
    if len(args) != 1 or not (Path(args[0]) / "src" / "mpqc").is_dir():
        print("usage: python tests/identity.py PARENT_TREE (a tree with src/mpqc)")
        return 1
    parent = Path(args[0]).resolve()
    start = time.perf_counter()
    differ = 0
    with tempfile.TemporaryDirectory(prefix="mpqc-identity-") as cwd:
        for argv in INVOCATIONS:
            ours, theirs = run(ROOT, argv, cwd), run(parent, argv, cwd)
            if ours != theirs:
                differ += 1
                what = [name for name, a, b in zip(("stdout", "stderr", "exit code"), ours, theirs) if a != b]
                print(f"differs ({', '.join(what)}): mpqc {' '.join(argv)}", flush=True)
    print(
        f"{len(INVOCATIONS)} invocations, {differ} differ "
        f"(stdout, stderr and exit code against {parent.name}; {time.perf_counter() - start:.0f} s)"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
