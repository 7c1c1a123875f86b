"""Golden CLI snapshots: the JSON output of fast invocations, byte for byte.

The files under tests/golden/ are the expected standard output.  Any intended
change to one of them is a named entry in CHANGES.md; regenerate a snapshot
with ``python -m mpqc.cli <argv> --format json > tests/golden/<name>.json``.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mpqc.cli import main

GOLDEN = Path(__file__).parent / "golden"

# snapshot name -> (argv, exit code)
CASES = {
    "table1": (["table1"], 0),
    "example-3.8-l5": (["example", "--which", "3.8", "--l", "5"], 2),
    "example-3.10-l7": (["example", "--which", "3.10", "--l", "7"], 2),
    "example-3.8-l13": (["example", "--which", "3.8", "--l", "13"], 2),
    "build-3.5-l5-d4-i": (["build", "--theorem", "3.5", "--l", "5", "--d", "4", "--case", "i"], 0),
    "build-3.1-l3": (["build", "--theorem", "3.1", "--l", "3", "--d", "1,2,2,4"], 0),
    "build-main2-l5": (["build", "--theorem", "main2", "--l", "5", "--deltas", "0,1,2"], 2),
    "build-main3-l7": (["build", "--theorem", "main3", "--l", "7", "--deltas", "1,2,3"], 2),
    "verify-all-42": (["verify", "--suite", "all", "--seed", "42"], 0),
    "example-3.10-l7-strict": (["example", "--which", "3.10", "--l", "7", "--strict"], 2),
    "example-3.10-l11-strict": (["example", "--which", "3.10", "--l", "11", "--strict"], 2),
    "build-3.5-l5-d4-v": (["build", "--theorem", "3.5", "--l", "5", "--d", "4", "--case", "v"], 0),
    "build-main1-half-l7": (
        ["build", "--theorem", "main1", "--family", "half", "--l", "7", "--deltas", "1,1,2"],
        2,
    ),
    "example-3.8-l9-deep": (["example", "--which", "3.8", "--l", "9", "--deep"], 2),
    "build-main2-l17": (["build", "--theorem", "main2", "--l", "17", "--deltas", "1,2,3"], 2),
    "table1-deep": (["table1", "--deep"], 0),
    "verify-all-7": (["verify", "--suite", "all", "--seed", "7"], 0),
    "example-3.10-l11-deep": (["example", "--which", "3.10", "--l", "11", "--deep"], 2),
    # d = l components: the curve-drop rung's success path
    "build-3.1-l3-d1233": (["build", "--theorem", "3.1", "--l", "3", "--d", "1,2,3,3"], 0),
    "build-3.1-l5-d2335": (["build", "--theorem", "3.1", "--l", "5", "--d", "2,3,3,5"], 0),
    # the seeds the benchmark's verify-seeds workload runs
    **{f"verify-all-{s}": (["verify", "--suite", "all", "--seed", str(s)], 0) for s in range(1, 6)},
}


def test_every_snapshot_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


def test_the_identity_gate_runs_every_snapshot_as_text_and_json():
    from identity import INVOCATIONS

    for argv, _ in CASES.values():
        assert argv in INVOCATIONS and argv + ["--format", "json"] in INVOCATIONS, argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_snapshot(name):
    argv, exit_code = CASES[name]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv + ["--format", "json"])
    assert code == exit_code
    assert buf.getvalue() == (GOLDEN / f"{name}.json").read_text()
