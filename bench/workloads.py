"""The four CLI workloads and the verdict checks for their reports.

Every verdict is checked against ``reference.json`` next to this file, which
holds data that does not come from the timed code paths: Table 1 as
transcribed, the matrix-free arithmetic audit of the chain triples, and the
names of the property checks that ``mpqc verify`` runs per seed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).with_name("reference.json")
VERIFY_SEEDS = 5  # consecutive seeds per verify-seeds run, from the benchmark seed

_PARAMS = re.compile(r"\[\[(\d+),(\d+),(?:>=)?(\d+)\]\]")


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


@dataclass
class Counts:
    """Operations of one or more CLI processes, by outcome.

    An operation is a table row, a chain depth triple or a verify check.
    ``unreached`` are refusals by a budget or construction limit; ``failed``
    are wrong verdicts, internal failures, unexpected exit codes and
    timeouts.
    """

    verified: int = 0
    unreached: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.verified + self.unreached + self.failed

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def demote(self, note: str) -> None:
        """Record a process-level fault as one failed operation."""
        self.notes.append(note)
        if self.failed:
            return
        if self.verified:
            self.verified -= 1
        elif self.unreached:
            self.unreached -= 1
        self.failed += 1

    def add(self, other: "Counts") -> None:
        self.verified += other.verified
        self.unreached += other.unreached
        self.failed += other.failed
        self.notes.extend(other.notes)


def _params(text: str) -> tuple[int, int, int] | None:
    m = _PARAMS.fullmatch(text or "")
    return tuple(int(g) for g in m.groups()) if m else None


def _matches(got, nkd) -> bool:
    """Same (n, k) as the reference and a distance floor at least as high."""
    return got is not None and tuple(got[:2]) == tuple(nkd[:2]) and got[2] >= nkd[2]


def check_table1(report: dict, ref: dict) -> Counts:
    c = Counts()
    rows = {(r.get("l"), r.get("d"), r.get("case")): r for r in report.get("rows", [])}
    for e in ref["table1"]:
        key = f"table1 l={e['l']} d={e['d']} case {e['case']}"
        r = rows.get((e["l"], e["d"], e["case"]))
        if r is None:
            c.fail(f"{key}: row missing")
            continue
        how = r.get("verification", "")
        if how.startswith("constructed"):
            if _matches(_params(r.get("verified")), e["nkd"]):
                c.verified += 1
            else:
                c.fail(f"{key}: built {r.get('verified')!r}, reference {e['nkd']}")
        elif how.startswith("formula-only (") and "default depth" not in how:
            c.unreached += 1
        else:
            c.fail(f"{key}: {how!r}")
    return c


def _check_triples(achieved: list[dict], expected: list[dict], internal_failures: int) -> Counts:
    c = Counts()
    got = {tuple(r.get("deltas", ())): r for r in achieved if r.get("verified") is True}
    for e in expected:
        r = got.pop(tuple(e["deltas"]), None)
        if r is None:
            c.unreached += 1
        elif _matches((r.get("n"), r.get("k"), r.get("d_geq", 0)), e["nkd"]):
            c.verified += 1
        else:
            c.fail(f"deltas {e['deltas']}: built [[{r.get('n')},{r.get('k')},{r.get('d_geq')}]], reference {e['nkd']}")
    for deltas in got:
        c.fail(f"deltas {list(deltas)}: not in the reference")
    # builds that failed internally are skipped by the CLI, so they were
    # counted as unreached above
    moved = min(internal_failures, c.unreached)
    c.unreached -= moved
    for _ in range(moved):
        c.fail("internal failure in a chain build")
    return c


def check_chain_l9(report: dict, ref: dict) -> Counts:
    internal = report.get("status", {}).get("internal_failures", 0)
    return _check_triples(report.get("achieved", []), ref["chains"]["9"], internal)


def check_build_l17(report: dict, ref: dict) -> Counts:
    rows = report.get("rows", [])
    detail = report.get("detail", {})
    achieved = []
    if rows and "error" not in rows[0]:
        got = _params(rows[0].get("quantum"))
        if got is not None:
            n, k, d = got
            achieved.append(
                {"deltas": detail.get("deltas"), "n": n, "k": k, "d_geq": d, "verified": rows[0].get("verified")}
            )
    return _check_triples(achieved, ref["chains"]["17"], 0)


def check_verify(report: dict, ref: dict) -> Counts:
    c = Counts()
    got = {(r.get("suite"), r.get("check")): r for r in report.get("rows", [])}
    for suite, check in ref["verify_checks"]:
        r = got.get((suite, check))
        if r is None:
            c.fail(f"verify {suite}/{check}: missing")
        elif r.get("passed") is True:
            c.verified += 1
        else:
            c.fail(f"verify {suite}/{check}: {r.get('details')!r}")
    return c


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argvs: Callable[[int], list[list[str]]]  # benchmark seed -> one argv per CLI process
    check: Callable[[dict, dict], Counts]
    ops: Callable[[dict], int]  # operations per CLI process, from the reference
    expected_exit: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1-deep",
            "ten Table-1 rows over GF(25/49/81); the code distance oracles dominate and five rows hit budgets",
            lambda seed: [["table1", "--deep"]],
            check_table1,
            lambda ref: len(ref["table1"]),
            0,
        ),
        Workload(
            "chain-l9-deep",
            "35 chain builds of length-246 products over GF(81); rref and containment checks dominate",
            lambda seed: [["example", "--which", "3.8", "--l", "9", "--deep"]],
            check_chain_l9,
            lambda ref: len(ref["chains"]["9"]),
            2,
        ),
        Workload(
            "chain-l17",
            "one [870,855] product over GF(289); the same layers as chain-l9-deep at 3.5x length and 3.6x field order",
            lambda seed: [["build", "--theorem", "main2", "--l", "17", "--deltas", "1,2,3"]],
            check_build_l17,
            lambda ref: len(ref["chains"]["17"]),
            2,
        ),
        Workload(
            "verify-seeds",
            "property batteries for consecutive seeds: thousands of small rref calls, where per-call overhead matters",
            lambda seed: [["verify", "--suite", "all", "--seed", str(seed + i)] for i in range(VERIFY_SEEDS)],
            check_verify,
            lambda ref: len(ref["verify_checks"]),
            0,
        ),
    )
}


def judge(w: Workload, ref: dict, exit_code: int | None, stdout: str, fault: str | None = None) -> Counts:
    """Verdict counts for one CLI process of workload ``w``.

    ``fault`` names a timeout or crash; every operation of the process then
    counts as failed, since none reached a verdict.
    """
    if fault is None:
        try:
            report = json.loads(stdout)
        except ValueError:
            fault = "output is not JSON"
    if fault is not None:
        c = Counts(failed=w.ops(ref))
        c.notes.append(fault)
        return c
    c = w.check(report, ref)
    if exit_code != w.expected_exit:
        c.demote(f"exit code {exit_code}, expected {w.expected_exit}")
    return c
