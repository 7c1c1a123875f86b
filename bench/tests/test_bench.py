"""Tests of the benchmark itself: span arithmetic, tracer coverage, verdicts.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
The coverage test runs every workload once traced (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Tracer, aggregate, layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS, judge, load_reference  # noqa: E402

REF = load_reference()


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_on_nested_span_tree():
    # name, parent, start, end, work, error
    spans = [
        ["a", -1, 0.0, 10.0, None, None],  # 0: children b [1,4], c [5,9]
        ["b", 0, 1.0, 4.0, 7, None],  # 1: leaf
        ["c", 0, 5.0, 9.0, 5, None],  # 2: child d [6,7]
        ["d", 2, 6.0, 7.0, None, "BudgetError"],  # 3: leaf
        ["e", -1, 20.0, 30.0, None, None],  # 4: recursive: child e [22,26]
        ["e", 4, 22.0, 26.0, None, "propagated"],  # 5: child e [23,24]
        ["e", 5, 23.0, 24.0, None, None],  # 6
    ]
    agg = aggregate(spans)
    assert agg["a"]["self_s"] == pytest.approx(3.0)
    assert agg["b"]["self_s"] == pytest.approx(3.0)
    assert agg["c"]["self_s"] == pytest.approx(3.0)
    assert agg["d"]["self_s"] == pytest.approx(1.0)
    assert agg["a"]["total_s"] == pytest.approx(10.0)
    assert agg["b"]["work"] + agg["c"]["work"] == 12
    assert agg["d"]["errors"] == {"BudgetError": 1}
    # recursion: self times add up to the outer span; total counts it once
    assert agg["e"]["calls"] == 3
    assert agg["e"]["self_s"] == pytest.approx(10.0)
    assert agg["e"]["total_s"] == pytest.approx(10.0)
    assert agg["e"]["durations"] == [10.0]


def test_overlapping_children_are_counted_once():
    spans = [
        ["p", -1, 0.0, 10.0, None, None],
        ["x", 0, 2.0, 6.0, None, None],
        ["y", 0, 4.0, 8.0, None, None],  # overlaps x on [4, 6]
        ["z", 0, 9.0, 12.0, None, None],  # runs past its parent's end
    ]
    assert aggregate(spans)["p"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_nesting_keys_and_error_origin():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Boom(Exception):
        pass

    def leaf(x):
        if x < 0:
            raise Boom
        return x

    inner = tracer.wrap("inner", leaf, work=lambda a: ("key", a["x"]))

    def outer_fn(x):
        return inner(x) + inner(x)

    outer = tracer.wrap("outer", outer_fn)
    assert outer(2) == 4
    with pytest.raises(Boom):
        outer(-1)
    agg = aggregate(tracer.spans)
    assert agg["outer"]["calls"] == 2 and agg["inner"]["calls"] == 3
    assert agg["inner"]["distinct"] == 2 and agg["inner"]["repeats"] == 1
    assert agg["inner"]["errors"] == {"Boom": 1}
    assert agg["outer"]["errors"] == {"propagated": 1}
    parents = {tuple(s[:2]) for s in tracer.spans}
    assert ("inner", 0) in parents and ("outer", -1) in parents
    # every tick is inside exactly one span's own time
    assert sum(s["self_s"] for s in agg.values()) == pytest.approx(
        sum(s[3] - s[2] for s in tracer.spans if s[1] < 0)
    )


def test_merge_sums_processes():
    a = aggregate([["f", -1, 0.0, 1.0, ("k",), None]])
    b = aggregate([["f", -1, 0.0, 2.0, ("k",), "BudgetError"]])
    m = merge([a, b])["f"]
    assert m["calls"] == 2 and m["total_s"] == pytest.approx(3.0)
    assert m["distinct"] == 2 and m["repeats"] == 0  # caches are per process
    assert m["errors"] == {"BudgetError": 1}


# ---------------------------------------------------------------------------
# verdict checks


def _params(n, k, d):
    return f"[[{n},{k},>={d}]]"


def good_table1():
    rows = []
    for e in REF["table1"]:
        row = {"l": e["l"], "d": e["d"], "case": e["case"]}
        if e["l"] == 7 and e["case"] != "i":
            row.update(verified="", verification="formula-only (budget)")
        else:
            row.update(verified=_params(*e["nkd"]), verification="constructed")
        rows.append(row)
    return {"rows": rows, "status": {"internal_failures": 0}}


def good_chain(l):
    achieved = [
        {"deltas": e["deltas"], "n": e["nkd"][0], "k": e["nkd"][1], "d_geq": e["nkd"][2], "verified": True}
        for e in REF["chains"][str(l)]
    ]
    return {"achieved": achieved, "status": {"internal_failures": 0}}


def good_build():
    e = REF["chains"]["17"][0]
    return {
        "rows": [{"quantum": _params(*e["nkd"]), "verified": True}],
        "detail": {"deltas": e["deltas"]},
        "status": {"internal_failures": 0},
    }


def good_verify():
    rows = [{"suite": s, "check": c, "passed": True, "details": ""} for s, c in REF["verify_checks"]]
    return {"rows": rows, "status": {"internal_failures": 0}}


def judged(name, report, exit_code=None, fault=None):
    w = WORKLOADS[name]
    code = w.expected_exit if exit_code is None else exit_code
    return judge(w, REF, code, json.dumps(report), fault)


def test_untampered_reports_pass():
    c = judged("table1-deep", good_table1())
    assert (c.verified, c.unreached, c.failed) == (7, 3, 0)
    assert (judged("chain-l9-deep", good_chain(9)).verified, judged("chain-l17", good_build()).verified) == (35, 1)
    c = judged("verify-seeds", good_verify())
    assert (c.verified, c.failed) == (23, 0)


def test_tampered_table_row_fails():
    report = good_table1()
    row = next(r for r in report["rows"] if r["verification"] == "constructed")
    n, k, d = (int(x) for x in row["verified"].strip("[]").replace(">=", "").split(","))
    row["verified"] = _params(n, k - 1, d)
    c = judged("table1-deep", report)
    assert c.failed == 1 and c.verified == 6


def test_improvements_are_accepted():
    report = good_table1()
    for r in report["rows"]:
        e = next(x for x in REF["table1"] if (x["l"], x["d"], x["case"]) == (r["l"], r["d"], r["case"]))
        r.update(verified=_params(e["nkd"][0], e["nkd"][1], e["nkd"][2] + 1), verification="constructed")
    c = judged("table1-deep", report)
    assert (c.verified, c.unreached, c.failed) == (10, 0, 0)


def test_tampered_chain_triple_fails():
    report = good_chain(9)
    report["achieved"][5]["k"] += 1
    c = judged("chain-l9-deep", report)
    assert (c.verified, c.failed) == (34, 1)
    report = good_build()
    report["rows"][0]["quantum"] = report["rows"][0]["quantum"].replace(",840,", ",841,")
    assert judged("chain-l17", report).failed == 1


def test_lost_chain_triple_is_unreached_not_failed():
    report = good_chain(9)
    del report["achieved"][3]
    c = judged("chain-l9-deep", report)
    assert (c.verified, c.unreached, c.failed) == (34, 1, 0)


def test_wrong_exit_code_fails():
    assert judged("chain-l9-deep", good_chain(9), exit_code=0).failed == 1
    assert judged("table1-deep", good_table1(), exit_code=2).failed == 1
    assert judged("verify-seeds", good_verify(), exit_code=1).failed == 1


def test_failed_verify_check_and_timeout_fail():
    report = good_verify()
    report["rows"][4]["passed"] = False
    assert judged("verify-seeds", report).failed == 1
    report["rows"].pop(0)
    assert judged("verify-seeds", report).failed == 2
    c = judged("chain-l9-deep", good_chain(9), fault="timed out")
    assert (c.verified, c.failed) == (0, 35)


def test_reference_matches_its_sources():
    """reference.json still equals the transcribed table and the arithmetic audit."""
    from mpqc.claims import TABLE1
    from mpqc.cli import cmd_example

    assert [(r["l"], r["d"], r["case"], list(r["new"])) for r in TABLE1] == [
        (e["l"], e["d"], e["case"], e["nkd"]) for e in REF["table1"]
    ]
    for l in (9, 17):
        audit = cmd_example("3.8", l, strict=False, deep=False)["achieved"]
        got = {tuple(r["deltas"]): [r["n"], r["k"], r["d_geq"]] for r in audit}
        for e in REF["chains"][str(l)]:
            assert got[tuple(e["deltas"])] == e["nkd"]


# ---------------------------------------------------------------------------
# tracer coverage on the real workloads

# Per-layer metrics that must be nonzero on the workload they should move.
# Not listed: constructions.extended_rs_dual_containing.*, which no workload
# reaches today (Table 1 has no case iii or iv row), and the gf rates and
# trace.overhead, which do not come from spans.
SHOULD_MOVE = {
    "table1-deep": [
        "gf.field_build.calls", "gf.field_build.self_s",
        "code.from_generator.calls", "code.from_generator.self_s",
        "code.exhaustive.calls", "code.exhaustive.messages", "code.exhaustive.self_s",
        "code.supports.calls", "code.supports.masks", "code.supports.self_s",
        "code.is_mds.calls", "code.is_mds.subsets_bound", "code.is_mds.self_s",
        "code.budget_errors",
        "constructions.rs_dual_containing.calls", "constructions.rs_dual_containing.cache_hits",
        "constructions.rs_dual_containing.errors", "constructions.rs_dual_containing.self_s",
        "constructions.negacyclic_mds_dual_containing.calls",
        "constructions.negacyclic_mds_dual_containing.cache_hits",
        "constructions.negacyclic_mds_dual_containing.errors",
        "constructions.negacyclic_mds_dual_containing.self_s",
        "product.character_product.calls", "product.character_product.self_s",
        "product.frr_distance_bound.calls", "product.frr_distance_bound.self_s",
        "quantum.build_case.calls", "quantum.build_case.total_s",
        "quantum.build_case.median_s", "quantum.build_case.max_s",
        "quantum.hermitian_construction.self_s", "cli.cmd_table1.self_s", "cli.emit.total_s",
    ],
    "chain-l9-deep": [
        "gf.field_build.calls", "gf.field_build.self_s",
        "matrix.rref.calls", "matrix.rref.cells", "matrix.rref.self_s",
        "matrix.nullspace.calls", "matrix.nullspace.self_s",
        "matrix.det_inverse.calls", "matrix.det_inverse.self_s",
        "code.containment.checks", "code.containment.distinct", "code.containment.self_s",
        "negacyclic.negacyclic_code.calls", "negacyclic.negacyclic_code.self_s",
        "product.matrix_product_code.calls", "product.matrix_product_code.self_s",
        "product.nested_chain_product.calls", "product.nested_chain_product.self_s",
        "product.is_nsc.calls", "product.is_nsc.self_s",
        "quantum.build_chain.calls", "quantum.build_chain.total_s",
        "quantum.build_chain.median_s", "quantum.build_chain.max_s",
        "quantum.hermitian_construction.self_s", "cli.cmd_example.self_s", "cli.emit.total_s",
    ],
    "chain-l17": [
        "matrix.rref.calls", "matrix.rref.cells", "matrix.rref.self_s",
        "code.containment.checks", "code.containment.self_s",
        "negacyclic.negacyclic_code.calls", "negacyclic.negacyclic_code.self_s",
        "product.matrix_product_code.calls", "product.nested_chain_product.calls",
        "quantum.build_chain.calls", "quantum.build_chain.max_s",
        "quantum.hermitian_construction.self_s", "cli.cmd_build.self_s", "cli.emit.total_s",
    ],
    "verify-seeds": [
        "gf.field_build.calls", "gf.field_build.self_s",
        "matrix.rref.calls", "matrix.rref.cells", "matrix.rref.self_s",
        "matrix.matmul.calls", "matrix.matmul.self_s",
        "code.exhaustive.calls", "code.exhaustive.messages",
        *(f"verify.{s}.total_s" for s in ("fields", "duals", "mpc", "negacyclic", "quantum")),
        "cli.cmd_verify.self_s", "cli.emit.total_s",
    ],
}


@pytest.fixture(scope="module")
def traced_metrics():
    out = {}
    for name, w in WORKLOADS.items():
        rep = run.run_rep(w, 7, REF, run.Deadline(run.RUN_LIMIT_S), traced=True)
        assert rep["counts"].failed == 0, rep["counts"].notes
        out[name] = layer_metrics(merge(rep["spans"]))
    return out


@pytest.mark.parametrize("workload", sorted(SHOULD_MOVE))
def test_layer_metric_nonzero_where_it_should_move(traced_metrics, workload):
    metrics = traced_metrics[workload]
    zero = [m for m in SHOULD_MOVE[workload] if not metrics[m] > 0]
    assert not zero


def test_largest_self_time_share(traced_metrics):
    def top_layer(m):
        oracles = m["code.exhaustive.self_s"] + m["code.supports.self_s"] + m["code.is_mds.self_s"]
        return max({"code-oracles": oracles, "matrix": m["matrix.rref.self_s"]}.items(), key=lambda kv: kv[1])[0]

    assert top_layer(traced_metrics["table1-deep"]) == "code-oracles"
    assert top_layer(traced_metrics["chain-l9-deep"]) == "matrix"
    assert top_layer(traced_metrics["chain-l17"]) == "matrix"


def test_layer_metrics_match_benchmark_json():
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    produced = list(layer_metrics({})) + list(run.gf_rates(0)) + ["trace.overhead"]
    assert sorted(declared) == sorted(produced)


# ---------------------------------------------------------------------------
# refusal without a source tree


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, "bench/run.py", "--workload", "verify-seeds", "--seed", "1", "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
