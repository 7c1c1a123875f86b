import io
import json
from contextlib import redirect_stdout

import pytest

from mpqc.cli import main


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_table1_default_passes():
    code, out = run_cli(["table1"])
    assert code == 0
    assert "[[96,86,>=4]]" in out
    assert out.count("formula-only") == 8  # only the two small rows build by default


def test_table1_json_schema():
    code, out = run_cli(["table1", "--format", "json"])
    doc = json.loads(out)
    assert doc["command"] == "table1"
    assert len(doc["rows"]) == 10
    assert all(r["formula_match"] for r in doc["rows"])
    assert doc["status"]["exit_code"] == 0


def test_table1_csv():
    code, out = run_cli(["table1", "--format", "csv"])
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 11  # header plus ten rows
    assert lines[0].startswith("l,d,case,")


def test_example_relaxed_flags_discrepancies():
    code, out = run_cli(["example", "--which", "3.8", "--l", "5"])
    assert code == 2
    assert "[[78,60,>=6]]" in out
    assert "[[78,68,>=4]]" in out


def test_example_strict_reports_empty_search():
    code, out = run_cli(["example", "--which", "3.8", "--l", "5", "--strict"])
    assert code == 2
    assert "no admissible depth triple" in out


def test_example_half_family():
    code, out = run_cli(["example", "--which", "3.10", "--l", "7"])
    assert code == 2
    assert "[[75,51,>=7]]" in out


def test_example_arithmetic_audit_at_large_l():
    code, out = run_cli(["example", "--which", "3.8", "--l", "13", "--format", "json"])
    doc = json.loads(out)
    assert doc["status"]["exit_code"] == 2
    assert all(r["grade"] in ("arithmetic-audit", "") for r in doc["rows"])


def test_example_rejects_unlisted_l():
    code, out = run_cli(["example", "--which", "3.8", "--l", "7"])
    assert code == 1


def test_example_handles_duplicated_claims():
    # the l = 9 claim list repeats two entries verbatim; each printed claim
    # gets its own audit row
    code, out = run_cli(["example", "--which", "3.8", "--l", "9", "--format", "json"])
    doc = json.loads(out)
    assert len(doc["rows"]) == 6
    assert code == 2


def test_table1_deep_constructs_more_rows():
    code, out = run_cli(["table1", "--deep"])
    assert code == 0
    assert out.count("| constructed |") == 5  # both l=5 rows, (7,4,i), (9,4,i), (9,4,v)
    assert "exceed budget" in out  # the certificate-bound rows say why


def test_build_case_command():
    code, out = run_cli(["build", "--theorem", "3.5", "--l", "5", "--d", "4", "--case", "i"])
    assert code == 0
    assert "[[96,86,>=4]]" in out


def test_build_chain_command_json():
    code, out = run_cli(
        ["build", "--theorem", "main2", "--l", "5", "--deltas", "0,1,2", "--format", "json"]
    )
    doc = json.loads(out)
    assert doc["status"]["exit_code"] == 2  # bookkeeping discrepancy is expected
    assert doc["detail"]["quantum"]["k"] == 60
    assert doc["detail"]["claimed"]["k"] == 72


def test_build_character_product_command():
    code, out = run_cli(["build", "--theorem", "3.1", "--l", "3", "--d", "1,2,2,4"])
    assert code == 0
    assert "[32,27]" in out


def test_build_bad_inputs_exit_one():
    code, _ = run_cli(["build", "--theorem", "3.5", "--l", "5", "--d", "3", "--case", "ii"])
    assert code == 1
    code, _ = run_cli(["build", "--theorem", "main2", "--l", "7", "--deltas", "0,1,2"])
    assert code == 1
    code, _ = run_cli(["build", "--theorem", "3.5", "--l", "5"])  # missing --d
    assert code == 1
    code, _ = run_cli(["build", "--theorem", "main2", "--l", "5"])  # missing --deltas
    assert code == 1


def test_verify_single_suite():
    code, out = run_cli(["verify", "--suite", "fields", "--seed", "7"])
    assert code == 0
    assert "field axioms" in out


def test_verify_deterministic_output():
    code1, out1 = run_cli(["verify", "--suite", "duals", "--seed", "3", "--format", "json"])
    code2, out2 = run_cli(["verify", "--suite", "duals", "--seed", "3", "--format", "json"])
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "nonsense"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--budget", "abc"],
        ["example", "--which", "3.8"],  # missing --l
        ["build", "--theorem", "3.5", "--l", "5", "--d", "x"],
        ["table1", "--enum-budget", "5"],  # no such option
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    # 2 is reserved for "verified, with discrepancies"
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: mpqc") and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--deep", "--budget", "-1"],
        ["build", "--theorem", "3.1", "--l", "3", "--d", "1,2,3,3", "--budget", "-5"],
    ],
)
def test_negative_budget_is_a_usage_error(argv, capsys):
    # refused while parsing: nothing is built, so no row reads "formula-only"
    # and no build counts an internal failure
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: mpqc {argv[0]}")
    [message] = [line for line in err.splitlines() if "error:" in line]
    assert message == f"mpqc {argv[0]}: error: argument --budget: must be a non-negative integer, got {argv[-1]}"


def test_zero_budget_stays_legal():
    code, out = run_cli(["table1", "--budget", "0"])
    assert code == 0
    assert "budget=0" in out
    code, out = run_cli(["build", "--theorem", "3.1", "--l", "3", "--d", "1,2,3,3", "--budget", "0", "--format", "json"])
    doc = json.loads(out)
    assert code == doc["status"]["exit_code"]  # parsed and run: the refusal is the budget's
    assert doc["rows"][0]["error"] == "C(8,1) column subsets exceed budget 0"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--help"])
    assert exc.value.code == 0
    assert "--theorem" in capsys.readouterr().out


def test_build_case_refuses_several_distances():
    code, out = run_cli(
        ["build", "--theorem", "3.5", "--l", "5", "--d", "4,8", "--case", "i", "--format", "json"]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["rows"] == [{"construction": "3.5", "error": "--d takes one distance for 3.5"}]
    assert doc["detail"] == {}


def test_verify_reports_injected_failure(monkeypatch):
    # a suite whose invariant is corrupted must surface as a structured
    # failure row and a nonzero exit, not as a crash
    import mpqc.verify as verify_mod

    def broken_suite(seed):
        b = verify_mod.Battery("fields", seed)
        b.check("corrupt generator fixture", lambda: (_ for _ in ()).throw(AssertionError("rank lied")))
        return b.report()

    monkeypatch.setitem(verify_mod.SUITES, "fields", broken_suite)
    code, out = run_cli(["verify", "--suite", "fields", "--seed", "1", "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["rows"][0]["passed"] is False
    assert "rank lied" in doc["rows"][0]["details"]


@pytest.mark.parametrize(
    "command",
    [
        ["table1"],
        ["example", "--which", "3.8", "--l", "5"],
        ["build", "--theorem", "main2", "--l", "5", "--deltas", "0,1,2"],
    ],
)
def test_engine_failures_are_counted_and_bugs_propagate(monkeypatch, command):
    from mpqc import cli
    from mpqc.negacyclic import NegacyclicError
    from mpqc.product import ConsistencyError

    def buggy(*args, **kwargs):
        raise TypeError("a bug, not a verification failure")

    # a ValueError subclass and a RuntimeError one: both are engine failures
    for exc in (
        NegacyclicError("root pattern mismatch at exponent 1"),
        ConsistencyError("chain product lost dual containment"),
    ):
        def failing(*args, exc=exc, **kwargs):
            raise exc

        for name in ("build_case", "build_chain"):
            monkeypatch.setattr(cli, name, failing)
        code, out = run_cli(command)
        assert code == 1
        assert "internal failures: 0" not in out
    for name in ("build_case", "build_chain"):
        monkeypatch.setattr(cli, name, buggy)
    with pytest.raises(TypeError):
        run_cli(command)


def test_audit_rows_are_made_only_when_no_build_verifies(monkeypatch):
    from mpqc import cli
    from mpqc.constructions import ConstructionError
    from mpqc.quantum import admissible_triples, chain_audit

    def refused(*args, **kwargs):
        raise ConstructionError("refused")

    # every build refused: the rows are the arithmetic audit of each triple
    with monkeypatch.context() as m:
        m.setattr(cli, "build_chain", refused)
        report = cli.cmd_example("3.8", 9, False, True)
    audit = [chain_audit(9, t, "full") for t in admissible_triples(9, "full", False)]
    assert report["achieved"] == audit
    assert {r["grade"] for r in report["rows"]} == {"arithmetic-audit"}

    # every build verified: no audit row is made
    calls = []
    monkeypatch.setattr(cli, "chain_audit", lambda *args: calls.append(args))
    report = cli.cmd_example("3.8", 9, False, True)
    assert len(report["achieved"]) == len(audit)
    assert all(r["verified"] for r in report["achieved"])
    assert calls == []
