"""Command-line front end: audit tables, rebuild claimed codes, run batteries.

Subcommands
    table1   recompute the ten-row comparison table from the case formulas,
             verifying the small rows by full construction
    example  rebuild one of the two chain claim sets at a given subfield
             order, searching depth triples and comparing to the claims
    build    run a single construction (3.1, 3.5, main1, main2, main3)
    verify   run the seeded property batteries

Exit codes: 0 everything verified and matching, 2 verified but at least one
discrepancy against the transcribed claims, 1 internal verification failure
or unusable input, argument errors included.  Output is deterministic for a
fixed invocation.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .claims import CHAIN_EXAMPLES, TABLE1
from .code import DEFAULT_SUBSET_BUDGET, BudgetError
from .constructions import ConstructionError
from .gf import FieldError
from .negacyclic import NegacyclicError
from .product import ConsistencyError
from .quantum import (
    admissible_triples,
    build_case,
    build_chain,
    build_character_product,
    chain_audit,
    table1_formula_audit,
)
from .verify import run_suites

BUILD_DEPTH_LIMIT = 7  # largest subfield order fully constructed by default
# a failed internal check: counted as an internal failure of the row, while
# any other exception is a bug and propagates
ENGINE_FAILURES = (ConsistencyError, NegacyclicError, FieldError)


# ---------------------------------------------------------------------------
# emitters


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    rows = report.get("rows", [])
    if fmt == "csv":
        import csv  # only --format csv reads it; a cold process skips csv and _csv

        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for r in rows:
                writer.writerow(r)
        return buf.getvalue()
    # markdown
    lines = [f"# {report['command']}"]
    opts = report.get("options")
    if opts:
        lines.append("")
        lines.append("options: " + ", ".join(f"{k}={v}" for k, v in opts.items()))
    if rows:
        keys = list(rows[0].keys())
        lines.append("")
        lines.append("| " + " | ".join(keys) + " |")
        lines.append("|" + "|".join("---" for _ in keys) + "|")
        for r in rows:
            lines.append("| " + " | ".join(str(r.get(k, "")) for k in keys) + " |")
    status = report.get("status", {})
    lines.append("")
    lines.append(
        f"discrepancies: {status.get('discrepancies', 0)}, "
        f"internal failures: {status.get('internal_failures', 0)}, "
        f"exit: {status.get('exit_code', 0)}"
    )
    return "\n".join(lines) + "\n"


def _status(discrepancies: int, failures: int) -> dict:
    code = 1 if failures else (2 if discrepancies else 0)
    return {
        "discrepancies": discrepancies,
        "internal_failures": failures,
        "exit_code": code,
    }


def _fmt_params(n, k, d, geq=True) -> str:
    return f"[[{n},{k},{'>=' if geq else ''}{d}]]"


# ---------------------------------------------------------------------------
# table1


def cmd_table1(deep: bool, budget: int) -> dict:
    audits = table1_formula_audit()
    rows = []
    discrepancies = 0
    failures = 0
    for a in audits:
        l, d, case = a["l"], a["d"], a["case"]
        entry = {
            "l": l,
            "d": d,
            "case": case,
            "claimed": _fmt_params(a["claimed"]["n"], a["claimed"]["k"], a["claimed"]["d_geq"]),
            "formula": _fmt_params(a["formula"]["n"], a["formula"]["k"], a["formula"]["d_geq"]),
            "formula_match": a["match"],
            "compare": _fmt_params(
                a["compare"]["n"], a["compare"]["k"], a["compare"]["d"], geq=False
            ),
        }
        if not a["match"]:
            discrepancies += 1
        if l <= 5 or deep:
            try:
                cb = build_case(l, d, case, max_subsets=budget)
                entry["verified"] = _fmt_params(cb.built.n, cb.built.k, cb.built.d_lower)
                entry["verification"] = "constructed"
                if cb.built.discrepancy is not None:
                    discrepancies += 1
                    entry["verification"] = "constructed (disagrees with formula)"
            except (ConstructionError, BudgetError) as exc:
                entry["verified"] = ""
                entry["verification"] = f"formula-only ({exc})"
            except ENGINE_FAILURES as exc:  # pragma: no cover
                failures += 1
                entry["verified"] = ""
                entry["verification"] = f"internal failure ({exc})"
        else:
            entry["verified"] = ""
            entry["verification"] = "formula-only (default depth)"
        rows.append(entry)
    return {
        "command": "table1",
        "options": {"deep": deep, "budget": budget},
        "rows": rows,
        "status": _status(discrepancies, failures),
    }


# ---------------------------------------------------------------------------
# example


def cmd_example(which: str, l: int, strict: bool, deep: bool) -> dict:
    """Match one chain claim set against every admissible depth triple at l,
    built when l <= BUILD_DEPTH_LIMIT or deep.  The `chain_audit` rows are
    built only when they are emitted: when nothing was built or no build
    verified."""
    if which not in CHAIN_EXAMPLES:
        raise ValueError(f"unknown example {which!r}; choose 3.8 or 3.10")
    info = CHAIN_EXAMPLES[which]
    family = info["family"]
    if l not in info["claims"]:
        raise ValueError(f"example {which} lists no claims at l = {l}")
    claims = info["claims"][l]
    triples = admissible_triples(l, family, strict)
    build = l <= BUILD_DEPTH_LIMIT or deep

    verified: list[dict] = []
    failures = 0
    if build:
        for t in triples:
            try:
                cb = build_chain(l, t, family, strict=strict)
                verified.append(
                    {
                        "deltas": t,
                        "n": cb.quantum.n,
                        "k": cb.quantum.k,
                        "d_geq": cb.quantum.d_lower,
                        "verified": True,
                    }
                )
            except (ConstructionError, BudgetError):
                continue
            except ENGINE_FAILURES:  # pragma: no cover
                failures += 1

    records = verified if verified else [chain_audit(l, t, family) for t in triples]
    rows = []
    discrepancies = 0
    for cn, ck, cd in claims:
        candidates = [r for r in records if r["n"] == cn and r["d_geq"] >= cd]
        best = max(candidates, key=lambda r: (r["k"], -sum(r["deltas"]))) if candidates else None
        matched = best is not None and best["k"] >= ck
        if not matched:
            discrepancies += 1
        rows.append(
            {
                "claimed": _fmt_params(cn, ck, cd, geq=False),
                "best_achieved": _fmt_params(best["n"], best["k"], best["d_geq"]) if best else "none",
                "deltas": "" if best is None else ",".join(map(str, best["deltas"])),
                "grade": ("verified" if verified else "arithmetic-audit") if best else "",
                "match": matched,
            }
        )
    if not triples:
        rows.append(
            {
                "claimed": "(all)",
                "best_achieved": "no admissible depth triple",
                "deltas": "",
                "grade": "",
                "match": False,
            }
        )
        discrepancies += 1
    return {
        "command": "example",
        "options": {"which": which, "l": l, "strict": strict, "mode": "strict" if strict else "relaxed"},
        "rows": rows,
        "achieved": records,
        "status": _status(discrepancies, failures),
    }


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> dict:
    rows = []
    discrepancies = 0
    failures = 0
    detail: dict = {}
    try:
        if args.theorem in ("3.5", "3.1") and not args.d:
            raise ValueError(f"--theorem {args.theorem} needs --d")
        if args.theorem in ("main1", "main2", "main3") and not args.deltas:
            raise ValueError(f"--theorem {args.theorem} needs --deltas")
        if args.theorem in ("3.5", "3.1"):
            if args.theorem == "3.5":
                if len(args.d) != 1:
                    raise ValueError("--d takes one distance for 3.5")
                cb = build_case(
                    args.l,
                    args.d[0],
                    args.case,
                    check_range=not args.skip_range_check,
                    max_subsets=args.budget,
                )
                detail, label = cb.to_dict(), f"3.5:{args.case}"
            else:
                if len(args.d) != 4:
                    raise ValueError("--d needs four component distances for 3.1")
                cb = build_character_product(args.l, args.d, "punctured", args.budget)
                detail = {"quantum": cb.built.to_dict(), "classical": [cb.classical.n, cb.classical.k]}
                label = "3.1(character)"
            qp, classical = cb.built, f"[{cb.classical.n},{cb.classical.k}]"
        else:
            family = {"main1": args.family, "main2": "full", "main3": "half"}[args.theorem]
            chain = build_chain(args.l, tuple(args.deltas), family, strict=args.strict)
            detail, label = chain.to_dict(), f"{args.theorem}({family})"
            qp = chain.quantum
            classical = f"[{chain.classical.n},{chain.classical.k},{chain.classical_distance.lower}]"
        if qp.discrepancy is not None:
            discrepancies += 1
        rows.append(
            {
                "construction": label,
                "classical": classical,
                "quantum": _fmt_params(qp.n, qp.k, qp.d_lower),
                "verified": qp.verified,
                "discrepancy": qp.discrepancy is not None,
            }
        )
    except (ConstructionError, BudgetError, ValueError, *ENGINE_FAILURES) as exc:
        failures += 1
        rows.append({"construction": args.theorem, "error": str(exc)})
    return {
        "command": "build",
        "options": {"theorem": args.theorem, "l": args.l},
        "rows": rows,
        "detail": detail,
        "status": _status(discrepancies, failures),
    }


# ---------------------------------------------------------------------------
# verify


def cmd_verify(suite: str, seed: int) -> dict:
    report = run_suites(suite, seed)
    rows = [
        {
            "suite": s["suite"],
            "check": c["name"],
            "passed": c["passed"],
            "details": c["details"],
        }
        for s in report["suites"]
        for c in s["checks"]
    ]
    failures = sum(1 for r in rows if not r["passed"])
    return {
        "command": "verify",
        "options": {"suite": suite, "seed": seed},
        "rows": rows,
        "status": _status(0, failures),
    }


# ---------------------------------------------------------------------------


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _budget(text: str) -> int:
    """A non-negative integer; any other text is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the code for unusable input; argparse's is 2,
    which here means "verified, with discrepancies"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mpqc", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "md"], default="md")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table1", help="audit the ten-row comparison table", parents=[common])
    t.add_argument("--deep", action="store_true", help="construct every row, not just small ones")
    t.add_argument("--budget", type=_budget, default=DEFAULT_SUBSET_BUDGET, help="column-subset cap for certificates")

    e = sub.add_parser("example", help="audit one chain claim set", parents=[common])
    e.add_argument("--which", choices=["3.8", "3.10"], required=True)
    e.add_argument("--l", type=int, required=True, help="subfield order")
    e.add_argument("--strict", action="store_true", help="strictly increasing depth triples")
    e.add_argument("--deep", action="store_true", help="construct even at large subfield orders")

    bd = sub.add_parser("build", help="run one construction", parents=[common])
    bd.add_argument("--theorem", choices=["3.1", "3.5", "main1", "main2", "main3"], required=True)
    bd.add_argument("--l", type=int, required=True)
    bd.add_argument("--d", type=_parse_int_list, default=[], help="distance (3.5) or four distances (3.1)")
    bd.add_argument("--case", choices=["i", "ii", "iii", "iv", "v", "vi"], default="i")
    bd.add_argument("--deltas", type=_parse_int_list, default=[], help="three chain depths")
    bd.add_argument("--family", choices=["full", "half"], default="full", help="chain family for main1")
    bd.add_argument("--strict", action="store_true")
    bd.add_argument("--skip-range-check", action="store_true", help="audit out-of-range inputs")
    bd.add_argument("--budget", type=_budget, default=DEFAULT_SUBSET_BUDGET)

    v = sub.add_parser("verify", help="run property batteries", parents=[common])
    v.add_argument("--suite", choices=["fields", "duals", "mpc", "negacyclic", "quantum", "all"], default="all")
    v.add_argument("--seed", type=int, default=0)

    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "table1":
            report = cmd_table1(args.deep, args.budget)
        elif args.command == "example":
            report = cmd_example(args.which, args.l, args.strict, args.deep)
        elif args.command == "build":
            report = cmd_build(args)
        else:
            report = cmd_verify(args.suite, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit(report, args.format))
    return report["status"]["exit_code"]


if __name__ == "__main__":
    raise SystemExit(main())
