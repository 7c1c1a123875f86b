"""Mutation checks: each mutant breaks the package in one known way, and the
test expected to catch it must then fail.

    python tests/mutants.py

`src/`, `tests/` and `bench/` are copied to a temporary directory (`bench/`
because the public-definition guard in tests/test_structure.py reads it).
Each mutant names one killer, a test node ID (a bare test function runs
every parametrization of it), and only the killers run.  The unmutated copy
must pass every killer first.  Then each mutant replaces one exact snippet
of one file in a fresh copy and runs its killer alone under a fixed
hypothesis seed; it is killed when the killer fails.  A snippet that does
not occur exactly once in the current source is an error, so a refactor of
the mutated code must carry its mutants along.  Exits 0 when every mutant
is killed.

Standard library only (the killers run under pytest and hypothesis, as
tier-1 does).  The file name does not match ``test_*.py``, so tier-1 does not
collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench")


class Mutant(NamedTuple):
    name: str
    what: str
    file: str
    snippet: str
    replacement: str
    killer: str


DISTANCE = "tests/test_distance.py"
NEGACYCLIC = "tests/test_negacyclic.py"
STRUCTURE = "tests/test_structure.py"
CONTAINMENT = "tests/test_containment.py"
PRODUCT = "tests/test_product.py"
GF = "tests/test_gf.py"
CLI = "tests/test_cli.py"
CONSTRUCTIONS = "tests/test_constructions.py"

MUTANTS = [
    # -- the low-weight exits of the exhaustive oracle --
    Mutant(
        "d2-before-d1",
        "d = 2 decided before every row is checked for d = 1",
        "src/mpqc/code.py",
        "        if not all(any(part) for part in parts):\n"
        '            return exact_report(1, "exhaustive")\n'
        "        directions = set()\n"
        "        for part in parts:\n",
        "        directions = set()\n"
        "        for part in parts:\n"
        "            if not any(part):\n"
        '                return exact_report(1, "exhaustive")\n',
        f"{DISTANCE}::test_exhaustive_matches_reference",
    ),
    Mutant(
        "pivot-columns-for-free",
        "the pivot columns used in place of the free columns",
        "src/mpqc/code.py",
        "free = [j for j in range(n) if j not in pivots]",
        "free = [j for j in range(n) if j in pivots]",
        f"{DISTANCE}::test_exhaustive_matches_reference",
    ),
    Mutant(
        "weight-1-part-dropped",
        "the weight-1-part test dropped",
        "src/mpqc/code.py",
        "if len(part) - part.count(0) == 1 or direction in directions:",
        "if direction in directions:",
        f"{DISTANCE}::test_distance_table_matches_reference",
    ),
    Mutant(
        "floor-4",
        "the walk stops at the first word of weight 4, not 3",
        "src/mpqc/code.py",
        "while stack and most < n - 3:",
        "while stack and most < n - 4:",
        f"{DISTANCE}::test_exhaustive_matches_reference",
    ),
    # -- the projective walk --
    Mutant(
        "zero-prefix-walked",
        "the zero prefix walked, its c = 0 word (the zero word) counted",
        "src/mpqc/code.py",
        "stack = [(i + 1, row) for i, row in enumerate(head)]",
        "stack = [(0, [0] * n)]",
        f"{DISTANCE}::test_exhaustive_matches_reference",
    ),
    Mutant(
        "c0-dropped",
        "c = 0, the prefix alone, dropped from the histogram",
        "src/mpqc/code.py",
        "zeros = acc.count(0) - hist[0] + max(hist)",
        "zeros = acc.count(0) - hist[0] + max(hist[1:])",
        f"{DISTANCE}::test_distance_table_matches_reference",
    ),
    Mutant(
        "off-support-zeros-dropped",
        "the zero columns off the support of the last row dropped",
        "src/mpqc/code.py",
        "zeros = acc.count(0) - hist[0] + max(hist)",
        "zeros = max(hist)",
        f"{DISTANCE}::test_distance_table_matches_reference",
    ),
    Mutant(
        "last-row-skipped",
        "the words led by the last row never counted",
        "src/mpqc/code.py",
        "most = n - len(support)",
        "most = 0",
        f"{DISTANCE}::test_exhaustive_matches_reference",
    ),
    # -- the support scan and the prefix distances read off it --
    Mutant(
        "support-mask-dropped",
        "one column set (every column but the first) dropped from the support scan",
        "src/mpqc/code.py",
        "for mask in range(1, (1 << n) - 1):",
        "for mask in range(1, (1 << n) - 2):",
        f"{DISTANCE}::test_exhaustive_matches_support_scan",
    ),
    Mutant(
        "prefix-index-shifted",
        "component i paired with the prefix code of i - 1 rows (1 for the first)",
        "src/mpqc/product.py",
        "row_prefix_code(A, k + 1).min_distance_by_supports()",
        "row_prefix_code(A, max(k, 1)).min_distance_by_supports()",
        f"{DISTANCE}::test_frr_bound_matches_exhaustive_prefix_distances",
    ),
    # -- a negacyclic component's build check, x^n = -1 mod g --
    Mutant(
        "xn-minus-1-for-xn",
        "x^(n-1) taken in place of x^n in the build's check",
        "src/mpqc/negacyclic.py",
        "poly_powmod(fld, [0, 1], n, coeffs)",
        "poly_powmod(fld, [0, 1], n - 1, coeffs)",
        f"{NEGACYCLIC}::test_genpoly_divides_xn_plus_1",
    ),
    Mutant(
        "plus-1-for-minus-1",
        "x^n = +1 mod g checked in place of x^n = -1 mod g",
        "src/mpqc/negacyclic.py",
        "[fld.tables.neg[1]][: len(coeffs) - 1]",
        "[1][: len(coeffs) - 1]",
        f"{NEGACYCLIC}::test_genpoly_divides_xn_plus_1",
    ),
    Mutant(
        "xn-check-dropped",
        "the build's check that g divides x^n + 1 dropped",
        "src/mpqc/negacyclic.py",
        "    if poly_powmod(fld, [0, 1], n, coeffs) != [fld.tables.neg[1]][: len(coeffs) - 1]:\n"
        '        raise NegacyclicError("generator polynomial does not divide x^n + 1")\n',
        "",
        f"{NEGACYCLIC}::test_a_generator_polynomial_that_does_not_divide_xn_plus_1_is_refused",
    ),
    # -- a negacyclic component's deferred parity check --
    Mutant(
        "h-for-hstar",
        "the shifts of h taken in place of the shifts of its reciprocal h*",
        "src/mpqc/negacyclic.py",
        "hstar = h[::-1]",
        "hstar = h",
        f"{NEGACYCLIC}::test_the_parity_side_refuses_a_corrupted_h_or_g",
    ),
    Mutant(
        "membership-dropped",
        "the shifts of g never checked against the parity check",
        "src/mpqc/negacyclic.py",
        "    if H.nrows != r or not all(\n"
        "        _dots_vanish(add, [(t + i, m) for t, m in support], H.rows) for i in range(k)\n"
        "    ):\n",
        "    if H.nrows != r:\n",
        f"{NEGACYCLIC}::test_the_parity_side_refuses_a_corrupted_h_or_g",
    ),
    Mutant(
        "one-hstar-shift-fewer",
        "one shift of h* fewer in the parity check",
        "src/mpqc/negacyclic.py",
        "for i in range(r)], n)",
        "for i in range(r - 1)], n)",
        f"{NEGACYCLIC}::test_remainder_rref_matches_row_reduced_shifts",
    ),
    Mutant(
        "shift-range-stops-at-k-1",
        "the membership scan stopping at the shift x^(k-2) g",
        "src/mpqc/negacyclic.py",
        "H.rows) for i in range(k)",
        "H.rows) for i in range(k - 1)",
        f"{NEGACYCLIC}::test_the_parity_side_refuses_a_corrupted_h_or_g",
    ),
    # -- a dual-containing product's parity-side assembly --
    Mutant(
        "inverse-not-transposed",
        "A^-1 returned in place of (A^-1)^T",
        "src/mpqc/product.py",
        "    return tuple(zip(*ainv.rows))\n",
        "    return tuple(ainv.rows)\n",
        f"{STRUCTURE}::test_parity_product_matches_kernel",
    ),
    Mutant(
        "transpose-for-inverse",
        "A^T taken in place of A^-1, so B = A",
        "src/mpqc/product.py",
        "    return tuple(zip(*ainv.rows))\n",
        "    return tuple(zip(*A.transpose().rows))\n",
        f"{STRUCTURE}::test_parity_product_matches_kernel",
    ),
    Mutant(
        "inverse-check-dropped",
        "A A^-1 = I never checked",
        "src/mpqc/product.py",
        "    if A @ ainv != Matrix.identity(A.field, A.nrows):\n"
        '        raise ConsistencyError("A A^-1 = I failed on this instance")\n',
        "",
        f"{PRODUCT}::test_a_wrong_inverse_fails_the_identity_check",
    ),
    Mutant(
        "block-rows-from-a",
        "the deferred assembly given the rows of A in place of B",
        "src/mpqc/product.py",
        "functools.partial(_parity_product, codes, B)",
        "functools.partial(_parity_product, codes, A.rows)",
        f"{STRUCTURE}::test_deferred_product_equals_the_eager_assembly",
    ),
    Mutant(
        "rank-check-dropped",
        "the assembled parity check's rank never checked",
        "src/mpqc/product.py",
        "    if H.nrows < len(rows):\n"
        '        raise ConsistencyError("the dual identity\'s parity check lost rank on this instance")\n',
        "",
        f"{STRUCTURE}::test_a_component_parity_corrupted_before_assembly_is_caught",
    ),
    # -- a dual-containing product's Hermitian verdict from its blocks --
    Mutant(
        "w-without-conj",
        "W = B B^T taken in place of conj(B) B^T",
        "src/mpqc/product.py",
        "w = add[w][mul[conj[x]][y]]",
        "w = add[w][mul[x][y]]",
        f"{STRUCTURE}::test_block_gram_verdict_matches_the_dense_gram_test",
    ),
    Mutant(
        "off-diagonal-blocks-only",
        "the block pairs i' < i only: the components' own verdicts skipped",
        "src/mpqc/product.py",
        "for i2 in range(i + 1):",
        "for i2 in range(i):",
        f"{STRUCTURE}::test_block_gram_verdict_matches_the_dense_gram_test",
    ),
    Mutant(
        "upper-blocks-for-lower",
        "the block pairs i' >= i in place of i' <= i: equivalent, W being "
        "Hermitian and the cross verdict symmetric, but the pairs run the other way",
        "src/mpqc/product.py",
        "for i2 in range(i + 1):",
        "for i2 in range(i, len(B)):",
        f"{STRUCTURE}::test_cross_gram_blocks_against_a_hand_count",
    ),
    # -- kept facts --
    Mutant(
        "kept-not-registered",
        "a kept builder's cache never listed in code._KEPT",
        "src/mpqc/code.py",
        "    _KEPT.append(kept)\n",
        "",
        f"{STRUCTURE}::test_every_kept_fact_is_registered",
    ),
    # -- code identity on the smaller canonical side --
    Mutant(
        "k-dropped-from-eq",
        "== compares the smaller sides without k",
        "src/mpqc/code.py",
        "            and self.k == other.k\n",
        "",
        f"{CONTAINMENT}::test_a_code_whose_g_is_its_duals_h_differs_from_it",
    ),
    Mutant(
        "smaller-side-flipped",
        "the larger side read for identity when 2k != n",
        "src/mpqc/code.py",
        "return self.gen if 2 * self.k <= self.n else self.parity",
        "return self.gen if 2 * self.k >= self.n else self.parity",
        f"{CONTAINMENT}::test_chain_codes_hash_and_compare_without_their_generators",
    ),
    # -- Hermitian verdicts, from generator polynomials or the Gram scan --
    Mutant(
        "conj-dropped",
        "the reciprocal of g_a taken without conjugation",
        "src/mpqc/code.py",
        "[conj[x] for x in reversed(a)]",
        "[x for x in reversed(a)]",
        f"{NEGACYCLIC}::test_polynomial_verdicts_match_the_matrix_scans",
    ),
    Mutant(
        "reciprocal-dropped",
        "conj(g_a) taken in place of conj(g_a*)",
        "src/mpqc/code.py",
        "[conj[x] for x in reversed(a)]",
        "[conj[x] for x in a]",
        f"{NEGACYCLIC}::test_polynomial_verdicts_match_the_matrix_scans",
    ),
    Mutant(
        "subcode-division-swapped",
        "g_self | g_other tested in place of g_other | g_self",
        "src/mpqc/code.py",
        "_divides(self.field, self._genpoly, other._genpoly)",
        "_divides(self.field, other._genpoly, self._genpoly)",
        f"{NEGACYCLIC}::test_polynomial_verdicts_match_the_matrix_scans",
    ),
    Mutant(
        "own-scan-skips-diagonal",
        "the own Gram scan skipping its diagonal",
        "src/mpqc/code.py",
        "H[i:] if other is self else rows",
        "H[i + 1:] if other is self else rows",
        f"{CONTAINMENT}::test_dual_containment_matches_reference",
    ),
    # -- the irreducibility test behind every modulus --
    Mutant(
        "ben-or-plus-x",
        "Ben-Or's gcd taken with x^(p^i) + x in place of x^(p^i) - x",
        "src/mpqc/gf.py",
        "b[1] = add[b[1]][neg[1]]",
        "b[1] = add[b[1]][1]",
        f"{GF}::test_smallest_irreducible_matches_the_integer_search",
    ),
    Mutant(
        "ben-or-range-short",
        "Ben-Or's range stopping one index short of m/2",
        "src/mpqc/gf.py",
        "for i in range(1, (len(c) - 1) // 2 + 1):",
        "for i in range(1, (len(c) - 1) // 2):",
        f"{GF}::test_smallest_irreducible_matches_the_integer_search",
    ),
    Mutant(
        "ben-or-from-2",
        "Ben-Or's i = 1 step, gcd(c, x^p - x) = 1, dropped: roots in GF(p) go unseen",
        "src/mpqc/gf.py",
        "        if not _resultant(c, b, fp.p):",
        "        if i > 1 and not _resultant(c, b, fp.p):",
        f"{GF}::test_smallest_irreducible_matches_the_integer_search",
    ),
    # -- the curve drop's norm search on packed digit sums --
    Mutant(
        "rejection-keeps-l",
        "a drawn coefficient c = l kept: > in place of >= in the rejection loop",
        "src/mpqc/constructions.py",
        "            while c >= l:\n",
        "            while c > l:\n",
        f"{CONSTRUCTIONS}::test_norm_sampler_matches_the_full_combine_reference_at_l7",
    ),
    Mutant(
        "first-digit-only",
        "the zero test reading only the first digit of each coordinate",
        "src/mpqc/constructions.py",
        "        for _ in range(m - 1):\n            flags |= flags >> W\n",
        "",
        f"{CONSTRUCTIONS}::test_norm_search_matches_the_reference_on_every_drop_at_l4[sampler-d3]",
    ),
    Mutant(
        "slot-one-bit-short",
        "each digit slot sized one bit short of len(basis) * (p - 1)",
        "src/mpqc/constructions.py",
        "w = (len(basis) * (p - 1)).bit_length()",
        "w = (len(basis) * (p - 1)).bit_length() - 1",
        f"{CONSTRUCTIONS}::test_norm_search_on_a_kernel_with_two_solutions[walk-units]",
    ),
    Mutant(
        "walk-skips-c0",
        "the walk skipping c = 0 at every level",
        "src/mpqc/constructions.py",
        "for c, row in enumerate(packed[level]):",
        "for c, row in enumerate(packed[level][1:], 1):",
        f"{CONSTRUCTIONS}::test_norm_search_on_a_kernel_with_two_solutions[walk-sums]",
    ),
    # -- the chain audit's fallback rows --
    Mutant(
        "audit-fallback-inverted",
        "the audit rows made only when some build verified",
        "src/mpqc/cli.py",
        "records = verified if verified else [chain_audit(l, t, family) for t in triples]",
        "records = [chain_audit(l, t, family) for t in triples] if verified else verified",
        f"{CLI}::test_audit_rows_are_made_only_when_no_build_verifies",
    ),
]


def fresh_copy(dest: Path) -> None:
    for name in COPIED:
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))


def mutated(m: Mutant) -> str:
    """The text of m.file with the mutant applied; the snippet must occur
    exactly once in the current source."""
    text = (ROOT / m.file).read_text()
    count = text.count(m.snippet)
    if count != 1:
        raise SystemExit(f"mutant {m.name}: snippet occurs {count} times in {m.file}, not once")
    return text.replace(m.snippet, m.replacement)


def failed_tests(root: Path, tests) -> tuple[list[str], str]:
    """Run pytest on `tests` in `root`; the failed node IDs and the summary."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *tests,
    ]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True).stdout
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAILED ")]
    lines = out.strip().splitlines()
    return failed, lines[-1] if lines else "no output"


def killed_by(failed, killer: str) -> bool:
    return any(f == killer or f.startswith(killer + "[") for f in failed)


def main() -> int:
    texts = [mutated(m) for m in MUTANTS]  # every snippet must match before anything runs
    with tempfile.TemporaryDirectory(prefix="mpqc-mutants-") as tmp:
        base = Path(tmp) / "base"
        fresh_copy(base)
        killers = sorted({m.killer for m in MUTANTS})
        failed, summary = failed_tests(base, killers)
        if failed or "passed" not in summary or "error" in summary:
            print(f"the unmutated copy does not pass every killer: {summary}")
            return 1
        survivors = []
        for i, (m, text) in enumerate(zip(MUTANTS, texts)):
            work = Path(tmp) / f"m{i}"
            fresh_copy(work)
            (work / m.file).write_text(text)
            start = time.perf_counter()
            failed, summary = failed_tests(work, [m.killer])
            shutil.rmtree(work)
            ok = killed_by(failed, m.killer)
            if not ok:
                survivors.append(m.name)
            verdict = "killed" if ok else "NOT KILLED"
            print(
                f"{verdict:10} {m.name} ({m.what}): {len(failed)} failed ({summary}; "
                f"{time.perf_counter() - start:.1f} s)",
                flush=True,
            )
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    if survivors:
        print("not killed by their expected killer: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
