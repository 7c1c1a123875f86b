"""Acceptance criteria, one test per criterion, each timed at its stated
budget and printing a single PASS line (run with -s to watch them)."""

import io
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from mpqc.cli import main as cli_main
from mpqc.code import LinearCode
from mpqc.constructions import rs_dual_containing
from mpqc.gf import field
from mpqc.matrix import Matrix
from mpqc.negacyclic import bch_bound, centered_defining_set, defining_set_from_residues, negacyclic_code
from mpqc.product import (
    character_matrix,
    character_product,
    dual_containing_product,
    frr_distance_bound,
    matrix_product_code,
    nested_chain_product,
    product_distance_report,
    product_dual,
    row_prefix_code,
)
from mpqc.quantum import (
    QuantumParams,
    SingletonViolation,
    build_case,
    build_chain,
    singleton_check,
    table1_formula_audit,
)
from mpqc.verify import (
    random_code,
    random_diagonal_condition_matrix,
    random_dual_containing_chain,
    random_dual_containing_code,
    random_nonsingular,
    random_nonzero_code,
    random_nsc_upper_triangular,
    run_suites,
)

SEED = 42
F9 = field(3, 2)
F25 = field(5, 2)

_emitted: list[QuantumParams] = []
_generated_codes: list[LinearCode] = []
_generated_negacyclic = []  # (defining set, code) pairs


class Timer:
    def __init__(self, criterion: int | None = None):
        self.criterion = criterion

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.t0
        if exc_type is not None and self.criterion is not None:
            print(f"criterion {self.criterion}: FAIL [{self.elapsed:.2f}s] - {exc}")


def report(num: int, timer: Timer | None, text: str):
    took = f" [{timer.elapsed:.2f}s]" if timer else ""
    print(f"criterion {num}: PASS{took} - {text}")


def test_criterion_1_table_formulas():
    with Timer(1) as t:
        rows = table1_formula_audit()
        assert len(rows) == 10
        for r in rows:
            assert r["match"], f"row {r} mismatched"
    assert t.elapsed < 1.0
    report(1, t, "all ten (n, k) pairs reproduced exactly")


def test_criterion_2_verified_pipeline_l5():
    with Timer(2) as t:
        cb = build_case(5, 4, "i")
        assert (cb.classical.n, cb.classical.k) == (96, 91)
        assert cb.classical.field.order == 25
        # the explicit containment check once more, by exact rank arithmetic
        assert cb.classical.is_hermitian_dual_containing()
        A = character_matrix(F25, 2)
        assert frr_distance_bound(cb.components, cb.component_distances, A) == 4
        assert cb.built.verified
        assert (cb.built.n, cb.built.k, cb.built.d_lower, cb.built.base) == (96, 86, 4, 5)
    assert t.elapsed < 60.0
    _emitted.append(cb.built)
    _generated_codes.extend(cb.components)
    report(2, t, "verified [[96,86,>=4]] base 5 from the [96,91] product")


def test_criterion_3_small_field_pipeline_l3():
    with Timer(3) as t:
        dists = (1, 2, 2, 4)
        comps = [rs_dual_containing(3, d) for d in dists]
        product = character_product(comps)
        assert (product.n, product.k) == (32, 27)
        assert product.is_hermitian_dual_containing()
        # component distances via certificates, cross-checked by oracles
        for c, d in zip(comps, dists):
            assert c.is_mds()
            assert c.min_distance_by_supports().lower == d
            if 9**c.k <= 10**5:
                assert c.min_distance_exhaustive(10**5).lower == d
        # row-prefix distances by enumeration over at most 9^4 messages
        A = character_matrix(F9, 2)
        prefix = [row_prefix_code(A, k).min_distance_exhaustive(9**4).lower for k in (1, 2, 3, 4)]
        assert prefix == [4, 2, 2, 1]
        for k in (1, 2, 3, 4):
            assert row_prefix_code(A, k).min_distance_by_supports().lower == prefix[k - 1]
        assert frr_distance_bound(comps, dists, A) == 4
    assert t.elapsed < 60.0
    _generated_codes.extend(comps)
    report(3, t, "[32,27,>=4] base 9 dual-containing, oracles agree with certificates")


def test_criterion_4_dual_identity_hundred_instances():
    with Timer(4) as t:
        count = 0
        for i in range(100):
            rng = random.Random(SEED * 10007 + i)
            fld = F9 if i % 2 else F25
            s = 2 if i % 3 else 3
            n = rng.randint(1, 6)
            codes = [random_code(fld, n, rng.randint(0, n), rng) for _ in range(s)]
            A = random_nonsingular(fld, s, rng)
            product_dual(codes, A)  # raises unless both sides are equal codes
            count += 1
        assert count == 100
    assert t.elapsed < 120.0
    report(4, t, "dual identity held on 100 randomized instances")


def test_criterion_5_triangular_exactness():
    with Timer(5) as t:
        done = 0
        trial = 0
        while done < 20:
            rng = random.Random(SEED * 20011 + trial)
            trial += 1
            assert trial < 500, "sampler starved"
            fld = F9 if trial % 3 else F25
            s = rng.choice([2, 3])
            n = rng.randint(2, 4)
            codes = [random_nonzero_code(fld, n, rng) for _ in range(s)]
            if fld.order ** sum(c.k for c in codes) > 10**6:
                continue
            if fld.order ** sum(c.k for c in codes) > 10**5:
                continue  # keep the batch quick; still within the stated cap
            A = random_nsc_upper_triangular(fld, s, rng)
            dists = [c.min_distance_exhaustive().lower for c in codes]
            bound = product_distance_report(codes, dists, A)
            assert bound.exact
            actual = matrix_product_code(codes, A).min_distance_exhaustive(10**6).lower
            assert actual == bound.lower, f"d* = {bound.lower} but exhaustive gave {actual}"
            _generated_codes.extend(codes)
            done += 1
    report(5, t, f"exhaustive distance equals d* on {done} triangular instances")


def test_criterion_6_closure_fifty_each():
    with Timer(6) as t:
        for i in range(50):
            rng = random.Random(SEED * 30013 + i)
            fld = F9 if i % 2 else F25
            A = random_diagonal_condition_matrix(fld, rng)
            n = rng.randint(2, 4)
            codes = [
                random_dual_containing_code(fld, n, rng.randint(0, 1), rng)
                for _ in range(A.nrows)
            ]
            prod = dual_containing_product(codes, A)
            assert prod.is_hermitian_dual_containing()
        for i in range(50):
            rng = random.Random(SEED * 40031 + i)
            fld = F9 if i % 2 else F25
            s = rng.choice([2, 3])
            chain = random_dual_containing_chain(fld, rng.randint(2, 5), s, rng)
            A = random_nsc_upper_triangular(fld, s, rng)
            prod = nested_chain_product(chain, A)
            assert prod.is_hermitian_dual_containing()
    report(6, t, "dual containment closed on 50 + 50 randomized products")


def test_criterion_7_centered_family_and_chain():
    with Timer(7) as t:
        expected = {0: (25, 2), 1: (23, 4), 2: (21, 6)}
        for delta, (k, d) in expected.items():
            Z = centered_defining_set(5, delta)
            C = negacyclic_code(26, F25, Z)
            assert C.k == k
            assert C.is_hermitian_dual_containing()
            assert C.is_mds()  # certificate, so d = n - k + 1 = stated d
            assert 26 - C.k + 1 == d
            assert bch_bound(Z) == d
            _generated_negacyclic.append((Z, C))

        cb = build_chain(5, (0, 1, 2), "full")
        assert cb.quantum.verified
        assert (cb.quantum.n, cb.quantum.k, cb.quantum.d_lower) == (78, 60, 6)
        disc = cb.quantum.discrepancy
        assert disc is not None
        assert disc["claimed"] == {"n": 78, "k": 72, "d_geq": 6, "base": 5}
        assert disc["computed"] == {"n": 78, "k": 60, "d_geq": 6, "base": 5}
        _emitted.append(cb.quantum)

        buf = io.StringIO()
        with redirect_stdout(buf):
            exit_code = cli_main(["example", "--which", "3.8", "--l", "5", "--format", "json"])
        assert exit_code == 2
        doc = json.loads(buf.getvalue())
        claims = {r["claimed"] for r in doc["rows"]}
        assert claims == {"[[78,72,4]]", "[[78,68,6]]"}
        assert all(not r["match"] for r in doc["rows"])
    assert t.elapsed < 60.0
    report(7, t, "depths 0..2 verified; chain emits [[78,60,>=6]] with discrepancy; exit 2")


def test_criterion_8_singleton_everywhere():
    with Timer(8) as t:
        # records emitted by this run
        for qp in _emitted:
            rep = singleton_check(qp)
            assert 2 * qp.d_lower <= qp.n - qp.k + 2
            assert rep.defect >= 0
        # formula records for the whole table
        for row in table1_formula_audit():
            f = row["formula"]
            assert 2 * f["d_geq"] <= f["n"] - f["k"] + 2
        # and the type itself refuses violations outright
        with pytest.raises(SingletonViolation):
            QuantumParams(n=10, k=8, d_lower=4, base=3, provenance="adversarial", verified=False)
    report(8, t, f"{len(_emitted)} emitted records within the Singleton bound")


def test_criterion_9_oracle_cross_checks():
    with Timer(9) as t:
        corpus = list(_generated_codes)
        for i in range(25):
            rng = random.Random(SEED * 50047 + i)
            fld = F9 if i % 2 else F25
            n = rng.randint(2, 6)
            corpus.append(random_code(fld, n, rng.randint(1, n), rng))
        checked = 0
        for c in corpus:
            if c.k == 0 or c.field.order**c.k > 10**5:
                continue
            d = c.min_distance_exhaustive(10**5).lower
            assert c.is_mds() == (d == c.n - c.k + 1), f"certificate mismatch on {c}"
            checked += 1

        nega = list(_generated_negacyclic)
        for i in range(30):
            rng = random.Random(SEED * 60029 + i)
            n = rng.choice([5, 7])
            odd = list(range(1, 2 * n, 2))
            Z = defining_set_from_residues(n, 9, rng.sample(odd, rng.randint(0, 2)))
            if len(Z) >= n:
                continue
            nega.append((Z, negacyclic_code(n, F9, Z)))
        bch_checked = 0
        for Z, C in nega:
            if C.k == 0:
                continue
            if C.field.order**C.k <= 10**5:
                d = C.min_distance_exhaustive(10**5).lower
            elif C.is_mds():
                d = C.n - C.k + 1
            else:
                continue
            assert bch_bound(Z) <= d
            bch_checked += 1
        assert checked >= 10 and bch_checked >= 10
    report(9, t, f"{checked} certificate and {bch_checked} run-bound cross-checks, no exceptions")


def test_criterion_10_deterministic_verify():
    with Timer(10) as t:
        first = json.dumps(run_suites("all", SEED), sort_keys=False).encode()
        second = json.dumps(run_suites("all", SEED), sort_keys=False).encode()
        assert first == second
        buf1, buf2 = io.StringIO(), io.StringIO()
        with redirect_stdout(buf1):
            code1 = cli_main(["verify", "--suite", "all", "--seed", str(SEED), "--format", "json"])
        with redirect_stdout(buf2):
            code2 = cli_main(["verify", "--suite", "all", "--seed", str(SEED), "--format", "json"])
        assert code1 == code2 == 0
        assert buf1.getvalue().encode() == buf2.getvalue().encode()
    report(10, t, "byte-identical verify reports across two runs")
