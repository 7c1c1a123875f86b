"""Structural MDS certificates of the component families, against the
column-subset DFS and the dense Vandermonde candidate they replaced."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import mpqc
from mpqc import constructions
from mpqc.cli import main
from mpqc.code import BudgetError, LinearCode
from mpqc.constructions import (
    ConstructionError,
    GrsSpec,
    _grs_dual_certificate,
    _verify_family_code,
    extended_rs_dual_containing,
    grs_code,
    negacyclic_mds_dual_containing,
    rs_dual_containing,
    window_grs_spec,
)
from mpqc.gf import square_field
from mpqc.matrix import Matrix

GOLDEN = Path(__file__).parent / "golden"


def old_cyclic_candidate(l, T):
    # kept verbatim from rs_dual_containing's dense Vandermonde build
    fld = square_field(l)
    n = l * l - 1
    alpha = fld.generator
    pts = [fld.pow(alpha, j) for j in range(n)]

    def cyclic_candidate(T):
        removed = {(-t) % n for t in T}
        rows = [[fld.pow(a, t) for a in pts] for t in range(n) if t not in removed]
        return LinearCode.from_generator(Matrix(fld, rows, ncols=n))

    return cyclic_candidate(T)


def window_candidate(l, b, d):
    fld = square_field(l)
    spec = window_grs_spec(fld, b, d - 1)
    grs = grs_code(fld, spec)
    return spec, grs, LinearCode.from_generator(grs.parity)


def _unchecked_spec(points, multipliers, k):
    """A GrsSpec that skips __post_init__, as a mutated constructor would build."""
    spec = object.__new__(GrsSpec)
    object.__setattr__(spec, "points", tuple(points))
    object.__setattr__(spec, "multipliers", tuple(multipliers))
    object.__setattr__(spec, "k", k)
    return spec


# ---------------------------------------------------------------------------
# the GRS-built window candidate is the old Vandermonde one


@pytest.mark.parametrize("l", [3, 5, 7, 9])
def test_window_candidate_matches_vandermonde_for_every_tried_window(l, fresh_families, monkeypatch):
    tried = []

    def recording(fld, b, k):
        tried.append((b, k + 1))
        return window_grs_spec(fld, b, k)

    cands = []  # the rung's own candidates, one per tried window
    real_dual = constructions._grs_dual

    def recording_dual(fld, spec):
        cand, certificate = real_dual(fld, spec)
        cands.append(cand)
        return cand, certificate

    monkeypatch.setattr(constructions, "window_grs_spec", recording)
    monkeypatch.setattr(constructions, "_grs_dual", recording_dual)
    # the curve-drop rung and the registry are not under test here
    monkeypatch.setattr(constructions, "_rational_curve_points", lambda fld, r: [])
    monkeypatch.setattr(constructions, "_SPORADIC_PUNCTURED", {})
    for d in range(2, l + 2):
        try:
            rs_dual_containing(l, d)
        except (ConstructionError, BudgetError):
            pass
    assert tried, "no window was tried"
    assert len(cands) == len(tried)
    n = l * l - 1
    for (b, d), cand in zip(tried, cands):
        T = [(b + i) % n for i in range(d - 1)]
        old = old_cyclic_candidate(l, T)
        assert window_candidate(l, b, d)[2] == old, (l, d, b)
        assert cand == old, (l, d, b)


@pytest.mark.parametrize("l", [3, 5])
def test_window_candidate_matches_vandermonde_for_every_start(l):
    # the identity needs no coset condition: every start b and length
    n = l * l - 1
    for d in range(2, l + 2):
        for b in range(1, n + 1):
            T = [(b + i) % n for i in range(d - 1)]
            assert window_candidate(l, b, d)[2] == old_cyclic_candidate(l, T), (l, d, b)


# ---------------------------------------------------------------------------
# the extended code, built as the dual of GRS_(d-1), is the old full GRS code


def reference_extended(l, d, max_subsets=10**6):
    # kept verbatim from the parent's extended rung, less its cache
    fld = square_field(l)
    n = l * l
    if d == 1:
        return LinearCode.full_space(fld, n)
    if d < 2 or d > l:
        raise ConstructionError(f"designed distance {d} outside 2..{l}")
    k = n + 1 - d
    spec = GrsSpec(points=tuple(range(n)), multipliers=(1,) * n, k=k)
    # the code is grs_code(spec) itself, so the spec's checks certify it
    return _verify_family_code(
        grs_code(fld, spec), n, k, d, max_subsets, lambda: spec.mds_defect() is None
    )


def test_extended_code_is_the_old_full_grs_code(fresh_families):
    outcomes = {"built": 0, "refused": 0}
    for l in (2, 3, 4, 5, 7, 8, 9):
        for d in range(2, l + 1):
            try:
                want = reference_extended(l, d)
            except (ConstructionError, BudgetError) as exc:
                with pytest.raises(type(exc)) as ours:
                    extended_rs_dual_containing(l, d)
                assert str(ours.value) == str(exc), (l, d)
                outcomes["refused"] += 1
            else:
                got = extended_rs_dual_containing(l, d)
                assert got == want and got.parity == want.parity, (l, d)
                outcomes["built"] += 1
    assert outcomes == {"built": 21, "refused": 10}


# ---------------------------------------------------------------------------
# certificates agree with the DFS


def test_certificates_agree_with_dfs_on_every_family_code(fresh_families, monkeypatch):
    seen = []
    real = constructions._verify_family_code

    def recording(code, n, k, d, max_subsets, certificate=None):
        if certificate is not None and code.is_hermitian_dual_containing():
            try:
                code.mds_subset_size(max_subsets)
            except BudgetError:
                pass
            else:
                seen.append((code.params(), d, certificate(), code.is_mds(max_subsets)))
        return real(code, n, k, d, max_subsets, certificate)

    monkeypatch.setattr(constructions, "_verify_family_code", recording)
    # every supported d of the three certified rungs: windows (d < l),
    # extended evaluation codes (d <= l) and centered negacyclic codes
    builds = [(rs_dual_containing, l, d) for l in (3, 5, 7, 9) for d in range(2, l)]
    builds += [(extended_rs_dual_containing, l, d) for l in (3, 5, 7, 9) for d in range(2, l + 1)]
    builds += [(negacyclic_mds_dual_containing, l, d) for l in (5, 9) for d in range(2, l + 2, 2)]
    for family, l, d in builds:
        try:
            family(l, d)
        except BudgetError:
            pass
    # every family code whose DFS fits the default budget
    kinds = {n for (n, _), *_ in seen}
    assert kinds >= {8, 9, 24, 25, 26, 48, 49, 80, 81, 82}
    for params, d, cert, dfs in seen:
        assert cert == dfs, (params, d)
    assert all(cert for _, _, cert, _ in seen)


def test_certificate_rejects_a_wrong_window_start():
    fld = square_field(5)
    _, _, cand = window_candidate(5, 1, 4)
    spec = window_grs_spec(fld, 2, 3)
    assert not _grs_dual_certificate(spec, grs_code(fld, spec), cand)
    spec = window_grs_spec(fld, 1, 3)
    assert _grs_dual_certificate(spec, grs_code(fld, spec), cand)


def test_certificate_rejects_a_repeated_point():
    fld = square_field(5)
    spec = _unchecked_spec([1, 2, 3, 4, 5, 1], [1] * 6, 3)
    grs = grs_code(fld, spec)
    cand = LinearCode.from_generator(grs.parity)
    assert not cand.is_mds()
    assert spec.mds_defect() is not None
    assert not _grs_dual_certificate(spec, grs, cand)


def test_certificate_rejects_a_zero_multiplier():
    fld = square_field(5)
    spec = _unchecked_spec([1, 2, 3, 4, 5, 6], [1, 1, 0, 1, 1, 1], 3)
    grs = grs_code(fld, spec)
    cand = LinearCode.from_generator(grs.parity)
    assert not grs.is_mds()
    assert spec.mds_defect() is not None
    assert not _grs_dual_certificate(spec, grs, cand)


# ---------------------------------------------------------------------------
# the verifier: refusal first, certificate never rejects


def test_budget_refusal_runs_ahead_of_the_certificate():
    code = rs_dual_containing(5, 4)  # [24,21], C(24,3) = 2024 subsets
    with pytest.raises(BudgetError, match=r"^C\(24,3\) column subsets exceed budget 2023$"):
        _verify_family_code(code, 24, 21, 4, 2023, lambda: True)
    with pytest.raises(BudgetError, match=r"^C\(24,3\) column subsets exceed budget 2023$"):
        code.is_mds(2023)


def test_a_failed_certificate_falls_back_to_the_dfs(monkeypatch):
    code = rs_dual_containing(5, 4)
    scans = []
    real = LinearCode.is_mds

    def spy(self, max_subsets=10**6):
        scans.append(self)
        return real(self, max_subsets)

    monkeypatch.setattr(LinearCode, "is_mds", spy)
    assert _verify_family_code(code, 24, 21, 4, 10**6, lambda: False) is code
    assert scans == [code]
    assert _verify_family_code(code, 24, 21, 4, 10**6, lambda: True) is code
    assert scans == [code]


# ---------------------------------------------------------------------------
# the certificates fire: the DFS is never run


@pytest.fixture()
def no_dfs(monkeypatch, fresh_families):
    """is_mds keeps its budget refusal but fails the test if it would scan."""

    def refuse(self, max_subsets=10**6):
        if self.mds_subset_size(max_subsets):
            raise AssertionError(f"column-subset DFS ran on {self}")
        return True

    monkeypatch.setattr(LinearCode, "is_mds", refuse)


def test_table1_deep_needs_no_dfs(no_dfs):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["table1", "--deep", "--format", "json"])
    assert code == 0
    assert buf.getvalue() == (GOLDEN / "table1-deep.json").read_text()


def test_gf169_window_code_needs_no_dfs(no_dfs):
    C = rs_dual_containing(13, 4)
    assert C.params() == (168, 165)
    assert C.is_hermitian_dual_containing()


def test_extended_and_negacyclic_need_no_dfs(no_dfs):
    assert extended_rs_dual_containing(9, 4).params() == (81, 78)
    assert negacyclic_mds_dual_containing(9, 4).params() == (82, 79)


def test_l37_window_code_is_refused_not_hung():
    # [1368,1365] over GF(1369): the GRS build reaches the subset refusal
    with pytest.raises(BudgetError, match=r"^C\(1368,3\) column subsets exceed budget 1000000$"):
        rs_dual_containing(37, 4)


RS37_GUARD = """
import json
import mpqc.matrix as matrix

wide = []  # row counts of matrices as wide as the code with more rows than its GRS dual
matrix_init = matrix.Matrix.__init__

def counting_matrix_init(self, *args, **kwargs):
    matrix_init(self, *args, **kwargs)
    if self.ncols == 1368 and self.nrows > 3:
        wide.append(self.nrows)

matrix.Matrix.__init__ = counting_matrix_init
from mpqc.code import BudgetError
from mpqc.constructions import rs_dual_containing

try:
    rs_dual_containing(37, 4)
    refusal = None
except BudgetError as exc:
    refusal = str(exc)
print(json.dumps({"wide": wide, "refusal": refusal}))
"""


def test_l37_window_code_is_built_from_its_grs_side():
    # the [1368,1365] candidate is stored by the 3 rows of its GRS dual and
    # never written as its generator; a fresh interpreter, so every cache is
    # cold
    src = os.path.dirname(os.path.dirname(mpqc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", RS37_GUARD], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["refusal"] == "C(1368,3) column subsets exceed budget 1000000"
    assert doc["wide"] == []
