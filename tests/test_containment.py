"""Differential tests: containment and duals read off the parity check,
against the stacked-rank and build-the-dual reference code they replaced."""

import json
import math
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpqc
from mpqc import code as code_module
from mpqc import negacyclic
from mpqc.code import BudgetError, LinearCode
from mpqc.gf import field
from mpqc.matrix import Matrix
from mpqc.negacyclic import centered_defining_set, negacyclic_code
from mpqc.verify import random_dual_containing_chain, random_dual_containing_code

# ---------------------------------------------------------------------------
# reference implementations, kept verbatim from the rank-based versions
# (calls between them go to each other, never to the code under test)


def reference_is_subcode_of(self, other):
    if self.field != other.field or self.n != other.n:
        raise ValueError("codes live in different spaces")
    if self.k > other.k:
        return False
    if self.k == 0:
        return True
    return other.gen.vstack(self.gen).rank() == other.k


def reference_euclidean_dual(self):
    if self.k == 0:
        return LinearCode.full_space(self.field, self.n)
    return LinearCode.from_generator(self.gen.nullspace())


def reference_hermitian_dual(self):
    if self.k == 0:
        return LinearCode.full_space(self.field, self.n)
    return LinearCode.from_generator(self.gen.conjugate().nullspace())


def reference_is_hermitian_dual_containing(self):
    self.field.subfield_order  # raises unless the order is a square
    if 2 * self.k < self.n:
        return False
    return reference_is_subcode_of(reference_hermitian_dual(self), self)


def all_zero(M):
    # kept from Matrix.is_zero, which only these references used
    return all(x == 0 for r in M.rows for x in r)


def reference_matmul_subcode(self, other):
    # kept verbatim from the dense product H_other G_self^T it replaced
    if self.field != other.field or self.n != other.n:
        raise ValueError("codes live in different spaces")
    if self.k > other.k:
        return False
    return all_zero(other.parity @ self.gen.transpose())


def reference_gram_is_zero(self):
    # kept verbatim from the full-product Gram test it replaced
    return all_zero(self.parity.conjugate() @ self.parity.transpose())


def reference_is_mds(self, max_subsets=10**6):
    n, k = self.n, self.k
    if k == 0 or k == n:
        return True
    if k <= n - k:
        mat, t = self.gen, k
    else:
        mat, t = reference_euclidean_dual(self).gen, n - k
    if math.comb(n, t) > max_subsets:
        raise BudgetError(f"C({n},{t}) column subsets exceed budget {max_subsets}")
    add, mul, neg, inv = self.field.tables
    cols = [[mat.rows[i][j] for i in range(t)] for j in range(n)]

    def reduce(vec, basis):
        v = list(vec)
        for pos, support in basis:
            c = v[pos]
            if c:
                m = mul[neg[c]]
                for i, y in support:
                    v[i] = add[v[i]][m[y]]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        m = mul[inv[v[piv]]]
        return piv, [(i, m[x]) for i, x in enumerate(v) if x]

    def walk(start, basis):
        depth = len(basis)
        if depth == t:
            return True
        for j in range(start, n - (t - depth) + 1):
            entry = reduce(cols[j], basis)
            if entry is None:
                return False
            if not walk(j + 1, basis + [entry]):
                return False
        return True

    return walk(0, [])


# ---------------------------------------------------------------------------
# strategies

SQUARE_FIELDS = [(2, 2), (3, 2), (5, 2), (7, 2)]  # GF(4), GF(9), GF(25), GF(49)


def _random_rows(draw, fld, n, count):
    entry = st.just(0) | st.integers(0, fld.order - 1)
    return [[draw(entry) for _ in range(n)] for _ in range(count)]


@st.composite
def codes_in(draw, fld, n):
    kind = draw(st.sampled_from(["random", "zero", "full", "dual-containing"]))
    if kind == "zero":
        return LinearCode.zero_code(fld, n)
    if kind == "full":
        return LinearCode.full_space(fld, n)
    if kind == "dual-containing":
        rng = random.Random(draw(st.integers(0, 2**32)))
        return random_dual_containing_code(fld, n, draw(st.integers(0, n // 2)), rng)
    rows = _random_rows(draw, fld, n, draw(st.integers(0, n + 1)))
    return LinearCode.from_generator(Matrix(fld, rows, ncols=n))


def _spanning_rows(draw, fld, n):
    """0-6 rows of length n, random, zero, or combinations of earlier rows."""
    add, mul = fld.tables.add, fld.tables.mul
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "random":
            rows += _random_rows(draw, fld, n, 1)
            continue
        row = [0] * n
        for r in rows if kind == "dependent" else ():
            m = mul[draw(st.integers(0, fld.order - 1))]
            row = [add[x][m[y]] for x, y in zip(row, r)]
        rows.append(row)
    return Matrix(fld, rows, ncols=n)


@st.composite
def spanning_sets(draw):
    fld = field(*draw(st.sampled_from(SQUARE_FIELDS)))
    return _spanning_rows(draw, fld, draw(st.integers(1, 8)))


@st.composite
def codes_stored_either_way(draw):
    fld = field(*draw(st.sampled_from(SQUARE_FIELDS)))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        return draw(codes_in(fld, n))
    return LinearCode.from_parity(_spanning_rows(draw, fld, n))


def deferred(C):
    """C stored by a function that returns a fresh copy of its H, called on
    the first read."""
    H = C.parity
    return LinearCode(C.field, C.n, None, lambda: Matrix(H.field, H.rows, ncols=H.ncols), k=C.k)


@st.composite
def codes(draw):
    fld = field(*draw(st.sampled_from(SQUARE_FIELDS)))
    return draw(codes_in(fld, draw(st.integers(1, 6))))


@st.composite
def code_pairs(draw):
    """Two codes in one space; about a third of the pairs are nested."""
    fld = field(*draw(st.sampled_from(SQUARE_FIELDS)))
    n = draw(st.integers(1, 6))
    a = draw(codes_in(fld, n))
    shape = draw(st.sampled_from(["independent", "sub", "super"]))
    if shape == "independent":
        return a, draw(codes_in(fld, n))
    extra = Matrix(fld, _random_rows(draw, fld, n, draw(st.integers(0, n))), ncols=n)
    bigger = LinearCode.from_generator(a.gen.vstack(extra))
    return (a, bigger) if shape == "sub" else (bigger, a)


# ---------------------------------------------------------------------------
# differential tests


@settings(max_examples=300, deadline=None)
@given(code_pairs())
def test_subcode_matches_reference(pair):
    a, b = pair
    assert a.is_subcode_of(b) == reference_is_subcode_of(a, b)
    assert b.is_subcode_of(a) == reference_is_subcode_of(b, a)


@settings(max_examples=300, deadline=None)
@given(code_pairs())
def test_sparse_subcode_matches_the_matmul_verdict(pair):
    a, b = pair
    # fresh objects, so no kept verdict answers for the sparse test
    a2, b2 = LinearCode(a.field, a.n, a.gen), LinearCode(b.field, b.n, b.gen)
    assert a2.is_subcode_of(b2) == reference_matmul_subcode(a, b)
    assert b2.is_subcode_of(a2) == reference_matmul_subcode(b, a)


@settings(max_examples=200, deadline=None)
@given(codes())
def test_duals_match_reference(C):
    assert C.euclidean_dual() == reference_euclidean_dual(C)
    assert C.hermitian_dual() == reference_hermitian_dual(C)


@settings(max_examples=300, deadline=None)
@given(spanning_sets())
def test_from_parity_canonicalizes_any_spanning_set_of_the_dual(M):
    C = LinearCode.from_parity(M)
    H = C.parity
    want = LinearCode.from_generator(M.nullspace())
    assert C == want and H.rows == want.parity.rows
    assert H.nrows == M.rank() == C.n - C.k
    # right-reduced: each row's last nonzero entry is a 1 that is zero in
    # every other row, and those trailing pivots strictly increase
    assert all(any(row) for row in H.rows)
    pivots = [max(j for j, x in enumerate(row) if x) for row in H.rows]
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, p in enumerate(pivots):
        assert [row[p] for row in H.rows] == [int(r == i) for r in range(H.nrows)]


def test_duals_are_reduced_on_the_smaller_side():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(codes_stored_either_way())
    def check(C):
        small = 2 * C.k <= C.n
        seen.add((small, C._gen is None))
        for dual, reference in (
            (C.euclidean_dual(), reference_euclidean_dual),
            (C.hermitian_dual(), reference_hermitian_dual),
        ):
            # a dual reduced from G is stored by its parity check
            assert (dual._gen is None) == small
            want = reference(C)
            assert dual == want and dual.parity.rows == want.parity.rows

    check()
    assert {small for small, _ in seen} == {True, False}
    assert {by_parity for _, by_parity in seen} == {True, False}


@settings(max_examples=300, deadline=None)
@given(codes())
def test_dual_containment_matches_reference(C):
    assert C.is_hermitian_dual_containing() == reference_is_hermitian_dual_containing(C)


@settings(max_examples=300, deadline=None)
@given(codes())
def test_upper_triangle_gram_matches_full_product(C):
    # the triangle scan is compared at every rate, not only where 2k >= n
    # lets it run inside the containment verdict
    assert C._hermitian_dual_within(C) == reference_gram_is_zero(C)
    expected = 2 * C.k >= C.n and reference_gram_is_zero(C)
    assert C.is_hermitian_dual_containing() == expected


@pytest.mark.parametrize("pm", SQUARE_FIELDS)
def test_both_gram_verdicts_occur(pm):
    fld = field(*pm)
    rng = random.Random(11)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(1, 7)
        if rng.random() < 0.5:
            C = random_dual_containing_code(fld, n, rng.randint(0, n // 2), rng)
        else:
            rows = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(rng.randint(0, n))]
            C = LinearCode.from_generator(Matrix(fld, rows, ncols=n))
        verdict = C._hermitian_dual_within(C)
        assert verdict == reference_gram_is_zero(C)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@st.composite
def cross_gram_pairs(draw):
    """Two codes in one space, each stored by G, by H or by a function that
    returns H; about a third of the pairs are nested dual-containing codes,
    where the cross-Gram vanishes."""
    fld = field(*draw(st.sampled_from(SQUARE_FIELDS)))
    n = draw(st.integers(1, 6))
    if draw(st.integers(0, 2)) == 0:
        rng = random.Random(draw(st.integers(0, 2**32)))
        pair = random_dual_containing_chain(fld, n, 2, rng)
    else:
        pair = [draw(codes_in(fld, n)), draw(codes_in(fld, n))]
    # re-stored by H alone or by its function, so a lookup that read G would
    # have to build it
    stores = [lambda c: c, lambda c: LinearCode.from_parity(c.parity), deferred]
    return [draw(st.sampled_from(stores))(c) for c in pair]


@settings(max_examples=300, deadline=None)
@given(cross_gram_pairs())
def test_cross_gram_matches_reference(pair):
    a, b = pair
    stored = [c._gen is None for c in pair]
    verdicts = [a.hermitian_dual_is_subcode_of(b), b.hermitian_dual_is_subcode_of(a)]
    assert stored == [c._gen is None for c in pair]  # the reference below reads G
    expected = reference_is_subcode_of(reference_hermitian_dual(a), b)
    assert verdicts == [expected, expected]  # symmetric in the two codes
    assert a.hermitian_dual_is_subcode_of(a) == a.is_hermitian_dual_containing()


@pytest.mark.parametrize("pm", SQUARE_FIELDS)
def test_both_cross_gram_verdicts_occur(pm):
    fld = field(*pm)
    rng = random.Random(5)
    verdicts = set()
    for _ in range(40):
        n = rng.randint(1, 6)
        a, b = (random_dual_containing_code(fld, n, rng.randint(0, n // 2), rng) for _ in range(2))
        verdict = a.hermitian_dual_is_subcode_of(b)
        assert verdict == reference_is_subcode_of(reference_hermitian_dual(a), b)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_cross_gram_verdict_is_kept_per_other_code(F25, monkeypatch):
    # between negacyclic codes the cross verdict is kept by the coprimality
    # cache, keyed by the two generator polynomials, not by the codes: an
    # equal code built afresh reads the same kept verdict
    a, b = (negacyclic_code(26, F25, centered_defining_set(5, d)) for d in (1, 2))
    other = LinearCode.full_space(F25, 26)
    verdict = a.hermitian_dual_is_subcode_of(b)
    scanned = LinearCode.from_parity(a.parity), LinearCode.from_parity(b.parity)
    assert verdict == scanned[0]._hermitian_dual_within(scanned[1])
    assert a.hermitian_dual_is_subcode_of(other)

    def refuse(*args):
        raise AssertionError("cross-Gram re-derived")

    negacyclic._build_negacyclic.cache_clear()
    fresh = negacyclic_code(26, F25, centered_defining_set(5, 2))
    assert fresh is not b and fresh == b
    with monkeypatch.context() as mp:
        mp.setattr(code_module, "poly_divmod", refuse)
        assert a.hermitian_dual_is_subcode_of(b) == verdict
        assert a.hermitian_dual_is_subcode_of(fresh) == verdict
    # a matrix-scan verdict is kept by no one: it is derived again, and agrees
    assert a.hermitian_dual_is_subcode_of(LinearCode.from_parity(b.parity)) == verdict
    with pytest.raises(ValueError, match="different spaces"):
        a.hermitian_dual_is_subcode_of(LinearCode.full_space(F25, 25))


@settings(max_examples=200, deadline=None)
@given(codes(), st.sampled_from([3, 10, 10**6]))
def test_is_mds_matches_reference(C, budget):
    try:
        expected = reference_is_mds(C, budget)
    except BudgetError as exc:
        with pytest.raises(BudgetError, match=re.escape(str(exc))):
            C.is_mds(budget)
    else:
        assert C.is_mds(budget) == expected


@pytest.mark.parametrize("pm", SQUARE_FIELDS)
def test_both_containment_verdicts_occur(pm):
    fld = field(*pm)
    rng = random.Random(7)
    verdicts = set()
    for _ in range(40):
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            C = random_dual_containing_code(fld, n, rng.randint(0, n // 2), rng)
        else:
            rows = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(rng.randint(0, n))]
            C = LinearCode.from_generator(Matrix(fld, rows, ncols=n))
        verdict = C.is_hermitian_dual_containing()
        assert verdict == reference_is_hermitian_dual_containing(C)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@settings(max_examples=100, deadline=None)
@given(codes())
def test_parity_spans_the_dual(C):
    H = C.parity
    assert (H.nrows, H.ncols) == (C.n - C.k, C.n)
    assert H.rank() == C.n - C.k
    assert all_zero(C.gen @ H.transpose())


@pytest.mark.parametrize("pm", SQUARE_FIELDS)
def test_parity_of_the_trivial_codes(pm):
    fld = field(*pm)
    assert LinearCode.zero_code(fld, 4).parity == Matrix.identity(fld, 4)
    H = LinearCode.full_space(fld, 4).parity
    assert (H.nrows, H.ncols) == (0, 4)


@settings(max_examples=100, deadline=None)
@given(codes())
def test_derived_state_leaves_equality_and_hash_alone(C):
    # the code stored by G, by H and by a function that returns H
    forms = [LinearCode.from_generator(C.gen), LinearCode.from_parity(C.parity), deferred(C)]
    C.is_hermitian_dual_containing()
    for fresh in forms:
        assert fresh == C and C == fresh
        assert hash(fresh) == hash(C)
        assert len({fresh, C}) == 1
    assert all(a == b and hash(a) == hash(b) for a in forms for b in forms)
    assert len({*forms, C}) == 1
    assert all(fresh.gen == C.gen and fresh.parity == C.parity for fresh in forms)


def test_a_code_whose_g_is_its_duals_h_differs_from_it():
    # over GF(3), span([1,1,1,1]) is compared by its G (2k <= n) and its
    # Euclidean dual by its right-reduced H (2k > n): the same matrix, so
    # only k tells the two codes apart
    C = LinearCode.from_generator(Matrix(field(3), [[1, 1, 1, 1]]))
    D = C.euclidean_dual()
    assert C.gen == D.parity and (C.k, D.k) == (1, 3)
    assert C != D and D != C
    assert len({C, D}) == 2
    assert D.euclidean_dual() == C


IDENTITY_GUARD = """
import json
from mpqc.gf import square_field
from mpqc.negacyclic import negacyclic_code
from mpqc.quantum import _chain_defining_sets, build_chain

product = build_chain(17, (1, 2, 3)).classical
n, sets = _chain_defining_sets(17, (1, 2, 3), "full")
codes = [negacyclic_code(n, square_field(17), Z) for Z in sets] + [product]
hashes = [hash(C) for C in codes]
print(json.dumps({
    "params": [[C.n, C.k] for C in codes],
    "stable": [hash(C) for C in codes] == hashes,
    "equal": [[a == b for b in codes] for a in codes],
    "distinct": len(set(codes)),
    "gen_unread": [C._gen is None for C in codes],
    "parity_rows": [C._parity.nrows for C in codes],
}))
"""


def test_chain_codes_hash_and_compare_without_their_generators():
    # code identity reads the smaller canonical side: H for the three l = 17
    # components and their [870,855] product, so none writes its G; a fresh
    # interpreter, so every code is cold
    src = os.path.dirname(os.path.dirname(mpqc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", IDENTITY_GUARD], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["params"] == [[290, 287], [290, 285], [290, 283], [870, 855]]
    assert doc["stable"]
    assert doc["equal"] == [[i == j for j in range(4)] for i in range(4)]
    assert doc["distinct"] == 4
    assert doc["gen_unread"] == [True] * 4
    assert doc["parity_rows"] == [3, 5, 7, 15]


def test_containment_verdict_is_computed_once(F9, monkeypatch):
    C = random_dual_containing_code(F9, 6, 2, random.Random(3))
    assert C.is_hermitian_dual_containing()

    def refuse(*args):
        raise AssertionError("containment re-derived")

    monkeypatch.setattr(Matrix, "nullspace", refuse)
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    assert C.is_hermitian_dual_containing()

