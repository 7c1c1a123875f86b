"""Differential tests for the structured chain build: the parity-side
assembly of a dual-containing matrix product code against the product's
definition, the parity check read off an RREF
and the RREF read off a parity check, and the kept facts (negacyclic
components, NSC verdicts, polynomial divisions), each against the reference code
it replaced."""

import ast
import gc
import inspect
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_kernel import reference_nullspace

from mpqc import code as code_module
from mpqc import constructions, negacyclic, product, verify
from mpqc.cli import cmd_example
from mpqc.code import LinearCode
from mpqc.gf import Field, field, square_field
from mpqc.matrix import Matrix
from mpqc.negacyclic import centered_defining_set, negacyclic_code
from mpqc.product import (
    ConsistencyError,
    character_matrix,
    dual_containing_product,
    is_nsc,
    is_upper_triangular,
    matrix_product_code,
    nested_chain_product,
    product_dual,
)
from mpqc.quantum import (
    _chain_defining_sets,
    _chain_matrix,
    admissible_triples,
    build_case,
    build_chain,
)
from mpqc.verify import (
    random_code,
    random_diagonal_condition_matrix,
    random_dual_containing_chain,
    random_dual_containing_code,
    random_nonsingular,
)

# ---------------------------------------------------------------------------
# reference implementations, kept verbatim from the elimination-based versions


def reference_product(codes, A):
    """Every block a_ij G_i stacked, then one kernel elimination."""
    fld, n = codes[0].field, codes[0].n
    m = A.ncols
    mul = fld.tables.mul
    zeros = [0] * n
    rows = []
    for i, code in enumerate(codes):
        arow = A.rows[i]
        for g in code.gen.rows:
            rows.append([x for a in arow for x in ([mul[a][y] for y in g] if a else zeros)])
    if not rows:
        return LinearCode.zero_code(fld, n * m)
    return LinearCode.from_generator(Matrix(fld, rows, ncols=n * m))


def reference_triangular_product(codes, A):
    """The RREF of [C_1..C_s]A assembled block by block, last block first.

    Block i's rows (a_ij G_i)_j vanish before column block i and hold a_ii G_i
    there, so scaled by 1/a_ii they carry G_i's pivots (offset by i*n).  What
    remains is clearing those rows at the pivot columns of every later block,
    with the later blocks' already-reduced rows.  Reduced rows vanish on each
    other's pivots, so the coefficient at one pivot is not changed by clearing
    another, and a row holding b_j g in column block j can meet a later pivot
    only on the support of g.  In a descending chain (each later component
    inside the earlier ones) a later component's pivots are among C_i's, so a
    row of block i meets at most one of them per later block.
    """
    fld, n = codes[0].field, codes[0].n
    s, m = A.nrows, A.ncols
    add, mul, neg, inv = fld.tables
    zeros = [0] * n
    later: dict[int, list] = {}  # pivot column -> nonzero (column, entry) pairs of its row
    rows: list[list[int]] = []
    for i in reversed(range(s)):
        scale = mul[inv[A.rows[i][i]]]
        brow = [scale[a] for a in A.rows[i]]
        offsets = [j * n for j in range(i + 1, s) if brow[j]]
        gen = codes[i].gen
        block = []
        for g, lead in zip(gen.rows, gen.leading_columns()):
            row = []
            for b in brow:
                row += g if b == 1 else [mul[b][y] for y in g] if b else zeros
            for p in [o + t for t, y in enumerate(g) if y for o in offsets]:
                if p in later:
                    f = mul[neg[row[p]]]
                    for j, y in later[p]:
                        row[j] = add[row[j]][f[y]]
            block.append(row)
            if i:  # block 0 clears nothing
                later[i * n + lead] = [(j, y) for j, y in enumerate(row[i * n:], i * n) if y]
        rows[:0] = block
    if not rows:
        return LinearCode.zero_code(fld, n * m)
    return LinearCode(fld, n * m, Matrix(fld, rows, ncols=n * m))


# ---------------------------------------------------------------------------
# strategies

SQUARE_FIELDS = [(2, 2), (3, 2), (5, 2), (7, 2)]  # GF(4), GF(9), GF(25), GF(49)


@st.composite
def component(draw, fld, n):
    kind = draw(st.sampled_from(["random", "random", "zero", "full"]))
    if kind == "zero":
        return LinearCode.zero_code(fld, n)
    if kind == "full":
        return LinearCode.full_space(fld, n)
    entry = st.just(0) | st.integers(0, fld.order - 1)
    rows = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, n + 1)))]
    return LinearCode.from_generator(Matrix(fld, rows, ncols=n))


@st.composite
def triangular_products(draw):
    """Components and an s x m matrix, zero below the diagonal and nonzero on
    it; entries above it are often zero."""
    fld = field(*draw(st.sampled_from(SQUARE_FIELDS)))
    s = draw(st.integers(1, 4))
    m = draw(st.integers(s, s + 2))
    n = draw(st.integers(1, 5))
    codes = [draw(component(fld, n)) for _ in range(s)]
    above = st.just(0) | st.integers(0, fld.order - 1)
    rows = [
        [0] * i + [draw(st.integers(1, fld.order - 1))] + [draw(above) for _ in range(m - i - 1)]
        for i in range(s)
    ]
    return codes, Matrix(fld, rows, ncols=m)


@st.composite
def other_products(draw):
    """Components and a matrix of every other shape the product meets: a
    nonsingular square A that is not upper triangular, an s x m A with
    s < m, a character table, or an A whose rows are dependent."""
    kind = draw(st.sampled_from(["square", "wide", "character", "deficient"]))
    pm = draw(st.sampled_from(SQUARE_FIELDS[1:] if kind == "character" else SQUARE_FIELDS))
    fld = field(*pm)
    entry = st.just(0) | st.integers(0, fld.order - 1)
    if kind == "character":
        A = character_matrix(fld, draw(st.integers(1, 2)))
    else:
        s = draw(st.integers(1 if kind == "wide" else 2, 4))
        extra = {"square": st.just(0), "wide": st.integers(1, 2), "deficient": st.integers(0, 1)}[kind]
        m = s + draw(extra)
        rows = [[draw(entry) for _ in range(m)] for _ in range(s)]
        if kind == "deficient":
            c = draw(st.integers(0, fld.order - 1))
            rows[-1] = [fld.tables.mul[c][x] for x in rows[0]]
        A = Matrix(fld, rows, ncols=m)
        if kind == "square":
            assume(A.det() and not is_upper_triangular(A))
    n = draw(st.integers(1, 4))
    return [draw(component(fld, n)) for _ in range(A.nrows)], A


@st.composite
def square_products(draw):
    """Components and a square nonsingular A, the matrices under which a
    dual-containing product is assembled on its parity side: upper
    triangular, not triangular, or a character table.  The components are
    arbitrary codes, or a nested chain of dual-containing codes, ascending
    or descending."""
    shape = draw(st.sampled_from(["triangular", "general", "character"]))
    fld = field(*draw(st.sampled_from(SQUARE_FIELDS[1:] if shape == "character" else SQUARE_FIELDS)))
    entry = st.just(0) | st.integers(0, fld.order - 1)
    if shape == "character":
        A = character_matrix(fld, draw(st.integers(1, 2)))
    elif shape == "triangular":
        s = draw(st.integers(1, 4))
        rows = [
            [0] * i + [draw(st.integers(1, fld.order - 1))] + [draw(entry) for _ in range(s - i - 1)]
            for i in range(s)
        ]
        A = Matrix(fld, rows, ncols=s)
    else:
        s = draw(st.integers(2, 4))
        A = Matrix(fld, [[draw(entry) for _ in range(s)] for _ in range(s)], ncols=s)
        assume(A.det() and not is_upper_triangular(A))
    s, n = A.nrows, draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["arbitrary", "ascending", "descending"]))
    if kind == "arbitrary":
        return [draw(component(fld, n)) for _ in range(s)], A
    codes = random_dual_containing_chain(fld, n, s, random.Random(draw(st.integers(0, 2**32))))
    return (codes if kind == "ascending" else codes[::-1]), A


def parity_product(codes, A):
    """The code stored by the parity check that a dual-containing product's
    deferred assembly returns."""
    H = product._parity_product(codes, product._checked_inverse_transpose(A))
    return LinearCode(H.field, H.ncols, None, H)


# ---------------------------------------------------------------------------
# parity-side product assembly


@settings(max_examples=400, deadline=None)
@given(square_products())
def test_parity_product_matches_kernel(case):
    codes, A = case
    got = parity_product(codes, A)
    assert got._gen is None  # stored by its parity check
    want = matrix_product_code(codes, A)
    assert got.k == want.k == sum(c.k for c in codes)
    assert got.parity.rows == want.parity.rows
    assert got.gen.rows == want.gen.rows
    assert got == want
    if is_upper_triangular(A):
        old = reference_triangular_product(codes, A)
        assert got.parity.rows == old.parity.rows and got.gen.rows == old.gen.rows


@settings(max_examples=400, deadline=None)
@given(other_products())
def test_every_matrix_matches_kernel(case):
    # the definition, for wide and rank-deficient matrices too, where the
    # dual identity does not apply
    codes, A = case
    got = matrix_product_code(codes, A)
    want = reference_product(codes, A)
    assert got.k == want.k
    assert got.gen.rows == want.gen.rows
    assert got.parity.rows == want.parity.rows


@settings(max_examples=200, deadline=None)
@given(triangular_products())
def test_from_parity_round_trips(case):
    codes, A = case
    for C in (*codes, reference_product(codes, A)):
        back = LinearCode.from_parity(C.parity)
        assert back.k == C.k and back.parity == C.parity
        assert back.gen.rows == C.gen.rows
        assert back == C and hash(back) == hash(C)


def test_from_parity_of_the_trivial_codes(F9):
    for n in (1, 4):
        zero = LinearCode.from_parity(Matrix.identity(F9, n))
        full = LinearCode.from_parity(Matrix.zeros(F9, 0, n))
        assert zero.k == 0 and zero == LinearCode.zero_code(F9, n)
        assert full.k == n and full == LinearCode.full_space(F9, n)


def test_trailing_columns_of_a_right_reduced_matrix(F9):
    H = Matrix(F9, [[2, 1, 0, 0, 0], [1, 0, 2, 1, 0], [0, 0, 1, 0, 1]])
    assert H.trailing_columns() == [1, 3, 4]
    assert Matrix.zeros(F9, 0, 3).trailing_columns() == []


def test_triangular_product_checks_the_inverse(F25, monkeypatch):
    codes = [LinearCode.full_space(F25, 2)] * 2  # a dual-containing chain
    A = Matrix(F25, [[1, 3], [0, 2]])
    _, ainv = A.det_inverse()
    assert product._checked_product(codes, A, "lost") == matrix_product_code(codes, A)
    wrong = Matrix(F25, [list(ainv.rows[0]), [0, 1]])
    monkeypatch.setattr(Matrix, "det_inverse", lambda self: (None, wrong))
    product._checked_inverse_transpose.cache_clear()  # A's checked inverse is kept
    with pytest.raises(ConsistencyError, match="A A\\^-1 = I"):
        product._checked_product(codes, A, "lost")
    # a singular A is refused: both callers' conditions rule it out
    monkeypatch.setattr(Matrix, "det_inverse", lambda self: (None, None))
    with pytest.raises(ConsistencyError, match="singular"):
        product._checked_product(codes, A, "lost")


def test_descending_and_ascending_chains_match_kernel(F25):
    rng = random.Random(11)
    for s in (2, 3, 4):
        up = random_dual_containing_chain(F25, 6, s, rng)
        for codes in (up, up[::-1]):
            for _ in range(3):
                rows = [[0] * i + [rng.randrange(1, 25) for _ in range(s - i)] for i in range(s)]
                A = Matrix(F25, rows, ncols=s)
                got = parity_product(codes, A)
                assert got.parity.rows == matrix_product_code(codes, A).parity.rows


CHAIN_CASES = [(5, "full"), (9, "full"), (13, "full"), (7, "half"), (11, "half")]


@pytest.mark.parametrize("l, family", CHAIN_CASES)
def test_every_admissible_chain_matches_kernel(l, family):
    fld = square_field(l)
    A = _chain_matrix(fld)
    for deltas in admissible_triples(l, family, strict=False):
        n, sets = _chain_defining_sets(l, deltas, family)
        codes = [negacyclic_code(n, fld, Z) for Z in sets]
        got = parity_product(codes, A)
        old = reference_triangular_product(codes, A)
        assert got.parity.rows == old.parity.rows, deltas
        assert got.gen.rows == old.gen.rows == matrix_product_code(codes, A).gen.rows, deltas
        if l <= 9:
            assert got.parity.rows == reference_nullspace(got.gen).rows, deltas


def test_chain_product_still_checks_containment(F25):
    rng = random.Random(5)
    chain = random_dual_containing_chain(F25, 6, 3, rng)
    A = Matrix(F25, [[1, 1, 1], [0, 2, 1], [0, 0, 1]])
    assert nested_chain_product(chain, A) == reference_product(chain, A)
    with pytest.raises(ValueError, match="containment chain"):
        nested_chain_product([chain[0], chain[2], chain[1]], A)


def test_product_dual_and_character_products_take_the_kernel(F25):
    rng = random.Random(8)
    codes = [random_dual_containing_code(F25, 5, 2, rng) for _ in range(4)]
    X = character_matrix(F25, 2)
    kernel = matrix_product_code(codes, X)
    assert kernel == reference_product(codes, X)
    assert dual_containing_product(codes, X) == kernel
    A = Matrix(F25, [[1, 3, 4], [0, 2, 1], [0, 0, 4]])
    dual = product_dual(codes[:3], A)
    assert dual == reference_product(codes[:3], A).euclidean_dual()


def test_product_dual_builds_its_side_from_the_definition(F25, monkeypatch):
    # the dual identity is what the parity-side assembly relies on, so its
    # check must not build either side through that assembly
    rng = random.Random(9)
    codes = [random_dual_containing_code(F25, 5, 2, rng) for _ in range(3)]
    A = Matrix(F25, [[1, 3, 4], [0, 2, 1], [0, 0, 4]])
    want = product_dual(codes, A)

    def refuse(*args):
        raise AssertionError("dual identity checked through the parity-side assembly")

    monkeypatch.setattr(product, "_parity_product", refuse)
    assert product_dual(codes, A) == want


@settings(max_examples=200, deadline=None)
@given(square_products(), st.data())
def test_membership_through_the_parity_check_matches_the_row_space(case, data):
    codes, A = case
    got = parity_product(codes, A)  # stored by its parity check
    G = reference_product(codes, A).gen
    fld, nm = G.field, G.ncols
    add, mul = fld.tables.add, fld.tables.mul
    entry = st.integers(0, fld.order - 1)
    for _ in range(6):
        word = [data.draw(entry) for _ in range(nm)]
        if G.nrows and data.draw(st.booleans()):  # a codeword, perhaps
            word = [0] * nm
            for row in G.rows:
                m = mul[data.draw(entry)]
                word = [add[x][m[y]] for x, y in zip(word, row)]
        assert got.contains_word(word) == G.row_space_contains(word)
    assert got._gen is None


# ---------------------------------------------------------------------------
# parity read off the RREF


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SQUARE_FIELDS), st.integers(1, 7), st.data())
def test_parity_read_off_matches_nullspace(pm, n, data):
    C = data.draw(component(field(*pm), n))
    H = C.parity
    assert H.rows == reference_nullspace(C.gen).rows
    assert H.rows == C.gen.nullspace().rows
    assert all(x == 0 for r in (C.gen @ H.transpose()).rows for x in r)


@settings(max_examples=100, deadline=None)
@given(square_products())
def test_product_parity_matches_nullspace(case):
    C = parity_product(*case)
    assert C.parity.rows == reference_nullspace(C.gen).rows


def test_parity_of_a_negacyclic_component(F25):
    C = negacyclic_code(26, F25, centered_defining_set(5, 2))
    assert C.parity.rows == reference_nullspace(C.gen).rows


# ---------------------------------------------------------------------------
# kept facts


def test_negacyclic_memo_returns_the_same_code(F25):
    Z = centered_defining_set(5, 1)
    first = negacyclic_code(26, F25, Z)
    assert negacyclic_code(26, F25, Z) is first
    negacyclic._build_negacyclic.cache_clear()
    again = negacyclic_code(26, F25, Z)
    assert again is not first and again == first
    assert again.gen.rows == first.gen.rows
    assert negacyclic_code(26, F25, Z) is again


def test_negacyclic_memo_keeps_the_argument_checks(F25):
    Z = centered_defining_set(5, 1)
    negacyclic_code(26, F25, Z)
    with pytest.raises(negacyclic.NegacyclicError, match="different"):
        negacyclic_code(26, field(3, 2), Z)


def test_nsc_verdict_is_kept_per_matrix(F25, monkeypatch):
    A = Matrix(F25, [[1, 1, 1], [0, 2, 1], [0, 0, 1]])
    B = Matrix(F25, [[1, 1, 1], [0, 1, 1], [0, 0, 1]])  # the 2 x 2 minor on columns 2, 3 is singular
    assert is_nsc(A) and not is_nsc(B)

    def refuse(*args):
        raise AssertionError("NSC verdict re-derived")

    with monkeypatch.context() as mp:
        mp.setattr(Matrix, "det_inverse", refuse)
        assert is_nsc(Matrix(F25, [list(r) for r in A.rows]))  # an equal matrix
        assert not is_nsc(B)
    product._all_prefix_minors_invertible.cache_clear()
    assert is_nsc(A) and not is_nsc(B)


def _within_two_levels(obj):
    first = gc.get_referents(obj)
    return first + gc.get_referents(*first)


@pytest.mark.parametrize("stored", ["matrices", "generator-polynomials"])
def test_no_verdict_leaves_one_code_referencing_another(stored, F25):
    if stored == "matrices":
        rng = random.Random(4)
        pair = [random_dual_containing_code(F25, 6, 2, rng) for _ in range(2)]
    else:
        pair = [negacyclic_code(26, F25, centered_defining_set(5, d)) for d in (1, 2)]
    for a, b in (pair, pair[::-1]):
        a.is_subcode_of(b)
        a.hermitian_dual_is_subcode_of(b)
        a.is_hermitian_dual_containing()
    for a, b in (pair, pair[::-1]):
        held = _within_two_levels(a)
        assert not any(x is b or x is b.parity for x in held)


@settings(max_examples=100, deadline=None)
@given(triangular_products())
def test_kept_verdicts_leave_equality_hash_and_dict_alone(case):
    codes, A = case
    # stored by its generator, by a component's, and (for a square A) by
    # its parity check
    stored = [matrix_product_code(codes, A), codes[0]]
    if A.nrows == A.ncols:
        stored.append(parity_product(codes, A))
    for C in stored:
        fresh = LinearCode.from_generator(C.gen)
        C.parity
        C.is_hermitian_dual_containing()
        C.is_subcode_of(fresh)
        C.is_subcode_of(LinearCode.full_space(C.field, C.n))
        assert fresh == C and C == fresh
        assert hash(fresh) == hash(C)
        assert fresh.gen == C.gen
        assert len({fresh, C}) == 1


def test_kept_facts_against_a_hand_count():
    # example 3.8 at l = 9: 35 admissible triples, each with 3 negacyclic
    # components of length 82 over GF(81) drawn from the centered defining
    # sets at depths 0..4, one root of unity, and the one NSC matrix
    # every chain reuses (70 is_nsc calls).  The chain checks are divisions
    # of the components' polynomials: for d1 <= d2 <= d3 the descending check
    # divides both consecutive pairs (70), and the ascending one divides a
    # pair only when its depths are equal, stopping at the first larger k
    # (15 triples with d1 = d2, 5 of them with d2 = d3 too: 20).  The block
    # verdicts are coprimality tests: 70 cross verdicts (t1, t2) and (t1, t3)
    # and the 5 own verdicts (d, d).  Both read the 15 depth pairs d <= d'
    # once each.  Every build verifies, so no audit row is made: the 105
    # defining sets and their 105 run-bound reports come from the builds,
    # 3 components each, over the 5 depths, and the 35 builds share the
    # one field's chain matrix, inverted and checked once
    kept = (
        negacyclic._build_negacyclic,
        negacyclic._root_of_unity,
        product._all_prefix_minors_invertible,
        code_module._divides,
        code_module._coprime_to_conj_reciprocal,
        negacyclic._defining_set,
        negacyclic._distance_report,
        _chain_matrix,
        product._checked_inverse_transpose,
    )
    cmd_example("3.8", 9, strict=False, deep=True)
    counts = [(f.cache_info().hits, f.cache_info().misses) for f in kept]
    builds, components, depths = 35, 3 * 35, 5
    assert counts == [
        (100, 5), (4, 1), (69, 1), (90 - 15, 15), (75 - 15, 15),
        (components - depths, depths), (components - depths, depths), (builds - 1, 1),
        (builds - 1, 1),
    ]


@pytest.mark.parametrize(
    "f",
    [
        constructions.rs_dual_containing,
        constructions.extended_rs_dual_containing,
        constructions.negacyclic_mds_dual_containing,
        negacyclic.negacyclic_code,
        negacyclic.defining_set_from_residues,
        negacyclic.centered_defining_set,
        negacyclic.half_length_defining_set,
        negacyclic.distance_report,
        product.is_nsc,
    ],
)
def test_public_functions_with_kept_facts_stay_plain(f):
    # the caches sit on private helpers; a span tracer that wraps plain
    # functions would miss a decorated public one
    assert inspect.isfunction(f)


def test_every_kept_fact_is_registered():
    # functools.cache appears only on gf.field (fields sit below `code`, and
    # session fixtures hold them) and in the body of `code._kept`; every
    # builder `_kept` decorates is in code._KEPT, so one clear forgets them all
    cached, decorated = [], set()
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "mpqc").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (f"mpqc.{path.stem}", getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "_kept" for d in node.decorator_list
                ):
                    decorated.add((f"mpqc.{path.stem}", node.name))
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"
                    and node.attr in ("cache", "lru_cache")
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "functools"
                    and {a.name for a in node.names} & {"cache", "lru_cache"}
                ):
                    cached.append(where)
    assert sorted(cached) == [("mpqc.code", "_kept"), ("mpqc.gf", "field")]
    registered = [(f.__wrapped__.__module__, f.__wrapped__.__name__) for f in code_module._KEPT]
    assert decorated and sorted(registered) == sorted(decorated)


def test_every_public_definition_is_read_by_the_package_or_the_bench():
    # a public def or class that no module of the package and no bench
    # script names is surface that nothing reads; the bench tracer looks
    # methods up by name, so identifier strings count as reads
    root = Path(__file__).resolve().parent.parent
    package = sorted((root / "src" / "mpqc").glob("*.py"))
    read, defined = set(), []
    for path in package + sorted((root / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    read.add(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path in package:
                if not node.name.startswith("_"):
                    defined.append((f"{path.name}:{node.lineno}", node.name))
    assert [d for d in defined if d[1] not in read] == []


# ---------------------------------------------------------------------------
# Hermitian containment of a product from its component blocks


def hermitian_gram(B, fld):
    """W = conj(B) B^T for B given by its rows."""
    M = Matrix(fld, B, ncols=len(B))
    return (M.conjugate() @ M.transpose()).rows


def hermitian_orthogonal_matrix(fld, s, rng):
    """A nonsingular s x s matrix with pairwise Hermitian-orthogonal rows, so
    its W is diagonal; B B^T, W without conj, is not in general."""
    add, mul, neg, inv = fld.tables
    conj = fld.conj_table

    def form(u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = add[acc][mul[x][conj[y]]]
        return acc

    while True:
        rows = []
        for _ in range(s):
            r = [rng.randrange(fld.order) for _ in range(s)]
            for q in rows:  # r - (<r, q> / <q, q>) q is orthogonal to q
                c = mul[neg[form(r, q)]][inv[form(q, q)]]
                r = [add[x][mul[c][y]] for x, y in zip(r, q)]
            if not form(r, r):
                break  # isotropic (or zero): start over
            rows.append(r)
        if len(rows) == s:
            return Matrix(fld, rows, ncols=s)


def random_components(fld, n, s, kind, rng):
    """Nested chains of dual-containing codes (every cross-Gram vanishes),
    dual-containing codes drawn apart (cross-Grams that need not), or such
    codes mixed with arbitrary ones (own Grams that need not)."""
    if kind == "chain":
        codes = random_dual_containing_chain(fld, n, s, rng)
        return codes[::-1] if rng.random() < 0.5 else codes
    return [
        random_dual_containing_code(fld, n, rng.randint(0, n // 2), rng)
        if kind == "apart" or rng.random() < 0.5
        else random_code(fld, n, rng.randint(0, n), rng)
        for _ in range(s)
    ]


@st.composite
def block_gram_cases(draw):
    """Components and a square nonsingular A: random (W is rarely
    diagonal), upper triangular, or with Hermitian-orthogonal rows (W is
    diagonal)."""
    fld = field(*draw(st.sampled_from(SQUARE_FIELDS)))
    s, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    codes = random_components(fld, n, s, draw(st.sampled_from(["chain", "apart", "mixed"])), rng)
    shape = draw(st.sampled_from(["random", "triangular", "orthogonal"]))
    if shape == "random":
        A = random_nonsingular(fld, s, rng)
    elif shape == "triangular":
        q = fld.order
        rows = [[0] * i + [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(s - i - 1)] for i in range(s)]
        A = Matrix(fld, rows, ncols=s)
    else:
        A = hermitian_orthogonal_matrix(fld, s, rng)
    return codes, A


@settings(max_examples=300, deadline=None)
@given(block_gram_cases())
def test_block_gram_verdict_matches_the_dense_gram_test(case):
    codes, A = case
    dense = matrix_product_code(codes, A).is_hermitian_dual_containing()
    assert product._block_gram_vanishes(codes, product._checked_inverse_transpose(A)) == dense
    if all(c.is_hermitian_dual_containing() for c in codes):
        # the checked build keeps the verdict on the product it returns
        if dense:
            got = product._checked_product(codes, A, "lost")
            assert got._hermitian_dual_containing is True and got._gen is None
            assert got == reference_product(codes, A)
        else:
            with pytest.raises(ConsistencyError, match="^lost$"):
                product._checked_product(codes, A, "lost")


@pytest.mark.parametrize("pm", SQUARE_FIELDS)
def test_both_block_verdicts_occur_under_non_diagonal_w(pm):
    fld = field(*pm)
    rng = random.Random(17)
    verdicts = set()
    for t in range(120):
        s, n = rng.randint(2, 4), rng.randint(1, 5)
        codes = random_components(fld, n, s, ("chain", "apart", "mixed")[t % 3], rng)
        A = random_nonsingular(fld, s, rng)
        B = product._checked_inverse_transpose(A)
        verdict = product._block_gram_vanishes(codes, B)
        assert verdict == matrix_product_code(codes, A).is_hermitian_dual_containing()
        W = hermitian_gram(B, fld)
        if any(W[i][j] for i in range(s) for j in range(i)):
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _spy_on_gram_tests(monkeypatch):
    """(code, other) per Hermitian verdict, by Gram scan or by polynomial
    coprimality: other None for a code's own verdict, else the other code
    (a cross verdict, which may be the code itself).  Every verdict is seen,
    a kept one too; the polynomial helper's key must hold only the field and
    coefficient tuples."""
    seen = []
    within = LinearCode._hermitian_dual_within
    coprime = code_module._coprime_to_conj_reciprocal

    def spy(self, other):
        own = sys._getframe(1).f_code.co_name == "is_hermitian_dual_containing"
        seen.append((self, None if own else other))
        return within(self, other)

    def poly_spy(fld, b, a):
        assert type(fld) is Field
        assert all(type(p) is tuple and all(type(x) is int for x in p) for p in (b, a))
        return coprime(fld, b, a)

    monkeypatch.setattr(LinearCode, "_hermitian_dual_within", spy)
    monkeypatch.setattr(code_module, "_coprime_to_conj_reciprocal", poly_spy)
    return seen


def _dual_containing_products():
    rng = random.Random(21)
    fld = field(5, 2)
    out = []
    for _ in range(12):
        A = random_diagonal_condition_matrix(fld, rng)
        codes = [random_dual_containing_code(fld, 4, rng.randint(0, 2), rng) for _ in range(A.nrows)]
        out.append(dual_containing_product(codes, A))
    return 4, out


@pytest.mark.parametrize(
    "build",
    [
        lambda: (82, [build_chain(9, t).classical for t in admissible_triples(9, "full", False)]),
        lambda: (290, [build_chain(17, (1, 2, 3)).classical]),
        lambda: (24, [build_case(5, 4, "i").classical]),
        _dual_containing_products,
    ],
    ids=["chain-l9", "chain-l17", "character-l5", "dual-containing-product"],
)
def test_no_product_is_gram_tested(build, monkeypatch):
    # fresh components, so their own Gram tests run under the spy too
    seen = _spy_on_gram_tests(monkeypatch)
    n, products = build()
    assert seen and max(code.n for code, _ in seen) == n
    for P in products:
        assert P.n > n and P._hermitian_dual_containing is True
        assert P._gen is None  # nor is any product expanded to its generator


def test_cross_gram_blocks_against_a_hand_count(monkeypatch):
    # example 3.8 at l = 9: over GF(81), B = (A^-1)^T of the chain matrix
    # gives W = conj(B) B^T below, so each of the 35 builds selects the
    # cross blocks (1, 2) and (1, 3) besides the diagonal: 70 cross verdicts
    # over the 15 depth pairs d1 <= d2 from depths 0..4, each the earlier
    # component's dual against the later component; each component's own
    # verdict is decided once
    fld = square_field(9)
    assert hermitian_gram(product._checked_inverse_transpose(_chain_matrix(fld)), fld) == (
        (1, 1, 1),
        (1, 2, 0),
        (1, 0, 0),
    )
    seen = _spy_on_gram_tests(monkeypatch)
    cmd_example("3.8", 9, strict=False, deep=True)
    codes = {d: negacyclic_code(82, fld, centered_defining_set(9, d)) for d in range(5)}
    depth = {id(c): d for d, c in codes.items()}
    own = [depth[id(c)] for c, other in seen if other is None]
    cross = [(depth[id(c)], depth[id(other)]) for c, other in seen if other is not None]
    triples = admissible_triples(9, "full", strict=False)
    assert len(triples) == 35
    pairs = {(t[0], t[j]) for t in triples for j in (1, 2)}
    assert len(pairs) == 15
    assert len(cross) == 70 and set(cross) == pairs
    assert sorted(own) == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# products assembled on demand


@st.composite
def deferred_product_cases(draw):
    """Components whose every block verdict holds under any nonsingular A:
    a nested chain of dual-containing codes, stored by matrices or, at
    n = 26 over GF(25), by their generator polynomials."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    s = draw(st.integers(1, 3))
    if draw(st.booleans()):
        fld = field(*draw(st.sampled_from(SQUARE_FIELDS)))
        codes = random_dual_containing_chain(fld, draw(st.integers(1, 5)), s, rng)
    else:
        fld = field(5, 2)
        depths = draw(st.lists(st.integers(0, 2), min_size=s, max_size=s))
        codes = [negacyclic_code(26, fld, centered_defining_set(5, d)) for d in sorted(depths)]
    return codes, random_nonsingular(fld, s, rng)


@settings(max_examples=200, deadline=None)
@given(deferred_product_cases(), st.sampled_from(["==", "hash", "gen", "parity"]))
def test_deferred_product_equals_the_eager_assembly(case, first_read):
    codes, A = case
    got = product._checked_product(codes, A, "lost")
    assert got._gen is None and callable(got._parity) and got._hermitian_dual_containing
    eager = parity_product(codes, A)
    assert got.k == eager.k == sum(c.k for c in codes)
    reads = {
        "==": lambda: got == eager and eager == got,
        "hash": lambda: hash(got) == hash(eager),
        "gen": lambda: got.gen == eager.gen,
        "parity": lambda: got.parity == eager.parity,
    }
    assert reads.pop(first_read)()  # the read that assembles the product
    assert isinstance(got._parity, Matrix)  # assembled once, by that read
    assert all(read() for read in reads.values())


def test_a_component_parity_corrupted_before_assembly_is_caught(F25):
    codes = random_dual_containing_chain(F25, 6, 3, random.Random(2))
    got = product._checked_product(codes, _chain_matrix(F25), "lost")
    C = max(codes, key=lambda c: c.n - c.k)
    H = C.parity
    assert H.nrows >= 2
    object.__setattr__(C, "_parity", Matrix(F25, [H.rows[0]] * H.nrows, ncols=C.n))
    with pytest.raises(ConsistencyError, match="lost rank"):
        got.parity


# ---------------------------------------------------------------------------
# entries are range-checked at the boundary only


def _count_validated(monkeypatch):
    """Count the calls of the validating constructor from here on."""
    calls = []
    init = Matrix.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counted)
    return calls


def test_kernel_and_code_paths_build_no_validated_matrix(F25, monkeypatch):
    rng = random.Random(5)
    wide = Matrix(F25, [[rng.randrange(25) for _ in range(8)] for _ in range(3)], ncols=8)
    tall = Matrix(F25, [[rng.randrange(25) for _ in range(8)] for _ in range(6)], ncols=8)
    square = random_nonsingular(F25, 3, rng)
    codes = [random_code(F25, 4, rng.randint(1, 3), rng) for _ in range(3)]
    calls = _count_validated(monkeypatch)
    for M in (wide, tall, Matrix.zeros(F25, 0, 8), Matrix.identity(F25, 8)):
        for C in (LinearCode.from_generator(M), LinearCode.from_parity(M)):
            for dual in (C.euclidean_dual(), C.hermitian_dual()):
                assert (dual.gen.nrows, dual.parity.nrows) == (dual.k, dual.n - dual.k)
        assert M.rank() + M.nullspace().nrows == M.ncols
    assert square.det() != 0 and square.submatrix((0, 1), (1, 2)).det() is not None
    P = matrix_product_code(codes, square)
    assert product_dual(codes, square).k == P.n - P.k
    assert calls == []


def test_verify_at_the_bench_seeds_stays_within_its_boundary_count(monkeypatch):
    # the samplers' random rows and the hand-written tables are the only
    # validated constructions; every kernel output is trusted (37,928
    # validated constructions over these seeds when every matrix was checked)
    calls = _count_validated(monkeypatch)
    assert all(verify.run_suites("all", s)["passed"] for s in range(1, 6))
    assert len(calls) <= 6073
