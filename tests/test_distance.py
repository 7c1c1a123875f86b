"""Differential tests: the projective exhaustive distance oracle against the
full message enumeration it replaced, and against the support scan; the
full-row-rank product bound, whose prefix distances come from the support
scan, against exhaustive prefix distances."""

import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpqc.code import BudgetError, LinearCode, exact_report
from mpqc.gf import field
from mpqc.matrix import Matrix
from mpqc.product import character_matrix, frr_distance_bound, is_frr, row_prefix_code

# ---------------------------------------------------------------------------
# reference implementation, kept verbatim from the full-enumeration version


def reference_min_distance_exhaustive(self, budget=10**7):
    """Exact distance by enumerating all q^k - 1 nonzero messages."""
    if self.k == 0:
        raise ValueError("the zero code has no distance")
    f = self.field
    q = f.order
    if q**self.k > budget:
        raise BudgetError(f"{q}^{self.k} messages exceed budget {budget}")
    add, mul = f.tables.add, f.tables.mul
    n = self.n
    scaled_rows = [[[mul[c][x] for x in row] for c in range(1, q)] for row in self.gen.rows]
    best = n + 1
    stack = [(0, [0] * n, False)]
    while stack:
        i, acc, nonzero = stack.pop()
        if i == self.k:
            if nonzero:
                w = n - acc.count(0)
                if w < best:
                    best = w
            continue
        stack.append((i + 1, acc, nonzero))
        for s in scaled_rows[i]:
            stack.append((i + 1, [add[a][b] for a, b in zip(acc, s)], True))
    return exact_report(best, "exhaustive")


# ---------------------------------------------------------------------------
# strategies

# GF(2), GF(3), GF(4), GF(8), GF(9), GF(25), GF(49); over GF(2) the last
# coefficient has a single nonzero value
FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2)]
REFERENCE_MESSAGES = 3 * 10**4  # keeps the q^k reference walk quick
SHAPES = [
    "random", "k=1", "full", "sparse-last", "repeated-columns", "zero-columns",
    "unit-row", "parallel-parts", "vandermonde",
]


def _max_k(q):
    k = 1
    while q ** (k + 1) <= REFERENCE_MESSAGES:
        k += 1
    return k


def _entries(draw, fld, count):
    entry = st.just(0) | st.integers(1, fld.order - 1)
    return [draw(entry) for _ in range(count)]


@st.composite
def nonzero_codes(draw, max_n=10):
    fld = field(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(SHAPES))
    kmax = min(n, _max_k(fld.order))
    if shape == "full":
        n = draw(st.integers(1, kmax))
        return LinearCode.full_space(fld, n)
    if shape == "vandermonde":
        # evaluations of the polynomials of degree < rows at n distinct points:
        # d = n - rows + 1, so at least 3 (where q allows) and often exactly 3
        mul = fld.tables.mul
        n = min(n, fld.order)
        rows = draw(st.integers(1, max(1, min(kmax, n - 2))))
        gen = [[1] * n]
        while len(gen) < rows:
            gen.append([mul[x][a] for x, a in zip(gen[-1], range(n))])
        return LinearCode.from_generator(Matrix(fld, gen, ncols=n))
    rows = draw(st.integers(1, kmax))
    if shape == "k=1":
        rows = 1
    gen = [_entries(draw, fld, n) for _ in range(rows)]
    if shape == "sparse-last":
        # a last row of weight 1 to 3: the lightest word often sits on it alone
        last = [0] * n
        for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            last[j] = draw(st.integers(1, fld.order - 1))
        gen[-1] = last
    elif shape == "unit-row":
        # a unit vector in the code: its RREF holds it as a row, so d = 1
        unit = [0] * n
        unit[draw(st.integers(0, n - 1))] = 1
        gen[draw(st.integers(0, rows - 1))] = unit
    elif shape == "parallel-parts":
        # systematic [I | P] whose last row's part is a multiple of another's
        rows = min(rows, n)
        mul = fld.tables.mul
        parts = [_entries(draw, fld, n - rows) for _ in range(rows)]
        if rows > 1:
            c = draw(st.integers(1, fld.order - 1))
            parts[-1] = [mul[c][x] for x in parts[draw(st.integers(0, rows - 2))]]
        gen = [[int(i == j) for j in range(rows)] + part for i, part in enumerate(parts)]
    elif shape in ("repeated-columns", "zero-columns"):
        cols = [list(c) for c in zip(*gen)]
        for _ in range(draw(st.integers(1, 3))):
            j = draw(st.integers(0, len(cols) - 1))
            extra = [0] * rows if shape == "zero-columns" else list(cols[j])
            cols.insert(draw(st.integers(0, len(cols))), extra)
        gen = [list(r) for r in zip(*cols)]
        n = len(cols)
    C = LinearCode.from_generator(Matrix(fld, gen, ncols=n))
    if C.k == 0:  # every drawn row was zero
        C = LinearCode.from_generator(Matrix(fld, [[1] * n]))
    return C


# ---------------------------------------------------------------------------
# differential tests


@settings(max_examples=600, deadline=None)
@given(nonzero_codes(max_n=12))
@example(LinearCode.from_generator(Matrix(field(2, 1), [[1, 1, 1, 0], [0, 0, 0, 1]])))
@example(LinearCode.from_generator(Matrix(field(7, 2), [[1, 0, 3], [0, 1, 0]])))
# a unit row after two rows with parallel parts: d = 1, not 2
@example(LinearCode.from_generator(Matrix(field(3, 1), [[1, 0, 0, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 0, 0]])))
@example(LinearCode.from_generator(Matrix(field(3, 1), [[1, 0, 0, 1, 1], [0, 1, 0, 2, 2], [0, 0, 1, 1, 2]])))
@example(LinearCode.full_space(field(3, 2), 3))
def test_exhaustive_matches_reference(C):
    assert C.min_distance_exhaustive() == reference_min_distance_exhaustive(C)


# (field, generator rows, d): each exit and both ends of the walk
DISTANCE_TABLE = [
    ((3, 1), [[1, 0, 0, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 0, 0]], 1),  # a unit row last
    ((2, 1), [[1, 1, 1, 0], [0, 0, 0, 1]], 1),
    ((7, 2), [[1, 0, 3], [0, 1, 0]], 1),
    ((3, 1), [[1, 0, 0, 1, 1], [0, 1, 0, 2, 2], [0, 0, 1, 1, 2]], 2),  # parallel parts
    ((3, 1), [[1, 0, 0, 1], [0, 1, 1, 1]], 2),  # a part of weight 1
    ((3, 1), [[1, 0, 1, 1], [0, 1, 1, 2]], 3),  # the tetracode
    ((2, 2), [[1, 0, 1, 1], [0, 1, 1, 2]], 3),  # MDS over GF(4)
    ((3, 1), [[1, 0, 0, 2, 0, 0, 1], [0, 1, 1, 1, 1, 1, 2]], 3),  # the first row alone (c = 0)
    ((2, 2), [[1, 0, 2, 0, 2, 0, 1], [0, 1, 2, 2, 2, 0, 1]], 3),  # zero off the last row's support
    # the [7, 4] Hamming code, then extended by a parity column
    ((2, 1), [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]], 3),
    ((2, 1), [[1, 0, 0, 0, 1, 1, 0, 1], [0, 1, 0, 0, 1, 0, 1, 1], [0, 0, 1, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1, 0]], 4),
    ((3, 1), [[1, 0, 1, 1, 1, 1], [0, 1, 1, 2, 1, 2]], 4),
    ((3, 2), [[1] * 5], 5),
]


def test_distance_table_matches_reference():
    outcomes = set()
    for pm, rows, d in DISTANCE_TABLE:
        C = LinearCode.from_generator(Matrix(field(*pm), rows))
        assert C.min_distance_exhaustive() == reference_min_distance_exhaustive(C) == exact_report(d, "exhaustive")
        outcomes.add(min(d, 4))
    assert outcomes == {1, 2, 3, 4}  # d = 1, d = 2, exactly 3 and more than 3


@settings(max_examples=200, deadline=None)
@given(nonzero_codes(max_n=7))  # up to three columns are inserted: n <= 10
# e_0 is the only unit vector in the code: d = 1 from one column set alone
@example(LinearCode.from_generator(Matrix(field(2, 1), [[1, 0, 0], [0, 1, 1]])))
def test_exhaustive_matches_support_scan(C):
    assert C.min_distance_exhaustive() == C.min_distance_by_supports()


@pytest.mark.parametrize("pm", FIELDS)
def test_trivial_shapes_in_every_field(pm):
    fld = field(*pm)
    for n in range(1, _max_k(fld.order) + 1):
        assert LinearCode.full_space(fld, n).min_distance_exhaustive() == exact_report(1, "exhaustive")
    repetition = LinearCode.from_generator(Matrix(fld, [[1] * 5]))
    assert repetition.min_distance_exhaustive().lower == 5
    # the lightest word is the last generator row alone
    lone_last = LinearCode.from_generator(Matrix(fld, [[1, 1, 1, 0], [0, 0, 0, 1]]))
    assert lone_last.min_distance_exhaustive().lower == 1


@pytest.mark.parametrize("pm", FIELDS)
def test_budget_is_charged_as_q_to_the_k(pm):
    fld = field(*pm)
    q = fld.order
    C = LinearCode.from_generator(Matrix(fld, [[1, 0, 1], [0, 1, 1]]))
    with pytest.raises(BudgetError) as new:
        C.min_distance_exhaustive(q**2 - 1)
    with pytest.raises(BudgetError, match=re.escape(str(new.value))):
        reference_min_distance_exhaustive(C, q**2 - 1)
    assert str(new.value) == f"{q}^2 messages exceed budget {q**2 - 1}"
    assert C.min_distance_exhaustive(q**2) == reference_min_distance_exhaustive(C, q**2)


@pytest.mark.parametrize("pm", FIELDS)
def test_zero_code_has_no_distance(pm):
    with pytest.raises(ValueError, match="the zero code has no distance"):
        LinearCode.zero_code(field(*pm), 3).min_distance_exhaustive()


# ---------------------------------------------------------------------------
# full-row-rank product bound


@st.composite
def frr_products(draw):
    """Full-row-rank s x m A (s <= m <= 4; for odd q sometimes the first s rows
    of the 4 x 4 character table) and s random nonzero components."""
    fld = field(*draw(st.sampled_from([(2, 2), (3, 2), (5, 2)])))
    if fld.p != 2 and draw(st.booleans()):
        A = character_matrix(fld, 2).take_rows(draw(st.integers(1, 4)))
    else:
        m = draw(st.integers(1, 4))
        s = draw(st.integers(1, m))
        A = Matrix(fld, [_entries(draw, fld, m) for _ in range(s)], ncols=m)
        assume(is_frr(A))
    n = draw(st.integers(1, 3))
    codes = []
    for _ in range(A.nrows):
        rows = [_entries(draw, fld, n) for _ in range(draw(st.integers(1, 2)))]
        C = LinearCode.from_generator(Matrix(fld, rows, ncols=n))
        codes.append(C if C.k else LinearCode.from_generator(Matrix(fld, [[1] * n])))
    return codes, A


@settings(max_examples=200, deadline=None)
@given(frr_products())
# full spaces of length 1 under the 4 x 4 character table over GF(9): the
# bound is set by the last component and the whole table, d = 1 * 1
@example(([LinearCode.full_space(field(3, 2), 1)] * 4, character_matrix(field(3, 2), 2)))
def test_frr_bound_matches_exhaustive_prefix_distances(product):
    codes, A = product
    dists = [C.min_distance_exhaustive().lower for C in codes]
    expected = min(
        d * row_prefix_code(A, i).min_distance_exhaustive().lower
        for i, d in enumerate(dists, 1)
    )
    assert frr_distance_bound(codes, dists, A) == expected
