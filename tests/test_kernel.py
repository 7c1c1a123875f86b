"""Differential tests: the table-driven elimination kernel and field tables
against the method-call reference code they replaced, run on the schoolbook
arithmetic of ``test_gf.SchoolbookField``."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqc.gf import TABLE_ORDER_CAP, Field, field
from mpqc.matrix import Matrix
from test_gf import SchoolbookField

# ---------------------------------------------------------------------------
# reference implementations, kept verbatim from the per-call Zech versions
# but for the field, whose operations are the schoolbook ones


@functools.cache
def schoolbook(F):
    return SchoolbookField(F.p, F.m, F.modulus)


def reference_rref(self):
    """Reduced row-echelon form, rank and pivot columns."""
    f = self.field
    ref = schoolbook(f)
    add, mul, neg, inv = ref.add, ref.mul, ref.neg, ref.inv
    rows = [list(r) for r in self.rows]
    nr, nc = self.nrows, self.ncols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            pinv = inv(piv)
            rows[r] = [mul(pinv, x) for x in rows[r]]
        src = rows[r]
        for i in range(nr):
            if i == r:
                continue
            fct = rows[i][c]
            if fct:
                nf = neg(fct)
                dst = rows[i]
                rows[i] = [add(d, mul(nf, s)) for d, s in zip(dst, src)]
        pivots.append(c)
        r += 1
    return Matrix(f, rows, ncols=nc), r, tuple(pivots)


def reference_nullspace(self):
    """Rows span {x : self @ x^T = 0}; comes out with ncols(self) columns."""
    R, rank, pivots = reference_rref(self)
    f = self.field
    neg = schoolbook(f).neg
    free = [c for c in range(self.ncols) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [0] * self.ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = neg(R.rows[r][fc])
        basis.append(v)
    return Matrix(f, basis, ncols=self.ncols)


def reference_det_inverse(self):
    """Determinant (an element code) and inverse; inverse is None exactly
    when singular."""
    if self.nrows != self.ncols:
        raise ValueError("determinant of a non-square matrix")
    f = self.field
    n = self.nrows
    ref = schoolbook(f)
    add, mul, neg, inv = ref.add, ref.mul, ref.neg, ref.inv
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
    det = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c]), None)
        if pr is None:
            return 0, None
        if pr != c:
            aug[c], aug[pr] = aug[pr], aug[c]
            det = neg(det)
        piv = aug[c][c]
        det = mul(det, piv)
        pinv = inv(piv)
        aug[c] = [mul(pinv, x) for x in aug[c]]
        src = aug[c]
        for i in range(n):
            if i != c and aug[i][c]:
                nf = neg(aug[i][c])
                aug[i] = [add(d, mul(nf, s)) for d, s in zip(aug[i], src)]
    return det, Matrix(f, [r[n:] for r in aug], ncols=n)


def reference_exp_log_zech(F):
    """The exp/log/Zech bootstrap that stepped g^i by a raw polynomial
    multiply, here the schoolbook one, not the packed code it checks."""
    q = F.order
    exp = [1] * (2 * q)
    log = [-1] * q
    g = F.generator
    raw_mul = SchoolbookField(F.p, F.m, F.modulus)._mul_codes_raw
    v = 1
    for i in range(q - 1):
        exp[i] = v
        log[v] = i
        v = raw_mul(v, g)
    for i in range(q - 1, 2 * q):
        exp[i] = exp[i - (q - 1)]
    p = F.p
    zech = [-1] * (q - 1)
    for k in range(q - 1):
        e = exp[k]
        c0 = e % p
        s = e - c0 + (c0 + 1) % p
        zech[k] = log[s] if s else -1
    return exp, log, zech


# ---------------------------------------------------------------------------
# strategies

# GF(2), GF(3), GF(4), GF(9), GF(25), GF(49), GF(81), GF(289), and GF(3^7)
# above the table cap so the Zech fallback runs
KERNEL_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (7, 2), (3, 4), (17, 2), (3, 7)]


@st.composite
def matrices(draw, square=False):
    fld = field(*draw(st.sampled_from(KERNEL_FIELDS)))
    nr = draw(st.integers(0, 6))
    nc = nr if square else draw(st.integers(0, 6))
    codes = st.just(0) | st.integers(0, fld.order - 1)
    if nr == 0 or draw(st.booleans()):
        rows = [[draw(codes) for _ in range(nc)] for _ in range(nr)]
    else:
        # rank at most k < nr: every row a combination of k base rows
        k = draw(st.integers(0, nr - 1))
        base = [[draw(codes) for _ in range(nc)] for _ in range(k)]
        rows = []
        for _ in range(nr):
            v = [0] * nc
            for b in base:
                c = draw(codes)
                v = [fld.add(x, fld.mul(c, y)) for x, y in zip(v, b)]
            rows.append(v)
    return Matrix(fld, rows, ncols=nc)


# ---------------------------------------------------------------------------
# elimination kernel


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_rank_pivots_match_reference(M):
    assert M.rref() == reference_rref(M)
    assert M.rank() == reference_rref(M)[1]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_matches_reference(M):
    N = M.nullspace()
    assert N == reference_nullspace(M)
    assert N.ncols == M.ncols


@settings(max_examples=300, deadline=None)
@given(matrices(square=True))
def test_det_inverse_matches_reference(M):
    det, inv = M.det_inverse()
    ref_det, ref_inv = reference_det_inverse(M)
    assert det == ref_det
    assert inv == ref_inv
    if inv is not None:
        assert M @ inv == Matrix.identity(M.field, M.nrows)


@pytest.mark.parametrize("pm", KERNEL_FIELDS)
def test_degenerate_shapes(pm):
    F = field(*pm)
    for M in (Matrix(F, [], ncols=4), Matrix(F, [[], [], []]), Matrix(F, [], ncols=0)):
        assert M.rref() == reference_rref(M)
        assert M.nullspace() == reference_nullspace(M)
        assert M.conjugate() == M  # no entry to conjugate, whatever the order
    assert Matrix(F, [], ncols=0).det_inverse() == reference_det_inverse(Matrix(F, [], ncols=0))
    with pytest.raises(ValueError):
        Matrix(F, [[1, 0, 1]]).det_inverse()


@pytest.mark.parametrize("pm", KERNEL_FIELDS)
def test_singular_square_matches_reference(pm):
    F = field(*pm)
    a = F.order - 1
    # last row equals the first, so the matrix is singular after pivoting
    M = Matrix(F, [[0, a, 1], [1, 1, 0], [0, a, 1]])
    assert M.det_inverse() == reference_det_inverse(M) == (0, None)
    assert M.rref() == reference_rref(M)


def test_range_check_reports_first_bad_entry(F9):
    with pytest.raises(ValueError, match="entry 9 is not an element code"):
        Matrix(F9, [[0, 1, 2], [3, 9, 10]])
    with pytest.raises(ValueError, match="entry -1 is not an element code"):
        Matrix(F9, [[0, -1, 12]])


# ---------------------------------------------------------------------------
# field tables


def reference_tables(F):
    """add and mul tables from the schoolbook field, whole: row a of add is
    the digit-wise sum taken over every b at once (the last digit of
    itertools.product varies fastest, as b's lowest digit), and row a of
    mul is GF(p)-linear in b, so it is spanned one digit of b at a time
    from the m schoolbook products a x^i."""
    ref = schoolbook(F)
    p, m, q = F.p, F.m, F.order
    add = []
    for a in range(q):
        terms = [[(ai + d) % p * p**i for d in range(p)] for i, ai in enumerate(ref._digits(a))]
        add.append(list(map(sum, itertools.product(*reversed(terms)))))
    mul = []
    for a in range(q):
        row = [0]  # the products a b for b < p^i
        for i in range(m):
            ax_i = ref.mul(a, p**i)
            multiples = [0]  # d a x^i for d < p
            for _ in range(p - 1):
                multiples.append(add[multiples[-1]][ax_i])
            row = [add[r][t] for t in multiples for r in row]
        mul.append(row)
    return add, mul


# GF(2^10) is tabulated at the cap
@pytest.mark.parametrize(
    "pm", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 2), (7, 2), (3, 4), (3, 3), (13, 2), (17, 2), (2, 10)]
)
def test_tables_match_zech_arithmetic(pm):
    # named for the Zech methods it first compared against; the reference is
    # now the schoolbook field, which shares no list with the tables
    F = field(*pm)
    ref = schoolbook(F)
    add, mul, neg, inv = F.tables
    codes = range(F.order)
    assert neg == [ref.neg(a) for a in codes]
    assert inv == [None] + [ref.inv(a) for a in codes[1:]]
    ref_add, ref_mul = reference_tables(F)
    for a in codes:  # whole rows at once
        assert add[a] == ref_add[a], a
        assert mul[a] == ref_mul[a], a
    assert len({id(x) for row in add + mul for x in row}) == F.order


def test_the_reference_tables_are_the_schoolbook_operations():
    # reference_tables against the schoolbook add and mul entry by entry
    for pm in [(2, 1), (3, 2), (2, 3), (5, 2), (3, 3)]:
        F = field(*pm)
        ref = schoolbook(F)
        ref_add, ref_mul = reference_tables(F)
        codes = range(F.order)
        assert ref_add == [[ref.add(a, b) for b in codes] for a in codes], pm
        assert ref_mul == [[ref.mul(a, b) for b in codes] for a in codes], pm


def test_tables_share_element_objects():
    F = field(17, 2)
    add, mul, _, _ = F.tables
    assert len({id(x) for row in add + mul for x in row}) == F.order


def test_tables_are_lazy_and_capped():
    F = Field(17, 2)
    assert "tables" not in vars(F)
    assert F.tables is F.tables
    assert isinstance(F.tables.add, list)
    big = field(3, 7)
    assert big.order > TABLE_ORDER_CAP >= 289
    add, mul, neg, inv = big.tables
    assert not isinstance(add, list)
    assert add[5] is add[5]  # row objects are kept
    q = big.order
    ref = schoolbook(big)
    for a in (0, 1, 5, 700, q - 1):
        assert neg[a] == ref.neg(a)
        assert inv[a] == (ref.inv(a) if a else None)
        for b in (0, 1, 2, 700, q - 1):
            assert add[a][b] == ref.add(a, b)
            assert mul[a][b] == ref.mul(a, b)
    with pytest.raises(IndexError):
        add[q]


# ---------------------------------------------------------------------------
# field bootstrap

# canonical generators of every field the test suite and the CLI workloads build
PINNED_GENERATORS = {
    (2, 2): 2, (3, 1): 2, (3, 2): 4, (3, 4): 3, (3, 6): 3, (3, 8): 38,
    (5, 1): 2, (5, 2): 6, (5, 4): 6, (7, 1): 3, (7, 2): 9, (7, 4): 12,
    (13, 2): 15, (13, 4): 17, (17, 2): 19, (17, 4): 307,
}  # fmt: skip


@pytest.mark.parametrize(
    "pm", sorted(PINNED_GENERATORS) + [(2, 1), (2, 5), (3, 5), (2, 10), (3, 7), (5, 3), (7, 3)]
)
def test_bootstrap_matches_reference(pm):
    F = field(*pm)
    if pm in PINNED_GENERATORS:
        assert F.generator == PINNED_GENERATORS[pm]
    exp, log, zech = reference_exp_log_zech(F)
    assert F._exp == exp
    assert F._log == log
    assert F._zech == zech
