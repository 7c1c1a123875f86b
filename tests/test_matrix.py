import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqc.gf import field
from mpqc.matrix import Matrix
from test_kernel import reference_det_inverse, reference_nullspace, reference_rref


def to_lists(M):
    return [list(r) for r in M.rows]


def all_zero(M):
    return all(x == 0 for r in M.rows for x in r)


def random_matrix(fld, nr, nc, rng):
    return Matrix(fld, [[rng.randrange(fld.order) for _ in range(nc)] for _ in range(nr)], ncols=nc)


def test_identity_rref(F25):
    I = Matrix.identity(F25, 4)
    R, rank, pivots = I.rref()
    assert R == I and rank == 4 and pivots == (0, 1, 2, 3)


def test_proportional_rows_collapse(F9):
    M = Matrix(F9, [[1, 1], [2, 2]])
    R, rank, _ = M.rref()
    assert to_lists(R) == [[1, 1], [0, 0]]
    assert rank == 1


def test_rref_idempotent_random(F25, rng):
    for _ in range(25):
        M = random_matrix(F25, rng.randint(1, 5), rng.randint(1, 5), rng)
        R = M.rref()[0]
        assert R.rref()[0] == R


def test_rref_unique_under_row_operations(F9, rng):
    # same row space -> same rref
    for _ in range(20):
        M = random_matrix(F9, 3, 4, rng)
        rows = to_lists(M)
        # random invertible row mix
        T = random_matrix(F9, 3, 3, rng)
        while T.det() == 0:
            T = random_matrix(F9, 3, 3, rng)
        mixed = (T @ M).rref()[0]
        assert mixed == M.rref()[0]


def test_nullspace_of_all_ones(F25):
    N = Matrix(F25, [[1, 1, 1, 1]]).nullspace()
    assert (N.nrows, N.ncols) == (3, 4)
    for row in N.rows:
        total = 0
        for x in row:
            total = F25.add(total, x)
        assert total == 0
    assert N.rank() == 3


def test_nullspace_full_rank_square(F9):
    assert Matrix.identity(F9, 3).nullspace().nrows == 0


def test_rank_nullity(F9, rng):
    for _ in range(30):
        M = random_matrix(F9, rng.randint(1, 5), rng.randint(1, 5), rng)
        N = M.nullspace()
        assert M.rank() + N.nrows == M.ncols
        prod = M @ N.transpose()
        assert all_zero(prod)


def test_det_and_inverse_example(F25):
    M = Matrix(F25, [[1, 1], [0, 2]])
    det, inv = M.det_inverse()
    assert det == 2
    # 2 * 3 = 6 = 1 mod 5, so the lower-right inverse entry is 3
    assert inv == Matrix(F25, [[1, F25.tables.neg[3]], [0, 3]])
    assert M @ inv == Matrix.identity(F25, 2)


def test_singular_matrix(F25):
    det, inv = Matrix(F25, [[1, 1], [1, 1]]).det_inverse()
    assert det == 0 and inv is None


def test_det_multiplicative(F9, rng):
    for _ in range(20):
        A = random_matrix(F9, 3, 3, rng)
        B = random_matrix(F9, 3, 3, rng)
        assert (A @ B).det() == F9.mul(A.det(), B.det())


def test_scale_takes_element_codes(F9, rng):
    # the scalar is a code of GF(9), not an integer reduced mod 3
    M = random_matrix(F9, 2, 3, rng)
    for c in range(9):
        assert to_lists(M.scale(c)) == [[F9.mul(c, x) for x in r] for r in M.rows]
    for bad in (9, -1):
        with pytest.raises(ValueError, match="not an element code"):
            M.scale(bad)


def test_minor_full_and_single(F25):
    A = Matrix(F25, [[1, 1, 1], [0, 2, 1], [0, 0, 1]])
    assert A.submatrix((0, 1, 2), (0, 1, 2)) == A
    assert to_lists(A.submatrix((1,), (2,))) == [[1]]


def test_minor_of_upper_triangular(F25):
    # first two rows, columns one and three
    A = Matrix(F25, [[1, 1, 1], [0, 2, 1], [0, 0, 1]])
    assert to_lists(A.submatrix((0, 1), (0, 2))) == [[1, 1], [0, 1]]


def test_minor_index_validation(F25):
    A = Matrix.identity(F25, 3)
    with pytest.raises(ValueError):
        A.submatrix((1, 0), (0, 1))
    with pytest.raises(IndexError):
        A.submatrix((0, 3), (0, 1))


def test_minor_composition(F9, rng):
    for _ in range(15):
        M = random_matrix(F9, 5, 6, rng)
        outer = M.submatrix((0, 2, 4), (1, 2, 4, 5))
        inner = outer.submatrix((0, 2), (1, 3))
        direct = M.submatrix((0, 4), (2, 5))
        assert inner == direct


def test_conjugate_entrywise(F9):
    M = Matrix(F9, [[3, 1], [0, 6]])
    C = M.conjugate()
    assert C.rows[0][0] == F9.pow(3, 3)  # conj is x -> x^3
    assert C.conjugate() == M


def test_empty_and_zero_shapes(F9):
    Z = Matrix.zeros(F9, 0, 4)
    assert (Z.nrows, Z.ncols) == (0, 4)
    assert Z.rref()[1] == 0
    N = Z.nullspace()
    assert (N.nrows, N.ncols) == (4, 4)


def test_column_count_must_match_the_rows(F9):
    M = Matrix(F9, [[1, 2]], ncols=2)
    assert (M.nrows, M.ncols) == (1, 2)
    with pytest.raises(ValueError, match="ncols=5"):
        Matrix(field(3, 2), [[1, 2]], ncols=5)
    with pytest.raises(ValueError, match="ragged"):
        Matrix(F9, [[1, 2], [1]], ncols=2)


def test_equal_matrices_built_separately_hash_equal(F9, F25, rng):
    for fld in (F9, F25):
        for nr, nc in ((0, 3), (1, 1), (3, 4), (5, 2)):
            M = random_matrix(fld, nr, nc, rng)
            twin = Matrix(fld, [list(r) for r in M.rows], ncols=nc)  # built separately
            assert twin is not M and twin == M
            assert hash(twin) == hash(M) == hash(M)  # the kept hash answers again the same
            assert {M: "verdict"}[twin] == "verdict"
            R = M.rref()[0]
            assert (hash(R) == hash(R.rref()[0])) and R == R.rref()[0]
    # equality still reads the values: a changed entry, field or width tells apart
    M = Matrix(F9, [[1, 2], [0, 4]])
    hash(M)
    assert M != Matrix(F9, [[1, 2], [0, 5]])
    assert M != Matrix(F25, [[1, 2], [0, 4]])
    assert Matrix.zeros(F9, 0, 2) != Matrix.zeros(F9, 0, 3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 8), min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_row_space_preserved(rows):
    F = field(3, 2)
    M = Matrix(F, rows, ncols=3)
    R, rank, _ = M.rref()
    # every original row is a combination of rref rows and vice versa
    stacked = M.vstack(R)
    assert stacked.rank() == rank


# ---------------------------------------------------------------------------
# trusted kernel outputs against the validating constructor at the boundary

# the 0-row shapes are where a zip(*rows) transpose would lose its columns
SHAPES = [(0, 0), (0, 1), (0, 4), (1, 0), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (3, 5)]


def boundary_twin(M):
    """`M` checked as it leaves a method: a tuple of int tuples of its
    shape, equal and hash-equal to the same rows through the validating
    constructor."""
    assert type(M.rows) is tuple and len(M.rows) == M.nrows
    assert all(type(r) is tuple and len(r) == M.ncols for r in M.rows)
    assert all(type(x) is int and 0 <= x < M.field.order for r in M.rows for x in r)
    twin = Matrix(M.field, M.rows, ncols=M.ncols)
    assert (twin.nrows, twin.ncols) == (M.nrows, M.ncols)
    assert twin == M and hash(twin) == hash(M)
    return twin


def random_subset(n, rng):
    return tuple(i for i in range(n) if rng.random() < 0.6)


@pytest.mark.parametrize("pm", [(3, 2), (5, 2), (7, 2)])
def test_every_matrix_method_matches_the_validating_constructor(pm, rng):
    fld = field(*pm)
    for nr, nc in SHAPES * 3:
        M = random_matrix(fld, nr, nc, rng)
        rows = M.rows
        # each method's result, and the same matrix built the checked way
        # from rows formed entry by entry through the field's methods
        eye = [[int(i == j) for j in range(nc)] for i in range(nc)]
        pairs = [
            (Matrix.identity(fld, nc), Matrix(fld, eye, nc)),
            (Matrix.zeros(fld, nr, nc), Matrix(fld, [[0] * nc for _ in range(nr)], nc)),
            (M.transpose(), Matrix(fld, [[rows[i][j] for i in range(nr)] for j in range(nc)], nr)),
            (M.conjugate(), Matrix(fld, [[fld.pow(x, fld.subfield_order) for x in r] for r in rows], nc)),
        ]
        ri, ci = random_subset(nr, rng), random_subset(nc, rng)
        minor = [[rows[i][j] for j in ci] for i in ri]
        pairs.append((M.submatrix(ri, ci), Matrix(fld, minor, len(ci))))
        k = rng.randint(0, nr)
        pairs.append((M.take_rows(k), Matrix(fld, rows[:k], nc)))
        N = random_matrix(fld, rng.randint(0, 3), nc, rng)
        pairs.append((M.vstack(N), Matrix(fld, list(rows) + list(N.rows), nc)))
        c = rng.randrange(fld.order)
        pairs.append((M.scale(c), Matrix(fld, [[fld.mul(c, x) for x in r] for r in rows], nc)))
        P = random_matrix(fld, nc, rng.randint(0, 4), rng)
        prod = [[0] * P.ncols for _ in range(nr)]
        for i in range(nr):
            for j in range(P.ncols):
                for t in range(nc):
                    prod[i][j] = fld.add(prod[i][j], fld.mul(rows[i][t], P.rows[t][j]))
        pairs.append((M @ P, Matrix(fld, prod, P.ncols)))
        R, rank, pivots = M.rref()
        assert (R, rank, pivots) == reference_rref(M)
        pairs.append((R, reference_rref(M)[0]))
        pairs.append((M.nullspace(), reference_nullspace(M)))
        pairs.append((R.rref_nullspace(pivots), reference_nullspace(M)))
        S = random_matrix(fld, nr, nr, rng)
        det, inv = S.det_inverse()
        ref_det, ref_inv = reference_det_inverse(S)
        assert det == ref_det and (inv is None) == (ref_inv is None)
        if inv is not None:
            pairs.append((inv, ref_inv))
        for got, want in pairs:
            assert boundary_twin(got) == want and hash(got) == hash(want)


def raised(exc_type, call):
    with pytest.raises(exc_type) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("pm", [(3, 2), (5, 2), (7, 2)])
def test_the_boundary_keeps_its_error_texts(pm):
    fld = field(*pm)
    q = fld.order
    assert raised(ValueError, lambda: Matrix(fld, [[1, 2], [1]], ncols=2)) == "ragged rows"
    assert raised(ValueError, lambda: Matrix(fld, [[1, 2], [1]])) == "ragged rows"
    width = "rows of length 2 given with ncols=5"
    assert raised(ValueError, lambda: Matrix(fld, [[1, 2]], ncols=5)) == width
    empty = "empty matrix needs an explicit column count"
    assert raised(ValueError, lambda: Matrix(fld, [])) == empty
    for bad in (-1, q):
        text = f"entry {bad} is not an element code of {fld}"
        assert raised(ValueError, lambda: Matrix(fld, [[0, 1], [bad, 0]])) == text
        assert raised(ValueError, lambda: Matrix(fld, [[bad]], ncols=1)) == text
        M = Matrix.identity(fld, 2)
        assert raised(ValueError, lambda: M.scale(bad)) == f"{bad} is not an element code of {fld}"
        # row_space_contains takes its vector from outside too
        assert raised(ValueError, lambda: M.row_space_contains([0, bad])) == text
    M = Matrix.identity(fld, 3)
    for rows, cols, exc, text in [
        ((0, 3), (0, 1), IndexError, "row index out of range"),
        ((-1, 0), (0, 1), IndexError, "row index out of range"),
        ((0, 1), (1, 3), IndexError, "column index out of range"),
        ((0, 1), (-1,), IndexError, "column index out of range"),
        ((1, 0), (0, 1), ValueError, "row indices must be strictly increasing"),
        ((1, 1), (0, 1), ValueError, "row indices must be strictly increasing"),
        ((0, 1), (2, 0), ValueError, "column indices must be strictly increasing"),
        ((0, 1), (2, 2), ValueError, "column indices must be strictly increasing"),
    ]:
        assert raised(exc, lambda: M.submatrix(rows, cols)) == text


@pytest.mark.parametrize("pm", [(3, 2), (5, 2), (7, 2)])
def test_det_alone_matches_det_inverse_and_the_reference(pm, rng):
    fld = field(*pm)
    singular = 0
    for n in range(6):
        for _ in range(12):
            M = random_matrix(fld, n, n, rng)
            if n >= 2 and rng.random() < 0.4:
                # a row that is a multiple of another: singular
                rows = [list(r) for r in M.rows]
                i, j = rng.sample(range(n), 2)
                c = rng.randrange(fld.order)
                rows[i] = [fld.mul(c, x) for x in rows[j]]
                M = Matrix(fld, rows, ncols=n)
            det = M.det()
            assert det == M.det_inverse()[0] == reference_det_inverse(M)[0]
            singular += det == 0
    assert singular > 0
    assert Matrix.zeros(fld, 0, 0).det() == 1
    for nr, nc in ((0, 1), (1, 0), (2, 3), (3, 2)):
        M = random_matrix(fld, nr, nc, rng)
        assert raised(ValueError, M.det) == "determinant of a non-square matrix"
        assert raised(ValueError, M.det_inverse) == "determinant of a non-square matrix"
