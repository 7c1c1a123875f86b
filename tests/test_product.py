import pytest

from mpqc import product
from mpqc.code import BudgetError, LinearCode
from mpqc.gf import square_field
from mpqc.constructions import rs_dual_containing
from mpqc.matrix import Matrix
from mpqc.product import (
    ConsistencyError,
    character_matrix,
    character_product,
    dual_containing_product,
    frr_distance_bound,
    is_frr,
    is_nsc,
    is_upper_triangular,
    matrix_product_code,
    nested_chain_product,
    product_dual,
    product_distance_report,
    row_prefix_code,
)
from mpqc.verify import (
    random_code,
    random_dual_containing_chain,
    random_dual_containing_code,
    random_nonsingular,
    random_nonzero_code,
    random_nsc_upper_triangular,
)


def to_lists(M):
    return [list(r) for r in M.rows]


def test_single_component_identity(F25):
    C = rs_dual_containing(5, 4)
    assert matrix_product_code([C], Matrix(F25, [[1]])) == C


def test_two_full_spaces_under_identity(F9):
    full = LinearCode.full_space(F9, 2)
    prod = matrix_product_code([full, full], Matrix.identity(F9, 2))
    assert prod == LinearCode.full_space(F9, 4)


def test_block_layout(F9):
    # block j of a codeword is sum_i a_ij c_i
    C1 = LinearCode.from_generator(Matrix(F9, [[1, 2]]))
    C2 = LinearCode.from_generator(Matrix(F9, [[2, 1]]))
    A = Matrix(F9, [[1, 1], [0, 1]])
    prod = matrix_product_code([C1, C2], A)
    # c1 = (1,2), c2 = (2,1): word = (c1 | c1 + c2) = (1, 2, 0, 0) in char 3
    assert prod.contains_word([1, 2, 0, 0])
    assert not prod.contains_word([1, 2, 0, 1])


def test_dimension_is_sum_under_frr(F9, rng):
    for _ in range(10):
        n = rng.randint(2, 4)
        codes = [random_code(F9, n, rng.randint(0, n), rng) for _ in range(2)]
        A = random_nsc_upper_triangular(F9, 2, rng)
        prod = matrix_product_code(codes, A)
        assert prod.k == sum(c.k for c in codes)


def test_frr_and_nsc_flags(F25):
    assert is_frr(Matrix.identity(F25, 3))
    # the identity is full row rank but fails the column condition for
    # s >= 2: the first row has zero entries, so some 1x1 minor vanishes
    assert not is_nsc(Matrix.identity(F25, 3))
    assert is_nsc(Matrix.identity(F25, 1))
    T = Matrix(F25, [[1, 1, 1], [0, 2, 1], [0, 0, 1]])
    assert is_nsc(T) and is_upper_triangular(T)
    A = character_matrix(F25, 2)
    assert is_frr(A) and not is_nsc(A)  # its leading 2x2 minor is singular
    assert not is_nsc(Matrix(F25, [[1, 1], [1, 1]]))


def test_nsc_minor_values(F25):
    # the 3x3 chain matrix: minors from the first t rows are all invertible
    T = Matrix(F25, [[1, 1, 1], [0, 2, 1], [0, 0, 1]])
    assert T.submatrix((0, 1), (0, 1)).det() == 2
    assert T.submatrix((0, 1), (0, 2)).det() == 1
    assert T.submatrix((0, 1), (1, 2)).det() == F25.tables.neg[1]
    assert T.det() == 2


def test_row_prefix_distances(F25):
    A = character_matrix(F25, 2)
    assert row_prefix_code(A, 1).min_distance_exhaustive().lower == 4
    U2 = row_prefix_code(A, 2)
    assert U2.contains_word([0, 0, 2, 2])
    assert U2.min_distance_exhaustive().lower == 2
    assert row_prefix_code(A, 4).min_distance_exhaustive().lower == 1
    with pytest.raises(ValueError):
        row_prefix_code(A, 5)


def test_frr_bound_character_pattern(F25):
    comps = [rs_dual_containing(5, d) for d in (1, 2, 2, 4)]
    A = character_matrix(F25, 2)
    assert frr_distance_bound(comps, [1, 2, 2, 4], A) == 4


def test_frr_bound_identity_matrix(F9, rng):
    codes = [random_nonzero_code(F9, 3, rng) for _ in range(2)]
    dists = [c.min_distance_exhaustive().lower for c in codes]
    assert frr_distance_bound(codes, dists, Matrix.identity(F9, 2)) == min(dists)


def test_frr_bound_refuses_more_than_sixteen_columns(F9):
    # a prefix code of length 17 is past the support scan
    A = Matrix(F9, [[1] * 17])
    C = LinearCode.full_space(F9, 2)
    with pytest.raises(BudgetError):
        frr_distance_bound([C], [1], A)


def test_nsc_bound_example(F25):
    T = Matrix(F25, [[1, 1, 1], [0, 2, 1], [0, 0, 1]])
    codes = [LinearCode.full_space(F25, 2)] * 3  # the report reads only n and k off them
    report = product_distance_report(codes, [2, 4, 6], T)
    assert (report.lower, report.exact) == (6, True)


def test_product_dual_identity_random(F9, F25, rng):
    for i in range(30):
        fld = F9 if i % 2 else F25
        s = 2 if i % 3 else 3
        n = rng.randint(1, 5)
        codes = [random_code(fld, n, rng.randint(0, n), rng) for _ in range(s)]
        A = random_nonsingular(fld, s, rng)
        dual = product_dual(codes, A)
        assert dual.k == s * n - sum(c.k for c in codes)


def test_product_dual_identity_matrix(F9, rng):
    codes = [random_code(F9, 3, 2, rng) for _ in range(2)]
    dual = product_dual(codes, Matrix.identity(F9, 2))
    direct = matrix_product_code([c.euclidean_dual() for c in codes], Matrix.identity(F9, 2))
    assert dual == direct


def test_product_dual_requires_nonsingular(F9, rng):
    codes = [random_code(F9, 2, 1, rng) for _ in range(2)]
    with pytest.raises(ValueError):
        product_dual(codes, Matrix(F9, [[1, 1], [1, 1]]))


def test_product_dual_with_character_matrix(F25, rng):
    codes = [random_dual_containing_code(F25, 2, rng.randint(0, 1), rng) for _ in range(4)]
    product_dual(codes, character_matrix(F25, 2))  # raises on inequality


def test_gram_check_identity(F25):
    full = LinearCode.full_space(F25, 2)
    prod = dual_containing_product([full] * 3, Matrix.identity(F25, 3))
    assert prod == LinearCode.full_space(F25, 6)


def test_gram_check_character_matrix(F25):
    A = character_matrix(F25, 2)
    assert A.conjugate() @ A.transpose() == Matrix.identity(F25, 4).scale(4)
    full = LinearCode.full_space(F25, 2)
    assert dual_containing_product([full] * 4, A) == LinearCode.full_space(F25, 8)


def test_gram_check_negative(F25):
    full = LinearCode.full_space(F25, 2)
    with pytest.raises(ValueError, match="invertible diagonal"):
        dual_containing_product([full] * 2, Matrix(F25, [[1, 1], [0, 1]]))
    with pytest.raises(ValueError, match="square"):
        dual_containing_product([full] * 2, Matrix(F25, [[1, 0, 0], [0, 1, 0]]))


def test_gram_check_singular_fails_both(F25):
    # a singular A fails the Gram check, and the inverse it would need
    # refuses it on its own
    A = Matrix(F25, [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="invertible diagonal"):
        dual_containing_product([LinearCode.full_space(F25, 2)] * 2, A)
    with pytest.raises(ConsistencyError, match="singular"):
        product._checked_inverse_transpose(A)


def test_a_wrong_inverse_fails_the_identity_check(F25, monkeypatch):
    # a kernel that hands back a nonsingular matrix other than A^-1: A itself,
    # and A A = [[1, 2], [0, 1]] over GF(25)
    A = Matrix(F25, [[1, 1], [0, 1]])
    monkeypatch.setattr(Matrix, "det_inverse", lambda self: (1, self))
    with pytest.raises(ConsistencyError, match=r"^A A\^-1 = I failed on this instance$"):
        product._checked_inverse_transpose(A)


def test_dual_containing_product_inverts_its_matrix_once(F25, rng, monkeypatch):
    codes = [random_dual_containing_code(F25, 3, rng.randint(0, 1), rng) for _ in range(4)]
    calls = []
    det_inverse = Matrix.det_inverse

    def spy(self):
        calls.append(self)
        return det_inverse(self)

    monkeypatch.setattr(Matrix, "det_inverse", spy)
    A = character_matrix(F25, 2)
    dual_containing_product(codes, A)
    assert calls == [A]


def test_character_matrix_small(F25):
    m = F25.tables.neg[1]
    assert to_lists(character_matrix(F25, 1)) == [[1, 1], [1, m]]
    assert to_lists(character_matrix(F25, 2)) == [
        [1, 1, 1, 1],
        [1, 1, m, m],
        [1, m, 1, m],
        [1, m, m, 1],
    ]


def test_character_matrix_identities(F9, F25):
    for fld in (F9, F25):
        for r in (1, 2, 3, 4):
            A = character_matrix(fld, r)
            assert A.conjugate() == A
            assert A @ A.transpose() == Matrix.identity(fld, 1 << r).scale(2**r % fld.p)


def test_character_matrix_rejects_char2():
    from mpqc.gf import field

    with pytest.raises(ValueError):
        character_matrix(field(2, 2), 1)


def test_dual_containing_product_explicit(F25, rng):
    for i in range(10):
        codes = [random_dual_containing_code(F25, 3, rng.randint(0, 1), rng) for _ in range(4)]
        prod = dual_containing_product(codes, character_matrix(F25, 2))
        assert prod.is_hermitian_dual_containing()


def test_single_component_passthrough(F25):
    C = rs_dual_containing(5, 4)
    one = Matrix(F25, [[1]])
    assert dual_containing_product([C], one) == C
    assert nested_chain_product([C], one) == C


def test_dual_containing_product_rejects_bad_component(F9):
    bad = LinearCode.from_generator(Matrix(F9, [[1, 0]]))
    good = LinearCode.full_space(F9, 2)
    with pytest.raises(ValueError):
        dual_containing_product([bad, good, good, good], character_matrix(F9, 2))


def test_character_product_full_spaces(F25):
    full = LinearCode.full_space(F25, 2)
    prod = character_product([full] * 4)
    assert prod == LinearCode.full_space(F25, 8)


def test_character_product_arity(F25):
    with pytest.raises(ValueError):
        character_product([LinearCode.full_space(F25, 2)] * 3)


def test_nested_chain_product_examples(F25):
    chain = [rs_dual_containing(5, d) for d in (4, 2, 1)]  # ascending codes
    A = Matrix(F25, [[1, 1, 1], [0, 2, 1], [0, 0, 1]])
    prod = nested_chain_product(chain, A)
    assert prod.k == sum(c.k for c in chain)
    # descending presentation is equally valid
    prod2 = nested_chain_product(list(reversed(chain)), A)
    assert prod2.k == prod.k


def test_nested_chain_product_rejections(F25, rng):
    chain = [rs_dual_containing(5, d) for d in (4, 2, 1)]
    with pytest.raises(ValueError):
        nested_chain_product(chain, character_matrix(F25, 2).submatrix((0, 1, 2), (0, 1, 2)))
    not_chain = [rs_dual_containing(5, 2), rs_dual_containing(5, 4), rs_dual_containing(5, 3)]
    T = Matrix(F25, [[1, 1, 1], [0, 2, 1], [0, 0, 1]])
    with pytest.raises(ValueError):
        nested_chain_product(not_chain, T)


def test_chain_closure_random(F9, F25, rng):
    for i in range(12):
        fld = F9 if i % 2 else F25
        s = 2 if i % 3 else 3
        chain = random_dual_containing_chain(fld, rng.randint(2, 4), s, rng)
        A = random_nsc_upper_triangular(fld, s, rng)
        prod = nested_chain_product(chain, A)
        assert prod.is_hermitian_dual_containing()


def test_component_validation(F9, F25, rng):
    with pytest.raises(ValueError):
        matrix_product_code([], Matrix.identity(F9, 1))
    c1 = random_code(F9, 2, 1, rng)
    c2 = random_code(F9, 3, 1, rng)
    with pytest.raises(ValueError):
        matrix_product_code([c1, c2], Matrix.identity(F9, 2))
    c3 = random_code(F25, 2, 1, rng)
    with pytest.raises(ValueError):
        matrix_product_code([c1, c3], Matrix.identity(F9, 2))


def test_product_distance_report(F25):
    comps = [rs_dual_containing(5, d) for d in (1, 2, 2, 4)]
    A = character_matrix(F25, 2)
    rep = product_distance_report(comps, [1, 2, 2, 4], A)
    assert rep.lower == 4 and not rep.exact
    T = Matrix(F25, [[1, 1], [0, 1]])
    rep = product_distance_report(comps[:2], [1, 2], T)
    assert rep.exact and rep.lower == 2
