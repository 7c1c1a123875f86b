import pytest

from mpqc.code import BudgetError, DistanceReport, LinearCode
from mpqc.gf import FieldError
from mpqc.matrix import Matrix


def random_code(fld, n, k_rows, rng):
    rows = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(k_rows)]
    return LinearCode.from_generator(Matrix(fld, rows, ncols=n))


def test_full_space(F9):
    C = LinearCode.full_space(F9, 3)
    assert C.params() == (3, 3)
    assert C.min_distance_exhaustive().lower == 1


def test_linear_code_fills_every_slot_and_refuses_assignment(F9):
    C = LinearCode(F9, 3, Matrix(F9, [[1, 0, 1], [0, 1, 2]]))
    assert [getattr(C, name) is None for name in LinearCode.__slots__] == [
        False, False, False, False, True, True, True
    ]
    assert (C.n, C.k) == (3, 2)
    with pytest.raises(AttributeError, match="LinearCode is immutable"):
        C.k = 1
    with pytest.raises(AttributeError, match="LinearCode is immutable"):
        C._parity = None


def test_repetition_from_proportional_rows(F25):
    C = LinearCode.from_generator(Matrix(F25, [[1, 1, 1, 1], [2, 2, 2, 2]]))
    assert C.params() == (4, 1)
    assert C.min_distance_exhaustive().lower == 4


def test_canonical_generator_under_permutation(F9, rng):
    for _ in range(10):
        rows = [[rng.randrange(9) for _ in range(5)] for _ in range(3)]
        C1 = LinearCode.from_generator(Matrix(F9, rows, ncols=5))
        rng.shuffle(rows)
        C2 = LinearCode.from_generator(Matrix(F9, rows, ncols=5))
        assert C1 == C2


def test_euclidean_dual_pair(F25):
    C = LinearCode.from_generator(Matrix(F25, [[1, 1]]))
    D = C.euclidean_dual()
    assert D.params() == (2, 1)
    assert D.contains_word([1, F25.tables.neg[1]])


def test_contains_word_checks_the_field_of_elements(F9):
    C = LinearCode.from_generator(Matrix(F9, [[1, 1]]))
    # words are element codes of this code's field, of this code's length
    for bad in ([9, 9], [-1, 8]):
        with pytest.raises(ValueError, match="not element codes"):
            C.contains_word(bad)
    with pytest.raises(ValueError, match="length"):
        C.contains_word([7])
    w = F9.from_coeffs([1, 2])
    assert C.contains_word([w, w]) and not C.contains_word([w, 1])


def test_double_dual_random(F9, rng):
    for _ in range(20):
        n = rng.randint(1, 6)
        C = random_code(F9, n, rng.randint(0, n), rng)
        assert C.euclidean_dual().euclidean_dual() == C
        assert C.k + C.euclidean_dual().k == n


def test_full_space_dual_is_zero(F9):
    D = LinearCode.full_space(F9, 4).euclidean_dual()
    assert D.params() == (4, 0)


def test_hermitian_dual_basics(F9):
    C = LinearCode.from_generator(Matrix(F9, [[1, 1]]))
    H = C.hermitian_dual()
    assert H.contains_word([1, F9.tables.neg[1]])  # conjugation fixes 1
    assert LinearCode.full_space(F9, 3).hermitian_dual().k == 0


def test_hermitian_dual_equals_dual_of_conjugate(F9, F25, rng):
    for fld in (F9, F25):
        for _ in range(15):
            n = rng.randint(1, 5)
            C = random_code(fld, n, rng.randint(0, n), rng)
            assert C.hermitian_dual() == C.conjugate_code().euclidean_dual()
            assert C.hermitian_dual().hermitian_dual() == C


def test_hermitian_needs_square_order(F3):
    one = LinearCode.from_generator(Matrix(F3, [[1, 2]]))
    for C in (LinearCode.full_space(F3, 2), one, LinearCode.zero_code(F3, 2)):
        with pytest.raises(FieldError):
            C.hermitian_dual()
        with pytest.raises(FieldError):
            C.is_hermitian_dual_containing()


def test_subcode_relations(F9, rng):
    zero = LinearCode.zero_code(F9, 4)
    full = LinearCode.full_space(F9, 4)
    C = random_code(F9, 4, 2, rng)
    assert zero.is_subcode_of(C) and zero.is_subcode_of(full)
    assert C.is_subcode_of(C)
    assert C.is_subcode_of(full)
    with pytest.raises(ValueError):
        C.is_subcode_of(LinearCode.full_space(F9, 5))
    with pytest.raises(ValueError, match="different spaces"):
        C.hermitian_dual_is_subcode_of(LinearCode.full_space(F9, 5))
    # the full space's H has no rows: every dual lies in it, not only the
    # duals of dual-containing codes
    assert C.hermitian_dual_is_subcode_of(full)
    assert zero.hermitian_dual_is_subcode_of(full) and full.hermitian_dual_is_subcode_of(zero)
    assert not zero.hermitian_dual_is_subcode_of(zero)


def test_dual_containing_examples(F9):
    assert LinearCode.full_space(F9, 2).is_hermitian_dual_containing()
    assert not LinearCode.zero_code(F9, 2).is_hermitian_dual_containing()
    # <(1,0)> has Hermitian dual <(0,1)>, not contained
    C = LinearCode.from_generator(Matrix(F9, [[1, 0]]))
    assert not C.is_hermitian_dual_containing()


def test_dual_containing_implies_half_rate(F9, F25, rng):
    hits = 0
    for fld in (F9, F25):
        for _ in range(30):
            n = rng.randint(1, 5)
            C = random_code(fld, n, rng.randint(0, n), rng)
            if C.is_hermitian_dual_containing():
                hits += 1
                assert 2 * C.k >= C.n
    assert hits > 0


def test_duality_reverses_containment(F25, rng):
    for _ in range(15):
        n = rng.randint(2, 5)
        big = random_code(F25, n, rng.randint(1, n), rng)
        small = LinearCode.from_generator(big.gen.take_rows(rng.randint(0, big.k)))
        assert small.is_subcode_of(big)
        assert big.hermitian_dual().is_subcode_of(small.hermitian_dual())
        assert big.euclidean_dual().is_subcode_of(small.euclidean_dual())
    # and the converse direction, through the double dual
    for _ in range(10):
        n = rng.randint(2, 5)
        a = random_code(F25, n, rng.randint(0, n), rng)
        b = random_code(F25, n, rng.randint(0, n), rng)
        assert a.is_subcode_of(b) == b.hermitian_dual().is_subcode_of(a.hermitian_dual())


def test_codeword_enumeration_matches_oracle(F9, rng):
    for _ in range(8):
        C = random_code(F9, 4, rng.randint(1, 3), rng)
        if C.k == 0:
            continue
        words = C.codewords()
        assert len(words) == 9**C.k
        wmin = min((sum(1 for x in w if x) for w in words if any(w)), default=None)
        assert wmin == C.min_distance_exhaustive().lower
        assert all(C.contains_word(w) for w in words)


def test_exhaustive_distance_budget(F25):
    C = LinearCode.full_space(F25, 6)
    with pytest.raises(BudgetError):
        C.min_distance_exhaustive(budget=10**4)


def test_zero_code_has_no_distance(F9):
    with pytest.raises(ValueError):
        LinearCode.zero_code(F9, 3).min_distance_exhaustive()


def test_distance_report_validation():
    with pytest.raises(ValueError):
        DistanceReport(3, 2, "exhaustive", "exhaustive")
    r = DistanceReport(2, 4, "bch", "singleton")
    assert not r.exact
    assert r.to_dict()["provenance"]["lower"] == "bch"


def test_support_scan_agrees_with_enumeration(F9, F25, rng):
    for fld in (F9, F25):
        for _ in range(20):
            n = rng.randint(2, 6)
            C = random_code(fld, n, rng.randint(1, n), rng)
            if C.k == 0 or fld.order**C.k > 10**5:
                continue
            assert C.min_distance_by_supports().lower == C.min_distance_exhaustive().lower


def test_mds_certificate_examples(F9):
    assert LinearCode.full_space(F9, 3).is_mds()
    two_equal_cols = LinearCode.from_generator(Matrix(F9, [[1, 1, 0], [0, 0, 1]]))
    assert not two_equal_cols.is_mds()


def test_mds_iff_singleton_distance(F9, F25, rng):
    for fld in (F9, F25):
        for _ in range(25):
            n = rng.randint(2, 6)
            C = random_code(fld, n, rng.randint(1, n), rng)
            if C.k == 0 or fld.order**C.k > 10**5:
                continue
            d = C.min_distance_exhaustive().lower
            assert C.is_mds() == (d == C.n - C.k + 1)


def test_mds_budget(F25):
    C = LinearCode.from_generator(
        Matrix(F25, [[1 if i == j else 1 for j in range(20)] for i in range(10)], ncols=20)
    )
    with pytest.raises(BudgetError):
        C.is_mds(max_subsets=10)


def test_support_scan_accepts_up_to_sixteen_columns(F25, rng):
    # q^k = 625 is in enumeration reach, so the exhaustive report is exact
    C = random_code(F25, 13, 2, rng)
    assert C.min_distance_by_supports() == C.min_distance_exhaustive()
    with pytest.raises(BudgetError):
        random_code(F25, 17, 2, rng).min_distance_by_supports()
