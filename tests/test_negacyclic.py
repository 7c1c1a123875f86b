import pytest

from mpqc.code import LinearCode
from mpqc.gf import poly_divmod, poly_eval, poly_mul
from mpqc.negacyclic import (
    NegacyclicError,
    bch_bound,
    centered_defining_set,
    cyclotomic_coset,
    defining_set_from_residues,
    half_length_defining_set,
    negacyclic_code,
    negacyclic_shift,
)


def test_coset_singleton():
    assert cyclotomic_coset(13, 52, 25).members == (13,)


def test_coset_pair():
    c = cyclotomic_coset(11, 52, 25)
    assert c.members == (11, 15)
    assert c.representative == 11


def test_coset_zero():
    assert cyclotomic_coset(0, 52, 25).members == (0,)


def test_coset_gcd_guard():
    with pytest.raises(NegacyclicError):
        cyclotomic_coset(1, 6, 9)


@pytest.mark.parametrize(
    "delta,expected",
    [(0, (13,)), (1, (11, 13, 15)), (2, (9, 11, 13, 15, 17))],
)
def test_centered_sets_l5(delta, expected):
    assert centered_defining_set(5, delta).residues == expected


def test_centered_set_preconditions():
    with pytest.raises(NegacyclicError):
        centered_defining_set(7, 0)  # 7 is 3 mod 4
    with pytest.raises(NegacyclicError):
        centered_defining_set(5, 3)  # depth above (l-1)/2


def test_half_length_sets_l7():
    assert half_length_defining_set(7, 1).residues == (1, 49)
    assert half_length_defining_set(7, 3).residues == (1, 3, 5, 45, 47, 49)
    with pytest.raises(NegacyclicError):
        half_length_defining_set(7, 4)
    with pytest.raises(NegacyclicError):
        half_length_defining_set(7, 0)


def test_defining_set_validation():
    with pytest.raises(NegacyclicError):
        # even residues are not negacyclic root exponents
        defining_set_from_residues(5, 9, [2])


def test_poly_helpers(F9):
    a = [1, 1]  # 1 + x
    b = [F9.neg(1), 1]  # x - 1
    prod = poly_mul(F9, a, b)
    assert prod == [F9.neg(1), 0, 1]  # x^2 - 1
    q, r = poly_divmod(F9, prod, a)
    assert q == b and r == []
    assert poly_eval(F9, prod, 1) == 0


def test_empty_defining_set_gives_full_space(F25):
    Z = defining_set_from_residues(26, 25, [])
    nc = negacyclic_code(26, F25, Z)
    assert nc.code == LinearCode.full_space(F25, 26)
    assert nc.genpoly == (1,)
    assert bch_bound(Z) == 1
    assert nc.is_dual_containing()


@pytest.mark.parametrize("delta,k,d", [(0, 25, 2), (1, 23, 4), (2, 21, 6)])
def test_centered_codes_l5(F25, delta, k, d):
    Z = centered_defining_set(5, delta)
    nc = negacyclic_code(26, F25, Z)
    assert nc.k == k
    assert bch_bound(Z) == d
    assert nc.is_dual_containing()
    assert nc.code.is_mds()


def test_genpoly_divides_xn_plus_1(F25):
    Z = centered_defining_set(5, 1)
    nc = negacyclic_code(26, F25, Z)
    xn1 = [1] + [0] * 25 + [1]
    q, r = poly_divmod(F25, xn1, list(nc.genpoly))
    assert r == []
    assert len(nc.genpoly) - 1 == len(Z)


def test_shift_closure_random_codewords(F25, rng):
    nc = negacyclic_code(26, F25, centered_defining_set(5, 2))
    for _ in range(5):
        w = [0] * 26
        for row in nc.code.gen.rows:
            c = rng.randrange(25)
            if c:
                w = [F25.add(x, F25.mul(c, y)) for x, y in zip(w, row)]
        for _ in range(4):
            w = negacyclic_shift(F25, w)
            assert nc.code.contains_word(w)


def test_monotonicity(F25):
    codes = [
        negacyclic_code(26, F25, centered_defining_set(5, delta)) for delta in range(3)
    ]
    assert codes[2].code.is_subcode_of(codes[1].code)
    assert codes[1].code.is_subcode_of(codes[0].code)


def test_half_length_codes_l7(F49):
    for delta, k, d in [(1, 23, 3), (2, 21, 5), (3, 19, 7)]:
        Z = half_length_defining_set(7, delta)
        nc = negacyclic_code(25, F49, Z)
        assert nc.k == k
        assert bch_bound(Z) == d
        assert nc.is_dual_containing()


def test_bch_bound_wraps_around():
    # the half-length sets straddle the 2n-1 -> 1 wrap
    Z = half_length_defining_set(7, 3)
    assert bch_bound(Z) == 7


def test_bch_bound_leq_distance_small(F9, rng):
    checked = 0
    for _ in range(40):
        n = rng.choice([5, 7])
        odd = list(range(1, 2 * n, 2))
        Z = defining_set_from_residues(n, 9, rng.sample(odd, rng.randint(0, 2)))
        if len(Z) >= n:
            continue
        nc = negacyclic_code(n, F9, Z)
        if nc.k == 0 or 9**nc.k > 10**5:
            continue
        assert bch_bound(Z) <= nc.code.min_distance_exhaustive(10**5).lower
        checked += 1
    assert checked >= 5


def test_roots_already_in_base_field(F25):
    # 2n = 6 divides q - 1, so the root of unity needs no proper extension
    Z = defining_set_from_residues(3, 25, [1])
    nc = negacyclic_code(3, F25, Z)
    assert nc.k == 3 - len(Z)
    assert bch_bound(Z) <= nc.code.min_distance_exhaustive(10**5).lower


def test_mismatched_context_rejected(F25, F9):
    Z = centered_defining_set(5, 0)
    with pytest.raises(NegacyclicError):
        negacyclic_code(26, F9, Z)


def test_oracle_division_of_labor(F25):
    # the [26,23] code is out of enumeration reach, but its [26,3] dual is
    # not; the certificate answers for the primal, enumeration for the dual
    nc = negacyclic_code(26, F25, centered_defining_set(5, 1))
    dual = nc.code.euclidean_dual()
    assert dual.params() == (26, 3)
    assert dual.min_distance_exhaustive(10**5).lower == 24  # also MDS
    assert nc.code.is_mds()


def test_structural_distance_report(F25, F49):
    from mpqc.negacyclic import distance_report

    nc = negacyclic_code(26, F25, centered_defining_set(5, 2))
    rep = distance_report(nc)
    assert rep.exact and rep.lower == 6
    assert rep.lower_provenance == "bch" and rep.upper_provenance == "singleton"
    nc = negacyclic_code(25, F49, half_length_defining_set(7, 2))
    assert distance_report(nc).exact


def test_serialization(F25):
    Z = centered_defining_set(5, 1)
    d = Z.to_dict()
    assert d == {"n": 26, "q": 25, "residues": [11, 13, 15]}
    nc = negacyclic_code(26, F25, Z)
    out = nc.to_dict()
    assert out["defining_set"]["residues"] == [11, 13, 15]
    assert out["code"]["k"] == 23
