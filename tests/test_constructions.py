import itertools

import pytest

from mpqc.code import LinearCode
from mpqc.constructions import (
    ConstructionError,
    GrsSpec,
    _rational_curve_points,
    _solve_norms,
    _subfield_decomposition,
    extended_rs_dual_containing,
    grs_code,
    negacyclic_mds_dual_containing,
    rs_dual_containing,
)
from mpqc.gf import field, split_prime_power, square_field
from mpqc.matrix import Matrix


def reference_solve_norms(fld, l, points, r, cap=400000):
    # kept verbatim from the walk that re-summed every basis row per vector
    # (the sampled branch past `cap` is unchanged and not copied)
    sub = field(*split_prime_power(l))
    _, decomp = _subfield_decomposition(fld, sub)
    n = len(points)
    cols = []
    for g in points:
        ent = []
        for a in range(r):
            for b in range(a, r):
                va, vb = decomp(fld.mul(g[a], fld.conj(g[b])))
                ent.append(va)
                ent.append(vb)
        cols.append(ent)
    rows = [[cols[j][i] for j in range(n)] for i in range(len(cols[0]))]
    basis = Matrix(sub, rows, ncols=n).nullspace().rows
    if not basis:
        return None
    add, mul = sub.tables.add, sub.tables.mul

    def combine(coeffs):
        v = [0] * n
        for c, b in zip(coeffs, basis):
            if c:
                m = mul[c]
                v = [add[x][m[y]] for x, y in zip(v, b)]
        return v

    assert l ** len(basis) <= cap
    for coeffs in itertools.product(range(l), repeat=len(basis)):
        if any(coeffs):
            v = combine(coeffs)
            if all(v):
                return v
    return None


def test_grs_spec_validation(F9):
    with pytest.raises(ValueError):
        GrsSpec(points=(1, 1), multipliers=(1, 1), k=1)
    with pytest.raises(ValueError):
        GrsSpec(points=(1, 2), multipliers=(1, 0), k=1)
    with pytest.raises(ValueError):
        GrsSpec(points=(1, 2), multipliers=(1, 1), k=3)


def test_grs_full_dimension_is_full_space(F9):
    spec = GrsSpec(points=tuple(range(9)), multipliers=(1,) * 9, k=9)
    assert grs_code(F9, spec) == LinearCode.full_space(F9, 9)


def test_grs_repetition(F25):
    spec = GrsSpec(points=(0, 1, 2, 3), multipliers=(1, 1, 1, 1), k=1)
    C = grs_code(F25, spec)
    assert C.params() == (4, 1)
    assert C.min_distance_exhaustive().lower == 4


def test_grs_on_nonzero_points_gf9(F9):
    # all eight nonzero elements, unit multipliers, dimension five
    spec = GrsSpec(points=tuple(range(1, 9)), multipliers=(1,) * 8, k=5)
    C = grs_code(F9, spec)
    assert C.params() == (8, 5)
    assert C.is_mds()  # 56 parity-side subsets
    assert C.min_distance_exhaustive(10**5).lower == 4


def test_grs_is_mds(F25, rng):
    for _ in range(10):
        n = rng.randint(2, 8)
        pts = tuple(rng.sample(range(25), n))
        mults = tuple(rng.randrange(1, 25) for _ in range(n))
        k = rng.randint(1, n)
        C = grs_code(F25, GrsSpec(points=pts, multipliers=mults, k=k))
        assert C.params() == (n, k)
        assert C.is_mds()


@pytest.mark.parametrize("l,d", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5)])
def test_punctured_family_all_supported_d(l, d):
    C = rs_dual_containing(l, d)
    n = l * l - 1
    assert C.params() == (n, n - (d - 1))
    assert C.is_hermitian_dual_containing()
    assert C.is_mds()


def test_punctured_family_sporadic_endpoint_distance():
    # the [8,5,4] code is small enough for the full message-space oracle
    C = rs_dual_containing(3, 4)
    assert C.min_distance_exhaustive(10**6).lower == 4


def test_punctured_family_unreachable_endpoint():
    with pytest.raises(ConstructionError):
        rs_dual_containing(5, 6)
    with pytest.raises(ConstructionError):
        rs_dual_containing(5, 7)


@pytest.mark.parametrize("l,d", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5)])
def test_extended_family_all_supported_d(l, d):
    C = extended_rs_dual_containing(l, d)
    n = l * l
    assert C.params() == (n, n + 1 - d)
    assert C.is_hermitian_dual_containing()
    assert C.is_mds()


def test_extended_family_range():
    with pytest.raises(ConstructionError):
        extended_rs_dual_containing(5, 6)


@pytest.mark.parametrize("l,d", [(5, 1), (5, 2), (5, 4), (5, 6)])
def test_length_plus_one_family(l, d):
    C = negacyclic_mds_dual_containing(l, d)
    n = l * l + 1
    assert C.params() == (n, n + 1 - d)
    assert C.is_hermitian_dual_containing()
    assert C.is_mds()


def test_length_plus_one_family_refusals():
    with pytest.raises(ConstructionError):
        negacyclic_mds_dual_containing(7, 2)  # 7 is 3 mod 4
    with pytest.raises(ConstructionError):
        negacyclic_mds_dual_containing(5, 3)  # odd distance has no coset union
    with pytest.raises(ConstructionError):
        negacyclic_mds_dual_containing(5, 8)  # beyond l + 1


def test_family_results_are_cached():
    a = rs_dual_containing(5, 4)
    b = rs_dual_containing(5, 4)
    assert a is b


def _curve_drops(l, d):
    curve = _rational_curve_points(square_field(l), d - 1)
    for drop in itertools.combinations(range(len(curve)), 2):
        yield drop, [p for i, p in enumerate(curve) if i not in drop]


@pytest.mark.parametrize("l,d", [(3, 3), (3, 4), (5, 6)])
def test_norm_walk_matches_reference_on_every_drop(l, d):
    fld = square_field(l)
    found = 0
    for drop, pts in _curve_drops(l, d):
        mu = _solve_norms(fld, l, pts, d - 1)
        assert mu == reference_solve_norms(fld, l, pts, d - 1), drop
        found += mu is not None
    assert found == (45 if (l, d) == (3, 3) else 0)


def test_norm_walk_matches_reference_at_l5_d5():
    # every one of the 325 drops solves here; the reference walk takes about
    # 0.6 s per drop, so two are checked: the one the ladder takes and the last
    fld = square_field(5)
    drops = dict(_curve_drops(5, 5))
    for drop in [(0, 1), (24, 25)]:
        mu = _solve_norms(fld, 5, drops[drop], 4)
        assert mu is not None and all(mu)
        assert mu == reference_solve_norms(fld, 5, drops[drop], 4)


def test_subfield_decomposition_is_built_once():
    fld, sub = square_field(5), field(5, 1)
    assert _subfield_decomposition(fld, sub) is _subfield_decomposition(fld, sub)
