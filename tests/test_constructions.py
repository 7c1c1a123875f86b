import itertools
import random

import pytest

from mpqc import constructions
from mpqc.code import BudgetError, LinearCode
from mpqc.constructions import (
    _SPORADIC_PUNCTURED,
    ConstructionError,
    GrsSpec,
    _grs_dual_certificate,
    _rational_curve_points,
    _solve_norms,
    _subfield_decomposition,
    _verify_family_code,
    extended_rs_dual_containing,
    grs_code,
    negacyclic_mds_dual_containing,
    rs_dual_containing,
    window_grs_spec,
)
from mpqc.gf import SubfieldEmbedding, field, split_prime_power, square_field
from mpqc.matrix import Matrix


def reference_solve_norms(fld, l, points, r, cap=400000):
    # kept verbatim from the walk that re-summed every basis row per vector,
    # and from the sampler past `cap` that summed every drawn vector in full
    sub = field(*split_prime_power(l))
    _, decomp = _subfield_decomposition(fld, sub)
    n = len(points)
    cols = []
    for g in points:
        ent = []
        for a in range(r):
            for b in range(a, r):
                va, vb = decomp(fld.mul(g[a], fld.conj_table[g[b]]))
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

    if l ** len(basis) <= cap:
        for coeffs in itertools.product(range(l), repeat=len(basis)):
            if any(coeffs):
                v = combine(coeffs)
                if all(v):
                    return v
        return None
    rng = random.Random(0xC0DE)
    for _ in range(cap):
        coeffs = [rng.randrange(l) for _ in basis]
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


def _with_draws(solve, *args):
    """solve(*args) and the getrandbits calls it made, in order, as (k, word)
    pairs.  randrange draws through getrandbits as well, so both the sampler
    and the reference's randrange are recorded word by word."""
    draws = []

    class Recording(random.Random):
        def getrandbits(self, k):
            draws.append((k, super().getrandbits(k)))
            return draws[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random, "Random", Recording)
        return solve(*args), draws


def _coefficients(draws, l):
    """The coefficients drawn: the words below l, each drawn with l's bit length."""
    assert {k for k, _ in draws} <= {l.bit_length()}
    return [word for _, word in draws if word < l]


# at l = 7, d = 7 each drop's kernel has dimension 12, so 7^12 is past
# NORM_SEARCH_CAP and the seeded sampler runs; every one of these drops solves
_L7_DROPS = [(0, 1), (0, 2), (0, 3), (0, 49), (1, 2), (3, 7), (5, 45), (10, 20), (17, 33), (20, 30), (48, 49)]


def test_norm_sampler_matches_the_full_combine_reference_at_l7():
    fld = square_field(7)
    drops = dict(_curve_drops(7, 7))
    for drop in _L7_DROPS:
        pts = drops[drop]
        mu, draws = _with_draws(_solve_norms, fld, 7, pts, 6)
        assert (mu, draws) == _with_draws(reference_solve_norms, fld, 7, pts, 6), drop
        assert mu is not None and all(mu) and len(_coefficients(draws, 7)) % 12 == 0


def test_norm_sampler_matches_the_reference_under_a_small_cap(monkeypatch):
    fld = square_field(7)
    pts = dict(_curve_drops(7, 7))[(0, 2)]
    # this drop's first hit is its 64th vector: both sides return None one
    # vector short of it, and the same mu from it on
    for cap, hit in [(63, False), (64, True), (200, True)]:
        monkeypatch.setattr(constructions, "NORM_SEARCH_CAP", cap)
        mu, draws = _with_draws(_solve_norms, fld, 7, pts, 6)
        assert (mu, draws) == _with_draws(reference_solve_norms, fld, 7, pts, 6, cap)
        assert (mu is not None) == hit and len(_coefficients(draws, 7)) == 12 * (64 if hit else cap)
    # at l = 2, d = 2 the kernels have dimension 2 and no vector without a
    # zero coordinate: three vectors are drawn, one of them all zero, and
    # that one still counts against the cap on both sides
    monkeypatch.setattr(constructions, "NORM_SEARCH_CAP", 3)
    fld = square_field(2)
    for drop, pts in _curve_drops(2, 2):
        mu, draws = _with_draws(_solve_norms, fld, 2, pts, 1)
        assert (mu, draws) == _with_draws(reference_solve_norms, fld, 2, pts, 1, 3), drop
        coeffs = _coefficients(draws, 2)
        assert mu is None and len(coeffs) == 6 and [0, 0] in (coeffs[:2], coeffs[2:4], coeffs[4:])


# GF(4) = GF(2^2) and GF(9) = GF(3^2) have two digits to an element, and a
# coordinate is zero only when both of its digit sums are 0 mod p.  The cap
# is patched to run the sampler where the default walks; a walk draws nothing


@pytest.mark.parametrize(
    "d,cap,walks,solves",
    [
        (4, None, True, False),  # kernels of dimension 6: 4^6 vectors, none solves
        (4, 64, False, False),
        (3, None, False, True),  # dimension 11, sampled; every drop solves
    ],
    ids=["walk-d4", "sampler-d4", "sampler-d3"],
)
def test_norm_search_matches_the_reference_on_every_drop_at_l4(d, cap, walks, solves, monkeypatch):
    fld = square_field(4)
    if cap is not None:
        monkeypatch.setattr(constructions, "NORM_SEARCH_CAP", cap)
    drops = list(_curve_drops(4, d))
    assert len(drops) == 136
    for drop, pts in drops:
        mu, draws = _with_draws(_solve_norms, fld, 4, pts, d - 1)
        ref = _with_draws(reference_solve_norms, fld, 4, pts, d - 1, constructions.NORM_SEARCH_CAP)
        assert (mu, draws) == ref, drop
        assert (draws == []) == walks and (mu is not None) == solves, drop


@pytest.mark.parametrize("drop", [(0, 1), (3, 40)], ids=["0-1", "3-40"])
def test_norm_sampler_matches_the_reference_at_l9(drop):
    # dimension 16 at d = 9, so the default samples
    fld = square_field(9)
    pts = dict(_curve_drops(9, 9))[drop]
    mu, draws = _with_draws(_solve_norms, fld, 9, pts, 8)
    assert (mu, draws) == _with_draws(reference_solve_norms, fld, 9, pts, 8)
    assert mu is not None and all(mu) and len(_coefficients(draws, 9)) % 16 == 0


@pytest.mark.parametrize(
    "r,size,cap,walks,solves",
    [
        (7, 51, None, True, True),  # a kernel of dimension 5 on the first 51 curve points
        (7, 51, 1000, False, True),
        (6, 39, None, True, False),  # dimension 3 on the first 39, and no solution
        (6, 39, 100, False, False),
    ],
    ids=["walk-51", "sampler-51", "walk-39", "sampler-39"],
)
def test_norm_search_matches_the_reference_on_curve_prefixes_at_l9(r, size, cap, walks, solves, monkeypatch):
    fld = square_field(9)
    pts = _rational_curve_points(fld, r)[:size]
    if cap is not None:
        monkeypatch.setattr(constructions, "NORM_SEARCH_CAP", cap)
    mu, draws = _with_draws(_solve_norms, fld, 9, pts, r)
    assert (mu, draws) == _with_draws(reference_solve_norms, fld, 9, pts, r, constructions.NORM_SEARCH_CAP)
    assert (draws == []) == walks and (mu is not None) == solves


# a kernel over GF(3) spanned by rows whose columns are every a in GF(3)^4
# with sum(a) != 0: each vector but c = (1,1,1,1) and (2,2,2,2) is orthogonal
# to one of the columns, and each of those two has a coordinate whose four
# terms all have digit 2, a digit sum of 8 = len(basis) * (p - 1).  The same
# kernel spanned by b0, b0 + b1, b1 + b2, b2 + b3 has its two solutions at
# c = (0,1,0,1) and (0,2,0,2), where a nullspace basis never puts them
_TWO_SOLUTIONS = [a for a in itertools.product(range(3), repeat=4) if sum(a) % 3]
_UNITS = [list(row) for row in zip(*_TWO_SOLUTIONS)]
_SUMS = [_UNITS[0]] + [[(x + y) % 3 for x, y in zip(a, b)] for a, b in zip(_UNITS, _UNITS[1:])]


@pytest.mark.parametrize("rows", [_UNITS, _SUMS], ids=["units", "sums"])
@pytest.mark.parametrize("cap,walks", [(None, True), (80, False)], ids=["walk", "sampler"])
def test_norm_search_on_a_kernel_with_two_solutions(rows, cap, walks, monkeypatch):
    basis = Matrix(field(3), rows, ncols=len(_TWO_SOLUTIONS))
    monkeypatch.setattr(Matrix, "nullspace", lambda self: basis)
    if cap is not None:
        monkeypatch.setattr(constructions, "NORM_SEARCH_CAP", cap)
    fld, pts = square_field(3), [(1,)] * len(_TWO_SOLUTIONS)
    mu, draws = _with_draws(_solve_norms, fld, 3, pts, 1)
    assert (mu, draws) == _with_draws(reference_solve_norms, fld, 3, pts, 1, constructions.NORM_SEARCH_CAP)
    assert (draws == []) == walks and mu is not None and all(mu)


def test_subfield_decomposition_is_built_once():
    fld, sub = square_field(5), field(5, 1)
    assert _subfield_decomposition(fld, sub) is _subfield_decomposition(fld, sub)


# ---------------------------------------------------------------------------
# the curve-drop rung against the parent's, which built the Hermitian dual
# twice and ran the C(n, d-1) DFS on both the code and its dual


def reference_self_orthogonal_on_points(fld, l, points, r):
    # kept verbatim from the rung that checked containment by is_subcode_of
    mu = _solve_norms(fld, l, points, r)
    if mu is None:
        return None
    sub_emb = SubfieldEmbedding(field(*split_prime_power(l)), fld)
    # per-column scalars nu with nu^(l+1) = mu (norms are onto GF(l)*)
    nu_for = {}
    for target in set(mu):
        timg = sub_emb.embed(target)
        nu_for[target] = next(x for x in range(1, fld.order) if fld.pow(x, l + 1) == timg)
    G = [[fld.mul(points[j][a], nu_for[mu[j]]) for j in range(len(points))] for a in range(r)]
    code = LinearCode.from_generator(Matrix(fld, G, ncols=len(points)))
    if code.k != r or not code.is_subcode_of(code.hermitian_dual()):
        return None
    return code


def reference_rs_dual_containing(l, d, max_subsets=10**6):
    # kept verbatim from the parent ladder, less its memo; every rung but the
    # curve drop calls today's shared helpers
    if d < 1 or d > l + 1:
        raise ConstructionError(f"designed distance {d} outside 1..{l + 1}")
    fld = square_field(l)
    n = l * l - 1
    k = n - (d - 1)
    if d == 1:
        return LinearCode.full_space(fld, n)
    for b in range(1, n + 1):
        T = [(b + i) % n for i in range(d - 1)]
        if any(((-l * t) % n) in T for t in T):
            continue
        spec = window_grs_spec(fld, b, d - 1)
        grs = grs_code(fld, spec)
        cand = LinearCode.from_generator(grs.parity)
        try:
            return _verify_family_code(
                cand, n, k, d, max_subsets, lambda: _grs_dual_certificate(spec, grs, cand)
            )
        except ConstructionError:
            continue
    curve = _rational_curve_points(fld, d - 1)
    budget_blocked = None
    for drop in itertools.combinations(range(len(curve)), 2):
        sub_pts = [p for i, p in enumerate(curve) if i not in drop]
        so = reference_self_orthogonal_on_points(fld, l, sub_pts, d - 1)
        if so is None:
            continue
        try:
            mds = so.is_mds(max_subsets)
        except BudgetError as exc:
            budget_blocked = exc
            break
        if not mds:
            continue
        try:
            return _verify_family_code(so.hermitian_dual(), n, k, d, max_subsets)
        except ConstructionError:
            continue
    if budget_blocked is not None:
        raise BudgetError(
            f"found an [{n},{d - 1}] self-orthogonal candidate for d = {d} but "
            f"cannot certify it: {budget_blocked}"
        )
    frozen = _SPORADIC_PUNCTURED.get((l, d))
    if frozen is not None:
        return _verify_family_code(
            LinearCode.from_generator(Matrix(fld, frozen, ncols=n)), n, k, d, max_subsets
        )
    raise ConstructionError(
        f"no verified [{n},{k},{d}] dual-containing code over GF({l}^2): "
        "cyclic windows, curve-subset norm solving and the sporadic registry "
        "are all exhausted (the d = l+1 endpoint admits no multiplier-scaled "
        "evaluation code)"
    )


@pytest.mark.parametrize("l,d", [(3, 3), (5, 5)])
def test_curve_rung_builds_the_parent_code(l, d):
    assert rs_dual_containing(l, d) == reference_rs_dual_containing(l, d)


@pytest.mark.parametrize("l,d", [(2, 2), (4, 4), (5, 6)])
def test_curve_rung_refuses_like_the_parent(l, d):
    with pytest.raises(Exception) as ours:
        rs_dual_containing(l, d)
    with pytest.raises(Exception) as theirs:
        reference_rs_dual_containing(l, d)
    assert type(ours.value) is type(theirs.value) is ConstructionError


def test_curve_rung_budget_refusal_matches_the_parent():
    with pytest.raises(BudgetError) as ours:
        rs_dual_containing(5, 5, max_subsets=2000)
    with pytest.raises(BudgetError) as theirs:
        reference_rs_dual_containing(5, 5, max_subsets=2000)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("l,d", [(3, 3), (5, 5)])
def test_curve_drop_runs_one_dfs_and_one_dual(l, d, monkeypatch):
    calls = {"is_mds": [], "hermitian_dual": [], "drops": 0}
    real_is_mds, real_dual = LinearCode.is_mds, LinearCode.hermitian_dual
    real_scaled = constructions._norm_scaled_code

    def is_mds(self, max_subsets=10**6):
        calls["is_mds"].append(self.params())
        return real_is_mds(self, max_subsets)

    def hermitian_dual(self):
        calls["hermitian_dual"].append(self.params())
        return real_dual(self)

    def scaled(*args):
        so = real_scaled(*args)
        calls["drops"] += so is not None
        return so

    monkeypatch.setattr(LinearCode, "is_mds", is_mds)
    monkeypatch.setattr(LinearCode, "hermitian_dual", hermitian_dual)
    monkeypatch.setattr(constructions, "_norm_scaled_code", scaled)
    C = rs_dual_containing(l, d)
    n = l * l - 1
    assert C.params() == (n, n - (d - 1))
    # the first drop that solves is accepted; the DFS runs on the candidate,
    # whose smaller side is its (d-1)-row parity check
    assert calls == {"is_mds": [(n, n - d + 1)], "hermitian_dual": [(n, d - 1)], "drops": 1}


@pytest.mark.parametrize("l,d", [(2, 2), (4, 4)])
def test_even_l_refusal_does_not_blame_the_endpoint(l, d):
    n = l * l - 1
    with pytest.raises(ConstructionError) as exc:
        rs_dual_containing(l, d)
    assert str(exc.value) == (
        f"no verified [{n},{n - d + 1},{d}] dual-containing code over GF({l}^2): "
        "cyclic windows, curve-subset norm solving and the sporadic registry "
        "are all exhausted"
    )


def test_endpoint_refusal_names_the_endpoint():
    with pytest.raises(ConstructionError) as exc:
        rs_dual_containing(5, 6)
    assert str(exc.value) == (
        "no verified [24,19,6] dual-containing code over GF(5^2): "
        "cyclic windows, curve-subset norm solving and the sporadic registry "
        "are all exhausted (the d = l+1 endpoint admits no multiplier-scaled "
        "evaluation code)"
    )


@pytest.mark.parametrize(
    "family,l,d,refusal",
    [
        (rs_dual_containing, 5, 5, r"C\(24,4\) column subsets exceed budget 2000$"),
        (extended_rs_dual_containing, 5, 4, r"^C\(25,3\) column subsets exceed budget 2000$"),
    ],
)
def test_family_memo_keys_the_budget(family, l, d, refusal):
    # a code certified under the default budget is not handed out under a
    # budget that refuses it, and the refusal does not evict the code
    C = family(l, d)
    with pytest.raises(BudgetError, match=refusal):
        family(l, d, max_subsets=2000)
    assert family(l, d) is C
