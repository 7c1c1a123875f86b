import copy
import functools
import io
import itertools
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gf import poly_eval, poly_mul, reference_method_poly_divmod

from mpqc import code as code_module
from mpqc import gf, negacyclic
from mpqc.cli import main
from mpqc.code import LinearCode
from mpqc.gf import (
    FieldError,
    SubfieldEmbedding,
    field,
    multiplicative_order,
    poly_divmod,
    primitive_root_of_unity,
    square_field,
)
from mpqc.matrix import Matrix
from mpqc.negacyclic import (
    DefiningSet,
    NegacyclicError,
    _generator_polynomial,
    bch_bound,
    centered_defining_set,
    cyclotomic_coset,
    defining_set_from_residues,
    half_length_defining_set,
    negacyclic_code,
    negacyclic_shift,
)


def test_coset_singleton():
    assert cyclotomic_coset(13, 52, 25) == (13,)


def test_coset_pair():
    assert cyclotomic_coset(11, 52, 25) == (11, 15)
    assert cyclotomic_coset(15, 52, 25) == (11, 15)


def test_coset_zero():
    assert cyclotomic_coset(0, 52, 25) == (0,)


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
    b = [F9.tables.neg[1], 1]  # x - 1
    prod = poly_mul(F9, a, b)
    assert prod == [F9.tables.neg[1], 0, 1]  # x^2 - 1
    q, r = poly_divmod(F9, prod, a)
    assert q == b and r == []
    assert poly_eval(F9, prod, 1) == 0


def test_empty_defining_set_gives_full_space(F25):
    Z = defining_set_from_residues(26, 25, [])
    C = negacyclic_code(26, F25, Z)
    assert C == LinearCode.full_space(F25, 26)
    assert C._genpoly == (1,)
    assert bch_bound(Z) == 1
    assert C.is_hermitian_dual_containing()


@pytest.mark.parametrize("delta,k,d", [(0, 25, 2), (1, 23, 4), (2, 21, 6)])
def test_centered_codes_l5(F25, delta, k, d):
    Z = centered_defining_set(5, delta)
    C = negacyclic_code(26, F25, Z)
    assert C.k == k
    assert bch_bound(Z) == d
    assert C.is_hermitian_dual_containing()
    assert C.is_mds()


def test_genpoly_divides_xn_plus_1(F25):
    Z = centered_defining_set(5, 1)
    C = negacyclic_code(26, F25, Z)
    xn1 = [1] + [0] * 25 + [1]
    q, r = poly_divmod(F25, xn1, list(C._genpoly))
    assert r == []
    assert len(C._genpoly) - 1 == len(Z)


def test_a_generator_polynomial_that_does_not_divide_xn_plus_1_is_refused(F25, monkeypatch):
    # the one coset of size 1 at n = 26 over GF(25) is {13}; x + 1 has the
    # right degree for it but does not divide x^26 + 1 (its root -1 gives 2)
    Z = defining_set_from_residues(26, 25, [13])
    assert Z.residues == (13,)
    monkeypatch.setattr(negacyclic, "_generator_polynomial", lambda n, fld, defining: [1, 1])
    with pytest.raises(NegacyclicError, match="^generator polynomial does not divide x\\^n \\+ 1$"):
        negacyclic_code(26, F25, Z)


def test_shift_closure_random_codewords(F25, rng):
    C = negacyclic_code(26, F25, centered_defining_set(5, 2))
    for _ in range(5):
        w = [0] * 26
        for row in C.gen.rows:
            c = rng.randrange(25)
            if c:
                w = [F25.add(x, F25.mul(c, y)) for x, y in zip(w, row)]
        for _ in range(4):
            w = negacyclic_shift(F25, w)
            assert C.contains_word(w)


def test_monotonicity(F25):
    codes = [
        negacyclic_code(26, F25, centered_defining_set(5, delta)) for delta in range(3)
    ]
    assert codes[2].is_subcode_of(codes[1])
    assert codes[1].is_subcode_of(codes[0])


def test_half_length_codes_l7(F49):
    for delta, k, d in [(1, 23, 3), (2, 21, 5), (3, 19, 7)]:
        Z = half_length_defining_set(7, delta)
        C = negacyclic_code(25, F49, Z)
        assert C.k == k
        assert bch_bound(Z) == d
        assert C.is_hermitian_dual_containing()


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
        C = negacyclic_code(n, F9, Z)
        if C.k == 0 or 9**C.k > 10**5:
            continue
        assert bch_bound(Z) <= C.min_distance_exhaustive(10**5).lower
        checked += 1
    assert checked >= 5


def test_roots_already_in_base_field(F25):
    # 2n = 6 divides q - 1, so the root of unity needs no proper extension
    Z = defining_set_from_residues(3, 25, [1])
    C = negacyclic_code(3, F25, Z)
    assert C.k == 3 - len(Z)
    assert bch_bound(Z) <= C.min_distance_exhaustive(10**5).lower


def test_mismatched_context_rejected(F25, F9):
    Z = centered_defining_set(5, 0)
    with pytest.raises(NegacyclicError):
        negacyclic_code(26, F9, Z)


def test_oracle_division_of_labor(F25):
    # the [26,23] code is out of enumeration reach, but its [26,3] dual is
    # not; the certificate answers for the primal, enumeration for the dual
    C = negacyclic_code(26, F25, centered_defining_set(5, 1))
    dual = C.euclidean_dual()
    assert dual.params() == (26, 3)
    assert dual.min_distance_exhaustive(10**5).lower == 24  # also MDS
    assert C.is_mds()


def test_structural_distance_report(F25, F49):
    from mpqc.negacyclic import distance_report

    Z = centered_defining_set(5, 2)
    rep = distance_report(Z)
    assert rep.exact and rep.lower == 6
    assert rep.upper == 26 - negacyclic_code(26, F25, Z).k + 1  # the Singleton bound
    assert rep.lower_provenance == "bch" and rep.upper_provenance == "singleton"
    Z = half_length_defining_set(7, 2)
    assert distance_report(Z).exact
    assert distance_report(Z).upper == 25 - negacyclic_code(25, F49, Z).k + 1


# ---------------------------------------------------------------------------
# components from their generator polynomial: differentials and guards


def reference_code(fld, n, genpoly):
    """The row-reduced shifts of g, as the builder computed the code before."""
    coeffs = list(genpoly)
    deg = len(coeffs) - 1
    rows = [[0] * shift + coeffs + [0] * (n - deg - shift - 1) for shift in range(n - deg)]
    return LinearCode.from_generator(Matrix(fld, rows, ncols=n))


@functools.lru_cache(maxsize=1)
def tabulated_embedding(fld, e):
    """GF(q) inside a tabulated GF(q^e) built here (not through the package's
    field cache), with the embedding root re-derived by a scan of the
    subfield's cyclic group in the exp table."""
    ext = gf.Field(fld.p, fld.m * e)
    emb = SubfieldEmbedding(fld, ext)
    if 1 < fld.m < ext.m:
        step = (ext.order - 1) // (fld.order - 1)
        roots = []
        for j in range(fld.order - 1):
            x = ext._exp[j * step % (ext.order - 1)]
            if poly_eval(ext, fld.modulus, x) == 0:
                roots.append(x)
        assert emb._root == min(roots)
    return emb


def reference_genpoly(n, fld, defining):
    """g through a tabulated extension, as the builder computed it before."""
    emb = tabulated_embedding(fld, multiplicative_order(fld.order, 2 * n))
    ext = emb.ext
    # gamma^j = g^(step j), read off the exp list, not the engine's pow
    step = (ext.order - 1) // (2 * n)
    g = [1]
    for j in defining.residues:
        root = ext._exp[step * j % (ext.order - 1)]
        g = poly_mul(ext, g, [ext.tables.neg[root], 1])
    return [emb.restrict(c) for c in g]


def _family_sets(l):
    """(n, defining set) for every depth of each family defined at l."""
    out = []
    if l % 4 == 1:
        out += [(l * l + 1, centered_defining_set(l, d)) for d in range((l - 1) // 2 + 1)]
    if l % 2:
        out += [((l * l + 1) // 2, half_length_defining_set(l, d)) for d in range(1, (l - 1) // 2 + 1)]
    return out


def _small_sets(n, q, max_seeds=3):
    odd = range(1, 2 * n, 2)
    seen = set()
    for size in range(1, max_seeds + 1):
        for seeds in itertools.combinations(odd, size):
            Z = defining_set_from_residues(n, q, seeds)
            if Z.residues not in seen:
                seen.add(Z.residues)
                yield Z


def _assert_cold_reads_match_the_reference(C):
    """A code that has written no matrix reads H and then G equal to the
    reference code's."""
    assert C._gen is None and callable(C._parity)
    ref = reference_code(C.field, C.n, C._genpoly)
    assert C.parity.rows == ref.parity.rows
    assert C.gen.rows == ref.gen.rows


@pytest.mark.parametrize("l", [5, 9, 13, 17, 7, 11])
def test_remainder_rref_matches_row_reduced_shifts(l):
    fld = square_field(l)
    families = _family_sets(l)
    if l in (7, 11):  # half-length depths only
        families = [(n, Z) for n, Z in families if n % 2]
    else:  # centered depths only
        families = [(n, Z) for n, Z in families if n == l * l + 1]
    assert families
    for n, Z in families:
        C = negacyclic_code(n, fld, Z)
        _assert_cold_reads_match_the_reference(C)
        assert C == reference_code(fld, n, C._genpoly)
        assert C.k == n - len(Z)


@pytest.mark.parametrize("pm,n,e", [((3, 2), 5, 2), ((3, 2), 7, 3), ((5, 2), 3, 1)])
def test_remainder_rref_on_the_battery_pairs(pm, n, e):
    # the verify battery's (n, q) pairs: gamma lives in GF(q^e)
    fld = field(*pm)
    assert multiplicative_order(fld.order, 2 * n) == e
    count = 0
    for Z in _small_sets(n, fld.order):
        C = negacyclic_code(n, fld, Z)
        _assert_cold_reads_match_the_reference(C)
        assert C == reference_code(fld, n, C._genpoly)
        assert list(C._genpoly) == reference_genpoly(n, fld, Z)
        assert root_exponents(n, fld, C._genpoly) == Z.residues
        count += 1
    assert count >= 4


def test_table_free_genpoly_matches_the_tabulated_extension():
    # both families at l have e = 2, so each tabulated GF(l^4) is built once
    for l in [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]:
        fld = square_field(l)
        for n, Z in _family_sets(l):
            assert _generator_polynomial(n, fld, Z) == reference_genpoly(n, fld, Z), (l, n, Z)
    tabulated_embedding.cache_clear()


def test_escaping_generator_is_rejected(F25):
    # residue 1 alone is not closed under *25 mod 52 (its coset is {1, 25});
    # bypass the defining-set validation to reach the landing check
    Z = object.__new__(DefiningSet)
    for name, value in {"residues": (1,), "n": 26, "q": 25}.items():
        object.__setattr__(Z, name, value)
    with pytest.raises(NegacyclicError, match="escaped the base field"):
        _generator_polynomial(26, F25, Z)


def root_exponents(n, fld, genpoly):
    """The odd j < 2n with g(gamma^j) = 0, by a scan over every odd
    exponent: the reference for the builder's checks at the roots in Z."""
    emb, gamma = primitive_root_of_unity(fld, 2 * n)
    ext = emb.ext
    lifted = [emb.embed(c) for c in genpoly]
    return tuple(j for j in range(1, 2 * n, 2) if poly_eval(ext, lifted, ext.pow(gamma, j)) == 0)


@pytest.mark.parametrize("l", [3, 5, 7, 9, 11, 13])
def test_the_roots_of_g_among_the_odd_powers_are_the_defining_set(l):
    fld = square_field(l)
    for n, Z in _family_sets(l):
        assert root_exponents(n, fld, negacyclic_code(n, fld, Z)._genpoly) == Z.residues


def test_a_root_of_unity_of_the_wrong_order_is_refused(F9, monkeypatch):
    # a stand-in GF(81) whose generator is the square of the true one, of
    # order 40: gamma = g^(80/10) then has order 5, not 2n = 10
    true = gf.field(3, 4)
    fake = gf.Field(3, 4)
    fake.generator = true.pow(true.generator, 2)
    real_field = gf.field
    monkeypatch.setattr(gf, "field", lambda p, m=1: fake if (p, m) == (3, 4) else real_field(p, m))
    with pytest.raises(FieldError, match="does not have multiplicative order 10$"):
        negacyclic_code(5, F9, defining_set_from_residues(5, 9, [1]))


def test_a_restricted_generator_that_does_not_vanish_is_rejected(F25, monkeypatch):
    # an embedding whose image of g's constant term is wrong: g still
    # restricts, but the g it lifts back no longer vanishes at its roots
    Z = defining_set_from_residues(26, 25, [11])
    emb, gamma = primitive_root_of_unity(F25, 52)
    g0 = _generator_polynomial(26, F25, Z)[0]
    bad = copy.copy(emb)
    bad._img = list(emb._img)
    bad._img[g0] = emb.embed(F25.add(g0, 1))
    monkeypatch.setattr(negacyclic, "_root_of_unity", lambda fld, two_n: (bad, gamma))
    with pytest.raises(NegacyclicError, match="does not vanish"):
        _generator_polynomial(26, F25, Z)


GUARD = """
import json
import mpqc.gf as gf
import mpqc.matrix as matrix

orders = []
field_init = gf.Field.__init__

def counting_init(self, p, m, *args, **kwargs):
    orders.append(p**m)
    field_init(self, p, m, *args, **kwargs)

wide = []  # row counts of matrices as wide as the product with more rows than its H
matrix_init = matrix.Matrix.__init__

def counting_matrix_init(self, *args, **kwargs):
    matrix_init(self, *args, **kwargs)
    if self.ncols == 870 and self.nrows > 15:
        wide.append(self.nrows)

def refuse(*args, **kwargs):
    raise AssertionError("dense elimination or product")

matmul = matrix.Matrix.__matmul__

def narrow_matmul(self, other):
    # the 3 x 3 check A A^-1 = I passes; a product as wide as a component does not
    if max(self.ncols, other.ncols) >= 290:
        refuse()
    return matmul(self, other)

gf.Field.__init__ = counting_init
matrix.Matrix.__init__ = counting_matrix_init
matrix.Matrix.rref = refuse
matrix.Matrix.__matmul__ = narrow_matmul
from mpqc.quantum import build_chain

cb = build_chain(17, (1, 2, 3))
# gamma^290 = -1, with -1 taken in GF(289), so GF(17^4) builds no list here
fld = gf.square_field(17)
emb, gamma = gf.primitive_root_of_unity(fld, 2 * 290)
ext = emb.ext
print(json.dumps({
    "orders": orders,
    "wide": wide,
    "params": [cb.quantum.n, cb.quantum.k, cb.quantum.d_lower],
    "shared": ext is gf.field(17, 4),
    "minus_one": ext.pow(gamma, 290) == emb.embed(fld.tables.neg[1]),
    "tabulated": sorted({"_exp", "_log", "_zech", "tables", "conj_table"} & set(vars(ext))),
}))
"""


def test_chain_components_need_no_extension_field_and_no_elimination(cold_json):
    # a fresh interpreter, so every cache is cold, and no other test has
    # read the lists of the shared GF(17^4)
    doc = cold_json(GUARD)
    assert doc["params"] == [870, 840, 8]
    # GF(17^4) is set up once, shared, and never tabulated
    assert sorted(doc["orders"]) == [17, 17**2, 17**4]
    assert doc["shared"] and doc["minus_one"]
    assert doc["tabulated"] == []
    assert doc["wide"] == []  # the [870,855] product is never written as its generator


ROOT_GUARD = """
import json
import mpqc.gf as gf

fld = gf.square_field(17)
emb, gamma = gf.primitive_root_of_unity(fld, 2 * 290)
ext = emb.ext
print(json.dumps({
    "shared": ext is gf.field(17, 4),
    "order": ext.order,
    "minus_one": ext.pow(gamma, 290) == emb.embed(fld.tables.neg[1]),
    "tabulated": sorted({"_exp", "_log", "_zech", "tables", "conj_table"} & set(vars(ext))),
}))
"""


def test_primitive_root_extension_is_not_tabulated(cold_json):
    # a fresh interpreter: in this one other tests tabulate the cached GF(17^4)
    doc = cold_json(ROOT_GUARD)
    assert doc["shared"]
    assert doc["order"] == 17**4
    assert doc["minus_one"]
    assert doc["tabulated"] == []


SETUP_GUARD = """
import json
import mpqc.gf as gf

built, searched = [], []
field_init = gf.Field.__init__
search = gf.Field.__dict__["generator"]
find = search.func

def counting_init(self, p, m):
    built.append(p**m)
    field_init(self, p, m)

def counting_find(self):
    searched.append(self.order)
    return find(self)

gf.Field.__init__ = counting_init
search.func = counting_find
import mpqc.negacyclic as negacyclic
from mpqc.quantum import build_chain

build_chain(17, (1, 2, 3))
info = negacyclic._root_of_unity.cache_info()
print(json.dumps({"built": built, "searched": searched, "steps": [info.misses, info.hits]}))
"""


def test_a_cold_chain_sets_up_each_field_once(cold_json):
    # a fresh interpreter, so every cache is cold: one GF(17^4) set up,
    # one generator search on it, and gamma formed once for the three
    # components
    doc = cold_json(SETUP_GUARD)
    assert sorted(doc["built"]) == [17, 17**2, 17**4]
    assert sorted(doc["searched"]) == [17, 17**2, 17**4]
    assert doc["steps"] == [1, 2]


CASE_GUARD = """
import json
import mpqc.matrix as matrix

wide = []  # row counts of matrices as wide as the product with more rows than its H
matrix_init = matrix.Matrix.__init__

def counting_matrix_init(self, *args, **kwargs):
    matrix_init(self, *args, **kwargs)
    if self.ncols == 96 and self.nrows > 5:
        wide.append(self.nrows)

matrix.Matrix.__init__ = counting_matrix_init
from mpqc.quantum import build_case

cb = build_case(5, 4, "i")
print(json.dumps({"wide": wide, "params": [cb.built.n, cb.built.k, cb.built.d_lower]}))
"""


def test_character_product_is_built_on_its_parity_side(cold_json):
    # the [96,91] character product over GF(25) is held by its 5-row parity
    # check; a fresh interpreter, so every cache is cold
    doc = cold_json(CASE_GUARD)
    assert doc["params"] == [96, 86, 4]
    assert doc["wide"] == []  # never written as its 91-row generator


def test_extension_cap_refusal_is_up_front():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["build", "--theorem", "main2", "--l", "37", "--deltas", "1,2,3"])
    assert code == 1
    assert "extension order 1369^2 exceeds cap 1048576" in buf.getvalue()


# ---------------------------------------------------------------------------
# containment facts by polynomial division, against the matrix scans

# (l, n): both chain lengths at each l, over GF(l^2)
_VERDICT_SPACES = [(l, n) for l in (3, 5, 7, 9) for n in (l * l + 1, (l * l + 1) // 2)]


@st.composite
def negacyclic_pairs(draw):
    """Two coset-closed negacyclic codes of one length over GF(l^2); in about
    a third of the pairs the second defining set holds the first."""
    l, n = draw(st.sampled_from(_VERDICT_SPACES))
    fld = square_field(l)
    odd = list(range(1, 2 * n, 2))
    seeds = st.lists(st.sampled_from(odd), max_size=4)
    first = draw(seeds)
    second = draw(seeds)
    if draw(st.integers(0, 2)) == 0:
        second = first + second
    return tuple(
        negacyclic_code(n, fld, defining_set_from_residues(n, fld.order, s))
        for s in (first, second)
    )


def _matrix_copy(C):
    """The same code with no generator polynomial, so every verdict scans
    the matrices."""
    return LinearCode(C.field, C.n, C.gen)


def _dual_divided_by(a, b):
    """g_b | conj(h_a*), h_a = (x^n + 1)/g_a and h* the reciprocal of h: the
    exact division behind "C_a's Hermitian dual lies in C_b", since that
    dual is generated by conj(h_a*)."""
    fld = a.field
    h, rem = poly_divmod(fld, [1] + [0] * (a.n - 1) + [1], a._genpoly)
    assert not rem
    return not poly_divmod(fld, [fld.conj_table[x] for x in reversed(h)], b._genpoly)[1]


def test_polynomial_verdicts_match_the_matrix_scans():
    # the Hermitian verdicts read g alone; the matrix scans and the division
    # by the generator of the Hermitian dual are both their reference
    outcomes = {"subcode": set(), "own": set(), "cross": set()}

    @settings(max_examples=150, deadline=None)
    @given(negacyclic_pairs())
    def check(pair):
        a, b = pair
        ma, mb = _matrix_copy(a), _matrix_copy(b)
        sub = a.is_subcode_of(b)
        assert sub == ma.is_subcode_of(mb)
        assert b.is_subcode_of(a) == mb.is_subcode_of(ma)
        own = a.is_hermitian_dual_containing()
        assert own == ma.is_hermitian_dual_containing()
        assert own == (2 * a.k >= a.n and _dual_divided_by(a, a))
        cross = a.hermitian_dual_is_subcode_of(b)
        assert cross == ma.hermitian_dual_is_subcode_of(mb)
        assert cross == _dual_divided_by(a, b) == _dual_divided_by(b, a)
        assert b.hermitian_dual_is_subcode_of(a) == cross  # symmetric in the two codes
        outcomes["subcode"].add(sub)
        outcomes["own"].add(own)
        outcomes["cross"].add(cross)

    check()
    assert outcomes == {"subcode": {True, False}, "own": {True, False}, "cross": {True, False}}


def test_polynomial_verdicts_build_no_matrix_and_are_kept_by_g(monkeypatch):
    fld = square_field(9)

    def refuse(*args, **kwargs):
        raise AssertionError("a verdict built a matrix")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    divides = code_module._divides
    coprime = code_module._coprime_to_conj_reciprocal
    keys = {divides: [], coprime: []}

    def spy_on(f):
        def spy(*key):
            keys[f].append(key)
            return f(*key)

        return spy

    monkeypatch.setattr(code_module, "_divides", spy_on(divides))
    monkeypatch.setattr(code_module, "_coprime_to_conj_reciprocal", spy_on(coprime))
    c1, c2, c3 = (negacyclic_code(82, fld, centered_defining_set(9, d)) for d in (1, 2, 3))
    assert c3.is_subcode_of(c2) and c2.is_subcode_of(c1) and not c1.is_subcode_of(c2)
    assert all(c.is_hermitian_dual_containing() for c in (c1, c2, c3))
    assert c1.hermitian_dual_is_subcode_of(c3) and c3.hermitian_dual_is_subcode_of(c1)
    assert all(c._gen is None and callable(c._parity) for c in (c1, c2, c3))
    # each verdict reads two generator polynomials, of at most 8 of the 83
    # coefficients of x^n + 1, and nothing longer
    genpolys = {c._genpoly for c in (c1, c2, c3)}
    assert all(p in genpolys for key in keys[divides] + keys[coprime] for p in key[1:])
    # each verdict is one division or one coprimality test, kept by the field
    # and the two coefficient tuples, so no kept verdict holds a code or a
    # matrix (c1 is larger than c2, so that subcode verdict needs no division)
    assert keys[divides] == [(fld, c3._genpoly, c2._genpoly), (fld, c2._genpoly, c1._genpoly)]
    assert keys[coprime] == [
        *((fld, c._genpoly, c._genpoly) for c in (c1, c2, c3)),
        (fld, c3._genpoly, c1._genpoly),
        (fld, c1._genpoly, c3._genpoly),
    ]
    counts = [(f.cache_info().misses, f.cache_info().hits) for f in keys]
    assert counts == [(2, 0), (5, 0)]
    assert c3.is_subcode_of(c2) and c1.hermitian_dual_is_subcode_of(c3)
    counts = [(f.cache_info().misses, f.cache_info().hits) for f in keys]
    assert counts == [(2, 1), (5, 1)]


# ---------------------------------------------------------------------------
# components stored by g, written as matrices on demand


@pytest.mark.parametrize("l", [5, 7, 9])
def test_deferred_component_gen_is_the_systematic_rref(l):
    fld = square_field(l)
    for n, Z in _family_sets(l):
        C = negacyclic_code(n, fld, Z)
        assert C._gen is None and callable(C._parity) and C.k == n - len(Z)
        G = C.gen
        assert isinstance(C._parity, Matrix)  # G is read off the built H
        assert G.rows == reference_code(fld, n, C._genpoly).gen.rows
        assert G.leading_columns() == list(range(C.k))  # systematic: pivots 0..k-1


@pytest.mark.parametrize("l", [5, 7, 9])
def test_a_cold_parity_read_writes_no_generator(l):
    fld = square_field(l)
    for n, Z in _family_sets(l):
        C = negacyclic_code(n, fld, Z)
        H = C.parity
        assert C._parity is H and C._gen is None
        assert H.nrows == len(C._genpoly) - 1 == len(Z)
        assert H.trailing_columns() == list(range(C.k, n))  # right-reduced: [-P^T | I]


@pytest.mark.parametrize(
    "l,n,Z",
    [
        (3, 2, defining_set_from_residues(2, 9, [1])),  # k = 1: a single shift of g
        (5, 26, centered_defining_set(5, 1)),
        (5, 26, centered_defining_set(5, 2)),
        (7, 25, half_length_defining_set(7, 1)),
    ],
)
def test_the_parity_side_refuses_a_corrupted_h_or_g(l, n, Z, monkeypatch):
    fld = square_field(l)
    g = list(negacyclic_code(n, fld, Z)._genpoly)
    xn1 = [1] + [0] * (n - 1) + [1]
    assert negacyclic._parity_side(n, fld, g) == reference_code(fld, n, g).parity
    refused = 0
    for j in range(len(g)):
        bad = list(g)
        bad[j] = fld.add(bad[j], 1)
        if reference_method_poly_divmod(fld, xn1, bad)[1]:
            with pytest.raises(NegacyclicError, match="^generator polynomial does not divide x\\^n \\+ 1$"):
                negacyclic._parity_side(n, fld, bad)
            refused += 1
        else:
            # a unit times another divisor of x^n + 1, as 2x + 3 = 2(x + 3/2)
            # is at n = 2 over GF(9): it generates a code, and H checks that one
            assert negacyclic._parity_side(n, fld, bad) == reference_code(fld, n, bad).parity
    assert refused >= len(g) - 1
    # a corrupted h reaches the membership scan when the division hands it in
    h = poly_divmod(fld, xn1, g)[0]
    for j in range(len(h)):
        bad = list(h)
        bad[j] = fld.add(bad[j], 1)
        with monkeypatch.context() as mp:
            mp.setattr(negacyclic, "poly_divmod", lambda *args: (bad, []))
            with pytest.raises(NegacyclicError, match="^the h\\* shifts do not check exactly <g>$"):
                negacyclic._parity_side(n, fld, g)


def test_a_build_divides_nothing_of_length_n(F25, monkeypatch):
    # the build checks x^26 = -1 mod g by powers mod g; x^26 + 1 is divided
    # by g only when a parity check is first read
    def refuse(*args):
        raise AssertionError("a division of x^n + 1")

    with monkeypatch.context() as mp:
        mp.setattr(negacyclic, "poly_divmod", refuse)
        codes = [negacyclic_code(26, F25, centered_defining_set(5, d)) for d in range(3)]
        assert [C.k for C in codes] == [25, 23, 21]
        own = [C.is_hermitian_dual_containing() for C in codes]
        cross = [[a.hermitian_dual_is_subcode_of(b) for b in codes] for a in codes]
        with pytest.raises(AssertionError, match="^a division of x\\^n \\+ 1$"):
            codes[2].parity
        assert all(callable(C._parity) for C in codes)
    # == and hash read the smaller side, here H, so they divide once the
    # division is allowed again; the verdicts agree with the matrix scans
    scanned = [LinearCode.from_parity(C.parity) for C in codes]
    for C, S in zip(codes, scanned):
        ref = reference_code(F25, 26, C._genpoly)
        assert C == ref == S and hash(C) == hash(ref)
    assert own == [S.is_hermitian_dual_containing() for S in scanned] == [True] * 3
    assert cross == [[a.hermitian_dual_is_subcode_of(b) for b in scanned] for a in scanned]


WIDTH_GUARD = """
import json
import mpqc.matrix as matrix

widest = [0]
matrix_init = matrix.Matrix.__init__

def counting_matrix_init(self, *args, **kwargs):
    matrix_init(self, *args, **kwargs)
    widest[0] = max(widest[0], self.ncols)

matrix.Matrix.__init__ = counting_matrix_init
from mpqc.quantum import build_chain

cb = build_chain(17, (1, 2, 3))
print(json.dumps({"widest": widest[0], "params": [cb.quantum.n, cb.quantum.k, cb.quantum.d_lower]}))
"""


def test_chain_build_writes_no_matrix_as_wide_as_a_component(cold_json):
    # components, chain checks and the product's verdict all come from
    # generator polynomials; a fresh interpreter, so every cache is cold
    doc = cold_json(WIDTH_GUARD)
    assert doc["params"] == [870, 840, 8]
    assert doc["widest"] < 290
