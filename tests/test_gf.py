import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpqc.gf import (
    Field,
    FieldError,
    SubfieldEmbedding,
    _decode_coeffs,
    _encode_coeffs,
    _resultant,
    field,
    is_prime,
    multiplicative_order,
    prime_factors,
    poly_divmod,
    poly_powmod,
    primitive_root_of_unity,
    smallest_irreducible,
    square_field,
)


def brute_smallest_irreducible_quadratic(p):
    """Independent oracle: scan monic quadratics in integer-encoding order,
    irreducibility by the degree-2 root test."""
    for enc in range(p * p):
        c0, c1 = enc % p, enc // p
        if all((x * x + c1 * x + c0) % p for x in range(p)):
            return (c0, c1, 1)
    raise AssertionError("no irreducible quadratic found")


def test_prime_field_modulus(F3):
    assert F3.modulus == (0, 1)
    assert F3.order == 3


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_quadratic_modulus_matches_bruteforce(p):
    assert smallest_irreducible(p, 2) == brute_smallest_irreducible_quadratic(p)


def test_gf25_modulus_is_x2_plus_2(F25):
    # x^2+1 factors since -1 is a square mod 5; x^2+2 does not
    assert F25.modulus == (2, 0, 1)


def test_non_prime_characteristic_rejected():
    with pytest.raises(FieldError):
        Field(4, 2)
    with pytest.raises(FieldError):
        Field(5, 0)


def test_order_cap():
    with pytest.raises(FieldError):
        Field(2, 25)  # 2^25 over the default cap


def test_x_times_x_reduces_by_modulus(F25):
    x = F25.from_coeffs([0, 1])
    assert F25.mul(x, x) == F25.from_coeffs([3])  # x^2 = -2 = 3


def test_all_inverses_gf9(F9):
    for a in range(1, 9):
        assert F9.mul(a, F9.tables.inv[a]) == 1


def test_zero_inverse_rejected(F9):
    assert F9.tables.inv[0] is None
    with pytest.raises(FieldError):
        F9.pow(0, -1)


def test_conjugation_fixes_subfield(F9):
    # GF(3) inside GF(9): the codes 0, 1, 2
    for c in range(3):
        assert F9.conj_table[c] == c
    fixed = [a for a in range(9) if F9.conj_table[a] == a]
    assert len(fixed) == 3


def test_conjugation_of_basis_element(F9):
    # alpha^2 = -1, so alpha^3 = -alpha
    alpha = F9.from_coeffs([0, 1])
    assert F9.conj_table[alpha] == F9.tables.neg[alpha]


def test_conjugation_involution(F25):
    conj = F25.conj_table
    for a in range(25):
        assert conj[conj[a]] == a


def test_conj_refused_on_odd_degree(F3):
    with pytest.raises(FieldError):
        F3.conj_table


# conj_table is read off exp; square-and-multiply x^l is its reference.
# GF(37^2) is above TABLE_ORDER_CAP, where add and mul are Zech row objects
@pytest.mark.parametrize(
    "pm", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6), (3, 4), (17, 2), (5, 4), (29, 2), (37, 2)]
)
def test_conj_table_matches_the_power_map(pm):
    F = Field(*pm)
    l = F.subfield_order
    assert F.conj_table == [F.pow(x, l) for x in range(F.order)]
    # neg is a permutation of the q element codes, as shared int objects
    shared = {id(x) for x in F.tables.neg}
    assert len(shared) == F.order
    assert {id(x) for x in F.conj_table} <= shared


def test_square_field():
    assert square_field(3) is field(3, 2)
    assert square_field(9) is field(3, 4)
    assert square_field(25).order == 625
    with pytest.raises(FieldError):
        square_field(6)


def test_primitive_root_52(F25):
    emb, gamma = primitive_root_of_unity(F25, 52)
    ext = emb.ext
    assert ext.order == 625  # e = 2: 25^2 = 1 mod 52, 25 != 1 mod 52
    assert multiplicative_order(25, 52) == 2
    assert ext.pow(gamma, 52) == 1
    for dv in range(1, 52):
        if 52 % dv == 0:
            assert ext.pow(gamma, dv) != 1
    assert ext.pow(gamma, 26) == emb.embed(F25.tables.neg[1])


def test_primitive_root_gcd_violation(F9):
    with pytest.raises(FieldError):
        primitive_root_of_unity(F9, 3)


def test_embedding_homomorphism_exhaustive(F9):
    emb, _ = primitive_root_of_unity(F9, 16)
    ext = emb.ext
    assert ext.order == 81
    for a in range(9):
        for b in range(9):
            assert emb.embed(F9.add(a, b)) == ext.add(emb.embed(a), emb.embed(b))
            assert emb.embed(F9.mul(a, b)) == ext.mul(emb.embed(a), emb.embed(b))
        assert emb.restrict(emb.embed(a)) == a


def test_embedding_membership_via_frobenius(F25):
    emb, gamma = primitive_root_of_unity(F25, 52)
    assert not emb.in_image(gamma)  # order 52 does not divide 24
    with pytest.raises(FieldError):
        emb.restrict(gamma)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_gf25(x, y, z):
    F = field(5, 2)
    assert F.add(x, F.add(y, z)) == F.add(F.add(x, y), z)
    assert F.mul(x, F.mul(y, z)) == F.mul(F.mul(x, y), z)
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
    assert F.add(x, y) == F.add(y, x)
    assert F.mul(x, y) == F.mul(y, x)
    assert F.add(F.add(x, y), F.tables.neg[y]) == x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 48), st.integers(0, 48))
def test_frobenius_is_homomorphism_gf49(x, y):
    F = field(7, 2)
    frob = lambda a: F.pow(a, F.p)
    assert frob(F.add(x, y)) == F.add(frob(x), frob(y))
    assert frob(F.mul(x, y)) == F.mul(frob(x), frob(y))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.integers(-30, 30))
def test_pow_matches_repeated_multiplication(a, e):
    F = field(5, 2)
    expected = 1
    base = a if e >= 0 else F.tables.inv[a]
    for _ in range(abs(e)):
        expected = F.mul(expected, base)
    assert F.pow(a, e) == expected


def test_generator_has_full_order(F49):
    g = F49.generator
    assert next(e for e in range(1, 49) if F49.pow(g, e) == 1) == 48


def test_characteristic_two_field():
    # not needed by any construction here, but the arithmetic must not
    # assume odd characteristic
    F4 = field(2, 2)
    _, _, neg, inv = F4.tables
    assert F4.modulus == (1, 1, 1)
    for a in range(4):
        assert F4.add(a, a) == 0
        assert neg[a] == a
        for b in range(4):
            assert F4.add(a, neg[b]) == F4.add(a, b)
    assert all(F4.mul(a, inv[a]) == 1 for a in range(1, 4))
    assert F4.conj_table[F4.generator] == F4.pow(F4.generator, 2)


def test_element_serialization_roundtrip(F25):
    for code in range(25):
        assert F25.from_coeffs(_decode_coeffs(code, F25.p, F25.m)) == code
    assert F25.modulus == (2, 0, 1)


# ---------------------------------------------------------------------------
# the polynomial helpers over a Field against the mod-p integer copies that
# the modulus search used before


def reference_poly_trim(c):
    # kept verbatim from gf._poly_trim
    while c and c[-1] == 0:
        c.pop()
    return c


def reference_poly_divmod(a, b, p):
    # kept verbatim from gf._poly_divmod
    a = list(a)
    reference_poly_trim(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        f = a[-1] * inv_lead % p
        q[shift] = f
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - f * bi) % p
        reference_poly_trim(a)
    return q, a


def reference_poly_eval(c, x, p):
    # kept verbatim from gf._poly_eval
    acc = 0
    for ci in reversed(c):
        acc = (acc * x + ci) % p
    return acc


def poly_eval(fld, c, x):
    """The package's former evaluation by Horner's rule on the field's tables,
    kept verbatim as a test reference beside its integer copy."""
    add, by_x = fld.tables.add, fld.tables.mul[x]
    acc = 0
    for ci in reversed(c):
        acc = add[by_x[acc]][ci]
    return acc


def reference_is_irreducible(c, p):
    # kept verbatim from gf._is_irreducible
    deg = len(c) - 1
    if deg == 1:
        return True
    for x in range(p):
        if reference_poly_eval(c, x, p) == 0:
            return False
    for fdeg in range(2, deg // 2 + 1):
        for enc in range(p**fdeg):
            div = _decode_coeffs(enc, p, fdeg) + [1]
            if not reference_poly_divmod(c, div, p)[1]:
                return False
    return True


def reference_smallest_irreducible(p, m):
    if m == 1:
        return (0, 1)
    for enc in range(p**m):
        cand = _decode_coeffs(enc, p, m) + [1]
        if reference_is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize("p", [p for p in range(2, 44) if is_prime(p)])
def test_smallest_irreducible_matches_the_integer_search(p):
    for m in range(1, 7 if p <= 7 else 5):
        assert smallest_irreducible(p, m) == reference_smallest_irreducible(p, m), (p, m)


_PRIMES = [2, 3, 5, 7, 11, 13]


@st.composite
def _poly_pair(draw):
    p = draw(st.sampled_from(_PRIMES))
    a = draw(st.lists(st.integers(0, p - 1), max_size=9))
    b = draw(st.lists(st.integers(0, p - 1), max_size=5)) + [draw(st.integers(1, p - 1))]
    return p, a, b


@settings(max_examples=300, deadline=None)
@given(_poly_pair())
def test_poly_divmod_matches_the_integer_copy(case):
    p, a, b = case
    a_before, b_before = list(a), list(b)
    assert poly_divmod(field(p), a, b) == reference_poly_divmod(a, b, p)
    assert (a, b) == (a_before, b_before)  # neither operand is modified


def reference_poly_powmod(a, e, f, p):
    """a^e mod f by e multiplications, each reduced by the integer division."""
    acc = reference_poly_divmod([1], f, p)[1]
    for _ in range(e):
        prod = [0] * (len(acc) + len(a) - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(a):
                prod[i + j] = (prod[i + j] + x * y) % p
        acc = reference_poly_divmod(prod, f, p)[1]
    return acc


@st.composite
def _powmod_case(draw):
    p = draw(st.sampled_from(_PRIMES))
    a = draw(st.lists(st.integers(0, p - 1), max_size=7))
    f = draw(st.lists(st.integers(0, p - 1), max_size=3)) + [draw(st.integers(1, p - 1))]
    return p, a, draw(st.integers(0, 40)), f


@settings(max_examples=300, deadline=None)
@given(_powmod_case())
@example((5, [2, 3], 0, [1, 0, 1]))  # e = 0: 1 mod f
@example((7, [2, 3, 1], 1, [1, 0, 1]))  # e = 1: a mod f
@example((3, [], 5, [2, 1]))  # a = 0
@example((5, [4, 0, 1], 9, [1, 0, 1]))  # a = f, so a = 0 mod f
@example((13, [0, 1], 30, [3, 1]))  # deg f = 1: x^30 mod x + 3 is (-3)^30
@example((2, [1, 1], 3, [1]))  # deg f = 0: everything is 0 mod f
def test_poly_powmod_matches_repeated_multiplication(case):
    p, a, e, f = case
    a_before, f_before = list(a), list(f)
    assert poly_powmod(field(p), a, e, f) == reference_poly_powmod(a, e, f, p)
    assert (a, f) == (a_before, f_before)  # neither operand is modified


def poly_mul(fld: "Field", a: list[int], b: list[int]) -> list[int]:
    """The package's former polynomial product, kept verbatim as a test
    reference: schoolbook, through the field's method calls."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    add, mul = fld.add, fld.mul
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def reference_method_poly_divmod(fld, a, b):
    # kept verbatim from the method-call division the table loop replaced,
    # on the schoolbook arithmetic instead of the field's
    ref = SchoolbookField(fld.p, fld.m, fld.modulus)
    b = reference_poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = reference_poly_trim(list(a))
    db = len(b) - 1
    inv_lead = ref.inv(b[-1])
    q = [0] * max(len(a) - db, 0)
    sub, mul = (lambda x, y: ref.add(x, ref.neg(y))), ref.mul
    while a and len(a) - 1 >= db:
        shift = len(a) - 1 - db
        f = mul(a[-1], inv_lead)
        q[shift] = f
        for i, bi in enumerate(b):
            if bi:
                a[shift + i] = sub(a[shift + i], mul(f, bi))
        reference_poly_trim(a)
    return q, a


# GF(37^2) is above TABLE_ORDER_CAP, so its tables are Zech row objects
_DIVISION_FIELDS = [(2, 1), (2, 2), (3, 2), (5, 2), (7, 2), (3, 4), (37, 2)]


@st.composite
def _field_poly_pair(draw):
    fld = field(*draw(st.sampled_from(_DIVISION_FIELDS)))
    entry = st.integers(0, fld.order - 1)
    a = draw(st.lists(entry, max_size=12))
    b = draw(st.lists(entry, max_size=6)) + [draw(st.integers(1, fld.order - 1))]
    if draw(st.booleans()):  # an exact multiple of b, so both outcomes occur
        a = poly_mul(fld, draw(st.lists(entry, max_size=6)), b)
    return fld, a, b


@settings(max_examples=300, deadline=None)
@given(_field_poly_pair())
def test_table_division_matches_the_method_calls(case):
    fld, a, b = case
    a_before, b_before = list(a), list(b)
    assert poly_divmod(fld, a, b) == reference_method_poly_divmod(fld, a, b)
    assert (a, b) == (a_before, b_before)  # neither operand is modified


def test_both_division_outcomes_occur():
    seen = set()

    @settings(max_examples=100, deadline=None)
    @given(_field_poly_pair())
    def check(case):
        fld, a, b = case
        seen.add(not poly_divmod(fld, a, b)[1])

    check()
    assert seen == {True, False}


def test_division_by_zero_is_refused():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(field(3, 2), [1, 2], [0, 0])


def test_a_step_that_leaves_the_leading_coefficient_raises():
    # x / (x + 1) over GF(5) adds 1 + 4 at x's leading coefficient; a private
    # field with that add entry corrupted must raise, not loop, and the
    # alarm turns a loop into a failure instead of a stalled suite
    fld = Field(5, 1)
    assert fld is not field(5)
    fld.tables.add[1] = list(fld.tables.add[1])
    fld.tables.add[1][4] = 1

    def hang(signum, frame):
        raise TimeoutError("poly_divmod did not terminate")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(FieldError, match="GF\\(5\\)"):
            poly_divmod(fld, [0, 1], [1, 1])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert field(5).tables.add[1][4] == 0
    assert poly_divmod(field(5), [0, 1], [1, 1]) == ([1], [4])


@settings(max_examples=300, deadline=None)
@given(_poly_pair())
def test_poly_eval_matches_the_integer_copy(case):
    p, a, _ = case
    for x in range(p):
        assert poly_eval(field(p), a, x) == reference_poly_eval(a, x, p)


@pytest.mark.parametrize(
    "base,ext",
    [((3, 1), (3, 2)), ((3, 2), (3, 4)), ((5, 2), (5, 4)), ((2, 2), (2, 4)), ((7, 2), (7, 4)), ((3, 2), (3, 8))],
)
def test_embedding_tables_match_the_horner_loops(base, ext):
    # the two hand-written loops the embedding used, kept verbatim
    base, ext = field(*base), field(*ext)
    emb = SubfieldEmbedding(base, ext)
    root = emb._root
    if base.m > 1 and base.m != ext.m:
        q = base.order
        step = (ext.order - 1) // (q - 1)
        mod = [c % base.p for c in base.modulus]
        roots = []
        for j in range(q - 1):
            x = ext._exp[j * step % (ext.order - 1)]
            acc = 0
            for c in reversed(mod):
                acc = ext.add(ext.mul(acc, x), c)
            if acc == 0:
                roots.append(x)
        assert root == min(roots)
    img = [0] * base.order
    rp = [1]
    for _ in range(base.m - 1):
        rp.append(ext.mul(rp[-1], root))
    for a in range(base.order):
        acc = 0
        for c, r in zip(_decode_coeffs(a, base.p, base.m), rp):
            acc = ext.add(acc, ext.mul(c, r))
        img[a] = acc
    assert emb._img == img


# ---------------------------------------------------------------------------
# the packed arithmetic against the schoolbook multiply it replaced


class SchoolbookField:
    """The table-free multiply the fields ran before packing, kept verbatim:
    decode both codes to digit lists, multiply schoolbook, reduce through
    the residues of x^m .. x^(2m-2), encode.  With digit-wise add and neg,
    and inv as a^(q-2), it is the reference arithmetic the tables and the
    elimination kernel are checked against: it reads no exp/log list and no
    packed int."""

    def __init__(self, p: int, m: int, modulus):
        self.p, self.m, self.order, self.modulus = p, m, p**m, tuple(modulus)
        self._xpow = self._reduction_table()

    def _reduction_table(self) -> list[list[int]]:
        # coefficient vectors of x^m .. x^(2m-2) reduced mod the modulus
        p, m = self.p, self.m
        mod = list(self.modulus)
        table = []
        cur = [(-c) % p for c in mod[:m]]  # x^m = -(mod - x^m)
        table.append(list(cur))
        for _ in range(m - 2):
            cur = [0] + cur
            if len(cur) > m:
                lead = cur.pop()
                cur = [(ci + lead * ri) % p for ci, ri in zip(cur, table[0])]
            table.append(list(cur))
        return table

    def _mul_codes_raw(self, a: int, b: int) -> int:
        # table-free multiply, used only while bootstrapping the tables
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        av = _decode_coeffs(a, p, m)
        bv = _decode_coeffs(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(av):
            if ai:
                for j, bj in enumerate(bv):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        acc = prod[:m]
        for k in range(m, 2 * m - 1):
            c = prod[k]
            if c:
                red = self._xpow[k - m]
                acc = [(x + c * r) % p for x, r in zip(acc, red)]
        return _encode_coeffs(acc, p)

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_codes_raw(r, a)
            a = self._mul_codes_raw(a, a)
            e >>= 1
        return r

    def _digits(self, a: int) -> list[int]:
        return _decode_coeffs(a, self.p, self.m)

    def add(self, a: int, b: int) -> int:
        return _encode_coeffs([x + y for x, y in zip(self._digits(a), self._digits(b))], self.p)

    def neg(self, a: int) -> int:
        return _encode_coeffs([-x for x in self._digits(a)], self.p)

    def mul(self, a: int, b: int) -> int:
        return self._mul_codes_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        return self._pow_raw(a, self.order - 2)


# ---------------------------------------------------------------------------
# the norm-first generator search


class ReferenceGeneratorSearch(SchoolbookField):
    """The search Field ran before the norm test, kept verbatim: every prime
    of q - 1 by a full square-and-multiply power."""

    def __init__(self, fld: Field):
        super().__init__(fld.p, fld.m, fld.modulus)

    def _find_generator(self) -> int:
        q = self.order
        if q == 2:
            return 1
        checks = [(q - 1) // r for r in prime_factors(q - 1)]
        for g in range(2, q):
            if all(self._pow_raw(g, e) != 1 for e in checks):
                return g
        raise FieldError("no generator found")  # unreachable for true fields


def _prime_powers(limit):
    for p in filter(is_prime, range(2, limit + 1)):
        q, m = p, 1
        while q <= limit:
            yield p, m
            q, m = q * p, m + 1


def test_norm_first_generator_matches_the_full_power_search():
    cases = list(_prime_powers(2**16)) + [(3, 8), (17, 4), (29, 4)]
    assert len(cases) > 6000
    for p, m in cases:
        F = Field(p, m)
        assert F.generator == ReferenceGeneratorSearch(F)._find_generator(), (p, m)


@pytest.mark.parametrize("pm", [(2, 1), (3, 1), (2, 4), (5, 2), (3, 3), (17, 4), (7, 6)])
def test_raw_frobenius_and_norm(pm):
    # the norm is the resultant of the modulus and a's digits, zero included
    F = Field(*pm)
    ref = SchoolbookField(F.p, F.m, F.modulus)
    p, q = F.p, F.order
    for a in list(range(min(q, 60))) + [q - 1]:
        assert F._frobenius(F._pack(a)) % F._to_code == F.pow(a, p) == ref._pow_raw(a, p)
        nm = _resultant(F.modulus, _decode_coeffs(a, p, F.m), p)
        assert nm < p and nm == ref._pow_raw(a, (q - 1) // (p - 1))


# (31, 4), 923,521 elements, is the largest m = 4 prime order under the cap
_PACKED_FIELDS = [(2, 1), (2, 9), (3, 8), (5, 4), (7, 6), (17, 4), (31, 4)]


def test_the_order_cap_holds_for_every_field():
    with pytest.raises(FieldError, match="^field order 13845841 exceeds cap 1048576$"):
        Field(61, 4)


@pytest.mark.parametrize("pm", _PACKED_FIELDS)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_packed_arithmetic_matches_the_schoolbook_multiply(pm, data):
    F = field(*pm)
    ref = SchoolbookField(F.p, F.m, F.modulus)
    p, m, q = F.p, F.m, F.order
    # the extreme codes and the monomials x^i, then arbitrary ones
    special = st.sampled_from([0, 1, p - 1, q - 1] + [p**i for i in range(m)])
    element = st.one_of(special, st.integers(0, q - 1))
    a, b = data.draw(element), data.draw(element)
    e = data.draw(st.integers(0, 2 * q))
    # the packed forms themselves: add and mul read the tables, which would
    # tabulate the field; _frobenius is the map smallest_root steps by
    code = lambda v: v % F._to_code
    pa, pb = F._pack(a), F._pack(b)
    assert code(F._mul(pa, pb)) == ref._mul_codes_raw(a, b)
    assert F.pow(a, e) == ref._pow_raw(a, e)
    assert code(F._frobenius(pa)) == ref._pow_raw(a, p)
    digits = lambda c: _decode_coeffs(c, p, m)
    assert digits(code(F._reduce(pa + pb))) == [(x + y) % p for x, y in zip(digits(a), digits(b))]
    assert F._reduce(pa + F._reduce(pa * (p - 1))) == 0


def test_one_raw_field_per_order_is_shared():
    emb, _ = primitive_root_of_unity(field(17, 2), 2 * 290)
    assert emb.ext is field(17, 4)


@pytest.mark.parametrize("pm", [(3, 8), (2, 9)])
def test_smallest_irreducible_matches_the_integer_search_at_higher_degree(pm):
    assert smallest_irreducible(*pm) == reference_smallest_irreducible(*pm)


# what a field builds on first read
_TABULATED = {"_exp", "_log", "_zech", "tables", "conj_table"}


@pytest.mark.parametrize("base,ext", [((3, 2), (3, 4)), ((5, 2), (5, 4)), ((2, 2), (2, 6)), ((7, 2), (7, 4))])
def test_table_free_embedding_matches_the_tabulated_one(base, ext):
    # an embedding into a fresh field reads none of its lists, and agrees
    # with the Zech arithmetic and the logs of the shared, tabulated one
    base, tabled = field(*base), field(*ext)
    fresh = Field(*ext)
    emb = SubfieldEmbedding(base, fresh)
    for a in range(base.order):
        for b in range(base.order):
            assert emb.embed(base.add(a, b)) == tabled.add(emb.embed(a), emb.embed(b))
            assert emb.embed(base.mul(a, b)) == tabled.mul(emb.embed(a), emb.embed(b))
    # the image is 0 and the subgroup of order q - 1
    step = (tabled.order - 1) // (base.order - 1)
    for b in range(0, tabled.order, 7):
        assert emb.in_image(b) == (b == 0 or tabled._log[b] % step == 0)
    assert not _TABULATED & set(vars(fresh))


@pytest.mark.parametrize("l,n", [(3, 16), (17, 580)])
def test_negative_powers_invert_on_an_untabulated_extension(l, n):
    # GF(3^4) and GF(17^4) as primitive_root_of_unity hands them out; the
    # products are packed, so the check reads none of the field's lists
    ext = primitive_root_of_unity(square_field(l), n)[0].ext
    assert ext.order == l**4
    packed_mul = lambda x, y: ext._mul(ext._pack(x), ext._pack(y)) % ext._to_code
    elements = [1, 2, ext.p, ext.generator, ext.order - 1] + list(range(3, ext.order, ext.order // 50))
    for a in elements:
        for e in [1, 2, 5, ext.order - 2, ext.order]:
            assert packed_mul(ext.pow(a, -e), ext.pow(a, e)) == 1, (a, e)
    with pytest.raises(FieldError, match="^inversion of zero$"):
        ext.pow(0, -1)


# ---------------------------------------------------------------------------
# verify's fields battery reads the tables the engine runs


@pytest.mark.parametrize(
    "check,corrupt",
    [
        ("field axioms", lambda F: F.tables.inv.__setitem__(5, F.tables.inv[6])),
        ("conjugation involution", lambda F: F.conj_table.__setitem__(4, F.conj_table[5])),
    ],
)
def test_the_fields_battery_fails_on_a_corrupted_table_entry(monkeypatch, check, corrupt):
    # a private GF(9) with one entry of inv or conj_table overwritten, handed
    # to the battery in place of the shared one: the check that reads it fails
    import mpqc.verify as verify

    broken = Field(3, 2)
    corrupt(broken)
    real = verify.field
    monkeypatch.setattr(verify, "field", lambda p, m=1: broken if (p, m) == (3, 2) else real(p, m))
    report = verify.suite_fields(1)
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [check]
    assert not report["passed"]


FIELDS_GUARD = """
import json
from mpqc.gf import field
from mpqc.verify import suite_fields

report = suite_fields(42)
print(json.dumps({
    "passed": report["passed"],
    "built": sorted(vars(field(5, 4))),
}))
"""


def test_the_fields_battery_leaves_its_extension_untabulated(cold_json):
    # a fresh interpreter, since other tests here tabulate the shared GF(5^4):
    # the battery reaches GF(5^4) through primitive_root_of_unity and checks
    # it in the packed form only
    doc = cold_json(FIELDS_GUARD)
    assert doc["passed"]
    assert "generator" in doc["built"]
    assert not _TABULATED & set(doc["built"])
