"""Exact arithmetic in GF(p^m).

Elements are represented as integer codes in [0, p^m): the base-p digits of
a code are the coefficients of the element in the polynomial basis, constant
term first.  Each field carries exp/log tables over a canonical generator of
the multiplicative group plus a Zech logarithm table, so that addition,
multiplication and inversion are all O(1) table lookups.  The exp table is
stepped out by the table-free multiply of ``RawField`` (below), one product
with the generator per element.  Fields, and the extensions that
``primitive_root_of_unity`` reaches, are refused above DEFAULT_ORDER_CAP.

``Field.tables`` gives ``add[a][b]``, ``mul[a][b]``, ``neg[a]`` and
``inv[a]``, built on first use.  Up to order TABLE_ORDER_CAP add and mul are
nested lists; above it their rows are objects that read each entry through
the Zech path.  Bulk loops such as the elimination kernel in ``matrix.py``
index them directly instead of calling a method per entry.

The modulus is pinned deterministically: among all monic irreducible
polynomials of degree m over GF(p), the one whose non-leading coefficient
vector encodes the smallest integer (constant term = least significant
digit) is chosen.  The generator is pinned the same way: the smallest code
g >= 2 of multiplicative order p^m - 1.  Two processes therefore always
agree on every element code and every table.

``RawField`` is the one table-free implementation of GF(p^m): schoolbook
multiply and reduce, a GF(p)-linear Frobenius map, the norm-first generator
search (N(g) must be a primitive root of GF(p), which settles every prime
of p^m - 1 that divides p - 1 with m - 1 Frobenius maps; only the other
primes need full powers) and the smallest-root rule that pins
``SubfieldEmbedding``.  A Field bootstraps its tables from one, and
``primitive_root_of_unity`` returns its extension as one, so the negacyclic
builder works in GF(l^4) without tabulating it.

The package's one set of polynomial helpers over a Field (``poly_mul``,
``poly_divmod``, ``poly_eval``) lives here too.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

DEFAULT_ORDER_CAP = 2**20
# largest order whose add/mul tables are materialized: two q x q tables of
# shared int references, about 8 bytes per entry (1.3 MB at q = 289, 16 MB
# and about 0.25 s to build at q = 1024, repaid within a few eliminations)
TABLE_ORDER_CAP = 1024


class FieldError(ValueError):
    """Bad field parameters or illegal element operation."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def split_prime_power(n: int) -> tuple[int, int]:
    """Write n = p^a with p prime, or raise FieldError."""
    if n < 2:
        raise FieldError(f"{n} is not a prime power")
    for p in range(2, n + 1):
        if p * p > n:
            p = n
        if n % p == 0:
            a = 0
            m = n
            while m % p == 0:
                m //= p
                a += 1
            if m != 1 or not is_prime(p):
                raise FieldError(f"{n} is not a prime power")
            return p, a
    raise FieldError(f"{n} is not a prime power")


# ---------------------------------------------------------------------------
# polynomials over a Field: coefficient lists of element codes, constant term
# first.  Over a prime field GF(p) the codes are the residues mod p, so the
# modulus search below runs on field(p); Field(p, 1) takes its modulus x
# before any polynomial call, so building it never recurses.


def poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(fld: "Field", a: list[int], b: list[int]) -> list[int]:
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


def poly_divmod(fld: "Field", a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder), both trimmed, on the field's tables: each step
    adds f * (-b_i) to the leading window of a, for f = lead(a) / lead(b)."""
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = poly_trim(list(a))
    add, mul, neg, inv = fld.tables
    db = len(b) - 1
    by_inv_lead = mul[inv[b[-1]]]
    minus_b = [(i, mul[neg[bi]]) for i, bi in enumerate(b) if bi]
    q = [0] * max(len(a) - db, 0)
    while a and len(a) - 1 >= db:
        shift = len(a) - 1 - db
        f = by_inv_lead[a[-1]]
        q[shift] = f
        for i, m in minus_b:
            a[shift + i] = add[a[shift + i]][m[f]]
        poly_trim(a)
    return q, a


def poly_eval(fld: "Field", c: Sequence[int], x: int) -> int:
    acc = 0
    for ci in reversed(c):
        acc = fld.add(fld.mul(acc, x), ci)
    return acc


def _is_irreducible(c: list[int], fp: "Field") -> bool:
    """Monic poly over the prime field fp: no roots, then trial division by
    all monic polynomials of degree 2..deg/2 (only reachable factor degrees)."""
    deg = len(c) - 1
    if deg == 1:
        return True
    p = fp.p
    for x in range(p):
        if poly_eval(fp, c, x) == 0:
            return False
    for fdeg in range(2, deg // 2 + 1):
        for enc in range(p**fdeg):
            div = _decode_coeffs(enc, p, fdeg) + [1]
            if not poly_divmod(fp, c, div)[1]:
                return False
    return True


def _decode_coeffs(code: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(code % p)
        code //= p
    return out


def _encode_coeffs(coeffs: Sequence[int], p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + c % p
    return code


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Canonical monic irreducible of degree m over GF(p).

    Candidates are scanned in increasing order of the integer encoded by the
    m non-leading coefficients (constant term least significant), i.e. x^2,
    x^2+1, x^2+2, ..., x^2+x, ...  The first irreducible wins.
    """
    if m == 1:
        return (0, 1)
    fp = field(p)
    for enc in range(p**m):
        cand = _decode_coeffs(enc, p, m) + [1]
        if _is_irreducible(cand, fp):
            return tuple(cand)
    raise FieldError(f"no irreducible of degree {m} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------
# table-free arithmetic


class RawField:
    """GF(p^m) arithmetic on element codes with no tables.

    A product is a schoolbook multiply reduced through the precomputed
    residues of x^m .. x^(2m-2); the Frobenius map a -> a^p is applied as the
    GF(p)-linear map given by the images of the basis monomials.  Each Field
    bootstraps its tables from one of these, and ``primitive_root_of_unity``
    builds its extension as one.

    The canonical generator is the smallest code g >= 2 of multiplicative
    order p^m - 1.  The norm is tested first: N(g) = g^((Q-1)/(p-1)), the
    product of g's m conjugates, is a primitive root of GF(p) exactly when
    g^((Q-1)/r) != 1 for every prime r | p - 1, so only the primes of Q - 1
    that do not divide p - 1 need full powers.  The test is the same as
    checking every prime of Q - 1, so is the generator it finds.
    """

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus: tuple[int, ...] = smallest_irreducible(p, m)
        self._xpow = self._reduction_table()
        # Frobenius images of 1, x, ..., x^(m-1) as coefficient vectors
        self._frob = [_decode_coeffs(self.pow(p**i, p), p, m) for i in range(m)]

    def __repr__(self):
        return f"table-free GF({self.p}^{self.m})"

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

    def add(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        av, bv = _decode_coeffs(a, p, m), _decode_coeffs(b, p, m)
        return _encode_coeffs([x + y for x, y in zip(av, bv)], p)

    def neg(self, a: int) -> int:
        return _encode_coeffs([-x for x in _decode_coeffs(a, self.p, self.m)], self.p)

    def mul(self, a: int, b: int) -> int:
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

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def frobenius(self, a: int) -> int:
        """a^p, one pass of the linear map."""
        p = self.p
        acc = [0] * self.m
        for ai, image in zip(_decode_coeffs(a, p, self.m), self._frob):
            if ai:
                acc = [x + ai * y for x, y in zip(acc, image)]
        return _encode_coeffs(acc, p)

    def norm(self, a: int) -> int:
        """a * a^p * ... * a^(p^(m-1)), an element of GF(p)."""
        acc = c = a
        for _ in range(self.m - 1):
            c = self.frobenius(c)
            acc = self.mul(acc, c)
        return acc

    @functools.cached_property
    def generator(self) -> int:
        q, p = self.order, self.p
        if q == 2:
            return 1
        base_checks = [(p - 1) // r for r in prime_factors(p - 1)]
        full_checks = [(q - 1) // r for r in prime_factors(q - 1) if (p - 1) % r]
        for g in range(2, q):
            # norms are prime-field codes, so the residue test is integer pow
            nm = self.norm(g)
            if all(pow(nm, e, p) != 1 for e in base_checks) and all(
                self.pow(g, e) != 1 for e in full_checks
            ):
                return g
        raise FieldError("no generator found")  # unreachable for true fields

    def smallest_root(self, f: Sequence[int]) -> int:
        """Smallest code among the roots of f, a monic irreducible over GF(p)
        whose degree d divides m.

        The roots are the d Frobenius conjugates of any one of them, and they
        lie in the order-(p^d - 1) subgroup, which is walked from 1 until the
        first root.
        """
        d = len(f) - 1
        sub_order = self.p**d - 1
        if (self.order - 1) % sub_order:
            raise FieldError(f"GF({self.p}^{d}) is not a subfield of GF({self.p}^{self.m})")
        w = self.pow(self.generator, (self.order - 1) // sub_order)
        x = 1
        for _ in range(sub_order):
            if poly_eval(self, f, x) == 0:
                roots = [x]
                for _ in range(d - 1):
                    roots.append(self.frobenius(roots[-1]))
                return min(roots)
            x = self.mul(x, w)
        raise FieldError("polynomial has no root in the field")  # f was not irreducible


# ---------------------------------------------------------------------------
# operation tables


class FieldTables(NamedTuple):
    """add[a][b], mul[a][b], neg[a] and inv[a] on element codes (inv[0] is None)."""

    add: Sequence[Sequence[int]]
    mul: Sequence[Sequence[int]]
    neg: Sequence[int]
    inv: Sequence[int | None]


class _ZechAddRow:
    """Row a != 0 of the addition table, one Zech lookup per entry."""

    __slots__ = ("a", "la", "exp", "log", "zech")

    def __init__(self, fld: "Field", a: int):
        self.a, self.la = a, fld._log[a]
        self.exp, self.log, self.zech = fld._exp, fld._log, fld._zech

    def __getitem__(self, b: int) -> int:
        if b == 0:
            return self.a
        # a + b = g^la (1 + g^(lb - la)); negative offsets wrap in zech
        z = self.zech[self.log[b] - self.la]
        return self.exp[self.la + z] if z >= 0 else 0


class _ZechMulRow:
    """Row a != 0 of the multiplication table, one log lookup per entry."""

    __slots__ = ("la", "exp", "log")

    def __init__(self, fld: "Field", a: int):
        self.la, self.exp, self.log = fld._log[a], fld._exp, fld._log

    def __getitem__(self, b: int) -> int:
        return self.exp[self.la + self.log[b]] if b else 0


class _ZechTable(dict):
    """add or mul table above the cap: a row object per first-used row."""

    def __init__(self, fld: "Field", row, zero_row: Sequence[int]):
        super().__init__()
        self.fld, self.row = fld, row
        self[0] = zero_row

    def __missing__(self, a: int):
        if not 0 < a < self.fld.order:
            raise IndexError(f"no element code {a} in {self.fld}")
        r = self[a] = self.row(self.fld, a)
        return r


# ---------------------------------------------------------------------------


class Field:
    """GF(p^m) with table-backed arithmetic on integer element codes."""

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if m < 1:
            raise FieldError(f"extension degree {m} must be >= 1")
        order = p**m
        if order > DEFAULT_ORDER_CAP:
            raise FieldError(f"field order {order} exceeds cap {DEFAULT_ORDER_CAP}")
        self.p = p
        self.m = m
        self.order = order
        # the table-free arithmetic pins the modulus and the generator and
        # steps out the exp table below
        self.raw = RawField(p, m)
        self.modulus: tuple[int, ...] = self.raw.modulus
        self.generator: int = self.raw.generator
        self._build_logs()

    # -- construction internals --

    def _build_logs(self):
        q, p = self.order, self.p
        exp = [1] * (2 * q)
        log = [-1] * q
        g, raw_mul = self.generator, self.raw.mul
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v = raw_mul(v, g)
        for i in range(q - 1, 2 * q):
            exp[i] = exp[i - (q - 1)]
        # zech[k] = log(1 + g^k), or -1 when 1 + g^k = 0
        zech = [-1] * (q - 1)
        for k in range(q - 1):
            e = exp[k]
            c0 = e % p
            s = e - c0 + (c0 + 1) % p
            zech[k] = log[s] if s else -1
        self._exp = exp
        self._log = log
        self._zech = zech
        self._neg_shift = (q - 1) // 2 if p != 2 else 0

    @functools.cached_property
    def tables(self) -> FieldTables:
        """Operation tables, built on first use.

        Up to TABLE_ORDER_CAP, add and mul are q x q nested lists; above it
        they hand out row objects that compute each entry from the Zech
        tables.  neg and inv are always plain lists.
        """
        q = self.order
        n1 = q - 1
        codes = list(range(q))
        # every entry references one of these q int objects
        exp = [codes[x] for x in self._exp]
        log, zech = self._log, self._zech
        neg = [0] + [exp[log[a] + self._neg_shift] for a in range(1, q)]
        inv = [None] + [exp[n1 - log[a]] for a in range(1, q)]
        if q > TABLE_ORDER_CAP:
            # row 0: 0 + b = b, and 0 * b = 0 (q zero bytes)
            add = _ZechTable(self, _ZechAddRow, range(q))
            mul = _ZechTable(self, _ZechMulRow, bytes(q))
            return FieldTables(add, mul, neg, inv)
        logs = log[1:]
        add = [codes]
        mul = [[0] * q]
        for a in range(1, q):
            la = log[a]
            # a + b = g^la (1 + g^(lb - la)); negative offsets wrap in zech
            row = [exp[la + z] if z >= 0 else 0 for z in [zech[lb - la] for lb in logs]]
            add.append([codes[a]] + row)
            mul.append([0] + [exp[la + lb] for lb in logs])
        return FieldTables(add, mul, neg, inv)

    # -- identity-ish --

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    # -- element codecs --

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.m and any(c % self.p for c in coeffs[self.m :]):
            raise FieldError("coefficient vector longer than extension degree")
        return _encode_coeffs(list(coeffs[: self.m]) + [0] * (self.m - len(coeffs)), self.p)

    # -- arithmetic on codes --

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        log = self._log
        la, lb = log[a], log[b]
        if la > lb:
            la, lb = lb, la
        z = self._zech[lb - la]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        if a == 0 or self.p == 2:
            return a
        return self._exp[self._log[a] + self._neg_shift]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        return self._exp[self.order - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise FieldError("division by zero")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + self.order - 1]

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply; negative exponents invert first."""
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    # -- conjugation x -> x^l for q = l^2 --

    @property
    def has_square_order(self) -> bool:
        return self.m % 2 == 0

    @property
    def subfield_order(self) -> int:
        if not self.has_square_order:
            raise FieldError(f"order {self.order} is not a perfect square")
        return self.p ** (self.m // 2)

    @functools.cached_property
    def conj_table(self) -> list[int]:
        """conj_table[a] = a^l, built on first use."""
        l = self.subfield_order
        return [self.pow(x, l) for x in range(self.order)]

    def conj(self, a: int) -> int:
        """a^l, the involution fixing the index-2 subfield GF(l)."""
        return self.conj_table[a]


@functools.cache
def field(p: int, m: int = 1) -> Field:
    """Shared, cached field instances (fields are immutable)."""
    return Field(p, m)


def square_field(l: int) -> Field:
    """GF(l^2) for a prime power l, the home of the Hermitian inner product."""
    p, a = split_prime_power(l)
    return field(p, 2 * a)


class SubfieldEmbedding:
    """Field homomorphism GF(q) -> GF(q^e) with an explicit preimage table.

    The canonical basis element x of the base field is sent to the smallest
    (by code) root of the base modulus inside the extension
    (``RawField.smallest_root``), which pins one embedding among the m
    conjugate choices.  The extension is a Field or a RawField: the image
    table is spanned GF(p)-linearly from the powers of that root, so an
    untabulated GF(l^4) embeds GF(l^2) as cheaply as a tabulated one.
    """

    def __init__(self, base: Field, ext: "Field | RawField"):
        if ext.p != base.p or ext.m % base.m != 0:
            raise FieldError(f"{ext} is not an extension of {base}")
        self.base = base
        self.ext = ext
        self.degree = ext.m // base.m
        root = self._modulus_root()
        self._root = root
        # a = sum c_i x^i maps to sum c_i root^i: span the image digit-wise,
        # one base digit at a time (code c + p^i d gets image(c) + d root^i)
        p, m = ext.p, ext.m
        images = [[0] * m]
        power = 1
        for _ in range(base.m):
            pv = _decode_coeffs(power, p, m)
            images = [[x + d * y for x, y in zip(v, pv)] for d in range(p) for v in images]
            power = ext.mul(power, root)
        img = [_encode_coeffs(v, p) for v in images]
        self._img = img
        self._pre = {v: a for a, v in enumerate(img)}
        if len(self._pre) != base.order:
            raise FieldError("embedding is not injective")  # would mean a broken modulus

    def _modulus_root(self) -> int:
        base, ext = self.base, self.ext
        if base.m == 1:
            return 0  # degenerate modulus "x"; constants embed as themselves
        if base.m == ext.m:
            return base.from_coeffs([0, 1])
        raw = ext if isinstance(ext, RawField) else ext.raw
        # the modulus coefficients are prime-subfield constants, which share codes
        return raw.smallest_root(base.modulus)

    def embed(self, a: int) -> int:
        return self._img[a]

    def in_image(self, b: int) -> bool:
        # Frobenius fixation b^q == b is the subfield membership test;
        # the table lookup must agree with it.
        fixed = self.ext.pow(b, self.base.order) == b
        tabled = b in self._pre
        if fixed != tabled:
            raise FieldError("subfield membership tables are inconsistent")
        return tabled

    def restrict(self, b: int) -> int:
        if not self.in_image(b):
            raise FieldError("element is not in the embedded subfield")
        return self._pre[b]


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; requires gcd(a, n) = 1."""
    if math.gcd(a, n) != 1:
        raise FieldError(f"{a} is not invertible modulo {n}")
    e = 1
    v = a % n
    while v != 1:
        v = v * a % n
        e += 1
    return e


def primitive_root_of_unity(base: Field, n: int) -> tuple[SubfieldEmbedding, int]:
    """Embedding of GF(q) into the smallest GF(q^e) containing an element of
    multiplicative order exactly n, together with that element.

    e = ord_n(q); refused when n and q share a factor or when q^e exceeds
    the cap.  The extension is a table-free RawField, so no GF(q^e) table
    is built.  gamma is g^((q^e - 1)/n) for the canonical generator g of
    the extension, so repeated calls agree.
    """
    q = base.order
    if math.gcd(n, q) != 1:
        raise FieldError(f"gcd({n}, {q}) != 1: no primitive {n}-th root exists")
    e = multiplicative_order(q, n)
    if q**e > DEFAULT_ORDER_CAP:
        raise FieldError(f"extension order {q}^{e} exceeds cap {DEFAULT_ORDER_CAP}")
    ext = RawField(base.p, base.m * e)
    emb = SubfieldEmbedding(base, ext)
    gamma = ext.pow(ext.generator, (ext.order - 1) // n)
    return emb, gamma
