"""Exact arithmetic in GF(p^m).

Elements are represented as integer codes in [0, p^m): the base-p digits of
a code are the coefficients of the element in the polynomial basis, constant
term first.  One class, ``Field``, models every GF(p^m), one shared instance
per (p, m) (``field``).  Setting one up pins its modulus and its packed
form: Kronecker-packed multiply and reduce, a GF(p)-linear Frobenius map,
and from them ``pow``, the norm-first generator search (the norm
N(g) = Res(modulus, g) must be a primitive root of GF(p), which settles
every prime of p^m - 1 that divides p - 1 with one resultant; only the
other primes need full powers) and the smallest-root rule that pins
``SubfieldEmbedding``.  Fields are refused above DEFAULT_ORDER_CAP, and so
are the extensions that ``primitive_root_of_unity`` would reach.

Built on first read: the exp/log lists over the generator and a Zech
logarithm list, and from them the operation tables.  The exp list is
stepped out by the packed multiply, one int product and fold per element;
log and Zech are read off it by a sort and two maps.  The GF(q^e) of
``primitive_root_of_unity`` is never tabulated: the negacyclic builder only
takes packed powers there, and ``SubfieldEmbedding.poly_from_roots``
multiplies out prod (x - r) in the packed form and restricts the result to
the base field.

``Field.tables`` gives ``add[a][b]``, ``mul[a][b]``, ``neg[a]`` and
``inv[a]``, built on first use with no Python loop per entry: mul, neg and
inv pick windows of exp through one itemgetter over log, and add rows are
concatenated from base-p digit blocks.  Up to order TABLE_ORDER_CAP add and
mul are nested lists; above it their rows are objects that read each entry
through the Zech path.  Bulk loops such as the elimination kernel in
``matrix.py`` index them directly instead of calling a method per entry.
``Field.conj_table``, x -> x^l on GF(l^2), is one more window of exp read
the same way.  Sums, products, negatives, inverses and conjugates have no
other implementation: ``Field.add`` and ``Field.mul`` are single reads of
the tables, and ``verify`` audits the tables against the packed form.

The modulus is pinned deterministically: among all monic irreducible
polynomials of degree m over GF(p), the one whose non-leading coefficient
vector encodes the smallest integer (constant term = least significant
digit) is chosen; each candidate is tested by Ben-Or's test, whose first
step rules out a root in GF(p).  The generator is pinned the same way: the
smallest code g >= 2 of multiplicative order p^m - 1.  Two processes
therefore always agree on every element code and every table.

The package's one set of polynomial helpers over a Field (``poly_divmod``,
and ``poly_powmod``, the one polynomial power) lives here too, beside the
resultant over GF(p).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple, Sequence

DEFAULT_ORDER_CAP = 2**20
# largest order whose add/mul tables are materialized: two q x q tables of
# shared int references, about 8 bytes per entry (1.3 MB at q = 289, 16 MB
# and about 0.06 s to build at q = 1024, repaid within a few eliminations)
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
# modulus search and the resultant below run on field(p); Field(p, 1) takes
# its modulus x and searches its generator without a polynomial division, so
# building it never recurses.


def poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_divmod(fld: "Field", a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder), both trimmed, on the field's tables: each step
    adds f * (-b_i) to the leading window of a, for f = lead(a) / lead(b),
    which must cancel a's leading coefficient.  Tables that leave it
    nonzero raise FieldError, so every step shortens a and the loop ends."""
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = poly_trim(list(a))
    add, mul, neg, inv = fld.tables
    db = len(b) - 1
    by_inv_lead = mul[inv[b[-1]]]
    minus_b = [(i, mul[neg[bi]]) for i, bi in enumerate(b) if bi]
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        shift = len(a) - 1 - db
        f = by_inv_lead[a[-1]]
        q[shift] = f
        for i, m in minus_b:
            a[shift + i] = add[a[shift + i]][m[f]]
        if a.pop():
            raise FieldError(f"the tables of {fld!r} left a leading coefficient uncancelled")
        poly_trim(a)
    return q, a


def poly_powmod(fld: "Field", a: list[int], e: int, f: list[int]) -> list[int]:
    """a^e mod f, trimmed, by square-and-multiply on the field's tables, each
    product reduced by ``poly_divmod``; a^0 is 1 mod f."""
    add, mul = fld.tables.add, fld.tables.mul
    a = poly_divmod(fld, a, f)[1]
    acc = poly_divmod(fld, [1], f)[1]
    for bit in bin(e)[2:]:
        # square, then multiply by a on a 1 bit: the tuple holds the old acc
        for b in (acc, a) if bit == "1" else (acc,):
            out = [0] * (len(acc) + len(b) - 1)
            for i, ai in enumerate(acc):
                row = mul[ai]
                for j, bj in enumerate(b):
                    out[i + j] = add[out[i + j]][row[bj]]
            acc = poly_divmod(fld, out, f)[1]
    return acc


def _is_irreducible(c: list[int], fp: "Field") -> bool:
    """Monic c of degree m >= 2 over the prime field fp, by Ben-Or's test
    gcd(c, x^(p^i) - x) = 1 for 1 <= i <= m/2, as x^(p^i) - x is the product
    of the monic irreducibles of degree dividing i (Ben-Or, FOCS 1981; von
    zur Gathen & Gerhard, ch. 14); at i = 1 it says that c has no root in
    GF(p).  x^(p^i) mod c is the p-th power of x^(p^(i-1)) mod c by
    ``poly_powmod``, and the gcd is 1 iff `_resultant`, Euclid's steps on
    the same division, is nonzero."""
    add, neg = fp.tables.add, fp.tables.neg
    acc = [0, 1]
    for i in range(1, (len(c) - 1) // 2 + 1):
        acc = poly_powmod(fp, acc, fp.p, c)
        b = acc + [0] * (2 - len(acc))
        b[1] = add[b[1]][neg[1]]  # x^(p^i) - x mod c
        if not _resultant(c, b, fp.p):
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


def _resultant(f: Sequence[int], g: Sequence[int], p: int) -> int:
    """Res(f, g) over GF(p), coefficient lists of residues, constant term
    first.  For a monic f it is the product of g over the roots of f, so
    with f a field's modulus it is the norm N(g) = g^((Q-1)/(p-1)).

    Euclid's steps, each Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r)
    Res(g, r) for r = f mod g, end at Res(f, c) = c^(deg f).  The remainders
    are taken by ``poly_divmod`` on field(p), which this never reaches for a
    constant g, as in the generator search of GF(p) itself.
    """
    res = 1
    g = poly_trim([c % p for c in g])
    while len(g) > 1:
        r = poly_divmod(field(p), f, g)[1]
        if not r:
            return 0
        df, dg = len(f) - 1, len(g) - 1
        res = res * (-1) ** (df * dg) * pow(g[-1], df - len(r) + 1, p) % p
        f, g = g, r
    return res * pow(g[0], len(f) - 1, p) % p if g else 0


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


def _digit_sum_rows(codes: list[int], p: int, m: int) -> list[list[int]]:
    """rows[a][b] = codes[a + b], the sum taken digit by digit mod p.

    Built one digit at a time, most significant last.  With P = p^i codes
    done, the row of a' < P in the p-times larger group is the old row read
    through each block codes[sP : sP + P], s = 0..p-1; adding t P to a'
    rotates that row by t blocks.
    """
    rows = [codes[:1]]
    size = 1
    for _ in range(m):
        blocks = [codes[s * size : (s + 1) * size].__getitem__ for s in range(p)]
        first = [list(itertools.chain.from_iterable(map(b, row) for b in blocks)) for row in rows]
        rows = [row[t * size :] + row[: t * size] for t in range(p) for row in first]
        size *= p
    return rows


# ---------------------------------------------------------------------------


class Field:
    """GF(p^m) on integer element codes.

    Set-up pins the modulus and the packed form; everything else is built
    on first read.  Inside, an element is packed: its base-p coefficients
    are the slots of one int, slot i at bit W*i (Kronecker packing), with W
    wide enough that no slot of an unreduced product, fold or short sum
    spills into the next.  A product is one int multiply, a fold of the high
    slots m..2m-2 through the packed residues of x^m..x^(2m-2), and one
    reduction of every slot mod p at once: the quotients are read off
    (slots * magic) >> k, so no slot is visited.  A packed element reads
    back as its code by one remainder, since 2^W = p modulo 2^W - p.  The
    Frobenius map a -> a^p is the GF(p)-linear map given by the packed
    images of the basis monomials.  ``pow`` runs in this form, as do the
    generator search, ``smallest_root`` and the stepping of the exp list.

    The exp/log/Zech lists, and from them ``tables`` and ``conj_table``, are
    built on first read, so a field that only powers and embeds, such as the
    GF(q^e) of ``primitive_root_of_unity``, never tabulates.  ``add`` and
    ``mul`` read one table entry each.

    The canonical generator is the smallest code g >= 2 of multiplicative
    order p^m - 1.  The norm is tested first: N(g) = g^((Q-1)/(p-1)), the
    product of g's m conjugates, is the resultant of the modulus and g's
    digits, and it is a primitive root of GF(p) exactly when
    g^((Q-1)/r) != 1 for every prime r | p - 1, so only the primes of Q - 1
    that do not divide p - 1 need full powers.  The test is the same as
    checking every prime of Q - 1, so is the generator it finds.
    """

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
        self.modulus: tuple[int, ...] = smallest_irreducible(p, m)
        self._neg_shift = (order - 1) // 2 if p != 2 else 0
        # the largest slot ever reduced: a fold of a product, or a short sum
        top = (m + 1) * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))
        # floor(s * magic / 2^k) = floor(s / p) for every s <= top
        self._k = (top * p).bit_length()
        self._magic = -(-(1 << self._k) // p)
        w = max((top * self._magic).bit_length(), (order + p).bit_length())
        self._shifts = [w * i for i in range(m)]
        self._slot = (1 << w) - 1
        self._low = (1 << w * m) - 1
        self._quotients = sum(((1 << w - self._k) - 1) << s for s in self._shifts)
        self._to_code = (1 << w) - p
        # packed residues of x^m .. x^(2m-2), each one x times the last
        red = sum((-c % p) << s for c, s in zip(self.modulus, self._shifts))
        self._fold = []
        for k in range(m, 2 * m - 1):
            self._fold.append((w * k, red))
            red = self._reduce(((red << w) & self._low) + (red >> w * (m - 1)) * self._fold[0][1])
        # Frobenius images of 1, x, ..., x^(m-1)
        self._frob = [self._pow(1 << s, p) for s in self._shifts]

    # -- packed form --

    def _pack(self, a: int) -> int:
        v = 0
        for s in self._shifts:
            a, c = divmod(a, self.p)
            v |= c << s
        return v

    def _reduce(self, v: int) -> int:
        return v - (v * self._magic >> self._k & self._quotients) * self.p

    def _mul(self, u: int, v: int) -> int:
        w = u * v
        r = w & self._low
        for s, red in self._fold:
            r += (w >> s & self._slot) * red
        # _reduce, inlined on the hot path
        return r - (r * self._magic >> self._k & self._quotients) * self.p

    def _pow(self, v: int, e: int) -> int:
        if not e:
            return 1
        r = v
        for bit in bin(e)[3:]:
            r = self._mul(r, r)
            if bit == "1":
                r = self._mul(r, v)
        return r

    def _frobenius(self, v: int) -> int:
        return self._reduce(sum((v >> s & self._slot) * f for s, f in zip(self._shifts, self._frob)))

    @functools.cached_property
    def generator(self) -> int:
        q, p = self.order, self.p
        if q == 2:
            return 1
        base_checks = [(p - 1) // r for r in prime_factors(p - 1)]
        full_checks = [(q - 1) // r for r in prime_factors(q - 1) if (p - 1) % r]
        for g in range(2, q):
            # the norm is a prime-field code, so the residue test is integer pow
            nm = _resultant(self.modulus, _decode_coeffs(g, p, self.m), p)
            if any(pow(nm, e, p) == 1 for e in base_checks):
                continue
            v = self._pack(g)
            if all(self._pow(v, e) != 1 for e in full_checks):
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
        w = self._pow(self._pack(self.generator), (self.order - 1) // sub_order)
        x = 1
        for _ in range(sub_order):
            # f(x) = sum f_j x^j, its coefficients prime-field codes
            acc, xj = 0, 1
            for c in f[:-1]:
                acc += c * xj
                xj = self._mul(xj, x)
            if not self._reduce(acc + xj):
                roots = [x]
                for _ in range(d - 1):
                    roots.append(self._frobenius(roots[-1]))
                return min(r % self._to_code for r in roots)
            x = self._mul(x, w)
        raise FieldError("polynomial has no root in the field")  # f was not irreducible

    # -- exp/log/Zech lists, built on first read --

    @functools.cached_property
    def _exp(self) -> list[int]:
        """2q entries, exp[i] = g^(i mod (q-1)), stepped by the packed multiply."""
        n1 = self.order - 1
        exp = [1] * n1
        g, mul, to_code = self._pack(self.generator), self._mul, self._to_code
        v = 1
        for i in range(n1):
            exp[i] = v % to_code
            v = mul(v, g)
        exp *= 2
        exp += exp[:2]
        return exp

    @functools.cached_property
    def _log(self) -> list[int]:
        """log[exp[i]] = i: the exp codes are 1..q-1, each once; log[0] = -1."""
        return [-1] + sorted(range(self.order - 1), key=self._exp.__getitem__)

    @functools.cached_property
    def _zech(self) -> list[int]:
        """zech[k] = log(1 + g^k), or -1 (log[0]) when 1 + g^k = 0; adding 1
        steps the lowest base-p digit."""
        q, p = self.order, self.p
        plus_one = list(range(1, q + 1))
        plus_one[p - 1 :: p] = range(0, q, p)
        return list(map(self._log.__getitem__, map(plus_one.__getitem__, self._exp[: q - 1])))

    @functools.cached_property
    def _codes(self) -> list[int]:
        """The element codes 0..q-1: every entry of the tables and of
        conj_table references one of these q int objects."""
        return list(range(self.order))

    @functools.cached_property
    def tables(self) -> FieldTables:
        """Operation tables, built on first use, with no Python loop per entry.

        Up to TABLE_ORDER_CAP, add and mul are q x q nested lists; above it
        they hand out row objects that compute each entry from the Zech
        tables.  neg and inv are always plain lists.  mul row a, and neg and
        inv, pick a window of exp through one itemgetter over log, whose
        log[0] = -1 reads the zero appended to the window; add rows are
        concatenated from base-p digit blocks (``_digit_sum_rows``).
        """
        q = self.order
        n1 = q - 1
        codes = self._codes
        exp = list(map(codes.__getitem__, self._exp))
        log = self._log
        by_log = operator.itemgetter(*log)
        shift = self._neg_shift
        neg = list(by_log(exp[shift : shift + n1] + [0]))
        inv = list(by_log(exp[n1:0:-1] + [None]))
        if q > TABLE_ORDER_CAP:
            # row 0: 0 + b = b, and 0 * b = 0 (q zero bytes)
            add = _ZechTable(self, _ZechAddRow, range(q))
            mul = _ZechTable(self, _ZechMulRow, bytes(q))
            return FieldTables(add, mul, neg, inv)
        mul = [[0] * q] + [list(by_log(exp[la : la + n1] + [0])) for la in log[1:]]
        return FieldTables(_digit_sum_rows(codes, self.p, self.m), mul, neg, inv)

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
        return self.tables.add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.tables.mul[a][b]

    def pow(self, a: int, e: int) -> int:
        """a^e by packed square-and-multiply; a negative e is reduced mod
        q - 1, and inverting 0 raises."""
        if e < 0:
            if a == 0:
                raise FieldError("inversion of zero")
            e %= self.order - 1
        return self._pow(self._pack(a), e) % self._to_code

    # -- conjugation x -> x^l for q = l^2 --

    @property
    def subfield_order(self) -> int:
        if self.m % 2:
            raise FieldError(f"order {self.order} is not a perfect square")
        return self.p ** (self.m // 2)

    @functools.cached_property
    def conj_table(self) -> list[int]:
        """conj_table[a] = a^l, built on first use like neg and inv: a
        window of exp read through one itemgetter over log."""
        l, q = self.subfield_order, self.order
        exp = list(map(self._codes.__getitem__, self._exp[:q]))
        # conj(g^i) = g^(il mod (q-1)), and i = al + b has il = a + bl mod
        # l^2 - 1: the window reads exp column by column as an l x l array.
        # Its last entry, g^(q-1), is read by no log and becomes the zero
        # that log[0] = -1 picks
        window = list(itertools.chain.from_iterable(exp[a::l] for a in range(l)))
        window[-1] = 0
        return list(operator.itemgetter(*self._log)(window))


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
    (``Field.smallest_root``), which pins one embedding among the m
    conjugate choices.  The image table is spanned GF(p)-linearly from the
    powers of that root in the extension's packed form, so embedding reads
    none of the extension's lists or tables.
    """

    def __init__(self, base: Field, ext: Field):
        if ext.p != base.p or ext.m % base.m != 0:
            raise FieldError(f"{ext} is not an extension of {base}")
        self.base = base
        self.ext = ext
        self.degree = ext.m // base.m
        root = self._modulus_root()
        self._root = root
        # a = sum c_i x^i maps to sum c_i root^i: span the packed images
        # one base digit at a time (code c + p^i d gets image(c) + d root^i),
        # then reduce each once
        images, power, packed_root = [0], 1, ext._pack(root)
        for _ in range(base.m):
            images = [v + d * power for d in range(base.p) for v in images]
            power = ext._mul(power, packed_root)
        img = [ext._reduce(v) % ext._to_code for v in images]
        self._img = img
        self._pre = dict(zip(img, range(base.order)))
        if len(self._pre) != base.order:
            raise FieldError("embedding is not injective")  # would mean a broken modulus

    def _modulus_root(self) -> int:
        base = self.base
        if base.m == 1:
            return 0  # degenerate modulus "x"; constants embed as themselves
        if base.m == self.ext.m:
            return base.from_coeffs([0, 1])
        # the modulus coefficients are prime-subfield constants, which share codes
        return self.ext.smallest_root(base.modulus)

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

    def poly_from_roots(self, roots: Sequence[int]) -> list[int]:
        """prod (x - r) over the given extension elements, as a polynomial
        over the base field, constant term first.

        The product is multiplied out in the extension's packed form, and
        each coefficient comes back through ``restrict``, which checks
        Frobenius fixation: roots that no base polynomial has raise
        FieldError.  The restricted polynomial, embedded again, must vanish
        at every given root.
        """
        ext = self.ext
        pack, mul, reduce = ext._pack, ext._mul, ext._reduce
        packed = [pack(r) for r in roots]
        g = [1]
        for r in packed:
            minus_r = reduce(r * (ext.p - 1))
            # (x - r) g: coefficient i is g_(i-1) - r g_i
            g = [reduce(lo + mul(minus_r, hi)) for lo, hi in zip([0] + g, g + [0])]
        try:
            coeffs = [self.restrict(v % ext._to_code) for v in g]
        except FieldError as exc:
            raise FieldError("the product escaped the base field; "
                             "its roots are not closed under Frobenius") from exc
        lifted = [pack(self.embed(c)) for c in reversed(coeffs)]
        for r in packed:
            acc = 0
            for c in lifted:
                acc = reduce(mul(acc, r) + c)
            if acc:
                raise FieldError("the restricted product does not vanish at one of its roots")
        return coeffs


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
    the cap.  The extension is the shared field(p, m e), and only its
    packed powers are taken, so none of its lists or tables is built.
    gamma is g^((q^e - 1)/n) for the canonical generator g of
    the extension, so repeated calls agree; its order is checked to be
    exactly n: gamma^n = 1, and gamma^(n/r) != 1 for each prime r | n.
    """
    q = base.order
    if math.gcd(n, q) != 1:
        raise FieldError(f"gcd({n}, {q}) != 1: no primitive {n}-th root exists")
    e = multiplicative_order(q, n)
    if q**e > DEFAULT_ORDER_CAP:
        raise FieldError(f"extension order {q}^{e} exceeds cap {DEFAULT_ORDER_CAP}")
    ext = field(base.p, base.m * e)
    gamma = ext.pow(ext.generator, (ext.order - 1) // n)
    if ext.pow(gamma, n) != 1 or any(ext.pow(gamma, n // r) == 1 for r in prime_factors(n)):
        raise FieldError(f"gamma = {gamma} does not have multiplicative order {n}")
    return SubfieldEmbedding(base, ext), gamma
