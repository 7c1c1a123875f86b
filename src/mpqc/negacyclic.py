"""Negacyclic codes of length n over GF(q): ideals of GF(q)[x]/(x^n + 1).

A code is pinned by a defining set Z of odd residues modulo 2n, closed
under multiplication by q, held as a `DefiningSet` record (see
`code._Record`) that checks both when it is made and compares and hashes
by value, so an equal set finds the same kept code.  Its generator
polynomial is
g(x) = prod_{j in Z} (x - gamma^j) for a fixed primitive 2n-th root of
unity gamma living in GF(q^e), e = ord_2n(q).  The canonical gamma is
gen^((q^e - 1)/2n) for the canonical generator gen of the extension, so
every run builds the identical code.

``gf.primitive_root_of_unity`` gives gamma in a GF(q^e) that is never
tabulated, with its order checked to be exactly 2n, and it is kept once
per (field, 2n).  g is multiplied out there by
``SubfieldEmbedding.poly_from_roots``, and each of its coefficients must
restrict to GF(q) (coset closure of Z is what makes them land there, and
the landing is asserted rather than assumed); the restricted g must vanish
at every gamma^j, j in Z.  These |Z| roots are distinct, since gamma has
order 2n, so g, of degree |Z|, has no other root.

The code is held by g, with k = n - deg g, which must be n - |Z|.  The
build checks g | x^n + 1 as x^n = -1 mod g (``gf.poly_powmod``), so it
divides nothing of length n.  Its containment facts read g alone (see
`code`), and no matrix is written for them.

The matrices are written only when something reads them.  With r = deg g,
the code defers its parity check to a function that returns the rows
x^i h*, i < r, of h = (x^n + 1)/g by exact division, right-reduced, from
which G is read off like any code stored by H (see `code`).
A word of <g> is c = a g with deg a < k, so c h = a (x^n + 1) has no term
x^k..x^(n-1), and row i of those shifts reads the term x^(k+i) (Kai & Zhu,
IEEE Trans. Inf. Theory 59(2), 2013).  The code they check is confirmed to
be exactly <g>: its k must be n - r, and every shift x^i g, i < k, must lie
in it, tested by the scan behind `LinearCode.contains_word`.

`negacyclic_code` keeps each verified code per (n, field, defining set)
through ``functools.cache`` on its builder, so a chain that reuses a
component builds and checks it once.  The defining sets and their run-bound
distance reports are kept the same way, each on a private builder behind
its plain public function, so a chain audit derives each once per process.
"""

from __future__ import annotations

import functools
import math

from .code import DistanceReport, LinearCode, _dots_vanish, _Record, _right_reduce
from .gf import Field, FieldError, SubfieldEmbedding, poly_divmod, poly_powmod, primitive_root_of_unity
from .matrix import Matrix


class NegacyclicError(ValueError):
    pass


# -- cyclotomic structure --


def cyclotomic_coset(j: int, modulus: int, multiplier: int) -> tuple[int, ...]:
    """Orbit of j under multiplication by the multiplier, mod the modulus,
    sorted."""
    if math.gcd(multiplier, modulus) != 1:
        raise NegacyclicError(f"gcd({multiplier}, {modulus}) != 1")
    j %= modulus
    members = {j}
    x = j * multiplier % modulus
    while x != j:
        members.add(x)
        x = x * multiplier % modulus
    return tuple(sorted(members))


class DefiningSet(_Record):
    """A union of q-cyclotomic cosets of odd residues mod 2n, held as its
    residues tuple with n and q."""

    __slots__ = ("residues", "n", "q")

    def _validate(self):
        two_n = 2 * self.n
        seen = set(self.residues)
        if any(r % 2 == 0 for r in seen):
            raise NegacyclicError("negacyclic defining sets hold odd residues only")
        if any(r < 0 or r >= two_n for r in seen):
            raise NegacyclicError("residues out of range mod 2n")
        for r in seen:
            if r * self.q % two_n not in seen:
                raise NegacyclicError(f"residues not closed under *{self.q} mod {two_n}")

    def __len__(self):
        return len(self.residues)


def defining_set_from_residues(n: int, q: int, seeds) -> DefiningSet:
    """The union of the q-cyclotomic cosets mod 2n of the seeds, kept per
    (n, q, seeds) on a private builder: a repeated call returns the same record."""
    return _defining_set(n, q, tuple(seeds))


@functools.cache
def _defining_set(n: int, q: int, seeds: tuple[int, ...]) -> DefiningSet:
    members: set[int] = set()
    for j in seeds:
        members.update(cyclotomic_coset(j, 2 * n, q))
    return DefiningSet(tuple(sorted(members)), n, q)


def centered_defining_set(l: int, delta: int) -> DefiningSet:
    """Union of the cosets at t, t-2, ..., t-2*delta for n = l^2+1, t = n/2.

    Needs l = 1 mod 4 and 0 <= delta <= (l-1)/2; the cosets pair t-2i with
    t+2i, so the union has 2*delta + 1 residues.
    """
    if l % 4 != 1:
        raise NegacyclicError(f"l = {l} is not 1 mod 4")
    if not 0 <= delta <= (l - 1) // 2:
        raise NegacyclicError(f"delta = {delta} outside 0..{(l - 1) // 2}")
    n = l * l + 1
    t = n // 2
    return defining_set_from_residues(n, l * l, [t - 2 * i for i in range(delta + 1)])


def half_length_defining_set(l: int, delta: int) -> DefiningSet:
    """Union of the cosets at -1, 1, 3, ..., 2*delta-1 for n = (l^2+1)/2.

    Needs odd prime power l and 1 <= delta <= (l-1)/2; q = -1 mod 2n here,
    so each coset is a {j, -j} pair and the union has 2*delta residues.
    """
    if l % 2 == 0 or l < 3:
        raise NegacyclicError(f"l = {l} is not an odd prime power")
    if not 1 <= delta <= (l - 1) // 2:
        raise NegacyclicError(f"delta = {delta} outside 1..{(l - 1) // 2}")
    n = (l * l + 1) // 2
    return defining_set_from_residues(n, l * l, [2 * i - 1 for i in range(delta + 1)])


# -- code construction --


def negacyclic_code(n: int, fld: Field, defining: DefiningSet) -> LinearCode:
    """Build the code with the given defining set and verify its algebra.

    Checks performed: gamma has order exactly 2n, the generator polynomial
    has every coefficient in GF(q), vanishes at gamma^j for each j in the
    defining set and divides x^n + 1 (x^n = -1 mod g), and the code has
    dimension n - |Z|; when a matrix is first read, the division is exact
    and the code the h* shifts check has k = n - deg g and holds every shift
    of g.  Any failure is an internal
    consistency error.  The checks run once per distinct code: a repeated
    call returns the same object, with the facts it has kept.
    """
    if defining.n != n or defining.q != fld.order:
        raise NegacyclicError("defining set was built for different (n, q)")
    if math.gcd(2 * n, fld.order) != 1:
        raise NegacyclicError("repeated-root case gcd(2n, q) != 1 rejected")
    return _build_negacyclic(n, fld, defining)


# the cache sits on the private builder: the public function stays a plain
# function, which a tracer that wraps plain functions still sees on every call
@functools.cache
def _build_negacyclic(n: int, fld: Field, defining: DefiningSet) -> LinearCode:
    coeffs = _generator_polynomial(n, fld, defining) if defining.residues else [1]
    if len(coeffs) - 1 != len(defining):
        raise NegacyclicError("dimension disagrees with the defining set size")
    # g | x^n + 1 iff x^n = -1 mod g, which is 0 mod g = 1
    if poly_powmod(fld, [0, 1], n, coeffs) != [fld.tables.neg[1]][: len(coeffs) - 1]:
        raise NegacyclicError("generator polynomial does not divide x^n + 1")
    return LinearCode(
        fld,
        n,
        None,
        functools.partial(_parity_side, n, fld, coeffs),
        k=n - len(coeffs) + 1,
        genpoly=tuple(coeffs),
    )


def _parity_side(n: int, fld: Field, g: list[int]) -> Matrix:
    """H of <g>: the shifts x^i h*, i < r = deg g, h = (x^n + 1)/g exactly,
    right-reduced and confirmed to check exactly <g>: they keep rank r, so
    k = n - r, and every shift x^i g, i < k, is a word of the code they check."""
    h, rem = poly_divmod(fld, [1] + [0] * (n - 1) + [1], g)
    if rem:
        raise NegacyclicError("generator polynomial does not divide x^n + 1")
    r = len(g) - 1
    k = n - r
    hstar = h[::-1]
    H = _right_reduce(fld, [[0] * i + hstar + [0] * (r - 1 - i) for i in range(r)], n)
    add, mul = fld.tables.add, fld.tables.mul
    support = [(t, mul[c]) for t, c in enumerate(g) if c]
    if H.nrows != r or not all(
        _dots_vanish(add, [(t + i, m) for t, m in support], H.rows) for i in range(k)
    ):
        raise NegacyclicError("the h* shifts do not check exactly <g>")
    return H


def _generator_polynomial(n: int, fld: Field, defining: DefiningSet) -> list[int]:
    """g(x) = prod_{j in Z} (x - gamma^j) over GF(q), constant term first.

    Formed in gamma's extension by ``poly_from_roots``: every coefficient
    must restrict to GF(q), and the restricted g must vanish at each
    gamma^j.
    """
    emb, gamma = _root_of_unity(fld, 2 * n)
    ext = emb.ext
    roots = [ext.pow(gamma, j) for j in defining.residues]
    try:
        return emb.poly_from_roots(roots)
    except FieldError as exc:
        raise NegacyclicError(f"generator polynomial: {exc}") from exc


@functools.cache
def _root_of_unity(fld: Field, two_n: int) -> tuple[SubfieldEmbedding, int]:
    """GF(q) inside GF(q^e) and gamma of order exactly 2n there, from
    ``primitive_root_of_unity``; kept per (field, 2n), so every code of
    length n reads the same gamma."""
    return primitive_root_of_unity(fld, two_n)


def negacyclic_shift(fld: Field, word: list[int]) -> list[int]:
    """Cyclic shift with the wraparound entry negated."""
    return [fld.tables.neg[word[-1]]] + word[:-1]


def distance_report(defining: DefiningSet) -> DistanceReport:
    """Certified distance bounds for the code with this defining set from
    the structure alone: the consecutive run bound below, the Singleton
    bound n - k + 1 = |Z| + 1 above (k = n - |Z| is checked at build).  For
    the centered and half-length families the two meet, so the report is
    exact without any codeword enumeration.  It is kept per defining set on
    a private builder."""
    return _distance_report(defining)


@functools.cache
def _distance_report(defining: DefiningSet) -> DistanceReport:
    return DistanceReport(bch_bound(defining), len(defining) + 1, "bch", "singleton")


def bch_bound(defining: DefiningSet) -> int:
    """1 + the longest run of defining residues in step-2 progression.

    Odd residues mod 2n form a single cycle under +2 (wrapping 2n-1 -> 1),
    so this is a longest-circular-run scan; it certifies a distance lower
    bound for the code.
    """
    n = defining.n
    if not defining.residues:
        return 1
    positions = sorted((r - 1) // 2 for r in defining.residues)
    if len(positions) == n:
        return n + 1
    present = set(positions)
    best = 0
    for p in positions:
        if (p - 1) % n in present:
            continue  # not a run start
        length = 1
        x = (p + 1) % n
        while x in present:
            length += 1
            x = (x + 1) % n
        best = max(best, length)
    return best + 1
