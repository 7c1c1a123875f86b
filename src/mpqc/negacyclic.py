"""Negacyclic codes of length n over GF(q): ideals of GF(q)[x]/(x^n + 1).

A code is pinned by a defining set Z of odd residues modulo 2n, closed
under multiplication by q.  Its generator polynomial is
g(x) = prod_{j in Z} (x - gamma^j) for a fixed primitive 2n-th root of
unity gamma living in GF(q^e); coset closure of Z is what makes the
coefficients land back in GF(q), and that landing is asserted rather than
assumed.  The canonical gamma comes from the canonical generator of the
extension, so every run builds the identical code.  The polynomial
arithmetic is gf's (``poly_mul``, ``poly_divmod``, ``poly_eval``).

`negacyclic_code` keeps each verified code in a module dict keyed by
(n, field, defining set), so a chain that reuses a component builds and
checks it once, and the shared LinearCode keeps its parity check and its
containment verdicts across every product it enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .code import LinearCode
from .gf import Field, FieldError, poly_divmod, poly_eval, poly_mul, primitive_root_of_unity
from .matrix import Matrix


class NegacyclicError(ValueError):
    pass


# -- cyclotomic structure --


@dataclass(frozen=True)
class CyclotomicCoset:
    representative: int
    members: tuple[int, ...]
    modulus: int
    multiplier: int

    def __len__(self):
        return len(self.members)


def cyclotomic_coset(j: int, modulus: int, multiplier: int) -> CyclotomicCoset:
    """Orbit of j under multiplication by the multiplier, mod the modulus."""
    if math.gcd(multiplier, modulus) != 1:
        raise NegacyclicError(f"gcd({multiplier}, {modulus}) != 1")
    j %= modulus
    members = {j}
    x = j * multiplier % modulus
    while x != j:
        members.add(x)
        x = x * multiplier % modulus
    ms = tuple(sorted(members))
    return CyclotomicCoset(ms[0], ms, modulus, multiplier)


@dataclass(frozen=True)
class DefiningSet:
    """A union of q-cyclotomic cosets of odd residues mod 2n."""

    residues: tuple[int, ...]
    cosets: tuple[CyclotomicCoset, ...]
    n: int
    q: int

    def __post_init__(self):
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

    def to_dict(self) -> dict:
        return {"n": self.n, "q": self.q, "residues": list(self.residues)}


def defining_set_from_residues(n: int, q: int, seeds) -> DefiningSet:
    two_n = 2 * n
    cosets = {}
    for j in seeds:
        c = cyclotomic_coset(j, two_n, q)
        cosets[c.representative] = c
    members: set[int] = set()
    for c in cosets.values():
        members.update(c.members)
    ordered = tuple(cosets[r] for r in sorted(cosets))
    return DefiningSet(tuple(sorted(members)), ordered, n, q)


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


@dataclass(frozen=True)
class NegacyclicCode:
    code: LinearCode
    defining: DefiningSet
    genpoly: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k

    def is_dual_containing(self) -> bool:
        """The explicit matrix check, independent of any coset argument."""
        return self.code.is_hermitian_dual_containing()

    def to_dict(self) -> dict:
        return {
            "code": self.code.to_dict(),
            "defining_set": self.defining.to_dict(),
            "genpoly": list(self.genpoly),
        }


# built codes by (n, field, defining set); a plain dict, so a tracer wrapping
# negacyclic_code still sees every call
_code_cache: dict[tuple, NegacyclicCode] = {}


def negacyclic_code(n: int, fld: Field, defining: DefiningSet) -> NegacyclicCode:
    """Build the code with the given defining set and verify its algebra.

    Checks performed: the generator polynomial has all coefficients fixed by
    the Frobenius x -> x^q (subfield membership), divides x^n + 1 exactly,
    and vanishes at gamma^j for exactly the j in the defining set among odd
    residues, and the code has dimension n - |Z|.  Any failure is an
    internal consistency error.  The checks run once per distinct code: a
    repeated call returns the same object, with the facts it has kept.
    """
    if defining.n != n or defining.q != fld.order:
        raise NegacyclicError("defining set was built for different (n, q)")
    if math.gcd(2 * n, fld.order) != 1:
        raise NegacyclicError("repeated-root case gcd(2n, q) != 1 rejected")
    key = (n, fld, defining)
    if key not in _code_cache:
        _code_cache[key] = _build_negacyclic(n, fld, defining)
    return _code_cache[key]


def _build_negacyclic(n: int, fld: Field, defining: DefiningSet) -> NegacyclicCode:
    if not defining.residues:
        return NegacyclicCode(LinearCode.full_space(fld, n), defining, (1,))

    emb, gamma = primitive_root_of_unity(fld, 2 * n)
    ext = emb.ext
    g = [1]
    for j in defining.residues:
        root = ext.pow(gamma, j)
        g = poly_mul(ext, g, [ext.neg(root), 1])
    # coefficients must sit in the embedded copy of GF(q); restrict runs the
    # Frobenius membership test once per coefficient
    try:
        coeffs = [emb.restrict(c) for c in g]
    except FieldError as exc:
        raise NegacyclicError("generator polynomial escaped the base field; "
                              "the defining set cannot be coset-closed") from exc

    xn_plus_1 = [1] + [0] * (n - 1) + [1]
    _, rem = poly_divmod(fld, xn_plus_1, coeffs)
    if rem:
        raise NegacyclicError("generator polynomial does not divide x^n + 1")

    residues = set(defining.residues)
    for j in range(1, 2 * n, 2):
        if (poly_eval(ext, g, ext.pow(gamma, j)) == 0) != (j in residues):
            raise NegacyclicError(f"root pattern mismatch at exponent {j}")

    deg = len(coeffs) - 1
    rows = [[0] * shift + coeffs + [0] * (n - deg - shift - 1) for shift in range(n - deg)]
    code = LinearCode.from_generator(Matrix(fld, rows, ncols=n))
    if code.k != n - len(defining):
        raise NegacyclicError("dimension disagrees with the defining set size")
    return NegacyclicCode(code, defining, tuple(coeffs))


def negacyclic_shift(fld: Field, word: list[int]) -> list[int]:
    """Cyclic shift with the wraparound entry negated."""
    return [fld.neg(word[-1])] + word[:-1]


def distance_report(nc: NegacyclicCode) -> "DistanceReport":
    """Certified distance bounds from the structure alone: the consecutive
    run bound below, the Singleton bound above.  For the centered and
    half-length families the two meet, so the report is exact without any
    codeword enumeration."""
    from .code import DistanceReport

    lo = bch_bound(nc.defining)
    hi = nc.n - nc.k + 1
    return DistanceReport(lo, hi, "bch", "singleton")


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
