"""Hermitian dual-containing MDS component families over GF(l^2).

Three stock lengths feed the product-code layer: l^2 - 1, l^2 and l^2 + 1.
Dual containment is never taken on faith.  Every constructor runs the
explicit matrix check plus an MDS certificate before returning, and raises
ConstructionError when no candidate passes, so a wrong code can never leak
out silently.

Every check runs in `_verify_family_code`.  MDS is certified from
structure where the rung knows it: window and extended codes are built as
the Euclidean duals of small GRS codes (GRS codes on distinct points with
nonzero multipliers are MDS, and so are their duals; a `GrsSpec` record
refuses any other points or multipliers when it is made), and a centered
negacyclic code has a consecutive-run bound that meets Singleton.  The
curve-drop and registry candidates carry no certificate, so the
column-subset DFS `LinearCode.is_mds` decides; for the curve drop it runs
on the candidate's (d-1)-row parity check, the Hermitian conjugate of the
small self-orthogonal code's generator.  The DFS's C(n, t) budget refusal
still runs first for every candidate.

The length l^2 - 1 family is built by a deterministic ladder:

  1. d = 1: the full space.
  2. Cyclic codes on the points alpha^0..alpha^(n-1) with a consecutive
     defining window T = {b..b+d-2}; windows are prescreened by the coset
     condition T and -lT disjoint mod n.  The code ev{x^t : t not in -T}
     is built as the dual of GRS_{d-1}(alpha^j, alpha^(jb)) and certified
     by that GRS code.  This covers 2 <= d <= l-1.
  3. A column-multiplier search on rational normal curve point subsets:
     drop two of the q+1 curve points, then solve the F_l-linear system
     sum_j mu_j g_j conj(g_j)^T = 0 for per-column norms mu.  Any solution
     with all coordinates nonzero scales into an [n, d-1] code whose
     Hermitian dual is the candidate.  The kernel is searched on packed
     digit sums, one int add per term and one int test per vector: walked
     in itertools.product order when small, else sampled from a fixed
     seed, each coefficient drawn by getrandbits with randrange's
     rejection loop.  Either way it tries the same vectors in the same
     order as summing each over the subfield tables would.  The
     candidate's Gram test is the self-orthogonality check, and one DFS on
     its d-1 parity rows certifies MDS.  This reaches d = l at l = 3 and 5, and at l = 7 under
     a raised subset budget; it finds no candidate at l = 2 or 4.
  4. A registry of frozen generators for sporadic parameters that no
     parametric family reaches (currently the [8,5,4] code over GF(9),
     found by an exhaustive arc search and reverified here at runtime).

d = l + 1 for l >= 5 survives none of these (step 3's search space provably
contains no solution for multiplier-scaled evaluation codes); asking for it
raises with that explanation.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Sequence

from .code import DEFAULT_SUBSET_BUDGET, BudgetError, LinearCode, _kept, _Record
from .gf import Field, FieldError, SubfieldEmbedding, field, split_prime_power, square_field
from .matrix import Matrix


class ConstructionError(RuntimeError):
    """No verified construction exists for the requested parameters."""


# ---------------------------------------------------------------------------
# generalized Reed-Solomon codes


class GrsSpec(_Record):
    """Distinct evaluation points, nonzero column multipliers (tuples of
    element codes), dimension."""

    __slots__ = ("points", "multipliers", "k")

    def _validate(self):
        if len(self.multipliers) != len(self.points):
            raise ValueError("one multiplier per point")
        defect = self.mds_defect()
        if defect:
            raise ValueError(defect)
        if not 0 <= self.k <= len(self.points):
            raise ValueError("dimension out of range")

    def mds_defect(self) -> str | None:
        """Why the code would not be MDS, or None: GRS codes on distinct
        points with nonzero multipliers are MDS, and so are their duals."""
        if len(set(self.points)) != len(self.points):
            return "evaluation points must be distinct"
        if any(m == 0 for m in self.multipliers):
            return "multipliers must be nonzero"
        return None


def window_grs_spec(fld: Field, b: int, k: int) -> GrsSpec:
    """GRS_k on the points alpha^j, j < q - 1, with multipliers alpha^(jb):
    the evaluations of x^b, ..., x^(b+k-1) at every nonzero element."""
    alpha = fld.generator
    n = fld.order - 1
    step = fld.pow(alpha, b)
    by_alpha, by_step = fld.tables.mul[alpha], fld.tables.mul[step]
    points, mults = [1], [1]
    for _ in range(n - 1):
        points.append(by_alpha[points[-1]])
        mults.append(by_step[mults[-1]])
    return GrsSpec(points=tuple(points), multipliers=tuple(mults), k=k)


def grs_code(fld: Field, spec: GrsSpec) -> LinearCode:
    """Rows v_j * a_j^i for i < k.  Always [n, k, n-k+1]."""
    mul = fld.tables.mul
    rows = []
    powers = [1] * len(spec.points)
    for _ in range(spec.k):
        rows.append([mul[v][p] for v, p in zip(spec.multipliers, powers)])
        powers = [mul[p][a] for p, a in zip(powers, spec.points)]
    code = LinearCode.from_generator(Matrix(fld, rows, ncols=len(spec.points)))
    if code.k != spec.k:
        raise ConstructionError("GRS generator lost rank")  # distinct points forbid this
    return code


# ---------------------------------------------------------------------------
# subfield-linear solve for column norms


@_kept
def _subfield_decomposition(fld: Field, sub: Field):
    """Write GF(l^2) as a 2-dim vector space over its GF(l) subfield.

    Returns (embedding, decompose) where decompose(x) gives the two
    GF(l)-codes of x over the basis {1, zeta}, zeta the field generator.
    The table is read off the field's tables, a + b zeta for each of the
    l^2 pairs, which must reach every code.  Built once per (field,
    subfield) pair.
    """
    emb = SubfieldEmbedding(sub, fld)
    add, mul, _, _ = fld.tables
    by_zeta = mul[fld.generator]
    image = emb._img
    table = {
        add[a_img][by_zeta[b_img]]: (a, b)
        for b, b_img in enumerate(image)
        for a, a_img in enumerate(image)
    }
    if len(table) != fld.order:
        raise FieldError("subfield decomposition failed")
    return emb, lambda x: table[x]


# kernel vectors `_solve_norms` enumerates before it samples instead
NORM_SEARCH_CAP = 400000


def _solve_norms(fld: Field, l: int, points: Sequence[Sequence[int]], r: int):
    """Column norms mu in (GF(l)*)^n with sum_j mu_j g_j conj(g_j)^T = 0.

    The system is linear over the subfield GF(l) = GF(p^m); its kernel is
    searched for a vector with every coordinate nonzero.  Returns mu as
    subfield codes, or None.

    The search runs on packed digit sums.  For each basis vector b and each
    c in GF(l), one int holds the m base-p digits of every coordinate of
    c * b, one slot per digit.  A kernel vector's slots are the digit sums of
    its terms, at most len(basis) * (p - 1), and each slot is sized for that
    sum, so no slot carries into the next: one int add takes a vector one
    term further.  A coordinate is zero iff each of its m slots is 0 mod p,
    and all slots are tested at once: for v < 2^w, v = 0 mod p iff v * inv
    mod 2^w is at most (2^w - 1) // p, with inv = p^-1 mod 2^w for odd p and
    2^(w-1) for p = 2.  The table sum of the chosen coefficients then gives
    mu, and must itself have every coordinate nonzero.

    A kernel of at most NORM_SEARCH_CAP vectors is walked in
    itertools.product order, depth first with the sum of each prefix kept.  A
    larger one is sampled: NORM_SEARCH_CAP coefficient vectors from a fixed
    seed, each coefficient drawn by getrandbits with randrange's rejection
    loop, all-zero draws included.  Both branches try the same vectors in the
    same order as summing every vector in full over the tables would, and the
    sampler makes the same getrandbits calls as drawing by randrange.
    """
    sub = field(*split_prime_power(l))
    _, decomp = _subfield_decomposition(fld, sub)
    n = len(points)
    mul, conj = fld.tables.mul, fld.conj_table
    cols = []
    for g in points:
        ent = []
        for a in range(r):
            for b in range(a, r):
                va, vb = decomp(mul[g[a]][conj[g[b]]])
                ent.append(va)
                ent.append(vb)
        cols.append(ent)
    rows = [[cols[j][i] for j in range(n)] for i in range(len(cols[0]))]
    basis = Matrix(sub, rows, ncols=n).nullspace().rows
    if not basis:
        return None
    add, mul = sub.tables.add, sub.tables.mul
    p, m = sub.p, sub.m

    # digit t of coordinate j sits in the W-bit slot j*m + t; a slot holds a
    # digit sum below 2^w, and W = 2w leaves room for it times the w-bit inv
    w = (len(basis) * (p - 1)).bit_length()
    W = 2 * w
    ones = ((1 << W * m * n) - 1) // ((1 << W) - 1)  # 1 in every slot
    low = ones * ((1 << w) - 1)
    inv = pow(p, -1, 1 << w) if p > 2 else 1 << (w - 1)
    # a slot's v * inv mod 2^w plus lift carries into bit w iff v != 0 mod p
    lift = ones * ((1 << w) - 1 - ((1 << w) - 1) // p)
    lead = ((1 << W * m * n) - 1) // ((1 << W * m) - 1) << w  # bit w of each first slot

    def nonzero(s):
        """Every coordinate of the packed sum s is nonzero."""
        flags = (s * inv & low) + lift
        for _ in range(m - 1):
            flags |= flags >> W
        return flags & lead == lead

    digits = [sum((x // p**t % p) << W * t for t in range(m)) for x in range(l)]
    shifts = [W * m * j for j in range(n)]
    # packed[i][c] = c * basis[i]
    packed = [[sum(digits[mc[y]] << s for y, s in zip(b, shifts)) for mc in mul] for b in basis]
    coeffs = [0] * len(basis)

    def combine():
        v = [0] * n
        for c, b in zip(coeffs, basis):
            if c:
                mc = mul[c]
                v = [add[x][mc[y]] for x, y in zip(v, b)]
        if not all(v):
            raise FieldError("a packed digit sum disagrees with the subfield tables")
        return v

    if l ** len(basis) <= NORM_SEARCH_CAP:
        last = len(packed) - 1

        def walk(level, acc):
            # the last coefficient varies fastest
            for c, row in enumerate(packed[level]):
                coeffs[level] = c
                if walk(level + 1, acc + row) if level < last else nonzero(acc + row):
                    return True
            return False

        return combine() if walk(0, 0) else None

    rng = random.Random(0xC0DE)
    bits, k = rng.getrandbits, l.bit_length()
    for _ in range(NORM_SEARCH_CAP):
        s = 0
        for i, row in enumerate(packed):
            c = bits(k)
            while c >= l:
                c = bits(k)
            coeffs[i] = c
            s += row[c]
        if nonzero(s):
            return combine()
    return None


def _norm_scaled_code(fld: Field, l: int, points, r: int) -> LinearCode | None:
    """The [n, r] code on the given projective points with each column scaled
    to its solved norm, or None when no norms exist or the rank falls short.
    The norms make it Hermitian self-orthogonal; the caller checks that."""
    mu = _solve_norms(fld, l, points, r)
    if mu is None:
        return None
    sub_emb, _ = _subfield_decomposition(fld, field(*split_prime_power(l)))
    # per-column scalars nu with nu^(l+1) = nu conj(nu) = mu (norms are onto GF(l)*)
    mul, conj = fld.tables.mul, fld.conj_table
    nu_for = {}
    for target in set(mu):
        timg = sub_emb.embed(target)
        nu_for[target] = next(x for x in range(1, fld.order) if mul[x][conj[x]] == timg)
    G = [[mul[points[j][a]][nu_for[mu[j]]] for j in range(len(points))] for a in range(r)]
    code = LinearCode.from_generator(Matrix(fld, G, ncols=len(points)))
    return code if code.k == r else None


def _rational_curve_points(fld: Field, r: int) -> list[tuple[int, ...]]:
    mul = fld.tables.mul
    pts = []
    for t in range(fld.order):
        row = [1]
        for _ in range(r - 1):
            row.append(mul[row[-1]][t])
        pts.append(tuple(row))
    pts.append(tuple([0] * (r - 1) + [1]))
    return pts


# ---------------------------------------------------------------------------
# the three families

# Sporadic generators, keyed by (l, d) -> rref generator rows as element
# codes in the canonical field encoding.  The [8,5,4] entry came out of a
# complete search over 8-arcs of the projective plane with per-column norm
# solving; nothing parametric reaches it.
_SPORADIC_PUNCTURED: dict[tuple[int, int], list[list[int]]] = {
    (3, 4): [
        [1, 0, 0, 0, 0, 7, 8, 7],
        [0, 1, 0, 0, 0, 4, 4, 2],
        [0, 0, 1, 0, 0, 4, 6, 5],
        [0, 0, 0, 1, 0, 6, 1, 2],
        [0, 0, 0, 0, 1, 2, 4, 7],
    ],
}


def _grs_dual_certificate(spec: GrsSpec, grs: LinearCode, code: LinearCode) -> bool:
    """True when the spec passes its own MDS checks and the Euclidean dual
    of `code` is grs = grs_code(spec)."""
    return spec.mds_defect() is None and code.euclidean_dual() == grs


def _grs_dual(fld: Field, spec: GrsSpec) -> tuple[LinearCode, Callable[[], bool]]:
    """The Euclidean dual of grs_code(spec), stored by the GRS code's few
    rows, and its certificate."""
    grs = grs_code(fld, spec)
    code = grs.euclidean_dual()
    return code, lambda: _grs_dual_certificate(spec, grs, code)


def _verify_family_code(
    code: LinearCode,
    n: int,
    k: int,
    d: int,
    max_subsets: int,
    certificate: Callable[[], bool] | None = None,
) -> LinearCode:
    """Check a family candidate: dimension, the Hermitian Gram test, then MDS.

    Every candidate runs the first two.  MDS comes from `certificate`, a
    structural fact supplied by the rung that built the candidate:

      cyclic window   its Euclidean dual is grs_code(window spec)
      extended        its Euclidean dual is grs_code(spec), RS_(d-1) on GF(q)
      negacyclic      the consecutive-run bound meets Singleton
      curve drop      none
      registry        none

    When there is none, or it does not match, the column-subset DFS
    `is_mds` decides instead, on the candidate's smaller side: the curve
    drop's (d-1)-row parity check.  A certificate never rejects a candidate.
    The DFS's C(n, t) budget refusal runs ahead of any certificate, so what
    the DFS would refuse stays refused.  This is the only MDS path here.
    """
    if code.params() != (n, k):
        raise ConstructionError(f"built [{code.n},{code.k}], wanted [{n},{k}]")
    if not code.is_hermitian_dual_containing():
        raise ConstructionError(f"[{n},{k},{d}] candidate is not Hermitian dual-containing")
    code.mds_subset_size(max_subsets)  # the DFS's budget refusal
    if certificate is not None and certificate():
        return code
    if not code.is_mds(max_subsets):
        raise ConstructionError(f"[{n},{k}] candidate is not MDS (wanted d = {d})")
    return code


# Each family function returns its kept private body (`code._kept`), called
# with (l, d, max_subsets) in that order, so the budget is part of the key: a
# code certified under one budget may be refused under a smaller one.


def rs_dual_containing(l: int, d: int, max_subsets: int = DEFAULT_SUBSET_BUDGET) -> LinearCode:
    """Hermitian dual-containing [l^2-1, l^2-d, d] MDS code over GF(l^2).

    Supported for 1 <= d <= l - 1 by the cyclic windows and at d = l where
    the curve drop finds a candidate (not at l = 2 or 4), plus sporadic
    registry hits beyond that.
    """
    return _punctured(l, d, max_subsets)


@_kept
def _punctured(l: int, d: int, max_subsets: int) -> LinearCode:
    if d < 1 or d > l + 1:
        raise ConstructionError(f"designed distance {d} outside 1..{l + 1}")
    fld = square_field(l)
    n = l * l - 1
    k = n - (d - 1)
    if d == 1:
        return LinearCode.full_space(fld, n)

    # consecutive defining windows T = {b..b+d-2}, smallest start first.  The
    # candidate ev{x^t : t not in -T} on the n-th roots of unity alpha^j is
    # the Euclidean dual of ev{x^t : t in T} = GRS_{d-1}(alpha^j, alpha^(jb))
    for b in range(1, n + 1):
        T = [(b + i) % n for i in range(d - 1)]
        if any(((-l * t) % n) in T for t in T):
            continue
        cand, certificate = _grs_dual(fld, window_grs_spec(fld, b, d - 1))
        try:
            return _verify_family_code(cand, n, k, d, max_subsets, certificate)
        except ConstructionError:
            continue

    # norm-solved evaluation codes on curve point subsets: so is [n, d-1] and
    # the candidate is its Hermitian dual, stored by the (d-1)-row conj(G_so);
    # so is self-orthogonal iff the candidate passes the Gram test
    curve = _rational_curve_points(fld, d - 1)
    budget_blocked: BudgetError | None = None
    for drop in itertools.combinations(range(len(curve)), 2):
        sub_pts = [p for i, p in enumerate(curve) if i not in drop]
        so = _norm_scaled_code(fld, l, sub_pts, d - 1)
        if so is None:
            continue
        try:
            return _verify_family_code(so.hermitian_dual(), n, k, d, max_subsets)
        except ConstructionError:
            continue
        except BudgetError as exc:
            budget_blocked = exc
            break
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

    endpoint = " (the d = l+1 endpoint admits no multiplier-scaled evaluation code)"
    raise ConstructionError(
        f"no verified [{n},{k},{d}] dual-containing code over GF({l}^2): "
        "cyclic windows, curve-subset norm solving and the sporadic registry "
        f"are all exhausted{endpoint if d == l + 1 else ''}"
    )


def extended_rs_dual_containing(
    l: int, d: int, max_subsets: int = DEFAULT_SUBSET_BUDGET
) -> LinearCode:
    """Hermitian dual-containing [l^2, l^2+1-d, d] MDS code over GF(l^2).

    Plain evaluation of all polynomials of degree < k at every field element
    passes the containment check throughout 2 <= d <= l; d = 1 degenerates
    to the full space.
    """
    return _extended(l, d, max_subsets)


@_kept
def _extended(l: int, d: int, max_subsets: int) -> LinearCode:
    fld = square_field(l)
    n = l * l
    if d == 1:
        return LinearCode.full_space(fld, n)
    if d < 2 or d > l:
        raise ConstructionError(f"designed distance {d} outside 2..{l}")
    # RS_k on every element of GF(q) is the dual of RS_(q-k): sum_a a^e = 0
    # for 0 <= e < q - 1, and q = 0 in GF(q)
    spec = GrsSpec(points=tuple(range(n)), multipliers=(1,) * n, k=d - 1)
    code, certificate = _grs_dual(fld, spec)
    return _verify_family_code(code, n, n + 1 - d, d, max_subsets, certificate)


def negacyclic_mds_dual_containing(
    l: int, d: int, max_subsets: int = DEFAULT_SUBSET_BUDGET
) -> LinearCode:
    """Hermitian dual-containing [l^2+1, l^2+2-d, d] MDS code, l = 1 mod 4.

    Realized by the centered negacyclic defining sets, whose coset sizes
    force |Z| = d - 1 odd: even d maps to depth (d-2)/2 and d = 1 to the
    empty set.  Odd d >= 3 has no such defining set and is refused.
    """
    return _negacyclic_family(l, d, max_subsets)


@_kept
def _negacyclic_family(l: int, d: int, max_subsets: int) -> LinearCode:
    from .negacyclic import centered_defining_set, distance_report, negacyclic_code

    if l % 4 != 1:
        raise ConstructionError(f"l = {l} is not 1 mod 4")
    if d != 1 and not 2 <= d <= l + 1:
        raise ConstructionError(f"designed distance {d} outside 2..{l + 1}")
    fld = square_field(l)
    n = l * l + 1
    if d == 1:
        return LinearCode.full_space(fld, n)
    if d % 2 != 0:
        raise ConstructionError(
            f"odd distance {d}: centered cosets come in sizes 1 and 2, so the "
            f"defining set size d-1 = {d - 1} is unreachable"
        )
    depth = (d - 2) // 2
    Z = centered_defining_set(l, depth)
    return _verify_family_code(
        negacyclic_code(n, fld, Z), n, n + 1 - d, d, max_subsets, lambda: distance_report(Z).exact
    )
