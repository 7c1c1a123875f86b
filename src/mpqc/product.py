"""Matrix product codes [C_1,...,C_s]A and their certified properties.

The code of s equal-length components under an s x m matrix A is generated
by the block matrix (a_ij G_i); codewords decompose into m length-n blocks
with block j equal to sum_i a_ij c_i.  Distance bounds come in two grades:
the full-row-rank bound through the row-prefix codes of A, and the sharper
non-singular-by-columns bound, which is an equality when A is also upper
triangular.

`matrix_product_code` builds a product from that definition: the block
rows (a_ij G_i)_j are stacked and canonicalized by the elimination kernel.
A dual-containing product (`_checked_product`), where A is square and
nonsingular, defers assembly: it holds k = sum(k_i) and its block verdict,
and when its parity check is first read (by `parity`, `gen`, == or hash)
that H is assembled through the dual identity C^perp = [C_1-dual..C_s-dual]
(A^-1)^T (Blackmore and Norton), which stacks one block row (b_ij h)_j per
row h of each component's parity check; that sum(n - k_i)-row stack is
right-reduced by `code`'s one right-reduction, with its rank checked.  A^-1
comes from the kernel and A A^-1 = I is checked through `@`.

Derived facts are recomputed, not trusted: the dual identity is checked on
both sides (each built from its definition, never through the parity-side
assembly that relies on the identity), and
every dual-containing product construction tests its components and its
output for Hermitian containment, raising ConsistencyError if the algebra
and the matrices ever disagree.  The output is tested block by block: with
W = conj(B) B^T for B = (A^-1)^T, the product contains its Hermitian dual
iff conj(H_i') H_i^T = 0 for every i' <= i with W_i'i != 0.  The diagonal
blocks are the components' own verdicts; each off-diagonal block W selects
is a cross verdict over two components (a Gram over their parity checks,
or one gcd of the generator polynomials of negacyclic components), so no
product is Gram-tested on its nm columns.  W is diagonal for every matrix
`dual_containing_product` accepts (the character tables among them), and
the chain matrix selects the cross blocks (1, 2) and (1, 3).  Each fact
is checked once: a code keeps its own verdict, the polynomial verdicts are
kept by their polynomials (see `code`), and `is_nsc`'s verdict and the
checked (A^-1)^T are kept per matrix value (``code._kept``): the chain
matrix that every chain build reuses is checked and inverted once.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .code import (
    DistanceReport,
    LinearCode,
    _kept,
    _right_reduce,
    _set_hermitian_dual_containing,
    exact_report,
)
from .gf import Field
from .matrix import Matrix


class ConsistencyError(RuntimeError):
    """A certified identity failed on a concrete instance."""


def _check_components(codes: Sequence[LinearCode]) -> tuple[Field, int]:
    if not codes:
        raise ValueError("at least one component code required")
    fld, n = codes[0].field, codes[0].n
    for c in codes:
        if c.field != fld or c.n != n:
            raise ValueError("components must share length and field")
    return fld, n


def _check_product(codes: Sequence[LinearCode], A: Matrix) -> None:
    fld, _ = _check_components(codes)
    if A.nrows != len(codes):
        raise ValueError(f"A has {A.nrows} rows but {len(codes)} components given")
    if A.nrows > A.ncols:
        raise ValueError("A must have at least as many columns as rows")
    if A.field != fld:
        raise ValueError("A must live over the component field")


def matrix_product_code(codes: Sequence[LinearCode], A: Matrix) -> LinearCode:
    """The length n*m code generated by the blocks a_ij G_i: every block row
    (a_ij G_i)_j stacked, then one kernel elimination."""
    _check_product(codes, A)
    fld, n = A.field, codes[0].n
    mul = fld.tables.mul
    zeros = [0] * n
    rows = []
    for arow, code in zip(A.rows, codes):
        for g in code.gen.rows:
            rows.append(tuple([x for a in arow for x in ([mul[a][y] for y in g] if a else zeros)]))
    if not rows:
        return LinearCode.zero_code(fld, n * A.ncols)
    return LinearCode.from_generator(Matrix._of(fld, tuple(rows), n * A.ncols))


@_kept
def _checked_inverse_transpose(A: Matrix) -> tuple[tuple[int, ...], ...]:
    """(A^-1)^T for a square A, with A A^-1 = I checked through `@`; a
    singular A raises, since both callers' conditions make A nonsingular."""
    _, ainv = A.det_inverse()
    if ainv is None:
        raise ConsistencyError("A is singular despite the product conditions")
    if A @ ainv != Matrix.identity(A.field, A.nrows):
        raise ConsistencyError("A A^-1 = I failed on this instance")
    return tuple(zip(*ainv.rows))


def _parity_product(codes: Sequence[LinearCode], B: tuple[tuple[int, ...], ...]) -> Matrix:
    """The right-reduced parity check of [C_1..C_s]A, through the dual
    identity [C_1-dual..C_s-dual](A^-1)^T.

    B = (A^-1)^T for a square nonsingular A.  Each row h of H_i gives the
    block row (b_ij h)_j.  It is orthogonal to each row of block i' of the
    product's generator: their dot product is (B A^T)_{ii'} (h.g) =
    delta_{ii'} (h.g) = 0, because H_i is read off C_i.  The stack is
    right-reduced as `LinearCode.from_parity` reduces any spanning set of a
    dual, and it must keep its full rank sum(n - k_i) = nm - sum(k_i), so it
    spans the product's dual.
    """
    fld, n = codes[0].field, codes[0].n
    mul = fld.tables.mul
    zeros = [0] * n
    rows = []
    for brow, code in zip(B, codes):
        for h in code.parity.rows:
            row = []
            for b in brow:
                row += h if b == 1 else [mul[b][y] for y in h] if b else zeros
            rows.append(row)
    H = _right_reduce(fld, rows, n * len(B))
    if H.nrows < len(rows):
        raise ConsistencyError("the dual identity's parity check lost rank on this instance")
    return H


def is_frr(A: Matrix) -> bool:
    return A.rank() == A.nrows


def is_nsc(A: Matrix) -> bool:
    """Every t x t minor taken from the first t rows is invertible, all t.

    The verdict is kept per matrix value (`_all_prefix_minors_invertible`),
    so the fixed matrices that every build reuses are checked once."""
    return _all_prefix_minors_invertible(A)


@_kept
def _all_prefix_minors_invertible(A: Matrix) -> bool:
    s, m = A.nrows, A.ncols
    if s > m:
        return False
    for t in range(1, s + 1):
        rows = tuple(range(t))
        for cols in itertools.combinations(range(m), t):
            if A.submatrix(rows, cols).det() == 0:
                return False
    return True


def is_upper_triangular(A: Matrix) -> bool:
    return all(A.rows[i][j] == 0 for i in range(A.nrows) for j in range(min(i, A.ncols)))


def row_prefix_code(A: Matrix, k: int) -> LinearCode:
    """The length-m code spanned by the first k rows of A."""
    if not 1 <= k <= A.nrows:
        raise ValueError(f"row count {k} outside 1..{A.nrows}")
    return LinearCode.from_generator(A.take_rows(k))


def frr_distance_bound(codes: Sequence[LinearCode], dists: Sequence[int], A: Matrix) -> int:
    """min over i of d_i * d(prefix_i); valid whenever A has full row rank.

    Component distances must be exact.  Prefix distances are exact too: a
    prefix code has length m, so `min_distance_by_supports` reads its
    distance off the 2^m column sets of A.  An A with more than
    `SUPPORT_SCAN_MAX_N` columns is refused with BudgetError.
    """
    if not is_frr(A):
        raise ValueError("bound requires a full-row-rank matrix")
    if len(dists) != len(codes):
        raise ValueError("one exact distance per component")
    return min(
        d * row_prefix_code(A, k + 1).min_distance_by_supports().lower
        for k, d in enumerate(dists)
    )


def nsc_dstar(dists: Sequence[int], m: int) -> int:
    """min{m d_1, (m-1) d_2, ...}: the NSC distance bound for an s x m matrix."""
    return min(d * (m - i) for i, d in enumerate(dists))


def product_dual(codes: Sequence[LinearCode], A: Matrix) -> LinearCode:
    """Dual of [C_1..C_s]A, via [C_1-dual..C_s-dual](A^-1)^T.

    Both that expression and the plain nullspace dual of the product are
    computed; disagreement would break the dual identity and raises.  Both
    products are built by `matrix_product_code`, from their definition: the
    parity-side assembly of dual-containing products relies on this
    identity, so it cannot be either side of its check.
    """
    if A.nrows != A.ncols:
        raise ValueError("the dual identity needs a square matrix")
    _, ainv = A.det_inverse()
    if ainv is None:
        raise ValueError("the dual identity needs a nonsingular matrix")
    lhs = matrix_product_code(codes, A).euclidean_dual()
    rhs = matrix_product_code([c.euclidean_dual() for c in codes], ainv.transpose())
    if lhs != rhs:
        raise ConsistencyError("dual identity failed on this instance")
    return lhs


def dual_containing_product(codes: Sequence[LinearCode], A: Matrix) -> LinearCode:
    """Product of Hermitian dual-containing components under a square matrix
    whose conjugate Gram conj(A) A^T is an invertible diagonal matrix; the
    output is re-checked, not assumed.  A singular A fails the test, since
    its conjugate Gram is singular too."""
    if A.nrows != A.ncols:
        raise ValueError("square matrices only")
    gram = (A.conjugate() @ A.transpose()).rows
    if any((x == 0) == (i == j) for i, row in enumerate(gram) for j, x in enumerate(row)):
        raise ValueError("conj(A) A^T is not an invertible diagonal matrix")
    return _checked_product(codes, A, "product lost dual containment despite the Gram condition")


def _checked_product(codes: Sequence[LinearCode], A: Matrix, lost: str) -> LinearCode:
    """Components dual-containing, then the product, then the product
    re-checked block by block.

    A is square and nonsingular under both callers' conditions (an NSC
    matrix, or one whose conjugate Gram is invertible diagonal).  A is
    inverted once per process: B = (A^-1)^T, kept per matrix value, decides
    the Hermitian verdict (`_block_gram_vanishes`), which the product keeps,
    so `quantum.hermitian_construction` reads it without a Gram test on the
    product's nm columns.  The product holds k = sum(k_i) and a function
    that assembles its H from B (`_parity_product`) when its G or H is first
    read.
    """
    for i, c in enumerate(codes):
        if not c.is_hermitian_dual_containing():
            raise ValueError(f"component {i} is not Hermitian dual-containing")
    _check_product(codes, A)
    B = _checked_inverse_transpose(A)
    if not _block_gram_vanishes(codes, B):
        raise ConsistencyError(lost)
    codes = tuple(codes)
    product = LinearCode(
        codes[0].field,
        codes[0].n * len(B),
        None,
        functools.partial(_parity_product, codes, B),
        k=sum(c.k for c in codes),
    )
    _set_hermitian_dual_containing(product, True)  # the verdict just decided
    return product


def _block_gram_vanishes(codes: Sequence[LinearCode], B: tuple[tuple[int, ...], ...]) -> bool:
    """Whether [C_1..C_m]A contains its Hermitian dual, from component facts.

    B = (A^-1)^T for a square nonsingular A.  The product's parity check
    stacks a block row (b_ij h)_j per row h of each H_i, so the Gram entry
    between a row h' of block i' and a row h of block i is
    W_i'i conj(h').h, where W = conj(B) B^T.  The Gram matrix vanishes iff
    conj(H_i') H_i^T = 0 wherever W_i'i != 0, and W is Hermitian, so the
    pairs i' <= i suffice.  A diagonal block is the component's own
    verdict; each off-diagonal block W selects is one cross verdict
    (`LinearCode.hermitian_dual_is_subcode_of`).
    """
    fld = codes[0].field
    add, mul = fld.tables.add, fld.tables.mul
    conj = fld.conj_table
    for i, brow in enumerate(B):
        for i2 in range(i + 1):  # i' <= i
            w = 0
            for x, y in zip(B[i2], brow):
                w = add[w][mul[conj[x]][y]]
            if not w:
                continue
            if i2 == i:
                if not codes[i].is_hermitian_dual_containing():
                    return False
            elif not codes[i2].hermitian_dual_is_subcode_of(codes[i]):
                return False
    return True


def nested_chain_product(codes: Sequence[LinearCode], A: Matrix) -> LinearCode:
    """Product of a nested chain of dual-containing components under an NSC
    upper-triangular matrix.  The chain may ascend or descend; containment
    of consecutive components is verified either way, and the product is
    re-checked explicitly."""
    if A.nrows != A.ncols or A.nrows != len(codes):
        raise ValueError("need a square matrix matching the component count")
    if not is_upper_triangular(A):
        raise ValueError("matrix is not upper triangular")
    if not is_nsc(A):
        raise ValueError("matrix is not non-singular by columns")
    ascending = all(a.is_subcode_of(b) for a, b in zip(codes, codes[1:]))
    descending = all(b.is_subcode_of(a) for a, b in zip(codes, codes[1:]))
    if not (ascending or descending):
        raise ValueError("components do not form a containment chain")
    return _checked_product(codes, A, "chain product lost dual containment")


def character_matrix(fld: Field, r: int) -> Matrix:
    """Character table of the r-fold product of the order-2 group, with
    entries +-1 in the given odd-characteristic field.

    Rows are group elements and columns characters, both in binary counting
    order; the (i, j) entry is -1 to the number of positions where the
    bit-reversal of i meets j.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if fld.p == 2:
        raise ValueError("characteristic 2 collapses the two signs")
    s = 1 << r
    minus = fld.tables.neg[1]

    def rev(i: int) -> int:
        return int(format(i, f"0{r}b")[::-1], 2)

    rows = [
        [minus if (rev(i) & j).bit_count() % 2 else 1 for j in range(s)] for i in range(s)
    ]
    return Matrix(fld, rows, ncols=s)


def character_product(codes: Sequence[LinearCode]) -> LinearCode:
    """Dual-containing product of four components under the 4 x 4 character
    table; the workhorse behind the quadrupled-length constructions."""
    if len(codes) != 4:
        raise ValueError("exactly four components")
    fld, _ = _check_components(codes)
    if (fld.order - 1) % 4 != 0:
        raise ValueError("field order must be 1 mod 4")
    return dual_containing_product(codes, character_matrix(fld, 2))


def product_distance_report(
    codes: Sequence[LinearCode], dists: Sequence[int], A: Matrix
) -> DistanceReport:
    """Best certified distance statement for [C_1..C_s]A from exact
    component distances: the NSC equality when it applies, else the NSC
    bound, else the full-row-rank bound."""
    n = codes[0].n * A.ncols
    k = sum(c.k for c in codes)
    singleton = n - k + 1
    if is_nsc(A):
        dstar = nsc_dstar(dists, A.ncols)
        if is_upper_triangular(A):
            return exact_report(dstar, "product-bound")
        return DistanceReport(dstar, singleton, "product-bound", "singleton")
    lower = frr_distance_bound(codes, dists, A)
    return DistanceReport(lower, singleton, "product-bound", "singleton")
