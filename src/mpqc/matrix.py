"""Dense exact linear algebra over a Field.

Matrices are immutable grids of element codes, held as a tuple of int
tuples.  Entries are range-checked once, at the package boundary: the public
constructor ``Matrix(fld, rows, ncols)`` checks the shape and that every
entry is an element code, and callers use it for rows that come from outside
(CLI input, random samples, hand-written tables).  Everything whose entries
are read from another matrix or from a field table (kernel outputs,
products, shape surgery, identity and zero matrices) is built by the private
``Matrix._of``, which trusts its grid and checks nothing.

Every elimination (rref, rank, nullspace, det, det/inverse) runs on one
kernel, `_eliminate`: plain Gauss-Jordan with first-nonzero pivoting on a
list of row lists.  Arithmetic is exact, so no pivot strategy beyond that is
needed.  The kernel indexes the field's operation tables (``Field.tables``)
instead of calling a method per entry, and a row operation touches only the
columns where the pivot row is nonzero, all at or right of the pivot column.
`det` eliminates the bare square; only `det_inverse` carries the augmented
identity.  Zero-row and zero-column shapes are legal everywhere (duals of
full spaces come out as 0 x n matrices).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .gf import Field


def _eliminate(fld: Field, rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Reduce `rows` in place to reduced row-echelon form on columns < ncols.

    Columns from ncols on (an augmented block) are carried along but never
    pivoted.  Returns the pivot columns and the product of the pivots times
    the sign of the row swaps, which is the determinant of a full-rank
    square block.
    """
    add, mul, neg, inv = fld.tables
    nr = len(rows)
    pivots = []
    det = 1
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        for pr in range(r, nr):
            if rows[pr][c]:
                break
        else:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            det = neg[det]
        src = rows[r]
        piv = src[c]
        det = mul[det][piv]
        if piv != 1:
            scale = mul[inv[piv]]
            src[c:] = [scale[x] for x in src[c:]]
        # only the pivot row's nonzero entries, all at or right of c, change dst
        support = [(j, s) for j, s in enumerate(src[c:], c) if s]
        for i in range(nr):
            dst = rows[i]
            f = dst[c]
            if f and i != r:
                m = mul[neg[f]]
                for j, s in support:
                    dst[j] = add[dst[j]][m[s]]
        pivots.append(c)
        r += 1
    return pivots, det


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows", "_hash")

    def __init__(self, fld: Field, rows: Iterable[Sequence[int]], ncols: int | None = None):
        grid = tuple(tuple(r) for r in rows)
        if grid:
            width = len(grid[0])
            if any(len(r) != width for r in grid):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"rows of length {width} given with ncols={ncols}")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        q = fld.order
        for r in grid:
            if r and (min(r) < 0 or max(r) >= q):
                bad = next(x for x in r if not 0 <= x < q)
                raise ValueError(f"entry {bad} is not an element code of {fld}")
        _fill(self, fld, grid, ncols)

    @classmethod
    def _of(cls, fld: Field, grid: tuple[tuple[int, ...], ...], ncols: int) -> "Matrix":
        """The matrix on `grid`, a tuple of ncols-long tuples of element
        codes, taken as it is: nothing is checked."""
        self = object.__new__(cls)
        _fill(self, fld, grid, ncols)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors --

    @classmethod
    def identity(cls, fld: Field, n: int) -> "Matrix":
        return cls._of(fld, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)), n)

    @classmethod
    def zeros(cls, fld: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._of(fld, ((0,) * ncols,) * nrows, ncols)

    # -- basics --

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        # computed once: `is_nsc`'s cache and code hashing look the same
        # matrix up often
        if self._hash is None:
            _set_hash(self, hash((self.field, self.ncols, self.rows)))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}: {body})"

    # -- shape surgery --

    def transpose(self) -> "Matrix":
        # zip(*rows) of a 0-row matrix would lose its ncols empty columns
        grid = tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols
        return Matrix._of(self.field, grid, self.nrows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        """Minor on strictly increasing 0-based index sets."""
        for name, idx, bound in (("row", row_idx, self.nrows), ("column", col_idx, self.ncols)):
            if any(i < 0 or i >= bound for i in idx):
                raise IndexError(f"{name} index out of range")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"{name} indices must be strictly increasing")
        rows = self.rows
        grid = tuple([tuple([rows[i][j] for j in col_idx]) for i in row_idx])
        return Matrix._of(self.field, grid, len(col_idx))

    def take_rows(self, count: int) -> "Matrix":
        return Matrix._of(self.field, self.rows[:count], self.ncols)

    def vstack(self, other: "Matrix") -> "Matrix":
        if other.field != self.field or other.ncols != self.ncols:
            raise ValueError("stacking shape/field mismatch")
        return Matrix._of(self.field, self.rows + other.rows, self.ncols)

    # -- entrywise maps --

    def conjugate(self) -> "Matrix":
        """Entrywise x -> x^l over GF(l^2)."""
        if not (self.nrows and self.ncols):
            return self  # no entry, so no conjugation (and no square-order check)
        conj = self.field.conj_table.__getitem__
        return Matrix._of(self.field, tuple([tuple(map(conj, r)) for r in self.rows]), self.ncols)

    def scale(self, c: int) -> "Matrix":
        """Every entry times the element code c."""
        if not 0 <= c < self.field.order:
            raise ValueError(f"{c} is not an element code of {self.field}")
        m = self.field.tables.mul[c].__getitem__
        return Matrix._of(self.field, tuple([tuple(map(m, r)) for r in self.rows]), self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if other.field != self.field or self.ncols != other.nrows:
            raise ValueError("product shape/field mismatch")
        f = self.field
        add, mul = f.tables.add, f.tables.mul
        out = []
        for r in self.rows:
            # row r of the product is sum_k r[k] * other.rows[k]
            acc = [0] * other.ncols
            for a, brow in zip(r, other.rows):
                if a:
                    m = mul[a]
                    acc = [add[x][m[y]] for x, y in zip(acc, brow)]
            out.append(tuple(acc))
        return Matrix._of(f, tuple(out), other.ncols)

    # -- elimination --

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row-echelon form, rank and pivot columns."""
        rows = [list(r) for r in self.rows]
        pivots, _ = _eliminate(self.field, rows, self.ncols)
        R = Matrix._of(self.field, tuple(map(tuple, rows)), self.ncols)
        return R, len(pivots), tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def nullspace(self) -> "Matrix":
        """Rows span {x : self @ x^T = 0}; comes out with ncols(self) columns."""
        R, _, pivots = self.rref()
        return R.rref_nullspace(pivots)

    def leading_columns(self) -> list[int]:
        """The column of each row's first nonzero entry; for a matrix in RREF
        without zero rows these are its pivots, read in one left-to-right pass."""
        cols = []
        j = 0
        for row in self.rows:
            while not row[j]:
                j += 1
            cols.append(j)
            j += 1
        return cols

    def trailing_columns(self) -> list[int]:
        """The column of each row's last nonzero entry; for a right-reduced
        matrix without zero rows (rows ordered by it, each a 1 that is zero
        in every other row) these are its pivots, read in one right-to-left
        pass."""
        cols = []
        j = self.ncols - 1
        for row in reversed(self.rows):
            while not row[j]:
                j -= 1
            cols.append(j)
            j -= 1
        cols.reverse()
        return cols

    def rref_nullspace(self, pivots: Sequence[int]) -> "Matrix":
        """The nullspace of a matrix already in RREF, with no elimination.

        With the pivot columns of `self` given, the basis is [-P^T | I]
        spread over the columns: one vector per free column fc, 1 there and
        -self[r][fc] at the pivot column of each row r.  Nothing here needs
        the pivots to lead their rows, only that each is a 1 that is zero in
        every other row, so a right-reduced matrix with its trailing pivots
        gives its (RREF) nullspace the same way.
        """
        neg = self.field.tables.neg
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_set:
                continue
            v = [0] * self.ncols
            v[fc] = 1
            for r, pc in zip(self.rows, pivots):
                v[pc] = neg[r[fc]]
            basis.append(tuple(v))
        return Matrix._of(self.field, tuple(basis), self.ncols)

    def det_inverse(self) -> tuple[int, "Matrix | None"]:
        """Determinant (an element code) and inverse; the inverse is None
        exactly when the determinant is 0."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        f = self.field
        n = self.nrows
        aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        pivots, det = _eliminate(f, aug, n)
        if len(pivots) < n:
            return 0, None
        return det, Matrix._of(f, tuple([tuple(r[n:]) for r in aug]), n)

    def det(self) -> int:
        """The determinant alone: one elimination of the bare square."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        pivots, det = _eliminate(self.field, [list(r) for r in self.rows], n)
        return det if len(pivots) == n else 0

    def row_space_contains(self, vector: Sequence[int]) -> bool:
        stacked = self.vstack(Matrix(self.field, [vector], ncols=self.ncols))
        return stacked.rank() == self.rank()


# the slots' own setters: `__setattr__` refuses, and object.__setattr__ is
# several times slower per call than these
_set_field, _set_nrows, _set_ncols, _set_rows, _set_hash = (
    Matrix.__dict__[name].__set__ for name in Matrix.__slots__
)


def _fill(m: Matrix, fld: Field, grid: tuple, ncols: int) -> None:
    _set_field(m, fld)
    _set_nrows(m, len(grid))
    _set_ncols(m, ncols)
    _set_rows(m, grid)
    _set_hash(m, None)
