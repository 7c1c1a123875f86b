"""Linear codes over a Field: duals, containment, distance oracles.

A code is stored by either of its two canonical forms and reads the other
off on first use, with no further elimination: its reduced row-echelon
generator G, or its right-reduced parity check H = [-P^T | I] (each row's
last nonzero entry is a 1 that is zero in every other row, rows ordered by
it).  `from_generator` canonicalizes a spanning set of the code into G, and
`from_parity` one of its dual into H (the RREF of the mirrored columns,
mirrored back).  Each dual is reduced on its smaller side, so H comes with
the dual of any code with 2k <= n, and with the matrix product codes,
through the dual identity.  Both forms are unique, so two equal codes
compare equal as objects; == and hash read the field, n, k and the smaller
form, G when 2k <= n and else H (k too: a code's G can be its dual's H).
H may be deferred: the code holds k and a function that returns H, called
on the first read of `parity` (or of `gen`, or of == and hash when
2k > n).  Negacyclic codes defer the deg g shifts of h* right-reduced this
way, and dual-containing matrix product codes their parity-side assembly
(see `negacyclic` and `product`).
Every containment fact is a product with H (w in C iff H w^T = 0; C in D iff
H_D G_C^T = 0; C contains its Hermitian dual iff conj(H) H^T = 0; C's
Hermitian dual lies in D iff conj(H_C) H_D^T = 0, the cross-Gram a matrix
product code's block verdict reads), taken as sparse dot products over the
nonzero entries of one side's rows that stop at the first nonzero entry
(one helper, ``_dots_vanish``).  A negacyclic code <g> of
GF(q)[x]/(x^n + 1) also carries g, and between two such codes each fact
reads the two generator polynomials alone: C_a in C_b iff g_b | g_a, and
C_a's Hermitian dual lies in C_b iff gcd(g_b, conj(g_a*)) = 1, g* the
reciprocal of g (``_coprime_to_conj_reciprocal`` says why), so C contains
its own iff gcd(g, conj(g*)) = 1.  Every other code (the GRS families,
character products, random codes) takes the matrix scans, which are also
the polynomial verdicts' reference in the tests.
A code keeps the form it reads off and its own Hermitian verdict (neither
changes == or hash), but no verdict about another code, so it holds no
reference to one.  The polynomial verdicts are kept instead, by
``functools.cache`` on ``_divides`` and ``_coprime_to_conj_reciprocal``,
keyed by the field and two generator polynomials: a component shared
between chain builds decides each pair once.  A matrix scan between two
codes runs again on every call.
Distance facts always travel with a provenance tag, in a `DistanceReport`;
nothing here ever reports a distance it did not compute or certify.  That
report is one of the package's seven immutable records, all `_Record`
subclasses: the fields are the class's ``__slots__``, checked when the
record is made, read-only after, compared and hashed by value.  They are
plain classes, so no import of the package loads ``dataclasses`` (and
with it inspect, ast and dis), a fixed cost to every cold process.
The exhaustive oracle
reads G only (never H, which `is_mds` scans).  It reads d = 1 and d = 2 off
the rows' non-pivot parts: a zero part (a unit row), then a part of weight
1 or two parallel parts.  Otherwise it walks one message per line of
scalar multiples (leading coefficient 1), resolves the last generator row's
coefficient by counting, and stops at the first word of weight 3; its
budget is still charged as all q^k messages.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from .gf import Field, poly_divmod
from .matrix import Matrix, _eliminate

DEFAULT_ENUM_BUDGET = 10**7
DEFAULT_SUBSET_BUDGET = 10**6
SUPPORT_SCAN_MAX_N = 16  # longest code the 2^n support scan accepts


class BudgetError(RuntimeError):
    """An exhaustive check would exceed its enumeration budget."""


class _Record:
    """An immutable record whose fields are its class's ``__slots__``.

    Fields are given by position or keyword, with ``_defaults`` for the
    rest; ``_validate`` runs on the result.  == and hash read ``_key``, all
    fields unless a record leaves some out.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        given = dict(zip(names, args), **kwargs)
        values = {**self._defaults, **given}
        if len(given) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self._validate()

    def _validate(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class DistanceReport(_Record):
    """Bounds on the minimum Hamming distance, each with provenance."""

    __slots__ = ("lower", "upper", "lower_provenance", "upper_provenance")

    def _validate(self):
        if not 1 <= self.lower <= self.upper:
            raise ValueError(f"bad distance bounds {self.lower}..{self.upper}")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def to_dict(self) -> dict:
        d = {
            "lower": self.lower,
            "upper": self.upper,
            "provenance": {"lower": self.lower_provenance, "upper": self.upper_provenance},
        }
        if self.exact:
            d["exact"] = True
        return d


def exact_report(d: int, provenance: str) -> DistanceReport:
    return DistanceReport(d, d, provenance, provenance)


class LinearCode:
    __slots__ = (
        "field", "n", "k", "_gen", "_parity", "_genpoly", "_hermitian_dual_containing",
    )

    def __init__(
        self,
        fld: Field,
        n: int,
        gen: Matrix | None,
        parity: Matrix | Callable[[], Matrix] | None = None,
        *,
        k: int | None = None,
        genpoly: tuple[int, ...] | None = None,
    ):
        """Stored by G or by H; with `k` given, `parity` may instead be a
        function of no arguments that returns H on the first read.  A
        negacyclic code <g> of GF(q)[x]/(x^n + 1), gcd(2n, q) = 1, also
        carries `genpoly` g, from which its containment facts are read."""
        if k is None:
            k = gen.nrows if parity is None else n - parity.nrows
        _set_field(self, fld)
        _set_n(self, n)
        _set_k(self, k)
        _set_gen(self, gen)
        _set_parity(self, parity)
        _set_genpoly(self, genpoly)
        _set_hermitian_dual_containing(self, None)

    def __setattr__(self, *a):
        raise AttributeError("LinearCode is immutable")

    @classmethod
    def from_generator(cls, rows: Matrix) -> "LinearCode":
        """Canonicalize any spanning set; dependent and zero rows are fine."""
        R, rank, _ = rows.rref()
        return cls(rows.field, rows.ncols, R.take_rows(rank))

    @classmethod
    def from_parity(cls, rows: Matrix) -> "LinearCode":
        """The code whose dual `rows` spans; dependent and zero rows are fine.

        The mirror of `from_generator`: the rows are right-reduced and store
        the code, and `gen` is read off them only if something asks."""
        H = _right_reduce(rows.field, [list(r) for r in rows.rows], rows.ncols)
        return cls(rows.field, rows.ncols, None, H)

    @classmethod
    def full_space(cls, fld: Field, n: int) -> "LinearCode":
        return cls(fld, n, Matrix.identity(fld, n))

    @classmethod
    def zero_code(cls, fld: Field, n: int) -> "LinearCode":
        return cls(fld, n, Matrix.zeros(fld, 0, n))

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and self.k == other.k
            and self._smaller_side() == other._smaller_side()
        )

    def __hash__(self):
        return hash((self.field, self.n, self.k, self._smaller_side()))

    def __repr__(self):
        return f"[{self.n},{self.k}] code over {self.field}"

    def params(self) -> tuple[int, int]:
        return (self.n, self.k)

    @property
    def gen(self) -> Matrix:
        """k rows in RREF spanning the code (I_n for the full space).

        A code stored by its right-reduced H reads G off H's trailing pivots
        (each row's last nonzero entry), the mirror of `parity`, without an
        elimination.
        """
        if self._gen is None:
            H = self.parity
            _set_gen(self, H.rref_nullspace(H.trailing_columns()))
        return self._gen

    @property
    def parity(self) -> Matrix:
        """n - k rows spanning the Euclidean dual (I_n for the zero code).

        `gen` is in RREF, so the right-reduced H = [-P^T | I] is read off its
        pivots (each row's first nonzero entry) without another elimination.
        A deferred H is built by its function, once.
        """
        if self._parity is None:
            _set_parity(self, self.gen.rref_nullspace(self.gen.leading_columns()))
        elif callable(self._parity):
            _set_parity(self, self._parity())
        return self._parity

    def _smaller_side(self) -> Matrix:
        """G when 2k <= n, else H: the smaller canonical form, which == and
        hash compare and `is_mds` scans."""
        return self.gen if 2 * self.k <= self.n else self.parity

    # -- membership and containment --

    def contains_word(self, word: Sequence[int]) -> bool:
        """Membership for a word of element codes: w is in C iff H w^T = 0."""
        if len(word) != self.n:
            raise ValueError("word length mismatch")
        if any(not 0 <= x < self.field.order for x in word):
            raise ValueError("word entries are not element codes")
        add, mul = self.field.tables.add, self.field.tables.mul
        return _dots_vanish(add, [(t, mul[x]) for t, x in enumerate(word) if x], self.parity.rows)

    def is_subcode_of(self, other: "LinearCode") -> bool:
        """H_other G_self^T = 0.

        Each entry is a dot product over the nonzero entries of one of
        self's rows (few for a systematic generator), and the scan stops at
        the first nonzero entry.  Between two negacyclic codes it is the
        division g_other | g_self instead, and neither code builds a matrix.
        """
        if self.field != other.field or self.n != other.n:
            raise ValueError("codes live in different spaces")
        if self.k > other.k:
            return False
        if self._genpoly is not None and other._genpoly is not None:
            return _divides(self.field, self._genpoly, other._genpoly)
        add, mul = self.field.tables.add, self.field.tables.mul
        H = other.parity.rows
        return all(
            _dots_vanish(add, [(t, mul[x]) for t, x in enumerate(row) if x], H)
            for row in self.gen.rows
        )

    # -- duals --

    def euclidean_dual(self) -> "LinearCode":
        """Reduced on the smaller side, as `is_mds` scans it: G is the dual's
        parity check when 2k <= n, else H is its generator."""
        if 2 * self.k <= self.n:
            return LinearCode.from_parity(self.gen)
        return LinearCode.from_generator(self.parity)

    def conjugate_code(self) -> "LinearCode":
        """Entrywise x -> x^l image; linear because conjugation is additive."""
        return LinearCode.from_generator(self.gen.conjugate())

    def hermitian_dual(self) -> "LinearCode":
        """`euclidean_dual`'s smaller-side rule on conj(G) or conj(H)."""
        self.field.subfield_order  # raises unless square; conj of a 0-row matrix would not
        if 2 * self.k <= self.n:
            return LinearCode.from_parity(self.gen.conjugate())
        return LinearCode.from_generator(self.parity.conjugate())

    def is_hermitian_dual_containing(self) -> bool:
        """conj(H) H^T = 0, which needs 2k >= n; run once per code.  A
        negacyclic code reads g alone: gcd(g, conj(g*)) = 1."""
        if self._hermitian_dual_containing is None:
            self.field.subfield_order  # raises unless the order is a square
            verdict = 2 * self.k >= self.n and self._hermitian_dual_within(self)
            _set_hermitian_dual_containing(self, verdict)
        return self._hermitian_dual_containing

    def hermitian_dual_is_subcode_of(self, other: "LinearCode") -> bool:
        """conj(H_self) H_other^T = 0.

        The rows of conj(H_self) span self's Hermitian dual, so this is
        whether that dual lies in other; the verdict is symmetric in the two
        codes.  It is the cross-Gram block of a matrix product code's parity
        check (see `product`).  Between two negacyclic codes it is
        gcd(g_other, conj(g_self*)) = 1, and neither code builds a matrix.
        """
        if self.field != other.field or self.n != other.n:
            raise ValueError("codes live in different spaces")
        self.field.subfield_order  # raises unless the order is a square
        return self._hermitian_dual_within(other)

    def _hermitian_dual_within(self, other: "LinearCode") -> bool:
        """Whether self's Hermitian dual lies in other: the generator
        polynomials' coprimality between two negacyclic codes, else the scan
        of conj(H_self) H_other^T, each row of conj(H_self) dotted over its
        nonzero entries.  With other = self that Gram matrix is Hermitian, so
        only its upper triangle is scanned."""
        if self._genpoly is not None and other._genpoly is not None:
            return _coprime_to_conj_reciprocal(self.field, other._genpoly, self._genpoly)
        add, mul = self.field.tables.add, self.field.tables.mul
        conj = self.field.conj_table
        H, rows = self.parity.rows, other.parity.rows
        return all(
            _dots_vanish(
                add,
                [(t, mul[conj[x]]) for t, x in enumerate(row) if x],
                H[i:] if other is self else rows,
            )
            for i, row in enumerate(H)
        )

    # -- distance oracles --

    def codewords(self):
        """All codewords, zero included.  Only sane for tiny codes."""
        add, mul = self.field.tables.add, self.field.tables.mul
        q = self.field.order
        words = [[0] * self.n]
        for row in self.gen.rows:
            scaled = [[mul[c][x] for x in row] for c in range(1, q)]
            nxt = []
            for w in words:
                nxt.append(w)
                for s in scaled:
                    nxt.append([add[a][b] for a, b in zip(w, s)])
            words = nxt
        return words

    def min_distance_exhaustive(self, budget: int = DEFAULT_ENUM_BUDGET) -> DistanceReport:
        """Exact distance: the least weight over all q^k - 1 nonzero codewords.

        After the budget test, two exits read the RREF generator G alone.
        A codeword's coefficients are its entries at the pivots, so a word
        of weight 1 or 2 involves at most two rows.  With P_r row r restricted
        to the non-pivot columns: d = 1 iff some P_r = 0 (the row is a unit
        vector); otherwise d = 2 iff some P_r has weight 1 or two P_r are
        scalar multiples of each other.  Every row is tested for d = 1 before
        any pair is tested for d = 2.

        Otherwise d >= 3, and the walk stops at the first word of weight 3.
        Scalar multiples share a weight, so only messages whose leading
        nonzero coefficient is 1 are walked: the last generator row g alone,
        and each prefix p over the other rows, whose q words p + c*g are
        resolved in one pass.  Column j of p + c*g vanishes iff
        c = -p[j]/g[j] (g[j] != 0) or p[j] = g[j] = 0, so a histogram of those
        roots gives the most zero columns over every c.  That is at most about
        q^(k-2) prefixes of O(n) lookups each; the budget is still charged
        as q^k messages.
        """
        if self.k == 0:
            raise ValueError("the zero code has no distance")
        f = self.field
        q = f.order
        if q**self.k > budget:
            raise BudgetError(f"{q}^{self.k} messages exceed budget {budget}")
        add, mul, neg, inv = f.tables
        n = self.n
        G = self.gen
        pivots = set(G.leading_columns())
        free = [j for j in range(n) if j not in pivots]
        parts = [[row[j] for j in free] for row in G.rows]
        if not all(any(part) for part in parts):
            return exact_report(1, "exhaustive")
        directions = set()
        for part in parts:
            lead = mul[inv[next(x for x in part if x)]]
            direction = tuple([lead[x] for x in part])
            if len(part) - part.count(0) == 1 or direction in directions:
                return exact_report(2, "exhaustive")
            directions.add(direction)
        *head, last = G.rows
        support = [j for j, x in enumerate(last) if x]
        roots = [mul[neg[inv[last[j]]]] for j in support]  # roots[i][a] = -a / last[support[i]]
        scaled_rows = [[[mul[c][x] for x in row] for c in range(1, q)] for row in head]
        most = n - len(support)  # zero columns of c*g, the words led by the last row
        # (next row a coefficient may go on, prefix word); a 1 leads each prefix
        stack = [(i + 1, row) for i, row in enumerate(head)]
        while stack and most < n - 3:  # d >= 3: a word of weight 3 is a lightest one
            i, acc = stack.pop()
            hist = [0] * q
            for r, j in zip(roots, support):
                hist[r[acc[j]]] += 1
            # acc.count(0) - hist[0] columns vanish off the support of g, for every c
            zeros = acc.count(0) - hist[0] + max(hist)
            if zeros > most:
                most = zeros
            for t in range(i, len(head)):
                for s in scaled_rows[t]:
                    stack.append((t + 1, [add[a][b] for a, b in zip(acc, s)]))
        return exact_report(n - most, "exhaustive")

    def min_distance_by_supports(self) -> DistanceReport:
        """Exact distance for short codes via zero-support ranks.

        d = n - max(|S|) over column sets S on which some nonzero codeword
        vanishes, that is, on which the k generator columns have rank < k.
        The 2^n loop is independent of the field size, so this is the oracle
        of choice when q^k explodes but n is tiny.  Each set is ranked by one
        kernel call on plain row lists.
        """
        if self.k == 0:
            raise ValueError("the zero code has no distance")
        n, k = self.n, self.k
        if n > SUPPORT_SCAN_MAX_N:
            raise BudgetError(f"support enumeration over 2^{n} columns refused")
        fld, rows = self.field, self.gen.rows
        best_zeroes = 0  # the empty set: every codeword vanishes on it
        for mask in range(1, (1 << n) - 1):
            size = mask.bit_count()
            if size <= best_zeroes:
                continue
            idx = [c for c in range(n) if mask >> c & 1]
            pivots, _ = _eliminate(fld, [[row[c] for c in idx] for row in rows], size)
            if len(pivots) < k:
                best_zeroes = size
        return exact_report(n - best_zeroes, "exhaustive")

    def mds_subset_size(self, max_subsets: int = DEFAULT_SUBSET_BUDGET) -> int:
        """t = min(k, n - k), the size of the column subsets `is_mds` scans.

        Raises BudgetError when the C(n, t) subsets exceed max_subsets.  The
        family verifier calls this ahead of any structural certificate, so
        a code the scan would refuse stays refused however it is certified.
        t = 0 (the zero code and the full space) is never refused.
        """
        n, t = self.n, min(self.k, self.n - self.k)
        if t and math.comb(n, t) > max_subsets:
            raise BudgetError(f"C({n},{t}) column subsets exceed budget {max_subsets}")
        return t

    def is_mds(self, max_subsets: int = DEFAULT_SUBSET_BUDGET) -> bool:
        """Certificate that d = n - k + 1.

        True iff every t-subset of columns is independent, taken on whichever
        of the generator (t = k) or the parity side (t = n - k) is smaller.
        A depth-first scan shares partial eliminations between subsets and
        aborts on the first dependency.
        """
        t = self.mds_subset_size(max_subsets)
        if t == 0:
            return True
        n = self.n
        mat = self._smaller_side()
        add, mul, neg, inv = self.field.tables
        cols = [[mat.rows[i][j] for i in range(t)] for j in range(n)]

        # basis entries: (pivot_row, nonzero (row, entry) pairs of a vector
        # normalized to 1 at the pivot and zero before it); a reduction step
        # is the elimination kernel's row operation
        def reduce(vec, basis):
            v = list(vec)
            for pos, support in basis:
                c = v[pos]
                if c:
                    m = mul[neg[c]]
                    for i, y in support:
                        v[i] = add[v[i]][m[y]]
            piv = next((i for i, x in enumerate(v) if x), None)
            if piv is None:
                return None
            m = mul[inv[v[piv]]]
            return piv, [(i, m[x]) for i, x in enumerate(v) if x]

        def walk(start, basis):
            depth = len(basis)
            if depth == t:
                return True
            for j in range(start, n - (t - depth) + 1):
                entry = reduce(cols[j], basis)
                if entry is None:
                    return False
                if not walk(j + 1, basis + [entry]):
                    return False
            return True

        return walk(0, [])


# the slots' own setters: `__setattr__` refuses, and object.__setattr__ is
# slower per call than these
(
    _set_field, _set_n, _set_k, _set_gen, _set_parity, _set_genpoly, _set_hermitian_dual_containing,
) = (LinearCode.__dict__[name].__set__ for name in LinearCode.__slots__)


@functools.cache
def _divides(fld: Field, dividend: tuple[int, ...], divisor: tuple[int, ...]) -> bool:
    """Whether divisor | dividend over fld: C_a in C_b for two negacyclic
    codes is g_b | g_a."""
    return not poly_divmod(fld, dividend, divisor)[1]


@functools.cache
def _coprime_to_conj_reciprocal(fld: Field, b: tuple[int, ...], a: tuple[int, ...]) -> bool:
    """Whether gcd(b, conj(a*)) = 1 over fld, a* the reciprocal of a, by
    Euclid's algorithm.  For two negacyclic generator polynomials this is
    whether C_a's Hermitian dual, generated by conj(h_a*), h_a = (x^n + 1)/g_a,
    lies in C_b: g_b | conj(h_a*).  Reciprocal and conjugation are
    multiplicative and fix x^n + 1, so conj(h_a*) = (x^n + 1)/conj(g_a*).  The
    build checks g_a | x^n + 1 as x^n = -1 mod g_a, without dividing out h_a,
    so conj(g_a*) | x^n + 1 too; `negacyclic_code` refuses gcd(2n, q) != 1,
    so x^n + 1 has no repeated factor.  Hence
    g_b | conj(h_a*) iff g_b conj(g_a*) | x^n + 1 iff gcd(g_b, conj(g_a*)) = 1.
    """
    conj = fld.conj_table
    r0, r1 = list(b), [conj[x] for x in reversed(a)]
    while r1:
        r0, r1 = r1, poly_divmod(fld, r0, r1)[1]
    return len(r0) == 1


def _right_reduce(fld: Field, rows: list[list[int]], ncols: int) -> Matrix:
    """The right-reduction of `rows` (lists, reduced in place), zero rows
    dropped: the RREF of the mirrored columns, mirrored back."""
    for r in rows:
        r.reverse()
    pivots, _ = _eliminate(fld, rows, ncols)
    return Matrix._of(fld, tuple([tuple(r[::-1]) for r in reversed(rows[: len(pivots)])]), ncols)


def _dots_vanish(add, support, rows) -> bool:
    """Whether one vector has dot product 0 with every row of `rows`.

    The vector is given by its support, (position, mul row) for each of its
    nonzero entries, so each product runs over those entries only; the scan
    stops at the first nonzero product.
    """
    for row in rows:
        acc = 0
        for t, m in support:
            acc = add[acc][m[row[t]]]
        if acc:
            return False
    return True
