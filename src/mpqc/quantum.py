"""Quantum code parameters from Hermitian dual-containing classical codes.

A dual-containing [n, k] code over GF(l^2) yields a quantum [[n, 2k-n]]
code over the base l whose distance is at least the classical one.  The
construction here refuses any input that fails the explicit containment
check, and every emitted parameter record is validated against the quantum
Singleton bound at creation time, so an out-of-bound record cannot exist.
`QuantumParams`, `SingletonReport`, `CaseBuild` and `ChainBuild` are
immutable records (see `code._Record`): a discrepancy is attached by
building a new `QuantumParams`, whose == and hash ignore it.

The six-case parameter formulas and the two negacyclic chain theorems are
implemented twice: once as pure arithmetic (`formula_params`,
`chain_claimed_params`) and once as actual constructions that build the
classical code and read the parameters off it.  Whenever the two disagree
the builder emits a structured discrepancy record instead of failing,
because surfacing those gaps is part of the job.

Both builders take their classical distance from
`product.product_distance_report`.  `build_character_product` is the one
character-matrix build, shared by the six cases and by Theorem 3.1.  The
chain depth rules live in one place: `admissible_triples` enumerates what
`build_chain` accepts, and `chain_audit` reads a triple's dimensions and
distance floor off the same defining sets without building any matrix.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .claims import TABLE1
from .code import DEFAULT_SUBSET_BUDGET, DistanceReport, LinearCode, _kept, _Record
from .constructions import (
    ConstructionError,
    extended_rs_dual_containing,
    negacyclic_mds_dual_containing,
    rs_dual_containing,
)
from .gf import split_prime_power, square_field
from .matrix import Matrix
from .negacyclic import (
    DefiningSet,
    bch_bound,
    centered_defining_set,
    distance_report,
    half_length_defining_set,
    negacyclic_code,
)
from .product import (
    ConsistencyError,
    character_matrix,
    character_product,
    nested_chain_product,
    nsc_dstar,
    product_distance_report,
)


class SingletonViolation(ValueError):
    """Parameters beat the quantum Singleton bound; something is wrong."""


class QuantumParams(_Record):
    """An [[n, k, >= d_lower]] record over base l, with provenance.

    verified is set only when the source classical code passed the explicit
    Hermitian containment check.  Construction rejects any record violating
    2*d <= n - k + 2.  d_exact (an int) and discrepancy (a dict) default to
    None; == and hash ignore discrepancy.
    """

    __slots__ = ("n", "k", "d_lower", "base", "provenance", "verified", "d_exact", "discrepancy")
    _defaults = {"d_exact": None, "discrepancy": None}

    def _key(self) -> tuple:
        return super()._key()[:-1]  # all but discrepancy

    def _validate(self):
        d = self.d_exact if self.d_exact is not None else self.d_lower
        if 2 * d > self.n - self.k + 2:
            raise SingletonViolation(
                f"[[{self.n},{self.k},{d}]] violates 2d <= n-k+2"
            )

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "d_lower": self.d_lower,
            "base": self.base,
            "provenance": self.provenance,
            "verified": self.verified,
        }
        if self.d_exact is not None:
            out["d_exact"] = self.d_exact
        if self.discrepancy is not None:
            out["discrepancy"] = self.discrepancy
        return out


class SingletonReport(_Record):
    """Quantum Singleton defect; approximate when it was computed from a
    lower bound on the distance only."""

    __slots__ = ("defect", "is_mds", "approximate")


def singleton_check(qp: QuantumParams) -> SingletonReport:
    """Defect n - k + 2 - 2d; MDS means zero defect at an exact distance."""
    exact = qp.d_exact is not None
    d = qp.d_exact if exact else qp.d_lower
    defect = qp.n - qp.k + 2 - 2 * d
    if defect < 0 and exact:
        raise SingletonViolation(f"negative defect {defect} at exact distance")
    return SingletonReport(defect, exact and defect == 0, not exact)


def hermitian_construction(code: LinearCode, d_report: DistanceReport) -> QuantumParams:
    """[[n, 2k-n, >= d]] over the base subfield, refused without containment."""
    if not code.is_hermitian_dual_containing():
        raise ConstructionError(
            f"[{code.n},{code.k}] code is not Hermitian dual-containing; "
            "refusing to emit quantum parameters"
        )
    base = code.field.subfield_order
    return QuantumParams(
        n=code.n,
        k=2 * code.k - code.n,
        d_lower=d_report.lower,
        base=base,
        provenance=f"hermitian({d_report.lower_provenance})",
        verified=True,
    )


# ---------------------------------------------------------------------------
# six-case quadrupled constructions

_CASE_TABLE = {
    # case: (length kind, formula k(l, d), congruence of d mod 4, top of d range)
    "i": ("punctured", lambda l, d: 4 * l * l + 4 - 4 * d - d // 2, 0, lambda l: l),
    "ii": ("punctured", lambda l, d: 4 * l * l + 6 - 4 * d - (d + 1) // 2, 3, lambda l: l),
    "iii": ("extended", lambda l, d: 4 * l * l + 8 - 4 * d - d // 2, 0, lambda l: l),
    "iv": ("extended", lambda l, d: 4 * l * l + 6 - 4 * d - (d + 1) // 2, 3, lambda l: l),
    "v": ("negacyclic", lambda l, d: 4 * l * l + 12 - 4 * d - d // 2, 0, lambda l: l + 1),
    "vi": ("negacyclic", lambda l, d: 4 * l * l + 10 - 4 * d - (d + 1) // 2, 3, lambda l: l + 1),
}

_LENGTHS = {"punctured": lambda l: l * l - 1, "extended": lambda l: l * l, "negacyclic": lambda l: l * l + 1}
_FAMILIES = {
    "punctured": rs_dual_containing,
    "extended": extended_rs_dual_containing,
    "negacyclic": negacyclic_mds_dual_containing,
}


def _case_check(l: int, d: int, case: str, check_range: bool = True):
    if case not in _CASE_TABLE:
        raise ValueError(f"unknown case {case!r}; expected i..vi")
    kind, _, congruence, dmax = _CASE_TABLE[case]
    if d % 4 != congruence:
        raise ValueError(f"case {case} needs d = {congruence} mod 4, got d = {d}")
    if check_range and not 4 <= d <= dmax(l):
        raise ValueError(f"case {case} needs 4 <= d <= {dmax(l)}, got d = {d}")


def formula_params(l: int, d: int, case: str) -> QuantumParams:
    """The stated [[n, k, >= d]] for one of the six cases; arithmetic only."""
    split_prime_power(l)
    _case_check(l, d, case)
    kind, kf, _, _ = _CASE_TABLE[case]
    return QuantumParams(
        n=4 * _LENGTHS[kind](l),
        k=kf(l, d),
        d_lower=d,
        base=l,
        provenance=f"formula:{case}",
        verified=False,
    )


def _case_component_distances(d: int, case: str) -> tuple[int, int, int, int]:
    if case in ("i", "iii", "v"):
        return (d // 4, d // 2, d // 2, d)
    return ((d + 1) // 4, (d + 1) // 2, (d + 1) // 2, d)


class CaseBuild(_Record):
    """A fully constructed character-product instance (its quantum record,
    classical code, four components and their distances) next to its
    six-case formula record, if it has one."""

    __slots__ = ("built", "formula", "classical", "components", "component_distances")

    @property
    def discrepancy(self) -> dict | None:
        return self.built.discrepancy

    def to_dict(self) -> dict:
        out = {
            "built": self.built.to_dict(),
            "classical": [self.classical.n, self.classical.k],
            "components": [[c.n, c.k, d] for c, d in zip(self.components, self.component_distances)],
        }
        if self.formula is not None:
            out["formula"] = self.formula.to_dict()
        return out


def build_character_product(
    l: int,
    dists: Sequence[int],
    kind: str,
    max_subsets: int = DEFAULT_SUBSET_BUDGET,
) -> CaseBuild:
    """Four components of one family (punctured, extended or negacyclic) at
    the given distances, their product under the 4 x 4 character matrix, and
    the quantum record; no formula is attached."""
    dists = tuple(dists)
    components = tuple(_FAMILIES[kind](l, dist, max_subsets) for dist in dists)
    classical = character_product(components)
    A = character_matrix(components[0].field, 2)
    report = product_distance_report(components, dists, A)
    built = hermitian_construction(classical, report)
    return CaseBuild(built, None, classical, components, dists)


def build_case(
    l: int,
    d: int,
    case: str,
    check_range: bool = True,
    max_subsets: int = DEFAULT_SUBSET_BUDGET,
) -> CaseBuild:
    """Construct the four components, the quadrupled product, and the
    quantum record; attach a discrepancy record when the formula disagrees.

    check_range=False skips the stated d-range so out-of-range inputs can be
    audited; the formula value is still computed for comparison.
    """
    split_prime_power(l)
    _case_check(l, d, case, check_range)
    kind, kf, _, dmax = _CASE_TABLE[case]
    cb = build_character_product(l, _case_component_distances(d, case), kind, max_subsets)
    built = cb.built

    formula_note = {"n": 4 * _LENGTHS[kind](l), "k": kf(l, d), "d": d}
    formula: QuantumParams | None = None
    if 4 <= d <= dmax(l):
        formula = formula_params(l, d, case)
    else:
        formula_note["out_of_range"] = True

    if (built.n, built.k) != (formula_note["n"], formula_note["k"]) or built.d_lower < d:
        built = QuantumParams(
            built.n, built.k, built.d_lower, built.base, built.provenance, built.verified, built.d_exact,
            discrepancy={
                "source": f"case:{case}",
                "inputs": {"l": l, "d": d},
                "claimed": formula_note,
                "computed": {"n": built.n, "k": built.k, "d_lower": built.d_lower},
            },
        )
    return CaseBuild(built, formula, cb.classical, cb.components, cb.component_distances)


# ---------------------------------------------------------------------------
# negacyclic chain constructions

_CHAIN_MATRIX_ROWS = [[1, 1, 1], [0, 2, 1], [0, 0, 1]]


@_kept
def _chain_matrix(fld) -> Matrix:
    """The NSC matrix of every chain over this field, made once per field,
    so each build hands the same Matrix to `is_nsc` and the product."""
    return Matrix(fld, [[x % fld.p for x in row] for row in _CHAIN_MATRIX_ROWS])


def _chain_deltas_ok(deltas: Sequence[int], l: int, family: str, strict: bool) -> str | None:
    d1, d2, d3 = deltas
    top = (l - 1) // 2
    lo = 0 if family == "full" else 1
    if strict:
        if not (1 <= d1 < d2 < d3 <= top):
            return f"strict mode needs 1 <= d1 < d2 < d3 <= {top}"
    else:
        if not (lo <= d1 <= d2 <= d3 <= top):
            return f"needs {lo} <= d1 <= d2 <= d3 <= {top}"
    return None


def admissible_triples(l: int, family: str, strict: bool) -> list[tuple[int, int, int]]:
    """Every depth triple that passes `build_chain`'s depth check at this l,
    in lexicographic order."""
    depths = range((l - 1) // 2 + 1)
    return [
        t
        for t in itertools.combinations_with_replacement(depths, 3)
        if _chain_deltas_ok(t, l, family, strict) is None
    ]


def _chain_defining_sets(
    l: int, deltas: Sequence[int], family: str
) -> tuple[int, list[DefiningSet]]:
    """Component length and the three defining sets of a chain family."""
    if family == "full":
        return l * l + 1, [centered_defining_set(l, dj) for dj in deltas]
    return (l * l + 1) // 2, [half_length_defining_set(l, dj) for dj in deltas]


class ChainBuild(_Record):
    """A three-component negacyclic chain product (family, l, the depth
    triple, the classical code and its distance report, the quantum record)
    plus its claimed record."""

    __slots__ = ("family", "l", "deltas", "classical", "classical_distance", "quantum", "claimed")

    @property
    def discrepancy(self) -> dict | None:
        return self.quantum.discrepancy

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "l": self.l,
            "deltas": list(self.deltas),
            "classical": {
                "n": self.classical.n,
                "k": self.classical.k,
                "d": self.classical_distance.to_dict(),
            },
            "quantum": self.quantum.to_dict(),
            "claimed": self.claimed,
        }


def chain_claimed_params(l: int, deltas: Sequence[int], family: str) -> dict:
    """The stated chain output: k = 3n - 2*(sum of depths), d >= d(C3)."""
    n = l * l + 1 if family == "full" else (l * l + 1) // 2
    d3 = 2 * deltas[2] + 2 if family == "full" else 2 * deltas[2] + 1
    claimed = {"n": 3 * n, "k": 3 * n - 2 * sum(deltas), "d_geq": d3}
    if family == "half":
        claimed["base"] = l * l  # as stated; the construction actually lands in base l
    else:
        claimed["base"] = l
    return claimed


def build_chain(
    l: int, deltas: Sequence[int], family: str = "full", strict: bool = False
) -> ChainBuild:
    """Three nested negacyclic codes chained under the fixed NSC
    upper-triangular matrix, then the Hermitian construction.

    The emitted quantum record holds the independently computed parameters;
    the claimed formula values ride along in the discrepancy field whenever
    they disagree (dimension bookkeeping in the claims counts one residue
    per depth step, but the cosets pair up, so they usually do).
    """
    if family not in ("full", "half"):
        raise ValueError("family must be 'full' or 'half'")
    deltas = tuple(int(x) for x in deltas)
    if len(deltas) != 3:
        raise ValueError("exactly three depths")
    problem = _chain_deltas_ok(deltas, l, family, strict)
    if problem:
        raise ConstructionError(problem)
    if family == "full":
        if l % 4 != 1:
            raise ConstructionError(f"l = {l} is not 1 mod 4")
    else:
        split_prime_power(l)
        if l < 7 or l % 2 == 0:
            raise ConstructionError(f"l = {l} is not an odd prime power >= 7")
    n, sets = _chain_defining_sets(l, deltas, family)

    fld = square_field(l)
    codes = [negacyclic_code(n, fld, Z) for Z in sets]
    # distances are exact by squeeze: the consecutive-run bound meets the
    # Singleton bound for these defining sets
    reports = [distance_report(Z) for Z in sets]
    if not all(r.exact for r in reports):
        raise ConsistencyError("run bound fails to meet the Singleton bound")

    A = _chain_matrix(fld)
    classical = nested_chain_product(codes, A)
    report = product_distance_report(codes, [r.lower for r in reports], A)
    qp = hermitian_construction(classical, report)
    claimed = chain_claimed_params(l, deltas, family)
    computed = {"n": qp.n, "k": qp.k, "d_geq": qp.d_lower, "base": qp.base}
    if claimed != computed:
        qp = QuantumParams(
            qp.n, qp.k, qp.d_lower, qp.base, qp.provenance, qp.verified, qp.d_exact,
            discrepancy={
                "source": f"chain:{family}",
                "inputs": {"l": l, "deltas": list(deltas)},
                "claimed": claimed,
                "computed": computed,
            },
        )
    return ChainBuild(family, l, deltas, classical, report, qp, claimed)


def chain_audit(l: int, deltas: tuple[int, int, int], family: str) -> dict:
    """Arithmetic-level audit of one depth triple: true dimensions from the
    coset sizes and a certified distance floor from the run bounds under the
    chain matrix's NSC weights.  No matrices are built, so this scales to any
    subfield order."""
    n, sets = _chain_defining_sets(l, deltas, family)
    m = len(_CHAIN_MATRIX_ROWS[0])
    K = sum(n - len(Z) for Z in sets)
    return {
        "deltas": deltas,
        "n": m * n,
        "k": 2 * K - m * n,
        "d_geq": nsc_dstar([bch_bound(Z) for Z in sets], m),
        "claimed": chain_claimed_params(l, deltas, family),
    }


def table1_formula_audit() -> list[dict]:
    """Recompute every TABLE1 row from the formulas and compare."""
    out = []
    for row in TABLE1:
        qp = formula_params(row["l"], row["d"], row["case"])
        n, k, d = row["new"]
        out.append(
            {
                "l": row["l"],
                "d": row["d"],
                "case": row["case"],
                "claimed": {"n": n, "k": k, "d_geq": d},
                "formula": {"n": qp.n, "k": qp.k, "d_geq": qp.d_lower},
                "compare": {"n": row["compare"][0], "k": row["compare"][1], "d": row["compare"][2]},
                "match": (qp.n, qp.k, qp.d_lower) == (n, k, d),
            }
        )
    return out
