import pytest

from mpqc.claims import CHAIN_EXAMPLES, TABLE1
from mpqc.code import DistanceReport, LinearCode
from mpqc.constructions import ConstructionError
from mpqc.matrix import Matrix
from mpqc.quantum import (
    QuantumParams,
    SingletonViolation,
    admissible_triples,
    build_case,
    build_chain,
    chain_audit,
    chain_claimed_params,
    formula_params,
    hermitian_construction,
    singleton_check,
    table1_formula_audit,
)


def test_full_space_yields_trivial_code(F9):
    C = LinearCode.full_space(F9, 4)
    qp = hermitian_construction(C, DistanceReport(1, 1, "exhaustive", "exhaustive"))
    assert (qp.n, qp.k, qp.d_lower, qp.base) == (4, 4, 1, 3)
    assert qp.verified


def test_centered_negacyclic_to_quantum(F25):
    from mpqc.constructions import negacyclic_mds_dual_containing

    C = negacyclic_mds_dual_containing(5, 4)  # [26, 23, 4]
    qp = hermitian_construction(C, DistanceReport(4, 4, "mds-certificate", "mds-certificate"))
    assert (qp.n, qp.k, qp.d_lower) == (26, 20, 4)


def test_refusal_of_non_containing(F9):
    C = LinearCode.from_generator(Matrix(F9, [[1, 0]]))
    with pytest.raises(ConstructionError):
        hermitian_construction(C, DistanceReport(2, 2, "exhaustive", "exhaustive"))


def test_singleton_enforced_at_creation():
    with pytest.raises(SingletonViolation):
        QuantumParams(n=10, k=8, d_lower=4, base=3, provenance="adversarial", verified=False)


def test_singleton_check_values():
    mds = QuantumParams(78, 68, 6, 5, "transcribed", False, d_exact=6)
    rep = singleton_check(mds)
    assert rep.defect == 0 and rep.is_mds and not rep.approximate

    loose = QuantumParams(96, 86, 4, 5, "formula:i", False)
    rep = singleton_check(loose)
    assert rep.defect == 4 and not rep.is_mds and rep.approximate

    degenerate = QuantumParams(4, 4, 1, 3, "trivial", False, d_exact=1)
    assert singleton_check(degenerate).is_mds


@pytest.mark.parametrize("row", TABLE1, ids=lambda r: f"{r['l']}-{r['d']}-{r['case']}")
def test_formula_reproduces_each_row(row):
    qp = formula_params(row["l"], row["d"], row["case"])
    assert (qp.n, qp.k, qp.d_lower) == row["new"]


def test_formula_audit_all_match():
    assert all(r["match"] for r in table1_formula_audit())


def test_formula_range_guards():
    with pytest.raises(ValueError):
        formula_params(5, 5, "i")  # congruence
    with pytest.raises(ValueError):
        formula_params(5, 8, "i")  # above l
    with pytest.raises(ValueError):
        formula_params(5, 4, "vii")
    # d = l + 1 admissible only in the longest-length cases
    formula_params(7, 8, "v")
    with pytest.raises(ValueError):
        formula_params(7, 8, "iii")


def test_build_small_rows_verified():
    cb = build_case(5, 4, "i")
    assert (cb.classical.n, cb.classical.k) == (96, 91)
    assert [c.params() for c in cb.components] == [(24, 24), (24, 23), (24, 23), (24, 21)]
    assert cb.built.verified and cb.built.discrepancy is None
    assert (cb.built.n, cb.built.k, cb.built.d_lower) == (96, 86, 4)

    cb = build_case(5, 4, "v")
    assert (cb.built.n, cb.built.k, cb.built.d_lower) == (104, 94, 4)
    assert [c.params() for c in cb.components] == [(26, 26), (26, 25), (26, 25), (26, 23)]


def test_build_extended_length_case():
    cb = build_case(5, 4, "iii")
    assert [c.params() for c in cb.components] == [(25, 25), (25, 24), (25, 24), (25, 22)]
    assert (cb.built.n, cb.built.k, cb.built.d_lower) == (100, 90, 4)
    assert cb.built.verified and cb.built.discrepancy is None


def test_build_odd_component_distance_unreachable():
    # the longest-length family only exists at even distances, so the
    # d = 3 mod 4 case there dies on its depth-d component
    with pytest.raises(ConstructionError):
        build_case(13, 7, "vi")


def test_build_range_refusal():
    with pytest.raises(ValueError):
        build_case(3, 3, "ii")  # below the stated floor d >= 4
    with pytest.raises(ValueError):
        build_case(5, 3, "ii")


@pytest.mark.parametrize("check_range", [True, False])
def test_build_unknown_case_is_refused_like_the_formula(check_range):
    with pytest.raises(ValueError) as formula:
        formula_params(5, 4, "vii")
    with pytest.raises(ValueError) as built:
        build_case(5, 4, "vii", check_range=check_range)
    assert type(built.value) is ValueError
    assert str(built.value) == str(formula.value) == "unknown case 'vii'; expected i..vi"


def test_build_out_of_range_audit_shows_mismatch():
    # audited below the stated range: the formula arithmetic and the
    # actual construction disagree by four dimensions
    cb = build_case(5, 3, "ii", check_range=False)
    assert (cb.built.n, cb.built.k) == (96, 88)
    assert cb.built.discrepancy["claimed"]["k"] == 92
    assert cb.built.discrepancy["claimed"]["out_of_range"]


def test_chain_claimed_params():
    assert chain_claimed_params(5, (0, 1, 2), "full") == {
        "n": 78,
        "k": 72,
        "d_geq": 6,
        "base": 5,
    }
    claimed = chain_claimed_params(7, (1, 2, 3), "half")
    assert claimed == {"n": 75, "k": 63, "d_geq": 7, "base": 49}


def test_chain_build_full_family():
    cb = build_chain(5, (0, 1, 2), "full")
    assert (cb.classical.n, cb.classical.k) == (78, 69)
    assert cb.classical_distance.exact and cb.classical_distance.lower == 6
    assert (cb.quantum.n, cb.quantum.k, cb.quantum.d_lower) == (78, 60, 6)
    assert cb.quantum.verified
    disc = cb.quantum.discrepancy
    assert disc["claimed"]["k"] == 72 and disc["computed"]["k"] == 60


def test_chain_build_degenerate_depths():
    cb = build_chain(5, (0, 0, 0), "full")
    assert cb.classical_distance.lower == 2
    assert (cb.quantum.n, cb.quantum.k) == (78, 72)


def test_chain_build_half_family():
    cb = build_chain(7, (1, 2, 3), "half")
    assert (cb.classical.n, cb.classical.k) == (75, 63)
    assert cb.classical_distance.lower == 7
    assert (cb.quantum.n, cb.quantum.k, cb.quantum.d_lower) == (75, 51, 7)
    assert cb.quantum.base == 7  # the claim says base 49; the construction lands in base l
    assert cb.quantum.discrepancy["claimed"]["base"] == 49


def test_chain_strict_mode():
    with pytest.raises(ConstructionError):
        build_chain(5, (0, 1, 2), "full", strict=True)
    cb = build_chain(13, (1, 2, 3), "full", strict=True)
    assert cb.classical.n == 510


def test_chain_rejects_bad_family_inputs():
    with pytest.raises(ConstructionError):
        build_chain(7, (0, 1, 2), "full")  # 7 is 3 mod 4
    with pytest.raises(ConstructionError):
        build_chain(5, (1, 2, 3), "half")  # half family starts at l = 7
    with pytest.raises(ConstructionError):
        build_chain(5, (2, 1, 0), "full")  # not sorted


def _nested_loop_triples(l, family, strict):
    top = (l - 1) // 2
    lo = 1 if strict or family == "half" else 0
    step = 1 if strict else 0
    return [
        (d1, d2, d3)
        for d1 in range(lo, top + 1)
        for d2 in range(d1 + step, top + 1)
        for d3 in range(d2 + step, top + 1)
    ]


@pytest.mark.parametrize("l", [1, 3, 5, 7, 9, 11, 13, 17, 29])
def test_admissible_triples_in_lexicographic_order(l):
    for family in ("full", "half"):
        for strict in (False, True):
            assert admissible_triples(l, family, strict) == _nested_loop_triples(l, family, strict)


def test_chain_audit_matches_the_built_chain():
    for l, deltas, family in ((5, (0, 1, 2), "full"), (7, (1, 2, 3), "half"), (7, (1, 1, 2), "half")):
        cb = build_chain(l, deltas, family)
        audit = chain_audit(l, deltas, family)
        assert (audit["n"], audit["k"], audit["d_geq"]) == (cb.quantum.n, cb.quantum.k, cb.quantum.d_lower)
        assert audit["claimed"] == cb.claimed


def test_claims_tables_shape():
    assert len(TABLE1) == 10
    assert set(CHAIN_EXAMPLES) == {"3.8", "3.10"}
    assert CHAIN_EXAMPLES["3.8"]["claims"][5] == [(78, 72, 4), (78, 68, 6)]
    assert CHAIN_EXAMPLES["3.10"]["claims"][7] == [(75, 67, 5), (75, 63, 7)]
