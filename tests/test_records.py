"""The immutable records: construction, validation, immutability, == and
hash; and a cold ``import mpqc.cli``, which loads no dataclass machinery."""

import os
import pathlib
import subprocess
import sys

import pytest

import mpqc
from mpqc.code import DistanceReport, LinearCode
from mpqc.constructions import GrsSpec
from mpqc.gf import field
from mpqc.negacyclic import DefiningSet, NegacyclicError, negacyclic_code
from mpqc.quantum import CaseBuild, ChainBuild, QuantumParams, SingletonReport, SingletonViolation

F9 = field(3, 2)
CODE, CODE2 = LinearCode.full_space(F9, 4), LinearCode.zero_code(F9, 4)
QP = QuantumParams(10, 2, 3, 3, "hermitian(bch)", True)
QP2 = QuantumParams(12, 4, 2, 5, "formula:i", False, 2)
REPORT, REPORT2 = DistanceReport(2, 4, "bch", "singleton"), DistanceReport(3, 3, "mds", "mds")

# per record: its fields, a valid value for each, and a second value for each
# such that swapping any one field in keeps the record valid
RECORDS = {
    DistanceReport: (
        ("lower", "upper", "lower_provenance", "upper_provenance"),
        (2, 4, "bch", "singleton"),
        (3, 5, "exhaustive", "mds-certificate"),
    ),
    GrsSpec: (("points", "multipliers", "k"), ((1, 2, 3), (1, 1, 1), 2), ((4, 5, 6), (2, 2, 2), 1)),
    # {1, 9} is closed under *9 mod 10, and so is {3, 7}; {1, 9} also under
    # *9 mod 20 and *49 mod 10
    DefiningSet: (("residues", "n", "q"), ((1, 9), 5, 9), ((3, 7), 10, 49)),
    QuantumParams: (
        ("n", "k", "d_lower", "base", "provenance", "verified", "d_exact", "discrepancy"),
        (10, 2, 3, 3, "hermitian(bch)", True, None, None),
        (12, 4, 2, 5, "formula:i", False, 2, {"source": "case:i"}),
    ),
    SingletonReport: (("defect", "is_mds", "approximate"), (0, True, False), (2, False, True)),
    CaseBuild: (
        ("built", "formula", "classical", "components", "component_distances"),
        (QP, None, CODE, (CODE,) * 4, (1, 1, 1, 1)),
        (QP2, QP, CODE2, (CODE2,) * 4, (1, 2, 2, 4)),
    ),
    ChainBuild: (
        ("family", "l", "deltas", "classical", "classical_distance", "quantum", "claimed"),
        ("full", 5, (0, 1, 2), CODE, REPORT, QP, {"n": 78}),
        ("half", 7, (1, 2, 3), CODE2, REPORT2, QP2, {"n": 75}),
    ),
}
# everything but ChainBuild, whose claimed record is a dict
HASHED = [cls for cls in RECORDS if cls is not ChainBuild]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_by_position_and_by_keyword(cls):
    names, values, _ = RECORDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    for rec in (by_position, by_keyword):
        assert [getattr(rec, name) for name in names] == list(values)
    # missing, extra, unknown and twice-given fields
    for args, kwargs in [
        (values[:2], {}),
        (values + (None,), {}),
        (values, {"extra": 1}),
        (values, {names[0]: values[0]}),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_quantum_params_defaults():
    qp = QuantumParams(n=10, k=2, d_lower=3, base=3, provenance="p", verified=True)
    assert qp.d_exact is None and qp.discrepancy is None
    assert QuantumParams(10, 2, 3, 3, "p", True, 3).d_exact == 3
    for cls in RECORDS:
        if cls is not QuantumParams:  # no other record has a default
            with pytest.raises(TypeError):
                cls(*RECORDS[cls][1][:-1])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, values, others = RECORDS[cls]
    rec = cls(*values)
    for name, other in zip(names, others):
        with pytest.raises(AttributeError):
            setattr(rec, name, other)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.unknown = 1
    assert [getattr(rec, name) for name in names] == list(values)


@pytest.mark.parametrize(
    "cls,args,exc,text",
    [
        (DistanceReport, (3, 2, "a", "b"), ValueError, "bad distance bounds 3..2"),
        (DistanceReport, (0, 2, "a", "b"), ValueError, "bad distance bounds 0..2"),
        (GrsSpec, ((1, 2), (1,), 1), ValueError, "one multiplier per point"),
        (GrsSpec, ((1, 1), (1, 1), 1), ValueError, "evaluation points must be distinct"),
        (GrsSpec, ((1, 2), (1, 0), 1), ValueError, "multipliers must be nonzero"),
        (GrsSpec, ((1, 2), (1, 1), 3), ValueError, "dimension out of range"),
        (GrsSpec, ((1, 2), (1, 1), -1), ValueError, "dimension out of range"),
        (DefiningSet, ((1, 2), 5, 9), NegacyclicError, "negacyclic defining sets hold odd residues only"),
        (DefiningSet, ((1, 9, 11), 5, 9), NegacyclicError, "residues out of range mod 2n"),
        (DefiningSet, ((-1, 1, 9), 5, 9), NegacyclicError, "residues out of range mod 2n"),
        (DefiningSet, ((1,), 5, 9), NegacyclicError, "residues not closed under *9 mod 10"),
        (QuantumParams, (10, 8, 4, 3, "p", False), SingletonViolation, "[[10,8,4]] violates 2d <= n-k+2"),
        # d_exact, when given, is what the bound reads
        (QuantumParams, (10, 8, 1, 3, "p", False, 3), SingletonViolation, "[[10,8,3]] violates 2d <= n-k+2"),
    ],
)
def test_validation_errors_keep_their_text(cls, args, exc, text):
    with pytest.raises(exc) as info:
        cls(*args)
    assert str(info.value) == text
    assert type(info.value) is exc


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_reads_every_compared_field(cls):
    names, values, others = RECORDS[cls]
    rec = cls(*values)
    assert rec == cls(*values) and not rec != cls(*values)
    assert rec != values and values != rec  # a record is not its field tuple
    for i, name in enumerate(names):
        swapped = cls(*values[:i], others[i], *values[i + 1 :])
        if (cls, name) == (QuantumParams, "discrepancy"):
            assert swapped == rec and hash(swapped) == hash(rec)
        else:
            assert swapped != rec, name


@pytest.mark.parametrize("cls", HASHED, ids=lambda cls: cls.__name__)
def test_equal_records_hash_equal(cls):
    _, values, others = RECORDS[cls]
    assert hash(cls(*values)) == hash(cls(*values))
    assert len({cls(*values), cls(*values), cls(*others)}) == 2


def test_quantum_params_ignores_discrepancy():
    plain = QuantumParams(10, 2, 3, 3, "p", True)
    noted = QuantumParams(10, 2, 3, 3, "p", True, discrepancy={"source": "chain:full"})
    assert plain == noted and hash(plain) == hash(noted)
    assert noted.discrepancy == {"source": "chain:full"}
    assert plain != QuantumParams(10, 2, 3, 3, "p", True, 3)


def test_an_equal_defining_set_finds_the_kept_code():
    # negacyclic codes are kept per (n, field, defining set)
    fld = field(5, 2)
    first = negacyclic_code(13, fld, DefiningSet((13,), 13, 25))
    assert negacyclic_code(13, fld, DefiningSet(residues=(13,), n=13, q=25)) is first


def test_repr_names_every_field():
    assert repr(REPORT) == (
        "DistanceReport(lower=2, upper=4, lower_provenance='bch', upper_provenance='singleton')"
    )


COLD_IMPORT = """
import sys
import mpqc.cli
print([m for m in ("dataclasses", "inspect", "ast", "dis") if m in sys.modules])
print(sorted(m for m in sys.modules if m.startswith("mpqc.")))
"""


def test_cold_cli_import_loads_every_module_and_no_dataclass_machinery():
    # `dataclasses` pulls in inspect, ast, dis and tokenize, which cost a cold
    # process several milliseconds.  -S keeps site's own imports out of the
    # count.  Every package module is loaded by the CLI import, so a tracer
    # installed after it sees all of them
    src = os.path.dirname(os.path.dirname(mpqc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", COLD_IMPORT], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    heavy, loaded = out.stdout.splitlines()
    assert heavy == "[]"
    modules = sorted(
        f"mpqc.{p.stem}" for p in pathlib.Path(mpqc.__file__).parent.glob("*.py") if p.stem != "__init__"
    )
    assert loaded == repr(modules)
