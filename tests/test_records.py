"""The result records: immutable value tuples, and cheap to import.

Each record derives from `scalars.Record`, a tuple whose fields are the class
body's annotated names: its repr lists the fields in order, it cannot be
assigned to, and two records with equal fields are equal and hash alike (a
record holding a dict or a Matrix is unhashable, as its field tuple is).  It
keeps namedtuple's `_fields`, `_field_defaults`, `_make`, `_replace` and
`_asdict`, but compiles no generated source, so a cold import runs no
`compile()`.  Neither the library nor the CLI loads `typing`, `dataclasses`
or `inspect`, nor `fractions` with `decimal` and `numbers`; the library loads
no `json`.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from leibniz_lab import (BasisChange, CanonicalForm, Classification, ExtensionSpec, L41Params,
                         MaxExtensionCheck, ResidueReport, ShapeReport,
                         StructureMatrices, TableChecks, build_extension,
                         check_structure_shape, classify_L41, derive_relations,
                         structure_matrices, triangular, verify_max_extension_is_lie)
from leibniz_lab.cli import Report
from leibniz_lab.scalars import ONE, ZERO, Scalar

SRC = Path(__file__).resolve().parents[1] / "src"

SPEC = {"a1_12_12": ONE, "a1_23_23": Scalar(2)}
MEMBER = L41Params(a_23_23=Scalar(2), a_23_14=Scalar(3), b_23_14=Scalar(-3),
                   a_12_24=Scalar(4), a_34_13=Scalar(5), b_12_14=ONE, s_14=Scalar(6))

# record -> (a builder of one instance, its fields in order)
RECORDS = {
    "TableChecks": (lambda: TableChecks.of(triangular(4)),
                    ("leibniz", "lie", "nilpotent", "solvable", "signature")),
    "L41Params": (lambda: MEMBER,
                  ("a_12_12", "a_12_24", "b_12_14", "a_23_23", "a_23_14",
                   "b_23_14", "a_34_13", "b_34_14", "s_14")),
    "CanonicalForm": (lambda: CanonicalForm("L1", {"b_12_14": ONE}), ("id", "params")),
    "Classification": (lambda: classify_L41(MEMBER), ("form", "witness", "case", "note")),
    "ResidueReport": (lambda: derive_relations(3, 1),
                      ("n", "f", "seed", "residue_count", "rounds", "derived_linear",
                       "expected_linear", "linear_matches_expected",
                       "unexplained_linear", "missing_linear", "unexplained_residual",
                       "quadratic_residuals", "stated_products", "tracefree_covered",
                       "extra_quadratics", "sample_points", "sampling_ok", "witness")),
    "ExtensionSpec": (lambda: ExtensionSpec(4, 1, SPEC), ("n", "f", "params")),
    "MaxExtensionCheck": (lambda: verify_max_extension_is_lie(4, samples=2),
                          ("n", "f", "seed", "samples", "corrupt",
                           "skew_relations_forced", "missing_relations",
                           "all_samples_lie", "nonlie_samples")),
    "StructureMatrices": (lambda: structure_matrices(
                              build_extension(ExtensionSpec(4, 1, SPEC)), 4, 1),
                          ("n", "a", "b")),
    "ShapeReport": (lambda: check_structure_shape(structure_matrices(
                        build_extension(ExtensionSpec(4, 1, SPEC)), 4, 1)),
                    ("upper_triangular", "offdiagonal_support_ok", "diagonal_sums_ok",
                     "violations")),
    "Report": (lambda: Report("check", {"dim": 6}, ["out.json"], 1),
               ("command", "verdicts", "artifacts", "exit_code")),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_value_tuples(name):
    build, fields = RECORDS[name]
    rec = build()
    assert type(rec).__name__ == name
    values = tuple(getattr(rec, f) for f in fields)
    assert repr(rec) == f"{name}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, None)
    twin = type(rec)(**dict(zip(fields, values)))
    assert twin == rec and twin is not rec
    try:
        want = hash(values)
    except TypeError:  # a field holds a dict or a Matrix
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin) == want


def test_records_built_apart_compare_by_value():
    assert L41Params(a_12_12=ONE) == L41Params(a_12_12=ONE) != L41Params(a_23_23=ONE)
    assert derive_relations(3, 1) == derive_relations(3, 1)
    first, second = (verify_max_extension_is_lie(4, samples=2) for _ in range(2))
    assert first == second and hash(first) == hash(second)


def test_replace_checks_spec_parameters():
    spec = ExtensionSpec(4, 1, SPEC)
    assert spec._replace(params={"a1_12_12": ONE}).params == {"a1_12_12": ONE}
    with pytest.raises(ValueError, match="unknown parameter 'nope' for n=4, f=1"):
        spec._replace(params={"nope": ONE})


def test_report_artifacts_default_to_an_empty_tuple():
    first, second = Report("series", {}), Report("check", {})
    assert first.artifacts == () and second.artifacts == ()
    with pytest.raises(AttributeError):  # nothing to append to, so nothing is shared
        first.artifacts.append("out.json")
    assert first.exit_code == 0


def _comparable(values):
    """A record's values, with a basis change (equal only to itself) as its matrix."""
    return tuple(v.p if isinstance(v, BasisChange) else v for v in values)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_keep_the_namedtuple_contract(name):
    build, fields = RECORDS[name]
    rec = build()
    cls, values = type(rec), dict(zip(fields, rec))
    assert cls._fields == fields and not hasattr(rec, "__dict__")
    assert rec._asdict() == values and list(rec._asdict()) == list(fields)
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), cls._make(iter(rec)),
                 rec._replace(), rec._replace(**{fields[0]: rec[0]})):
        assert type(twin) is cls and _comparable(twin) == _comparable(rec)
    for wrong_length in (tuple(rec)[:-1], (*rec, None)):
        with pytest.raises(TypeError):
            cls._make(wrong_length)
    with pytest.raises(ValueError, match="nope"):
        rec._replace(nope=None)
    with pytest.raises(TypeError):  # surplus
        cls(*rec, None)
    with pytest.raises(TypeError):  # unknown
        cls(**values, nope=None)
    with pytest.raises(TypeError):  # given twice
        cls(rec[0], **values)
    required = [f for f in fields if f not in cls._field_defaults]
    for missing in required:
        with pytest.raises(TypeError):
            cls(**{f: v for f, v in values.items() if f != missing})


def test_record_defaults_fill_the_fields_not_given():
    assert L41Params() == L41Params(*[ZERO] * 9) == L41Params.from_mapping({})
    assert L41Params(ZERO, s_14=ONE) == L41Params(s_14=ONE) != L41Params()
    assert Report("check", {}) == ("check", {}, (), 0)
    assert Report("check", {}, exit_code=2) == ("check", {}, (), 2)
    assert Classification(*RECORDS["Classification"][0]()[:3]).note is None
    assert L41Params._field_defaults == dict.fromkeys(L41Params._fields, ZERO)
    assert Report._field_defaults == {"artifacts": (), "exit_code": 0}
    assert ExtensionSpec._field_defaults == {}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import leibniz_lab; print(leibniz_lab.__file__); "
             "print(*sorted(set(sys.modules) - before)); "
             "import leibniz_lab.cli; print(*sorted(set(sys.modules) - before))")
    # with -S no site hook has loaded `typing` first, so a new import of it shows
    for flags in (["-I"], ["-I", "-S"]):
        done = subprocess.run([sys.executable, *flags, "-c", probe, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        where, by_library, by_cli = done.stdout.splitlines()
        assert Path(where).resolve().parent.parent == SRC
        by_library, by_cli = set(by_library.split()), set(by_cli.split())
        assert "leibniz_lab.scalars" in by_library and "leibniz_lab.cli" in by_cli
        # the CLI prints JSON, so it alone loads `json`
        assert not by_library & {"dataclasses", "inspect", "fractions", "decimal", "numbers",
                                 "json", "typing"}, flags
        assert not by_cli & {"dataclasses", "inspect", "fractions", "decimal", "numbers",
                             "typing"}, flags


HEAVY_MODULES = ("fractions", "decimal", "numbers", "dataclasses", "inspect", "typing", "json")


@pytest.mark.parametrize("package, allowed", [("leibniz_lab", ()),
                                              ("leibniz_lab.cli", ("json",))])
def test_an_isolated_import_leaves_the_heavy_modules_unloaded(package, allowed):
    """Under -I -S no site hook runs, so whatever of these is loaded after
    the import, the interpreter's own start-up included, costs set-up time."""
    probe = (f"import sys; sys.path.insert(0, sys.argv[1]); import {package}; "
             f"print(*[m for m in {HEAVY_MODULES!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == list(allowed)


COMPILE_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
compiles = []
def audit(event, args):
    if event == "compile":
        compiles[-1] += 1
sys.addaudithook(audit)
for name in ("leibniz_lab", "leibniz_lab.cli"):
    compiles.append(0)
    __import__(name)
print(*compiles)
"""


def test_a_cold_import_compiles_nothing():
    """Records are built from their class bodies, never from generated source."""
    warm = "import sys; sys.path.insert(0, sys.argv[1]); import leibniz_lab.cli"
    subprocess.run([sys.executable, "-I", "-c", warm, str(SRC)],  # writes the bytecode
                   capture_output=True, timeout=60, check=True)
    done = subprocess.run([sys.executable, "-I", "-c", COMPILE_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["0", "0"]
