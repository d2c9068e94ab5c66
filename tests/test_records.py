"""The result records: immutable value tuples, and cheap to import.

Each record is a `typing.NamedTuple`: its repr lists the fields in order,
it cannot be assigned to, and two records with equal fields are equal and
hash alike (a record holding a dict or a Matrix is unhashable, as its
field tuple is).  Neither the library nor the CLI loads `dataclasses` or
`inspect`, which together took about half of a cold `import leibniz_lab`,
nor `fractions` with `decimal` and `numbers`; the library loads no `json`.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from leibniz_lab import (CanonicalForm, Classification, ExtensionSpec, L41Params,
                         MaxExtensionCheck, ResidueReport, ShapeReport,
                         StructureMatrices, TableChecks, build_extension,
                         check_structure_shape, classify_L41, derive_relations,
                         structure_matrices, triangular, verify_max_extension_is_lie)
from leibniz_lab.cli import Report
from leibniz_lab.scalars import ONE, Scalar

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
    "ResidueReport": (lambda: derive_relations(3, 1, sample_points=20),
                      ("n", "f", "seed", "residue_count", "rounds", "derived_linear",
                       "expected_linear", "linear_matches_expected",
                       "unexplained_linear", "missing_linear", "unexplained_residual",
                       "quadratic_residuals", "stated_products", "tracefree_covered",
                       "extra_quadratics", "sample_points", "sampling_ok")),
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
    assert derive_relations(3, 1, sample_points=20) == derive_relations(3, 1, sample_points=20)
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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import leibniz_lab; print(leibniz_lab.__file__); "
             "print(*sorted(set(sys.modules) - before)); "
             "import leibniz_lab.cli; print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    where, by_library, by_cli = done.stdout.splitlines()
    assert Path(where).resolve().parent.parent == SRC
    by_library, by_cli = set(by_library.split()), set(by_cli.split())
    assert "leibniz_lab.scalars" in by_library and "leibniz_lab.cli" in by_cli
    # the CLI prints JSON, so it alone loads `json`
    assert not by_library & {"dataclasses", "inspect", "fractions", "decimal", "numbers", "json"}
    assert not by_cli & {"dataclasses", "inspect", "fractions", "decimal", "numbers"}
