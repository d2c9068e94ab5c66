"""Structure tables: brackets, identities, series, derivations, transport."""

import json
import random
from fractions import Fraction

import pytest

from leibniz_lab.algebra import (BasisChange, StructureTable, TableChecks,
                                 bracket, change_of_basis, derivation_algebra,
                                 derived_series, dumps_table, is_derivation,
                                 is_ideal, is_leibniz, is_lie, is_nilpotent,
                                 is_solvable, leibniz_residues, load_table,
                                 loads_table, lower_central_series,
                                 mult_matrix, right_annihilator, save_table,
                                 series_signature, table_from_document,
                                 table_to_document)
from leibniz_lab.linalg import Matrix, span
from leibniz_lab.scalars import ONE, ZERO, Scalar
from leibniz_lab.triangular import triangular


def sc(x):
    return Scalar(Fraction(x))


def basis_vec(table, label):
    return table.basis_vector(table.index(label))


T4 = triangular(4)


# -- brackets ----------------------------------------------------------------

def test_t4_bracket_oracles():
    cases = [
        ("N12", "N23", {"N13": ONE}),
        ("N23", "N34", {"N24": ONE}),
        ("N13", "N34", {"N14": ONE}),
        ("N34", "N13", {"N14": -ONE}),
        ("N12", "N34", {}),
        ("N12", "N24", {"N14": ONE}),
        ("N24", "N12", {"N14": -ONE}),
        ("N12", "N12", {}),
    ]
    for left, right, want in cases:
        got = bracket(T4, basis_vec(T4, left), basis_vec(T4, right))
        expect = [ZERO] * T4.dim
        for lab, c in want.items():
            expect[T4.index(lab)] = c
        assert got == expect, (left, right)


def test_bracket_is_bilinear():
    x = [sc(2), sc(0), sc(-1), sc(0), sc(3), sc(0)]
    y = [sc(0), sc(1), sc(0), sc(5), sc(0), sc(-2)]
    z = [sc(1), sc(1), sc(1), sc(0), sc(0), sc(0)]
    lhs = bracket(T4, x, [a + b for a, b in zip(y, z)])
    rhs = [a + b for a, b in zip(bracket(T4, x, y), bracket(T4, x, z))]
    assert lhs == rhs


def test_triangular_is_lie():
    for n in (3, 4, 5):
        t = triangular(n)
        assert is_leibniz(t)
        assert is_lie(t)


def test_corrupted_table_is_caught():
    entries = dict(T4.c)
    # break one bracket: make [N12, N23] = 2*N13
    entries[(0, 1)] = {3: sc(2)}
    broken = StructureTable(6, T4.labels, entries)
    assert not is_leibniz(broken)
    bad = leibniz_residues(broken)
    assert bad and all(comps for _, comps in bad)


def test_nonskew_table_is_leibniz_but_not_lie():
    # one-dimensional algebra with [e,e] = 0 is Lie; with a second basis
    # vector z and [e,e] = z, z central, it is Leibniz only
    t = StructureTable(2, ["e", "z"], {(0, 0): {1: ONE}})
    assert is_leibniz(t)
    assert not is_lie(t)


def test_mult_matrix_oracle():
    m = mult_matrix(T4, basis_vec(T4, "N23"), "right")
    want = Matrix.zeros(6, 6).copy_rows()
    want[T4.index("N13")][T4.index("N12")] = ONE
    want[T4.index("N24")][T4.index("N34")] = -ONE
    assert m == Matrix(want, ncols=6)
    # left multiplication by the same element is the negative for a Lie table
    assert mult_matrix(T4, basis_vec(T4, "N23"), "left") == \
        Matrix([[-x for x in row] for row in m.rows], ncols=6)


def test_mult_matrix_rejects_bad_side():
    with pytest.raises(ValueError):
        mult_matrix(T4, basis_vec(T4, "N12"), "up")


def test_right_multiplications_are_derivations():
    for lab in T4.labels:
        assert is_derivation(T4, mult_matrix(T4, basis_vec(T4, lab), "right"))


def test_scaling_map_is_not_a_derivation():
    assert not is_derivation(T4, Matrix.identity(6))


# -- structural invariants ---------------------------------------------------

def test_right_annihilator_of_t4_is_the_corner():
    ann = right_annihilator(T4)
    assert ann.dim == 1
    assert ann.contains(basis_vec(T4, "N14"))


def test_series_signatures():
    assert series_signature(T4) == ((6, 3, 1, 0), (6, 3, 0))
    assert series_signature(triangular(5)) == ((10, 6, 3, 1, 0), (10, 6, 1, 0))


def test_nilpotent_and_solvable():
    assert is_nilpotent(T4) and is_solvable(T4)
    checks = TableChecks.of(T4)
    assert checks.leibniz and checks.lie and checks.nilpotent and checks.solvable
    assert checks.signature == ((6, 3, 1, 0), (6, 3, 0))


def test_table_checks_agree_with_the_single_analyses():
    nonskew = StructureTable(2, ["e", "z"], {(0, 0): {1: ONE}})
    entries = dict(T4.c)
    entries[(0, 1)] = {3: sc(2)}
    broken = StructureTable(6, T4.labels, entries)
    for table in (T4, triangular(5), nonskew, broken):
        assert TableChecks.of(table) == TableChecks(
            leibniz=is_leibniz(table), lie=is_lie(table),
            nilpotent=is_nilpotent(table), solvable=is_solvable(table),
            signature=series_signature(table))


def test_series_dims_decrease():
    lc = [s.dim for s in lower_central_series(T4)]
    dv = [s.dim for s in derived_series(T4)]
    assert lc == sorted(lc, reverse=True)
    assert dv == sorted(dv, reverse=True)


def test_derived_subalgebra_is_an_ideal():
    derived = derived_series(T4)[1]
    assert is_ideal(T4, derived)
    assert not is_ideal(T4, span([basis_vec(T4, "N12")], ambient=6))


def test_derivation_algebra_dims():
    # dimension follows (n^2 + 3n - 6) / 2 for the triangular family
    assert derivation_algebra(triangular(3)).dim == 6
    assert derivation_algebra(T4).dim == 11


def test_derivation_algebra_members_check_out():
    der = derivation_algebra(T4)
    for row in der.mat.rows:
        d = Matrix([row[k * 6:(k + 1) * 6] for k in range(6)], ncols=6)
        assert is_derivation(T4, d)


# -- change of basis ---------------------------------------------------------

def scramble(dim, seed):
    rng = random.Random(seed)
    while True:
        rows = [[sc(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisChange(Matrix(rows, ncols=dim))
        except ValueError:
            continue


def test_identity_change_is_trivial():
    bc = BasisChange(Matrix.identity(6))
    assert change_of_basis(T4, bc).same_brackets(T4)


def test_change_of_basis_preserves_invariants():
    bc = scramble(6, seed=5)
    moved = change_of_basis(T4, bc)
    assert is_leibniz(moved) and is_lie(moved)
    assert series_signature(moved) == series_signature(T4)
    assert derivation_algebra(moved).dim == derivation_algebra(T4).dim


def test_basis_change_composition():
    bc1 = scramble(6, seed=7)
    bc2 = scramble(6, seed=8)
    once = change_of_basis(change_of_basis(T4, bc1), bc2)
    composite = change_of_basis(T4, bc1.then(bc2))
    assert once.same_brackets(composite)


def test_singular_change_rejected():
    with pytest.raises(ValueError):
        BasisChange(Matrix.zeros(6, 6))


# -- serialization -----------------------------------------------------------

def test_json_round_trip_is_exact(tmp_path):
    path = tmp_path / "t4.json"
    save_table(T4, str(path))
    again = load_table(str(path))
    assert again == T4
    assert dumps_table(again) == dumps_table(T4)


def test_document_round_trip():
    doc = table_to_document(T4)
    assert doc["dim"] == 6
    assert table_from_document(doc) == T4
    # documents survive a JSON round trip byte for byte
    assert table_from_document(json.loads(json.dumps(doc))) == T4


def test_loads_rejects_malformed_documents():
    with pytest.raises(ValueError):
        loads_table("not json")
    with pytest.raises(ValueError):
        loads_table("[]")
    doc = table_to_document(T4)
    for strip in ("dim", "labels", "brackets"):
        broken = dict(doc)
        del broken[strip]
        with pytest.raises(ValueError):
            table_from_document(broken)
    renamed = json.loads(json.dumps(doc))
    renamed["brackets"][0]["left"] = "N99"
    with pytest.raises(ValueError):
        table_from_document(renamed)
    for value in (5, [5], ["coef"], [{"coef": 1, "basis": "a"}]):
        with pytest.raises(ValueError):
            table_from_document({"dim": 1, "labels": ["a"], "brackets": [
                {"left": "a", "right": "a", "value": value}]})
    for record in (5, "left"):
        with pytest.raises(ValueError):
            table_from_document({"dim": 1, "labels": ["a"], "brackets": [record]})
    for fields in ({"dim": True}, {"labels": "a"}, {"dim": 2, "labels": [1, 2.5]},
                   {"labels": 5}, {"brackets": 7}):
        with pytest.raises(ValueError):
            table_from_document({"dim": 1, "labels": ["a"], "brackets": [], **fields})


def test_table_constructor_validations():
    with pytest.raises(ValueError):
        StructureTable(2, ["a"], {})
    with pytest.raises(ValueError):
        StructureTable(2, ["a", "a"], {})
    with pytest.raises(ValueError):
        StructureTable(2, ["a", "b"], {(0, 5): {0: ONE}})
    with pytest.raises(ValueError):
        StructureTable(2, ["a", "b"], {(0, 0): {5: ONE}})


def test_unknown_label_lookup():
    with pytest.raises(ValueError):
        T4.index("N77")
