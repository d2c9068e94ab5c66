"""Pair indexing, the triangular table, and action-matrix shape checks."""

from fractions import Fraction

import pytest

from leibniz_lab.extensions import ExtensionSpec, build_extension
from leibniz_lab.linalg import Matrix
from leibniz_lab.scalars import ONE, ZERO, Scalar
from leibniz_lab.triangular import (allowed_offdiagonal, check_structure_shape,
                                    corner_index, count_offdiagonal,
                                    diagonal_vector, generator_label,
                                    nil_independent_count, pair_index,
                                    pair_label, pairs, structure_matrices,
                                    triangular)


def sc(x):
    return Scalar(Fraction(x))


def test_pair_order_n4():
    assert pairs(4) == ((1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4))


def test_pair_index_round_trip():
    for n in (3, 4, 5, 7):
        for idx, (i, j) in enumerate(pairs(n)):
            assert pair_index(n, i, j) == idx


def test_pair_index_oracles():
    assert pair_index(4, 1, 4) == 5
    assert pair_index(5, 1, 5) == 9
    assert corner_index(4) == 5
    assert corner_index(5) == 9


def test_pair_errors():
    with pytest.raises(ValueError):
        pair_index(4, 2, 2)
    with pytest.raises(ValueError):
        pair_index(4, 3, 2)
    with pytest.raises(ValueError):
        pair_label(4, 4, 1)


def test_labels():
    assert pair_label(4, 1, 3) == "N13"
    assert pair_label(12, 3, 11) == "N3_11"
    assert generator_label(1, 1) == "X"
    assert generator_label(3, 2) == "X2"
    with pytest.raises(ValueError):
        generator_label(2, 3)


def test_triangular_small_n_rejected():
    with pytest.raises(ValueError):
        triangular(2)


def test_triangular_dimensions_and_labels():
    t = triangular(4)
    assert t.dim == 6
    assert t.labels == ("N12", "N23", "N34", "N13", "N24", "N14")


def test_allowed_offdiagonal_frozen():
    assert allowed_offdiagonal(4) == frozenset({
        ((1, 2), (2, 4)),
        ((2, 3), (1, 4)),
        ((3, 4), (1, 3)),
    })
    assert allowed_offdiagonal(3) == frozenset({
        ((1, 2), (2, 3)),
        ((2, 3), (1, 2)),
    })


def valid_extension_table():
    params = {"a1_12_12": sc(1), "a1_23_23": sc(1), "a1_34_34": sc(-2),
              "s11": sc(1)}
    return build_extension(ExtensionSpec(n=4, f=1, params=params))


def test_structure_matrices_read_off():
    ext = valid_extension_table()
    m = structure_matrices(ext, 4, 1)
    assert m.n == 4
    assert diagonal_vector(m) == [sc(1), sc(1), sc(-2)]
    # wide rows repeat the spanned sums: (1,3) -> 2, (2,4) -> -1, (1,4) -> 0
    assert m.a.rows[3][3] == sc(2)
    assert m.a.rows[4][4] == sc(-1)
    assert m.a.rows[5][5] == ZERO
    assert m.b.rows[0][0] == sc(-1)


def test_structure_matrices_bad_generator_index():
    ext = valid_extension_table()
    with pytest.raises(ValueError):
        structure_matrices(ext, 4, 2)
    with pytest.raises(ValueError):
        structure_matrices(triangular(4), 4, 1)


def test_shape_checker_accepts_valid_table():
    rep = check_structure_shape(structure_matrices(valid_extension_table(), 4, 1))
    assert rep.passed
    assert rep.violations == ()


def corrupt_matrix(rows_change):
    ext = valid_extension_table()
    m = structure_matrices(ext, 4, 1)
    rows = m.a.copy_rows()
    for (r, c, v) in rows_change:
        rows[r][c] = v
    return type(m)(4, Matrix(rows, ncols=6), m.b)


def test_shape_checker_flags_bad_support():
    # (N23, N24) is not an allowed off-diagonal slot
    rep = check_structure_shape(corrupt_matrix([(1, 4, ONE)]))
    assert not rep.passed
    assert not rep.offdiagonal_support_ok
    assert any("allowed support" in v for v in rep.violations)


def test_shape_checker_flags_below_diagonal():
    rep = check_structure_shape(corrupt_matrix([(4, 1, ONE)]))
    assert not rep.passed
    assert not rep.upper_triangular


def test_shape_checker_flags_bad_diagonal_sum():
    rep = check_structure_shape(corrupt_matrix([(3, 3, sc(7))]))
    assert not rep.passed
    assert not rep.diagonal_sums_ok
    assert any("superdiagonal sum" in v for v in rep.violations)


def test_nil_independent_count():
    assert nil_independent_count([]) == 0
    assert nil_independent_count([[sc(1), sc(0), sc(0)]]) == 1
    assert nil_independent_count([[sc(1), sc(0), sc(0)],
                                  [sc(2), sc(0), sc(0)]]) == 1
    assert nil_independent_count([[sc(1), sc(0), sc(0)],
                                  [sc(0), sc(1), sc(0)],
                                  [sc(1), sc(1), sc(0)]]) == 2


def test_count_offdiagonal():
    m = Matrix([[ONE, ONE], [ZERO, ONE]], ncols=2)
    assert count_offdiagonal(m) == 1
