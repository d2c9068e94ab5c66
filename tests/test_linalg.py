"""Exact linear algebra: RREF, subspaces, kernels, inverses."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from leibniz_lab.linalg import (Matrix, RrefAccumulator, Subspace, _subtract,
                                invert, kernel, kernel_of_sparse_rows, rref,
                                span, sparse_kernel_basis)
from leibniz_lab.scalars import ONE, ZERO, Scalar


def mat(rows):
    return Matrix([[Scalar(Fraction(x)) for x in row] for row in rows])


def vec(xs):
    return [Scalar(Fraction(x)) for x in xs]


def dense(row, ncols):
    out = [ZERO] * ncols
    for c, x in row.items():
        out[c] = x
    return out


small_entries = st.integers(min_value=-4, max_value=4)


def matrices(max_rows=4, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r, max_size=r).map(mat)))


def test_rref_hand_oracle():
    m = mat([[1, 2, 3],
             [2, 4, 6],
             [1, 1, 1]])
    r, rank = rref(m)
    assert rank == 2
    assert r == mat([[1, 0, -1],
                     [0, 1, 2],
                     [0, 0, 0]])


def test_rref_identity_fixed_point():
    m = Matrix.identity(4)
    r, rank = rref(m)
    assert r == m and rank == 4


@settings(max_examples=60)
@given(matrices())
def test_rref_idempotent_and_rank_bounded(m):
    r, rank = rref(m)
    assert rank <= min(m.nrows, m.ncols)
    r2, rank2 = rref(r)
    assert r2 == r and rank2 == rank


def test_invert_round_trip():
    m = mat([[2, 1, 0],
             [0, 1, -1],
             [1, 0, 3]])
    mi = invert(m)
    assert m * mi == Matrix.identity(3)
    assert mi * m == Matrix.identity(3)


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        invert(mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        invert(mat([[1, 2, 3]]))


def test_kernel_hand_oracle():
    # x + y + z = 0, y - z = 0  ->  span{(-2, 1, 1)}
    m = mat([[1, 1, 1],
             [0, 1, -1]])
    k = kernel(m)
    assert k.dim == 1
    assert k.contains(vec([-2, 1, 1]))
    assert not k.contains(vec([1, 0, 0]))


@settings(max_examples=60)
@given(matrices())
def test_rank_nullity(m):
    _, rank = rref(m)
    assert kernel(m).dim == m.ncols - rank


@settings(max_examples=60)
@given(matrices())
def test_kernel_members_annihilate(m):
    k = kernel(m)
    for row in k.mat.rows:
        image = m.apply(row)
        assert all(x.is_zero() for x in image)


def test_subspace_membership_and_equality():
    s = span([vec([1, 0, 1]), vec([0, 1, 1])])
    assert s.dim == 2
    assert s.contains(vec([2, 3, 5]))
    assert not s.contains(vec([0, 0, 1]))
    t = span([vec([1, 1, 2]), vec([1, -1, 0])])
    assert s == t
    # span{(1, 0, 1)} lies in s, not the other way round
    assert s.contains(vec([1, 0, 1]))
    assert not span([vec([1, 0, 1])]).contains(vec([0, 1, 1]))
    # two distinct lines: neither holds the other
    assert not span([vec([1, 0, 0])]).contains(vec([0, 1, 0]))
    assert not span([vec([0, 1, 0])]).contains(vec([1, 0, 0]))


def test_subspace_reduce_is_canonical():
    s = span([vec([1, 0, 1])])
    assert s.reduce(vec([2, 0, 2])) == vec([0, 0, 0])
    assert s.reduce(vec([1, 1, 1])) == vec([0, 1, 0])


def test_zero_and_full():
    assert Subspace.zero(3).dim == 0
    assert Subspace.full(3).dim == 3
    assert Subspace.full(3).contains(vec([7, -1, 2]))


@settings(max_examples=40)
@given(st.lists(st.lists(small_entries, min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_accumulator_matches_from_vectors(rows):
    vectors = [vec(r) for r in rows]
    acc = RrefAccumulator(4)
    for v in vectors:
        acc.add(v)
    assert acc.to_subspace() == Subspace.from_vectors(vectors, ambient=4)
    for v in vectors:
        assert acc.contains(v)


def dense_kernel(rows, ncols):
    """The dense round trip `kernel_of_sparse_rows` replaced, kept as its
    oracle: the kernel vectors made dense and spanned by `from_vectors`."""
    basis = [dense(v, ncols) for v in sparse_kernel_basis(rows, ncols)]
    return Subspace.from_vectors(basis, ambient=ncols)


@settings(max_examples=60)
@given(matrices())
def test_sparse_kernel_agrees_with_dense(m):
    rows = [{j: x for j, x in enumerate(row) if not x.is_zero()}
            for row in m.rows]
    rows = [r for r in rows if r]
    got = kernel_of_sparse_rows(rows, m.ncols)
    assert got == dense_kernel(rows, m.ncols) == kernel(m)
    assert is_rref(got.mat.rows)


def test_sparse_kernel_basis_raw_form():
    rows = [{0: ONE, 1: ONE, 2: ONE}, {1: ONE, 2: -ONE}]
    basis = sparse_kernel_basis(rows, 3)
    assert basis == [{0: Scalar(-2), 1: ONE, 2: ONE}]
    assert span([dense(v, 3) for v in basis], ambient=3) == kernel(mat([[1, 1, 1], [0, 1, -1]]))


def test_sparse_kernel_no_equations_is_full():
    assert kernel_of_sparse_rows([], 3) == Subspace.full(3)


# -- the eliminator against oracles that do not use it ------------------------

gaussian_entries = st.builds(Scalar, small_entries, st.sampled_from([0, 0, 0, 1, -2]))


def gaussian_matrices(nrows, ncols):
    return st.lists(st.lists(gaussian_entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(lambda rows: Matrix(rows, ncols=ncols))


def shapes(max_rows=4, max_cols=5):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))


def det(rows):
    """Laplace expansion along the first row; fine at these sizes."""
    if not rows:
        return ONE
    total = ZERO
    for j, x in enumerate(rows[0]):
        if not x.is_zero():
            term = x * det([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


def is_rref(rows):
    """Leading ones move strictly right, their columns are otherwise zero,
    and zero rows come last."""
    leads = []
    for row in rows:
        nonzero = [j for j, x in enumerate(row) if not x.is_zero()]
        if not nonzero:
            leads.append(None)
            continue
        lead = nonzero[0]
        if row[lead] != ONE or (leads and (leads[-1] is None or leads[-1] >= lead)):
            return False
        leads.append(lead)
    return all(rows[r][lead].is_zero() for lead in leads if lead is not None
               for r in range(len(rows)) if leads[r] != lead)


@settings(max_examples=60)
@given(shapes().flatmap(lambda s: st.tuples(gaussian_matrices(*s),
                                            gaussian_matrices(s[0], s[0]))))
def test_rref_is_a_row_invariant_in_echelon_shape(pair):
    m, p = pair
    assume(not det(p.rows).is_zero())
    r, rank = rref(m)
    assert is_rref(r.rows)
    assert rank == sum(1 for row in r.rows if any(not x.is_zero() for x in row))
    assert rref(p * m) == (r, rank)


@settings(max_examples=60)
@given(shapes().flatmap(lambda s: gaussian_matrices(*s)))
def test_kernel_vectors_are_annihilated_and_rank_plus_nullity_is_ncols(m):
    _, rank = rref(m)
    sparse_rows = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in m.rows]
    basis = sparse_kernel_basis(sparse_rows, m.ncols)
    for v in [dense(b, m.ncols) for b in basis] + kernel(m).mat.rows:
        assert all(x.is_zero() for x in m.apply(v))
    assert rank + len(basis) == rank + kernel(m).dim == m.ncols


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: gaussian_matrices(n, n)))
def test_invert_exactly_when_the_determinant_is_nonzero(m):
    if det(m.rows).is_zero():
        with pytest.raises(ValueError):
            invert(m)
    else:
        assert invert(m) * m == Matrix.identity(m.nrows)


# -- the column index against a back-substitution over every row ---------------

def full_scan_add(pivots: dict, vec: dict) -> bool:
    """The insertion the column index replaced, kept as its oracle: the new
    pivot is cleared from every stored row, found by visiting them all."""
    v = {c: x for c, x in vec.items() if not x.is_zero()}
    for p in [c for c in v if c in pivots]:
        _subtract(v, v.pop(p), pivots[p])
    if not v:
        return False
    pivot = min(v)
    inv = v.pop(pivot).inverse()
    tail = {c: x * inv for c, x in v.items()}
    for row in pivots.values():
        f = row.pop(pivot, None)
        if f is not None:
            _subtract(row, f, tail)
    pivots[pivot] = tail
    return True


fractional_gaussians = st.builds(Scalar, st.fractions(-3, 3, max_denominator=4),
                                 st.sampled_from((0, 0, 0, 1, -2)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda ncols: st.lists(
           st.dictionaries(st.integers(0, ncols - 1), fractional_gaussians,
                           min_size=1, max_size=4), max_size=14)),
       st.booleans())
def test_the_column_index_matches_a_full_scan(rows, tuple_keys):
    # tuple keys order the columns differently from their ints
    key = (lambda k: (k % 3, -k)) if tuple_keys else (lambda k: k)
    rows = [{key(k): x for k, x in row.items()} for row in rows]
    acc = RrefAccumulator()
    want: dict = {}
    for row in rows:
        assert acc.add(row) == full_scan_add(want, row)
        assert ([(p, list(r.items())) for p, r in acc.pivots.items()]
                == [(p, list(r.items())) for p, r in want.items()])
