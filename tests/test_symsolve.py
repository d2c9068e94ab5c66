"""Linear-form bookkeeping and exact solving over named indeterminates."""

import random
from fractions import Fraction

import pytest

from leibniz_lab.linalg import Matrix, Subspace
from leibniz_lab.scalars import ONE, ZERO, Poly, Scalar
from leibniz_lab.symsolve import (LinearSpan, affine_solve, poly_combination,
                                  random_member, random_nonzero_scalar,
                                  random_scalar, solution_point)

x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")


def sc(v):
    return Scalar(Fraction(v))


def test_linear_span_membership():
    s = LinearSpan([x + y, y + z])
    assert s.dim == 2
    assert s.contains(x - z)
    assert not s.contains(x)
    assert s == LinearSpan([x - z, y + z])
    assert s != LinearSpan([x])
    for bad in (x * y, x + Poly.const(1)):
        with pytest.raises(ValueError, match="not a homogeneous linear form"):
            LinearSpan([bad])
        assert not s.contains(bad)


def test_linear_span_dedupes():
    assert LinearSpan([x, x.scale(sc(3)), Poly.zero()]).dim == 1


def test_affine_solve():
    m = Matrix([[ONE, ONE], [ONE, -ONE]], ncols=2)
    sol = affine_solve(m, [sc(3), sc(1)])
    assert sol == [sc(2), sc(1)]
    bad = Matrix([[ONE, ONE], [ONE, ONE]], ncols=2)
    with pytest.raises(ValueError, match="inconsistent"):
        affine_solve(bad, [ZERO, ONE])


def test_poly_combination():
    gens = [x * y + z, z]
    coeffs = poly_combination(gens, x * y)
    assert coeffs == [ONE, -ONE]
    assert poly_combination(gens, x) is None
    assert poly_combination(gens, x * y + z.scale(sc(5))) is not None
    assert poly_combination(gens, y) is None


def test_solution_point_solves_exactly():
    rng = random.Random(0)
    eqs = [x + y, y - z]
    for _ in range(10):
        point = solution_point(eqs, ["x", "y", "z"], rng)
        for eq in eqs:
            assert eq.evaluate(point).is_zero()
    # full-rank system pins everything at zero
    point = solution_point([x, y, z], ["x", "y", "z"], random.Random(1))
    assert all(v.is_zero() for v in point.values())


def test_solution_point_rejects_nonhomogeneous_input():
    with pytest.raises(ValueError):
        solution_point([x + Poly.const(1)], ["x"], random.Random(0))
    with pytest.raises(ValueError):
        solution_point([x * y], ["x", "y"], random.Random(0))


def test_random_helpers_are_seeded():
    a = [str(random_scalar(random.Random(9))) for _ in range(4)]
    b = [str(random_scalar(random.Random(9))) for _ in range(4)]
    assert a == b
    assert not random_nonzero_scalar(random.Random(3)).is_zero()


def test_random_member_spans_only_the_subspace():
    sub = Subspace.from_vectors([[ONE, ONE, ZERO]], ambient=3)
    vec = random_member(sub, random.Random(2))
    assert vec[0] == vec[1] and vec[2].is_zero()
    zero = random_member(Subspace.zero(3), random.Random(2))
    assert zero == [ZERO, ZERO, ZERO]
