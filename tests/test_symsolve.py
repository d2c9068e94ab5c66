"""Linear-form bookkeeping and exact kernel points over named indeterminates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_lab.linalg import RrefAccumulator, Subspace
from leibniz_lab.scalars import ONE, ZERO, Poly, Scalar
from leibniz_lab.symsolve import (LinearSpan, equation_rref, random_kernel_vector,
                                  random_nonzero_scalar, random_scalar)

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


def test_solution_point_solves_exactly():
    rng = random.Random(0)
    eqs = [x + y, y - z]
    acc = equation_rref(eqs, ["x", "y", "z"])
    for _ in range(10):
        point = dict(zip("xyz", random_kernel_vector(acc, rng)))
        for eq in eqs:
            assert eq.evaluate(point).is_zero()
    # full-rank system pins everything at zero
    point = random_kernel_vector(equation_rref([x, y, z], ["x", "y", "z"]), random.Random(1))
    assert all(v.is_zero() for v in point)


def test_solution_point_rejects_nonhomogeneous_input():
    with pytest.raises(ValueError, match="not a homogeneous linear equation"):
        equation_rref([x + Poly.const(1)], ["x"])
    with pytest.raises(ValueError, match="not a homogeneous linear equation"):
        equation_rref([x * y], ["x", "y"])
    with pytest.raises(ValueError, match="outside the given list"):
        equation_rref([x + y], ["x"])


def test_random_helpers_are_seeded():
    a = [str(random_scalar(random.Random(9))) for _ in range(4)]
    b = [str(random_scalar(random.Random(9))) for _ in range(4)]
    assert a == b
    assert not random_nonzero_scalar(random.Random(3)).is_zero()


def dense_random_combination(rows, ambient, rng, tries=8):
    """The dense draw `random_kernel_vector` replaced, kept as its oracle."""
    if not rows:
        return [ZERO] * ambient
    for attempt in range(tries):
        coeffs = [Scalar(Fraction(rng.randint(-5, 5))) for _ in range(len(rows))]
        if all(c.is_zero() for c in coeffs) and attempt + 1 < tries:
            continue
        vec = [ZERO] * ambient
        for c, row in zip(coeffs, rows):
            if c.is_zero():
                continue
            for k, e in enumerate(row):
                if not e.is_zero():
                    vec[k] = vec[k] + c * e
        if any(not v.is_zero() for v in vec):
            return vec
    return list(rows[0])


class ZeroDraws(random.Random):
    """A generator whose integer draws are all zero: the fallback path."""

    def randint(self, a, b):
        return 0


gaussians = st.builds(Scalar, st.fractions(min_value=-3, max_value=3, max_denominator=4),
                      st.sampled_from((0, 0, 0, 1, -2)))


@st.composite
def accumulators(draw):
    ncols = draw(st.integers(0, 7))
    cells = st.dictionaries(st.integers(0, max(ncols - 1, 0)), gaussians, max_size=ncols)
    acc = RrefAccumulator(ncols)
    for row in draw(st.lists(cells, max_size=ncols + 1)):
        acc.add(row)
    return acc


@settings(max_examples=150, deadline=None)
@given(accumulators(), st.integers(0, 2 ** 32), st.booleans())
def test_random_kernel_vector_matches_the_dense_combination(acc, seed, zeros):
    make = ZeroDraws if zeros else random.Random
    rng, ref = make(seed), make(seed)
    vec = random_kernel_vector(acc, rng)
    basis = [[row.get(c, ZERO) for c in range(acc.ambient)] for row in acc.kernel_basis()]
    assert vec == dense_random_combination(basis, acc.ambient, ref)
    assert rng.getstate() == ref.getstate()
    for row in acc.rows():
        total = ZERO
        for a, b in zip(row, vec):
            total = total + a * b
        assert total.is_zero()


def test_a_zero_kernel_gives_zeros_without_a_draw():
    acc = RrefAccumulator(3)
    for row in ([ONE, ONE, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, Scalar(0, 1)]):
        acc.add(row)
    rng = random.Random(4)
    state = rng.getstate()
    assert random_kernel_vector(acc, rng) == [ZERO, ZERO, ZERO]
    assert rng.getstate() == state


def test_solution_points_span_the_kernel():
    rng = random.Random(6)
    acc = equation_rref([x + y], ["x", "y", "z"])
    got = Subspace.from_vectors([random_kernel_vector(acc, rng) for _ in range(50)])
    assert got == Subspace.from_vectors([[ONE, -ONE, ZERO], [ZERO, ZERO, ONE]])


def fraction_random_scalar(rng, lo=-9, hi=9):
    """The (re, im) Fraction pair, drawn in the order random_scalar draws."""
    re_ = Fraction(rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3)))
    im = Fraction(rng.randint(lo, hi)) if rng.random() < 0.25 else Fraction(0)
    return re_, im


@pytest.mark.parametrize("lo, hi", [(-9, 9), (-2, 30)])
def test_random_scalar_draws_like_the_fraction_formula(lo, hi):
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(10):
            s = random_scalar(ours, lo, hi)
            assert (s.re, s.im) == fraction_random_scalar(theirs, lo, hi)
            assert ours.getstate() == theirs.getstate()
