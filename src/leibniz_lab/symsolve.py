"""Linear algebra over named indeterminates and seeded rational sampling.

Bridges Poly values and the exact eliminator: spans of linear forms, the
RREF of homogeneous linear equations, and seeded random points of its null
space, which the witness search and the member sampler draw.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from math import lcm

from .linalg import RrefAccumulator
from .scalars import ONE, Poly, Scalar


class LinearSpan:
    """Canonical span of homogeneous linear forms in named indeterminates.

    The eliminator's columns are the indeterminate names, so the basis is the
    unique RREF with columns in name order.
    """

    __slots__ = ("acc",)

    def __init__(self, forms: Iterable[Poly]):
        self.acc = RrefAccumulator()
        for f in forms:
            if f.is_zero():
                continue
            if f.degree() != 1 or not f.constant_term().is_zero():
                raise ValueError(f"{f} is not a homogeneous linear form")
            self.acc.add({mon[0][0]: c for mon, c in f.terms.items()})

    @property
    def dim(self) -> int:
        return self.acc.dim

    def contains(self, form: Poly) -> bool:
        if form.is_zero():
            return True
        if form.degree() != 1 or not form.constant_term().is_zero():
            return False
        return self.acc.contains({mon[0][0]: c for mon, c in form.terms.items()})

    def basis_forms(self) -> list:
        out = []
        for lead, row in sorted(self.acc.pivots.items()):
            terms = {((lead, 1),): ONE}
            terms.update({((v, 1),): c for v, c in row.items()})
            out.append(Poly(terms))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearSpan):
            return NotImplemented
        return self.acc.pivots == other.acc.pivots

    def __repr__(self) -> str:
        return f"LinearSpan(dim={self.dim})"


def equation_rref(polys: Iterable[Poly], variables: Sequence[str]) -> RrefAccumulator:
    """RREF of homogeneous linear equations, one column per variable in order."""
    pos = {v: k for k, v in enumerate(variables)}
    acc = RrefAccumulator(len(variables))
    for p in polys:
        sparse = {}
        for mon, coeff in p.terms.items():
            if len(mon) != 1 or mon[0][1] != 1:
                raise ValueError(f"{p} is not a homogeneous linear equation")
            name = mon[0][0]
            if name not in pos:
                raise ValueError(f"{p} uses an indeterminate outside the given list: {name}")
            sparse[pos[name]] = coeff
        acc.add(sparse)
    return acc


def random_kernel_vector(acc: RrefAccumulator, rng: random.Random) -> list:
    """A random element of acc's null space, as Scalars.

    One `randint(-5, 5)` per free column, in column order, is that
    coordinate, and each pivot coordinate is minus its row applied to them:
    the combination of `acc.kernel_basis()` with those coefficients.  A round
    of all-zero draws is redrawn, up to 8 rounds; after that the first
    basis vector stands in.  A zero null space gives zeros without a draw.
    The rows are taken as ints times L, the lcm of their denominators.
    """
    den = lcm(*(e.d for row in acc.pivots.values() for e in row.values()))
    rows = [(p, [(c, e.x * (den // e.d), e.y * (den // e.d)) for c, e in row.items()])
            for p, row in acc.pivots.items()]
    free = [c for c in range(acc.ambient) if c not in acc.pivots]
    for _ in range(8):
        draws = [rng.randint(-5, 5) for _ in free]
        if any(draws):
            break
    else:
        draws = [1] + [0] * (len(free) - 1)
    values = dict(zip(free, draws))
    xs, ys = [0] * (len(free) + len(rows)), [0] * (len(free) + len(rows))
    for c, k in values.items():
        xs[c] = k * den
    # a stored row's columns are all free
    for p, row in rows:
        xs[p] = -sum(a * values[c] for c, a, _ in row)
        ys[p] = -sum(b * values[c] for c, _, b in row)
    return [Scalar.from_ints(x, y, den) for x, y in zip(xs, ys)]


def random_scalar(rng: random.Random, lo: int = -9, hi: int = 9) -> Scalar:
    """Small random element of Q(i); imaginary part present one draw in four."""
    p, q = rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3))
    r = rng.randint(lo, hi) if rng.random() < 0.25 else 0
    return Scalar.from_ints(p, r * q, q)


def random_nonzero_scalar(rng: random.Random, lo: int = -9, hi: int = 9) -> Scalar:
    while True:
        s = random_scalar(rng, lo, hi)
        if not s.is_zero():
            return s
