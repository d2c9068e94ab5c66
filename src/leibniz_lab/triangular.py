"""The strictly upper-triangular Lie algebra and its action-matrix views.

Basis elements N_ij (1 <= i < j <= n) are ordered by superdiagonal: gap
j - i ascending, then i ascending, so the first n-1 slots are the
superdiagonal pairs and the last slot is the corner pair (1, n).  All
row/column indexing of action matrices follows this order.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import POLY, SCALAR, StructureTable
from .linalg import Matrix, RrefAccumulator
from .scalars import NEG_ONE, ONE, POLY_ZERO, ZERO, Record


def pairs(n: int) -> tuple:
    """All index pairs in superdiagonal order."""
    if n < 2:
        raise ValueError("pair ordering needs n >= 2")
    return tuple((i, i + g) for g in range(1, n) for i in range(1, n - g + 1))


def pair_index(n: int, i: int, j: int) -> int:
    if not (1 <= i < j <= n):
        raise ValueError(f"pair ({i},{j}) out of range for n={n}")
    g = j - i
    return (g - 1) * n - (g - 1) * g // 2 + (i - 1)


def pair_label(n: int, i: int, j: int) -> str:
    if not (1 <= i < j <= n):
        raise ValueError(f"pair ({i},{j}) out of range for n={n}")
    if n < 10:
        return f"N{i}{j}"
    return f"N{i}_{j}"


def generator_label(f: int, alpha: int) -> str:
    """Label of the alpha-th extension generator (1-based)."""
    if not (1 <= alpha <= f):
        raise ValueError(f"generator index {alpha} out of range for f={f}")
    return "X" if f == 1 else f"X{alpha}"


@lru_cache(maxsize=None)
def triangular(n: int):
    """Structure table of the strictly upper-triangular matrices.

    [N_ij, N_kl] = delta_jk N_il - delta_il N_kj on the ordered basis, built
    from its nonzero brackets alone: [N_ij, N_jl] = N_il and
    [N_ij, N_ki] = -N_kj, O(n^3) of them among the O(n^4) pairs.
    """
    if n < 3:
        raise ValueError("triangular table requires n >= 3")
    ps = pairs(n)
    index = {p: k for k, p in enumerate(ps)}
    labels = [pair_label(n, i, j) for (i, j) in ps]
    entries: dict = {}
    for (i, j), r in index.items():
        for l in range(j + 1, n + 1):
            entries[(r, index[(j, l)])] = {index[(i, l)]: ONE}
        for k in range(1, i):
            entries[(r, index[(k, i)])] = {index[(k, j)]: NEG_ONE}
    # in (left, right) order, as a scan over all pairs would insert them
    return StructureTable(len(ps), labels, dict(sorted(entries.items())), ring=SCALAR)


class StructureMatrices(Record):
    """Right/left action matrices of one extension generator on the N basis."""

    n: int
    a: Matrix
    b: Matrix


def structure_matrices(ext, n: int, alpha: int) -> StructureMatrices:
    """Read the action matrices of X^alpha off an extension table.

    The first n(n-1)/2 basis slots of ext must be the N basis in
    superdiagonal order, the rest the generators X^1..X^f.
    """
    d = n * (n - 1) // 2
    f = ext.dim - d
    if f < 1:
        raise ValueError("table has no generators beyond the triangular part")
    if not (1 <= alpha <= f):
        raise ValueError(f"generator index {alpha} out of range for f={f}")
    zero = POLY_ZERO if ext.ring == POLY else ZERO
    xi = d + alpha - 1
    a_rows = []
    b_rows = []
    for r in range(d):
        right = ext.row(r, xi)
        left = ext.row(xi, r)
        for k in right:
            if k >= d:
                raise ValueError(
                    f"bracket [{ext.labels[r]}, {ext.labels[xi]}] leaves the triangular span")
        for k in left:
            if k >= d:
                raise ValueError(
                    f"bracket [{ext.labels[xi]}, {ext.labels[r]}] leaves the triangular span")
        a_rows.append([right.get(c, zero) for c in range(d)])
        b_rows.append([left.get(c, zero) for c in range(d)])
    return StructureMatrices(n, Matrix(a_rows, ncols=d), Matrix(b_rows, ncols=d))


@lru_cache(maxsize=None)
def allowed_offdiagonal(n: int) -> frozenset:
    """Row/column pairs where a right-action matrix may be nonzero off the
    diagonal: ((1,2),(2,n)), ((i,i+1),(1,n)) for 2 <= i <= n-2, and
    ((n-1,n),(1,n-1))."""
    allowed = {((1, 2), (2, n)), ((n - 1, n), (1, n - 1))}
    for i in range(2, n - 1):
        allowed.add(((i, i + 1), (1, n)))
    return frozenset(allowed)


class ShapeReport(Record):
    """Verdicts on the right-action matrix of one generator."""

    upper_triangular: bool
    offdiagonal_support_ok: bool
    diagonal_sums_ok: bool
    violations: tuple

    @property
    def passed(self) -> bool:
        return self.upper_triangular and self.offdiagonal_support_ok and self.diagonal_sums_ok


def check_structure_shape(m: StructureMatrices) -> ShapeReport:
    """Check the forced shape of a right-action matrix.

    Three verdicts: entries below the diagonal vanish (the permitted corner
    entries sit below the diagonal only when n = 3, so they are excused);
    off-diagonal support lies in allowed_offdiagonal; every wide-gap diagonal
    entry equals the sum of the superdiagonal diagonal entries it spans.
    """
    n = m.n
    ps = pairs(n)
    d = len(ps)
    allowed = allowed_offdiagonal(n)
    upper = True
    support = True
    sums = True
    violations = []
    for r in range(d):
        for c in range(d):
            if r == c:
                continue
            e = m.a.rows[r][c]
            if e.is_zero():
                continue
            key = (ps[r], ps[c])
            if key in allowed:
                continue
            support = False
            violations.append(
                f"off-diagonal entry at ({pair_label(n, *ps[r])},{pair_label(n, *ps[c])})"
                " outside the allowed support")
            if c < r:
                upper = False
                violations.append(
                    f"below-diagonal entry at ({pair_label(n, *ps[r])},{pair_label(n, *ps[c])})")
    for idx in range(n - 1, d):
        i, k = ps[idx]
        expect = m.a.rows[pair_index(n, i, i + 1)][pair_index(n, i, i + 1)]
        for p in range(i + 1, k):
            expect = expect + m.a.rows[pair_index(n, p, p + 1)][pair_index(n, p, p + 1)]
        if not (m.a.rows[idx][idx] - expect).is_zero():
            sums = False
            violations.append(
                f"diagonal entry at {pair_label(n, i, k)} differs from its superdiagonal sum")
    return ShapeReport(upper, support, sums, tuple(violations))


def diagonal_vector(m: StructureMatrices) -> list:
    """The n-1 free diagonal entries (superdiagonal rows) of the right action."""
    return [m.a.rows[i][i] for i in range(m.n - 1)]


def nil_independent_count(diags) -> int:
    """Rank of a family of diagonal vectors.

    A combination of shaped action matrices is nilpotent exactly when its
    diagonal vanishes, so this rank is the size of a largest subset with no
    nilpotent nontrivial combination.
    """
    acc = RrefAccumulator()
    for v in diags:
        acc.add(v)
    return acc.dim


def count_offdiagonal(m: Matrix) -> int:
    return sum(1 for r in range(m.nrows) for c in range(m.ncols)
               if r != c and not m.rows[r][c].is_zero())


def corner_index(n: int) -> int:
    """Linear index of the corner pair (1, n): always the last slot."""
    return n * (n - 1) // 2 - 1
