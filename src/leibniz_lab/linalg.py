"""Exact linear algebra over Q(i): RREF, kernels, spans and canonical subspaces.

`RrefAccumulator` is the one eliminator; every routine here and in the
symbolic layers builds on it.  It keeps rows in reduced row echelon form,
which is unique, so every result is reproducible whatever the insertion
order, and subspaces compare equal exactly when their rows do.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .scalars import ONE, ZERO, Scalar

Vector = list


class Matrix:
    """Dense matrix with Scalar entries."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Scalar]], ncols: int | None = None):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[ZERO] * ncols for _ in range(nrows)], ncols=ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = ZERO
                for k in range(self.ncols):
                    a = self.rows[i][k]
                    if a.is_zero():
                        continue
                    b = other.rows[k][j]
                    if not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Matrix(out, ncols=other.ncols)

    def apply(self, vec: Vector) -> Vector:
        if len(vec) != self.ncols:
            raise ValueError("length mismatch")
        out = []
        for i in range(self.nrows):
            acc = ZERO
            row = self.rows[i]
            for k, v in enumerate(vec):
                if not v.is_zero() and not row[k].is_zero():
                    acc = acc + row[k] * v
            out.append(acc)
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"

    def copy_rows(self) -> list:
        return [list(r) for r in self.rows]


def _sparse(vec) -> dict:
    """Fresh {column: coeff} copy of a dense vector or a sparse row, zeros dropped."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {c: x for c, x in items if not x.is_zero()}


def _subtract(v: dict, f: Scalar, row: dict) -> None:
    """v -= f * row in place, dropping entries that cancel."""
    for c, x in row.items():
        y = v.get(c)
        if y is None:
            v[c] = -(f * x)
        else:
            y = y - f * x
            if y.is_zero():
                del v[c]
            else:
                v[c] = y


class RrefAccumulator:
    """Exact sparse eliminator: rows kept in reduced row echelon form.

    Each row is stored under its pivot, its least column key, as the
    {column: coeff} entries after the pivot; the pivot coefficient is 1 and
    every other row is 0 there.  Columns may be any mutually comparable
    keys.  `ambient`, the number of integer columns 0..ambient-1, is needed
    only by `rows` and `kernel_basis`.  `holders` lists for
    each column every pivot whose row holds it, and maybe some that did.
    """

    __slots__ = ("ambient", "pivots", "holders")

    def __init__(self, ambient: int | None = None):
        self.ambient = ambient
        self.pivots: dict = {}
        self.holders: dict = {}

    def reduce(self, vec) -> dict:
        """Sparse residue of a dense vector or {column: coeff} row.

        One pass suffices: stored rows vanish on each other's pivots, so
        clearing one pivot column never refills another.
        """
        v = _sparse(vec)
        for p in [c for c in v if c in self.pivots]:
            _subtract(v, v.pop(p), self.pivots[p])
        return v

    def add(self, vec) -> bool:
        """Insert a vector or sparse row; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = v.pop(pivot).inverse()
        tail = v if inv == ONE else {c: x * inv for c, x in v.items()}
        for c in tail:
            self.holders.setdefault(c, []).append(pivot)
        for q in self.holders.pop(pivot, ()):
            row = self.pivots[q]
            f = row.pop(pivot, None)
            if f is not None:
                # a column new to the row cannot cancel, so the row now holds it
                for c in [c for c in tail if c not in row]:
                    self.holders[c].append(q)
                _subtract(row, f, tail)
        self.pivots[pivot] = tail
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def rows(self) -> list:
        """Dense rows in pivot order."""
        out = []
        for p in sorted(self.pivots):
            row = [ZERO] * self.ambient
            row[p] = ONE
            for c, x in self.pivots[p].items():
                row[c] = x
            out.append(row)
        return out

    def kernel_basis(self) -> list:
        """Null space basis as {column: coeff} rows: for each free column c
        in order, e_c minus column c of the stored rows placed at their pivots."""
        basis = {c: {c: ONE} for c in range(self.ambient) if c not in self.pivots}
        for p, row in self.pivots.items():
            for c, x in row.items():
                basis[c][p] = -x
        return list(basis.values())

    def to_subspace(self) -> "Subspace":
        """The span as a Subspace, which takes this accumulator over."""
        return Subspace(self)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Unique reduced row echelon form (zero rows last) and rank."""
    acc = RrefAccumulator(m.ncols)
    for row in m.rows:
        acc.add(row)
    rows = acc.rows()
    rank = len(rows)
    rows += [[ZERO] * m.ncols for _ in range(m.nrows - rank)]
    return Matrix(rows, ncols=m.ncols), rank


class Subspace:
    """A subspace of Q(i)^ambient: its eliminator and the dense RREF basis rows."""

    __slots__ = ("ambient", "acc", "mat")

    def __init__(self, acc: RrefAccumulator):
        self.acc = acc
        self.ambient = acc.ambient
        self.mat = Matrix(acc.rows(), ncols=acc.ambient)

    @classmethod
    def from_vectors(cls, vectors: Sequence[Vector], ambient: int | None = None) -> "Subspace":
        if not vectors:
            if ambient is None:
                raise ValueError("ambient dimension required for an empty span")
            return cls.zero(ambient)
        amb = len(vectors[0])
        if ambient is not None and ambient != amb:
            raise ValueError("ambient dimension mismatch")
        if any(len(v) != amb for v in vectors):
            raise ValueError("vectors of unequal length")
        acc = RrefAccumulator(amb)
        for v in vectors:
            acc.add(v)
        return cls(acc)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(RrefAccumulator(ambient))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.from_vectors(Matrix.identity(ambient).rows, ambient)

    @property
    def dim(self) -> int:
        return self.mat.nrows

    def _check(self, vec: Vector) -> None:
        if len(vec) != self.ambient:
            raise ValueError("ambient dimension mismatch")

    def reduce(self, vec: Vector) -> Vector:
        """Residue of vec after elimination against the stored basis."""
        self._check(vec)
        v = [ZERO] * self.ambient
        for c, x in self.acc.reduce(vec).items():
            v[c] = x
        return v

    def contains(self, vec: Vector) -> bool:
        self._check(vec)
        return self.acc.contains(vec)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.mat == other.mat)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def span(vectors: Sequence[Vector], ambient: int | None = None) -> Subspace:
    return Subspace.from_vectors(vectors, ambient)


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m v = 0} as a canonical subspace of Q(i)^ncols."""
    return kernel_of_sparse_rows(m.rows, m.ncols)


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on singular input."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    n = m.nrows
    acc = RrefAccumulator(2 * n)
    for i, row in enumerate(m.rows):
        aug = _sparse(row)
        aug[n + i] = ONE
        acc.add(aug)
    if any(p >= n for p in acc.pivots):
        raise ValueError("singular matrix")
    return Matrix([row[n:] for row in acc.rows()], ncols=n)


def sparse_kernel_basis(rows: Iterable, ncols: int) -> list:
    """Null space basis of a system of {column: coeff} or dense rows.

    One {column: coeff} vector per free column of the system's RREF, not
    row reduced; used where a dense matrix would be wastefully big.
    """
    acc = RrefAccumulator(ncols)
    for row in rows:
        acc.add(row)
    return acc.kernel_basis()


def kernel_of_sparse_rows(rows: Iterable, ncols: int) -> Subspace:
    """Null space of a sparse {column: coeff} system as a canonical Subspace."""
    acc = RrefAccumulator(ncols)
    for v in sparse_kernel_basis(rows, ncols):
        acc.add(v)
    return acc.to_subspace()
