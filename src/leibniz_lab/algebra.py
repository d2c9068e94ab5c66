"""Finite-dimensional algebras given by structure constants.

A StructureTable stores the bilinear product [e_i, e_j] = sum_k c_ijk e_k
sparsely.  Coefficients are either Scalars (concrete algebras) or Polys
(families with named parameters); every operation that needs division or
spans demands the scalar ring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .linalg import (Matrix, RrefAccumulator, Subspace, invert,
                     kernel_of_sparse_rows)
from .scalars import ONE, POLY_ZERO, ZERO, Poly, Scalar

SCALAR = "scalar"
POLY = "poly"

_EMPTY: dict = {}


def _zero_of(ring: str):
    return ZERO if ring == SCALAR else POLY_ZERO


class StructureTable:
    """Structure constants of a bilinear product on a based vector space."""

    __slots__ = ("dim", "ring", "labels", "c")

    def __init__(self, dim: int, labels: Sequence[str], entries: Mapping, ring: str = SCALAR):
        if dim < 0:
            raise ValueError("negative dimension")
        if len(labels) != dim:
            raise ValueError("label count must equal dimension")
        if len(set(labels)) != dim:
            raise ValueError("duplicate basis labels")
        if ring not in (SCALAR, POLY):
            raise ValueError(f"unknown coefficient ring {ring!r}")
        self.dim = dim
        self.ring = ring
        self.labels = tuple(labels)
        c: dict = {}
        for (i, j), row in entries.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            nz = {}
            for k, coeff in row.items():
                if not (0 <= k < dim):
                    raise ValueError(f"component index {k} out of range")
                if not coeff.is_zero():
                    nz[k] = coeff
            if nz:
                c[(i, j)] = nz
        self.c = c

    def row(self, i: int, j: int) -> Mapping:
        return self.c.get((i, j), _EMPTY)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown basis label {label!r}") from None

    def basis_vector(self, i: int) -> list:
        one = ONE if self.ring == SCALAR else Poly.const(1)
        zero = _zero_of(self.ring)
        return [one if k == i else zero for k in range(self.dim)]

    def substitute(self, sub: Mapping[str, Poly]) -> "StructureTable":
        """Apply a substitution to every coefficient of a poly table."""
        if self.ring != POLY:
            raise ValueError("substitution requires poly coefficients")
        entries = {}
        for (i, j), row in self.c.items():
            entries[(i, j)] = {k: v.substitute(sub) for k, v in row.items()}
        return StructureTable(self.dim, self.labels, entries, ring=POLY)

    def to_scalar(self, assignment: Mapping[str, Scalar] | None = None) -> "StructureTable":
        """Evaluate a poly table at a point (or reinterpret constants)."""
        if self.ring == SCALAR:
            return self
        assignment = assignment or {}
        entries = {}
        for (i, j), row in self.c.items():
            entries[(i, j)] = {k: v.evaluate(assignment) for k, v in row.items()}
        return StructureTable(self.dim, self.labels, entries, ring=SCALAR)

    def same_brackets(self, other: "StructureTable") -> bool:
        """Coefficient-for-coefficient equality, labels ignored."""
        return self.dim == other.dim and self.ring == other.ring and self.c == other.c

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, StructureTable) and self.labels == other.labels
                and self.same_brackets(other))

    def __repr__(self) -> str:
        return f"StructureTable(dim={self.dim}, ring={self.ring})"


def bracket(a: StructureTable, x: Sequence, y: Sequence) -> list:
    """Product of two coefficient vectors in the based algebra."""
    if len(x) != a.dim or len(y) != a.dim:
        raise ValueError("vector length must equal the algebra dimension")
    zero = _zero_of(a.ring)
    out = [zero] * a.dim
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if yj.is_zero():
                continue
            f = xi * yj
            for k, ck in a.row(i, j).items():
                out[k] = out[k] + f * ck
    return out


def leibniz_residues(a: StructureTable) -> list:
    """All nonzero residues [ei,[ej,ek]] - [[ei,ej],ek] + [[ei,ek],ej].

    Returns a list of ((i, j, k), {component: coefficient}) entries, ordered
    by (i, j, k).
    """
    out = []
    d = a.dim
    for i in range(d):
        for j in range(d):
            rij = a.row(i, j)
            for k in range(d):
                rjk = a.row(j, k)
                rik = a.row(i, k)
                if not rij and not rjk and not rik:
                    continue
                acc: dict = {}
                for m, cm in rjk.items():
                    for r, cr in a.row(i, m).items():
                        v = cm * cr
                        cur = acc.get(r)
                        acc[r] = v if cur is None else cur + v
                for m, cm in rij.items():
                    for r, cr in a.row(m, k).items():
                        v = cm * cr
                        cur = acc.get(r)
                        acc[r] = -v if cur is None else cur - v
                for m, cm in rik.items():
                    for r, cr in a.row(m, j).items():
                        v = cm * cr
                        cur = acc.get(r)
                        acc[r] = v if cur is None else cur + v
                nz = {r: c for r, c in acc.items() if not c.is_zero()}
                if nz:
                    out.append(((i, j, k), nz))
    return out


def is_leibniz(a: StructureTable) -> bool:
    return not leibniz_residues(a)


def _is_skew(a: StructureTable) -> bool:
    """[ei, ej] = -[ej, ei] for all i <= j, so squares vanish too."""
    d = a.dim
    zero = _zero_of(a.ring)
    for i in range(d):
        for j in range(i, d):
            rij = a.row(i, j)
            rji = a.row(j, i)
            for k in set(rij) | set(rji):
                s = rij.get(k, zero) + rji.get(k, zero)
                if not s.is_zero():
                    return False
    return True


def is_lie(a: StructureTable) -> bool:
    """Leibniz plus a fully skew product (so squares vanish too)."""
    return _is_skew(a) and is_leibniz(a)


def mult_matrix(a: StructureTable, x: Sequence, side: str) -> Matrix:
    """Matrix of right (y -> [y,x]) or left (y -> [x,y]) multiplication.

    Columns are the images of the basis vectors in coordinates.
    """
    if a.ring != SCALAR:
        raise ValueError("mult_matrix requires scalar coefficients")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if len(x) != a.dim:
        raise ValueError("vector length must equal the algebra dimension")
    d = a.dim
    cols = []
    for s in range(d):
        if side == "right":
            img = bracket(a, a.basis_vector(s), x)
        else:
            img = bracket(a, x, a.basis_vector(s))
        cols.append(img)
    return Matrix([[cols[s][r] for s in range(d)] for r in range(d)], ncols=d)


def _bracket_span(a: StructureTable, u: Subspace, v: Subspace) -> Subspace:
    acc = RrefAccumulator(a.dim)
    for x in u.mat.rows:
        for y in v.mat.rows:
            acc.add(bracket(a, x, y))
    return acc.to_subspace()


def _series(a: StructureTable, derived: bool) -> list:
    if a.ring != SCALAR:
        raise ValueError("series require scalar coefficients")
    terms = [Subspace.full(a.dim)]
    whole = terms[0]
    for _ in range(a.dim + 1):
        prev = terms[-1]
        if prev.dim == 0:
            break
        nxt = _bracket_span(a, prev, prev if derived else whole)
        if nxt.dim == prev.dim and nxt == prev:
            break
        terms.append(nxt)
        if nxt.dim == 0:
            break
    return terms


def lower_central_series(a: StructureTable) -> list:
    """Terms L, [L,L], [[L,L],L], ... until stabilization or zero."""
    return _series(a, derived=False)


def derived_series(a: StructureTable) -> list:
    """Terms L, [L,L], [[L,L],[L,L]], ... until stabilization or zero."""
    return _series(a, derived=True)


def is_nilpotent(a: StructureTable) -> bool:
    return lower_central_series(a)[-1].dim == 0


def is_solvable(a: StructureTable) -> bool:
    return derived_series(a)[-1].dim == 0


def series_signature(a: StructureTable) -> tuple:
    """Dimension sequences of both series; invariant under basis change."""
    lc = tuple(s.dim for s in lower_central_series(a))
    dv = tuple(s.dim for s in derived_series(a))
    return (lc, dv)


def right_annihilator(a: StructureTable) -> Subspace:
    """{v : [x, v] = 0 for all x}, the common kernel of all left actions."""
    if a.ring != SCALAR:
        raise ValueError("right_annihilator requires scalar coefficients")
    rows: dict = {}
    for (i, s), row in a.c.items():
        for r, c in row.items():
            rows.setdefault((i, r), {})[s] = c
    return kernel_of_sparse_rows(rows.values(), a.dim)


def is_ideal(a: StructureTable, s: Subspace) -> bool:
    """Two-sided ideal test for a subspace."""
    if a.ring != SCALAR:
        raise ValueError("is_ideal requires scalar coefficients")
    if s.ambient != a.dim:
        raise ValueError("subspace ambient dimension mismatch")
    for u in s.mat.rows:
        for i in range(a.dim):
            e = a.basis_vector(i)
            if not s.contains(bracket(a, e, u)):
                return False
            if not s.contains(bracket(a, u, e)):
                return False
    return True


def is_derivation(a: StructureTable, d: Matrix) -> bool:
    """Check d([x,y]) = [d(x),y] + [x,d(y)] on all basis pairs."""
    if a.ring != SCALAR:
        raise ValueError("is_derivation requires scalar coefficients")
    if d.nrows != a.dim or d.ncols != a.dim:
        raise ValueError("derivation matrix shape mismatch")
    n = a.dim
    cols = [[d.rows[r][s] for r in range(n)] for s in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = d.apply([a.row(i, j).get(k, ZERO) for k in range(n)])
            rhs1 = bracket(a, cols[i], a.basis_vector(j))
            rhs2 = bracket(a, a.basis_vector(i), cols[j])
            for k in range(n):
                if not (lhs[k] - rhs1[k] - rhs2[k]).is_zero():
                    return False
    return True


def derivation_algebra(a: StructureTable) -> Subspace:
    """All derivations, as a subspace of matrix space (entry (r,s) -> r*dim+s).

    The defining conditions are linear in the matrix entries; the sparse
    eliminator keeps large instances fast.
    """
    if a.ring != SCALAR:
        raise ValueError("derivation_algebra requires scalar coefficients")
    n = a.dim
    if n == 0:
        return Subspace.full(0)

    def rows():
        for i in range(n):
            for j in range(n):
                cij = a.row(i, j)
                for k in range(n):
                    row: dict = {}
                    for s, c in cij.items():
                        row[k * n + s] = row.get(k * n + s, ZERO) + c
                    # [d(ei), ej] contributes c_{rjk} * D[r][i]
                    for r in range(n):
                        c = a.row(r, j).get(k)
                        if c is not None:
                            col = r * n + i
                            row[col] = row.get(col, ZERO) - c
                    for r in range(n):
                        c = a.row(i, r).get(k)
                        if c is not None:
                            col = r * n + j
                            row[col] = row.get(col, ZERO) - c
                    nz = {c: v for c, v in row.items() if not v.is_zero()}
                    if nz:
                        yield nz

    return kernel_of_sparse_rows(rows(), n * n)


class BasisChange:
    """An invertible change of basis, rows giving new vectors in old coordinates."""

    __slots__ = ("p", "p_inv")

    def __init__(self, p: Matrix):
        if p.nrows != p.ncols:
            raise ValueError("basis change must be square")
        try:
            self.p_inv = invert(p)
        except ValueError:
            raise ValueError("basis change matrix is singular") from None
        self.p = p

    @property
    def dim(self) -> int:
        return self.p.nrows

    def then(self, later: "BasisChange") -> "BasisChange":
        """Composite change: apply self first, then `later` on the new basis."""
        return BasisChange(later.p * self.p)


def change_of_basis(a: StructureTable, bc: BasisChange) -> StructureTable:
    """Transport the table to the basis e'_i = sum_j p_ij e_j."""
    if a.ring != SCALAR:
        raise ValueError("change_of_basis requires scalar coefficients")
    if bc.dim != a.dim:
        raise ValueError("basis change dimension mismatch")
    d = a.dim
    p = bc.p.rows
    pinv = bc.p_inv.rows
    entries: dict = {}
    for i in range(d):
        for j in range(d):
            w = [ZERO] * d
            for aa in range(d):
                pa = p[i][aa]
                if pa.is_zero():
                    continue
                for bb in range(d):
                    pb = p[j][bb]
                    if pb.is_zero():
                        continue
                    f = pa * pb
                    for k, ck in a.row(aa, bb).items():
                        w[k] = w[k] + f * ck
            if all(x.is_zero() for x in w):
                continue
            row = {}
            for k in range(d):
                acc = ZERO
                for cidx in range(d):
                    wc = w[cidx]
                    if not wc.is_zero():
                        pk = pinv[cidx][k]
                        if not pk.is_zero():
                            acc = acc + pk * wc
                if not acc.is_zero():
                    row[k] = acc
            if row:
                entries[(i, j)] = row
    return StructureTable(d, a.labels, entries, ring=SCALAR)


# ---- file format -----------------------------------------------------------

def table_to_document(a: StructureTable) -> dict:
    """Plain-dict form of a scalar table, brackets sorted for determinism."""
    if a.ring != SCALAR:
        raise ValueError("only scalar tables are serialized")
    brackets = []
    for (i, j) in sorted(a.c):
        row = a.c[(i, j)]
        value = [{"coef": str(row[k]), "basis": a.labels[k]} for k in sorted(row)]
        brackets.append({"left": a.labels[i], "right": a.labels[j], "value": value})
    return {"dim": a.dim, "labels": list(a.labels), "brackets": brackets}


def table_from_document(doc: Mapping) -> StructureTable:
    for field in ("dim", "labels", "brackets"):
        if field not in doc:
            raise ValueError(f"algebra document is missing field {field!r}")
    dim, labels = doc["dim"], doc["labels"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError("field 'dim' must be an integer")
    if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
        raise ValueError("field 'labels' must be a list of strings")
    if not isinstance(doc["brackets"], list):
        raise ValueError("field 'brackets' must be a list of records")
    index = {lab: k for k, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("field 'labels' contains duplicates")
    entries: dict = {}
    for rec in doc["brackets"]:
        if not isinstance(rec, dict):
            raise ValueError("bracket record must be an object")
        for field in ("left", "right", "value"):
            if field not in rec:
                raise ValueError(f"bracket record is missing field {field!r}")
        try:
            i, j = index[rec["left"]], index[rec["right"]]
        except KeyError as exc:
            raise ValueError(f"bracket references unknown label {exc.args[0]!r}") from None
        if not isinstance(rec["value"], list):
            raise ValueError("bracket value must be a list of terms")
        row: dict = {}
        for term in rec["value"]:
            if not isinstance(term, dict):
                raise ValueError("bracket term must be an object")
            if "coef" not in term or "basis" not in term:
                raise ValueError("bracket term must carry 'coef' and 'basis'")
            if term["basis"] not in index:
                raise ValueError(f"bracket term references unknown label {term['basis']!r}")
            k = index[term["basis"]]
            c = Scalar.parse(term["coef"])
            row[k] = row.get(k, ZERO) + c
        if (i, j) in entries:
            raise ValueError(f"duplicate bracket record for ({rec['left']}, {rec['right']})")
        entries[(i, j)] = row
    return StructureTable(dim, labels, entries, ring=SCALAR)


def dumps_table(a: StructureTable) -> str:
    return json.dumps(table_to_document(a), indent=2) + "\n"


def loads_table(text: str) -> StructureTable:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed algebra file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("algebra file must hold a single object")
    return table_from_document(doc)


def save_table(a: StructureTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_table(a))


def load_table(path: str) -> StructureTable:
    with open(path, encoding="utf-8") as fh:
        return loads_table(fh.read())


@dataclass(frozen=True)
class TableChecks:
    """Summary verdicts used by the command line 'check'."""

    leibniz: bool
    lie: bool
    nilpotent: bool
    solvable: bool
    signature: tuple

    @classmethod
    def of(cls, a: StructureTable) -> "TableChecks":
        """One residue scan and one build of each series."""
        leibniz = is_leibniz(a)
        signature = series_signature(a)
        lc, dv = signature
        return cls(
            leibniz=leibniz,
            lie=leibniz and _is_skew(a),
            nilpotent=lc[-1] == 0,
            solvable=dv[-1] == 0,
            signature=signature,
        )
