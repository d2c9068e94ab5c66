"""Finite-dimensional algebras given by structure constants.

A StructureTable stores the bilinear product [e_i, e_j] = sum_k c_ijk e_k
sparsely.  Coefficients are either Scalars (concrete algebras) or Polys
(families with named parameters); every operation that needs division or
spans demands the scalar ring.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain, combinations, product
from math import gcd, lcm

from .linalg import Matrix, Subspace, invert, kernel_of_sparse_rows
from .scalars import ONE, POLY_ZERO, ZERO, Poly, Record, Scalar, _mul_mon, _poly

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


class _IntView:
    """grid[i][j]: the (component, re, im) int cells of D * [e_i, e_j], D the
    lcm of the denominators; size: the largest |re| + |im|.  For the residue
    scans, series, change_of_basis and derivation_algebra; built per call, not
    cached: a caller keeping many tables would keep entries twice."""

    __slots__ = ("den", "grid", "size")

    def __init__(self, a: StructureTable, caller: str):
        if a.ring != SCALAR:
            raise ValueError(f"{caller} requires scalar coefficients")
        self.den, cells, self.size = _scaled(c for row in a.c.values() for c in row.values())
        self.grid = [[()] * a.dim for _ in range(a.dim)]
        it = iter(cells)
        for (i, j), row in a.c.items():
            self.grid[i][j] = tuple((k, *next(it)) for k in row)


def _scaled(scalars) -> tuple:
    """(den, den * each scalar as an (re, im) int pair, largest |re| + |im|)."""
    scalars = list(scalars)
    den = lcm(*(c.d for c in scalars))
    pairs = [(c.x * (den // c.d), c.y * (den // c.d)) for c in scalars]
    return den, pairs, max([abs(x) + abs(y) for x, y in pairs], default=0)


def _slot_bits(bound: int) -> int:
    """K with 2**(K-1) > bound: a packed sum(v_k * 2**(K*k)) with every
    |v_k| <= bound then has one balanced expansion, zero iff each v_k is."""
    return (2 * bound).bit_length()


def _pack(cells, bits: int, n: int) -> tuple:
    """The (component, re, im) cells as one int, n re slots then n im slots,
    and that int times i (re and im swapped, one negated)."""
    re = im = 0
    for k, x, y in cells:
        re += x << (bits * k)
        im += y << (bits * k)
    return re + (im << (bits * n)), (re << (bits * n)) - im


def _unpack(v: int, bits: int, n: int) -> list:
    """The n balanced slots of a packed int."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    v += half * ((1 << (bits * n)) - 1) // mask     # half in each slot
    return [((v >> (bits * k)) & mask) - half for k in range(n)]


def _mac(cells, rows: Sequence) -> int:
    """sum of (p + q*i) * rows[m] over the (m, p, q) cells, for rows packed
    with their multiples by i."""
    acc = 0
    for m, p, q in cells:
        u, v = rows[m]
        acc += p * u + q * v
    return acc


def _bracket_ints(grid: list, xs: list, ys: list, d: int) -> tuple:
    """(re, im) int lists of the bracket of two sparse (index, re, im) vectors."""
    re, im = [0] * d, [0] * d
    for i, p, q in xs:
        gi = grid[i]
        for j, u, v in ys:
            cells = gi[j]
            if cells:
                f, g = p * u - q * v, p * v + q * u
                for k, x, y in cells:
                    re[k] += f * x - g * y
                    im[k] += f * y + g * x
    return re, im


def bracket(a: StructureTable, x: Sequence, y: Sequence) -> list:
    """Product of two coefficient vectors in the based algebra."""
    if len(x) != a.dim or len(y) != a.dim:
        raise ValueError("vector length must equal the algebra dimension")
    if a.ring != SCALAR:
        raise ValueError("bracket requires scalar coefficients")
    out = [ZERO] * a.dim
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if yj.is_zero():
                continue
            for k, c in a.row(i, j).items():
                out[k] = out[k] + xi * yj * c
    return out


def leibniz_residues(a: StructureTable) -> list:
    """All nonzero residues [ei,[ej,ek]] - [[ei,ej],ek] + [[ei,ek],ej].

    Returns a list of ((i, j, k), {component: coefficient}) entries, ordered
    by (i, j, k).
    """
    if a.ring == SCALAR:
        return _scalar_residues(_IntView(a, "leibniz_residues"), a.dim)
    return _poly_residues(a, polys=True)[1]


def _cell_poly(cells: dict, den: int) -> Poly:
    """The Poly of {monomial: (re, im)} nonzero int cells over den."""
    return _poly({m: Scalar.from_ints(x, y, den) for m, (x, y) in cells.items()})


def _poly_residues(a: StructureTable, polys: bool = False) -> tuple:
    """(D**2, [((i, j, k), {component: {monomial: (re, im)}})]): the scan of a
    Poly table on the (monomial, re, im) int cells of D times each entry, D
    the lcm of the denominators, which finds D**2 times each residue; with
    `polys`, each coefficient is made a Poly once its triple is done.  Like
    Poly.__mul__ and Poly.__add__, a product and a sum delete a term where it
    cancels: every coefficient keeps Poly arithmetic's term order.  A product
    is added to its component cell by cell, in place, but a product of two
    multi-term entries is summed on its own first, since its terms may meet."""
    d = a.dim
    den = lcm(*(c.d for row in a.c.values() for p in row.values() for c in p.terms.values()))
    grid = [[()] * d for _ in range(d)]
    for (i, j), row in a.c.items():
        grid[i][j] = tuple((k, tuple((m, c.x * (den // c.d), c.y * (den // c.d))
                                     for m, c in p.terms.items())) for k, p in row.items())
    prods: dict = {}                # (monomial, monomial) -> their product
    cols = list(zip(*grid))

    def into(t: dict, cells) -> None:
        """t += the cells, a term deleted where it cancels."""
        for m, (x, y) in cells:
            cur = t.get(m)
            if cur is not None:
                x += cur[0]
                y += cur[1]
                if not (x or y):
                    del t[m]
                    continue
            t[m] = x, y

    out = []
    for i, j, k in product(range(d), repeat=3):
        gij, gjk, gik = grid[i][j], grid[j][k], grid[i][k]
        if not (gij or gjk or gik):
            continue
        acc: dict = {}
        for sign, outer, rows in ((1, gjk, grid[i]), (-1, gij, cols[k]), (1, gik, cols[j])):
            for m, u in outer:
                for r, v in rows[m]:
                    both = len(u) > 1 and len(v) > 1    # the product's own terms may meet
                    t = {} if both else acc.get(r)
                    if t is None:
                        t = acc[r] = {}
                    for m1, p, q in u:          # t += sign * u * v, cell by cell, as `into` adds
                        p, q = sign * p, sign * q
                        for m2, x, y in v:
                            mon = prods.get((m1, m2))
                            if mon is None:
                                mon = prods[m1, m2] = _mul_mon(m1, m2)
                            x, y = p * x - q * y, p * y + q * x
                            cur = t.get(mon)
                            if cur is not None:
                                x, y = x + cur[0], y + cur[1]
                            if x or y:
                                t[mon] = x, y
                            else:
                                del t[mon]
                    if both:
                        into(acc.setdefault(r, {}), t.items())
        nz = {r: _cell_poly(t, den * den) if polys else t for r, t in acc.items() if t}
        if nz:
            out.append(((i, j, k), nz))
    return den * den, out


def _scalar_residues(view: _IntView, d: int) -> list:
    """The residue scan over packed rows: each (triple, intermediate) costs
    one multiply-add of a cell by a bracket row and its multiple by i.  A
    component sums 3*d products of two cells.  Residues are quadratic, so
    this finds D**2 times each; only a nonzero one is unpacked, and divided.
    Residues (i, j, k) and (i, k, j) sum to [e_i, [e_j, e_k] + [e_k, e_j]]:
    they share their two outer products, so a pair j < k costs four, not six.
    """
    grid, den2 = view.grid, view.den * view.den
    bits = _slot_bits(3 * d * view.size * view.size)
    packed = [[_pack(cells, bits, d) for cells in gi] for gi in grid]
    cols = list(zip(*packed))
    out = []
    for i in range(d):
        gi, pi = grid[i], packed[i]
        res = [0] * (d * d)         # residue (i, j, k) at j * d + k
        for j in range(d):
            gij, gj = gi[j], grid[j]
            if gj[j]:
                res[j * d + j] = _mac(gj[j], pi)        # the other two terms cancel
            for k in range(j + 1, d):
                gjk, gkj, gik = gj[k], grid[k][j], gi[k]
                if gij or gik or gjk or gkj:
                    t = _mac(gij, cols[k]) - _mac(gik, cols[j])
                    res[j * d + k] = _mac(gjk, pi) - t
                    res[k * d + j] = _mac(gkj, pi) + t
        for n, r in enumerate(res):
            if r:
                j, k = divmod(n, d)
                s = _unpack(r, bits, 2 * d)
                out.append(((i, j, k), {m: Scalar.from_ints(s[m], s[d + m], den2)
                                        for m in _first_met(grid, i, j, k)
                                        if s[m] or s[d + m]}))
    return out


def _first_met(grid: list, i: int, j: int, k: int) -> dict:
    """Components of residue (i, j, k) in the order the scan first meets them."""
    return dict.fromkeys(chain((e[0] for m, *_ in grid[j][k] for e in grid[i][m]),
                               (e[0] for m, *_ in grid[i][j] for e in grid[m][k]),
                               (e[0] for m, *_ in grid[i][k] for e in grid[m][j])))


def is_leibniz(a: StructureTable) -> bool:
    return not leibniz_residues(a)


def _is_skew(a: StructureTable) -> bool:
    """[ei, ej] = -[ej, ei] for all i, j, so squares vanish too."""
    zero = _zero_of(a.ring)
    return all((c + a.row(j, i).get(k, zero)).is_zero()
               for (i, j), row in a.c.items() for k, c in row.items())


def is_lie(a: StructureTable) -> bool:
    """A skew product that is Leibniz.  On a skew table residue (i, j, k) is
    the Jacobiator J(e_i, e_j, e_k), which is alternating, so i < j < k
    suffice, at 3 packed products each.  Poly tables take the full scan."""
    if not _is_skew(a):
        return False
    if a.ring != SCALAR:
        return is_leibniz(a)
    view = _IntView(a, "is_lie")
    grid, d = view.grid, a.dim
    bits = _slot_bits(3 * d * view.size * view.size)
    packed = [[_pack(cells, bits, d) for cells in gi] for gi in grid]
    for i, j, k in combinations(range(d), 3):
        u, v, w = grid[j][k], grid[k][i], grid[i][j]
        if (u or v or w) and _mac(u, packed[i]) + _mac(v, packed[j]) + _mac(w, packed[k]):
            return False
    return True


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
    cols = [bracket(a, e, x) if side == "right" else bracket(a, x, e)
            for e in map(a.basis_vector, range(a.dim))]
    return Matrix(zip(*cols), ncols=a.dim)


class _IntSpan:
    """A span in Q(i)^d as fraction-free rows (lead, re, im) in reduced echelon
    form: dense int lists, im None on a real row.  Each lead entry is real and
    positive, the other rows are 0 there, and a row's parts have gcd 1: the
    unique RREF rows, cleared of denominators."""

    __slots__ = ("d", "rows")

    def __init__(self, d: int):
        self.d, self.rows = d, []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, re: list, im: list) -> bool:
        """Insert re + i*im; returns True if it enlarged the span."""
        im = im if any(im) else None
        for p, u, v in self.rows:
            if re[p] or im and im[p]:
                re, im = _eliminate(u[p], re, im, re[p], im[p] if im else 0, u, v)
        if not (im or any(re)):
            return False
        p = next(k for k, x in enumerate(re) if x or im and im[k])
        if im and im[p]:        # times the lead's conjugate: the lead becomes real
            re, im = _eliminate(re[p], re, im, 0, im[p], re, im)
        re, im = _primitive(re, im, p)
        for n, (q, u, v) in enumerate(self.rows):
            if u[p] or v and v[p]:
                u, v = _eliminate(re[p], u, v, u[p], v[p] if v else 0, re, im)
                self.rows[n] = (q, *_primitive(u, v, q))
        self.rows.append((p, re, im))
        return True

    def cells(self) -> list:
        """Each row as sparse (index, re, im) cells."""
        return [[(k, x, v[k] if v else 0) for k, x in enumerate(u) if x or v and v[k]]
                for _, u, v in self.rows]

    def to_subspace(self) -> Subspace:
        return Subspace.from_vectors([[Scalar(x, y) for x, y in zip(u, v or [0] * self.d)]
                                      for _, u, v in self.rows], self.d)


def _eliminate(s: int, re: list, im, a: int, b: int, u: list, v) -> tuple:
    """s * (re + i*im) - (a + b*i) * (u + i*v), im and v None where real."""
    if im is None and v is None:
        return [s * x - a * y for x, y in zip(re, u)], None
    im, v = im or [0] * len(re), v or [0] * len(re)
    im = [s * w - a * z - b * y for w, y, z in zip(im, u, v)]
    return [s * x - a * y + b * z for x, y, z in zip(re, u, v)], im if any(im) else None


def _primitive(re: list, im, lead: int) -> tuple:
    """re + i*im over the gcd of its parts, signed to make re[lead] positive."""
    g = gcd(*re, *(im or ()))
    g = g if re[lead] > 0 else -g
    return [x // g for x in re], im and [y // g for y in im]


def _bracket_span(grid: list, d: int, us: list, vs: list, bound: int) -> _IntSpan:
    """span [u, v] over the row cells u of C^k (v of L) or D^k (v = u), bound = dim u.

    The span lies in u, so it stops at dim u, for any bilinear product: C^2
    lies in L, and C^k in C^{k-1} gives C^{k+1} = [C^k, L] in [C^{k-1}, L] =
    C^k; likewise D^{k+1} = [D^k, D^k] lies in [D^{k-1}, D^{k-1}] = D^k."""
    span = _IntSpan(d)
    for xs, ys in product(us, vs):
        re, im = _bracket_ints(grid, xs, ys, d)
        if (any(re) or any(im)) and span.add(re, im) and span.dim == bound:
            break
    return span


def _series(a: StructureTable, kinds: tuple) -> list:
    """Each kind's series (derived or not) as spans; [L, L] is built once."""
    grid, d = _IntView(a, "series").grid, a.dim
    full = _IntSpan(d)
    full.rows = [(j, [int(k == j) for k in range(d)], None) for j in range(d)]
    units = full.cells()
    square = _bracket_span(grid, d, units, units, d)
    out = []
    for derived in kinds:
        terms, nxt = [full], square
        while nxt.dim < terms[-1].dim:      # equal ends it, by the argument at _bracket_span
            terms.append(nxt)
            rows = nxt.cells()
            nxt = _bracket_span(grid, d, rows, rows if derived else units, nxt.dim)
        out.append(terms)
    return out


def lower_central_series(a: StructureTable) -> list:
    """Terms L, [L,L], [[L,L],L], ... until stabilization or zero."""
    return [t.to_subspace() for t in _series(a, (False,))[0]]


def derived_series(a: StructureTable) -> list:
    """Terms L, [L,L], [[L,L],[L,L]], ... until stabilization or zero."""
    return [t.to_subspace() for t in _series(a, (True,))[0]]


def is_nilpotent(a: StructureTable) -> bool:
    return _series(a, (False,))[0][-1].dim == 0


def is_solvable(a: StructureTable) -> bool:
    return _series(a, (True,))[0][-1].dim == 0


def series_signature(a: StructureTable) -> tuple:
    """Dimension sequences of both series; invariant under basis change.
    Only dimensions are read: no subspace is built."""
    return tuple(tuple(t.dim for t in terms) for terms in _series(a, (False, True)))


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
    return all(s.contains(bracket(a, e, u)) and s.contains(bracket(a, u, e))
               for u in s.mat.rows for e in map(a.basis_vector, range(a.dim)))


def is_derivation(a: StructureTable, d: Matrix) -> bool:
    """d[x,y] = [dx,y] + [x,dy] on basis pairs: d, read by rows, lies in derivation_algebra."""
    if a.ring != SCALAR:
        raise ValueError("is_derivation requires scalar coefficients")
    if d.nrows != a.dim or d.ncols != a.dim:
        raise ValueError("derivation matrix shape mismatch")
    return derivation_algebra(a).contains(list(chain.from_iterable(d.rows)))


def derivation_algebra(a: StructureTable) -> Subspace:
    """All derivations, as a subspace of matrix space (entry (r,s) -> r*dim+s).

    Row (i, j, k) is the e_k entry of D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j].
    It is linear in the table, so the int cells of the scaled table give the
    same kernel.  On a skew table the rows with i < j suffice:
    - row (j, i, k) is minus row (i, j, k), as c_jis = -c_ijs, c_rik = -c_irk, c_jrk = -c_rjk;
    - row (i, i, k) is -sum_r (c_rik + c_irk) D_ri, as c_iis = 0, and each c_rik + c_irk = 0.
    """
    view = _IntView(a, "derivation_algebra")
    n = a.dim
    # right[j][k]: the (r*n, c_rjk) cells; left[i][k]: the (r*n, c_irk)
    right: list = [{} for _ in range(n)]
    left: list = [{} for _ in range(n)]
    for r, gr in enumerate(view.grid):
        for s, cells in enumerate(gr):
            for k, x, y in cells:
                right[s].setdefault(k, []).append((r * n, x, y))
                left[r].setdefault(k, []).append((s * n, x, y))
    pairs = combinations(range(n), 2) if _is_skew(a) else product(range(n), repeat=2)

    def rows():
        for i, j in pairs:
            cij, rj, li = view.grid[i][j], right[j], left[i]
            for k in range(n) if cij else sorted(rj.keys() | li.keys()):
                row = {k * n + s: (x, y) for s, x, y in cij}
                # [D e_i, e_j] holds c_rjk D_ri and [e_i, D e_j] holds c_irk D_rj
                for terms, col in ((rj.get(k, ()), i), (li.get(k, ()), j)):
                    for rn, x, y in terms:
                        u, v = row.get(rn + col, (0, 0))
                        row[rn + col] = (u - x, v - y)
                nz = {c: Scalar.from_ints(x, y, 1) for c, (x, y) in row.items() if x or y}
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
    """Transport the table to the basis e'_i = sum_j p_ij e_j.

    With P = P'/d_P and P^-1 = Q'/d_Q, row (i, j) is sum_ab p'_ia p'_jb G_ab Q'
    over D * d_P**2 * d_Q, in packed stages: over b, over a, then times the
    packed rows of Q'.  A slot sums d**3 products of four entries.
    """
    view = _IntView(a, "change_of_basis")
    if bc.dim != a.dim:
        raise ValueError("basis change dimension mismatch")
    d = a.dim
    dp, p, mp = _scaled(chain.from_iterable(bc.p.rows))
    dq, q, mq = _scaled(chain.from_iterable(bc.p_inv.rows))
    bits = _slot_bits(d ** 3 * mp * mp * mq * view.size)
    g = [[_pack(cells, bits, d) for cells in row] for row in view.grid]
    qrows = [_pack([(k, *q[c * d + k]) for k in range(d)], bits, d) for c in range(d)]
    prows = [[(b, x, y) for b, (x, y) in enumerate(p[r * d:(r + 1) * d]) if x or y]
             for r in range(d)]
    irows = [[(b, -y, x) for b, x, y in row] for row in prows]     # i * P'
    # (h_aj, i * h_aj) with h_aj = sum_b p'_jb G_ab, for the next stage
    hcols = [[(_mac(prows[j], g[aa]), _mac(irows[j], g[aa])) for aa in range(d)]
             for j in range(d)]
    den = view.den * dp * dp * dq
    entries: dict = {}
    for i in range(d):
        for j in range(d):
            w = _mac(prows[i], hcols[j])
            if not w:
                continue
            s = _unpack(w, bits, 2 * d)
            s = _unpack(_mac([(c, s[c], s[d + c]) for c in range(d)], qrows), bits, 2 * d)
            # w != 0 and Q' is invertible, so the row is not zero
            entries[(i, j)] = {k: Scalar.from_ints(s[k], s[d + k], den)
                               for k in range(d) if s[k] or s[d + k]}
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
        if not isinstance(rec["left"], str) or not isinstance(rec["right"], str):
            raise ValueError("bracket fields 'left' and 'right' must be strings")
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
            if not isinstance(term["basis"], str):
                raise ValueError("bracket term field 'basis' must be a string")
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
    import json
    return json.dumps(table_to_document(a), indent=2) + "\n"


def loads_table(text: str) -> StructureTable:
    import json
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
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


class TableChecks(Record):
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
