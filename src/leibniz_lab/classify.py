"""Classification of the 7-dimensional non-skew extension family.

One outer generator over the n = 4 triangular algebra, with zero total
diagonal trace baked in: the nine surviving parameters satisfy three product
restrictions, and every non-skew member is carried by an exact basis change
onto one of three canonical tables (L1, L2, L3).  L42 is the companion
8-dimensional family with two outer generators.

Basis order everywhere: N12, N23, N34, N13, N24, N14, then the generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .algebra import BasisChange, StructureTable, change_of_basis, is_lie, right_annihilator, series_signature
from .linalg import Matrix
from .scalars import ONE, ZERO, Scalar
from .symsolve import random_nonzero_scalar, random_scalar
from .triangular import triangular

HALF = Scalar(Fraction(1, 2))

L41_PARAM_NAMES = ("a_12_12", "a_12_24", "b_12_14", "a_23_23", "a_23_14",
                   "b_23_14", "a_34_13", "b_34_14", "s_14")

L1_PARAM_NAMES = ("a_12_24", "b_12_14", "s_14")
L2_PARAM_NAMES = ("a_23_14", "b_23_14", "s_14")
L3_PARAM_NAMES = ("a_23_23",)
L42_PARAM_NAMES = ("s11", "s12", "s21", "s22")

N12, N23, N34, N13, N24, N14 = range(6)


@dataclass(frozen=True)
class L41Params:
    """Parameter point for the one-generator family over the n = 4 nilradical."""

    a_12_12: Scalar = ZERO
    a_12_24: Scalar = ZERO
    b_12_14: Scalar = ZERO
    a_23_23: Scalar = ZERO
    a_23_14: Scalar = ZERO
    b_23_14: Scalar = ZERO
    a_34_13: Scalar = ZERO
    b_34_14: Scalar = ZERO
    s_14: Scalar = ZERO

    @classmethod
    def from_mapping(cls, values: Mapping[str, Scalar]) -> "L41Params":
        for name in values:
            if name not in L41_PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")
        return cls(**dict(values))

    def as_mapping(self) -> dict:
        return {name: getattr(self, name) for name in L41_PARAM_NAMES}

    def restriction_violation(self) -> Optional[str]:
        if not (self.a_12_12 * self.b_12_14).is_zero():
            return "a_12_12 * b_12_14"
        if not (self.a_23_23 * (self.a_23_14 + self.b_23_14)).is_zero():
            return "a_23_23 * (a_23_14 + b_23_14)"
        if not ((self.a_12_12 + self.a_23_23) * self.b_34_14).is_zero():
            return "(a_12_12 + a_23_23) * b_34_14"
        return None

    def validate(self) -> None:
        bad = self.restriction_violation()
        if bad is not None:
            raise ValueError(f"parameter restriction violated: {bad} must vanish")
        if self.a_12_12.is_zero() and self.a_23_23.is_zero():
            raise ValueError("the generator acts nilpotently when a_12_12 and "
                             "a_23_23 both vanish")


def build_L41(p: L41Params) -> StructureTable:
    """Concrete 7-dimensional table for a valid parameter point."""
    p.validate()
    d1, d2 = p.a_12_12, p.a_23_23
    d3 = -(d1 + d2)
    x = 6
    entries: dict = dict(triangular(4).c)
    entries[(N12, x)] = {N12: d1, N24: p.a_12_24}
    entries[(x, N12)] = {N12: -d1, N24: -p.a_12_24, N14: p.b_12_14}
    entries[(N23, x)] = {N23: d2, N14: p.a_23_14}
    entries[(x, N23)] = {N23: -d2, N14: p.b_23_14}
    entries[(N34, x)] = {N34: d3, N13: p.a_34_13}
    entries[(x, N34)] = {N34: -d3, N13: -p.a_34_13, N14: p.b_34_14}
    entries[(N13, x)] = {N13: d1 + d2}
    entries[(x, N13)] = {N13: -(d1 + d2)}
    entries[(N24, x)] = {N24: d2 + d3}
    entries[(x, N24)] = {N24: -(d2 + d3)}
    entries[(x, x)] = {N14: p.s_14}
    labels = list(triangular(4).labels) + ["X"]
    return StructureTable(7, labels, entries)


@dataclass(frozen=True)
class CanonicalForm:
    """Identifier plus residual parameters of a canonical table."""

    id: str
    params: Mapping[str, Scalar]

    def param(self, name: str) -> Scalar:
        return self.params.get(name, ZERO)

    def validate(self) -> None:
        allowed = {"L1": L1_PARAM_NAMES, "L2": L2_PARAM_NAMES,
                   "L3": L3_PARAM_NAMES, "L42": L42_PARAM_NAMES}.get(self.id)
        if allowed is None:
            raise ValueError(f"unknown canonical form {self.id!r}")
        for name in self.params:
            if name not in allowed:
                raise ValueError(f"unknown parameter {name!r} for form {self.id}")
        if self.id == "L1":
            if self.param("b_12_14").is_zero() and self.param("s_14").is_zero():
                raise ValueError("L1 requires (b_12_14, s_14) != (0, 0); "
                                 "the table is skew otherwise")
        elif self.id == "L2":
            s = self.param("a_23_14") + self.param("b_23_14")
            if s.is_zero() and self.param("s_14").is_zero():
                raise ValueError("L2 requires (a_23_14 + b_23_14, s_14) != (0, 0); "
                                 "the table is skew otherwise")
        elif self.id == "L3":
            a = self.param("a_23_23")
            if (a * (ONE + a)).is_zero():
                raise ValueError("L3 requires a_23_23 outside {0, -1}")
        else:
            if all(self.param(k).is_zero() for k in L42_PARAM_NAMES):
                raise ValueError("L42 requires a nonzero generator square table")


def build_canonical(form: CanonicalForm) -> StructureTable:
    form.validate()
    labels4 = list(triangular(4).labels)
    entries: dict = dict(triangular(4).c)
    if form.id == "L42":
        x1, x2 = 6, 7
        for x, diag in ((x1, (ONE, ZERO, -ONE)), (x2, (ZERO, ONE, -ONE))):
            d1, d2, d3 = diag
            for row, val in ((N12, d1), (N23, d2), (N34, d3),
                             (N13, d1 + d2), (N24, d2 + d3), (N14, ZERO)):
                entries[(row, x)] = {row: val}
                entries[(x, row)] = {row: -val}
        entries[(x1, x1)] = {N14: form.param("s11")}
        entries[(x1, x2)] = {N14: form.param("s12")}
        entries[(x2, x1)] = {N14: form.param("s21")}
        entries[(x2, x2)] = {N14: form.param("s22")}
        return StructureTable(8, labels4 + ["X1", "X2"], entries)

    x = 6
    if form.id == "L1":
        diag = (ZERO, ONE, -ONE)
        extras_right = {N12: {N24: form.param("a_12_24")}}
        extras_left = {N12: {N24: -form.param("a_12_24"), N14: form.param("b_12_14")}}
        square = form.param("s_14")
    elif form.id == "L2":
        diag = (ONE, ZERO, -ONE)
        extras_right = {N23: {N14: form.param("a_23_14")}}
        extras_left = {N23: {N14: form.param("b_23_14")}}
        square = form.param("s_14")
    else:
        a = form.param("a_23_23")
        diag = (ONE, a, -(ONE + a))
        extras_right = {}
        extras_left = {}
        square = ONE
    d1, d2, d3 = diag
    for row, val in ((N12, d1), (N23, d2), (N34, d3),
                     (N13, d1 + d2), (N24, d2 + d3), (N14, ZERO)):
        right = {row: val}
        right.update(extras_right.get(row, {}))
        left = {row: -val}
        left.update(extras_left.get(row, {}))
        entries[(row, x)] = right
        entries[(x, row)] = left
    entries[(x, x)] = {N14: square}
    return StructureTable(7, labels4 + ["X"], entries)


@dataclass(frozen=True)
class Classification:
    """Canonical form, exact witness, and the branch that produced them."""

    form: CanonicalForm
    witness: BasisChange
    case: str
    note: Optional[str] = None


def classify_L41(p: L41Params) -> Classification:
    """Carry a non-skew member onto its canonical table by a basis change.

    The witness rows express the new basis in the input coordinates, so
    transporting the input table along it reproduces the canonical table
    exactly; that equality is checked before returning.
    """
    p.validate()
    source = build_L41(p)
    if is_lie(source):
        raise ValueError("Lie member, out of scope")
    a12, a23 = p.a_12_12, p.a_23_23

    if a12.is_zero():
        inv = ONE / a23
        rows = Matrix.identity(7).copy_rows()
        rows[N23][N14] = p.a_23_14 * inv
        rows[N34][N13] = -(p.a_34_13 * inv * HALF)
        rows[6][6] = inv
        witness = BasisChange(Matrix(rows))
        form = CanonicalForm("L1", {"a_12_24": p.a_12_24 * inv,
                                    "b_12_14": p.b_12_14 * inv,
                                    "s_14": p.s_14 * inv * inv})
        case = "1"
        note = None
    else:
        inv = ONE / a12
        t24 = p.a_12_24 * inv
        t14 = p.a_23_14 * inv
        t23l = p.b_23_14 * inv
        t34 = p.a_34_13 * inv
        t34l = p.b_34_14 * inv
        tsq = p.s_14 * inv * inv
        t23 = a23 * inv
        if a23.is_zero():
            rows = Matrix.identity(7).copy_rows()
            rows[N12][N24] = t24 * HALF
            rows[N34][N13] = -(t34 * HALF)
            rows[6][6] = inv
            witness = BasisChange(Matrix(rows))
            form = CanonicalForm("L2", {"a_23_14": t14, "b_23_14": t23l,
                                        "s_14": tsq})
            case = "2.1"
            note = None
        elif (a23 + a12).is_zero():
            rows = Matrix.identity(7).copy_rows()
            rows[N12][N24] = t24 * HALF
            rows[N23][N14] = -t14
            rows[6][6] = inv
            first = BasisChange(Matrix(rows))
            swap = Matrix.zeros(7, 7).copy_rows()
            swap[N12][N34] = -ONE
            swap[N23][N23] = -ONE
            swap[N34][N12] = -ONE
            swap[N13][N24] = -ONE
            swap[N24][N13] = -ONE
            swap[N14][N14] = -ONE
            swap[6][6] = -ONE
            witness = first.then(BasisChange(Matrix(swap)))
            form = CanonicalForm("L1", {"a_12_24": -t34, "b_12_14": -t34l,
                                        "s_14": -tsq})
            case = "2.2.1"
            note = ("non-skew members of this branch are detected by "
                    "(b_34_14, s_14) != (0, 0)")
        else:
            if tsq.is_zero():
                raise ValueError("Lie member, out of scope")
            rows = Matrix.identity(7).copy_rows()
            rows[N12][N24] = t24 * HALF
            rows[N23][N14] = t14 / t23
            rows[N34][N34] = tsq
            rows[N34][N13] = -(tsq * t34 * HALF / (ONE + t23))
            rows[N24][N24] = tsq
            rows[N14][N14] = tsq
            rows[6][6] = inv
            witness = BasisChange(Matrix(rows))
            form = CanonicalForm("L3", {"a_23_23": t23})
            case = "2.2.2"
            note = None

    target = build_canonical(form)
    moved = change_of_basis(source, witness)
    if not moved.same_brackets(target):
        raise RuntimeError("canonical witness failed to reproduce the target table")
    return Classification(form=form, witness=witness, case=case, note=note)


def distinguish(a: StructureTable, b: StructureTable) -> str:
    """Cheap isomorphism separation: 'distinct' is conclusive, the other not."""
    if a.dim != b.dim:
        raise ValueError("tables must have equal dimension")
    if series_signature(a) != series_signature(b):
        return "distinct"
    if is_lie(a) != is_lie(b):
        return "distinct"
    if right_annihilator(a).dim != right_annihilator(b).dim:
        return "distinct"
    return "inconclusive"


def sample_l41_params(count: int, seed: int = 0) -> list:
    """Seeded valid non-skew parameter points cycling the four branches."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        branch = k % 4
        if branch == 0:
            a23 = random_nonzero_scalar(rng)
            a14 = random_scalar(rng)
            b14 = random_scalar(rng)
            s = random_scalar(rng)
            if b14.is_zero() and s.is_zero():
                b14 = ONE
            out.append(L41Params(a_23_23=a23, a_23_14=a14, b_23_14=-a14,
                                 a_12_24=random_scalar(rng),
                                 a_34_13=random_scalar(rng),
                                 b_12_14=b14, s_14=s))
        elif branch == 1:
            a12 = random_nonzero_scalar(rng)
            a14 = random_scalar(rng)
            b23 = random_scalar(rng)
            s = random_scalar(rng)
            if (a14 + b23).is_zero() and s.is_zero():
                b23 = b23 + ONE
            out.append(L41Params(a_12_12=a12, a_12_24=random_scalar(rng),
                                 a_23_14=a14, b_23_14=b23,
                                 a_34_13=random_scalar(rng), s_14=s))
        elif branch == 2:
            a12 = random_nonzero_scalar(rng)
            a14 = random_scalar(rng)
            b34 = random_scalar(rng)
            s = random_scalar(rng)
            if b34.is_zero() and s.is_zero():
                b34 = ONE
            out.append(L41Params(a_12_12=a12, a_23_23=-a12,
                                 a_12_24=random_scalar(rng),
                                 a_23_14=a14, b_23_14=-a14,
                                 a_34_13=random_scalar(rng),
                                 b_34_14=b34, s_14=s))
        else:
            a12 = random_nonzero_scalar(rng)
            while True:
                a23 = random_nonzero_scalar(rng)
                if not (a23 + a12).is_zero():
                    break
            a14 = random_scalar(rng)
            out.append(L41Params(a_12_12=a12, a_23_23=a23,
                                 a_12_24=random_scalar(rng),
                                 a_23_14=a14, b_23_14=-a14,
                                 a_34_13=random_scalar(rng),
                                 s_14=random_nonzero_scalar(rng)))
    return out
