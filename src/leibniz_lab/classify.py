"""Classification of the 7-dimensional non-skew extension family.

L41 is the reduced (4, 1) extension family of `extensions`, one outer
generator over the n = 4 triangular algebra, read in its own parameter names
with zero total diagonal trace baked in: the nine surviving parameters
satisfy three product restrictions, and every non-skew member is carried by
an exact basis change onto one of three canonical tables (L1, L2, L3), which
are themselves L41 points.  L42 is the companion 8-dimensional family with
two outer generators, a point of the reduced (4, 2) family.

Basis order everywhere: N12, N23, N34, N13, N24, N14, then the generators.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .algebra import BasisChange, StructureTable, change_of_basis, is_lie, right_annihilator, series_signature
from .extensions import ExtensionSpec, first_violated_restriction, reduced_extension
from .linalg import Matrix
from .scalars import ONE, ZERO, Scalar
from .symsolve import random_nonzero_scalar, random_scalar
# unused here; perfbench/selftest.py checks that tracing reaches this copy
from .triangular import triangular  # noqa: F401

HALF = Scalar(Fraction(1, 2))

L41_PARAM_NAMES = ("a_12_12", "a_12_24", "b_12_14", "a_23_23", "a_23_14",
                   "b_23_14", "a_34_13", "b_34_14", "s_14")

L1_PARAM_NAMES = ("a_12_24", "b_12_14", "s_14")
L2_PARAM_NAMES = ("a_23_14", "b_23_14", "s_14")
L3_PARAM_NAMES = ("a_23_23",)
L42_PARAM_NAMES = ("s11", "s12", "s21", "s22")

N12, N23, N34, N13, N24, N14 = range(6)

# Each L41 parameter's name in the reduced (4, 1) family: a_ij_kl -> a1_ij_kl,
# b_ij_kl -> b1_ij_kl, s_14 -> s11.  The family's third diagonal entry is
# a1_34_34 = -(a_12_12 + a_23_23).
FAMILY_NAMES = {name: "s11" if name == "s_14" else f"{name[0]}1{name[1:]}"
                for name in L41_PARAM_NAMES}
# The map read backwards, to word restrictions in L41 names; the sign of
# a1_34_34 does not change which products vanish.
_L41_TEXT = {family: name for name, family in FAMILY_NAMES.items()}
_L41_TEXT["a1_34_34"] = "(a_12_12 + a_23_23)"


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

    def family_point(self) -> dict:
        """This point in the names of the reduced (4, 1) extension family."""
        point = {FAMILY_NAMES[name]: v for name, v in self.as_mapping().items()}
        point["a1_34_34"] = -(self.a_12_12 + self.a_23_23)
        return point

    def restriction_violation(self) -> Optional[str]:
        desc = first_violated_restriction(4, 1, self.family_point())
        if desc is None:
            return None
        return re.sub(r"\w+", lambda m: _L41_TEXT[m.group()], desc)

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
    return reduced_extension(4, 1).to_scalar(p.family_point())


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
    """The canonical table: L42 a (4, 2) family point, the rest L41 points."""
    form.validate()
    if form.id == "L42":
        # generator diagonals (1, 0, -1) and (0, 1, -1)
        params = {"a1_12_12": ONE, "a1_34_34": -ONE, "a2_23_23": ONE,
                  "a2_34_34": -ONE, **form.params}
        return reduced_extension(4, 2).to_scalar(ExtensionSpec(4, 2, params).assignment())
    if form.id == "L1":
        point = L41Params(a_23_23=ONE, **form.params)
    elif form.id == "L2":
        point = L41Params(a_12_12=ONE, **form.params)
    else:
        point = L41Params(a_12_12=ONE, s_14=ONE, **form.params)
    return reduced_extension(4, 1).to_scalar(point.family_point())


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
