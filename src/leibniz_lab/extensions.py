"""Solvable extensions of the strictly upper triangular nilpotent algebra.

Tables here extend the triangular basis N_ij by outer generators X^1..X^f.
The right action of each generator on the nilradical is constrained to the
triangular shape (upper triangular with matching diagonal sums plus the short
list of admissible off-diagonal slots); the left action and the generator
squares start fully generic.  The module derives the linear relations the
bracket identity forces on the generic table, reduces the family to its
surviving parameters with their quadratic restrictions (with an exact
witness where those miss one), and samples exact concrete members.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache

from .algebra import POLY, StructureTable, _cell_poly, _poly_residues, is_lie, leibniz_residues
from .linalg import Matrix, RrefAccumulator
from .scalars import ONE, ZERO, Poly, Record, Scalar
from .symsolve import LinearSpan, equation_rref, random_kernel_vector, random_scalar
from .triangular import (allowed_offdiagonal, corner_index, generator_label,
                         nil_independent_count, pair_index, pairs, triangular)

MAX_SYMBOLIC_N = 8
WITNESS_DRAWS = 16  # points `derive_relations` draws, at most, for a witness


def _token(n: int, i: int, j: int) -> str:
    return f"{i}{j}" if n < 10 else f"{i}_{j}"


def a_name(n: int, alpha: int, row, col) -> str:
    """Right-action coefficient name: component col of [N_row, X^alpha]."""
    return f"a{alpha}_{_token(n, *row)}_{_token(n, *col)}"


def b_name(n: int, alpha: int, row, col) -> str:
    """Left-action coefficient name: component col of [X^alpha, N_row]."""
    return f"b{alpha}_{_token(n, *row)}_{_token(n, *col)}"


def s_name(n: int, alpha: int, beta: int, col) -> str:
    """Generator product coefficient name: component col of [X^a, X^b]."""
    return f"s{alpha}{beta}_{_token(n, *col)}"


def sigma_param(alpha: int, beta: int) -> str:
    """Corner coefficient of [X^alpha, X^beta] in the reduced family."""
    return f"s{alpha}{beta}"


def _check_rank(n: int, f: int) -> None:
    if n < 3:
        raise ValueError("extensions require n >= 3")
    if n > MAX_SYMBOLIC_N:
        raise ValueError(f"symbolic extensions are capped at n = {MAX_SYMBOLIC_N}")
    if not 1 <= f <= n - 1:
        raise ValueError(f"generator count must lie in 1..{n - 1}, got {f}")


def _pattern_entry(n: int, alpha: int, row, col):
    """Shape-constrained right-action entry as a Poly, or None when zero."""
    i, j = row
    if col == row:
        if j == i + 1:
            return Poly.var(a_name(n, alpha, row, row))
        total = Poly.zero()
        for p in range(i, j):
            total = total + Poly.var(a_name(n, alpha, (p, p + 1), (p, p + 1)))
        return total
    if (row, col) in allowed_offdiagonal(n):
        return Poly.var(a_name(n, alpha, row, col))
    return None


@lru_cache(maxsize=None)
def generic_extension(n: int, f: int) -> StructureTable:
    """Symbolic extension: shaped right action, generic left action and squares."""
    _check_rank(n, f)
    base = triangular(n)
    plist = pairs(n)
    d = len(plist)
    dim = d + f
    labels = list(base.labels) + [generator_label(f, al) for al in range(1, f + 1)]
    entries: dict = {}
    for key, row in base.c.items():
        entries[key] = {k: Poly.const(v) for k, v in row.items()}
    for al in range(1, f + 1):
        g = d + al - 1
        for r, rp in enumerate(plist):
            right = {}
            for c, cp in enumerate(plist):
                pat = _pattern_entry(n, al, rp, cp)
                if pat is not None:
                    right[c] = pat
            entries[(r, g)] = right
            entries[(g, r)] = {c: Poly.var(b_name(n, al, rp, cp))
                               for c, cp in enumerate(plist)}
        for be in range(1, f + 1):
            h = d + be - 1
            entries[(g, h)] = {c: Poly.var(s_name(n, al, be, cp))
                               for c, cp in enumerate(plist)}
    return StructureTable(dim, labels, entries, ring=POLY)


@lru_cache(maxsize=None)
def _expected(n: int, f: int):
    """Forced linear relations plus the substitution solving them."""
    _check_rank(n, f)
    plist = pairs(n)
    corner = (1, n)
    forms = []
    sub: dict = {}
    for al in range(1, f + 1):
        for rp in plist:
            wide = rp[1] - rp[0] >= 2
            for cp in plist:
                if cp == corner and not wide:
                    continue
                pat = _pattern_entry(n, al, rp, cp)
                pat = Poly.zero() if pat is None else pat
                name = b_name(n, al, rp, cp)
                forms.append(Poly.var(name) + pat)
                sub[name] = -pat
        for be in range(1, f + 1):
            for cp in plist:
                if cp == corner:
                    continue
                name = s_name(n, al, be, cp)
                forms.append(Poly.var(name))
                sub[name] = Poly.zero()
    return tuple(forms), sub


def expected_relation_forms(n: int, f: int) -> tuple:
    return _expected(n, f)[0]


def expected_substitution(n: int, f: int) -> dict:
    return dict(_expected(n, f)[1])


def _var_rank(name: str) -> int:
    head = name[0]
    if head == "b":
        return 0
    if head == "s":
        return 1
    return 2


def _mon_priority(mon):
    if len(mon) == 1 and mon[0][1] == 1:
        return (1, _var_rank(mon[0][0]), mon)
    return (0, mon)


def linear_forms_in_span(polys: Iterable[Poly]) -> list:
    """Degree <= 1 elements of the scalar span of the given polynomials.

    The eliminator's columns are keyed by `_mon_priority`, which puts the
    monomials of degree >= 2 first, so the rows with a degree-1 pivot, fully
    reduced, span every linear form in the span of the inputs.  A row is
    dropped first while it alone holds such a monomial: in a combination with
    no part of degree >= 2 that monomial's coefficient is the row's own times
    a nonzero, so the row's is 0, in every prefix of the rows too.  The
    degree-1 pivots thus come from the same rows in the same order: the same
    forms, each a row of the unique RREF; only a form's term order can differ.
    A kept row equal to an earlier one, or with one term like an earlier
    one-term row, is added once: it would reduce to 0 and change nothing.
    """
    return _linear_forms([p.terms for p in polys])


def _linear_forms(rows: list, ints: bool = False) -> list:
    """`linear_forms_in_span` on a list, which it consumes, of {monomial:
    nonzero coefficient} rows.  With `ints` the coefficients are (re, im) int
    pairs, read as Scalars over 1 and only in the rows that are eliminated:
    the cells of `_poly_residues` are D**2 times the residues, and a common
    factor changes no span and no step of the RREF."""
    holders = {}                    # monomial of degree >= 2 -> rows
    for r, terms in enumerate(rows):
        if () in terms:
            raise ValueError("unexpected constant term in a residue polynomial")
        for mon in terms:
            if len(mon) > 1 or mon[0][1] > 1:
                holders.setdefault(mon, []).append(r)
    lone = [mon for mon, held in holders.items() if len(held) == 1]
    while lone:
        held = holders[lone.pop()]
        if held:                    # its one holder, unless already dropped
            r = held[0]
            for mon in rows[r]:
                if mon in holders:
                    holders[mon].remove(r)
                    if len(holders[mon]) == 1:
                        lone.append(mon)
            rows[r] = None
    acc = RrefAccumulator()         # a dropped row is None; a repeat is added once
    kept = {tuple(t.items()) if len(t) > 1 else next(iter(t)): t for t in filter(None, rows)}
    for t in kept.values():
        acc.add({_mon_priority(m): Scalar.from_ints(*c, 1) if ints else c for m, c in t.items()})
    out = []
    for lead, row in acc.pivots.items():
        if lead[0] == 1:
            terms = {key[-1]: c for key, c in row.items()}
            terms[lead[-1]] = ONE
            out.append(Poly(terms))
    return out


def solve_linear_forms(forms: Sequence[Poly]) -> dict:
    """Express each pivot indeterminate of the span in terms of the rest.

    Columns are ordered left-action first, then generator products, then
    right-action names, so the solved variables are the b and s families
    whenever the span allows it.
    """
    acc = RrefAccumulator()
    for p in forms:
        row = {}
        for mon, coeff in p.terms.items():
            if not mon:
                raise ValueError(f"{p} is not homogeneous")
            if len(mon) != 1 or mon[0][1] != 1:
                raise ValueError(f"{p} is not a linear form")
            row[(_var_rank(mon[0][0]), mon[0][0])] = coeff
        acc.add(row)
    return {lead: Poly({((v, 1),): -c for (_, v), c in sorted(row.items())})
            for (_, lead), row in sorted(acc.pivots.items())}


@lru_cache(maxsize=None)
def restriction_factors(n: int, f: int) -> tuple:
    """(weight, corner form) pairs whose products the family must zero.

    Generator by generator, each superdiagonal weight d_i = a_(i,i+1)_(i,i+1)
    of the right action must annihilate the N_1n coefficient left free on its
    row: b_12_1n for i = 1, b_(n-1,n)_1n for i = n - 1, and
    a_(i,i+1)_1n + b_(i,i+1)_1n in between.  The corner forms vanish together
    exactly when the left action on superdiagonal rows is minus the right one.
    """
    _check_rank(n, f)
    corner = (1, n)
    out = []
    for al in range(1, f + 1):
        for i in range(1, n):
            row = (i, i + 1)
            form = Poly.var(b_name(n, al, row, corner))
            if (row, corner) in allowed_offdiagonal(n):
                form = Poly.var(a_name(n, al, row, corner)) + form
            out.append((Poly.var(a_name(n, al, row, row)), form))
    return tuple(out)


def _tracefree_substitution(n: int, f: int) -> dict:
    """Eliminate the last diagonal entry of every generator: zero total trace."""
    return {last: -sum(map(Poly.var, head), Poly.zero())
            for *head, last in (diagonal_names(n, f, al) for al in range(1, f + 1))}


class ResidueReport(Record):
    """Outcome of deriving the relations forced on the generic extension."""

    n: int
    f: int
    seed: int
    residue_count: int
    rounds: int
    derived_linear: tuple
    expected_linear: tuple
    linear_matches_expected: bool
    unexplained_linear: tuple
    missing_linear: tuple
    unexplained_residual: tuple
    quadratic_residuals: tuple
    stated_products: tuple
    tracefree_covered: bool
    extra_quadratics: tuple
    sample_points: int
    sampling_ok: bool
    witness: tuple | None

    @property
    def ok(self) -> bool:
        return (self.linear_matches_expected and not self.unexplained_linear
                and not self.missing_linear and not self.unexplained_residual)


def _dedupe_monic(polys: Iterable[Poly]) -> tuple:
    seen = {q.sort_key(): q for q in (p.monic() for p in polys if not p.is_zero())}
    return tuple(seen[k] for k in sorted(seen))


def derive_relations(n: int, f: int, seed: int = 0) -> ResidueReport:
    """Derive the full relation set the bracket identity forces at rank (n, f).

    The linear layer is closed by alternating two sound moves: take every
    degree <= 1 element of the scalar span of the residue coefficients, then
    substitute the solved relations into the table and scan it again: the
    bracket is bilinear and substitution a ring map, so its residues are the
    substituted ones, found from a few small entries.  Each scan's int cells
    go to `_linear_forms`, which makes Scalars only of the rows it eliminates,
    and Polys are built only for the forms and the last scan's coefficients.
    Each round solves its pivots in the free variables, so the rescan names
    none, and no new form lies in the span: none is tested.  The solution is
    the span's unique RREF, so it equals `expected_substitution` exactly when
    the spans are equal; only when not are the forms tested.  What survives
    substitution must be homogeneous quadratic; on the zero-trace slice each
    leftover is covered by the stated products' span or is extra.  An extra
    nonzero at a point of the stated products' zero set proves them
    incomplete: on an `ok` report the generic table under
    `expected_substitution` and the zero-trace substitution, at that point and
    0 elsewhere, is not Leibniz.  `_witness_search` looks for one, and
    `witness` is None when there is no extra or no draw found one.
    `sample_points` and `sampling_ok` (each point zeroed the covered
    leftovers) are a consistency check of the points, not a proof.
    """
    if n > 6:
        raise ValueError("relation derivation is capped at n = 6")
    _check_rank(n, f)
    gen = generic_extension(n, f)
    den2, cells = _poly_residues(gen)
    residue_count = len(cells)

    forms, sub, rounds = [], {}, 0
    for _ in range(8):
        fresh = _linear_forms([c for _, comps in cells for c in comps.values()], True)
        if not fresh:
            break
        rounds += 1
        forms += fresh
        sub = solve_linear_forms(forms)
        den2, cells = _poly_residues(gen.substitute(sub))
    span = LinearSpan(forms)
    derived = span.basis_forms()

    expected, expected_sub = _expected(n, f)
    unexplained_linear = missing_linear = ()
    matches = sub == expected_sub
    if not matches:
        expected_span = LinearSpan(expected)
        unexplained_linear = tuple(p for p in derived if not expected_span.contains(p))
        missing_linear = tuple(p for p in expected if not span.contains(p))

    leftovers_low, quadratics = [], []
    for p in [_cell_poly(c, den2) for _, comps in cells for c in comps.values()]:
        low = p.max_degree_below(2)
        if not low.is_zero():
            leftovers_low.append(low)
        high = p.homogeneous_part(2)
        if not high.is_zero():
            quadratics.append(high)
        if p.degree() > 2:
            leftovers_low.append(p)
    quadratics = _dedupe_monic(quadratics)

    factors = restriction_factors(n, f)
    stated = tuple(weight * form for weight, form in factors)
    flat = _tracefree_substitution(n, f)
    stated_flat = [q.substitute(flat) for q in stated]
    residual_flat = _dedupe_monic(q.substitute(flat) for q in quadratics)
    stated_span = RrefAccumulator()  # one column per monomial
    for q in stated_flat:
        stated_span.add(q.terms)
    covered, extras = [], []
    for q in residual_flat:
        (covered if stated_span.contains(q.terms) else extras).append(q)

    points, sampling_ok, witness = 0, True, None
    if extras:
        names = set().union(*(q.indeterminates() for q in (*residual_flat, *stated_flat)))
        factor_pairs = [(weight.substitute(flat), form) for weight, form in factors]
        points, sampling_ok, witness = _witness_search(
            factor_pairs, stated_flat, covered, extras, sorted(names), random.Random(seed))

    return ResidueReport(
        n=n, f=f, seed=seed,
        residue_count=residue_count,
        rounds=rounds,
        derived_linear=tuple(derived),
        expected_linear=tuple(expected),
        linear_matches_expected=matches,
        unexplained_linear=unexplained_linear,
        missing_linear=missing_linear,
        unexplained_residual=tuple(_dedupe_monic(leftovers_low)),
        quadratic_residuals=quadratics,
        stated_products=stated,
        tracefree_covered=not extras,
        extra_quadratics=tuple(extras),
        sample_points=points,
        sampling_ok=sampling_ok,
        witness=witness,
    )


def _witness_search(factor_pairs: Sequence[tuple], stated: Sequence[Poly],
                    covered: Sequence[Poly], extras: Sequence[Poly],
                    variables: Sequence[str], rng: random.Random) -> tuple:
    """(points drawn, whether each zeroed every `covered` quadratic, witness).

    Each point is a `random_kernel_vector` of the linear equations given by
    one randomly chosen factor of every pair, so it lies on the zero set of
    the `stated` products, or RuntimeError.  The witness is (draw index from
    0, the first extra nonzero there, the point as (name, Scalar) pairs in
    `variables` order); no extras means no draws, and none within
    WITNESS_DRAWS, None.
    """
    if not extras:
        return 0, True, None
    ok = True
    for k in range(WITNESS_DRAWS):
        acc = equation_rref([pair[rng.choice((0, 1))] for pair in factor_pairs], variables)
        point = dict(zip(variables, random_kernel_vector(acc, rng)))
        if not all(q.evaluate(point).is_zero() for q in stated):
            raise RuntimeError("sample point escaped the restriction variety")
        ok = ok and all(q.evaluate(point).is_zero() for q in covered)
        for q in extras:
            if not q.evaluate(point).is_zero():
                return k + 1, ok, (k, q, tuple(point.items()))
    return WITNESS_DRAWS, ok, None


@lru_cache(maxsize=None)
def reduced_extension(n: int, f: int) -> StructureTable:
    """The extension family after the forced linear relations are applied.

    Each right row is the shape's: the diagonal of `_pattern_entry` and the
    row's one slot of `allowed_offdiagonal`.  Each left row is minus the
    right one, except that a superdiagonal row's corner component is its own
    coefficient b_(i,i+1)_1n.  Remaining indeterminates per generator: the
    n-1 superdiagonal entries of the right action, the admissible
    off-diagonal entries, those corner coefficients, and one corner
    coefficient per ordered generator pair.
    """
    _check_rank(n, f)
    base = triangular(n)
    plist = pairs(n)
    d = len(plist)
    dim = d + f
    corner = pair_index(n, 1, n)
    slots = dict(allowed_offdiagonal(n))  # one admissible slot per row
    labels = list(base.labels) + [generator_label(f, al) for al in range(1, f + 1)]
    entries: dict = {}
    for key, row in base.c.items():
        entries[key] = {k: Poly.const(v) for k, v in row.items()}
    for al in range(1, f + 1):
        g = d + al - 1
        for r, (i, j) in enumerate(plist):
            right = {r: _pattern_entry(n, al, (i, j), (i, j))}
            if (i, j) in slots:
                right[pair_index(n, *slots[i, j])] = Poly.var(
                    a_name(n, al, (i, j), slots[i, j]))
            left = {k: -v for k, v in right.items()}
            if j == i + 1:
                left[corner] = Poly.var(b_name(n, al, (i, j), (1, n)))
            entries[(r, g)] = right
            entries[(g, r)] = left
        for be in range(1, f + 1):
            h = d + be - 1
            entries[(g, h)] = {corner: Poly.var(sigma_param(al, be))}
    return StructureTable(dim, labels, entries, ring=POLY)


def diagonal_names(n: int, f: int, alpha: int) -> tuple:
    return tuple(a_name(n, alpha, (i, i + 1), (i, i + 1)) for i in range(1, n))


@lru_cache(maxsize=None)
def master_param_names(n: int, f: int) -> tuple:
    """Every indeterminate of the reduced family, in a stable order."""
    _check_rank(n, f)
    slots = sorted(allowed_offdiagonal(n))
    names = []
    for al in range(1, f + 1):
        names.extend(diagonal_names(n, f, al))
        names.extend(a_name(n, al, row, col) for row, col in slots)
        names.extend(b_name(n, al, (i, i + 1), (1, n)) for i in range(1, n))
    names.extend(sigma_param(al, be) for al in range(1, f + 1) for be in range(1, f + 1))
    return tuple(names)


def _restriction_text(weight: Poly, form: Poly) -> str:
    return f"{weight} * ({form})" if len(form.terms) > 1 else f"{weight} * {form}"


def stated_restrictions(n: int, f: int) -> tuple:
    """(description, product) pairs that valid parameter points must zero."""
    return tuple((_restriction_text(weight, form), weight * form)
                 for weight, form in restriction_factors(n, f))


def first_violated_restriction(n: int, f: int, point: Mapping[str, Scalar]) -> str | None:
    """Description of the first stated restriction the point breaks, or None.

    A product over a field vanishes when one of its factors does, so only the
    factors are evaluated, and only a broken restriction is worded.
    """
    for weight, form in restriction_factors(n, f):
        if not weight.evaluate(point).is_zero() and not form.evaluate(point).is_zero():
            return _restriction_text(weight, form)
    return None


def skew_forms(n: int, f: int) -> tuple:
    """Linear forms whose common zeros are the skew members of the family.

    The corner forms of `restriction_factors`, then s_aa and s_ab + s_ba for
    every pair of generators a < b.
    """
    forms = [form for _, form in restriction_factors(n, f)]
    for al in range(1, f + 1):
        forms.append(Poly.var(sigma_param(al, al)))
        for be in range(al + 1, f + 1):
            forms.append(Poly.var(sigma_param(al, be)) + Poly.var(sigma_param(be, al)))
    return tuple(forms)


class ExtensionSpec(Record):
    """A concrete parameter point for the reduced extension family."""

    n: int
    f: int
    params: Mapping[str, Scalar]

    def __new__(cls, n: int, f: int, params: Mapping[str, Scalar]):
        known = set(master_param_names(n, f))
        for name in params:
            if name not in known:
                raise ValueError(f"unknown parameter {name!r} for n={n}, f={f}")
        return super().__new__(cls, n, f, params)

    def assignment(self) -> dict:
        full = {name: ZERO for name in master_param_names(self.n, self.f)}
        full.update(self.params)
        return full

    def violated_restriction(self):
        return first_violated_restriction(self.n, self.f, self.assignment())


def build_extension(spec: ExtensionSpec, verify: bool = True) -> StructureTable:
    """Assemble the concrete table for a parameter point.

    The generators' diagonal vectors must be independent, or a nonzero
    combination of them acts nilpotently and the nilradical is larger than
    T(n).  The stated restrictions are necessary, not sufficient, so by
    default the result is checked against the full bracket identity and
    rejected with the violating basis triple.
    """
    desc = spec.violated_restriction()
    if desc is not None:
        raise ValueError(f"parameter restriction violated: {desc} must vanish")
    n, f = spec.n, spec.f
    point = spec.assignment()
    rank = nil_independent_count([[point[name] for name in diagonal_names(n, f, al)]
                                  for al in range(1, f + 1)])
    if rank < f:
        raise ValueError(f"the generators' diagonal vectors have rank {rank} < f = {f}, "
                         "so a combination of them acts nilpotently")
    table = reduced_extension(n, f).to_scalar(point)
    if verify:
        bad = leibniz_residues(table)
        if bad:
            i, j, k = bad[0][0]
            names = table.labels
            raise ValueError(
                "bracket identity fails at "
                f"({names[i]}, {names[j]}, {names[k]}); parameters lie outside "
                "the admissible set")
    return table


def verify_corner_annihilation(a: StructureTable, n: int, f: int) -> bool:
    """Non-skew members must multiply trivially with the corner element."""
    if a.dim != n * (n - 1) // 2 + f:
        raise ValueError("table dimension does not match n and f")
    if is_lie(a):
        return True
    ci = corner_index(n)
    d = a.dim - f
    for al in range(f):
        g = d + al
        if a.row(g, ci) or a.row(ci, g):
            return False
    return True


@lru_cache(maxsize=None)
def _reduced_coefficients(n: int, f: int) -> tuple:
    """The residue coefficients of reduced_extension(n, f), scanned once."""
    return tuple(c for _, cs in leibniz_residues(reduced_extension(n, f)) for c in cs.values())


@lru_cache(maxsize=None)
def _compiled_residue_rows(n: int, f: int) -> tuple:
    """Residue equations precompiled against a diagonal/remainder split.

    Returns (rest, rows).  rest orders the non-diagonal parameters; each row
    is (constants, cells) where constants lists (d1, d2 | None, coeff)
    monomials built purely from diagonal names and cells maps a rest column
    to ((dname | None, coeff), ...) contributions.  Evaluating a row at a
    numeric diagonal is then plain scalar arithmetic, no polynomials.
    """
    diag_set = set()
    for al in range(1, f + 1):
        diag_set.update(diagonal_names(n, f, al))
    rest = tuple(v for v in master_param_names(n, f) if v not in diag_set)
    pos = {v: k for k, v in enumerate(rest)}
    rows = []
    for p in _reduced_coefficients(n, f):
        constants = []
        cells = {}
        for mon, coeff in p.terms.items():
            names = [nm for nm, e in mon for _ in range(e)]
            if not names or len(names) > 2:
                raise ValueError("unexpected residue monomial degree")
            if len(names) == 1:
                nm = names[0]
                if nm in pos:
                    cells.setdefault(pos[nm], []).append((None, coeff))
                else:
                    constants.append((nm, None, coeff))
                continue
            x, y = names
            if x in pos and y in pos:
                raise ValueError("diagonal substitution left a nonlinear "
                                 "equation; sampling needs n >= 4")
            if x in pos:
                x, y = y, x
            if y in pos:
                cells.setdefault(pos[y], []).append((x, coeff))
            else:
                constants.append((x, y, coeff))
        rows.append((tuple(constants),
                     tuple((col, tuple(contribs))
                           for col, contribs in cells.items())))
    return rest, tuple(dict.fromkeys(rows))


def _solve_with_diagonal(n: int, f: int, vecs: Sequence[Sequence[Scalar]],
                         rng: random.Random) -> dict:
    """Random exact parameter point where generator al has diagonal vecs[al - 1].

    Numeric diagonals turn every surviving residue into a homogeneous linear
    equation in the remaining parameters, so a random kernel element gives an
    exact member of the family.
    """
    diag = {name: v for al in range(1, f + 1)
            for name, v in zip(diagonal_names(n, f, al), vecs[al - 1])}
    rest, rows = _compiled_residue_rows(n, f)
    acc = RrefAccumulator(len(rest))
    for constants, cells in rows:
        total = ZERO
        for x, y, coeff in constants:
            t = coeff * diag[x]
            if y is not None:
                t = t * diag[y]
            total = total + t
        if not total.is_zero():
            raise ValueError("diagonal entries make a residue equation "
                             "inconsistent")
        row = {}
        for col, contribs in cells:
            s = ZERO
            for dname, coeff in contribs:
                s = s + (coeff if dname is None else coeff * diag[dname])
            if not s.is_zero():
                row[col] = s
        if row:
            acc.add(row)
    point = dict(zip(rest, random_kernel_vector(acc, rng)))
    point.update(diag)
    return point


def _tracefree_diagonal(n: int, rng: random.Random) -> list:
    """Random diagonal entries of one generator with total trace zero."""
    head = [random_scalar(rng) for _ in range(n - 2)]
    total = ZERO
    for v in head:
        total = total + v
    return head + [-total]


def _draw_diagonals(n: int, f: int, rng: random.Random,
                    tracefree: bool) -> list:
    """Random diagonals of f generators, redrawn until they have rank f.

    Every caller's guards make rank f attainable: f <= n - 1 always, and
    f <= n - 2 for zero-trace diagonals.  A random draw then has rank f
    almost always, so the loop ends.
    """
    while True:
        vecs = [_tracefree_diagonal(n, rng) if tracefree
                else [random_scalar(rng) for _ in range(n - 1)] for _ in range(f)]
        if nil_independent_count(vecs) == f:
            return vecs


def _draw_member(n: int, f: int, vecs: Sequence[Sequence[Scalar]],
                 rng: random.Random, nonlie: bool) -> dict:
    """`_solve_with_diagonal` at vecs; with nonlie, a skew point is tilted
    off the skew locus by adding 1 to s11."""
    params = _solve_with_diagonal(n, f, vecs, rng)
    if nonlie and is_skew_point(n, f, params):
        key = sigma_param(1, 1)
        params[key] = params.get(key, ZERO) + ONE
    return params


def _spec(n: int, f: int, params: Mapping[str, Scalar]) -> ExtensionSpec:
    """The member at params, its zero parameters dropped."""
    return ExtensionSpec(n=n, f=f, params={k: v for k, v in params.items()
                                           if not v.is_zero()})


def is_skew_point(n: int, f: int, params: Mapping[str, Scalar]) -> bool:
    """Whether a point of the reduced (n, f) family zeroes every `skew_forms`."""
    return all(form.evaluate(params).is_zero() for form in skew_forms(n, f))


def sample_extension_specs(n: int, f: int, count: int, seed: int = 0,
                           branch: str = "mixed") -> list:
    """Seeded exact parameter points for the reduced family.

    branch "generic" draws independent diagonals, "nonlie" restricts every
    diagonal to total trace zero and tilts the point off the skew locus,
    "mixed" alternates.  Zero-trace diagonals of full rank need f <= n - 2.
    """
    if n < 4:
        raise ValueError("sampling requires n >= 4")
    _check_rank(n, f)
    if branch not in ("mixed", "generic", "nonlie"):
        raise ValueError(f"unknown branch {branch!r}")
    if branch == "nonlie" and f > n - 2:
        raise ValueError("zero-trace diagonals of rank f need f <= n - 2")
    rng = random.Random(seed)
    specs = []
    for k in range(count):
        nonlie = branch == "nonlie" or (branch == "mixed" and k % 2 == 1 and f <= n - 2)
        vecs = _draw_diagonals(n, f, rng, tracefree=nonlie)
        specs.append(_spec(n, f, _draw_member(n, f, vecs, rng, nonlie)))
    return specs


def maximal_extension_spec(n: int, seed: int = 0) -> ExtensionSpec:
    """A member with the largest possible generator count, f = n - 1."""
    if n < 4:
        raise ValueError("sampling requires n >= 4")
    f = n - 1
    _check_rank(n, f)
    return _spec(n, f, _draw_member(n, f, Matrix.identity(f).rows,
                                    random.Random(seed), nonlie=False))


class MaxExtensionCheck(Record):
    """Evidence that the full-rank extension family is skew throughout."""

    n: int
    f: int
    seed: int
    samples: int
    corrupt: bool
    skew_relations_forced: bool
    missing_relations: tuple
    all_samples_lie: bool
    nonlie_samples: int

    @property
    def ok(self) -> bool:
        return (not self.corrupt and self.skew_relations_forced
                and self.all_samples_lie and self.samples > 0)


def verify_max_extension_is_lie(n: int, seed: int = 0, samples: int = 100,
                                corrupt: bool = False) -> MaxExtensionCheck:
    """Check that every extension with n - 1 generators is a Lie algebra.

    For the span half, the first generator is normalized so its first
    diagonal entry is 1 and the rest vanish; the skew relations must then
    appear among the linear consequences of the residues.  The samples are
    drawn like `sample_extension_specs`' generic members, from the whole
    full-rank family, and every one must be Lie.  With corrupt=True the
    normalization and the sampled diagonals are zero-trace, which breaks the
    rank hypothesis, and the samples are tilted off the skew locus, so
    non-skew members surface.
    """
    if n < 4:
        raise ValueError("verification requires n >= 4")
    f = n - 1
    _check_rank(n, f)
    first = diagonal_names(n, f, 1)
    if corrupt:
        lead = {first[0]: Poly.const(1), first[1]: Poly.const(-1)}
        lead.update({name: Poly.zero() for name in first[2:]})
    else:
        lead = {first[0]: Poly.const(1)}
        lead.update({name: Poly.zero() for name in first[1:]})
    span = LinearSpan(linear_forms_in_span(  # a zero residue adds no row
        p.substitute(lead) for p in _reduced_coefficients(n, f)))

    missing = tuple(w for w in skew_forms(n, f) if not span.contains(w))

    rng = random.Random(seed)
    nonlie = 0
    for _ in range(samples):
        # zero-trace diagonals of rank f = n - 1 do not exist, so no redraw
        vecs = ([_tracefree_diagonal(n, rng) for _ in range(f)] if corrupt
                else _draw_diagonals(n, f, rng, tracefree=False))
        params = _draw_member(n, f, vecs, rng, nonlie=corrupt)
        nonlie += not is_lie(reduced_extension(n, f).to_scalar(params))

    return MaxExtensionCheck(
        n=n, f=f, seed=seed, samples=samples, corrupt=corrupt,
        skew_relations_forced=not missing,
        missing_relations=missing,
        all_samples_lie=not nonlie,
        nonlie_samples=nonlie,
    )
