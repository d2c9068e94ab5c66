"""The residue scan of Poly tables on int cells, and substitution before it.

The oracle is the scan in Poly arithmetic that the int-cell scan replaced.
The two must agree exactly: triples, component order, each coefficient's
term order, and the coefficients themselves.  Substitution is a ring map and
the bracket is bilinear, so substituting into the table and scanning again
gives the substituted residues.  `derive_relations` hands the scan's int
cells to the linear-form elimination without building Polys; the forms it
gets must be those of `linear_forms_in_span` on the public scan's Polys.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_lab import extensions
from leibniz_lab.algebra import POLY, StructureTable, _poly_residues, leibniz_residues
from leibniz_lab.extensions import (_linear_forms, derive_relations, expected_substitution,
                                    generic_extension, linear_forms_in_span,
                                    reduced_extension, solve_linear_forms)
from leibniz_lab.scalars import Poly, Scalar

RELATION_GRID = ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2))


def _poly_arithmetic_residues(a):
    """The residue scan as it was done in Poly arithmetic."""
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


def exact(residues):
    """Every order the scan produces, and each coefficient's normal form."""
    return [(t, [(r, [(m, (c.x, c.y, c.d)) for m, c in p.terms.items()])
                 for r, p in comps.items()])
            for t, comps in residues]


@pytest.mark.parametrize("n, f", RELATION_GRID)
@pytest.mark.parametrize("family", [generic_extension, reduced_extension])
def test_int_scan_matches_poly_arithmetic_on_the_grid(family, n, f):
    table = family(n, f)
    got = leibniz_residues(table)
    assert got
    assert exact(got) == exact(_poly_arithmetic_residues(table))


def test_int_scan_keeps_the_order_of_a_sum_that_cancels_and_returns():
    # [e, e] = (x + y/2) e: the residue at (0, 0, 0) is p*p - p*p + p*p, the
    # second product cancels the first term by term, the third brings it back
    p = Poly.var("x") + Poly.var("y").scale(Scalar(Fraction(1, 2)))
    table = StructureTable(1, ["e"], {(0, 0): {0: p}}, ring=POLY)
    got = leibniz_residues(table)
    assert exact(got) == exact(_poly_arithmetic_residues(table))
    assert got == [((0, 0, 0), {0: p * p})]


def test_int_scan_adds_a_product_only_once_it_is_built():
    # [e0, e0] = (x + y) e0 + x e1 and [e1, e0] = (y + z) e0.  Component 0 of
    # residue (0, 0, 0) is A*A - A*A - B*C + A*A + B*C for A = x + y, B = x,
    # C = y + z.  When the third A*A arrives the sum holds -x*y - x*z; A*A
    # makes x*y twice, and added term by term its first x*y would cancel the
    # sum's, which would then come back at the end, out of Poly's order.
    x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")
    table = StructureTable(2, ["e0", "e1"], {(0, 0): {0: x + y, 1: x}, (1, 0): {0: y + z}},
                           ring=POLY)
    got = leibniz_residues(table)
    assert exact(got) == exact(_poly_arithmetic_residues(table))
    assert list(got[0][1][0].terms) == [(("x", 1), ("y", 1)), (("x", 2),), (("y", 2),)]


NAMES = ("x", "y", "z")
# Gaussian rationals; most denominators are not 1
coefficients = st.builds(
    Scalar,
    st.sampled_from((1, -1, Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3))),
    st.sampled_from((0, 0, 1, Fraction(-1, 2), Fraction(1, 3))))
monomials = st.lists(st.sampled_from(NAMES), max_size=2).map(
    lambda names: tuple(sorted((v, names.count(v)) for v in set(names))))
# most entries of the symbolic tables have one term, so draw many of them
polys = st.one_of(st.dictionaries(monomials, coefficients, min_size=1, max_size=1),
                  st.dictionaries(monomials, coefficients, max_size=3)).map(Poly)


# entries of degree <= 1: a residue's linear part is then constants times
# linear terms, and linear forms in the span are more common
affine_monomials = monomials.filter(lambda m: sum(e for _, e in m) < 2)
affine_polys = st.one_of(st.dictionaries(affine_monomials, coefficients, min_size=1, max_size=1),
                         st.dictionaries(affine_monomials, coefficients, max_size=3)).map(Poly)


@st.composite
def poly_tables(draw, values=polys):
    """Entries drawn from `values`, by default of degree 0 to 2, some of them
    zero; with the skew partner of an entry often present, and few monomials
    and coefficients, many terms cancel."""
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    keys = draw(st.lists(st.tuples(index, index), unique=True, max_size=dim * dim))
    entries: dict = {}
    for i, j in keys:
        row = draw(st.dictionaries(index, values, max_size=dim))
        entries[(i, j)] = row
        if (j, i) not in entries and draw(st.booleans()):
            entries[(j, i)] = {k: -c for k, c in row.items()}
    return StructureTable(dim, [f"e{k}" for k in range(dim)], entries, ring=POLY)


@settings(max_examples=150, deadline=None)
@given(poly_tables())
def test_int_scan_matches_poly_arithmetic_on_drawn_tables(table):
    assert exact(leibniz_residues(table)) == exact(_poly_arithmetic_residues(table))


# -- the int cells reach the linear forms unchanged --------------------------

def forms_text(forms):
    """Each form's terms in its order, with each coefficient's normal form."""
    return [[(m, (c.x, c.y, c.d)) for m, c in p.terms.items()] for p in forms]


def cell_forms(table, constants=True):
    """The forms `derive_relations` takes from a table's int cells, or the
    error they raise; without `constants`, from the cells of degree >= 1."""
    _, cells = _poly_residues(table)
    rows = [{m: c for m, c in row.items() if constants or m}
            for _, comps in cells for row in comps.values()]
    try:
        return forms_text(_linear_forms(rows, True))
    except ValueError as err:
        return str(err)


def public_forms(table, constants=True):
    """`linear_forms_in_span` on the public scan's coefficients, or its error."""
    polys = [Poly({m: c for m, c in p.terms.items() if constants or m})
             for _, comps in leibniz_residues(table) for p in comps.values()]
    try:
        return forms_text(linear_forms_in_span(polys))
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("n, f", RELATION_GRID)
def test_the_cell_path_finds_the_public_scans_forms_on_the_grid(n, f):
    table = generic_extension(n, f)
    got = cell_forms(table)
    assert got and not isinstance(got, str)
    assert got == public_forms(table)


@settings(max_examples=200, deadline=None)
@given(st.one_of(poly_tables(), poly_tables(affine_polys)))
def test_the_cell_path_finds_the_public_scans_forms_on_drawn_tables(table):
    # drawn entries have denominators and Gaussian parts, which the grid's
    # tables lack.  Their residues often have a constant term, which both
    # paths must turn down; without it, the forms come from the products of
    # constant entries with linear ones, most often in affine tables.
    assert cell_forms(table) == public_forms(table)
    assert cell_forms(table, False) == public_forms(table, False)


# -- substitution commutes with the scan -------------------------------------

def nonzero_keys(polys):
    return sorted(p.sort_key() for p in polys if not p.is_zero())


def substituted_residues(table, sub):
    return nonzero_keys(c.substitute(sub) for _, comps in leibniz_residues(table)
                        for c in comps.values())


def residues_of_substituted(table, sub):
    return nonzero_keys(c for _, comps in leibniz_residues(table.substitute(sub))
                        for c in comps.values())


@pytest.mark.parametrize("n, f", RELATION_GRID)
def test_the_solved_substitutions_commute_with_the_scan(n, f):
    report = derive_relations(n, f)
    table = generic_extension(n, f)
    for sub in (solve_linear_forms(report.derived_linear), expected_substitution(n, f)):
        assert residues_of_substituted(table, sub) == substituted_residues(table, sub)


def _variables(table):
    return sorted(set().union(*(p.indeterminates() for row in table.c.values()
                                for p in row.values())))


@pytest.mark.parametrize("n, f", RELATION_GRID)
def test_no_rescan_names_a_solved_variable(monkeypatch, n, f):
    """Each round of derive_relations solves its pivots in the free
    variables, so the table that the next round scans names none of them,
    and no form it finds lies in the span found before: no form is tested."""
    tables, subs = [], []
    scan, solve = extensions._poly_residues, extensions.solve_linear_forms
    monkeypatch.setattr(extensions, "_poly_residues", lambda t: tables.append(t) or scan(t))
    monkeypatch.setattr(extensions, "solve_linear_forms",
                        lambda forms: subs.append(solve(forms)) or subs[-1])
    assert derive_relations(n, f, seed=1).rounds == len(subs) == len(tables) - 1 >= 1
    for table, sub in zip(tables[1:], subs):
        names = _variables(table)
        assert names and not set(names) & sub.keys()


@st.composite
def linear_substitutions(draw, names):
    """Some names, each sent to a linear form (perhaps zero) in all names."""
    chosen = draw(st.lists(st.sampled_from(names), unique=True, min_size=1, max_size=6))
    form = st.dictionaries(st.sampled_from(names).map(lambda v: ((v, 1),)),
                           coefficients, max_size=3).map(Poly)
    return {v: draw(form) for v in chosen}


@pytest.mark.parametrize("n, f", [(3, 1), (4, 1)])
def test_drawn_linear_substitutions_commute_with_the_scan(n, f):
    table = generic_extension(n, f)

    @settings(max_examples=25, deadline=None)
    @given(linear_substitutions(_variables(table)))
    def check(sub):
        assert residues_of_substituted(table, sub) == substituted_residues(table, sub)

    check()
