"""Structure tables: brackets, identities, series, derivations, transport."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_lab.algebra import (POLY, BasisChange, StructureTable, TableChecks,
                                 _IntSpan, _is_skew, bracket, change_of_basis,
                                 derivation_algebra, derived_series, dumps_table, is_derivation,
                                 is_ideal, is_leibniz, is_lie, is_nilpotent,
                                 is_solvable, leibniz_residues, load_table,
                                 loads_table, lower_central_series,
                                 mult_matrix, right_annihilator, save_table,
                                 series_signature, table_from_document,
                                 table_to_document)
from leibniz_lab.linalg import (Matrix, RrefAccumulator, Subspace,
                                kernel_of_sparse_rows, span)
from leibniz_lab.classify import CanonicalForm, build_canonical
from leibniz_lab.extensions import ExtensionSpec, build_extension
from leibniz_lab.scalars import ONE, ZERO, Poly, Scalar
from leibniz_lab.triangular import triangular


def sc(x):
    return Scalar(Fraction(x))


def basis_vec(table, label):
    return table.basis_vector(table.index(label))


T4 = triangular(4)


# -- brackets ----------------------------------------------------------------

def test_t4_bracket_oracles():
    cases = [
        ("N12", "N23", {"N13": ONE}),
        ("N23", "N34", {"N24": ONE}),
        ("N13", "N34", {"N14": ONE}),
        ("N34", "N13", {"N14": -ONE}),
        ("N12", "N34", {}),
        ("N12", "N24", {"N14": ONE}),
        ("N24", "N12", {"N14": -ONE}),
        ("N12", "N12", {}),
    ]
    for left, right, want in cases:
        got = bracket(T4, basis_vec(T4, left), basis_vec(T4, right))
        expect = [ZERO] * T4.dim
        for lab, c in want.items():
            expect[T4.index(lab)] = c
        assert got == expect, (left, right)


def test_bracket_is_bilinear():
    x = [sc(2), sc(0), sc(-1), sc(0), sc(3), sc(0)]
    y = [sc(0), sc(1), sc(0), sc(5), sc(0), sc(-2)]
    z = [sc(1), sc(1), sc(1), sc(0), sc(0), sc(0)]
    lhs = bracket(T4, x, [a + b for a, b in zip(y, z)])
    rhs = [a + b for a, b in zip(bracket(T4, x, y), bracket(T4, x, z))]
    assert lhs == rhs


def test_triangular_is_lie():
    for n in (3, 4, 5):
        t = triangular(n)
        assert is_leibniz(t)
        assert is_lie(t)


def test_corrupted_table_is_caught():
    entries = dict(T4.c)
    # break one bracket: make [N12, N23] = 2*N13
    entries[(0, 1)] = {3: sc(2)}
    broken = StructureTable(6, T4.labels, entries)
    assert not is_leibniz(broken)
    bad = leibniz_residues(broken)
    assert bad and all(comps for _, comps in bad)


def pair_residues(a):
    """The residue scan of a scalar table, redone in (re, im) Fraction pairs."""
    c = {key: {k: (v.re, v.im) for k, v in row.items()} for key, row in a.c.items()}
    out = []
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        acc = {}
        for sign, outer, inner in ((1, (j, k), lambda m: (i, m)),
                                   (-1, (i, j), lambda m: (m, k)),
                                   (1, (i, k), lambda m: (m, j))):
            for m, (p, q) in c.get(outer, {}).items():
                for r, (u, v) in c.get(inner(m), {}).items():
                    re, im = acc.get(r, (0, 0))
                    acc[r] = (re + sign * (p * u - q * v), im + sign * (p * v + q * u))
        nz = [(r, z) for r, z in acc.items() if z != (0, 0)]
        if nz:
            out.append(((i, j, k), nz))
    return out


def as_pairs(residues):
    return [(t, [(r, (c.re, c.im)) for r, c in comps.items()]) for t, comps in residues]


# Rationals, and Gaussian rationals, whose denominators mix 1 to 6.
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussians = st.builds(Scalar, rationals,
                      st.sampled_from((0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 5))))


@st.composite
def random_tables(draw):
    """Small tables, over Q (the scan's integer path) or over Q(i)."""
    dim = draw(st.integers(2, 4))
    index = st.integers(0, dim - 1)
    coefs = draw(st.sampled_from((rationals.map(Scalar), gaussians)))
    keys = draw(st.lists(st.tuples(index, index), unique=True, max_size=dim * dim))
    entries = {key: draw(st.dictionaries(index, coefs, max_size=dim)) for key in keys}
    return StructureTable(dim, [f"e{k}" for k in range(dim)], entries)


@given(random_tables())
def test_residue_scan_matches_a_fraction_pair_scan(table):
    assert as_pairs(leibniz_residues(table)) == pair_residues(table)


def gaussian_change(dim, rng, imaginary=(0, 0, 0, 1)):
    while True:
        rows = [[Scalar(Fraction(rng.randint(-1, 1), rng.choice((1, 1, 2))),
                        rng.choice(imaginary))
                 for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisChange(Matrix(rows, ncols=dim))
        except ValueError:
            continue


@pytest.mark.parametrize("seed", range(2))
def test_residue_scan_matches_on_transported_tables(seed):
    """Leibniz tables under a rational or Gaussian basis change, then spoiled."""
    rng = random.Random(seed)
    member = build_extension(ExtensionSpec(3, 1, {
        "a1_12_12": Scalar(2), "a1_23_23": Scalar(-2), "a1_12_23": Scalar(3),
        "s11": Scalar(Fraction(1, 2), 1)}))
    assert not is_lie(member)
    for source, imaginary in ((T4, (0,)), (member, (0, 0, 0, 1))):
        moved = change_of_basis(source, gaussian_change(source.dim, rng, imaginary))
        assert max(c.d for row in moved.c.values() for c in row.values()) > 1
        assert leibniz_residues(moved) == pair_residues(moved) == []
        entries = {key: dict(row) for key, row in moved.c.items()}
        key = rng.choice(sorted(entries))
        k = rng.choice(sorted(entries[key]))
        entries[key][k] = entries[key][k] + Scalar(Fraction(1, 7), imaginary[-1])
        spoiled = StructureTable(moved.dim, moved.labels, entries)
        got = leibniz_residues(spoiled)
        assert got and as_pairs(got) == pair_residues(spoiled)


def test_scalar_and_poly_scans_agree():
    """The Z[i] scan of a scalar table and the Poly scan of its constants."""
    rng = random.Random(4)
    moved = change_of_basis(T4, gaussian_change(6, rng))
    entries = {key: dict(row) for key, row in moved.c.items()}
    entries[(0, 1)] = {3: Scalar(Fraction(3, 4), -1)}
    table = StructureTable(6, T4.labels, entries)
    consts = StructureTable(6, T4.labels, {key: {k: Poly.const(c) for k, c in row.items()}
                                           for key, row in entries.items()}, ring=POLY)
    got = leibniz_residues(table)
    assert got
    assert [(t, {r: c.constant_term() for r, c in comps.items()})
            for t, comps in leibniz_residues(consts)] == got


# -- integer kernels against Scalar loops ------------------------------------

def ref_bracket(a, x, y):
    out = [ZERO] * a.dim
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            for k, ck in a.row(i, j).items():
                out[k] = out[k] + xi * yj * ck
    return out


def ref_mult_matrix(a, x, side):
    cols = [ref_bracket(a, a.basis_vector(s), x) if side == "right"
            else ref_bracket(a, x, a.basis_vector(s)) for s in range(a.dim)]
    return Matrix([[cols[s][r] for s in range(a.dim)] for r in range(a.dim)], ncols=a.dim)


def ref_series(a, derived):
    """Spans of all brackets, with no early stop, until a term repeats or is 0."""
    terms = [Subspace.full(a.dim)]
    for _ in range(a.dim + 1):
        prev = terms[-1]
        if prev.dim == 0:
            break
        acc = RrefAccumulator(a.dim)
        for x in prev.mat.rows:
            for y in (prev if derived else terms[0]).mat.rows:
                acc.add(ref_bracket(a, x, y))
        nxt = acc.to_subspace()
        if nxt == prev:
            break
        terms.append(nxt)
    return terms


def ref_change_of_basis(a, bc):
    d, p, q = a.dim, bc.p.rows, bc.p_inv.rows
    entries = {}
    for i in range(d):
        for j in range(d):
            w = [ZERO] * d
            for aa in range(d):
                for bb in range(d):
                    for k, ck in a.row(aa, bb).items():
                        w[k] = w[k] + p[i][aa] * p[j][bb] * ck
            row = {}
            for k in range(d):
                acc = ZERO
                for c in range(d):
                    acc = acc + q[c][k] * w[c]
                if not acc.is_zero():
                    row[k] = acc
            if row:
                entries[(i, j)] = row
    return StructureTable(d, a.labels, entries)


def ref_is_derivation(a, d):
    n = a.dim
    cols = [[d.rows[r][s] for r in range(n)] for s in range(n)]
    return all(d.apply([a.row(i, j).get(k, ZERO) for k in range(n)])
               == [u + v for u, v in zip(ref_bracket(a, cols[i], a.basis_vector(j)),
                                         ref_bracket(a, a.basis_vector(i), cols[j]))]
               for i in range(n) for j in range(n))


def ordered(t):
    """The table's brackets with the order of rows and of their components."""
    return [(key, list(row.items())) for key, row in t.c.items()]


def seeded_change(dim, seed):
    """An invertible change with rational or Gaussian entries, denominators 1 to 6."""
    rng = random.Random(seed)
    imaginary = rng.choice(((0,), (0, 0, 1, -2)))
    while True:
        rows = [[Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 6)), rng.choice(imaginary))
                 for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisChange(Matrix(rows, ncols=dim))
        except ValueError:
            continue


@settings(max_examples=40, deadline=None)
@given(random_tables(), st.data())
def test_integer_kernels_match_scalar_loops(table, data):
    """Both series and change_of_basis, which run on the integer view,
    against the Scalar loops, over Q and over Q(i).  bracket, mult_matrix
    and is_ideal are such loops themselves; is_derivation, a membership test
    in derivation_algebra, is checked against the derivation identity."""
    coefs = data.draw(st.sampled_from((rationals.map(Scalar), gaussians)))
    x, y = (data.draw(st.lists(coefs, min_size=table.dim, max_size=table.dim))
            for _ in range(2))
    assert bracket(table, x, y) == ref_bracket(table, x, y)
    for side in ("left", "right"):
        m = mult_matrix(table, x, side)
        assert m == ref_mult_matrix(table, x, side)
        assert is_derivation(table, m) == ref_is_derivation(table, m)
    lower, derived = lower_central_series(table), derived_series(table)
    assert lower == ref_series(table, derived=False)
    assert derived == ref_series(table, derived=True)
    basis = [table.basis_vector(i) for i in range(table.dim)]
    for s in lower + derived:
        assert is_ideal(table, s) == all(s.contains(ref_bracket(table, e, u))
                                         and s.contains(ref_bracket(table, u, e))
                                         for u in s.mat.rows for e in basis)
    bc = seeded_change(table.dim, data.draw(st.integers(0, 2 ** 32)))
    assert ordered(change_of_basis(table, bc)) == ordered(ref_change_of_basis(table, bc))


@pytest.mark.parametrize("name", ["T(4)", "member", "nonskew"])
def test_series_match_on_leibniz_tables(name):
    rng = random.Random(6)
    source = {"T(4)": T4,
              "member": build_extension(ExtensionSpec(3, 1, {
                  "a1_12_12": Scalar(2), "a1_23_23": Scalar(-2), "a1_12_23": Scalar(3),
                  "s11": Scalar(Fraction(1, 2), 1)})),
              "nonskew": StructureTable(3, ["x", "y", "z"], {
                  (0, 0): {2: ONE}, (0, 1): {1: ONE}, (1, 0): {1: -ONE}})}[name]
    for table in (source, change_of_basis(source, gaussian_change(source.dim, rng))):
        assert lower_central_series(table) == ref_series(table, derived=False)
        assert derived_series(table) == ref_series(table, derived=True)


# Slot-boundary tables.  The packed kernels choose their slot width from a
# bound on every slot; these tables put a value at or next to that bound, so
# a slot one bit narrower would wrap and carry into its neighbour.

def residue_edge_table(s):
    """Dimension 4, every entry s or -s; residue (0, 1, 2) has component 0
    equal to 10 * s**2 (the bound is 3 * 4 = 12 times s**2) and -s**2 in
    each of its other components."""
    c = {}

    def put(i, j, k, v):
        c.setdefault((i, j), {})[k] = v
    for m in range(4):
        put(1, 2, m, s)
        put(0, m, 0, s)
        put(0, 2, m, s)
        put(m, 1, 0, s)
    for m in range(1, 4):
        put(0, 1, m, -s)
    for m in range(2, 4):
        put(m, 2, 0, s)
    return StructureTable(4, ["e0", "e1", "e2", "e3"], c)


@pytest.mark.parametrize("s", [ONE, Scalar(3), Scalar(Fraction(-1, 2)),
                               Scalar(0, Fraction(3, 2))])
def test_residue_at_the_slot_bound(s):
    table = residue_edge_table(s)
    got = leibniz_residues(table)
    assert as_pairs(got) == pair_residues(table)
    comps = dict(got)[(0, 1, 2)]
    assert comps[0] == Scalar(10) * s * s
    assert all(comps[r] == -(s * s) for r in (1, 2, 3))


def permuted(t, perm):
    """The table in the basis e'_m = e_perm[m]."""
    inv = {old: new for new, old in enumerate(perm)}
    return StructureTable(t.dim, [t.labels[m] for m in perm], {
        (inv[i], inv[j]): {inv[k]: c for k, c in row.items()} for (i, j), row in t.c.items()})


@pytest.mark.parametrize("s", [ONE, Scalar(3), Scalar(Fraction(-1, 2)),
                               Scalar(0, Fraction(3, 2))])
def test_derived_partner_at_the_slot_bound(s):
    """e1 and e2 swapped, the residue at the bound is (0, 2, 1): the partner
    of (0, 1, 2), found from it and one product."""
    table = permuted(residue_edge_table(s), [0, 2, 1, 3])
    got = leibniz_residues(table)
    assert as_pairs(got) == pair_residues(table)
    comps = dict(got)[(0, 2, 1)]
    assert comps[0] == Scalar(10) * s * s
    assert all(comps[r] == -(s * s) for r in (1, 2, 3))


def table3(entries):
    return StructureTable(3, ["e0", "e1", "e2"], entries)


@pytest.mark.parametrize("table, present, absent", [
    # [e2, e1] = e1, [e0, e1] = e2: residue (0, 1, 2) is 0, its partner is not
    (table3({(2, 1): {1: ONE}, (0, 1): {2: ONE}}), [(0, 2, 1)], [(0, 1, 2)]),
    # the outer products at i = 0 vanish: both residues are [e0, [e_j, e_k]]
    (table3({(1, 2): {0: ONE}, (2, 1): {0: Scalar(2)}, (0, 0): {0: ONE}}),
     [(0, 1, 2), (0, 2, 1)], []),
    # a skew pair: [e0, S_12] = 0, so the partner is minus the residue
    (table3({(1, 2): {0: Scalar(0, 1)}, (2, 1): {0: Scalar(0, -1)}, (0, 0): {0: ONE}}),
     [(0, 1, 2), (0, 2, 1)], []),
    # squares: residue (i, j, j) is [e_i, [e_j, e_j]], the outer terms cancel
    (table3({(1, 1): {2: ONE}, (0, 2): {0: Scalar(-3)}, (0, 1): {1: ONE}}),
     [(0, 1, 1)], []),
    # ... and with [e0, e2] = 0, residue (0, 1, 1) is 0 though [[e0, e1], e1] is not
    (table3({(1, 1): {2: ONE}, (0, 1): {1: ONE}}), [(0, 0, 1)], [(0, 1, 1)]),
], ids=["partner only", "symmetrised only", "skew pair", "squares", "cancelled square"])
def test_paired_scan_on_chosen_tables(table, present, absent):
    got = leibniz_residues(table)
    assert as_pairs(got) == pair_residues(table)
    assert all(t in dict(got) for t in present)
    assert not any(t in dict(got) for t in absent)


@st.composite
def skew_tables(draw):
    """A drawn table minus its transpose: skew, and rarely Lie."""
    t = draw(random_tables())
    entries = {}
    for (i, j), row in t.c.items():
        for k, c in row.items():
            for key, v in (((i, j), c), ((j, i), -c)):
                out = entries.setdefault(key, {})
                out[k] = out.get(k, ZERO) + v
    return StructureTable(t.dim, t.labels, entries)


@st.composite
def skew_spoiled_lie_tables(draw):
    """T(3) or T(4), perhaps moved, with c added to [e_i, e_j] and -c to [e_j, e_i]."""
    source = draw(st.sampled_from((triangular(3), T4)))
    if draw(st.booleans()):
        source = change_of_basis(source, seeded_change(source.dim, draw(st.integers(0, 99))))
    i, j = draw(st.lists(st.integers(0, source.dim - 1), min_size=2, max_size=2, unique=True))
    k = draw(st.integers(0, source.dim - 1))
    c = draw(gaussians)
    entries = {key: dict(row) for key, row in source.c.items()}
    for key, v in (((i, j), c), ((j, i), -c)):
        row = entries.setdefault(key, {})
        row[k] = row.get(k, ZERO) + v
    return StructureTable(source.dim, source.labels, entries)


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_tables(), skew_tables(), skew_spoiled_lie_tables()))
def test_is_lie_matches_skewness_and_the_residue_scan(table):
    assert _is_skew(table) == is_skew(table)
    assert is_lie(table) == (is_skew(table) and pair_residues(table) == [])


def test_is_lie_on_lie_tables_and_their_spoiled_copies():
    lie = [triangular(3), T4, triangular(5), change_of_basis(T4, seeded_change(6, 1))]
    assert all(is_lie(t) for t in lie)
    entries = {key: dict(row) for key, row in T4.c.items()}
    entries[(0, 1)] = {3: Scalar(2)}
    entries[(1, 0)] = {3: Scalar(-2)}
    spoiled = StructureTable(6, T4.labels, entries)
    assert is_skew(spoiled) and not is_lie(spoiled)
    for t in (T4, spoiled):     # Poly tables take the full residue scan
        consts = StructureTable(6, t.labels, {key: {k: Poly.const(c) for k, c in row.items()}
                                              for key, row in t.c.items()}, ring=POLY)
        assert is_lie(consts) == is_lie(t)


# -- the series' fraction-free span against the eliminator --------------------

big = st.integers(-10 ** 30, 10 ** 30)
entry = st.one_of(st.just(0), st.integers(-3, 3), big)


@st.composite
def int_vectors(draw):
    """(d, [(re, im)]): real or Gaussian int vectors, d <= 8, some of them
    zero or Gaussian-int combinations of earlier ones."""
    d = draw(st.integers(1, 8))
    gaussian = draw(st.booleans())
    vecs = []
    for _ in range(draw(st.integers(0, 10))):
        if vecs and draw(st.booleans()):
            re, im = [0] * d, [0] * d
            for u, v in draw(st.lists(st.sampled_from(vecs), min_size=1, max_size=3)):
                a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5)) if gaussian else 0
                re = [x + a * p - b * q for x, p, q in zip(re, u, v)]
                im = [y + a * q + b * p for y, p, q in zip(im, u, v)]
        else:
            re = draw(st.lists(entry, min_size=d, max_size=d))
            im = draw(st.lists(entry, min_size=d, max_size=d)) if gaussian else [0] * d
        vecs.append((re, im))
    return d, vecs


def assert_span_rows(span):
    """Real positive leads, zeros at the other leads, echelon, content 1."""
    leads = [p for p, _, _ in span.rows]
    for p, u, v in span.rows:
        im = v or [0] * len(u)
        assert v is None or any(v)
        assert u[p] > 0 and im[p] == 0
        assert not any(u[:p]) and not any(im[:p])
        assert all(u[q] == im[q] == 0 for q in leads if q != p)
        assert math.gcd(*u, *im) == 1


@settings(max_examples=80, deadline=None)
@given(int_vectors())
def test_int_span_matches_the_eliminator(case):
    d, vecs = case
    span, acc = _IntSpan(d), RrefAccumulator(d)
    for re, im in vecs:
        assert span.add(list(re), list(im)) == acc.add([Scalar(x, y) for x, y in zip(re, im)])
        assert span.dim == acc.dim
        assert_span_rows(span)
    assert span.to_subspace() == acc.to_subspace()


HADAMARD = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]


@pytest.mark.parametrize("m", [ONE, Scalar(3), Scalar(0, -2)])
def test_transported_entry_at_the_slot_bound(m):
    """P = H, P^-1 = H/4 and c_ab^c = m * h_ia h_jb h_ck: the new [e_i, e_j]
    is d**3 * m * e_k over 4, every product of the d**3 at its bound."""
    h = HADAMARD
    i, j, k = 1, 2, 3
    table = StructureTable(4, ["e0", "e1", "e2", "e3"], {
        (a, b): {c: m * Scalar(h[i][a] * h[j][b] * h[c][k]) for c in range(4)}
        for a in range(4) for b in range(4)})
    bc = BasisChange(Matrix([[Scalar(x) for x in row] for row in h]))
    moved = change_of_basis(table, bc)
    assert ordered(moved) == [((i, j), [(k, Scalar(16) * m)])]
    assert ordered(moved) == ordered(ref_change_of_basis(table, bc))
    assert change_of_basis(moved, BasisChange(bc.p_inv)).same_brackets(table)


def test_nonskew_table_is_leibniz_but_not_lie():
    # one-dimensional algebra with [e,e] = 0 is Lie; with a second basis
    # vector z and [e,e] = z, z central, it is Leibniz only
    t = StructureTable(2, ["e", "z"], {(0, 0): {1: ONE}})
    assert is_leibniz(t)
    assert not is_lie(t)


def test_mult_matrix_oracle():
    m = mult_matrix(T4, basis_vec(T4, "N23"), "right")
    want = Matrix.zeros(6, 6).copy_rows()
    want[T4.index("N13")][T4.index("N12")] = ONE
    want[T4.index("N24")][T4.index("N34")] = -ONE
    assert m == Matrix(want, ncols=6)
    # left multiplication by the same element is the negative for a Lie table
    assert mult_matrix(T4, basis_vec(T4, "N23"), "left") == \
        Matrix([[-x for x in row] for row in m.rows], ncols=6)


def test_mult_matrix_rejects_bad_side():
    with pytest.raises(ValueError):
        mult_matrix(T4, basis_vec(T4, "N12"), "up")


def test_table_kernels_check_their_input_in_order():
    """bracket, mult_matrix, is_ideal and is_derivation: each message, and
    which check comes first when an input fails two of them."""
    def fails(message, kernel, *args):
        with pytest.raises(ValueError) as err:
            kernel(*args)
        assert str(err.value) == message

    family = StructureTable(3, ["x", "y", "z"], {(0, 1): {2: Poly.var("t")}}, ring=POLY)
    short, three = [ZERO] * 2, [ZERO] * 3
    length = "vector length must equal the algebra dimension"
    # bracket checks lengths before the ring; the others check the ring first
    fails(length, bracket, family, short, three)
    fails(length, bracket, family, three, short)
    fails("bracket requires scalar coefficients", bracket, family, three, three)
    fails("mult_matrix requires scalar coefficients", mult_matrix, family, short, "up")
    fails("is_ideal requires scalar coefficients", is_ideal, family, Subspace.zero(2))
    fails("is_derivation requires scalar coefficients", is_derivation, family,
          Matrix.identity(2))
    # mult_matrix checks the side before the length, also in dimension 0
    empty = StructureTable(0, [], {})
    fails("side must be 'left' or 'right'", mult_matrix, T4, short, "up")
    fails(length, mult_matrix, T4, short, "left")
    fails(length, mult_matrix, empty, [ONE], "right")
    assert mult_matrix(empty, [], "right") == Matrix([], ncols=0)
    assert bracket(empty, [], []) == []
    fails("subspace ambient dimension mismatch", is_ideal, T4, Subspace.full(5))
    shape = "derivation matrix shape mismatch"
    fails(shape, is_derivation, T4, Matrix.identity(5))
    fails(shape, is_derivation, T4, Matrix.zeros(6, 5))
    fails(shape, is_derivation, T4, Matrix.zeros(5, 6))


def test_right_multiplications_are_derivations():
    for lab in T4.labels:
        assert is_derivation(T4, mult_matrix(T4, basis_vec(T4, lab), "right"))


def test_scaling_map_is_not_a_derivation():
    assert not is_derivation(T4, Matrix.identity(6))


# -- structural invariants ---------------------------------------------------

def test_right_annihilator_of_t4_is_the_corner():
    ann = right_annihilator(T4)
    assert ann.dim == 1
    assert ann.contains(basis_vec(T4, "N14"))


def test_series_signatures():
    assert series_signature(T4) == ((6, 3, 1, 0), (6, 3, 0))
    assert series_signature(triangular(5)) == ((10, 6, 3, 1, 0), (10, 6, 1, 0))


def test_nilpotent_and_solvable():
    assert is_nilpotent(T4) and is_solvable(T4)
    checks = TableChecks.of(T4)
    assert checks.leibniz and checks.lie and checks.nilpotent and checks.solvable
    assert checks.signature == ((6, 3, 1, 0), (6, 3, 0))


def spoiled_t5():
    entries = dict(triangular(5).c)
    entries[(0, 1)] = {4: sc(3)}
    return StructureTable(10, triangular(5).labels, entries)


@pytest.mark.parametrize("table, leibniz", [
    (StructureTable(3, ["x", "y", "z"], {(0, 0): {2: ONE}, (0, 1): {1: ONE},
                                         (1, 0): {1: -ONE}}), True),
    (spoiled_t5(), False),
    (StructureTable(0, [], {}), True),
    (triangular(5), True),
], ids=["nonskew", "spoiled T(5)", "zero", "T(5)"])
def test_series_signature_matches_the_separate_series(table, leibniz):
    """series_signature builds [L, L] once for both series."""
    assert is_leibniz(table) == leibniz
    lower, derived = series_signature(table)
    assert lower == tuple(s.dim for s in lower_central_series(table))
    assert derived == tuple(s.dim for s in derived_series(table))
    assert lower == tuple(s.dim for s in ref_series(table, derived=False))
    assert derived == tuple(s.dim for s in ref_series(table, derived=True))


def sparse_table(name):
    if name.startswith("T("):
        return triangular(int(name[2:-1]))
    params = {"L1": {"a_12_24": Scalar(2), "b_12_14": ONE, "s_14": Scalar(3)},
              "L2": {"a_23_14": Scalar(2), "b_23_14": Scalar(-1), "s_14": sc("1/2")},
              "L3": {"a_23_23": Scalar(2, 1)},
              "L42": {"s11": ONE, "s12": Scalar(2), "s21": Scalar(-1), "s22": Scalar(0, 3)}}
    return build_canonical(CanonicalForm(name, params[name]))


def moved_series(series, bc):
    """The terms in the basis of bc: old coordinates v = w P give w = v P^-1."""
    return [span((Matrix(s.mat.rows, ncols=s.ambient) * bc.p_inv).rows, s.ambient)
            for s in series]


def assert_series(table, lower, derived):
    assert lower_central_series(table) == lower
    assert derived_series(table) == derived
    signature = (tuple(s.dim for s in lower), tuple(s.dim for s in derived))
    assert series_signature(table) == signature
    assert TableChecks.of(table).signature == signature
    assert is_nilpotent(table) == (lower[-1].dim == 0)
    assert is_solvable(table) == (derived[-1].dim == 0)


@pytest.mark.parametrize("name", ["T(4)", "T(5)", "T(6)", "T(7)", "T(8)",
                                  "L1", "L2", "L3", "L42"])
def test_series_on_sparse_tables(name):
    """Both series from the eliminator's rows against the Scalar loops, on
    sparse tables and on one dense copy of each up to dimension 15: the
    source's terms mapped by the change, checked against the loops up to
    dimension 10, as they take seconds past it."""
    table = sparse_table(name)
    lower, derived = ref_series(table, derived=False), ref_series(table, derived=True)
    assert_series(table, lower, derived)
    if table.dim > 15:
        return
    bc = seeded_change(table.dim, table.dim)
    moved = change_of_basis(table, bc)
    want = moved_series(lower, bc), moved_series(derived, bc)
    if table.dim <= 10:
        assert want == (ref_series(moved, derived=False), ref_series(moved, derived=True))
    assert_series(moved, *want)


def test_table_checks_agree_with_the_single_analyses():
    nonskew = StructureTable(2, ["e", "z"], {(0, 0): {1: ONE}})
    entries = dict(T4.c)
    entries[(0, 1)] = {3: sc(2)}
    broken = StructureTable(6, T4.labels, entries)
    for table in (T4, triangular(5), nonskew, broken):
        assert TableChecks.of(table) == TableChecks(
            leibniz=is_leibniz(table), lie=is_lie(table),
            nilpotent=is_nilpotent(table), solvable=is_solvable(table),
            signature=series_signature(table))


def test_series_dims_decrease():
    lc = [s.dim for s in lower_central_series(T4)]
    dv = [s.dim for s in derived_series(T4)]
    assert lc == sorted(lc, reverse=True)
    assert dv == sorted(dv, reverse=True)


def test_derived_subalgebra_is_an_ideal():
    derived = derived_series(T4)[1]
    assert is_ideal(T4, derived)
    assert not is_ideal(T4, span([basis_vec(T4, "N12")], ambient=6))


def test_derivation_algebra_dims():
    # dimension follows (n^2 + 3n - 6) / 2 for the triangular family
    for n in range(3, 8):
        assert derivation_algebra(triangular(n)).dim == (n * n + 3 * n - 6) // 2


def ref_derivation_rows(a):
    """The derivation conditions, each c_rjk and c_irk looked up by scanning r."""
    n = a.dim
    for i in range(n):
        for j in range(n):
            cij = a.row(i, j)
            for k in range(n):
                row = {}
                for s, c in cij.items():
                    row[k * n + s] = row.get(k * n + s, ZERO) + c
                for r in range(n):
                    c = a.row(r, j).get(k)
                    if c is not None:
                        row[r * n + i] = row.get(r * n + i, ZERO) - c
                for r in range(n):
                    c = a.row(i, r).get(k)
                    if c is not None:
                        row[r * n + j] = row.get(r * n + j, ZERO) - c
                nz = {c: v for c, v in row.items() if not v.is_zero()}
                if nz:
                    yield nz


def is_skew(a):
    return all(a.row(i, j).get(k, ZERO) + a.row(j, i).get(k, ZERO) == ZERO
               for i in range(a.dim) for j in range(a.dim) for k in range(a.dim))


@settings(max_examples=60, deadline=None)
@given(random_tables().filter(lambda t: not is_skew(t)))
def test_derivation_algebra_matches_the_scanning_rows(table):
    """Off the skew tables the left and right actions differ by more than a
    sign, so mixing up c_rjk and c_irk changes the kernel."""
    want = kernel_of_sparse_rows(ref_derivation_rows(table), table.dim ** 2)
    assert derivation_algebra(table).mat.rows == want.mat.rows


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    skew_tables().filter(lambda t: any(c.d > 1 for row in t.c.values() for c in row.values())),
    st.integers(0, 99).map(lambda seed: change_of_basis(T4, seeded_change(6, seed)))))
def test_derivation_algebra_on_skew_tables_matches_the_scanning_rows(table):
    """The tables where derivation_algebra builds only the rows with i < j:
    antisymmetrised draws with a common denominator D > 1, and moved T(4)."""
    assert _is_skew(table)
    want = kernel_of_sparse_rows(ref_derivation_rows(table), table.dim ** 2)
    assert derivation_algebra(table).mat.rows == want.mat.rows


def test_derivation_algebra_members_check_out():
    der = derivation_algebra(T4)
    for row in der.mat.rows:
        d = Matrix([row[k * 6:(k + 1) * 6] for k in range(6)], ncols=6)
        assert is_derivation(T4, d)


# -- change of basis ---------------------------------------------------------

def scramble(dim, seed):
    rng = random.Random(seed)
    while True:
        rows = [[sc(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisChange(Matrix(rows, ncols=dim))
        except ValueError:
            continue


def test_identity_change_is_trivial():
    bc = BasisChange(Matrix.identity(6))
    assert change_of_basis(T4, bc).same_brackets(T4)


def test_change_of_basis_preserves_invariants():
    bc = scramble(6, seed=5)
    moved = change_of_basis(T4, bc)
    assert is_leibniz(moved) and is_lie(moved)
    assert series_signature(moved) == series_signature(T4)
    assert derivation_algebra(moved).dim == derivation_algebra(T4).dim


def test_basis_change_composition():
    bc1 = scramble(6, seed=7)
    bc2 = scramble(6, seed=8)
    once = change_of_basis(change_of_basis(T4, bc1), bc2)
    composite = change_of_basis(T4, bc1.then(bc2))
    assert once.same_brackets(composite)


def test_singular_change_rejected():
    with pytest.raises(ValueError):
        BasisChange(Matrix.zeros(6, 6))


# -- serialization -----------------------------------------------------------

def test_json_round_trip_is_exact(tmp_path):
    path = tmp_path / "t4.json"
    save_table(T4, str(path))
    again = load_table(str(path))
    assert again == T4
    assert dumps_table(again) == dumps_table(T4)


def test_document_round_trip():
    doc = table_to_document(T4)
    assert doc["dim"] == 6
    assert table_from_document(doc) == T4
    # documents survive a JSON round trip byte for byte
    assert table_from_document(json.loads(json.dumps(doc))) == T4


def test_loads_rejects_malformed_documents():
    with pytest.raises(ValueError):
        loads_table("not json")
    with pytest.raises(ValueError):
        loads_table("[]")
    doc = table_to_document(T4)
    for strip in ("dim", "labels", "brackets"):
        broken = dict(doc)
        del broken[strip]
        with pytest.raises(ValueError):
            table_from_document(broken)
    renamed = json.loads(json.dumps(doc))
    renamed["brackets"][0]["left"] = "N99"
    with pytest.raises(ValueError):
        table_from_document(renamed)
    for value in (5, [5], ["coef"], [{"coef": 1, "basis": "a"}]):
        with pytest.raises(ValueError):
            table_from_document({"dim": 1, "labels": ["a"], "brackets": [
                {"left": "a", "right": "a", "value": value}]})
    for record in (5, "left"):
        with pytest.raises(ValueError):
            table_from_document({"dim": 1, "labels": ["a"], "brackets": [record]})
    for fields in ({"dim": True}, {"labels": "a"}, {"dim": 2, "labels": [1, 2.5]},
                   {"labels": 5}, {"brackets": 7}):
        with pytest.raises(ValueError):
            table_from_document({"dim": 1, "labels": ["a"], "brackets": [], **fields})


def test_table_constructor_validations():
    with pytest.raises(ValueError):
        StructureTable(2, ["a"], {})
    with pytest.raises(ValueError):
        StructureTable(2, ["a", "a"], {})
    with pytest.raises(ValueError):
        StructureTable(2, ["a", "b"], {(0, 5): {0: ONE}})
    with pytest.raises(ValueError):
        StructureTable(2, ["a", "b"], {(0, 0): {5: ONE}})


def test_unknown_label_lookup():
    with pytest.raises(ValueError):
        T4.index("N77")
