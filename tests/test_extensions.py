"""Generic extension families, forced relations, and exact sampling."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_lab import extensions
from leibniz_lab import algebra
from leibniz_lab.algebra import _poly_residues, is_leibniz, is_lie, is_nilpotent, leibniz_residues
from leibniz_lab.extensions import (WITNESS_DRAWS, ExtensionSpec, _mon_priority,
                                    _normalised_span, _residue_pencil, _tracefree_substitution,
                                    _witness_search, a_name, b_name,
                                    build_extension, derive_relations,
                                    diagonal_names, expected_relation_forms,
                                    expected_substitution, generic_extension,
                                    linear_forms_in_span, master_param_names,
                                    maximal_extension_spec, reduced_extension,
                                    restriction_factors, s_name, sample_extension_specs, sigma_param,
                                    solve_linear_forms, stated_restrictions,
                                    verify_corner_annihilation,
                                    verify_max_extension_is_lie)
from leibniz_lab.linalg import RrefAccumulator
from leibniz_lab.scalars import ONE, ZERO, Poly, Scalar
from leibniz_lab.symsolve import LinearSpan, equation_rref
from leibniz_lab.triangular import (diagonal_vector, nil_independent_count, pair_index,
                                    structure_matrices)


def sc(x):
    return Scalar(Fraction(x))


# -- naming ------------------------------------------------------------------

def test_parameter_names():
    assert a_name(4, 1, (1, 2), (2, 4)) == "a1_12_24"
    assert b_name(4, 2, (3, 4), (1, 4)) == "b2_34_14"
    assert s_name(4, 1, 2, (1, 4)) == "s12_14"
    assert sigma_param(2, 1) == "s21"
    # double digit sizes switch to underscore-separated pair tokens
    assert a_name(10, 1, (1, 2), (2, 10)) == "a1_1_2_2_10"


def test_master_param_names_frozen():
    assert master_param_names(4, 1) == (
        "a1_12_12", "a1_23_23", "a1_34_34",
        "a1_12_24", "a1_23_14", "a1_34_13",
        "b1_12_14", "b1_23_14", "b1_34_14",
        "s11")
    assert master_param_names(3, 1) == (
        "a1_12_12", "a1_23_23", "a1_12_23", "a1_23_12", "b1_12_13", "b1_23_13", "s11")
    assert master_param_names(5, 2) == (
        "a1_12_12", "a1_23_23", "a1_34_34", "a1_45_45",
        "a1_12_25", "a1_23_15", "a1_34_15", "a1_45_14",
        "b1_12_15", "b1_23_15", "b1_34_15", "b1_45_15",
        "a2_12_12", "a2_23_23", "a2_34_34", "a2_45_45",
        "a2_12_25", "a2_23_15", "a2_34_15", "a2_45_14",
        "b2_12_15", "b2_23_15", "b2_34_15", "b2_45_15",
        "s11", "s12", "s21", "s22")
    assert diagonal_names(4, 2, 2) == ("a2_12_12", "a2_23_23", "a2_34_34")


def test_full_rank_samplers_check_the_cap_first(monkeypatch):
    def no_work(*args):
        raise AssertionError("work done before the rank cap was checked")

    monkeypatch.setattr(extensions, "diagonal_names", no_work)
    monkeypatch.setattr(extensions, "_solve_with_diagonal", no_work)
    with pytest.raises(ValueError, match="capped at n = 8"):
        verify_max_extension_is_lie(9, samples=1)
    with pytest.raises(ValueError, match="capped at n = 8"):
        maximal_extension_spec(9)


def test_rank_guards():
    with pytest.raises(ValueError, match="n >= 3"):
        generic_extension(2, 1)
    with pytest.raises(ValueError, match="1..3"):
        generic_extension(4, 0)
    with pytest.raises(ValueError, match="1..3"):
        generic_extension(4, 4)
    with pytest.raises(ValueError, match="capped at n = 8"):
        generic_extension(9, 1)


# -- the generic table -------------------------------------------------------

def all_vars(table):
    out = set()
    for row in table.c.values():
        for v in row.values():
            out |= v.indeterminates()
    return out


def test_generic_extension_n3_variables():
    vars3 = all_vars(generic_extension(3, 1))
    # the n = 3 off-diagonal slot of the right action is (1,2) -> (2,3)
    assert "a1_12_23" in vars3
    assert "a1_12_13" not in vars3
    # left action and squares start fully generic
    assert "b1_13_12" in vars3
    assert "s11_23" in vars3


def test_generic_extension_shape_counts():
    # right action: n-1 diagonal vars + n-1 off-diagonal slots; left action
    # D^2 vars per generator; squares f*D vars
    for n, f in ((3, 1), (4, 1), (4, 2)):
        d = n * (n - 1) // 2
        count = len(all_vars(generic_extension(n, f)))
        assert count == f * ((n - 1) + (n - 1) + d * d) + f * f * d


def test_reduced_extension_bracket_oracles():
    r = reduced_extension(4, 1)
    x = 6

    def row(i, j):
        return {r.labels[k]: str(v) for k, v in r.row(i, j).items()}

    assert row(0, x) == {"N12": "a1_12_12", "N24": "a1_12_24"}
    assert row(x, 0) == {"N12": "-a1_12_12", "N24": "-a1_12_24",
                         "N14": "b1_12_14"}
    assert row(1, x) == {"N23": "a1_23_23", "N14": "a1_23_14"}
    assert row(x, 1) == {"N23": "-a1_23_23", "N14": "b1_23_14"}
    assert row(3, x) == {"N13": "a1_12_12 + a1_23_23"}
    assert row(x, x) == {"N14": "s11"}
    # the nilradical brackets are untouched
    assert row(0, 1) == {"N13": "1"}


def entry_text(table):
    """Each entry with its components and their terms, in stored order."""
    return [repr((key, [(k, str(c), list(c.terms)) for k, c in row.items()]))
            for key, row in table.c.items()]


def test_reduced_extension_is_the_generic_table_after_the_forced_relations():
    """Equal as tables at n = 3, where the substituted table lists the
    components of [N23, X] and [X, N23] in another order; equal in the order
    of entries, components and terms from n = 4 on."""
    for n, f in ((3, 1), (3, 2)) + tuple((n, f) for n in (4, 5, 6) for f in range(1, n)):
        sub = expected_substitution(n, f)
        for al in range(1, f + 1):
            for be in range(1, f + 1):
                sub[s_name(n, al, be, (1, n))] = Poly.var(sigma_param(al, be))
        substituted = generic_extension(n, f).substitute(sub)
        assert substituted == reduced_extension(n, f), (n, f)
        if n >= 4:
            assert entry_text(substituted) == entry_text(reduced_extension(n, f)), (n, f)


# -- forced relations --------------------------------------------------------

def test_expected_relation_counts():
    for n, f, want in ((3, 1, 9), (3, 2, 22), (4, 1, 38), (4, 2, 86)):
        d = n * (n - 1) // 2
        assert want == f * (d * d - (n - 1)) + f * f * (d - 1)
        assert len(expected_relation_forms(n, f)) == want


def test_derive_relations_reproduces_expected():
    for n, f in ((3, 1), (3, 2), (4, 1), (4, 2)):
        rep = derive_relations(n, f)
        assert rep.ok, (n, f, rep.unexplained_linear, rep.missing_linear)
        assert rep.linear_matches_expected
        assert rep.unexplained_residual == ()
        assert rep.sampling_ok


def test_the_expected_substitution_solves_the_expected_forms():
    """derive_relations compares the solved substitutions: each is the unique
    RREF of its span in one column order, so equal spans give equal ones."""
    for n in range(3, 9):
        for f in range(1, n):
            assert expected_substitution(n, f) \
                == solve_linear_forms(expected_relation_forms(n, f)), (n, f)


# sha256 of the reports' reprs below, computed before the linear layer read
# the scan's int cells and compared spans by their RREFs
NO_LINEAR_ROUND_SHA256 = "bb9484aa271fd0378a02703f63593215065590a341027f5f8886c2dfea07e7e3"
SHORT_EXPECTATION_SHA256 = "c355fb20de23146965514805f8c192b726f463ce517a2efe36e4e436347e9286"


def reports_digest(points):
    reports = [derive_relations(n, f, seed=1) for n, f in points]
    return reports, hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest()


def test_a_family_with_no_linear_relation_reports_every_expected_one_missing(monkeypatch):
    """On the reduced family the first scan spans no linear form: no round
    runs, its coefficients go straight to the quadratic split, and the spans
    differ, so each expected form is tested and reported missing."""
    monkeypatch.setattr(extensions, "generic_extension", reduced_extension)
    reports, digest = reports_digest(((3, 1), (4, 2)))
    assert [(r.rounds, len(r.missing_linear), r.unexplained_linear) for r in reports] \
        == [(0, 9, ()), (0, 86, ())]
    assert digest == NO_LINEAR_ROUND_SHA256


def test_a_short_expectation_reports_the_unexplained_form(monkeypatch):
    """With the expected forms short of one, the spans differ and the derived
    span holds exactly one form the expected one lacks."""
    expected = extensions._expected

    def short(n, f):
        forms = expected(n, f)[0][:-1]
        return forms, solve_linear_forms(forms)

    monkeypatch.setattr(extensions, "_expected", short)
    reports, digest = reports_digest(((3, 1), (4, 2)))
    assert [(len(r.unexplained_linear), r.missing_linear) for r in reports] == [(1, ()), (1, ())]
    assert not any(r.ok for r in reports)
    assert digest == SHORT_EXPECTATION_SHA256


def test_derive_relations_quadratic_layer():
    rep = derive_relations(4, 1)
    assert len(rep.quadratic_residuals) == 7
    assert rep.tracefree_covered
    assert rep.extra_quadratics == ()
    # with no extra there is nothing to witness, so nothing is drawn
    assert rep.witness is None
    assert rep.sample_points == 0 and rep.sampling_ok

    # the stated products do not exhaust the residuals at n = 3 or f = 2
    assert len(derive_relations(3, 1).extra_quadratics) == 2
    assert len(derive_relations(3, 2).extra_quadratics) == 11
    assert len(derive_relations(4, 2).extra_quadratics) == 9


def test_the_sampler_can_fail():
    """The witness search: points off the stated products' zero set raise,
    an extra is caught, and extras that every point zeroes give no witness."""
    flat = _tracefree_substitution(4, 2)
    pairs = [(weight.substitute(flat), form) for weight, form in restriction_factors(4, 2)]
    stated = [weight * form for weight, form in pairs]
    extra = Poly.var(a_name(4, 1, (1, 2), (1, 2))) * Poly.var(b_name(4, 2, (1, 2), (1, 4)))
    assert extra in derive_relations(4, 2).extra_quadratics
    names = set()
    for q in stated + [extra]:
        names |= q.indeterminates()
    variables = sorted(names)

    def search(stated, covered, extras):
        return _witness_search(pairs, stated, covered, extras, variables, random.Random(1))

    assert search(stated, stated, stated) == (WITNESS_DRAWS, True, None)
    drawn, ok, witness = search(stated, [extra], [extra])
    assert not ok and witness[:2] == (drawn - 1, extra)
    point = dict(witness[2])
    assert sorted(point) == variables and not extra.evaluate(point).is_zero()
    assert all(q.evaluate(point).is_zero() for q in stated)
    with pytest.raises(RuntimeError, match="escaped the restriction variety"):
        search(stated + [extra], [], [extra])
    assert search(stated, [extra], []) == (0, True, None)


def scalar_kernel_vector(acc, rng, tries=8):
    """`random_kernel_vector` as it drew in `Scalar`s, kept as the oracle of
    the sampler's draws."""
    free = [c for c in range(acc.ambient) if c not in acc.pivots]
    vec = [ZERO] * acc.ambient
    if not free:
        return vec
    for _ in range(tries):
        draws = [rng.randint(-5, 5) for _ in free]
        if any(draws):
            break
    else:
        draws = [1] + [0] * (len(free) - 1)
    values = {c: Scalar(k) for c, k in zip(free, draws) if k}
    for c, x in values.items():
        vec[c] = x
    for p, row in acc.pivots.items():
        total = ZERO
        for c, e in row.items():
            x = values.get(c)
            if x is not None:
                total = total - e * x
        vec[p] = total
    return vec


def scalar_witness_search(factor_pairs, stated, covered, extras, variables, count, rng):
    """The witness search in `Scalar` arithmetic throughout, with one RREF
    per factor-choice pattern and `scalar_kernel_vector`'s draws, kept as
    its oracle."""
    if not extras:
        return 0, True, None
    systems = {}
    ok = True
    for k in range(count):
        pattern = tuple(rng.choice((0, 1)) for _ in factor_pairs)
        acc = systems.get(pattern)
        if acc is None:
            chosen = [pair[c] for pair, c in zip(factor_pairs, pattern)
                      if pair[c].indeterminates() <= set(variables)]
            acc = systems[pattern] = equation_rref(chosen, variables)
        point = dict(zip(variables, scalar_kernel_vector(acc, rng)))
        if any(not q.evaluate(point).is_zero() for q in stated):
            raise RuntimeError("sample point escaped the restriction variety")
        if ok and any(not q.evaluate(point).is_zero() for q in covered):
            ok = False
        for q in extras:
            if not q.evaluate(point).is_zero():
                return k + 1, ok, (k, q, tuple(sorted(point.items())))
    return count, ok, None


def sampler_cases():
    """(factor pairs, stated, covered, extras, variables) for `_witness_search`
    and its oracle: four (n, f) points with the extra quadratics
    `derive_relations` reports (none at (4, 1), where nothing is drawn),
    and one set of pairs with Gaussian, fractional forms, whose RREF rows
    have denominators.  Each comes twice: once with extras that stop the
    search early, once with extras that every point zeroes, so that it
    draws to the cap."""
    for n, f in ((3, 1), (4, 1), (4, 2), (5, 2)):
        flat = _tracefree_substitution(n, f)
        pairs = [(w.substitute(flat), form) for w, form in restriction_factors(n, f)]
        stated = [w * form for w, form in pairs]
        extras = list(derive_relations(n, f).extra_quadratics)
        names = set()
        for q in stated + extras:
            names |= q.indeterminates()
        for found in (extras, stated):
            yield pairs, stated, stated + extras, found, sorted(names)
    x, y, z, w, u = (Poly.var(v) for v in "xyzwu")
    half, gauss = Poly.const(Scalar(Fraction(1, 2))), Poly.const(Scalar(Fraction(2, 3), 1))
    pairs = [(x, half * y - z), (y + gauss * w, u), (z, gauss * x + half * u)]
    stated = [a * b for a, b in pairs]
    covered = [stated[0] + gauss * stated[2], x * y, half * z * z]
    for found in (covered, stated):
        yield pairs, stated, covered, found, ["u", "w", "x", "y", "z"]


def test_the_integer_sampler_matches_the_scalar_sampler(monkeypatch):
    """The search's result and its RNG consumption equal the pure-`Scalar`
    oracle's over 60 draws: the same factor choices, the same kernel points
    from `random_kernel_vector`'s int rows, and the same zero tests."""
    monkeypatch.setattr(extensions, "WITNESS_DRAWS", 60)  # as many draws as before
    for pairs, stated, covered, extras, names in sampler_cases():
        for seed in (0, 1, 2):
            rng, ref = random.Random(seed), random.Random(seed)
            got = _witness_search(pairs, stated, covered, extras, names, rng)
            assert got == scalar_witness_search(pairs, stated, covered, extras, names, 60, ref)
            assert rng.getstate() == ref.getstate()


def witness_table(n, f, point):
    """The generic (n, f) table under the forced linear relations and the
    zero-trace substitution, at point, every other indeterminate 0."""
    table = (generic_extension(n, f).substitute(expected_substitution(n, f))
             .substitute(_tracefree_substitution(n, f)))
    full = dict.fromkeys(set().union(*(p.indeterminates() for row in table.c.values()
                                       for p in row.values())), ZERO)
    full.update(point)
    return table.to_scalar(full)


def witness_problems(rep):
    """Why a report's witness does not prove its stated restrictions
    incomplete; empty when it does."""
    k, extra, point = rep.witness
    values = dict(point)
    flat = _tracefree_substitution(rep.n, rep.f)
    problems = []
    if extra not in rep.extra_quadratics:
        problems.append("not an extra of the report")
    if not 0 <= k < rep.sample_points:
        problems.append("draw index outside the points drawn")
    if list(values) != sorted(values):
        problems.append("point not sorted by name")
    if any(not q.substitute(flat).evaluate(values).is_zero() for q in rep.stated_products):
        problems.append("point leaves the stated products")
    if extra.evaluate(values).is_zero():
        problems.append("point zeroes its extra")
    if is_leibniz(witness_table(rep.n, rep.f, values)):
        problems.append("rebuilt table is Leibniz")
    return problems


def test_each_witness_proves_the_stated_restrictions_incomplete():
    for seed in (1, 3):
        for n, f in ((3, 1), (3, 2), (4, 2), (4, 3), (5, 2)):
            rep = derive_relations(n, f, seed=seed)
            assert rep.ok and rep.extra_quadratics, (n, f)
            assert rep.sample_points <= WITNESS_DRAWS
            assert rep.witness is not None and witness_problems(rep) == [], (n, f, seed)
        for n, f in ((4, 1), (5, 1)):
            assert derive_relations(n, f, seed=seed).witness is None, (n, f)

    # doctored witnesses fail the check
    rep = derive_relations(4, 2, seed=1)
    k, extra, point = rep.witness
    gone = extra.indeterminates()
    for doctored, want in (
            ((k, extra, tuple((v, ZERO) for v, _ in point)),
             ["point zeroes its extra", "rebuilt table is Leibniz"]),
            ((k, extra, tuple((v, ZERO if v in gone else x) for v, x in point)),
             ["point zeroes its extra"]),
            ((k, rep.stated_products[0].substitute(_tracefree_substitution(4, 2)), point),
             ["not an extra of the report"]),
            ((rep.sample_points, extra, point), ["draw index outside the points drawn"])):
        problems = witness_problems(rep._replace(witness=doctored))
        assert all(w in problems for w in want), (doctored, problems)


def test_derive_relations_cap():
    with pytest.raises(ValueError, match="capped at n = 6"):
        derive_relations(7, 1)


def test_relations_are_not_vacuous():
    """A one-off perturbation of the forced relations breaks the reduction."""
    sub = dict(expected_substitution(4, 1))
    key = "b1_12_12"
    assert key in sub
    sub[key] = sub[key] + Poly.const(1)
    leftovers = []
    for _, comps in leibniz_residues(generic_extension(4, 1)):
        for p in comps.values():
            q = p.substitute(sub)
            if not q.max_degree_below(2).is_zero():
                leftovers.append(q)
    assert leftovers


def test_linear_forms_in_span_extraction():
    x, y, z, w = (Poly.var(v) for v in "xyzw")
    forms = linear_forms_in_span([x * y + z, x * y + w])
    assert forms
    assert LinearSpan(forms) == LinearSpan([z - w])
    assert linear_forms_in_span([x * y]) == []


# -- dropping rows that cannot cancel their degree-2 part ---------------------

def all_rows_linear_forms(polys):
    """`linear_forms_in_span` as it was before it dropped rows: one
    eliminator over every row, with `_mon_priority` columns."""
    acc = RrefAccumulator()
    for p in polys:
        if not p.constant_term().is_zero():
            raise ValueError("unexpected constant term in a residue polynomial")
        acc.add({_mon_priority(mon): c for mon, c in p.terms.items()})
    out = []
    for lead, row in acc.pivots.items():
        if lead[0] == 1:
            terms = {key[-1]: c for key, c in row.items()}
            terms[lead[-1]] = ONE
            out.append(Poly(terms))
    return out


def counted_adds(monkeypatch):
    """A list that gains one entry per `RrefAccumulator.add` call."""
    calls = []
    add = RrefAccumulator.add

    def counting(self, vec):
        calls.append(vec)
        return add(self, vec)

    monkeypatch.setattr(RrefAccumulator, "add", counting)
    return calls


SPAN_NAMES = ("a1", "a2", "b1", "b2", "s1")   # every `_var_rank` class
span_coefficients = st.builds(
    Scalar, st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-2, 3))),
    st.sampled_from((0, 0, 1, Fraction(-1, 3))))


def span_monomials(degree):
    return st.lists(st.sampled_from(SPAN_NAMES), min_size=degree, max_size=degree).map(
        lambda names: tuple(sorted((v, names.count(v)) for v in set(names))))


def span_polys(*degrees):
    return st.dictionaries(st.one_of(*map(span_monomials, degrees)), span_coefficients,
                           min_size=1, max_size=4).map(Poly)


@st.composite
def span_rows(draw):
    """Homogeneous linear and quadratic rows and mixed ones, with some pairs
    planted whose quadratic parts cancel (q + l and c*q + l')."""
    rows = draw(st.lists(st.one_of(span_polys(1), span_polys(2), span_polys(1, 2)),
                         max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        q = draw(span_polys(2))
        for c in (ONE, draw(span_coefficients)):
            rows.insert(draw(st.integers(0, len(rows))), q.scale(c) + draw(span_polys(1)))
    return rows


@settings(max_examples=200, deadline=None)
@given(span_rows())
def test_dropping_rows_keeps_the_linear_forms(rows):
    # the same forms in the same order, each with the same coefficients
    assert linear_forms_in_span(rows) == all_rows_linear_forms(rows)


def _hand_rows():
    a1, a2, b1, b2, s1 = (Poly.var(v) for v in SPAN_NAMES)
    return {
        # a1*a2 is held by A alone; once A is dropped, a1*b1 is held by B
        # alone, and then a2*a2 by C alone; only D and E reach the eliminator
        "cascade": ([a1 * a2 + a1 * b1 + b1, a1 * b1 + a2 * a2 + b2, a2 * a2 + a1,
                     s1 * s1 + a1, s1 * s1 + a2], 2),
        # s1*b1 is held by exactly two rows, whose difference is linear
        "two holders cancel": ([s1 * b1 + a1, s1 * b1 + b2], 2),
        # a monomial of degree 3 is not linear: a1^2*a2 has two holders,
        # a1*a2*s1 one
        "degree 3": ([a1 * a1 * a2 + b1, a1 * a2 * s1 + a1, a1 * a1 * a2 + b2], 2),
        # A is dropped; in the oracle it takes part in reducing C, whose form
        # then lists a1 and a2 the other way round, with the same coefficients
        "term order": ([a1 * a2 + s1 * s1 + a2, a1 * a2 + a1 + a2, a1 * a2 + b1], 2),
    }


@pytest.mark.parametrize("case", sorted(_hand_rows()))
def test_dropping_rows_on_hand_cases(monkeypatch, case):
    rows, kept = _hand_rows()[case]
    want = all_rows_linear_forms(rows)
    adds = counted_adds(monkeypatch)
    assert linear_forms_in_span(rows) == want != []
    assert len(adds) == kept


def test_a_constant_term_raises_even_in_a_row_that_would_be_dropped():
    x, y, z = (Poly.var(v) for v in "xyz")
    with pytest.raises(ValueError, match="constant term"):
        linear_forms_in_span([x * y + z, x * z + Poly.const(1)])


def test_the_first_elimination_skips_most_quadratic_rows(monkeypatch):
    """On the (5, 2) residues, 1,320 coefficients are linear and 36 of the
    876 others can cancel their degree-2 part; without the drop, all 2,196
    reach the eliminator."""
    coefficients = [c for _, comps in leibniz_residues(generic_extension(5, 2))
                    for c in comps.values()]
    assert len(coefficients) == 2196
    want = all_rows_linear_forms(coefficients)
    adds = counted_adds(monkeypatch)
    assert linear_forms_in_span(coefficients) == want
    assert len(adds) <= 1400


def test_solve_linear_forms():
    a, b, s = Poly.var("a1_23_23"), Poly.var("b1_23_14"), Poly.var("s11")
    sub = solve_linear_forms([b + a + a, s - a])
    assert set(sub) == {"b1_23_14", "s11"}
    for form in (b + a + a, s - a):
        assert form.substitute(sub).is_zero()


# -- the Leibniz kernel ------------------------------------------------------

def test_the_symmetric_part_of_every_reduced_family_lies_in_the_corner():
    """Each [e_i, e_j] + [e_j, e_i], i <= j, of reduced_extension(n, f) is a
    multiple of N_1n, so the squares of any member span at most that line."""
    nonzero = 0
    for n in range(3, 9):
        corner = pair_index(n, 1, n)
        for f in range(1, n):
            table = reduced_extension(n, f)
            for i in range(table.dim):
                for j in range(i, table.dim):
                    left, right = table.row(i, j), table.row(j, i)
                    for k in left.keys() | right.keys():
                        if not (left.get(k, Poly.zero()) + right.get(k, Poly.zero())).is_zero():
                            assert k == corner, (n, f, table.labels[i], table.labels[j], k)
                            nonzero += 1
    assert nonzero == 670


# -- concrete members --------------------------------------------------------

def test_stated_restrictions_frozen():
    descs = [d for d, _ in stated_restrictions(4, 1)]
    assert descs == ["a1_12_12 * b1_12_14",
                     "a1_23_23 * (a1_23_14 + b1_23_14)",
                     "a1_34_34 * b1_34_14"]


def test_spec_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameter"):
        ExtensionSpec(n=4, f=1, params={"nope": ONE})


def test_builder_rejects_restricted_products():
    spec = ExtensionSpec(n=4, f=1, params={"a1_12_12": ONE, "b1_12_14": ONE})
    assert spec.violated_restriction() is not None
    with pytest.raises(ValueError, match="restriction violated"):
        build_extension(spec)


def test_builder_rejects_nil_dependent_generators():
    """Dependent generator diagonals leave a nilpotent combination, so the
    nilradical is larger than T(n)."""
    spec = ExtensionSpec(n=4, f=1, params={"s11": ONE})
    assert is_nilpotent(reduced_extension(4, 1).to_scalar(spec.assignment()))
    with pytest.raises(ValueError, match=r"rank 0 < f = 1, so a combination of them "
                                         "acts nilpotently"):
        build_extension(spec)
    spec = ExtensionSpec(n=4, f=2, params={
        "a1_12_12": ONE, "a1_34_34": -ONE, "a2_12_12": sc(2), "a2_34_34": sc(-2),
        "s12": ONE})
    with pytest.raises(ValueError, match=r"rank 1 < f = 2"):
        build_extension(spec, verify=False)


def test_stated_restrictions_are_not_sufficient():
    """A point may satisfy the stated products yet fail the bracket identity."""
    spec = ExtensionSpec(n=4, f=1, params={"a1_23_23": ONE, "b1_12_14": ONE})
    assert spec.violated_restriction() is None
    with pytest.raises(ValueError, match="bracket identity fails"):
        build_extension(spec)


def test_builder_accepts_a_valid_member():
    spec = ExtensionSpec(n=4, f=1, params={
        "a1_12_12": sc(1), "a1_23_23": sc(1), "a1_34_34": sc(-2),
        "s11": sc(1)})
    table = build_extension(spec)
    assert is_leibniz(table)
    assert not is_lie(table)
    assert verify_corner_annihilation(table, 4, 1)


def test_corner_annihilation_counterexample():
    # corrupting the corner action of a non-skew member must be flagged
    spec = ExtensionSpec(n=4, f=1, params={
        "a1_12_12": sc(1), "a1_23_23": sc(1), "a1_34_34": sc(-2),
        "s11": sc(1)})
    table = build_extension(spec)
    entries = dict(table.c)
    entries[(5, 6)] = {0: ONE}
    from leibniz_lab.algebra import StructureTable
    broken = StructureTable(7, table.labels, entries)
    assert not verify_corner_annihilation(broken, 4, 1)
    with pytest.raises(ValueError, match="does not match"):
        verify_corner_annihilation(table, 5, 1)


# -- sampling ----------------------------------------------------------------

def test_sampling_guards():
    with pytest.raises(ValueError, match="n >= 4"):
        sample_extension_specs(3, 1, 1)
    with pytest.raises(ValueError, match="unknown branch"):
        sample_extension_specs(4, 1, 1, branch="typo")
    with pytest.raises(ValueError, match="f <= n - 2"):
        sample_extension_specs(4, 3, 1, branch="nonlie")


def test_sampling_is_deterministic():
    a = sample_extension_specs(4, 2, 5, seed=11)
    b = sample_extension_specs(4, 2, 5, seed=11)
    assert a == b
    c = sample_extension_specs(4, 2, 5, seed=12)
    assert a != c


def test_sampled_members_satisfy_the_bracket_identity():
    for n, f in ((4, 1), (4, 2), (5, 1)):
        for spec in sample_extension_specs(n, f, 4, seed=2):
            table = build_extension(spec)  # verify=True re-checks residues
            assert table.dim == n * (n - 1) // 2 + f


def test_nonlie_branch_members_are_not_skew():
    for spec in sample_extension_specs(4, 1, 6, seed=3, branch="nonlie"):
        table = build_extension(spec)
        assert not is_lie(table)
        assert verify_corner_annihilation(table, 4, 1)


def test_maximal_extension_is_lie_and_full_rank():
    spec = maximal_extension_spec(4)
    assert spec.f == 3
    table = build_extension(spec)
    assert is_lie(table)
    diags = [diagonal_vector(structure_matrices(table, 4, al))
             for al in (1, 2, 3)]
    assert nil_independent_count(diags) == 3


def test_verify_max_extension():
    chk = verify_max_extension_is_lie(4, samples=20)
    assert chk.ok
    assert chk.skew_relations_forced
    assert chk.all_samples_lie
    assert chk.missing_relations == ()
    assert chk.f == 3


def theorem_lead(n, corrupt):
    """The first generator's diagonal as verify_max_extension_is_lie fixes it."""
    values = (1, -1) if corrupt else (1,)
    first = diagonal_names(n, n - 1, 1)
    return {name: Poly.const(values[k]) if k < len(values) else Poly.zero()
            for k, name in enumerate(first)}


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_substituted_cached_residues_span_what_a_rescan_spans(n, corrupt):
    """The theorem check fixes the first diagonal in the pencil's cells; the
    linear forms they span are those of the substituted table's scan."""
    lead = theorem_lead(n, corrupt)
    rescan = [c for _, comps in leibniz_residues(reduced_extension(n, n - 1).substitute(lead))
              for c in comps.values()]
    span = _normalised_span(n, corrupt)
    assert span.dim > 0
    assert span == LinearSpan(linear_forms_in_span(rescan))


@pytest.mark.parametrize("corrupt", [False, True])
def test_a_cold_theorem_check_scans_the_family_once(monkeypatch, corrupt):
    scans, rings = [], []
    monkeypatch.setattr(extensions, "_poly_residues", lambda a: scans.append(a) or _poly_residues(a))
    for mod in (extensions, algebra):
        monkeypatch.setattr(mod, "leibniz_residues",
                            lambda a: rings.append(a.ring) or leibniz_residues(a))
    for cached in (reduced_extension, _residue_pencil):
        cached.cache_clear()
    assert verify_max_extension_is_lie(4, samples=3, corrupt=corrupt).ok != corrupt
    assert scans == [reduced_extension(4, 3)]
    assert "poly" not in rings


# -- the residue pencil ------------------------------------------------------

def test_the_residues_are_a_pencil_in_the_diagonal():
    """Every residue monomial is one diagonal name times one other name, over
    a common denominator of 1, and every distinct row has a cell."""
    for n in range(4, 9):
        for f in range(1, n):
            diag = {name for al in range(1, f + 1) for name in diagonal_names(n, f, al)}
            rest, rows = _residue_pencil(n, f)
            assert rest == tuple(v for v in master_param_names(n, f) if v not in diag)
            assert rows and len(set(rows)) == len(rows)
            for row in rows:
                assert row
                assert len({cell[:2] for cell in row}) == len(row)
                assert all(d in diag and 0 <= col < len(rest) and any(c) for d, col, c in row)


@pytest.mark.parametrize("n,f", [(4, 1), (4, 3), (5, 2)])
def test_the_pencil_rows_are_the_residue_coefficients(n, f):
    rest, rows = _residue_pencil(n, f)
    from_pencil = {sum(((Poly.var(d) * Poly.var(rest[col])).scale(Scalar.from_ints(*c, 1))
                        for d, col, c in row), Poly.zero()) for row in rows}
    scanned = {p for _, comps in leibniz_residues(reduced_extension(n, f)) for p in comps.values()}
    assert from_pencil == scanned


def test_the_pencil_rejects_residues_of_another_shape(monkeypatch):
    # the generic table's residues multiply two non-diagonal names
    monkeypatch.setattr(extensions, "reduced_extension", lambda n, f: generic_extension(4, 1))
    with pytest.raises(ValueError, match="not a pencil"):
        _residue_pencil.__wrapped__(4, 1)
    # halving one diagonal name makes D**2 = 4
    halved = reduced_extension(4, 1).substitute(
        {"a1_12_12": Poly.var("a1_12_12").scale(Scalar.from_ints(1, 0, 2))})
    monkeypatch.setattr(extensions, "reduced_extension", lambda n, f: halved)
    with pytest.raises(ValueError, match="not a pencil"):
        _residue_pencil.__wrapped__(4, 1)


def test_verify_max_extension_corrupt_mode_is_sensitive():
    bad = verify_max_extension_is_lie(4, samples=20, corrupt=True)
    assert not bad.ok
    assert not bad.skew_relations_forced
    assert bad.nonlie_samples > 0
