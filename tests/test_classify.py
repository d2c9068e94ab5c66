"""The 7-dimensional family: building, classifying, canonical targets."""

from fractions import Fraction
from itertools import product

import pytest

from leibniz_lab.algebra import (StructureTable, change_of_basis, is_leibniz,
                                 is_lie, series_signature)
from leibniz_lab.classify import (L1_PARAM_NAMES, L2_PARAM_NAMES, L42_PARAM_NAMES,
                                  CanonicalForm, L41Params, build_canonical,
                                  build_L41, classify_L41, distinguish,
                                  sample_l41_params)
from leibniz_lab.extensions import reduced_extension, verify_corner_annihilation
from leibniz_lab.scalars import ONE, ZERO, Scalar
from leibniz_lab.triangular import (diagonal_vector, nil_independent_count,
                                    structure_matrices)


def sc(x):
    return Scalar(Fraction(x))


def frac(a, b):
    return Scalar(Fraction(a, b))


# -- parameter points --------------------------------------------------------

def test_from_mapping_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown parameter"):
        L41Params.from_mapping({"d1": ONE})


def test_mapping_round_trip():
    p = L41Params(a_12_12=sc(2), s_14=sc(-1))
    assert L41Params.from_mapping(p.as_mapping()) == p


def test_restriction_messages():
    cases = [
        (L41Params(a_12_12=ONE, b_12_14=ONE, a_23_23=ONE),
         "a_12_12 * b_12_14"),
        (L41Params(a_23_23=ONE, a_23_14=ONE),
         "a_23_23 * (a_23_14 + b_23_14)"),
        (L41Params(a_12_12=ONE, a_23_23=ONE, b_34_14=ONE),
         "(a_12_12 + a_23_23) * b_34_14"),
    ]
    for p, want in cases:
        assert p.restriction_violation() == want
        with pytest.raises(ValueError, match="restriction violated"):
            p.validate()


def test_nilpotent_action_rejected():
    with pytest.raises(ValueError, match="acts nilpotently"):
        L41Params(s_14=ONE).validate()


def test_build_oracles():
    p = L41Params(a_12_12=sc(2), a_23_23=sc(1), a_23_14=sc(3), b_23_14=sc(-3))
    t = build_L41(p)
    assert t.dim == 7
    assert t.labels == ("N12", "N23", "N34", "N13", "N24", "N14", "X")
    x = 6
    # diagonal entries close up to zero trace: d3 = -(d1 + d2)
    assert t.row(2, x) == {2: sc(-3)}
    assert t.row(0, x) == {0: sc(2)}
    assert t.row(1, x) == {1: sc(1), 5: sc(3)}
    assert t.row(x, 1) == {1: sc(-1), 5: sc(-3)}
    assert is_leibniz(t)


def reference_l41(p):
    """The member at p, built from the paper's description alone.

    [N_ij, N_kl] = d_jk N_il - d_il N_kj.  X acts on N_ij by the sum of the
    superdiagonal weights d1, d2, d3 = -(d1 + d2) it spans, plus N12 -> N24,
    N23 -> N14 and N34 -> N13; the left action is minus the right one except
    for the corner terms b_*_14, and [X, X] = s_14 N14.
    """
    pairs = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)]
    labels = [f"N{i}{j}" for i, j in pairs] + ["X"]
    entries: dict = {}

    def put(left, right, out, v):
        row = entries.setdefault((labels.index(left), labels.index(right)), {})
        row[labels.index(out)] = row.get(labels.index(out), ZERO) + v

    for i, j in pairs:
        for k, l in pairs:
            if j == k:
                put(f"N{i}{j}", f"N{k}{l}", f"N{i}{l}", ONE)
            if i == l:
                put(f"N{i}{j}", f"N{k}{l}", f"N{k}{j}", -ONE)
        weight = sum([p.a_12_12, p.a_23_23, -(p.a_12_12 + p.a_23_23)][i - 1:j - 1], ZERO)
        put(f"N{i}{j}", "X", f"N{i}{j}", weight)
        put("X", f"N{i}{j}", f"N{i}{j}", -weight)
    for row, col, v in (("N12", "N24", p.a_12_24), ("N34", "N13", p.a_34_13)):
        put(row, "X", col, v)
        put("X", row, col, -v)
    put("N23", "X", "N14", p.a_23_14)
    for row, v in (("N12", p.b_12_14), ("N23", p.b_23_14), ("N34", p.b_34_14)):
        put("X", row, "N14", v)
    put("X", "X", "N14", p.s_14)
    return StructureTable(7, labels, entries)


def test_tables_match_the_paper_description():
    for p in sample_l41_params(40):
        assert build_L41(p) == reference_l41(p)
    points = [
        (CanonicalForm("L1", {"a_12_24": sc(2), "b_12_14": sc(3), "s_14": sc(-1)}),
         L41Params(a_23_23=ONE, a_12_24=sc(2), b_12_14=sc(3), s_14=sc(-1))),
        (CanonicalForm("L2", {"a_23_14": sc(2), "b_23_14": frac(1, 2), "s_14": sc(5)}),
         L41Params(a_12_12=ONE, a_23_14=sc(2), b_23_14=frac(1, 2), s_14=sc(5))),
        (CanonicalForm("L3", {"a_23_23": frac(-2, 3)}),
         L41Params(a_12_12=ONE, a_23_23=frac(-2, 3), s_14=ONE)),
    ]
    for form, point in points:
        assert build_canonical(form) == reference_l41(point), form.id


# -- classification ----------------------------------------------------------

def classify_and_check_transport(p):
    result = classify_L41(p)
    source = build_L41(p)
    moved = change_of_basis(source, result.witness)
    assert moved.same_brackets(build_canonical(result.form))
    return result


def test_case_1_worked_example():
    p = L41Params(a_23_23=sc(2), a_23_14=sc(3), b_23_14=sc(-3),
                  a_12_24=sc(4), a_34_13=sc(5), b_12_14=sc(1), s_14=sc(6))
    result = classify_and_check_transport(p)
    assert result.case == "1"
    assert result.form.id == "L1"
    assert result.form.params == {"a_12_24": sc(2), "b_12_14": frac(1, 2),
                                  "s_14": frac(3, 2)}


def test_case_2_1_worked_example():
    p = L41Params(a_12_12=sc(2), a_23_14=sc(3), b_23_14=sc(5),
                  a_12_24=sc(4), a_34_13=sc(6), s_14=sc(8))
    result = classify_and_check_transport(p)
    assert result.case == "2.1"
    assert result.form.id == "L2"
    assert result.form.params == {"a_23_14": frac(3, 2), "b_23_14": frac(5, 2),
                                  "s_14": sc(2)}


def test_case_2_2_1_worked_example():
    p = L41Params(a_12_12=sc(1), a_23_23=sc(-1), a_12_24=sc(7),
                  a_23_14=sc(2), b_23_14=sc(-2), a_34_13=sc(3),
                  b_34_14=sc(2), s_14=sc(4))
    result = classify_and_check_transport(p)
    assert result.case == "2.2.1"
    assert result.form.id == "L1"
    assert result.form.params == {"a_12_24": sc(-3), "b_12_14": sc(-2),
                                  "s_14": sc(-4)}
    assert "(b_34_14, s_14)" in result.note


def test_case_2_2_2_worked_example():
    p = L41Params(a_12_12=sc(1), a_23_23=sc(2), a_12_24=sc(3),
                  a_23_14=sc(4), b_23_14=sc(-4), a_34_13=sc(5), s_14=sc(5))
    result = classify_and_check_transport(p)
    assert result.case == "2.2.2"
    assert result.form.id == "L3"
    assert result.form.params == {"a_23_23": sc(2)}


def test_lie_members_are_out_of_scope():
    with pytest.raises(ValueError, match="Lie member"):
        classify_L41(L41Params(a_12_12=ONE))
    with pytest.raises(ValueError, match="Lie member"):
        classify_L41(L41Params(a_12_12=sc(1), a_23_23=sc(2)))


def test_sampled_points_cover_all_branches():
    params = sample_l41_params(8, seed=1)
    assert params == sample_l41_params(8, seed=1)
    cases = set()
    for p in params:
        result = classify_and_check_transport(p)
        assert not is_lie(build_L41(p))
        cases.add(result.case)
    assert cases == {"1", "2.1", "2.2.1", "2.2.2"}


# -- canonical targets -------------------------------------------------------

def test_canonical_form_validations():
    with pytest.raises(ValueError, match="unknown canonical form"):
        build_canonical(CanonicalForm("L9", {}))
    with pytest.raises(ValueError, match="unknown parameter"):
        build_canonical(CanonicalForm("L3", {"s_14": ONE}))
    with pytest.raises(ValueError, match="skew otherwise"):
        build_canonical(CanonicalForm("L1", {"a_12_24": ONE}))
    with pytest.raises(ValueError, match="skew otherwise"):
        build_canonical(CanonicalForm("L2", {"a_23_14": ONE, "b_23_14": -ONE}))
    for bad in (ZERO, -ONE):
        with pytest.raises(ValueError, match="outside"):
            build_canonical(CanonicalForm("L3", {"a_23_23": bad}))
    for square in ({}, {"s12": ONE, "s21": -ONE}):
        with pytest.raises(ValueError, match="skew otherwise"):
            build_canonical(CanonicalForm("L42", square))


@pytest.mark.parametrize("form_id", ["L1", "L2", "L42"])
def test_canonical_forms_reject_exactly_their_lie_points(form_id):
    names = {"L1": L1_PARAM_NAMES, "L2": L2_PARAM_NAMES, "L42": L42_PARAM_NAMES}[form_id]
    for values in product((ZERO, ONE, -ONE), repeat=len(names)):
        form = CanonicalForm(form_id, dict(zip(names, values)))
        n, f, point = form.family_point()
        if is_lie(reduced_extension(n, f).to_scalar(point)):
            with pytest.raises(ValueError, match="the table is skew otherwise"):
                form.validate()
        else:
            form.validate()


def test_canonical_tables_are_leibniz_non_lie():
    reps = [
        CanonicalForm("L1", {"b_12_14": ONE}),
        CanonicalForm("L2", {"a_23_14": ONE}),
        CanonicalForm("L3", {"a_23_23": ONE}),
        CanonicalForm("L42", {"s11": ONE}),
    ]
    for form in reps:
        t = build_canonical(form)
        assert is_leibniz(t), form.id
        assert not is_lie(t), form.id


def test_two_generator_table():
    t = build_canonical(CanonicalForm("L42", {"s11": ONE}))
    assert t.dim == 8
    assert t.labels[-2:] == ("X1", "X2")
    m1 = structure_matrices(t, 4, 1)
    m2 = structure_matrices(t, 4, 2)
    assert diagonal_vector(m1) == [ONE, ZERO, -ONE]
    assert diagonal_vector(m2) == [ZERO, ONE, -ONE]
    assert nil_independent_count([diagonal_vector(m1),
                                  diagonal_vector(m2)]) == 2
    assert verify_corner_annihilation(t, 4, 2)


def test_two_generator_invariant_is_only_necessary():
    # a nonzero square table can still be skew overall; that point is no L42
    form = CanonicalForm("L42", {"s12": ONE, "s21": -ONE})
    n, f, point = form.family_point()
    assert is_lie(reduced_extension(n, f).to_scalar(point))
    with pytest.raises(ValueError, match=r"L42 requires \(s11, s12 \+ s21, s22\)"):
        build_canonical(form)


def test_series_signatures_frozen():
    sigs = {
        "L1": ((7, 5), (7, 5, 2, 0)),
        "L2": ((7, 5), (7, 5, 1, 0)),
        "L3": ((7, 6), (7, 6, 3, 0)),
        "L42": ((8, 6), (8, 6, 3, 0)),
    }
    reps = {
        "L1": CanonicalForm("L1", {"b_12_14": ONE}),
        "L2": CanonicalForm("L2", {"a_23_14": ONE}),
        "L3": CanonicalForm("L3", {"a_23_23": ONE}),
        "L42": CanonicalForm("L42", {"s11": ONE}),
    }
    for fid, form in reps.items():
        assert series_signature(build_canonical(form)) == sigs[fid], fid


def test_canonical_forms_pairwise_distinct():
    tables = {
        "L1": build_canonical(CanonicalForm("L1", {"b_12_14": ONE})),
        "L2": build_canonical(CanonicalForm("L2", {"a_23_14": ONE})),
        "L3": build_canonical(CanonicalForm("L3", {"a_23_23": ONE})),
    }
    ids = list(tables)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            assert distinguish(tables[a], tables[b]) == "distinct", (a, b)
    assert distinguish(tables["L1"], tables["L1"]) == "inconclusive"
    l42 = build_canonical(CanonicalForm("L42", {"s11": ONE}))
    with pytest.raises(ValueError, match="equal dimension"):
        distinguish(tables["L1"], l42)
