"""End-to-end acceptance: the twelve exact checks the package must pass.

Each test clears the library's memo caches before timing so the stated
runtime bounds are measured cold, not against warm lookups.
"""

import importlib
import inspect
import pkgutil
import random
import time
from fractions import Fraction

import pytest

import leibniz_lab
from leibniz_lab.algebra import (BasisChange, change_of_basis,
                                 derivation_algebra, derived_series,
                                 is_leibniz, is_lie, lower_central_series,
                                 series_signature)
from leibniz_lab.classify import (CanonicalForm, build_canonical, build_L41,
                                  classify_L41, distinguish, sample_l41_params)
from leibniz_lab.extensions import (_tracefree_substitution, build_extension,
                                    derive_relations, expected_substitution,
                                    generic_extension, maximal_extension_spec,
                                    restriction_factors, sample_extension_specs,
                                    verify_corner_annihilation,
                                    verify_max_extension_is_lie)
from leibniz_lab.linalg import Matrix
from leibniz_lab.scalars import ONE, ZERO, Scalar
from leibniz_lab.symsolve import equation_rref, random_kernel_vector
from leibniz_lab.triangular import (check_structure_shape, count_offdiagonal,
                                    diagonal_vector, nil_independent_count,
                                    structure_matrices, triangular)


# by import_module: the package rebinds the name `triangular` to the function
CACHED_MODULES = tuple(importlib.import_module(f"leibniz_lab.{name}")
                       for name in ("triangular", "extensions"))


def clear_caches():
    for mod in CACHED_MODULES:
        for obj in vars(mod).values():
            if callable(obj) and hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_clear_caches_reaches_every_memo_cache():
    """The bounds below are measured cold only if no cache hides elsewhere."""
    homes = {mod.__name__ for mod in CACHED_MODULES}
    stray = []
    for info in pkgutil.iter_modules(leibniz_lab.__path__):
        mod = importlib.import_module(f"leibniz_lab.{info.name}")
        for name, obj in vars(mod).items():
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for fn in (obj, *members):
                if hasattr(fn, "cache_clear") and fn.__module__ not in homes:
                    stray.append(f"{info.name}.{name}")
    assert not stray


def assert_within(t0, bound):
    """A timed check that reports its elapsed time against the bound."""
    elapsed = time.monotonic() - t0
    assert elapsed < bound, f"took {elapsed:.2f} s against a bound of {bound} s"


def sampled_batch(n, count, seed):
    """count seeded members at size n, cycling the generator rank."""
    ranks = list(range(1, n))
    per = {f: 0 for f in ranks}
    for k in range(count):
        per[ranks[k % len(ranks)]] += 1
    out = []
    for f, cnt in per.items():
        out.extend(sample_extension_specs(n, f, cnt, seed=seed + f))
    return out


def test_criterion_01_triangular_family():
    clear_caches()
    t0 = time.monotonic()
    for n in range(3, 7):
        assert is_lie(triangular(n)), n
    t4 = triangular(4)
    assert [s.dim for s in lower_central_series(t4)] == [6, 3, 1, 0]
    assert [s.dim for s in derived_series(t4)] == [6, 3, 0]
    assert_within(t0, 1.0)


def test_criterion_02_structure_shape_of_sampled_extensions():
    clear_caches()
    t0 = time.monotonic()
    for n in (4, 5):
        specs = sampled_batch(n, 200, seed=100 * n)
        assert len(specs) == 200
        for spec in specs:
            table = build_extension(spec, verify=False)
            for alpha in range(1, spec.f + 1):
                report = check_structure_shape(structure_matrices(table, n, alpha))
                assert report.passed, (n, spec.f, alpha, report.violations)
                assert report.diagonal_sums_ok
    assert_within(t0, 5.0)


def test_criterion_03_forced_linear_relations():
    clear_caches()
    for n in (3, 4):
        t0 = time.monotonic()
        for f in (1, 2):
            report = derive_relations(n, f)
            assert report.linear_matches_expected, (n, f)
            assert report.unexplained_linear == ()
            assert report.missing_linear == ()
            assert report.unexplained_residual == ()
        if n == 4:
            assert_within(t0, 60.0)


def test_criterion_04_quadratic_restrictions_close_the_family():
    report = derive_relations(4, 1)
    assert report.tracefree_covered
    assert report.extra_quadratics == ()
    assert len(report.stated_products) == 3
    assert report.witness is None
    assert report.sampling_ok
    # seeded points of the stated products' zero set, on the zero-trace slice
    # of the family the linear relations leave, all give Leibniz tables
    flat = _tracefree_substitution(4, 1)
    family = generic_extension(4, 1).substitute(expected_substitution(4, 1)).substitute(flat)
    names = sorted(set().union(*(p.indeterminates() for row in family.c.values()
                                 for p in row.values())))
    factors = [(weight.substitute(flat), form) for weight, form in restriction_factors(4, 1)]
    for seed in range(20):
        rng = random.Random(seed)
        chosen = [pair[rng.choice((0, 1))] for pair in factors]
        point = dict(zip(names, random_kernel_vector(equation_rref(chosen, names), rng)))
        assert all(w.evaluate(point).is_zero() or c.evaluate(point).is_zero()
                   for w, c in factors)
        assert is_leibniz(family.to_scalar(point)), seed


def test_criterion_05_corner_annihilation_on_non_lie_members():
    for n in (4, 5):
        for f in range(1, n - 1):
            specs = sample_extension_specs(n, f, 10, seed=5 * n + f,
                                           branch="nonlie")
            for spec in specs:
                table = build_extension(spec, verify=False)
                assert not is_lie(table)
                assert verify_corner_annihilation(table, n, f)


def test_criterion_06_full_rank_extensions_are_lie():
    clear_caches()
    check4 = verify_max_extension_is_lie(4, samples=100)
    assert check4.ok and check4.f == 3
    t0 = time.monotonic()
    check5 = verify_max_extension_is_lie(5, samples=100)
    assert_within(t0, 120.0)
    assert check5.ok and check5.f == 4
    for chk in (check4, check5):
        assert chk.skew_relations_forced
        assert chk.all_samples_lie
        assert chk.missing_relations == ()


def test_criterion_07_rank_bound_and_maximality():
    for n in (4, 5):
        for spec in sampled_batch(n, 24, seed=7 * n):
            table = build_extension(spec, verify=False)
            diags = [diagonal_vector(structure_matrices(table, n, al))
                     for al in range(1, spec.f + 1)]
            assert nil_independent_count(diags) <= n - 1
        top = build_extension(maximal_extension_spec(n), verify=False)
        diags = [diagonal_vector(structure_matrices(top, n, al))
                 for al in range(1, n)]
        assert nil_independent_count(diags) == n - 1


def test_criterion_08_classification_round_trip():
    clear_caches()
    t0 = time.monotonic()
    params = sample_l41_params(200, seed=8)
    assert len(params) == 200
    cases = set()
    for p in params:
        source = build_L41(p)
        assert not is_lie(source)
        result = classify_L41(p)
        moved = change_of_basis(source, result.witness)
        assert moved.same_brackets(build_canonical(result.form))
        cases.add(result.case)
    assert cases == {"1", "2.1", "2.2.1", "2.2.2"}
    reps = [build_canonical(CanonicalForm("L1", {"b_12_14": ONE})),
            build_canonical(CanonicalForm("L2", {"a_23_14": ONE})),
            build_canonical(CanonicalForm("L3", {"a_23_23": ONE}))]
    for i in range(3):
        for j in range(i + 1, 3):
            assert distinguish(reps[i], reps[j]) == "distinct"
    assert_within(t0, 10.0)


def test_criterion_09_two_generator_canonical_table():
    table = build_canonical(CanonicalForm("L42", {"s11": ONE}))
    assert is_leibniz(table)
    assert not is_lie(table)
    d1 = diagonal_vector(structure_matrices(table, 4, 1))
    d2 = diagonal_vector(structure_matrices(table, 4, 2))
    assert d1 == [ONE, ZERO, -ONE]
    assert d2 == [ZERO, ONE, -ONE]
    assert nil_independent_count([d1, d2]) == 2
    assert verify_corner_annihilation(table, 4, 2)


def test_criterion_10_offdiagonal_counts_at_rank_one():
    for n in (4, 5):
        for spec in sample_extension_specs(n, 1, 30, seed=10 * n):
            table = build_extension(spec, verify=False)
            m = structure_matrices(table, n, 1)
            assert count_offdiagonal(m.a) <= n - 1
            assert count_offdiagonal(m.b) <= n + 1


def test_criterion_11_derivation_algebra_performance():
    clear_caches()
    t0 = time.monotonic()
    assert derivation_algebra(triangular(6)).dim == 24
    assert_within(t0, 5.0)
    t0 = time.monotonic()
    assert derivation_algebra(triangular(8)).dim == 41
    assert_within(t0, 60.0)


def random_change(dim, rng):
    while True:
        rows = [[Scalar(Fraction(rng.randint(-3, 3))) for _ in range(dim)]
                for _ in range(dim)]
        try:
            return BasisChange(Matrix(rows, ncols=dim))
        except ValueError:
            continue


def test_criterion_12_transport_invariance():
    rng = random.Random(12)
    pool = [triangular(4), triangular(5)]
    for spec in sampled_batch(4, 6, seed=12):
        pool.append(build_extension(spec, verify=False))
    pool.append(build_canonical(CanonicalForm("L1", {"b_12_14": ONE})))
    pool.append(build_canonical(CanonicalForm("L3", {"a_23_23": ONE})))
    pool.append(build_canonical(CanonicalForm("L42", {"s11": ONE})))
    for k in range(100):
        table = pool[k % len(pool)]
        moved = change_of_basis(table, random_change(table.dim, rng))
        assert is_leibniz(moved) == is_leibniz(table)
        assert is_lie(moved) == is_lie(table)
        assert series_signature(moved) == series_signature(table)
