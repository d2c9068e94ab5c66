"""Field arithmetic in Q(i) and sparse polynomial behavior."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from leibniz_lab.scalars import I, ONE, ZERO, Poly, Scalar, scalar


def frac(num, den=1):
    return Fraction(num, den)


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)
scalars = st.builds(Scalar, small_fractions, small_fractions)


# -- Scalar ------------------------------------------------------------------

def test_text_round_trip_exact():
    cases = [
        ("0", Scalar(0)),
        ("1", Scalar(1)),
        ("-7/3", Scalar(frac(-7, 3))),
        ("i", Scalar(0, 1)),
        ("-i", Scalar(0, -1)),
        ("2*i", Scalar(0, 2)),
        ("3/2-1/5*i", Scalar(frac(3, 2), frac(-1, 5))),
        ("-1+i", Scalar(-1, 1)),
        ("1/2+3/4*i", Scalar(frac(1, 2), frac(3, 4))),
    ]
    for text, value in cases:
        assert Scalar.parse(text) == value
        assert Scalar.parse(str(value)) == value


def test_parse_rejects_garbage():
    for bad in ("", "x", "1+", "i*2", "1//2", "2i", "1 + 2",
                "1/0", "2/0*i", "1+3/0*i", "\u0663", "\u0661/\u0662", "1+\u0662*i", 3,
                "1 2", "1/2 3", "1+2 3*i", "2 i"):
        with pytest.raises(ValueError):
            Scalar.parse(bad)


def test_parse_tolerates_spacing():
    assert Scalar.parse(" 3/2 - 1/5*i ") == Scalar(frac(3, 2), frac(-1, 5))
    assert Scalar.parse("- 3 / 2 + 1 / 5 * i") == Scalar(frac(-3, 2), frac(1, 5))


def test_str_omits_unit_denominators():
    assert str(Scalar(2)) == "2"
    assert str(Scalar(0, 1)) == "i"
    assert str(Scalar(0, -1)) == "-i"
    assert str(Scalar(1, 1)) == "1+i"
    assert str(Scalar(frac(-3, 2))) == "-3/2"


def test_i_squared():
    assert I * I == -ONE


def test_inverse_and_division():
    z = Scalar(frac(3, 2), frac(-1, 5))
    assert z * z.inverse() == ONE
    assert (z / z) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_scalar_coercion():
    assert scalar(3) == Scalar(3)
    assert scalar(frac(1, 2)) == Scalar(frac(1, 2))
    assert scalar("i") == I
    assert scalar(I) is I


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars)
def test_inverse_is_two_sided(a):
    if not a.is_zero():
        assert a.inverse() * a == ONE
        assert a * a.inverse() == ONE


@given(scalars)
def test_conjugate_norm_is_rational(a):
    n = a * a.conjugate()
    assert n.im == 0
    assert (n.re >= 0)


# -- the int normal form, against a Fraction-pair oracle ----------------------

# Parts with small, shared and large denominators, so sums meet equal,
# coprime and partly shared denominators alike.
parts = st.one_of(st.integers(-60, 60).map(Fraction),
                  st.fractions(min_value=-40, max_value=40, max_denominator=12),
                  st.fractions(max_denominator=10 ** 12))
pairs = st.tuples(parts, parts)


def pair_mul(p, q):
    (a, b), (c, e) = p, q
    return (a * c - b * e, a * e + b * c)


def pair_inverse(p):
    a, b = p
    n = a * a + b * b
    return (a / n, -b / n)


def assert_normal(s, want):
    """s is in normal form and holds the Fraction pair `want`."""
    assert s.d > 0
    assert gcd(s.x, s.y, s.d) == 1
    assert (Fraction(s.x, s.d), Fraction(s.y, s.d)) == want
    assert (s.re, s.im) == want


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(p, q):
    s, t = Scalar(*p), Scalar(*q)
    assert_normal(s, p)
    assert_normal(s + t, (p[0] + q[0], p[1] + q[1]))
    assert_normal(s - t, (p[0] - q[0], p[1] - q[1]))
    assert_normal(-s, (-p[0], -p[1]))
    assert_normal(s * t, pair_mul(p, q))
    assert_normal(s.conjugate(), (p[0], -p[1]))
    if q == (0, 0):
        with pytest.raises(ZeroDivisionError):
            t.inverse()
        with pytest.raises(ZeroDivisionError):
            s / t
    else:
        assert_normal(t.inverse(), pair_inverse(q))
        assert_normal(s / t, pair_mul(p, pair_inverse(q)))


@given(pairs, pairs)
def test_hash_and_equality_follow_the_fraction_pair(p, q):
    s, t = Scalar(*p), Scalar(*q)
    assert (s == t) == (p == q)
    assert hash(s) == hash(p)
    assert s.is_zero() == (p == (0, 0))
    assert s != p


@given(pairs)
def test_text_round_trip_of_any_scalar(p):
    s = Scalar(*p)
    assert Scalar.parse(str(s)) == s


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(1, 10 ** 6))
def test_from_ints_normalizes(x, y, d):
    assert_normal(Scalar.from_ints(x, y, d), (Fraction(x, d), Fraction(y, d)))


# -- Poly --------------------------------------------------------------------

def test_poly_expansion_oracle():
    # (x + 2y)(x - y) = x^2 + xy - 2y^2
    x, y = Poly.var("x"), Poly.var("y")
    p = (x + y.scale(Scalar(2))) * (x - y)
    assert p.coefficient((("x", 2),)) == ONE
    assert p.coefficient((("x", 1), ("y", 1))) == ONE
    assert p.coefficient((("y", 2),)) == Scalar(-2)
    assert p.degree() == 2


def test_poly_zero_coefficients_dropped():
    x = Poly.var("x")
    assert (x - x).is_zero()
    assert (x - x).terms == {}


def test_poly_evaluate():
    x, y = Poly.var("x"), Poly.var("y")
    p = x * y + Poly.const(3)
    assert p.evaluate({"x": Scalar(2), "y": I}) == Scalar(3, 2)
    with pytest.raises(ValueError):
        p.evaluate({"x": Scalar(2)})


def test_poly_substitute():
    x, y = Poly.var("x"), Poly.var("y")
    p = x * x - y
    q = p.substitute({"x": y + Poly.const(1)})
    # (y+1)^2 - y = y^2 + y + 1
    assert q == y * y + y + Poly.const(1)


def test_homogeneous_split():
    x, y = Poly.var("x"), Poly.var("y")
    p = x * y + x + Poly.const(5)
    assert p.homogeneous_part(2) == x * y
    assert p.max_degree_below(2) == x + Poly.const(5)
    assert p.constant_term() == Scalar(5)


def test_poly_indeterminates():
    x, y = Poly.var("x"), Poly.var("y")
    assert (x * y + x).indeterminates() == {"x", "y"}
    assert Poly.const(7).indeterminates() == set()


def test_monic_normalizes_leading_coefficient():
    x = Poly.var("x")
    p = (x * x).scale(Scalar(3)) + x.scale(Scalar(6))
    m = p.monic()
    lead = max(m.terms, key=lambda mon: (sum(e for _, e in mon), mon))
    assert m.terms[lead] == ONE
    assert p.monic() == p.scale(Scalar(frac(1, 3)))


@given(st.lists(st.tuples(st.sampled_from("xyz"), small_fractions), max_size=5),
       st.lists(st.tuples(st.sampled_from("xyz"), small_fractions), max_size=5))
def test_poly_product_evaluates_like_scalars(terms1, terms2):
    """Evaluation is a ring homomorphism: eval(p*q) = eval(p)*eval(q)."""
    def build(terms):
        p = Poly.zero()
        for name, c in terms:
            p = p + Poly.var(name).scale(Scalar(c))
        return p

    point = {"x": Scalar(2, 1), "y": Scalar(frac(-1, 3)), "z": I}
    p, q = build(terms1), build(terms2)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
