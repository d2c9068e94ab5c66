"""Field arithmetic in Q(i) and sparse polynomial behavior."""

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from leibniz_lab.scalars import I, ONE, ZERO, Poly, Scalar, _fmt_ratio, scalar


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
@example(6, -4, 1)                  # d == 1 is normal whatever x and y share
def test_from_ints_normalizes(x, y, d):
    assert_normal(Scalar.from_ints(x, y, d), (Fraction(x, d), Fraction(y, d)))


# -- the int fast paths of parse and str ---------------------------------------

digits = st.text("0123456789", min_size=1, max_size=40)


@given(st.sampled_from(("", "+", "-")), digits, st.none() | digits)
@example("-", "0", None)
@example("+", "0", "7")
@example("", "007", "0014")
@example("", "3", "0")
@example("-", "12", "000")
def test_parse_of_int_ratios_matches_the_general_path(sign, num, den):
    """Every text matching [+-]?\\d+(/\\d+)? parses to the Fraction value
    that the general path (reached here through surrounding spaces) gives,
    and a zero denominator keeps its message."""
    text = sign + num + ("" if den is None else "/" + den)
    if den is not None and not int(den):
        for t in (text, f" {text} "):
            with pytest.raises(ValueError) as err:
                Scalar.parse(t)
            assert str(err.value) == f"zero denominator in scalar {t!r}"
        return
    got = Scalar.parse(text)
    assert_normal(got, (Fraction(text), 0))
    assert got == Scalar.parse(f" {text} ") == Scalar(Fraction(text))


@given(st.integers(-10 ** 40, 10 ** 40))
@example(0)
@example(-1)
def test_str_of_integers_matches_the_ratio_format(x):
    assert str(Scalar(x)) == _fmt_ratio(x, 1) == str(Scalar.from_ints(x, 0, 1))


# -- parse, against the Fraction-based parser it replaced ------------------------

_ORACLE_INT_RATIO = re.compile(r"([+-]?\d+)(?:/(0*[1-9]\d*))?", re.ASCII)
_ORACLE_REAL = re.compile(r"^([+-]?\d+(?:/\d+)?)$", re.ASCII)
_ORACLE_IMAG = re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)\*)?i$", re.ASCII)
_ORACLE_BOTH = re.compile(r"^([+-]?\d+(?:/\d+)?)([+-])(?:(\d+(?:/\d+)?)\*)?i$", re.ASCII)
_ORACLE_SPACED_OP = re.compile(r" *([-+*/]) *")


def oracle_parse(text):
    """The (re, im) Fraction pair that the Fraction-based parser read."""
    try:
        return _oracle_parse(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None


def _oracle_parse(text):
    m = _ORACLE_INT_RATIO.fullmatch(text)
    if m:
        return Fraction(int(m.group(1)), int(m.group(2) or 1)), Fraction(0)
    s = _ORACLE_SPACED_OP.sub(r"\1", text.strip())
    m = _ORACLE_REAL.match(s)
    if m:
        return Fraction(m.group(1)), Fraction(0)
    m = _ORACLE_IMAG.match(s)
    if m:
        mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        return Fraction(0), -mag if m.group(1) == "-" else mag
    m = _ORACLE_BOTH.match(s)
    if m:
        mag = Fraction(m.group(3)) if m.group(3) else Fraction(1)
        return Fraction(m.group(1)), -mag if m.group(2) == "-" else mag
    raise ValueError(f"cannot parse scalar {text!r}")


short_digits = st.text("0123456789", min_size=1, max_size=4)
ratios = st.builds(lambda n, d: n if d is None else f"{n}/{d}", short_digits,
                   st.none() | short_digits | st.sampled_from(("0", "00")))
signs = st.sampled_from(("", "+", "-"))
# mostly nothing or a space, else a symbol or digit that may break the form
inserts = st.sampled_from(("",) * 12 + (" ",) * 6 + ("\t", "\n", "+", "-", "/", "*", "i",
                                                    "0", "x", "٣", "１", "."))


@st.composite
def scalar_texts(draw):
    """A signed real part, a signed imaginary part, or both; in half of the
    texts, an insert before each character: spaces around operators or inside
    numbers, doubled signs, leading zeros and stray symbols."""
    has_real = draw(st.booleans())
    text = draw(signs) + (draw(ratios) if has_real else "")
    if not has_real or draw(st.booleans()):
        mag = draw(st.none() | ratios)
        text += (draw(signs) if has_real else "") + ("i" if mag is None else mag + "*i")
    if draw(st.booleans()):
        return text
    cuts = draw(st.lists(inserts, min_size=len(text) + 1, max_size=len(text) + 1))
    return "".join(cut + c for cut, c in zip(cuts, text)) + cuts[-1]


@given(st.one_of(scalar_texts(), st.text(max_size=8),
                 st.text("0123456789+-/*i ٣", max_size=10)))
@example("")
@example("i")
@example("-i")
@example(" + i ")
@example("7/0")
@example("-3/00*i")
@example("1/0+0/0*i")
@example("1/2+3/0*i")
@example("007/0014-0003/006*i")
@example("1 / 2 - 3 / 4 * i")
@example("1/ 2 3")
@example("١/٢")
@example("1+２*i")
@example("1\n+i")
@example(" \n-5\t")
def test_parse_matches_the_fraction_parser(text):
    try:
        want = oracle_parse(text)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            Scalar.parse(text)
        assert str(got.value) == str(err)
        return
    assert_normal(Scalar.parse(text), want)


# -- the constructor, re, im and hash, against their Fraction forms ------------

def fraction_parts(re_, im):
    """(x, y, d) as a constructor that converted both parts to Fractions built it."""
    re_, im = Fraction(re_), Fraction(im)
    d = lcm(re_.denominator, im.denominator)
    return re_.numerator * (d // re_.denominator), im.numerator * (d // im.denominator), d


parts_of_any_type = st.one_of(
    st.integers(-10 ** 20, 10 ** 20), st.booleans(), st.fractions(max_denominator=10 ** 12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.decimals(min_value=-10 ** 6, max_value=10 ** 6, allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=50).map(str),
    st.sampled_from(("1.5", "-2e-3", " 7 ", "1_000", "3/6", "-0")))


@given(parts_of_any_type, parts_of_any_type)
@example(True, False)
@example(Decimal("0.25"), 0.5)
def test_constructor_matches_the_fraction_parts(re_, im):
    s = Scalar(re_, im)
    assert (s.x, s.y, s.d) == fraction_parts(re_, im)
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert (s.re, s.im) == (Fraction(re_), Fraction(im))
    assert hash(s) == hash((s.re, s.im))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), Decimal("NaN"), "x", "1/0",
                                 None, [1], Scalar(1)])
def test_constructor_rejects_what_fraction_rejects(bad):
    with pytest.raises(Exception) as want:
        Fraction(bad)
    with pytest.raises(want.type):
        Scalar(bad)
    with pytest.raises(want.type):
        Scalar(0, bad)


MODULUS = sys.hash_info.modulus


@pytest.mark.parametrize("s", [
    Scalar.from_ints(1, 0, MODULUS),              # no inverse mod P: the hash of inf
    Scalar.from_ints(-1, 2, MODULUS),             # and of -inf
    Scalar.from_ints(MODULUS, 1, MODULUS),        # re = 1 over a denominator P
    Scalar.from_ints(-(MODULUS + 2), 0, 2),       # hash -1, which Python makes -2
    Scalar.from_ints(3, -(2 * MODULUS + 2), 2),
    Scalar.from_ints(6, 9, 15)], ids=str)
def test_hash_at_the_edges_of_the_numeric_hash(s):
    assert hash(s) == hash((s.re, s.im)) == hash((Fraction(s.x, s.d), Fraction(s.y, s.d)))


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
    assert m.monic() is m       # already monic: returned as it is
    assert Poly.zero().monic().is_zero()


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


def product_substitute(p, sub):
    """Substitution as a sum of products of Polys, one Poly per factor."""
    out = Poly.zero()
    for m, c in p.terms.items():
        term = Poly.const(c)
        for name, e in m:
            factor = sub.get(name, Poly.var(name))
            for _ in range(e):
                term = term * factor
        out = out + term
    return out


# few names and coefficients, so that products and sums cancel terms
mon_polys = st.dictionaries(
    st.lists(st.sampled_from("xyz"), max_size=3).map(
        lambda names: tuple(sorted((v, names.count(v)) for v in set(names)))),
    st.builds(Scalar, st.sampled_from((1, -1, frac(1, 2))), st.sampled_from((0, 1))),
    max_size=4).map(Poly)


@given(mon_polys, st.dictionaries(st.sampled_from("xyw"), mon_polys, max_size=3))
def test_substitute_keeps_the_terms_and_order_of_poly_products(p, sub):
    got, want = p.substitute(sub), product_substitute(p, sub)
    assert list(got.terms.items()) == list(want.terms.items())
    assert not any(c.is_zero() for c in got.terms.values())


def test_products_drop_the_terms_that_cancel():
    x, y = Poly.var("x"), Poly.var("y")
    assert list(((x + y) * (x - y)).terms.items()) == [((("x", 2),), ONE),
                                                       ((("y", 2),), -ONE)]
