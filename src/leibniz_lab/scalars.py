"""Exact coefficient arithmetic: the field Q(i) and sparse polynomials over it.

Every quantity in this package is either a Gaussian rational or a polynomial
with Gaussian rational coefficients, so all downstream checks are exact and
tolerance-free.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Union


def _fmt_frac(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Scalar:
    """An element of Q(i), both parts held as Fractions in lowest terms."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other: "Scalar") -> "Scalar":
        return _raw(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return _raw(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return _raw(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            # rational case, skip the three extra Fraction products
            return _raw(a * c, b)
        return _raw(a * c - b * d, a * d + b * c)

    def inverse(self) -> "Scalar":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _raw(self.re / n, -self.im / n)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scalar) and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def __str__(self) -> str:
        re_, im = self.re, self.im
        if im == 0:
            return _fmt_frac(re_)
        mag = -im if im < 0 else im
        imtxt = "i" if mag == 1 else f"{_fmt_frac(mag)}*i"
        if re_ == 0:
            return imtxt if im > 0 else "-" + imtxt
        sign = "-" if im < 0 else "+"
        return f"{_fmt_frac(re_)}{sign}{imtxt}"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    # text form: "p/q", "p/q+r/s*i", "p/q-r/s*i"; unit denominators omitted,
    # a lone imaginary unit prints as "i"
    _RE_REAL = re.compile(r"^([+-]?\d+(?:/\d+)?)$", re.ASCII)
    _RE_IMAG = re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)\*)?i$", re.ASCII)
    _RE_BOTH = re.compile(r"^([+-]?\d+(?:/\d+)?)([+-])(?:(\d+(?:/\d+)?)\*)?i$", re.ASCII)

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        if not isinstance(text, str):
            raise ValueError(f"scalar must be given as text, got {text!r}")
        try:
            return cls._parse(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {text!r}") from None

    @classmethod
    def _parse(cls, text: str) -> "Scalar":
        s = text.strip().replace(" ", "")
        m = cls._RE_REAL.match(s)
        if m:
            return cls(Fraction(m.group(1)))
        m = cls._RE_IMAG.match(s)
        if m:
            mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            return cls(0, -mag if m.group(1) == "-" else mag)
        m = cls._RE_BOTH.match(s)
        if m:
            re_ = Fraction(m.group(1))
            mag = Fraction(m.group(3)) if m.group(3) else Fraction(1)
            return cls(re_, -mag if m.group(2) == "-" else mag)
        raise ValueError(f"cannot parse scalar {text!r}")


def _raw(re_: Fraction, im: Fraction) -> Scalar:
    """Build from parts already held as Fractions, skipping coercion."""
    s = Scalar.__new__(Scalar)
    s.re = re_
    s.im = im
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
NEG_ONE = Scalar(-1)
I = Scalar(0, 1)


def scalar(x: Union[int, Fraction, str, Scalar]) -> Scalar:
    """Coerce ints, Fractions and text forms to Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return Scalar.parse(x)
    return Scalar(x)


# A monomial is a tuple of (name, exponent) pairs sorted by name, exponents >= 1.
Monomial = tuple

_EMPTY_MON: Monomial = ()


def _mul_mon(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mon_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mon_str(m: Monomial) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in m)


class Poly:
    """Sparse multivariate polynomial over Q(i).

    Terms map monomials to nonzero Scalars; printing follows graded
    lexicographic order on the indeterminate names.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    t[m] = c
        self.terms = t

    @classmethod
    def const(cls, c: Union[int, Fraction, str, Scalar]) -> "Poly":
        return cls({_EMPTY_MON: scalar(c)})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): ONE})

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((_mon_degree(m) for m in self.terms), default=0)

    def constant_term(self) -> Scalar:
        return self.terms.get(_EMPTY_MON, ZERO)

    def coefficient(self, mon: Monomial) -> Scalar:
        return self.terms.get(mon, ZERO)

    def homogeneous_part(self, k: int) -> "Poly":
        return Poly({m: c for m, c in self.terms.items() if _mon_degree(m) == k})

    def max_degree_below(self, k: int) -> "Poly":
        """Sum of homogeneous parts of degree < k."""
        return Poly({m: c for m, c in self.terms.items() if _mon_degree(m) < k})

    def indeterminates(self) -> set:
        out = set()
        for m in self.terms:
            for name, _ in m:
                out.add(name)
        return out

    def __add__(self, other: "Poly") -> "Poly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        t = dict(self.terms)
        for m, c in other.terms.items():
            cur = t.get(m)
            if cur is None:
                t[m] = c
            else:
                s = cur + c
                if s.is_zero():
                    del t[m]
                else:
                    t[m] = s
        p = Poly.__new__(Poly)
        p.terms = t
        return p

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly.zero()
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mul_mon(m1, m2)
                c = c1 * c2
                cur = t.get(m)
                if cur is None:
                    t[m] = c
                else:
                    s = cur + c
                    if s.is_zero():
                        del t[m]
                    else:
                        t[m] = s
        return Poly(t)

    def scale(self, c: Scalar) -> "Poly":
        if c.is_zero():
            return Poly.zero()
        p = Poly.__new__(Poly)
        p.terms = {m: cc * c for m, cc in self.terms.items()}
        return p

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Scalar:
        """Evaluate at a point; every indeterminate must be bound."""
        total = ZERO
        for m, c in self.terms.items():
            val = None
            for name, e in m:
                if name not in assignment:
                    raise ValueError(f"{name} unbound")
                v = assignment[name]
                for _ in range(e):
                    val = v if val is None else val * v
            # a coefficient of 1 or -1 costs no multiply, a first term no add
            if val is None:
                val = c
            elif c is not ONE:
                val = -val if c == NEG_ONE else c * val
            total = val if total is ZERO else total + val
        return total

    def substitute(self, sub: Mapping[str, "Poly"]) -> "Poly":
        """Replace named indeterminates by polynomials, leaving others alone."""
        if not any(name in sub for m in self.terms for name, _ in m):
            return self
        out = Poly.zero()
        for m, c in self.terms.items():
            term = Poly.const(c)
            for name, e in m:
                factor = sub.get(name)
                if factor is None:
                    factor = Poly.var(name)
                for _ in range(e):
                    term = term * factor
            out = out + term
        return out

    def sort_key(self):
        """Deterministic key: graded-lex leading monomial then full term list."""
        items = sorted(self.terms.items(), key=lambda mc: (-_mon_degree(mc[0]), mc[0]))
        return tuple((m, str(c)) for m, c in items)

    def monic(self) -> "Poly":
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.terms:
            return self
        lead = min(self.terms, key=lambda m: (-_mon_degree(m), m))
        return self.scale(self.terms[lead].inverse())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted((m, str(c)) for m, c in self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda mc: (-_mon_degree(mc[0]), mc[0]))
        parts = []
        for m, c in items:
            if not m:
                parts.append(str(c))
                continue
            if c == ONE:
                parts.append(_mon_str(m))
            elif c == NEG_ONE:
                parts.append("-" + _mon_str(m))
            elif c.im != 0:
                parts.append(f"({c})*{_mon_str(m)}")
            else:
                parts.append(f"{c}*{_mon_str(m)}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


POLY_ZERO = Poly.zero()
POLY_ONE = Poly.const(1)
