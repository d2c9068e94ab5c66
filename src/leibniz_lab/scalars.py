"""Exact coefficient arithmetic: the field Q(i) and sparse polynomials over it.

Every quantity in this package is either a Gaussian rational or a polynomial
with Gaussian rational coefficients, so all downstream checks are exact and
tolerance-free.  `Record` is the tuple base of the package's result records.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from math import gcd
from operator import itemgetter

TYPE_CHECKING = False  # type checkers take it as True; no need to import `typing`
if TYPE_CHECKING:
    from fractions import Fraction

# "p" or "p/q" with q > 0, the text of most coefficients: read straight into ints
_RE_INT_RATIO = re.compile(r"([+-]?\d+)(?:/(0*[1-9]\d*))?", re.ASCII)
# text form: "p/q", "±r/s*i" or "p/q±r/s*i"; unit denominators omitted, a
# lone imaginary unit is "i", and a real part needs a sign before the "i" part;
# only texts other than "p" and "p/q" reach it, so `re` compiles it on first need
_GAUSSIAN = (r"(?:([+-]?\d+)(?:/(\d+))?)?"
             r"(?:((?(1)[+-]|[+-]?))(?:(\d+)(?:/(\d+))?\*)?(i))?")
_SPACED_OP = r" *([-+*/]) *"
_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


class Scalar:
    """An element (x + y*i)/d of Q(i): ints with d > 0 and gcd(x, y, d) = 1.

    The normal form is unique, so equality compares the three ints.  The
    constructor takes the real and imaginary parts as ints, Fractions, or
    anything else `Fraction` converts (floats, Decimals, text).
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if type(re) is int and type(im) is int:
            self.x, self.y, self.d = re, im, 1
            return
        (p, q), (r, s) = _ratio(re), _ratio(im)
        # parts in lowest terms over d = lcm of their denominators: already normal
        d = q * s // gcd(q, s)
        self.x, self.y, self.d = p * (d // q), r * (d // s), d

    @staticmethod
    def from_ints(x: int, y: int, d: int) -> "Scalar":
        """(x + y*i)/d for ints with d > 0, brought to normal form."""
        return _new(x, y, 1) if d == 1 else _reduced(x, y, d)

    @property
    def re(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.y, self.d)

    def __add__(self, other: "Scalar") -> "Scalar":
        return _sum(self.x, self.y, self.d, other.x, other.y, other.d)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return _sum(self.x, self.y, self.d, -other.x, -other.y, other.d)

    def __neg__(self) -> "Scalar":
        return _new(-self.x, -self.y, self.d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, d1 = self.x, self.y, self.d
        c, e, d2 = other.x, other.y, other.d
        if b or e:
            x, y = a * c - b * e, a * e + b * c
        else:
            x, y = a * c, 0
        if d1 == 1 and d2 == 1:
            return _new(x, y, 1)
        return _reduced(x, y, d1 * d2)

    def inverse(self) -> "Scalar":
        x, y, d = self.x, self.y, self.d
        n = x * x + y * y
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced(d * x, -d * y, n)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Scalar) and self.x == other.x
                and self.y == other.y and self.d == other.d)

    def __hash__(self) -> int:
        # the hash of the (re, im) Fraction pair, which is (x, y)'s when d == 1
        if self.d == 1:
            return hash((self.x, self.y))
        return hash((_ratio_hash(self.x, self.d), _ratio_hash(self.y, self.d)))

    def is_zero(self) -> bool:
        return not self.x and not self.y

    def conjugate(self) -> "Scalar":
        return _new(self.x, -self.y, self.d)

    def __str__(self) -> str:
        x, y, d = self.x, self.y, self.d
        if not y:
            return str(x) if d == 1 else _fmt_ratio(x, d)
        mag = _fmt_ratio(-y if y < 0 else y, d)
        imtxt = "i" if mag == "1" else f"{mag}*i"
        if not x:
            return imtxt if y > 0 else "-" + imtxt
        sign = "-" if y < 0 else "+"
        return f"{_fmt_ratio(x, d)}{sign}{imtxt}"

    def __repr__(self) -> str:
        return f"Scalar({self})"

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
        m = _RE_INT_RATIO.fullmatch(text)
        if m:
            return _reduced(int(m.group(1)), 0, int(m.group(2) or 1))
        # spaces may flank an operator, never split a number
        m = re.fullmatch(_GAUSSIAN, re.sub(_SPACED_OP, r"\1", text.strip()), re.ASCII)
        if not m or not m.group():
            raise ValueError(f"cannot parse scalar {text!r}")
        p, q, sign, r, s, unit = m.groups()
        q, s = int(q or 1), int(s or 1)
        if not q or not s:
            raise ZeroDivisionError
        y = int(r or 1) if unit else 0
        return _reduced(int(p or 0) * s, (-y if sign == "-" else y) * q, q * s)


def _ratio(v) -> tuple:
    """(numerator, denominator) of a rational part in lowest terms."""
    if type(getattr(v, "numerator", None)) is not int:
        from fractions import Fraction
        v = Fraction(v)
    return v.numerator, v.denominator


def _ratio_hash(n: int, d: int) -> int:
    """An int with the hash of Fraction(n, d), by Python's documented numeric hash."""
    g = gcd(n, d)
    n, d = n // g, d // g
    try:
        h = abs(n) * pow(d, -1, _MODULUS) % _MODULUS
    except ValueError:                  # d is a multiple of the modulus
        h = _HASH_INF
    return h if n >= 0 else -h          # hash() takes -1 to -2, as Fraction's does


def _fmt_ratio(num: int, den: int) -> str:
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return str(num) if den == 1 else f"{num}/{den}"


_object_new = object.__new__


def _new(x: int, y: int, d: int) -> Scalar:
    """Build from ints already in normal form."""
    s = _object_new(Scalar)
    s.x = x
    s.y = y
    s.d = d
    return s


def _reduced(x: int, y: int, d: int) -> Scalar:
    """(x + y*i)/d for d > 0, brought to normal form."""
    g = gcd(x, y, d)
    if g != 1:
        x //= g
        y //= g
        d //= g
    return _new(x, y, d)


def _sum(x1: int, y1: int, d1: int, x2: int, y2: int, d2: int) -> Scalar:
    if d1 == d2:
        if d1 == 1:
            return _new(x1 + x2, y1 + y2, 1)
        return _reduced(x1 + x2, y1 + y2, d1)
    # over coprime denominators (one of them 1, say) the sum is already normal
    g = gcd(d1, d2)
    if g == 1:
        return _new(x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2)
    e1, e2 = d1 // g, d2 // g
    return _reduced(x1 * e2 + x2 * e1, y1 * e2 + y2 * e1, e1 * d2)


ZERO = Scalar(0)
ONE = Scalar(1)
NEG_ONE = Scalar(-1)
I = Scalar(0, 1)


def scalar(x: int | Fraction | str | Scalar) -> Scalar:
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
    if len(m1) == 1 and len(m2) == 1:          # one name each, the common case
        (a, e), (b, f) = m1[0], m2[0]
        return ((a, e + f),) if a == b else (m1[0], m2[0]) if a < b else (m2[0], m1[0])
    exps: dict = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _add_terms(t: dict, other: Mapping) -> dict:
    """t += other in place, a term deleted where it cancels; returns t."""
    for m, c in other.items():
        cur = t.get(m)
        if cur is None:
            t[m] = c
        else:
            s = cur + c
            if s.is_zero():
                del t[m]
            else:
                t[m] = s
    return t


def _mul_terms(t1: Mapping, t2: Mapping) -> dict:
    """The terms of a product, in the order of the pairs that first make
    them: added row by row, as one row's products m1 * m2 are distinct."""
    t: dict = {}
    for m1, c1 in t1.items():
        _add_terms(t, {_mul_mon(m1, m2): c1 * c2 for m2, c2 in t2.items()})
    return t


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
    def const(cls, c: int | Fraction | str | Scalar) -> "Poly":
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
        return _poly(_add_terms(dict(self.terms), other.terms))

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        return _poly(_mul_terms(self.terms, other.terms))

    def scale(self, c: Scalar) -> "Poly":
        if c.is_zero():
            return Poly.zero()
        return _poly({m: cc * c for m, cc in self.terms.items()})

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
        """Replace named indeterminates by polynomials, leaving others alone.

        Each term is expanded factor by factor and added into one dict, in
        the order and with the cancellations of Poly arithmetic."""
        if not any(name in sub for m in self.terms for name, _ in m):
            return self
        out: dict = {}
        for m, c in self.terms.items():
            term = {_EMPTY_MON: c}
            for name, e in m:
                factor = sub[name].terms if name in sub else {((name, 1),): ONE}
                for _ in range(e):
                    term = _mul_terms(term, factor)
            _add_terms(out, term)
        return _poly(out)

    def sort_key(self):
        """Deterministic key: graded-lex leading monomial then full term list."""
        items = sorted(self.terms.items(), key=lambda mc: (-_mon_degree(mc[0]), mc[0]))
        return tuple((m, str(c)) for m, c in items)

    def monic(self) -> "Poly":
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.terms:
            return self
        lead = self.terms[min(self.terms, key=lambda m: (-_mon_degree(m), m))]
        return self if lead == ONE else self.scale(lead.inverse())

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
            elif c.y:
                parts.append(f"({c})*{_mon_str(m)}")
            else:
                parts.append(f"{c}*{_mon_str(m)}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def _poly(terms: dict) -> Poly:
    """The Poly over terms that hold no zero coefficient, taken as they are."""
    p = Poly.__new__(Poly)
    p.terms = terms
    return p


POLY_ZERO = Poly.zero()
POLY_ONE = Poly.const(1)


class _RecordType(type):  # unlike namedtuple's, it compiles no generated source
    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))  # the names only, never evaluated
        defaults = {k: ns.pop(k) for k in fields if k in ns}
        ns.update((k, property(itemgetter(i), doc=f"Field {i}")) for i, k in enumerate(fields))
        ns.setdefault("__slots__", ())
        if fields:
            ns["_fields"], ns["_field_defaults"] = fields, defaults
        return super().__new__(mcls, name, bases, ns)


class Record(tuple, metaclass=_RecordType):
    """Fields are a subclass's annotated names, in order, with their defaults.
    Equality and hash are the field tuple's; instances have no `__dict__`."""

    _fields, _field_defaults = (), {}

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            named = {**cls._field_defaults, **kwargs}
            try:
                args += tuple(map(named.pop, fields[len(args):]))
            except KeyError as exc:
                raise TypeError(f"{cls.__name__}() missing argument {exc.args[0]!r}") from None
            if len(args) > len(fields) or not named.keys().isdisjoint(kwargs):
                raise TypeError(f"{cls.__name__}() got too many, unknown or repeated arguments")
        return tuple.__new__(cls, args)

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"expected {len(cls._fields)} values, got {len(values)}")
        return cls(*values)  # through a subclass's own checked `__new__`

    def _replace(self, **kwargs):
        result = self._make(map(kwargs.pop, self._fields, self))
        if kwargs:
            raise ValueError(f"got unexpected field names: {list(kwargs)!r}")
        return result

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __getnewargs__(self):  # pickling and copying rebuild through `__new__`
        return tuple(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"
