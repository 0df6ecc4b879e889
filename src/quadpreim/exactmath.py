"""Exact arithmetic foundation: integer and rational square roots, dense
univariate polynomials over Q, int coefficient lists, resultants and the
elimination of c, and quotient-ring (number field) arithmetic.

Everything here is immutable and pure; values can be shared freely between
threads.  Rationals are ``fractions.Fraction`` (already stored in lowest
terms with a positive denominator), aliased as ``Rat``.  Resultants and the
division polynomials of `elliptic` run on int coefficient lists, from the
constant term up.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Union

Rat = Fraction

RatLike = Union[Fraction, int]
Pair = tuple[int, int]          # a rational as (n, d) with d > 0


# ---------------------------------------------------------------------------
# square roots
# ---------------------------------------------------------------------------

def int_sqrt(n: int) -> Optional[int]:
    """Exact integer square root: the r >= 0 with r*r == n, or None.

    Negative input is a contract violation and raises ValueError.
    """
    if n < 0:
        raise ValueError("int_sqrt: negative input %d" % n)
    r = isqrt(n)
    return r if r * r == n else None


def rat_sqrt(q: RatLike) -> Optional[Fraction]:
    """The nonnegative rational square root of q, or None.

    A rational in lowest terms is a square iff its numerator and denominator
    are both perfect squares.  Negative q yields None (not an error).
    """
    q = Fraction(q)
    if q < 0:
        return None
    rn = int_sqrt(q.numerator)
    if rn is None:
        return None
    rd = int_sqrt(q.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


# ---------------------------------------------------------------------------
# rational serialization ("p/q" strings)
# ---------------------------------------------------------------------------

class RatParseError(ValueError):
    """Malformed rational string; .position points at the offending char."""

    def __init__(self, text: str, position: int, message: str):
        self.text = text
        self.position = position
        super().__init__("invalid rational %r: %s at position %d"
                         % (text, message, position))


def lowest_terms(p: Pair) -> Pair:
    """(n, d) with d > 0 in lowest terms."""
    g = gcd(*p)
    return p[0] // g, p[1] // g


def format_pair(n: int, d: int) -> str:
    """n/d (d > 0, in lowest terms) as "n/d", or "n" when d is 1."""
    return str(n) if d == 1 else "%d/%d" % (n, d)


def format_rat(q: RatLike) -> str:
    q = Fraction(q)
    return format_pair(q.numerator, q.denominator)


def parse_rat(text: str, max_digits: Optional[int] = 4300) -> Fraction:
    """parse_pair as a Fraction."""
    return Fraction(*parse_pair(text, max_digits))


def parse_pair(text: str, max_digits: Optional[int] = 4300) -> Pair:
    """Parse "p/q" (or "p"), ASCII digits each with an optional sign, to
    (n, d) in lowest terms with d > 0, of max_digits digits at most each (str
    to int is quadratic in them; 4,300 is the interpreter's default cap).
    Raises RatParseError with the bad position."""
    s = text.strip()
    if not s:
        raise RatParseError(text, 0, "empty string")
    offset = text.index(s[0])

    def parse_int(part: str, base: int) -> int:
        pos = 1 if part[:1] in ("+", "-") else 0
        if pos >= len(part):
            raise RatParseError(text, base + pos, "expected digits")
        for i, ch in enumerate(part[pos:], start=pos):
            if ch not in "0123456789":
                raise RatParseError(text, base + i, "expected digit, got %r" % ch)
        if max_digits is not None and len(part) - pos > max_digits:
            raise RatParseError(text, base, "too many digits")
        return int(part)

    if "/" in s:
        slash = s.index("/")
        num = parse_int(s[:slash], offset)
        den_part = s[slash + 1:]
        if not den_part:
            raise RatParseError(text, offset + slash + 1, "expected denominator")
        den = parse_int(den_part, offset + slash + 1)
        if den == 0:
            raise RatParseError(text, offset + slash + 1, "zero denominator")
        return lowest_terms((-num, -den) if den < 0 else (num, den))
    return parse_int(s, offset), 1


# ---------------------------------------------------------------------------
# univariate polynomials over Q
# ---------------------------------------------------------------------------

class QPoly:
    """Dense univariate polynomial with Fraction coefficients, lowest degree
    first.  The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "QPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: RatLike) -> "QPoly":
        return cls((c,))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(("QPoly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _as_qpoly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(self[i] + other[i] for i in range(n))

    __radd__ = __add__

    def __neg__(self):
        return QPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _as_qpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_qpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly(c * other for c in self.coeffs)
        if not isinstance(other, QPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, QPoly.one())

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Euclidean division over Q: self = q*other + r, deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.lc()
        if self.degree < d:
            return QPoly.zero(), self
        quot = [Fraction(0)] * (self.degree - d + 1)
        for k in range(self.degree - d, -1, -1):
            coeff = rem[k + d] / lead
            quot[k] = coeff
            if coeff:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= coeff * b
        return QPoly(quot), QPoly(rem[:d])

    def __mod__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "QPoly":
        return QPoly(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def eval(self, x):
        """Horner evaluation.  Works for Fraction arguments and, by duck
        typing, for any ring element supporting + and * with Fractions
        (NFElem, or a QPoly, which composes).
        """
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    # -- display -----------------------------------------------------------

    def format(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = format_rat(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else format_rat(mag) + "*"
                body = head + (var if i == 1 else "%s^%d" % (var, i))
            terms.append(("-" if c < 0 else "+", body))
        sign0, body0 = terms[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in terms[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __repr__(self):
        return "QPoly(%s)" % (self.format(),)


def _power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply, in any ring with `one`."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _as_qpoly(value) -> "QPoly":
    if isinstance(value, QPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return QPoly.constant(value)
    return NotImplemented


# ---------------------------------------------------------------------------
# int coefficient lists
# ---------------------------------------------------------------------------

def _cleared(coeffs: tuple[RatLike, ...]) -> tuple[int, list[int]]:
    """(d, [d q for each q]) for the least common denominator d of the
    rationals."""
    d = lcm(*(q.denominator for q in coeffs))
    return d, [q.numerator * (d // q.denominator) for q in coeffs]


def _horner(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g):
            out[i + j] += c * d
    return out


def _poly_sub(f: list[int], g: list[int]) -> list[int]:
    # its callers (the division polynomials) subtract equal degrees only
    return [c - d for c, d in zip(f, g, strict=True)]


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) a mod b for int coefficient lists with
    deg a >= deg b >= 1, stripped of leading zeros ([] for 0)."""
    db = len(b) - 1
    rem, lead = list(a), b[-1]
    for top in range(len(a) - 1, db - 1, -1):
        q = rem.pop()
        rem = [lead * c for c in rem]
        for j in range(db):
            rem[top - db + j] -= q * b[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _squarefree(f: list[int]) -> list[int]:
    """f / gcd(f, f') for an int coefficient list f of degree >= 1: the same
    roots, each simple.  The gcd comes from the primitive PRS (Cohen,
    Algorithm 3.2.10) and is primitive ([1] or [-1] when f is squarefree),
    so the quotient has int coefficients (Gauss's lemma) and each step of
    the long division is exact."""
    def primitive(g):
        content = gcd(*g)
        return [c // content for c in g]

    a, b = primitive(f), primitive([i * c for i, c in enumerate(f)][1:])
    while len(b) > 1 and (rem := _pseudo_rem(a, b)):
        a, b = b, primitive(rem)
    rem, quotient = list(f), []
    while len(rem) >= len(b):
        q = rem[-1] // b[-1]
        shift = len(rem) - len(b)
        for j, c in enumerate(b):
            rem[shift + j] -= q * c
        rem.pop()
        quotient.append(q)
    return quotient[::-1]


def _int_resultant(a: list[int], b: list[int]) -> int:
    """Resultant of two int coefficient lists with nonzero leading terms (a
    constant may be [0]), by the subresultant polynomial remainder sequence
    (Cohen, Algorithm 3.3.7): every division by g h^delta is exact, so the
    coefficients stay integers no larger than the subresultants."""
    if len(a) == 1:
        return a[0] ** (len(b) - 1)
    if len(a) < len(b):
        # Res(a, b) = (-1)^(deg a deg b) Res(b, a)
        return (-1) ** ((len(a) - 1) * (len(b) - 1)) * _int_resultant(b, a)
    sign = g_coef = h_coef = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        rem = _pseudo_rem(a, b)
        if not rem:
            return 0
        div = g_coef * h_coef ** delta
        a, b = b, [c // div for c in rem]
        g_coef = a[-1]
        if delta > 0:
            h_coef = g_coef ** delta // h_coef ** (delta - 1)
    return sign * (b[0] ** (len(a) - 1) // h_coef ** (len(a) - 2))


def eliminate_c(f: QPoly, g: QPoly) -> QPoly:
    """Res_c(f(c), a - g(c)) for polynomials f and g in c, as a polynomial in
    a, normalized to integer coefficients with content 1 and a positive
    leading coefficient.

    Both leading c-coefficients are constants, so specializing a commutes
    with the resultant, and the result has degree m = deg f.  With the
    denominators cleared (d for g), it is a multiple of the p with integer
    values p(k) = Res(d' f, d k - d g) at k = 0, 1, ..., m, and m! p is the
    sum over j of (m!/j!) (Delta^j p)(0) a (a - 1) ... (a - j + 1).
    """
    m = f.degree
    if m < 1:
        raise ValueError("eliminate_c requires positive degree in c")
    _, fs = _cleared(f.coeffs)
    d, gs = _cleared(g.coeffs or (0,))
    tail = [-c for c in gs[1:]]
    row = [_int_resultant(fs, [d * k - gs[0]] + tail) for k in range(m + 1)]
    diffs = []
    while row:
        diffs.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    # Horner in the Newton basis: acc <- acc (a - j) + (m!/j!) Delta^j p(0)
    acc, scale = [diffs[m]], 1
    for j in range(m - 1, -1, -1):
        scale *= j + 1
        acc = _poly_mul(acc, [-j, 1])
        acc[0] += scale * diffs[j]
    content = gcd(*acc)
    if acc[-1] < 0:
        content = -content
    return QPoly([c // content for c in acc])


# ---------------------------------------------------------------------------
# quotient-ring (number field) arithmetic
# ---------------------------------------------------------------------------

class NFElem:
    """Element of Q[x]/(modulus): a representative of degree < deg(modulus).

    Towers like Q(alpha, beta) are flattened to a single quotient by the
    minimal polynomial of a primitive element before use.
    """

    __slots__ = ("modulus", "rep")

    def __init__(self, modulus: QPoly, rep: QPoly):
        if modulus.degree < 1:
            raise ValueError("modulus must be nonconstant")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "rep", rep % modulus)

    def __setattr__(self, name, value):
        raise AttributeError("NFElem is immutable")

    def _coerce(self, other) -> "NFElem":
        if isinstance(other, NFElem):
            if other.modulus != self.modulus:
                raise ValueError("NFElem modulus mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return NFElem(self.modulus, QPoly.constant(other))
        if isinstance(other, QPoly):
            return NFElem(self.modulus, other)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return self.rep == coerced.rep

    def __hash__(self):
        return hash(("NFElem", self.modulus, self.rep))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return NFElem(self.modulus, self.rep + other.rep)

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.modulus, -self.rep)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return NFElem(self.modulus, self.rep - other.rep)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return NFElem(self.modulus, self.rep * other.rep)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "NFElem":
        if n < 0:
            raise ValueError("negative power in a quotient ring")
        return _power(self, n, NFElem(self.modulus, QPoly.one()))

    def __repr__(self):
        return "NFElem(%s mod %s)" % (self.rep.format(), self.modulus.format())
