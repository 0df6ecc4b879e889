"""Exact arithmetic foundation: integer and rational square roots, dense
univariate polynomials over Q, resultants and the elimination of c, and
quotient-ring (number field) arithmetic.

Everything here is immutable and pure; values can be shared freely between
threads.  Rationals are ``fractions.Fraction`` throughout (already stored in
lowest terms with a positive denominator), aliased as ``Rat``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence, Union

Rat = Fraction

RatLike = Union[Fraction, int]


# ---------------------------------------------------------------------------
# square roots and heights
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


def height(q: RatLike) -> int:
    """Multiplicative height of a rational: max(|numerator|, denominator)."""
    q = Fraction(q)
    return max(abs(q.numerator), q.denominator)


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


def format_rat(q: RatLike) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def parse_rat(text: str) -> Fraction:
    """Parse "p/q" (or "p").  Raises RatParseError with the bad position."""
    s = text.strip()
    if not s:
        raise RatParseError(text, 0, "empty string")
    offset = text.index(s[0])

    def parse_int(part: str, base: int) -> int:
        chunk = part
        pos = 0
        if chunk[:1] in ("+", "-"):
            pos = 1
        if pos >= len(chunk):
            raise RatParseError(text, base + pos, "expected digits")
        for i, ch in enumerate(chunk[pos:], start=pos):
            if not ch.isdigit():
                raise RatParseError(text, base + i, "expected digit, got %r" % ch)
        return int(chunk)

    if "/" in s:
        slash = s.index("/")
        num = parse_int(s[:slash], offset)
        den_part = s[slash + 1:]
        if not den_part:
            raise RatParseError(text, offset + slash + 1, "expected denominator")
        den = parse_int(den_part, offset + slash + 1)
        if den == 0:
            raise RatParseError(text, offset + slash + 1, "zero denominator")
        return Fraction(num, den)
    return Fraction(parse_int(s, offset))


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

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return QPoly(c / scalar for c in self.coeffs)
        return NotImplemented

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

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        return self / self.lc()

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

    # -- normalization -----------------------------------------------------

    def content_den_cleared(self) -> "QPoly":
        """Integer-primitive normalization: clear denominators, divide by the
        integer content, force a positive leading coefficient.  Fixes the
        representative of a polynomial known only up to a nonzero scalar.
        """
        if self.is_zero():
            return self
        den_lcm = 1
        for c in self.coeffs:
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        ints = [int(c * den_lcm) for c in self.coeffs]
        g = 0
        for v in ints:
            g = gcd(g, v)
        ints = [v // g for v in ints]
        if ints[-1] < 0:
            ints = [-v for v in ints]
        return QPoly(ints)

    # -- display -----------------------------------------------------------

    def format(self, var: str = "x", descending: bool = True) -> str:
        if self.is_zero():
            return "0"
        terms = []
        indices = range(len(self.coeffs))
        if descending:
            indices = reversed(indices)
        for i in indices:
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
# resultants
# ---------------------------------------------------------------------------

def resultant(f: QPoly, g: QPoly) -> Fraction:
    """Resultant of two univariate polynomials over Q.

    Computed with the subresultant polynomial remainder sequence (Cohen,
    Algorithm 3.3.7) rather than a Sylvester determinant, which keeps
    intermediate coefficients under control for the degree-7/8 eliminations
    this package performs.  Zero iff f and g share a root over the closure.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("resultant of two zero polynomials is undefined")
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if g.degree == 0:
        return g.coeffs[0] ** f.degree

    sign = 1
    a, b = f, g
    if a.degree < b.degree:
        if (a.degree & 1) and (b.degree & 1):
            sign = -sign
        a, b = b, a

    g_coef = Fraction(1)
    h_coef = Fraction(1)
    while True:
        delta = a.degree - b.degree
        if (a.degree & 1) and (b.degree & 1):
            sign = -sign
        # pseudo-remainder: lc(b)^(delta+1) * a  mod  b
        rem = (b.lc() ** (delta + 1) * a) % b
        a, b = b, rem / (g_coef * h_coef ** delta)
        if b.is_zero():
            return Fraction(0)
        g_coef = a.lc()
        if delta > 0:
            h_coef = g_coef ** delta / h_coef ** (delta - 1)
        if b.degree == 0:
            break
    res = b.coeffs[0] ** a.degree / h_coef ** (a.degree - 1)
    return sign * res


def eliminate_c(f: QPoly, g: QPoly) -> QPoly:
    """Res_c(f(c), a - g(c)) for polynomials f and g in c, as a polynomial in
    a, normalized to integer coefficients with content 1 and a positive
    leading coefficient.

    Both leading c-coefficients are constants, so specializing a commutes
    with the resultant, and the result has degree at most deg f: it is the
    interpolation of the univariate resultants at a = 0, 1, ..., deg f.
    """
    if f.degree < 1:
        raise ValueError("eliminate_c requires positive degree in c")
    samples = [(Fraction(k), resultant(f, k - g)) for k in range(f.degree + 1)]
    return _lagrange(samples).content_den_cleared()


def _lagrange(samples: Sequence[tuple[Fraction, Fraction]]) -> QPoly:
    """The polynomial of degree < len(samples) through the (x, y) samples;
    each basis polynomial is the product of all (X - x) divided by one."""
    master = QPoly.one()
    for x, _ in samples:
        master = master * QPoly((-x, 1))
    total = QPoly.zero()
    for x, y in samples:
        if y:
            basis = master.divmod(QPoly((-x, 1)))[0]
            total = total + basis * (y / basis.eval(x))
    return total


# ---------------------------------------------------------------------------
# quotient-ring (number field) arithmetic
# ---------------------------------------------------------------------------

class ReducibleModulusError(ArithmeticError):
    """Inversion failed because the modulus is reducible; carries the factor
    discovered by the extended Euclidean algorithm."""

    def __init__(self, factor: QPoly):
        self.factor = factor
        super().__init__("modulus is reducible; discovered factor %r" % (factor,))


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
            return self.inverse() ** (-n)
        return _power(self, n, NFElem(self.modulus, QPoly.one()))

    def inverse(self) -> "NFElem":
        """Inverse by the extended Euclidean algorithm.  If gcd(rep, modulus)
        is nontrivial the modulus is reducible and the gcd is surfaced as the
        discovered factor."""
        if self.rep.is_zero():
            raise ZeroDivisionError("inverse of zero in quotient ring")
        r0, r1 = self.modulus, self.rep
        s0, s1 = QPoly.zero(), QPoly.one()
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree > 0:
            raise ReducibleModulusError(r0.monic())
        return NFElem(self.modulus, s0 / r0.coeffs[0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __repr__(self):
        return "NFElem(%s mod %s)" % (self.rep.format(), self.modulus.format())
