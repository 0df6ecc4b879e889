"""Elliptic curves over Q with exact rational arithmetic: the chord-tangent
group law on long Weierstrass models, point orders bounded by Mazur's theorem,
rational torsion subgroups by exact ell-division closure on an integral short
model, and the specializations of the pre-image elliptic surfaces with their
torsion-family parametrizations.

The division closure runs on Python ints.  Its candidates are the integer roots
of division-polynomial equations with int coefficients (by p-adic lifting), for
a halving sums of exact square roots, and for odd ell and a target of order 2
its sums with the ell-torsion, taken as X of Y^2 = X^3 + a X + b.  Every
multiple of a torsion point is integral (Lutz-Nagell), so it adds points with
an integer slope and stops at the first slope that is not an integer: that
proves infinite order.  Points become `Fraction` points only when they are
pulled back to the source curve.  The integral model takes its scale from a
coprime base of the scaling denominators, split by gcds alone, so no integer is
ever factored into primes; it refuses a singular curve, where 4a^3 + 27b^2 = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import count
from math import gcd, isqrt
from typing import Optional

from .exactmath import QPoly, RatLike, format_rat, int_sqrt, parse_rat
from .exactmath import (_cleared, _horner, _poly_mul, _poly_sub, _pseudo_rem,
                        _squarefree)


class OffCurveError(ValueError):
    """An affine point fed to the group law does not satisfy the curve
    equation; carries the nonzero residue."""

    def __init__(self, point: "ECPoint", residue: Fraction):
        self.point = point
        self.residue = residue
        super().__init__("point %s is not on the curve (residue %s)"
                         % (point, format_rat(residue)))


@dataclass(frozen=True)
class ECPoint:
    """Affine point (x, y) or the point at infinity (x = y = None)."""

    x: Optional[Fraction]
    y: Optional[Fraction]

    @classmethod
    def affine(cls, x: RatLike, y: RatLike) -> "ECPoint":
        return cls(Fraction(x), Fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self):
        if self.is_infinity:
            return "O"
        return "(%s, %s)" % (format_rat(self.x), format_rat(self.y))

    def as_json(self):
        if self.is_infinity:
            return None
        return [format_rat(self.x), format_rat(self.y)]

    @classmethod
    def from_json(cls, data) -> "ECPoint":
        if data is None:
            return INFINITY
        # as_json prints every integer whole, so no digit bound applies
        return cls.affine(parse_rat(data[0], max_digits=None),
                          parse_rat(data[1], max_digits=None))


INFINITY = ECPoint(None, None)


@dataclass(frozen=True)
class WeierstrassCurve:
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
    over Q.  Singular models are representable; the group law refuses them.
    """

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    @classmethod
    def from_coeffs(cls, a1: RatLike, a2: RatLike, a3: RatLike,
                    a4: RatLike, a6: RatLike) -> "WeierstrassCurve":
        return cls(Fraction(a1), Fraction(a2), Fraction(a3),
                   Fraction(a4), Fraction(a6))

    # -- standard invariants -------------------------------------------------

    @property
    def b2(self) -> Fraction:
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self) -> Fraction:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> Fraction:
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self) -> Fraction:
        return (self.a1 * self.a1 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 * self.a3
                - self.a4 * self.a4)

    @property
    def c4(self) -> Fraction:
        b2 = self.b2
        return b2 * b2 - 24 * self.b4

    def discriminant(self) -> Fraction:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def is_singular(self) -> bool:
        return self.discriminant() == 0

    def j_invariant(self) -> Optional[Fraction]:
        disc = self.discriminant()
        if disc == 0:
            return None
        return self.c4 ** 3 / disc

    # -- membership ------------------------------------------------------------

    def equation_residue(self, p: ECPoint) -> Fraction:
        if p.is_infinity:
            return Fraction(0)
        x, y = p.x, p.y
        return (y * y + self.a1 * x * y + self.a3 * y
                - x ** 3 - self.a2 * x * x - self.a4 * x - self.a6)

    def contains(self, p: ECPoint) -> bool:
        return self.equation_residue(p) == 0

    def _require_points(self, *points: ECPoint):
        """Refuse a singular model, where the group law is undefined, and any
        point off the curve."""
        if self.is_singular():
            raise ValueError("group law on a singular model")
        for p in points:
            residue = self.equation_residue(p)
            if residue != 0:
                raise OffCurveError(p, residue)

    # -- group law ---------------------------------------------------------------

    def neg(self, p: ECPoint) -> ECPoint:
        if p.is_infinity:
            return INFINITY
        return ECPoint(p.x, -p.y - self.a1 * p.x - self.a3)

    def add(self, p: ECPoint, q: ECPoint) -> ECPoint:
        self._require_points(p, q)
        return self._add_unchecked(p, q)

    def _add_unchecked(self, p: ECPoint, q: ECPoint) -> ECPoint:
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        x1, y1, x2, y2 = p.x, p.y, q.x, q.y
        if x1 == x2:
            if y2 == -y1 - self.a1 * x1 - self.a3:
                return INFINITY
            denom = 2 * y1 + self.a1 * x1 + self.a3
            slope = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4
                     - self.a1 * y1) / denom
        else:
            slope = (y2 - y1) / (x2 - x1)
        nu = y1 - slope * x1
        x3 = slope * slope + self.a1 * slope - self.a2 - x1 - x2
        y3 = -(slope + self.a1) * x3 - nu - self.a3
        return ECPoint(x3, y3)

    def mul(self, n: int, p: ECPoint) -> ECPoint:
        """[n]P by double-and-add (exact; n may be negative)."""
        self._require_points(p)
        return self._mul_unchecked(n, p)

    def _mul_unchecked(self, n: int, p: ECPoint) -> ECPoint:
        if n < 0:
            n, p = -n, self.neg(p)
        result = INFINITY
        addend = p
        while n:
            if n & 1:
                result = self._add_unchecked(result, addend)
            addend = self._add_unchecked(addend, addend)
            n >>= 1
        return result

    # -- serialization -----------------------------------------------------------

    def as_json(self) -> dict:
        return {
            "a1": format_rat(self.a1), "a2": format_rat(self.a2),
            "a3": format_rat(self.a3), "a4": format_rat(self.a4),
            "a6": format_rat(self.a6),
        }

    @classmethod
    def from_json(cls, data: dict) -> "WeierstrassCurve":
        return cls.from_coeffs(*(parse_rat(data[k], max_digits=None)
                                 for k in ("a1", "a2", "a3", "a4", "a6")))

    def __str__(self):
        lhs = "y^2"
        for coef, mono in ((self.a1, "x*y"), (self.a3, "y")):
            if coef:
                term = QPoly((0, coef)).format(mono)
                lhs += " - " + term[1:] if coef < 0 else " + " + term
        return lhs + " = " + QPoly((self.a6, self.a4, self.a2, 1)).format("x")


def point_order(curve: WeierstrassCurve, p: ECPoint) -> Optional[int]:
    """Exact order of p, or None for infinite order.

    By Mazur's classification a rational torsion point has order in
    {1, ..., 10, 12}, so checking multiples up to 12 decides torsion without
    any height or reduction argument.
    """
    curve._require_points(p)
    if p.is_infinity:
        return 1
    q = p
    for k in range(2, 13):
        q = curve._add_unchecked(q, p)
        if q.is_infinity:
            return k
    return None


# ---------------------------------------------------------------------------
# integral models and torsion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShortIntegralModel:
    """Integral short model Y^2 = X^3 + a X + b isomorphic to the source
    curve, with the coordinate change X = s^2 (36x + 3 b2),
    Y = 108 s^3 (2y + a1 x + a3)."""

    a: int
    b: int
    scale: Fraction
    source: WeierstrassCurve

    @cached_property
    def _pull_constants(self) -> tuple[int, ...]:
        # With the source coefficients a_i = n_i / d and s = u / v, the
        # source point over (X, Y) is (x_n / z^2, y_n / z^3) for z = 6 u d,
        # where x_n = v^2 d^2 X - 3 u^2 (d^2 b2) and
        # y_n = v^3 d^3 Y - 3 u (n1 x_n + n3 z^2).
        c = self.source
        d, (n1, n2, n3, n4, n6) = _cleared((c.a1, c.a2, c.a3, c.a4, c.a6))
        u, v = self.scale.numerator, self.scale.denominator
        z = 6 * u * d
        return (z, v * v * d * d, 3 * u * u * (n1 * n1 + 4 * n2 * d),
                v ** 3 * d ** 3, 3 * u, d, n1, n2, n3, n4, n6)

    def pull(self, p) -> ECPoint:
        """The source-curve point over p, an (X, Y) int pair on this model or
        None for the point at infinity.  The image is checked exactly against
        the source equation, cleared of denominators (times d z^6);
        ArithmeticError when it misses."""
        if p is None:
            return INFINITY
        z, kx, cx, ky, ty, d, n1, n2, n3, n4, n6 = self._pull_constants
        zz = z * z
        xn = kx * p[0] - cx
        lin = n1 * xn + n3 * zz
        yn = ky * p[1] - ty * lin
        if (d * (yn * yn - xn ** 3) + z * yn * lin
                - zz * (n2 * xn * xn + zz * (n4 * xn + n6 * zz))):
            raise ArithmeticError("point %s does not map onto the source curve"
                                  % (p,))
        return ECPoint(Fraction(xn, zz), Fraction(yn, zz * z))


def _root(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 1, by Newton's method on
    ints from a start above the root."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factorize(dens: list[int]) -> dict[int, list[int]]:
    """Split positive integers over a coprime base by gcds alone: {r: the
    exponent of r in each of dens}, with the r pairwise coprime, none a
    perfect power, and each of dens the product of the r to its exponents.
    An r is a prime when the gcds separate the primes, and a product of
    primes otherwise: the lone 5^4 7^2 gives r = 5^2 7 with exponent 2."""
    base: list[int] = []
    todo = [n for n in dens if n > 1]
    while todo:
        n = todo.pop()
        for i, b in enumerate(base):
            g = gcd(n, b)
            if g > 1:
                # n b becomes g (b / g) (n / g): the product falls, so this ends
                del base[i]
                todo += [m for m in (g, b // g, n // g) if m > 1]
                break
        else:
            base.append(n)
    split = {}
    for r in base:
        k = 2
        while k <= r.bit_length():
            s = _root(r, k)
            if s ** k == r:
                r = s
            else:
                k += 1
        exps = []
        for n in dens:
            e = 0
            while n % r == 0:
                n, e = n // r, e + 1
            exps.append(e)
        split[r] = exps
    return split


def short_integral_model(curve: WeierstrassCurve) -> ShortIntegralModel:
    """Scale the standard short form Y^2 = X^3 - 27 c4 X - 54 c6 to integer
    coefficients, then strip superfluous (p^4, p^6) power pairs at 2 and 3.
    The scale u is a product over a coprime base of the reduced denominators
    of -27 c4 and -54 c6, split by gcds alone (`factorize`): each base root r
    enters with the least k that makes 4k and 6k at least its exponents.
    That is the least u when every r is a prime; otherwise the model is
    integral but may not be minimal at the primes of a composite r.  A
    singular curve (4 a^3 + 27 b^2 = 0) raises ValueError."""
    d, (n1, n2, n3, n4, n6) = _cleared(
        (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    dd = d * d
    # b2, b4 and b6 times d^2, then -27 c4 over d^4 and -54 c6 over d^6
    b2 = n1 * n1 + 4 * n2 * d
    b4 = 2 * n4 * d + n1 * n3
    b6 = n3 * n3 + 4 * n6 * d
    scaled = []
    for num, den, weight in (
            (-27 * (b2 * b2 - 24 * b4 * dd), dd * dd, 4),
            (54 * (b2 ** 3 - 36 * b2 * b4 * dd + 216 * b6 * dd * dd),
             dd ** 3, 6)):
        g = gcd(num, den)
        scaled.append((num // g, den // g, weight))
    u = 1
    for r, (e4, e6) in factorize([den for _, den, _ in scaled]).items():
        # the least k with 4k and 6k at least the exponents of r
        u *= r ** max(-(-e4 // 4), -(-e6 // 6))
    (a_int, a_rem), (b_int, b_rem) = (divmod(num * u ** weight, den)
                                      for num, den, weight in scaled)
    if a_rem or b_rem:
        raise ArithmeticError("integral scaling left a fraction")
    if 4 * a_int ** 3 + 27 * b_int ** 2 == 0:
        raise ValueError("integral model of a singular curve")
    v = 1
    # where a base element is a prime power, u takes the least exponent that
    # makes the deciding coefficient integral at it, which leaves that
    # coefficient's valuation below 4 (or 6), so only 2 and 3 can strip; a
    # base element that is a product of primes can leave u above the least
    # exponent at some of them, and the model integral but not minimal there
    for p in (2, 3):
        while ((a_int == 0 or a_int % p ** 4 == 0)
               and (b_int == 0 or b_int % p ** 6 == 0)):
            a_int //= p ** 4
            b_int //= p ** 6
            v *= p
    return ShortIntegralModel(a=a_int, b=b_int, scale=Fraction(u, v),
                              source=curve)


def _coprime_mod(f: list[int], g: list[int], p: int) -> bool:
    """Whether the int coefficient lists f and g, deg g < deg f, are coprime
    in F_p[x], for a prime p that does not divide the leading coefficient of
    f: Euclid's algorithm on pseudo-remainders reduced mod p (the powers of
    a leading coefficient that they multiply by are units mod p)."""
    a, b = [c % p for c in f], g
    while True:
        b = [c % p for c in b]
        while b and b[-1] == 0:
            b.pop()
        if len(b) <= 1:
            return len(b) == 1
        a, b = b, _pseudo_rem(a, b)


def integer_roots(coeffs: list[int]) -> list[int]:
    """All integer roots of a nonzero integer polynomial (coefficients from
    the constant term up), sorted, by p-adic lifting (R. Loos, SIAM J.
    Comput. 12, 1983; Cohen, A Course in Computational Algebraic Number
    Theory, 3.5).  With the factor x^k stripped (0 is then a root), f has
    degree n, and p is the first odd prime that does not divide lc(f) and
    at which f and f' are coprime mod p, so every root mod p is simple.
    Each has one Newton lift to q = p^(2^j) > 2B, B being Fujiwara's bound
    2 max |c_i/c_n|^(1/(n-i)) on the roots (rounded up to a power of two),
    and an integer root is the symmetric residue of its lift.

    A prime that fails divides Res(f, f'), the determinant of a Sylvester
    matrix with n - 1 rows of norm at most sqrt(n + 1) max |c_i| and n of
    norm at most n sqrt(n) max |c_i|.  By Hadamard's bound its log2 is at
    most (2n - 1)(bits(max |c_i|) + 2 bits(n)), so once the failed primes
    multiply past that, Res(f, f') = 0: f has a repeated root, and its
    roots are those of its squarefree part f / gcd(f, f'), all simple.
    """
    if not any(coeffs):
        raise ValueError("zero polynomial")
    k = next(i for i, c in enumerate(coeffs) if c)
    roots, f = [0] if k else [], list(coeffs[k:])
    while f[-1] == 0:
        f.pop()
    n = len(f) - 1
    if n == 0:
        return roots
    lead_bits = abs(f[-1]).bit_length()
    # |c_i / c_n| < 2^(bits(c_i) - bits(c_n) + 1), so 2^e with
    # e (n - i) >= bits(c_i) - bits(c_n) + 1 bounds its (n-i)-th root
    e = max(-(-max(0, abs(c).bit_length() - lead_bits + 1) // (n - i))
            for i, c in enumerate(f[:-1]))
    bound = 2 << e
    hadamard = (2 * n - 1) * (max(map(abs, f)).bit_length()
                              + 2 * n.bit_length())
    deriv = [i * c for i, c in enumerate(f)][1:]
    spent = 0
    for p in count(3, 2):
        if f[-1] % p == 0 or any(p % d == 0
                                 for d in range(3, isqrt(p) + 1, 2)):
            continue
        if _coprime_mod(f, deriv, p):
            break
        # the failed primes multiply to at least 2^spent
        spent += p.bit_length() - 1
        if spent > hadamard:
            return sorted(roots + integer_roots(_squarefree(f)))
    reduced = [c % p for c in f]
    for r in range(p):
        if _horner(reduced, r) % p:
            continue
        q = p
        while q <= 2 * bound:
            q *= q
            r = (r - _horner(f, r) * pow(_horner(deriv, r), -1, q)) % q
        if r > q // 2:
            r -= q
        if -bound <= r <= bound and _horner(f, r) == 0:
            roots.append(r)
    return sorted(roots)


# ---------------------------------------------------------------------------
# division polynomials on y^2 = x^3 + a x + b
# ---------------------------------------------------------------------------

def _division_polys(a: int, b: int, n_max: int) -> list[list[int]]:
    """f_0 .. f_n_max (n_max >= 4) on Y^2 = X^3 + a X + b, as int coefficient
    lists from the constant term up: f_n = psi_n for odd n and psi_n / (2Y)
    for even n.  So every f_n is in Z[X], and the psi recurrences need the
    factor (2Y)^4 = (4X^3 + 4aX + 4b)^2 only on the side with four
    even-index factors."""
    f = [[0], [1], [1], [-a * a, 12 * b, 6 * a, 0, 3],
         [-2 * (8 * b * b + a ** 3), -8 * a * b, -10 * a * a, 40 * b,
          10 * a, 0, 2]]
    two_y_4 = _poly_mul([4 * b, 4 * a, 0, 4], [4 * b, 4 * a, 0, 4])
    for n in range(5, n_max + 1):
        m = n // 2
        if n % 2 == 0:
            # f_2m = f_m (f_{m+2} f_{m-1}^2 - f_{m-2} f_{m+1}^2)
            f.append(_poly_mul(f[m], _poly_sub(
                _poly_mul(f[m + 2], _poly_mul(f[m - 1], f[m - 1])),
                _poly_mul(f[m - 2], _poly_mul(f[m + 1], f[m + 1])))))
            continue
        # psi_2m+1 = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3
        first = _poly_mul(f[m + 2], _poly_mul(f[m], _poly_mul(f[m], f[m])))
        second = _poly_mul(f[m - 1],
                           _poly_mul(f[m + 1], _poly_mul(f[m + 1], f[m + 1])))
        if m % 2 == 0:
            first = _poly_mul(two_y_4, first)
        else:
            second = _poly_mul(two_y_4, second)
        f.append(_poly_sub(first, second))
    return f


# ---------------------------------------------------------------------------
# the group law on integral points of Y^2 = X^3 + a X + b
# ---------------------------------------------------------------------------
#
# A point is an (X, Y) int tuple and None the point at infinity; False
# stands for a sum that is not integral, which proves that a summand has
# infinite order.

def _int_add(a: int, p, q):
    """P + Q for integral points P and Q; False when the slope, and so
    P + Q, is not integral."""
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if x1 == x2:
        if y1 != y2 or y1 == 0:
            return None
        num, den = 3 * x1 * x1 + a, 2 * y1
    else:
        num, den = y2 - y1, x2 - x1
    slope, rem = divmod(num, den)
    if rem:
        return False
    x3 = slope * slope - x1 - x2
    return (x3, slope * (x1 - x3) - y1)


def _torsion_multiples(a: int, p) -> Optional[list]:
    """[P, 2P, ..., O] for an integral point P of finite order, whose length
    is the order; None for infinite order.  By Mazur the order is at most 12,
    and the first multiple that is not integral ends the search."""
    multiples = [p]
    while len(multiples) < 12:
        q = _int_add(a, multiples[-1], p)
        if q is False:
            return None
        multiples.append(q)
        if q is None:
            return multiples
    return None


def _halvings(a: int, e1: int, p) -> list[int]:
    """Sorted integer candidates X, among them the X of every rational Q with
    2Q = P, for an integral P = (xp, yp) on Y^2 = (X - e1)(X - e2)(X - e3) =
    X^3 + a X + b, e1 an integer.  With r_i^2 = xp - e_i and r1 r2 r3 = yp,
    the halves of P have X = xp + r1 r2 + r1 r3 + r2 r3 over the four sign
    changes that keep the product (Knapp, Elliptic Curves, Thm 4.2).  A half
    of an integral point is integral (for each p the points with p in a
    denominator, and O, form a subgroup) and the r_i, r2 r3 and r2 + r3 are
    algebraic integers, so for a rational half they are integers: s = r1 with
    s^2 = xp - e1 (X - e1 is a square on 2E(Q)), m = r2 r3 = yp / s (s^2
    divides yp^2) and t = r2 + r3 with t^2 = 2 xp + e1 + 2m (as
    e1 + e2 + e3 = 0), and X = xp + m +/- s t; r1 -> -r1 flips m.  When
    s = 0, P = (e1, 0) and X = e1 +/- r2 r3 with
    (r2 r3)^2 = (e1 - e2)(e1 - e3) = 3 e1^2 + a."""
    xp, yp = p
    if xp < e1 or (s := int_sqrt(xp - e1)) is None:
        return []
    # (X at t = 0, the factor of t, t^2)
    terms = ([(e1, 1, 3 * e1 * e1 + a)] if s == 0 else
             [(xp + m, s, 2 * xp + e1 + 2 * m) for m in (yp // s, -yp // s)])
    return sorted({x + sign * scale * t for x, scale, square in terms
                   if square >= 0 and (t := int_sqrt(square)) is not None
                   for sign in (1, -1)})


def _division_solve(a: int, b: int, ell: int, target,
                    psi_cache: dict) -> dict[tuple[int, int], int]:
    """All rational Q on the integral model with [ell]Q = target, each with
    its order, from integer candidates X (a torsion point is integral), each
    verified exactly; the target is torsion, and so is every solution.  For
    ell = 2 they are the integer roots of X^3 + a X + b, cached under 2, or
    the _halvings of the target by one of them.  For odd ell they are the
    integer roots of f_ell, and the solutions are cached under (ell, None);
    for a target P, as x([ell]Q) = X - psi_{ell-1} psi_{ell+1} / psi_ell^2,
    of (X - x_P) f_ell^2 - 4 (X^3 + a X + b) f_{ell-1} f_{ell+1} in the f_n
    of _division_polys.  Its roots are the x(Q) with [ell]Q = +-P, so they
    repeat only when P = -P.  Such a P needs no roots: [ell]P = P, so
    [ell]Q = P exactly when Q = P + T with [ell]T = O, and the candidates
    are x(P) and the x(P + T) over the cached T."""
    if ell == 2:
        if 2 not in psi_cache:
            psi_cache[2] = integer_roots([b, a, 0, 1])
        if target is None:
            return {(x, 0): 2 for x in psi_cache[2]}
        if not psi_cache[2]:
            raise ValueError("halving needs a rational 2-torsion point")
        xs = _halvings(a, psi_cache[2][0], target)
    elif target is not None and target[1] == 0:
        if (ell, None) not in psi_cache:
            _division_solve(a, b, ell, None, psi_cache)
        xs = sorted({target[0], *(q[0] for t in psi_cache[ell, None]
                                  if (q := _int_add(a, target, t)))})
    else:
        if ell not in psi_cache:
            f = _division_polys(a, b, ell + 1)
            psi_cache[ell] = (f[ell], _poly_mul(f[ell], f[ell]),
                              _poly_mul([4 * b, 4 * a, 0, 4],
                                        _poly_mul(f[ell - 1], f[ell + 1])))
        f_ell, f_ell_sq, neighbors = psi_cache[ell]
        if target is None:
            xs = integer_roots(f_ell)
        else:
            xs = integer_roots(_poly_sub(_poly_mul([-target[0], 1], f_ell_sq),
                                         neighbors))
    out = {}
    for x in xs:
        yy = x ** 3 + a * x + b
        if yy < 0:
            continue
        r = int_sqrt(yy)
        if r is None:
            continue
        for y in ((0,) if r == 0 else (r, -r)):
            multiples = _torsion_multiples(a, (x, y))
            # [ell]Q is multiples[(ell - 1) % order]
            if multiples and multiples[(ell - 1) % len(multiples)] == target:
                out[(x, y)] = len(multiples)
    if target is None:
        psi_cache[ell, None] = out
    return out


@cache
def _root_counts(p: int) -> tuple[int, ...]:
    """For each v mod the odd prime p, the number of Y mod p with Y^2 = v;
    one table per prime of _torsion_order_bound."""
    counts = [0] * p
    for y in range(p):
        counts[y * y % p] += 1
    return tuple(counts)


def _count_points_mod_p(a: int, b: int, p: int) -> int:
    """#E(F_p) of Y^2 = X^3 + a X + b, the point at infinity included."""
    roots = _root_counts(p)
    am, bm = a % p, b % p
    count = 1
    for x in range(p):
        count += roots[(x * x * x + am * x + bm) % p]
    return count


def _torsion_order_bound(a: int, b: int, disc: int) -> int:
    """gcd of #E(F_p) over several primes p >= 5 that do not divide disc: a
    multiple of the rational torsion order.  The model has good reduction
    at such a p, and for odd p reduction is injective on the rational
    torsion, which so embeds in E(F_p).  0, which every ell divides, when
    none of the primes is good."""
    bound = 0
    used = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        if disc % p == 0:
            continue
        bound = gcd(bound, _count_points_mod_p(a, b, p))
        used += 1
        if used >= 6 or bound in (1, 2):
            break
    return bound


def _torsion_by_division(a: int, b: int,
                         disc: int) -> dict[tuple[int, int], int]:
    """Exact torsion points of the integral short model Y^2 = X^3 + a X + b,
    each with its order, via ell-division closure: starting from the
    2-torsion, repeatedly solve [ell]Q = P for every known P and ell in
    {2, 3, 5, 7}, until no growth.  Any missing torsion point would map into
    the current subgroup under some prime ell dividing the (Mazur-bounded)
    index, so the fixpoint is the full group.

    The torsion order divides the point-count bound of
    _torsion_order_bound (Lagrange, in E(F_p) for each good p >= 5).  So an
    ell that does not divide the bound never divides the order and is
    skipped (an odd bound rules out 2-torsion, and a bound of 1 needs no
    solve), and the closure stops as soon as it holds bound points, O
    included: no torsion point is left.  With no 2-torsion the order is odd
    (Cauchy), so the bound drops to its gcd with 315 and ell = 2 leaves.
    """
    bound = _torsion_order_bound(a, b, disc)
    points: dict[tuple[int, int], int] = {}
    psi_cache: dict = {}
    # a solved (ell, target) gives nothing new in a later round
    solved = set()
    changed = True
    while changed:
        changed = False
        group_order = len(points) + 1
        for ell in (2, 3, 5, 7):
            if bound % ell or group_order * ell > 16:
                continue
            for target in [None, *points]:
                if (ell, target) in solved:
                    continue
                solved.add((ell, target))
                found = _division_solve(a, b, ell, target, psi_cache)
                if ell == 2 and not found and target is None:
                    bound = gcd(bound, 315)     # 1, 3, 5, 7, 9 divide 315
                for q, order in found.items():
                    if q not in points:
                        points[q] = order
                        changed = True
                if len(points) + 1 == bound:
                    return points
    return points


@dataclass(frozen=True)
class TorsionGroup:
    """Rational torsion subgroup: invariant factors (1, n) for cyclic Z/n or
    (2, n) for Z/2 x Z/n, with generators and the full point list on the
    original model."""

    invariants: tuple[int, int]
    generators: tuple[ECPoint, ...]
    points: tuple[ECPoint, ...]

    @property
    def order(self) -> int:
        return self.invariants[0] * self.invariants[1]

    def contains_structure(self, m: int, n: int) -> bool:
        """Whether Z/m x Z/n (m | n) embeds in this group."""
        sm, sn = self.invariants
        return (m == 1 or sm % m == 0) and sn % n == 0

    def __str__(self):
        m, n = self.invariants
        if n == 1:
            return "trivial"
        if m == 1:
            return "Z/%d" % n
        return "Z/%d x Z/%d" % (m, n)


def torsion_subgroup(curve: WeierstrassCurve) -> TorsionGroup:
    """Rational torsion subgroup, by ell-division closure on an integral
    short model (see _torsion_by_division), in integer arithmetic until the
    points are pulled back, halving by square roots; no factoring of the
    discriminant.  The closure stops once it has as many points as the gcd
    of #E(F_p) over good primes p >= 5, which the torsion order divides, as
    for odd p reduction embeds the torsion in E(F_p).  Every point found is
    checked to have integer coordinates with Y = 0 or Y^2 | disc
    (Lutz-Nagell) and, on integers, to map back onto the source curve.  A
    singular curve raises ValueError from short_integral_model."""
    model = short_integral_model(curve)
    a, b = model.a, model.b
    disc = -16 * (4 * a ** 3 + 27 * b ** 2)
    orders = _torsion_by_division(a, b, disc)
    for (x, y) in orders:
        if y != 0 and disc % (y * y) != 0:
            raise ArithmeticError("torsion point escapes y^2 | disc")

    orders = {None: 1, **orders}
    order_total = len(orders)
    gen_max = max(orders, key=orders.get)
    max_order = orders[gen_max]
    if max_order == order_total:
        invariants = (1, order_total)
        generators = (gen_max,) if order_total > 1 else ()
    else:
        # over Q the only alternative shape is Z/2 x Z/(order/2)
        if max_order * 2 != order_total or max_order % 2 != 0:
            raise ArithmeticError("torsion points form no group over Q")
        cyclic = set(_torsion_multiples(a, gen_max))
        two_tors = [p for p, o in orders.items() if o == 2 and p not in cyclic]
        invariants = (2, max_order)
        generators = (two_tors[0], gen_max)
    pulled = {p: model.pull(p) for p in orders}
    return TorsionGroup(invariants=invariants,
                        generators=tuple(pulled[p] for p in generators),
                        points=tuple(pulled.values()))


# ---------------------------------------------------------------------------
# the pre-image elliptic surfaces
# ---------------------------------------------------------------------------

def _fiber_json(fiber, **sections) -> dict:
    """A fiber's curve coefficients, a, delta, j and singularity, with the
    fiber's own sections under their keyword names."""
    return {**fiber.curve.as_json(), "a": format_rat(fiber.a),
            "delta": format_rat(fiber.delta),
            "j": None if fiber.j is None else format_rat(fiber.j),
            "singular": fiber.singular, **sections}


@dataclass(frozen=True)
class E24Fiber:
    """Specialization of the two-four arrangement surface at a rational a:
    y^2 = x^3 + (4a-1)x^2 + 16a x + (64a^2 - 16a) with the 4-torsion section
    (2, 8a+2).  Singular exactly at a = 0 and a = -1/4."""

    a: Fraction
    curve: WeierstrassCurve
    torsion_point: ECPoint
    j: Optional[Fraction]
    delta: Fraction
    singular: bool

    def as_json(self) -> dict:
        return _fiber_json(self, section=self.torsion_point.as_json())


def specialize_e24(a: RatLike) -> E24Fiber:
    a = Fraction(a)
    curve = WeierstrassCurve.from_coeffs(0, 4 * a - 1, 0, 16 * a,
                                         64 * a * a - 16 * a)
    delta = a * (4 * a + 1) ** 4
    singular = delta == 0
    j = None
    if not singular:
        j = (16 * a * a - 56 * a + 1) ** 3 / delta
    return E24Fiber(a=a, curve=curve, torsion_point=ECPoint.affine(2, 8 * a + 2),
                    j=j, delta=delta, singular=singular)


@dataclass(frozen=True)
class E222Fiber:
    """Specialization of the two-two-two arrangement surface, with the two
    independent sections of infinite order.  Singular exactly where
    (4a+1)^2 (256a^3 + 368a^2 + 104a + 23) vanishes (a = -1/4 and the three
    third-level critical values)."""

    a: Fraction
    curve: WeierstrassCurve
    p_point: ECPoint
    q_point: ECPoint
    j: Optional[Fraction]
    delta: Fraction
    singular: bool

    def as_json(self) -> dict:
        return _fiber_json(self, sections=[self.p_point.as_json(),
                                           self.q_point.as_json()])


def specialize_e222(a: RatLike) -> E222Fiber:
    a = Fraction(a)
    curve = WeierstrassCurve.from_coeffs(
        0,
        16 * a + Fraction(942, 13),
        0,
        Fraction(10048, 13) * a + Fraction(293084, 169),
        1024 * a * a + Fraction(1620800, 169) * a + Fraction(30250696, 2197),
    )
    delta = (4 * a + 1) ** 2 * (256 * a ** 3 + 368 * a * a + 104 * a + 23)
    singular = delta == 0
    j = None if singular else curve.j_invariant()
    p_point = ECPoint.affine(Fraction(-262, 13), 32 * a + 8)
    q_point = ECPoint.affine(Fraction(-366, 13), 32 * a + 8)
    return E222Fiber(a=a, curve=curve, p_point=p_point, q_point=q_point,
                     j=j, delta=delta, singular=singular)


class TorsionKind(enum.Enum):
    Z2xZ4 = "Z2xZ4"
    Z8 = "Z8"
    Z2xZ8 = "Z2xZ8"
    Z12 = "Z12"

    @property
    def structure(self) -> tuple[int, int]:
        return {"Z2xZ4": (2, 4), "Z8": (1, 8),
                "Z2xZ8": (2, 8), "Z12": (1, 12)}[self.value]


# The four twelve-digit-scale constants of the Z/12 family, kept in one place
# so a transcription slip cannot hide in two spots.
_Z12_Q1 = int("13691470144")
_Z12_Q2 = int("13903463744")
_Z12_LIN = int("235376")
_Z12_DEN = int("9527265101250297856000000")
_Z12_POLE = int("117688")


def torsion_family_a(kind: TorsionKind, t: RatLike) -> Optional[Fraction]:
    """The a value whose two-four fiber contains the named torsion subgroup,
    per the rational parametrization of each family; None when t lies in the
    family's excluded set (where the fiber degenerates)."""
    t = Fraction(t)
    if kind is TorsionKind.Z2xZ4:
        if t in (0, Fraction(1, 2), Fraction(-1, 2)):
            return None
        return -t * t
    if kind is TorsionKind.Z8:
        if t in (0, 1, -1):
            return None
        return t * t * (t * t - 2) / 4
    if kind is TorsionKind.Z2xZ8:
        if t in (0, Fraction(1, 2), Fraction(-1, 2)):
            return None
        num = (4 * t * t - 4 * t - 1) ** 2 * (4 * t * t + 4 * t - 1) ** 2
        return -num / (4 * (4 * t * t + 1) ** 4)
    if kind is TorsionKind.Z12:
        if t in (0, Fraction(1, _Z12_POLE)):
            return None
        num = ((_Z12_Q1 * t * t - _Z12_LIN * t + 1)
               * (_Z12_Q2 * t * t - _Z12_LIN * t + 1) ** 3)
        den = _Z12_DEN * t ** 6 * (_Z12_POLE * t - 1) ** 2
        return num / den
    raise ValueError("unknown torsion family %r" % (kind,))


def curve_244() -> tuple[WeierstrassCurve, ECPoint]:
    """The rank-one curve carrying the ten-pre-image arrangements of
    a = -1/4: v^2 = u^3 + u^2 - 9u + 7, with the infinite-order point (3, 4).
    """
    curve = WeierstrassCurve.from_coeffs(0, 1, 0, -9, 7)
    return curve, ECPoint.affine(3, 4)
