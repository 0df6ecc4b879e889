"""Slow reference implementations for the tests.

- `preimages`, the rational roots of x^2 + c = y by one `rat_sqrt`, and the
  plain pre-image level walk in `Fraction`s on it, one call per parent.
  The integer walk in `dynamics.preimage_tree`, and the search oracles that
  must not depend on it, are checked against this: `reference_tree` as a
  `PreimageTree` of the `Fraction`s' own lowest terms, and
  `reference_tree_json` as its JSON, each value through `format_rat`.
- `is_critical_value`, a membership test against the critical-value
  polynomials of `dynamics.critical_avalues`.
- Lutz-Nagell torsion enumeration, the oracle for the division closure in
  `elliptic.torsion_subgroup`; `push`, the map from a curve to its integral
  short model, and `reference_pull`, its inverse in `Fraction` arithmetic,
  the oracle for the integer `ShortIntegralModel.pull`; the halves of a
  torsion point by the integer roots of the halving quartic, the oracle for
  the square-root halving of `elliptic._division_solve`; the solutions of
  [ell]Q = P for odd ell by the integer roots of the division equation,
  repeated roots and all (`reference_division_solve`), the oracle for its
  closed form when P has order 2; and the integer roots of a polynomial by
  the rational root theorem, the oracle for the p-adic lifting of
  `elliptic.integer_roots`, with the divisors of the constant term found by
  trial up to the root bound when that bound is small.
- Prime factorization, which the Lutz-Nagell enumeration and the
  rational-root oracle need: `factorize` divides out the primes up to 37,
  then splits what is left by Miller-Rabin and Pollard's rho, and is
  itself checked against plain trial division (`reference_factorize`).
- The integral short model by prime factoring of the scaling denominators
  (`reference_short_integral_model`), the oracle for the coprime-base
  scaling of `elliptic.short_integral_model`.
- `resultant` of two `QPoly`s: denominators cleared once, then the
  package's integer subresultant PRS (`exactmath._int_resultant`), which
  only `exactmath.eliminate_c` calls in the package.  The
  Sylvester-determinant resultant in `Fraction`s is the oracle for it and,
  specialized at values of a, for the interpolation in `eliminate_c`.
- The branch test of the forward scan on Python ints (`reference_branches`:
  is G_m a perfect square), and the residue filter that ran the orbit mod
  each filter modulus for every candidate (`reference_branch_mask`), the
  oracles for the forward scan's kind-table filter.
- `height`, max(|n|, d) of a rational, for the tests' height bounds.
- The height enumeration as a double loop over `Fraction`s, the oracle for
  `plans._height_order`, and the third-pair values (c, a) in `Fraction`
  arithmetic, the oracle for `plans._thirdpair_values` (which gives c and
  the t with a = t^2 + c).  The candidates' parameters as `Fraction`s
  (`thirdpair_plan_values`, `forward_plan_values`), the oracle for the int
  pairs that the scans format into provenance.
"""

from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from quadpreim import plans
from quadpreim.dynamics import PreimageTree, critical_avalues
from quadpreim.elliptic import (
    INFINITY,
    ECPoint,
    ShortIntegralModel,
    WeierstrassCurve,
    _division_polys,
    _torsion_multiples,
    integer_roots,
    point_order,
    short_integral_model,
)
from quadpreim.exactmath import (QPoly, _cleared, _int_resultant, _poly_mul,
                                  format_rat, rat_sqrt)


def preimages(c, y) -> tuple[Fraction, ...]:
    """All rational x with x^2 + c = y, sorted descending: empty, {0} (the
    degenerate critical point, its own negation), or a pair {r, -r}."""
    r = rat_sqrt(Fraction(y) - Fraction(c))
    if r is None:
        return ()
    if r == 0:
        return (Fraction(0),)
    return (r, -r)


def _reference_levels(c: Fraction, a: Fraction, depth: int) -> list:
    """The levels of a's tree under f_c in Fractions, one `preimages` call
    per parent: each a list of (value, parent index), value descending."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    levels = []
    previous = (a,)
    for _ in range(depth):
        found: dict[Fraction, int] = {}
        for idx, y in enumerate(previous):
            for v in preimages(c, y):
                if v not in found:
                    found[v] = idx
        levels.append([(v, found[v]) for v in sorted(found, reverse=True)])
        previous = tuple(v for v, _ in levels[-1])
    return levels


def reference_tree(c, a, depth: int) -> PreimageTree:
    """The PreimageTree of the Fraction walk, its values read off the
    Fractions' own lowest terms."""
    c, a = Fraction(c), Fraction(a)

    def pair(q):
        return q.numerator, q.denominator

    levels = _reference_levels(c, a, depth)
    return PreimageTree(pair(c), pair(a),
                        tuple(tuple(pair(v) for v, _ in level) for level in levels),
                        tuple(tuple(p for _, p in level) for level in levels))


def reference_tree_json(c, a, depth: int) -> dict:
    """PreimageTree.as_json of the Fraction walk, each value formatted with
    format_rat, the union counted over Fractions."""
    c, a = Fraction(c), Fraction(a)
    levels = _reference_levels(c, a, depth)
    return {
        "c": format_rat(c),
        "a": format_rat(a),
        "depth": depth,
        "levels": [[format_rat(v) for v, _ in level] for level in levels],
        "parents": [[p for _, p in level] for level in levels],
        "signature": [len(level) for level in levels],
        "union": len({v for level in levels for v, _ in level}),
    }


def is_critical_value(a, n: int) -> bool:
    """Whether a is a critical value at any level j with 2 <= j <= n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    a = Fraction(a)
    return any(critical_avalues(j).avalue_minpoly.eval(a) == 0
               for j in range(2, n + 1))


def reference_hit(c, a, target) -> bool:
    """Whether the reference signature of (c, a) dominates the target: the
    walk of reference_tree, one `preimages` call per parent, stopped at the
    first level short of its target."""
    c = Fraction(c)
    level = {Fraction(a)}
    for want in target:
        level = {v for y in level for v in preimages(c, y)}
        if len(level) < want:
            return False
    return True


# -- forward search -----------------------------------------------------------

def reference_branches(c, x0, depth: int, target) -> bool:
    """Whether a = f_c^depth(x0) may have a root off its orbit's spine at
    the first level k whose target is above 2: whether, for some m in
    [depth - k + 1, depth - 1], the integer G_m = -(P_m v + u Q_m) is a
    perfect square, where c = u/v and P_m/Q_m is f_c^m(x0) unreduced
    (P <- P^2 v + u Q^2, Q <- Q^2 v, from x0 in lowest terms), all on
    Python ints.  The oracle for the forward scan's residue filter."""
    c, x0 = Fraction(c), Fraction(x0)
    u, v = c.numerator, c.denominator
    k = next(k for k, want in enumerate(target, 1) if want > 2)
    p, q = x0.numerator, x0.denominator
    for m in range(1, depth):
        p, q = p * p * v + u * q * q, q * q * v
        g = -(p * v + u * q)
        if m >= depth - k + 1 and g >= 0 and isqrt(g) ** 2 == g:
            return True
    return False


def reference_branch_mask(u, v, n, d, first: int, end: int):
    """For each candidate c = u/v, x0 = n/d (int64 arrays, v, d > 0), whether
    G_m = -(P_m v + u Q_m), (P_m, Q_m) = orbit(c, x0, m), is a square modulo
    every filter modulus for some m in [first, end); False throughout for an
    empty range.  Each modulus runs the orbit on the candidates' residues."""
    alive = np.ones((max(end - first, 0), len(u)), dtype=bool)
    for mod, _ in plans._MODULI:
        squares = np.zeros(mod, dtype=bool)
        squares[np.arange(mod) ** 2 % mod] = True
        cu, cv, p, q = u % mod, v % mod, n % mod, d % mod
        for m in range(1, end):
            p, q = (p * p * cv + cu * q * q) % mod, q * q * cv % mod
            if m >= first:
                alive[m - first] &= squares[-(p * cv + cu * q) % mod]
    return alive.any(axis=0)


# -- third-pair search -------------------------------------------------------

def height(q) -> int:
    """Multiplicative height of a rational: max(|numerator|, denominator)."""
    q = Fraction(q)
    return max(abs(q.numerator), q.denominator)


def reference_fractions_by_height(bound: int) -> list[Fraction]:
    """All positive reduced fractions with height <= bound, ordered by
    (height, value): at each height h, n/h for increasing n, then h/d for
    decreasing d."""
    out = [Fraction(1)]
    for h in range(2, bound + 1):
        for n in range(1, h):
            if gcd(n, h) == 1:
                out.append(Fraction(n, h))
        for d in range(h - 1, 0, -1):
            if gcd(h, d) == 1:
                out.append(Fraction(h, d))
    return out


def thirdpair_plan_values(plan, i: int, j: int) -> tuple[Fraction, Fraction]:
    """(p1, p2) of the third-pair plan's candidate (i, j) as Fractions."""
    return tuple(Fraction(int(plan.nums[k]), int(plan.dens[k])) for k in (i, j))


def forward_plan_values(plan, ci: int, xi: int) -> tuple[Fraction, Fraction]:
    """(c, x0) of the forward plan's candidate (ci, xi) as Fractions."""
    return (Fraction(int(plan.c_num[ci]), int(plan.c_den[ci])),
            Fraction(int(plan.x_num[xi]), int(plan.x_den[xi])))


def reference_thirdpair_values(p1: Fraction, p2: Fraction):
    """(c, a) of the third-pair candidate (p1, p2): c = -(p1^2 + p2^2)/2,
    s = (p1^2 - p2^2)/2, t = s^2 + c, a = t^2 + c."""
    sq1, sq2 = p1 * p1, p2 * p2
    c = -(sq1 + sq2) / 2
    s = (sq1 - sq2) / 2
    t = s * s + c
    return c, t * t + c


# -- Lutz-Nagell torsion ------------------------------------------------------

def _icbrt(n: int) -> int:
    """Floor cube root of n >= 0 by Newton iteration on integers."""
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    return x


def _integer_roots_depressed_cubic(a: int, b: int) -> list[int]:
    """All integer roots of x^3 + a x + b, by monotone-interval bisection
    (the polynomial is monic, so rational roots are integers).  Root size is
    capped by the Fujiwara bound 2 max(|a|^(1/2), |b|^(1/3))."""

    def f(x: int) -> int:
        return x * x * x + a * x + b

    bound = 2 * max(isqrt(abs(a)) + 1, _icbrt(abs(b)) + 1)
    roots = set()

    def bisect(lo: int, hi: int, increasing: bool):
        if lo > hi:
            return
        flo, fhi = f(lo), f(hi)
        if flo == 0:
            roots.add(lo)
        if fhi == 0:
            roots.add(hi)
        if increasing:
            if not (flo < 0 < fhi):
                return
        else:
            if not (flo > 0 > fhi):
                return
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fm = f(mid)
            if fm == 0:
                roots.add(mid)
                return
            if (fm < 0) == increasing:
                lo = mid
            else:
                hi = mid

    if a >= 0:
        bisect(-bound, bound, True)
    else:
        m = isqrt((-a) // 3)
        for probe in (-m - 1, -m, m, m + 1):
            if f(probe) == 0:
                roots.add(probe)
        bisect(-bound, -m - 1, True)
        bisect(-m, m, False)
        bisect(m + 1, bound, True)
    return sorted(roots)


def push(model, p: ECPoint) -> ECPoint:
    """The point of the integral short model over p on model.source:
    X = s^2 (36x + 3 b2), Y = 108 s^3 (2y + a1 x + a3)."""
    if p.is_infinity:
        return INFINITY
    s, source = model.scale, model.source
    big_x = s * s * (36 * p.x + 3 * source.b2)
    big_y = 108 * s ** 3 * (2 * p.y + source.a1 * p.x + source.a3)
    return ECPoint(big_x, big_y)


def reference_pull(model, p: ECPoint) -> ECPoint:
    """The point on model.source over p, a point of the integral model, in
    `Fraction` arithmetic: x = X / (36 s^2) - b2 / 12 and
    y = Y / (216 s^3) - (a1 x + a3) / 2."""
    if p.is_infinity:
        return INFINITY
    s, source = model.scale, model.source
    x = p.x / (36 * s * s) - source.b2 / 12
    return ECPoint(x, p.y / (216 * s ** 3) - (source.a1 * x + source.a3) / 2)


def short_curve(a, b) -> WeierstrassCurve:
    """y^2 = x^3 + a x + b as a long Weierstrass model."""
    return WeierstrassCurve.from_coeffs(0, 0, 0, a, b)


def reference_torsion(curve) -> dict:
    """{torsion point on curve: its order}, by Lutz-Nagell on the integral
    short model: a torsion point there has integer coordinates with Y = 0 or
    Y^2 | disc, so every square divisor Y^2 of the factored discriminant is
    tried, with X an integer root of X^3 + a X + b - Y^2.  Enumerates every
    square divisor, so it suits small discriminants only; a Y with no root
    of the cubic modulo some prime below 100 is dropped unsolved."""
    model = short_integral_model(curve)
    a, b = model.a, model.b
    integral = short_curve(a, b)
    ys = [1]
    for p, e in factorize(16 * (4 * a ** 3 + 27 * b ** 2)).items():
        ys = [y * p ** k for y in ys for k in range(e // 2 + 1)]
    # an integer root X of X^3 + a X + b - Y^2 is a root modulo every prime,
    # so a Y whose Y^2 misses the cubic's values modulo some p has no X
    cubic_values = [(p, {(x ** 3 + a * x + b) % p for x in range(p)})
                    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                              43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)]
    found = {INFINITY: 1}
    for y in [0] + ys:
        if any(y * y % p not in values for p, values in cubic_values):
            continue
        for x in _integer_roots_depressed_cubic(a, b - y * y):
            for yy in {y, -y}:
                point = ECPoint.affine(x, yy)
                order = point_order(integral, point)
                if order is not None:
                    found[reference_pull(model, point)] = order
    return found


def halving_quartic(a: int, b: int, xp: int) -> list[int]:
    """x([2]Q) = xp on Y^2 = X^3 + a X + b, cleared of its denominator
    4 (X^3 + a X + b): the quartic X^4 - 4 xp X^3 - 2a X^2 - (8b + 4a xp) X
    + a^2 - 4b xp, coefficients from the constant term up."""
    return [a * a - 4 * b * xp, -(8 * b + 4 * a * xp), -2 * a, -4 * xp, 1]


def _division_points(a: int, b: int, ell: int, target, xs) -> dict:
    """{Q: its order} for every torsion Q = (X, +-Y) with [ell]Q = target on
    Y^2 = X^3 + a X + b and X among the sorted xs, in the order of X and
    then Y, -Y, each checked on the integer group law."""
    out = {}
    for x in xs:
        yy = x ** 3 + a * x + b
        r = isqrt(max(yy, 0))
        if r * r != yy:
            continue
        for y in ((0,) if r == 0 else (r, -r)):
            multiples = _torsion_multiples(a, (x, y))
            if multiples and multiples[(ell - 1) % len(multiples)] == target:
                out[(x, y)] = len(multiples)
    return out


def reference_halvings(a: int, b: int, target) -> dict:
    """{Q: its order} for every torsion Q with 2Q = target, an integral point
    of Y^2 = X^3 + a X + b, in the order of X and then Y, -Y: X runs over
    the integer roots of the halving quartic."""
    return _division_points(a, b, 2, target,
                            integer_roots(halving_quartic(a, b, target[0])))


def reference_division_solve(a: int, b: int, ell: int, target) -> dict:
    """{Q: its order} for every torsion Q with [ell]Q = target, for odd ell
    and an integral point target of Y^2 = X^3 + a X + b, in the order of X
    and then Y, -Y: X runs over the integer roots, by the rational root
    theorem, of (X - x_P) f_ell^2 - 4 (X^3 + a X + b) f_{ell-1} f_{ell+1},
    the numerator of x([ell]Q) - x_P, repeated roots and all."""
    f = _division_polys(a, b, ell + 1)
    equation = [c - d for c, d in zip(
        _poly_mul([-target[0], 1], _poly_mul(f[ell], f[ell])),
        _poly_mul([4 * b, 4 * a, 0, 4], _poly_mul(f[ell - 1], f[ell + 1])),
        strict=True)]
    return _division_points(a, b, ell, target,
                            reference_integer_roots(equation))


def reference_integer_roots(coeffs) -> list[int]:
    """The integer roots of a nonzero integer polynomial (coefficients from
    the constant term up), by the rational root theorem: 0 when x divides
    it, and then every divisor of the constant term left after stripping
    the powers of x, with either sign, that is a root.  A root r also has
    r - 1 | f(1) and r + 1 | f(-1), which skips most evaluations.  When
    Fujiwara's bound 2 max |c_i/c_n|^(1/(n-i)) on the roots, rounded up to
    a power of two, is at most 2^15, the divisors are found by trial of
    every integer up to it; otherwise the constant term is factored, which
    suits constant terms with small prime factors."""
    coeffs = list(coeffs)
    while coeffs[-1] == 0:
        coeffs.pop()
    roots = set()
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs.pop(0)
        roots.add(0)

    def f(x):
        return sum(c * x ** i for i, c in enumerate(coeffs))

    at_one, at_minus_one = f(1), f(-1)
    n, lead = len(coeffs) - 1, abs(coeffs[-1])
    # the least e with 2^e >= |c_i / c_n|^(1/(n-i)) for every i < n
    e = 0
    while any(lead << e * (n - i) < abs(c)
              for i, c in enumerate(coeffs[:-1])):
        e += 1
    if e < 15:
        divisors = [d for d in range(1, (2 << e) + 1) if coeffs[0] % d == 0]
    else:
        divisors = [1]
        for p, k in factorize(abs(coeffs[0])).items():
            divisors = [d * p ** j for d in divisors for j in range(k + 1)]
    for d in divisors:
        for x in (d, -d):
            if ((x == 1 or at_one % (x - 1) == 0)
                    and (x == -1 or at_minus_one % (x + 1) == 0)
                    and f(x) == 0):
                roots.add(x)
    return sorted(roots)


# -- factorization -----------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the primes up to 37 as bases, for an n > 37 with no
    prime factor up to 37; deterministic for n < 3.3 * 10^24."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, c: int) -> int:
    """A divisor of the composite n by Pollard's rho on x^2 + c with Floyd's
    cycle test; n itself when this c fails."""
    x = y = 2
    g = 1
    while g == 1:
        x = (x * x + c) % n
        y = (y * y + c) % n
        y = (y * y + c) % n
        g = gcd(x - y, n)
    return g


def factorize(n: int) -> dict[int, int]:
    """|n| as {prime: exponent}: the primes up to 37 divided out, then
    Miller-Rabin and Pollard's rho on what is left; ValueError for 0."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        c = 1
        while (g := _rho(m, c)) == m:
            c += 1
        stack += [g, m // g]
    return factors


def reference_factorize(n: int) -> dict[int, int]:
    """|n| as {prime: exponent}, by trial division by 2 and then every odd d
    up to the square root of what is left; ValueError for 0."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def reference_short_integral_model(curve: WeierstrassCurve) -> ShortIntegralModel:
    """The integral short model with the least scale u at every prime: the
    reduced denominators of -27 c4 and -54 c6 are factored into primes, and
    p^k enters u for the least k with 4k and 6k at least the exponents of p;
    then (p^4, p^6) pairs are stripped at 2 and 3."""
    d, (n1, n2, n3, n4, n6) = _cleared(
        (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    dd = d * d
    b2 = n1 * n1 + 4 * n2 * d
    b4 = 2 * n4 * d + n1 * n3
    b6 = n3 * n3 + 4 * n6 * d
    scaled = []
    exps: dict[int, int] = {}
    for num, den, weight in (
            (-27 * (b2 * b2 - 24 * b4 * dd), dd * dd, 4),
            (54 * (b2 ** 3 - 36 * b2 * b4 * dd + 216 * b6 * dd * dd),
             dd ** 3, 6)):
        g = gcd(num, den)
        scaled.append((num // g, den // g, weight))
        for p, e in factorize(den // g).items():
            exps[p] = max(exps.get(p, 0), -(-e // weight))
    u = 1
    for p, k in exps.items():
        u *= p ** k
    (a, a_rem), (b, b_rem) = (divmod(num * u ** weight, den)
                              for num, den, weight in scaled)
    if a_rem or b_rem:
        raise ArithmeticError("integral scaling left a fraction")
    if 4 * a ** 3 + 27 * b ** 2 == 0:
        raise ValueError("integral model of a singular curve")
    v = 1
    for p in (2, 3):
        while (a == 0 or a % p ** 4 == 0) and (b == 0 or b % p ** 6 == 0):
            a //= p ** 4
            b //= p ** 6
            v *= p
    return ShortIntegralModel(a=a, b=b, scale=Fraction(u, v), source=curve)


# -- resultants -----------------------------------------------------------------

def resultant(f: QPoly, g: QPoly) -> Fraction:
    """Resultant of two univariate polynomials over Q, zero iff f and g
    share a root over the closure, on the package's integer subresultant PRS
    (`exactmath._int_resultant`): Res(l f, m g) = l^deg g m^deg f Res(f, g)
    with the denominators l and m cleared once."""
    if f.is_zero() and g.is_zero():
        raise ValueError("resultant of two zero polynomials is undefined")
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    lam, fs = _cleared(f.coeffs)
    mu, gs = _cleared(g.coeffs)
    return Fraction(_int_resultant(fs, gs), lam ** g.degree * mu ** f.degree)


def sylvester_resultant(f: QPoly, g: QPoly) -> Fraction:
    """Resultant as the determinant of the Sylvester matrix, by exact
    Gaussian elimination.  Independent of the subresultant PRS that
    `resultant` runs, which is checked against it.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("resultant of two zero polynomials is undefined")
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    m, n = f.degree, g.degree
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - i - len(fc)))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - i - len(gc)))
    return _det_fraction(rows)


def _det_fraction(rows: list) -> Fraction:
    """Determinant over Q by Gaussian elimination with partial pivoting by
    nonzero entry (exact arithmetic, so any nonzero pivot works)."""
    n = len(rows)
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, n):
            factor = rows[r][col] / pv
            if factor:
                rowr = rows[r]
                rowc = rows[col]
                for k in range(col, n):
                    rowr[k] -= factor * rowc[k]
    return det
