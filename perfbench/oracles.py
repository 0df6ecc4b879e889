"""Checks made apart from quadpreim: nothing here imports the package.

Rationals are (numerator, denominator) pairs of Python ints in lowest terms
with a positive denominator, so the pre-image counter and the orbit
arithmetic use integers and isqrt only.  The elliptic-curve helpers take
coefficients and coordinates as anything with .numerator/.denominator.
"""

from __future__ import annotations

from math import gcd, isqrt

# The seven (c, a) pairs with a full (2, 4, 6) arrangement, as published.
PUBLISHED_246 = (
    ("-5248/2025", "726745984/284765625"),
    ("-17536/5625", "878382976/244140625"),
    ("-9153/6400", "-437896611/400000000"),
    ("-24361/14400", "-42/25"),
    ("-20817/25600", "-1078371711/6400000000"),
    ("-180625/97344", "2845625/5483712"),
    ("-158848/99225", "20844352384/683722265625"),
)


# ---------------------------------------------------------------------------
# integer rationals
# ---------------------------------------------------------------------------

def rat(n: int, d: int = 1) -> tuple[int, int]:
    if d == 0:
        raise ZeroDivisionError("zero denominator")
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return n // g, d // g


def parse(text: str) -> tuple[int, int]:
    num, _, den = text.strip().partition("/")
    return rat(int(num), int(den) if den else 1)


def add(x, y):
    return rat(x[0] * y[1] + y[0] * x[1], x[1] * y[1])


def sub(x, y):
    return rat(x[0] * y[1] - y[0] * x[1], x[1] * y[1])


def mul(x, y):
    return rat(x[0] * y[0], x[1] * y[1])


def neg(x):
    return (-x[0], x[1])


def height(x) -> int:
    return max(abs(x[0]), x[1])


def rat_root(x):
    """The nonnegative rational square root of x, or None."""
    n, d = x
    if n < 0:
        return None
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return (rn, rd)


# ---------------------------------------------------------------------------
# pre-images of x^2 + c
# ---------------------------------------------------------------------------

def preimage_counts(c, a, depth: int) -> tuple[int, ...]:
    """Distinct rational k-th pre-images of a under x^2 + c, k = 1..depth."""
    level = {a}
    counts = []
    for _ in range(depth):
        found = set()
        for y in level:
            r = rat_root(sub(y, c))
            if r is not None:
                found.add(r)
                found.add(neg(r))
        counts.append(len(found))
        level = found
    return tuple(counts)


def meets(counts, target) -> bool:
    return len(counts) >= len(target) and all(
        have >= want for have, want in zip(counts, target))


def orbit(c, x, n: int):
    """f_c^n(x)."""
    for _ in range(n):
        x = add(mul(x, x), c)
    return x


def thirdpair_values(p1, p2):
    """(c, a) of the third-pair candidate (p1, p2): p1^2 + c = s and
    p2^2 + c = -s give c = -(p1^2 + p2^2)/2, then a = f_c^2(s)."""
    sq1, sq2 = mul(p1, p1), mul(p2, p2)
    c = neg(mul(add(sq1, sq2), (1, 2)))
    s = mul(sub(sq1, sq2), (1, 2))
    return c, orbit(c, s, 2)


def generating_pairs(c, a) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every (p1, p2) of positive rationals with p1^2 + p2^2 = -2c whose
    third-pair candidate is (c, a): walk t = +-sqrt(a - c) and
    s = +-sqrt(t - c), and keep the s with both s - c and -s - c squares."""
    pairs = []
    t = rat_root(sub(a, c))
    for tt in ({t, neg(t)} if t is not None else ()):
        s = rat_root(sub(tt, c))
        for ss in ({s, neg(s)} if s is not None else ()):
            p1, p2 = rat_root(sub(ss, c)), rat_root(sub(neg(ss), c))
            if p1 and p2 and p1[0] and p2[0]:
                pairs.append((p1, p2))
    return sorted(pairs)


def fractions_by_height(bound: int) -> list[tuple[int, int]]:
    """Positive reduced fractions of height <= bound, by (height, value)."""
    out = [(1, 1)]
    for h in range(2, bound + 1):
        out += [(n, h) for n in range(1, h) if gcd(n, h) == 1]
        out += [(h, d) for d in range(h - 1, 0, -1) if gcd(h, d) == 1]
    return out


def totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def fraction_count(bound: int) -> int:
    """n = 2 * sum(phi(h), h <= bound) - 1, the size of the height list."""
    return 2 * sum(totient(h) for h in range(1, bound + 1)) - 1


# ---------------------------------------------------------------------------
# elliptic curves y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
# ---------------------------------------------------------------------------

def on_curve(coeffs, x, y) -> bool:
    a1, a2, a3, a4, a6 = coeffs
    return y * y + a1 * x * y + a3 * y == x ** 3 + a2 * x * x + a4 * x + a6


def _mod(q, p: int):
    """q mod p, or None when p divides the denominator."""
    if q.denominator % p == 0:
        return None
    return q.numerator * pow(q.denominator, -1, p) % p


def _reduce(coeffs, p: int):
    """Coefficients mod an odd prime p and the discriminant residue, or None
    if the model is not p-integral."""
    red = [_mod(q, p) for q in coeffs]
    if None in red:
        return None
    a1, a2, a3, a4, a6 = red
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = (-b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % p
    return red, (b2, b4, b6), disc


def count_points(coeffs, p: int) -> int:
    """#E(F_p), point at infinity included, for an odd prime p at which
    the model is p-integral: completing the square turns the model into
    Y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, and each x contributes its number
    of square roots."""
    reduced = _reduce(coeffs, p)
    if reduced is None:
        raise ValueError("model is not integral at %d" % p)
    _, (b2, b4, b6), _ = reduced
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    return 1 + sum(roots[(4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % p]
                   for x in range(p))


def good_primes(coeffs, how_many: int, start: int = 5) -> list[int]:
    """The first primes p >= start where the model has good reduction."""
    out = []
    p = start
    while len(out) < how_many:
        if all(p % q for q in range(2, isqrt(p) + 1)):
            reduced = _reduce(coeffs, p)
            if reduced is not None and reduced[2] != 0:
                out.append(p)
        p += 1
    return out
