"""Iteration of f_c(x) = x^2 + c, rational pre-image trees, arrangement
signatures, and the critical-parameter polynomials.

A value x is an N-th pre-image of a under f_c when f_c^N(x) = a.  Rational
pre-images of y under one step are the rational square roots of y - c, so a
pre-image tree is built level by level with exact square testing only.

The level walk runs on reduced integer pairs.  For y = yn/yd and
c = cn/cd, y - c = num/den with num = yn*cd - cn*yd and den = yd*cd; after
dividing both by their gcd, y - c is a rational square exactly when num and
den are both perfect squares, and then +-isqrt(num)/isqrt(den) is already in
lowest terms.  Since v^2 + c = y, the parent of a pre-image v is a function
of v, so a level is a map from each root to the value it came from, and the
order in which a level's parents are visited does not matter.  A tree is
built from its level maps (tree_from_levels) and kept on ints: each level is
ordered by comparing n1 d2 with n2 d1 (d > 0), and its values stay reduced
(n, d) pairs; Fractions are made only where a caller reads c, a or levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache, partial
from math import gcd, isqrt
from typing import Iterable, Iterator

from .exactmath import (
    Pair,
    QPoly,
    RatLike,
    eliminate_c,
    format_pair,
    lowest_terms,
    parse_pair,
)
from .exactmath import rat_sqrt  # noqa: F401  traced by perfbench/run.py


def iterate(c: RatLike, x: RatLike, n: int) -> Fraction:
    """f_c^n(x); n = 0 returns x."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    c, x = Fraction(c), Fraction(x)
    return Fraction(*orbit((c.numerator, c.denominator),
                           (x.numerator, x.denominator), n))


def orbit(c: Pair, x: Pair, n: int) -> Pair:
    """f_c^n(x) on (n, d) pairs with d > 0, not reduced."""
    (cn, cd), (xn, xd) = c, x
    for _ in range(n):
        xn, xd = xn * xn * cd + cn * xd * xd, xd * xd * cd
    return xn, xd


@dataclass(frozen=True)
class TreeNode:
    value: Fraction
    parent: int          # index into the previous level (0 for level-1 nodes)
    degenerate: bool     # value == 0


@dataclass(frozen=True)
class PreimageTree:
    """Complete rational pre-image tree of a under f_c to a fixed depth, on
    ints: c_pair and a_pair, and values[k], the (k+1)-st pre-images sorted by
    value descending, are (n, d) pairs in lowest terms with d > 0, and
    parents[k][i] indexes the image of values[k][i] in the level before (0
    for level 1).  Values are deduplicated within a level only; the same
    value reappearing at several depths (periodic points) is kept per level,
    and union_count reports the number of distinct values across all levels.
    Equality, hashing, pickling and as_json read the ints; c, a and the
    TreeNode view `levels` are made as Fractions on first read."""

    c_pair: Pair
    a_pair: Pair
    values: tuple[tuple[Pair, ...], ...]
    parents: tuple[tuple[int, ...], ...]

    def __reduce__(self):
        return PreimageTree, (self.c_pair, self.a_pair, self.values, self.parents)

    @cached_property
    def c(self) -> Fraction:
        return Fraction(*self.c_pair)

    @cached_property
    def a(self) -> Fraction:
        return Fraction(*self.a_pair)

    @cached_property
    def levels(self) -> tuple[tuple[TreeNode, ...], ...]:
        return tuple(tuple(TreeNode(Fraction(*v), p, not v[0])
                           for v, p in zip(values, parents))
                     for values, parents in zip(self.values, self.parents))

    def signature(self) -> tuple[int, ...]:
        return tuple(map(len, self.values))

    def union_count(self) -> int:
        return len({v for level in self.values for v in level})

    def as_json(self) -> dict:
        return {
            "c": format_pair(*self.c_pair),
            "a": format_pair(*self.a_pair),
            "depth": len(self.values),
            "levels": [[format_pair(n, d) for n, d in level]
                       for level in self.values],
            "parents": list(map(list, self.parents)),
            "signature": list(map(len, self.values)),
            "union": self.union_count(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PreimageTree":
        # as_json prints every integer whole, so no digit bound applies
        read = partial(parse_pair, max_digits=None)
        values = tuple(tuple(map(read, level)) for level in data["levels"])
        parents = tuple(map(tuple, data["parents"]))
        if list(map(len, values)) != list(map(len, parents)):
            raise ValueError("tree levels and parents differ in shape")
        return cls(read(data["c"]), read(data["a"]), values, parents)


def preimage_levels(c: Pair, level: Iterable[Pair],
                    depth: int) -> Iterator[dict[Pair, Pair]]:
    """Yield the `depth` levels of the pre-image tree under f_c that follow
    the complete level `level` (the root a of the tree is the level (a,)),
    c and the level's values as (n, d) with d > 0.  Each is a map from every
    rational root (n, d), in lowest terms with d > 0, to the (n, d) of its
    one-step image."""
    cn, cd = c
    for _ in range(depth):
        found: dict[Pair, Pair] = {}
        for y in level:
            yn, yd = y
            num = yn * cd - cn * yd
            if num < 0:
                continue
            den = yd * cd
            g = gcd(num, den)
            num //= g
            den //= g
            rn = isqrt(num)
            if rn * rn != num:
                continue
            rd = isqrt(den)
            if rd * rd != den:
                continue
            found[(rn, rd)] = y
            if rn:
                found[(-rn, rd)] = y
        yield found
        level = found


def _descending(p: Pair, q: Pair) -> int:
    """Negative when n1/d1 = p lies above n2/d2 = q (d1, d2 > 0, reduced or
    not): the order of a level, by n2 d1 against n1 d2."""
    return q[0] * p[1] - p[0] * q[1]


def tree_from_levels(c: Pair, a: Pair,
                     levels: Iterable[dict[Pair, Pair]]) -> PreimageTree:
    """The PreimageTree of a under f_c from its level maps, as
    preimage_levels yields them from (a,): every root of level 1 maps to the
    pair a itself, and level 1 may be any complete level 1, reduced or not
    (d > 0 throughout).  Each level is ordered by value, descending, on ints
    (_descending); only c, a and level 1 can be unreduced, so only they take
    a gcd."""
    values, parents = [], []
    index = {a: 0}
    for found in levels:
        order = sorted(found, key=cmp_to_key(_descending))
        parents.append(tuple([index[found[v]] for v in order]))
        values.append(tuple(order))
        index = {v: k for k, v in enumerate(order)}
    if values:
        values[0] = tuple(map(lowest_terms, values[0]))
    return PreimageTree(lowest_terms(c), lowest_terms(a), tuple(values),
                        tuple(parents))


def preimage_tree(c: RatLike, a: RatLike, depth: int) -> PreimageTree:
    """The full rational pre-image tree of a under f_c to the given depth."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    c, a = Fraction(c), Fraction(a)
    c, a = (c.numerator, c.denominator), (a.numerator, a.denominator)
    return tree_from_levels(c, a, preimage_levels(c, (a,), depth))


# ---------------------------------------------------------------------------
# critical parameters and critical values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalData:
    """Level-N critical data: the derivative polynomial in c whose roots are
    the critical parameters, and the minimal polynomial (in a) of the
    corresponding critical values."""

    n: int
    crit_poly_c: QPoly
    avalue_minpoly: QPoly


@lru_cache(maxsize=None)
def _orbit_poly(n: int) -> QPoly:
    """f_c^n(0) as a polynomial in c (degree 2^(n-1))."""
    g = QPoly.x()                      # f_c(0) = c
    for _ in range(n - 1):
        g = g * g + QPoly.x()
    return g


def critical_poly(n: int) -> QPoly:
    """d(f_c^n(0))/dc as a polynomial in c; degree 2^(n-1) - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return _orbit_poly(n).derivative()


@lru_cache(maxsize=None)
def critical_avalues(n: int) -> CriticalData:
    """Critical values at level n, represented by the elimination of c from
    the critical-parameter equation and a = f_c^n(0).

    The output polynomial is normalized to integer coefficients, content 1,
    positive leading coefficient.  For n >= 3 the roots are irrational and
    are never floated; the minimal polynomial is the representation.
    """
    if n < 2:
        raise ValueError("critical a-values start at n = 2")
    minpoly = eliminate_c(critical_poly(n), _orbit_poly(n))
    return CriticalData(n=n, crit_poly_c=critical_poly(n), avalue_minpoly=minpoly)

