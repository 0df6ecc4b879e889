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
built from its level maps (tree_from_levels): each level is ordered by
comparing n1 d2 with n2 d1 (d > 0) on ints, and each node makes one Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import gcd, isqrt
from typing import Iterable, Iterator

from .exactmath import (
    QPoly,
    RatLike,
    eliminate_c,
    format_rat,
    parse_rat,
)
from .exactmath import rat_sqrt  # noqa: F401  traced by perfbench/run.py


Pair = tuple[int, int]


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
    """Complete rational pre-image tree of a under f_c to a fixed depth.

    levels[k] holds the (k+1)-st pre-images, canonically sorted by value
    descending.  Values are deduplicated within a level only; the same value
    reappearing at several depths (periodic points) is kept per level, and
    union_count reports the number of distinct values across all levels.
    """

    c: Fraction
    a: Fraction
    levels: tuple[tuple[TreeNode, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def signature(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    def union_count(self) -> int:
        return len({(node.value.numerator, node.value.denominator)
                    for level in self.levels for node in level})

    def as_json(self) -> dict:
        return {
            "c": format_rat(self.c),
            "a": format_rat(self.a),
            "depth": self.depth,
            "levels": [[format_rat(n.value) for n in level] for level in self.levels],
            "parents": [[n.parent for n in level] for level in self.levels],
            "signature": list(self.signature()),
            "union": self.union_count(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PreimageTree":
        c = parse_rat(data["c"])
        a = parse_rat(data["a"])
        levels = []
        for values, parents in zip(data["levels"], data["parents"]):
            level = tuple(TreeNode(parse_rat(v), p, parse_rat(v) == 0)
                          for v, p in zip(values, parents))
            levels.append(level)
        return cls(c=c, a=a, levels=tuple(levels))


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
    (_descending), and each node makes the one Fraction of its value."""
    nodes: list[tuple[TreeNode, ...]] = []
    index = {a: 0}
    for found in levels:
        order = sorted(found, key=cmp_to_key(_descending))
        nodes.append(tuple(TreeNode(Fraction(*v), index[found[v]], not v[0])
                           for v in order))
        index = {v: k for k, v in enumerate(order)}
    return PreimageTree(c=Fraction(*c), a=Fraction(*a), levels=tuple(nodes))


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

