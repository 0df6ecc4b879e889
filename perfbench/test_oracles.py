"""Tests of the benchmark's own oracles.  Run from the repository root:

    python3 -m pytest perfbench/test_oracles.py
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

CURVE_244 = tuple(Fraction(v) for v in (0, 1, 0, -9, 7))


def count_points_brute(coeffs, p: int) -> int:
    """#E(F_p) by trying every (x, y)."""
    a1, a2, a3, a4, a6 = (q.numerator * pow(q.denominator, -1, p) % p for q in coeffs)
    return 1 + sum(
        1 for x in range(p) for y in range(p)
        if (y * y + a1 * x * y + a3 * y
            - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0)


def test_published_pairs_count_246():
    for c, a in oracles.PUBLISHED_246:
        assert oracles.preimage_counts(oracles.parse(c), oracles.parse(a), 3) == (2, 4, 6)


def test_perturbed_pair_does_not_count_246():
    c, a = (oracles.parse(v) for v in oracles.PUBLISHED_246[3])
    counts = oracles.preimage_counts(c, oracles.add(a, (1, 10 ** 6)), 3)
    assert not oracles.meets(counts, (2, 4, 6))
    counts = oracles.preimage_counts(oracles.add(c, (1, 10 ** 6)), a, 3)
    assert not oracles.meets(counts, (2, 4, 6))


def test_generating_pairs_reproduce_published_pairs():
    heights = []
    for c_text, a_text in oracles.PUBLISHED_246:
        c, a = oracles.parse(c_text), oracles.parse(a_text)
        pairs = oracles.generating_pairs(c, a)
        assert pairs
        for p1, p2 in pairs:
            assert oracles.add(oracles.mul(p1, p1), oracles.mul(p2, p2)) == oracles.mul(c, (-2, 1))
            assert oracles.thirdpair_values(p1, p2) == (c, a)
        heights.append(min(max(oracles.height(p1), oracles.height(p2))
                           for p1, p2 in pairs))
    # the largest generating pair sets the published rediscovery bound
    assert max(heights) == 485
    assert sorted(heights) == [64, 80, 160, 176, 209, 464, 485]


def test_zero_preimage_counts_once():
    # f_0^k(x) = 0 has the single pre-image 0 at every level
    assert oracles.preimage_counts((0, 1), (0, 1), 3) == (1, 1, 1)
    # x^2 - 1 = 0 gives +-1, then x^2 - 1 = 1 and x^2 - 1 = -1 give 0 only
    assert oracles.preimage_counts((-1, 1), (0, 1), 2) == (2, 1)


def test_fraction_list_size_matches_totient_sum():
    for bound in (1, 2, 7, 30):
        frs = oracles.fractions_by_height(bound)
        assert len(frs) == len(set(frs)) == oracles.fraction_count(bound)
        assert all(oracles.height(f) <= bound for f in frs)


def test_point_count_matches_brute_count_on_curve_244():
    for p in oracles.good_primes(CURVE_244, 8, start=3):
        assert oracles.count_points(CURVE_244, p) == count_points_brute(CURVE_244, p)


def test_point_count_with_cross_terms():
    coeffs = tuple(Fraction(v) for v in (1, -1, 1, 3, Fraction(5, 7)))
    for p in oracles.good_primes(coeffs, 6, start=3):
        assert oracles.count_points(coeffs, p) == count_points_brute(coeffs, p)


def test_four_torsion_section_on_two_four_fiber():
    a = Fraction(3, 5)
    coeffs = (Fraction(0), 4 * a - 1, Fraction(0), 16 * a, 64 * a * a - 16 * a)
    assert oracles.on_curve(coeffs, Fraction(2), 8 * a + 2)
    assert not oracles.on_curve(coeffs, Fraction(2), 8 * a + 3)
    for p in oracles.good_primes(coeffs, 5):
        assert oracles.count_points(coeffs, p) % 4 == 0
