import json
import pickle
import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest

from quadpreim import dynamics
from quadpreim.dynamics import (
    CriticalData,
    PreimageTree,
    critical_avalues,
    critical_poly,
    iterate,
    preimage_tree,
)
from quadpreim.exactmath import QPoly
from reference import (
    height,
    is_critical_value,
    preimages,
    reference_tree,
    reference_tree_json,
)

SEED = 424242
print("test_dynamics random seed:", SEED)


def F(n, d=1):
    return Fraction(n, d)


PAIR4_C = F(-24361, 14400)
PAIR4_A = F(-42, 25)


def test_iterate_examples():
    assert iterate(-2, 0, 3) == 2
    assert iterate(PAIR4_C, F(13, 120), 1) == PAIR4_A
    assert iterate(0, 3, 4) == 43046721
    assert iterate(5, F(1, 2), 0) == F(1, 2)


def _plain_iterate(c, x, n):
    for _ in range(n):
        x = x * x + c
    return x


def test_iterate_matches_fraction_loop():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        c = F(rng.randint(-30, 30), rng.randint(1, 12))
        x = F(rng.randint(-12, 12), rng.randint(1, 6))
        n = rng.randint(0, 5)
        got = iterate(c, x, n)
        assert isinstance(got, Fraction)
        assert got == _plain_iterate(c, x, n)


def test_preimages_examples():
    assert preimages(PAIR4_C, F(13, 120)) == (F(161, 120), F(-161, 120))
    assert preimages(1, 0) == ()
    assert preimages(-2, -2) == (F(0),)


def test_preimages_brute_force_oracle():
    # every p/q (either sign) of height <= 50 satisfying x^2 + c = y must be
    # found, and nothing else
    cases = [(F(-24361, 14400), F(13, 120)), (F(0), F(4)), (F(1, 2), F(3, 4)),
             (F(-2), F(-1)), (F(-5, 4), F(11, 4)), (F(0), F(1, 4))]
    candidates = [F(n, d) for d in range(1, 51) for n in range(-50, 51)
                  if Fraction(n, d).denominator == d]
    assert all(height(x) <= 50 for x in candidates)
    for c, y in cases:
        got = set(preimages(c, y))
        for x in candidates:
            assert (x in got) == (x * x + c == y)
        # returned values really are one-step pre-images
        for r in got:
            assert iterate(c, r, 1) == y


def level_values(tree, k):
    return tuple(node.value for node in tree.levels[k])


def test_tree_for_full_246_pair():
    tree = preimage_tree(PAIR4_C, PAIR4_A, 3)
    assert level_values(tree, 0) == (F(13, 120), F(-13, 120))
    assert level_values(tree, 1) == (F(161, 120), F(151, 120), F(-151, 120), F(-161, 120))
    assert level_values(tree, 2) == (F(209, 120), F(79, 120), F(71, 120),
                                     F(-71, 120), F(-79, 120), F(-209, 120))
    assert tree.signature() == (2, 4, 6)
    assert tree.union_count() == 12


def test_tree_periodic_and_empty():
    tree = preimage_tree(0, 1, 3)
    for level in tree.levels:
        assert tuple(n.value for n in level) == (F(1), F(-1))
    assert tree.signature() == (2, 2, 2)
    assert tree.union_count() == 2

    empty = preimage_tree(5, 0, 1)
    assert empty.signature() == (0,)
    assert preimage_tree(5, 0, 2).signature() == (0, 0)


def test_tree_roundtrip_property():
    rng = random.Random(SEED)
    for _ in range(40):
        c = F(rng.randint(-30, 30), rng.randint(1, 12))
        x0 = F(rng.randint(-12, 12), rng.randint(1, 6))
        depth = rng.randint(1, 4)
        a = iterate(c, x0, depth)
        tree = preimage_tree(c, a, depth)
        sig = tree.signature()
        assert len(sig) == depth
        for k, level in enumerate(tree.levels, start=1):
            assert sig[k - 1] <= 2 ** k
            for node in level:
                assert iterate(c, node.value, k) == a
                assert node.degenerate == (node.value == 0)
            values = [n.value for n in level]
            assert values == sorted(values, reverse=True)
            assert len(set(values)) == len(values)
        for k in range(1, depth):
            assert sig[k] <= 2 * sig[k - 1]
        # parent links point at the actual one-step image
        for k in range(1, depth):
            for node in tree.levels[k]:
                parent_value = tree.levels[k - 1][node.parent].value
                assert node.value ** 2 + c == parent_value


def test_tree_matches_reference_walk():
    # the integer walk against the Fraction + rat_sqrt walk, field for field:
    # the degenerate root 0, an empty first level, orbits (non-empty trees)
    # and random targets, at depths 1 to 5
    rng = random.Random(SEED + 2)
    cases = [(F(-2), F(-2), 3), (F(-2), F(2), 5), (F(5), F(0), 2),
             (F(0), F(0), 4), (PAIR4_C, PAIR4_A, 5)]
    for _ in range(400):
        c = F(rng.randint(-30, 30), rng.randint(1, 12))
        depth = rng.randint(1, 5)
        if rng.random() < 0.75:
            x0 = F(rng.randint(-12, 12), rng.randint(1, 6))
            a = _plain_iterate(c, x0, rng.randint(1, depth))
        else:
            a = F(rng.randint(-40, 40), rng.randint(1, 12))
        cases.append((c, a, depth))
    full = degenerate = empty = 0
    for c, a, depth in cases:
        tree = preimage_tree(c, a, depth)
        assert tree == reference_tree(c, a, depth)
        sig = tree.signature()
        full += sig[-1] > 0
        empty += sig[0] == 0
        degenerate += any(n.degenerate for level in tree.levels for n in level)
    assert full >= 100 and empty >= 50 and degenerate >= 5


def test_level_order_matches_fraction_order():
    # the int cross-multiplication order of tree_from_levels against the
    # Fraction order: on (n, d) pairs reduced or not, signs and 0 included,
    # and on seeded trees whose third level is {p1, -p1, p2, -p2} (the
    # third-pair shape, c = -(p1^2 + p2^2)/2), with p2 = 0 among them
    rng = random.Random(SEED + 3)
    for _ in range(200):
        pairs = list({(rng.randint(-9, 9) * k, rng.randint(1, 9) * k)
                      for k in (1, 2, 3) for _ in range(3)})
        ordered = sorted(pairs, key=cmp_to_key(dynamics._descending))
        assert ([F(*p) for p in ordered]
                == sorted((F(*p) for p in pairs), reverse=True))
    wide = zero = 0
    for _ in range(200):
        p1 = F(rng.randint(1, 12), rng.randint(1, 6))
        p2 = F(rng.randint(0, 12), rng.randint(1, 6))
        c = -(p1 * p1 + p2 * p2) / 2
        s = (p1 * p1 - p2 * p2) / 2
        a = (s * s + c) ** 2 + c
        depth = rng.randint(3, 4)
        tree = preimage_tree(c, a, depth)
        assert tree == reference_tree(c, a, depth)
        wide += len(tree.levels[2]) >= 4
        zero += any(n.degenerate for level in tree.levels for n in level)
    assert wide >= 150 and zero >= 10


def test_tree_json_roundtrip():
    tree = preimage_tree(PAIR4_C, PAIR4_A, 3)
    again = PreimageTree.from_json(tree.as_json())
    assert again == tree


def _scaled_tree(c, a, depth, k, m):
    # tree_from_levels of (c, a) with c and a given times k and level 1
    # times m, unreduced, and the levels below walked from that level 1
    cp = (c.numerator * k, c.denominator * k)
    ap = (a.numerator * k, a.denominator * k)
    (first,) = dynamics.preimage_levels(cp, (ap,), 1)
    level1 = {(n * m, d * m): ap for n, d in first}
    rest = dynamics.preimage_levels(cp, list(level1), depth - 1)
    return dynamics.tree_from_levels(cp, ap, [level1, *rest])


def _oracle_cases(rng, count):
    # c = 0, a = c (level 1 is {0}), empty trees, orbits, and random pairs
    cases = [(F(0), F(0), 3), (F(0), F(4), 3), (F(-2), F(-2), 4),
             (F(5), F(0), 2), (F(1, 4), F(1, 2), 3), (PAIR4_C, PAIR4_A, 4),
             (PAIR4_C, PAIR4_C, 3)]
    for _ in range(count):
        c = F(rng.randint(-30, 30), rng.randint(1, 12))
        depth = rng.randint(1, 4)
        kind = rng.randrange(4)
        if kind == 0:
            a = c
        elif kind == 1:
            a = _plain_iterate(c, F(rng.randint(-12, 12), rng.randint(1, 6)),
                               rng.randint(1, depth))
        else:
            a = F(rng.randint(-40, 40), rng.randint(1, 12))
        cases.append((c, a, depth))
    return cases


def test_int_tree_matches_fraction_oracle():
    # the int tree's JSON, signature, union and equality against the
    # Fraction walk formatted with format_rat: reduced input, and c, a and
    # level 1 given unreduced to tree_from_levels
    rng = random.Random(SEED + 4)
    empty = degenerate = scaled = 0
    for c, a, depth in _oracle_cases(rng, 300):
        expected = reference_tree_json(c, a, depth)
        reference = reference_tree(c, a, depth)
        for k, m in ((1, 1), (rng.randint(2, 9), rng.randint(2, 9))):
            tree = _scaled_tree(c, a, depth, k, m)
            assert tree.as_json() == expected
            assert list(tree.signature()) == expected["signature"]
            assert tree.union_count() == expected["union"]
            assert tree == reference and hash(tree) == hash(reference)
            assert tree == preimage_tree(c, a, depth)
            assert (tree.c, tree.a) == (c, a)
            assert [[n.value for n in level] for level in tree.levels] == [
                [Fraction(v) for v in level] for level in expected["levels"]]
            scaled += k > 1 and tree.signature()[0] > 0
        empty += sum(tree.signature()) == 0
        degenerate += any(n.degenerate for level in tree.levels for n in level)
    assert empty >= 30 and degenerate >= 30 and scaled >= 30
    # the periodic root 1/2 of x^2 + 1/4 sits at levels 1 and 2: given as
    # (2, 4) at level 1, it still counts once in the union
    tree = _scaled_tree(F(1, 4), F(1, 2), 2, 1, 2)
    assert tree.values == (((1, 2), (-1, 2)), ((1, 2), (-1, 2)))
    assert tree.union_count() == 2 and tree.as_json()["union"] == 2
    assert tree != _scaled_tree(F(1, 4), F(1, 2), 3, 1, 2)


def test_tree_from_json_and_pickle_round_trips():
    # both routes read and write the int pairs: a tree whose Fraction view
    # was read pickles to the same bytes as one never read, and JSON with
    # unreduced or sign-flipped values parses to lowest terms
    rng = random.Random(SEED + 5)
    for c, a, depth in _oracle_cases(rng, 100):
        tree = preimage_tree(c, a, depth)
        blob = pickle.dumps(tree)
        assert tree.levels is tree.levels and tree.c == c
        assert pickle.dumps(tree) == blob
        for again in (pickle.loads(blob),
                      PreimageTree.from_json(json.loads(json.dumps(tree.as_json())))):
            assert again == tree and again.as_json() == tree.as_json()
            assert again.levels == tree.levels
    data = preimage_tree(F(-1), F(0), 2).as_json()
    data.update(c="-3/3", a="0/-7", levels=[["-2/-2", "-1"], data["levels"][1]])
    tree = PreimageTree.from_json(data)
    assert tree == preimage_tree(F(-1), F(0), 2)
    assert all(gcd(*v) == 1 and v[1] > 0 for level in tree.values for v in level)
    data["parents"] = [[0], [0]]
    with pytest.raises(ValueError):
        PreimageTree.from_json(data)


def test_tree_rejects_bad_depth():
    with pytest.raises(ValueError):
        preimage_tree(0, 1, 0)


def test_critical_poly_displayed_values():
    assert critical_poly(2) == QPoly([1, 2])
    assert critical_poly(3) == QPoly([1, 2, 6, 4])
    assert critical_poly(4) == QPoly([1, 2, 6, 20, 30, 36, 28, 8])


def test_critical_poly_degree_and_constant_term():
    for n in range(2, 9):
        p = critical_poly(n)
        assert p.degree == 2 ** (n - 1) - 1
        assert p[0] == 1


def test_critical_avalues():
    assert critical_avalues(2).avalue_minpoly == QPoly([1, 4])
    assert critical_avalues(3).avalue_minpoly == QPoly([23, 104, 368, 256])
    data4 = critical_avalues(4)
    assert isinstance(data4, CriticalData)
    assert data4.avalue_minpoly.degree == 7
    assert data4.crit_poly_c == critical_poly(4)
    # integer, primitive, positive leading coefficient
    mp = data4.avalue_minpoly
    assert all(c.denominator == 1 for c in mp.coeffs)
    assert mp.lc() > 0


def test_critical_avalue_roots_really_are_critical():
    # every rational root of the level-2 polynomial comes from a critical
    # parameter: c = -1/2 maps to a = -1/4
    assert iterate(F(-1, 2), 0, 2) == F(-1, 4)
    assert critical_poly(2).eval(F(-1, 2)) == 0
    assert critical_avalues(2).avalue_minpoly.eval(F(-1, 4)) == 0


def test_is_critical_value():
    assert is_critical_value(F(-1, 4), 2) is True
    assert is_critical_value(F(0), 4) is False
    assert is_critical_value(F(2), 4) is False
    with pytest.raises(ValueError):
        is_critical_value(F(0), 1)
