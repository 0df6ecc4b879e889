import hashlib
import json
import os
import pickle
import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from quadpreim import cli, plans, search
from quadpreim.dynamics import orbit
from quadpreim.exactmath import format_pair, format_rat, parse_rat, rat_sqrt
from quadpreim.plans import _thirdpair_values, _two_square_mask
from quadpreim.search import (
    CheckpointError,
    Provenance,
    SearchConfig,
    SearchRecord,
    fractions_by_height,
    scan_forward,
    scan_thirdpair,
    verify_pair,
)
from reference import (
    forward_plan_values,
    height,
    reference_branch_mask,
    reference_branches,
    reference_fractions_by_height,
    reference_hit,
    reference_thirdpair_values,
    reference_tree,
    reference_tree_json,
    thirdpair_plan_values,
)

PAIR4 = (Fraction(-24361, 14400), Fraction(-42, 25))


def F(n, d=1):
    return Fraction(n, d)


def test_verify_pair_examples():
    rec = verify_pair(*PAIR4, target=(2, 4, 6), depth=3)
    assert rec is not None and rec.signature == (2, 4, 6)
    assert verify_pair(0, 1, (2, 4, 6), 3) is None
    rec1 = verify_pair(F(-5248, 2025), F(726745984, 284765625), (2, 4, 6), 3)
    assert rec1 is not None
    with pytest.raises(ValueError):
        verify_pair(0, 1, (2, 4, 6), 2)


def test_verify_pair_matches_reference_tree():
    # the early exit at the first short level, against the full reference
    # tree, for targets missed at each level and deeper-than-target trees
    rng = random.Random(31337)
    targets = [(), (1,), (2, 2), (2, 4), (2, 2, 4), (2, 4, 6), (0, 0, 1)]
    hits = 0
    for _ in range(300):
        c = F(rng.randint(-30, 30), rng.randint(1, 12))
        a = F(rng.randint(-12, 12), rng.randint(1, 6))
        for _ in range(rng.randint(0, 3)):
            a = a * a + c
        target = rng.choice(targets)
        depth = len(target) + rng.randint(0, 2) or 1
        rec = verify_pair(c, a, target, depth)
        assert (rec is not None) == reference_hit(c, a, target)
        if rec is not None:
            hits += 1
            assert rec.tree == reference_tree(c, a, depth)
            assert rec.signature == rec.tree.signature()
            assert (rec.c, rec.a) == (c, a) and rec.provenance == []
    assert hits >= 50


def test_fraction_enumeration():
    frs = fractions_by_height(6)
    assert frs[0] == 1
    assert len(frs) == len(set(frs))
    assert all(f > 0 and height(f) <= 6 for f in frs)
    heights = [height(f) for f in frs]
    assert heights == sorted(heights)
    expected = {F(n, d) for n in range(1, 7) for d in range(1, 7)
                if F(n, d).numerator == n and F(n, d).denominator == d}
    assert set(frs) == expected


def test_height_order_matches_reference():
    for bound in list(range(1, 61)) + [200]:
        nums, dens = plans._height_order(bound)
        ref = reference_fractions_by_height(bound)
        assert nums.dtype == dens.dtype == np.int64
        assert nums.tolist() == [f.numerator for f in ref]
        assert dens.tolist() == [f.denominator for f in ref]


def _thirdpair_fractions(n1, d1, n2, d2):
    # c of _thirdpair_values and a = f_c(t), each (n, d) with d > 0, as
    # Fractions
    c, t = _thirdpair_values(n1, d1, n2, d2)
    pairs = (c, t, orbit(c, t, 1))
    assert all(type(n) is type(d) is int and d > 0 for n, d in pairs)
    return F(*c), F(*pairs[2])


def test_thirdpair_candidate_algebra():
    assert _thirdpair_fractions(209, 120, 71, 120) == PAIR4
    # p1 = p2 collapses the second level; c is still well defined
    c2, _ = _thirdpair_fractions(1, 2, 1, 2)
    assert c2 == -F(1, 4)
    # the integer formula against Fraction arithmetic, far past any height
    rng = random.Random(4242)
    for _ in range(500):
        p1, p2 = (F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
                  for _ in range(2))
        assert (_thirdpair_fractions(p1.numerator, p1.denominator,
                                     p2.numerator, p2.denominator)
                == reference_thirdpair_values(p1, p2))


def test_scan_thirdpair_finds_published_pair():
    cfg = SearchConfig(height_bound=80, depth=3, target=(2, 4, 6))
    hits = {(r.c, r.a) for r in scan_thirdpair(cfg)}
    assert (F(-5248, 2025), F(726745984, 284765625)) in hits
    assert (F(-9153, 6400), F(-437896611, 400000000)) in hits


def test_scan_thirdpair_trivial_bound_empty():
    cfg = SearchConfig(height_bound=1, depth=3, target=(2, 4, 6))
    assert list(scan_thirdpair(cfg)) == []


def test_scan_rejects_short_target():
    # a target short of depth 3, or asking for fewer than three second
    # pre-images (level 2 is {s, -s} unless u is rational), goes to forward
    for target in ((2, 4), (2, 2, 4), (2, 0, 6), (0, 0, 0)):
        with pytest.raises(search.SearchArgumentError,
                           match="--strategy forward"):
            list(scan_thirdpair(SearchConfig(height_bound=5, depth=3,
                                             target=target)))


def test_config_invariants():
    with pytest.raises(ValueError):
        SearchConfig(height_bound=0, depth=3, target=(2, 4, 6))
    with pytest.raises(ValueError):
        SearchConfig(height_bound=5, depth=2, target=(2, 4, 6))
    with pytest.raises(ValueError):
        SearchConfig(height_bound=5, depth=0, target=())
    # a forward orbit's numbers double in digits at each level: depth is capped
    SearchConfig(height_bound=2, depth=16, target=(2, 2, 2))
    with pytest.raises(search.SearchArgumentError):
        SearchConfig(height_bound=2, depth=17, target=(2, 2, 2))
    with pytest.raises(ValueError):
        SearchConfig(height_bound=5, depth=3, target=(2, 4, 6), shard=(3, 3))
    # one cap for every scan, at least the reach of the planned (k, m) hunt;
    # no scan near it runs here
    SearchConfig(height_bound=2000, depth=3, target=(2, 4, 6))
    with pytest.raises(search.SearchArgumentError):
        SearchConfig(height_bound=2001, depth=3, target=(2, 2, 4))
    # the shard total is capped before a filter packs a bit matrix per class
    SearchConfig(height_bound=5, depth=3, target=(2, 4, 6), shard=(4095, 4096))
    with pytest.raises(search.SearchArgumentError):
        SearchConfig(height_bound=5, depth=3, target=(2, 4, 6), shard=(0, 4097))


def _brute_thirdpair(bound, target):
    # independent oracle: plain double loop over every reduced fraction
    # pair, each settled by the reference tree
    frs = reference_fractions_by_height(bound)
    brute = set()
    for i in range(len(frs)):
        for j in range(i + 1):
            c, a = reference_thirdpair_values(frs[i], frs[j])
            if reference_hit(c, a, target):
                brute.add((c, a))
    return brute


def test_scan_matches_brute_force_oracle():
    cfg = SearchConfig(height_bound=20, depth=3, target=(2, 4, 6))
    scanned = {(r.c, r.a) for r in scan_thirdpair(cfg)}
    assert scanned == _brute_thirdpair(20, (2, 4, 6))

    # a weaker target has hits even at tiny bounds, so this comparison is
    # exercised in the non-empty regime too
    cfg2 = SearchConfig(height_bound=12, depth=3, target=(2, 4, 4))
    scanned2 = {(r.c, r.a) for r in scan_thirdpair(cfg2)}
    brute2 = _brute_thirdpair(12, (2, 4, 4))
    assert len(scanned2) >= 8
    assert scanned2 == brute2

    # exactly three second pre-images: u = 0 or a rational pair +/-u, so N is
    # a square and the filter drops no hit
    cfg3 = SearchConfig(height_bound=12, depth=3, target=(2, 3, 4))
    scanned3 = {(r.c, r.a) for r in scan_thirdpair(cfg3)}
    assert len(scanned3) == 8
    assert scanned3 == _brute_thirdpair(12, (2, 3, 4))


def test_fast_path_frozen_regression():
    # values confirmed once against the plain-loop route at the same bound
    cfg = SearchConfig(height_bound=64, depth=3, target=(2, 4, 4))
    hits = [(str(r.c), str(r.a)) for r in scan_thirdpair(cfg)]
    assert len(hits) == 130
    assert hits[0] == ("-5/16", "-1/4")
    assert hits[1] == ("-10/9", "-2/3")
    assert hits[-1] == ("-3970/81", "1546834/729")


def test_filter_tables_match_direct_squareness():
    # seeded coprime pairs with entries far past any height bound, a quarter
    # of the denominators divisible by q: the class of each fraction follows
    # its definition, every point of P^1(Z/m) occurs, and the table at the two
    # classes says whether N, computed on Python ints, is a square mod m
    rng = random.Random(8128)

    def fraction(q):
        while True:
            n, d = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
            if rng.random() < 0.25:
                d = q * rng.randint(1, 10 ** 6 // q)
            if gcd(n, d) == 1:
                return n, d

    for m, q in plans._MODULI:
        classes, table = plans._filter_tables(plans._pair_form, m, q)
        classes, table = classes.tolist(), table[0].tolist()
        squares = {r * r % m for r in range(m)}
        seen = set()
        for _ in range(20000):
            (n1, d1), (n2, d2) = fraction(q), fraction(q)
            ks = []
            for n, d in ((n1, d1), (n2, d2)):
                k = classes[n % m][d % m]
                assert k == (n * pow(d, -1, m) % m if d % q
                             else m + d * pow(n, -1, m) % m // q)
                ks.append(k)
            x, y, e = n1 * d2, n2 * d1, d1 * d2
            big = 4 * e * e * (x * x + y * y) - (x * x - y * y) ** 2
            assert table[ks[0]][ks[1]] == (big % m in squares), (m, n1, d1, n2, d2)
            seen.update(ks)
        assert seen == set(range(m + m // q))


def _direct_forms(forms, m, row, col):
    # the forms at the row and column fractions, on Python ints reduced mod
    # m: N at p1 = row, p2 = col; or G_k, k in range(*forms), at c = row,
    # x0 = col, the orbit as the filter defines it
    (n1, d1), (n2, d2) = row, col
    if forms == "N":
        x, y, e = n1 * d2, n2 * d1, d1 * d2
        return [(4 * e * e * (x * x + y * y) - (x * x - y * y) ** 2) % m]
    (u, v), (p, q), values = row, col, []
    for k in range(1, forms[1]):
        p, q = (p * p * v + u * q * q) % m, q * q * v % m
        if k >= forms[0]:
            values.append(-(p * v + u * q) % m)
    return values


def test_kind_tables_merge_equal_rows():
    for forms in ("N", (1, 2), (2, 3), (3, 4)):
        _check_kind_tables(forms)


def _check_kind_tables(forms):
    # at a fraction of every pair of P^1(Z/m) classes (n/1 for class n < m,
    # 1/((k - m) q) for class k >= m), table[f, row kind, column kind] says
    # whether form f (N, or G_k for k in range(*forms)) is a square mod m;
    # rows and columns merge on their own axes, so no two row kinds, and no
    # two column kinds, agree
    args = (plans._pair_form,) if forms == "N" else (plans._branch_forms, *forms)
    counts = []
    for m, q in plans._MODULI:
        row_kinds, col_kinds, table = plans._kind_tables(args[0], m, q, *args[1:])
        squares = {r * r % m for r in range(m)}
        points = [(k, 1) if k < m else (1, (k - m) * q) for k in range(m + m // q)]
        for row in points:
            r = row_kinds[row[0] % m, row[1] % m]
            for col in points:
                c = col_kinds[col[0] % m, col[1] % m]
                assert table[:, r, c].tolist() == [
                    value in squares for value in _direct_forms(forms, m, row, col)]
        rows = table.transpose(1, 0, 2).reshape(len(table[0]), -1)
        cols = table.transpose(2, 0, 1).reshape(table.shape[2], -1)
        assert len({row.tobytes() for row in rows}) == len(rows)
        assert len({col.tobytes() for col in cols}) == len(cols)
        if forms == "N":
            assert np.array_equal(row_kinds, col_kinds)
        counts.append(len(rows))
    if forms == "N":
        assert counts == [7, 7, 5, 6, 7, 8, 9, 11, 13, 16, 17, 20]


def test_stacked_kind_rows():
    # N stacks 126 rows, one form; the forward forms G_1, G_2 and G_3 (depth
    # 4, first wide level 4) stack 307 row kinds a form, so the offsets of
    # that plan need more than uint8
    plan = plans._ThirdPairPlan(SearchConfig(height_bound=40, depth=3,
                                              target=(2, 4, 6)))
    assert plan.offsets.shape[1:] == (1, 12) and plan.offsets.max() < 126
    assert plan.offsets.dtype == np.uint8
    assert [bits.shape[0] for bits in plan.bits] == [126]
    # _kind_pairs gathers from these with ndarray.take, which first copies a
    # source that is not C-contiguous, in full
    assert plan.offsets.flags.c_contiguous
    assert all(bits.flags.c_contiguous for bits in plan.bits)
    rows = [len(plans._kind_tables(plans._branch_forms, m, q, 1, 4)[2][0])
            for m, q in plans._MODULI]
    assert sum(rows) == 307
    plan = plans._ForwardPlan(SearchConfig(height_bound=4, depth=4,
                                            target=(2, 2, 2, 4)))
    assert plan.offsets.shape[1:] == (3, 12) and plan.offsets.max() >= 2 * 307
    assert plan.offsets.dtype == np.uint16
    assert [bits.shape[0] for bits in plan.bits] == [3 * 307]
    assert plan.offsets.flags.c_contiguous
    assert all(bits.flags.c_contiguous for bits in plan.bits)


def _num_den_arrays(frs):
    return (np.array([f.numerator for f in frs], dtype=np.int64),
            np.array([f.denominator for f in frs], dtype=np.int64))


def test_two_square_mask_matches_brute_force():
    frs = fractions_by_height(100)
    mask = _two_square_mask(*_num_den_arrays(frs))

    def two_squares(v):
        return any(isqrt(v - a * a) ** 2 == v - a * a
                   for a in range(isqrt(v) + 1))

    brute = [two_squares(f.denominator ** 2 + 2 * f.numerator ** 2)
             for f in frs]
    assert mask.tolist() == brute
    assert sum(brute) == 1335


@pytest.mark.parametrize("bound", [100, 300])
def test_two_square_mask_block_layout_does_not_matter(monkeypatch, bound):
    # the a^2 + b^2 table in outer sums of one row of a, runs that leave a
    # short last run (1000 entries: 5 rows of 174 at H = 100; the default:
    # 126 rows of 520 at H = 300) or one sum, against a table made one
    # square at a time
    nums, dens = plans._height_order(bound)
    values = dens * dens + 2 * nums * nums
    squares = np.arange(isqrt(int(values.max())) + 1, dtype=np.int64) ** 2
    table = np.zeros(2 * len(squares) ** 2, dtype=bool)
    for sq in squares:
        table[sq + squares] = True
    for block in (1, 7, 1000, plans._SUM_BLOCK):
        monkeypatch.setattr(plans, "_SUM_BLOCK", block)
        mask = _two_square_mask(nums, dens)
        assert mask.tolist() == table[values].tolist(), block
    assert 0 < mask.sum() < len(mask)


def _square_pairs(frs):
    # every pair (i, j <= i) whose integer N is a perfect square, with no
    # prefilter, in candidate order
    out = []
    for i, p1 in enumerate(frs):
        n1, d1 = p1.numerator, p1.denominator
        for j in range(i + 1):
            n2, d2 = frs[j].numerator, frs[j].denominator
            x2, y2, e2 = (n1 * d2) ** 2, (n2 * d1) ** 2, (d1 * d2) ** 2
            big = 4 * e2 * (x2 + y2) - (x2 - y2) ** 2
            if big >= 0 and isqrt(big) ** 2 == big:
                out.append((i, j))
    return out


def _level_three_bound(p1, p2):
    # in Fraction arithmetic, for a pair whose u is rational: level 2 is
    # {s, -s, u, -u}, so level 3 is {+/- p1, +/- p2} and the roots of u - c
    # and -u - c, at most 4 + 2 (the rational squares among those two)
    c, _ = reference_thirdpair_values(p1, p2)
    s = (p1 * p1 - p2 * p2) / 2
    u = rat_sqrt(-(s * s + c) - c)
    assert u is not None
    return 4 + 2 * sum(rat_sqrt(v) is not None for v in (u - c, -u - c))


def test_fast_path_emits_exactly_the_square_pairs(monkeypatch):
    # at height 2 one fraction is live, so most column classes are empty; at
    # 40 a class of five shards holds fewer columns than one 64-bit word: the
    # exact stage passes on exactly the pairs whose N is a square, and settle
    # is reached exactly on those whose level 3 bound meets the target
    emitted, reached = [], []
    square_pairs, settle = plans._square_pairs, plans._ThirdPairPlan.settle

    def spy_pairs(plan, tile):
        found = square_pairs(plan, tile)
        emitted.extend((i, j) for i, j, *_ in found)
        return found

    def spy_settle(plan, i, j):
        reached.append((i, j))
        return settle(plan, i, j)

    monkeypatch.setattr(plans, "_square_pairs", spy_pairs)
    monkeypatch.setattr(plans._ThirdPairPlan, "settle", spy_settle)
    seen = set()
    for bound in (2, 40):
        frs = fractions_by_height(bound)
        squares = _square_pairs(frs)
        assert squares or bound == 2
        room = {(i, j): _level_three_bound(frs[i], frs[j]) for i, j in squares}
        seen |= set(room.values())
        for target in ((2, 4, 4), (2, 4, 6)):
            for total in (1, 2, 3, 5):
                for index in range(total):
                    emitted.clear()
                    reached.clear()
                    cfg = SearchConfig(height_bound=bound, depth=3,
                                       target=target, shard=(index, total))
                    list(scan_thirdpair(cfg))
                    shard = [(i, j) for i, j in squares
                             if (i * (i + 1) // 2 + j) % total == index]
                    assert emitted == shard
                    assert reached == [pair for pair in shard
                                       if room[pair] >= target[2]]
    assert seen == {4, 8}


@pytest.mark.parametrize("index, checks, squares", [(0, 196, 123),
                                                    (1, 221, 139)])
def test_filter_funnel_at_height_100(monkeypatch, index, checks, squares):
    # the exact checks (isqrt calls) the filter lets through and the squares
    # among them, per shard of two: a weaker filter makes more checks; of
    # the squares, the plan lists, and so walks, only those whose level 3
    # can hold 6 points
    calls, funnel, walked = [], [0, 0], []
    square_pairs, real_isqrt = plans._square_pairs, plans.isqrt
    settle = plans._settle

    def counted(plan, tile):
        before = len(calls)
        found = square_pairs(plan, tile)
        funnel[0] += len(calls) - before
        funnel[1] += len(found)
        return found

    monkeypatch.setattr(plans, "isqrt",
                        lambda v: calls.append(v) or real_isqrt(v))
    monkeypatch.setattr(plans, "_square_pairs", counted)
    monkeypatch.setattr(plans, "_settle",
                        lambda *args: walked.append(args) or settle(*args))
    records = list(scan_thirdpair(SearchConfig(
        height_bound=100, depth=3, target=(2, 4, 6), shard=(index, 2))))
    assert funnel == [checks, squares]
    assert len(walked) == (1, 2)[index] and len(records) == 1


@pytest.mark.parametrize("depth, target", [
    *((3, target) for target in ((2, 4, 4), (2, 4, 5), (2, 4, 6), (2, 4, 7),
                                 (2, 4, 8), (2, 3, 5), (2, 3, 6), (1, 3, 6))),
    (4, (2, 4, 6, 8))])
def test_settle_cut_matches_the_walk(depth, target):
    # every pair with N a square at H = 100: the plan lists it exactly when
    # its level 3 bound (in Fractions) meets the target, its settle is the
    # walk, and every pair whose walk hits is listed; among rows < 80, no
    # pair outside the listing is a hit
    plan = plans._ThirdPairPlan(SearchConfig(height_bound=100, depth=depth,
                                             target=target))
    squares = [(i, j) for i, j, *_ in plans._square_pairs(plan, plan.live)]
    assert len(squares) == 262
    candidates = plan.candidates(0, plan.size)
    listed = set(candidates)
    assert candidates == [pair for pair in squares if pair in listed]
    hits = 0
    for i, j in squares:
        (n1, d1), (n2, d2) = plan.pairs(i, j)
        hit = search._settle(plan.config, *_thirdpair_values(n1, d1, n2, d2))
        room = _level_three_bound(*thirdpair_plan_values(plan, i, j))
        assert ((i, j) in listed) == (room >= target[2])
        assert hit is None or ((i, j) in listed and plan.settle(i, j) == hit)
        hits += hit is not None
    for i in range(80):
        for j in range(i + 1):
            if (i, j) not in listed:
                (n1, d1), (n2, d2) = plan.pairs(i, j)
                assert search._settle(plan.config, *_thirdpair_values(
                    n1, d1, n2, d2)) is None
    # 260 trees have 4 points at level 3 and 2 have 6; none reach 2,4,6,8
    assert hits == (260 if target[2] <= 4 else 2 if target[2] <= 6
                    and depth == 3 else 0)


def test_settle_level_three_identity():
    # with S = x^2 + y^2, r = sqrt(N) and u the sibling second pre-image, as
    # the exact stage hands them over: u - c = 2 (S + r) / (2e)^2 and
    # -u - c = 2 (S - r) / (2e)^2 in Fraction arithmetic, and each is a
    # rational square iff its integer 2 (S +/- r) is a perfect square
    plan = plans._ThirdPairPlan(SearchConfig(height_bound=100, depth=3,
                                             target=(2, 4, 6)))
    squares = plans._square_pairs(plan, plan.live)
    hits = {(i, j) for i, j in plan.candidates(0, plan.size)
            if plan.settle(i, j)}
    assert hits
    found = set()
    for i, j, whole_s, r in squares[::13] + [q for q in squares
                                             if q[:2] in hits]:
        p1, p2 = thirdpair_plan_values(plan, i, j)
        (n1, d1), (n2, d2) = plan.pairs(i, j)
        x, y, e = n1 * d2, n2 * d1, d1 * d2
        big = 4 * e * e * (x * x + y * y) - (x * x - y * y) ** 2
        assert whole_s == x * x + y * y and r * r == big and r >= 0
        c, a = reference_thirdpair_values(p1, p2)
        s = (p1 * p1 - p2 * p2) / 2
        t = s * s + c
        u = F(r, 2 * e * e)
        assert t * t + c == a and u * u + c == -t
        assert p1 * p1 == s - c and p2 * p2 == -s - c
        for value, sign in ((u - c, 1), (-u - c, -1)):
            whole = 2 * (whole_s + sign * r)
            assert value == F(whole, (2 * e) ** 2)
            square = whole >= 0 and isqrt(whole) ** 2 == whole
            assert (rat_sqrt(value) is not None) == square
            found.add(square)
    assert found == {True, False}


def _is_square_pair(n1, d1, n2, d2):
    x2, y2, e2 = (n1 * d2) ** 2, (n2 * d1) ** 2, (d1 * d2) ** 2
    big = 4 * e2 * (x2 + y2) - (x2 - y2) ** 2
    return big >= 0 and isqrt(big) ** 2 == big


def test_row_mask_keeps_every_fraction_of_a_square_pair():
    # brute isqrt over every pair of two-square fractions at H = 60: the row
    # mask keeps each fraction of a pair whose N is a square, and a fraction
    # it drops has an empty table row under some modulus
    nums, dens = plans._height_order(60)
    live = np.flatnonzero(_two_square_mask(nums, dens))
    keys = plans._kind_keys(nums[live], dens[live])
    kept = plans._row_mask(plans._stacked_tables(plans._pair_form), keys)
    values = list(zip(nums[live].tolist(), dens[live].tolist()))
    paired = {k for i, p1 in enumerate(values) for j, p2 in enumerate(values[:i + 1])
              if _is_square_pair(*p1, *p2) for k in (i, j)}
    assert paired and kept[sorted(paired)].all()
    dropped = np.flatnonzero(~kept)
    assert 0 < len(dropped) < len(live) - len(paired)
    empty = np.zeros(len(dropped), dtype=bool)
    for m, q in plans._MODULI:
        classes, table = plans._filter_tables(plans._pair_form, m, q)
        n, d = nums[live[dropped]], dens[live[dropped]]
        empty |= ~table[0].any(axis=1)[classes[n % m, d % m]]
    assert empty.all()


def test_row_mask_on_forward_tables():
    # the two forms G_1, G_2 of target 2,2,4 at depth 3: a c row that the
    # mask drops meets no x0 in _kind_pairs, for every shard class; some
    # kept rows pass under one form only, so the mask ORs over the forms
    cfg = SearchConfig(height_bound=16, depth=3, target=(2, 2, 4))
    plan = plans._ForwardPlan(cfg)
    tables = plans._stacked_tables(plans._branch_forms, 1, 3)
    keys = plans._kind_keys(plan.c_num[plan.live], plan.c_den[plan.live])
    kept = plans._row_mask(tables, keys)
    row_kinds, _, _, stacked = tables
    per_form = stacked.any(axis=1)[row_kinds[:, keys]].all(axis=1)
    assert per_form.shape[0] == 2 and (per_form.sum(axis=0) == 1).any()
    dropped, alive = plan.live[~kept], plan.live[kept]
    assert len(dropped) and len(alive)
    for want in range(cfg.shard[1]):
        ci, _ = plans._kind_pairs(plan, dropped, np.full(len(dropped), want),
                                   diagonal=False)
        assert len(ci) == 0
    ci, _ = plans._kind_pairs(plan, alive, np.zeros(len(alive), dtype=int),
                               diagonal=False)
    assert len(ci)


@pytest.mark.parametrize("target", [(2, 4, 6), (2, 4, 4)])
def test_block_layout_does_not_change_the_output(tmp_path, monkeypatch, target):
    # one row a block, eight rows, or the whole H = 60 scan in one block,
    # for one job and two: the same records and the same final checkpoint
    outputs = set()
    for words in (1, 32, plans._BLOCK_WORDS):
        monkeypatch.setattr(plans, "_BLOCK_WORDS", words)
        for jobs in (1, 2):
            path = tmp_path / ("%d-%d.ckpt" % (words, jobs))
            cfg = SearchConfig(height_bound=60, depth=3, target=target,
                               checkpoint_path=str(path))
            assert plans._ThirdPairPlan(cfg).tile == {
                1: 1, 32: 4}.get(words, 16384)
            printed = tuple(_printed(scan_thirdpair(cfg, jobs=jobs)))
            outputs.add((printed, path.read_bytes()))
    assert len(outputs) == 1
    printed, checkpoint = outputs.pop()
    assert len(printed) == (0 if target == (2, 4, 6) else 119)
    assert json.loads(checkpoint)["next_block"] == len(fractions_by_height(60))


def test_resume_from_row_failing_the_mask(tmp_path, monkeypatch):
    path = str(tmp_path / "scan.ckpt")
    cfg = SearchConfig(height_bound=40, depth=3, target=(2, 4, 4),
                       checkpoint_path=path)
    monkeypatch.setattr(search, "_CHECKPOINT_BLOCKS", 1)
    payloads = []
    write = search._write_checkpoint
    monkeypatch.setattr(search, "_write_checkpoint",
                        lambda p, payload: (payloads.append(payload),
                                            write(p, payload)))
    monkeypatch.setattr(plans, "_BLOCK_WORDS", 32)     # 8-row blocks
    assert plans._ThirdPairPlan(cfg).tile == 8
    full = [r.as_json() for r in scan_thirdpair(cfg)]
    mask = _two_square_mask(*_num_den_arrays(fractions_by_height(40)))
    mid = [p for p in payloads
           if 0 < len(p["hits"]) < len(full) and not mask[p["next_block"]]]
    assert mid
    for payload in mid:
        with open(path, "w") as fh:
            json.dump(payload, fh)
        # resume settles the hits the checkpoint names again, then continues
        resumed = [r.as_json() for r in scan_thirdpair(cfg, resume=True)]
        assert resumed == full


def _printed(records):
    # the structured lines the CLI prints for these records
    return [json.dumps(r.as_json(), sort_keys=True) for r in records]


@pytest.mark.parametrize("scan, cfg, tile", [
    # 32 words over the 4 of H = 40: blocks of eight rows
    (scan_thirdpair, dict(height_bound=40, depth=3, target=(2, 4, 4)),
     ("_BLOCK_WORDS", 32)),
    # blocks of two rows: 12 values of x0 at H = 4, 20 at H = 5
    (scan_forward, dict(height_bound=4, depth=2, target=(2, 2)),
     ("_FORWARD_BLOCK", 24)),
    # a target above 2 drops the c >= 0 rows, so most checkpoints name one
    (scan_forward, dict(height_bound=5, depth=2, target=(2, 3)),
     ("_FORWARD_BLOCK", 40)),
])
def test_resume_from_every_checkpoint_replays(tmp_path, monkeypatch, scan,
                                              cfg, tile):
    # interrupt at every checkpoint the run writes, then resume: the output
    # is byte-identical to the uninterrupted run, for one job and two
    path = str(tmp_path / "scan.ckpt")
    cfg = SearchConfig(checkpoint_path=path, **cfg)
    monkeypatch.setattr(search, "_CHECKPOINT_BLOCKS", 1)
    monkeypatch.setattr(plans, *tile)
    payloads = []
    write = search._write_checkpoint
    monkeypatch.setattr(search, "_write_checkpoint",
                        lambda p, payload: (payloads.append(payload),
                                            write(p, payload)))
    full = _printed(scan(cfg))
    written = list(payloads)
    assert full and len(written) > 5
    assert any(0 < len(p["hits"]) < len(full) for p in written)
    payloads.clear()
    assert _printed(scan(cfg, jobs=2)) == full
    assert payloads == written
    for payload in written:
        for jobs in (1, 2):
            with open(path, "w") as fh:
                json.dump(payload, fh)
            assert _printed(scan(cfg, resume=True, jobs=jobs)) == full


def test_forward_resume_from_every_row(tmp_path):
    # checkpoints as a layout of one row per block writes them, c >= 0 rows
    # that the cut drops included: the candidates of the records emitted
    # before the row, then the rest of the scan, for one job and two
    path = str(tmp_path / "scan.ckpt")
    cfg = SearchConfig(height_bound=5, depth=2, target=(2, 3),
                       checkpoint_path=path)
    records = list(scan_forward(cfg))
    full = _printed(records)
    plan = plans._ForwardPlan(cfg)
    row = {F(n, d): k for k, (n, d) in enumerate(
        zip(plan.c_num.tolist(), plan.c_den.tolist()))}
    column = {F(n, d): k for k, (n, d) in enumerate(
        zip(plan.x_num.tolist(), plan.x_den.tolist()))}
    first = [row[parse_rat(r.provenance[0].params["c"])] for r in records]
    hits = [[k, column[parse_rat(r.provenance[0].params["x0"])]]
            for r, k in zip(records, first)]
    assert len(full) == 12 and first == sorted(first)
    assert set(range(plan.size)) - set(plan.live.tolist()) == {
        k for k, n in enumerate(plan.c_num.tolist()) if n >= 0}
    for next_block in range(plan.size + 1):
        emitted = [hit for hit in hits if hit[0] < next_block]
        with open(path, "w") as fh:
            json.dump({"config": cfg.canonical("forward"),
                       "next_block": next_block, "hits": emitted}, fh)
        for jobs in (1, 2):
            assert _printed(scan_forward(cfg, resume=True, jobs=jobs)) == full


def test_tiny_bounds_every_shard():
    # blocks whose rows meet no live column of their shard's class
    for bound in range(1, 9):
        full = {(r.c, r.a) for r in scan_thirdpair(
            SearchConfig(height_bound=bound, depth=3, target=(2, 4, 4)))}
        for total in range(2, 6):
            union = set()
            for index in range(total):
                cfg = SearchConfig(height_bound=bound, depth=3, target=(2, 4, 4),
                                   shard=(index, total))
                union |= {(r.c, r.a) for r in scan_thirdpair(cfg)}
            assert union == full


def test_scan_determinism_and_shard_union():
    cfg = SearchConfig(height_bound=80, depth=3, target=(2, 4, 6))
    run1 = [(r.c, r.a) for r in scan_thirdpair(cfg)]
    run2 = [(r.c, r.a) for r in scan_thirdpair(cfg)]
    assert run1 == run2
    union = set()
    for idx in range(4):
        shard_cfg = SearchConfig(height_bound=80, depth=3, target=(2, 4, 6),
                                 shard=(idx, 4))
        union |= {(r.c, r.a) for r in scan_thirdpair(shard_cfg)}
    assert union == set(run1)


def test_scan_soundness_reverifies():
    cfg = SearchConfig(height_bound=80, depth=3, target=(2, 4, 6))
    for rec in scan_thirdpair(cfg):
        again = verify_pair(rec.c, rec.a, cfg.target, cfg.depth)
        assert again is not None
        assert again.signature == rec.signature
        assert rec.provenance and rec.provenance[0].strategy == "thirdpair"


def test_checkpoint_roundtrip(tmp_path, monkeypatch):
    path = str(tmp_path / "scan.ckpt")
    cfg = SearchConfig(height_bound=60, depth=3, target=(2, 4, 6),
                       checkpoint_path=path)
    monkeypatch.setattr(search, "_CHECKPOINT_BLOCKS", 128)
    full = {(r.c, r.a) for r in scan_thirdpair(cfg)}
    payload = json.load(open(path))
    assert payload["config"] == cfg.canonical("thirdpair")
    assert "config_sha" not in payload
    assert payload["next_block"] == len(fractions_by_height(60))

    # rewind the checkpoint halfway and resume; the tail must re-emerge
    payload["next_block"] = 0
    payload["hits"] = []
    json.dump(payload, open(path, "w"))
    resumed = {(r.c, r.a) for r in scan_thirdpair(cfg, resume=True)}
    assert resumed == full

    # a mismatched configuration is rejected
    other = SearchConfig(height_bound=61, depth=3, target=(2, 4, 6),
                         checkpoint_path=path)
    with pytest.raises(ValueError):
        list(scan_thirdpair(other, resume=True))


def test_checkpoint_write_failure(tmp_path, monkeypatch):
    cfg = SearchConfig(height_bound=30, depth=3, target=(2, 4, 6),
                       checkpoint_path=str(tmp_path / "no_dir" / "x.ckpt"))
    monkeypatch.setattr(search, "_CHECKPOINT_BLOCKS", 1)
    with pytest.raises(CheckpointError):
        list(scan_thirdpair(cfg))


def test_scan_forward_examples():
    cfg = SearchConfig(height_bound=4, depth=2, target=(2, 2))
    hits = {(r.c, r.a): r for r in scan_forward(cfg)}
    assert (F(0), F(16)) in hits
    rec = hits[(F(0), F(16))]
    assert rec.signature[0] == 2 and rec.signature[1] >= 2

    deg_cfg = SearchConfig(height_bound=2, depth=3, target=(0, 0, 0))
    deg_hits = {(r.c, r.a): r for r in scan_forward(deg_cfg)}
    witness = deg_hits[(F(-2), F(2))]
    assert any(node.degenerate for node in witness.tree.levels[2])


def _fraction_orbit(c, x, depth):
    for _ in range(depth):
        x = x * x + c
    return x


def _brute_forward(bound, depth, target):
    # independent oracle: every (c, x0) of the forward scan, iterated in plain
    # Fraction arithmetic and settled by the reference walk
    frs = reference_fractions_by_height(bound)
    brute = set()
    for c in [F(0)] + [v for f in frs for v in (f, -f)]:
        for x0 in [F(0)] + frs:
            a = _fraction_orbit(c, x0, depth)
            if reference_hit(c, a, target):
                brute.add((c, a))
    return brute


@pytest.mark.parametrize("depth, target", [
    (1, (2,)), (2, (2, 2)), (3, (2, 2)), (3, (2, 2, 4)), (3, (0, 0, 0)),
    (2, (2, 3)), (2, (2, 4)), (3, (1, 2, 3))])
def test_scan_forward_matches_brute_force_oracle(depth, target):
    # the integer settle against the Fraction oracle at every bound up to 5,
    # the first where target 2,2,4 has hits; (0, 0, 0) takes every candidate,
    # c = x0 = 0 and its degenerate root among them.  The oracle walks every
    # c, so a target above 2 checks that the rows with c >= 0 hold no hit
    for bound in range(1, 6):
        brute = _brute_forward(bound, depth, target)
        cfg = dict(height_bound=bound, depth=depth, target=target)
        records = list(scan_forward(SearchConfig(**cfg)))
        assert {(r.c, r.a) for r in records} == brute
        for rec in records:
            assert rec.tree == reference_tree(rec.c, rec.a, depth)
            (prov,) = rec.provenance
            assert parse_rat(prov.params["c"]) == rec.c
            assert _fraction_orbit(rec.c, parse_rat(prov.params["x0"]), depth) == rec.a
        union = set()
        for index in range(3):
            union |= {(r.c, r.a) for r in scan_forward(
                SearchConfig(shard=(index, 3), **cfg))}
        assert union == brute
    assert len(brute) >= 10
    assert _printed(scan_forward(SearchConfig(**cfg), jobs=2)) == _printed(records)
    if target == (0, 0, 0):
        assert (F(0), F(0)) in brute


def test_scans_verify_only_hits(monkeypatch):
    # a candidate reaches the one record builder (search._record) only when
    # its integer walk already met the target: level 1 included, which is
    # {0} when y = 0 (forward: c = -1, x0 = 0 at depth 3 gives y = 0 and a
    # level 2 of {1, -1})
    built = _built(monkeypatch)
    for scan, cfg in ((scan_forward, dict(height_bound=5, depth=3, target=(2, 2))),
                      (scan_thirdpair, dict(height_bound=12, depth=3,
                                            target=(2, 4, 4)))):
        built.clear()
        records = list(scan(SearchConfig(**cfg)))
        assert len(built) >= len(records) > 0
        assert all(reference_hit(rec.c, rec.a, cfg["target"]) for rec in built)


def _built(monkeypatch):
    # every record the scans build, in order
    built = []
    record = search._record

    def spy(*args):
        built.append(record(*args))
        return built[-1]

    monkeypatch.setattr(search, "_record", spy)
    return built


@pytest.mark.parametrize("scan, cfg", [
    (scan_forward, dict(height_bound=8, depth=4, target=(2, 2, 4))),
    (scan_thirdpair, dict(height_bound=12, depth=4, target=(2, 4, 4)))])
def test_one_walk_trees_match_reference(scan, cfg):
    # a hit's tree comes from the levels of its one walk, past the target's
    # levels to the full depth (depth 3, target 2,2 is in the brute-force
    # oracle test); the third-pair level 1 {t, -t} arrives unreduced
    records = list(scan(SearchConfig(**cfg)))
    assert len(records) >= 5
    for rec in records:
        assert rec.tree == reference_tree(rec.c, rec.a, cfg["depth"])
        assert rec.signature == rec.tree.signature()


def test_one_walk_tree_of_unreduced_and_zero_level_one():
    # level 1 {0} (c = -1, x0 = 0, so y = 0), given as 0/1 or as 0/8, and a
    # third-pair t that is not in lowest terms
    config = SearchConfig(height_bound=1, depth=3, target=(1, 2))
    plan = plans._ForwardPlan(config)
    assert forward_plan_values(plan, 2, 0) == (F(-1), F(0))
    hit = plan.settle(2, 0)
    assert hit is not None and hit[2][0] == {(0, 1): hit[1]}
    tree = search._record(*hit).tree
    assert tree == reference_tree(-1, -1, 3) and tree.levels[0][0].degenerate
    hit = search._settle(config, (-1, 1), (0, 8))
    assert search._record(*hit).tree == tree
    config = SearchConfig(height_bound=1, depth=3, target=())
    unreduced = 0
    for n1, d1, n2, d2 in ((1, 1, 1, 1), (2, 1, 1, 2), (3, 2, 2, 1), (5, 3, 1, 3)):
        c, t = _thirdpair_values(n1, d1, n2, d2)
        unreduced += gcd(*t) > 1
        tree = search._record(*search._settle(config, c, t)).tree
        assert tree == reference_tree(F(*c), F(*t) ** 2 + F(*c), 3)
    assert unreduced >= 2


def test_nonnegative_c_trees_have_two_points_per_level():
    # what the forward scan's row cut rests on: for c >= 0 each level of a
    # real tree of f_c is empty, {0} or {r, -r}, as -r - c < 0
    rng = random.Random(2718)
    full = 0
    for _ in range(400):
        c = F(rng.randint(0, 40), rng.randint(1, 12))
        x0 = F(rng.randint(-20, 20), rng.randint(1, 9))
        a = _fraction_orbit(c, x0, rng.randint(0, 4))
        signature = reference_tree(c, a, 4).signature()
        assert max(signature) <= 2, (c, a)
        full += signature[-1] == 2
    assert full >= 20


# count and sha256 of the structured lines of the forward scan at depth 3,
# as the scan that settled every candidate printed them (H = 32: as the scan
# that walked each hit three times and built a tree for each printed them)
FORWARD_LINES = {
    (8, (2, 2, 4)): (15, "f8f64271a2a7ce80faf756ccce3e4a3ba2260691538b4644ccf950659f1e7d67"),
    (8, (2, 2, 2)): (3727, "433e2e91c29d3af33b763c708cbb11cb6ecd9b4972878ee1492cc261d873df8a"),
    (16, (2, 2, 4)): (83, "d9c811e735a0767701fd3c1e080c76f3cac099f83170460973808cbafc7743d5"),
    (32, (2, 2, 4)): (502, "910b114f9df1229c527e4cabd89a73e31303a5b2c71cfc71c8a8e1c28cf0a529"),
}


def _settled(monkeypatch):
    # the c of every candidate the forward scan settles, in order
    calls = []
    settle = plans._ForwardPlan.settle

    def spy(plan, ci, xi):
        calls.append((int(plan.c_num[ci]), int(plan.c_den[ci])))
        return settle(plan, ci, xi)

    monkeypatch.setattr(plans._ForwardPlan, "settle", spy)
    return calls


def _check_funnel(monkeypatch, bound, target, settled, cut):
    calls = _settled(monkeypatch)
    lines = _printed(scan_forward(SearchConfig(height_bound=bound, depth=3,
                                               target=target)))
    assert len(calls) == settled
    assert all(n < 0 for n, _ in calls) == cut
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == FORWARD_LINES[bound, target]


@pytest.mark.parametrize("target, settled, cut", [
    ((2, 2, 4), 43, True), ((2, 2, 2), 3828, False)])
def test_forward_cut_funnel(monkeypatch, target, settled, cut):
    # at H = 8, depth 3 (87 values of c, 44 of x0): a target above 2 settles
    # only candidates with c < 0 whose G_m passes the residue filter, 43 of
    # the 1,892 on the 43 rows with c < 0; a target of 2's, which neither
    # cut can decide, every candidate.  The records are those of the scan
    # that settled every candidate
    _check_funnel(monkeypatch, 8, target, settled, cut)


def test_forward_cut_funnel_at_height_16(monkeypatch):
    # 185 of the 25,440 candidates on the rows with c < 0
    _check_funnel(monkeypatch, 16, (2, 2, 4), 185, True)


@pytest.mark.parametrize("bound, trees", [(8, 15), (16, 83), (32, 502)])
def test_forward_builds_one_tree_per_record(monkeypatch, bound, trees):
    # a forward block is a run of whole rows, and a row is one c, so a block
    # that builds a tree only for the first candidate reaching each (c, a)
    # builds one per record
    built = _built(monkeypatch)
    lines = _printed(scan_forward(SearchConfig(height_bound=bound, depth=3,
                                               target=(2, 2, 4))))
    assert len(built) == trees
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == FORWARD_LINES[bound, (2, 2, 4)]


@pytest.mark.parametrize("target", [(4, 2, 2), (3,)])
def test_forward_wide_first_level_settles_nothing(monkeypatch, capsys, target):
    # level 1 is {y, -y}: a target above 2 there has no hit, the branch
    # range of the filter is empty, and the scan settles no candidate
    calls = _settled(monkeypatch)
    argv = ["search", "--strategy", "forward", "--height-bound", "8",
            "--depth", "3", "--target", ",".join(map(str, target)),
            "--format", "structured"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "" and calls == []


def test_branch_square_is_a_rational_square():
    # G_m = -(P_m v + u Q_m) is a perfect square exactly when the branch
    # value -f_c^m(x0) - c is a rational square, as Q_m v is a square
    squares = 0
    for c in {F(-n, d) for n in range(25) for d in range(1, 5)}:
        for x0 in {F(n, d) for n in range(7) for d in range(1, 4)}:
            for m in range(1, 4):
                branch = rat_sqrt(-_fraction_orbit(c, x0, m) - c) is not None
                # target 2,4 at depth m + 1 asks about G_m alone
                assert reference_branches(c, x0, m + 1, (2, 4)) == branch
                squares += branch
    assert squares >= 40


@pytest.mark.parametrize("depth, target, records", [
    (2, (2, 4), 33), (3, (2, 4), 7), (4, (2, 4), 2), (3, (2, 2, 4), 33),
    (4, (2, 2, 4), 7), (3, (2, 4, 4), 2), (4, (2, 4, 4), 2), (3, (2, 2, 6), 0),
    (4, (2, 2, 2, 4), 33), (3, (1, 2, 3), 41)])
def test_forward_branch_filter_matches_oracle(depth, target, records):
    # on the rows with c < 0, the residue filter keeps every candidate whose
    # G_m the Python-int oracle finds a perfect square; the scan emits the
    # records of settling every candidate, c >= 0 rows included, in
    # candidate order: the same (c, a) and the same first x0, for one job
    # and two (H = 12)
    for index, total in ((0, 1), (1, 3)):
        cfg = SearchConfig(height_bound=12, depth=depth, target=target,
                           shard=(index, total))
        plan = plans._ForwardPlan(cfg)
        width = len(plan.x_num)
        every = [(ci, xi) for ci in range(plan.size) for xi in range(width)
                 if (ci * width + xi) % total == index]
        kept = set(plan.candidates(0, plan.size))
        live = set(plan.live.tolist())
        branching = {(ci, xi) for ci, xi in every if ci in live
                     and reference_branches(*forward_plan_values(plan, ci, xi),
                                            depth, target)}
        assert branching <= kept and len(kept) < len(every) // 4
        expected = {}
        for ci, xi in every:
            hit = plan.settle(ci, xi)
            if hit is not None:
                expected.setdefault((F(*hit[0]), F(*hit[1])),
                                    forward_plan_values(plan, ci, xi)[1])
        assert total > 1 or len(expected) == records
        for jobs in (1, 2):
            assert [(r.c, r.a, parse_rat(r.provenance[0].params["x0"]))
                    for r in scan_forward(cfg, jobs=jobs)] == [
                        (c, a, x0) for (c, a), x0 in expected.items()]


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_forward_kind_filter_matches_reference_mask(depth):
    # the kind-table filter keeps exactly the candidates of the shard on the
    # live rows that the per-candidate residue route keeps, in candidate
    # order; at H = 32 a shard of total 1 has 648 x0 columns, more than one
    # pack run of the G_m rows (384 columns for the 612 stacked rows of
    # depth 3, target 2,2,4), so the packing crosses a run boundary
    found = 0
    for bound, totals in [(b, (1, 2, 3)) for b in range(1, 17)] + [(32, (1,))]:
        for target in ((2, 4), (2, 2, 4), (2, 4, 4), (2, 2, 6), (2, 2, 2, 4),
                       (2, 3), (4, 2, 2)):
            if len(target) > depth:
                continue
            wide = next(k for k, want in enumerate(target, 1) if want > 2)
            for total in totals:
                for index in range(total):
                    plan = plans._ForwardPlan(SearchConfig(
                        height_bound=bound, depth=depth, target=target,
                        shard=(index, total)))
                    width = len(plan.x_num)
                    ci, xi = np.divmod(np.arange(plan.size * width), width)
                    keep = (ci % 2 == 0) & (ci > 0) & (
                        (ci * width + xi) % total == index)
                    ci, xi = ci[keep], xi[keep]
                    keep = reference_branch_mask(
                        plan.c_num[ci], plan.c_den[ci], plan.x_num[xi],
                        plan.x_den[xi], depth - wide + 1, depth)
                    kept = (plan.candidates(0, plan.size) if len(plan.live)
                            else [])
                    assert kept == list(zip(ci[keep].tolist(),
                                            xi[keep].tolist())), (
                        bound, target, total, index)
                    found += len(kept)
    assert found > 1000


def test_scan_forward_shard_union():
    cfg = SearchConfig(height_bound=3, depth=2, target=(2, 2))
    full = {(r.c, r.a) for r in scan_forward(cfg)}
    union = set()
    for idx in range(3):
        cfg_s = SearchConfig(height_bound=3, depth=2, target=(2, 2), shard=(idx, 3))
        union |= {(r.c, r.a) for r in scan_forward(cfg_s)}
    assert union == full


def test_yielded_records_are_not_mutated():
    # at this bound a second candidate reaches two of the (c, a); each
    # record keeps the candidate that reached it first
    cfg = SearchConfig(height_bound=3, depth=2, target=(2, 2))
    records, streamed = [], []
    for rec in scan_forward(cfg):
        records.append(rec)
        streamed.append(rec.as_json())
    assert [rec.as_json() for rec in records] == streamed
    assert all(len(rec.provenance) == 1 for rec in records)


def test_record_json_roundtrip():
    rec = verify_pair(*PAIR4, target=(2, 4, 6), depth=3)
    rec.provenance.append(Provenance(strategy="thirdpair",
                                     params={"p1": "209/120", "p2": "71/120"},
                                     heights=(209, 120)))
    clone = SearchRecord.from_json(json.loads(json.dumps(rec.as_json())))
    assert clone.c == rec.c and clone.a == rec.a
    assert clone.signature == rec.signature
    assert clone.tree == rec.tree
    assert clone.provenance == rec.provenance


SCANS = [(scan_thirdpair, dict(height_bound=40, depth=3, target=(2, 4, 4))),
         (scan_forward, dict(height_bound=8, depth=3, target=(2, 2, 4)))]


@pytest.mark.parametrize("scan, cfg", SCANS)
def test_records_read_their_tree(scan, cfg):
    # a record's c, a, signature, pair and JSON come from its int tree: the
    # pair in lowest terms (the third-pair c and t arrive unreduced), the
    # JSON that of the Fraction oracle, and a pickled record (as --jobs
    # workers send them) equal to the original
    records = list(scan(SearchConfig(**cfg)))
    assert len(records) >= 5
    for rec in records:
        (cn, cd), (an, ad) = key = rec.tree.c_pair, rec.tree.a_pair
        assert gcd(cn, cd) == gcd(an, ad) == 1 and cd > 0 and ad > 0
        assert key == ((rec.c.numerator, rec.c.denominator),
                       (rec.a.numerator, rec.a.denominator))
        data = rec.as_json()
        assert data["tree"] == reference_tree_json(rec.c, rec.a, cfg["depth"])
        assert (data["c"], data["a"]) == (format_rat(rec.c), format_rat(rec.a))
        assert data["signature"] == list(rec.signature) == data["tree"]["signature"]
        clone = pickle.loads(pickle.dumps(rec))
        assert clone == rec and clone.as_json() == data
    c, t = _thirdpair_values(5, 3, 1, 3)
    rec = search._record(*search._settle(SearchConfig(1, 3, ()), c, t))
    assert gcd(*c) > 1 and gcd(*t) > 1
    assert (rec.tree.c_pair, rec.tree.a_pair) == (
        (rec.c.numerator, rec.c.denominator), (rec.a.numerator, rec.a.denominator))


@pytest.mark.parametrize("scan, cfg", SCANS)
def test_resume_replays_identical_records(tmp_path, scan, cfg):
    # resuming a finished scan replays records equal to the scanned ones,
    # prints the same bytes and rewrites the same checkpoint bytes
    path = tmp_path / "scan.ckpt"
    cfg = SearchConfig(checkpoint_path=str(path), **cfg)
    records = list(scan(cfg))
    written = path.read_bytes()
    replayed = list(scan(cfg, resume=True))
    assert replayed == records and _printed(replayed) == _printed(records)
    assert path.read_bytes() == written


def test_provenance_pairs_match_fraction_values():
    # the int pairs that provenance is formatted from, against the plans'
    # candidates as Fractions through format_rat and height
    for plan_class, cfg, values in (
            (plans._ThirdPairPlan, dict(height_bound=60, depth=3, target=(2, 4, 4)),
             thirdpair_plan_values),
            (plans._ForwardPlan, dict(height_bound=6, depth=3, target=(2, 2)),
             forward_plan_values)):
        plan = plan_class(SearchConfig(**cfg))
        candidates = list(plan.candidates(0, plan.size))
        assert len(candidates) >= 50
        for candidate in candidates:
            pairs, fractions = plan.pairs(*candidate), values(plan, *candidate)
            assert [format_pair(*p) for p in pairs] == list(map(format_rat, fractions))
            assert [max(abs(n), d) for n, d in pairs] == list(map(height, fractions))
