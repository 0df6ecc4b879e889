import json
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from quadpreim import elliptic
from quadpreim.elliptic import (
    _count_points_mod_p,
    _division_polys,
    _int_add,
    _torsion_multiples,
    _torsion_order_bound,
    ECPoint,
    INFINITY,
    OffCurveError,
    TorsionKind,
    WeierstrassCurve,
    curve_244,
    integer_roots,
    point_order,
    short_integral_model,
    specialize_e24,
    specialize_e222,
    torsion_family_a,
    torsion_subgroup,
)
from quadpreim.exactmath import _int_resultant, int_sqrt
from reference import (
    factorize,
    halving_quartic,
    push,
    reference_division_solve,
    reference_halvings,
    reference_integer_roots,
    reference_pull,
    reference_short_integral_model,
    reference_torsion,
    short_curve,
)

SEED = 777
print("test_elliptic random seed:", SEED)


def F(n, d=1):
    return Fraction(n, d)


def sweep_points(curve, xs):
    from quadpreim.exactmath import rat_sqrt
    pts = []
    for x in xs:
        x = Fraction(x)
        rhs = x ** 3 + curve.a2 * x * x + curve.a4 * x + curve.a6
        r = rat_sqrt(rhs)
        if r is not None:
            pts.append(ECPoint.affine(x, r))
            if r != 0:
                pts.append(ECPoint.affine(x, -r))
    return pts


# -- invariants and fixtures --------------------------------------------------

def test_e24_at_1_matches_published_values():
    fiber = specialize_e24(1)
    assert fiber.curve == WeierstrassCurve.from_coeffs(0, 3, 0, 16, 48)
    assert fiber.torsion_point == ECPoint.affine(2, 10)
    assert fiber.j == F(-59319, 625)
    assert fiber.delta == 625
    assert not fiber.singular


def test_e24_closed_forms_vs_standard_invariants():
    # the published normalized forms differ from the model invariants by
    # fixed scalars: disc = -1024 * delta and j_model = -4 * j_normalized
    rng = random.Random(SEED)
    for _ in range(40):
        a = F(rng.randint(-200, 200), rng.randint(1, 40))
        fiber = specialize_e24(a)
        if fiber.singular:
            assert a in (0, F(-1, 4))
            continue
        assert fiber.curve.discriminant() == -1024 * fiber.delta
        assert fiber.curve.j_invariant() == -4 * fiber.j


def test_e24_singular_fibers():
    assert specialize_e24(0).singular
    assert specialize_e24(F(-1, 4)).singular
    assert specialize_e24(0).j is None
    assert not specialize_e24(F(1, 3)).singular


def test_group_law_doubling_fixture():
    E = specialize_e24(1).curve
    T = ECPoint.affine(2, 10)
    twice = E.mul(2, T)
    assert twice == ECPoint.affine(-3, 0)
    assert E.add(twice, twice) == INFINITY
    assert E.add(T, INFINITY) == T


def test_group_law_rejects_off_curve():
    E = specialize_e24(1).curve
    with pytest.raises(OffCurveError) as err:
        E.add(ECPoint.affine(2, 11), ECPoint.affine(2, 10))
    assert err.value.residue != 0


def test_group_law_axioms_random():
    rng = random.Random(SEED + 1)
    curves = [specialize_e24(1).curve, specialize_e222(4).curve, curve_244()[0]]
    for E in curves:
        seeds = sweep_points(E, [F(n, d) for n in range(-20, 21) for d in (1, 2, 3)])
        pts = list(seeds) or [INFINITY]
        # pad the pool with random combinations
        while len(pts) < 10:
            p, q = rng.choice(pts), rng.choice(pts)
            pts.append(E._add_unchecked(p, q))
        pts.append(INFINITY)
        for _ in range(80):
            p, q, r = (rng.choice(pts) for _ in range(3))
            assert E._add_unchecked(p, q) == E._add_unchecked(q, p)
            left = E._add_unchecked(E._add_unchecked(p, q), r)
            right = E._add_unchecked(p, E._add_unchecked(q, r))
            assert left == right
            assert E._add_unchecked(p, E.neg(p)) == INFINITY


def test_point_order_examples():
    f1 = specialize_e24(1)
    assert point_order(f1.curve, f1.torsion_point) == 4
    f4 = specialize_e222(4)
    assert point_order(f4.curve, f4.p_point) is None
    C, gen = curve_244()
    assert point_order(C, ECPoint.affine(1, 0)) == 2
    assert point_order(C, gen) is None
    assert point_order(C, INFINITY) == 1


def test_t_section_has_order_four_generically():
    rng = random.Random(SEED + 2)
    checked = 0
    while checked < 30:
        a = F(rng.randint(-100, 100), rng.randint(1, 100))
        fiber = specialize_e24(a)
        if fiber.singular:
            continue
        E, T = fiber.curve, fiber.torsion_point
        assert E.contains(T)
        assert point_order(E, T) == 4
        assert E.mul(2, T) == ECPoint.affine(1 - 4 * a, 0)
        checked += 1


def test_e222_displayed_specialization():
    fiber = specialize_e222(4)
    assert fiber.curve.a2 == F(1774, 13)
    assert fiber.curve.a4 == F(815580, 169)
    assert fiber.curve.a6 == F(150527944, 2197)
    assert fiber.p_point == ECPoint.affine(F(-262, 13), 136)
    assert fiber.q_point == ECPoint.affine(F(-366, 13), 136)
    # the sum of the sections is the other published generator (up to sign)
    total = fiber.curve.add(fiber.p_point, fiber.q_point)
    assert total.x == F(-1146, 13)
    assert total.y in (136, -136)


def test_e222_sections_on_curve_and_nontorsion():
    rng = random.Random(SEED + 3)
    checked = 0
    while checked < 15:
        a = F(rng.randint(-60, 60), rng.randint(1, 30))
        fiber = specialize_e222(a)
        if fiber.singular:
            continue
        E = fiber.curve
        assert E.contains(fiber.p_point) and E.contains(fiber.q_point)
        assert point_order(E, fiber.p_point) is None
        assert point_order(E, fiber.q_point) is None
        assert point_order(E, E.add(fiber.p_point, fiber.q_point)) is None
        checked += 1


def test_e222_delta_and_singularity():
    assert specialize_e222(0).delta == 23
    assert not specialize_e222(0).singular
    assert specialize_e222(F(-1, 4)).singular
    # disc of the model is a fixed multiple of the published form
    rng = random.Random(SEED + 4)
    for _ in range(20):
        a = F(rng.randint(-40, 40), rng.randint(1, 12))
        fiber = specialize_e222(a)
        assert fiber.curve.discriminant() == -65536 * fiber.delta


def test_curve_244_fixture():
    C, pt = curve_244()
    assert C == WeierstrassCurve.from_coeffs(0, 1, 0, -9, 7)
    assert pt == ECPoint.affine(3, 4)
    assert C.contains(pt)
    assert 3 ** 3 + 3 ** 2 - 9 * 3 + 7 == 16


def test_point_json_roundtrip():
    # the point at infinity is null in JSON, an affine point a pair of strings
    C, gen = curve_244()
    for p in (INFINITY, gen, C.mul(2, gen), ECPoint.affine(1, 0)):
        data = json.loads(json.dumps(p.as_json()))
        assert ECPoint.from_json(data) == p
    assert INFINITY.as_json() is None
    assert C.mul(2, gen).as_json() == ["2", "-1"]      # tangent slope 3


# -- torsion ------------------------------------------------------------------

def test_torsion_family_values():
    assert torsion_family_a(TorsionKind.Z2xZ4, 1) == -1
    assert torsion_family_a(TorsionKind.Z8, 2) == 2
    assert torsion_family_a(TorsionKind.Z2xZ8, 1) == F(-49, 2500)
    assert torsion_family_a(TorsionKind.Z2xZ4, F(1, 2)) is None
    assert torsion_family_a(TorsionKind.Z2xZ4, F(-1, 2)) is None
    assert torsion_family_a(TorsionKind.Z8, 1) is None
    assert torsion_family_a(TorsionKind.Z12, 0) is None
    assert torsion_family_a(TorsionKind.Z12, F(1, 117688)) is None


def test_z12_constants_checksum():
    # direct evaluation of the big-constant formula at t = 1
    a = torsion_family_a(TorsionKind.Z12, 1)
    q1 = 13691470144 - 235376 + 1
    q2 = 13903463744 - 235376 + 1
    den = 9527265101250297856000000 * (117688 - 1) ** 2
    assert a == Fraction(q1 * q2 ** 3, den)
    assert a.denominator == 43984937542648231578449215488000000


def test_torsion_subgroup_fixtures():
    g = torsion_subgroup(specialize_e24(1).curve)
    assert g.invariants == (1, 4)
    xs = sorted(p.x for p in g.points if not p.is_infinity and p.y == 0)
    assert xs == [-3]

    g = torsion_subgroup(specialize_e24(-1).curve)
    assert g.contains_structure(2, 4)
    two_torsion_x = sorted(p.x for p in g.points if not p.is_infinity and p.y == 0)
    assert two_torsion_x == [-4, 4, 5]

    g = torsion_subgroup(specialize_e24(2).curve)
    assert g.contains_structure(1, 8)
    E = specialize_e24(2).curve
    P = ECPoint.affine(20, 108)
    assert E.contains(P)
    assert point_order(E, P) == 8
    assert E.mul(2, P) == ECPoint.affine(2, 18)
    assert any(p == P for p in g.points)


def test_torsion_methods_agree():
    # division closure against the Lutz-Nagell enumeration of the reference:
    # seeded two-four fibers, then two-two-two fibers, including ones with
    # Z/2 x Z/4, Z/8, Z/3 and Z/2 torsion
    rng = random.Random(SEED + 5)
    fibers = []
    while len(fibers) < 12:
        fiber = specialize_e24(F(rng.randint(-50, 50), rng.randint(1, 12)))
        if not fiber.singular:
            fibers.append(fiber)
    while len(fibers) < 20:
        fiber = specialize_e222(F(rng.randint(-20, 20), rng.randint(1, 5)))
        if not fiber.singular:
            fibers.append(fiber)
    fibers += [specialize_e24(F(-49, 4)), specialize_e24(2),
               specialize_e222(F(-1, 2)), specialize_e222(F(-7, 8))]
    # y^2 + x y + P y = x^3 with (0, 0) of order 3, where every prime
    # 5 ... 43 that bounds the torsion order divides P and so the discriminant
    bad_primes = WeierstrassCurve.from_coeffs(
        1, 0, 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43, 0, 0)
    # Tate normal forms y^2 + (1 - c) x y - b y = x^3 - b x^2 with Z/9, Z/7
    # and Z/5, which need ell = 3 with a target, 7 and 5
    tate = [WeierstrassCurve.from_coeffs(1 - c, -b, -b, 0, 0)
            for b, c in ((12, 4), (4, 2), (2, 2))]
    curves = [fiber.curve for fiber in fibers] + [bad_primes] + tate
    for curve in curves:
        expected = reference_torsion(curve)
        n, m = len(expected), max(expected.values())
        g = torsion_subgroup(curve)
        assert g.invariants == ((1, n) if m == n else (2, m)), curve
        assert set(g.points) == set(expected), curve
        for gen in g.generators:
            assert point_order(curve, gen) == expected[gen]
    assert [torsion_subgroup(c).invariants for c in curves[-8:]] == [
        (2, 4), (1, 8), (1, 3), (1, 2), (1, 3), (1, 9), (1, 7), (1, 5)]


def test_torsion_below_point_count_bound():
    # two-four fibers whose point-count bound, the gcd of #E(F_p), exceeds
    # the torsion order (an isogenous curve carries Z/8 or Z/12): the
    # closure cannot stop at the bound and must find that nothing more
    # exists
    for a in (6, -46, 30, F(3, 4), F(15, 4), F(21, 4), F(-5, 3), F(-8, 3),
              F(-17, 33)):
        curve = specialize_e24(a).curve
        model = short_integral_model(curve)
        bound = _torsion_order_bound(
            model.a, model.b, -16 * (4 * model.a ** 3 + 27 * model.b ** 2))
        expected = reference_torsion(curve)
        g = torsion_subgroup(curve)
        assert g.invariants == (1, 4) and set(g.points) == set(expected), a
        assert bound in (8, 12), a


def test_count_points_mod_p_against_pairs():
    # #E(F_p) against a count of the affine pairs (X, Y) mod p, for seeded
    # coefficients far past p and of both signs, each prime's table reused
    rng = random.Random(1913)
    for _ in range(300):
        a, b = (rng.randint(-10 ** 20, 10 ** 20) for _ in range(2))
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            pairs = sum((y * y - x ** 3 - a * x - b) % p == 0
                        for x in range(p) for y in range(p))
            assert _count_points_mod_p(a, b, p) == 1 + pairs, (a, b, p)


def test_odd_point_count_bound_skips_two_division(monkeypatch):
    # an odd bound rules out 2-torsion, so the closure makes no ell = 2
    # solve, and a bound of 1 proves the group trivial with no solve at all:
    # y^2 + y = x^3 (Z/3), the Tate normal form with Z/5, and
    # y^2 + y = x^3 - x (trivial)
    calls = []
    solve = elliptic._division_solve

    def recording(a, b, ell, target, cache):
        calls.append(ell)
        return solve(a, b, ell, target, cache)

    monkeypatch.setattr(elliptic, "_division_solve", recording)
    cases = [(WeierstrassCurve.from_coeffs(0, 0, 1, 0, 0), (1, 3)),
             (WeierstrassCurve.from_coeffs(-1, -2, -2, 0, 0), (1, 5)),
             (WeierstrassCurve.from_coeffs(0, 0, 1, -1, 0), (1, 1))]
    for curve, invariants in cases:
        calls.clear()
        assert torsion_subgroup(curve).invariants == invariants
        assert 2 not in calls, calls
    assert calls == []


def _two_torsion_models(rng):
    # integral short models with a rational 2-torsion point, as (a, b): the
    # curves (X - e)(X^2 + e X + c) of small e and c, and the models of
    # seeded Tate normal forms with torsion Z/4, Z/6, Z/8 and Z/10, of
    # seeded two-four fibers (Z/4, Z/2 x Z/4 where -a is a square) and of
    # the four torsion families
    models = []
    while len(models) < 24:
        e, c = rng.randint(-12, 12), rng.randint(-40, 40)
        a, b = c - e * e, -e * c
        if 4 * a ** 3 + 27 * b ** 2:
            models.append((a, b))
    curves = []
    for _ in range(3):
        t = F(rng.randint(2, 30), rng.randint(1, 9)) * rng.choice([-1, 1])
        u = t * t - 3 * t + 1
        for b, c in ((t, F(0)), (t + t * t, t),
                     ((2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t),
                     (t ** 3 * (t - 1) * (2 * t - 1) / u ** 2,
                      -t * (t - 1) * (2 * t - 1) / u)):
            curves.append(WeierstrassCurve.from_coeffs(1 - c, -b, -b, 0, 0))
    for _ in range(10):
        curves.append(specialize_e24(
            F(rng.randint(1, 60) * rng.choice([-1, 1]), rng.randint(1, 60))).curve)
    for kind in TorsionKind:
        for t in (F(3), F(5, 2)):
            curves.append(specialize_e24(torsion_family_a(kind, t)).curve)
    for curve in curves:
        if curve.is_singular():
            continue
        model = short_integral_model(curve)
        if integer_roots([model.b, model.a, 0, 1]):
            models.append((model.a, model.b))
    return models


def test_halving_matches_quartic_route():
    # the square-root halving of _division_solve gives the quartic route's
    # dict, in the same order, for every torsion point and for integral
    # points of small X; and whichever rational root e1 it is given,
    # _halvings lists only roots of the quartic, among them every root that
    # is the X of a rational point
    rng = random.Random(SEED + 31)
    models = _two_torsion_models(rng)
    assert len(models) >= 40
    orders = set()
    for a, b in models:
        disc = -16 * (4 * a ** 3 + 27 * b ** 2)
        torsion = elliptic._torsion_by_division(a, b, disc)
        orders.update(torsion.values())
        small = [(x, y) for x in range(-60, 61) if x ** 3 + a * x + b >= 0
                 and (r := int_sqrt(x ** 3 + a * x + b)) is not None
                 for y in {r, -r}]
        roots = integer_roots([b, a, 0, 1])
        for target in [*torsion, *small]:
            got = elliptic._division_solve(a, b, 2, target, {})
            assert list(got.items()) == list(
                reference_halvings(a, b, target).items()), (a, b, target)
            quartic = integer_roots(halving_quartic(a, b, target[0]))
            halves = {x for x in quartic if x ** 3 + a * x + b >= 0
                      and int_sqrt(x ** 3 + a * x + b) is not None}
            for e1 in roots:
                candidates = elliptic._halvings(a, e1, target)
                assert halves <= set(candidates) <= set(quartic), (
                    a, b, target, e1)
                assert candidates == sorted(set(candidates))
    # the models reach every even order that halving can produce here
    assert {2, 4, 6, 8, 10, 12} <= orders, orders


def test_halving_without_two_torsion_is_refused():
    # y^2 + y = x^3 has Z/3 and no point of order 2, so no e1 to halve by
    model = short_integral_model(WeierstrassCurve.from_coeffs(0, 0, 1, 0, 0))
    a, b = model.a, model.b
    (point, _), *_ = elliptic._torsion_by_division(
        a, b, -16 * (4 * a ** 3 + 27 * b ** 2)).items()
    with pytest.raises(ValueError):
        elliptic._division_solve(a, b, 2, point, {})


def test_odd_torsion_closure_makes_no_halving(monkeypatch):
    # the Tate normal form with Z/7 at t = -11/10 has an even point-count
    # bound, but its cubic has no integer root: by Cauchy its order is odd,
    # so the closure makes no ell = 2 solve with a target
    t = F(-11, 10)
    b, c = t ** 3 - t * t, t * t - t
    curve = WeierstrassCurve.from_coeffs(1 - c, -b, -b, 0, 0)
    model = short_integral_model(curve)
    disc = -16 * (4 * model.a ** 3 + 27 * model.b ** 2)
    assert _torsion_order_bound(model.a, model.b, disc) % 2 == 0
    calls = []
    solve = elliptic._division_solve

    def recording(a, b, ell, target, cache):
        calls.append((ell, target))
        return solve(a, b, ell, target, cache)

    monkeypatch.setattr(elliptic, "_division_solve", recording)
    assert torsion_subgroup(curve).invariants == (1, 7)
    assert (2, None) in calls
    assert [call for call in calls if call[0] == 2 and call[1]] == []


def _tate(b, c):
    # the Tate normal form y^2 + (1 - c) x y - b y = x^3 - b x^2
    return WeierstrassCurve.from_coeffs(1 - c, -b, -b, 0, 0)


def _primorial(n):
    # the product of the primes up to n
    return prod(p for p in range(2, n + 1) if all(p % d for d in range(2, p)))


def test_odd_division_of_two_torsion_matches_reference():
    # for odd ell and a target P of order 2, _division_solve takes the
    # candidates P + T over the solutions T of [ell]T = O; the reference
    # takes the integer roots of the division equation, whose roots repeat
    # for such a P: both give the same dict in the same order, whether the
    # solutions of [ell]T = O are cached or not.  The models are Tate
    # normal forms with Z/6, Z/10 and Z/2 x Z/6, at parameters whose
    # integral models keep the reference's divisor search small, and seeded
    # curves (X - e)(X^2 + e X + c), which have 2-torsion and mostly no odd
    # torsion
    curves = [_tate(t + t * t, t) for t in map(F, (
        1, -2, 2, -3, F(-1, 2), F(1, 2), F(-2, 3), F(-1, 3), F(1, 3)))]
    for t in (F(-1), F(-1, 2), F(2), F(1, 3)):
        u = t * t - 3 * t + 1
        curves.append(_tate(t ** 3 * (t - 1) * (2 * t - 1) / u ** 2,
                            -t * (t - 1) * (2 * t - 1) / u))
    for t in (F(-1), F(2), F(-1, 3)):
        c = (10 - 2 * t) / (t * t - 9)
        curves.append(_tate(c + c * c, c))
    models = [(m.a, m.b) for m in map(short_integral_model, curves)]
    rng = random.Random(SEED + 32)
    while len(models) < 40:
        e, c = rng.randint(-12, 12), rng.randint(-40, 40)
        a, b = c - e * e, -e * c
        if 4 * a ** 3 + 27 * b ** 2:
            models.append((a, b))
    groups, targets = [], 0
    for a, b in models:
        disc = -16 * (4 * a ** 3 + 27 * b ** 2)
        torsion = elliptic._torsion_by_division(a, b, disc)
        groups.append(sorted(torsion.values()))
        cache = {}
        for target, order in torsion.items():
            if order != 2:
                continue
            targets += 1
            for ell in (3, 5):
                expected = list(reference_division_solve(a, b, ell,
                                                         target).items())
                for solve_cache in (cache, {}):
                    got = elliptic._division_solve(a, b, ell, target,
                                                   solve_cache)
                    assert list(got.items()) == expected, (a, b, ell, target)
    assert targets >= 40
    # the named groups, and 2-torsion with no odd torsion
    assert [len(g) + 1 for g in groups[:16]] == [6] * 9 + [10] * 4 + [12] * 3
    assert sum(all(o in (2, 4, 8) for o in g) for g in groups) >= 10


def test_torsion_families_produce_named_groups():
    cases = [
        (TorsionKind.Z2xZ4, F(3, 2)),
        (TorsionKind.Z8, F(3)),
        (TorsionKind.Z2xZ8, F(2)),
        (TorsionKind.Z12, F(2)),
    ]
    for kind, t in cases:
        a = torsion_family_a(kind, t)
        g = torsion_subgroup(specialize_e24(a).curve)
        assert g.contains_structure(*kind.structure), (kind, t, g)


def test_full_two_torsion_iff_minus_a_square():
    from quadpreim.exactmath import rat_sqrt
    rng = random.Random(SEED + 6)
    checked = 0
    while checked < 12:
        a = F(rng.randint(-40, 40), rng.randint(1, 10))
        fiber = specialize_e24(a)
        if fiber.singular:
            continue
        g = torsion_subgroup(fiber.curve)
        full_two = g.invariants[0] == 2
        assert full_two == (rat_sqrt(-a) is not None), (a, g)
        checked += 1


def _int_point(p):
    # the integer law's view of a Fraction point: None for O, False when a
    # coordinate is fractional
    if p.is_infinity:
        return None
    if p.x.denominator == 1 and p.y.denominator == 1:
        return (int(p.x), int(p.y))
    return False


def _models_with_integer_points(rng):
    """Seeded integral short models (a, b), each with integer points: the
    torsion of fibers pushed to their integral models, and curves through
    two random integer points (nearly always of infinite order)."""
    models = []
    fibers = [specialize_e24(F(rng.randint(-30, 30), rng.randint(1, 9)))
              for _ in range(8)]
    fibers += [specialize_e24(2), specialize_e24(F(-49, 4)),
               specialize_e222(F(-1, 2)), specialize_e222(F(-7, 8))]
    for fiber in fibers:
        if fiber.singular:
            continue
        model = short_integral_model(fiber.curve)
        points = [_int_point(push(model, p))
                  for p in torsion_subgroup(fiber.curve).points]
        models.append((model.a, model.b, [p for p in points if p]))
    while len(models) < 40:
        (x1, y1), (x2, y2) = [(rng.randint(-30, 30), rng.randint(-60, 60))
                              for _ in range(2)]
        num = (y2 * y2 - y1 * y1) - (x2 ** 3 - x1 ** 3)
        if x1 == x2 or num % (x2 - x1):
            continue
        a = num // (x2 - x1)
        b = y1 * y1 - x1 ** 3 - a * x1
        if 4 * a ** 3 + 27 * b ** 2 != 0:
            models.append((a, b, [(x1, y1), (x2, y2)]))
    return models


def test_integer_law_matches_fraction_law():
    # the integer law on integral models against the Fraction chord-tangent
    # law: equal sums and doublings whenever the Fraction result is integral,
    # "not integral" exactly when it is not, and the multiples of a torsion
    # point equal [n]P
    rng = random.Random(SEED + 9)
    seen = {"fractional": 0, "infinity": 0, "torsion": 0, "nontorsion": 0}
    for a, b, points in _models_with_integer_points(rng):
        curve = short_curve(a, b)
        pool = points + [(x, -y) for x, y in points if y]
        for p in pool:
            for q in pool:
                expected = _int_point(curve._add_unchecked(ECPoint.affine(*p),
                                                           ECPoint.affine(*q)))
                assert _int_add(a, p, q) == expected, (a, b, p, q)
                seen["fractional"] += expected is False
                seen["infinity"] += expected is None
            assert _int_add(a, p, None) == _int_add(a, None, p) == p
        for p in pool:
            point = ECPoint.affine(*p)
            order = point_order(curve, point)
            multiples = _torsion_multiples(a, p)
            if order is None:
                assert multiples is None, (a, b, p)
                # P, 2P, ... agree up to the first fractional multiple
                q, fraction_q = p, point
                for _ in range(12):
                    q = _int_add(a, q, p)
                    fraction_q = curve._add_unchecked(fraction_q, point)
                    assert q == _int_point(fraction_q), (a, b, p)
                    if q is False:
                        break
                seen["nontorsion"] += 1
                continue
            assert len(multiples) == order, (a, b, p)
            for n in range(1, 2 * order + 1):
                assert multiples[(n - 1) % order] == _int_point(
                    curve._mul_unchecked(n, point)), (a, b, p, n)
            seen["torsion"] += 1
    assert min(seen.values()) >= 10, seen


def test_integral_model_roundtrip():
    rng = random.Random(SEED + 7)
    for _ in range(10):
        a = F(rng.randint(-30, 30), rng.randint(1, 9))
        fiber = specialize_e24(a)
        if fiber.singular:
            continue
        model = short_integral_model(fiber.curve)
        integral = short_curve(model.a, model.b)
        assert integral.discriminant() != 0
        T = fiber.torsion_point
        image = push(model, T)
        assert integral.contains(image)
        assert model.pull(_int_point(image)) == T == reference_pull(model, image)


def test_pull_matches_fraction_route():
    # the integer pull against the Fraction formulas of the reference, on
    # torsion points and on the other small integral points of the integral
    # models of curves with a1, a3 != 0 and with denominators; an integral
    # point off the model does not map onto the source curve, and the
    # integer check refuses it
    curves = [specialize_e24(F(-7, 3)).curve, specialize_e24(F(5, 4)).curve,
              specialize_e222(F(-1, 2)).curve, specialize_e222(F(3, 7)).curve,
              WeierstrassCurve.from_coeffs(F(1, 2), F(-3, 5), F(7, 3), 2, F(1, 6))]
    curves += [WeierstrassCurve.from_coeffs(1 - c, -b, -b, 0, 0)
               for b, c in ((12, 4), (4, 2), (2, 2))]
    checked = refused = 0
    for curve in curves:
        model = short_integral_model(curve)
        integral = short_curve(model.a, model.b)
        points = {_int_point(push(model, p))
                  for p in torsion_subgroup(curve).points} - {None}
        for x in range(-60, 61):
            rhs = x ** 3 + model.a * x + model.b
            y = int_sqrt(rhs) if rhs >= 0 else None
            if y is not None:
                points.update({(x, y), (x, -y)})
        assert model.pull(None) == INFINITY
        for x, y in points:
            image = ECPoint.affine(x, y)
            assert integral.contains(image)
            pulled = model.pull((x, y))
            assert pulled == reference_pull(model, image), (curve, x, y)
            assert curve.contains(pulled)
            checked += 1
            with pytest.raises(ArithmeticError):
                model.pull((x, y + 1))
            assert curve.equation_residue(
                reference_pull(model, ECPoint.affine(x, y + 1))) != 0
            refused += 1
    assert checked >= 40 and refused == checked


def test_singular_curves_refused_by_integral_model():
    # the node y^2 = x^3 - 3x + 2, the two singular two-four fibers, and the
    # cusp y^2 = x^3, whose model coefficients are both 0
    singular = [short_curve(-3, 2), specialize_e24(0).curve,
                specialize_e24(F(-1, 4)).curve, short_curve(0, 0)]
    for curve in singular:
        with pytest.raises(ValueError):
            short_integral_model(curve)
        with pytest.raises(ValueError):
            torsion_subgroup(curve)


def test_coprime_base_split_against_prime_factoring():
    # elliptic.factorize on seeded pairs of products of small prime powers,
    # against their prime factorizations: the roots are pairwise coprime and
    # rebuild both inputs, and the primes of a root have exponents in the
    # inputs proportional to their exponents in the root, whose gcd is 1 (no
    # root is a perfect power)
    rng = random.Random(SEED + 17)
    primes = (2, 3, 5, 7, 11, 13, 41, 1009)
    for _ in range(300):
        dens = [prod(p ** rng.randint(0, 6) for p in rng.sample(primes, 3))
                for _ in range(2)]
        split = elliptic.factorize(dens)
        assert all(gcd(r, s) == 1 for r in split for s in split if r != s)
        for i, n in enumerate(dens):
            assert prod(r ** exps[i] for r, exps in split.items()) == n
        for r, exps in split.items():
            in_root = factorize(r)
            assert gcd(*in_root.values()) == 1, (dens, r)
            for i, n in enumerate(dens):
                in_n = factorize(n)
                assert all(in_n.get(p, 0) == k * exps[i]
                           for p, k in in_root.items()), (dens, r)
    assert elliptic.factorize([5 ** 4 * 7 ** 2]) == {175: [2]}
    assert elliptic.factorize([5 ** 4 * 7 ** 2, 5]) == {5: [4, 1], 7: [2, 0]}
    assert elliptic.factorize([1, 1]) == {}


def _torsion_json(g):
    return json.dumps({"invariants": list(g.invariants),
                       "generators": [p.as_json() for p in g.generators],
                       "points": [p.as_json() for p in g.points]},
                      sort_keys=True)


def test_coprime_base_model_matches_prime_scaling(monkeypatch):
    # the scale u over a coprime base of the denominators against the least
    # u at every prime (reference_short_integral_model), on seeded two-four
    # fibers and on the four torsion families at t = n/d, d <= 11: the model
    # is an integral short form of the source, every torsion point pushes to
    # an integer point that pulls back onto the source, and the torsion
    # prints the same JSON under both models
    rng = random.Random(SEED + 11)
    curves = []
    while len(curves) < 300:
        fiber = specialize_e24(F(rng.randint(-50, 50), rng.randint(1, 50)))
        if not fiber.singular:
            curves.append(fiber.curve)
    for kind in TorsionKind:
        for t in {F(n, d) for d in range(1, 12) for n in range(-12, 13)}:
            a = torsion_family_a(kind, t)
            if a is not None and not specialize_e24(a).singular:
                curves.append(specialize_e24(a).curve)
    # j = 0 and j = 1728 curves, where one of the two denominators is 1 and
    # the other alone decides u
    curves += [short_curve(0, F(1, 7 ** 6)), short_curve(0, F(-5, 6 ** 7)),
               short_curve(F(-1, 5 ** 6), 0), short_curve(F(3, 11 ** 5), 0),
               short_curve(F(2, 11 ** 2), F(1, 13 ** 3))]
    assert len(curves) > 900
    printed = []
    for curve in curves:
        model = short_integral_model(curve)
        s2, b2, b4, b6 = model.scale ** 2, curve.b2, curve.b4, curve.b6
        c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
        assert type(model.a) is int and type(model.b) is int
        assert model.a == -27 * curve.c4 * s2 * s2
        assert model.b == -54 * c6 * s2 ** 3
        group = torsion_subgroup(curve)
        for p in group.points:
            if p.is_infinity:
                continue
            image = push(model, p)
            assert image.x.denominator == image.y.denominator == 1, curve
            assert model.pull((int(image.x), int(image.y))) == p, curve
        printed.append(_torsion_json(group))
    monkeypatch.setattr(elliptic, "short_integral_model",
                        reference_short_integral_model)
    assert [_torsion_json(torsion_subgroup(c)) for c in curves] == printed


def test_two_by_eight_fibers_with_large_prime_denominators():
    # Z/2 x Z/8 fibers at t = n/d, d a product of three primes from 41 to
    # 397: the scaling denominators reach about a hundred digits, some with
    # large composite parts that no small prime divides
    rng = random.Random(SEED + 13)
    primes = [p for p in range(41, 398) if all(p % q for q in range(2, p))]
    fibers = 0
    while fibers < 60:
        d = prod(rng.sample(primes, 3))
        n = rng.randint(-d, d)
        if gcd(n, d) != 1:
            continue
        curve = specialize_e24(torsion_family_a(TorsionKind.Z2xZ8,
                                                F(n, d))).curve
        g = torsion_subgroup(curve)
        assert g.invariants == (2, 8), (n, d)
        assert [point_order(curve, p) for p in g.generators] == [2, 8], (n, d)
        fibers += 1


def _at(poly, x):
    return sum(c * x ** i for i, c in enumerate(poly))


def test_division_polys_match_fraction_law():
    # X([n]P) = X - psi_{n-1} psi_{n+1} / psi_n^2 with psi_n = f_n for odd n
    # and 2Y f_n for even n, so (2Y)^2 = 4 (X^3 + a X + b) sits on the
    # even-index side, against the Fraction law for points of infinite
    # order; and for odd n, f_n(X) = 0 exactly when the order divides n
    rng = random.Random(SEED + 9)
    models = _models_with_integer_points(rng)
    # Tate normal forms y^2 + (1 - c) x y - b y = x^3 - b x^2 with (0, 0) of
    # order 5 (b = c = 2) and 7 (b = 4, c = 2)
    for b, c, order in ((2, 2, 5), (4, 2, 7)):
        curve = WeierstrassCurve.from_coeffs(1 - c, -b, -b, 0, 0)
        model = short_integral_model(curve)
        gen = ECPoint.affine(0, 0)
        assert point_order(curve, gen) == order
        models.append((model.a, model.b,
                       [_int_point(push(model, curve._mul_unchecked(k, gen)))
                        for k in range(1, order)]))
    seen = {3: 0, 5: 0, 7: 0, "nontorsion": 0}
    for a, b, points in models:
        curve = short_curve(a, b)
        f = _division_polys(a, b, 9)
        for x, y in points:
            point = ECPoint.affine(x, y)
            order = point_order(curve, point)
            if order is not None:
                for n in (3, 5, 7):
                    assert (_at(f[n], x) == 0) == (n % order == 0), (a, b, x, n)
                    seen[n] += n % order == 0
                continue
            two_y_sq = 4 * (x ** 3 + a * x + b)
            for n in range(2, 9):
                lo, mid, hi = (_at(f[k], x) for k in (n - 1, n, n + 1))
                if n % 2:
                    expected = x - Fraction(two_y_sq * lo * hi, mid * mid)
                else:
                    expected = x - Fraction(lo * hi, two_y_sq * mid * mid)
                assert curve._mul_unchecked(n, point).x == expected, (a, b, x, n)
            seen["nontorsion"] += 1
    assert min(seen.values()) >= 2, seen


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _brute_integer_roots(coeffs):
    # every root is at most the smallest r >= 1 with
    # |c_n| r^(n-i) >= 2^(n-i) |c_i| for all i < n (the Fujiwara bound)
    n = len(coeffs) - 1
    lead = abs(coeffs[-1])
    r = 1
    while any(lead * r ** (n - i) < 2 ** (n - i) * abs(c)
              for i, c in enumerate(coeffs[:-1])):
        r += 1
    return [x for x in range(-r, r + 1)
            if sum(c * x ** i for i, c in enumerate(coeffs)) == 0]


def test_integer_roots_against_divisor_oracle():
    # seeded polynomials of degree 1 to 8: planted integer roots (0 among
    # them, some repeated, some of even multiplicity) times factors with no
    # integer root, with coefficients up to and past 2^200; roots and
    # constant terms have small prime factors, so that the rational-root
    # oracle can enumerate the divisors
    rng = random.Random(SEED + 10)
    rootless = [[1, 0, 1], [-2, 0, 1], [-3, 2], [5, 2 ** 201],
                [3 ** 130, 0, 1], [1, 0, 0, 0, 2 ** 200], [-3, 0, 0, 1]]
    seen = {"zero": 0, "even": 0, "huge": 0, "rootless": 0}
    for trial in range(160):
        degree = rng.randint(1, 8)
        poly = [rng.choice([1, -1, 3, -2])]
        planted = []
        big = trial % 3 == 0
        while len(poly) - 1 < degree:
            room = degree - len(poly) + 1
            fits = [f for f in rootless if len(f) - 1 <= room]
            if fits and rng.random() < 0.3:
                poly = _poly_mul(poly, rng.choice(fits))
                continue
            if big:
                r = rng.choice([-1, 1]) * 2 ** rng.randint(60, 200)
                big = False
            else:
                r = rng.choice([0, rng.randint(-12, 12)])
            mult = min(room, rng.choice([1, 1, 2, 3]))
            planted += [r] * mult
            for _ in range(mult):
                poly = _poly_mul(poly, [-r, 1])
        found = integer_roots(poly)
        assert found == sorted(set(planted)), (poly, planted)
        assert found == reference_integer_roots(poly), poly
        seen["zero"] += 0 in planted
        seen["even"] += any(planted.count(r) == 2 for r in planted)
        seen["huge"] += max(abs(c) for c in poly) >= 2 ** 200
        seen["rootless"] += len(planted) < degree
    assert min(seen.values()) >= 10, seen


def test_integer_roots_random():
    rng = random.Random(SEED + 8)
    # factors with no integer root: x^2 + k, x^2 - 2, 2x - odd, x^3 - 3
    rootless = [[1, 0, 1], [5, 0, 1], [-2, 0, 1], [-3, 2], [7, 2], [-3, 0, 0, 1]]
    for trial in range(120):
        roots = [rng.randint(-30, 30) for _ in range(rng.randint(0, 4))]
        if trial % 2:
            roots += roots[:rng.randint(1, 2)]          # repeated roots
        poly = [rng.choice([1, 2, 5, -3])]
        for r in roots:
            poly = _poly_mul(poly, [-r, 1])
        for _ in range(rng.randint(0, 2)):
            poly = _poly_mul(poly, rng.choice(rootless))
        if len(poly) == 1:
            poly = _poly_mul(poly, rng.choice(rootless))
        found = integer_roots(poly)
        assert found == sorted(set(roots)), (poly, roots)
        assert found == _brute_integer_roots(poly)
    assert integer_roots([2, 0, 1]) == []
    assert integer_roots([0, 0, 0, 4]) == [0]
    assert integer_roots([7]) == []
    with pytest.raises(ValueError):
        integer_roots([0, 0])


def test_coprime_mod_against_resultant():
    # f and f' are coprime mod p exactly when p does not divide
    # Res(f, f'), for p that does not divide the leading coefficient:
    # seeded polynomials with small coefficients, many with a repeated root
    # mod a small p, some with a planted double root, and x^3 + 1, whose
    # derivative vanishes mod 3
    rng = random.Random(SEED + 33)
    polys = [[1, 0, 0, 1]]
    for trial in range(200):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
        f.append(rng.choice([1, -2, 3, 5]))
        if trial % 4 == 0:
            r = rng.randint(-5, 5)
            f = _poly_mul(f, [r * r, -2 * r, 1])
        polys.append(f)
    seen = {True: 0, False: 0}
    for f in polys:
        deriv = [i * c for i, c in enumerate(f)][1:]
        res = _int_resultant(f, deriv)
        for p in (3, 5, 7, 11, 13):
            if f[-1] % p:
                got = elliptic._coprime_mod(f, deriv, p)
                assert got == (res % p != 0), (f, p)
                seen[got] += 1
    assert not elliptic._coprime_mod([1, 0, 0, 1], [0, 0, 3], 3)
    assert min(seen.values()) >= 100, seen


def test_integer_roots_past_every_small_prime(monkeypatch):
    # (x - 1)(x - 1 - P)(x^2 + 1), P the product of the primes up to 200:
    # its two integer roots meet mod every odd prime below 200, so the walk
    # must pass all 45 of them; with the root 1 + P doubled it falls back on
    # the squarefree part, which has to pass them too
    big = 1 + _primorial(200)
    poly = _poly_mul(_poly_mul([-1, 1], [-big, 1]), [1, 0, 1])
    tried, coprime_mod = [], elliptic._coprime_mod

    def spy(f, g, p):
        tried.append(p)
        return coprime_mod(f, g, p)

    monkeypatch.setattr(elliptic, "_coprime_mod", spy)
    assert integer_roots(poly) == [1, big]
    assert tried[:46] == [p for p in range(3, 212, 2)
                          if all(p % d for d in range(3, p, 2))]
    assert integer_roots(_poly_mul(poly, [-big, 1])) == [1, big]
    assert integer_roots(_poly_mul(poly, [-1, 1])) == [1, big]


def test_torsion_of_tate_seven_at_a_huge_parameter():
    # Tate's Z/7 form at t = P + 1, P the product of the primes up to 200:
    # every prime of P divides the discriminant, so no prime of the
    # point-count bound is good (the bound is 0) and the root finder walks
    # past 200 for each division polynomial
    t = F(1 + _primorial(200))
    curve = _tate(t ** 3 - t * t, t * t - t)
    g = torsion_subgroup(curve)
    assert g.invariants == (1, 7)
    assert len(g.points) == 7 and all(curve.contains(p) for p in g.points)
