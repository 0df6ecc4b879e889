"""Replay of every published value this package reproduces, organized as a
check registry keyed by source section.  Each check records its anchor, the
expected and computed values, and pass/fail; the CLI's verify-paper command
renders the report and sets the exit status.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import dynamics, elliptic, models, search
from .exactmath import NFElem, QPoly

SEED = 20250808


@dataclass(frozen=True)
class CheckResult:
    section: str
    anchor: str
    passed: bool
    expected: str
    computed: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "[%s] %-28s expected %s, computed %s" % (
            status, self.anchor, self.expected, self.computed)

    def as_json(self) -> dict:
        return {"section": self.section, "anchor": self.anchor,
                "passed": self.passed, "expected": self.expected,
                "computed": self.computed}


PUBLISHED_246_PAIRS = [
    (Fraction(-5248, 2025), Fraction(726745984, 284765625)),
    (Fraction(-17536, 5625), Fraction(878382976, 244140625)),
    (Fraction(-9153, 6400), Fraction(-437896611, 400000000)),
    (Fraction(-24361, 14400), Fraction(-42, 25)),
    (Fraction(-20817, 25600), Fraction(-1078371711, 6400000000)),
    (Fraction(-180625, 97344), Fraction(2845625, 5483712)),
    (Fraction(-158848, 99225), Fraction(20844352384, 683722265625)),
]

# height of the largest generating third-pre-image pair over the list above;
# a thirdpair scan at this bound re-finds all seven entries
REDISCOVERY_HEIGHT_BOUND = 485


def _result(section: str, anchor: str, expected, computed) -> CheckResult:
    return CheckResult(section=section, anchor=anchor,
                       passed=(expected == computed),
                       expected=str(expected), computed=str(computed))


def _bool_result(section: str, anchor: str, ok: bool) -> CheckResult:
    return _result(section, anchor, "holds", "holds" if ok else "violated")


# --------------------------------------------------------------------------
# section 2: the complete-intersection model of full trees
# --------------------------------------------------------------------------

def _checks_model() -> Iterable[CheckResult]:
    model3 = models.ideal_j(3)
    A = QPoly.x()
    mono = models._mono
    displayed = (
        models.QuadricForm.build(4, {mono(4, 2, 2): 1, mono(4, 1, 3): 1,
                                     mono(4, 0, 0): -1, mono(4, 3, 3): -A}),
        models.QuadricForm.build(4, {mono(4, 2, 2): 1, mono(4, 2, 3): 1,
                                     mono(4, 1, 1): -1, mono(4, 3, 3): -A}),
    )
    yield _bool_result("2", "§2 ideal, depth 3",
                       displayed == model3.generators)
    for n in range(2, 6):
        points = models.infinity_points(n)
        ok = len(points) == 2 ** (n - 1)
        model = models.ideal_j(n)
        ok = ok and all(model.contains(list(eps) + [0], A) for eps in points)
        smooth = True
        for eps in points:
            affine = [Fraction(e) for e in eps[:n - 1]] + [Fraction(0)]
            minors = models.jacobian_minors(model, n - 1, affine, A)
            smooth = smooth and any(m != 0 for m in minors)
        yield _bool_result("2", "§2 infinity points, depth %d" % n, ok and smooth)
    rng = random.Random(SEED)
    ok = True
    for _ in range(50):
        n = rng.randint(2, 4)
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        point = [dynamics.iterate(c, x, k) for k in range(n)] + [Fraction(1)]
        ok = ok and models.ideal_j(n).contains(point, dynamics.iterate(c, x, n))
    yield _bool_result("2", "§2 orbit-to-model map", ok)


# --------------------------------------------------------------------------
# sections 3.1 / 3.2: the two elliptic surfaces
# --------------------------------------------------------------------------

def _random_fibers(specialize, seed: int, count: int, num: int, den: int):
    """The first `count` nonsingular fibers at seeded random a = n/d with
    |n| <= num and 1 <= d <= den."""
    rng = random.Random(seed)
    fibers = []
    while len(fibers) < count:
        fiber = specialize(Fraction(rng.randint(-num, num),
                                    rng.randint(1, den)))
        if not fiber.singular:
            fibers.append(fiber)
    return fibers


def _checks_e24() -> Iterable[CheckResult]:
    fiber = elliptic.specialize_e24(1)
    yield _result("3.1", "§3.1 model at a=1",
                  "y^2 = x^3 + 3*x^2 + 16*x + 48", str(fiber.curve))
    yield _result("3.1", "§3.1 j(1)", Fraction(-59319, 625), fiber.j)
    yield _result("3.1", "§3.1 delta(1)", Fraction(625), fiber.delta)
    yield _result("3.1", "§3.1 T(1) order", 4,
                  elliptic.point_order(fiber.curve, fiber.torsion_point))
    yield _result("3.1", "§3.1 singular fibers",
                  [True, True, False],
                  [elliptic.specialize_e24(0).singular,
                   elliptic.specialize_e24(Fraction(-1, 4)).singular,
                   elliptic.specialize_e24(2).singular])
    ok = all(elliptic.point_order(fib.curve, fib.torsion_point) == 4
             and fib.curve.mul(2, fib.torsion_point)
             == elliptic.ECPoint.affine(1 - 4 * fib.a, 0)
             and fib.curve.discriminant() == -1024 * fib.delta
             and fib.curve.j_invariant() == -4 * fib.j
             for fib in _random_fibers(elliptic.specialize_e24, SEED + 1,
                                       25, 100, 100))
    yield _bool_result("3.1", "§3.1 section order/invariants", ok)


def _checks_e222() -> Iterable[CheckResult]:
    fiber = elliptic.specialize_e222(4)
    yield _result("3.2", "§3.2 model at a=4",
                  [Fraction(1774, 13), Fraction(815580, 169),
                   Fraction(150527944, 2197)],
                  [fiber.curve.a2, fiber.curve.a4, fiber.curve.a6])
    yield _result("3.2", "§3.2 P(4)", True, fiber.curve.contains(fiber.p_point))
    total = fiber.curve.add(fiber.p_point, fiber.q_point)
    yield _result("3.2", "§3.2 P(4)+Q(4) abscissa",
                  Fraction(-1146, 13), total.x)
    yield _result("3.2", "§3.2 delta(0)", Fraction(23),
                  elliptic.specialize_e222(0).delta)
    # discriminant factorization identity, symbolically in a
    a2 = QPoly([Fraction(942, 13), 16])
    a4 = QPoly([Fraction(293084, 169), Fraction(10048, 13)])
    a6 = QPoly([Fraction(30250696, 2197), Fraction(1620800, 169), 1024])
    disc = elliptic.WeierstrassCurve(0, a2, 0, a4, a6).discriminant()
    closed = QPoly([1, 4]) ** 2 * QPoly([23, 104, 368, 256])
    yield _result("3.2", "§3.2 delta factorization",
                  closed * Fraction(-65536), disc)
    ok = all(fib.curve.contains(point)
             and elliptic.point_order(fib.curve, point) is None
             for fib in _random_fibers(elliptic.specialize_e222, SEED + 2,
                                       10, 50, 25)
             for point in (fib.p_point, fib.q_point))
    yield _bool_result("3.2", "§3.2 sections nontorsion", ok)


# --------------------------------------------------------------------------
# section 4: the eight-point arrangement curves
# --------------------------------------------------------------------------

def _checks_224() -> Iterable[CheckResult]:
    point = (Fraction(209, 120), Fraction(71, 120),
             Fraction(161, 120), Fraction(13, 120))
    q, r, s, t = point
    model = models.arrangement_curve("224")
    minors = models.jacobian_minors(model, 4, point, Fraction(-42, 25))
    yield _result("4.1", "§4.1 minors closed form",
                  [8 * q * r * s, 4 * q * r * (-2 * t - 1),
                   2 * q * (4 * s * t - 2 * t - 1),
                   -2 * r * (4 * s * t + 2 * t + 1)],
                  minors)
    origin = models.jacobian_minors(model, 4, (Fraction(0),) * 4, Fraction(0))
    yield _result("4.1", "§4.1 origin singular at a=0",
                  [Fraction(0)] * 4, origin)
    cusp = models.jacobian_minors(model, 0,
                                  (Fraction(1), Fraction(1), Fraction(1),
                                   Fraction(0)), Fraction(7))
    yield _result("4.1", "§4.1 cuspidal -8rst minor", Fraction(-8), cusp[0])

    mod = QPoly([-2, 0, 2, 0, -3, 0, 1])
    beta = NFElem(mod, QPoly.x())
    alpha = -(beta * beta) * Fraction(1, 2)
    a1 = alpha ** 4 + 2 * alpha ** 3 + alpha * alpha + alpha
    nf_point = (NFElem(mod, QPoly.zero()), -beta, alpha, alpha * alpha + alpha)
    nf_minors = models.jacobian_minors(model, 4, nf_point, a1)
    zero = NFElem(mod, QPoly.zero())
    yield _bool_result("4.1", "§4.1 singular point certificate",
                       all(m == zero for m in nf_minors))
    yield _result("4.1", "§4.1 genus drops",
                  [4, 1], [models.genus_with_delta(4, (1,)),
                           models.genus_with_delta(4, (1, 1, 1, 1))])


def _checks_242() -> Iterable[CheckResult]:
    model = models.arrangement_curve("242")
    yield _result("4.2", "§4.2 coordinates",
                  ("q", "s", "t", "u", "z"), model.var_names)
    yield _result("4.2", "§4.2 generator count", 3, len(model.generators))
    yield _result("4.2", "§4.2 genus drops",
                  [3, 4, 3], [models.genus_with_delta(4, (2,)),
                              models.genus_with_delta(4, (1,)),
                              models.genus_with_delta(4, (1, 1))])


def _checks_2222_and_critical() -> Iterable[CheckResult]:
    yield _result("4.3", "§4.3 critical poly, level 2",
                  "2*c + 1", dynamics.critical_poly(2).format("c"))
    yield _result("4.3", "§4.3 critical poly, level 3",
                  "4*c^3 + 6*c^2 + 2*c + 1",
                  dynamics.critical_poly(3).format("c"))
    yield _result("4.3", "§4.3 critical poly, level 4",
                  "8*c^7 + 28*c^6 + 36*c^5 + 30*c^4 + 20*c^3 + 6*c^2 + 2*c + 1",
                  dynamics.critical_poly(4).format("c"))
    yield _result("4.3", "§4.3 level-2 critical value",
                  "4*a + 1", dynamics.critical_avalues(2).avalue_minpoly.format("a"))
    yield _result("4.3", "§4.3 level-3 critical values",
                  "256*a^3 + 368*a^2 + 104*a + 23",
                  dynamics.critical_avalues(3).avalue_minpoly.format("a"))
    yield _result("4.3", "§4.3 level-4 critical count",
                  7, dynamics.critical_avalues(4).avalue_minpoly.degree)
    yield _result("4.3", "§4.3 2222 genus drops",
                  [3, 4], [models.plane_genus_with_delta(16, (100, 1, 1)),
                           models.plane_genus_with_delta(16, (100, 1))])


def _checks_244() -> Iterable[CheckResult]:
    curve, point = elliptic.curve_244()
    yield _result("4.4", "§4.4 model",
                  "y^2 = x^3 + x^2 - 9*x + 7", str(curve))
    yield _result("4.4", "§4.4 (3,4) on curve", True, curve.contains(point))
    yield _result("4.4", "§4.4 (3,4) nontorsion", None,
                  elliptic.point_order(curve, point))
    yield _result("4.4", "§4.4 (1,0) order", 2,
                  elliptic.point_order(curve, elliptic.ECPoint.affine(1, 0)))


# --------------------------------------------------------------------------
# genus identity and torsion families
# --------------------------------------------------------------------------

def _checks_genus() -> Iterable[CheckResult]:
    closed = [models.genus_closed(n) for n in range(2, 13)]
    hilbert = [models.genus_hilbert(n) for n in range(2, 13)]
    yield _result("genus", "genus identity, depths 2..12", closed, hilbert)
    yield _result("genus", "genus values 3 and 4", [1, 5],
                  [models.genus_closed(3), models.genus_closed(4)])


def _checks_torsion() -> Iterable[CheckResult]:
    K = elliptic.TorsionKind
    yield _result("torsion", "§6.1 family values",
                  [Fraction(-1), Fraction(2), Fraction(-49, 2500)],
                  [elliptic.torsion_family_a(K.Z2xZ4, 1),
                   elliptic.torsion_family_a(K.Z8, 2),
                   elliptic.torsion_family_a(K.Z2xZ8, 1)])
    yield _result("torsion", "§6.1 excluded parameters",
                  [None, None, None, None],
                  [elliptic.torsion_family_a(K.Z2xZ4, Fraction(1, 2)),
                   elliptic.torsion_family_a(K.Z8, 1),
                   elliptic.torsion_family_a(K.Z2xZ8, Fraction(-1, 2)),
                   elliptic.torsion_family_a(K.Z12, Fraction(1, 117688))])
    for kind, ts in [(K.Z2xZ4, (1, 2, Fraction(3, 2))),
                     (K.Z8, (2, 3, Fraction(1, 2))),
                     (K.Z2xZ8, (1, 2, Fraction(3, 2))),
                     (K.Z12, (1, 2, Fraction(1, 2)))]:
        ok = True
        for t in ts:
            a = elliptic.torsion_family_a(kind, t)
            group = elliptic.torsion_subgroup(elliptic.specialize_e24(a).curve)
            ok = ok and group.contains_structure(*kind.structure)
        yield _bool_result("torsion", "§6.1 family %s containment" % kind.value, ok)


# --------------------------------------------------------------------------
# section 6.2: the published full-tree pairs
# --------------------------------------------------------------------------

def _checks_62() -> Iterable[CheckResult]:
    for idx, (c, a) in enumerate(PUBLISHED_246_PAIRS, start=1):
        rec = search.verify_pair(c, a, (2, 4, 6), 3)
        sig = rec.signature if rec is not None else None
        yield _result("6.2", "§6.2 pair %d" % idx, (2, 4, 6), sig)


def _checks_62_scan() -> Iterable[CheckResult]:
    config = search.SearchConfig(height_bound=REDISCOVERY_HEIGHT_BOUND,
                                 depth=3, target=(2, 4, 6))
    found = {(rec.c, rec.a) for rec in search.scan_thirdpair(config)}
    missing = [i for i, pair in enumerate(PUBLISHED_246_PAIRS, start=1)
               if pair not in found]
    yield _result("6.2-scan", "§6.2 rediscovery at height %d"
                  % REDISCOVERY_HEIGHT_BOUND, [], missing)


_SECTIONS: dict[str, Callable[[], Iterable[CheckResult]]] = {
    "2": _checks_model,
    "3.1": _checks_e24,
    "3.2": _checks_e222,
    "4.1": _checks_224,
    "4.2": _checks_242,
    "4.3": _checks_2222_and_critical,
    "4.4": _checks_244,
    "genus": _checks_genus,
    "torsion": _checks_torsion,
    "6.2": _checks_62,
    "6.2-scan": _checks_62_scan,
}

# the rediscovery scan is the one check that needs numpy; it runs only when
# asked for by name, so the default report runs without numpy
DEFAULT_SECTIONS = tuple(s for s in _SECTIONS if s != "6.2-scan")


def available_sections() -> tuple[str, ...]:
    return tuple(_SECTIONS)


def run_checks(section: Optional[str] = None) -> list[CheckResult]:
    """Run one section's checks, or every default section when None."""
    if section is None:
        names = DEFAULT_SECTIONS
    else:
        if section not in _SECTIONS:
            raise ValueError("unknown section %r; available: %s"
                             % (section, ", ".join(_SECTIONS)))
        names = (section,)
    results = []
    for name in names:
        results.extend(_SECTIONS[name]())
    return results
