import random
from fractions import Fraction

import pytest

from quadpreim.dynamics import iterate
from quadpreim.exactmath import NFElem, QPoly
from quadpreim.models import (
    ModelMembershipError,
    QuadricForm,
    arrangement_curve,
    genus_closed,
    genus_hilbert,
    genus_with_delta,
    ideal_j,
    infinity_points,
    jacobian_minors,
    plane_genus_with_delta,
)

SEED = 3141
print("test_models random seed:", SEED)


def F(n, d=1):
    return Fraction(n, d)


def mono(nv, *positions):
    out = [0] * nv
    for p in positions:
        out[p] += 1
    return tuple(out)


A = QPoly.x()


# -- the ideal of full trees --------------------------------------------------

def test_ideal_j_smallest_case():
    model = ideal_j(2)
    assert model.var_names == ("z0", "z1", "z2")
    assert len(model.generators) == 1
    expected = QuadricForm.build(3, {
        mono(3, 1, 1): 1,
        mono(3, 1, 2): 1,
        mono(3, 0, 0): -1,
        mono(3, 2, 2): -A,
    })
    assert model.generators[0] == expected


def test_ideal_j_depth_three_display():
    model = ideal_j(3)
    g1 = QuadricForm.build(4, {
        mono(4, 2, 2): 1, mono(4, 1, 3): 1, mono(4, 0, 0): -1, mono(4, 3, 3): -A,
    })
    g2 = QuadricForm.build(4, {
        mono(4, 2, 2): 1, mono(4, 2, 3): 1, mono(4, 1, 1): -1, mono(4, 3, 3): -A,
    })
    assert model.generators == (g1, g2)


def test_ideal_j_generator_count():
    for n in range(2, 9):
        model = ideal_j(n)
        assert len(model.generators) == n - 1
        assert model.num_vars == n + 1


def test_psi_map_points_lie_on_model():
    rng = random.Random(SEED)
    for _ in range(50):
        n = rng.randint(2, 4)
        c = F(rng.randint(-30, 30), rng.randint(1, 30))
        x = F(rng.randint(-30, 30), rng.randint(1, 30))
        orbit = [iterate(c, x, k) for k in range(n)]
        a = iterate(c, x, n)
        point = orbit + [Fraction(1)]
        assert ideal_j(n).contains(point, a)


# -- arrangement curves -------------------------------------------------------

def test_arrangement_224_display():
    model = arrangement_curve("224")
    assert model.var_names == ("q", "r", "s", "t", "z")
    q, r, s, t, z = range(5)
    base = {mono(5, z, z): A, mono(5, t, t): -1}
    g1 = QuadricForm.build(5, {**base, mono(5, t, z): -1, mono(5, s, s): 1})
    g2 = QuadricForm.build(5, {**base, mono(5, s, z): -1, mono(5, q, q): 1})
    g3 = QuadricForm.build(5, {**base, mono(5, s, z): 1, mono(5, r, r): 1})
    assert model.generators == (g1, g2, g3)


def test_arrangement_242_display():
    model = arrangement_curve("242")
    assert model.var_names == ("q", "s", "t", "u", "z")
    q, s, t, u, z = range(5)
    base = {mono(5, z, z): A, mono(5, t, t): -1}
    g1 = QuadricForm.build(5, {**base, mono(5, t, z): -1, mono(5, s, s): 1})
    g2 = QuadricForm.build(5, {**base, mono(5, t, z): 1, mono(5, u, u): 1})
    g3 = QuadricForm.build(5, {**base, mono(5, s, z): -1, mono(5, q, q): 1})
    assert model.generators == (g1, g2, g3)


def test_arrangement_2222_display():
    model = arrangement_curve("2222")
    assert model.var_names == ("q", "s", "t", "u", "v", "z")
    assert len(model.generators) == 3
    # v never appears: the published display omits the fourth quadric
    for gen in model.generators:
        for monomial, _ in gen.terms:
            assert monomial[4] == 0


def test_arrangement_unknown_tag():
    with pytest.raises(ValueError):
        arrangement_curve("999")


# -- genus formulas -----------------------------------------------------------

def test_genus_closed_examples():
    assert genus_closed(1) == 0
    assert genus_closed(2) == 0
    assert genus_closed(3) == 1
    assert genus_closed(4) == 5


def test_genus_hilbert_examples():
    assert genus_hilbert(3) == 1
    assert genus_hilbert(4) == 5
    assert genus_hilbert(8) == genus_closed(8) == 321


def test_genus_formulas_agree():
    for n in range(2, 81):
        assert genus_closed(n) == genus_hilbert(n)


def test_genus_with_delta():
    assert genus_with_delta(4, (1, 1, 1, 1)) == 1
    assert genus_with_delta(4, (2,)) == 3
    assert genus_with_delta(4, (1,)) == 4
    assert genus_with_delta(4, ()) == 5
    with pytest.raises(ValueError):
        genus_with_delta(4, (6,))
    with pytest.raises(ValueError):
        genus_with_delta(4, (0,))


def test_plane_genus_with_delta():
    assert plane_genus_with_delta(16, ()) == 105
    assert plane_genus_with_delta(16, (100, 1, 1)) == 3
    assert plane_genus_with_delta(16, (100, 1)) == 4


# -- points at infinity -------------------------------------------------------

def test_infinity_points_smallest():
    assert set(infinity_points(2)) == {(1, 1), (-1, 1)}
    for eps in infinity_points(2):
        point = list(eps) + [0]
        assert ideal_j(2).contains(point, QPoly.x())


def test_infinity_points_count_and_membership():
    for n in range(2, 9):
        pts = infinity_points(n)
        assert len(pts) == 2 ** (n - 1)
        assert len(set(pts)) == len(pts)
        model = ideal_j(n)
        for eps in pts:
            assert eps[-1] == 1
            # identically in a, not just at samples
            assert model.contains(list(eps) + [0], QPoly.x())


def test_infinity_points_nonsingular():
    for n in range(2, 6):
        model = ideal_j(n)
        for eps in infinity_points(n):
            # chart at index n-1 where the coordinate is +1
            affine = [Fraction(e) for e in eps[:n - 1]] + [Fraction(0)]
            minors = jacobian_minors(model, n - 1, affine, QPoly.x())
            assert any(isinstance(m, QPoly) and not m.is_zero() or
                       (not isinstance(m, QPoly) and m != 0)
                       for m in minors)


# -- Jacobian criterion -------------------------------------------------------

PAIR4_C = F(-24361, 14400)
PAIR4_A = F(-42, 25)
# third-level tree data: q^2 + c = s, r^2 + c = -s, s^2 + c = t, t^2 + c = a
POINT_224 = (F(209, 120), F(71, 120), F(161, 120), F(13, 120))


def test_jacobian_minors_closed_forms_on_affine_chart():
    model = arrangement_curve("224")
    q, r, s, t = POINT_224
    minors = jacobian_minors(model, 4, POINT_224, PAIR4_A)
    expected = [
        8 * q * r * s,
        4 * q * r * (-2 * t - 1),
        2 * q * (4 * s * t - 2 * t - 1),
        -2 * r * (4 * s * t + 2 * t + 1),
    ]
    assert minors == expected
    assert any(m != 0 for m in minors)

    # sign flips of the third-level values stay on the model
    flipped = (-q, r, s, t)
    assert jacobian_minors(model, 4, flipped, PAIR4_A)[0] == -8 * q * r * s


def test_jacobian_origin_singular_at_zero():
    model = arrangement_curve("224")
    origin = (F(0), F(0), F(0), F(0))
    minors = jacobian_minors(model, 4, origin, F(0))
    assert all(m == 0 for m in minors)


def test_jacobian_membership_enforced():
    model = arrangement_curve("224")
    with pytest.raises(ModelMembershipError):
        jacobian_minors(model, 4, (F(1), F(1), F(1), F(1)), F(5))


def test_cuspidal_points_nonsingular_via_q_chart():
    model = arrangement_curve("224")
    for r in (1, -1):
        for s in (1, -1):
            point = (F(r), F(s), F(1), F(0))    # (r, s, t, z) with q = 1
            minors = jacobian_minors(model, 0, point, F(5))
            assert minors[0] == -8 * r * s      # the -8rst minor, t = 1
            assert any(m != 0 for m in minors)


def test_singular_point_certificate_in_number_field():
    # beta with beta^2 = -2 alpha, alpha a root of 4x^3 + 6x^2 + 2x + 1;
    # the flattened modulus is x^6 - 3x^4 + 2x^2 - 2
    mod = QPoly([-2, 0, 2, 0, -3, 0, 1])
    beta = NFElem(mod, QPoly.x())
    alpha = -(beta * beta) * F(1, 2)
    a1 = alpha ** 4 + 2 * alpha ** 3 + alpha * alpha + alpha
    # the closed quadratic expression for the same value
    assert a1 == F(-1, 4) * alpha * alpha + F(1, 2) * alpha - F(1, 8)

    point = (NFElem(mod, QPoly.zero()), -beta, alpha, alpha * alpha + alpha)
    model = arrangement_curve("224")
    minors = jacobian_minors(model, 4, point, a1)
    zero = NFElem(mod, QPoly.zero())
    assert all(m == zero for m in minors)


def test_fiber_at_one_has_no_singular_rational_point():
    # sweep c of height <= 100; each 224-configuration in the tree of a = 1
    # gives an on-model affine point, which must then be nonsingular
    from quadpreim.dynamics import preimage_tree
    from quadpreim.search import fractions_by_height

    model = arrangement_curve("224")
    points_checked = 0
    sweep = [F(0)] + [sign * f for f in fractions_by_height(100)
                      for sign in (1, -1)]
    for c in sweep:
        tree = preimage_tree(c, 1, 3)
        if not tree.levels[0]:
            continue
        lvl2 = {n.value: tree.levels[0][n.parent].value for n in tree.levels[1]}
        lvl3 = [(n.value, tree.levels[1][n.parent].value) for n in tree.levels[2]]
        for s, t in lvl2.items():
            qs = [v for v, parent in lvl3 if parent == s]
            rs = [v for v, parent in lvl3 if parent == -s]
            for q in qs:
                for r in rs:
                    minors = jacobian_minors(model, 4, (q, r, s, t), F(1))
                    assert any(m != 0 for m in minors)
                    points_checked += 1
    # the affine fiber has genus 5 and, in this sweep, no rational points at
    # all; the points at infinity are covered by the cuspidal-minor test
    assert points_checked == 0


def test_export_text_mentions_all_generators():
    text = arrangement_curve("224").export_text()
    assert text.splitlines()[0] == "variables: q, r, s, t, z"
    assert len([ln for ln in text.splitlines() if ln.startswith("g")]) == 3
    jtext = ideal_j(3).export_text()
    assert "z2^2" in jtext and "a*z3^2" in jtext
