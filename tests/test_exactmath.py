import random
from fractions import Fraction

import pytest

from quadpreim.dynamics import _orbit_poly, critical_poly
from quadpreim.exactmath import (
    NFElem,
    QPoly,
    RatParseError,
    eliminate_c,
    format_rat,
    int_sqrt,
    parse_pair,
    parse_rat,
    rat_sqrt,
)
from reference import height, resultant, sylvester_resultant

SEED = 20240817
print("test_exactmath random seed:", SEED)


def F(n, d=1):
    return Fraction(n, d)


# -- square roots -----------------------------------------------------------

def test_int_sqrt_examples():
    assert int_sqrt(25921) == 161
    assert int_sqrt(0) == 0
    assert int_sqrt(2) is None


def test_int_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        int_sqrt(-1)


def test_rat_sqrt_examples():
    assert rat_sqrt(F(169, 14400)) == F(13, 120)
    assert rat_sqrt(1) == 1
    assert rat_sqrt(F(-1, 4)) is None
    assert rat_sqrt(F(2, 9)) is None


def test_rat_sqrt_squares_exactly():
    rng = random.Random(SEED)
    for _ in range(300):
        q = F(rng.randint(-80, 80), rng.randint(1, 80))
        r = rat_sqrt(q)
        if r is not None:
            assert r >= 0
            assert r * r == q
        sq = q * q
        assert rat_sqrt(sq) == abs(q)


def test_height():
    assert height(F(-24361, 14400)) == 24361
    assert height(0) == 1
    assert height(7) == 7
    rng = random.Random(SEED + 1)
    for _ in range(200):
        q = F(rng.randint(-99, 99), rng.randint(1, 99))
        assert height(q) == height(-q)
        assert (height(q) == 1) == (q in (0, 1, -1))


# -- rational strings -------------------------------------------------------

def test_parse_format_roundtrip():
    for s, val in [("3/4", F(3, 4)), ("-7", F(-7)), ("0", F(0)), ("-24361/14400", F(-24361, 14400))]:
        assert parse_rat(s) == val
        assert parse_rat(format_rat(val)) == val


def test_parse_rat_errors_carry_position():
    with pytest.raises(RatParseError) as err:
        parse_rat("12x/5")
    assert err.value.position == 2
    with pytest.raises(RatParseError):
        parse_rat("1/0")
    with pytest.raises(RatParseError):
        parse_rat("")
    # digits that str.isdigit accepts but int() does not, a non-ASCII digit
    # that int() would read, and more digits than int() converts
    for text, position in (("\u00b2", 0), ("1/\u0661", 2), ("1" * 5000, 0),
                           ("2/-" + "3" * 5000, 2)):
        with pytest.raises(RatParseError) as err:
            parse_rat(text)
        assert err.value.position == position


def test_parse_pair_lowest_terms():
    assert parse_pair("-6/-8") == (3, 4)
    assert parse_pair(" 6/-8") == (-3, 4)
    assert parse_pair("+0/-5") == parse_pair("-0") == (0, 1)
    assert parse_pair("12") == (12, 1)


# -- polynomials ------------------------------------------------------------

def test_qpoly_normalizes_leading_zeros():
    assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPoly([0]).is_zero()
    assert QPoly([]).degree == -1


def test_qpoly_arithmetic():
    f = QPoly([1, 2, 3])        # 3x^2 + 2x + 1
    g = QPoly([-1, 1])          # x - 1
    assert f + g == QPoly([0, 3, 3])
    assert f * g == QPoly([-1, -1, -1, 3])
    assert (f - f).is_zero()
    assert f * 0 == QPoly.zero()
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_qpoly_product_with_zero_and_interior_zeros():
    f = QPoly([F(1, 2), 0, 0, -3])     # -3x^3 + 1/2
    g = QPoly([0, 2, 0, 1])            # x^3 + 2x
    zero = QPoly.zero()
    for product in (f * zero, zero * f, zero * zero):
        assert product.coeffs == () and product.degree == -1
    # -3x^6 - 6x^4 + x^3/2 + x
    assert f * g == g * f == QPoly([0, 1, 0, F(1, 2), -6, 0, -3])
    assert all(type(c) is Fraction for c in (f * g).coeffs)


def test_qpoly_eval_at_a_number_field_element():
    # x = 1 + sqrt 2: x^2 = 3 + 2 sqrt 2, x^3 = 7 + 5 sqrt 2, so
    # x^3 - 3x + 1 = 7 + 5 sqrt 2 - 3 - 3 sqrt 2 + 1 = 5 + 2 sqrt 2
    mod = QPoly([-2, 0, 1])
    x = NFElem(mod, QPoly([1, 1]))
    assert QPoly([1, -3, 0, 1]).eval(x) == NFElem(mod, QPoly([5, 2]))
    assert QPoly([F(3, 4)]).eval(x) == NFElem(mod, QPoly([F(3, 4)]))


def test_qpoly_eval_and_compose():
    f = QPoly([1, 0, 1])        # x^2 + 1
    assert f.eval(F(1, 2)) == F(5, 4)
    g = QPoly([0, 0, 1])        # x^2
    assert f.eval(g) == QPoly([1, 0, 0, 0, 1])


def test_qpoly_derivative_and_gcd():
    f = QPoly([1, 2, 1])        # (x+1)^2
    assert f.derivative() == QPoly([2, 2])


def test_qpoly_format():
    assert QPoly([1, 2, 6, 4]).format("c") == "4*c^3 + 6*c^2 + 2*c + 1"
    assert QPoly([-1, 0, 1]).format() == "x^2 - 1"
    assert QPoly.zero().format() == "0"


# -- resultants -------------------------------------------------------------

def test_resultant_examples():
    x = QPoly.x()
    assert resultant(x ** 2 - 1, x - 1) == 0
    assert resultant(x ** 2 + 1, x - 1) == 2
    assert resultant(x - 3, x - 5) == -2


def test_resultant_rejects_double_zero():
    with pytest.raises(ValueError):
        resultant(QPoly.zero(), QPoly.zero())


def _random_poly(rng, max_deg=5, min_deg=0, den=4):
    deg = rng.randint(min_deg, max_deg)
    coeffs = [F(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(deg)]
    coeffs.append(F(rng.choice([-3, -2, -1, 1, 2, 3])))
    return QPoly(coeffs)


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(SEED + 2)
    pairs = [(_random_poly(rng), _random_poly(rng)) for _ in range(150)]
    # all-integer pairs
    pairs += [(_random_poly(rng, den=1), _random_poly(rng, den=1))
              for _ in range(40)]
    # degree-0 operands on either side, and on both
    pairs += [(_random_poly(rng, 0), _random_poly(rng)) for _ in range(10)]
    pairs += [(_random_poly(rng), _random_poly(rng, 0)) for _ in range(10)]
    pairs += [(QPoly.constant(F(-3, 2)), QPoly.constant(5))]
    # deg f < deg g, so the operands are swapped
    pairs += [(_random_poly(rng, 3, 1), _random_poly(rng, 7, 4))
              for _ in range(30)]
    # both degrees odd, where a swap or a remainder step flips the sign
    pairs += [(_random_poly(rng, m, m), _random_poly(rng, n, n))
              for m in (1, 3, 5) for n in (1, 3, 5) for _ in range(3)]
    for f, g in pairs:
        assert resultant(f, g) == sylvester_resultant(f, g)
        swapped = (-1) ** (f.degree * g.degree) * resultant(f, g)
        assert resultant(g, f) == swapped


def test_resultant_multiplicative():
    rng = random.Random(SEED + 3)
    for _ in range(60):
        f = _random_poly(rng, 4)
        g = _random_poly(rng, 3)
        h = _random_poly(rng, 3)
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def test_resultant_detects_shared_root():
    rng = random.Random(SEED + 4)
    x = QPoly.x()
    for _ in range(60):
        r = F(rng.randint(-9, 9), rng.randint(1, 9))
        f = _random_poly(rng, 3) * (x - r)  # force the root r
        assert resultant(f, x - r) == 0


# -- elimination of c --------------------------------------------------------

def test_eliminate_c_linear_cases():
    # f = 2c + 1, g = c^2 + c: the common root c = -1/2 forces 4a + 1.
    assert eliminate_c(QPoly([1, 2]), QPoly([0, 1, 1])) == QPoly([1, 4])
    assert eliminate_c(QPoly.x(), QPoly.x()) == QPoly([0, 1])


def test_eliminate_c_rejects_constant_in_c():
    for f in (QPoly.constant(3), QPoly.zero()):
        with pytest.raises(ValueError):
            eliminate_c(f, QPoly.x())


@pytest.mark.parametrize("f, g", [
    *(pytest.param(critical_poly(n), _orbit_poly(n), id=str(n))
      for n in (2, 3, 4, 5)),
    # rational coefficients in f and g: the cleared denominators scale every
    # sample by the same constant
    pytest.param(critical_poly(3) * F(2, 3),
                 _orbit_poly(3) * F(5, 6) + QPoly([F(1, 4), F(-1, 9)]),
                 id="rational-g"),
])
def test_eliminate_c_matches_specialized_determinant(f, g):
    # Independent route: specialize a, then take the Sylvester determinant;
    # the elimination is one fixed nonzero multiple of it.
    out = eliminate_c(f, g)
    assert out.degree == f.degree
    rng = random.Random(SEED + 5)
    ratios = set()
    for _ in range(6):
        a0 = F(rng.randint(-20, 20), rng.randint(1, 5))
        direct = sylvester_resultant(f, a0 - g)
        if direct == 0:
            assert out.eval(a0) == 0
        else:
            ratios.add(out.eval(a0) / direct)
    assert len(ratios) == 1 and 0 not in ratios


# -- quotient rings ---------------------------------------------------------

def test_nf_simple_identities():
    mod = QPoly([-2, 0, 1])             # x^2 - 2
    x = NFElem(mod, QPoly.x())
    one = NFElem(mod, QPoly.one())
    assert (x + 1) * (x - 1) == one
    mod3 = QPoly([-2, 0, 0, 1])         # x^3 - 2
    y = NFElem(mod3, QPoly.x())
    assert y ** 4 == NFElem(mod3, QPoly([0, 2]))
    assert y ** 0 == NFElem(mod3, QPoly.one())
    with pytest.raises(ValueError):
        y ** -1


def test_nf_modulus_mismatch_rejected():
    p = NFElem(QPoly([-2, 0, 1]), QPoly.x())
    q = NFElem(QPoly([-3, 0, 1]), QPoly.x())
    with pytest.raises(ValueError):
        _ = p + q


def test_nf_ring_axioms_random():
    rng = random.Random(SEED + 6)
    mod = QPoly([-2, 2, -3, 0, -3, 0, 1])   # x^6 - 3x^4 + 2x^2 - 2
    def rand_elem():
        return NFElem(mod, QPoly([F(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(6)]))
    for _ in range(60):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_nf_beta_minimal_polynomial_by_substitution():
    # alpha satisfies 4x^3 + 6x^2 + 2x + 1; with beta^2 = -2 alpha, substituting
    # alpha = -beta^2/2 and clearing denominators gives the flattened modulus.
    alpha_min = QPoly([1, 2, 6, 4])
    beta_sq_half = QPoly([0, 0, F(-1, 2)])   # -x^2/2
    composed = alpha_min.eval(beta_sq_half)
    mod = composed * -2
    assert mod == QPoly([-2, 0, 2, 0, -3, 0, 1])
    # and the quotient by that modulus really kills the relation
    beta = NFElem(mod, QPoly.x())
    alpha = -(beta * beta) * F(1, 2)
    lhs = 4 * alpha ** 3 + 6 * alpha ** 2 + 2 * alpha + 1
    assert lhs == NFElem(mod, QPoly.zero())
