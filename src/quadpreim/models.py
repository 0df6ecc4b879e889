"""Projective models of the pre-image curves: the complete-intersection ideal
for full trees, the explicit eight-point arrangement curves, genus values by
two independent formulas, the points at infinity, and Jacobian-criterion
smoothness checks at supplied points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .exactmath import QPoly

Monomial = tuple[int, ...]


class ModelMembershipError(ValueError):
    """A point handed to the Jacobian machinery is not on the model; carries
    the nonzero generator residues."""

    def __init__(self, residues):
        self.residues = residues
        super().__init__("point is not on the model; generator residues %r"
                         % (residues,))


@dataclass(frozen=True)
class QuadricForm:
    """Homogeneous degree-2 form in num_vars projective coordinates whose
    coefficients are polynomials in the fiber parameter a (QPoly in a).
    """

    num_vars: int
    terms: tuple[tuple[Monomial, QPoly], ...]

    @classmethod
    def build(cls, num_vars: int, entries: dict) -> "QuadricForm":
        packed = []
        for mono, coeff in sorted(entries.items(), reverse=True):
            if not isinstance(coeff, QPoly):
                coeff = QPoly.constant(coeff)
            if coeff.is_zero():
                continue
            if len(mono) != num_vars or sum(mono) != 2 or any(e < 0 for e in mono):
                raise ValueError("monomial %r is not quadratic in %d variables"
                                 % (mono, num_vars))
            packed.append((tuple(mono), coeff))
        return cls(num_vars=num_vars, terms=tuple(packed))

    def evaluate(self, point: Sequence, a_value):
        """Value at a full projective coordinate tuple; works over any ring
        containing Q (Fraction, NFElem, QPoly in a)."""
        if len(point) != self.num_vars:
            raise ValueError("expected %d coordinates" % self.num_vars)
        return _evaluate_terms(self.terms, point, a_value)

    def partial(self, var: int) -> tuple[tuple[Monomial, QPoly], ...]:
        """The terms of the derivative in coordinate var, a linear form."""
        return tuple((mono[:var] + (mono[var] - 1,) + mono[var + 1:],
                      coeff * mono[var])
                     for mono, coeff in self.terms if mono[var])

    def format(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            body = "*".join(
                ("%s" % names[i] if e == 1 else "%s^%d" % (names[i], e))
                for i, e in enumerate(mono) if e)
            cs = coeff.format("a")
            if cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append("-" + body)
            elif ("+" in cs[1:]) or ("-" in cs[1:]):
                parts.append("(%s)*%s" % (cs, body))
            else:
                parts.append("%s*%s" % (cs, body))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


@dataclass(frozen=True)
class QuadricModel:
    """A projective model cut out by quadric generators, with named
    coordinates.  Generator count equals the codimension for the complete
    intersections produced by ideal_j."""

    var_names: tuple[str, ...]
    generators: tuple[QuadricForm, ...]

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def residues(self, point: Sequence, a_value) -> list:
        return [g.evaluate(point, a_value) for g in self.generators]

    def contains(self, point: Sequence, a_value) -> bool:
        return all(_ring_is_zero(r) for r in self.residues(point, a_value))

    def export_text(self) -> str:
        lines = ["variables: %s" % ", ".join(self.var_names)]
        for i, g in enumerate(self.generators, start=1):
            lines.append("g%d: %s" % (i, g.format(self.var_names)))
        return "\n".join(lines)


def _evaluate_terms(terms, point: Sequence, a_value):
    total = 0
    for mono, coeff in terms:
        term = coeff.eval(a_value)
        for value, exp in zip(point, mono):
            for _ in range(exp):
                term = term * value
        total = total + term
    return total


def _ring_is_zero(value) -> bool:
    if hasattr(value, "is_zero"):
        return value.is_zero()
    return value == 0


def _mono(num_vars: int, *positions: int) -> Monomial:
    out = [0] * num_vars
    for p in positions:
        out[p] += 1
    return tuple(out)


def ideal_j(n: int) -> QuadricModel:
    """The complete intersection of n-1 quadrics cutting out the full
    pre-image tree of depth n in P^n: generators
    Z_{n-1}^2 + Z_i Z_n - Z_{i-1}^2 - a Z_n^2 for i = 1..n-1."""
    if n < 2:
        raise ValueError("the model needs n >= 2")
    nv = n + 1
    a = QPoly.x()
    gens = []
    for i in range(1, n):
        entries = {
            _mono(nv, n - 1, n - 1): 1,
            _mono(nv, i, n): 1,
            _mono(nv, i - 1, i - 1): -1,
            _mono(nv, n, n): -a,
        }
        gens.append(QuadricForm.build(nv, entries))
    names = tuple("z%d" % i for i in range(nv))
    return QuadricModel(var_names=names, generators=tuple(gens))


# each eight-point arrangement: its coordinate names, and one (x, y, sign)
# per generator a z^2 - t^2 + x^2 - sign y z
_ARRANGEMENTS = {
    "224": ("qrstz", (("s", "t", 1), ("q", "s", 1), ("r", "s", -1))),
    "242": ("qstuz", (("s", "t", 1), ("u", "t", -1), ("q", "s", 1))),
    "2222": ("qstuvz", (("s", "t", 1), ("q", "s", 1), ("u", "q", 1))),
}


def arrangement_curve(tag: str) -> QuadricModel:
    """The displayed projective models of the three eight-point arrangements.

    224: coordinates (q, r, s, t, z) in P^4;
    242: coordinates (q, s, t, u, z) in P^4;
    2222: coordinates (q, s, t, u, v, z) with the three listed generators --
    the published system names four quadrics in P^5 but displays three, so
    the sixth coordinate v is carried unused and the count mismatch is left
    visible rather than silently repaired.
    """
    if tag not in _ARRANGEMENTS:
        raise ValueError("unknown arrangement tag %r" % (tag,))
    names, specs = _ARRANGEMENTS[tag]
    nv = len(names)
    t, z = names.index("t"), names.index("z")
    gens = []
    for x, y, sign in specs:
        x, y = names.index(x), names.index(y)
        gens.append(QuadricForm.build(nv, {
            _mono(nv, z, z): QPoly.x(), _mono(nv, t, t): -1,
            _mono(nv, x, x): 1, _mono(nv, y, z): -sign}))
    return QuadricModel(var_names=tuple(names), generators=tuple(gens))


# ---------------------------------------------------------------------------
# genus arithmetic
# ---------------------------------------------------------------------------

def genus_closed(n: int) -> int:
    """(n-3) 2^(n-2) + 1 for the depth-n tree curves (0 for n = 1, 2)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 0
    return (n - 3) * 2 ** (n - 2) + 1


def genus_hilbert(n: int) -> int:
    """Arithmetic genus of a complete intersection of n-1 quadrics in P^n
    through its Hilbert polynomial:
    p_a = sum_{m=1}^{n-1} (-1)^(m+1) C(n-1, m) phi(-2m) with
    phi(z) = (z+1)(z+2)...(z+n)/n!."""
    if n < 2:
        raise ValueError("n must be at least 2")

    def phi(z: int) -> Fraction:
        num = 1
        for i in range(1, n + 1):
            num *= z + i
        value = Fraction(num)
        for i in range(1, n + 1):
            value /= i
        return value

    total = Fraction(0)
    for m in range(1, n):
        total += (-1) ** (m + 1) * comb(n - 1, m) * phi(-2 * m)
    if total.denominator != 1:
        raise ArithmeticError("Hilbert-polynomial genus is not an integer")
    return int(total)


def genus_with_delta(n: int, deltas: Sequence[int]) -> int:
    """Geometric genus after subtracting the supplied delta-invariants from
    the arithmetic genus of the depth-n complete intersection.  The deltas
    come from external blow-up analyses; this is bookkeeping only."""
    return _subtract_deltas(genus_hilbert(n), deltas)


def plane_genus_with_delta(degree: int, deltas: Sequence[int]) -> int:
    """Same bookkeeping against a degree-d plane model, whose arithmetic
    genus is (d-1)(d-2)/2 (the depth-4 tree curve is the degree-16 case)."""
    if degree < 3:
        raise ValueError("degree must be at least 3")
    return _subtract_deltas((degree - 1) * (degree - 2) // 2, deltas)


def _subtract_deltas(genus: int, deltas: Sequence[int]) -> int:
    if any(d <= 0 for d in deltas):
        raise ValueError("delta invariants are positive")
    g = genus - sum(deltas)
    if g < 0:
        raise ValueError("delta sum exceeds the arithmetic genus")
    return g


# ---------------------------------------------------------------------------
# points at infinity and the Jacobian criterion
# ---------------------------------------------------------------------------

SignVector = tuple[int, ...]


def infinity_points(n: int) -> tuple[SignVector, ...]:
    """The 2^(n-1) sign vectors (eps_0, ..., eps_{n-1}) with eps_{n-1} = +1;
    appending a final 0 coordinate gives all points of the depth-n model on
    the hyperplane Z_n = 0."""
    if n < 2:
        raise ValueError("n must be at least 2")
    out = []
    for signs in itertools.product((1, -1), repeat=n - 1):
        out.append(tuple(signs) + (1,))
    return tuple(out)


def jacobian_minors(model: QuadricModel, chart_var: int, point: Sequence,
                    a_value) -> list:
    """Determinants of all maximal minors of the Jacobian of the model's
    generators, dehomogenized at chart_var and evaluated at the affine point.

    The point has num_vars - 1 coordinates (chart_var omitted); coordinates
    and a_value may be Fractions, NFElems sharing a modulus, or QPoly in a
    for identically-in-a checks.  The point must lie on the model; the point
    is singular exactly when every minor vanishes.
    """
    nv = model.num_vars
    if not 0 <= chart_var < nv:
        raise ValueError("chart index out of range")
    if len(point) != nv - 1:
        raise ValueError("expected %d affine coordinates" % (nv - 1))
    proj = list(point)
    proj.insert(chart_var, Fraction(1))
    residues = model.residues(proj, a_value)
    if not all(_ring_is_zero(r) for r in residues):
        raise ModelMembershipError(residues)

    cols = [i for i in range(nv) if i != chart_var]
    matrix = []
    for gen in model.generators:
        matrix.append([_evaluate_terms(gen.partial(i), proj, a_value)
                       for i in cols])
    rows = len(matrix)
    minors = []
    for chosen in itertools.combinations(range(len(cols)), rows):
        minors.append(_det([[matrix[r][c] for c in chosen] for r in range(rows)]))
    return minors


def _det(rows: list) -> object:
    """Determinant by Laplace expansion over an arbitrary commutative ring;
    the matrices here are at most 4x4."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        entry = rows[0][j]
        if _ring_is_zero(entry):
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        cofactor = _det(sub)
        term = entry * cofactor
        total = total + term if j % 2 == 0 else total - term
    return total
