"""The four workloads: their inputs, warm-up, timed calls and checks.

Each workload makes its inputs from the seed with the benchmark's own code
(`prepare`), turns them into program objects once quadpreim is imported
(`bind`), makes one untimed warm-up call, and then offers rounds of timed
operations.  An operation carries the units of work it stands for, fixed
by its input, and a check that returns a list of problems (empty when the
output is right).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

SEARCH_DEPTH = 3
HUNT_HEIGHT = 100
HUNT_SHARDS = 2
HUNT_TARGET = (2, 4, 6)
HUNT_WARMUP_HEIGHT = 30          # smallest bound that takes the tiled path
FORWARD_HEIGHT = 8
FORWARD_TARGET = (2, 2, 4)
FORWARD_WARMUP_HEIGHT = 2
FAMILY_CURVES = 20               # per family, as in acceptance criterion 6
FIBER_CURVES = 1000
FIBER_HEIGHT = 50
CHECK_PRIMES = 3


@dataclass
class Op:
    """One timed call: `call` returns the output that `check` inspects."""

    call: Callable[[], object]
    units: int
    check: Callable[[object], list]


def run_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _warm_up(cli, argv):
    code, _ = run_cli(cli, argv)
    if code != 0:
        raise RuntimeError("warm-up %s exited with %d" % (" ".join(argv), code))


def _records(output) -> tuple[list[dict], list[str]]:
    code, text = output
    if code != 0:
        return [], ["exit code %d" % code]
    try:
        return [json.loads(line) for line in text.splitlines() if line], []
    except json.JSONDecodeError as exc:
        return [], ["unparsable record: %s" % exc]


def _record_problems(rec: dict, target, seen: set) -> tuple[tuple, list[str]]:
    """Checks shared by both searches; returns the record's key."""
    c, a = oracles.parse(rec["c"]), oracles.parse(rec["a"])
    problems = []
    if (c, a) in seen:
        problems.append("(c, a) = (%s, %s) repeats" % (rec["c"], rec["a"]))
    seen.add((c, a))
    counts = oracles.preimage_counts(c, a, SEARCH_DEPTH)
    if not oracles.meets(counts, target):
        problems.append("(%s, %s) counts %s" % (rec["c"], rec["a"], counts))
    if tuple(rec["signature"]) != counts:
        problems.append("signature %s, counted %s" % (rec["signature"], counts))
    if not rec["provenance"]:
        problems.append("record without provenance")
    return (c, a), problems


class Workload:
    name = ""
    call_span = ""                # span around each timed call when traced
    speed = "python"              # the Speed kernel that scales its times

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.records = 0
        self.checkpoint_sizes: list[int] = []

    def prepare(self):
        """Make the inputs from the seed; quadpreim is not imported yet."""

    def bind(self, qp):
        """Turn prepared inputs into program objects (untimed)."""

    def warmup(self):
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def final_problems(self) -> list[str]:
        """Checks made once, after the timed calls."""
        return []

    def describe(self) -> str:
        raise NotImplementedError

    def cleanup(self):
        pass


class Hunt(Workload):
    name = "hunt"
    call_span = "cli.main"
    speed = "numpy"

    def prepare(self):
        self.first_shard = self.rng.randrange(HUNT_SHARDS)
        # candidate k of the n(n+1)/2 triangle belongs to shard k mod 2;
        # final_problems checks that the program's fraction list has n entries
        self.n = n = oracles.fraction_count(HUNT_HEIGHT)
        triangle = n * (n + 1) // 2
        self.shard_units = [(triangle - i + HUNT_SHARDS - 1) // HUNT_SHARDS
                            for i in range(HUNT_SHARDS)]
        # published pairs a shard must report: some generating pair of the
        # pair lies within the bound, at a candidate index in that shard
        frs = oracles.fractions_by_height(HUNT_HEIGHT)
        index = {f: k for k, f in enumerate(frs)}
        self.expected = [set() for _ in range(HUNT_SHARDS)]
        for c_text, a_text in oracles.PUBLISHED_246:
            key = (oracles.parse(c_text), oracles.parse(a_text))
            for p1, p2 in oracles.generating_pairs(*key):
                if p1 in index and p2 in index:
                    i, j = max(index[p1], index[p2]), min(index[p1], index[p2])
                    self.expected[(i * (i + 1) // 2 + j) % HUNT_SHARDS].add(key)
        self.checkpoints = [os.path.join(self.out_dir, "hunt-%d-shard%d.ckpt"
                                         % (os.getpid(), i))
                            for i in range(HUNT_SHARDS)]

    def _argv(self, height: int, shard: int) -> list[str]:
        return ["search", "--strategy", "thirdpair",
                "--height-bound", str(height), "--depth", str(SEARCH_DEPTH),
                "--target", ",".join(map(str, HUNT_TARGET)),
                "--shard", "%d/%d" % (shard, HUNT_SHARDS),
                "--checkpoint", self.checkpoints[shard],
                "--format", "structured"]

    def bind(self, qp):
        self.cli = qp.cli
        self.search = qp.search

    def warmup(self):
        _warm_up(self.cli, self._argv(HUNT_WARMUP_HEIGHT, self.first_shard))

    def _check(self, shard: int, output) -> list[str]:
        records, problems = _records(output)
        self.records += len(records)
        # removed after reading, so each call has to write its own
        path = self.checkpoints[shard]
        if os.path.exists(path):
            self.checkpoint_sizes.append(os.path.getsize(path))
            os.remove(path)
        else:
            problems.append("no checkpoint written")
        seen: set = set()
        for rec in records:
            key, more = _record_problems(rec, HUNT_TARGET, seen)
            problems += more
            for prov in rec["provenance"]:
                p1 = oracles.parse(prov["params"]["p1"])
                p2 = oracles.parse(prov["params"]["p2"])
                if oracles.thirdpair_values(p1, p2) != key:
                    problems.append("provenance %s does not give %s" % (prov, key))
                if max(oracles.height(p1), oracles.height(p2)) > HUNT_HEIGHT:
                    problems.append("provenance %s exceeds the bound" % (prov,))
        missing = self.expected[shard] - seen
        if missing:
            problems.append("published pairs missing: %s" % sorted(missing))
        return problems

    def round(self) -> list[Op]:
        ops = []
        for step in range(HUNT_SHARDS):
            shard = (self.first_shard + step) % HUNT_SHARDS
            argv = self._argv(HUNT_HEIGHT, shard)
            ops.append(Op(call=lambda argv=argv: run_cli(self.cli, argv),
                          units=self.shard_units[shard],
                          check=lambda out, shard=shard: self._check(shard, out)))
        return ops

    def final_problems(self) -> list[str]:
        frs = self.search.fractions_by_height(HUNT_HEIGHT)
        if [(f.numerator, f.denominator) for f in frs] != oracles.fractions_by_height(HUNT_HEIGHT):
            return ["fractions_by_height(%d) differs from the height order "
                    "of %d fractions" % (HUNT_HEIGHT, self.n)]
        return []

    def describe(self) -> str:
        return ("H=%d target=%s shards=%d first_shard=%d candidates/shard=%s "
                "published_expected=%s" % (
                    HUNT_HEIGHT, HUNT_TARGET, HUNT_SHARDS, self.first_shard,
                    self.shard_units, [len(e) for e in self.expected]))

    def cleanup(self):
        for path in self.checkpoints:
            for name in (path, path + ".tmp"):
                if os.path.exists(name):
                    os.remove(name)


class Forward(Workload):
    name = "forward"
    call_span = "cli.main"

    def prepare(self):
        frs = oracles.fractions_by_height(FORWARD_HEIGHT)
        c_values = [(0, 1)] + [v for f in frs for v in (f, oracles.neg(f))]
        x_values = [(0, 1)] + frs
        self.units = len(c_values) * len(x_values)
        # every candidate, through the oracle: (c, a) -> the x0 that reach it
        self.expected: dict[tuple, set] = {}
        for c in c_values:
            for x0 in x_values:
                a = oracles.orbit(c, x0, SEARCH_DEPTH)
                if oracles.meets(oracles.preimage_counts(c, a, SEARCH_DEPTH),
                                 FORWARD_TARGET):
                    self.expected.setdefault((c, a), set()).add(x0)

    @staticmethod
    def _argv(height: int) -> list[str]:
        return ["search", "--strategy", "forward", "--height-bound", str(height),
                "--depth", str(SEARCH_DEPTH),
                "--target", ",".join(map(str, FORWARD_TARGET)),
                "--format", "structured"]

    def bind(self, qp):
        self.cli = qp.cli

    def warmup(self):
        _warm_up(self.cli, self._argv(FORWARD_WARMUP_HEIGHT))

    def _check(self, output) -> list[str]:
        records, problems = _records(output)
        self.records += len(records)
        seen: set = set()
        for rec in records:
            key, more = _record_problems(rec, FORWARD_TARGET, seen)
            problems += more
            starts = set()
            for prov in rec["provenance"]:
                c = oracles.parse(prov["params"]["c"])
                x0 = oracles.parse(prov["params"]["x0"])
                starts.add(x0)
                if c != key[0] or oracles.orbit(c, x0, SEARCH_DEPTH) != key[1]:
                    problems.append("provenance %s does not give %s" % (prov, key))
            # a record is emitted at its first candidate, so later ones that
            # reach the same (c, a) may be missing from its provenance
            if not starts <= self.expected.get(key, set()):
                problems.append("%s reached from x0 in %s, expected only %s"
                                % (key, sorted(starts), sorted(self.expected.get(key, ()))))
        for key in self.expected.keys() - seen:
            problems.append("%s meets the target but is missing" % (key,))
        return problems

    def round(self) -> list[Op]:
        argv = self._argv(FORWARD_HEIGHT)
        return [Op(call=lambda: run_cli(self.cli, argv), units=self.units,
                   check=self._check)]

    def describe(self) -> str:
        return "H=%d target=%s candidates=%d expected records=%d" % (
            FORWARD_HEIGHT, FORWARD_TARGET, self.units, len(self.expected))


# -- torsion ----------------------------------------------------------------

_Z12_Q1, _Z12_Q2, _Z12_LIN = 13691470144, 13903463744, 235376
_Z12_DEN, _Z12_POLE = 9527265101250297856000000, 117688

# family name -> (structure, excluded t, a(t)), the published rational
# parametrizations of the two-four fibers with each torsion subgroup
FAMILIES = {
    "Z2xZ4": ((2, 4), {Fraction(0), Fraction(1, 2), Fraction(-1, 2)},
              lambda t: -t * t),
    "Z8": ((1, 8), {Fraction(0), Fraction(1), Fraction(-1)},
           lambda t: t * t * (t * t - 2) / 4),
    "Z2xZ8": ((2, 8), {Fraction(0), Fraction(1, 2), Fraction(-1, 2)},
              lambda t: -((4 * t * t - 4 * t - 1) ** 2 * (4 * t * t + 4 * t - 1) ** 2)
              / (4 * (4 * t * t + 1) ** 4)),
    "Z12": ((1, 12), {Fraction(0), Fraction(1, _Z12_POLE)},
            lambda t: (_Z12_Q1 * t * t - _Z12_LIN * t + 1)
            * (_Z12_Q2 * t * t - _Z12_LIN * t + 1) ** 3
            / (_Z12_DEN * t ** 6 * (_Z12_POLE * t - 1) ** 2)),
}


def two_four_coeffs(a: Fraction) -> tuple:
    """y^2 = x^3 + (4a-1) x^2 + 16a x + (64a^2 - 16a)."""
    zero = Fraction(0)
    return (zero, 4 * a - 1, zero, 16 * a, 64 * a * a - 16 * a)


@dataclass
class Curve:
    label: str
    a: Fraction
    structure: tuple[int, int]
    coeffs: tuple
    counts: dict          # good prime -> #E(F_p)
    hints_of: tuple = ()  # (family name, t) for the family corpus
    curve: object = None
    hints: tuple = ()


def _curve(label: str, a: Fraction, structure, hints_of=()) -> Curve:
    coeffs = two_four_coeffs(a)
    counts = {p: oracles.count_points(coeffs, p)
              for p in oracles.good_primes(coeffs, CHECK_PRIMES)}
    return Curve(label, a, structure, coeffs, counts, hints_of)


def _torsion_problems(curve: Curve, group, section: bool) -> list[str]:
    m, n = group.invariants
    order = m * n
    problems = []
    if m not in (1, 2) or n % m:
        problems.append("invariants %s" % ((m, n),))
    sm, sn = curve.structure
    if m % sm or n % sn:
        problems.append("%s lacks Z/%d x Z/%d" % ((m, n), sm, sn))
    points = group.points
    if len(points) != order or len(set(points)) != order:
        problems.append("%d points for order %d" % (len(points), order))
    affine = [p for p in points if p.x is not None]
    if len(affine) != order - 1:
        problems.append("point at infinity missing or repeated")
    for p in affine:
        if not oracles.on_curve(curve.coeffs, p.x, p.y):
            problems.append("point %s off the curve" % (p,))
    if section and not any(p.x == 2 and p.y == 8 * curve.a + 2 for p in affine):
        problems.append("section (2, 8a+2) missing")
    for p, count in curve.counts.items():
        if count % order:
            problems.append("order %d does not divide #E(F_%d) = %d" % (order, p, count))
    return [curve.label + ": " + text for text in problems]


class _Torsion(Workload):
    call_span = "elliptic.torsion_subgroup"
    section = False

    def bind(self, qp):
        elliptic = qp.elliptic
        for curve in self.curves + [self.warmup_curve]:
            curve.curve = elliptic.specialize_e24(curve.a).curve
            if curve.hints_of:
                kind, t = curve.hints_of
                curve.hints = elliptic.torsion_family_hints(
                    elliptic.TorsionKind(kind), t)
        self.torsion_subgroup = elliptic.torsion_subgroup

    def _call(self, curve: Curve):
        if curve.hints_of:
            return self.torsion_subgroup(curve.curve, hints=curve.hints)
        return self.torsion_subgroup(curve.curve)

    def warmup(self):
        self._call(self.warmup_curve)

    def round(self) -> list[Op]:
        return [Op(call=lambda curve=curve: self._call(curve), units=1,
                   check=lambda group, curve=curve: _torsion_problems(
                       curve, group, self.section))
                for curve in self.curves]


class TorsionFamilies(_Torsion):
    name = "torsion-families"

    def prepare(self):
        curves = []
        for kind, (structure, excluded, a_of) in FAMILIES.items():
            ts: list[Fraction] = []
            d = 1
            while len(ts) < FAMILY_CURVES:
                ts += [Fraction(n, d) for n in range(1, 2 * d + 2)
                       if Fraction(n, d).denominator == d
                       and Fraction(n, d) not in excluded][:FAMILY_CURVES - len(ts)]
                d += 1
            curves += [_curve("%s t=%s" % (kind, t), a_of(t), structure, (kind, t))
                       for t in ts]
        # the corpus is fixed: per-curve cost spans three orders of magnitude,
        # so the seed only sets the order of the calls
        self.rng.shuffle(curves)
        self.curves = curves
        # outside the corpus; its discriminant needs the trial-division primes
        t = Fraction(3, 7)
        self.warmup_curve = _curve("warm-up", FAMILIES["Z12"][2](t), (1, 12), ("Z12", t))

    def describe(self) -> str:
        return "%d curves, %d per family, seed-ordered" % (len(self.curves), FAMILY_CURVES)


class TorsionFibers(_Torsion):
    name = "torsion-fibers"
    section = True

    def prepare(self):
        chosen: dict[Fraction, None] = {}
        while len(chosen) < FIBER_CURVES:
            a = Fraction(self.rng.randint(-FIBER_HEIGHT, FIBER_HEIGHT),
                         self.rng.randint(1, FIBER_HEIGHT))
            if a not in (0, Fraction(-1, 4)):
                chosen[a] = None
        self.curves = [_curve("a=%s" % a, a, (1, 4)) for a in chosen]
        # above the corpus height; its discriminant needs the trial-division primes
        self.warmup_curve = _curve("warm-up", Fraction(53, 59), (1, 4))

    def describe(self) -> str:
        return "%d distinct fibers a = n/d, |n| <= %d, 1 <= d <= %d" % (
            len(self.curves), FIBER_HEIGHT, FIBER_HEIGHT)


WORKLOADS = {cls.name: cls for cls in (Hunt, Forward, TorsionFamilies, TorsionFibers)}
