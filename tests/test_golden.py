"""Golden output of the printers that share one code path: the two fiber
specializations, the rank-one curve, the eight-point arrangement models, and
the long Weierstrass equation.  Every expected line is the exact stdout of
the command; a change to any printer shows here byte for byte.  The
critical-value polynomials of levels 6 and 7, too long to spell out, are
pinned by the sha256 of their structured stdout: a change to the
elimination of c that alters a single coefficient shows there.  So is the
third-pair rediscovery scan at height 485, which pins its records' order
and provenance byte for byte.  So is the
structured `ec torsion` stdout of two-four fibers with prime-power
denominators, of family fibers with eight- and twelve-torsion, and of a long
model, which pins the integral scaling and the torsion points it finds.
"""

import hashlib
from fractions import Fraction as F

import pytest

from quadpreim.cli import main
from quadpreim.elliptic import (TorsionKind, WeierstrassCurve,
                                specialize_e24, torsion_family_a)

# (argv..., format): the stdout lines
CLI_GOLDEN = {
    ('ec', 'specialize-e24', '--a', '1', 'human'): (
        'y^2 = x^3 + 3*x^2 + 16*x + 48',
        'section T = (2, 10)',
        'delta = 625, singular = False',
        'j = -59319/625 (~-94.9104)',
    ),
    ('ec', 'specialize-e24', '--a', '1', 'structured'): (
        '{"a": "1", "a1": "0", "a2": "3", "a3": "0", "a4": "16", "a6": "48", '
        '"delta": "625", "equation": "y^2 = x^3 + 3*x^2 + 16*x + 48", "j": '
        '"-59319/625", "section": ["2", "10"], "singular": false}',
    ),
    ('ec', 'specialize-e24', '--a', '-3/7', 'human'): (
        'y^2 = x^3 - 19/7*x^2 - 48/7*x + 912/49',
        'section T = (2, -10/7)',
        'delta = -1875/16807, singular = False',
        'j = -2565726409/13125 (~-195484)',
    ),
    ('ec', 'specialize-e24', '--a', '-3/7', 'structured'): (
        '{"a": "-3/7", "a1": "0", "a2": "-19/7", "a3": "0", "a4": "-48/7", '
        '"a6": "912/49", "delta": "-1875/16807", "equation": "y^2 = x^3 - '
        '19/7*x^2 - 48/7*x + 912/49", "j": "-2565726409/13125", "section": '
        '["2", "-10/7"], "singular": false}',
    ),
    ('ec', 'specialize-e24', '--a', '0', 'human'): (
        'y^2 = x^3 - x^2',
        'section T = (2, 2)',
        'delta = 0, singular = True',
    ),
    ('ec', 'specialize-e24', '--a', '0', 'structured'): (
        '{"a": "0", "a1": "0", "a2": "-1", "a3": "0", "a4": "0", "a6": "0", '
        '"delta": "0", "equation": "y^2 = x^3 - x^2", "j": null, "section": '
        '["2", "2"], "singular": true}',
    ),
    ('ec', 'specialize-e222', '--a', '4', 'human'): (
        'y^2 = x^3 + 1774/13*x^2 + 815580/169*x + 150527944/2197',
        'sections P = (-262/13, 136), Q = (-366/13, 136)',
        'delta = 6563479, singular = False',
        'j = -4447738624/6563479 (~-677.65)',
    ),
    ('ec', 'specialize-e222', '--a', '4', 'structured'): (
        '{"a": "4", "a1": "0", "a2": "1774/13", "a3": "0", "a4": '
        '"815580/169", "a6": "150527944/2197", "delta": "6563479", '
        '"equation": "y^2 = x^3 + 1774/13*x^2 + 815580/169*x + '
        '150527944/2197", "j": "-4447738624/6563479", "sections": '
        '[["-262/13", "136"], ["-366/13", "136"]], "singular": false}',
    ),
    ('ec', 'specialize-e222', '--a', '-1/4', 'human'): (
        'y^2 = x^3 + 890/13*x^2 + 260428/169*x + 25123704/2197',
        'sections P = (-262/13, 0), Q = (-366/13, 0)',
        'delta = 0, singular = True',
    ),
    ('ec', 'specialize-e222', '--a', '-1/4', 'structured'): (
        '{"a": "-1/4", "a1": "0", "a2": "890/13", "a3": "0", "a4": '
        '"260428/169", "a6": "25123704/2197", "delta": "0", "equation": "y^2 '
        '= x^3 + 890/13*x^2 + 260428/169*x + 25123704/2197", "j": null, '
        '"sections": [["-262/13", "0"], ["-366/13", "0"]], "singular": true}',
    ),
    ('ec', 'specialize-e222', '--a', '5/3', 'human'): (
        'y^2 = x^3 + 3866/39*x^2 + 1532372/507*x + 644555464/19773',
        'sections P = (-262/13, 184/3), Q = (-366/13, 184/3)',
        'delta = 34332629/243, singular = False',
        'j = -19930747648/102997887 (~-193.506)',
    ),
    ('ec', 'specialize-e222', '--a', '5/3', 'structured'): (
        '{"a": "5/3", "a1": "0", "a2": "3866/39", "a3": "0", "a4": '
        '"1532372/507", "a6": "644555464/19773", "delta": "34332629/243", '
        '"equation": "y^2 = x^3 + 3866/39*x^2 + 1532372/507*x + '
        '644555464/19773", "j": "-19930747648/102997887", "sections": '
        '[["-262/13", "184/3"], ["-366/13", "184/3"]], "singular": false}',
    ),
    ('ec', 'curve-244', 'human'): (
        'y^2 = x^3 + x^2 - 9*x + 7',
        'infinite-order point: (3, 4)',
    ),
    ('ec', 'curve-244', 'structured'): (
        '{"curve": {"a1": "0", "a2": "1", "a3": "0", "a4": "-9", "a6": "7"}, '
        '"point": ["3", "4"]}',
    ),
    ('model', '--tag', '224', 'human'): (
        'variables: q, r, s, t, z',
        'g1: s^2 - t^2 - t*z + a*z^2',
        'g2: q^2 - s*z - t^2 + a*z^2',
        'g3: r^2 + s*z - t^2 + a*z^2',
    ),
    ('model', '--tag', '224', 'structured'): (
        '{"generators": ["s^2 - t^2 - t*z + a*z^2", "q^2 - s*z - t^2 + '
        'a*z^2", "r^2 + s*z - t^2 + a*z^2"], "tag": "224", "variables": '
        '["q", "r", "s", "t", "z"]}',
    ),
    ('model', '--tag', '242', 'human'): (
        'variables: q, s, t, u, z',
        'g1: s^2 - t^2 - t*z + a*z^2',
        'g2: -t^2 + t*z + u^2 + a*z^2',
        'g3: q^2 - s*z - t^2 + a*z^2',
    ),
    ('model', '--tag', '242', 'structured'): (
        '{"generators": ["s^2 - t^2 - t*z + a*z^2", "-t^2 + t*z + u^2 + '
        'a*z^2", "q^2 - s*z - t^2 + a*z^2"], "tag": "242", "variables": '
        '["q", "s", "t", "u", "z"]}',
    ),
    ('model', '--tag', '2222', 'human'): (
        'variables: q, s, t, u, v, z',
        'g1: s^2 - t^2 - t*z + a*z^2',
        'g2: q^2 - s*z - t^2 + a*z^2',
        'g3: -q*z - t^2 + u^2 + a*z^2',
    ),
    ('model', '--tag', '2222', 'structured'): (
        '{"generators": ["s^2 - t^2 - t*z + a*z^2", "q^2 - s*z - t^2 + '
        'a*z^2", "-q*z - t^2 + u^2 + a*z^2"], "tag": "2222", "variables": '
        '["q", "s", "t", "u", "v", "z"]}',
    ),
}

# critical --n level --format structured: the sha256 of the stdout
CRITICAL_SHA256 = {
    6: "4406f3e242410477e27576a36bddf6dc08e59bb9310e93f39d1f38e525e7df2e",
    7: "5647d054ddd8e92c57ae169b02ed8586c3d4685295c478a97aa2a1602761ad96",
}

# search --strategy thirdpair --height-bound 485 --depth 3 --target 2,4,6
# --format structured: the sha256 of its 8 lines of stdout
REDISCOVERY_SHA256 = (
    "6198873af4f500b5dfca8f713d86cb5d2f26ea6f545a4a3809cf6872c330c57c")

# (a1, a2, a3, a4, a6) -> ec torsion --format structured: the sha256 of the
# stdout
_FIBERS = [specialize_e24(a).curve for a in (
    F(1, 17), F(53, 59), F(5, 1681),
    *(torsion_family_a(kind, t) for kind, t in (
        (TorsionKind.Z8, 2), (TorsionKind.Z8, F(1, 2)),
        (TorsionKind.Z2xZ8, 1), (TorsionKind.Z2xZ8, F(1, 3)),
        (TorsionKind.Z12, 1), (TorsionKind.Z12, 2),
        (TorsionKind.Z8, F(1, 1763)), (TorsionKind.Z2xZ8, F(19, 27)))),
    # the last three fibers have denominators with twenty and more prime
    # factors past 37
    F(1, 41 ** 8))]
# a Z/2 x Z/8 fiber whose 97-digit scaling denominators have a hard composite
# part, split over a coprime base by gcds
_HARD = specialize_e24(torsion_family_a(TorsionKind.Z2xZ8,
                                        F(-511647, 486487))).curve
TORSION_SHA256 = dict(zip(
    [*((c.a1, c.a2, c.a3, c.a4, c.a6) for c in _FIBERS),
     # Tate's Z/5 form at b = c = 5, scaled by u = 6
     (F(-2, 3), F(-5, 36), F(-5, 216), 0, 0),
     (_HARD.a1, _HARD.a2, _HARD.a3, _HARD.a4, _HARD.a6)],
    ["2d19fe0ccc30a6e72ad0fec1968661881bd35def379c849d2e4114f4b6054184",
     "d0046a3e8af94acecd4769462916757a3d94a305114172ec76e157903df8ee9a",
     "746810712a9d8dd6ab812132134ae764503a5fb667e910861331bdb271aa8b26",
     "cb9168ab817d9591300f81984dde28ea64d77bde94a16dc8295507db89f9bf4c",
     "c8d6d4b6a173e2d54c52a7f4b1a0c37ae34039f001c78cb17646b6d2e50e221e",
     "84a78f2ea0aa8b372d10f38fe6ec66314bcd46b8bd987819caae0b02079e9b79",
     "3217eddbba1870271d3c160362322f772a75289d6ac48a4f2d04ba92fd270000",
     "b9ca5538e32af34e93956ff6570dc29e666c3d317c646b84de03e33e47fe3347",
     "7d5d518d0a3196840cb8f17bd58d08299ccef36205536466fdcacee7f8b71817",
     "8ada6271d8cd9d0f57d5bbf41fcb6d4d08e3067df9a381092f68028b719650b9",
     "7ba52bf9569bbe8bc9219eed703bf371f2d3e40b3b6f05ec8622c9d2d7cad1bd",
     "690f43f472149939db81d15beeca8226aded0adc83558197a252a1f86470e7b1",
     "4ccf1e6b94116d1465d7279aa67a00fe59b2f7752838b89d00a72c441c877382",
     "433e9044bcf1c5adfabf3dfc20f7957c8c5c586c168d9c0b52bac65360fea312"]))

# (a1, a2, a3, a4, a6): the printed equation
CURVE_GOLDEN = [
    ((-1, 0, -1, 0, 0), 'y^2 - x*y - y = x^3'),
    ((F(-1, 2), 1, F(3, 7), -1, F(-5, 3)),
     'y^2 - 1/2*x*y + 3/7*y = x^3 + x^2 - x - 5/3'),
    ((0, 0, -1, 0, 0), 'y^2 - y = x^3'),
    ((1, -1, 0, 0, 1), 'y^2 + x*y = x^3 - x^2 + 1'),
    ((F(1, 2), 0, F(-1, 2), 0, 0), 'y^2 + 1/2*x*y - 1/2*y = x^3'),
    ((-3, F(2, 5), 2, F(-1, 3), 0),
     'y^2 - 3*x*y + 2*y = x^3 + 2/5*x^2 - 1/3*x'),
    ((0, 0, 0, 0, 0), 'y^2 = x^3'),
    ((1, 0, 1, 1, -1), 'y^2 + x*y + y = x^3 + x - 1'),
    ((F(-7, 3), F(-1, 4), 0, 0, F(9, 2)),
     'y^2 - 7/3*x*y = x^3 - 1/4*x^2 + 9/2'),
]


@pytest.mark.parametrize("key", list(CLI_GOLDEN))
def test_cli_output_is_golden(capsys, key):
    assert main([*key[:-1], "--format", key[-1]]) == 0
    assert capsys.readouterr().out == "".join(
        line + "\n" for line in CLI_GOLDEN[key])


@pytest.mark.parametrize("n", list(CRITICAL_SHA256))
def test_critical_output_hash_is_golden(capsys, n):
    assert main(["critical", "--n", str(n), "--format", "structured"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CRITICAL_SHA256[n]


def test_rediscovery_scan_hash_is_golden(capsys):
    assert main(["search", "--strategy", "thirdpair", "--height-bound", "485",
                 "--depth", "3", "--target", "2,4,6",
                 "--format", "structured"]) == 0
    out = capsys.readouterr().out.encode()
    assert out.count(b"\n") == 8
    assert hashlib.sha256(out).hexdigest() == REDISCOVERY_SHA256


@pytest.mark.parametrize("coeffs", list(TORSION_SHA256))
def test_torsion_output_hash_is_golden(capsys, coeffs):
    argv = ["--%s=%s" % pair for pair in zip(("a1", "a2", "a3", "a4", "a6"),
                                              coeffs)]
    assert main(["ec", "torsion", *argv, "--format", "structured"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == TORSION_SHA256[coeffs]


@pytest.mark.parametrize("coeffs, text", CURVE_GOLDEN)
def test_weierstrass_str_is_golden(coeffs, text):
    assert str(WeierstrassCurve.from_coeffs(*coeffs)) == text
