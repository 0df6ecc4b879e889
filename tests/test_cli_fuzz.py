"""Seeded, grammar-based fuzz test over the CLI's argv.

Each case draws a subcommand and, for each of its options, a valid value, an
invalid one, or nothing.  main must return 0, 1 or 2 and never raise; a few
cases also run through the interpreter and must print no traceback.  The
seed is printed; QUADPREIM_FUZZ_SEED replays another one.
"""

import json
import os
import random

import pytest

from quadpreim.cli import MODEL_MAX_DEPTH, main
from quadpreim.search import SearchConfig
from test_cli import run_module

SEED = int(os.environ.get("QUADPREIM_FUZZ_SEED", "6021"))
CASES = 200
MODULE_CASES = 4

# the last valid rational's values pass the interpreter's int-to-str limit
RATS = ["0", "1", "-3/4", "7/2", "-24361/14400", "-42/25", "7" * 1000,
        "x", "", "1/0", "2//3", "3/-4", "1e3", "-"]
COUNTS = ["-1", "0", "abc", "2.5", ""]
TARGETS = ["2,4,4", "2,4,6", "2,3,4", "2,2,2", "2,2", "2,2,4", "0,0,0",
           "2,x", "", "-1,2,2", "2,4,6,8", "2"]
SHARDS = ["0/1", "1/2", "0/3", "2/2", "x", "1/0", "-1/2", "1", "0/10000000"]
SECTIONS = ["2", "3.1", "4.2", "4.4", "genus", "6.2", "nope", ""]
TAGS = ["224", "242", "2222", "2", "3", "4", "1", "x", "",
        str(MODEL_MAX_DEPTH + 1), "100000"]
H12 = SearchConfig(height_bound=12, depth=3, target=(2, 4, 4))


def _checkpoint(next_block, hits, key="hits"):
    # a checkpoint of the third-pair H = 12, 2,4,4 scan, which has 91 rows
    return json.dumps({"config": H12.canonical("thirdpair"),
                       "next_block": next_block, key: hits})


GARBLED = ["[]", "{", "{}", '{"config": "0", "seen": []}', "\x00\xff",
           '{"records": ' + "[" * 5000 + "]" * 5000 + "}",
           # the format before checkpoints named hits: whole records
           _checkpoint(91, [{"c": "-5/16"}], key="records"),
           _checkpoint(1, [[0, 0]]),        # a miss: c = -1, a = 0
           _checkpoint(3, [[3, 0]]), _checkpoint(91, [[-1, 0]]),
           _checkpoint(91, [[1.0, 0]]), _checkpoint(91, [[True, False]]),
           _checkpoint(91, [["1", "0"]]), _checkpoint(91, ["10"]),
           _checkpoint(91, [[1, 0, 0]]), _checkpoint(91, [[90, 91]]),
           _checkpoint(91, [[90, 2 ** 63]])]


def _maybe(rng, valid, invalid, p_valid=0.85, p_omit=0.05):
    roll = rng.random()
    if roll < p_omit:
        return None
    if roll < p_omit + p_valid:
        return rng.choice(valid)
    return rng.choice(invalid)


def _flags(rng, options):
    argv = []
    for flag, value in options:
        if value is not None:
            argv += [flag, value]
    return argv


def _case(rng, tmp_path):
    fmt = [("--format", _maybe(rng, ["human", "structured"], ["json"], 0.6, 0.35))]
    command = rng.choice(["tree", "critical", "model", "ec", "search",
                          "search", "search", "verify-paper"])
    if command == "tree":
        argv = ["tree"] + _flags(rng, [
            ("--c", _maybe(rng, RATS[:7], RATS[7:])),
            ("--a", _maybe(rng, RATS[:7], RATS[7:])),
            ("--depth", _maybe(rng, ["1", "2", "3", "4"], COUNTS))] + fmt)
    elif command == "critical":
        argv = ["critical"] + _flags(rng, [
            ("--n", _maybe(rng, ["2", "3", "4"],
                           COUNTS + ["1", "9", "1000000"]))] + fmt)
    elif command == "model":
        argv = ["model"] + _flags(rng, [("--tag", _maybe(rng, TAGS[:6], TAGS[6:]))]
                                  + fmt)
    elif command == "ec":
        sub = rng.choice(["specialize-e24", "specialize-e222", "curve-244",
                          "order", "torsion", "bogus"])
        options = []
        if sub.startswith("specialize"):
            options = [("--a", _maybe(rng, RATS[:7], RATS[7:]))]
        elif sub in ("order", "torsion"):
            options = [("--" + k, _maybe(rng, ["0", "1", "-1", "3", "16", "48"],
                                         RATS[7:], 0.6, 0.4))
                       for k in ("a1", "a2", "a3", "a4", "a6")]
            if sub == "order":
                options += [("--x", _maybe(rng, ["2", "0", "3"], RATS[7:])),
                            ("--y", _maybe(rng, ["10", "4", "0"], RATS[7:]))]
        argv = ["ec", sub] + _flags(rng, options + fmt)
    elif command == "verify-paper":
        argv = ["verify-paper"] + _flags(rng, [
            ("--section", _maybe(rng, SECTIONS[:6], SECTIONS[6:], 0.8, 0.0))] + fmt)
    else:
        strategy = _maybe(rng, ["thirdpair", "forward"], ["bogus"], 0.9)
        highest = 6 if strategy == "forward" else 12
        # only a resume reads a garbled file; a run would overwrite it
        resume = rng.random() < 0.3
        checkpoint = rng.choice([None, "missing", "run"] + [
            "garbled%d" % k for k in range(len(GARBLED) if resume else 0)])
        options = [
            ("--strategy", strategy),
            ("--height-bound", _maybe(rng, [str(h) for h in range(1, highest + 1)],
                                      COUNTS)),
            ("--depth", _maybe(rng, ["3", "3", "2"], COUNTS + ["1"])),
            ("--target", _maybe(rng, TARGETS[:7], TARGETS[7:])),
            ("--shard", _maybe(rng, SHARDS[:4], SHARDS[4:], 0.35, 0.55)),
            ("--jobs", _maybe(rng, ["1", "2"], COUNTS, 0.7, 0.2)),
            ("--checkpoint", checkpoint and str(tmp_path / (checkpoint + ".ckpt"))),
        ] + fmt
        argv = ["search"] + _flags(rng, options) + ["--resume"] * resume
    extra = rng.random()
    if extra < 0.05:
        argv.append("--bogus")
    elif extra < 0.08:
        argv.append("--help")
    return argv


def test_cli_argv_fuzz(capsys, tmp_path):
    with capsys.disabled():
        print("\nargv fuzz seed %d (set QUADPREIM_FUZZ_SEED to replay another)"
              % SEED)
    for k, text in enumerate(GARBLED):
        (tmp_path / ("garbled%d.ckpt" % k)).write_text(text)
    rng = random.Random(SEED)
    cases = [_case(rng, tmp_path) for _ in range(CASES)]
    codes = []
    for k, argv in enumerate(cases):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail("seed %d case %d %r raised %r" % (SEED, k, argv, exc))
        capsys.readouterr()
        assert code in (0, 1, 2), "seed %d case %d %r -> %r" % (SEED, k, argv, code)
        codes.append(code)
    # the grammar reaches both sides of the usage check
    assert codes.count(0) >= 20 and codes.count(2) >= 20, codes
    for k in range(0, CASES, CASES // MODULE_CASES):
        code, _, err = run_module(*cases[k])
        assert code in (0, 1, 2), "seed %d case %d %r" % (SEED, k, cases[k])
        assert "Traceback" not in err, "seed %d case %d %r" % (SEED, k, cases[k])
