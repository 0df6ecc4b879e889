import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import quadpreim
from quadpreim import cli, dynamics, elliptic, models, plans, search
from quadpreim.cli import MODEL_MAX_DEPTH, TREE_MAX_DEPTH, main
from quadpreim.dynamics import PreimageTree
from quadpreim.elliptic import WeierstrassCurve
from quadpreim.exactmath import format_rat
from quadpreim.search import SearchRecord


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, flags=()):
    """Run the CLI through the interpreter: (exit status, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(quadpreim.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, *flags, "-m", "quadpreim.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_tree_human(capsys):
    code, out, _ = run_cli(capsys, "tree", "--c", "-24361/14400",
                           "--a", "-42/25", "--depth", "3")
    assert code == 0
    assert "signature: 2,4,6" in out
    assert "distinct values across levels: 12" in out


def test_tree_structured_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "tree", "--c", "-24361/14400",
                           "--a", "-42/25", "--depth", "3",
                           "--format", "structured")
    assert code == 0
    payload = json.loads(out.strip())
    tree = PreimageTree.from_json(payload)
    assert tree.signature() == (2, 4, 6)
    assert tree.c == Fraction(-24361, 14400)


def test_tree_parse_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "tree", "--c", "x", "--a", "1", "--depth", "1")
    assert code == 2
    assert "position" in err
    # int() rejects these where the digit scan passed them
    for text in ("\u00b2", "1" * 5000):
        code, _, err = run_cli(capsys, "tree", "--c", text, "--a", "1",
                               "--depth", "1")
        assert code == 2 and "position" in err


def test_integers_past_the_str_digit_limit_print(capsys, tmp_path):
    # a computation's integers can pass the interpreter's 4,300-digit limit
    # on int-to-str conversion (this delta has about 5,000 digits, the
    # depth-16 orbits far more): main lifts it while the command runs and
    # restores it after, in process and through the interpreter, and a
    # checkpoint holding such integers resumes to the same output
    a = Fraction("7" * 1000)
    delta = a * (4 * a + 1) ** 4
    j = (16 * a * a - 56 * a + 1) ** 3 / delta
    fiber = ("ec", "specialize-e24", "--a", "7" * 1000)
    forward = ("search", "--strategy", "forward", "--height-bound", "2",
               "--depth", "16", "--target", "2", "--format", "structured")
    forward += ("--checkpoint", str(tmp_path / "d16.ckpt"))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    runs = [run_cli(capsys, *fiber), run_cli(capsys, *forward)]
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    runs += [run_module(*fiber), run_module(*forward, "--resume")]
    assert [code for code, *_ in runs] == [0] * 4
    assert runs[3][1] == runs[1][1]
    assert not any("Traceback" in err for *_, err in runs)
    if limit:
        sys.set_int_max_str_digits(0)      # to print the Fraction oracle
    try:
        for _, out, _ in runs[::2]:
            lines = out.splitlines()
            assert lines[2] == "delta = %s, singular = False" % format_rat(delta)
            assert lines[3].startswith("j = %s (~1.24444e+1001)" % format_rat(j))
        for _, out, _ in runs[1::2]:
            records = [json.loads(line) for line in out.splitlines()]
            assert len(records) == 24
            for rec in records:
                params = rec["provenance"][0]["params"]
                c, x = Fraction(params["c"]), Fraction(params["x0"])
                for _ in range(16):
                    x = x * x + c
                assert (rec["c"], rec["a"]) == (params["c"], format_rat(x))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_printed_curve_past_the_digit_bound_reads_back(capsys):
    # an input at the 4,300-digit bound makes coefficients and a section
    # past it; what the CLI prints reads back whole, with the interpreter's
    # int-to-str limit lifted as main lifts it
    code, out, _ = run_cli(capsys, "ec", "specialize-e24", "--a", "7" * 4300,
                           "--format", "structured")
    assert code == 0
    data = json.loads(out)
    assert max(len(data[k]) for k in ("a2", "a4", "a6")) > 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        fiber = elliptic.specialize_e24(Fraction("7" * 4300))
        assert WeierstrassCurve.from_json(data) == fiber.curve
        assert elliptic.ECPoint.from_json(data["section"]) == fiber.torsion_point
        assert WeierstrassCurve.from_json(fiber.curve.as_json()) == fiber.curve
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "tree", "--c", "1", "--a", "1",
                         "--depth", "1", "--bogus")
    assert code == 2


def test_critical_human(capsys):
    code, out, _ = run_cli(capsys, "critical", "--n", "3")
    assert code == 0
    assert "4*c^3 + 6*c^2 + 2*c + 1" in out
    assert "256*a^3 + 368*a^2 + 104*a + 23" in out


def test_critical_structured(capsys):
    code, out, _ = run_cli(capsys, "critical", "--n", "2",
                           "--format", "structured")
    payload = json.loads(out.strip())
    assert payload["critical_poly_c"] == ["1", "2"]
    assert payload["avalue_minpoly"] == ["1", "4"]


def test_critical_level_out_of_range_is_usage_error(capsys, monkeypatch):
    def no_elimination(n):
        raise AssertionError("critical_avalues(%d) was called" % n)

    monkeypatch.setattr(dynamics, "critical_avalues", no_elimination)
    for n in ("9", "30", "1000000", "1", "-3"):
        code, out, err = run_cli(capsys, "critical", "--n", n)
        assert code == 2 and out == ""
        assert err == "error: --n must be between 2 and 8\n"
    # through the interpreter: exit status 2 at once, one line, no traceback
    code, out, err = run_module("critical", "--n", "1000000",
                                "--format", "structured")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --n must be between 2 and 8"]


def test_ec_specialize_e24(capsys):
    code, out, _ = run_cli(capsys, "ec", "specialize-e24", "--a", "1")
    assert code == 0
    assert "j = -59319/625" in out
    code, out, _ = run_cli(capsys, "ec", "specialize-e24", "--a", "1",
                           "--format", "structured")
    payload = json.loads(out.strip())
    curve = WeierstrassCurve.from_json(payload)
    assert curve.a2 == 3 and curve.a4 == 16 and curve.a6 == 48
    assert payload["delta"] == "625"


def test_ec_order_and_torsion(capsys):
    code, out, _ = run_cli(capsys, "ec", "order", "--a2", "3", "--a4", "16",
                           "--a6", "48", "--x", "2", "--y", "10")
    assert code == 0 and "order: 4" in out
    code, out, _ = run_cli(capsys, "ec", "order", "--a2", "1", "--a4", "-9",
                           "--a6", "7", "--x", "3", "--y", "4")
    assert code == 0 and "infinite" in out
    code, out, _ = run_cli(capsys, "ec", "torsion", "--a2", "3", "--a4", "16",
                           "--a6", "48", "--format", "structured")
    payload = json.loads(out.strip())
    assert payload["invariants"] == [1, 4]
    # structured order on curve-244: its generator, and a point of order 2
    for x, y, order in (("3", "4", None), ("1", "0", 2)):
        code, out, _ = run_cli(capsys, "ec", "order", "--a2", "1", "--a4", "-9",
                               "--a6", "7", "--x", x, "--y", y,
                               "--format", "structured")
        assert code == 0 and json.loads(out) == {"order": order}
    for coeffs, line in ((("--a4", "1", "--a6", "1"), "trivial (order 1)"),
                         (("--a6", "1"), "Z/6 (order 6)")):
        code, out, _ = run_cli(capsys, "ec", "torsion", *coeffs)
        assert code == 0
        assert out.splitlines()[0] == "torsion subgroup: " + line


def test_ec_off_curve_point_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "ec", "order", "--a2", "3", "--a4", "16",
                           "--a6", "48", "--x", "2", "--y", "11")
    assert code == 2
    assert "residue" in err


def test_model_command(capsys):
    code, out, _ = run_cli(capsys, "model", "--tag", "224")
    assert code == 0
    assert out.splitlines()[0] == "variables: q, r, s, t, z"
    assert sum(1 for line in out.splitlines() if line.startswith("g")) == 3
    code, out, _ = run_cli(capsys, "model", "--tag", "3",
                           "--format", "structured")
    payload = json.loads(out.strip())
    assert payload["variables"] == ["z0", "z1", "z2", "z3"]
    assert len(payload["generators"]) == 2


def test_tree_depth_beyond_cap_is_usage_error(capsys):
    code, out, _ = run_cli(capsys, "tree", "--c", "1", "--a", "1", "--depth",
                           str(TREE_MAX_DEPTH), "--format", "structured")
    assert code == 0
    assert json.loads(out)["signature"] == [1] + [0] * (TREE_MAX_DEPTH - 1)
    message = "error: tree depth must be between 1 and %d" % TREE_MAX_DEPTH
    for depth in (str(TREE_MAX_DEPTH + 1), "100000000", "0", "-3"):
        code, out, err = run_cli(capsys, "tree", "--c", "1", "--a", "1",
                                 "--depth", depth)
        assert code == 2 and out == ""
        assert err == message + "\n"
    code, out, err = run_module("tree", "--c", "1", "--a", "1", "--depth",
                                "100000000")
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def test_model_depth_beyond_cap_is_usage_error(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "model", "--tag", str(MODEL_MAX_DEPTH),
                           "--format", "structured")
    assert code == 0
    assert len(json.loads(out)["generators"]) == MODEL_MAX_DEPTH - 1

    def no_model(n):
        raise AssertionError("ideal_j(%d) was called" % n)

    monkeypatch.setattr(models, "ideal_j", no_model)
    message = "error: model depth must be between 2 and %d" % MODEL_MAX_DEPTH
    for tag in (str(MODEL_MAX_DEPTH + 1), "100000", "1", "-3"):
        code, out, err = run_cli(capsys, "model", "--tag", tag)
        assert code == 2 and out == ""
        assert err == message + "\n"
    # through the interpreter: exit status 2 at once, one line, no traceback
    code, out, err = run_module("model", "--tag", "100000")
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def test_search_structured_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "search", "--strategy", "thirdpair",
                           "--height-bound", "80", "--depth", "3",
                           "--target", "2,4,6", "--format", "structured")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines
    for line in lines:
        record = SearchRecord.from_json(json.loads(line))
        assert all(s >= t for s, t in zip(record.signature, (2, 4, 6)))


def test_search_shard_flag(capsys):
    code, out, _ = run_cli(capsys, "search", "--strategy", "forward",
                           "--height-bound", "3", "--depth", "2",
                           "--target", "2,2", "--shard", "1/2",
                           "--format", "structured")
    assert code == 0
    # a shard total past the cap is refused before the filter's per-class
    # bit matrices are made: exit status 2, one error line, no traceback
    for strategy in ("thirdpair", "forward"):
        code, out, err = run_module("search", "--strategy", strategy,
                                    "--height-bound", "10", "--depth", "3",
                                    "--target", "2,4,6", "--shard", "0/10000000")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: shard must satisfy 0 <= index < total <= 4096"]


def test_search_jobs_merge_matches_single(capsys):
    single = run_cli(capsys, "search", "--strategy", "thirdpair",
                     "--height-bound", "80", "--depth", "3",
                     "--target", "2,4,6", "--format", "structured")
    jobs = run_cli(capsys, "search", "--strategy", "thirdpair",
                   "--height-bound", "80", "--depth", "3",
                   "--target", "2,4,6", "--jobs", "2",
                   "--format", "structured")
    assert single[0] == 0 and jobs[0] == 0
    assert single[1] and jobs[1] == single[1]


@pytest.mark.parametrize("shard", ["0/2", "1/2"])
def test_search_jobs_match_single_at_height_100(capsys, shard):
    # the workers receive the plan, bit matrices and all, from the parent
    argv = ("search", "--strategy", "thirdpair", "--height-bound", "100",
            "--depth", "3", "--target", "2,4,6", "--shard", shard,
            "--format", "structured")
    single = run_cli(capsys, *argv, "--jobs", "1")
    assert single[0] == 0 and single[1]
    assert run_cli(capsys, *argv, "--jobs", "2") == single


H12 = ("search", "--strategy", "thirdpair", "--height-bound", "12",
       "--depth", "3", "--target", "2,4,4", "--format", "structured")


def test_search_resume_replays_emitted_records(capsys, tmp_path):
    path = str(tmp_path / "h12.ckpt")
    code, out, _ = run_cli(capsys, *H12, "--jobs", "2", "--checkpoint", path)
    assert code == 0 and len(out.splitlines()) == 8
    code, again, _ = run_cli(capsys, *H12, "--jobs", "2", "--checkpoint", path,
                             "--resume")
    assert code == 0 and again == out
    code, sharded, _ = run_cli(capsys, *H12, "--shard", "1/2")
    assert code == 0 and sharded
    assert run_cli(capsys, *H12, "--shard", "1/2", "--jobs", "2")[1] == sharded


@pytest.mark.parametrize("strategy", ["thirdpair", "forward"])
def test_checkpoint_hits_are_the_printed_candidates(capsys, tmp_path, strategy):
    # a checkpoint names the candidate of each printed record, in print
    # order: (i, j) over the height order for the third-pair scan, (ci, xi)
    # over c in 0, 1, -1, ... and x0 in 0, 1, ... for the forward scan
    if strategy == "thirdpair":
        argv, params = H12, ("p1", "p2")
        rows = cols = search.fractions_by_height(12)
    else:
        argv = ("search", "--strategy", "forward", "--height-bound", "5",
                "--depth", "2", "--target", "2,3", "--format", "structured")
        params, fractions = ("c", "x0"), search.fractions_by_height(5)
        rows = [0, *(sign * q for q in fractions for sign in (1, -1))]
        cols = [0, *fractions]
    path = tmp_path / "scan.ckpt"
    code, out, _ = run_cli(capsys, *argv, "--checkpoint", str(path))
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(records) >= 8
    expected = []
    for rec in records:
        [provenance] = rec["provenance"]
        p, q = (Fraction(provenance["params"][name]) for name in params)
        expected.append([rows.index(p), cols.index(q)])
    assert json.loads(path.read_text())["hits"] == expected


def _bad_checkpoints(tmp_path):
    old = search.SearchConfig(height_bound=12, depth=3, target=(2, 4, 4),
                              checkpoint_path=str(tmp_path / "finished.ckpt"))
    records = [rec.as_json() for rec in search.scan_thirdpair(old)]
    finished = json.loads((tmp_path / "finished.ckpt").read_text())
    (i, j), size = finished["hits"][0], finished["next_block"]

    def checkpoint(next_block, hits):
        return json.dumps({"config_sha": old.digest("thirdpair"),
                           "config": old.canonical("thirdpair"),
                           "next_block": next_block, "hits": hits})

    texts = {
        "list": "[]",
        "garbled": '{"config_sha": ',
        "no keys": "{}",
        # the format before checkpoints held records: seen keys only
        "seen only": json.dumps({
            "config_sha": old.digest("thirdpair"),
            "config": old.canonical("thirdpair"), "next_block": 0,
            "emitted": 1, "seen": [["-5/16", "-1/4"]]}),
        # the format before checkpoints named hits: the emitted records whole
        "records": json.dumps({
            "config_sha": old.digest("thirdpair"),
            "config": old.canonical("thirdpair"), "next_block": size,
            "records": records}),
        "next block -1": checkpoint(-1, []),
        # past the plan's end: the rows end at its size, a finished run's mark
        "next block 10^30": checkpoint(10 ** 30, []),
        "next block size + 1": checkpoint(size + 1, []),
        # p1 = p2 = 1: c = -1, a = 0, whose second level is {0}
        "miss": checkpoint(1, [[0, 0]]),
        "row at next block": checkpoint(i, [[i, j]]),
        "negative row": checkpoint(size, [[-1, j]]),
        "negative column": checkpoint(size, [[i, -1]]),
        "float": checkpoint(size, [[float(i), j]]),
        "bool": checkpoint(size, [[True, False]]),
        "strings": checkpoint(size, [[str(i), str(j)]]),
        "string": checkpoint(size, ["10"]),
        "three ints": checkpoint(size, [[i, j, 0]]),
        "column past the plan": checkpoint(size, [[i, size]]),
        "column 2^63": checkpoint(size, [[i, 2 ** 63]]),
        "column 10^30": checkpoint(size, [[i, 10 ** 30]]),
        # past the JSON decoder's recursion limit
        "deeply nested": '{"config_sha": "x", "next_block": 0, "hits": '
                         + "[" * 5000 + "]" * 5000 + "}",
    }
    paths = {"missing": tmp_path / "missing.ckpt", "directory": tmp_path}
    for name, text in texts.items():
        paths[name] = tmp_path / (name.replace(" ", "_") + ".ckpt")
        paths[name].write_text(text)
    return paths


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_bad_checkpoint_is_usage_error(capsys, tmp_path, jobs):
    for name, path in _bad_checkpoints(tmp_path).items():
        argv = (*H12, "--jobs", jobs, "--checkpoint", str(path), "--resume")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", name
        assert len(err.splitlines()) == 1 and err.startswith("error: "), name
        code, out, err = run_module(*argv)
        assert code == 2 and out == "", name
        assert "Traceback" not in err and len(err.splitlines()) == 1, name


def test_search_checkpoint_write_failure_exits_1(capsys, tmp_path):
    path = tmp_path / "no_dir" / "h12.ckpt"
    code, _, err = run_cli(capsys, *H12, "--checkpoint", str(path))
    assert code == 1
    assert err.startswith("error: checkpoint write to %r failed" % str(path))
    assert len(err.splitlines()) == 1 and not path.parent.exists()


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # only the scan's argument checks are usage errors: a ValueError from
    # inside the scan propagates instead of becoming "error: ..." and exit 2
    def broken(plan, tile):
        raise ValueError("broken tile")

    monkeypatch.setattr(plans, "_square_pairs", broken)
    with pytest.raises(ValueError, match="broken tile"):
        main(list(H12))
    assert capsys.readouterr().err == ""


def test_search_jobs_beyond_cpu_count_is_usage_error(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for jobs in ("3", "0"):
        code, out, err = run_cli(capsys, *H12, "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == "error: --jobs must be between 1 and the 2 CPUs\n"


def test_search_bad_height_bound(capsys):
    code, _, err = run_cli(capsys, "search", "--strategy", "thirdpair",
                           "--depth", "3", "--target", "2,4,6")
    assert code == 2
    # beyond the cap on the height order's memory no scan starts
    for jobs in ("1", "2"):
        code, _, err = run_cli(capsys, "search", "--strategy", "thirdpair",
                               "--height-bound", "50001", "--depth", "3",
                               "--target", "2,4,6", "--jobs", jobs)
        assert code == 2 and "int64" in err
    # both strategies refuse a huge bound before allocating anything: exit
    # status 2, one error line, no traceback
    for strategy, target in (("thirdpair", "2,2,2"), ("forward", "2,2,4")):
        code, out, err = run_module("search", "--strategy", strategy,
                                    "--height-bound", str(10 ** 11),
                                    "--depth", "3", "--target", target)
        assert code == 2 and out == ""
        assert err.startswith("error: height_bound must be between 1 and 2000")
        assert "Traceback" not in err and err.count("\n") == 1


def test_search_bad_target_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "search", "--strategy", "thirdpair",
                           "--height-bound", "5", "--depth", "3",
                           "--target", "2,x,6")
    assert code == 2 and err.startswith("error: --target")
    # through the interpreter too: exit status 2, one error line, no traceback
    code, _, err = run_module("search", "--strategy", "forward",
                              "--height-bound", "2", "--depth", "3",
                              "--target", "2,x,6")
    assert code == 2
    assert "Traceback" not in err
    assert err.strip().splitlines() == [
        "error: --target expects comma-separated counts, got '2,x,6'"]
    # a third-pair target with fewer than three second pre-images goes to
    # forward, refused before any checkpoint is read
    argv = ("search", "--strategy", "thirdpair", "--height-bound", "5",
            "--depth", "3", "--target", "2,2,4")
    resume = ("--checkpoint", str(tmp_path / "missing.ckpt"), "--resume")
    for extra in ((), resume):
        for code, out, err in (run_cli(capsys, *argv, *extra),
                               run_module(*argv, *extra)):
            assert code == 2 and out == "" and "Traceback" not in err
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "--strategy forward" in lines[0]


@pytest.mark.parametrize("command", [
    ("ec", "torsion", "--a4", "0", "--a6", "0"),
    ("ec", "order", "--a4", "0", "--a6", "0", "--x", "0", "--y", "0"),
    ("ec", "torsion", "--a2", "-2", "--a4", "1"),
])
def test_ec_singular_model_is_usage_error(capsys, command):
    code, _, err = run_cli(capsys, *command)
    assert code == 2 and err.startswith("error: ") and "singular" in err
    code, _, err = run_module(*command)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "singular" in err


def test_checkpoint_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QUADPREIM_CHECKPOINT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "search", "--strategy", "forward",
                         "--height-bound", "2", "--depth", "2",
                         "--target", "2,2")
    assert code == 0
    checkpoints = list(tmp_path.glob("*.ckpt"))
    assert len(checkpoints) == 1
    payload = json.loads(checkpoints[0].read_text())
    assert payload["config"]["strategy"] == "forward"


def test_torsion_of_hard_denominator_fiber_exits_zero(capsys):
    # a Z/2 x Z/8 fiber whose scaling denominators have 97 digits with a
    # hard composite part: the coprime-base scaling needs no prime of them
    a = elliptic.torsion_family_a(elliptic.TorsionKind.Z2xZ8,
                                  Fraction(-511647, 486487))
    curve = elliptic.specialize_e24(a).curve
    argv = ("ec", "torsion", "--a2", str(curve.a2), "--a4", str(curve.a4),
            "--a6", str(curve.a6))
    for code, out, err in (run_cli(capsys, *argv), run_module(*argv)):
        assert code == 0, err
        assert out.startswith("torsion subgroup: Z/2 x Z/8 (order 16)")
        assert "Traceback" not in err


def test_config_file_supplies_height_bound(capsys, tmp_path):
    conf = tmp_path / "settings.conf"
    conf.write_text("# search defaults\nheight_bound = 3\n")
    code, out, _ = run_cli(capsys, "--config", str(conf), "search",
                           "--strategy", "forward", "--depth", "2",
                           "--target", "2,2", "--format", "structured")
    assert code == 0
    assert out.strip()


@pytest.mark.parametrize("line, argv", [
    ("height_bound = abc", ("search", "--strategy", "forward", "--depth", "2",
                            "--target", "2,2")),
    ("display_digits = x", ("ec", "specialize-e24", "--a", "1")),
    # integers that %g cannot take as a precision
    ("display_digits = -5", ("ec", "specialize-e24", "--a", "1")),
    ("display_digits = 0", ("ec", "specialize-e24", "--a", "1")),
    ("display_digits = 18", ("ec", "specialize-e24", "--a", "1")),
    ("display_digits = 99999999999", ("ec", "specialize-e24", "--a", "1")),
])
def test_config_value_not_an_integer_is_usage_error(capsys, tmp_path, line, argv):
    conf = tmp_path / "bad.conf"
    conf.write_text(line + "\n")
    code, out, err = run_cli(capsys, "--config", str(conf), *argv)
    assert code == 2 and out == ""
    key, value = (part.strip() for part in line.split("="))
    expects = ("an integer from 1 to 17" if value.lstrip("-").isdigit()
               else "an integer")
    assert err == "error: config key %s expects %s, got %r\n" % (key, expects,
                                                                  value)


def test_verify_paper_under_optimize():
    # python -O strips assert statements; every check must still run and pass
    code, out, err = run_module("verify-paper", flags=("-O",))
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "52/52 checks passed"


def test_verify_paper_sections(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--section", "genus")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out, _ = run_cli(capsys, "verify-paper", "--section", "6.2")
    assert code == 0
    assert out.count("PASS") == 7
    code, _, err = run_cli(capsys, "verify-paper", "--section", "nope")
    assert code == 2


def test_parser_shared_across_calls(capsys):
    # main builds its parser once per process; each call must still read as
    # it would through a freshly built parser
    calls = [H12, ("search", "--strategy", "forward", "--height-bound", "2",
                   "--depth", "3", "--target", "2,x,6"),
             ("--version",), ("verify-paper", "--section", "genus"),
             ("verify-paper", "--section", "nope")]
    shared = [run_cli(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 2]


def test_verify_paper_structured(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--section", "4.4",
                           "--format", "structured")
    assert code == 0
    for line in out.strip().splitlines():
        payload = json.loads(line)
        assert payload["passed"] is True
        assert payload["section"] == "4.4"
