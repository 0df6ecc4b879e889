"""quadpreim benchmark: one workload, one run.

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src.  The run
sets up (imports quadpreim and makes one untimed warm-up call) in this
process and in SETUP_SAMPLES - 1 fresh child processes, then makes whole
rounds of timed calls until --seconds have passed, checking every output
with the oracles in this directory.  It prints the inputs, the machine and
every metric by name, and as its last line one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.

Times are scaled to nominal machine speed by a fixed kernel timed in a
sibling process between calls (speed.py).

A traced run alternates untraced and traced rounds; the per-layer metrics
come from the traced rounds' spans, and trace.overhead_share compares the
work rate of the two kinds of round.  Its spans go to
perfbench/out/trace-<workload>-seed<seed>.json.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 150

# (module, attribute, span name, is a generator): the names the program
# calls through, so wrapping the attribute puts a span around every call
TRACED = (
    ("search", "fractions_by_height", "search.fractions_by_height", False),
    ("search", "verify_pair", "search.verify_pair", False),
    ("search", "preimage_tree", "search.preimage_tree", False),
    ("search", "iterate", "search.iterate", False),
    ("search", "isqrt", "search.isqrt", False),
    ("search", "scan_thirdpair", "search.scan", True),
    ("search", "scan_forward", "search.scan", True),
    ("dynamics", "rat_sqrt", "dynamics.rat_sqrt", False),
    ("elliptic", "short_integral_model", "elliptic.short_integral_model", False),
    ("elliptic", "factorize", "elliptic.factorize", False),
)


class Program:
    """The quadpreim modules the workloads call, imported from ./src."""

    def __init__(self):
        src = os.path.join(ROOT, "src")
        if not os.path.isfile(os.path.join(src, "quadpreim", "__init__.py")):
            raise SystemExit("error: no quadpreim sources under %s; run from "
                             "the repository root" % src)
        sys.path.insert(0, src)
        start = perf_counter()
        import quadpreim
        from quadpreim import cli, dynamics, elliptic, search
        self.import_s = perf_counter() - start
        if not os.path.abspath(quadpreim.__file__).startswith(src + os.sep):
            raise SystemExit("error: quadpreim was imported from %s, not %s"
                             % (quadpreim.__file__, src))
        self.cli, self.dynamics = cli, dynamics
        self.elliptic, self.search = elliptic, search


def set_up(workload, speed: Speed) -> tuple[Program, float, float]:
    """Import, bind the inputs (untimed) and warm up: (program, import_s,
    first_call_s), both at nominal speed."""
    before = speed.sample(max_age=0)
    program = Program()
    workload.bind(program)
    start = perf_counter()
    workload.warmup()
    first_call_s = perf_counter() - start
    scale = speed.factor(before, speed.sample(max_age=0))
    return program, program.import_s * scale, first_call_s * scale


def probe_setup(args) -> tuple[float, float]:
    """Set up once more in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % done.stderr.strip())
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["import_s"], sample["first_call_s"]


class Tally:
    """Durations of timed calls, as measured and at nominal speed, and the
    units of work they did."""

    def __init__(self):
        self.raw: list[float] = []
        self.durations: list[float] = []
        self.scales: list[float] = []
        self.units = 0

    def add(self, seconds: float, scale: float, units: int):
        self.raw.append(seconds)
        self.durations.append(seconds * scale)
        self.scales.append(scale)
        self.units += units

    def rate(self, raw: bool = False) -> float:
        seconds = sum(self.raw if raw else self.durations)
        return self.units / seconds if seconds else 0.0


class Outcome:
    """Calls attempted, calls that raised, calls whose output failed a
    check, and what went wrong.  No call fails on these inputs, so either
    kind makes the run incorrect."""

    def __init__(self):
        self.attempted = self.raised = self.wrong = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def measure(workload, program, speed: Speed, seconds: float, tracer):
    """Whole rounds of timed calls until `seconds` have passed; with a tracer,
    odd rounds are traced.  A call that raises is timed but does no work.
    Returns (plain tally, traced tally, outcome)."""
    modules = {"search": program.search, "dynamics": program.dynamics,
               "elliptic": program.elliptic}
    plain, traced = Tally(), Tally()
    outcome = Outcome()
    deadline = perf_counter() + seconds
    round_no = 0
    while True:
        tracing = tracer is not None and round_no % 2 == 1
        if tracing:
            for module, attr, name, generator in TRACED:
                tracer.patch(modules[module], attr, name, generator)
        tally = traced if tracing else plain
        try:
            for op in workload.round():
                outcome.attempted += 1
                call = tracer.wrap(op.call, workload.call_span) if tracing else op.call
                before = speed.sample()
                start = perf_counter()
                try:
                    output, raised = call(), None
                except Exception as exc:  # a failed call is counted, not fatal
                    output, raised = None, exc
                seconds = perf_counter() - start
                tally.add(seconds, speed.factor(before, speed.sample()),
                          op.units if raised is None else 0)
                if raised is not None:
                    outcome.raised += 1
                    outcome.problems.append("call raised %r" % raised)
                    continue
                try:
                    wrong = op.check(output)
                except Exception as exc:  # malformed output
                    wrong = ["check raised %r" % exc]
                if wrong:
                    outcome.wrong += 1
                    outcome.problems += wrong
        finally:
            if tracing:
                tracer.restore()
        round_no += 1
        if perf_counter() >= deadline and (tracer is None or round_no >= 2):
            return plain, traced, outcome


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(summary: dict, traced: Tally, plain: Tally, setups,
                  workload) -> dict[str, tuple[float, str]]:
    """The per-layer metrics from the traced rounds' spans.  Span times are
    scaled to nominal speed by the traced calls' median speed factor;
    a layer the workload never enters reads 0."""
    empty = {"count": 0, "total": 0.0, "self": 0.0, "durations": []}
    span = {name: summary.get(name, empty) for name in (
        "cli.main", "search.scan", "search.fractions_by_height", "search.isqrt",
        "search.verify_pair", "search.preimage_tree", "search.iterate",
        "dynamics.rat_sqrt", "elliptic.torsion_subgroup",
        "elliptic.short_integral_model", "elliptic.factorize")}
    scale = statistics.median(traced.scales) if traced.scales else 1.0

    def mean_time(name: str, unit: float) -> float:
        return _per(span[name]["total"], span[name]["count"]) * unit * scale

    scan, torsion = span["search.scan"], span["elliptic.torsion_subgroup"]
    candidates = traced.units if scan["count"] else 0
    isqrt_calls = span["search.isqrt"]["count"]
    factor_s = span["elliptic.factorize"]["total"]
    cuts = (statistics.quantiles(torsion["durations"], n=10)
            if torsion["count"] >= 2 else [0.0] * 9)
    sizes = workload.checkpoint_sizes
    return {
        "setup.import_s": (statistics.median(s[0] for s in setups), "s"),
        "setup.first_call_s": (statistics.median(s[1] for s in setups), "s"),
        "search.fractions_by_height_ms": (mean_time("search.fractions_by_height", 1e3), "ms"),
        "search.filter_ns_per_candidate": (_per(scan["self"], candidates) * 1e9 * scale, "ns"),
        "search.exact_checks_per_mcandidate": (_per(isqrt_calls, candidates) * 1e6, "count"),
        "search.square_yield": (_per(span["search.verify_pair"]["count"], isqrt_calls), "ratio"),
        "search.verify_pair_us": (mean_time("search.verify_pair", 1e6), "us"),
        "search.checkpoint_bytes": (_per(sum(sizes), len(sizes)), "bytes"),
        "dynamics.preimage_tree_us": (mean_time("search.preimage_tree", 1e6), "us"),
        "dynamics.iterate_us": (mean_time("search.iterate", 1e6), "us"),
        "exactmath.rat_sqrt_us": (mean_time("dynamics.rat_sqrt", 1e6), "us"),
        "cli.self_ms_per_call": (_per(span["cli.main"]["total"] - scan["total"],
                                      span["cli.main"]["count"]) * 1e3 * scale, "ms"),
        "elliptic.torsion_subgroup_p50_ms": (cuts[4] * 1e3 * scale, "ms"),
        "elliptic.torsion_subgroup_p90_ms": (cuts[8] * 1e3 * scale, "ms"),
        "elliptic.short_integral_model_ms": (mean_time("elliptic.short_integral_model", 1e3), "ms"),
        "factor.factorize_ms": (_per(factor_s, torsion["count"]) * 1e3 * scale, "ms"),
        "factor.factorize_share": (_per(factor_s, torsion["total"]), "ratio"),
        "elliptic.route_self_ms": (_per(torsion["self"], torsion["count"]) * 1e3 * scale, "ms"),
        "trace.overhead_share": (1.0 - _per(traced.rate(), plain.rate()), "ratio"),
    }


def machine() -> str:
    numpy = sys.modules.get("numpy")
    return "nproc %d python %s numpy %s" % (
        os.cpu_count() or 0, platform.python_version(),
        numpy.__version__ if numpy else "-")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up times, and exit")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    workload.prepare()
    try:
        with Speed(workload.speed) as speed:
            program, import_s, first_call_s = set_up(workload, speed)
            if args.setup_probe:
                print(json.dumps({"import_s": import_s, "first_call_s": first_call_s}))
                return 0
            setups = [(import_s, first_call_s)]
            setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            tracer = Tracer() if args.trace else None
            plain, traced, outcome = measure(workload, program, speed,
                                             args.seconds, tracer)
        final = workload.final_problems()
    finally:
        workload.cleanup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("workload %s seed %d seconds %g trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("inputs %s" % workload.describe())
    print("machine %s" % machine())
    print("calls attempted %d failed %d" % (outcome.attempted, outcome.failed))
    for text in (outcome.problems + final)[:20]:
        print("problem: %s" % text, file=sys.stderr)

    if args.trace:
        summary = tracer.summary()
        trace_path = os.path.join(OUT_DIR, "trace-%s-seed%d.json.gz"
                                  % (args.workload, args.seed))
        tracer.dump(trace_path)
        calls = max(len(traced.raw), 1)
        if "search.scan" in summary:
            print("funnel per call: candidates %d, exact checks %g, verify "
                  "calls %g, records %g" % (
                      traced.units // calls,
                      summary.get("search.isqrt", {}).get("count", 0) / calls,
                      summary.get("search.verify_pair", {}).get("count", 0) / calls,
                      workload.records / max(outcome.attempted, 1)))
        print("spans %d written to %s" % (len(tracer.start), trace_path))
        metrics = layer_metrics(summary, traced, plain, setups, workload)
    else:
        metrics = {
            "setup_s": (statistics.median(i + f for i, f in setups), "s"),
            "work_per_s": (plain.rate(), "1/s"),
            "call_p50_ms": (statistics.median(plain.durations) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print("as measured: work_per_s %.6g 1/s, call_p50_ms %.6g ms, "
              "speed factor median %.4g over %d calls" % (
                  plain.rate(raw=True), statistics.median(plain.raw) * 1e3,
                  statistics.median(plain.scales), len(plain.scales)))
    for name, (value, unit) in metrics.items():
        print("%s %.6g %s" % (name, value, unit))
    result = {
        "correct": not final and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
