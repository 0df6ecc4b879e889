"""Command-line front end.

Subcommands: tree, critical, ec (specialize-e24 / specialize-e222 / order /
torsion / curve-244), model, search, verify-paper.  Exit codes: 0 success,
1 check or verification failure, 2 usage error.  Structured output mode
emits one JSON object per line; every line parses back into the emitting
data type.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from . import __version__, dynamics, elliptic, models, search, verify
from .exactmath import QPoly, RatParseError, format_rat, parse_rat

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# each level of critical_avalues costs over ten times the one before; level 8
# takes a few seconds, and level 30 would build a degree-2^29 polynomial
CRITICAL_MAX_N = 8
# ideal_j(n) holds n - 1 quadrics over (n + 1)-tuple monomials: O(n^2) memory
MODEL_MAX_DEPTH = 1000
# preimage_tree walks every level, even past the first empty one
TREE_MAX_DEPTH = 1000


class UsageError(Exception):
    pass


def _rat(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except RatParseError as exc:
        raise UsageError(str(exc))


def _print_json(obj):
    print(json.dumps(obj, sort_keys=True))


def _poly_json(poly: QPoly) -> list[str]:
    return [format_rat(c) for c in poly.coeffs]


def _display_float(q: Fraction) -> str:
    # display-only; the core never floats (past a double's range: decimal)
    try:
        return "%.6g" % float(q)
    except OverflowError:
        return format(Decimal(q.numerator) / q.denominator, ".6g")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_tree(args) -> int:
    c = _rat(args.c)
    a = _rat(args.a)
    if not 1 <= args.depth <= TREE_MAX_DEPTH:
        raise UsageError("tree depth must be between 1 and %d" % TREE_MAX_DEPTH)
    tree = dynamics.preimage_tree(c, a, args.depth)
    if args.format == "structured":
        _print_json(tree.as_json())
        return EXIT_OK
    print("c = %s, a = %s, depth %d" % (format_rat(c), format_rat(a), args.depth))
    for k, level in enumerate(tree.levels, start=1):
        values = ", ".join(format_rat(n.value) for n in level) or "(none)"
        print("  level %d: %s" % (k, values))
    print("signature: %s" % ",".join(str(s) for s in tree.signature()))
    print("distinct values across levels: %d" % tree.union_count())
    return EXIT_OK


def cmd_critical(args) -> int:
    if not 2 <= args.n <= CRITICAL_MAX_N:
        raise UsageError("--n must be between 2 and %d" % CRITICAL_MAX_N)
    data = dynamics.critical_avalues(args.n)
    if args.format == "structured":
        _print_json({
            "n": args.n,
            "critical_poly_c": _poly_json(data.crit_poly_c),
            "avalue_minpoly": _poly_json(data.avalue_minpoly),
        })
        return EXIT_OK
    print("critical parameter polynomial (in c): %s"
          % data.crit_poly_c.format("c"))
    print("critical value polynomial (in a):     %s"
          % data.avalue_minpoly.format("a"))
    return EXIT_OK


def cmd_model(args) -> int:
    if args.tag in ("224", "242", "2222"):
        model = models.arrangement_curve(args.tag)
    else:
        try:
            depth = int(args.tag)
        except ValueError:
            raise UsageError("--tag must be 224, 242, 2222, or a depth >= 2")
        if not 2 <= depth <= MODEL_MAX_DEPTH:
            raise UsageError("model depth must be between 2 and %d"
                             % MODEL_MAX_DEPTH)
        model = models.ideal_j(depth)
    if args.format == "structured":
        _print_json({
            "tag": args.tag,
            "variables": list(model.var_names),
            "generators": [g.format(model.var_names) for g in model.generators],
        })
        return EXIT_OK
    print(model.export_text())
    return EXIT_OK


def cmd_ec(args) -> int:
    if args.ec_command in ("specialize-e24", "specialize-e222"):
        e24 = args.ec_command == "specialize-e24"
        specialize = elliptic.specialize_e24 if e24 else elliptic.specialize_e222
        fiber = specialize(_rat(args.a))
        if args.format == "structured":
            _print_json({**fiber.as_json(), "equation": str(fiber.curve)})
        else:
            print(fiber.curve)
            if e24:
                print("section T = %s" % fiber.torsion_point)
            else:
                print("sections P = %s, Q = %s" % (fiber.p_point, fiber.q_point))
            print("delta = %s, singular = %s" % (format_rat(fiber.delta),
                                                 fiber.singular))
            if fiber.j is not None:
                print("j = %s (~%s)" % (format_rat(fiber.j),
                                        _display_float(fiber.j)))
        return EXIT_OK

    if args.ec_command == "curve-244":
        curve, point = elliptic.curve_244()
        if args.format == "structured":
            _print_json({"curve": curve.as_json(), "point": point.as_json()})
        else:
            print(curve)
            print("infinite-order point: %s" % point)
        return EXIT_OK

    curve = elliptic.WeierstrassCurve.from_coeffs(
        _rat(args.a1), _rat(args.a2), _rat(args.a3), _rat(args.a4), _rat(args.a6))
    if curve.is_singular():
        raise UsageError("the model %s is singular (discriminant 0)" % curve)

    if args.ec_command == "order":
        point = elliptic.ECPoint.affine(_rat(args.x), _rat(args.y))
        try:
            order = elliptic.point_order(curve, point)
        except elliptic.OffCurveError as exc:
            raise UsageError(str(exc))
        if args.format == "structured":
            _print_json({"order": order})
        else:
            print("order: %s" % ("infinite" if order is None else order))
        return EXIT_OK

    if args.ec_command == "torsion":
        group = elliptic.torsion_subgroup(curve)
        if args.format == "structured":
            _print_json({
                "invariants": list(group.invariants),
                "generators": [p.as_json() for p in group.generators],
                "points": [p.as_json() for p in group.points],
            })
        else:
            print("torsion subgroup: %s (order %d)" % (group, group.order))
            for gen in group.generators:
                print("  generator %s" % gen)
        return EXIT_OK

    raise UsageError("unknown ec subcommand %r" % args.ec_command)


def cmd_search(args) -> int:
    try:
        target = tuple(int(part) for part in args.target.split(","))
    except ValueError:
        raise UsageError("--target expects comma-separated counts, got %r"
                         % args.target)
    if args.shard:
        try:
            index, total = args.shard.split("/")
            shard = (int(index), int(total))
        except ValueError:
            raise UsageError("--shard expects INDEX/TOTAL")
    else:
        shard = (0, 1)
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise UsageError("--jobs must be between 1 and the %d CPUs" % cpus)
    count = 0
    try:
        cfg = search.SearchConfig(height_bound=args.height_bound,
                                  depth=args.depth, target=target, shard=shard,
                                  checkpoint_path=args.checkpoint)
        scan = {"thirdpair": search.scan_thirdpair,
                "forward": search.scan_forward}[args.strategy]
        for record in scan(cfg, resume=args.resume, jobs=args.jobs):
            count += 1
            if args.format == "structured":
                _print_json(record.as_json())
            else:
                print("hit %d: c = %s, a = %s, signature %s" %
                      (count, format_rat(record.c), format_rat(record.a),
                       ",".join(map(str, record.signature))))
    except search.SearchArgumentError as exc:
        raise UsageError(str(exc))
    if args.format == "human":
        print("%d record(s)" % count)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    results = verify.run_checks(args.section)
    failed = 0
    for result in results:
        if args.format == "structured":
            _print_json(result.as_json())
        else:
            print(result.line())
        failed += 0 if result.passed else 1
    if args.format == "human":
        print("%d/%d checks passed" % (len(results) - failed, len(results)))
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------

# a negative rational, or a comma list of integers that starts negative
# (--target -1,4,6), so that the scan's own check reports it
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$|^-\d+(,-?\d+)+$")


def _rational_friendly(parser: argparse.ArgumentParser):
    """Let option values like -24361/14400 pass as values, not flags, on the
    parser and every subparser under it."""
    parser._negative_number_matcher = _NEGATIVE_RATIONAL
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                _rational_friendly(child)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call in a process and
    shared by every later one: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quadpreim",
        description="rational pre-image trees, pre-image curve models, and "
                    "arrangement searches for x^2 + c")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = dict(choices=("human", "structured"), default="human")

    p_tree = sub.add_parser("tree", help="rational pre-image tree of a under f_c")
    p_tree.add_argument("--c", required=True)
    p_tree.add_argument("--a", required=True)
    p_tree.add_argument("--depth", type=int, required=True)
    p_tree.add_argument("--format", **fmt)
    p_tree.set_defaults(func=cmd_tree)

    p_crit = sub.add_parser("critical", help="critical parameter and value polynomials")
    p_crit.add_argument("--n", type=int, required=True,
                        help="level, 2 to %d" % CRITICAL_MAX_N)
    p_crit.add_argument("--format", **fmt)
    p_crit.set_defaults(func=cmd_critical)

    p_model = sub.add_parser("model", help="projective pre-image curve models")
    p_model.add_argument("--tag", required=True,
                         help="224, 242, 2222, or a tree depth for the full model")
    p_model.add_argument("--format", **fmt)
    p_model.set_defaults(func=cmd_model)

    p_ec = sub.add_parser("ec", help="elliptic curve operations")
    ec_sub = p_ec.add_subparsers(dest="ec_command", required=True)

    for name in ("specialize-e24", "specialize-e222"):
        p = ec_sub.add_parser(name)
        p.add_argument("--a", required=True)
        p.add_argument("--format", **fmt)
        p.set_defaults(func=cmd_ec)

    p_244 = ec_sub.add_parser("curve-244")
    p_244.add_argument("--format", **fmt)
    p_244.set_defaults(func=cmd_ec)

    for name in ("order", "torsion"):
        p = ec_sub.add_parser(name)
        for coeff in ("a1", "a2", "a3", "a4", "a6"):
            p.add_argument("--" + coeff, default="0")
        if name == "order":
            p.add_argument("--x", required=True)
            p.add_argument("--y", required=True)
        p.add_argument("--format", **fmt)
        p.set_defaults(func=cmd_ec)

    p_search = sub.add_parser("search", help="height-bounded arrangement search")
    p_search.add_argument("--strategy", choices=("thirdpair", "forward"),
                          default="thirdpair",
                          help="thirdpair: depth-3 targets with at least 3 "
                               "second pre-images; forward: any target")
    p_search.add_argument("--height-bound", type=int, required=True)
    p_search.add_argument("--depth", type=int, required=True)
    p_search.add_argument("--target", required=True,
                          help="comma-separated per-level counts, e.g. 2,4,6")
    p_search.add_argument("--shard", help="INDEX/TOTAL")
    p_search.add_argument("--jobs", type=int, default=1,
                          help="worker processes that share the scan's "
                               "blocks; the output does not depend on it")
    p_search.add_argument("--checkpoint", help="checkpoint file path")
    p_search.add_argument("--resume", action="store_true")
    p_search.add_argument("--format", **fmt)
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify-paper",
                              help="replay the published reference values")
    p_verify.add_argument("--section", default=None,
                          choices=verify.available_sections(),
                          help="default: all fast sections")
    p_verify.add_argument("--format", **fmt)
    p_verify.set_defaults(func=cmd_verify_paper)

    return _rational_friendly(parser)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize the usage exit code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # print every integer the command makes: lift the interpreter's int-to-str
    # digit limit, where it has one (parse_rat bounds an argument's digits)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except search.CheckpointError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
