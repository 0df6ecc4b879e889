"""Checks on the package source itself.

Correctness must not rest on `assert` (python -O strips it), the core is
exact (a float appears only in the display helper), and importing the
package starts no worker machinery (`multiprocessing` is imported where a
pool is made, so a one-job run never pays for it) and loads no numpy: only
`plans` imports it, and only a scan loads `plans`.  Nor does it load
OpenSSL's `_hashlib`, which only a checkpoint's digest needs.  The torsion hot path,
the elimination of c, the settling of a search candidate and the making of
its record stay on Python ints, and the numpy code of the scans' filters
has no true division and no float dtype.
The scan driver and the checkpoint reader make and read no record JSON.
Every name that the benchmark harness traces still exists in the package, no
module-level function, class or constant is dead, and no parameter default
in the package is an option that nothing sets.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import quadpreim

SOURCES = sorted(pathlib.Path(quadpreim.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))
FLOAT_HOME = ("cli.py", "_display_float")
# the coprime-base split of the scaling denominators, the integer group law,
# the integer division polynomials, the integer roots by p-adic lifting with
# the squarefree part that it falls back on, the square-root halving, the
# point-count bound and the division closure that runs on them, with the int
# coefficient-list arithmetic they share, as (module, qualified name)
INTEGER_TORSION = (
    *(("exactmath", name) for name in ("_poly_mul", "_poly_sub", "_horner",
                                       "_pseudo_rem", "_squarefree")),
    *(("elliptic", name) for name in (
        "_root", "factorize", "_int_add", "_torsion_multiples",
        "_division_polys", "_coprime_mod", "integer_roots",
        "_root_counts", "_count_points_mod_p", "_torsion_order_bound",
        "_halvings", "_division_solve", "_torsion_by_division")))
# the elimination of c: the integer subresultant PRS on its pseudo-remainder
# loop and the Newton interpolation of its samples
INTEGER_ELIMINATION = (("exactmath", "_pseudo_rem"),
                       ("exactmath", "_int_resultant"),
                       ("exactmath", "eliminate_c"))
# the search candidate's integer settle: the one walk with its target check,
# the forward orbit, the level walk, the settle of each plan and of both, a
# block's settle of its candidates, the lowest-terms (c, a) that the driver
# dedups hits by, and the order the tree builder gives each level, as
# (module, qualified name)
INTEGER_SETTLE = (("search", "_walk"), ("plans", "_thirdpair_values"),
                  ("search", "_settle"), ("plans", "_ForwardPlan.settle"),
                  ("plans", "_ThirdPairPlan.settle"),
                  ("search", "_scan_block"), ("exactmath", "lowest_terms"),
                  ("dynamics", "orbit"), ("dynamics", "preimage_levels"),
                  ("dynamics", "_descending"))
# a hit's way to the output: the tree built from the walk's level maps, its
# signature, union and JSON, the record around it and its JSON, and the scan
# driver that dedups hits and formats provenance from the plans' pairs
INTEGER_RECORD = (("dynamics", "tree_from_levels"),
                  ("dynamics", "PreimageTree.as_json"),
                  ("dynamics", "PreimageTree.signature"),
                  ("dynamics", "PreimageTree.union_count"),
                  ("search", "_record"), ("search", "SearchRecord.as_json"),
                  ("search", "_scan"),
                  ("plans", "_ThirdPairPlan.pairs"),
                  ("plans", "_ForwardPlan.pairs"))
# the scans' numpy filter code in plans.py, which decides candidates on int
# arrays: the forms and their kind tables, the shared builder and survivor
# helpers, and the plans around them
INTEGER_FILTER = ("_height_order", "_two_square_mask", "_pair_form",
                  "_branch_forms", "_filter_tables", "_kind_tables",
                  "_stacked_tables", "_kind_keys", "_row_mask", "_word_tile",
                  "_kind_filter", "_kind_pairs",
                  "_ThirdPairPlan.__init__", "_square_pairs",
                  "_ForwardPlan.__init__", "_ForwardPlan.candidates")
BENCH_RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
# commands that run no scan, and one that does
NO_SCAN_COMMANDS = (
    ["tree", "--c", "-24361/14400", "--a", "-42/25", "--depth", "3"],
    ["ec", "torsion", "--a2", "3", "--a4", "16", "--a6", "48"],
    ["critical", "--n", "3"],
    ["model", "--tag", "224"],
    ["verify-paper"])
SCAN_COMMAND = ["search", "--strategy", "thirdpair", "--height-bound", "30",
                "--depth", "3", "--target", "2,4,6"]
FORWARD_COMMAND = ["search", "--strategy", "forward", "--height-bound", "4",
                   "--depth", "3", "--target", "2,2,4"]
CHECKPOINT_COMMAND = [*SCAN_COMMAND, "--checkpoint", "scan.ckpt"]
# run in a fresh interpreter (pytest has numpy loaded): whether numpy and
# _hashlib (OpenSSL, which only a checkpoint's digest needs) are loaded after
# importing the package, then (exit code, numpy, _hashlib) after each command
# of argv[1] in turn
LOAD_PROBE = """
import contextlib, io, json, sys
import quadpreim
from quadpreim import cli, dynamics, elliptic, models, search, verify
loaded = {"import": ["numpy" in sys.modules, "_hashlib" in sys.modules]}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[" ".join(argv)] = [code, "numpy" in sys.modules,
                              "_hashlib" in sys.modules]
print(json.dumps(loaded))
"""


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _float_calls(node, path, scope=()):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "float"):
            yield path.name, inner, child.lineno
        yield from _float_calls(child, path, inner)


def _top_level_imports(tree):
    # statements run at import time: the module body and the blocks of its
    # top-level if/try/with statements, but no function or class body
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def test_sources_found():
    assert {"cli.py", "search.py", "plans.py", "models.py"} <= {
        p.name for p in SOURCES}


def test_no_assert_statements():
    found = [(p.name, node.lineno) for p in SOURCES
             for node in ast.walk(_parse(p)) if isinstance(node, ast.Assert)]
    assert found == []


def test_float_only_in_display_helper():
    calls = [call for p in SOURCES for call in _float_calls(_parse(p), p)]
    assert [(name, scope) for name, scope, _ in calls] == [
        (FLOAT_HOME[0], (FLOAT_HOME[1],))]


def test_no_top_level_multiprocessing_import():
    for path in SOURCES:
        modules = list(_top_level_imports(_parse(path)))
        assert not any(m.split(".")[0] == "multiprocessing" for m in modules), path


def test_only_plans_imports_numpy_at_top_level():
    # the scans import plans when they start, so no other command loads numpy
    found = [path.name for path in SOURCES
             if any(m.split(".")[0] == "numpy"
                    for m in _top_level_imports(_parse(path)))]
    assert found == ["plans.py"]


def test_numpy_loads_only_for_scans(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(quadpreim.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    # the checkpoint search comes last: a loaded module stays loaded
    commands = [*NO_SCAN_COMMANDS, SCAN_COMMAND, FORWARD_COMMAND,
                CHECKPOINT_COMMAND]
    done = subprocess.run([sys.executable, "-c", LOAD_PROBE,
                           json.dumps(commands)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "import": [False, False],
        **{" ".join(argv): [0, False, False] for argv in NO_SCAN_COMMANDS},
        " ".join(SCAN_COMMAND): [0, True, False],
        " ".join(FORWARD_COMMAND): [0, True, False],
        " ".join(CHECKPOINT_COMMAND): [0, True, True]}
    assert (tmp_path / "scan.ckpt").exists()


def _named(keys, names):
    # the (key, name) pairs where a function of keys names one of names
    found = {}
    for module in {m for m, _ in keys}:
        found.update(_functions(module))
    assert set(keys) <= set(found)
    return {(key, node.id) for key in keys for node in ast.walk(found[key])
            if isinstance(node, ast.Name) and node.id in names}


def test_torsion_hot_path_names_no_fraction_type():
    assert _named(INTEGER_TORSION, ("Fraction", "ECPoint", "QPoly")) == set()


def test_elimination_names_no_fraction_type():
    # the polynomials enter the elimination as QPoly and leave it as one,
    # but every resultant and the interpolation run on ints
    assert _named(INTEGER_ELIMINATION, ("Fraction",)) == set()


def _functions(module):
    # the module-level functions and methods of a module, by qualified name
    tree = _parse(pathlib.Path(quadpreim.__file__).parent / (module + ".py"))
    found = {}
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else ()
        for fn in [node, *methods]:
            if isinstance(fn, ast.FunctionDef):
                name = fn.name if fn is node else node.name + "." + fn.name
                found[(module, name)] = fn
    return found


def test_search_hot_path_names_no_fraction_type():
    # a candidate that misses builds no Fraction, and the driver dedups hits
    # on ints: the functions that settle and dedup them never name the type
    assert _named(INTEGER_SETTLE, ("Fraction",)) == set()


def test_record_path_names_no_fraction_type():
    # a hit becomes a tree, a record, provenance and JSON on int pairs; only
    # the readers of c, a and levels make Fractions
    assert _named(INTEGER_RECORD, ("Fraction",)) == set()


def test_checkpoint_path_builds_no_record_json():
    # a checkpoint names the candidates of the emitted records, and resume
    # settles them again: the driver and the checkpoint reader neither build
    # nor parse record JSON
    found = _functions("search")
    calls = [(name, node.lineno) for name in ("_scan", "_load_checkpoint")
             for node in ast.walk(found[("search", name)])
             if isinstance(node, ast.Call)
             and _callee(node.func) in ("as_json", "from_json")]
    assert calls == []


def _float_dtype(node):
    # a string argument that numpy reads as a float or complex dtype
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return False
    try:
        return np.dtype(node.value).kind in "fc"
    except TypeError:
        return False


def _inexact(node):
    # true division, a float type named as a dtype (float, np.float64, ...),
    # a float dtype string passed to a call, or numpy's true division
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if isinstance(node, ast.Name):
        return node.id in ("float", "complex")
    if isinstance(node, ast.Attribute):
        return (node.attr.startswith(("float", "complex", "double", "half",
                                      "single", "longdouble"))
                or node.attr in ("divide", "true_divide", "inexact"))
    if isinstance(node, ast.Call):
        return any(_float_dtype(arg) for arg in
                   [*node.args, *(kw.value for kw in node.keywords)])
    return False


def test_thirdpair_filter_has_no_float_arithmetic():
    # no float array decides a candidate: the enumeration, the masks, the
    # tables and the filter divide only with // and build only int and bool
    # arrays
    found = _functions("plans")
    keys = [("plans", name) for name in INTEGER_FILTER]
    assert set(keys) <= set(found)
    inexact = [(name, node.lineno) for module, name in keys
               for node in ast.walk(found[(module, name)]) if _inexact(node)]
    assert inexact == []


def _benchmark_traced():
    # the (module, attr, ...) entries of perfbench/run.py's TRACED tuple,
    # read without importing the harness
    traced = [ast.literal_eval(node.value) for node in _parse(BENCH_RUN).body
              if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)]
              == ["TRACED"]]
    assert len(traced) == 1 and traced[0]
    return traced[0]


def test_benchmark_traced_names_resolve():
    # `perfbench/run.py --trace 1` patches each (module, attr) of its TRACED
    # tuple with a getattr that has no default, so a name dropped from the
    # package breaks every traced run
    missing = [(module, attr) for module, attr, *_ in _benchmark_traced()
               if not hasattr(importlib.import_module("quadpreim." + module),
                              attr)]
    assert missing == []


def _defined_names(top):
    # the names a module-level statement defines: a function or class, or the
    # plain names an assignment binds
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    targets = (top.targets if isinstance(top, ast.Assign) else
               [top.target] if isinstance(top, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def test_no_dead_module_level_helpers():
    # every module-level function, class and constant is read somewhere in
    # the package outside its own statement, exported in quadpreim.__all__,
    # or traced by the benchmark harness; an import or an assignment alone is
    # not a use, and a dunder such as __all__ is module metadata
    users = {}
    defined = []
    for path in SOURCES:
        for top in _parse(path).body:
            statement = (path.stem, top.lineno)
            defined += [(path.stem, name, statement)
                        for name in _defined_names(top)]
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    users.setdefault(node.id, set()).add(statement)
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add(statement)
    traced = {(module, attr) for module, attr, *_ in _benchmark_traced()}
    dead = [(module, name) for module, name, statement in defined
            if not users.get(name, set()) - {statement}
            and not (name.startswith("__") and name.endswith("__"))
            and name not in quadpreim.__all__ and (module, name) not in traced]
    assert dead == []


def _callee(node):
    # the name a call goes through: f(...) and obj.f(...) both call "f"
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _defaulted_params(tree):
    # (function, parameter, positional index seen by a caller or None) for
    # every parameter with a default; __init__ is called by its class name,
    # and a method's caller does not pass self
    owners = {id(fn): cls.name for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for fn in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(id(fn))
        name = owner if fn.name == "__init__" else fn.name
        bound = owner is not None and "staticmethod" not in [
            _callee(d) for d in fn.decorator_list]
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield name, arg.arg, i - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def test_every_parameter_default_is_set_by_some_caller():
    # an option that no call in src/ or tests/ sets is dead code behind a
    # default.  A call sets it by passing its name as a keyword (to any
    # callee, functools.partial included, so a name collision only makes the
    # check lenient) or by calling the function's name (the class name for
    # __init__) with enough positional arguments; *args and **kwargs count
    # as setting everything
    keywords = set()
    reach = {}
    for path in SOURCES + TESTS:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            names = {kw.arg for kw in node.keywords}
            keywords |= names
            starred = None in names or any(isinstance(a, ast.Starred)
                                           for a in args)
            reach[name] = max(reach.get(name, 0),
                              float("inf") if starred else len(args))
    dead = [(path.name, name, param) for path in SOURCES
            for name, param, index in _defaulted_params(_parse(path))
            if param not in keywords
            and (index is None or reach.get(name, 0) <= index)]
    assert dead == []
