"""The public API and the guards on dead code in src/.

Every name listed in ma_lab.__all__ exists, once.  Every option of a
function in src/ takes more than one value in the calls there, every
default of one is left to it by some use in src/, tests/ or perfbench/,
and every function in src/ runs in the session's one run of the command
table (tests/command_table.py, the `table_run` fixture), or is listed
with the reason it stays."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import ma_lab
import reachability


def test_all_names_resolve_once():
    names = ma_lab.__all__
    assert len(names) == len(set(names)), "a name is listed twice in __all__"
    missing = [n for n in names if not hasattr(ma_lab, n)]
    assert not missing, f"__all__ names missing from the package: {missing}"
    assert "sublevel_abscissae" in names


def readme_references(text):
    """The backticked dotted names of text that start at a module of
    ma_lab (`energy.cutoffs`, `ma_lab.models.Backend`), with the path
    inside that module; fenced blocks and file names such as
    `capacity.json` are no references."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    modules = {m.name for m in pkgutil.iter_modules(ma_lab.__path__)}
    refs = []
    for ref in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text):
        parts = ref.split(".")
        if parts[0] == "ma_lab":
            parts = parts[1:]
        if parts[0] in modules and parts[-1] not in ("json", "csv", "xml"):
            refs.append((ref, parts[0], parts[1:]))
    return refs


def test_readme_references_resolve():
    # prose that outlives a rename names a function that is gone
    readme = Path(__file__).parent.parent / "README.md"
    refs = readme_references(readme.read_text())
    assert refs
    missing = []
    for ref, module, path in refs:
        obj = importlib.import_module(f"ma_lab.{module}")
        for name in path:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(ref)
    assert not missing, f"README names what the package lacks: {missing}"


# Defaulted parameters that no call in src/ passes, each kept on purpose:
# a test, the benchmark harness or a user of the public kernel sets it.
UNPASSED_OPTIONS = {
    ("main", "argv"): "tests and the benchmark drive the CLI in-process",
    ("toric_cells", "want_jac"): "one-call cell kernel; tests ask for the Jacobian",
    ("default_grid", "core_half_width"): "public grid kernel; tests build a coarse grid",
    ("default_grid", "core_step"): "public grid kernel; tests build a coarse grid",
    ("default_grid", "octaves"): "public grid kernel; tests build a coarse grid",
    ("default_grid", "per_octave"): "public grid kernel; tests build a coarse grid",
    ("solve_separable", "p"): "public solver; its energy-trace exponent, as on the others",
    ("solve_newton_toric", "itmax"): "tests cap the Newton iterations",
    ("uniqueness_check", "measure_tol"): "tests loosen it for coarse toric solves",
    ("uniqueness_check", "deviation_tol"): "tests loosen it for coarse toric solves",
    ("check_energy_holder", "p"): "the acceptance tests sweep the exponent",
    ("check_capacity_domination", "p"): "the acceptance tests sweep the exponent",
}


def _defaulted_params(tree):
    """(function name, parameter, positional index or None, default node) of
    every defaulted parameter; a method's index does not count self or cls."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a = fn.args
        pos = a.posonlyargs + a.args
        if pos and pos[0].arg in ("self", "cls"):
            pos = pos[1:]
        first = len(pos) - len(a.defaults)
        out += [(fn.name, x.arg, i, a.defaults[i - first])
                for i, x in enumerate(pos) if i >= first]
        out += [(fn.name, x.arg, None, d)
                for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _given(call, param, index):
    """The argument node call gives param, None if it gives none, or
    ast.Starred when *args or **kwargs may give it."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
        if k.arg is None:  # **kwargs
            return ast.Starred()
    if index is None:
        return None
    if any(isinstance(x, ast.Starred) for x in call.args[:index + 1]):
        return ast.Starred()
    return call.args[index] if len(call.args) > index else None


def _literal(node):
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _name(node):
    """The name that a Name or an Attribute node gives, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def one_value_options(sources):
    """(function, parameter) of each defaulted parameter that its calls in
    the sources give one value only: no call passes it, or every call
    gives it the same literal, the default counting for a call that does
    not pass it.  A value is the argument's source text; a starred
    argument is a value of its own."""
    trees = [ast.parse(s) for s in sources]
    calls = {}
    for node in (n for t in trees for n in ast.walk(t)):
        if isinstance(node, ast.Call):
            calls.setdefault(_name(node.func), []).append(node)
    found = set()
    for fn, param, index, default in (d for t in trees for d in _defaulted_params(t)):
        given = [_given(c, param, index) for c in calls.get(fn, ())]
        if any(isinstance(g, ast.Starred) for g in given):
            continue
        nodes = [default if g is None else g for g in given]
        if all(g is None for g in given) or (
                len({ast.unparse(n) for n in nodes}) == 1 and _literal(nodes[0])):
            found.add((fn, param))
    return found


def test_unpassed_option_finder():
    src = ("def f(a, b=1, *, c=2): pass\n"
           "class K:\n    def m(self, x=0): pass\n"
           "f(0, 1)\n")
    assert one_value_options([src]) == {("f", "b"), ("f", "c"), ("m", "x")}
    assert one_value_options([src, "f(0, 2, c=3)\nk.m(1)\nK().m()"]) == set()
    assert one_value_options([src, "f(*xs, **kw)\nK.m(**kw)"]) == set()
    # one value: every call gives the same literal, passed or by default
    assert one_value_options([src, "f(0, b=1, c=3)\nk.m(1)"]) == {("f", "b"), ("m", "x")}
    assert one_value_options([src, "f(0, 2, c=2)\nk.m(0)"]) == {("f", "c"), ("m", "x")}
    # a variable passed can take any value
    assert one_value_options([src, "f(0, n, c=n)\nk.m(x)"]) == set()


def test_every_option_is_passed_or_listed():
    src = Path(ma_lab.__file__).parent
    found = one_value_options(p.read_text() for p in sorted(src.glob("*.py")))
    dead = sorted(found - set(UNPASSED_OPTIONS))
    assert not dead, f"defaulted parameters that calls in src/ give one value only: {dead}"
    stale = sorted(set(UNPASSED_OPTIONS) - found)
    assert not stale, f"listed options that src/ now passes or lost: {stale}"


# Defaulted parameters of src/ that every call in src/, tests/ and
# perfbench/ passes, each kept on purpose (none today).
ALWAYS_PASSED_OPTIONS = {}


def always_passed_options(defs, uses):
    """(function, parameter) of each defaulted parameter of the sources
    defs that every call in the sources uses (defs among them) passes, so
    that its default is never taken.  A function that no call reaches, or
    that is named other than as a call's callee (a CHECKS value, a
    partial's argument, a monkeypatch target), may run with its defaults,
    and a starred argument may leave one.  A name in any other string (an
    __all__ entry, an operation named in an error) is no use."""
    nodes = [n for s in uses for n in ast.walk(ast.parse(s))]
    calls, named = {}, Counter(map(_name, nodes))
    for node in nodes:
        if isinstance(node, ast.Call):
            calls.setdefault(_name(node.func), []).append(node)
            if _name(node.func) == "setattr":  # a monkeypatch target names it
                named.update(a.value for a in node.args if isinstance(a, ast.Constant))
    found = set()
    for fn, param, index, _ in (d for s in defs for d in _defaulted_params(ast.parse(s))):
        cs = calls.get(fn, [])
        given = [_given(c, param, index) for c in cs]
        if cs and named[fn] == len(cs) and all(
                g is not None and not isinstance(g, ast.Starred) for g in given):
            found.add((fn, param))
    return found


def test_always_passed_option_finder():
    src = ("def f(a, b=1, *, c=2): pass\n"
           "class K:\n    def m(self, x=0): pass\n"
           "f(0, 2, c=3)\nK().m(1)\n")
    assert always_passed_options([src], [src]) == {("f", "b"), ("f", "c"), ("m", "x")}
    # a call that leaves a default, in src/ or elsewhere
    assert always_passed_options([src], [src, "f(0, c=4)\nk.m()"]) == {("f", "c")}
    assert always_passed_options([src], [src, "f(*xs, c=4)\nk.m(**kw)"]) == {("f", "c")}
    # a function no call reaches is the other guard's case
    assert always_passed_options(["def g(a=1): pass"], ["def g(a=1): pass"]) == set()
    # a function named other than as a callee may run with its defaults
    for use in ("CHECKS = {'f': ('Lemma 1', f)}", "partial(f, 0)",
                "monkeypatch.setattr(mod, 'f', spy)", "g = mod.f"):
        assert always_passed_options([src], [src, use]) == {("m", "x")}, use
    assert always_passed_options([src], [src, "__all__ = ['f', 'm']\nrequire(k, 'f')"]) == \
        {("f", "b"), ("f", "c"), ("m", "x")}


def test_every_default_is_taken_or_listed():
    here = Path(__file__).parent
    defs = [p.read_text() for p in sorted(Path(ma_lab.__file__).parent.glob("*.py"))]
    uses = defs + [p.read_text() for d in (here, here.parent / "perfbench")
                   for p in sorted(d.rglob("*.py"))]
    found = always_passed_options(defs, uses)
    dead = sorted(found - set(ALWAYS_PASSED_OPTIONS))
    assert not dead, f"defaulted parameters that every call passes: {dead}"
    stale = sorted(set(ALWAYS_PASSED_OPTIONS) - found)
    assert not stale, f"listed defaults that some use now takes, or lost: {stale}"


# Functions of src/ that no row of tests/command_table.py runs, each kept
# on purpose, by "module.qualified.name".
UNREACHED = {
    "ma.toric_cells": "one-call cell kernel; tests and perfbench/layers.py call it",
    "ma.toric_hull_projection": "one-call projection kernel; tests and perfbench/layers.py "
                                "call it",
    "ma._product_mixed": "the product ladder's j = 1 measure; no command reads a product "
                         "j = 1 energy",
    "ma._toric_mixed": "toric backend's mixed measure, in README's backend table",
    "energy._product_gradient": "product backend's gradient energy, in README's backend table",
    "solver.solve_separable": "product backend's solver, in README's backend table",
}


def test_every_function_is_reached_or_listed(table_run):
    reached = {tuple(key) for key in table_run["reached"]}
    unreached = {name for key, name in reachability.defs().items() if key not in reached}
    dead = sorted(unreached - set(UNREACHED))
    assert not dead, f"functions in src/ that no command runs: {dead}"
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"listed functions that a command now runs or that are gone: {stale}"
