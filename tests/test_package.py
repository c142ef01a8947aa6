"""The public API: every name listed in ma_lab.__all__ exists, once, and
every option of a function in src/ is passed by some call there, or
listed with the reason it stays."""

import ast
from pathlib import Path

import ma_lab


def test_all_names_resolve_once():
    names = ma_lab.__all__
    assert len(names) == len(set(names)), "a name is listed twice in __all__"
    missing = [n for n in names if not hasattr(ma_lab, n)]
    assert not missing, f"__all__ names missing from the package: {missing}"
    assert "sublevel_abscissae" in names


# Defaulted parameters that no call in src/ passes, each kept on purpose:
# a test, the benchmark harness or a user of the public kernel sets it.
UNPASSED_OPTIONS = {
    ("main", "argv"): "tests and the benchmark drive the CLI in-process",
    ("toric_cells", "want_jac"): "one-call cell kernel; tests ask for the Jacobian",
    ("default_grid", "core_half_width"): "public grid kernel; tests build a coarse grid",
    ("default_grid", "core_step"): "public grid kernel; tests build a coarse grid",
    ("default_grid", "octaves"): "public grid kernel; tests build a coarse grid",
    ("default_grid", "per_octave"): "public grid kernel; tests build a coarse grid",
    ("convex_envelope", "slope_cap"): "public envelope kernel; tests pass the cap",
    ("legendre", "num"): "public conjugate kernel; tests vary the slope sampling",
    ("solve_separable", "p"): "public solver; its energy-trace exponent, as on the others",
    ("solve_newton_toric", "widths"): "tests set the continuation",
    ("solve_newton_toric", "itmax"): "tests cap the Newton iterations",
    ("uniqueness_check", "measure_tol"): "tests loosen it for coarse toric solves",
    ("uniqueness_check", "deviation_tol"): "tests loosen it for coarse toric solves",
    ("check_energy_holder", "p"): "the acceptance tests sweep the exponent",
    ("check_capacity_domination", "p"): "the acceptance tests sweep the exponent",
}


def _defaulted_params(tree):
    """(function name, parameter, positional index or None) of every
    defaulted parameter; a method's index does not count self or cls."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a = fn.args
        pos = a.posonlyargs + a.args
        if pos and pos[0].arg in ("self", "cls"):
            pos = pos[1:]
        first = len(pos) - len(a.defaults)
        out += [(fn.name, x.arg, i) for i, x in enumerate(pos) if i >= first]
        out += [(fn.name, x.arg, None)
                for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _passes(call, param, index):
    if any(k.arg in (param, None) for k in call.keywords):  # None: **kwargs
        return True
    if index is None:
        return False
    return len(call.args) > index or any(
        isinstance(x, ast.Starred) for x in call.args[:index + 1])


def unpassed_options(sources):
    """(function, parameter) of each defaulted parameter that no call in
    the sources passes, by keyword or positionally at or past its index."""
    trees = [ast.parse(s) for s in sources]
    calls = {}
    for node in (n for t in trees for n in ast.walk(t)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            calls.setdefault(name, []).append(node)
    return {(fn, param) for t in trees for fn, param, index in _defaulted_params(t)
            if not any(_passes(c, param, index) for c in calls.get(fn, ()))}


def test_unpassed_option_finder():
    src = ("def f(a, b=1, *, c=2): pass\n"
           "class K:\n    def m(self, x=0): pass\n"
           "f(0, 1)\n")
    assert unpassed_options([src]) == {("f", "c"), ("m", "x")}
    assert unpassed_options([src, "f(0, c=3)\nk.m(1)"]) == set()
    assert unpassed_options([src, "f(*xs, **kw)\nK.m(**kw)"]) == set()


def test_every_option_is_passed_or_listed():
    src = Path(ma_lab.__file__).parent
    found = unpassed_options(p.read_text() for p in sorted(src.glob("*.py")))
    dead = sorted(found - set(UNPASSED_OPTIONS))
    assert not dead, f"defaulted parameters no call in src/ passes: {dead}"
    stale = sorted(set(UNPASSED_OPTIONS) - found)
    assert not stale, f"listed options that src/ now passes or lost: {stale}"
