"""Which ma_lab functions the traced run wraps, and the per-layer
metrics derived from the spans they record.

Every layer boundary is a public function of one ma_lab module, except
three that have no public entry: RelativeProfile construction (its
convexity re-check runs in ``__post_init__``), the sparse solve (bound
through the ``spla`` attribute of ``ma_lab.solver``) and the CLI's file
writers.  Counts repeat exactly from run to run; ratios are reported
together with the count they divide by.
"""

import hashlib
import statistics
import sys

import numpy as np

from spans import ModuleProxy, self_times

TORIC_SIZES = (32, 64, 128)


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _describe_cells(args, kwargs, result):
    t1, t2, psi = args[:3]
    jac = bool(args[3] if len(args) > 3 else kwargs.get("want_jac", False))
    return {"size": len(t1) - 1, "jac": jac,
            "key": _digest(t1, t2, np.asarray(psi, float), jac)}


def _describe_hull(args, kwargs, result):
    return {"moved": result[1] > 0}


def _describe_newton(args, kwargs, result):
    return {"levels": len(result.energy_trace)}


def _offsets(phi):
    if isinstance(phi, tuple):
        return [np.asarray(p.offset) for p in phi]
    return [np.asarray(phi.offset)]


def _describe_ep_limit(args, kwargs, result):
    model, phi, p = args[:3]
    j = args[3] if len(args) > 3 else kwargs.get("j", 2)
    return {"key": _digest(model.kind, p, j, *_offsets(phi))}


def _describe_ep_integral(args, kwargs, result):
    return {"kind": "product" if args[0].kind == "ProductP1P1" else "radial"}


# (module, function) pairs wrapped under the span name "module.function"
FUNCTIONS = (
    ("ma", "toric_cells", _describe_cells),
    ("ma", "toric_hull_projection", _describe_hull),
    ("ma", "toric_measure", None),
    ("ma", "ma_measure", None),
    ("ma", "mixed_measure", None),
    ("ma", "weighted_mass", None),
    ("solver", "solve_newton_toric", _describe_newton),
    ("solver", "solve_radial", None),
    ("energy", "ep_limit", _describe_ep_limit),
    ("energy", "ep_integral", _describe_ep_integral),
    ("energy", "energy_report", None),
    ("energy", "gradient_energy_verdict", None),
    ("capacity", "capacity", None),
    ("capacity", "exit_slope", None),
    ("capacity", "capacity_energy_sandwich", None),
    ("profiles", "truncate", None),
    ("verify", "generate_corpus", None),
)
CLI_WRITERS = ("_write_json", "_write_csv", "_write_junit")
# spans reported only as a call count and a self time
COUNTED = ("energy.energy_report", "energy.gradient_energy_verdict",
           "capacity.capacity", "capacity.exit_slope",
           "capacity.capacity_energy_sandwich", "ma.ma_measure",
           "ma.mixed_measure", "ma.weighted_mass",
           "profiles.relative_profile", "profiles.truncate")


def install(tracer, pkg):
    """Wrap every layer boundary of the imported ma_lab package."""
    mods = {name: getattr(pkg, name) for name in
            ("ma", "solver", "energy", "capacity", "profiles", "verify", "cli")}
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "ma_lab" or name.startswith("ma_lab."))]
    for mod, fn, describe in FUNCTIONS:
        tracer.patch_function(owners, getattr(mods[mod], fn), f"{mod}.{fn}", describe)
    rp = mods["profiles"].RelativeProfile
    tracer.patch(rp, "__post_init__",
                 tracer.wrap(rp.__post_init__, "profiles.relative_profile"))
    solver = mods["solver"]
    tracer.patch(solver, "spla", ModuleProxy(solver.spla, {
        "spsolve": tracer.wrap(solver.spla.spsolve, "solver.spsolve")}))
    verify = mods["verify"]
    tracer.patch(verify, "CHECKS", {
        cid: (cit, tracer.wrap(fn, f"verify.check.{cid}"))
        for cid, (cit, fn) in verify.CHECKS.items()})
    cli = mods["cli"]
    for attr in CLI_WRITERS:
        tracer.patch(cli, attr, tracer.wrap(getattr(cli, attr), "cli.write"))


def unit_of(name):
    """Unit of a per-layer metric; every name not listed here is a time."""
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".rungs"):
        return "count/call"
    if name == "cli.bytes_written":
        return "B"
    if name.endswith((".calls", ".jac_calls", ".levels", ".trials", ".accepted")):
        return "count"
    return "s"


def metric_units(pkg):
    """Every per-layer metric name with its unit, in report order."""
    return {name: unit_of(name) for name in per_layer([], pkg, 0, 0.0)}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, pkg, bytes_written, overhead_s):
    """Per-layer metrics {name: value} from one traced run's spans."""
    self_s = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total_self(name, pred=lambda s: True):
        return sum((self_s[s.id] for s in by_name.get(name, ()) if pred(s)), 0.0)

    def total_dur(name):
        return sum((s.duration for s in by_name.get(name, ())), 0.0)

    def inside(span, ancestor):
        pid = span.parent
        while pid in by_id:
            if by_id[pid].name == ancestor:
                return True
            pid = by_id[pid].parent
        return False

    m = {}
    cells = by_name.get("ma.toric_cells", [])
    m["ma.toric_cells.calls"] = len(cells)
    m["ma.toric_cells.jac_calls"] = sum(s.info["jac"] for s in cells)
    m["ma.toric_cells.self_s"] = total_self("ma.toric_cells")
    for r in TORIC_SIZES:
        durs = [s.duration for s in cells if s.info["size"] == r]
        m[f"ma.toric_cells.s_per_call.r{r}"] = statistics.fmean(durs) if durs else 0.0
    m["ma.toric_cells.unique_ratio"] = _ratio(len({s.info["key"] for s in cells}), len(cells))
    hulls = by_name.get("ma.toric_hull_projection", [])
    m["ma.toric_hull_projection.calls"] = len(hulls)
    m["ma.toric_hull_projection.self_s"] = total_self("ma.toric_hull_projection")
    m["ma.toric_hull_projection.moved_ratio"] = _ratio(
        sum(s.info["moved"] for s in hulls), len(hulls))
    m["ma.toric_measure.calls"] = calls("ma.toric_measure")
    m["ma.toric_measure.self_s"] = total_self("ma.toric_measure")

    solves = by_name.get("solver.solve_newton_toric", [])
    levels = sum(s.info["levels"] for s in solves)
    jac_in_solves = sum(1 for s in cells
                        if s.info["jac"] and inside(s, "solver.solve_newton_toric"))
    trials = jac_in_solves - levels
    accepted = sum(1 for s in hulls if inside(s, "solver.solve_newton_toric"))
    m["solver.solve_newton_toric.self_s"] = total_self("solver.solve_newton_toric")
    m["solver.levels"] = levels
    m["solver.line_search.trials"] = trials
    m["solver.line_search.accepted"] = accepted
    m["solver.line_search.accept_ratio"] = _ratio(accepted, trials)
    m["solver.spsolve.calls"] = calls("solver.spsolve")
    m["solver.spsolve_s"] = total_dur("solver.spsolve")
    m["solver.solve_radial.calls"] = calls("solver.solve_radial")
    m["solver.solve_radial.self_s"] = total_self("solver.solve_radial")

    limits = by_name.get("energy.ep_limit", [])
    rungs = sum(1 for s in by_name.get("energy.ep_integral", ())
                if inside(s, "energy.ep_limit"))
    m["energy.ep_limit.calls"] = len(limits)
    m["energy.ep_limit.self_s"] = total_self("energy.ep_limit")
    m["energy.ep_limit.unique_ratio"] = _ratio(len({s.info["key"] for s in limits}),
                                               len(limits))
    m["energy.ep_limit.rungs"] = _ratio(rungs, len(limits))
    for kind in ("radial", "product"):
        m[f"energy.ep_integral.self_s.{kind}"] = total_self(
            "energy.ep_integral", lambda s, k=kind: s.info["kind"] == k)
    for fn in COUNTED:
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.self_s"] = total_self(fn)
    for cid in sorted(pkg.verify.CHECKS):
        m[f"verify.check_s.{cid}"] = total_dur(f"verify.check.{cid}")
    m["verify.corpus_s"] = total_dur("verify.generate_corpus")
    m["cli.write_s"] = total_dur("cli.write")
    m["cli.bytes_written"] = bytes_written
    m["trace.overhead_s"] = overhead_s
    return m
