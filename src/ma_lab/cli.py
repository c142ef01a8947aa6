"""Command line front end.

Subcommands: solve, energy, capacity, verify, examples.  Options can be
given on the command line or in a JSON config file; command-line flags
win over the config, which wins over defaults.  The output directory
resolves as --out, then the MA_LAB_OUT environment variable, then the
config, then the current directory.  All artifacts are deterministic
functions of (command, model, seed, parameters): floats are written
with 17 significant digits, so re-running a command reproduces its
files byte for byte.

The examples command reproduces the worked model instances end to end
and writes a manifest mapping every output file to the source label of
the instance it realizes; --id selects a single instance.

Exit codes: 0 success, 1 verification or example failures, 2 schema
violation.
"""

import argparse
import json
import os
import sys

import numpy as np

import ma_lab.capacity as cap_mod

from . import energy, ma, solver, verify
from .errors import MaLabError
from .models import (RADIAL_P2, backend, entry, model_from_descriptor, product_p1p1,
                     radial_p2, require)
from .profiles import RelativeProfile, compose_weight, zero_offset

# config key -> the JSON value types it accepts
_NULL = type(None)
CONFIG_KEYS = {"model": (str, dict), "seed": int, "out": (str, _NULL),
               "p": (int, float), "size": int, "checks": (list, _NULL),
               "target": (str, _NULL), "id": (str, _NULL)}
DEFAULTS = {"model": "radial-p2", "seed": 0, "out": None, "p": 1.0,
            "size": 60, "checks": None, "target": None, "id": None}
# sublevel thresholds t of the capacity curves written by capacity and examples
CAPACITY_THRESHOLDS = np.geomspace(1.0, 512.0, 41)


def _fmt(x):
    return f"{float(x):.17g}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return _fmt(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    # floats as _fmt writes them, others as str; each column has the first row's type
    fmt = ",".join("{:.17g}" if isinstance(v, (float, np.floating)) else "{}"
                   for row in rows[:1] for v in row) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + "".join(fmt.format(*row) for row in rows))


def _write_capacity_curve(path, model, phi):
    """Write the capacity curve of phi at CAPACITY_THRESHOLDS; return it."""
    curve = cap_mod.capacity_curve(model, phi, CAPACITY_THRESHOLDS)
    _write_csv(path, ["threshold", "capacity"],
               list(zip(curve.thresholds.tolist(), curve.values.tolist())))
    return curve


def _numeric(x):
    """A JSON number or a (nested) list of them; true/false are no numbers."""
    if isinstance(x, list):
        return all(map(_numeric, x))
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _load_target(model, path):
    """Read a target measure from JSON in the schema of the model's solver."""
    with open(path) as fh:
        d = json.load(fh)
    kind, key, read = backend(model).target
    if not isinstance(d, dict) or d.get("kind") != kind:
        raise ValueError(f"the {model.kind} model takes a JSON object of kind {kind!r}")
    if key not in d:
        raise ValueError(f"a {kind} target needs a {key!r} key")
    bad = sorted(k for k, v in d.items()
                 if k != "kind" and not (_numeric(v) and isinstance(v, list) == (k == key)))
    if bad:
        raise ValueError(f"malformed {kind} target keys {bad}: {key!r} holds a list "
                         "of numbers, the others a number each")
    return read(model, d)


def cmd_solve(opts, outdir):
    model = model_from_descriptor(opts["model"])
    b = backend(model)
    solve = entry(model, "solve", "the solve command")
    target = (_load_target(model, opts["target"]) if opts["target"]
              else b.demo_target(model, opts["seed"]))
    res = solve(model, target, opts["p"])
    grid, offsets = b.solution(model, res.psi)
    _write_json(os.path.join(outdir, "solve.json"), {
        "model": opts["model"], "seed": opts["seed"], "p": opts["p"],
        "residual": res.residual, "verdict": res.verdict,
        "energy_trace": list(res.energy_trace),
        "diagnostics": res.diagnostics,
    })
    _write_csv(os.path.join(outdir, "solution.csv"), ["coordinate", "offset"],
               list(zip(grid.tolist(), offsets.tolist())))
    _write_csv(os.path.join(outdir, "trace.csv"), ["level", "energy"],
               list(enumerate(res.energy_trace)))
    return 0


def cmd_energy(opts, outdir):
    model = model_from_descriptor(opts["model"])
    require(model, RADIAL_P2, "the energy command")
    phi = verify.seed_profile(opts["seed"])
    reports = energy.energy_report(model, phi, energy.P_SWEEP + (opts["p"],))
    rows = [(p, rep.E_p_full, rep.gradient_energy, rep.e_p, rep.sobolev_norm)
            for p, rep in reports.items() if p in energy.P_SWEEP]
    rep1 = reports[opts["p"]]
    _write_json(os.path.join(outdir, "energy.json"), {
        "model": opts["model"], "seed": opts["seed"], "p": opts["p"],
        "E_p_full": rep1.E_p_full, "E_p_mixed": list(rep1.E_p_mixed),
        "gradient_energy": rep1.gradient_energy, "e_p": rep1.e_p,
        "sobolev_norm": rep1.sobolev_norm, "memberships": rep1.memberships,
    })
    _write_csv(os.path.join(outdir, "energy_sweep.csv"),
               ["p", "E_p", "gradient_energy", "e_p", "sobolev_norm"], rows)
    return 0


def cmd_capacity(opts, outdir):
    model = model_from_descriptor(opts["model"])
    require(model, RADIAL_P2, "the capacity command")
    curve = _write_capacity_curve(os.path.join(outdir, "capacity.csv"), model,
                                  verify.point_seed(model.reference_potential))
    _write_json(os.path.join(outdir, "capacity.json"), {
        "model": opts["model"], "seed": opts["seed"],
        "fitted_exponent": curve.fitted_exponent,
        "bound_constants": curve.bound_constants,
    })
    return 0


def _write_junit(path, reports):
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    failures = sum(1 for r in reports if r.failures)
    lines.append(f'<testsuite name="ma-lab-verify" tests="{len(reports)}" '
                 f'failures="{failures}">')
    for r in reports:
        name = (f"{r.check_id} [{r.citation}]".replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;").replace('"', "&quot;"))
        if r.failures:
            lines.append(f'  <testcase name="{name}">')
            lines.append(f'    <failure message="{r.failures} of {r.instances} '
                         f'instances, worst margin {_fmt(r.worst_margin)}"/>')
            lines.append("  </testcase>")
        else:
            lines.append(f'  <testcase name="{name}"/>')
    lines.append("</testsuite>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_verify(opts, outdir):
    model = model_from_descriptor(opts["model"])
    if opts["checks"] == []:
        raise MaLabError("the check list is empty; give no --checks or config 'checks' "
                         "to run every check")
    corpus = verify.generate_corpus(opts["seed"], opts["size"])
    reports = verify.run_checks(corpus, model, opts["checks"])
    fields = ["check_id", "citation", "instances", "failures", "worst_margin"]
    rows = [[getattr(r, f) for f in fields] for r in reports]
    _write_csv(os.path.join(outdir, "verify.csv"), fields, rows)
    _write_json(os.path.join(outdir, "verify.json"), {
        "model": opts["model"], "seed": opts["seed"], "size": opts["size"],
        "corpus_digest": corpus.digest(),
        "checks": [dict(zip(fields, row)) for row in rows],
        "total_failures": sum(r.failures for r in reports),
    })
    _write_junit(os.path.join(outdir, "verify.xml"), reports)
    return 0 if all(r.failures == 0 for r in reports) else 1


def _ex_bounded_in_class(outdir):
    """Bounded potentials have finite gradient energy, with the explicit
    1/2 bound for potentials squeezed into [0, 1/2]."""
    model = radial_p2()
    phi = verify.seed_profile(3)
    g = energy.gradient_energy_verdict(model, phi)
    lo, hi = phi.offset.min(), phi.offset.max()
    squeezed = RelativeProfile(phi.base, (phi.offset - lo) / (hi - lo) * 0.5)
    gs = energy.gradient_energy_verdict(model, squeezed)
    payload = {"gradient_energy": g.value, "finite": g.finite,
               "squeezed_gradient_energy": gs.value,
               "half_bound_holds": bool(gs.value <= 0.5 + 1e-9)}
    return payload, bool(g.finite and payload["half_bound_holds"]), []


def _ex_divisor_bounded(outdir):
    """Potentials bounded near the divisor lie in the finite-gradient
    class; their (p+1)-energy against the mixed wedge is finite too."""
    model = radial_p2()
    # the first divisor_bounded member is entry 6, drawn alike in any corpus
    # of 7 or more members, so a corpus of 7 is the least that holds it
    corpus = verify.generate_corpus(5, 7)
    phi = corpus.with_tag("divisor_bounded")[0].phi
    ladder = energy.cutoffs(model, phi)
    e1 = energy.ladder_limit(model, ladder, 1.0, 1)
    e2 = energy.ladder_limit(model, ladder, 2.0, 1)
    payload = {"mixed_e1_finite": e1.finite, "mixed_e1": e1.value,
               "mixed_p_plus_1_finite": e2.finite, "mixed_p_plus_1": e2.value}
    return payload, bool(e1.finite and e2.finite), []


def _ex_gradient_threshold(outdir):
    """Power-family flip of the gradient energy at exponent 1/2, with
    the explicit a^2/(1-2a) bound below the threshold."""
    model = radial_p2()
    seed_phi = verify.divisor_seed(model.reference_potential)
    payload = {}
    ok = True
    for alpha in (0.3, 0.4, 0.49):
        g = energy.gradient_energy_verdict(model, compose_weight(seed_phi, ("power", alpha)))
        bound = alpha ** 2 / (1.0 - 2.0 * alpha)
        payload[f"alpha={alpha}"] = {"finite": g.finite, "value": g.value,
                                     "bound": bound, "rho": g.rho}
        ok = ok and g.finite and g.value <= bound + 1e-6
    for alpha in (0.51, 0.6):
        g = energy.gradient_energy_verdict(model, compose_weight(seed_phi, ("power", alpha)))
        payload[f"alpha={alpha}"] = {"finite": g.finite, "rho": g.rho}
        ok = ok and not g.finite
    return payload, ok, []


def _ex_dirac_nonuniqueness(outdir):
    """The unit atom target: closed-form cusp solution, plus a second
    measure-matching profile differing non-constantly."""
    model = radial_p2()
    res = solver.solve_radial(model, solver.dirac_target(model))
    m = ma.ma_measure(model, res.psi)
    phi1, phi2 = solver.dirac_preimages(model)
    rec = solver.uniqueness_check(model, phi1, phi2)
    payload = {
        "residual": res.residual,
        "atom_mass_recovered": m.atom_mass(ma.FIXED_POINT),
        "in_Ep": res.diagnostics["in_Ep"],
        "preimage_measure_distance": rec["measure_distance"],
        "preimage_deviation": rec["deviation"],
        "uniqueness_passed": rec["passed"],
    }
    ok = (res.residual <= 1e-8 and not res.diagnostics["in_Ep"]
          and not rec["passed"])
    return payload, bool(ok), []


def _ex_capacity_law(outdir):
    """Quadratic sublevel capacity decay of the Lelong-1 potential and
    the p-dependent membership flip of its power family."""
    model = radial_p2()
    phi = verify.point_seed(model.reference_potential)
    curve = _write_capacity_curve(os.path.join(outdir, "capacity_curve.csv"), model, phi)
    payload = {"fitted_exponent": curve.fitted_exponent,
               "within_tolerance": bool(abs(curve.fitted_exponent + 2.0) <= 0.1)}
    ok = payload["within_tolerance"]
    for p in (1.0, 2.0, 3.0):
        crit = 2.0 / (p + 2.0)
        below = energy.ep_limit(model, compose_weight(phi, ("power", crit - 0.05)), p)
        above = energy.ep_limit(model, compose_weight(phi, ("power", crit + 0.05)), p)
        payload[f"p={p}"] = {"alpha_below": crit - 0.05, "finite_below": below.finite,
                             "alpha_above": crit + 0.05, "finite_above": above.finite}
        ok = ok and below.finite and not above.finite
    return payload, bool(ok), ["capacity_curve.csv"]


def _ex_power_and_log(outdir):
    """General singular seeds: small powers land in every stated class
    and the log composition lands in all of them."""
    model = radial_p2()
    phi = verify.point_seed(model.reference_potential)
    v1 = energy.ep_limit(model, compose_weight(phi, ("power", 0.15)), 1.0)
    log_phi = compose_weight(phi.shifted(-1.0), ("neglog",))
    v3 = energy.ep_limit(model, log_phi, 3.0)
    payload = {"power_0.15_p1_finite": v1.finite, "power_0.15_p1": v1.value,
               "log_p3_finite": v3.finite, "log_p3": v3.value}
    return payload, bool(v1.finite and v3.finite), []


def _ex_separable_integrability(outdir):
    """Separable potentials: the potential is p-integrable against its
    own measure exactly when the singular factor is against its factor
    measure."""
    model = product_p1p1()
    b1, b2 = model.reference_potential
    u = zero_offset(b1)
    alpha = 0.4
    v = compose_weight(verify.divisor_seed(b2), ("power", alpha))
    payload = {}
    ok = True
    # joint and factor-side verdicts on the joint potential's one cutoff
    # ladder; each rung's j = 2 measure holds its singular factor's measure
    ladder = energy.cutoffs(model, (u, v))
    for p in (1.0, 3.0):
        joint = energy.ladder_limit(model, ladder, p)
        es = [energy._moment(m.factors[0][2], ladder.cut(i)[1], p)
              for i, m in enumerate(ladder.measures(2))]
        factor = energy.ladder_verdict(ladder.ks, es, ladder.depth)
        payload[f"p={p}"] = {"joint_finite": joint.finite,
                             "factor_finite": factor.finite,
                             "joint_rho": joint.rho, "factor_rho": factor.rho}
        ok = ok and joint.finite == factor.finite
    ok = ok and payload["p=1.0"]["joint_finite"] and not payload["p=3.0"]["joint_finite"]
    return payload, bool(ok), []


EXAMPLES = {
    "1.4.1": ("Example 1.4.1", _ex_bounded_in_class),
    "1.4.2": ("Example 1.4.2", _ex_divisor_bounded),
    "1.4.3": ("Example 1.4.3", _ex_gradient_threshold),
    "2.5": ("Example 2.5", _ex_dirac_nonuniqueness),
    "6.3.1": ("Example 6.3.1", _ex_capacity_law),
    "6.3.2": ("Example 6.3.2", _ex_power_and_log),
    "6.3.3": ("Example 6.3.3", _ex_separable_integrability),
}


def cmd_examples(opts, outdir):
    # every example builds its own fixed model; --seed is accepted and unused
    require(model_from_descriptor(opts["model"]), RADIAL_P2, "the examples command")
    ids = [opts["id"]] if opts["id"] else sorted(EXAMPLES)
    unknown = [i for i in ids if i not in EXAMPLES]
    if unknown:
        raise MaLabError(f"unknown example id {unknown[0]!r}")
    manifest = {}
    results = {}
    all_ok = True
    for ex_id in ids:
        citation, fn = EXAMPLES[ex_id]
        payload, ok, files = fn(outdir)
        results[ex_id] = dict(payload, passed=bool(ok))
        for name in files:
            manifest[name] = citation
        all_ok = all_ok and ok
    _write_json(os.path.join(outdir, "examples.json"), results)
    manifest["examples.json"] = "; ".join(EXAMPLES[i][0] for i in ids)
    _write_json(os.path.join(outdir, "manifest.json"), manifest)
    return 0 if all_ok else 1


COMMANDS = {"solve": cmd_solve, "energy": cmd_energy, "capacity": cmd_capacity,
            "verify": cmd_verify, "examples": cmd_examples}


def _load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        # JSON true/false must not pass as the integers 1/0
        if isinstance(value, bool) or not isinstance(value, CONFIG_KEYS[key]):
            raise ValueError(f"config key {key!r} has the wrong type")
    if not all(isinstance(c, str) for c in cfg.get("checks") or ()):
        raise ValueError("config key 'checks' must list check ids (strings)")
    return cfg


def build_parser():
    ap = argparse.ArgumentParser(prog="ma-lab",
                                 description="Monge-Ampere laboratory")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", default=None, help="JSON config file")
    ap.add_argument("--model", default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--p", type=float, default=None)
    ap.add_argument("--size", type=int, default=None, help="corpus size")
    ap.add_argument("--checks", default=None,
                    help="comma-separated check ids for verify")
    ap.add_argument("--target", default=None,
                    help="target measure JSON for solve")
    ap.add_argument("--id", default=None, help="single example id")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    opts = dict(DEFAULTS)
    try:
        if args.config:
            opts.update(_load_config(args.config))
        for key in ("model", "seed", "p", "size", "target", "id"):
            v = getattr(args, key)
            if v is not None:
                opts[key] = v
        if args.checks is not None:
            opts["checks"] = [c for c in args.checks.split(",") if c]
        outdir = args.out or os.environ.get("MA_LAB_OUT") or opts["out"] or "."
        os.makedirs(outdir, exist_ok=True)
        model_from_descriptor(opts["model"])  # validate the name up front
        return COMMANDS[args.command](opts, outdir)
    # OverflowError: an input past the float range, e.g. a huge JSON integer
    except (MaLabError, ValueError, OverflowError, OSError) as exc:
        print(f"ma-lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
