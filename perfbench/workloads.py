"""The benchmark's workloads: their inputs, calls and output checks.

A workload is defined by one pass: a fixed list of calls into ma_lab,
built from the workload seed.  A run repeats whole passes in a closed loop
(one caller, the next call starts when the last returns).

- toric-solve: the CLI's toric solve on its built-in smooth targets at
  R = 32.  The toric kernel and the Newton solver do almost all of the
  work.  The panel is CLI seeds 0, 1 and 2 in an order drawn from the
  workload seed: one solve costs 5-21 s on a 2-core Xeon VM and the
  cost depends on the target, so a panel drawn per seed could not give
  comparable runs.
  Seed 2 comes back diverged at the commit that added this benchmark;
  it stays in the panel and counts as a failed call.
- toric-measure: forward toric measures with the convexity check on, at
  R = 64 and R = 128, over smooth convex potentials drawn from the
  workload seed.  Same kernel, no Jacobian, no line search, 4-16x the
  nodes of toric-solve.
- lab-cli: the 1-D CLI commands in-process: energy, radial solve and
  capacity over seeds, verify --size 60 and examples.  No toric work.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TORIC_SOLVE_MODEL = "toric-p1p1:32"
TORIC_SOLVE_PANEL = (0, 1, 2)
MEASURE_SIZES = (64, 128)
MEASURES_PER_SIZE = 2
LAB_SEEDS_PER_COMMAND = 10
VERIFY_SIZE = 60

SOLVE_RESIDUAL = 1e-5
RADIAL_RESIDUAL = 1e-8
MASS_TOL = 1e-9
CAPACITY_EXPONENT = -2.0
CAPACITY_EXPONENT_TOL = 0.1


@dataclass(frozen=True)
class Outcome:
    """Result of checking one call.

    reason is None when the call passed.  signalled is True when the
    program itself reported the failure (an exit code or a verdict);
    a failure the program did not report means its output is wrong.
    """

    reason: str = None
    signalled: bool = False


PASSED = Outcome()


@dataclass(frozen=True)
class Call:
    kind: str       # metric group, e.g. "solve" or "measure.r64"
    key: str        # names this exact call across passes and runs
    run: object     # run(outdir) -> result handed to check
    check: object   # check(result, outdir) -> Outcome
    artifacts: object  # artifacts(result, outdir) -> {name: sha256 hex}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def written_files(result, outdir):
    """Digest of every file a CLI call wrote into its output directory."""
    return {p.name: _sha256(p.read_bytes())
            for p in sorted(Path(outdir).iterdir()) if p.is_file()}


def measure_bytes(measure, outdir):
    return {"density": _sha256(np.ascontiguousarray(measure.density).tobytes())}


def cli_call(pkg, kind, key, argv, check):
    def run(outdir):
        return pkg.cli.main(argv + ["--out", str(outdir)])
    return Call(kind, key, run, check, written_files)


def _read_json(outdir, name):
    return json.loads((Path(outdir) / name).read_text())


def _exit_code(rc):
    return None if rc == 0 else Outcome(f"exit code {rc}", signalled=True)


def check_toric_solve(rc, outdir):
    bad = _exit_code(rc)
    if bad:
        return bad
    d = _read_json(outdir, "solve.json")
    residual = float(d["residual"])
    if d["verdict"] != "solved":
        return Outcome(f"verdict {d['verdict']}, residual {residual:.3g}", signalled=True)
    if not residual <= SOLVE_RESIDUAL:
        return Outcome(f"verdict solved but residual {residual:.3g} > {SOLVE_RESIDUAL:g}")
    return PASSED


def check_radial_solve(rc, outdir):
    bad = _exit_code(rc)
    if bad:
        return bad
    d = _read_json(outdir, "solve.json")
    residual = float(d["residual"])
    if d["verdict"] != "solved":
        return Outcome(f"verdict {d['verdict']}", signalled=True)
    if not residual <= RADIAL_RESIDUAL:
        return Outcome(f"verdict solved but residual {residual:.3g} > {RADIAL_RESIDUAL:g}")
    return PASSED


def check_capacity(rc, outdir):
    bad = _exit_code(rc)
    if bad:
        return bad
    k = float(_read_json(outdir, "capacity.json")["fitted_exponent"])
    if not abs(k - CAPACITY_EXPONENT) <= CAPACITY_EXPONENT_TOL:
        return Outcome(f"fitted_exponent {k:.4g} not within {CAPACITY_EXPONENT_TOL} "
                       f"of {CAPACITY_EXPONENT}")
    return PASSED


def check_verify(rc, outdir):
    # exit code 1 is how verify and examples report failed checks
    if rc not in (0, 1):
        return _exit_code(rc)
    n = int(_read_json(outdir, "verify.json")["total_failures"])
    if rc == 0 and n == 0:
        return PASSED
    return Outcome(f"exit code {rc}, total_failures {n}", signalled=rc == 1 and n > 0)


def check_examples(rc, outdir):
    if rc not in (0, 1):
        return _exit_code(rc)
    failed = sorted(k for k, v in _read_json(outdir, "examples.json").items()
                    if not v["passed"])
    if rc == 0 and not failed:
        return PASSED
    return Outcome(f"exit code {rc}, failed examples {failed}",
                   signalled=rc == 1 and bool(failed))


def check_exit(rc, outdir):
    return _exit_code(rc) or PASSED


def check_measure(measure, outdir):
    mass = float(measure.total_mass)
    if not abs(mass - 2.0) <= MASS_TOL:
        return Outcome(f"total mass {mass!r} differs from 2 by more than {MASS_TOL:g}")
    return PASSED


def smooth_convex(t1, t2, c):
    """The CLI's built-in smooth toric family; convex, gradients in the square."""
    return (np.logaddexp(0.0, c[0] * t1[:, None] + c[1] * t2[None, :])
            + np.logaddexp(0.0, (1 - c[0]) * t1[:, None] + (1 - c[1]) * t2[None, :]))


def toric_solve(pkg, seed):
    pkg.models.model_from_descriptor(TORIC_SOLVE_MODEL)
    order = random.Random(seed).sample(TORIC_SOLVE_PANEL, len(TORIC_SOLVE_PANEL))
    return [cli_call(pkg, "solve", f"solve-toric32-seed{s}",
                      ["solve", "--model", TORIC_SOLVE_MODEL, "--seed", str(s)],
                      check_toric_solve)
            for s in order]


def toric_measure(pkg, seed):
    rng = np.random.default_rng(seed)
    calls = []
    for r in MEASURE_SIZES:
        model = pkg.models.toric_p1p1(r)
        t1, t2, _ = model.reference_potential
        for i in range(MEASURES_PER_SIZE):
            psi = pkg.models.ToricGrid(t1, t2, smooth_convex(t1, t2, rng.uniform(0.2, 0.8, 2)))

            def run(outdir, model=model, psi=psi):
                return pkg.ma.ma_measure(model, psi)
            calls.append(Call(f"measure.r{r}", f"measure-r{r}-seed{seed}-{i}", run,
                              check_measure, measure_bytes))
    return calls


def lab_cli(pkg, seed):
    pkg.models.radial_p2()
    seeds = random.Random(seed).sample(range(1000), LAB_SEEDS_PER_COMMAND)
    calls = []
    for s in seeds:
        for cmd, check in (("energy", check_exit), ("solve", check_radial_solve),
                           ("capacity", check_capacity)):
            calls.append(cli_call(pkg, cmd, f"{cmd}-seed{s}",
                                   [cmd, "--seed", str(s)], check))
    calls.append(cli_call(pkg, "verify", f"verify-size{VERIFY_SIZE}-seed{seed}",
                           ["verify", "--size", str(VERIFY_SIZE), "--seed", str(seed)],
                           check_verify))
    calls.append(cli_call(pkg, "examples", "examples", ["examples"], check_examples))
    return calls


# name -> (build(pkg, seed) -> one pass of calls, {end-to-end metric:
# the call kind whose median per-call seconds it reports})
WORKLOADS = {
    "toric-solve": (toric_solve, {"solve_s.p50": "solve"}),
    "toric-measure": (toric_measure, {"measure_s.r64.p50": "measure.r64",
                                      "measure_s.r128.p50": "measure.r128"}),
    "lab-cli": (lab_cli, {f"cmd_s.{c}.p50": c for c in
                          ("energy", "solve", "capacity", "verify", "examples")}),
}
