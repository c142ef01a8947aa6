"""The CLI commands whose outcome Tier-1 pins, and their one runner.

Each row of ROWS is a command line, the exit code it gives, and the input
files it reads, which the runner writes first.  ``{out}`` in a row is the
run's directory, where the inputs go; row i writes its artifacts to
``{out}/i``.  To pin another command, add a row and re-record the ledger
(``PYTHONPATH=src python tests/artifact_ledger.py``).

``run(out)`` runs every row through ``cli.main`` in this one process,
under ``sys.setprofile``.  It returns the environment, each row's exit
code, stdout and stderr (the run's directory written as ``{out}``), and
the ma_lab functions that ran, keyed as by ``reachability.defs``.  The
lru-cached model functions and the cached model properties run once per
process, so only a fresh process sees every function run: Tier-1 calls
``fresh_run`` once per session (the ``table_run`` fixture), and both
tests/test_artifact_ledger.py and tests/test_package.py read that run.
Run as a script, this writes the run to OUT_DIR/run.json:

    PYTHONPATH=src python tests/command_table.py OUT_DIR
"""

import contextlib
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

import reachability
from ma_lab import cli
from ma_lab.profiles import default_grid


class Row(NamedTuple):
    argv: tuple
    exit: int
    inputs: dict = {}  # file name under {out} -> the JSON value written there


def _radial_target():
    """Mass 1 spread evenly over the grid nodes with |t| <= 50."""
    g = default_grid()
    mass = np.where(np.abs(g) <= 50.0, 1.0, 0.0)
    mass[0] = mass[-1] = 0.0
    return mass / mass.sum()


_RADIAL = _radial_target()
# still mass 1, but node 1000 (t = -27.2) gives twice its mass to node 1001
_NEGATIVE = _RADIAL.copy()
_NEGATIVE[1000] -= 2 * _RADIAL[1000]
_NEGATIVE[1001] += 2 * _RADIAL[1000]
RADIAL = {"radial.json": {"kind": "OneD", "node_mass": _RADIAL.tolist()}}
NEGATIVE = {"negative.json": {"kind": "OneD", "node_mass": _NEGATIVE.tolist()}}
TORIC = {"toric.json": {"kind": "TwoD", "density": np.full((17, 17), 2.0 / 17 ** 2).tolist()}}
CONFIG = {"config.json": {"seed": 3, "p": 2.5}}

ROWS = (
    # every 1-D subcommand at the seeds of the usual artifact set; verify at
    # seed 202 exits 1 on mollification-consistency
    Row(("energy", "--seed", "0"), 0),
    Row(("energy", "--seed", "3"), 0),
    Row(("energy", "--seed", "17"), 0),
    Row(("capacity", "--seed", "0"), 0),
    Row(("capacity", "--seed", "3"), 0),
    Row(("solve", "--seed", "0"), 0),
    Row(("solve", "--seed", "3"), 0),
    Row(("verify", "--size", "60", "--seed", "0"), 0),
    Row(("verify", "--size", "60", "--seed", "5"), 0),
    Row(("verify", "--size", "60", "--seed", "202"), 1),
    Row(("examples",), 0),
    Row(("solve", "--model", "toric-p1p1:32", "--seed", "1"), 0),
    # the option readers: --config, --p, --checks and both --target schemas
    Row(("energy", "--config", "{out}/config.json"), 0, CONFIG),
    Row(("energy", "--seed", "5", "--p", "2.5"), 0),
    Row(("solve", "--target", "{out}/radial.json"), 0, RADIAL),
    Row(("solve", "--model", "toric-p1p1:16", "--seed", "0"), 0),
    Row(("solve", "--model", "toric-p1p1:16", "--target", "{out}/toric.json"), 0, TORIC),
    Row(("capacity",), 0),
    Row(("verify", "--size", "20"), 0),
    Row(("verify", "--size", "20", "--checks", "max-stable,comparison-principle"), 0),
    # input errors, each named on stderr
    Row(("energy", "--model", "toric-p1p1:16"), 2),
    Row(("solve", "--target", "{out}/negative.json"), 2, NEGATIVE),
    Row(("verify", "--size", "20", "--checks", ","), 2),
)


def openblas():
    """Each OpenBLAS loaded in this process: its file name and its config
    string, which names the kernel that OpenBLAS chose for this CPU."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:  # no /proc: record nothing rather than guess
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            cfg = getattr(lib, name, None)
            if cfg is not None:
                cfg.restype = ctypes.c_char_p
                info["config"] = cfg().decode()
                break
        found.append(info)
    return found


def numpy_power_target():
    """The SIMD target of numpy's float64 power on this CPU, such as X86_V4
    or baseline(X86_V2) (with AVX-512 disabled through
    NPY_DISABLE_CPU_FEATURES); the two round some powers differently.
    None where numpy cannot say (before numpy 2.0)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    return opt_func_info(func_name="power").get("power", {}).get("ddd", {}).get("current")


def environment():
    """What the last digits of the artifacts may depend on."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": openblas(),
            "numpy_power_simd": numpy_power_target(),
            "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0))}


def run(out):
    """Run ROWS with out as {out}; their outcomes and the functions that ran."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    commands = []
    sys.setprofile(hook)
    try:
        for i, row in enumerate(ROWS):
            for name, value in row.inputs.items():
                (out / name).write_text(json.dumps(value))
            argv = [a.format(out=out) for a in row.argv] + ["--out", str(out / str(i))]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
            commands.append({"argv": list(row.argv), "exit": rc,
                             "stdout": stdout.getvalue().replace(str(out), "{out}"),
                             "stderr": stderr.getvalue().replace(str(out), "{out}")})
    finally:
        sys.setprofile(None)
    return {"out": str(out), "environment": environment(), "commands": commands,
            "reached": sorted(reachability.reached(seen))}


def fresh_run(out):
    """run(out) in a new interpreter."""
    path = [str(reachability.SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, __file__, str(out)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads((Path(out) / "run.json").read_text())


if __name__ == "__main__":
    result = run(sys.argv[1])
    (Path(sys.argv[1]) / "run.json").write_text(json.dumps(result))
