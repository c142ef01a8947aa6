"""Which functions of src/ma_lab a fixed list of CLI commands runs.

Run as a script, this runs COMMANDS through ``cli.main``, all in this one
process, under ``sys.setprofile``.  It writes OUT_DIR/reached.json: the
exit code of each command, and the (file name, first line) of every
ma_lab function that ran.  The first line of a decorated function is its
first decorator's, as in ``co_firstlineno``.  It needs a fresh process:
the lru-cached model functions and the cached model properties run once
per process, so a process that has built a model before would miss them.

    PYTHONPATH=src python tests/reachability.py OUT_DIR

``defs`` keys every ``def`` in src/ma_lab, nested ones included, the
same way.
"""

import ast
import json
import sys
from pathlib import Path

import numpy as np

import ma_lab
from ma_lab import cli
from ma_lab.profiles import default_grid

SRC = Path(ma_lab.__file__).resolve().parent

# (argv, exit code): every subcommand, both solve backends, the radial and
# toric --target readers, the --config reader, and one command that exits 2
COMMANDS = (
    (("energy", "--config", "{out}/config.json"), 0),
    (("solve", "--seed", "0"), 0),
    (("solve", "--target", "{out}/radial.json"), 0),
    (("solve", "--model", "toric-p1p1:16", "--seed", "0"), 0),
    (("solve", "--model", "toric-p1p1:16", "--target", "{out}/toric.json"), 0),
    (("capacity",), 0),
    (("verify", "--size", "20"), 0),
    (("examples",), 0),
    (("energy", "--model", "toric-p1p1:16"), 2),  # the energy command is radial only
)


def defs(src=SRC):
    """{(file name, first line): "module.qualified.name"} of every def in src."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path.name, line] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def _write_inputs(out):
    g = default_grid()
    mass = np.where(np.abs(g) <= 50.0, 1.0, 0.0)
    mass[0] = mass[-1] = 0.0
    (out / "radial.json").write_text(
        json.dumps({"kind": "OneD", "node_mass": (mass / mass.sum()).tolist()}))
    (out / "toric.json").write_text(
        json.dumps({"kind": "TwoD", "density": np.full((17, 17), 2.0 / 17 ** 2).tolist()}))
    (out / "config.json").write_text(json.dumps({"seed": 3, "p": 2.5}))


def main(out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    _write_inputs(out)
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        codes = [cli.main([a.format(out=out) for a in argv] + ["--out", str(out / str(i))])
                 for i, (argv, _) in enumerate(COMMANDS)]
    finally:
        sys.setprofile(None)
    files = {c.co_filename for c in seen}
    ours = {f for f in files if Path(f).resolve().parent == SRC}
    reached = sorted((Path(c.co_filename).name, c.co_firstlineno)
                     for c in seen if c.co_filename in ours)
    (out / "reached.json").write_text(json.dumps({"exit": codes, "reached": reached}))


if __name__ == "__main__":
    main(sys.argv[1])
