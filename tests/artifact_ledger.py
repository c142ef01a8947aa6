"""The artifact ledger: the SHA-256 digest of every file that a fixed set
of CLI commands writes, each command's exit code, and the environment
they were recorded in.

Run as a script, this reruns COMMANDS in this one process and rewrites
LEDGER:

    PYTHONPATH=src python tests/artifact_ledger.py

tests/test_artifact_ledger.py reruns them and compares with LEDGER.  A
file of up to FIELDS_MAX bytes is also kept as its lines, so that a
mismatch names the first differing field with its relative difference,
which tells last-digit drift from a verdict change.  A larger file is kept
as the digests of its BLOCK_LINES-line blocks, so that a mismatch names
its first differing block.
"""

import ctypes
import hashlib
import json
import math
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ma_lab import cli

LEDGER = Path(__file__).resolve().parent / "artifact_ledger.json"
FIELDS_MAX = 16384
BLOCK_LINES = 64

# every subcommand at the seeds of the usual artifact set; verify at seed
# 202 exits 1 on mollification-consistency
COMMANDS = (
    ("energy", "--seed", "0"),
    ("energy", "--seed", "3"),
    ("energy", "--seed", "17"),
    ("capacity", "--seed", "0"),
    ("capacity", "--seed", "3"),
    ("solve", "--seed", "0"),
    ("solve", "--seed", "3"),
    ("verify", "--size", "60", "--seed", "0"),
    ("verify", "--size", "60", "--seed", "5"),
    ("verify", "--size", "60", "--seed", "202"),
    ("examples",),
    ("solve", "--model", "toric-p1p1:32", "--seed", "1"),
)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


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


def environment():
    """What the last digits of the artifacts may depend on."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": openblas(),
            "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0))}


def file_record(path):
    """{"sha256", and "lines" or "blocks"} of one written file."""
    data = path.read_bytes()
    rec = {"sha256": _sha256(data)}
    lines = data.decode().splitlines()
    if len(data) <= FIELDS_MAX:
        rec["lines"] = lines
    else:
        rec["blocks"] = [_sha256("\n".join(lines[i:i + BLOCK_LINES]).encode())
                         for i in range(0, len(lines), BLOCK_LINES)]
    return rec


def record(outdir):
    """Run COMMANDS with their output under outdir; the ledger of what they wrote."""
    commands = []
    for i, argv in enumerate(COMMANDS):
        out = Path(outdir) / str(i)
        rc = cli.main(list(argv) + ["--out", str(out)])
        files = {p.name: file_record(p) for p in sorted(out.iterdir()) if p.is_file()}
        commands.append({"argv": list(argv), "exit": rc, "files": files})
    return {"environment": environment(), "commands": commands}


def _fields(lines):
    return [f for line in lines for f in re.findall(r'[^\s,":\[\]{}]+', line)]


def _relative(a, b):
    """|a - b| / max(|a|, |b|) of two numeric fields; None unless both are numbers."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _first_difference(want, got):
    """Where two records of one file first differ, in words."""
    if "lines" in want and "lines" in got:
        a, b = _fields(want["lines"]), _fields(got["lines"])
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                rel = _relative(x, y)
                how = "not numbers" if rel is None else f"relative difference {rel:.3g}"
                return f"field {i}: ledger {x!r}, now {y!r} ({how})"
        return f"{len(a)} fields in the ledger, {len(b)} now"
    if "blocks" in want and "blocks" in got:
        for i, (x, y) in enumerate(zip(want["blocks"], got["blocks"])):
            if x != y:
                return (f"lines {i * BLOCK_LINES + 1}-{(i + 1) * BLOCK_LINES} "
                        f"(no values are kept for files over {FIELDS_MAX} bytes)")
        return f"{len(want['blocks'])} blocks in the ledger, {len(got['blocks'])} now"
    return "the file crossed the size limit of the ledger's field record"


def compare(ledger, now):
    """Each difference between two ledgers, in words; [] if they agree."""
    out = []
    for want, got in zip(ledger["commands"], now["commands"]):
        cmd = " ".join(want["argv"])
        if want["argv"] != got["argv"]:
            out.append(f"command {cmd!r} is now {' '.join(got['argv'])!r}")
            continue
        if want["exit"] != got["exit"]:
            out.append(f"{cmd}: exit code {want['exit']} in the ledger, {got['exit']} now")
        if set(want["files"]) != set(got["files"]):
            out.append(f"{cmd}: files {sorted(want['files'])} in the ledger, "
                       f"{sorted(got['files'])} now")
        for name in sorted(set(want["files"]) & set(got["files"])):
            w, g = want["files"][name], got["files"][name]
            if w["sha256"] != g["sha256"]:
                out.append(f"{cmd}: {name} differs at {_first_difference(w, g)}")
    if len(ledger["commands"]) != len(now["commands"]):
        out.append(f"{len(ledger['commands'])} commands in the ledger, "
                   f"{len(now['commands'])} now")
    env = {k: (v, now["environment"].get(k)) for k, v in ledger["environment"].items()
           if now["environment"].get(k) != v}
    if out and env:
        out.insert(0, f"recorded in another environment (ledger, here): {env}")
    return out


def main():
    with tempfile.TemporaryDirectory() as tmp:
        ledger = record(tmp)
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {LEDGER}: {len(ledger['commands'])} commands, "
          f"{sum(len(c['files']) for c in ledger['commands'])} files", file=sys.stderr)


if __name__ == "__main__":
    main()
