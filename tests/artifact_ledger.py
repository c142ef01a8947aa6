"""The artifact ledger: for each row of tests/command_table.py, its exit
code, its stdout and stderr, and the SHA-256 digest of every file it
writes; and the environment they were recorded in.

Run as a script, this runs the table in this one process, prints how the
rows that both ledgers hold differ (nothing, if no artifact moved), and
rewrites LEDGER:

    PYTHONPATH=src python tests/artifact_ledger.py

tests/test_artifact_ledger.py compares the session's one run of the
table with LEDGER.  A file of up to FIELDS_MAX bytes is also kept as its
lines, so that a mismatch names the first differing field with its
relative difference, which tells last-digit drift from a verdict change.
A larger file is kept as the digests of its BLOCK_LINES-line blocks, so
that a mismatch names its first differing block.
"""

import hashlib
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import command_table

LEDGER = Path(__file__).resolve().parent / "artifact_ledger.json"
FIELDS_MAX = 16384
BLOCK_LINES = 64


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


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


def record(run):
    """The ledger of a command_table.run: each row's outcome and the files it wrote."""
    out = Path(run["out"])
    commands = [dict(c, files={p.name: file_record(p) for p in sorted(out.glob(f"{i}/*"))})
                for i, c in enumerate(run["commands"])]
    return {"environment": run["environment"], "commands": commands}


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
    """Each difference between two ledgers, in words; [] if they agree.
    Rows are matched by argv; a stream is compared where the ledger holds it."""
    out = []
    rows = {tuple(c["argv"]): c for c in now["commands"]}
    for want in ledger["commands"]:
        cmd = " ".join(want["argv"])
        got = rows.pop(tuple(want["argv"]), None)
        if got is None:
            out.append(f"{cmd}: in the ledger, not run now")
            continue
        if want["exit"] != got["exit"]:
            out.append(f"{cmd}: exit code {want['exit']} in the ledger, {got['exit']} now")
        for stream in ("stdout", "stderr"):
            if stream in want and want[stream] != got[stream]:
                out.append(f"{cmd}: {stream} {want[stream]!r} in the ledger, "
                           f"{got[stream]!r} now")
        if set(want["files"]) != set(got["files"]):
            out.append(f"{cmd}: files {sorted(want['files'])} in the ledger, "
                       f"{sorted(got['files'])} now")
        for name in sorted(set(want["files"]) & set(got["files"])):
            w, g = want["files"][name], got["files"][name]
            if w["sha256"] != g["sha256"]:
                out.append(f"{cmd}: {name} differs at {_first_difference(w, g)}")
    out += [f"{' '.join(argv)}: run now, not in the ledger" for argv in rows]
    env = {k: (v, now["environment"].get(k)) for k, v in ledger["environment"].items()
           if now["environment"].get(k) != v}
    if out and env:
        out.insert(0, f"recorded in another environment (ledger, here): {env}")
    return out


def main():
    with tempfile.TemporaryDirectory() as tmp:
        now = record(command_table.run(tmp))
    old = json.loads(LEDGER.read_text())
    held = {tuple(c["argv"]) for c in old["commands"]}
    both = [c for c in now["commands"] if tuple(c["argv"]) in held]
    diffs = compare(old, {**now, "commands": both})
    print(f"{len(both)} rows that both ledgers hold, {sum(len(c['files']) for c in both)} "
          f"files: {len(diffs) or 'no'} differences", *diffs, sep="\n")
    for c in now["commands"]:
        if tuple(c["argv"]) not in held:
            print(f"new row: {' '.join(c['argv'])} (exit {c['exit']}, {len(c['files'])} files)")
    LEDGER.write_text(json.dumps(now, indent=1) + "\n")
    print(f"wrote {LEDGER}: {len(now['commands'])} commands, "
          f"{sum(len(c['files']) for c in now['commands'])} files", file=sys.stderr)


if __name__ == "__main__":
    main()
