"""CLI artifacts are pinned across commits by tests/artifact_ledger.json."""

import json
import os
import subprocess
import sys

import artifact_ledger
import command_table
from ma_lab import cli, models

# the CPU features whose absence sends numpy to its baseline SIMD target
AVX512 = "X86_V4 AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR"


def test_artifacts_match_the_ledger(table_run):
    ledger = json.loads(artifact_ledger.LEDGER.read_text())
    rows = [(tuple(c["argv"]), c["exit"], "stdout" in c and "stderr" in c)
            for c in ledger["commands"]]
    assert rows == [(r.argv, r.exit, True) for r in command_table.ROWS]
    diffs = artifact_ledger.compare(ledger, artifact_ledger.record(table_run))
    assert not diffs, "artifacts differ from the ledger:\n" + "\n".join(diffs)


def test_the_table_covers_the_cli():
    rows = command_table.ROWS
    assert len({r.argv for r in rows}) == len(rows), "a command is listed twice"
    assert {r.argv[0] for r in rows} == set(cli.COMMANDS)
    assert {"--config", "--p", "--checks"} <= {a for r in rows for a in r.argv}
    # every --target schema, read from the input file the row writes
    kinds = {r.inputs[r.argv[r.argv.index("--target") + 1].removeprefix("{out}/")]["kind"]
             for r in rows if "--target" in r.argv}
    assert kinds == {b.target[0] for b in models._backends().values() if b.target}
    assert {0, 1, 2} == {r.exit for r in rows}
    for r in rows:  # each {out}/ path a row reads is an input it writes
        reads = {a.removeprefix("{out}/") for a in r.argv if a.startswith("{out}/")}
        assert reads == set(r.inputs), r.argv


def test_a_moved_digit_is_named_with_its_relative_difference():
    lines = ['{', '  "E_p_full": "3.2831130344353663",', '  "in_Ep": true', '}']
    want = {"sha256": "a", "lines": lines}
    drift = {"sha256": "b", "lines": [lines[0], lines[1].replace("663", "672"), *lines[2:]]}
    msg = artifact_ledger._first_difference(want, drift)
    assert "field 1: ledger '3.2831130344353663', now '3.2831130344353672'" in msg
    rel = (3.2831130344353672 - 3.2831130344353663) / 3.2831130344353672
    assert f"(relative difference {rel:.3g})" in msg
    flip = {"sha256": "c", "lines": [*lines[:2], '  "in_Ep": false', lines[3]]}
    assert "'true', now 'false' (not numbers)" in artifact_ledger._first_difference(want, flip)
    ledger = {"environment": {"numpy": "1"}, "commands": [
        {"argv": ["energy"], "exit": 0, "files": {"energy.json": want}}]}
    now = {"environment": {"numpy": "2"}, "commands": [
        {"argv": ["energy"], "exit": 1, "files": {"energy.json": flip}}]}
    diffs = artifact_ledger.compare(ledger, now)
    assert diffs[0] == "recorded in another environment (ledger, here): {'numpy': ('1', '2')}"
    assert diffs[1] == "energy: exit code 0 in the ledger, 1 now"
    assert diffs[2].startswith("energy: energy.json differs at field 3:")
    assert artifact_ledger.compare(ledger, ledger) == []


def test_rows_are_matched_by_argv_and_their_streams_compared():
    row = {"argv": ["capacity"], "exit": 0, "stdout": "", "stderr": "", "files": {}}
    other = {**row, "argv": ["examples"]}
    ledger = {"environment": {}, "commands": [row]}
    now = {"environment": {}, "commands": [other, {**row, "stderr": "ma-lab: x\n"}]}
    assert artifact_ledger.compare(ledger, now) == [
        "capacity: stderr '' in the ledger, 'ma-lab: x\\n' now",
        "examples: run now, not in the ledger"]
    assert artifact_ledger.compare({**ledger, "commands": [row, other]}, ledger) == [
        "examples: in the ledger, not run now"]


def test_the_environment_names_the_blas_kernel():
    ledger = json.loads(artifact_ledger.LEDGER.read_text())
    found = command_table.environment()["openblas"]
    if ledger["environment"]["openblas"]:
        assert found and all(b["config"].startswith("OpenBLAS") for b in found), found
    # a mismatch recorded under another kernel names the kernel first
    env = dict(ledger["environment"], openblas=[{"library": "x.so", "config": "Haswell"}])
    cmd = {"argv": ["energy"], "exit": 0, "files": {"energy.json": {"sha256": "a"}}}
    now = {"environment": env, "commands": [{**cmd, "exit": 1}]}
    diffs = artifact_ledger.compare({**ledger, "commands": [cmd]}, now)
    assert diffs[0].startswith("recorded in another environment (ledger, here): {'openblas':")



def test_the_environment_names_numpys_simd_target():
    ledger = json.loads(artifact_ledger.LEDGER.read_text())
    assert ledger["environment"]["numpy_power_simd"]
    # a mismatch recorded under another target of numpy's power names it first
    env = dict(ledger["environment"], numpy_power_simd="another target")
    cmd = {"argv": ["capacity"], "exit": 0, "files": {"capacity.csv": {"sha256": "a"}}}
    now = {"environment": env, "commands": [{**cmd, "exit": 1}]}
    diffs = artifact_ledger.compare({**ledger, "commands": [cmd]}, now)
    assert diffs[0].startswith(
        "recorded in another environment (ledger, here): {'numpy_power_simd':")
    # with AVX-512 disabled, a child process reports the baseline target
    if command_table.numpy_power_target() == "X86_V4":
        code = "import command_table; print(command_table.numpy_power_target())"
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.startswith("baseline"), out
