"""CLI artifacts are pinned across commits by tests/artifact_ledger.json."""

import json

import artifact_ledger


def test_artifacts_match_the_ledger(tmp_path):
    ledger = json.loads(artifact_ledger.LEDGER.read_text())
    assert [tuple(c["argv"]) for c in ledger["commands"]] == list(artifact_ledger.COMMANDS)
    diffs = artifact_ledger.compare(ledger, artifact_ledger.record(tmp_path))
    assert not diffs, "artifacts differ from the ledger:\n" + "\n".join(diffs)


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


def test_the_environment_names_the_blas_kernel():
    ledger = json.loads(artifact_ledger.LEDGER.read_text())
    found = artifact_ledger.environment()["openblas"]
    if ledger["environment"]["openblas"]:
        assert found and all(b["config"].startswith("OpenBLAS") for b in found), found
    # a mismatch recorded under another kernel names the kernel first
    env = dict(ledger["environment"], openblas=[{"library": "x.so", "config": "Haswell"}])
    cmd = {"argv": ["energy"], "exit": 0, "files": {"energy.json": {"sha256": "a"}}}
    now = {"environment": env, "commands": [{**cmd, "exit": 1}]}
    diffs = artifact_ledger.compare({**ledger, "commands": [cmd]}, now)
    assert diffs[0].startswith("recorded in another environment (ledger, here): {'openblas':")
