"""Command line artifacts, exit codes, and reproducibility."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ma_lab import cli


def run(args):
    return cli.main(args)


def test_energy_artifacts(tmp_path):
    out = tmp_path / "a"
    assert run(["energy", "--out", str(out)]) == 0
    payload = json.loads((out / "energy.json").read_text())
    assert payload["model"] == "radial-p2"
    assert payload["memberships"]["in_E1"] is True
    assert (out / "energy_sweep.csv").read_text().startswith("p,")


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["energy", "--out", str(out), "--seed", "4"]) == 0
    for name in ("energy.json", "energy_sweep.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_radial_with_target(tmp_path):
    from ma_lab import models

    g = models.radial_p2().reference_potential.grid
    w = np.where(np.abs(g) <= 50.0, 1.0, 0.0)
    w[0] = w[-1] = 0.0
    w /= w.sum()
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps({"kind": "OneD", "node_mass": w.tolist()}))
    out = tmp_path / "o"
    assert run(["solve", "--out", str(out), "--target", str(tpath)]) == 0
    payload = json.loads((out / "solve.json").read_text())
    assert float(payload["residual"]) <= 1e-10
    assert payload["verdict"] == "solved"
    assert (out / "solution.csv").exists() and (out / "trace.csv").exists()


def test_solve_toric_writes_level_diagnostics(tmp_path):
    out = tmp_path / "t"
    assert run(["solve", "--model", "toric-p1p1:32", "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads((out / "solve.json").read_text())
    levels = len(payload["energy_trace"])
    assert payload["verdict"] == "solved"
    assert payload["diagnostics"]["stop_reasons"] == ["tol"] * levels
    assert len(payload["diagnostics"]["mollification_consistency"]) == levels - 1


def test_solve_bad_target_schema(tmp_path):
    tpath = tmp_path / "target.json"
    for bad in ({"node_mass": [1.0]}, {"kind": "OneD"}, {"kind": "TwoD"},
                {"kind": []}, {"kind": "OneD", "node_mass": "abc"}):
        tpath.write_text(json.dumps(bad))
        assert run(["solve", "--out", str(tmp_path), "--target", str(tpath)]) == 2, bad
    # a target of the other backend's kind
    tpath.write_text(json.dumps({"kind": "TwoD", "density": [[1.0]]}))
    assert run(["solve", "--out", str(tmp_path), "--target", str(tpath)]) == 2
    tpath.write_text(json.dumps({"kind": "OneD", "node_mass": [1.0]}))
    assert run(["solve", "--model", "toric-p1p1:16", "--out", str(tmp_path),
                "--target", str(tpath)]) == 2


@pytest.mark.parametrize("args", [
    ["verify", "--model", "product-p1p1", "--size", "4"],
    ["verify", "--model", "toric-p1p1:16", "--size", "4"],
    ["energy", "--model", "toric-p1p1:16"],
    ["capacity", "--model", "product-p1p1"],
    ["solve", "--model", "product-p1p1"],
])
def test_command_on_unsupported_model_exits_2(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path)]) == 2
    assert "is not implemented on the" in capsys.readouterr().err


def test_capacity_artifacts(tmp_path):
    out = tmp_path / "c"
    assert run(["capacity", "--out", str(out)]) == 0
    payload = json.loads((out / "capacity.json").read_text())
    assert abs(float(payload["fitted_exponent"]) + 2.0) <= 0.1


def test_verify_junit_and_exit(tmp_path):
    out = tmp_path / "v"
    code = run(["verify", "--out", str(out), "--size", "18",
                "--checks", "mixed-mass-probability,comparison-principle"])
    assert code == 0
    tree = ET.parse(out / "verify.xml")
    root = tree.getroot()
    assert root.tag == "testsuite"
    assert root.get("failures") == "0"
    assert len(root.findall("testcase")) == 2
    payload = json.loads((out / "verify.json").read_text())
    assert payload["total_failures"] == 0
    assert (out / "verify.csv").exists()


def test_verify_unknown_check(tmp_path):
    assert run(["verify", "--out", str(tmp_path), "--checks", "bogus"]) == 2


def test_unknown_model(tmp_path):
    assert run(["energy", "--out", str(tmp_path), "--model", "mystery"]) == 2


def test_examples_single_id(tmp_path):
    out = tmp_path / "e"
    assert run(["examples", "--out", str(out), "--id", "2.5"]) == 0
    results = json.loads((out / "examples.json").read_text())
    assert results["2.5"]["passed"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert "examples.json" in manifest


def test_examples_unknown_id(tmp_path):
    assert run(["examples", "--out", str(tmp_path), "--id", "9.9"]) == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "radial-p2", "seed": 2}))
    out = tmp_path / "o"
    assert run(["energy", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "energy.json").read_text())["seed"] == 2
    bad = tmp_path / "bad.json"
    for cfg_bad in ({"mode": "radial-p2"}, {"seed": "abc"}, {"size": "x"},
                    {"p": "x"}, {"seed": True}, {"seed": None}):
        bad.write_text(json.dumps(cfg_bad))
        assert run(["energy", "--config", str(bad), "--out", str(out)]) == 2, cfg_bad
    # --tol was parsed and defaulted but never read; it is gone
    with pytest.raises(SystemExit) as exc:
        run(["energy", "--tol", "1e-7", "--out", str(out)])
    assert exc.value.code == 2
    bad.write_text(json.dumps({"tol": 1e-7}))
    capsys.readouterr()
    assert run(["energy", "--config", str(bad), "--out", str(out)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert "tol" not in cli.DEFAULTS and "tol" not in cli.CONFIG_KEYS


def test_out_env_var(tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("MA_LAB_OUT", str(out))
    assert run(["energy"]) == 0
    assert (out / "energy.json").exists()
