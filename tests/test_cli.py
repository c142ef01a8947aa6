"""Command line artifacts, exit codes, and reproducibility."""

import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("p", [1, 1.5, 2.0, 3])
def test_energy_json_matches_its_sweep_row(tmp_path, p):
    # a JSON integer p reads the sweep's float row of the same value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": p}))
    assert run(["energy", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "energy.json").read_text())
    header, *lines = (tmp_path / "energy_sweep.csv").read_text().splitlines()
    rows = {float(r.split(",")[0]): dict(zip(header.split(","), r.split(","))) for r in lines}
    row = rows[p]
    assert payload["E_p_full"] == row["E_p"]
    for key in ("e_p", "gradient_energy", "sobolev_norm"):
        assert payload[key] == row[key], key


@pytest.mark.parametrize("extra", [[], ["--p", "2.5"]])
def test_energy_builds_one_ladder_and_one_gradient_verdict(tmp_path, monkeypatch, extra):
    # one potential, every exponent: one cutoff ladder, one gradient verdict
    # and one ladder limit per distinct (p, j)
    from ma_lab import energy

    counts = {"cutoffs": 0, "gradient_energy_verdict": 0}
    limits = []

    def counted(name):
        f = getattr(energy, name)

        def spy(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return spy

    def limit_spy(model, ladder, p, j=2, _f=energy.ladder_limit):
        limits.append((p, j))
        return _f(model, ladder, p, j)

    for name in counts:
        monkeypatch.setattr(energy, name, counted(name))
    monkeypatch.setattr(energy, "ladder_limit", limit_spy)
    assert run(["energy", "--out", str(tmp_path)] + extra) == 0
    ps = energy.P_SWEEP + (float(extra[-1]) if extra else 1.0,)
    wanted = {(1.0, 2)} | {(q, j) for p in ps for q, j in
                           ((p, 0), (p, 1), (p, 2), (p + 1.0, 1), (p + 2.0, 0))}
    assert counts == {"cutoffs": 1, "gradient_energy_verdict": 1}
    assert sorted(limits) == sorted(wanted)
    assert len(limits) == (21 if extra else 17)


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


def test_toric_target_with_negative_mass_exits_2(tmp_path, capsys):
    # a full-mass density with one negative node is no measure, as on the radial path
    from ma_lab import models

    model = models.toric_p1p1(16)
    t1, t2, _ = model.reference_potential
    d = np.full((len(t1), len(t2)), model.volume / (len(t1) * len(t2)))
    d[3, 3] -= 0.5
    d[4, 4] += 0.5
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps({"kind": "TwoD", "density": d.tolist()}))
    assert run(["solve", "--model", "toric-p1p1:16", "--out", str(tmp_path),
                "--target", str(tpath)]) == 2
    assert "target density must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("atom_fixed_point", -0.25), ("atom_divisor", -0.25)])
def test_radial_target_with_a_negative_atom_exits_2_naming_it(tmp_path, capsys, key, value):
    # mass 1 and F in [0, 1] hold; only the atom's sign is wrong
    from ma_lab import models

    n = models.radial_p2().reference_potential.grid.size
    w = np.zeros(n)
    w[n // 2] = 1.0 - value
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps({"kind": "OneD", "node_mass": w.tolist(), key: value}))
    assert run(["solve", "--out", str(tmp_path), "--target", str(tpath)]) == 2
    assert f"ma-lab: target {key} = -0.25 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("corners", [(0,), (0, 1, 2, 3)])
def test_toric_target_on_the_corners_exits_0(tmp_path, corners):
    # the separable start of such a target is affine, whose lift qhull rejects
    d = np.zeros((17, 17))
    for c in corners:
        d[(0, -1, 0, -1)[c], (0, 0, -1, -1)[c]] = 2.0 / len(corners)
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps({"kind": "TwoD", "density": d.tolist()}))
    assert run(["solve", "--model", "toric-p1p1:16", "--out", str(tmp_path),
                "--target", str(tpath)]) == 0
    assert json.loads((tmp_path / "solve.json").read_text())["residual"] == "0"


@pytest.mark.parametrize("model", ["radial-p2", "toric-p1p1:16"])
def test_nan_target_exits_2_on_its_mass(tmp_path, capsys, model):
    from ma_lab import models

    m = models.model_from_descriptor(model)
    kind, key, _ = models.backend(m).target
    if kind == "OneD":
        mass = np.zeros(m.reference_potential.grid.size)
        mass[10] = 1.0
    else:
        t1, t2, _ = m.reference_potential
        mass = np.full((len(t1), len(t2)), m.volume / (len(t1) * len(t2)))
    mass.flat[11] = np.nan
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps({"kind": kind, key: mass.tolist()}))
    assert run(["solve", "--model", model, "--out", str(tmp_path),
                "--target", str(tpath)]) == 2
    assert "target mass must" in capsys.readouterr().err


def test_fractional_toric_resolution_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "toric-p1p1", "resolution": 32.7}}))
    assert run(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert run(["solve", "--model", "toric-p1p1:32.0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("ma-lab: toric resolution must be an integer") == 2


def test_overflowing_exponent_exits_2_naming_it(tmp_path, capsys):
    # the moment (-phi)^p overflows: a package error naming p, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["energy", "--p", "1e308", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "ma-lab: the moment (-phi)^p overflows at exponent p = 1e+308\n"


def test_huge_integer_exponent_exits_2(tmp_path, capsys):
    # a JSON integer beyond the float range is no finite exponent; the
    # message does not spell its digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 10 ** 400}))
    assert run(["energy", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "ma-lab: exponent p must be a finite number >= 1\n"


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
    ["examples", "--id", "2.5", "--model", "toric-p1p1:16", "--seed", "9"],
    ["examples", "--model", "product-p1p1"],
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


def test_junit_names_are_escaped_as_by_saxutils(tmp_path):
    from xml.sax.saxutils import escape

    from ma_lab.verify import CheckReport
    reports = [CheckReport("a&b<c>\"d'e", "Prop 1.3", 2, failures, -1.0)
               for failures in (0, 1)]
    cli._write_junit(tmp_path / "v.xml", reports)
    name = escape("a&b<c>\"d'e [Prop 1.3]", {'"': "&quot;"})
    lines = (tmp_path / "v.xml").read_text().splitlines()
    assert f'  <testcase name="{name}"/>' in lines
    assert f'  <testcase name="{name}">' in lines
    assert [t.get("name") for t in ET.parse(tmp_path / "v.xml").getroot()] == [
        "a&b<c>\"d'e [Prop 1.3]"] * 2


def test_csv_writes_floats_with_17_digits_and_the_rest_as_str(tmp_path):
    rows = [(np.inf, -np.inf, np.nan, -0.0, 5e-324, np.float64(0.1), 3, np.int64(7), True, "s"),
            (1e300, 2.5, -np.nan, 0.0, 1.0, np.float32(0.1), 10 ** 20, np.int64(-1), False, "t")]
    cli._write_csv(tmp_path / "a.csv", list("abcdefghij"), rows)
    assert (tmp_path / "a.csv").read_bytes() == (
        b"a,b,c,d,e,f,g,h,i,j\n"
        b"inf,-inf,nan,-0,4.9406564584124654e-324,0.10000000000000001,3,7,True,s\n"
        b"1.0000000000000001e+300,2.5,nan,0,1,0.10000000149011612,100000000000000000000,"
        b"-1,False,t\n")
    cli._write_csv(tmp_path / "b.csv", ["x"], [])
    assert (tmp_path / "b.csv").read_bytes() == b"x\n"


def test_verify_runs_a_repeated_check_id_once(tmp_path):
    out = tmp_path / "v"
    assert run(["verify", "--out", str(out), "--size", "18",
                "--checks", "max-stable,max-stable"]) == 0
    assert [c["check_id"] for c in json.loads((out / "verify.json").read_text())["checks"]] \
        == ["max-stable"]
    assert len((out / "verify.csv").read_text().splitlines()) == 2
    assert len(ET.parse(out / "verify.xml").getroot().findall("testcase")) == 1


def test_verify_unknown_check(tmp_path):
    assert run(["verify", "--out", str(tmp_path), "--checks", "bogus"]) == 2


def test_verify_with_an_empty_check_list_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": []}))
    for args in (["--checks", ""], ["--checks", ","], ["--config", str(cfg)]):
        assert run(["verify", "--size", "4", "--out", str(tmp_path / "o"), *args]) == 2, args
        assert "the check list is empty" in capsys.readouterr().err
    assert not (tmp_path / "o" / "verify.json").exists()


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


def test_toric_solve_checks_exponent(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for p in (float("nan"), 0.5):
        cfg.write_text(json.dumps({"p": p}))
        args = ["solve", "--model", "toric-p1p1:16", "--config", str(cfg)]
        assert run(args + ["--out", str(tmp_path)]) == 2, p
        assert "exponent p must be a finite number >= 1" in capsys.readouterr().err


def test_out_env_var(tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("MA_LAB_OUT", str(out))
    assert run(["energy"]) == 0
    assert (out / "energy.json").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_malformed_target_and_config_exit_2(tmp_path, capsys):
    target, cfg = tmp_path / "target.json", tmp_path / "cfg.json"
    for bad in ({"kind": "OneD", "node_mass": [1.0], "atom_fixed_point": None},
                {"kind": "OneD", "node_mass": {"a": 1}},
                {"kind": "OneD", "node_mass": [True]},
                {"kind": "OneD", "node_mass": [], "atom_divisor": []},
                {"kind": "OneD", "node_mass": 1.0}):
        target.write_text(json.dumps(bad))
        assert run(["solve", "--out", str(tmp_path), "--target", str(target)]) == 2, bad
    for command, bad in (("verify", {"checks": [["a"]]}), ("energy", {"p": 1e308}),
                         ("energy", {"model": {"kind": "toric-p1p1", "resolution": None}})):
        cfg.write_text(json.dumps(bad))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2, bad
    assert capsys.readouterr().err.count("ma-lab: ") == 8


# any JSON value, NaN, infinities and big integers included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
_NUMBERS = st.lists(st.floats() | st.integers(), max_size=3)
# config values: garbage, or values of the right type that keep each run cheap;
# size and id are always given, as their defaults run the full verify corpus
# and every example
_CHEAP = {
    "size": st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                      st.integers(-2, 2)),
    "id": _JSON | st.sampled_from(["2.5", "9.9"]),
}
_CONFIG_VALUES = {
    "model": _JSON | st.sampled_from(["radial-p2", "product-p1p1", "toric-p1p1:16",
                                      "toric-p1p1:8", "mystery"]),
    "seed": _JSON | st.integers(-2, 40),
    "p": _JSON | st.floats(-2.0, 40.0) | st.sampled_from([1, 3, 1e308, float("nan")]),
    "checks": _JSON | st.lists(st.sampled_from(["mixed-mass-probability", "bogus"]),
                               max_size=2),
    "bogus": _JSON,
}
_TARGETS = _JSON | st.fixed_dictionaries(
    {"kind": st.sampled_from(["OneD", "TwoD"]) | _JSON},
    optional={"node_mass": _NUMBERS | _JSON, "density": st.lists(_NUMBERS, max_size=2) | _JSON,
              "atom_fixed_point": _JSON, "atom_divisor": _JSON})


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["energy", "solve", "capacity", "verify", "examples"]),
       config=st.fixed_dictionaries(_CHEAP, optional=_CONFIG_VALUES) | _JSON,
       target=_TARGETS, model=st.sampled_from(["radial-p2", "toric-p1p1:16"]))
def test_random_json_never_raises(tmp_path_factory, command, config, target, model):
    # ill-formed input exits 2; well-formed input runs (0) or fails a check (1)
    d = tmp_path_factory.mktemp("fuzz")
    (d / "cfg.json").write_text(json.dumps(config))
    (d / "target.json").write_text(json.dumps(target))
    for args in ([command, "--config", str(d / "cfg.json")],
                 ["solve", "--model", model, "--target", str(d / "target.json")]):
        assert run(args + ["--out", str(d / "out")]) in (0, 1, 2)
