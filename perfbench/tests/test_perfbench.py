"""Tests of the benchmark harness itself: span arithmetic, wrapper
removal, output checks and artifact comparison."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import ma_lab  # noqa: E402
import ma_lab.cli  # noqa: E402,F401
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        Span(1, "root", 0.0, 10.0, 0),
        Span(2, "a", 1.0, 3.0, 1),
        Span(3, "a.child", 1.5, 2.0, 2),
        Span(4, "b", 2.0, 5.0, 1),   # overlaps a: the union counts once
        Span(5, "c", 6.0, 7.0, 1),
        Span(6, "late", 9.5, 11.0, 1),  # clipped to the parent's end
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert st[2] == pytest.approx(1.5)
    assert st[3] == pytest.approx(0.5)
    assert st[6] == pytest.approx(1.5)
    assert covered([(0, 1), (3, 4)], 0.5, 3.5) == pytest.approx(1.0)
    assert covered([], 0, 1) == 0.0


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap(lambda x: x + 1, "inner", lambda a, k, r: {"arg": a[0], "out": r})
    outer = tr.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(3) == 8
    (o, i) = sorted(tr.spans, key=lambda s: s.start)
    assert (o.name, o.parent) == ("outer", Tracer.ROOT)
    assert (i.name, i.parent, i.info) == ("inner", o.id, {"arg": 3, "out": 4})
    assert self_times(tr.spans)[o.id] == o.duration - i.duration


def _bindings():
    """Every attribute of every ma_lab module and RelativeProfile."""
    owners = [m for n, m in sys.modules.items() if n == "ma_lab" or n.startswith("ma_lab.")]
    owners.append(ma_lab.profiles.RelativeProfile)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_removed_after_a_traced_call(tmp_path):
    before = _bindings()
    tr = Tracer()
    layers.install(tr, ma_lab)
    try:
        assert ma_lab.ma.toric_cells is not before[(id(ma_lab.ma), "toric_cells")]
        assert ma_lab.energy.truncate is ma_lab.profiles.truncate
        ma_lab.cli.main(["capacity", "--out", str(tmp_path)])
    finally:
        tr.uninstall()
    after = _bindings()
    assert not tr.installed
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    names = {s.name for s in tr.spans}
    assert {"capacity.capacity", "capacity.exit_slope", "cli.write"} <= names


def test_probe_time_is_removed_and_the_rest_scaled():
    probe = hostspeed.HostProbe()
    probe.samples = [(1.0, 0.01), (2.0, 0.03), (2.5, 0.02), (9.0, 1.0)]
    raw, norm = probe.normalise(0.5, 3.0)
    assert raw == pytest.approx(2.5 - 0.06)
    # the sample at 9.0 lies beyond PAD_S of the call and is not used
    assert norm == pytest.approx(raw * hostspeed.NOMINAL_S / 0.02)


def test_probe_timer_stops_and_handler_is_restored():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostProbe(every=0.02) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3


def _solve_json(tmp_path, verdict, residual):
    (tmp_path / "solve.json").write_text(json.dumps(
        {"verdict": verdict, "residual": f"{residual:.17g}"}))
    return tmp_path


def test_checks_flag_a_doctored_solve_verdict(tmp_path):
    check = workloads.check_toric_solve
    assert check(0, _solve_json(tmp_path, "solved", 1e-12)).reason is None
    diverged = check(0, _solve_json(tmp_path, "diverged", 1e-9))
    assert diverged.reason and diverged.signalled
    # claims success with a residual above the gate: a wrong output
    lying = check(0, _solve_json(tmp_path, "solved", 1e-3))
    assert lying.reason and not lying.signalled
    assert check(2, tmp_path).signalled


def test_rerun_with_different_bytes_fails(tmp_path):
    store = run.DigestStore(tmp_path / "digests.json")
    payload = iter([b"same", b"same", b"other"])

    def write(outdir):
        (outdir / "out.txt").write_bytes(next(payload))
        return 0

    call = workloads.Call("x", "x-key", write, workloads.check_exit, workloads.written_files)
    recs = [run.run_call(call, tmp_path / "art", store) for _ in range(3)]
    assert [r["failed"] for r in recs] == [False, False, True]
    assert "out.txt" in recs[2]["reason"] and not recs[2]["signalled"]
    store.save()
    again = run.DigestStore(tmp_path / "digests.json")
    assert again.compare("x-key", {"out.txt": "0"}) == ["out.txt"]


def test_artifacts_match_the_cli_run_outside(tmp_path):
    argv = ["solve", "--seed", "7"]
    call = workloads.cli_call(ma_lab, "solve", "k", argv, workloads.check_radial_solve)
    inside = tmp_path / "inside"
    rec = run.run_call(call, inside, run.DigestStore(tmp_path / "d.json"))
    assert not rec["failed"]
    outside = tmp_path / "outside"
    subprocess.run([sys.executable, "-m", "ma_lab.cli", *argv, "--out", str(outside)],
                   check=True, cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert workloads.written_files(0, inside) == workloads.written_files(0, outside)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lab-cli",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units(ma_lab)
