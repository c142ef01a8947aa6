"""ma_lab benchmark: end-to-end timings, output checks and layer tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toric-solve --seed 0 --seconds 15 --trace 0

--workload is toric-solve, toric-measure, lab-cli, or all (the three in
sequence in one process).  A run repeats whole passes of the workload
(see workloads.py) in a closed loop until --seconds have elapsed, checks
every call's output and prints a report: every metric with its unit and
sample count, the failed calls and the environment.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

With --trace 0 the metrics are the end-to-end ones in END_TO_END,
measured with no wrapper installed:
  setup_s      median wall time of a fresh interpreter that imports
               ma_lab and builds the workload's models and inputs
  pass_s.p50   median time of one pass over the workload's calls
  peak_rss_mb  peak resident memory of the benchmark process
Call and pass times are normalised for the host's speed drift
(hostspeed.py): a probe timed four times a second scales each measured
second to the host speed at which the probe takes NOMINAL_S.  They are
also reported unscaled, as <name>.raw, with the probe's median time as
host.probe_s.p50.
With --trace 1 the run alternates untraced and traced passes, wrapping
every layer boundary (layers.py) for the traced ones, and the metrics
are the per-layer ones; trace.overhead_s is the difference of the two
kinds of pass, by median.  Full results, and the spans of a traced run,
are written under perfbench/_out/.

A call fails when its output check fails (workloads.py) or when its
artifact bytes differ from an earlier call of the same key on the same
source tree, in this run or an earlier one in the same checkout.  A run
is incorrect when a call fails that the program did not itself report
as failed.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import layers
from hostspeed import HostProbe
from spans import Tracer, self_times
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120

# end-to-end metrics on the last output line; each is defined on every workload
END_TO_END = {"setup_s": "s", "pass_s.p50": "s", "peak_rss_mb": "MB"}


def source_digest(src):
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def _openblas():
    """Version string and thread count of each OpenBLAS loaded in this process."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                libs.add(path)
    found = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                nth = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if cfg is not None and nth is not None and "config" not in info:
                    cfg.restype = ctypes.c_char_p
                    nth.restype = ctypes.c_int
                    info["config"] = cfg().decode()
                    info["threads"] = nth()
        found.append(info)
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args):
    return {
        "git_commit": _git_commit(ROOT),
        "source_sha256": source_digest(SRC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class DigestStore:
    """sha256 of every artifact per call key, for one source tree."""

    def __init__(self, path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.is_file() else {}

    def compare(self, key, digests):
        """Names whose bytes differ from the first recorded call of key."""
        first = self.known.setdefault(key, digests)
        return sorted(n for n in set(first) | set(digests) if first.get(n) != digests.get(n))

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        tmp.replace(self.path)


def run_call(call, outdir, store, tracer=None):
    """Time one call, check its output and compare its artifact bytes."""
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    rec = {"kind": call.kind, "key": call.key}
    span = tracer.open(f"call.{call.kind}") if tracer else None
    rec["start"] = time.perf_counter()
    try:
        result = call.run(outdir)
    except Exception:  # the loop must go on; the failure is recorded
        rec["end"] = time.perf_counter()
        outcome = Outcome(traceback.format_exc(limit=3), signalled=True)
    else:
        rec["end"] = time.perf_counter()
        try:
            outcome = call.check(result, outdir)
            digests = call.artifacts(result, outdir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome = Outcome(f"unreadable output: {exc!r}")
        else:
            changed = store.compare(call.key, digests)
            if changed and outcome.reason is None:
                outcome = Outcome(f"bytes differ from an earlier call of the same code: "
                                  f"{changed}")
    finally:
        if span:
            tracer.close(span)
    rec["seconds"] = rec["end"] - rec["start"]
    rec["bytes"] = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    rec["failed"] = outcome.reason is not None
    rec["reason"] = outcome.reason
    rec["signalled"] = outcome.signalled
    return rec


def run_pass(calls, outbase, store, tracer=None):
    return [run_call(c, outbase / c.key, store, tracer) for c in calls]


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit, "n": len(values)}


def measure_setup(name, seed):
    """Wall times of SETUP_REPEATS fresh interpreters, each importing
    ma_lab and building the workload's models and inputs.  They are not
    normalised: the probe would have to run beside the child, and the
    two share the cores."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-only",
                        "--workload", name, "--seed", str(seed)],
                       cwd=ROOT, check=True, capture_output=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def time_metrics(metrics, name, values, norm=None):
    """name: median of the normalised values when there are any, with the
    wall-clock median as name.raw; otherwise name is the wall-clock median."""
    if norm is None:
        metrics[name] = median_metric(values, "s")
    else:
        metrics[name] = median_metric(norm, "s")
        metrics[name + ".raw"] = median_metric(values, "s")


def run_workload(pkg, name, args, store):
    build, kinds = WORKLOADS[name]
    tracer = Tracer() if args.trace else None
    # the traced run reports wall-clock times only, so its overhead is
    # measured without the probe's signals
    probe = None if tracer else HostProbe()
    setup_times = measure_setup(name, args.seed)
    calls = build(pkg, args.seed)
    outbase = OUT / "art" / name
    records, passes, untraced = [], [], []
    with probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        while True:
            if tracer:
                # an untraced pass before each traced one gives the overhead
                untraced.append(run_pass(calls, outbase, store))
                records += untraced[-1]
                layers.install(tracer, pkg)
            try:
                passes.append(run_pass(calls, outbase, store, tracer))
            finally:
                if tracer:
                    tracer.uninstall()
            records += passes[-1]
            if time.perf_counter() - t0 >= args.seconds:
                break
        wall = time.perf_counter() - t0

    def pass_s(recs, key="seconds"):
        return sum(r[key] for r in recs)

    pass_norm = None
    if probe:
        for r in records:
            r["seconds"], r["norm_s"] = probe.normalise(r["start"], r["end"])
        pass_norm = [pass_s(p, "norm_s") for p in passes]
    failed = [r for r in records if r["failed"]]
    metrics = {}
    metrics["setup_s"] = median_metric(setup_times, "s")
    metrics["wall_s"] = {"value": wall, "unit": "s", "n": 1}
    time_metrics(metrics, "pass_s.p50", [pass_s(p) for p in passes], pass_norm)
    metrics["fail_ratio"] = {"value": len(failed) / len(records), "unit": "failed/attempted",
                             "n": len(records), "failed": len(failed)}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "unit": "MB", "n": 1}
    for metric, kind in kinds.items():
        recs = [r for r in records if r["kind"] == kind]
        time_metrics(metrics, metric, [r["seconds"] for r in recs],
                     [r["norm_s"] for r in recs] if probe else None)
    if probe:
        metrics["host.probe_s.p50"] = median_metric([d for _, d in probe.samples], "s")
    result = {
        "workload": name,
        "correct": all(r["signalled"] for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "failures": [f"{r['key']}: {r['reason'].strip().splitlines()[-1]}" for r in failed],
        "metrics": metrics,
        "records": records,
    }
    if tracer:
        traced_s = [pass_s(p) for p in passes]
        untraced_s = statistics.median(pass_s(p) for p in untraced)
        overhead = statistics.median(traced_s) - untraced_s
        traced_bytes = sum(r["bytes"] for p in passes for r in p)
        result["per_layer"] = layers.per_layer(tracer.spans, pkg, traced_bytes, overhead)
        result["untraced_pass_s"] = untraced_s
        result["accounting"] = accounting(tracer.spans, traced_s)
        result["spans"] = tracer.spans
    return result


def accounting(spans, passes):
    """Self time per span name, and how much of the traced passes the
    layer spans (all but the benchmark's own call.* roots) account for."""
    st = self_times(spans)
    by_name = {}
    for s in spans:
        by_name[s.name] = by_name.get(s.name, 0.0) + st[s.id]
    traced = sum(passes)
    layer_self = sum(v for k, v in by_name.items() if not k.startswith("call."))
    return {"traced_s": traced, "layer_self_s": layer_self,
            "unaccounted_s": traced - layer_self,
            "self_s": dict(sorted(by_name.items(), key=lambda kv: -kv[1]))}


def print_report(res, units):
    print(f"== {res['workload']}: {res['attempted']} calls, {res['failed']} failed, "
          f"correct={res['correct']}")
    for f in res["failures"]:
        print(f"   failed: {f}")
    for name, m in res["metrics"].items():
        print(f"   {name:<24} {m['value']:>14.6g} {m['unit']:<16} n={m['n']}")
    if "per_layer" in res:
        acc = res["accounting"]
        print(f"   traced passes {acc['traced_s']:.6g} s (untraced pass median "
              f"{res['untraced_pass_s']:.6g} s); layer self time {acc['layer_self_s']:.6g} s, "
              f"unaccounted {acc['unaccounted_s']:.6g} s; self time by span:")
        for name, s in list(acc["self_s"].items())[:12]:
            print(f"     {name:<40} {s:>12.6g} s")
        for name, v in res["per_layer"].items():
            print(f"   {name:<48} {v:>14.6g} {units[name]}")


def write_results(res, env, args):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{res['workload']}-seed{args.seed}-trace{args.trace}"
    spans = res.pop("spans", None)
    (results / f"{stem}.json").write_text(json.dumps(dict(res, environment=env), indent=1))
    if spans is not None:
        with open(results / f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.info]) + "\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ma_lab" / "__init__.py").is_file():
        print(f"perfbench: no ma_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ma_lab
    import ma_lab.cli  # noqa: F401  (binds ma_lab.cli)

    if args.setup_only:
        WORKLOADS[args.workload][0](ma_lab, args.seed)
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args)
    OUT.mkdir(parents=True, exist_ok=True)
    store = DigestStore(OUT / f"digests-{env['source_sha256'][:16]}.json")
    units = layers.metric_units(ma_lab)
    results = []
    try:
        for name in names:
            res = run_workload(ma_lab, name, args, store)
            print_report(res, units)
            write_results(res, env, args)
            results.append(res)
    finally:
        store.save()
    print("environment: " + json.dumps(env, sort_keys=True))
    metrics = {}
    for r in results:
        # one workload prints the metrics BENCHMARK.json declares; "all"
        # prints every workload's, prefixed by the workload name
        prefix = f"{r['workload']}." if len(names) > 1 else ""
        if args.trace:
            found = {k: (v, units[k]) for k, v in r["per_layer"].items()}
        else:
            found = {k: (m["value"], m["unit"]) for k, m in r["metrics"].items()
                     if prefix or k in END_TO_END}
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
