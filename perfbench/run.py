#!/usr/bin/env python3
"""fabricsim benchmark: host cost of the simulator, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload or-raft-fresh --seed 42 \
        --seconds 20 --trace 0

The first call builds fabricsim_perfbench (Release) from perfbench/ and the
repository's src/ into $CARGO_TARGET_DIR (default .bench_build). Then, for
--seconds of host time, it starts one fresh process per simulated run
and reports the fastest run's host time and the median of everything
else. --trace 0 reports the end-to-end metrics of
BENCHMARK.json from untraced runs; --trace 1 alternates untraced runs with
traced ones and reports the per-layer metrics. Every run's simulated output
is checked: the chain audit must pass, all runs of one seed must agree, and
for a seed pinned in perfbench/workloads.json the fingerprint must match.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the per-run values, the host stamp and, when traced,
every profiler handler by name.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds fabricsim_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"fabricsim sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "fabricsim_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "fabricsim_perfbench"


def call_bench(exe, mode, args):
    """Runs one benchmark process; returns its JSON output or None."""
    cmd = [str(exe), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--sim-seconds", str(args.sim_seconds)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {mode} exited {proc.returncode}: {proc.stderr}",
              file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        print(f"perfbench: {mode} printed no JSON", file=sys.stderr)
        return None


def pinned_fingerprint(workload, seed, sim_seconds):
    spec = json.loads((BENCH_DIR / "workloads.json").read_text())
    for fp in spec["workloads"][workload]["fingerprints"]:
        if fp["seed"] == seed and fp["sim_seconds"] == sim_seconds:
            return {k: fp[k] for k in ("head", "height", "valid", "invalid",
                                       "audit_ok")}
    return None


class Checker:
    """Counts runs and failures against the expected fingerprint."""

    def __init__(self, expected):
        self.expected = expected  # None until the first run when unpinned
        self.attempted = 0
        self.failed = 0

    def check(self, result, extra_ok=True):
        self.attempted += 1
        ok = result is not None and extra_ok
        if ok:
            fp = result["fingerprint"]
            ok = fp["audit_ok"] and fp["valid"] + fp["invalid"] > 0
            if ok and self.expected is None:
                self.expected = fp
            ok = ok and fp == self.expected
            if not ok:
                print(f"perfbench: fingerprint {fp} != {self.expected}",
                      file=sys.stderr)
        self.failed += 0 if ok else 1
        return ok


def host_stamp(build_info):
    cpu_model, sha_ni = platform.processor() or "unknown", False
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
            if line.startswith("flags"):
                sha_ni = sha_ni or "sha_ni" in line.split()
    except OSError:
        pass
    stamp = {"nproc": os.cpu_count(), "cpu_model": cpu_model,
             "sha_ni": sha_ni, **build_info,
             "release_build": build_info.get("build_type") == "Release"}
    if not stamp["release_build"]:
        print("perfbench: WARNING: not a Release build; numbers are not "
              "comparable", file=sys.stderr)
    return stamp


def declared_metrics(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emit(metrics, units, checker, detail):
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0 and not missing,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))


def median_of(rows, key):
    return statistics.median(r[key] for r in rows) if rows else 0.0


def fastest(rows):
    """Host time of the fastest run. Other tenants of a shared host only ever
    slow a run down, so the minimum is the estimate they disturb least."""
    return min(r["wall_s"] for r in rows) if rows else 0.0


def untraced(exe, args, checker, deadline):
    runs, setups = [], []
    while True:
        setup = call_bench(exe, "setup", args)
        if setup is not None:
            setups += setup["setup_s"]
        result = call_bench(exe, "run", args)
        if checker.check(result, setup is not None):
            runs.append(result)
        if time.monotonic() >= deadline:
            return runs, setups


def end_to_end(exe, args, checker, deadline):
    runs, setups = untraced(exe, args, checker, deadline)
    metrics = {
        "wall_s": fastest(runs),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": median_of(runs, "peak_rss_mb"),
        "tx_per_host_s": max(
            (r["terminal_tx"] / r["wall_s"] for r in runs), default=0.0),
    }
    return metrics, {"runs": runs, "setup_s": setups}


def per_layer(exe, args, checker, deadline):
    runs, traces = [], []
    while True:
        result = call_bench(exe, "run", args)
        if checker.check(result):
            runs.append(result)
        trace = call_bench(exe, "trace", args)
        if checker.check(trace, trace is not None and trace["faithful"]):
            traces.append(trace)
        if time.monotonic() >= deadline:
            break
    metrics = {}
    if traces:
        for name in traces[0]["metrics"]:
            metrics[name] = statistics.median(t["metrics"][name]
                                              for t in traces)
        if runs:
            metrics["trace.overhead"] = fastest(traces) / fastest(runs)
    handlers = {}
    for t in traces:
        for tag, h in t["handlers"].items():
            handlers.setdefault(tag, []).append(h["ms"])
    detail = {
        "untraced_wall_s": [r["wall_s"] for r in runs],
        "traced_wall_s": [t["wall_s"] for t in traces],
        "handlers_ms": {tag: statistics.median(v)
                        for tag, v in sorted(handlers.items())},
        "predicted_ms": traces[-1]["predicted"] if traces else {},
        "runs": runs,
    }
    return metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-seconds", type=int, default=60,
                        help="simulated measurement window per run "
                             "(smaller for the self-test)")
    args = parser.parse_args()

    spec = json.loads((BENCH_DIR / "workloads.json").read_text())
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload {args.workload}; "
             f"choose from {sorted(spec['workloads'])}")
    exe = build()
    start = time.monotonic()
    deadline = start + args.seconds
    checker = Checker(pinned_fingerprint(args.workload, args.seed,
                                         args.sim_seconds))
    if args.trace:
        metrics, detail = per_layer(exe, args, checker, deadline)
        units = declared_metrics("per_layer")
    else:
        metrics, detail = end_to_end(exe, args, checker, deadline)
        units = declared_metrics("end_to_end")
    build_info = {}
    for r in detail["runs"][:1]:
        build_info = {"build_type": r["build_type"], "compiler": r["compiler"]}
    detail.update(workload=args.workload, seed=args.seed,
                  sim_seconds=args.sim_seconds, trace=args.trace,
                  fingerprint=checker.expected, host=host_stamp(build_info),
                  measured_s=time.monotonic() - start)
    emit(metrics, units, checker, {"perfbench": detail})


if __name__ == "__main__":
    main()
