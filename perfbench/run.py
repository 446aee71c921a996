#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload small --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The first run configures and builds the
benchmark (perfbench/CMakeLists.txt compiles ../src itself) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
Prints every metric by name with its unit and better direction, then, as
the last line, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer ones
with --trace 1.  The full report (host, build, notes, every metric) is
also written under <build>/results/.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("small", "large")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds flickbench; returns the binary path."""
    for need in ("src/runtime/flick_runtime.h", "idl/bench.idl", "idl/bench.x"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found: run from a full checkout of the repository")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "flickbench"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log})")
    return out / "flickbench"


def run_report(binary, workload, seed, seconds, trace, inject=None, frac=None):
    """Runs one workload; returns the report dict flickbench prints."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--idl-dir", str(ROOT / "idl")]
    if inject:
        cmd += ["--inject", inject, "--inject-frac", str(frac)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=seconds * 2 + 60,
                           text=True)
    except subprocess.TimeoutExpired:
        fail("flickbench timed out")
    if p.returncode != 0:
        fail(f"flickbench exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    binary = build()
    rep = run_report(binary, a.workload, a.seed, a.seconds, a.trace)

    results = build_dir() / "results"
    results.mkdir(exist_ok=True)
    (results / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(rep, indent=1) + "\n")

    declared = spec["per_layer" if a.trace else "end_to_end"]
    measured = rep["per_layer" if a.trace else "end_to_end"]
    host, build_info = rep["host"], rep["build"]
    print(f"workload {a.workload} seed {a.seed} seconds {a.seconds} trace {a.trace}")
    print(f"host: {host['nproc']} CPUs, {host['cpu_model']}, governor {host['governor']}")
    print(f"build: git {build_info['git']}, {build_info['build_type']}, "
          f"{build_info['compiler']}")
    metrics, missing = {}, []
    for m in declared:
        got = measured.get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print(f"  {m['name']:44s} {got['value']:.6g} {m['unit']} "
              f"({m.get('better', 'n/a')} is better)")
    for k, v in sorted(rep["notes"].items()):
        print(f"  note {k}: {v}")
    for f in rep["failures"]:
        print(f"  FAILED: {f}")
    for name in missing:
        print(f"  MISSING: {name}")
    correct = rep["failed"] == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
