#!/usr/bin/env python3
"""Repository benchmark: builds the dlt libraries, the dlt-node daemon and the
perfbench measurement binary from this checkout's sources, runs one workload,
checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload cluster-records --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  cluster-records    4 PBFT dlt-node processes over loopback TCP, 100k seeded
                     UTXOs, open-loop WorkloadEngine records at 400 tx/s
  cluster-transfers  the same cluster on 50k seeded UTXOs, open-loop unsigned
                     1-in-1-out transfers at 1,000 tx/s
  sim-signed         in-process 32-node NakamotoNetwork, signed records
                     verified in full (DLT_THREADS=1)

With --trace 0 the last stdout line carries every end-to-end metric; with
--trace 1 it carries every per-layer metric (stage replay, obs counters,
spans through obs::Tracer written to .bench_work/trace-<workload>.json).
Earlier stdout lines are a readable summary with units and sample counts.
Self-tests of the reduction helpers: python3 perfbench/test_report.py
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
WORKLOADS = ("cluster-records", "cluster-transfers", "sim-signed")

sys.path.insert(0, str(HERE))
import report  # noqa: E402


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then an incremental build of perfbench and dlt-node."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) are missing from this checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def run_perfbench(args):
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(WORK)]
    env = dict(os.environ, DLT_THREADS="1")
    # Its own process group, so a timeout also stops the daemons it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("perfbench timed out")
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    build()
    raw = run_perfbench(args)

    cluster = raw["kind"] == "cluster"
    try:
        metrics, fails, checks, samples = (report.cluster_metrics if cluster
                                           else report.sim_metrics)(raw)
        if args.trace:
            layers, notes = (report.cluster_layers if cluster else report.sim_layers)(raw)
            if not cluster:
                checks["signature_replay_ok"] = raw["replay_sigs_ok"]
            out = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        else:
            notes = []
            out = {m["name"]: {"value": float(metrics[m["name"]][0]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    except (ValueError, KeyError) as e:
        # E.g. a run too short for ten samples beyond its p99.
        fail(f"cannot reduce the run: {e}")
    attempted = fails["attempted"]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"samples: {json.dumps(samples)}")
    print(f"failures: {json.dumps(fails)} of {attempted} attempted")
    print(f"checks: {json.dumps(checks)}")
    for note in notes:
        print(note)
    for name, m in out.items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"correct": all(checks.values()), "attempted": attempted,
                      "failed": fails["failed"], "metrics": out}))


if __name__ == "__main__":
    main()
