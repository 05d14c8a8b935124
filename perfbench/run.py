#!/usr/bin/env python3
"""The repository benchmark. See README.md beside this file.

    python3 perfbench/run.py --workload spec_pipeline --seed 1 \\
        --seconds 20 --trace 0

Builds perfbench-driver and mw-server from source (Release) into
.bench_build/perfbench, runs the workload for --seconds, checks every
op's output digest against expected_digests.txt, and prints one JSON
object as the last line of stdout: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. The line before it starts with
"perfbench: " and carries the stamp (build type, git describe, nproc,
seed) and the counts behind the metrics. The full record, spans
included, is left in .bench_build/perfbench/record-<workload>.json.

    python3 perfbench/run.py --record

recomputes expected_digests.txt from the current code.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

WORKLOADS = ("spec_pipeline", "splash_mp", "serve_mix")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
EXPECTED = os.path.join(HERE, "expected_digests.txt")
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")
SETUP_REPEATS = 21


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the two targets incrementally."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench-driver", "mw-server"])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type not in OPTIMISED_BUILD_TYPES:
        fail("refusing to report numbers from a non-optimised build "
             "(CMAKE_BUILD_TYPE=%r)" % build_type, 3)
    return (os.path.join(BUILD_DIR, "perfbench-driver"),
            os.path.join(BUILD_DIR, "mw-server"), build_type)


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_samples(driver, workload, seed):
    """Set-up of the in-process workloads: start the driver, build the
    suite and the seeded op list, exit. Repeated; run.py reports the
    median."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rc = subprocess.run([driver, "--setup-only", "--workload", workload,
                             "--seed", str(seed)], cwd=ROOT).returncode
        samples.append(time.perf_counter() - t0)
        if rc != 0:
            fail("set-up run failed with exit code %d" % rc)
    return samples


def run_driver(driver, server, args):
    work = os.path.join(BUILD_DIR, "work-%d" % os.getpid())
    out = os.path.join(BUILD_DIR, "record-%s.json" % args.workload)
    os.makedirs(work, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--min-passes", str(metrics.MIN_PASSES[args.workload]),
           "--server", server, "--work-dir", work, "--out", out]
    # Own process group, so a timeout also stops the servers it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("driver timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        fail("driver exited with code %d" % rc)
    with open(os.path.join(ROOT, out)) as f:
        return json.load(f), out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected_digests.txt from this code")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    driver, server, build_type = build()
    if args.record:
        rc = subprocess.run([driver, "--record", "--out", EXPECTED]).returncode
        sys.exit(rc)

    if not os.path.exists(EXPECTED):
        fail("missing " + EXPECTED)
    expected = metrics.load_expected(EXPECTED)
    setup = []
    if args.workload != "serve_mix":
        setup = setup_samples(driver, args.workload, args.seed)
    record, record_path = run_driver(driver, server, args)
    if not record["stamp"].get("optimized"):
        fail("refusing to report numbers from a non-optimised build", 3)
    if args.workload == "serve_mix":
        setup = record["setup_s"]

    errors = metrics.error_counts(record["ops"], expected)
    if args.trace:
        values, notes = metrics.per_layer(record)
        reported = metrics.with_units(values, metrics.PER_LAYER_UNITS)
        notes["absent_by_design"] = metrics.ABSENT_BY_DESIGN[args.workload]
    else:
        values, notes = metrics.end_to_end(record, args.workload, setup)
        reported = metrics.with_units(values, metrics.END_TO_END_UNITS)
    stamp = dict(record["stamp"])
    stamp.update({"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "build_type": build_type, "git_describe": git_describe(),
                  "nproc": os.cpu_count(),
                  "cpus_allowed": len(os.sched_getaffinity(0))})
    info = {"stamp": stamp, "errors": errors, "notes": notes,
            "record": record_path}
    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": errors["errors"] == 0,
                      "attempted": errors["attempted"],
                      "failed": errors["errors"],
                      "metrics": reported}))


if __name__ == "__main__":
    main()
