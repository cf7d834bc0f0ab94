#!/usr/bin/env python3
"""Wall-clock benchmark of the threaded MDBS engine.

Run from the root of a checkout:

    python3 wallbench/run.py --workload hop --seed 1 --seconds 20 --trace 0
    python3 wallbench/run.py --selftest

The first form builds wallbench/ (and with it the repository's src/) into
.bench_build/, runs one measurement, writes the full record (build, inputs,
raw values, checks) to .bench_out/, and prints one JSON result line last:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
second form is the sensitivity self-test: it injects a fixed CPU cost into
every completion callback and checks that the metrics move. NOTES.md has the
rest.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wallbench")
BINARY = os.path.join(BUILD_DIR, "wallbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("hop", "durable")

END_TO_END = {
    "goodput_tps": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "setup_s": "s",
    "max_rss_mb": "MiB",
}

PER_LAYER = (
    "gtm.scheme.calls_per_txn", "gtm.scheme.busy_us_per_txn",
    "gtm.scheme.cond_ns", "gtm.scheme.act_ns", "gtm.scheme.busy_share",
    "gtm.cond_evals_per_commit", "gtm.failed_rescan_steps_per_commit",
    "gtm.ser_waits_per_commit", "gtm.wait_depth_max", "gtm.timeouts_per_ktxn",
    "gtm.attempts_per_commit", "gtm.partial_commits_per_ktxn",
    "mdbs.health.false_down_aborts",
    "site.blocked_per_ktxn", "site.aborts_per_ktxn",
    "phase.admission_us", "phase.scheme_us", "phase.ser_wait_us",
    "phase.ticket_us", "phase.network_us", "phase.site_exec_us",
    "phase.backoff_us", "phase.parked_us", "phase.recovery_us",
    "storage.wal.appends_per_txn", "storage.wal.bytes_per_txn",
    "storage.gtm_wal.bytes_per_txn", "storage.wal.append_us_per_txn",
    "storage.wal.syncs_per_txn",
    "sim.strand.handoff_us", "sim.strand.timer_late_us",
    "gtm.harness.s3_us_per_txn", "lcc.lock.acquire_release_ns",
    "storage.frame.append_ns", "obs.histogram.record_ns",
    "process.cpu_ms_per_ktxn",
    "bench.trace_overhead", "bench.generator_cpu_share",
)

# Self-test probe: CPU time burnt at the end of every completion callback.
SELFTEST_SPIN_US = 200
# Plain and probed runs alternate this many times per workload; the checks
# compare medians, since consecutive runs of the same code can differ by
# about as much as the 100 us the hop check asks for.
SELFTEST_ROUNDS = 3

# Whole-invocation limits: 180 s once built, 900 s when this run builds.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 890


def die(message):
    print("wallbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(deadline):
    """Configures (once) and builds the benchmark; returns True if it built."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ next to wallbench/: run from a full checkout")
    fresh = not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    if fresh:
        os.makedirs(BUILD_DIR, exist_ok=True)
        step(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], deadline, "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", BUILD_DIR, "-j", jobs], deadline, "build")
    if not os.access(BINARY, os.X_OK):
        die("build produced no binary")
    return fresh


def step(cmd, deadline, what):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die(what + " timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        die(what + " failed")


def run_binary(args, deadline, probe_spin_us=0):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--probe-spin-us", str(probe_spin_us)]
    if args.trace == 1:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(OUT_DIR, "spans-%s.csv" % args.workload)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("benchmark run timed out")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        die("benchmark exited with code %d" % done.returncode)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        die("benchmark printed no result")
    return json.loads(lines[-1])


def source_digest():
    """sha256 over src/ and wallbench/ sources: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "wallbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cmake_cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def validate(result, trace):
    """Returns the problems that make a result unusable as reported."""
    problems = []
    expected = PER_LAYER if trace else tuple(END_TO_END)
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        problems.append("metric set differs: %s" % sorted(
            set(metrics) ^ set(expected)))
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number" % name)
        elif not trace and value <= 0:
            problems.append("%s is not positive" % name)
    return problems


def measure(args):
    start = time.monotonic()
    fresh = build(start + FIRST_RUN_LIMIT_S)
    limit = FIRST_RUN_LIMIT_S if fresh else RUN_LIMIT_S
    result = run_binary(args, start + limit)
    problems = validate(result, args.trace)
    record = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "cmake_build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "cxx_compiler": cmake_cache_value("CMAKE_CXX_COMPILER"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "command": sys.argv,
        "validation_problems": problems,
        "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(record, f, indent=1)
    for problem in problems + result.get("problems", []):
        print("wallbench: " + problem, file=sys.stderr)
    line = {
        "correct": bool(result.get("correct")) and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }
    print(json.dumps(line))


def selftest(args):
    """Injects a fixed CPU cost into every completion callback (on the GTM
    strand) and checks that the benchmark sees it, on medians of alternating
    plain and probed runs: hop's p50 latency rises by at least half the cost,
    durable's goodput falls, and CPU per committed transaction (a diagnostic
    of the record) rises on every workload."""
    spin_us = SELFTEST_SPIN_US
    build(time.monotonic() + FIRST_RUN_LIMIT_S)
    ok = True
    for workload in WORKLOADS:
        samples = {0: [], spin_us: []}
        for _ in range(SELFTEST_ROUNDS):
            for spin in (0, spin_us):
                run_args = argparse.Namespace(workload=workload,
                                              seed=args.seed,
                                              seconds=args.seconds, trace=0)
                result = run_binary(run_args, time.monotonic() + RUN_LIMIT_S,
                                    probe_spin_us=spin)
                if not result.get("correct"):
                    print("%s: run incorrect: %s" % (workload,
                                                     result["problems"]))
                    ok = False
                values = {k: v["value"] for k, v in result["metrics"].items()}
                values["cpu_ms_per_ktxn"] = (
                    result["diagnostics"]["cpu_ms_per_ktxn"]["value"])
                samples[spin].append(values)
        runs = {spin: {name: statistics.median(v[name] for v in vals)
                       for name in vals[0]}
                for spin, vals in samples.items()}
        base, probed = runs[0], runs[spin_us]
        checks = [("cpu_ms_per_ktxn rises",
                   probed["cpu_ms_per_ktxn"] > base["cpu_ms_per_ktxn"])]
        if workload == "hop":
            checks.append(("latency_p50_us rises by >= %g us" % (spin_us / 2),
                           probed["latency_p50_us"] - base["latency_p50_us"]
                           >= spin_us / 2))
        if workload == "durable":
            checks.append(("goodput_tps falls",
                           probed["goodput_tps"] < base["goodput_tps"]))
        for what, passed in checks:
            ok = ok and passed
            print("%-8s %-36s %s" % (workload, what, "ok" if passed else "FAIL"))
        for name in list(END_TO_END) + ["cpu_ms_per_ktxn"]:
            print("%-8s   %-20s %14.4f -> %14.4f" % (
                workload, name, base[name], probed[name]))
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        parser.error("--workload is required")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
