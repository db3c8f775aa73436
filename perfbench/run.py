#!/usr/bin/env python3
"""cwatpg repository benchmark.

Builds the cwatpg sources (../src) and the benchmark program
(perfbench/src) in an optimised build tree, then runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: served-easy, redundant, cluster-2w, and drop-heavy, which runs
but is not benchmarked (see perfbench/README.md). The last line of
standard output is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
exit status is nonzero when any output the run checked was wrong.

Other modes:
    --workload all      run every benchmarked workload, one summary table
    --self-test         feed the correctness gate one flipped fault status
                        and check that the run fails
    --emit-expected     regenerate perfbench/expected.json (per-circuit
                        class counts for the default and held-out seeds)
    --trajectory RUNS   run each benchmarked workload on seeds 1..RUNS and
                        append the medians, quartiles and spreads to
                        perfbench/trajectory.jsonl
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
# The workloads BENCHMARK.json lists. drop-heavy stays runnable (and
# checked) for its traced layer split, but is not benchmarked: its
# end-to-end figures, dominated by one 1.5-second job, spread past the
# 0.25 bound across runs on a shared machine.
WORKLOADS = ["served-easy", "redundant", "cluster-2w"]
ALL_WORKLOADS = WORKLOADS + ["drop-heavy"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
RUN_TIMEOUT_S = 170


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary and the worker daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no cwatpg sources at %s/src: nothing to build" % ROOT)
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "cwatpg_perfbench", "cwatpg_serve"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(BUILD, "cwatpg_perfbench"),
            os.path.join(BUILD, "cwatpg", "svc", "cwatpg_serve"))


def environment():
    """Commit, source digest and machine of this measurement."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                if name == "trajectory.jsonl":  # results, not code
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count()}


def run_one(binary, serve, workload, seed, seconds, trace, extra=()):
    """Runs the benchmark binary once; returns (exit code, stdout lines)."""
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--serve-bin=" + serve, "--expected=" + EXPECTED,
           "--trace-out=" + os.path.join(spans, "%s-%d.jsonl" % (workload, seed))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def self_test(binary, serve, seed):
    """The gate must reject a response with one flipped fault status."""
    ok = True
    for workload in ALL_WORKLOADS:
        code, lines = run_one(binary, serve, workload, seed, 1, 0,
                              ["--inject-mismatch"])
        last = lines[-1] if lines else ""
        result = json.loads(last) if last.startswith("{") else None
        rejected = code != 0 and (result is None or not result["correct"])
        print("self-test %-12s corrupted response %s (exit %d)" %
              (workload, "rejected" if rejected else "ACCEPTED", code))
        ok = ok and rejected
    return 0 if ok else 1


def emit_expected(binary, serve):
    table = {}
    for workload in ALL_WORKLOADS:
        table[workload] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            code, lines = run_one(binary, serve, workload, seed, 1, 0,
                                  ["--emit-expected"])
            if code != 0 or not lines:
                log("could not compute counts for %s seed %d" % (workload, seed))
                return 1
            table[workload][str(seed)] = json.loads(lines[-1])
    with open(EXPECTED, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + EXPECTED)
    return 0


def trajectory(binary, serve, runs, seconds):
    """Runs every workload on seeds 1..runs and appends one trajectory
    point: per metric the median, quartiles and their spread."""
    point = {"env": environment(), "runs": runs, "seconds": seconds,
             "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        for seed in range(1, runs + 1):
            code, lines = run_one(binary, serve, workload, seed, seconds, 0)
            if code != 0 or not lines:
                log("%s seed %d failed (exit %d)" % (workload, seed, code))
                return 1
            for name, m in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        summary = {}
        for name, (unit, v) in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
            print("%-12s %-14s median %12.4f %-9s spread %.3f" %
                  (workload, name, med, unit, summary[name]["spread"]), flush=True)
        point["workloads"][workload] = summary
    path = os.path.join(HERE, "trajectory.jsonl")
    compare_with_previous(path, point)
    with open(path, "a") as f:
        f.write(json.dumps(point, sort_keys=True) + "\n")
    return 0


def compare_with_previous(path, point):
    """When the newest recorded point measured the same sources, prints
    how far each median moved from it, as a share of the earlier median:
    two sets of runs of the same code should agree within the bounds."""
    try:
        with open(path) as f:
            lines = [line for line in f if line.strip()]
    except OSError:
        return
    if not lines:
        return
    last = json.loads(lines[-1])
    if last["env"]["source_sha256"] != point["env"]["source_sha256"]:
        return
    for workload, summary in point["workloads"].items():
        for name, m in summary.items():
            before = last["workloads"].get(workload, {}).get(name)
            if not before or not before["median"]:
                continue
            change = m["median"] / before["median"] - 1.0
            print("%-12s %-14s median moved %+.3f from the previous set" %
                  (workload, name, change), flush=True)


def default_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 20


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trajectory", type=int, metavar="RUNS",
                        help="append a trajectory point from RUNS seeds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mismatch", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--emit-expected", action="store_true")
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in ALL_WORKLOADS:
        log("unknown workload %s (choose from %s)" %
            (args.workload, ", ".join(ALL_WORKLOADS)))
        return 2

    binary, serve = build()
    if args.self_test:
        return self_test(binary, serve, args.seed)
    if args.emit_expected:
        return emit_expected(binary, serve)
    if args.trajectory:
        return trajectory(binary, serve, args.trajectory, args.seconds)

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    extra = ["--inject-mismatch"] if args.inject_mismatch else []
    if args.workload != "all":
        code, lines = run_one(binary, serve, args.workload, args.seed,
                              args.seconds, args.trace, extra)
        for line in lines:
            print(line)
        if not lines or not lines[-1].startswith("{"):
            return code or 1
        return code

    worst = 0
    summary = []
    for workload in WORKLOADS:
        code, lines = run_one(binary, serve, workload, args.seed,
                              args.seconds, args.trace, extra)
        worst = worst or code
        for line in lines:
            if line.startswith("metric "):
                _, name, value, unit, samples = line.split()
                summary.append((workload, name, value, unit, samples))
        if not lines or not lines[-1].startswith("{"):
            worst = worst or 1
            continue
        result = json.loads(lines[-1])
        summary.append((workload, "correct", str(result["correct"]), "",
                        "n=%d" % result["attempted"]))
    for row in summary:
        print("%-12s %-30s %16s %-9s %s" % row)
    return worst


if __name__ == "__main__":
    sys.exit(main())
