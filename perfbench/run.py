#!/usr/bin/env python3
"""Build and run one relopt benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (and the engine library from src/) into
.bench_build/perfbench on first use, runs the workload, checks that the
result line names exactly the metrics BENCHMARK.json lists for the mode
(end_to_end with --trace 0, per_layer with --trace 1), and prints the
binary's output. The last line of standard output is the result object. Run
reports and traced-run spans go to .bench_build/reports.

Exit code 0 means every output check passed; anything else is a failure.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REPORT_DIR = os.path.join(ROOT, ".bench_build", "reports")
BINARY = os.path.join(BUILD_DIR, "relopt_perfbench")
WORKLOADS = ("oltp_point", "oltp_mixed_rw", "olap_analytic", "join_plan")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def run_group(command, timeout, stdout):
    """Runs `command` in its own process group; on timeout kills the whole
    group (build tools spawn children) and waits for it. Returns
    (exit code, captured stdout or None), or raises TimeoutExpired."""
    child = subprocess.Popen(command, stdout=stdout, stderr=sys.stderr, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    return child.returncode, out


def build():
    """Configures once, then builds incrementally; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/CMakeLists.txt) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            code, _ = run_group(step, BUILD_TIMEOUT_S, sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if code != 0:
            fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found next to perfbench/")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    expected = expected_metrics(args.trace)
    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--report-dir", REPORT_DIR]
    try:
        code, stdout = run_group(command, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = stdout.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(stdout)
        print("run.py: benchmark binary exited with code %d" % code, file=sys.stderr)
        sys.exit(1)

    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not a JSON result")
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    if set(result["metrics"]) != expected:
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(expected - set(result["metrics"])),
            sorted(set(result["metrics"]) - expected)))
    unmeasured = sorted(name for name, m in result["metrics"].items()
                        if not isinstance(m.get("value"), (int, float)))
    if unmeasured:
        problems.append("metrics without a numeric value: %s" % unmeasured)
    if not result.get("correct") or result.get("failed"):
        problems.append("output checks failed")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if problems:
        print("run.py: " + "; ".join(problems), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
