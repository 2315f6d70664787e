#!/usr/bin/env python3
"""Self-test of the benchmark's determinism.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs workloads through perfbench/run.py and checks that:
  * two runs with one seed give identical exact counts: the warm-up result
    checksums of oltp_point, olap_analytic and join_plan, page_reads_per_stmt
    and every storage.* metric on olap_analytic, and optimizer.joins_costed
    on join_plan;
  * another seed changes the generated inputs (the checksums differ).
Each run lasts SECONDS. Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT_DIR = os.path.join(ROOT, ".bench_build", "reports")
SECONDS = 2
SEED = 7
STORAGE = ("storage.page_reads", "storage.page_writes", "storage.pool_hit_rate",
           "storage.evictions", "storage.dirty_writebacks")


def run(workload, seed, trace):
    """Runs one workload and returns its report (metadata, counts, metrics)."""
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.exit("selftest: %s failed:\n%s" % (" ".join(command), done.stdout))
    path = os.path.join(REPORT_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)


def value(report, metric):
    return report["metrics"][metric]["value"]


def main():
    seed, other = SEED, SEED + 1
    failures = []
    seed_checked = set()

    def expect(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for workload, trace, exact in (
            ("oltp_point", 0, ()),
            ("olap_analytic", 0, ("page_reads_per_stmt",)),
            ("olap_analytic", 1, STORAGE),
            ("join_plan", 1, ("optimizer.joins_costed",))):
        first = run(workload, seed, trace)
        second = run(workload, seed, trace)
        expect(first["warmup_checksums"] == second["warmup_checksums"],
               "%s: warm-up checksums repeat with seed %d" % (workload, seed))
        for metric in exact:
            expect(value(first, metric) == value(second, metric),
                   "%s: %s repeats exactly (%r, %r)" % (
                       workload, metric, value(first, metric), value(second, metric)))
        if workload not in seed_checked:
            seed_checked.add(workload)
            changed = run(workload, other, trace)
            expect(changed["warmup_checksums"] != first["warmup_checksums"],
                   "%s: seed %d changes the inputs" % (workload, other))

    if failures:
        sys.exit("selftest: %d check(s) failed" % len(failures))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
