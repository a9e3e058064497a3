#!/usr/bin/env python3
"""ST-TCP benchmark: one workload per invocation, metrics on stdout.

    python3 stbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator from ../src twice (runtime auditors ON and OFF) under
.bench_build/, runs the arithmetic unit test, then runs the workload in a
separate process (stbench.cpp). With --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer ones; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.
See stbench/WORKLOADS.md for what each workload and metric is for.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("echo_fanin", "bulk_download", "bulk_upload", "failover_paper")
RUN_TIMEOUT_S = 170


def build(variant, audit):
    """Configures (once) and builds one variant; returns its build dir."""
    bdir = os.path.join(BUILD, variant)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
                        "-DSTTCP_AUDIT=" + ("ON" if audit else "OFF")],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True, stdout=sys.stderr)
    return bdir


def run_workload(bdir, args, mode, seconds, extra=()):
    cmd = [os.path.join(bdir, "stbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode, *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")

    try:
        audit_on = build("audit_on", True)
        audit_off = build("audit_off", False)
        subprocess.run([os.path.join(audit_on, "stbench_ledger_test")], check=True,
                       stdout=sys.stderr)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"stbench: build or self-test failed: {e}", file=sys.stderr)
        return 1

    extra = []
    if args.trace:
        # Auditor price: the same workload's measured phase in the build
        # without them, a quarter of the budget.
        off = run_workload(audit_off, args, "host", args.seconds / 4)
        if off.returncode != 0:
            sys.stderr.write(off.stdout)
            print("stbench: the audit-OFF run failed", file=sys.stderr)
            return 1
        base = json.loads(off.stdout.strip().splitlines()[-1])
        extra = ["--audit-off-host-s", repr(base["measured_host_s"])]
    run = run_workload(audit_on, args, "trace" if args.trace else "plain", args.seconds, extra)
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
