#!/usr/bin/env python3
"""Build and run the serving benchmark (see servebench/README.md).

    python3 servebench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                              [--trace 0|1] [--selftest]

Run from the repository root.  The engine's src/ libraries and the
benchmark are built (Release) into $CARGO_TARGET_DIR/servebench, or
.bench_build/servebench when that variable is unset.  Each workload runs
in its own process; its last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  With --workload all (the
default) every workload runs in turn and a per-workload summary follows.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["hot_zipf_m12", "churn_stream_m10", "small_zipf_m6"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                        "servebench"))


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; stdout stays for results."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout).returncode


def build(bdir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Configure on every call: cheap once configured, and cmake refuses a
    # build tree that was configured from another checkout's sources, so a
    # shared build directory never times stale code.
    if run_quiet(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                 BUILD_TIMEOUT_S) != 0:
        return False
    return run_quiet(["cmake", "--build", bdir, "-j", jobs], BUILD_TIMEOUT_S) == 0


def run_workload(bdir, name, args):
    cmd = [os.path.join(bdir, "servebench"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (name, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="run the request-generator self-test instead")
    args = parser.parse_args()

    bdir = build_dir()
    try:
        if not build(bdir):
            print("servebench: build failed", file=sys.stderr)
            return 1
        if args.selftest:
            return subprocess.run([os.path.join(bdir, "servebench_selftest")],
                                  timeout=RUN_TIMEOUT_S).returncode
        if args.workload != "all":
            code, _ = run_workload(bdir, args.workload, args)
            return code
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        worst = 0
        for name in WORKLOADS:
            print("== %s" % name, flush=True)
            code, result = run_workload(bdir, name, args)
            worst = worst or code
            if code != 0 or result is None:
                summary["correct"] = False
                continue
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"]["%s.%s" % (name, metric)] = value
        print("== summary")
        for metric, value in summary["metrics"].items():
            print("%-52s %18.6f %s" % (metric, value["value"], value["unit"]))
        print(json.dumps(summary))
        return worst
    except subprocess.TimeoutExpired as err:
        print("servebench: timed out: %s" % " ".join(err.cmd), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
