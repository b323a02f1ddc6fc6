#!/usr/bin/env python3
"""Builds and runs the Pandora whole-world benchmark.

Run from the repository root:

  python3 worldbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 worldbench/run.py --self-test

The first call configures and builds worldbench/ (which compiles src/ as it
stands) into $CARGO_TARGET_DIR/worldbench, default .bench_build/worldbench;
later calls only re-run the incremental build.  Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result.  --trace 1 also
writes the run's spans to <build dir>/traces/<workload>-seed<n>.json.

--self-test runs every workload on a short horizon in both modes and checks
that each metric BENCHMARK.json names is printed with its unit, that every
correctness check passes, and that the span file is valid Chrome trace JSON.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "worldbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("worldbench: no Pandora sources under %s/src; nothing to build" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", out], BUILD_TIMEOUT_S)
        run_quiet(["cmake", "--build", out, "-j", jobs],
                  max(1.0, deadline - time.monotonic()))
    return os.path.join(out, "worldbench")


def run_binary(binary, workload, seed, seconds, trace, echo=True):
    """Runs one benchmark invocation; returns (exit code, stdout lines)."""
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--trace-out", trace_out]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("worldbench: %s timed out after %d s\n" % (workload, RUN_TIMEOUT_S))
        return 124, [], trace_out
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    return proc.returncode, stdout.splitlines(), trace_out


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, trace_out = run_binary(binary, workload, 7, 1, trace, echo=False)
            label = "%s trace=%d" % (workload, trace)
            before = len(failures)
            if code != 0 or not lines:
                failures.append("%s: exit %d" % (label, code))
                sys.stdout.write("\n".join(lines[-20:]) + "\n")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0:
                failures.append("%s: correct=%s failed=%s"
                                % (label, result.get("correct"), result.get("failed")))
            metrics = result.get("metrics", {})
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    failures.append("%s: metric %s missing" % (label, m["name"]))
                elif got.get("unit") != m["unit"]:
                    failures.append("%s: %s unit %s, expected %s"
                                    % (label, m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                failures.append("%s: metrics not in BENCHMARK.json: %s" % (label, sorted(extra)))
            if trace:
                with open(trace_out) as f:
                    events = json.load(f)["traceEvents"]
                if not events:
                    failures.append("%s: empty span file" % label)
            print("self-test %-26s %s" % (label, "ok" if len(failures) == before else "FAIL"))
    for failure in failures:
        print("FAIL " + failure)
    print("self-test: %s" % ("passed" if not failures else "%d failures" % len(failures)))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        parser.error("--workload is required")
    code, _, _ = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
