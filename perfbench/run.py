#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload lp-mem --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

The library and the executable are built from the checkout's sources into
.bench_build/ (or $CARGO_TARGET_DIR) on first use. Each run generates its
inputs from --seed in a separate prep process, measures in a second process,
and prints that process's report; the last line is one JSON object with the
keys correct, attempted, failed and metrics. Scratch files of a run live
under the build directory and are removed when it ends; traced runs keep
their span dump under <build dir>/traces/. See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lp-mem", "lp-disk")
RUN_TIMEOUT_S = 170.0
BUILD_TIMEOUT_S = 850.0


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the executable; returns the executable's path."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           stdout=sys.stderr, check=True,
                           timeout=deadline - time.monotonic())
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, check=True,
                       timeout=deadline - time.monotonic())
    return os.path.join(out, "mgnn_perfbench")


def run_workload(exe, workload, seed, seconds, trace, extra=()):
    """Runs prep + measurement; returns (exit code, stdout text)."""
    workdir = os.path.join(build_dir(), "runs",
                           "%s.%d.%d" % (workload, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, TMPDIR=workdir)  # keep library temp files inside
    base = [exe, "--workload", workload, "--seed", str(seed),
            "--workdir", workdir] + list(extra)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        prep = subprocess.run(base + ["--phase", "prep"], env=env,
                              timeout=deadline - time.monotonic())
        if prep.returncode != 0:
            return prep.returncode, ""
        cmd = base + ["--phase", "run", "--seconds", str(seconds),
                      "--trace", str(trace)]
        if trace:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, "%s.seed%d.json" % (workload, seed))]
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=deadline - time.monotonic())
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %.0f s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(exe):
    """Tiny-scale run of every workload: every metric of BENCHMARK.json is
    emitted with its unit and no operation fails; then each injected fault
    kind must be counted as a failed operation without crashing the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def check(label, code, out, want_failed):
        result = last_json(out) if code == 0 else None
        if result is None:
            problems.append("%s: exit %d, no result" % (label, code))
            return None
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("%s: result keys %s" % (label, sorted(result)))
        if result["attempted"] < 1:
            problems.append("%s: nothing attempted" % label)
        failed = result["failed"] > 0
        if failed != want_failed or result["correct"] == failed:
            problems.append("%s: failed=%d correct=%s, expected %s" % (
                label, result["failed"], result["correct"],
                "failures" if want_failed else "none"))
        return result

    for workload in WORKLOADS:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            before = len(problems)
            code, out = run_workload(exe, workload, 1, 2, trace, ["--tiny"])
            result = check(label, code, out, want_failed=False)
            if result is None:
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s, units %s" % (
                                    label,
                                    sorted(set(expected[trace]) - set(got)),
                                    sorted(set(got) - set(expected[trace])),
                                    sorted(k for k in got if k in expected[trace]
                                           and got[k] != expected[trace][k])))
            print("selftest: %s %s" % (label, "ok" if len(problems) == before
                                        else "FAILED"), file=sys.stderr)
    for kind, workload in (("wrong_answer", "lp-disk"), ("rv", "lp-mem"),
                           ("hash", "lp-disk")):
        label = "%s inject=%s" % (workload, kind)
        before = len(problems)
        code, out = run_workload(exe, workload, 1, 2, 0,
                                 ["--tiny", "--inject", kind])
        check(label, code, out, want_failed=True)
        print("selftest: %s %s" % (label, "counted" if len(problems) == before
                                   else "FAILED"), file=sys.stderr)
    for p in problems:
        print("selftest FAIL: " + p, file=sys.stderr)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        exe = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if args.selftest:
        return selftest(exe)
    code, out = run_workload(exe, args.workload, args.seed, args.seconds,
                             args.trace)
    if code != 0:
        # A failed run prints no result: its partial report goes to stderr.
        sys.stderr.write(out)
        print("perfbench: run failed with exit code %d" % code, file=sys.stderr)
        return code if code > 0 else 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
