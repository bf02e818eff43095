#!/usr/bin/env python3
"""Builds and runs the DLNER benchmark (see perf/README.md).

    python3 perf/run.py --workload serve_light --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and builds
the product plus the benchmark harness into .bench_build/ and trains the
benchmark model there; later runs reuse both. The last line of standard
output is the result object; everything else goes to standard error.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve_light", "serve_saturate", "serve_mixed", "offline_corpus")
BUILD_DIR = ".bench_build"
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 780


def log(msg):
    print("perf/run.py: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    """Runs cmd with its output in log_path; on failure echoes the tail."""
    with open(log_path, "ab") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout)
    if proc.returncode != 0:
        with open(log_path, "rb") as f:
            tail = f.read()[-4000:].decode("utf-8", "replace")
        log("command failed: " + " ".join(cmd) + "\n" + tail)
    return proc.returncode == 0


def build(root):
    """Configures (once) and builds the product and the harness."""
    build_dir = os.path.join(root, BUILD_DIR, "cmake")
    log_path = os.path.join(root, BUILD_DIR, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        hook = os.path.join(root, "perf", "hook.cmake")
        cmd = ["cmake", "-S", root, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_INCLUDE=" + hook]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, log_path, BUILD_TIMEOUT_S):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                       "dlner_serve_tool", "perf_harness", "perf_selftest"],
                      log_path, BUILD_TIMEOUT_S):
        return None
    return build_dir


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            log("not a DLNER source checkout (missing %s)" % needed)
            return 2

    build_dir = build(root)
    if build_dir is None:
        return 1
    harness = os.path.join(build_dir, "perf", "perf_harness")
    server = os.path.join(build_dir, "tools", "dlner_serve")
    # The harness's own tests run once per build of them.
    selftest = os.path.join(build_dir, "perf", "perf_selftest")
    stamp = os.path.join(root, BUILD_DIR, "selftest.passed")
    built = str(os.stat(selftest).st_mtime_ns)
    if not os.path.exists(stamp) or open(stamp).read() != built:
        if not run_logged([selftest, "--gtest_brief=1"],
                          os.path.join(root, BUILD_DIR, "selftest.log"), 120):
            return 1
        with open(stamp, "w") as f:
            f.write(built)

    # The model is trained once per checkout, before any timing.
    model = os.path.join(root, BUILD_DIR, "model", "ner.bin")
    if not os.path.exists(model):
        os.makedirs(os.path.dirname(model), exist_ok=True)
        log("training the benchmark model (once per checkout)")
        tmp = model + ".tmp"
        if subprocess.run([harness, "train", "--out", tmp],
                          stdout=sys.stderr, timeout=600).returncode != 0:
            log("training failed")
            return 1
        os.replace(tmp, model)

    out_dir = os.path.join(root, BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [harness, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--model", model, "--server", server,
           "--out-dir", out_dir]
    # Own process group, so a timeout also takes down any dlner_serve child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("harness timed out")
        return 1
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("harness failed with code %d" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
