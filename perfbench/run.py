#!/usr/bin/env python3
"""End-to-end benchmark of xupdate: the daemon, its reasoning verbs and
branch merge.

Builds the repository (Release, only what the benchmark needs) and the
benchmark harness under the build directory, then runs one workload:

    python3 perfbench/run.py --workload reason_bulk --seed 42 \
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer table. See
perfbench/WORKLOADS.md for the workloads and what every metric means.

The build directory is $CARGO_TARGET_DIR if set, else .bench_build, both
relative to the repository root. Every file a run writes lives under it.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mix", "reason_bulk", "branch_merge")
# Time limit of one run (callers allow 180 s).
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT)
    if done.returncode != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        fail("build step failed: " + " ".join(cmd) + "\n" + tail, 1)


def build(root):
    """Builds the xupdate CLI (the daemon) and the harness; returns both."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no xupdate sources next to perfbench/ (expected " +
             os.path.join(ROOT, "CMakeLists.txt") + ")")
    os.makedirs(root, exist_ok=True)
    log = os.path.join(root, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    xupdate_build = os.path.join(root, "xupdate")
    bench_build = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(xupdate_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", xupdate_build,
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    run_logged(["cmake", "--build", xupdate_build, "--target", "xupdate_tool",
                "-j", jobs], log)
    if not os.path.isfile(os.path.join(bench_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bench_build,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DXUPDATE_SOURCE_DIR=" + ROOT,
                    "-DXUPDATE_BUILD_DIR=" + xupdate_build], log)
    run_logged(["cmake", "--build", bench_build, "-j", jobs], log)
    return (os.path.join(xupdate_build, "tools", "xupdate"),
            os.path.join(bench_build, "xbench"))


def stop_group(pgid):
    """Kills what is left of the harness's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0,
                        help="tiny inputs (the benchmark's self-test)")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = build_dir()
    xupdate, xbench = build(root)
    # Each run gets a fresh working directory: daemon sockets (relative,
    # so a deep checkout path cannot overflow sun_path), data dirs, logs.
    work = os.path.join(root, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [xbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--xupdate", xupdate, "--smoke", str(args.smoke)]
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("%s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    stop_group(proc.pid)
    shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
