#!/usr/bin/env python3
"""Builds and runs the clear end-to-end benchmark (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload explore_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds a Release tree under $CARGO_TARGET_DIR
(default .bench_build); later calls only re-check it.  Build output goes to
stderr, so the last line of stdout is the driver's JSON result.  Exits
non-zero, without a result, when the checkout has no clear sources.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore_cold", "explore_warm", "fleet_campaign")
# The driver stops itself at 170 s; this only guards a hung build or driver.
RUN_TIMEOUT_S = 178


def source_rev():
    """Git revision when the checkout is a repository, else a digest of
    every source file the build reads."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def remove_stale_run_dirs(run_dir):
    """The driver removes its <workload>-<pid> directory when it ends; one
    killed by a signal leaves it behind.  Drop those whose pid is gone."""
    if not os.path.isdir(run_dir):
        return
    for name in os.listdir(run_dir):
        pid = name.rsplit("-", 1)[-1]
        if pid.isdigit() and not os.path.exists("/proc/" + pid):
            shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench", "clear_cli"],
                   check=True, stdout=log, stderr=log)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="prove every output check trips on a seeded failure")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("perfbench: no clear source tree here (missing %s)" % need,
                  file=sys.stderr)
            return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    run_dir = os.path.join(build_dir, "run")
    remove_stale_run_dirs(run_dir)
    driver = [os.path.join(build_dir, "perfbench"),
              "--expected", os.path.join(HERE, "expected.txt")]
    if args.selftest:
        cmd = driver + ["--selftest"]
    else:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd = driver + [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--clear-bin", os.path.join(build_dir, "clear", "clear"),
            "--run-dir", run_dir,
            "--rev", source_rev()]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()  # the driver reaps its workers on SIGTERM
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.wait()  # the driver got the same SIGINT and cleans up
        return 130


if __name__ == "__main__":
    sys.exit(main())
