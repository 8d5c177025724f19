#!/usr/bin/env python3
"""Build the perfbench driver from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: campaign_validated, campaign_rv32_ssa, vccd_edit_loop.

The first run configures and builds perfbench/CMakeLists.txt (the vcflight
libraries from src/ plus the driver and vccd) into the build directory:
$CARGO_TARGET_DIR when set, else .bench_build, relative to the repository
root. Later runs only re-check the build. The driver's last stdout line is
the JSON result; build output goes to stderr. Exit status is the driver's:
0 only when every correctness check passed.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("campaign_validated", "campaign_rv32_ssa", "vccd_edit_loop")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd):
    """Runs a build command with its output on stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(out):
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", out, "--target", "perfbench", "vccd",
                       "-j", jobs]) == 0


def source_revision():
    """A digest of the sources the driver was built from (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite-seed", type=int)
    args = parser.parse_args()
    if args.seed < 0:
        return fail("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no vcflight sources at %s (expected src/CMakeLists.txt)" % ROOT)
    out = build_dir()
    if not build(out):
        return fail("build failed")

    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--vccd", os.path.relpath(os.path.join(out, "vcflight", "tools", "vccd"), ROOT),
           "--work-dir", os.path.relpath(work, ROOT),
           "--rev", source_revision()]
    if args.suite_seed is not None:
        cmd += ["--suite-seed", str(args.suite_seed)]
    sys.stdout.flush()
    # Own process group, so a timeout also takes down any vccd it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail("timed out after %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
