#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds fdtool and the perfbench binary from the sources of this checkout
(Release, into .bench_build/), then runs one workload and passes its
report through; the last line of stdout is the JSON result. Build output
goes to stderr.

  python3 perfbench/run.py --workload cold_mine_100k --seed 1 --seconds 20 --trace 0

Workloads: cold_mine_100k, dense_cover_128, serve_mixed (see README.md).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-cmake")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cold_mine_100k", "dense_cover_128", "serve_mixed")
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no repository sources beside perfbench/")
    configured = any(os.path.isfile(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "fdtool", "-j", "4"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="1",
                        help="input size factor (the self-test shrinks it)")
    parser.add_argument("--doctor-reference", type=int, choices=(0, 1),
                        default=0, help="corrupt the reference cover")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    os.makedirs(OUT, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale,
               "--doctor-reference", str(args.doctor_reference),
               "--fdtool", os.path.join(BUILD, "depminer", "examples", "fdtool"),
               "--out-dir", OUT]
    # perfbench and everything it starts share one process group, so an
    # abort or a timeout stops them all.
    proc = subprocess.Popen(command, start_new_session=True)

    def stop(signum, _frame):
        raise KeyboardInterrupt(signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        # SIGTERM lets perfbench kill and reap its children itself.
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        sys.exit("perfbench: stopped before finishing")
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
    except ProcessLookupError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
