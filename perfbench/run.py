#!/usr/bin/env python3
"""SENECA-Bench entry point: build the program from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the repository's libraries, seneca_boardd and the
benchmark program seneca_perfbench) into .bench_build/cmake; later runs
rebuild only what changed. Build output goes to stderr. seneca_perfbench's
standard output is passed through: its last line is the result JSON with the
keys correct, attempted, failed and metrics. --trace 1 prints the per-layer
metrics instead of the end-to-end ones and writes a Chrome trace under
.bench_build/traces/.

To check a set of runs, save each run's standard output as a file and run
perfbench/summarize.py on them, e.g.:

  for s in 1 2 3 4 5 6 7 8 9 10; do
    python3 perfbench/run.py --workload clinic_wire --seed $s --seconds 45 \
        --trace 0 > runs/clinic_wire-$s.out
  done
  python3 perfbench/summarize.py runs/

Workloads (see BENCHMARK.json and perfbench/metrics.json):
  volume_offline  closed loop, batch lane, 16M at 64x64, in-process server
  clinic_wire     open loop through a ClusterRouter to two seneca_boardd
                  processes over loopback TCP

Exit status is nonzero, with no result printed, when the build or the run
fails, when a seneca_boardd is already running (clinic_wire), or when the
run is interrupted; SIGINT and SIGTERM are forwarded to seneca_perfbench,
which stops its worker processes before exiting.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "cmake"
PROGRAM = BUILD / "seneca_perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build seneca_perfbench and seneca_boardd."""
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "seneca_perfbench", "seneca_boardd"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1

    cmd = [str(PROGRAM), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    received = []
    child = None

    def forward(signum, _frame):
        received.append(signum)
        if child is not None and child.poll() is None:
            child.send_signal(signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    child = subprocess.Popen(cmd, cwd=ROOT)
    if received:  # arrived while seneca_perfbench was starting
        child.send_signal(received[0])
    code = child.wait()
    if code != 0:
        log(f"seneca_perfbench exited with {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
