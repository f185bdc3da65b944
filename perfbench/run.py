#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (which compiles the
library from ../src) into .bench_build/perfbench with CMake, then runs the
perfbench binary with the same arguments. The binary prints a human-readable
report and, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}. This script forwards the
binary's output and exits with its status; it prints no result of its own,
so a failed build or run leaves no result line.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BINARY = os.path.join(BUILD_DIR, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output -> stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ next to perfbench/: nothing to build")
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return True


def main(argv):
    if not build():
        return 1
    env = dict(os.environ)
    # Thread counts are set explicitly by the benchmark; the library's
    # process-wide default must not leak into a run.
    env.pop("DBSCALE_NUM_THREADS", None)
    proc = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE, env=env,
                          cwd=ROOT, text=True, check=False)
    out = proc.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0 or "--selftest" in argv:
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("the benchmark did not end with a result line")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
