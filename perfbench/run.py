#!/usr/bin/env python3
"""Build gridsub in Release and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan|crossweek|advisor \
        --seed N --seconds S --trace 0|1

The first run configures and builds `src/` (library only) plus the
benchmark binary into `.bench_build/perfbench` with the cache variables of
the `release` preset in CMakePresets.json; later runs rebuild
incrementally. Build output goes to stderr. The binary's output follows
on stdout; its last line is the JSON result. Exits non-zero, printing no
result, when the sources are missing, the build fails or is not a Release
build, or a library call throws. When a check of the program's outputs
fails it prints the result (with "correct": false) and exits with 5.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_gridsub")
RUN_TIMEOUT_S = 170
CHECK_FAILED = 5  # the binary's exit code when an output check failed


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def release_cache_variables():
    """The `release` configure preset's cache variables, checked."""
    path = os.path.join(ROOT, "CMakePresets.json")
    try:
        with open(path) as f:
            presets = json.load(f)["configurePresets"]
        preset = next(p for p in presets if p["name"] == "release")
    except (OSError, ValueError, KeyError, StopIteration) as e:
        fail("cannot read the release preset from %s: %s" % (path, e))
    variables = dict(preset.get("cacheVariables", {}))
    if variables.get("CMAKE_BUILD_TYPE") != "Release":
        fail("the release preset is not a Release build: %r" % variables)
    for sanitizer in ("GRIDSUB_ASAN", "GRIDSUB_TSAN"):
        if str(variables.get(sanitizer, "OFF")).upper() in ("ON", "TRUE", "1"):
            fail("the release preset enables %s" % sanitizer)
    return variables


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no gridsub sources next to the benchmark (src/CMakeLists.txt)")
    variables = release_cache_variables()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD] +
                     ["-D%s=%s" % kv for kv in sorted(variables.items())])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_gridsub",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    info_path = os.path.join(BUILD, "gridsub_build_info.json")
    try:
        with open(info_path) as f:
            info = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read the build stamp %s: %s" % (info_path, e))
    if info.get("build_type") != "Release" or info.get("asan"):
        fail("refusing to measure a non-Release or sanitized build: %r" % info)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan", "crossweek", "advisor"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    workdir = os.path.join(BUILD, "data",
                           "%s-%d" % (args.workload, os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S, 1)
    finally:
        if os.path.isdir(workdir):
            for name in os.listdir(workdir):
                os.remove(os.path.join(workdir, name))
            os.rmdir(workdir)
    if proc.returncode not in (0, CHECK_FAILED):
        sys.stderr.write(proc.stdout)
        fail("workload exited with code %d" % proc.returncode,
             proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == CHECK_FAILED:
        fail("a check of the program's outputs failed", CHECK_FAILED)


if __name__ == "__main__":
    main()
