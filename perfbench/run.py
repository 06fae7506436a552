#!/usr/bin/env python3
"""Builds and runs the pisrep end-to-end benchmark.

    python3 perfbench/run.py --workload lookup|ingest|aggregate \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the repository's src/
libraries) under $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs only check that the build is current. The benchmark's own output
is passed through: its last line is the JSON result. A failed build or run
exits non-zero without printing a result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message, log=None):
    print(f"perfbench: {message}", file=sys.stderr)
    if log:
        print(log[-4000:], file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target",
                  "pisrep_perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, env=env, capture_output=True,
                                text=True)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}",
                 result.stdout + result.stderr)
    return os.path.join(build_dir, "pisrep_perfbench")


def source_digest():
    """SHA-1 over the benchmark and program sources: identifies the code a
    result was measured on when the checkout carries no commit."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lookup", "ingest", "aggregate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    binary = build(os.path.join(out_root, "perfbench-" + BUILD_TYPE.lower()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(out_root, "perfbench-work"),
               "--source", source_digest()]
    try:
        result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s",
             (expired.stderr or b"").decode(errors="replace")
             if isinstance(expired.stderr, bytes) else expired.stderr)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        fail(f"benchmark exited with code {result.returncode}")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
