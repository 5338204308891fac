#!/usr/bin/env python3
"""Build and run the open-loop benchmark (perfbench/src/perfbench.cpp).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload broadcast|payments|lossy \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (perfbench/CMakeLists.txt, which compiles the
repository's libraries from ../src) in Release mode under $CARGO_TARGET_DIR
(default `.bench_build`), then runs it. Build output goes to stderr. Stdout
carries the program's detail line and, last, the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is the
program's: 0 only when every correctness check held, 3 (with no result) when
the host was too busy for the run to be scored.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Commit id when the checkout is a git work tree, else a digest of the
    sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail("cmake configure failed")
    proc = subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                           "-j", jobs], stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["broadcast", "payments", "lossy"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no blockdag source tree at {ROOT}", 3)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"benchmark program printed no result (exit {proc.returncode})",
             proc.returncode or 1)
    if set(result) != RESULT_KEYS:
        fail("benchmark program result has unexpected keys")
    for line in lines:
        print(line)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
