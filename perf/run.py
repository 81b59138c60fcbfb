#!/usr/bin/env python3
"""Build and run the bvl benchmark (see perf/README.md).

Run from the root of a checkout:

    python3 perf/run.py --workload dp-big --seed 1 --seconds 20 --trace 0
    python3 perf/run.py --self-test

The first call configures and builds the simulator library and the
benchmark (Release) under .bench_build/perf; later calls only check
that the build is up to date. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perf")
WORKLOADS = ["dp-big", "dp-vlittle", "tp-ligra", "sweep-tiny"]


def fail(msg):
    print("perf/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def revision():
    """Git commit of the checkout, else a digest of src/ and perf/."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perf"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perf"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
        stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build(["bvl_perf_selftest" if args.self_test else "bvl_perf"])
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    # The benchmark fixes its own sweep configuration: drop the
    # library's BVL_* overrides (jobs, isolation, cache dirs, tracing).
    env = {k: v for k, v in os.environ.items() if not k.startswith("BVL_")}
    if args.self_test:
        cmd = [os.path.join(BUILD, "bvl_perf_selftest")]
    else:
        cmd = [os.path.join(BUILD, "bvl_perf"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--revision", revision(),
               "--work-dir", os.path.join(BUILD_ROOT, "work")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
