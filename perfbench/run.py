#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark.

    python3 perfbench/run.py --workload fig7_node [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record

Run from the root of a checkout. The first call configures and builds the
package in this directory (the simulator libraries from ../src plus the
binary) under $CARGO_TARGET_DIR, default .bench_build; later calls rebuild
incrementally. The binary's standard output is passed through; its last
line is the JSON result. --selftest runs the benchmark's own arithmetic
tests; --record rewrites expected.json with the default seed's cell
digests. See README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["fig7_node", "fig8_cluster", "serve_slo", "smp_storm"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dirs():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return os.path.join(target, "perfbench"), os.path.join(target, "perfbench-results")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (full log: " + log_path + ")")


def git_commit():
    # The checkout may not be a repository; never walk up into a parent's.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_bench(build_dir, out_dir, workload, seed, seconds, trace):
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir, "--expected", EXPECTED, "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    return proc.stdout


def record(build_dir, out_dir, seed):
    digests = {}
    for w in WORKLOADS:
        run_bench(build_dir, out_dir, w, seed, 0.001, 0)
        with open(os.path.join(out_dir, f"perfbench_{w}.json")) as f:
            digests[w] = json.load(f)["digests"]
    with open(EXPECTED) as f:
        expected = json.load(f)
    expected["digests"] = digests
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=2)
        f.write("\n")
    print(f"recorded {sum(len(d) for d in digests.values())} cell digests at seed {seed}")


def main():
    with open(EXPECTED) as f:
        default_seed = json.load(f)["default_seed"]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=default_seed)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    build_dir, out_dir = build_dirs()
    build(build_dir)
    os.makedirs(out_dir, exist_ok=True)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode)
    if args.record:
        record(build_dir, out_dir, default_seed)
        return
    if args.workload is None:
        ap.error("--workload is required")
    sys.stdout.write(run_bench(build_dir, out_dir, args.workload, args.seed, args.seconds,
                                args.trace))


if __name__ == "__main__":
    main()
