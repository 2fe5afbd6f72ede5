#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run it from the repository root. It configures perfbench/ (a CMake package
that builds the `pit` library from the repository sources) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, builds the
`pitbench` binary, and runs it. The binary's last stdout line is the JSON
result; this script checks that its metric names are exactly the ones
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer for
--trace 1). With --workload all it runs every workload in turn, prints
every metric by name with its unit, and exits nonzero if any output check
failed. Traces of --trace 1 runs are written to .bench_out/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no PIT source tree beside perfbench/ (CMakeLists.txt and src/ "
             "are needed to build the benchmark)")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Build output goes to stderr: stdout's last line is the result.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "pitbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "pitbench")


def run_one(binary, spec, workload, seed, seconds, trace):
    env = dict(os.environ)
    # Fixed intra-op parallelism: one OpenMP thread per calling thread, so
    # worker counts alone decide how many cores each workload uses.
    env["OMP_NUM_THREADS"] = "1"
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("pitbench exited with %d and no result" % proc.returncode)
    result = json.loads(lines[-1])
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        sys.stdout.write(proc.stdout)
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(set(result["metrics"]) ^ set(wanted)))
    return proc.stdout, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)))
    binary = build()

    if args.workload != "all":
        out, _ = run_one(binary, spec, args.workload, args.seed, seconds, args.trace)
        sys.stdout.write(out)
        return 0

    ok = True
    for name in names:
        _, result = run_one(binary, spec, name, args.seed, seconds, args.trace)
        print("== %s: correct=%s attempted=%d failed=%d"
              % (name, result["correct"], result["attempted"], result["failed"]))
        for metric, v in result["metrics"].items():
            print("   %-28s %.6g %s" % (metric, v["value"], v["unit"]))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
