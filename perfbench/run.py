#!/usr/bin/env python3
"""Builds and runs the SparqLog end-to-end benchmark.

Measure one workload (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload sp2b_cold --seed 1 --seconds 20 --trace 0

Re-record the pinned expected answers of an offline workload (all dataset
variants, with the reference evaluator):

    python3 perfbench/run.py --pin sp2b_cold

Run from the repository root or anywhere else; paths are resolved from this
file. The build goes to .bench_build/perfbench (Release); traced runs write
their spans to .bench_build/perfbench/traces/.
"""

import argparse
import ctypes
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
EXPECTED = os.path.join(HERE, "expected")
WORKLOADS = ("sp2b_cold", "gmark_paths", "serve_mixed")
VARIANTS = 10  # must match kVariants in src/offline.cpp
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def fixed_layout():
    """Turns off address-space randomization for the measured process.

    A fixed layout removes one source of run-to-run variation (see
    README.md, "Steadiness"). Best effort: where personality(2) is not
    permitted the run goes ahead with the default layout.
    """
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def measure(args):
    if args.workload not in WORKLOADS:
        log("unknown workload %r (choose from %s)" % (args.workload,
                                                      ", ".join(WORKLOADS)))
        return 2
    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", EXPECTED]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        log("benchmark exited with status %d" % done.returncode)
    return done.returncode


def pin(workload):
    if not build():
        return 1

    def one(variant):
        done = subprocess.run([BINARY, "--pin", workload, "--variant",
                               str(variant)],
                              stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise RuntimeError("pinning variant %d failed" % variant)
        return done.stdout

    with ThreadPoolExecutor(max_workers=3) as pool:
        outputs = list(pool.map(one, range(VARIANTS)))
    path = os.path.join(EXPECTED, workload + ".tsv")
    with open(path, "w") as f:
        f.write("# variant query rows hash source\n")
        for out in outputs:
            f.write(out)
    log("wrote " + path)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", choices=("sp2b_cold", "gmark_paths"))
    args = parser.parse_args()
    if args.pin:
        return pin(args.pin)
    if not args.workload:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
