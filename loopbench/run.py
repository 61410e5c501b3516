#!/usr/bin/env python3
"""Builds the control-loop benchmark and runs one workload.

    python3 loopbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is compiled in Release from
loopbench/ against the checkout's src/ into .bench_build/loopbench (the
first run builds; later runs reuse the build). The workload runs in a
fresh process with every CCP_* environment knob removed, so it measures
the program's defaults. The last line of output is the run's JSON result.
Traced runs (--trace 1) also write their spans as a Chrome trace file
under .bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "loopbench")
WORKLOADS = ("warm64_reno", "zipf256k_churn", "agent_shm_mix")


def build():
    """Configures (once) and builds; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if _have("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "loopbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release", *gen],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD, "loopbench")


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"loopbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("CCP_")}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        print("loopbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
