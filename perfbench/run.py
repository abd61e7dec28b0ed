#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cold-pipeline --seed 1 --seconds 10 --trace 0

Workloads: cold-pipeline, cold-aes, serve-warm, serve-edit (see
perfbench/README.md). --trace 1 runs the traced per-layer replay instead and
writes a Chrome trace-event file under the build directory's traces/.
--inject-faults feeds the checker a dropped-edge document and a corrupted v1b
frame as counted answers, so failed and fail_ratio show them.

The program is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). The last line of standard output is the result
object; everything before it is human-readable. A build or set-up failure
exits non-zero without a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-pipeline", "cold-aes", "serve-warm", "serve-edit")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-faults", action="store_true")
    args = parser.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work = os.path.join(root, f"work-{args.workload}-{os.getpid()}")
    traces = os.path.join(root, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.inject_faults:
        cmd.append("--inject-faults")
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
