"""Benchmark entry point: one workload, one JSON line of metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Workloads are `certify`, `refute` and `verify` (see perfbench/README.md).
With `--trace 0` the last stdout line holds the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run. The workload runs in a
child interpreter with BLAS capped at one thread; set-up time is the median
of several fresh interpreters that import the package and load the corpus.
Exits non-zero without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness.py")
SETUP_PROBES = 9
DEADLINE_S = 170  # every run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def setup_time(workload: str, env: dict[str, str], deadline: float) -> float:
    """Median time from interpreter start until the corpus is loaded."""
    cmd = [sys.executable, HARNESS, "--workload", workload, "--setup-only"]
    # the first start compiles bytecode; users pay that once, so it is not timed
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=deadline - time.monotonic())
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0 or line != "ready\n":
                raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description="sosconvex benchmark")
    parser.add_argument("--workload", required=True, choices=("certify", "refute", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "sosconvex", "__init__.py")):
        print(f"error: package sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    env = child_env()
    try:
        setup_s = None if args.trace else setup_time(args.workload, env, deadline)
        proc = subprocess.run(
            [sys.executable, HARNESS, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=deadline - time.monotonic(),
        )
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    values = dict(result["metrics"])
    if setup_s is not None:
        values["setup_s"] = setup_s
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
