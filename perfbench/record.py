"""Run every workload over several seeds and write one JSON record.

    python3 perfbench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

For each workload: `run.py --trace 0` once per seed, then one `--trace 1`
run. The record holds the environment, the median and the spread (distance
between the first and third quartile over the median) of every end-to-end
metric, the per-layer metrics, and each instance's verdicts and median time.
Compare two records made on the same machine with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import BLAS_THREAD_VARS  # noqa: E402


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": {var: 1 for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    record = {"environment": environment(), "run_seconds": seconds, "seeds": args.seeds,
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        instances: dict[str, dict] = {}
        for seed in args.seeds:
            result, info = run_once(workload, seed, seconds, 0)
            runs.append(result)
            for line in info:
                parts = line.split()
                if parts[:1] == ["instance"]:
                    _, ident, verdicts, median_s, count = parts
                    item = instances.setdefault(ident, {"verdicts": set(), "median_s": []})
                    item["verdicts"].update(verdicts.split("/"))
                    item["median_s"].append(float(median_s))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        traced, _ = run_once(workload, args.seeds[0], seconds, 1)
        end_to_end = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            end_to_end[name] = {"median": statistics.median(values), "spread": spread(values),
                                "unit": runs[0]["metrics"][name]["unit"], "values": values}
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "instances": {
                ident: {"verdicts": sorted(item["verdicts"]),
                        "median_s": statistics.median(item["median_s"])}
                for ident, item in instances.items()
            },
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
