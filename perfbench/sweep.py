"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root)::

    python3 perfbench/sweep.py --seeds 1-10 --output perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance
as a share of the median, next to the metric's bound from
``BENCHMARK.json`` (flagged WIDE above a third of it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import common
import stats


def host() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "system": platform.system()}


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=_seeds, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", default=None)
    args = parser.parse_args()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    summary = {}
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(common.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=str(common.ROOT), capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - started)
            if proc.returncode != 0:
                print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s", file=sys.stderr)
        rows = summary[workload] = {"run_wall_s": walls, "metrics": {}}
        for metric in metrics:
            series = values[metric["name"]]
            q1, med, q3, spread = stats.quartile_spread(series)
            rows["metrics"][metric["name"]] = {
                "unit": metric["unit"], "values": series,
                "median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = metric.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:<16} {metric['name']:<40} median {med:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                  f"bound {bound} {flag}")
        print(f"{workload:<16} run wall: max {max(walls):.1f} s, "
              f"median {stats.median(walls):.1f} s")
    if args.output:
        record = {"host": host(), "run_seconds": bench["run_seconds"],
                  "seeds": args.seeds, "trace": args.trace, "workloads": summary}
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
