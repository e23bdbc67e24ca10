"""Run the benchmark over seeds 1..10 and summarize each end-to-end metric.

Run from the repository root, one run at a time:

    python3 bench/seeds.py

Every workload in BENCHMARK.json runs once per seed for its run_seconds.
For every workload this prints the first seed's report (every metric with
its unit, tail and failures), then, for every end-to-end metric, the
median of the runs, their quartiles (``statistics.quantiles(values,
n=4)``) and the spread, the distance between the quartiles as a share of
the median, next to the metric's bound from BENCHMARK.json; the same for
the figures as measured, before the scaling to the nominal machine speed.
One traced run per workload, on the first seed, adds the per-layer
metrics.  Every run's result and details, and the summary, are written to
bench/BENCH_seed.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
OUT = ROOT / "bench" / "BENCH_seed.json"


def quartiles(vals: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(vals)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    runs, summary = [], {}

    def bench(workload: str, seed: int, trace: int):
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            return None
        *report, details, last = proc.stdout.strip().splitlines()
        if seed == SEEDS[0]:
            print("\n".join(report), flush=True)  # every metric with its unit, tail, failures
        result = json.loads(last)
        runs.append({"workload": workload, "seed": seed, "trace": trace, "result": result,
                     **json.loads(details)})
        return runs[-1]

    for workload in workloads:
        values: dict[str, list[float]] = {}
        measured: dict[str, list[float]] = {}
        for seed in SEEDS:
            run = bench(workload, seed, 0)
            if run is None:
                continue
            for name, metric in run["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, metric in run["details"]["as_measured"].items():
                measured.setdefault(name, []).append(metric["value"])
        traced = bench(workload, SEEDS[0], 1)
        end_to_end = {name: quartiles(vals) for name, vals in values.items()}
        for name, q in end_to_end.items():
            print(f"{workload:18s} {name:12s} median {q['median']:12.6g}  q1 {q['q1']:12.6g}  "
                  f"q3 {q['q3']:12.6g}  spread {q['spread']:.3f} (bound {bounds[name]})",
                  flush=True)
        summary[workload] = {
            "end_to_end": end_to_end,
            "as_measured": {name: quartiles(vals) for name, vals in measured.items()},
            "per_layer": traced and {name: metric["value"]
                                     for name, metric in traced["result"]["metrics"].items()},
        }
    host = {"python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "run_seconds": spec["run_seconds"]}
    OUT.write_text(json.dumps({"host": host, "summary": summary, "runs": runs}, indent=1) + "\n")
    ok = len(runs) == len(workloads) * (len(SEEDS) + 1)
    return 0 if ok and all(run["result"]["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
