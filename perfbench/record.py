"""Repeat the benchmark over seeds and summarize each end-to-end metric.

    python3 perfbench/record.py [--runs 10] [--workloads ensemble,cli] \\
        [--first-seed 1] [--trace] [--out perfbench/out/record.json]

Runs `run.py` once per (workload, seed), one process at a time, with the
`run_seconds` of BENCHMARK.json.  For each workload and end-to-end metric
it prints the median, the quartiles (`statistics.quantiles(values, n=4)`)
and their distance as a share of the median, next to the metric's bound.
With --trace it adds one traced run per workload.  Everything it printed
is also written, with the raw results, to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "report": lines[:-1], "result": json.loads(lines[-1])}


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "record.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, bench["run_seconds"], 0)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        entry = {"runs": runs, "metrics": {}}
        for name in bounds:
            stats = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = stats
            print(f"{workload:<9} {name:<12} median {stats['median']:10.4f}  "
                  f"q1 {stats['q1']:10.4f}  q3 {stats['q3']:10.4f}  "
                  f"spread {stats['spread']:.3f} (bound {bounds[name]})", flush=True)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload:<9} correct={correct} failed={failed} over {len(runs)} runs",
              flush=True)
        if args.trace:
            entry["traced"] = run_once(workload, args.first_seed, bench["run_seconds"], 1)
        record["workloads"][workload] = entry
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
