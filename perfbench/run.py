"""scartypes benchmark: time to verified verdicts on one workload.

    python3 perfbench/run.py --workload ensemble|classes|boundary|cli \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
`src/`.  A run starts worker processes one at a time: SETUP_PROBES that
only set up (interpreter start, `import scartypes`, input generation),
then one fresh process per gated round until --seconds are used up; a
round that would end past the deadline, judged by the median process so
far, is not started.  Round k's inputs come from (seed, k).

Every line but the last is a human-readable report; the last line is one
JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: `wall_s` (mean round
time, the inverse of rounds completed per second of measuring), `setup_s`
(median set-up time over all processes) and `peak_rss_mb` (largest peak
RSS of a round process).  The report also prints the median round and the
highest percentile with ten rounds beyond it.  `wall_s` is a mean because
on a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11) the speed of
interpreted code drifted by tens of percent over seconds to minutes: over
19 consecutive 25-s windows of the ensemble workload the quartile spread
of the window mean was 0.15, of the window median 0.26.  With --trace 1 the first half of
the time runs untraced rounds and the rest traced ones; the metrics are
the per-layer rows of the traced rounds, per round, plus
`trace.overhead_frac` and `trace.coverage`.  Known-defect tasks
(documented behaviour the program does not show yet) run and are timed in
every round but count in neither `attempted` nor `failed`; the report
lists them.  The exit code is not 0, and no JSON line is printed, if a
worker fails or times out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150.0

COUNT_UNITS = {"nullspace.rank.flops_computed": "flop",
               "nullspace.rank.bytes_computed": "B"}


class WorkerError(RuntimeError):
    pass


def run_worker(args: list, timeout: float = WORKER_TIMEOUT_S) -> dict:
    """One worker process; returns its last stdout line, parsed, plus the
    time from just before its start to the end of its set-up and to its exit."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker timed out after {timeout:.0f}s: {' '.join(args)}")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {' '.join(args)}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed nothing")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    result["process_s"] = time.monotonic() - spawned
    return result


def tail_percentile(values: list) -> tuple | None:
    """Highest percentile above the median with at least ten samples beyond it."""
    n = len(values)
    if n < 21:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def merge_traces(reports: list) -> dict:
    """Sum the per-layer totals of several traced rounds."""
    total = {"calls": {}, "self_s": {}, "counts": {}, "covered_s": 0.0, "edges": {}}
    for rep in reports:
        for key in ("calls", "self_s", "counts"):
            for name, value in rep[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["covered_s"] += rep["covered_s"]
        for edge in rep["edges"]:
            acc = total["edges"].setdefault((edge["caller"], edge["callee"]), [0, 0.0])
            acc[0] += edge["calls"]
            acc[1] += edge["total_s"]
    total["edges"] = [{"caller": a, "callee": b, "calls": c, "total_s": t}
                      for (a, b), (c, t) in sorted(total["edges"].items(),
                                                   key=lambda kv: -kv[1][1])]
    return total


def layer_metrics(trace: dict, plain: list, traced: list) -> dict:
    """Per-round per-layer rows of the traced rounds."""
    n = len(traced)
    metrics = {}
    for group in trace["calls"]:
        metrics[f"{group}.calls"] = (trace["calls"][group] / n, "count")
        metrics[f"{group}.self_s"] = (trace["self_s"][group] / n, "s")
    for name, total in trace["counts"].items():
        metrics[name] = (total / n, COUNT_UNITS.get(name, "count"))
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    metrics["trace.coverage"] = (trace["covered_s"] / sum(traced), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [run_worker([*base, "--setup-only"])["setup_s"]
                  for _ in range(SETUP_PROBES)]
        deadline = time.monotonic() + args.seconds
        trace_from = time.monotonic() + args.seconds / 2
        plain, traced, processes = [], [], []
        while True:
            trace = int(bool(args.trace and plain and time.monotonic() >= trace_from))
            k = len(processes)
            processes.append(run_worker([*base, "--round", str(k), "--trace", str(trace)]))
            (traced if trace else plain).append(processes[-1]["round_s"])
            typical = statistics.median(p["process_s"] for p in processes)
            if time.monotonic() + typical > deadline and (traced or not args.trace):
                break
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups += [p["setup_s"] for p in processes]

    tasks: dict = {}
    for proc in processes:
        for name, t in proc["tasks"].items():
            acc = tasks.setdefault(name, {**t, "attempted": 0, "failed": 0, "seconds": []})
            acc["attempted"] += t["attempted"]
            acc["failed"] += t["failed"]
            acc["seconds"] += t["seconds"]
            acc["first_failure"] = acc["first_failure"] or t["first_failure"]
    gated = [t for t in tasks.values() if not t["known_defect"]]
    attempted = sum(t["attempted"] for t in gated)
    failed = sum(t["failed"] for t in gated)
    all_attempted = sum(t["attempted"] for t in tasks.values())
    all_failed = sum(t["failed"] for t in tasks.values())

    m = processes[0]["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} "
          f"blas_threads={m['blas_threads']}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={len(plain)} traced_rounds={len(traced)}")
    if args.trace:
        trace = merge_traces([p["trace"] for p in processes if p["trace"]])
        metrics = layer_metrics(trace, plain, traced)
        out_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        out_path.parent.mkdir(exist_ok=True)
        out_path.write_text(json.dumps({**trace, "rounds": plain, "traced_rounds": traced},
                                       indent=1) + "\n")
        rows = sorted(((k, v) for k, v in metrics.items() if k.endswith(".self_s")),
                      key=lambda kv: -kv[1][0])
        for name, (value, unit) in rows:
            group = name[:-len(".self_s")]
            print(f"  {group:<24} self {value:9.4f} s/round  "
                  f"calls {metrics[group + '.calls'][0]:12.1f}/round")
        print(f"  trace.overhead_frac {metrics['trace.overhead_frac'][0]:+.3f}  "
              f"trace.coverage {metrics['trace.coverage'][0]:.3f}  "
              f"(span totals: {out_path.relative_to(HERE.parent)})")
    else:
        metrics = {"wall_s": (statistics.fmean(plain), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (max(p["peak_rss_mb"] for p in processes), "MB")}
        tail = tail_percentile(plain)
        tail_txt = (f", p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                    else ", no tail percentile under 21 rounds")
        print(f"wall_s       mean {metrics['wall_s'][0]:.4f} s over {len(plain)} rounds, "
              f"median {statistics.median(plain):.4f} s{tail_txt}, max {max(plain):.4f} s")
        print(f"setup_s      median {metrics['setup_s'][0]:.4f} s over {len(setups)} set-ups")
        print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"fail_frac    {all_failed / all_attempted:.4f} ({all_failed} of {all_attempted} "
          f"tasks failed; known-defect tasks included)")
    for name, t in tasks.items():
        if t["failed"]:
            tag = "known defect" if t["known_defect"] else "FAILED"
            print(f"  {tag}: {name} {t['failed']}/{t['attempted']}: {t['first_failure']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
