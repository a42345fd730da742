"""One round of one workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --round K --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

BLAS and OpenMP are pinned to one thread before numpy loads, and scartypes
is imported from the checkout's `src/` and nowhere else.  The worker sets
up (imports, input generation from the seed), runs the gated tasks of
round K once, and prints one JSON object as its last stdout line: the
CLOCK_MONOTONIC time at which set-up ended, the round's wall time,
per-task pass/fail tallies, peak RSS and, with --trace 1, the per-layer
totals of the round.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = Path(__file__).resolve().parent / "out"


def import_scartypes():
    sys.path.insert(0, str(SRC))
    import scartypes
    if not Path(scartypes.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"scartypes resolved outside {SRC}: {scartypes.__file__}")
    return scartypes


def machine() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_round(tasks, reference, gate, tally) -> float:
    """Run and gate each task once; a task that raises fails and the round goes on."""
    start = time.perf_counter()
    for task in tasks:
        entry = tally.setdefault(task.name, {"attempted": 0, "failed": 0,
                                             "known_defect": task.known_defect,
                                             "first_failure": None, "seconds": []})
        entry["attempted"] += 1
        task_start = time.perf_counter()
        try:
            obs = task.run()
            entry["seconds"].append(time.perf_counter() - task_start)
            fails = gate(task, obs, reference)
        except Exception as exc:
            fails = [f"{type(exc).__name__}: {exc}"]
            if not task.known_defect:
                traceback.print_exc(file=sys.stderr)
        if fails:
            entry["failed"] += 1
            entry["first_failure"] = entry["first_failure"] or "; ".join(fails)[:300]
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_scartypes()
    import workloads
    from layertrace import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 64
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        reference = workloads.load_reference()
        load = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        tally: dict = {}
        round_s = run_round(load.tasks(args.round), reference, workloads.gate, tally)
        print(json.dumps({
            "ready": ready,
            "round_s": round_s,
            "tasks": tally,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "trace": tracer.report() if tracer else None,
            "machine": machine(),
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
