"""Rewrite reference.json from the current program.

    python3 perfbench/reference.py

Runs, once, every task whose gate compares with a reference value (those
where the paper fixes no number) and stores what the gate compares.  Run
it only on a commit whose outputs are trusted: the values it writes become
the expected outputs of every later run.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker


def main() -> int:
    worker.import_scartypes()
    import workloads

    values = {}
    with tempfile.TemporaryDirectory(dir=worker.SCRATCH.parent) as tmp:
        for load_cls in workloads.WORKLOADS.values():
            for task in load_cls(0, Path(tmp)).tasks(0):
                if task.reference is not None:
                    fails = task.check(obs := task.run(), task.expect)
                    if fails:
                        print(f"{task.name}: {fails}", file=sys.stderr)
                        return 1
                    values[task.reference] = task.view(obs)
    workloads.REFERENCE_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} entries to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
