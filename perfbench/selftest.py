"""Show that every workload's gate can fail.

    python3 perfbench/selftest.py

For each workload one task runs once.  Its gate must accept the true
expected value and reject a deliberately wrong one; one reference value is
perturbed the same way.  Exits 0 only if every gate behaves.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

import worker

# workload -> (task, wrong expected value); the ensemble value sits just
# outside criterion 2's 1e-9 tolerance.
WRONG_EXPECT = {
    "ensemble": ("decompose.N8", lambda want: tuple(w + 2e-9 for w in want)),
    "classes": ("w_vac.N8.Rp2", lambda want: (1, 2)),
    "boundary": ("classify.n_tot", lambda want: "II"),
    "cli": ("classify.n_tot", lambda want: "I"),
}
WRONG_REFERENCE = ("cli", "variance.q", ("fit", "exponent"), 1e-6)


def main() -> int:
    worker.import_scartypes()
    import workloads

    reference = workloads.load_reference()
    ok = True
    with tempfile.TemporaryDirectory(dir=worker.SCRATCH.parent) as tmp:
        loads = {name: cls(1, Path(tmp)) for name, cls in workloads.WORKLOADS.items()}
        cases = [(w, t, wrong, None) for w, (t, wrong) in WRONG_EXPECT.items()]
        cases.append((WRONG_REFERENCE[0], WRONG_REFERENCE[1], None, WRONG_REFERENCE[2:]))
        for load_name, task_name, wrong, ref_change in cases:
            task = next(t for t in loads[load_name].tasks(0) if t.name == task_name)
            obs = task.run()
            true_fails = workloads.gate(task, obs, reference)
            bad_task, bad_reference = copy.copy(task), reference
            if wrong is not None:
                bad_task.expect = wrong(task.expect)
            else:
                bad_reference = copy.deepcopy(reference)
                (*path, leaf), delta = ref_change
                entry = bad_reference[task.reference]
                for key in path:
                    entry = entry[key]
                entry[leaf] += delta
            wrong_fails = workloads.gate(bad_task, obs, bad_reference)
            passed = not true_fails and bool(wrong_fails)
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {load_name}/{task_name}: "
                  f"true value {'accepted' if not true_fails else true_fails}, "
                  f"wrong value {'rejected: ' + wrong_fails[0] if wrong_fails else 'accepted'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
