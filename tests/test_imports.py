"""Import hygiene: scipy stays off the import path of `import scartypes`, the
pinned CLI commands and the MPS boundary action; `numpy.ma` (10-16 ms to
import) stays off the pinned commands and a class count, and `numpy.fft`
off a class count; and `python -m scartypes.cli` runs without a runpy
warning.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the benchmark's pinned commands
COMMANDS = [
    "decompose --ham h_rehop --N 10",
    "classify --ham n_tot --states w,vacuum --N 10",
    "scan-classes --N 8 --R 2 --Rp 3 --states w,vacuum",
    "variance --scan q --N 12",
    "droplet --dispersion chop:a=0.5,b=0.5 --N 10000 --M 2000 --steps 600 --G bwt",
    "droplet --dispersion chop --N 201 --M 51 --observable occupations",
    "mps --tensor aklt --generator sz",
    "mps --tensor ssh --generator sz",
]


ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


PINNED = "\n".join([
    "import contextlib, io, sys",
    "from scartypes import cli",
    f"for argv in {COMMANDS!r}:",
    "    with contextlib.redirect_stdout(io.StringIO()):",
    "        assert cli.run(argv.split()) == 0, argv",
])


@functools.lru_cache(maxsize=None)
def _modules_after(code: str) -> tuple:
    """The modules loaded once ``code`` has run, as the child prints them."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def _loaded(code: str, package: str) -> list:
    """The modules of ``package`` (itself and its submodules) that ``code`` loads."""
    return [m for m in _modules_after(code) if (m + ".").startswith(package + ".")]


def test_import_loads_no_scipy():
    assert _loaded("import sys\nimport scartypes", "scipy") == []


def test_pinned_commands_load_no_scipy():
    assert _loaded(PINNED, "scipy") == []


def test_pinned_commands_load_no_numpy_ma():
    assert _loaded(PINNED, "numpy.ma") == []


# the sector path and the all-windows path (a droplet breaks translation),
# each for real states, phased real states and complex ones ({W_1, W_2})
CLASS_COUNTS = "\n".join([
    "import numpy as np",
    "from scartypes import nullspace, states",
    "vac, w, w1, w2 = states.vacuum(8), states.w_state(8), states.w_q(8, 1), states.w_q(8, 2)",
    "drop = states.droplet(8, 4, 1)",
    "for psis in ([vac, w], [vac, drop], [vac * np.exp(0.3j), w * np.exp(-1.1j)],",
    "             [vac, drop * np.exp(2.0j)], [w1, w2], [w1, drop]):",
    "    assert (nullspace._real_states(psis) is None) == (w1 is psis[0])",
    "    nullspace.count_type_classes(8, 2, 3, psis)",
])


def test_class_counts_load_no_numpy_ma():
    assert _loaded(CLASS_COUNTS, "numpy.ma") == []


def test_class_counts_load_no_numpy_fft():
    # ZH_glo's momentum blocks are a product with the phase matrix: numpy.fft
    # would be imported on its first use
    assert _loaded(CLASS_COUNTS, "numpy.fft") == []


def test_boundary_action_loads_no_scipy():
    code = "\n".join([
        "import sys",
        "from scartypes import mps",
        "mps.verify_boundary_action(mps.builtin_aklt(), mps.spin1_matrix('z'), 0.3, 6, 2)",
    ])
    assert _loaded(code, "scipy") == []


def test_module_entry_point_without_runpy_warning():
    # the package must not import cli eagerly, or runpy warns that it is loaded twice
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "scartypes.cli", "mps", "--tensor", "aklt", "--generator", "sz"],
                          env=ENV, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
