"""Parent-Hamiltonian type classification and scar diagnostics toolkit."""

__version__ = "0.1.0"

from . import (boundary, canonical, dynamics, mps, nullspace, opspace, scars,
               states)

__all__ = ["boundary", "canonical", "cli", "dynamics", "mps", "nullspace",
           "opspace", "scars", "states", "__version__"]
