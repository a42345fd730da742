"""The public option surface: every defaulted parameter of a public function or
method, pinned, so a new option is added to this list on purpose.

Thresholds (NULL_TOL, RANK_TOL, EIGENSTATE_TOL, ACCEPT / REJECT, ...) are
module constants, not per-call options: a verdict is only as good as them.
"""

import importlib
import inspect

MODULES = ("opspace", "states", "nullspace", "canonical", "boundary", "scars",
           "dynamics", "mps", "cli")

OPTIONS = [
    "opspace.identity:coeff",
    "opspace.op_sum:coeffs",
    "opspace.operators_equal:tol",
    "opspace.truncate:basis",
    "nullspace.build_correlation:degenerate",
    "nullspace.real_rank:scale",
    "nullspace.count_type_classes:degenerate",
    "canonical.h_dmi:axis",
    "canonical.table2_patterns:max_range",
    "canonical.random_type1:translation_invariant",
    "boundary.boundary_solve:hermitian",
    "boundary.default_sweep:anchors",
    "boundary.default_sweep:op_range",
    "boundary.classify:r_max",
    "boundary.equivalence_test:lam",
    "boundary.equivalence_test:r_max",
    "dynamics.rehop:w",
    "dynamics.imhop:w",
    "dynamics.chop:w",
    "dynamics.upsilon_series:rate",
    "dynamics.upsilon_series:shift",
    "dynamics.upsilon_thermo:tol",
    "dynamics.upsilon_thermo:max_nodes",
    "dynamics.scaling_fit:theory_exponent",
    "dynamics.integer_g_times:max_points",
    "mps.injectivity_length:max_block",
    "mps.classify_symmetry_generator:theta_samples",
    "mps.classify_symmetry_generator:dense_sizes",
    "cli.run:argv",
]


def _public_callables(module):
    """(qualified name, function) for the module's own public functions and
    the public methods of its own public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield from ((f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                        if inspect.isfunction(fn) and not attr.startswith("_"))


def test_defaulted_parameters_are_pinned():
    found = []
    for short in MODULES:
        module = importlib.import_module(f"scartypes.{short}")
        for name, fn in _public_callables(module):
            found += [f"{short}.{name}:{p.name}"
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    assert found == OPTIONS
