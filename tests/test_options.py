"""The public surface, pinned so a name or an option is added or removed on purpose:
every public function, class, method, property and dataclass field, and every
defaulted parameter of a public function or method.  Every public module-level
function and class must have a reader in the package, the benchmark workloads
or the acceptance criteria, and every private one a reader in the package;
what only tests read belongs in the tests.

Thresholds (NULL_TOL, RANK_TOL, EIGENSTATE_TOL, ACCEPT / REJECT, ...) are
module constants, not per-call options: a verdict is only as good as them.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = tuple(sorted((ROOT / "src" / "scartypes").glob("*.py")))
READERS = (*PACKAGE,
           ROOT / "perfbench" / "workloads.py", ROOT / "tests" / "test_acceptance.py")

MODULES = ("opspace", "states", "nullspace", "canonical", "boundary", "scars",
           "dynamics", "mps", "cli")

OPTIONS = [
    "opspace.identity:coeff",
    "opspace.op_sum:coeffs",
    "opspace.truncate:basis",
    "nullspace.real_rank:scale",
    "nullspace.count_type_classes:degenerate",
    "canonical.h_dmi:axis",
    "canonical.random_type1:translation_invariant",
    "boundary.boundary_solve:hermitian",
    "boundary.default_sweep:anchors",
    "boundary.default_sweep:op_range",
    "boundary.classify:r_max",
    "boundary.equivalence_test:lam",
    "dynamics.rehop:w",
    "dynamics.imhop:w",
    "dynamics.chop:w",
    "dynamics.upsilon_series:rate",
    "dynamics.upsilon_series:shift",
    "dynamics.scaling_fit:theory_exponent",
    "dynamics.integer_g_times:max_points",
    "mps.classify_symmetry_generator:dense_sizes",
    "cli.run:argv",
]

SURFACE = {
    "opspace": """
        CapacityError DimensionError LocalOperator LocalOperator.coeff_norm
        LocalOperator.dagger LocalOperator.declared_range LocalOperator.hermitian
        LocalOperator.identity_coefficient Region Region.left Region.length
        Region.n_sites Region.right Region.sites apply eigen_defect format_operator
        hs_inner hs_norm identity op_sum parse_operator string_term to_boson_basis
        to_pauli_basis truncate
    """,
    "states": """
        SchmidtSplit SchmidtSplit.coefficients SchmidtSplit.p SchmidtSplit.region
        SchmidtSplit.weights dense_schmidt_values droplet schmidt_w_family translate
        vacuum w_p w_q w_state
    """,
    "nullspace": """
        ClassCount ClassCount.dims ClassCount.n_ii ClassCount.n_iii OperatorBasis
        OperatorBasis.keys OperatorBasis.n_sites SubspaceReport SubspaceReport.basis
        SubspaceReport.dim SubspaceReport.gap build_correlation
        count_type_classes null_space pauli_string_basis real_rank verify_null_vector
        window_basis
    """,
    "canonical": """
        CanonicalForm CanonicalForm.annihilators CanonicalForm.omega_id
        CanonicalForm.omega_n CanonicalForm.reconstruct CanonicalForm.residual_norm
        CanonicalForm.t_im ClassificationError decompose decompose_general h_dmi
        h_heis h_imhop h_imhop2 h_imhop_p h_rehop n_tot p_im p_nonherm p_re
        random_type1 require_eigenstate table2_patterns
    """,
    "boundary": """
        BoundarySolve BoundarySolve.constants BoundarySolve.left_op
        BoundarySolve.left_window BoundarySolve.residual BoundarySolve.right_op
        BoundarySolve.right_window EquivalenceResult EquivalenceResult.alpha
        EquivalenceResult.beta EquivalenceResult.residual EquivalenceResult.verdict
        TypeLabel TypeLabel.anchors_solved TypeLabel.evidence TypeLabel.notes
        TypeLabel.value action_equivalent boundary_solve classify default_sweep
        equivalence_test solve_boundary_dense
    """,
    "scars": """
        FitResult FitResult.exponent FitResult.prefactor FitResult.prefactor_complex
        FitResult.stderr VarianceScan VarianceScan.fit VarianceScan.points expectation
        loglog_fit variance variance_scan_n variance_scan_q
    """,
    "dynamics": """
        Dispersion Dispersion.alpha Dispersion.beta Dispersion.eps
        Dispersion.velocity_scale Dispersion.w DropletRun DropletRun.dispersion
        DropletRun.m_size DropletRun.momenta DropletRun.n_sites QuadratureError chop fq
        imhop integer_g_times occupations orbital_amplitudes rehop scaling_fit
        upsilon_finite upsilon_series upsilon_thermo
    """,
    "mps": """
        MPSTensor MPSTensor.bond MPSTensor.d MPSTensor.data NotInjective
        NotInjective.max_block NotSymmetricError boundary_operators builtin_aklt
        builtin_ssh classify_symmetry_generator injectivity_length is_full_rank
        push_through_check spin1_matrix ssh_sz_matrix to_dense transfer_matrix
        transfer_spectrum truncated_symmetry_action verify_boundary_action
    """,
    "cli": """
        build_parser main run
    """,
}


def _public_members(module):
    """(qualified name, object) for the module's own public functions and classes,
    and each such class's public methods, properties and dataclass fields (None)."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            yield from ((f"{name}.{attr}", member) for attr, member in vars(obj).items()
                        if not attr.startswith("_")
                        and (inspect.isfunction(member) or isinstance(member, property)))
            yield from ((f"{name}.{field}", None)
                        for field in getattr(obj, "__dataclass_fields__", {}))


def _public_callables(module):
    """(qualified name, function) for the module's own public functions and
    the public methods of its own public classes."""
    return [(name, obj) for name, obj in _public_members(module) if inspect.isfunction(obj)]


def test_defaulted_parameters_are_pinned():
    found = []
    for short in MODULES:
        module = importlib.import_module(f"scartypes.{short}")
        for name, fn in _public_callables(module):
            found += [f"{short}.{name}:{p.name}"
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    assert found == OPTIONS


def test_public_names_are_pinned():
    for short in MODULES:
        module = importlib.import_module(f"scartypes.{short}")
        found = sorted(name for name, _ in _public_members(module))
        assert found == SURFACE[short].split(), short


def _reads(path: Path) -> dict:
    """{top-level def/class name, or None for other statements: the names,
    attributes and imported names read inside it}."""
    reads = {}
    for stmt in ast.parse(path.read_text()).body:
        owner = stmt.name if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        found = reads.setdefault(owner, set())
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return reads


def test_every_public_name_has_a_reader():
    reads = {path: _reads(path) for path in READERS}
    unread = []
    for short, names in SURFACE.items():
        own = ROOT / "src" / "scartypes" / f"{short}.py"
        for name in names.split():
            if "." not in name and not any(
                    name in found for path, by_owner in reads.items()
                    for owner, found in by_owner.items()
                    if not (path == own and owner == name)):
                unread.append(f"{short}.{name}")
    assert unread == []


def test_every_private_function_and_class_has_a_package_reader():
    reads = {path: _reads(path) for path in PACKAGE}
    unread = []
    for own in PACKAGE:
        for stmt in ast.parse(own.read_text()).body:
            name = getattr(stmt, "name", "")
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and name.startswith("_") and not any(
                        name in found for path, by_owner in reads.items()
                        for owner, found in by_owner.items()
                        if not (path == own and owner == name)):
                unread.append(f"{own.stem}.{name}")
    assert unread == []


def test_one_dense_state_decoder():
    # opspace._support is the one place that reads a dense state's nonzero
    # entries; nullspace reads support forms only and imports no states
    found = []
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute) and node.attr == "flatnonzero") or \
                        (isinstance(node, ast.Name) and node.id == "flatnonzero") or \
                        (isinstance(node, ast.alias) and node.name == "flatnonzero"):
                    found.append(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    assert found == ["opspace._support"]
    tree = ast.parse((ROOT / "src" / "scartypes" / "nullspace.py").read_text())
    imported = [alias.name.rpartition(".")[2] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    imported += [node.module.rpartition(".")[2] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert "states" not in imported
