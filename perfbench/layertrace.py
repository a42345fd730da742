"""Per-layer tracing of the scartypes modules, installed from outside the package.

`install` replaces the public functions listed in GROUPS with timing
wrappers: module attributes everywhere the function object is bound (so a
name another module imported directly is wrapped too), or class
attributes for LocalOperator methods.  A name that no longer exists is
skipped and its group reads zero.

Spans are aggregated in memory as they close and nothing is written until
the run ends.  A group's self time is its span durations minus the time
covered by the wrapped calls it made; calls are synchronous and nested, so
child spans never overlap.  Counts whose names end in `_computed`, and
`opspace.hs_inner.pairs`, are derived from argument shapes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

GROUPS = {
    "opspace.algebra": [
        "opspace:LocalOperator.__add__", "opspace:LocalOperator.__sub__",
        "opspace:LocalOperator.__mul__", "opspace:LocalOperator.__rmul__",
        "opspace:LocalOperator.__neg__", "opspace:LocalOperator.dagger",
        "opspace:LocalOperator.hermitian",
        "opspace:string_term", "opspace:identity", "opspace:zero"],
    "opspace.apply": ["opspace:apply"],
    "opspace.convert": ["opspace:to_pauli_basis", "opspace:to_boson_basis"],
    "opspace.hs_inner": ["opspace:hs_inner", "opspace:hs_norm"],
    "opspace.truncate": ["opspace:truncate"],
    "opspace.to_matrix": ["opspace:to_matrix"],
    "opspace.text": ["opspace:parse_operator", "opspace:format_operator"],
    "states.build": ["states:vacuum", "states:w_state", "states:w_p",
                     "states:w_q", "states:droplet", "states:state_by_name"],
    "nullspace.basis": ["nullspace:pauli_string_basis", "nullspace:window_basis"],
    "nullspace.eigh": ["nullspace:null_space"],
    "nullspace.correlation": ["nullspace:build_correlation"],
    "nullspace.rank": ["nullspace:real_rank"],
    "nullspace.count": ["nullspace:count_type_classes"],
    "canonical.builtin": [
        "canonical:builtin", "canonical:n_tot", "canonical:h_imhop",
        "canonical:h_rehop", "canonical:h_imhop2", "canonical:h_imhop_p",
        "canonical:h_dmi", "canonical:h_heis", "canonical:p_re",
        "canonical:p_im", "canonical:p_nonherm"],
    "canonical.random_type1": ["canonical:random_type1"],
    "canonical.decompose": ["canonical:decompose", "canonical:decompose_general"],
    "boundary.solve": ["boundary:boundary_solve"],
    "boundary.spectral_norm": ["boundary:spectral_norm"],
    "boundary.lstsq": ["boundary:solve_boundary_dense"],
    "boundary.classify": ["boundary:classify"],
    "boundary.equivalence": ["boundary:equivalence_test",
                             "boundary:action_equivalent"],
    "scars.variance": ["scars:expectation", "scars:variance",
                       "scars:variance_scan_q", "scars:variance_scan_n"],
    "dynamics.upsilon": ["dynamics:upsilon_finite", "dynamics:occupations",
                         "dynamics:upsilon_thermo"],
    "mps.classify": ["mps:transfer_spectrum", "mps:injectivity_length",
                     "mps:push_through_check",
                     "mps:classify_symmetry_generator"],
    "cli.run": ["cli:run"],
}


def _terms_out(args, result):
    return {"opspace.algebra.terms_out": len(getattr(result, "terms", ()))}


def _terms_applied(args, result):
    return {"opspace.apply.terms_applied": len(args["op"].terms)}


def _pairs(args, result):
    return {"opspace.hs_inner.pairs": len(args["a"].terms) * len(args["b"].terms)}


def _applies(args, result):
    return {"nullspace.correlation.applies":
            len(args["basis"]) * len(args["states_list"])}


def _rank_work(args, result):
    rows = args["rows"]
    if rows.size == 0:
        return {}
    m, n = rows.shape
    return {"nullspace.rank.flops_computed": m * n * min(m, n),
            "nullspace.rank.bytes_computed": 8 * m * n}


def _lstsq_cells(args, result):
    psis, d = args["psis"], args["local_dim"]
    rows = len(psis) * psis[0].size * (2 if args["hermitian"] else 1)
    cols = (d ** (2 * len(args["left_sites"])) - 1
            + d ** (2 * len(args["right_sites"])) - 1 + len(psis))
    return {"boundary.lstsq.cells_computed": rows * cols}


# wrapped name -> function(arguments by name, result) -> {counter: increment}.
# The algebra counter needs only the result; its calls skip argument binding
# and get None for the arguments.
COUNTERS = {
    "opspace:apply": _terms_applied,
    "opspace:hs_inner": _pairs,
    "nullspace:build_correlation": _applies,
    "nullspace:real_rank": _rank_work,
    "boundary:solve_boundary_dense": _lstsq_cells,
}
COUNTERS.update({spec: _terms_out for spec in GROUPS["opspace.algebra"]})

EXTRA_COUNTS = ("opspace.algebra.terms_out", "opspace.apply.terms_applied",
                "opspace.hs_inner.pairs", "nullspace.correlation.applies",
                "nullspace.rank.flops_computed", "nullspace.rank.bytes_computed",
                "boundary.lstsq.cells_computed")


class Tracer:
    """In-memory span aggregation: calls and self time per group, counts,
    caller->callee edges and the time covered by outermost spans."""

    def __init__(self):
        self.calls = dict.fromkeys(GROUPS, 0)
        self.self_s = dict.fromkeys(GROUPS, 0.0)
        self.counts = dict.fromkeys(EXTRA_COUNTS, 0)
        self.edges: dict = {}
        self.covered_s = 0.0
        self._stack: list = []

    def wrap(self, group: str, fn, counter=None):
        stack, clock = self._stack, time.perf_counter
        signature = (inspect.signature(fn)
                     if counter is not None and counter is not _terms_out else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [group, 0.0]          # [group, time covered by children]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                self.calls[group] += 1
                self.self_s[group] += span - frame[1]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += span
                else:
                    self.covered_s += span
                edge = self.edges.setdefault((parent, group), [0, 0.0])
                edge[0] += 1
                edge[1] += span
            if counter is not None:
                arguments = None
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                for key, inc in counter(arguments, result).items():
                    self.counts[key] += inc
            return result
        return traced

    def install(self, package: str = "scartypes") -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for group, specs in GROUPS.items():
            for spec in specs:
                mod_name, _, attr = spec.partition(":")
                owner = sys.modules.get(f"{package}.{mod_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, leaf, None) if owner is not None else None
                if not callable(orig):
                    continue
                wrapped = self.wrap(group, orig, COUNTERS.get(spec))
                if path:
                    setattr(owner, leaf, wrapped)
                else:
                    for mod in modules:
                        for name in [k for k, v in vars(mod).items() if v is orig]:
                            setattr(mod, name, wrapped)

    def report(self) -> dict:
        """Totals since install, as plain data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "covered_s": self.covered_s,
            "edges": [{"caller": caller, "callee": callee,
                       "calls": calls, "total_s": total}
                      for (caller, callee), (calls, total)
                      in sorted(self.edges.items(), key=lambda kv: -kv[1][1])],
        }
