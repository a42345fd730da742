"""Unified command-line driver with JSON reports and CSV series output.

Subcommands: decompose, classify, scan-classes, variance, droplet, mps.
Every JSON report embeds the parsed configuration, the seed and the
library version ("schema": 1), so a run repeats byte for byte on one
numpy/BLAS build; rounding-level digits (a residual near 1e-16) can move
with the build or with the rows a solve keeps.
Exit codes: 0 success, 2 precondition failure, 3 indeterminate
classification, 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import cache, partial
from itertools import islice

import numpy as np

from . import __version__, boundary, canonical, dynamics, mps, nullspace
from . import opspace, scars, states

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_INDETERMINATE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


_STATES = {
    "vacuum": (states.vacuum, {}),
    "w": (states.w_state, {}),
    "wq": (states.w_q, {"m": 1}),
    "wp": (states.w_p, {"p": 2}),
    "droplet": (states.droplet, {"M": None, "p": 1}),    # M defaults to N
}

# built-in MPS tensors, each with the generator names it takes
_MPS = {
    "aklt": (mps.builtin_aklt, {f"s{axis}": (partial(mps.spin1_matrix, axis), {})
                                for axis in "xyz"}),
    "ssh": (mps.builtin_ssh, {"sz": (mps.ssh_sz_matrix, {})}),
}

_DISPERSIONS = {
    "rehop": (dynamics.rehop, {"w": 1.0}),
    "imhop": (dynamics.imhop, {"w": 1.0}),
    "chop": (dynamics.chop, {"a": 0.5, "b": 0.5, "w": 1.0}),
}


def _build(spec: str, table: dict, what: str, *lead):
    """Build ``name`` or ``name:key=value,...`` from ``table``.

    ``table`` maps names to (constructor, {key: default}), keys in parameter
    order after the ``lead`` arguments; a value takes its default's type, a
    None default stands for N = lead[0].  An unknown name or key, or a value
    that does not convert, raises ValueError.
    """
    name, _, arg_txt = spec.partition(":")
    name = name.strip().lower()
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}; have {', '.join(sorted(table))}")
    build, defaults = table[name]
    kwargs = {k: lead[0] if v is None else v for k, v in defaults.items()}
    for pair in filter(None, arg_txt.split(",")):
        key, _, val = pair.partition("=")
        key = key.strip()
        if key not in kwargs:
            raise ValueError(f"{what} {name} takes keys {', '.join(kwargs) or '(none)'};"
                             f" unknown: {key}")
        kind = type(kwargs[key])
        try:
            kwargs[key] = kind(val)
        except ValueError:
            raise ValueError(f"{what} {name}: {key}={val!r} is not {kind.__name__}") from None
    return build(*lead, *kwargs.values())


def _load_hamiltonian(spec: str, n_sites: int) -> opspace.LocalOperator:
    """Builtin name, name:key=value options, or a .op file path."""
    if os.path.exists(spec) or spec.endswith(".op"):
        with open(spec) as fh:
            return opspace.parse_operator(fh.read(), n_sites)
    return _build(spec, canonical.BUILTINS, "Hamiltonian", n_sites)


def _states_arg(text: str, n_sites: int):
    """Comma-separated state specs; a bare key=value token continues the spec before it."""
    specs = []
    for tok in text.split(","):
        if specs and "=" in tok and ":" not in tok:
            specs[-1] += ("," if ":" in specs[-1] else ":") + tok
        else:
            specs.append(tok)
    return [_build(spec, _STATES, "state", n_sites) for spec in specs]


def _emit(report: dict, args) -> None:
    report["schema"] = 1
    report["version"] = __version__
    text = json.dumps(report, indent=2, sort_keys=True, default=_jsonable)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _csv_blocks(rows, formats):
    """(text, line count) blocks of up to 4096 lines, one line per row tuple,
    its values formatted by ``formats`` ('%.12g', '%d'); ``rows`` may be any
    iterable and is read as the blocks are."""
    line = ",".join(formats) + "\n"
    rows = iter(rows)
    while chunk := [line % row for row in islice(rows, 4096)]:
        yield "".join(chunk), len(chunk)


def _write_csv(path, header, blocks) -> int:
    """The header line, then each (text, line count) block as it comes from
    ``blocks`` (see _csv_blocks); returns the number of lines after the header."""
    written = 0
    with (contextlib.nullcontext(sys.stdout) if path in (None, "-")
          else open(path, "w")) as fh:
        fh.write(",".join(header) + "\n")
        for text, count in blocks:
            fh.write(text)
            written += count
    return written


def _write_plot_blocks(path, blocks):
    """Gnuplot-ready data: '# label' headed blocks separated by blank lines,
    each written as it comes from the ``blocks`` iterable."""
    with open(path, "w") as fh:
        for k, (label, rows) in enumerate(blocks):
            body = "\n".join(" ".join(f"{v:.12g}" for v in row) for row in rows)
            fh.write(("\n\n" if k else "") + f"# {label}\n{body}")
        fh.write("\n")


# -- subcommands ---------------------------------------------------------------

def _cmd_decompose(args) -> int:
    h = _load_hamiltonian(args.ham, args.N)
    form = canonical.decompose(h)
    _emit({
        "config": _config(args),
        "Omega": form.omega_id,
        "omega": complex(form.omega_n),
        "t": form.t_im,
        "annihilator_count": len(form.annihilators),
        "residual": form.residual_norm,
    }, args)
    return EXIT_OK


def _cmd_classify(args) -> int:
    h = _load_hamiltonian(args.ham, args.N)
    psis = _states_arg(args.states, args.N)
    label = boundary.classify(h, psis, r_max=args.Rmax)
    _emit({
        "config": _config(args),
        "type": label.value,
        "evidence": [{"R_max": r, "patch_length": l,
                      "residual_general": g, "residual_hermitian": hh}
                     for r, l, g, hh in label.evidence],
        "notes": list(label.notes),
        "anchors_solved": list(label.anchors_solved),
    }, args)
    return EXIT_INDETERMINATE if label.value == "indeterminate" else EXIT_OK


def _cmd_scan_classes(args) -> int:
    psis = _states_arg(args.states, args.N)
    res = nullspace.count_type_classes(args.N, args.R, args.Rp, psis,
                                       degenerate=args.degenerate)
    _emit({
        "config": _config(args),
        "N_II": res.n_ii,
        "N_III": res.n_iii,
        "dims": res.dims,
        "tol": nullspace.NULL_TOL,
    }, args)
    return EXIT_OK


def _cmd_variance(args) -> int:
    def build(n):
        if args.ham != "random":
            return _load_hamiltonian(args.ham, n)
        return canonical.random_type1(n, np.random.default_rng(args.seed)) \
            + canonical.h_imhop(n)

    if args.scan == "q":
        if not 1 <= args.points <= args.N // 2:     # q = 2 pi m / N up to pi, each once
            raise ValueError(f"--points must be in 1..N//2 = {args.N // 2}, got {args.points}")
        scan = scars.variance_scan_q(build(args.N), args.N, list(range(1, args.points + 1)))
    else:
        scan = scars.variance_scan_n(build, args.p, [int(x) for x in args.N_list.split(",")])
    rows = [(float(c), float(e), float(v)) for c, e, v in scan.points]
    if args.csv:
        _write_csv(args.csv, ("control", "expectation", "variance"),
                   _csv_blocks(rows, ("%.12g",) * 3))
    fit = None
    if scan.fit is not None:
        fit = {"exponent": scan.fit.exponent, "prefactor": scan.fit.prefactor,
               "stderr": scan.fit.stderr}
    _emit({"config": _config(args), "fit": fit, "points": rows}, args)
    return EXIT_OK


def _cmd_droplet(args) -> int:
    disp = _build(args.dispersion, _DISPERSIONS, "dispersion")
    run = dynamics.DropletRun(args.N, args.M, disp)
    rate = {"0": 0.0, "wt": disp.w, "bwt": disp.beta * disp.w}.get(args.G)
    shift = float(args.G) if rate is None else 0.0   # fixed translation
    if args.steps < 0 or not np.isfinite([args.tmax, shift]).all():
        raise ValueError("droplet needs --steps >= 0 and finite --tmax and --G")
    times = np.linspace(0.0, args.tmax, args.steps + 1)
    csv_target = args.csv or "-"
    if args.observable == "occupations":
        per_block = max(1, 2 ** 16 // args.N)

        def profiles():                   # (t, [n_1..n_N]), a block of times at once
            for lo in range(0, len(times), per_block):
                ts = times[lo:lo + per_block]
                yield from zip(ts.tolist(), dynamics.occupations(run, ts).tolist())
        cells = [f",{j},%.12g\n" for j in range(1, args.N + 1)]   # line j after its t

        def blocks():                     # per time: t formatted once, its N lines by one %
            for t, row in profiles():
                stamp = "%.12g" % t
                yield (stamp + stamp.join(cells)) % tuple(row), len(row)
        rows = _write_csv(csv_target, ("t", "j", "n_j"), blocks())
        if args.emit_plot:
            _write_plot_blocks(args.emit_plot, ((f"t = {t:g}", enumerate(row, 1))
                                                for t, row in profiles()))
    else:
        ups = dynamics.upsilon_series(run, args.tmax / max(args.steps, 1), args.steps,
                                      rate or 0.0, shift)
        series = [(t, u.real, u.imag) for t, u in zip(times[1:].tolist(), ups.tolist())]
        rows = _write_csv(csv_target, ("t", "ReUpsilon", "ImUpsilon"),
                          _csv_blocks(series, ("%.12g",) * 3))
        if args.emit_plot:
            _write_plot_blocks(args.emit_plot, [("upsilon", series)])
    if args.out:
        _emit({"config": _config(args), "rows": rows}, args)
    return EXIT_OK


def _load_complex_array(path: str) -> np.ndarray:
    """JSON tensor format: {"shape": [...], "data": [{"re":..,"im":..}, ...]}.

    Content in any other form raises ValueError naming the file.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
            flat = np.array([complex(z["re"], z.get("im", 0.0)) for z in payload["data"]])
            return flat.reshape(payload["shape"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"{path}: not a JSON tensor file ({exc})") from None


def _cmd_mps(args) -> int:
    if args.tensor in _MPS:
        tensor, generators = _MPS[args.tensor]
        gen = _build(args.generator, generators, f"{args.tensor} generator")
        a = tensor()
    else:
        a = mps.MPSTensor(_load_complex_array(args.tensor))
        gen = _load_complex_array(args.generator)
    spectrum = mps.transfer_spectrum(a)
    r_inj = mps.injectivity_length(a)
    label = mps.classify_symmetry_generator(a, gen)
    _emit({
        "config": _config(args),
        "rank_full": mps.is_full_rank(a),
        "transfer_eigenvalues": [complex(z) for z in spectrum],
        "injectivity_length": (r_inj if isinstance(r_inj, int)
                               else f"not injective up to {r_inj.max_block}"),
        "type": label.value,
        "residuals": [{"theta": t, "push_through": r, "nontrivial_V": nt}
                      for t, r, nt in label.evidence],
        "notes": list(label.notes),
    }, args)
    return EXIT_INDETERMINATE if label.value == "indeterminate" else EXIT_OK


def _config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def build_parser() -> _Parser:
    parser = _Parser(prog="scartypes",
                     description="Parent-Hamiltonian classification toolkit")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="canonical W-parent decomposition")
    p.add_argument("--ham", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("classify", help="boundary-action type classification")
    p.add_argument("--ham", required=True)
    p.add_argument("--states", default="vacuum,w")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--Rmax", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan-classes", help="type II/III equivalence-class counts")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--Rp", type=int, required=True)
    p.add_argument("--states", default="vacuum,w")
    p.add_argument("--degenerate", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scan_classes)

    p = sub.add_parser("variance", help="asymptotic-scar variance scans")
    p.add_argument("--scan", choices=("q", "N"), required=True)
    p.add_argument("--ham", default="random")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--N", type=int, default=12)
    p.add_argument("--N-list", dest="N_list", default="8,10,12")
    p.add_argument("--points", type=int, default=4)
    p.add_argument("--csv", default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("droplet", help="droplet quench dynamics")
    p.add_argument("--dispersion", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--tmax", type=float, default=100.0)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--G", default="0")
    p.add_argument("--observable", choices=("occupations", "upsilon"),
                   default="upsilon")
    p.add_argument("--csv", default=None)
    p.add_argument("--out")
    p.add_argument("--emit-plot", dest="emit_plot")
    p.set_defaults(func=_cmd_droplet)

    p = sub.add_parser("mps", help="MPS symmetry-generator classification")
    p.add_argument("--tensor", required=True)
    p.add_argument("--generator", default="sz")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mps)
    return parser


@cache
def _parser() -> _Parser:
    """The argparse tree, built once per process; parsing does not change it."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
