"""Command-line driver: subcommands, exit codes, schemas, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scartypes import boundary, canonical, cli, dynamics, opspace, states
from scartypes.cli import run
from operator_oracles import operators_equal
from test_dynamics import _reference_occupations, _reference_upsilon


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def _invoke_with_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv):
    """(exit code, stdout, stderr) of the command in its own interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "scartypes.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


class TestClassify:
    def test_ntot_is_type_three(self):
        code, out = invoke(["classify", "--ham", "n_tot",
                            "--states", "w,vacuum", "--N", "10"])
        report = json.loads(out)
        assert code == 0
        assert report["type"] == "III"
        assert report["schema"] == 1
        assert all("residual_general" in row for row in report["evidence"])

    def test_anchors_solved(self):
        # {W, vacuum} are translation eigenstates: anchor 0 stands for both;
        # the droplet is not one, so anchors 0 and N//3 are both solved
        for states_arg, anchors in (("w,vacuum", [0]), ("vacuum,droplet:M=3", [0, 3])):
            code, out = invoke(["classify", "--ham", "n_tot", "--states", states_arg,
                                "--N", "10"])
            assert code == 0
            assert json.loads(out)["anchors_solved"] == anchors

    @pytest.mark.parametrize("ham,verdict", [("h_imhop", "II"), ("h_rehop", "I"),
                                             ("h_dmi", "II"), ("n_tot", "III")])
    def test_ring_of_two_rmax_plus_four(self, ham, verdict):
        # N = 2 R_max + 4: the left/right-independence patch cannot grow
        code, out = invoke(["classify", "--ham", ham, "--N", "8"])
        assert (code, json.loads(out)["type"]) == (0, verdict)

    def test_indeterminate_exits_3(self, tmp_path):
        # h_imhop + 1e-5 n_tot: general residual 1.7e-5, inside the 1e-8 / 1e-3 dead zone
        n = 10
        path = tmp_path / "ham.op"
        path.write_text(opspace.format_operator(canonical.h_imhop(n)
                                                + 1e-5 * canonical.n_tot(n)) + "\n")
        code, out = invoke(["classify", "--ham", str(path), "--N", str(n)])
        report = json.loads(out)
        assert (code, report["type"]) == (3, "indeterminate")
        assert max(row["residual_general"] for row in report["evidence"]) > boundary.ACCEPT

    def test_default_reports_byte_identical(self):
        argv = ["classify", "--ham", "h_imhop", "--states", "w,vacuum", "--N", "10"]
        assert invoke(argv) == invoke(argv)

    def test_non_eigenstate_precondition(self):
        # the droplet is no eigenstate of h_rehop: ||(H - E)psi|| = 0.47
        code, out = invoke(["classify", "--ham", "h_rehop",
                            "--states", "droplet:M=3", "--N", "10"])
        assert code == 2
        assert out == ""

    def test_zero_window_precondition(self):
        code, out = invoke(["classify", "--ham", "n_tot", "--states", "w,vacuum",
                            "--N", "10", "--Rmax", "0"])
        assert code == 2
        assert out == ""

    def test_empty_sweep_precondition(self):
        # N=3 leaves no patch between 2 R_max + 2 sites and N - 2 sites
        code, out = invoke(["classify", "--ham", "n_tot", "--N", "3"])
        assert code == 2
        assert out == ""

    def test_missing_operator_file(self, tmp_path, capsys):
        code, out = invoke(["classify", "--ham", str(tmp_path / "missing.op"),
                            "--N", "10"])
        assert code == 2
        assert out == ""
        assert "error" in json.loads(capsys.readouterr().err)

    def test_non_hermitian_exit_2(self, capsys):
        code, out = invoke(["classify", "--ham", "p_nonherm", "--N", "10"])
        assert (code, out) == (2, "")
        assert "Hermitian" in json.loads(capsys.readouterr().err)["error"]


class TestDecompose:
    def test_builtin(self):
        code, out = invoke(["decompose", "--ham", "h_rehop", "--N", "10"])
        report = json.loads(out)
        assert code == 0
        assert report["omega"] == {"im": 0.0, "re": 0.0}
        assert report["t"] == 0.0
        assert report["annihilator_count"] > 0
        assert report["residual"] < 1e-10

    def test_operator_file(self, tmp_path):
        path = tmp_path / "ham.op"
        path.write_text("1.0 * n@0 ; 1.0 * n@1 ; 1.0 * n@2 ; 1.0 * n@3 ; "
                        "1.0 * n@4 ; 1.0 * n@5 ; 1.0 * n@6 ; 1.0 * n@7\n")
        code, out = invoke(["decompose", "--ham", str(path), "--N", "8"])
        report = json.loads(out)
        assert code == 0
        assert report["omega"]["re"] == pytest.approx(1.0)

    def test_written_operator_file_is_exact(self, tmp_path):
        h = canonical.random_type1(10, np.random.default_rng(5), translation_invariant=False)
        path = tmp_path / "ham.op"
        path.write_text(opspace.format_operator(h) + "\n")
        code, out = invoke(["decompose", "--ham", str(path), "--N", "10"])
        assert code == 0
        assert json.loads(out)["residual"] == 0.0

    def test_mixed_code_families_decompose_as_builtin(self, tmp_path):
        # h_rehop plus i x - i sd - i s, which is zero but mixes the two code families
        path = tmp_path / "ham.op"
        path.write_text(opspace.format_operator(canonical.h_rehop(8))
                        + " ; 1i * x@0 ; -1i * sd@0 ; -1i * s@0\n")

        def canonical_form(ham):
            report = json.loads(invoke(["decompose", "--ham", ham, "--N", "8"])[1])
            return report["Omega"], report["omega"], report["t"]
        assert canonical_form(str(path)) == canonical_form("h_rehop")

    @pytest.mark.parametrize("coeff", ["nan", "inf", "1+nani"])
    def test_non_finite_coefficient_exit_2(self, tmp_path, capsys, coeff):
        path = tmp_path / "ham.op"
        path.write_text(f"{coeff} * n@0\n")
        assert invoke(["decompose", "--ham", str(path), "--N", "8"]) == (2, "")
        assert "non-finite coefficient" in json.loads(capsys.readouterr().err)["error"]

    def test_non_eigenstate_precondition(self, tmp_path, capsys):
        path = tmp_path / "bad.op"
        path.write_text("1.0 * n@0\n")
        code, out = invoke(["decompose", "--ham", str(path), "--N", "8"])
        assert (code, out) == (2, "")
        assert "not an eigenstate" in json.loads(capsys.readouterr().err)["error"]

    def test_window_wider_than_ring(self, capsys):
        code, out = invoke(["decompose", "--ham", "h_imhop2", "--N", "2"])
        assert code == 2
        assert out == ""
        assert "exceeds the ring" in json.loads(capsys.readouterr().err)["error"]


class TestScanClasses:
    def test_w_vacuum_counts(self):
        code, out = invoke(["scan-classes", "--N", "8", "--R", "2", "--Rp", "2",
                            "--states", "w,vacuum"])
        report = json.loads(out)
        assert code == 0
        assert (report["N_II"], report["N_III"]) == (1, 1)
        assert report["tol"] == 1e-10
        assert "ZH_glo" in report["dims"]

    @pytest.mark.parametrize("n, r_loc", [("8", "2"), ("7", "3")])
    def test_no_global_operator(self, n, r_loc):
        # degenerate {W, vacuum} at R = 1 leaves ZH_glo empty: no class, exit 0
        code, out = invoke(["scan-classes", "--N", n, "--R", "1", "--Rp", r_loc,
                            "--states", "w,vacuum", "--degenerate"])
        report = json.loads(out)
        assert code == 0
        assert (report["N_II"], report["N_III"], report["dims"]["ZH_glo"]) == (0, 0, 0)

    def test_capacity_exit_code(self):
        code, _ = invoke(["scan-classes", "--N", "14", "--R", "2", "--Rp", "2",
                          "--states", "vacuum"])
        assert code == 2

    def test_window_order_error_on_stderr(self, capsys):
        code, out = invoke(["scan-classes", "--N", "8", "--R", "3", "--Rp", "2"])
        assert (code, out) == (2, "")
        assert "R' >= R" in json.loads(capsys.readouterr().err)["error"]

    def test_unnormalized_state_exit_2(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._STATES, "w", (lambda n: 0.5 * states.w_state(n), {}))
        code, out = invoke(["scan-classes", "--N", "8", "--R", "2", "--Rp", "3",
                            "--states", "w,vacuum"])
        assert (code, out) == (2, "")
        assert "norm" in json.loads(capsys.readouterr().err)["error"]


class TestDroplet:
    def test_csv_matches_module(self):
        code, out = invoke(["droplet", "--dispersion", "chop:a=0.5,b=0.5",
                            "--N", "201", "--M", "51", "--tmax", "10",
                            "--steps", "2", "--observable", "occupations"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,j,n_j"
        run_ = dynamics.DropletRun(201, 51, dynamics.chop(0.5, 0.5))
        occ = dynamics.occupations(run_, 10.0)
        rows = [l.split(",") for l in lines[1:] if l.startswith("10,")]
        got = {int(j): float(v) for _, j, v in rows}
        assert len(got) == 201
        assert max(abs(got[j + 1] - occ[j]) for j in range(201)) < 1e-9

    def test_upsilon_series(self, tmp_path):
        csv_path = tmp_path / "ups.csv"
        code, out = invoke(["droplet", "--dispersion", "imhop", "--N", "200",
                            "--M", "50", "--tmax", "20", "--steps", "4",
                            "--G", "wt", "--csv", str(csv_path)])
        assert code == 0
        header, *rows = csv_path.read_text().strip().splitlines()
        assert header == "t,ReUpsilon,ImUpsilon"
        assert len(rows) == 4

    @pytest.mark.parametrize("observable,g_arg", [
        ("occupations", "0"), ("upsilon", "wt"), ("upsilon", "1.5")])
    def test_csv_equals_per_time_reference(self, observable, g_arg):
        code, out = invoke(["droplet", "--dispersion", "chop:a=0.3,b=0.8,w=1.2",
                            "--N", "150", "--M", "31", "--tmax", "25",
                            "--steps", "5", "--G", g_arg,
                            "--observable", observable])
        assert code == 0
        disp = dynamics.chop(0.3, 0.8, 1.2)
        run_ = dynamics.DropletRun(150, 31, disp)
        times = np.linspace(0.0, 25.0, 6)
        if observable == "occupations":
            lines = ["t,j,n_j"] + [
                f"{t:.12g},{j},{n_j:.12g}" for t in times
                for j, n_j in enumerate(_reference_occupations(run_, t), 1)]
            assert out == "\n".join(lines) + "\n"
            return
        # the grid summation may move Upsilon in its 12th digit: t stays exact,
        # Re and Im are compared as numbers
        g_of = (lambda t: disp.w * t) if g_arg == "wt" else (lambda t: 1.5)
        header, *rows = out.splitlines()
        assert header == "t,ReUpsilon,ImUpsilon" and len(rows) == 5
        for t, row in zip(times[1:], rows):
            t_text, re_text, im_text = row.split(",")
            assert t_text == f"{t:.12g}"
            want = _reference_upsilon(run_, t, g_of(t))
            assert abs(complex(float(re_text), float(im_text)) - want) < 1e-12

    def test_csv_row_format_matches_per_value_format(self, tmp_path):
        # one '%' per row writes what formatting each value on its own wrote
        rows = [(float("nan"), 1, float("inf")), (-0.0, 2, -float("inf")),
                (1.0 / 3.0, 10251, -2.5e-300), (0.1, 0, 123456789012345.0)]
        want = "t,j,n_j\n" + "".join(
            ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows)
        assert "nan,1,inf" in want and "-0,2,-inf" in want
        path = tmp_path / "rows.csv"
        cli._write_csv(str(path), ("t", "j", "n_j"), rows, ("%.12g", "%d", "%.12g"))
        assert path.read_text() == want
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli._write_csv("-", ("t", "j", "n_j"), rows, ("%.12g", "%d", "%.12g"))
        assert buf.getvalue() == want

    @pytest.mark.parametrize("extra", [
        ["--tmax", "inf"], ["--tmax", "nan"], ["--G", "nan"], ["--G", "inf"],
        ["--steps", "-1"], ["--dispersion", "chop:a=0.5,b=nan"],
        ["--dispersion", "rehop:w=inf", "--observable", "occupations"]])
    def test_non_finite_or_negative_inputs_exit_2(self, extra):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = invoke(["droplet", "--dispersion", "imhop", "--N", "40",
                                "--M", "8", "--steps", "3"] + extra)
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err.getvalue())

    @pytest.mark.parametrize("spec,allowed", [("chop:alpha=0.9", "a, b, w"),
                                              ("rehop:a=3,bogus=1", "w")])
    def test_unknown_dispersion_key_exit_2(self, spec, allowed):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = invoke(["droplet", "--dispersion", spec, "--N", "40",
                                "--M", "8", "--steps", "3"])
        assert (code, out) == (2, "")
        assert f"takes keys {allowed};" in json.loads(err.getvalue())["error"]

    def test_zero_steps(self):
        code, out = invoke(["droplet", "--dispersion", "imhop", "--N", "40",
                            "--M", "8", "--steps", "0"])
        assert (code, out) == (0, "t,ReUpsilon,ImUpsilon\n")

    def test_json_report_to_out(self, tmp_path):
        report_path = tmp_path / "report.json"
        argv = ["droplet", "--dispersion", "imhop", "--N", "40", "--M", "8", "--steps", "3"]
        code, out = invoke(argv + ["--out", str(report_path)])
        assert (code, out) == (0, invoke(argv)[1])     # the CSV still goes to stdout
        report = json.loads(report_path.read_text())
        assert report["rows"] == 3 and report["schema"] == 1
        assert report["config"]["out"] == str(report_path)

    def test_emit_plot(self, tmp_path):
        plot = tmp_path / "blocks.dat"
        code, _ = invoke(["droplet", "--dispersion", "rehop", "--N", "100",
                          "--M", "20", "--tmax", "4", "--steps", "2",
                          "--observable", "occupations",
                          "--csv", str(tmp_path / "o.csv"),
                          "--emit-plot", str(plot)])
        assert code == 0
        text = plot.read_text()
        assert text.count("# t =") == 3
        assert "\n\n" in text

    def test_occupations_stream_across_time_blocks(self, tmp_path):
        # at N = 2000 a block holds 32 times, so 71 times are written as three
        plot, report = tmp_path / "blocks.dat", tmp_path / "report.json"
        code, out = invoke(["droplet", "--dispersion", "imhop", "--N", "2000",
                            "--M", "400", "--tmax", "30", "--steps", "70",
                            "--observable", "occupations", "--emit-plot", str(plot),
                            "--out", str(report)])
        assert code == 0
        run_ = dynamics.DropletRun(2000, 400, dynamics.imhop())
        profiles = [(t, _reference_occupations(run_, t))
                    for t in np.linspace(0.0, 30.0, 71)]
        assert out == "t,j,n_j\n" + "".join(
            f"{t:.12g},{j},{n_j:.12g}\n" for t, occ in profiles
            for j, n_j in enumerate(occ, 1))
        assert plot.read_text() == "\n\n".join(
            f"# t = {t:g}\n" + "\n".join(f"{j} {n_j:.12g}" for j, n_j in enumerate(occ, 1))
            for t, occ in profiles) + "\n"
        assert json.loads(report.read_text())["rows"] == 71 * 2000


class TestMpsCommand:
    def test_custom_tensor_file(self, tmp_path):
        from scartypes import mps
        a = mps.builtin_aklt()
        tensor_path = tmp_path / "aklt.json"
        tensor_path.write_text(json.dumps({
            "shape": [3, 2, 2],
            "data": [{"re": z.real, "im": z.imag} for z in a.data.ravel()]}))
        gen = mps.spin1_matrix("z")
        gen_path = tmp_path / "sz.json"
        gen_path.write_text(json.dumps({
            "shape": [3, 3],
            "data": [{"re": z.real, "im": z.imag} for z in gen.ravel()]}))
        code, out = invoke(["mps", "--tensor", str(tensor_path),
                            "--generator", str(gen_path)])
        report = json.loads(out)
        assert code == 0
        assert report["type"] == "II"

    @staticmethod
    def _json_array(path, array):
        path.write_text(json.dumps({
            "shape": list(array.shape),
            "data": [{"re": z.real, "im": z.imag} for z in array.ravel()]}))
        return str(path)

    def test_non_injective_tensor_file_is_indeterminate(self, tmp_path):
        from scartypes import mps
        doubled = np.stack([np.kron(np.eye(2), m) for m in mps.builtin_aklt().data])
        code, out = invoke(["mps", "--tensor", self._json_array(tmp_path / "t.json", doubled),
                            "--generator", self._json_array(tmp_path / "g.json",
                                                            mps.spin1_matrix("z"))])
        report = json.loads(out)
        assert code == 3
        assert (report["type"], report["notes"]) == ("indeterminate",
                                                     ["tensor not injective up to bound"])
        assert report["injectivity_length"] == "not injective up to 6"

    def test_injective_tensor_file_not_symmetric_exit_2(self, tmp_path, capsys):
        from scartypes import mps
        gen = np.array([[0.3, 0.2, 0], [0.2, -0.1, 0.4j], [0, -0.4j, 0.5]])
        code, out = invoke(["mps", "--tensor", self._json_array(tmp_path / "t.json",
                                                                mps.builtin_aklt().data),
                            "--generator", self._json_array(tmp_path / "g.json", gen)])
        assert (code, out) == (2, "")
        assert "residual 1.111e-01" in json.loads(capsys.readouterr().err)["error"]

    def test_missing_tensor_file(self, tmp_path, capsys):
        code, out = invoke(["mps", "--tensor", str(tmp_path / "nofile.json")])
        assert code == 2
        assert out == ""
        assert "error" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("content", [
        "[1, 2]",
        '{"shape": [1], "data": [{"re": "x"}]}',
        '{"shape": [1], "data": [{"re": null}]}',
    ], ids=["list", "re-string", "re-null"])
    def test_malformed_tensor_file_exit_2(self, tmp_path, content):
        path = tmp_path / "t.json"
        path.write_text(content)
        code, out, err = _invoke_with_stderr(["mps", "--tensor", str(path),
                                              "--generator", str(path)])
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and str(path) in json.loads(lines[0])["error"]

    def test_aklt_report(self):
        code, out = invoke(["mps", "--tensor", "aklt", "--generator", "sz"])
        report = json.loads(out)
        assert code == 0
        assert report["type"] == "II"
        assert report["injectivity_length"] == 2
        assert report["rank_full"] is True

    def test_ssh_report(self):
        code, out = invoke(["mps", "--tensor", "ssh", "--generator", "sz"])
        report = json.loads(out)
        assert code == 0
        assert report["type"] == "I"
        assert report["rank_full"] is False

    @pytest.mark.parametrize("tensor, generator, known", [
        ("aklt", "bogusz", "sx, sy, sz"),     # was read as its last letter, sz
        ("ssh", "sx", "sz"),                  # was ignored: the sz verdict
        ("aklt", "q", "sx, sy, sz"),          # was the bare KeyError text
    ])
    def test_unknown_generator_exit_2(self, capsys, tensor, generator, known):
        code, out = invoke(["mps", "--tensor", tensor, "--generator", generator])
        assert (code, out) == (2, "")
        error = json.loads(capsys.readouterr().err)["error"]
        assert f"{tensor} generator {generator!r}" in error and error.endswith(f"have {known}")


class TestVariance:
    def test_n_scan_fit(self):
        code, out = invoke(["--seed", "6", "variance", "--scan", "N",
                            "--p", "2", "--ham", "random",
                            "--N-list", "8,10,12"])
        report = json.loads(out)
        assert code == 0
        assert report["fit"]["exponent"] == pytest.approx(-1.0, abs=0.3)

    def test_n_scan_capacity(self, capsys):
        code, out = invoke(["variance", "--scan", "N", "--N-list", "8,16"])
        assert code == 0
        assert [p[0] for p in json.loads(out)["points"]] == [8.0, 16.0]
        assert invoke(["variance", "--scan", "N", "--N-list", "8,25"]) == (2, "")
        assert "dense-state guard" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("points", ["0", "-1", "5", "9"])
    def test_q_scan_points_within_half_ring(self, capsys, points):
        # m = 1..points; past N//2 the momenta 2 pi m / N pass pi and repeat
        assert invoke(["variance", "--scan", "q", "--N", "8", "--points", points]) == (2, "")
        assert "1..N//2 = 4" in json.loads(capsys.readouterr().err)["error"]
        code, out = invoke(["variance", "--scan", "q", "--N", "8", "--points", "4"])
        assert code == 0
        assert [q for q, *_ in json.loads(out)["points"]] == pytest.approx(
            [np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi])

    def test_q_scan_csv_and_fit(self, tmp_path):
        csv_path = tmp_path / "var.csv"
        code, out = invoke(["--seed", "6", "variance", "--scan", "q",
                            "--ham", "random", "--N", "10", "--points", "3",
                            "--csv", str(csv_path)])
        report = json.loads(out)
        assert code == 0
        header, *rows = csv_path.read_text().strip().splitlines()
        assert header == "control,expectation,variance"
        assert len(rows) == 3
        assert report["fit"] is None or "exponent" in report["fit"]


_N_SPEC = 8


def _dispersion(spec, n_sites):
    return cli._build(spec, cli._DISPERSIONS, "dispersion")


def _same(got, want):
    if isinstance(want, list):
        return len(got) == len(want) and all(map(np.array_equal, got, want))
    if isinstance(want, dynamics.Dispersion):
        return got == want
    return operators_equal(got, want, tol=0.0)


_GRAMMAR = [
    # every builtin, each documented key set to a non-default value
    *[(cli._load_hamiltonian, name, getattr(canonical, name))
      for name in ("n_tot", "h_imhop", "h_rehop", "h_imhop2", "h_heis")],
    (cli._load_hamiltonian, "h_imhop_p:p=3", lambda n: canonical.h_imhop_p(n, 3)),
    (cli._load_hamiltonian, "h_dmi:axis=x", lambda n: canonical.h_dmi(n, "x")),
    (cli._load_hamiltonian, "p_re:j=1,alpha=2", lambda n: canonical.p_re(n, 1, 2)),
    (cli._load_hamiltonian, "p_im:j=2,alpha=3", lambda n: canonical.p_im(n, 2, 3)),
    (cli._load_hamiltonian, "p_nonherm:j=3", lambda n: canonical.p_nonherm(n, 3)),
    (cli._load_hamiltonian, "H_ImHop_P", lambda n: canonical.h_imhop_p(n, 2)),
    # the five state names; a bare key=value continues the spec before it
    (cli._states_arg, "vacuum", lambda n: [states.vacuum(n)]),
    (cli._states_arg, "w", lambda n: [states.w_state(n)]),
    (cli._states_arg, "wq:m=3", lambda n: [states.w_q(n, 3)]),
    (cli._states_arg, "wp:p=2", lambda n: [states.w_p(n, 2)]),
    (cli._states_arg, "droplet:M=5,p=1", lambda n: [states.droplet(n, 5, 1)]),
    (cli._states_arg, "droplet", lambda n: [states.droplet(n, n, 1)]),
    (cli._states_arg, "droplet:M=4,p=2,vacuum,wq:m=2,w",
     lambda n: [states.droplet(n, 4, 2), states.vacuum(n), states.w_q(n, 2),
                states.w_state(n)]),
    (cli._states_arg, "droplet,p=2", lambda n: [states.droplet(n, n, 2)]),
    # the three dispersions, float values
    (_dispersion, "rehop:w=0.7", lambda n: dynamics.rehop(0.7)),
    (_dispersion, "imhop", lambda n: dynamics.imhop()),
    (_dispersion, "chop:a=0.3,b=0.8,w=2", lambda n: dynamics.chop(0.3, 0.8, 2.0)),
]

# each names the bad key or value its error must quote
_MALFORMED = [
    (["decompose", "--ham", "h_imhop_p:p=x"], "p='x'"),
    (["decompose", "--ham", "p_re:alpha=x"], "alpha='x'"),
    (["decompose", "--ham", "p_re:alpha="], "alpha=''"),
    (["decompose", "--ham", "h_rehop:bogus=1"], "unknown: bogus"),
    (["decompose", "--ham", "h_bogus"], "'h_bogus'"),
    (["classify", "--ham", "h_imhop", "--states", "wq:M=3,vacuum"], "unknown: M"),
    (["scan-classes", "--R", "2", "--Rp", "2", "--states", "wp:q=3"], "unknown: q"),
    (["classify", "--ham", "h_imhop", "--states", "wp:p=x"], "p='x'"),
    (["classify", "--ham", "h_imhop", "--states", "w,p=1"], "unknown: p"),
    (["classify", "--ham", "h_imhop", "--states", "ghz"], "'ghz'"),
    (["droplet", "--M", "4", "--dispersion", "chop:a=x"], "a='x'"),
]


class TestSpecGrammar:
    @pytest.mark.parametrize("read,spec,want", _GRAMMAR, ids=[c[1] for c in _GRAMMAR])
    def test_spec_builds(self, read, spec, want):
        assert _same(read(spec, _N_SPEC), want(_N_SPEC))

    @pytest.mark.parametrize("argv,named", _MALFORMED,
                             ids=[argv[-1] for argv, _ in _MALFORMED])
    def test_malformed_spec_exit_2(self, argv, named, capsys):
        code, out = invoke(argv + ["--N", str(_N_SPEC)])
        assert (code, out) == (2, "")
        assert named in json.loads(capsys.readouterr().err)["error"]

    def test_key_continues_state_spec(self):
        reports = []
        for states_arg in ("droplet:M=4,p=1,vacuum", "droplet:M=4,vacuum"):
            code, out = invoke(["scan-classes", "--N", "8", "--R", "2", "--Rp", "2",
                                "--states", states_arg])
            assert code == 0
            reports.append({k: v for k, v in json.loads(out).items() if k != "config"})
        assert reports[0] == reports[1]


class TestProtocol:
    def test_help_exits_zero(self):
        code, _ = invoke(["--help"])
        assert code == 0

    def test_unknown_flag_is_usage_error(self):
        code, _ = invoke(["classify", "--bogus", "1"])
        assert code == 64

    def test_unknown_command_is_usage_error(self):
        code, _ = invoke(["frobnicate"])
        assert code == 64

    def test_reused_parser_behaves_as_fresh_processes(self):
        # the argparse tree is built once per process; a usage error and a
        # success, run twice over in this process, read as in their own
        failing = ["decompose", "--ham", "h_rehop", "--bogus", "1"]
        passing = ["--seed", "5", "decompose", "--ham", "h_rehop", "--N", "6"]
        fresh = [_fresh_process(argv) for argv in (failing, passing)]
        assert [code for code, _, _ in fresh] == [64, 0]
        for _ in range(2):
            assert [_invoke_with_stderr(argv) for argv in (failing, passing)] == fresh
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv", [
        ["decompose", "--ham", "h_rehop", "--N", "40"],
        ["classify", "--ham", "n_tot", "--N", "40"],
        ["scan-classes", "--N", "40", "--R", "2", "--Rp", "3"],
        ["variance", "--scan", "q", "--N", "40"]], ids=lambda argv: argv[0])
    def test_dense_state_guard_exit_2(self, argv, capsys):
        assert invoke(argv) == (2, "")
        assert "dense-state guard" in json.loads(capsys.readouterr().err)["error"]

    def test_determinism(self):
        argv = ["--seed", "3", "scan-classes", "--N", "6", "--R", "2",
                "--Rp", "2", "--states", "w,vacuum"]
        _, first = invoke(argv)
        _, second = invoke(argv)
        assert first == second


_N = st.integers(2, 8).map(str)
# operator files written by the fuzz test's fixture into the {ops} directory
_OP_FILES = {"nan.op": "nan * n@0 ; 1 * n@1", "inf.op": "inf * sd@0 s@1 ; inf * s@0 sd@1",
             "ninf.op": "1 * n@0 ; -inf * n@1", "nani.op": "1+nani * n@0",
             "mixed.op": "1 * sd@0 s@1 ; 1 * s@0 sd@1 ; 1i * x@0 ; -1i * sd@0 ; -1i * s@0"}
_NON_FINITE = ("nan.op", "inf.op", "ninf.op", "nani.op")
_HAM = st.sampled_from(["h_rehop", "h_imhop", "h_imhop2", "h_dmi", "h_heis", "n_tot",
                        "p_nonherm", "h_imhop_p:p=3", "p_re:alpha=4", "bogus",
                        "h_imhop_p:p=x", "h_rehop:bogus=1", "p_re:alpha=",
                        "missing.op", "no/such/dir/ham.op", "missing.json",
                        *(f"{{ops}}/{name}" for name in _OP_FILES)])
_STATES = st.lists(st.sampled_from(["vacuum", "w", "wq:m=1", "wp:p=2", "droplet:M=2",
                                    "bogus", "wq:M=3", "wp:p=x", "droplet:M=2,p=1"]),
                   min_size=1, max_size=3).map(",".join)
_OUT = st.sampled_from([[], ["--out", "no/such/dir/report.json"]])
_ARGV = st.one_of(
    st.tuples(st.just(["decompose", "--ham"]), _HAM, st.just("--N"), _N, _OUT),
    st.tuples(st.just(["classify", "--ham"]), _HAM, st.just("--states"), _STATES,
              st.just("--N"), _N, st.just("--Rmax"), st.integers(-1, 4).map(str), _OUT),
    st.tuples(st.just(["scan-classes", "--N"]), _N, st.just("--R"),
              st.integers(-1, 3).map(str), st.just("--Rp"), st.integers(-1, 3).map(str),
              st.just("--states"), _STATES, _OUT),
    st.tuples(st.just(["droplet", "--dispersion"]),
              st.sampled_from(["rehop", "imhop", "chop:a=0.5,b=0.5", "chop:alpha=0.9",
                               "chop:a=x", "bogus"]),
              st.just("--N"), _N, st.just("--M"), st.integers(0, 9).map(str),
              st.just("--G"), st.sampled_from(["0", "wt", "bwt", "1.5", "x"]),
              st.just("--tmax"), st.sampled_from(["2", "inf", "nan"]),
              st.just("--steps"), st.sampled_from(["-1", "0", "2"]), _OUT),
    st.tuples(st.just(["variance", "--scan"]), st.sampled_from(["q", "N"]),
              st.just("--ham"), _HAM | st.just("random"), st.just("--N"), _N,
              st.just("--N-list"), st.lists(_N, min_size=1, max_size=3).map(",".join),
              st.just("--p"), st.integers(0, 3).map(str),
              st.just("--points"), st.integers(-1, 3).map(str), _OUT),
    st.tuples(st.just(["mps", "--tensor"]),
              st.sampled_from(["aklt", "ssh", "no/such/dir/tensor.json"]),
              st.just("--generator"), st.sampled_from(["sz", "sx", "bogus"]), _OUT),
).map(lambda parts: [w for p in parts for w in (p if isinstance(p, list) else [p])])


@pytest.fixture(scope="module")
def op_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ops")
    for name, text in _OP_FILES.items():
        (path / name).write_text(text + "\n")
    return str(path)


class TestFuzz:
    @given(_ARGV)
    @settings(max_examples=40, deadline=None)
    def test_documented_exit_codes(self, op_dir, argv):
        # paths under no/such/dir never exist, so nothing is written
        argv = [word.replace("{ops}", op_dir) for word in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 2, 3, 64)
        assert "Traceback" not in err.getvalue()
        if any(word.endswith(_NON_FINITE) for word in argv):
            assert code != 0
