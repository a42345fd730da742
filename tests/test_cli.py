"""Command-line driver: subcommands, exit codes, schemas, determinism."""

import contextlib
import io
import json

import pytest

from scartypes import dynamics
from scartypes.cli import run


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


class TestClassify:
    def test_ntot_is_type_three(self):
        code, out = invoke(["classify", "--ham", "n_tot",
                            "--states", "w,vacuum", "--N", "10"])
        report = json.loads(out)
        assert code == 0
        assert report["type"] == "III"
        assert report["schema"] == 1
        assert all("residual_general" in row for row in report["evidence"])

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

    def test_non_eigenstate_precondition(self, tmp_path):
        path = tmp_path / "bad.op"
        path.write_text("1.0 * n@0\n")
        code, _ = invoke(["decompose", "--ham", str(path), "--N", "8"])
        assert code == 2


class TestScanClasses:
    def test_w_vacuum_counts(self):
        code, out = invoke(["scan-classes", "--N", "8", "--R", "2", "--Rp", "2",
                            "--states", "w,vacuum"])
        report = json.loads(out)
        assert code == 0
        assert (report["N_II"], report["N_III"]) == (1, 1)
        assert report["tol"] == 1e-10
        assert "ZH_glo" in report["dims"]

    def test_capacity_exit_code(self):
        code, _ = invoke(["scan-classes", "--N", "14", "--R", "2", "--Rp", "2",
                          "--states", "vacuum"])
        assert code == 2


class TestDroplet:
    def test_csv_matches_module(self):
        code, out = invoke(["droplet", "--dispersion", "chop:a=0.5,b=0.5",
                            "--N", "201", "--M", "51", "--tmax", "10",
                            "--steps", "2", "--observable", "occupations",
                            "--out", "csv"])
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


class TestVariance:
    def test_n_scan_fit(self):
        code, out = invoke(["--seed", "6", "variance", "--scan", "N",
                            "--p", "2", "--ham", "random",
                            "--N-list", "8,10,12"])
        report = json.loads(out)
        assert code == 0
        assert report["fit"]["exponent"] == pytest.approx(-1.0, abs=0.3)

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

    def test_determinism(self):
        argv = ["--seed", "3", "scan-classes", "--N", "6", "--R", "2",
                "--Rp", "2", "--states", "w,vacuum"]
        _, first = invoke(argv)
        _, second = invoke(argv)
        assert first == second
