"""Builtin Hamiltonians, Table-I eigenstate conditions, canonical decomposition."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scartypes import canonical, opspace, states
from scartypes.canonical import (BUILTINS, decompose, decompose_general,
                                 require_eigenstate, table2_patterns, random_type1)
from scartypes.opspace import LocalOperator, apply, identity, string_term
from operator_oracles import operators_equal, to_matrix

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


class TestBuiltins:
    def test_imhop_annihilates_w(self):
        n = 8
        assert np.linalg.norm(apply(canonical.h_imhop(n), states.w_state(n))) < 1e-14

    def test_p_im_row_sums_vanish(self):
        n = 8
        op = canonical.p_im(n, j=1, alpha=2)
        c = canonical._table_classes(opspace.to_boson_basis(op))[1]
        assert np.abs(c.sum(axis=1)).max() < 1e-14

    def test_imhop_p_annihilates_all_dicke_states(self):
        n = 8
        op = canonical.h_imhop_p(n, p=2)
        for m in range(n + 1):
            assert np.linalg.norm(apply(op, states.w_p(n, m))) < 1e-13

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            BUILTINS["h_bogus"]

    def test_heisenberg_identity(self):
        # H_ReHop - sum n_j n_{j+1} equals the singlet-projector sum
        n = 8
        heis = canonical.h_heis(n)
        projectors = LocalOperator(n)
        for j in range(n):
            projectors = projectors + 0.5 * (
                string_term(n, 1.0, [(j, "n")])
                + string_term(n, 1.0, [(j + 1, "n")])
                - string_term(n, 1.0, [(j, "sd"), (j + 1, "s")])
                - string_term(n, 1.0, [(j + 1, "sd"), (j, "s")]))
            projectors = projectors - string_term(n, 1.0, [(j, "n"), (j + 1, "n")])
        assert np.abs(to_matrix(heis) - to_matrix(projectors)).max() < 1e-13

    def test_dmi_z_is_minus_imhop(self):
        # sign fixed by the package spin convention; eigenstructure identical
        n = 6
        assert operators_equal(canonical.h_dmi(n, axis="z"),
                               -1.0 * canonical.h_imhop(n))

    @pytest.mark.parametrize("name, kwargs, width", [
        ("n_tot", {}, 1), ("h_imhop", {}, 2), ("h_rehop", {}, 2), ("h_imhop2", {}, 3),
        ("h_imhop_p", {"p": 3}, 4), ("h_dmi", {"axis": "x"}, 2), ("h_heis", {}, 2),
        ("p_re", {"j": 1, "alpha": 4}, 5), ("p_im", {"j": 2, "alpha": 3}, 4),
        ("p_nonherm", {"j": 0}, 2)])
    def test_window_wider_than_ring_raises(self, name, kwargs, width):
        BUILTINS[name][0](width, **kwargs)
        with pytest.raises(ValueError, match="exceeds the ring"):
            BUILTINS[name][0](width - 1, **kwargs)

    def test_generator_wider_than_ring_raises(self):
        pat = table2_patterns()[-1]
        assert len(canonical._translates(3, [pat], [2])) > 0
        with pytest.raises(ValueError, match="exceeds the ring"):
            canonical._translates(2, [pat], [0])
        with pytest.raises(ValueError, match="exceeds the ring"):
            random_type1(2, np.random.default_rng(0))

    def test_all_builtins_keep_w_an_eigenstate(self):
        n = 8
        w = states.w_state(n)
        for name in sorted(BUILTINS):
            build, defaults = BUILTINS[name]
            op = build(n, **defaults)
            hw = apply(op, w)
            e = np.vdot(w, hw)
            assert np.linalg.norm(hw - e * w) < 1e-12, name


class TestVerifyTable:
    """Table I's conditions for G|W> = lambda |W>, read through the one
    eigenstate check: (n>=1, m=0) strings all zero, (n=0, m=1) and (n>=2, m=1)
    zero row sums, (n=1, m=1) row sums all equal to lambda, m>=2 free."""

    def test_imhop_all_satisfied(self):
        n = 8
        assert abs(require_eigenstate(canonical.h_imhop(n), states.w_state(n))) < 1e-14

    @pytest.mark.parametrize("strings, satisfied", [
        ([(1.0, [(3, "sd")])], False),
        ([(1.0, [(3, "s")]), (1.0, [(2, "sd"), (3, "sd"), (4, "s")])], False),
        ([(1.0, [(3, "s")]), (-1.0, [(5, "s")]),
          (1.0, [(1, "sd"), (2, "sd"), (3, "s")]), (-1.0, [(1, "sd"), (2, "sd"), (4, "s")])],
         True)],
        ids=["creation", "row-sums", "zero-row-sums"])
    def test_class_conditions(self, strings, satisfied):
        op = opspace.op_sum(8, [string_term(8, c, s) for c, s in strings])
        w = states.w_state(8)
        if satisfied:
            assert abs(require_eigenstate(op, w)) < 1e-14   # no hopping strings: lambda = 0
            return
        with pytest.raises(canonical.ClassificationError) as err:
            require_eigenstate(op, w)
        assert err.value.defect > 0.1

    def test_ntot_lambda_one(self):
        assert require_eigenstate(canonical.n_tot(8), states.w_state(8)) == pytest.approx(1.0)

    def test_nonuniform_hopping_violates(self):
        op = string_term(8, 1.0, [(2, "sd"), (3, "s")])
        with pytest.raises(canonical.ClassificationError):
            require_eigenstate(op, states.w_state(8))

    def test_cor1_vacuum_coeigenstate(self):
        # operators with W as an eigenstate have the vacuum as eigenstate,
        # with eigenvalue given by the identity component
        n = 8
        w, vac = states.w_state(n), states.vacuum(n)
        for op in (canonical.h_imhop(n) + identity(n, 2.0),
                   canonical.n_tot(n),
                   0.3 * canonical.h_rehop(n) + identity(n, -1.0)):
            require_eigenstate(op, w)
            omega = opspace.to_boson_basis(op).identity_coefficient()
            assert require_eigenstate(op, vac) == pytest.approx(omega, abs=1e-13)
            assert np.linalg.norm(apply(op, vac) - omega * vac) < 1e-13


class TestDecompose:
    def test_pure_combination(self):
        n = 8
        h = identity(n, 3.0) + 2.0 * canonical.n_tot(n) + canonical.h_imhop(n)
        form = decompose(h)
        assert form.omega_id == pytest.approx(3.0)
        assert form.omega_n == pytest.approx(2.0)
        assert form.t_im == pytest.approx(1.0)
        assert not form.annihilators
        assert form.residual_norm < 1e-12

    def test_rehop_is_pure_type_one(self):
        form = decompose(canonical.h_rehop(8))
        assert form.omega_id == pytest.approx(0.0)
        assert form.omega_n == pytest.approx(0.0)
        assert form.t_im == pytest.approx(0.0)
        assert form.annihilators
        assert form.residual_norm < 1e-12

    def test_heisenberg_singlet_projectors(self):
        n = 8
        form = decompose(canonical.h_heis(n))
        assert form.omega_n == pytest.approx(0.0, abs=1e-13)
        assert form.t_im == pytest.approx(0.0, abs=1e-13)
        w, vac = states.w_state(n), states.vacuum(n)
        for hx in form.annihilators:
            assert np.linalg.norm(apply(hx, w)) < 1e-12
            assert np.linalg.norm(apply(hx, vac)) < 1e-12
        total = LocalOperator(n)
        for hx in form.annihilators:
            total = total + hx
        assert operators_equal(total, canonical.h_heis(n), tol=1e-12)

    def test_closed_form_oracle(self):
        """omega and t are linear functionals of the hopping matrix:
        omega = mean row sum of Re(c), t = (2/N) sum_j sum_a a Im(c[j, j+a])."""
        rng = np.random.default_rng(21)
        n = 10
        for _ in range(10):
            h = (identity(n, rng.normal())
                 + rng.normal() * canonical.n_tot(n)
                 + rng.normal() * canonical.h_imhop(n)
                 + random_type1(n, rng, translation_invariant=False))
            c = canonical._table_classes(opspace.to_boson_basis(h))[1]
            omega_oracle = float(np.mean(c.real.sum(axis=1)))
            t_oracle = 0.0
            for j in range(n):
                for alpha in range(1, n // 2):
                    t_oracle += alpha * c[j, (j + alpha) % n].imag
            t_oracle *= 2.0 / n
            form = decompose(h)
            assert form.omega_n == pytest.approx(omega_oracle, abs=1e-10)
            assert form.t_im == pytest.approx(t_oracle, abs=1e-10)
            assert form.residual_norm < 1e-10

    def test_recovery_of_random_combinations(self):
        rng = np.random.default_rng(22)
        for n in (8, 10):
            for _ in range(10):
                gamma, alpha, beta = rng.uniform(-2, 2, size=3)
                h = (identity(n, gamma) + alpha * canonical.n_tot(n)
                     + beta * canonical.h_imhop(n) + random_type1(n, rng))
                form = decompose(h)
                assert abs(form.omega_id - gamma) < 1e-9
                assert abs(form.omega_n - alpha) < 1e-9
                assert abs(form.t_im - beta) < 1e-9
                assert form.residual_norm < 1e-10
                w, vac = states.w_state(n), states.vacuum(n)
                for hx in form.annihilators:
                    assert np.linalg.norm(apply(hx, w)) < 1e-10
                    assert np.linalg.norm(apply(hx, vac)) < 1e-10

    def test_not_an_eigenstate(self):
        n = 8
        bad = string_term(n, 1.0, [(0, "n")])     # breaks uniform row sums
        with pytest.raises(canonical.ClassificationError) as err:
            decompose(bad)
        assert err.value.defect is not None and err.value.defect > 0.1

    def test_requires_hermitian(self):
        # p_nonherm annihilates W, so the eigenstate check passes first
        with pytest.raises(ValueError, match="Hermitian") as err:
            decompose(canonical.p_nonherm(8, 0))
        assert not isinstance(err.value, canonical.ClassificationError)

    def test_eigenstate_checked_before_hermiticity(self):
        # sd_0 is neither Hermitian nor has W as an eigenstate
        with pytest.raises(canonical.ClassificationError) as err:
            decompose(opspace.parse_operator("sd@0", 8))
        assert err.value.defect is not None and err.value.defect > 0.1


class TestDecomposeGeneral:
    def test_nonhermitian_no_t_term(self):
        n = 8
        rng = np.random.default_rng(5)
        g = (identity(n, 1.0 + 0.5j) + (0.3 - 0.2j) * canonical.n_tot(n)
             + canonical.p_nonherm(n, 2) + canonical.p_nonherm(n, 5)
             + random_type1(n, rng, translation_invariant=False))
        form = decompose_general(g)
        assert form.t_im == 0.0
        assert form.omega_id == pytest.approx(1.0 + 0.5j)
        assert form.omega_n == pytest.approx(0.3 - 0.2j)
        assert form.residual_norm < 1e-10
        w = states.w_state(n)
        for gx in form.annihilators:
            assert np.linalg.norm(apply(gx, w)) < 1e-10

    def test_single_annihilation_class(self):
        n = 8
        g = string_term(n, 1.0, [(1, "s")]) - string_term(n, 1.0, [(5, "s")])
        form = decompose_general(g)
        assert form.residual_norm < 1e-12
        w = states.w_state(n)
        for gx in form.annihilators:
            assert np.linalg.norm(apply(gx, w)) < 1e-12


class TestTable2Catalog:
    def test_built_once_on_first_call(self):
        # not at import, so a process that draws no type-I sum never builds it
        code = "\n".join([
            "from scartypes import canonical",
            "assert canonical._TABLE2 == ()",
            "pats = canonical.table2_patterns()",
            "assert type(pats) is tuple and len(pats) > 20",
            "assert canonical.table2_patterns() is pats",
        ])
        done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_every_generator_annihilates_both_states(self):
        n = 8
        w, vac = states.w_state(n), states.vacuum(n)
        pats = table2_patterns()
        assert len(pats) > 20
        for pat in pats:
            op = canonical._translates(n, [pat], [3])
            assert op.hermitian()
            assert np.linalg.norm(apply(op, w)) < 1e-13
            assert np.linalg.norm(apply(op, vac)) < 1e-13

    def test_random_sum_properties(self):
        rng = np.random.default_rng(33)
        h = random_type1(10, rng)
        assert h.hermitian()
        assert np.linalg.norm(apply(h, states.w_state(10))) < 1e-12
        assert h.declared_range <= 3
