"""Boundary-action solves, I/II/III verdicts, and equivalence of type II classes."""

import numpy as np
import pytest

from scartypes import boundary, canonical, opspace, states
from scartypes.boundary import (Region, action_equivalent, boundary_solve,
                                classify, equivalence_test)
from scartypes.opspace import apply, string_term


@pytest.fixture(scope="module")
def setup10():
    n = 10
    return {
        "n": n,
        "vac": states.vacuum(n),
        "w": states.w_state(n),
        "w2": states.w_p(n, 2),
        "imhop": canonical.h_imhop(n),
        "rehop": canonical.h_rehop(n),
        "ntot": canonical.n_tot(n),
        "imhop2": canonical.h_imhop2(n),
        "lam": Region(0, 6, n),
    }


class TestBoundarySolve:
    def test_imhop_unconstrained_matches_number_imbalance(self, setup10):
        s = setup10
        psis = [s["vac"], s["w"]]
        sol = boundary_solve(s["imhop"], psis, s["lam"], 2, hermitian=False)
        assert sol.residual < 1e-10
        n = s["n"]
        expected = string_term(n, 0.5j, [(0, "n")]) \
            + string_term(n, -0.5j, [(6, "n")])
        assert action_equivalent(sol.left_op + sol.right_op, expected, psis)

    def test_imhop_hermitian_rejected(self, setup10):
        s = setup10
        for lam in (s["lam"], Region(2, 9, s["n"])):
            sol = boundary_solve(s["imhop"], [s["vac"], s["w"]], lam, 2,
                                 hermitian=True)
            assert sol.residual > 1e-3

    def test_ntot_no_boundary_action(self, setup10):
        s = setup10
        sol = boundary_solve(s["ntot"], [s["vac"], s["w"]], s["lam"], 2,
                             hermitian=False)
        assert sol.residual > 1e-3

    def test_rehop_hermitian_accepted(self, setup10):
        s = setup10
        sol = boundary_solve(s["rehop"], [s["vac"], s["w"]], s["lam"], 2,
                             hermitian=True)
        assert sol.residual < 1e-10

    def test_window_overlap_precondition(self, setup10):
        s = setup10
        with pytest.raises(ValueError):
            boundary_solve(s["imhop"], [s["w"]], Region(0, 4, s["n"]), 2)

    def test_identity_shift_gauge(self, setup10):
        # shifting the left operator by c*1 and f_n by -c leaves the action
        s = setup10
        psis = [s["vac"], s["w"]]
        sol = boundary_solve(s["imhop"], psis, s["lam"], 2, hermitian=False)
        h_lam = opspace.truncate(s["imhop"], s["lam"], "boson")
        c = 0.3 - 0.7j
        shifted_left = sol.left_op + opspace.identity(s["n"], c)
        for psi, f in zip(psis, sol.constants):
            res = apply(h_lam, psi) - apply(shifted_left + sol.right_op, psi) \
                - (f - c) * psi
            assert np.linalg.norm(res) < 1e-10

    def test_single_state_variant(self, setup10):
        s = setup10
        sol = boundary_solve(s["imhop"], [s["w"]], s["lam"], 2, hermitian=False)
        assert sol.residual < 1e-10


class TestSpectralNorm:
    def test_matches_dense_eigvalsh(self, setup10):
        s = setup10
        n = s["n"]
        rng = np.random.default_rng(12)
        ops = [opspace.truncate(s["imhop2"], Region(0, 7, n), "boson"),
               opspace.truncate(canonical.random_type1(n, rng) + s["imhop"],
                                Region(3, 9, n), "boson"),
               s["rehop"]]
        for op in ops:
            dense = np.abs(np.linalg.eigvalsh(opspace.to_matrix(op))).max()
            assert abs(boundary.spectral_norm(op) - dense) <= 1e-10 * dense


class TestClassify:
    def test_rehop_type_one(self, setup10):
        s = setup10
        assert classify(s["rehop"], [s["vac"], s["w"]]).value == "I"

    def test_imhop_type_two(self, setup10):
        s = setup10
        label = classify(s["imhop"], [s["vac"], s["w"]])
        assert label.value == "II"
        assert not label.notes        # left/right independence holds

    def test_ntot_type_three(self, setup10):
        s = setup10
        assert classify(s["ntot"], [s["vac"], s["w"]]).value == "III"

    def test_preconditions(self, setup10):
        s = setup10
        drop = states.droplet(s["n"], 3, 1)
        with pytest.raises(canonical.ClassificationError) as err:
            classify(s["rehop"], [s["vac"], drop])
        assert err.value.defect > 0.1
        with pytest.raises(canonical.ClassificationError):
            equivalence_test(s["imhop"], s["rehop"], [s["vac"], drop])
        with pytest.raises(ValueError):
            classify(s["rehop"], [s["vac"], s["w"]], r_max_list=(0,))
        with pytest.raises(ValueError):
            boundary_solve(s["rehop"], [s["w"]], s["lam"], 0)

    def test_imhop2_type_two_with_pair_boundary(self, setup10):
        s = setup10
        psis = [s["vac"], s["w"], s["w2"]]
        assert classify(s["imhop2"], psis).value == "II"
        lam = Region(0, 7, s["n"])
        sol = boundary_solve(s["imhop2"], psis, lam, 2, hermitian=False)
        assert sol.residual < 1e-10
        n = s["n"]
        expected = string_term(n, 0.5j, [(0, "n"), (1, "n")]) \
            + string_term(n, -0.5j, [(6, "n"), (7, "n")])
        assert action_equivalent(sol.left_op + sol.right_op, expected, psis)

    def test_type_one_lies_in_local_hermitian_scan(self, setup10):
        # consistency with the null-space machinery at matching range
        from scartypes import nullspace
        s = setup10
        n = s["n"]
        psis = [s["vac"], s["w"]]
        rows = []
        full = nullspace.pauli_string_basis(n, 2)
        index = {k: i for i, k in enumerate(full.keys)}
        for j in range(n):
            win = nullspace.window_basis(n, j, 2)
            rep = nullspace.null_space(
                nullspace.build_correlation(win, psis, "H"))
            rows.append(nullspace._embed(rep.basis, win.keys, index,
                                         len(full.keys)))
        stack = np.vstack(rows).real
        vec = np.zeros(len(full.keys))
        for key, coeff in opspace.to_pauli_basis(s["rehop"]).terms.items():
            if key != (0, ()):
                vec[index[key]] = coeff.real
        base_rank = nullspace.real_rank(stack)
        assert nullspace.real_rank(np.vstack([stack, vec])) == base_rank


class TestEquivalence:
    def test_same_class_with_type_one_addition(self, setup10):
        s = setup10
        res = equivalence_test(s["imhop"], s["imhop"] + s["rehop"],
                               [s["vac"], s["w"]])
        assert res.verdict == "same-class"
        assert res.alpha == pytest.approx(res.beta, abs=1e-6)

    def test_reflexive(self, setup10):
        s = setup10
        res = equivalence_test(s["imhop"], s["imhop"], [s["vac"], s["w"]])
        assert res.verdict == "same-class"

    def test_different_classes(self, setup10):
        s = setup10
        res = equivalence_test(s["imhop"], s["imhop2"],
                               [s["vac"], s["w"], s["w2"]])
        assert res.verdict == "different"
        assert res.residual > 1e-3
