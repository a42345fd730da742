"""Correlation matrices, null spaces and class counts vs brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scartypes import canonical, nullspace, opspace, states
from scartypes.nullspace import (OperatorBasis, build_correlation,
                                 count_type_classes, null_space,
                                 pauli_string_basis, verify_null_vector,
                                 window_basis)
from scartypes.opspace import LocalOperator, apply, to_matrix, to_pauli_basis


def _vector_of(op, basis):
    """Coefficient vector of an operator over a Pauli string basis."""
    expanded = to_pauli_basis(op)
    index = {k: i for i, k in enumerate(basis.keys)}
    vec = np.zeros(len(basis), dtype=complex)
    ident = 0.0
    for key, coeff in expanded.terms.items():
        if key == (0, ()):
            ident = coeff
            continue
        vec[index[key]] = coeff
    return vec, ident


class TestBuildCorrelation:
    def test_sigma_z_on_vacuum(self):
        n = 6
        basis = OperatorBasis(((0, ("z",)),), n)
        corr = build_correlation(basis, [states.vacuum(n)], "H")
        assert np.allclose(corr.entries, [[0.0]])

    def test_sigma_x_on_vacuum(self):
        n = 6
        basis = OperatorBasis(((0, ("x",)),), n)
        corr = build_correlation(basis, [states.vacuum(n)], "H")
        assert np.allclose(corr.entries, [[1.0]])

    def test_zero_operator_gives_zero_row(self):
        n = 6
        basis = OperatorBasis(((0, ("z",)), (0, ())), n)
        corr = build_correlation(basis, [states.w_state(n)], "G")
        assert np.allclose(corr.entries[1, :], 0.0)
        assert np.allclose(corr.entries[:, 1], 0.0)

    def test_hermitian_kind_requires_hermitian_basis(self):
        n = 4
        bad = OperatorBasis(((0, ("sd",)),), n)
        with pytest.raises(ValueError):
            build_correlation(bad, [states.vacuum(n)], "H")

    def test_hermitian_kind_accepts_number_strings(self):
        n = 4
        basis = OperatorBasis(((0, ("n",)), (1, ("n", "z")), (0, ())), n)
        corr = build_correlation(basis, [states.w_state(n)], "H")
        assert corr.entries.shape == (3, 3)
        with pytest.raises(ValueError):
            build_correlation(OperatorBasis(((0, ("n", "sd")),), n),
                              [states.w_state(n)], "H")

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_entries_match_per_key_apply(self, seed, n, degenerate):
        rng = np.random.default_rng(seed)
        psis = []
        for _ in range(int(rng.integers(1, 4))):
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            psis.append(psi / np.linalg.norm(psi))
        for kind, codes in (("H", ["x", "y", "z", "n"]), ("G", ["x", "y", "z", "n", "sd"])):
            keys = [(0, ())]
            for _ in range(int(rng.integers(1, 12))):
                width = int(rng.integers(1, n + 1))
                ops = [str(c) for c in rng.choice(codes + ["id"], size=width)]
                ops[0], ops[-1] = (str(c) for c in rng.choice(codes, size=2))
                keys.append((int(rng.integers(n)), tuple(ops)))
            basis = OperatorBasis(tuple(keys), n)
            got = build_correlation(basis, psis, kind, degenerate).entries
            # reference: one apply per key and state, entries summed one by one
            want = np.zeros((len(keys), len(keys)), dtype=complex)
            expect = []
            for psi in psis:
                acts = [apply(LocalOperator(n, {key: 1.0}), psi) for key in keys]
                e = np.array([np.vdot(psi, a) for a in acts])
                for i, a in enumerate(acts):
                    for j, b in enumerate(acts):
                        want[i, j] += np.vdot(a, b) - np.conj(e[i]) * e[j]
                expect.append(e)
            if degenerate:
                for e in expect:
                    d = e - np.mean(expect, axis=0)
                    want += np.outer(d.conj(), d)
            if kind == "H":
                want = want.real
            assert np.abs(got - want).max() <= 1e-12

    def test_psd(self):
        n = 6
        win = window_basis(n, 1, 2)
        for kind in ("H", "G"):
            corr = build_correlation(win, [states.vacuum(n), states.w_state(n)],
                                     kind)
            assert corr.check_psd() > -1e-10


class TestNullSpace:
    def test_two_site_hermitian_contains_singlet_projector(self):
        n = 8
        psis = [states.vacuum(n), states.w_state(n)]
        win = window_basis(n, 0, 2)
        report = null_space(build_correlation(win, psis, "H"))
        proj = -0.5 * canonical.p_re(n, 0, 1)    # (n0+n1-hops)/2
        vec, _ = _vector_of(proj, win)
        overlap = report.basis @ vec
        assert np.linalg.norm(vec - report.basis.T @ overlap) < 1e-10
        assert verify_null_vector(win, vec, psis) < 1e-12

    def test_kind_g_contains_nonhermitian_annihilator(self):
        n = 8
        psis = [states.vacuum(n), states.w_state(n)]
        win = window_basis(n, 0, 2)
        rep_h = null_space(build_correlation(win, psis, "H"))
        rep_g = null_space(build_correlation(win, psis, "G"))
        pnh = canonical.p_nonherm(n, 0)
        vec, _ = _vector_of(pnh, win)
        overlap_g = rep_g.basis.conj() @ vec
        assert np.linalg.norm(vec - rep_g.basis.T @ overlap_g) < 1e-10
        # not in the Hermitian null space over real coefficients
        overlap_h = rep_h.basis @ vec
        assert np.linalg.norm(vec - rep_h.basis.T @ overlap_h) > 0.1

    def test_identity_never_in_basis(self):
        for basis in (window_basis(8, 3, 3), pauli_string_basis(8, 2)):
            assert all(len(ops) >= 1 for _, ops in basis.keys)

    def test_reported_vectors_are_eigenoperators(self):
        n = 8
        psis = [states.vacuum(n), states.w_state(n)]
        win = window_basis(n, 2, 3)
        for kind in ("H", "G"):
            rep = null_space(build_correlation(win, psis, kind))
            for row in rep.basis:
                assert verify_null_vector(win, row, psis) < 1e-8

    def test_gap_reported(self):
        n = 6
        win = window_basis(n, 0, 2)
        rep = null_space(build_correlation(win, [states.w_state(n)], "H"))
        assert rep.gap > 1e-3


class TestBruteForceOracles:
    """Dense N <= 6 cross-checks of the correlation-matrix null spaces."""

    @pytest.mark.parametrize("kind", ["H", "G"])
    def test_window_null_dimension(self, kind):
        n = 6
        psis = [states.vacuum(n), states.w_state(n)]
        win = window_basis(n, 0, 2)
        rep = null_space(build_correlation(win, psis, kind))
        mats = [to_matrix(LocalOperator(n, {key: 1.0})) for key in win.keys]
        if kind == "H":
            # commutant oracle: real combos commuting with every |psi><psi|
            rows = []
            for psi in psis:
                rho = np.outer(psi, psi.conj())
                block = np.array([(m @ rho - rho @ m).ravel() for m in mats]).T
                rows.append(np.vstack([block.real, block.imag]))
            mat = np.vstack(rows)
            svals = np.linalg.svd(mat, compute_uv=False)
            dim = int(np.sum(svals <= 1e-10 * svals[0]))
            dim += mat.shape[1] - len(svals) if mat.shape[0] < mat.shape[1] else 0
            null_dim = mat.shape[1] - int(np.sum(svals > 1e-10 * svals[0]))
            assert rep.dim == null_dim
        else:
            # stacked action oracle: (V - <V>) |psi> for every state
            rows = []
            for psi in psis:
                acts = np.array([m @ psi - np.vdot(psi, m @ psi) * psi
                                 for m in mats])
                rows.append(acts.T)
            mat = np.vstack(rows)
            svals = np.linalg.svd(mat, compute_uv=False)
            null_dim = mat.shape[1] - int(np.sum(svals > 1e-10 * svals[0]))
            assert rep.dim == null_dim


class TestClassCounts:
    def test_w_and_vacuum(self):
        n = 8
        psis = [states.vacuum(n), states.w_state(n)]
        res = count_type_classes(n, 2, 2, psis)
        assert (res.n_ii, res.n_iii) == (1, 1)

    def test_vacuum_only(self):
        res = count_type_classes(8, 2, 2, [states.vacuum(8)])
        assert (res.n_ii, res.n_iii) == (0, 0)

    def test_degenerate_pair(self):
        n = 8
        psis = [states.vacuum(n), states.w_state(n)]
        res = count_type_classes(n, 2, 2, psis, degenerate=True)
        assert (res.n_ii, res.n_iii) == (1, 0)

    def test_monotonicity_in_local_range(self):
        n = 8
        psis = [states.vacuum(n), states.w_state(n)]
        res2 = count_type_classes(n, 2, 2, psis)
        res3 = count_type_classes(n, 2, 3, psis)
        assert res3.dims["ZG_loc"] >= res2.dims["ZG_loc"]
        assert res3.dims["ZH_loc"] >= res2.dims["ZH_loc"]
        assert res3.n_ii + res3.n_iii <= res2.n_ii + res2.n_iii

    def test_hermitian_closure_inside_general(self):
        # C^G null space contains the Hermitian null space
        n = 8
        psis = [states.vacuum(n), states.w_state(n)]
        win = window_basis(n, 0, 2)
        rep_h = null_space(build_correlation(win, psis, "H"))
        corr_g = build_correlation(win, psis, "G").entries
        for row in rep_h.basis:
            assert np.linalg.norm(corr_g @ row) < 1e-10

    def test_preconditions(self):
        psis = [states.vacuum(8)]
        with pytest.raises(ValueError):
            count_type_classes(8, 3, 2, psis)
        with pytest.raises(opspace.CapacityError):
            count_type_classes(13, 2, 2, [states.vacuum(13)])
        for r_glo in (0, -1):
            with pytest.raises(ValueError):
                count_type_classes(8, r_glo, 2, psis)
