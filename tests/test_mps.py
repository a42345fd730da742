"""MPS transfer spectra, push-through, boundary action and generator types."""

import numpy as np
import pytest
from scipy.linalg import expm, logm

from scartypes import mps
from scartypes.mps import (MPSTensor, NotInjective, NotSymmetricError,
                           boundary_operators, builtin_aklt, builtin_ssh,
                           classify_symmetry_generator, injectivity_length,
                           is_full_rank, push_through_check, spin1_matrix,
                           ssh_sz_matrix, to_dense, transfer_spectrum,
                           verify_boundary_action)
from operator_oracles import site_axes_apply, supports


class TestTransferMatrix:
    def test_aklt_spectrum(self):
        vals = transfer_spectrum(builtin_aklt())
        expected = np.array([1.0, -1 / 3, -1 / 3, -1 / 3])
        assert np.abs(np.sort(vals.real) - np.sort(expected)).max() < 1e-12
        assert np.abs(vals.imag).max() < 1e-12

    def test_ssh_spectrum(self):
        vals = transfer_spectrum(builtin_ssh())
        assert abs(vals[0] - 1.0) < 1e-12
        assert np.abs(vals[1:]).max() < 1e-12

    def test_product_state_tensor(self):
        a = MPSTensor(np.array([[[1.0]], [[0.0]]], dtype=complex))
        assert np.allclose(mps.transfer_matrix(a), [[1.0]])

    def test_spectrum_closed_under_conjugation(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        vals = transfer_spectrum(MPSTensor(data))
        for v in vals:
            assert np.abs(vals - np.conj(v)).min() < 1e-10

    def test_full_rank_criterion(self):
        assert is_full_rank(builtin_aklt())
        assert not is_full_rank(builtin_ssh())
        # every A^s of rank one: E has rank d = 2 of D^2 = 4
        rng = np.random.default_rng(3)
        rank_one = np.einsum("sa,sb->sab", rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        assert not is_full_rank(MPSTensor(rank_one + 0j))


class TestInjectivity:
    def test_aklt(self):
        assert injectivity_length(builtin_aklt()) == 2

    def test_product_tensor(self):
        a = MPSTensor(np.array([[[1.0]], [[0.5]]], dtype=complex))
        assert injectivity_length(a) == 1

    def test_random_tensor(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        k = injectivity_length(MPSTensor(data))
        assert isinstance(k, int) and k <= 2

    def test_not_injective_sentinel(self, monkeypatch):
        # a tensor with identical blocks never becomes injective
        monkeypatch.setattr(mps, "INJECTIVITY_MAX_BLOCK", 3)
        data = np.stack([np.eye(2, dtype=complex)] * 3)
        out = injectivity_length(MPSTensor(data))
        assert isinstance(out, NotInjective) and out.max_block == 3


class TestPushThrough:
    def test_aklt_sz_bond_unitary(self):
        theta = 0.3
        v, res = push_through_check(builtin_aklt(), spin1_matrix("z"), theta)
        assert res < 1e-10
        expected = np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])
        phase = np.trace(expected.conj().T @ v) / 2
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.abs(v - phase * expected).max() < 1e-10
        assert np.linalg.det(v).imag == pytest.approx(0.0, abs=1e-10)

    def test_theta_zero_identity(self):
        v, res = push_through_check(builtin_aklt(), spin1_matrix("x"), 0.0)
        assert res < 1e-12
        assert np.abs(v - np.eye(2)).max() < 1e-10

    def test_ssh_diagonal(self):
        v, res = push_through_check(builtin_ssh(), ssh_sz_matrix(), 0.4)
        assert res < 1e-10
        assert abs(v[0, 1]) < 1e-10 and abs(v[1, 0]) < 1e-10

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("theta", [-2.0, np.pi])
    def test_bond_unitary_sign_matches_expm_reference(self, axis, theta, monkeypatch):
        # det V > 0 leaves V up to sign at bond dimension 2; Re tr V > 0 (at
        # theta = pi, where tr V = 0, the tie-break) fixes it independently
        # of how U = e^{i theta L} is computed
        gen = spin1_matrix(axis)
        v, _ = push_through_check(builtin_aklt(), gen, theta)
        monkeypatch.setattr(mps, "_symmetry_unitary",
                            lambda g, t: expm(1j * t * np.asarray(g, dtype=complex)))
        ref, _ = push_through_check(builtin_aklt(), gen, theta)
        assert np.abs(v - ref).max() < 1e-12
        if theta == -2.0:
            assert np.trace(v) == pytest.approx(2 * np.cos(1.0), abs=1e-12)

    def test_not_symmetric_reports_residual(self):
        bad = np.diag([1.0, 0.0, 0.0]).astype(complex)
        v, res = push_through_check(builtin_aklt(), bad, 0.5)
        assert v is None and res > 1e-3


class TestSymmetryUnitary:
    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.1, -2.0])
    @pytest.mark.parametrize("generator", [spin1_matrix("x"), spin1_matrix("y"),
                                           spin1_matrix("z"), ssh_sz_matrix()],
                             ids=["spin1-x", "spin1-y", "spin1-z", "ssh-sz"])
    def test_matches_expm(self, generator, theta):
        got = mps._symmetry_unitary(generator, theta)
        assert np.abs(got - expm(1j * theta * generator)).max() < 1e-13

    def test_non_hermitian_generator_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            mps._symmetry_unitary(spin1_matrix("x") + 1j * spin1_matrix("z"), 0.3)


class TestBoundaryOperators:
    def test_identity_at_theta_zero(self):
        aklt = builtin_aklt()
        v, _ = push_through_check(aklt, spin1_matrix("z"), 0.0)
        w_l, w_r, res = boundary_operators(aklt, v, 2)
        assert res < 1e-10
        assert np.abs(w_l - np.eye(9)).max() < 1e-8
        assert np.abs(w_r - np.eye(9)).max() < 1e-8

    @pytest.mark.parametrize("n_sites", [6, 8])
    def test_aklt_dense_action(self, n_sites):
        res = verify_boundary_action(builtin_aklt(), spin1_matrix("z"), 0.3,
                                     n_sites, 2)
        assert res < 1e-9

    def test_aklt_sx_dense_action(self):
        res = verify_boundary_action(builtin_aklt(), spin1_matrix("x"), 0.7, 6, 2)
        assert res < 1e-9

    def test_ssh_dense_action(self):
        res = verify_boundary_action(builtin_ssh(), ssh_sz_matrix(), 0.5, 6, 1)
        assert res < 1e-9

    @pytest.mark.parametrize("tensor,generator,r_inj", [
        (builtin_aklt(), spin1_matrix("x"), 2), (builtin_aklt(), spin1_matrix("y"), 2),
        (builtin_aklt(), spin1_matrix("z"), 2), (builtin_ssh(), ssh_sz_matrix(), 1)],
        ids=["aklt-sx", "aklt-sy", "aklt-sz", "ssh-sz"])
    def test_matches_expm_of_log_generator(self, tensor, generator, r_inj):
        # the reference: the insertion solved at generator level with log(V),
        # O = log(V)-twisted blocks . pinv(F), and W = exp(O)
        blocks = mps._blocked(tensor, r_inj)
        flat = blocks.reshape(len(blocks), -1)
        pinv = np.linalg.pinv(flat)
        for theta in np.linspace(-2.5, 2.5, 12):
            v, _ = push_through_check(tensor, generator, theta)
            w_l, w_r, res = boundary_operators(tensor, v, r_inj)
            vlog = logm(v)
            ref_l = expm(np.einsum("ab,sbc->sac", vlog, blocks).reshape(flat.shape) @ pinv)
            ref_r = expm(np.einsum("sab,bc->sac", blocks, -vlog).reshape(flat.shape) @ pinv)
            tgt_l = np.einsum("ab,sbc->sac", v, blocks).reshape(flat.shape)
            tgt_r = np.einsum("sab,bc->sac", blocks, v.conj().T).reshape(flat.shape)
            assert np.abs(w_l - ref_l).max() <= 1e-13
            assert np.abs(w_r - ref_r).max() <= 1e-13
            assert res <= 1e-12
            for w, tgt in ((w_l, tgt_l), (w_r, tgt_r), (ref_l, tgt_l), (ref_r, tgt_r)):
                assert np.linalg.norm(w @ flat - tgt) <= 1e-12

    @pytest.mark.parametrize("v", [np.zeros((2, 2)), np.diag([1.0, 0.0])],
                             ids=["zero", "rank-one"])
    def test_singular_bond_matrix_rejected(self, v):
        with pytest.raises(ValueError, match="not invertible"):
            boundary_operators(builtin_aklt(), v.astype(complex), 2)

    def test_window_length_below_one_rejected(self):
        v, _ = push_through_check(builtin_aklt(), spin1_matrix("z"), 0.3)
        with pytest.raises(ValueError, match="at least 1"):
            boundary_operators(builtin_aklt(), v, 0)
        with pytest.raises(ValueError, match="at least 1"):
            verify_boundary_action(builtin_aklt(), spin1_matrix("z"), 0.3, 6, 0)

    def test_overlapping_windows_rejected(self):
        # N = 6 leaves a 4-site patch: R_inj = 2 windows touch, R_inj = 3 overlap
        with pytest.raises(ValueError, match="overlap"):
            verify_boundary_action(builtin_aklt(), spin1_matrix("z"), 0.3, 6, 3)

    def test_closed_form_ketbra_exponent_for_aklt_sz(self):
        # a closed-form left two-site ketbra generator solves the insertion
        # equation for V = e^{i theta sigma^z / 2} and reproduces the dense
        # patch action
        aklt = builtin_aklt()

        def ket(a, b):
            v = np.zeros(9)
            v[3 * a + b] = 1.0
            return v

        plus, zero, minus = 0, 1, 2
        o_left = 0.5 * (
            np.outer(ket(plus, minus), ket(plus, minus))
            + np.outer(ket(zero, zero), ket(zero, zero))
            + np.outer(ket(zero, zero) - ket(minus, plus), ket(minus, plus))
            + np.outer(ket(zero, plus), ket(zero, plus))
            - np.outer(ket(zero, minus), ket(zero, minus))
            + np.outer(ket(plus, zero), ket(plus, zero))
            - np.outer(ket(minus, zero), ket(minus, zero)))
        blocks = mps._blocked(aklt, 2).reshape(9, -1)
        vgen = np.diag([0.5, -0.5]).astype(complex)
        target = np.einsum("ab,sbc->sac", vgen,
                           mps._blocked(aklt, 2)).reshape(9, -1)
        assert np.linalg.norm(o_left @ blocks - target) < 1e-12

        theta, n_sites = 0.3, 6
        psi = to_dense(aklt, n_sites)
        lam = list(range(1, n_sites - 1))
        expected = mps.truncated_symmetry_action(
            aklt, spin1_matrix("z"), theta, lam, psi, n_sites)
        v, _ = push_through_check(aklt, spin1_matrix("z"), theta)
        _, w_right, _ = boundary_operators(aklt, v, 2)
        got = site_axes_apply(expm(1j * theta * o_left), psi, lam[:2], 3, n_sites)
        got = site_axes_apply(w_right, got, lam[-2:], 3, n_sites)
        assert np.linalg.norm(expected - got) < 1e-9


def traced_blocked_dense(a, n_sites):
    """The dense chain as the trace of every N-site product, which the
    two-half-chain matmul of to_dense replaced: the oracle."""
    amps = np.trace(mps._blocked(a, n_sites), axis1=1, axis2=2)
    amps = np.transpose(amps.reshape((a.d,) * n_sites), list(range(n_sites - 1, -1, -1)))
    return amps.reshape(-1) / np.linalg.norm(amps)


class TestSiteApply:
    """The contiguous-window matmul of the dense certificate and the boundary
    action against the transposing site_axes_apply oracle."""

    @pytest.mark.parametrize("local_dim, n_sites", [(2, 7), (3, 5), (4, 4)])
    def test_matches_site_axes_apply(self, local_dim, n_sites):
        # every window of width 1-3 at every start
        rng = np.random.default_rng(local_dim)
        psi = rng.normal(size=local_dim ** n_sites) + 1j * rng.normal(size=local_dim ** n_sites)
        for width in (1, 2, 3):
            dim = local_dim ** width
            mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            for j in range(n_sites - width + 1):
                got = mps._site_apply(mat, psi, j, local_dim, n_sites)
                ref = site_axes_apply(mat, psi, range(j, j + width), local_dim, n_sites)
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
                if width == 1:      # the one-site matmul on the (d^(N-1-j), d, d^j) view
                    view = psi.reshape(local_dim ** (n_sites - 1 - j), local_dim, local_dim ** j)
                    assert got.tobytes() == (mat @ view).reshape(psi.shape).tobytes()


class TestGeneratorAction:
    """The dense certificate's target sum_j L_j psi on psi's support against
    the dense sum of _site_apply passes it replaced."""

    @pytest.mark.parametrize("name,axis,n_sites", [
        (name, axis, n) for name, axes in (("aklt", "xyz"), ("ssh", "z"))
        for axis in axes for n in (6, 8)])
    def test_support_target_equals_site_apply_sum(self, name, axis, n_sites):
        tensor = {"aklt": builtin_aklt(), "ssh": builtin_ssh()}[name]
        gen = spin1_matrix(axis) if name == "aklt" else ssh_sz_matrix()
        psi = to_dense(tensor, n_sites)
        lam = list(range(1, n_sites - 1))
        want = np.zeros(psi.shape, dtype=complex)
        for j in lam:
            want += mps._site_apply(np.asarray(gen, dtype=complex), psi, j, tensor.d, n_sites)
        idx, vals = mps._generator_action(gen, supports([psi])[0], lam, tensor.d)
        assert np.all(np.diff(idx) > 0) and len(idx) < psi.size
        got = np.zeros(psi.shape, dtype=complex)
        got[idx] = vals
        assert got.tobytes() == want.tobytes()


class TestDenseChain:
    @pytest.mark.parametrize("name,n_sites", [
        (name, n) for name in ("aklt", "ssh", "random") for n in (1, 2, 5, 6, 7)
        if (name, n) != ("aklt", 1)])       # AKLT's one-site traces all vanish
    def test_half_chains_match_traced_blocks(self, name, n_sites):
        rng = np.random.default_rng(n_sites)
        tensor = {"aklt": builtin_aklt(), "ssh": builtin_ssh(),
                  "random": MPSTensor(rng.normal(size=(3, 3, 3))
                                      + 1j * rng.normal(size=(3, 3, 3)))}[name]
        got, want = to_dense(tensor, n_sites), traced_blocked_dense(tensor, n_sites)
        assert np.abs(got - want).max() <= 1e-14

    def test_ssh_is_dimerized_singlets(self):
        # PBC chain of 2 unit cells: two singlets (beta_j, alpha_{j+1})
        psi = to_dense(builtin_ssh(), 2)
        # on-site index s = 2 s_alpha + s_beta, up=0 down=1; chain index
        # little-endian in the cell number
        singlet = {}
        amp = 0.5
        # cells (0,1): singlet between beta_0, alpha_1 and beta_1, alpha_0
        for sb0, sa1 in ((0, 1), (1, 0)):
            for sb1, sa0 in ((0, 1), (1, 0)):
                sign = (1 if (sb0, sa1) == (0, 1) else -1) \
                    * (1 if (sb1, sa0) == (0, 1) else -1)
                idx = (2 * sa0 + sb0) + 4 * (2 * sa1 + sb1)
                singlet[idx] = sign * amp
        manual = np.zeros(16, dtype=complex)
        for idx, val in singlet.items():
            manual[idx] = val
        overlap = abs(np.vdot(manual, psi))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_aklt_translation_invariant(self):
        psi = to_dense(builtin_aklt(), 6)
        tens = psi.reshape((3,) * 6)
        rolled = np.moveaxis(tens, 0, 5).reshape(-1)
        assert abs(abs(np.vdot(rolled, psi)) - 1.0) < 1e-12

    def test_vanishing_chain_raises(self):
        # every one-site trace of the AKLT tensor is 0: no state to normalise
        with pytest.raises(ValueError, match="vanishes"):
            to_dense(builtin_aklt(), 1)


class TestClassification:
    def test_aklt_sz_type_two(self):
        label = classify_symmetry_generator(builtin_aklt(), spin1_matrix("z"))
        assert label.value == "II"

    def test_aklt_sx_type_two(self):
        label = classify_symmetry_generator(builtin_aklt(), spin1_matrix("x"))
        assert label.value == "II"

    def test_aklt_mixed_generator_type_two(self):
        gen = 1.0 * spin1_matrix("x") - 0.7 * spin1_matrix("y")
        label = classify_symmetry_generator(builtin_aklt(), gen)
        assert label.value == "II"

    def test_ssh_sz_type_one(self):
        label = classify_symmetry_generator(builtin_ssh(), ssh_sz_matrix(),
                                            dense_sizes=(6,))
        assert label.value == "I"

    def test_dense_certificate_skips_patches_below_patch_rule(self, monkeypatch):
        # AKLT S^z is type II; read as rank-deficient it must not get a type-I
        # certificate from a patch its two R_inj = 2 windows cover (N = 6)
        monkeypatch.setattr(mps, "is_full_rank", lambda a: False)
        label = classify_symmetry_generator(builtin_aklt(), spin1_matrix("z"),
                                            dense_sizes=(6,))
        assert label.value == "indeterminate"

    def test_indeterminate_note_names_failed_clause(self, monkeypatch):
        # V = -1 at theta = 2 pi is a pure phase; the transfer matrix is full rank
        assert is_full_rank(builtin_aklt())
        with monkeypatch.context() as patch:
            patch.setattr(mps, "THETA_SAMPLES", (0.3, 2 * np.pi))
            label = classify_symmetry_generator(builtin_aklt(), spin1_matrix("z"))
        assert (label.value, label.notes) == (
            "indeterminate", ("a sampled V is a pure phase, no Hermitian certificate",))
        monkeypatch.setattr(mps, "is_full_rank", lambda a: False)
        label = classify_symmetry_generator(builtin_aklt(), spin1_matrix("z"),
                                            dense_sizes=(6,))
        assert (label.value, label.notes) == (
            "indeterminate", ("rank-deficient transfer matrix, no Hermitian certificate",))

    def test_not_injective_up_to_bound_is_indeterminate(self, monkeypatch):
        # no tensor is known that reaches this verdict with push-through
        # holding: the non-injective ones tried (AKLT (x) 1_2, AKLT (x) diag(1, c))
        # fail it, their twisted transfer map's leading eigenvalue degenerate
        monkeypatch.setattr(mps, "is_full_rank", lambda a: False)
        monkeypatch.setattr(mps, "injectivity_length", lambda a: NotInjective(6))
        monkeypatch.setattr(mps, "_boundary_generator_hermitian_feasible",
                            lambda *a: pytest.fail("no dense certificate without R_inj"))
        label = classify_symmetry_generator(builtin_aklt(), spin1_matrix("z"))
        assert (label.value, label.notes) == ("indeterminate",
                                              ("tensor not injective up to bound",))
        assert len(label.evidence) == 3 and all(nt for *_, nt in label.evidence)

    def test_non_injective_push_through_failure_is_indeterminate(self):
        # AKLT (x) 1_2 is the AKLT state, symmetric under S^z, yet push-through
        # fails on it: without injectivity that proves nothing
        a = MPSTensor(np.stack([np.kron(np.eye(2), m) for m in builtin_aklt().data]))
        assert isinstance(injectivity_length(a), NotInjective) and is_full_rank(a)
        assert push_through_check(a, spin1_matrix("z"), 0.3)[1] == pytest.approx(1.154, abs=1e-3)
        label = classify_symmetry_generator(a, spin1_matrix("z"))
        assert (label.value, label.evidence, label.notes) == (
            "indeterminate", (), ("tensor not injective up to bound",))

    def test_injective_push_through_failure_raises(self, monkeypatch):
        gen = np.array([[0.3, 0.2, 0], [0.2, -0.1, 0.4j], [0, -0.4j, 0.5]])
        calls = []
        monkeypatch.setattr(mps, "injectivity_length",
                            lambda a: calls.append(a) or injectivity_length(a))
        with pytest.raises(NotSymmetricError, match="theta=0.3: residual 1.11"):
            classify_symmetry_generator(builtin_aklt(), gen)
        assert len(calls) == 1
        # a symmetric injective tensor never consults injectivity
        classify_symmetry_generator(builtin_aklt(), spin1_matrix("z"))
        assert len(calls) == 1

    def test_zero_generator_is_locally_symmetric(self):
        label = classify_symmetry_generator(builtin_aklt(), np.zeros((3, 3)))
        assert label.value == "I"
        assert label.notes == ("tensor locally symmetric: V is a pure phase",)

    def test_not_symmetric_raises(self):
        bad = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(NotSymmetricError):
            classify_symmetry_generator(builtin_aklt(), bad)
