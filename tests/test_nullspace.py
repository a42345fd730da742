"""Correlation matrices, null spaces and class counts vs brute-force oracles."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scartypes import canonical, nullspace, opspace, states
from scartypes.nullspace import (OperatorBasis, build_correlation,
                                 count_type_classes, null_space,
                                 pauli_string_basis, verify_null_vector,
                                 window_basis)
from scartypes.opspace import LocalOperator, apply, to_pauli_basis
from operator_oracles import string_masks, to_matrix


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
        assert np.allclose(corr, [[0.0]])

    def test_sigma_x_on_vacuum(self):
        n = 6
        basis = OperatorBasis(((0, ("x",)),), n)
        corr = build_correlation(basis, [states.vacuum(n)], "H")
        assert np.allclose(corr, [[1.0]])

    def test_zero_operator_gives_zero_row(self):
        n = 6
        basis = OperatorBasis(((0, ("z",)), (0, ())), n)
        corr = build_correlation(basis, [states.w_state(n)], "G")
        assert np.allclose(corr[1, :], 0.0)
        assert np.allclose(corr[:, 1], 0.0)

    def test_hermitian_kind_requires_hermitian_basis(self):
        n = 4
        bad = OperatorBasis(((0, ("sd",)),), n)
        with pytest.raises(ValueError):
            build_correlation(bad, [states.vacuum(n)], "H")

    def test_hermitian_kind_accepts_number_strings(self):
        n = 4
        basis = OperatorBasis(((0, ("n",)), (1, ("n", "z")), (0, ())), n)
        corr = build_correlation(basis, [states.w_state(n)], "H")
        assert corr.shape == (3, 3)
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
            got = build_correlation(basis, psis, kind, degenerate)
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
            assert got.dtype == want.dtype          # real for H, complex for G
            assert np.abs(got - want).max() <= 1e-12

    def test_psd(self):
        n = 6
        win = window_basis(n, 1, 2)
        for kind in ("H", "G"):
            corr = build_correlation(win, [states.vacuum(n), states.w_state(n)],
                                     kind)
            null_space(corr)                  # raises unless PSD
            assert np.linalg.eigvalsh(corr)[0] > -1e-10


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

    def test_one_eigendecomposition_and_psd_check(self, monkeypatch):
        n = 6
        corr = build_correlation(window_basis(n, 0, 2), [states.w_state(n)], "G")
        want = null_space(corr)
        monkeypatch.setattr(nullspace.np.linalg, "eigvalsh", None)
        got = null_space(corr)
        assert got.dim == want.dim and got.gap == want.gap
        assert np.allclose(corr @ got.range, got.range @ np.diag(
            np.linalg.eigh(corr)[0][got.dim:]))
        with pytest.raises(ValueError, match="not PSD"):
            null_space(np.diag([-1.0, 1.0]))

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
        corr_g = build_correlation(win, psis, "G")
        for row in rep_h.basis:
            assert np.linalg.norm(corr_g @ row) < 1e-10

    def test_one_pauli_basis_per_count(self, monkeypatch):
        built = []
        basis = nullspace.pauli_string_basis
        monkeypatch.setattr(nullspace, "pauli_string_basis",
                            lambda n, r: built.append(r) or basis(n, r))
        count_type_classes(8, 2, 3, [states.vacuum(8), states.w_state(8)])
        assert built == [3]

    def test_range_r_basis_is_a_prefix(self):
        # patterns come shortest first and N >= 2R' leaves no two keys equal
        for n, r, rp in ((2, 1, 1), (4, 1, 2), (8, 2, 3), (8, 1, 4), (10, 3, 5)):
            short, full = pauli_string_basis(n, r).keys, pauli_string_basis(n, rp).keys
            assert full[:len(short)] == short
            assert len(short) == n * len(nullspace._pauli_patterns_upto(r))

    def test_preconditions(self):
        psis = [states.vacuum(8)]
        with pytest.raises(ValueError):
            count_type_classes(8, 3, 2, psis)
        with pytest.raises(opspace.CapacityError):
            count_type_classes(13, 2, 2, [states.vacuum(13)])
        for r_glo in (0, -1):
            with pytest.raises(ValueError):
                count_type_classes(8, r_glo, 2, psis)


def _cluster(n):
    """CZ ring on |+>^N: amplitude (-1)^(sum_j x_j x_{j+1}) / 2^(N/2)."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    parity = np.sum(bits * np.roll(bits, -1, axis=1), axis=1)
    return ((-1.0) ** parity / np.sqrt(1 << n)).astype(complex)


def _ghz(n):
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return psi


def _product(n, theta, phi):
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> on every site."""
    site = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    psi = np.ones(1, dtype=complex)
    for _ in range(n):
        psi = np.kron(site, psi)
    return psi


def _reference_count(n, r_glo, r_loc, psis, degenerate=False):
    """The dense oracle: all N windows from the 2^N action rows, unions as ranks
    of realified stacks.

    Coefficient vectors live in R^{2M}: a real span contributes [Re v, Im v],
    a complex span also [-Im v, Re v].
    """
    full = pauli_string_basis(n, r_loc)
    index = {k: i for i, k in enumerate(full.keys)}

    def null_rows(basis, kind):
        rep = null_space(_dense_correlation(basis, psis, kind, degenerate))
        out = np.zeros((rep.dim, len(full.keys)), dtype=complex)
        out[:, [index[k] for k in basis.keys]] = rep.basis
        return out

    def realify(rows, complex_span):
        blocks = [np.hstack([rows.real, rows.imag])]
        if complex_span:
            blocks.append(np.hstack([-rows.imag, rows.real]))
        return np.vstack(blocks)

    windows = [window_basis(n, j, r_loc) for j in range(n)]
    glo = realify(null_rows(pauli_string_basis(n, r_glo), "H"), False)
    h_loc = realify(np.vstack([null_rows(w, "H") for w in windows]), False)
    g_loc = realify(np.vstack([null_rows(w, "G") for w in windows]), True)
    dims = {"ZH_glo": nullspace.real_rank(glo),
            "ZH_loc": nullspace.real_rank(h_loc),
            "ZG_loc": nullspace.real_rank(g_loc),
            "union_H": nullspace.real_rank(np.vstack([glo, h_loc])),
            "union_G": nullspace.real_rank(np.vstack([glo, g_loc]))}
    n_iii = dims["union_G"] - dims["ZG_loc"]
    n_ii = dims["union_H"] - dims["union_G"] + dims["ZG_loc"] - dims["ZH_loc"]
    return n_ii, n_iii, dims


def _counted(res):
    return res.n_ii, res.n_iii, {k: v for k, v in res.dims.items() if isinstance(v, int)}


def _phased(psis, seed):
    rng = np.random.default_rng(seed)
    return [psi * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) for psi in psis]


def _invariant_sets(n):
    vac, w, w2 = states.vacuum(n), states.w_state(n), states.w_p(n, 2)
    return {"vac_w": [vac, w], "vac": [vac], "vac_w_w2": [vac, w, w2],
            "vac_wq": [vac, states.w_q(n, 1)],
            "phased_vac_w_w2": _phased([vac, w, w2], 5),
            "phased_vac_wq2": _phased([vac, states.w_q(n, 2)], 6)}


def _dense_correlation(basis, psis, kind, degenerate=False):
    """The 2^N action-row build the factor path replaced: rows V_mu|psi>."""
    gram = np.zeros((len(basis), len(basis)), dtype=complex)
    expect = []
    for psi in psis:
        acts = np.zeros((len(basis), psi.size), dtype=complex)
        masks = string_masks(basis.n_sites, ((key, 1.0) for key in basis.keys))
        for row, (src, flip, vals) in zip(acts, masks):
            row[src ^ flip] = vals * psi[src]
        e = acts @ psi.conj()
        gram += acts.conj() @ acts.T - np.outer(e.conj(), e)
        expect.append(e)
    if degenerate:
        for e in expect:
            d = e - np.mean(expect, axis=0)
            gram += np.outer(d.conj(), d)
    return gram.real.copy() if kind == "H" else gram


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def _factor_sets():
    """(N, states) pairs: random (F taller than wide), droplet, boosted W, odd N."""
    return {"random": (8, [_random_state(8, 3)]),
            "vac_droplet": (8, [states.vacuum(8),
                                states.translate(states.droplet(8, 4, 1), 3, 8)]),
            "vac_w_w2": (8, [states.vacuum(8), states.w_state(8), states.w_p(8, 2)]),
            "wq1_wq3": (8, [states.w_q(8, 1), states.w_q(8, 3)]),
            "odd_vac_wq2": (7, _phased([states.vacuum(7), states.w_q(7, 2)], 6))}


class TestFactorPath:
    """Window factors, the orbit gram and thin-SVD ranges against the dense build."""

    @pytest.mark.parametrize("name", list(_factor_sets()))
    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_window_factor_matches_dense(self, name, width, degenerate):
        n, psis = _factor_sets()[name]
        starts = [0, 3, n - 1]                  # n - 1 wraps around the ring
        window = window_basis(n, 0, width)
        factors = nullspace._window_factors(window, width, psis, degenerate, starts)
        for j, f in zip(starts, factors):
            if name == "random":
                assert f.shape[0] > f.shape[1]      # chi = 2^w rows per column block
            for kind, part in (("G", f), ("H", np.vstack([f.real, f.imag]))):
                want = _dense_correlation(window_basis(n, j, width), psis, kind, degenerate)
                assert _rel(part.conj().T @ part, want) <= 1e-13
                # thin-SVD range and gap against the eigh of the dense gram
                rng, gap = nullspace._range(part)
                rep = null_space(want)
                assert rng.shape == rep.range.shape
                assert np.abs(rng @ rng.conj().T - rep.range @ rep.range.conj().T).max() <= 1e-13
                assert gap == pytest.approx(rep.gap, rel=1e-12)

    @pytest.mark.parametrize("name", list(_factor_sets()))
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_orbit_gram_matches_dense(self, monkeypatch, name, degenerate):
        # whole orbits of translation eigenstates take the orbit gram, the
        # rest (and any basis not listed orbit by orbit) the full-ring factor
        n, psis = _factor_sets()[name]
        calls = []
        orbit_gram = nullspace._orbit_gram
        monkeypatch.setattr(nullspace, "_orbit_gram",
                            lambda *args: calls.append(1) or orbit_gram(*args))
        invariant = nullspace._translation_eigenstates(psis, n)
        for basis, orbits in ((pauli_string_basis(n, 2), invariant),
                              (pauli_string_basis(n, 3), invariant),
                              (window_basis(n, 5, 3), False)):
            for kind in ("H", "G"):
                calls.clear()
                want = _dense_correlation(basis, psis, kind, degenerate)
                got = build_correlation(basis, psis, kind, degenerate)
                assert _rel(got, want) <= 1e-13
                assert len(calls) == orbits

    def test_whole_orbits_of_windows_over_half_the_ring(self, monkeypatch):
        # shift-stable patterns are checked by shift, longer windows through
        # _canonical_key: at N = 6, x x x x has a unique window at every shift,
        # while z id id z ties and canonicalizes shift 3 onto shift 0
        n = 6
        psis = _phased([states.vacuum(n), states.w_state(n)], 3)
        calls = []
        orbit_gram = nullspace._orbit_gram
        monkeypatch.setattr(nullspace, "_orbit_gram",
                            lambda *args: calls.append(1) or orbit_gram(*args))
        for pats, orbits in (((("z",), ("x",) * 4), True), ((("z", "id", "id", "z"),), False)):
            basis = OperatorBasis(tuple((d, ops) for ops in pats for d in range(n)), n)
            calls.clear()
            want = _dense_correlation(basis, psis, "G")
            assert _rel(build_correlation(basis, psis, "G"), want) <= 1e-13
            assert len(calls) == orbits

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_sparse_support_matches_dense_n12(self, monkeypatch, degenerate):
        # 1 + 12 + 66 amplitudes of 4096: each F keeps only the rows the
        # states and their images reach, on the orbit path and off it
        n = 12
        psis = _phased([states.vacuum(n), states.w_state(n), states.w_p(n, 2)], 7)
        calls = []
        orbit_gram = nullspace._orbit_gram
        monkeypatch.setattr(nullspace, "_orbit_gram",
                            lambda *args: calls.append(1) or orbit_gram(*args))
        for basis, orbits in ((pauli_string_basis(n, 2), True), (window_basis(n, 5, 3), False)):
            for kind in ("H", "G"):
                calls.clear()
                want = _dense_correlation(basis, psis, kind, degenerate)
                assert _rel(build_correlation(basis, psis, kind, degenerate), want) <= 1e-13
                assert len(calls) == orbits

    def test_schmidt_rank_rows(self):
        # W has Schmidt rank 2 across any cut, the vacuum 1: F has (1 + 2) 2^w rows
        n, width = 10, 4
        psis = [states.vacuum(n), states.w_state(n)]
        (f,) = nullspace._window_factors(window_basis(n, 0, width), width, psis, False, [0])
        assert f.shape == (3 << width, 4 ** width - 1)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 1.0 + 1e-8])
    def test_unnormalized_states_rejected(self, scale):
        n = 8
        psis = [scale * states.vacuum(n), scale * states.w_state(n)]
        with pytest.raises(ValueError, match="norm"):
            count_type_classes(n, 2, 3, psis)
        with pytest.raises(ValueError, match="norm"):
            build_correlation(window_basis(n, 0, 2), psis[1:], "G")

    def test_empty_state_set_rejected(self):
        with pytest.raises(ValueError, match="at least one state"):
            count_type_classes(8, 2, 2, [])
        with pytest.raises(ValueError, match="at least one state"):
            build_correlation(window_basis(8, 0, 2), [], "G")

    def test_norm_tolerance(self):
        n = 8
        psis = [states.vacuum(n), (1.0 + 1e-12) * states.w_state(n)]
        res = count_type_classes(n, 2, 3, psis)
        assert (res.n_ii, res.n_iii) == (1, 1)

    def test_w_and_vacuum_n12_rp6(self):
        # the paper's (N_II, N_III) = (1, 1) at R' = N/2 = 6
        n = 12
        res = count_type_classes(n, 2, 6, [states.vacuum(n), states.w_state(n)])
        assert (res.n_ii, res.n_iii) == (1, 1)
        assert [res.dims[k] for k in ("ZH_glo", "ZH_loc", "ZG_loc", "union_H", "union_G")] == \
            [50, 35328, 72190, 35330, 72191]


class TestSpanDims:
    """The complement solve on hand-built spans: sectors, all windows and the realified oracle."""

    @staticmethod
    def _range(null_rows):
        """Orthonormal columns orthogonal to the null vectors (rows), as null_space reports."""
        _, svals, vh = np.linalg.svd(null_rows.conj())
        return vh[int(np.sum(svals > 1e-12)):].conj().T

    @pytest.mark.parametrize("momentum", [0, 1])
    def test_real_span_off_complex_span(self, momentum):
        # ZG_loc holds g1 - i g2 for real ZH_glo rows g1, g2 outside it: off
        # ZG_loc they span a real plane, twice their complex rank
        n, shifts = 4, np.arange(4)
        glo = np.zeros((2, 2, n))                   # (row, pattern, shift)
        loc = np.zeros((2, n), dtype=complex)       # (pattern, shift)
        if momentum == 0:
            glo[0, 0] = glo[1, 1] = 0.5
            loc[:, 0] = 1.0, -1j
        else:                                       # sectors 1 and 3 = -1, paired
            glo[0, 0] = np.cos(np.pi * shifts / 2) / np.sqrt(2)
            glo[1, 0] = np.sin(np.pi * shifts / 2) / np.sqrt(2)
            loc[0] = np.exp(-0.5j * np.pi * shifts)
        # one window holds every (pattern, shift) string; window j's null
        # vector is loc translated by j, and no Hermitian operator is null
        flat, pos = glo.reshape(2, -1).astype(complex), np.arange(2 * n)
        every = self._range(np.zeros((0, 2 * n)))
        w_rows = np.vstack([np.roll(loc, j, axis=1).reshape(1, -1) for j in range(n)])
        sector, _ = nullspace._complement_dims(flat, [every], [self._range(w_rows[:1])], pos, n)
        dense, _ = nullspace._complement_dims(
            flat, [every] * n, [self._range(row[None]) for row in w_rows], np.tile(pos, n), 1)
        realified = np.vstack([np.hstack([flat.real, 0 * flat.real]),
                               np.hstack([w_rows.real, w_rows.imag]),
                               np.hstack([-w_rows.imag, w_rows.real])])
        assert sector == dense
        assert dense["union_G"] == nullspace.real_rank(realified) == dense["ZG_loc"] + 2
        assert (dense["ZH_glo"], dense["ZH_loc"], dense["union_H"]) == (2, 0, 2)


def _dense(monkeypatch):
    """Route count_type_classes through the N-window path whatever the states."""
    monkeypatch.setattr(nullspace, "_translation_eigenstates", lambda *args: False)


class TestSectorPath:
    """Momentum sectors of window 0 against all N windows and the realified oracle."""

    def test_full_basis_is_pattern_by_shift(self):
        # count_type_classes reshapes full-basis columns to (pattern, shift)
        n = 8
        for r in (2, 3, 4):
            keys = pauli_string_basis(n, r).keys
            pats = nullspace._pauli_patterns_upto(r)
            assert keys == tuple((i % n, pats[i // n]) for i in range(n * len(pats)))

    @pytest.mark.parametrize("name", list(_invariant_sets(8)))
    @pytest.mark.parametrize("r_loc", [2, 3])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_sector_equals_dense(self, monkeypatch, name, r_loc, degenerate):
        n = 8
        psis = _invariant_sets(n)[name]
        assert nullspace._translation_eigenstates(psis, n)
        sector = _counted(count_type_classes(n, 2, r_loc, psis, degenerate))
        _dense(monkeypatch)
        assert _counted(count_type_classes(n, 2, r_loc, psis, degenerate)) == sector
        if r_loc == 2 or not degenerate:
            assert sector == _reference_count(n, 2, r_loc, psis, degenerate)

    @pytest.mark.parametrize("r_loc", [2, 3])
    def test_odd_ring(self, r_loc):
        # odd N: sector 0 is the only self-conjugate one
        n = 7
        for name in ("vac_w", "phased_vac_wq2"):
            psis = _invariant_sets(n)[name]
            got = _counted(count_type_classes(n, 2, r_loc, psis))
            assert got == _reference_count(n, 2, r_loc, psis)

    def test_sector_equals_reference_n12(self):
        n = 12
        psis = [states.vacuum(n), states.w_state(n)]
        want = _reference_count(n, 2, 3, psis)
        assert _counted(count_type_classes(n, 2, 3, psis)) == want
        assert want[:2] == (1, 1)

    @pytest.mark.parametrize("shift", [0, 3, 5])
    def test_droplet_sets_take_dense_path(self, monkeypatch, shift):
        n = 8
        vac, w, w2 = states.vacuum(n), states.w_state(n), states.w_p(n, 2)
        drop = states.translate(states.droplet(n, 4, 1), shift, n)
        # one window basis decoded in both paths; the dense path factors all
        # N windows from it, the sector path window 0 only
        calls, starts = [], []
        window, factors = nullspace.window_basis, nullspace._window_factors
        monkeypatch.setattr(nullspace, "window_basis",
                            lambda *args: calls.append(args) or window(*args))
        monkeypatch.setattr(nullspace, "_window_factors",
                            lambda *args: starts.append(list(args[-1])) or factors(*args))
        for psis in ([vac, drop], [vac, w, w2, drop]):
            assert not nullspace._translation_eigenstates(psis, n)
            calls.clear()
            starts.clear()
            got = _counted(count_type_classes(n, 2, 2, psis))
            assert calls == [(n, 0, 2)] and starts == [list(range(n))]
            assert got == _reference_count(n, 2, 2, psis)
        calls.clear()
        starts.clear()
        count_type_classes(n, 2, 2, [vac, w])
        assert calls == [(n, 0, 2)] and starts == [[0]]

    def test_droplet_dense_path_r3(self):
        n = 8
        psis = _phased([states.vacuum(n),
                        states.translate(states.droplet(n, 4, 1), 3, n)], 7)
        got = _counted(count_type_classes(n, 2, 3, psis))
        assert got == _reference_count(n, 2, 3, psis)
        assert got[:2] == (0, 1)

    @pytest.mark.parametrize("dense", [False, True])
    def test_empty_local_span(self, monkeypatch, dense):
        # the cluster state has no non-trivial eigenoperator on two sites
        n = 8
        psis = [_cluster(n)]
        assert nullspace._translation_eigenstates(psis, n)
        if dense:
            _dense(monkeypatch)
        res = count_type_classes(n, 2, 2, psis)
        assert _counted(res) == (0, 24, {"ZH_glo": 24, "ZH_loc": 0, "ZG_loc": 0,
                                         "union_H": 24, "union_G": 24})

    def test_window_gaps_reported(self, monkeypatch):
        n = 8
        psis = [states.vacuum(n), states.w_state(n)]
        win = window_basis(n, 0, 3)
        sector = count_type_classes(n, 2, 3, psis).dims
        for kind in ("H", "G"):
            # thin-SVD gaps (squared singular values) against eigh of the gram
            gap = null_space(build_correlation(win, psis, kind)).gap
            assert sector[f"gap_Z{kind}_loc"] == pytest.approx(gap, rel=1e-12)
            assert gap > 1e-3
        _dense(monkeypatch)
        dense = count_type_classes(n, 2, 3, psis).dims
        for key in ("gap_ZH_loc", "gap_ZG_loc"):
            assert dense[key] == pytest.approx(sector[key], rel=1e-9)
        assert list(dense) == ["ZH_glo", "ZH_loc", "ZG_loc", "union_H", "union_G",
                               "gap_ZH_glo", "gap_ZH_loc", "gap_ZG_loc",
                               "margin_ZH_loc", "margin_ZG_loc"]

    @pytest.mark.parametrize("dense", [False, True])
    def test_margins_reported(self, monkeypatch, dense):
        # a margin is K's smallest kept singular value over RANK_TOL; the kept
        # ones are O(1), so margins read about 1e9 to 1e10
        n = 8
        if dense:
            _dense(monkeypatch)
        for psis in ([states.vacuum(n), states.w_state(n)],
                     [states.vacuum(n), states.translate(states.droplet(n, 4, 1), 3, n)]):
            dims = count_type_classes(n, 2, 3, psis).dims
            for key in ("margin_ZH_loc", "margin_ZG_loc"):
                assert isinstance(dims[key], float) and 1e9 < dims[key] < 1e11
        # for {vacuum, W, W^2} at R' = 2 every K has full rank: nothing is cut,
        # and the margin still reads the smallest kept singular value
        psis = [states.vacuum(n), states.w_state(n), states.w_p(n, 2)]
        dims = count_type_classes(n, 2, 2, psis).dims
        for key in ("margin_ZH_loc", "margin_ZG_loc"):
            assert isinstance(dims[key], float) and 1e9 < dims[key] < 1e11

    @pytest.mark.parametrize("shift", [0, 3, 5])
    @pytest.mark.parametrize("r_loc", [2, 3])
    @pytest.mark.parametrize("dense", [False, True])
    def test_droplet_sets_match_reference(self, monkeypatch, shift, r_loc, dense):
        n = 8
        vac, w, w2 = states.vacuum(n), states.w_state(n), states.w_p(n, 2)
        drop = states.translate(states.droplet(n, 4, 1), shift, n)
        if dense:
            _dense(monkeypatch)
        for psis in ([vac, drop], [vac, w, w2, drop]):
            got = _counted(count_type_classes(n, 2, r_loc, psis))
            assert got == _reference_count(n, 2, r_loc, psis)

    @pytest.mark.parametrize("n, r_loc, psis, want", [
        (12, 5, lambda n: [_cluster(n)], (36, 7680, 16896, 7680, 16896)),
        (10, 5, lambda n: [_ghz(n)], (59, 7039, 14718, 7039, 14718)),
        (8, 4, lambda n: [_product(n, 0.7, 0.3)], (64, 1408, 2944, 1408, 2944)),
    ], ids=["cluster", "ghz", "product"])
    def test_pinned_dims(self, n, r_loc, psis, want):
        # integer dims of the stacked-SVD span computation this solve replaced
        res = count_type_classes(n, 2, r_loc, psis(n))
        keys = ("ZH_glo", "ZH_loc", "ZG_loc", "union_H", "union_G")
        assert tuple(res.dims[k] for k in keys) == want
        assert (res.n_ii, res.n_iii) == (0, 0)

    def test_w_and_vacuum_n10_rp5(self):
        # the paper's (N_II, N_III) = (1, 1) at R' = N/2
        n = 10
        start = time.perf_counter()
        res = count_type_classes(n, 2, 5, [states.vacuum(n), states.w_state(n)])
        elapsed = time.perf_counter() - start
        assert (res.n_ii, res.n_iii) == (1, 1)
        assert [res.dims[k] for k in ("ZH_loc", "ZG_loc", "union_H", "union_G")] == \
            [7040, 14718, 7042, 14719]
        assert elapsed < 15.0


def _oracle_complement_dims(glo, h_ranges, g_ranges, pos, sectors: int):
    """The complement solve with a K SVD and a tall QR in every sector, H and G
    alike: the oracle of nullspace._complement_dims.

    Real dimensions of ZH_glo, ZH_loc, ZG_loc and their unions, and K's margins.

    ``glo`` holds ZH_glo's orthonormal rows over the full basis (index i:
    column i // sectors, shift i % sectors), ``pos`` the full index of each
    row of the windows' stacked ranges X.  K_k equates each later copy of a
    column, phased by e^{-2 pi i k shift / sectors}, with its first copy,
    which gives the complement's coordinates.  ZH_glo's sector rows r_k on
    it add rank [r_k, conj r_{-k}] real dimensions to a union.  X's columns
    are orthonormal, so K's cut RANK_TOL is absolute; a margin is the
    smallest kept singular value in any sector over RANK_TOL, None when
    nothing is kept.
    """
    columns, shifts = pos // sectors, pos % sectors
    first = np.unique(columns, return_index=True)[1]
    later = np.setdiff1d(np.arange(len(pos)), first)
    partner = first[columns[later]]                 # each later copy's first copy
    phases = np.exp(-2j * np.pi / sectors * np.outer(np.arange(sectors), np.arange(sectors)))
    glo = glo.reshape(len(glo), -1, sectors) @ phases.T / np.sqrt(sectors)

    def project(ranges):
        """The local span's complex dimension, the real dimension ZH_glo adds, K's margin."""
        left = np.cumsum([0] + [r.shape[1] for r in ranges])
        stack = np.zeros((len(pos), left[-1]), dtype=complex)
        for j, r in enumerate(ranges):          # block diagonal; windows are equal in size
            stack[j * len(r):(j + 1) * len(r), left[j]:left[j + 1]] = r
        copies, partners, firsts = stack[later], stack[partner], stack[first]
        del stack                       # K's three row sets, phased per sector below
        coords, kept = [], []
        for k, ph in enumerate(phases[:, shifts]):
            k_mat = ph[later, None] * copies
            k_mat -= ph[partner, None] * partners
            # all right singular vectors; a full U only when it is the smaller
            _, svals, vh = np.linalg.svd(k_mat, full_matrices=len(k_mat) < k_mat.shape[1])
            rank = int(np.sum(svals > nullspace.RANK_TOL))
            kept.append(svals[:rank])
            basis = np.linalg.qr((ph[first, None] * firsts) @ vh[rank:].conj().T)[0]
            coords.append(glo[:, :, k] @ basis.conj())
        local = sum(len(first) - off.shape[1] for off in coords)
        added = sum(nullspace.real_rank(np.hstack([off, coords[-k].conj()]), scale=1.0)
                    for k, off in enumerate(coords))
        kept = np.concatenate(kept)
        return local, added, float(kept.min() / nullspace.RANK_TOL) if kept.size else None

    (h_loc, h_add, margin_h), (g_loc, g_add, margin_g) = project(h_ranges), project(g_ranges)
    dims = {"ZH_glo": len(glo), "ZH_loc": h_loc, "ZG_loc": 2 * g_loc,
            "union_H": h_loc + h_add, "union_G": 2 * g_loc + g_add}
    return dims, {"margin_ZH_loc": margin_h, "margin_ZG_loc": margin_g}


def _complement_args(monkeypatch, n, r_loc, psis, degenerate=False):
    """The arguments count_type_classes passes to _complement_dims (patches undone)."""
    calls, solve = [], nullspace._complement_dims
    monkeypatch.setattr(nullspace, "_complement_dims",
                        lambda *args: calls.append(args) or solve(*args))
    count_type_classes(n, 2, r_loc, psis, degenerate)
    monkeypatch.undo()
    return calls[0]


def _complement_sets():
    """(N, R', states, degenerate, N-window path) for the differential test."""
    vac, w = states.vacuum, states.w_state
    return {"vac_w.8.3": (8, 3, [vac(8), w(8)], False, False),
            "vac_w.8.4": (8, 4, [vac(8), w(8)], False, False),
            "vac_w.10.4": (10, 4, [vac(10), w(10)], False, False),
            "wq1_wq3.8.3": (8, 3, [states.w_q(8, 1), states.w_q(8, 3)], False, False),
            "vac_w_w2_degenerate.8.3": (8, 3, [vac(8), w(8), states.w_p(8, 2)], True, False),
            "vac_droplet.8.3": (8, 3, [vac(8), states.translate(states.droplet(8, 4, 1), 3, 8)],
                                False, False),
            "cluster.8.3": (8, 3, [_cluster(8)], False, False),
            "cluster.8.4": (8, 4, [_cluster(8)], False, False),
            "odd_vac_wq2.7.3": (7, 3, _phased([vac(7), states.w_q(7, 2)], 6), False, False),
            "vac_w_all_windows.8.3": (8, 3, [vac(8), w(8)], False, True)}


class TestComplementOracle:
    """The Gram/Cholesky complement with conjugate H sectors against the QR-per-sector solve."""

    @pytest.mark.parametrize("name", list(_complement_sets()))
    def test_matches_qr_oracle(self, monkeypatch, name):
        n, r_loc, psis, degenerate, dense = _complement_sets()[name]
        if dense:
            _dense(monkeypatch)
        args = _complement_args(monkeypatch, n, r_loc, psis, degenerate)
        sectors = args[-1]
        assert sectors == 1 or not dense
        seen, rank = [], nullspace.real_rank
        monkeypatch.setattr(nullspace, "real_rank", lambda rows, scale=None: seen.append(
            np.linalg.svd(rows, compute_uv=False)) or rank(rows, scale))
        dims, margins = nullspace._complement_dims(*args)
        got, seen[:] = seen[:], []
        want_dims, want_margins = _oracle_complement_dims(*args)
        assert dims == want_dims
        # each union rank sees the oracle's singular values: the H sectors
        # k <= sectors / 2, then every G sector
        solved = sectors // 2 + 1
        assert len(got) == solved + sectors and len(seen) == 2 * sectors
        for svals, want in zip(got, seen[:solved] + seen[sectors:]):
            assert svals == pytest.approx(want, abs=1e-12)
        assert margins.keys() == want_margins.keys()
        for key, want in want_margins.items():
            if want is None:
                assert margins[key] is None
                continue
            assert margins[key] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [7, 8])
    def test_half_the_h_sectors_and_no_qr(self, monkeypatch, n):
        args = _complement_args(monkeypatch, n, 4 if n == 8 else 3,
                                [states.vacuum(n), states.w_state(n)])
        widths = [sum(r.shape[1] for r in ranges) for ranges in args[1:3]]
        assert widths[0] != widths[1]
        k_svds, svd = [], np.linalg.svd

        def spy(a, *rest, **kwargs):        # real_rank passes compute_uv=False
            if kwargs.get("compute_uv", True):
                k_svds.append((a.shape[1], a.dtype))
            return svd(a, *rest, **kwargs)

        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "svd", spy)
        monkeypatch.setattr(np.linalg, "qr", no_qr)
        nullspace._complement_dims(*args)
        h_svds = [dtype for cols, dtype in k_svds if cols == widths[0]]
        assert len(h_svds) == n // 2 + 1
        assert sum(cols == widths[1] for cols, _ in k_svds) == n
        # real K where the phases are +-1: k = 0, and k = N/2 for even N
        assert [dtype == np.float64 for dtype in h_svds] == \
            [k == 0 or 2 * k == n for k in range(n // 2 + 1)]
