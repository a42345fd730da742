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
from scartypes.opspace import LocalOperator, Region, apply, to_pauli_basis
from operator_oracles import (dense_translation_eigenstates, string_masks, supports, to_matrix,
                              translate_reshape_factors)


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
            got = build_correlation(basis, psis, kind)
            shifted = nullspace._gram(basis, supports(psis), degenerate, None)    # one shift term
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
            coupled = want.copy()
            if degenerate:
                for e in expect:
                    d = e - np.mean(expect, axis=0)
                    coupled += np.outer(d.conj(), d)
            assert shifted.shape == want.shape + (1,)
            assert np.abs(shifted[..., 0] - coupled).max() <= 1e-12
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
        null = got.basis.T
        assert np.allclose(corr @ null, null @ np.diag(np.linalg.eigh(corr)[0][:got.dim]))
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
        for psis in ([states.vacuum(8), states.w_state(8)],
                     [states.vacuum(8), states.droplet(8, 4, 1)]):
            built.clear()
            count_type_classes(8, 2, 3, psis)
            assert built == [2]                     # range R only, on both paths

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


def _assembled(g):
    """The (P S) x (P S) matrix C_{(p, s), (p', s')} = g[p, p', s' - s] of shift terms g."""
    n = g.shape[-1]
    diff = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return g[:, :, diff].transpose(0, 2, 1, 3).reshape(g.shape[0] * n, -1)


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
        factors = nullspace._window_factors(window, width, supports(psis), degenerate, starts)
        for j, f in zip(starts, factors):
            if name == "random":
                assert f.shape[0] > f.shape[1]      # chi = 2^w rows per column block
            for kind, part in (("G", f), ("H", np.vstack([f.real, f.imag]))):
                want = _dense_correlation(window_basis(n, j, width), psis, kind, degenerate)
                assert _rel(part.conj().T @ part, want) <= 1e-13
                # thin-SVD range and gap against the eigh of the dense gram
                rng, gap = nullspace._range(part)
                vals, vecs = np.linalg.eigh(want)
                above = vals > nullspace.NULL_TOL * vals[-1]
                assert rng.shape == vecs[:, above].shape
                assert np.abs(rng @ rng.conj().T - vecs[:, above] @ vecs[:, above].conj().T).max() \
                    <= 1e-13
                assert gap == pytest.approx(vals[above][0], rel=1e-12)

    @pytest.mark.parametrize("name", list(_factor_sets()))
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_orbit_gram_matches_dense(self, name, degenerate):
        # whole orbits of translation eigenstates take the orbit gram's N
        # shift terms, every set and basis the full-ring factor's one
        n, psis = _factor_sets()[name]
        lams = nullspace._translation_eigenstates(supports(psis), n)
        assert (lams is None) == (name in ("random", "vac_droplet"))
        for basis, orbits in ((pauli_string_basis(n, 2), True), (pauli_string_basis(n, 3), True),
                              (window_basis(n, 5, 3), False)):
            want = _dense_correlation(basis, psis, "G", degenerate)
            grams = [nullspace._gram(basis, supports(psis), degenerate, None)]
            if orbits and lams is not None:
                grams.append(nullspace._gram(basis, supports(psis), degenerate, lams))
                assert grams[-1].shape == (len(basis) // n, len(basis) // n, n)
            for g in grams:
                assert _rel(_assembled(g), want) <= 1e-13

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_sparse_support_matches_dense_n12(self, degenerate):
        # 1 + 12 + 66 amplitudes of 4096: each F keeps only the rows the
        # states and their images reach, on the orbit path and off it
        n = 12
        psis = _phased([states.vacuum(n), states.w_state(n), states.w_p(n, 2)], 7)
        lams = nullspace._translation_eigenstates(supports(psis), n)
        for basis, shifts in ((pauli_string_basis(n, 2), lams), (window_basis(n, 5, 3), None)):
            want = _dense_correlation(basis, psis, "G", degenerate)
            assert _rel(_assembled(nullspace._gram(basis, supports(psis), degenerate, shifts)),
                        want) <= 1e-13

    def test_schmidt_rank_rows(self):
        # W has Schmidt rank 2 across any cut, the vacuum 1: F has (1 + 2) 2^w rows
        n, width = 10, 4
        psis = [states.vacuum(n), states.w_state(n)]
        (f,) = nullspace._window_factors(window_basis(n, 0, width), width, supports(psis),
                                         False, [0])
        assert f.shape == (3 << width, 4 ** width - 1)

    @pytest.mark.filterwarnings("error")    # a zero state: no division warning first
    @pytest.mark.parametrize("scale", [0.0, 0.5, 2.0, 1.0 + 1e-8])
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


def _split_states(n):
    """Vacuum, W, W^2, W_q, droplets (one wrapping the ring) and a random state."""
    return {"vacuum": states.vacuum(n), "w": states.w_state(n), "w2": states.w_p(n, 2),
            "wq": states.w_q(n, 1), "droplet": states.droplet(n, n // 2 + 1, 2),
            "droplet_wrapped": states.translate(states.droplet(n, n // 2, 1), n - 2, n),
            "random": _random_state(n, n)}


class TestSupportForm:
    """The support-form paths against the dense ones they replaced: window
    Schmidt splits, window factors, the translation test, and N beyond 2^N."""

    @pytest.mark.parametrize("n", [6, 9, 12])
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_window_block_schmidt_values(self, n, width):
        for name, psi in _split_states(n).items():
            for j in (0, n - width + 1, n - 1):          # the last two wrap the ring
                sites = [(j + k) % n for k in reversed(range(width))]
                block = opspace._window_block(opspace._support(psi, 1 << n), sites, 2)[1]
                got = np.linalg.svd(block.T, compute_uv=False)
                want = states.dense_schmidt_values(psi, Region(j, (j + width - 1) % n, n))
                got = np.concatenate([got, np.zeros(len(want) - len(got))])
                assert np.abs(got - want).max() <= 1e-13, (name, j)

    @pytest.mark.parametrize("n", [6, 9, 12])
    @pytest.mark.parametrize("width", [2, 3, 4])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_window_factors_match_translate_reshape(self, n, width, degenerate):
        split = _split_states(n)
        starts = [0, n - width + 1, n - 1]
        for psis in ([split["vacuum"], split["w"]], [split["w2"], split["wq"]],
                     _phased([split["droplet"], split["droplet_wrapped"]], n),
                     [split["random"]]):
            window = window_basis(n, 0, width)
            got = nullspace._window_factors(window, width, supports(psis), degenerate, starts)
            want = translate_reshape_factors(window, width, psis, degenerate, starts)
            for f, ref in zip(got, want, strict=True):
                assert f.shape == ref.shape
                assert _rel(f.conj().T @ f, ref.conj().T @ ref) <= 1e-13

    def test_translation_test_matches_dense(self):
        n = 8
        w = states.w_state(n)
        one = np.zeros(1 << n)
        one[1] = 1.0
        sets = [*_invariant_sets(n).values(), [_random_state(n, 1)],
                [states.vacuum(n), states.droplet(n, 4, 1)], [w, 0 * w]]
        # W with one amplitude moved by delta: ||T psi - lambda psi|| = sqrt 2 delta to
        # first order, just inside and just outside TRANSLATION_TOL
        for delta, inside in ((0.6e-12, True), (0.8e-12, False)):
            psi = w + delta * one
            sets.append([states.vacuum(n), psi / np.linalg.norm(psi)])
            assert (nullspace._translation_eigenstates(supports(sets[-1]), n) is None) != inside
        for psis in sets:
            got = nullspace._translation_eigenstates(supports(psis), n)
            want = dense_translation_eigenstates(psis, n)
            assert (got is None) == (want is None)
            if got is not None:
                assert np.abs(np.array(got) - want).max() <= 1e-15

    def test_reach_beyond_dense_states(self):
        # support-form {vacuum, W} at N = 40, where a dense state has 2^40 entries
        n = 40
        vac = (np.array([0]), np.array([1.0 + 0j]))
        w = (1 << np.arange(n, dtype=np.int64), np.full(n, 1 / np.sqrt(n), dtype=complex))
        lams = nullspace._translation_eigenstates([vac, w], n)
        assert lams == pytest.approx([1.0, 1.0], abs=1e-14)
        g = nullspace._gram(pauli_string_basis(n, 2), [vac, w], False, lams)
        assert g.shape == (12, 12, n)
        for width in (2, 3, 4):
            (f,) = nullspace._window_factors(window_basis(n, 0, width), width, [vac, w], False,
                                             [0])
            assert f.shape == (3 << width, 4 ** width - 1)


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
        sector, _ = nullspace._complement_dims(
            _sector_bases(glo), [every], [self._range(w_rows[:1])], pos, n)
        dense, _ = nullspace._complement_dims(
            [flat], [every] * n, [self._range(row[None]) for row in w_rows], np.tile(pos, n), 1)
        realified = np.vstack([np.hstack([flat.real, 0 * flat.real]),
                               np.hstack([w_rows.real, w_rows.imag]),
                               np.hstack([-w_rows.imag, w_rows.real])])
        assert sector == dense
        assert dense["union_G"] == nullspace.real_rank(realified) == dense["ZG_loc"] + 2
        assert (dense["ZH_glo"], dense["ZH_loc"], dense["union_H"]) == (2, 0, 2)

    def test_empty_global_span(self):
        # an empty ZH_glo adds nothing to either local span, on both paths
        n = 4
        pos, every = np.arange(2 * n), self._range(np.zeros((0, 2 * n)))
        first = self._range(np.eye(2 * n)[:1])      # a window whose null space is string 0
        sector, _ = nullspace._complement_dims(
            [np.zeros((0, 2))] * (n // 2 + 1), [every], [first], pos, n)
        dense, _ = nullspace._complement_dims(
            [np.zeros((0, 2 * n))], [every] * n, [first] * n, np.tile(pos, n), 1)
        assert sector == {"ZH_glo": 0, "ZH_loc": 0, "ZG_loc": 2 * n, "union_H": 0,
                          "union_G": 2 * n}
        assert dense == {"ZH_glo": 0, "ZH_loc": 0, "ZG_loc": 2, "union_H": 0, "union_G": 2}


def _sector_bases(rows):
    """ZH_glo in _complement_dims' sector form from real rows (row, pattern, shift):
    an orthonormal basis V_k of the sector-k components' span for k <= N/2."""
    n = rows.shape[-1]
    half = np.arange(n // 2 + 1)
    parts = rows @ np.exp(-2j * np.pi / n * np.outer(np.arange(n), half)) / np.sqrt(n)
    bases = []
    for k in half:
        _, svals, vh = np.linalg.svd(parts[:, :, k])
        bases.append(vh[:int(np.sum(svals > 1e-12))])
    return bases


def _dense(monkeypatch):
    """Route count_type_classes through the N-window path whatever the states."""
    monkeypatch.setattr(nullspace, "_translation_eigenstates", lambda *args: None)


class TestSectorPath:
    """Momentum sectors of window 0 against all N windows and the realified oracle."""

    def test_full_basis_is_pattern_by_shift(self):
        # count_type_classes puts window j's string (s, ops) at p N + (s + j) mod N,
        # p the index of ops among the patterns: its index in the full basis
        for rp in range(1, 7):
            pats = nullspace._pauli_patterns_upto(rp)
            pattern = {ops: p for p, ops in enumerate(pats)}
            for n in range(2 * rp, 13):
                keys = pauli_string_basis(n, rp).keys
                assert keys == tuple((i % n, pats[i // n]) for i in range(n * len(pats)))
                index = {key: i for i, key in enumerate(keys)}
                window = window_basis(n, 0, rp)
                for j in range(n):
                    placed = window_basis(n, j, rp).keys
                    assert [pattern[ops] * n + (s + j) % n for s, ops in window.keys] == \
                        [index[key] for key in placed]

    @pytest.mark.parametrize("name", list(_invariant_sets(8)))
    @pytest.mark.parametrize("r_loc", [2, 3])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_sector_equals_dense(self, monkeypatch, name, r_loc, degenerate):
        n = 8
        psis = _invariant_sets(n)[name]
        assert nullspace._translation_eigenstates(supports(psis), n) is not None
        sector = _counted(count_type_classes(n, 2, r_loc, psis, degenerate))
        _dense(monkeypatch)
        assert _counted(count_type_classes(n, 2, r_loc, psis, degenerate)) == sector
        if r_loc == 2 or not degenerate:
            assert sector == _reference_count(n, 2, r_loc, psis, degenerate)

    def test_eigh_inputs_at_most_pattern_count(self, monkeypatch):
        # translation eigenstates: one stacked eigh of the P x P momentum
        # blocks k <= N/2; other sets one sector of one shift, the (P N)^2 C^H
        n, p = 8, len(nullspace._pauli_patterns_upto(2))
        shapes, dtypes, eigh = [], [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: shapes.append(a.shape)
                            or dtypes.append(a.dtype) or eigh(a, *args))

        def uncalled(*args):
            raise AssertionError("a count called a dense-matrix entry point")
        for name in ("null_space", "build_correlation"):
            monkeypatch.setattr(nullspace, name, uncalled)
        for psis in _invariant_sets(n).values():
            shapes.clear()
            count_type_classes(n, 2, 3, psis)
            assert shapes == [(n // 2 + 1, p, p)]
        shapes.clear()
        count_type_classes(n, 2, 3, [states.vacuum(n), states.droplet(n, 4, 1)])
        assert shapes == [(1, n * p, n * p)]
        # one sector's phases are all +-1: a real eigh
        assert dtypes[-1] == np.float64 and dtypes[0] == np.complex128

    def test_translation_tested_once(self, monkeypatch):
        calls, test = [], nullspace._translation_eigenstates
        monkeypatch.setattr(nullspace, "_translation_eigenstates",
                            lambda *args: calls.append(1) or test(*args))
        n = 8
        for psis in ([states.vacuum(n), states.w_state(n)],
                     [states.vacuum(n), states.droplet(n, 4, 1)]):
            calls.clear()
            count_type_classes(n, 2, 2, psis)
            assert len(calls) == 1

    def test_translation_eigenvalues(self):
        # lambda_n = <psi_n|T psi_n> for translation eigenstates, else None
        n = 8
        for psis in _invariant_sets(n).values():
            lams = nullspace._translation_eigenstates(supports(psis), n)
            assert len(lams) == len(psis)
            for lam, psi in zip(lams, psis):
                assert abs(lam - np.vdot(psi, states.translate(psi, 1, n))) <= 1e-14
        vac = states.vacuum(n)
        for psis in ([vac, states.droplet(n, 4, 1)], [vac, 0 * vac]):
            assert nullspace._translation_eigenstates(supports(psis), n) is None
        with pytest.raises(opspace.DimensionError):     # a state's length: the conversion's check
            opspace._support(states.vacuum(n - 1), 1 << n)

    @pytest.mark.parametrize("n, r_loc", [(8, 2), (7, 3)])
    @pytest.mark.parametrize("dense", [False, True])
    def test_empty_global_space(self, monkeypatch, n, r_loc, dense):
        # degenerate {W, vacuum} at R = 1: the range-1 operators that keep both
        # states (functions of N_tot) give them different eigenvalues
        psis = [states.w_state(n), states.vacuum(n)]
        if dense:
            _dense(monkeypatch)
        got = _counted(count_type_classes(n, 1, r_loc, psis, degenerate=True))
        assert got[:2] == (0, 0) and got[2]["ZH_glo"] == 0
        assert got == _reference_count(n, 1, r_loc, psis, degenerate=True)

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
            assert nullspace._translation_eigenstates(supports(psis), n) is None
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
        assert nullspace._translation_eigenstates(supports(psis), n) is not None
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


class TestSectorNullSpace:
    """ZH_glo's momentum blocks against the dense null_space of the assembled C^H."""

    @staticmethod
    def _sets(n):
        vac, w = states.vacuum(n), states.w_state(n)
        return {"phased_vac_w_w2": _phased([vac, w, states.w_p(n, 2)], n),
                "phased_wq1_wq2": _phased([states.w_q(n, 1), states.w_q(n, 2)], n + 1),
                "vac_wq_half": [vac, states.w_q(n, n // 2)]}

    @pytest.mark.parametrize("n", range(7, 13))
    @pytest.mark.parametrize("r_glo", [1, 2])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_matches_dense_null_space(self, n, r_glo, degenerate):
        glo = pauli_string_basis(n, r_glo)
        shifts = np.arange(n)
        for psis in self._sets(n).values():
            lams = nullspace._translation_eigenstates(supports(psis), n)
            assert lams is not None
            dense = null_space(_dense_correlation(glo, psis, "H", degenerate))
            bases, gap = nullspace._sector_null_spaces(
                nullspace._gram(glo, supports(psis), degenerate, lams).real)
            assert len(bases) == n // 2 + 1
            assert sum((2 if 2 * k % n else 1) * len(v) for k, v in enumerate(bases)) == dense.dim
            assert gap == pytest.approx(dense.gap, rel=1e-12)
            # real where the phases are +-1, as _complement_dims takes them
            assert not bases[0].imag.any() and (n % 2 or not bases[n // 2].imag.any())
            # V_k's rows u are the full vectors u_p e^{2 pi i k s / N} / sqrt N
            full = np.vstack([((bases[k] if 2 * k <= n else bases[n - k].conj())[:, :, None]
                               * np.exp(2j * np.pi * k * shifts / n) / np.sqrt(n)).reshape(
                                   -1, len(glo)) for k in range(n)])
            want = dense.basis.T @ dense.basis.conj()
            assert np.abs(full.T @ full.conj() - want).max() <= 1e-10

    def test_not_psd_rejected(self):
        g = np.zeros((2, 2, 4))
        g[:, :, 0] = np.diag([-1.0, 1.0])
        with pytest.raises(ValueError, match="not PSD"):
            nullspace._sector_null_spaces(g)


def _oracle_complement_dims(glo, h_ranges, g_ranges, pos, sectors: int):
    """The complement solve with a K SVD and a tall QR in every sector, H and G
    alike: the oracle of nullspace._complement_dims.

    Real dimensions of ZH_glo, ZH_loc, ZG_loc and their unions, and K's margins.

    ``glo`` holds ZH_glo's orthonormal sector rows V_k over the first columns
    (full index i: column i // sectors, shift i % sectors) for k <= sectors / 2,
    real where the phases are +-1, and V_{-k} = conj V_k; ``pos`` is the full
    index of each row of the windows' stacked ranges X.  K_k equates each
    later copy of a column, phased by e^{-2 pi i k shift / sectors}, with its
    first copy, which gives the complement's coordinates.  V_k on it adds
    rank [V_k, conj V_{-k}] real dimensions to a union.  X's columns
    are orthonormal, so K's cut RANK_TOL is absolute; a margin is the
    smallest kept singular value in any sector over RANK_TOL, None when
    nothing is kept.
    """
    columns, shifts = pos // sectors, pos % sectors
    first = np.unique(columns, return_index=True)[1]
    later = np.setdiff1d(np.arange(len(pos)), first)
    partner = first[columns[later]]                 # each later copy's first copy
    phases = np.exp(-2j * np.pi / sectors * np.outer(np.arange(sectors), np.arange(sectors)))
    width = glo[0].shape[1]
    sector_rows = [glo[k] if k < len(glo) else glo[sectors - k].conj() for k in range(sectors)]
    sector_rows = [v.real if 2 * k % sectors == 0 else v for k, v in enumerate(sector_rows)]

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
            coords.append(sector_rows[k] @ basis[:width].conj())
        local = sum(len(first) - off.shape[1] for off in coords)
        added = sum(nullspace.real_rank(np.hstack([off, coords[-k].conj()]), scale=1.0)
                    for k, off in enumerate(coords))
        kept = np.concatenate(kept)
        return local, added, float(kept.min() / nullspace.RANK_TOL) if kept.size else None

    (h_loc, h_add, margin_h), (g_loc, g_add, margin_g) = project(h_ranges), project(g_ranges)
    dims = {"ZH_glo": sum(map(len, sector_rows)), "ZH_loc": h_loc,
            "ZG_loc": 2 * g_loc, "union_H": h_loc + h_add, "union_G": 2 * g_loc + g_add}
    return dims, {"margin_ZH_loc": margin_h, "margin_ZG_loc": margin_g}


def _complement_args(monkeypatch, n, r_loc, psis, degenerate=False):
    """The arguments count_type_classes passes to _complement_dims (patches undone)."""
    calls, solve = [], nullspace._complement_dims
    monkeypatch.setattr(nullspace, "_complement_dims",
                        lambda *args: calls.append(args) or solve(*args))
    count_type_classes(n, 2, r_loc, psis, degenerate)
    monkeypatch.undo()
    return calls[0]


def _v_coordinates(args):
    """_complement_dims' arguments as the oracle takes them: for real states, G's
    ranges turned from V~ coordinates c~ = i^y c into V coordinates c, and each H
    range's two parity blocks put back together."""
    glo, h_ranges, g_ranges, pos, sectors, ys = args
    if ys is None:
        return args[:5]
    size = len(g_ranges[0])
    odd, phase = ys[:size] % 2 == 1, np.array([1, -1j, -1, 1j])[ys[:size] % 4][:, None]

    def joined(even_range, odd_range):
        out = np.zeros((size, even_range.shape[1] + odd_range.shape[1]))
        out[~odd, :even_range.shape[1]] = even_range
        out[odd, even_range.shape[1]:] = odd_range
        return out

    return glo, [joined(*pair) for pair in h_ranges], [phase * r for r in g_ranges], pos, sectors


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
    """The Gram/Cholesky complement, with conjugate H sectors and, for real states, conjugate
    G sectors and H's parity blocks, against the QR-per-sector solve."""

    @pytest.mark.parametrize("name", list(_complement_sets()))
    def test_matches_qr_oracle(self, monkeypatch, name):
        n, r_loc, psis, degenerate, dense = _complement_sets()[name]
        if dense:
            _dense(monkeypatch)
        args = _complement_args(monkeypatch, n, r_loc, psis, degenerate)
        sectors, real = args[4], args[5] is not None
        assert sectors == 1 or not dense
        assert real == (name not in ("wq1_wq3.8.3", "odd_vac_wq2.7.3"))
        seen, rank = [], nullspace.real_rank
        monkeypatch.setattr(nullspace, "real_rank", lambda rows, scale=None: seen.append(
            np.linalg.svd(rows, compute_uv=False)) or rank(rows, scale))
        dims, margins = nullspace._complement_dims(*args)
        got, seen[:] = seen[:], []
        want_dims, want_margins = _oracle_complement_dims(*_v_coordinates(args))
        assert dims == want_dims
        # each union rank sees the oracle's singular values: the H sectors
        # k <= sectors / 2, then the G sectors k <= sectors / 2 for real
        # states and every G sector else; one rank per sector over H's blocks
        solved = sectors // 2 + 1
        assert len(seen) == 2 * sectors
        want_svals = seen[:solved] + seen[sectors:sectors + solved if real else None]
        assert len(got) == len(want_svals) == solved + (solved if real else sectors)
        for svals, want in zip(got, want_svals):
            assert svals == pytest.approx(want, abs=1e-12)
        assert margins.keys() == want_margins.keys()
        for key, want in want_margins.items():
            if want is None:
                assert margins[key] is None
                continue
            assert margins[key] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [7, 8])
    def test_half_the_h_sectors_and_no_qr(self, monkeypatch, n):
        # real states: H's even-y and odd-y blocks and G, each in the sectors k <= N/2
        args = _complement_args(monkeypatch, n, 4 if n == 8 else 3,
                                [states.vacuum(n), states.w_state(n)])
        widths = [sum(r[0].shape[1] for r in args[1]), sum(r[1].shape[1] for r in args[1]),
                  sum(r.shape[1] for r in args[2])]
        assert len(set(widths)) == 3
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
        assert len(k_svds) == 3 * (n // 2 + 1)
        for width in widths:
            # real K where the phases are +-1: k = 0, and k = N/2 for even N
            assert [dtype == np.float64 for cols, dtype in k_svds if cols == width] == \
                [k == 0 or 2 * k == n for k in range(n // 2 + 1)]

    def test_g_sectors_by_realness(self, monkeypatch):
        # G's K is solved in the sectors k <= N/2 for real states, in all N for
        # complex ones; the droplet count's one sector takes three real K SVDs
        n = 8
        vac = states.vacuum(n)
        for psis, g_svds, dtypes in (
                (_phased([vac, states.w_state(n)], 3), n // 2 + 1, None),
                ([states.w_q(n, 1), states.w_q(n, 2)], n, None),
                ([vac, states.translate(states.droplet(n, 4, 1), 3, n)], 1, [np.float64] * 3)):
            args = _complement_args(monkeypatch, n, 3, psis)
            width = sum(r.shape[1] for r in args[2])
            k_svds, svd = [], np.linalg.svd

            def spy(a, *rest, **kwargs):
                if kwargs.get("compute_uv", True):
                    k_svds.append((a.shape[1], a.dtype))
                return svd(a, *rest, **kwargs)

            monkeypatch.setattr(np.linalg, "svd", spy)
            nullspace._complement_dims(*args)
            monkeypatch.undo()
            assert sum(cols == width for cols, _ in k_svds) == g_svds
            if dtypes is not None:
                assert [dtype for _, dtype in k_svds] == dtypes


def _y_counts(basis):
    return np.array([ops.count("y") for _, ops in basis.keys])


def _real_path_sets():
    """(N, R, R', states, degenerate) for the real path against the complex one."""
    def sets(n):
        vac, w = states.vacuum(n), states.w_state(n)
        drop = states.translate(states.droplet(n, 4, 1), 3, n)
        return {"vac_w": [vac, w], "vac": [vac], "w": [w], "vac_w_w2": [vac, w, states.w_p(n, 2)],
                "vac_wq_half": [vac, states.w_q(n, n // 2)], "vac_drop": [vac, drop],
                "vac_drop_w": [vac, drop, w]}
    cases = {}
    for n, r_glo, r_loc, name, degenerate, phased in (
            (8, 2, 3, "vac_w", False, False), (8, 2, 3, "vac_w", True, True),
            (7, 1, 3, "vac_w", False, True), (10, 2, 4, "vac_w", False, True),
            (8, 2, 2, "vac", False, False), (6, 1, 2, "w", True, True),
            (8, 2, 3, "vac_w_w2", True, False), (8, 2, 3, "vac_wq_half", False, True),
            (8, 2, 3, "vac_drop", False, True), (8, 1, 2, "vac_drop_w", True, True),
            (7, 2, 3, "vac_drop_w", False, False)):
        psis = sets(n)[name]
        key = f"{name}.N{n}.R{r_glo}.Rp{r_loc}" + ".degenerate" * degenerate + ".phased" * phased
        cases[key] = (n, r_glo, r_loc, _phased(psis, n + r_loc) if phased else psis, degenerate)
    return cases


class TestRealStates:
    """The y-phase fact behind the real-arithmetic path, and that path against the complex one."""

    @pytest.mark.parametrize("n", range(6, 11))
    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("phased", [False, True])
    def test_y_phased_correlation_is_real(self, n, degenerate, phased):
        # real r_n: W^dagger C^G W is real for W = diag((-i)^y), so C^H = Re C^G
        # couples no even-y string to an odd-y one
        rng = np.random.default_rng(n)
        psis = [v / np.linalg.norm(v) for v in rng.normal(size=(2, 1 << n))]
        psis = _phased(psis, n) if phased else psis
        basis = pauli_string_basis(n, 3)
        ys = _y_counts(basis)
        odd, phase = ys % 2 == 1, np.array([1, -1j, -1, 1j])[ys % 4]
        corr = _dense_correlation(basis, psis, "G", degenerate)
        scale = np.abs(corr).max()
        assert np.abs((phase.conj()[:, None] * corr * phase).imag).max() <= 1e-14 * scale
        assert np.abs(corr.real[np.ix_(odd, ~odd)]).max() <= 1e-14 * scale
        assert len(nullspace._real_states(supports(psis))) == 2

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_boosted_w_couples_parities(self, m):
        # the control: W_q with q != 0, pi is no real state up to a phase
        n = 8
        psis = [states.vacuum(n), states.w_q(n, m)]
        basis = pauli_string_basis(n, 3)
        odd = _y_counts(basis) % 2 == 1
        corr = _dense_correlation(basis, psis, "G")
        assert np.abs(corr.real[np.ix_(odd, ~odd)]).max() > 1e-3 * np.abs(corr).max()
        assert nullspace._real_states(supports(psis)) is None

    def test_realness_test(self):
        n = 8
        w, w_pi = states.w_state(n), states.w_q(n, n // 2)       # w_pi: rounding residue
        for psi, want in ((w, w), (w * np.exp(2.1j), w), (w.real, w), (w_pi, w_pi)):
            ((idx, got),) = nullspace._real_states(supports([psi]))
            assert got.dtype == np.float64 and np.abs(got - want.real[idx]).max() <= 1e-15
        # a residue far above rounding, on the largest amplitude's phase or elsewhere
        for psi in (w + 1e-13j * states.vacuum(n), states.w_q(n, 1)):
            assert nullspace._real_states(supports([w, psi])) is None

    @pytest.mark.parametrize("name", list(_real_path_sets()))
    def test_real_path_matches_complex_path(self, monkeypatch, name):
        n, r_glo, r_loc, psis, degenerate = _real_path_sets()[name]
        assert nullspace._real_states(supports(psis)) is not None
        real = count_type_classes(n, r_glo, r_loc, psis, degenerate)
        monkeypatch.setattr(nullspace, "_real_states", lambda states_list: None)
        cplx = count_type_classes(n, r_glo, r_loc, psis, degenerate)
        assert _counted(real) == _counted(cplx)
        assert real.dims.keys() == cplx.dims.keys()
        for key, want in cplx.dims.items():
            if isinstance(want, float):
                assert real.dims[key] == pytest.approx(want, rel=1e-12)
            else:
                assert real.dims[key] == want
