"""Boundary-action solves, I/II/III verdicts, and equivalence of type II classes."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag
from scipy.optimize import minimize_scalar

from scartypes import boundary, canonical, mps, nullspace, opspace, states
from scartypes.boundary import (Region, action_equivalent, boundary_solve,
                                classify, equivalence_test)
from scartypes.opspace import apply, string_term
from operator_oracles import dense_form, site_axes_apply, support_form, supports, to_matrix
from test_opspace import full_index_apply


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

    def test_boundary_operators_inside_windows(self, setup10):
        s = setup10
        n = s["n"]
        cases = [(s["imhop"], [s["vac"], s["w"]], Region(9, 5, n), 2),
                 (s["imhop2"], [s["vac"], s["w"], s["w2"]], Region(0, 7, n), 3),
                 (s["rehop"], [s["vac"], s["w"]], Region(4, 1, n), 1)]
        for h, psis, lam, r_max in cases:
            for hermitian in (False, True):
                sol = boundary_solve(h, psis, lam, r_max, hermitian=hermitian)
                for op, window in ((sol.left_op, sol.left_window),
                                   (sol.right_op, sol.right_window)):
                    assert op.terms
                    for start, ops in op.terms:
                        assert {(start + k) % n for k in range(len(ops))} <= set(window)


class TestAction:
    """_patch: each Hamiltonian's targets, opspace.apply of its truncation on every state."""

    def test_targets_are_apply_of_the_truncation(self, setup10):
        s = setup10
        n, rng = s["n"], np.random.default_rng(4)
        planted = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        planted[rng.random(1 << n) < 0.5] = 0.0
        psis = [s["vac"], s["w"], _phased(rng, [s["w2"]])[0], planted]
        hs = (s["imhop"], s["ntot"], s["rehop"], s["imhop2"],
              canonical.random_type1(n, rng) + s["imhop"], canonical.h_dmi(n))
        op_range = max(h.declared_range for h in hs)
        for lam in boundary.default_sweep(n, 2, anchors=(0, n // 3), op_range=op_range):
            _, _, actions = boundary._patch(hs, supports(psis), lam, 2)
            assert len(actions) == len(hs)
            for h, targets in zip(hs, actions):
                op = opspace.truncate(h, lam)
                assert [dense_form([t], 1 << n).tobytes() for t in targets] == \
                    [apply(op, psi).tobytes() for psi in psis]

    def test_targets_bytes_equal_full_index_sum(self, setup10):
        # the per-string decode over every basis index, on sparse, planted
        # and dense states
        s = setup10
        n, rng = s["n"], np.random.default_rng(6)
        planted = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        planted[rng.random(1 << n) < 0.5] = 0.0
        psis = [s["vac"], s["w"], s["w2"], states.w_q(n, 3), states.droplet(n, 5, 2), planted,
                rng.normal(size=1 << n)]
        hs = (s["imhop"], s["imhop2"], canonical.random_type1(n, rng) + s["imhop"],
              opspace.LocalOperator(n), opspace.identity(n, 2j))
        for lam in (Region(0, 6, n), Region(3, 1, n)):
            _, _, actions = boundary._patch(hs, supports(psis), lam, 2)
            for h, targets in zip(hs, actions):
                op = opspace.truncate(h, lam)
                for psi, got in zip(psis, targets):
                    got = dense_form([got], 1 << n)
                    assert got.tobytes() == full_index_apply(op, psi).tobytes()

    @pytest.mark.parametrize("n", [14, 15])
    def test_large_targets_bytes_equal_full_index_sum(self, n):
        # from 2^14 amplitudes on, numpy would compute a product of
        # temporaries in place, rounding it differently from the full sum;
        # real and imaginary hopping on the same bonds give complex gains
        rng = np.random.default_rng(n)
        h = canonical.random_type1(n, rng) + canonical.h_imhop(n) + 0.3 * canonical.h_rehop(n)
        planted = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        planted[rng.random(1 << n) < 0.2] = 0.0
        psis = [states.w_state(n), planted, rng.normal(size=1 << n)]
        lam = Region(0, n - 3, n)
        _, _, [targets] = boundary._patch((h,), supports(psis), lam, 2)
        op = opspace.truncate(h, lam)
        for psi, got in zip(psis, targets):
            got = dense_form([got], 1 << n)
            assert got.tobytes() == full_index_apply(op, psi).tobytes()

    def test_wrong_state_shape(self, setup10):
        with pytest.raises(opspace.DimensionError):
            boundary._patch((setup10["imhop"],), [opspace._support(states.vacuum(8), 1 << 10)],
                            setup10["lam"], 2)


class TestResidualScale:
    """Every boundary residual is scaled by max_n ||H_Lam psi_n|| (_scale),
    floored at the targets' rounding level over ACCEPT."""

    @staticmethod
    def _oracle_rows(h, psis, r_max):
        """classify's evidence rows at both anchors from the dense oracles:
        to_matrix of each truncation, _dense_lstsq on dense_design_matrix,
        worst per-state residual over max_n ||H_Lam psi_n||."""
        n, rows = h.n_sites, []
        for lam in boundary.default_sweep(n, r_max, anchors=(0, n // 3),
                                          op_range=h.declared_range):
            sites = lam.sites()
            mat = dense_design_matrix(psis, n, 2, sites[:r_max], sites[-r_max:])
            targets = np.array([to_matrix(opspace.truncate(h, lam)) @ psi for psi in psis])
            rhs, row = targets.ravel(), [r_max, lam.length]
            for hermitian in (False, True):
                resid = _dense_lstsq(mat, rhs, hermitian)[0].reshape(len(psis), -1)
                row.append(np.linalg.norm(resid, axis=1).max()
                           / np.linalg.norm(targets, axis=1).max())
            rows.append(tuple(row))
        return rows

    @pytest.mark.parametrize("n,case", [
        (n, case) for n in (8, 10)
        for case in ("h_imhop", "n_tot", "h_rehop", "h_dmi", "h_imhop2", "non_invariant")
        if n == 10 or case not in ("h_imhop2", "non_invariant")])  # range 3: no patch at N = 8
    def test_classify_rows_match_dense_oracle(self, n, case):
        vw = [states.vacuum(n), states.w_state(n)]
        if case == "h_imhop2":
            h, psis = canonical.h_imhop2(n), vw + [states.w_p(n, 2)]
        elif case == "non_invariant":
            rng = np.random.default_rng(n)
            h = canonical.random_type1(n, rng, translation_invariant=False) + canonical.h_imhop(n)
            psis = vw
        else:
            h, psis = getattr(canonical, case)(n), vw
        checked = 0
        for r_max in (1, 2, 3):
            if boundary._patch_floor(r_max, h.declared_range) > n - 2:
                continue
            label = classify(h, psis, r_max=r_max)
            want = self._oracle_rows(h, psis, r_max)
            assert [row[:2] for row in label.evidence] == [row[:2] for row in want]
            got = np.array([row[2:] for row in label.evidence])
            assert np.abs(got - np.array([row[2:] for row in want])).max() <= 1e-12
            checked += 1
        assert checked >= 1

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([9, 10]), st.integers(1, 2),
           st.sampled_from(["v", "w", "vw"]), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_residuals_within_sqrt_states(self, seed, n, r_max, which, invariant):
        # the zero fit is always feasible, so no fit leaves more than its targets;
        # random_type1 has range 3, so N = 9 is the smallest ring with a patch
        rng = np.random.default_rng(seed)
        h = canonical.random_type1(n, rng, translation_invariant=invariant)
        for part in (canonical.h_imhop, canonical.h_rehop, canonical.h_dmi, canonical.n_tot):
            if rng.random() < 0.5:
                h = h + float(rng.normal()) * part(n)
        psis = _phased(rng, [{"v": states.vacuum, "w": states.w_state}[k](n) for k in which])
        bound = np.sqrt(len(psis)) + 1e-12
        clause, solve = [], boundary.solve_boundary_dense

        def spy(targets, *args, **kwargs):
            out = solve(targets, *args, **kwargs)
            clause.append(out[3] / boundary._scale(targets, (h,)))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(boundary, "solve_boundary_dense", spy)
            label = classify(h, psis, r_max=r_max)
        residuals = [r for row in label.evidence for r in row[2:]] + clause
        lams = boundary.default_sweep(n, r_max, anchors=(0, n // 3), op_range=h.declared_range)
        residuals += [boundary_solve(h, psis, lams[k], r_max, hermitian=bool(k % 2)).residual
                      for k in rng.choice(len(lams), size=2, replace=False)]
        assert all(0.0 <= r <= bound for r in residuals)

    def test_action_vanishing_up_to_rounding_is_accepted(self):
        # hopping and number terms one ulp apart: P_re on sites 4, 5 acts on
        # W as 3.5e-17, which no window operator away from the bond can fit
        n = 10
        h = opspace.parse_operator("0.30000000000000004 * sd@4 s@5 ; "
                                   "0.30000000000000004 * sd@5 s@4 ; -0.3 * n@4 ; -0.3 * n@5", n)
        psis = [states.vacuum(n), states.w_state(n)]
        assert 0 < np.linalg.norm(apply(h, psis[1])) < 1e-16
        label = classify(h, psis)
        assert label.value == "I"
        assert max(max(row[2:]) for row in label.evidence) < boundary.ACCEPT

    @pytest.mark.parametrize("ham", ["h_imhop", "h_dmi"])
    def test_hermitian_rejection_does_not_drift_with_n(self, ham):
        # the targets' norm does not grow with the patch, so the rejection
        # stays at 1/sqrt(2); a scale that grows with it, such as ||H_Lam||,
        # lets a rejection fall towards REJECT as N grows
        values = []
        for n in (10, 12, 14, 16):
            label = classify(getattr(canonical, ham)(n), [states.vacuum(n), states.w_state(n)])
            assert label.value == "II"
            values += [row[3] for row in label.evidence]
        assert max(values) - min(values) <= 1e-9
        assert values[0] == pytest.approx(np.sqrt(0.5), abs=1e-9)


def dense_design_matrix(psis, n_sites, local_dim, left_sites, right_sites):
    """The dense design matrix, every n_states * d^N row, that the support
    builder replaced: the oracle of boundary._design.  Columns: the window
    basis on the left window, then on the right window, then one
    identity-gauge column per state."""
    blocks = []
    for sites in (left_sites, right_sites):
        basis = boundary._window_basis(local_dim, len(sites))
        blocks.append(np.concatenate(
            [site_axes_apply(basis, psi, sites, local_dim, n_sites) for psi in psis],
            axis=1))
    blocks.append(_gauge_block(psis))
    return np.vstack(blocks).T


def _gauge_block(psis) -> np.ndarray:
    """(n, n * dim) block-diagonal rows: psis[k] in row k, column block k."""
    n_states, dim = len(psis), psis[0].size
    block = np.zeros((n_states, n_states, dim), dtype=np.result_type(*psis))
    block[np.arange(n_states), np.arange(n_states)] = psis
    return block.reshape(n_states, n_states * dim)


def _dense_lstsq(mat, rhs, hermitian):
    """The oracle fit: numpy's lstsq on every row of a dense design matrix,
    default rank cut, real and imaginary rows split when ``hermitian``;
    returns (residual mat @ sol - rhs, rank)."""
    a, b = ([np.concatenate([x.real, x.imag]) for x in (mat, rhs)] if hermitian
            else (mat, rhs))
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return mat @ sol.astype(complex) - rhs, rank


def _reached(mat):
    """A dense design matrix in _design's form: (its nonzero rows, those rows)."""
    rows = np.flatnonzero(mat.any(axis=1))
    return rows, mat[rows]


class TestGaugeBlock:
    @pytest.mark.parametrize("n_states", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_block_diag(self, n_states, dtype):
        rng = np.random.default_rng(n_states)
        psis = [rng.normal(size=16).astype(dtype) * (1 + 1j if dtype is complex else 1)
                for _ in range(n_states)]
        got, want = _gauge_block(psis), block_diag(*psis)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def _phased(rng, psis):
    return [psi * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) for psi in psis]


def _benchmark_fits(n, rng):
    """(states, windows, right-hand sides, hermitian) of every patch fit of
    the benchmark's five verdicts at both sweep anchors, of their
    left/right-independence clause, and of its two equivalence tests."""
    vw = _phased(rng, [states.vacuum(n), states.w_state(n)])
    vww2 = vw + _phased(rng, [states.w_p(n, 2)])
    cases = [(canonical.h_imhop(n), vw), (canonical.n_tot(n), vw),
             (canonical.h_rehop(n), vw), (canonical.h_imhop2(n), vww2),
             (canonical.random_type1(n, rng) + canonical.h_imhop(n), vw)]
    fits = []
    for h, psis in cases:
        for lam in boundary.default_sweep(n, 2, anchors=(0, n // 3),
                                          op_range=h.declared_range):
            sites = lam.sites()
            windows = tuple(sites[:2]), tuple(sites[-2:])
            rhs = np.concatenate([apply(opspace.truncate(h, lam), psi) for psi in psis])
            fits += [(psis, windows, rhs, hermitian) for hermitian in (False, True)]
        min_len = max(2 * 2 + 3, 2 * h.declared_range + 1)
        diff = opspace.truncate(h, Region(0, min_len, n)) \
            - opspace.truncate(h, Region(0, min_len - 1, n))
        fits.append((psis, ((), tuple(range(min_len - 2, min_len + 1))),
                     np.concatenate([apply(diff, psi) for psi in psis]), False))
    lam = Region(0, 6, n)       # equivalence_test's default patch at N=10
    for h_a, h_b, psis in ((canonical.h_imhop(n), canonical.h_dmi(n), vw),
                           (canonical.h_imhop(n), canonical.h_imhop2(n), vww2)):
        rhs = np.array([np.concatenate([apply(opspace.truncate(h, lam), psi) for psi in psis])
                        for h in (h_a, h_b)]).T
        fits.append((psis, ((0, 1), (5, 6)), rhs, True))
    return fits


def _chain_fits():
    """The MPS generator certificate's dense chains as pytest params of
    (d, N, state, windows, generator fit target): AKLT (d = 3, R_inj = 2)
    under S^z and S^x, the SSH chain (d = 4, R_inj = 1) under S^z, at N = 6, 8."""
    cases = [(f"aklt_s{axis}", mps.builtin_aklt(), mps.spin1_matrix(axis)) for axis in "zx"]
    cases.append(("ssh_sz", mps.builtin_ssh(), mps.ssh_sz_matrix()))
    fits = []
    for name, tensor, gen in cases:
        r_inj = mps.injectivity_length(tensor)
        for n in (6, 8):
            psi = mps.to_dense(tensor, n)
            lam = list(range(1, n - 1))
            target = sum(site_axes_apply(gen, psi, [j], tensor.d, n) for j in lam)
            windows = tuple(lam[:r_inj]), tuple(lam[-r_inj:])
            fits.append(pytest.param(tensor.d, n, psi, windows, target, id=f"{name}-N{n}"))
    return fits


class TestLstsqRowReduction:
    """_lstsq on the support-built design (_design) against the oracle:
    numpy's lstsq on every row of dense_design_matrix, default rank cut."""

    @staticmethod
    def _compare(design, mat, rhs, hermitian, n_states, monkeypatch):
        rows, got = design
        assert np.array_equal(rows, np.flatnonzero(mat.any(axis=1)))
        assert np.abs(got - mat[rows]).max() <= 1e-15 * np.abs(mat).max()
        ranks = []
        lstsq = np.linalg.lstsq

        def spy(a, b, rcond=None):
            out = lstsq(a, b, rcond=rcond)
            ranks.append(out[2])
            return out

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        dim = len(rhs) // n_states
        resid = dense_form(boundary._lstsq(design, support_form(rhs, n_states), dim,
                                           hermitian)[1], dim)
        monkeypatch.undo()
        ref, rank = _dense_lstsq(mat, rhs, hermitian)

        def per_state(r):
            return np.linalg.norm(r.reshape(n_states, -1, *r.shape[1:]), axis=1)

        scale = per_state(rhs).max()
        assert ranks == [rank]
        assert np.abs(per_state(resid) - per_state(ref)).max() <= 1e-12 * scale

    def test_benchmark_fits_match_all_rows(self, monkeypatch):
        fits = _benchmark_fits(10, np.random.default_rng(31))
        assert len(fits) == 2 * 26 + 5 + 2
        dropped = 0
        for psis, windows, rhs, hermitian in fits:
            design = boundary._design(supports(psis), 10, 2, *windows)
            dropped += len(design[0]) < len(rhs)
            mat = dense_design_matrix(psis, 10, 2, *windows)
            self._compare(design, mat, rhs, hermitian, len(psis), monkeypatch)
        assert dropped == len(fits)     # {vacuum, W} reach few rows

    @pytest.mark.parametrize("local_dim,n,psi,windows,target", _chain_fits())
    def test_dense_chains_match_all_rows(self, local_dim, n, psi, windows, target, monkeypatch):
        design = boundary._design(supports([psi]), n, local_dim, *windows)
        mat = dense_design_matrix([psi], n, local_dim, *windows)
        for hermitian in (False, True):
            self._compare(design, mat, target, hermitian, 1, monkeypatch)

    def test_no_row_dropped(self, monkeypatch):
        # a product state with no zero amplitude: every row is reached
        n = 8
        site = np.array([np.cos(0.4), np.exp(0.9j) * np.sin(0.4)])
        psi = functools.reduce(np.kron, [site] * n)
        lam = Region(1, 6, n)
        h_lam = opspace.truncate(canonical.h_rehop(n) + canonical.h_dmi(n), lam)
        design = boundary._design(supports([psi]), n, 2, (1, 2), (5, 6))
        assert len(design[0]) == psi.size
        mat = dense_design_matrix([psi], n, 2, (1, 2), (5, 6))
        for hermitian in (False, True):
            self._compare(design, mat, apply(h_lam, psi), hermitian, 1, monkeypatch)

    def test_target_off_the_column_support_counts(self, monkeypatch):
        # one particle at site 3 hops to sites 2 and 4, rows no window
        # operator on sites 0, 1, 5, 6 reaches from it
        n = 8
        psi = np.zeros(1 << n, dtype=complex)
        psi[1 << 3] = 1.0
        rhs = apply(opspace.truncate(canonical.h_rehop(n), Region(0, 6, n)), psi)
        design = boundary._design(supports([psi]), n, 2, (0, 1), (5, 6))
        off = np.ones(rhs.size, dtype=bool)
        off[design[0]] = False
        assert np.linalg.norm(rhs[off]) > 0.5
        resid = dense_form(boundary._lstsq(design, support_form(rhs, 1), rhs.size,
                                           hermitian=False)[1], rhs.size)
        assert np.array_equal(resid[off], -rhs[off])
        self._compare(design, dense_design_matrix([psi], n, 2, (0, 1), (5, 6)), rhs, False, 1,
                      monkeypatch)

    def test_rank_cut_of_the_full_system(self, monkeypatch):
        # singular values 1 and 1e-13: numpy's default cut, eps * max(M, N),
        # keeps the second on 20 rows but drops it on all 4020
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(20, 2)))
        mat = np.zeros((4020, 2), dtype=complex)
        mat[::201] = q * [1.0, 1e-13]
        rhs = mat @ [1.0, 1.0] + np.eye(4020)[7]
        for hermitian in (False, True):
            self._compare(_reached(mat), mat, rhs, hermitian, 1, monkeypatch)


def _dense_solution(mat, rhs, hermitian):
    """The oracle fit's solution: numpy's lstsq on every row of a dense design
    matrix, as _dense_lstsq solves it."""
    a, b = ([np.concatenate([x.real, x.imag]) for x in (mat, rhs)] if hermitian
            else (mat, rhs))
    return np.linalg.lstsq(a, b, rcond=None)[0].astype(complex)


class TestSupportFit:
    """_fit and _lstsq on support-form targets, (indices, values) per state,
    against the dense oracle on every row."""

    @given(st.integers(0, 2 ** 31 - 1), st.integers(5, 8), st.integers(1, 3),
           st.integers(1, 2), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fit_matches_dense_oracle(self, seed, n, n_states, width, hermitian, two):
        rng = np.random.default_rng(seed)
        dim, width = 1 << n, min(width, (n - 2) // 2)
        start = int(rng.integers(0, n - 2 * width - 1))
        left = tuple(range(start, start + width))
        right = tuple(range(n - width, n)) if rng.random() < 0.5 else \
            tuple(range(start + width + 1, start + 2 * width + 1))
        psis = []
        for _ in range(n_states):       # unit-modulus amplitudes on 1-3 basis states
            psi = np.zeros(dim, dtype=complex)
            support = rng.choice(dim, size=int(rng.integers(1, 4)), replace=False)
            psi[support] = np.exp(2j * np.pi * rng.random(len(support)))
            psis.append(psi / np.linalg.norm(psi))
        design = boundary._design(supports(psis), n, 2, left, right)
        mat = dense_design_matrix(psis, n, 2, left, right)
        # values on some design rows and on rows no column reaches
        rhs = np.zeros((n_states * dim, 2 if two else 1), dtype=complex)
        outside = np.setdiff1d(np.arange(n_states * dim), design[0])
        for rows in (design[0], outside):
            picked = rng.choice(rows, size=min(len(rows), int(rng.integers(1, 8))), replace=False)
            rhs[picked] = rng.normal(size=(len(picked), rhs.shape[1])) \
                + 1j * rng.normal(size=(len(picked), rhs.shape[1]))
        rhs = rhs if two else rhs[:, 0]
        targets = support_form(rhs, n_states)
        assert sum(len(idx) for idx, _ in targets) > np.count_nonzero(rhs[design[0]].reshape(
            len(design[0]), -1).any(axis=1))                    # some entry off the design
        ref_sol = _dense_solution(mat, rhs, hermitian)
        ref_resid, _ = _dense_lstsq(mat, rhs, hermitian)
        sol, resid = boundary._lstsq(design, targets, dim, hermitian)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(sol - ref_sol).max() <= 1e-12 * max(1.0, np.abs(ref_sol).max())
        assert np.abs(dense_form(resid, dim) - ref_resid).max() <= 1e-12 * scale
        per_state = np.linalg.norm(ref_resid.reshape(n_states, dim, -1), axis=1)
        got = np.array([np.linalg.norm(r.reshape(len(r), -1), axis=0) for _, r in resid])
        assert np.abs(got - per_state).max() <= 1e-12 * scale
        if not two:
            a, b, f, r_abs = boundary._fit(design, targets, dim, hermitian, 4 ** width - 1)
            assert np.abs(np.concatenate([a, b, f]) - ref_sol).max() <= \
                1e-12 * max(1.0, np.abs(ref_sol).max())
            assert abs(r_abs - per_state.max()) <= 1e-12 * scale

    def test_targets_hold_apply_nonzero_entries_bitwise(self, setup10):
        s = setup10
        n, rng = s["n"], np.random.default_rng(8)
        psis = [s["vac"], s["w"], _phased(rng, [s["w2"]])[0], states.droplet(n, 5, 2)]
        hs = (s["imhop"], s["imhop2"], canonical.h_dmi(n), opspace.LocalOperator(n),
              canonical.random_type1(n, rng) + s["imhop"])
        for lam in (Region(0, 6, n), Region(7, 3, n)):
            _, _, actions = boundary._patch(hs, supports(psis), lam, 2)
            for h, targets in zip(hs, actions):
                op = opspace.truncate(h, lam)
                for psi, (idx, vals) in zip(psis, targets):
                    dense = apply(op, psi)
                    assert np.all(np.diff(idx) > 0)
                    assert np.isin(np.flatnonzero(dense), idx).all()
                    assert vals.tobytes() == dense[idx].tobytes()

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_fit_at_two_to_the_forty(self, hermitian):
        # a d^N = 2^40 vector would take 16 TiB: the fit runs only if it
        # allocates nothing of that length, and tracemalloc sees numpy's arrays
        dim, n_states, rng = 1 << 40, 2, np.random.default_rng(40)
        local = [np.unique(rng.integers(0, dim, size=30)) for _ in range(n_states)]
        rows = np.concatenate([k * dim + r for k, r in enumerate(local)])
        mat = rng.normal(size=(len(rows), 6)) + 1j * rng.normal(size=(len(rows), 6))
        targets = []
        for r in local:                 # half of the design rows and 10 rows off them
            idx = np.unique(np.concatenate([r[::2], rng.integers(0, dim, size=10)]))
            targets.append((idx, rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))))
        tracemalloc.start()
        a, b, f, r_abs = boundary._fit((rows, mat), targets, dim, hermitian, 2)
        scale = boundary._scale(targets)
        _, resid = boundary._lstsq((rows, mat), targets, dim, hermitian)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20
        assert scale == max(np.linalg.norm(v) for _, v in targets)
        # the oracle: the same system with each state's entries relabelled 0..U-1
        unions = [np.union1d(r, idx) for r, (idx, _) in zip(local, targets)]
        small = max(map(len, unions))
        dense_mat = np.zeros((n_states * small, mat.shape[1]), dtype=complex)
        rhs = np.zeros(n_states * small, dtype=complex)
        blocks = np.split(mat, np.cumsum([len(r) for r in local])[:-1])
        for k, (u, r, block, (idx, vals)) in enumerate(zip(unions, local, blocks, targets)):
            dense_mat[k * small + np.searchsorted(u, r)] = block
            rhs[k * small + np.searchsorted(u, idx)] = vals
        ref = _dense_lstsq(dense_mat, rhs, hermitian)[0].reshape(n_states, small)
        assert abs(r_abs - np.linalg.norm(ref, axis=1).max()) <= 1e-12 * scale
        ref_sol = _dense_solution(dense_mat, rhs, hermitian)
        assert np.abs(np.concatenate([a, b, f]) - ref_sol).max() <= 1e-12 * np.abs(ref_sol).max()
        for (got_idx, got), u, r, (idx, vals) in zip(resid, unions, local, targets):
            assert np.array_equal(got_idx, u)       # its design rows and target entries
            off = ~np.isin(idx, r)                  # -t where no column reaches
            assert off.any() and np.array_equal(got[np.searchsorted(u, idx[off])], -vals[off])


class TestWindowPreconditions:
    """_design, and so solve_boundary_dense, rejects windows a support build
    would misread: repeated sites, sites outside 0..N-1, shared sites."""

    @pytest.mark.parametrize("left,right,match", [
        ((0, 1), (1, 2), r"share sites \[1\]"),
        ((0, 0), (5, 6), r"left window \(0, 0\)"),
        ((0, 1), (7, 8), r"right window \(7, 8\)"),
        ((-1, 0), (5, 6), r"left window \(-1, 0\)")],
        ids=["overlap", "repeated", "past_end", "negative"])
    def test_bad_window_raises(self, left, right, match):
        n = 8
        psis = [states.vacuum(n), states.w_state(n)]
        targets = [apply(canonical.h_imhop(n), psi) for psi in psis]
        with pytest.raises(ValueError, match=match):
            boundary.solve_boundary_dense(targets, psis, n, 2, left, right, hermitian=False)

    def test_state_length_checked(self):
        with pytest.raises(opspace.DimensionError):
            boundary._design([opspace._support(states.vacuum(8), 256),
                              opspace._support(states.vacuum(7), 256)], 8, 2, (0, 1), (5, 6))


@pytest.mark.parametrize("entry", ["classify", "boundary_solve", "equivalence_test",
                                   "count_type_classes"])
def test_empty_state_list_rejected(entry):
    n = 8
    h = canonical.h_imhop(n)
    call = {"classify": lambda: classify(h, []),
            "boundary_solve": lambda: boundary_solve(h, [], Region(0, 5, n), 2),
            "equivalence_test": lambda: equivalence_test(h, canonical.h_dmi(n), []),
            "count_type_classes": lambda: nullspace.count_type_classes(n, 2, 3, [])}[entry]
    with pytest.raises(ValueError, match="^at least one state is required$"):
        call()


def test_support_conversions_do_not_grow_with_the_sweep(monkeypatch):
    # each state is converted to its support form a fixed number of times per
    # classify (eigenstate checks, the sweep's one conversion, the independence
    # clause's fit), however many patches the sweep holds
    n = 12
    h, psis = canonical.h_imhop(n), [states.vacuum(n), states.w_state(n)]
    calls, support, sweep = [], opspace._support, boundary.default_sweep
    monkeypatch.setattr(opspace, "_support", lambda *a: calls.append(1) or support(*a))
    counts = []
    for repeat in (1, 3):
        monkeypatch.setattr(boundary, "default_sweep", lambda *a, **k: sweep(*a, **k) * repeat)
        calls.clear()
        label = classify(h, psis)
        assert label.value == "II" and len(label.evidence) == 2 * repeat * 5
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3 * len(psis)


class TestAnchorShortcut:
    """classify solves anchor 0 only when h equals its one-site translate and
    every state is a translation eigenstate; otherwise both anchors."""

    @staticmethod
    def _classify(h, psis, monkeypatch):
        lefts, clause_fits = [], []
        patch, solve = boundary._patch, boundary.solve_boundary_dense
        monkeypatch.setattr(boundary, "_patch", lambda hs, psis, lam, r:
                            lefts.append(lam.left) or patch(hs, psis, lam, r))
        monkeypatch.setattr(boundary, "solve_boundary_dense",
                            lambda *a, **k: clause_fits.append(a) or solve(*a, **k))
        label = classify(h, psis)
        monkeypatch.undo()
        return label, lefts, len(clause_fits)

    @staticmethod
    def _evidence_matches_own_anchor(h, psis, label):
        n = h.n_sites
        sweep = boundary.default_sweep(n, 2, anchors=(0, n // 3), op_range=h.declared_range)
        assert len(label.evidence) == len(sweep)
        for (_, length, gen, her), lam in zip(label.evidence, sweep):
            assert length == lam.length
            for hermitian, got in ((False, gen), (True, her)):
                ref = boundary_solve(h, psis, lam, 2, hermitian=hermitian)
                assert abs(got - ref.residual) <= 1e-12

    def test_invariant_case_solves_anchor_zero(self, setup10, monkeypatch):
        s = setup10
        psis = _phased(np.random.default_rng(5), [s["vac"], s["w"]])
        label, lefts, clause_fits = self._classify(s["imhop"], psis, monkeypatch)
        assert label.value == "II" and label.anchors_solved == (0,)
        # three patch lengths at anchor 0, and the independence clause's one fit
        assert lefts == [0, 0, 0] and clause_fits == 1
        self._evidence_matches_own_anchor(s["imhop"], psis, label)

    def test_momentum_state_phase(self, setup10, monkeypatch):
        # W_q picks up e^{iq} under translation: residual norms do not see it
        s = setup10
        psis = [s["vac"], states.w_q(s["n"], 1)]
        label, lefts, _ = self._classify(s["imhop"], psis, monkeypatch)
        assert label.anchors_solved == (0,) and set(lefts) == {0}
        self._evidence_matches_own_anchor(s["imhop"], psis, label)

    @pytest.mark.parametrize("case", ["single_particle", "non_invariant", "moved_1e-13"])
    def test_solves_both_anchors(self, setup10, monkeypatch, case):
        s = setup10
        n, vw = s["n"], [s["vac"], s["w"]]
        if case == "single_particle":
            # eigenstates of n_tot, but not translation eigenstates
            one = np.zeros(1 << n, dtype=complex)
            one[1] = 1.0
            h, psis = s["ntot"], [s["vac"], one]
        elif case == "non_invariant":
            rng = np.random.default_rng(6)
            h = canonical.random_type1(n, rng, translation_invariant=False) + s["imhop"]
            psis = vw
        else:
            h = opspace.LocalOperator(n, {**s["ntot"].terms, (4, ("n",)): 1.0 + 1e-13})
            psis = vw
        label, lefts, _ = self._classify(h, psis, monkeypatch)
        assert label.anchors_solved == (0, n // 3)
        assert lefts == [0] * (len(lefts) // 2) + [n // 3] * (len(lefts) // 2)
        self._evidence_matches_own_anchor(h, psis, label)


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

    def test_types_do_not_drift_with_n(self):
        # the N=10 verdicts at N=16, where the sweep has 20 patches per anchor
        n = 16
        psis = [states.vacuum(n), states.w_state(n)]
        for h, want in ((canonical.h_imhop(n), "II"), (canonical.n_tot(n), "III"),
                        (canonical.h_rehop(n), "I"), (canonical.h_dmi(n), "II")):
            assert classify(h, psis).value == want

    def test_dead_zone_is_indeterminate(self, setup10):
        # 1e-5 n_tot leaves a general residual of 1.7e-5, inside the dead zone
        s = setup10
        label = classify(s["imhop"] + 1e-5 * s["ntot"], [s["vac"], s["w"]])
        assert label.value == "indeterminate"
        assert boundary.ACCEPT < max(row[2] for row in label.evidence) < boundary.REJECT

    def test_independence_clause_reads_the_sweep(self, monkeypatch):
        # range 4 > R_max + 1, so the truncation difference reaches past the
        # clause's right window; the clause truncates nothing itself
        n = 12
        h, psis = canonical.h_imhop_p(n, 3), [states.vacuum(n), states.w_state(n)]
        truncated, clause = [], []
        truncate, independent = opspace.truncate, boundary._left_independent
        monkeypatch.setattr(opspace, "truncate",
                            lambda op, lam, *a: truncated.append(lam) or truncate(op, lam, *a))
        monkeypatch.setattr(boundary, "_left_independent",
                            lambda *a: clause.append(a) or independent(*a))
        label = classify(h, psis, r_max=1)
        assert (label.value, label.notes, len(clause)) == ("I", (), 1)
        assert truncated == boundary.default_sweep(n, 1, op_range=4)
        *_, short, grown = clause[0]
        assert (short[0], grown[0]) == (Region(0, 8, n), Region(0, 9, n))

    def test_preconditions(self, setup10):
        s = setup10
        drop = states.droplet(s["n"], 3, 1)
        with pytest.raises(canonical.ClassificationError) as err:
            classify(s["rehop"], [s["vac"], drop])
        assert err.value.defect > 0.1
        with pytest.raises(canonical.ClassificationError):
            equivalence_test(s["imhop"], s["rehop"], [s["vac"], drop])
        with pytest.raises(canonical.ClassificationError):
            boundary_solve(s["rehop"], [s["vac"], drop], s["lam"], 2)
        with pytest.raises(ValueError):
            classify(s["rehop"], [s["vac"], s["w"]], r_max=0)
        with pytest.raises(ValueError):
            boundary_solve(s["rehop"], [s["w"]], s["lam"], 0)
        with pytest.raises(ValueError, match="Hermitian"):
            classify(canonical.p_nonherm(s["n"], 0), [s["vac"], s["w"]])

    def test_hermiticity_checked_once_per_call(self, setup10, monkeypatch):
        s = setup10
        vw = [s["vac"], s["w"]]
        calls, hermitian = [], opspace.LocalOperator.hermitian
        monkeypatch.setattr(opspace.LocalOperator, "hermitian",
                            lambda op, *a: calls.append(op) or hermitian(op, *a))
        for run, want in ((lambda: classify(s["imhop"], vw), [s["imhop"]]),
                          (lambda: classify(s["ntot"], vw), [s["ntot"]]),
                          (lambda: equivalence_test(s["imhop"], s["rehop"], vw),
                           [s["imhop"], s["rehop"]]),
                          (lambda: boundary_solve(s["rehop"], vw, s["lam"], 2), [s["rehop"]])):
            calls.clear()
            run()
            assert calls == want

    def test_empty_sweep_precondition(self):
        for n, r_max in ((3, 2), (10, 4)):
            with pytest.raises(ValueError, match=f"N={n}, R_max={r_max}"):
                classify(canonical.n_tot(n), [states.vacuum(n), states.w_state(n)],
                         r_max=r_max)

    def test_evidence_matches_boundary_solve(self, setup10):
        s = setup10
        n = s["n"]
        cases = [(s["imhop"], [s["vac"], s["w"]]),
                 (s["imhop2"], [s["vac"], s["w"], s["w2"]]),
                 (canonical.random_type1(n, np.random.default_rng(4)) + s["imhop"],
                  [s["vac"], s["w"]])]
        for h, psis in cases:
            label = classify(h, psis)
            sweep = boundary.default_sweep(n, 2, anchors=(0, n // 3),
                                           op_range=h.declared_range)
            assert len(label.evidence) == len(sweep)
            for (_, length, gen, her), lam in zip(label.evidence, sweep):
                assert length == lam.length
                for hermitian, got in ((False, gen), (True, her)):
                    ref = boundary_solve(h, psis, lam, 2, hermitian=hermitian)
                    assert abs(got - ref.residual) <= 1e-12

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
            embedded = np.zeros((rep.dim, len(full.keys)), dtype=complex)
            embedded[:, [index[k] for k in win.keys]] = rep.basis
            rows.append(embedded)
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

    def test_exact_angle_against_lstsq(self, setup10):
        # the least-squares fit at fixed angle is the reference: the reported
        # residual is attained there and no grid angle does better.  With a
        # single state the best angle is that state's minimum; on W and W_q
        # under h_rehop ~ h_imhop it is a crossing of the two states' curves.
        s = setup10
        n, lam = s["n"], Region(0, 6, s["n"])
        vw, vww2 = [s["vac"], s["w"]], [s["vac"], s["w"], s["w2"]]
        rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(22)
        cases = [(s["imhop"], canonical.h_dmi(n), vw, "same-class"),
                 (s["imhop"], s["imhop2"], vww2, "different"),
                 (s["imhop"], s["imhop2"], [s["w"]], "same-class"),
                 (s["rehop"], s["imhop"], [s["w"], states.w_q(n, 1)], "different"),
                 (canonical.random_type1(n, rng_a) + s["imhop"],
                  canonical.random_type1(n, rng_b) + 0.7 * s["imhop"], vw, "same-class")]
        sites = lam.sites()
        for h_a, h_b, psis, verdict in cases:
            res = equivalence_test(h_a, h_b, psis, lam=lam)
            assert res.verdict == verdict
            ha, hb = (opspace.truncate(h, lam, "boson") for h in (h_a, h_b))
            acts = [(apply(ha, psi), apply(hb, psi)) for psi in psis]
            scale = max(np.linalg.norm(v) for pair in acts for v in pair)

            def reference(theta):
                targets = [np.cos(theta) * a - np.sin(theta) * b for a, b in acts]
                *_, r_abs = boundary.solve_boundary_dense(
                    support_form(np.concatenate(targets), len(targets)), psis, n, 2,
                    tuple(sites[:2]), tuple(sites[-2:]), hermitian=True)
                return r_abs / scale

            grid = np.linspace(0.0, np.pi, 64, endpoint=False)
            ref_grid = np.array([reference(t) for t in grid])
            assert res.residual <= ref_grid.min() + 1e-12
            if res.verdict == "same-class":
                theta = np.arctan2(res.beta, res.alpha)
                assert abs(reference(theta) - res.residual) <= 1e-12
            else:
                best = grid[np.argmin(ref_grid)]
                local = minimize_scalar(reference, bounds=(best - np.pi / 64,
                                                           best + np.pi / 64),
                                        method="bounded", options={"xatol": 1e-10})
                assert abs(local.fun - res.residual) <= 1e-9
        assert res.beta / res.alpha == pytest.approx(1 / 0.7, rel=1e-8)

    def test_dead_zone_is_indeterminate(self, setup10):
        # h_dmi = -h_imhop; 1e-5 n_tot moves the best residual to 1.2e-5
        s = setup10
        res = equivalence_test(s["imhop"], canonical.h_dmi(s["n"]) + 1e-5 * s["ntot"],
                               [s["vac"], s["w"]])
        assert (res.verdict, res.alpha, res.beta) == ("indeterminate", None, None)
        assert boundary.ACCEPT < res.residual < boundary.REJECT

    @pytest.mark.parametrize("n,length", [(10, 7), (8, 6)])
    def test_default_patch_is_sweeps_second_longest(self, n, length):
        # N - 3 sites where the sweep has two patches or more, else its only one
        h_a, h_b = canonical.h_imhop(n), canonical.h_dmi(n)
        psis = [states.vacuum(n), states.w_state(n)]
        assert equivalence_test(h_a, h_b, psis) == \
            equivalence_test(h_a, h_b, psis, lam=Region(0, length - 1, n))

    @pytest.mark.parametrize("n,h_b,kwargs,match", [
        (10, "imhop", {"lam": Region(0, 2, 10)}, "patch length 3 < 6"),
        (6, "imhop", {}, "no patch to sweep at N=6, R_max=2"),
        (10, "p_nonherm", {}, "Hermitian")], ids=["shared_site", "touching_windows", "non_hermitian"])
    def test_patch_rule_and_hermiticity(self, n, h_b, kwargs, match):
        # each returned "same-class" before the patch rule and the Hermiticity
        # check were shared with classify; at R_max = 2 the 3-site patch's
        # windows share a site and the 4-site one, N = 6's longest, has them touch
        h_a = canonical.h_imhop(n)
        h_b = canonical.p_nonherm(n, 0) if h_b == "p_nonherm" else h_a
        with pytest.raises(ValueError, match=match):
            equivalence_test(h_a, h_b, [states.vacuum(n), states.w_state(n)], **kwargs)


class TestWindowBasis:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_qubit_basis_is_pauli_strings(self, width):
        want = [functools.reduce(np.kron, [opspace._MATS[c] for c in codes])
                for codes in itertools.product(boundary._SITE_CODES, repeat=width)][1:]
        assert np.array_equal(boundary._window_basis(2, width), want)

    def test_cached_read_only(self):
        basis = boundary._window_basis(2, 2)
        assert boundary._window_basis(2, 2) is basis
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0, 0] = 1.0

    @pytest.mark.parametrize("local_dim, width", [(3, 1), (3, 2), (4, 1), (4, 2)])
    def test_qudit_basis_traceless_hermitian_full_rank(self, local_dim, width):
        basis = boundary._window_basis(local_dim, width)
        dim = local_dim ** width
        assert basis.shape == (dim * dim - 1, dim, dim)
        assert np.allclose(basis, basis.conj().transpose(0, 2, 1), rtol=0, atol=1e-14)
        assert np.allclose(np.trace(basis, axis1=1, axis2=2), 0, rtol=0, atol=1e-14)
        assert np.linalg.matrix_rank(basis.reshape(len(basis), -1)) == dim * dim - 1


class TestSiteAxesApply:
    @pytest.mark.parametrize("local_dim, n_sites", [(2, 6), (3, 5)])
    def test_stack_matches_single_matrices(self, local_dim, n_sites):
        rng = np.random.default_rng(local_dim)
        if local_dim == 3:
            psi = mps.to_dense(mps.builtin_aklt(), n_sites)
        else:
            psi = rng.normal(size=2 ** n_sites) + 1j * rng.normal(size=2 ** n_sites)
        for sites in ((1,), (3, 0), (0, 2, 4)):
            dim = local_dim ** len(sites)
            stack = rng.normal(size=(4, dim, dim)) + 1j * rng.normal(size=(4, dim, dim))
            got = site_axes_apply(stack, psi, sites, local_dim, n_sites)
            want = [site_axes_apply(m, psi, sites, local_dim, n_sites)
                    for m in stack]
            assert got.shape == (4, psi.size)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
