"""State constructors and Schmidt decompositions against dense oracles."""

import numpy as np
import pytest

from scartypes import canonical, opspace, states
from scartypes.opspace import Region, apply, string_term


class TestConstructors:
    def test_w2_amplitudes(self):
        w = states.w_state(2)
        assert w[0b01] == pytest.approx(1 / np.sqrt(2))
        assert w[0b10] == pytest.approx(1 / np.sqrt(2))
        assert w[0b00] == w[0b11] == 0

    def test_all_normalized(self):
        for psi in (states.vacuum(6), states.w_state(6), states.w_p(6, 3),
                    states.w_q(6, 2), states.droplet(6, 4, 2)):
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_number_sector(self):
        n = 8
        counts = states._popcounts(n)
        for p in range(n + 1):
            wp = states.w_p(n, p)
            assert np.all(wp[counts != p] == 0)
            ntot = canonical.n_tot(n)
            assert np.vdot(wp, apply(ntot, wp)).real == pytest.approx(p)

    def test_sector_orthogonality(self):
        n = 6
        for p in range(n):
            for pp in range(p + 1, n + 1):
                assert abs(np.vdot(states.w_p(n, p), states.w_p(n, pp))) < 1e-15

    def test_wp_limits(self):
        assert np.allclose(states.w_p(5, 0), states.vacuum(5))
        assert np.allclose(states.w_p(5, 1), states.w_state(5))

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            states.w_p(4, 5)

    def test_dense_state_guard(self):
        # raised before any 2^N array is allocated
        for build in (states.vacuum, states.w_state, lambda n: states.w_p(n, 2),
                      lambda n: states.w_q(n, 1), lambda n: states.droplet(n, 3, 1)):
            with pytest.raises(opspace.CapacityError, match="N=25"):
                build(25)

    @pytest.mark.parametrize("n", [0, -4])
    def test_empty_ring_rejected(self, n):
        # checked before p, M or m, whose own errors would not name N
        for build in (states.vacuum, states.w_state, lambda n: states.w_p(n, 1),
                      lambda n: states.w_q(n, 1), lambda n: states.droplet(n, 1, 1)):
            with pytest.raises(ValueError, match=f"N={n} must be at least 1"):
                build(n)


class TestBoostedW:
    def test_m_zero_is_w(self):
        assert np.allclose(states.w_q(8, 0), states.w_state(8))

    def test_imhop_eigenvalue(self):
        n = 10
        him = canonical.h_imhop(n)
        for m in (1, 3, 7):
            q = 2 * np.pi * m / n
            wq = states.w_q(n, m)
            assert np.linalg.norm(apply(him, wq) - np.sin(q) * wq) < 1e-13

    def test_rehop_eigenvalue(self):
        n = 10
        hre = canonical.h_rehop(n)
        for m in (1, 4):
            q = 2 * np.pi * m / n
            wq = states.w_q(n, m)
            assert np.linalg.norm(apply(hre, wq) - (1 - np.cos(q)) * wq) < 1e-13

    def test_translation_covariance(self):
        n = 8
        for m in (1, 3):
            q = 2 * np.pi * m / n
            wq = states.w_q(n, m)
            shifted = states.translate(wq, 1, n)
            assert np.linalg.norm(shifted - np.exp(1j * q) * wq) < 1e-13


class TestDroplet:
    def test_single_particle_uniform(self):
        n, m = 9, 4
        psi = states.droplet(n, m, 1)
        manual = np.zeros(1 << n, dtype=complex)
        for j in range(m):
            manual[1 << j] = 1 / np.sqrt(m)
        assert np.allclose(psi, manual)

    def test_full_ring_is_w(self):
        assert np.allclose(states.droplet(7, 7, 1), states.w_state(7))

    def test_overlap_with_w(self):
        n, m = 10, 6
        got = np.vdot(states.droplet(n, m, 1), states.w_state(n))
        assert got.real == pytest.approx(np.sqrt(m / n))

    def test_vacuum_region_annihilators(self):
        # strings inside the vacuum region containing an annihilation op
        n, m = 8, 3
        psi = states.droplet(n, m, 2)
        for factors in ([(m + 1, "s")], [(m + 1, "n")],
                        [(m + 1, "sd"), (m + 2, "s")],
                        [(m + 2, "n"), (n - 2, "s")]):
            op = string_term(n, 1.0, factors)
            assert np.linalg.norm(apply(op, psi)) < 1e-15


class TestRotation:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_rotated_is_translate_index_map(self, n):
        # translate moves basis state i to _rotated(i, shift): site j -> j + shift
        idx = np.arange(1 << n, dtype=np.int64)
        for shift in range(-n, 2 * n):
            moved = opspace._rotated(idx, shift, n)
            bitwise = sum(((idx >> j) & 1) << ((j + shift) % n) for j in range(n))
            assert np.array_equal(moved, bitwise)
            assert np.array_equal(states.translate(idx, shift, n)[moved], idx)
            assert [opspace._rotated(int(i), shift, n) for i in idx[::7]] == \
                bitwise[::7].tolist()


class TestSchmidt:
    def test_w_weights(self):
        split = states.schmidt_w_family(12, 1, Region(0, 2, 12))
        weights = sorted(split.weights())
        assert weights == pytest.approx([0.5, np.sqrt(0.75)])

    def test_normalization(self):
        for p in (1, 2, 3):
            split = states.schmidt_w_family(10, p, Region(0, 3, 10))
            assert np.sum(split.weights() ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_w2_corner_weight(self):
        split = states.schmidt_w_family(4, 2, Region(0, 1, 4))
        by_label = {(l, r): w for w, l, r in split.coefficients}
        assert by_label[(2, 0)] == pytest.approx(1 / np.sqrt(6))

    @pytest.mark.parametrize("n,p,left,right", [
        (8, 1, 0, 2), (8, 2, 1, 4), (10, 3, 0, 4), (9, 2, 3, 7),
        (8, 5, 0, 2),               # |X| < p: truncated l sum
        (10, 2, 2, 8),
    ])
    def test_dense_svd_oracle(self, n, p, left, right):
        region = Region(left, right, n)
        split = states.schmidt_w_family(n, p, region)
        svals = states.dense_schmidt_values(states.w_p(n, p), region)
        expected = np.sort(split.weights())[::-1]
        got = np.sort(svals)[::-1][: expected.size]
        assert np.abs(got - expected).max() < 1e-10
        # remaining singular values vanish
        assert np.all(svals[np.argsort(-svals)][expected.size:] < 1e-10)
