"""Variance diagnostics and asymptotic-scar scaling exponents."""

import numpy as np
import pytest

from scartypes import canonical, opspace, scars, states
from scartypes.opspace import apply, identity
from scartypes.scars import (expectation, loglog_fit, variance, variance_scan_n,
                             variance_scan_q)


def seeded_hamiltonian(n, seed=6, omega=0.8, t=0.6):
    rng = np.random.default_rng(seed)
    return (omega * canonical.n_tot(n) + t * canonical.h_imhop(n)
            + canonical.random_type1(n, rng))


class TestMoments:
    def test_exact_eigenstate_zero_variance(self):
        n = 8
        h = canonical.h_imhop(n)
        for m in (0, 2, 5):
            assert variance(h, states.w_q(n, m)) < 1e-12

    def test_expectation_identity(self):
        n = 10
        omega, t = 0.7, 1.3
        h = omega * canonical.n_tot(n) + t * canonical.h_imhop(n)
        for m in (0, 1, 3):
            q = 2 * np.pi * m / n
            got = expectation(h, states.w_q(n, m))
            assert got == pytest.approx(omega + t * np.sin(q), abs=1e-12)

    def test_w2_energy_shift_decays(self):
        omega = 0.8
        pts = []
        for n in (10, 12, 14):
            h = seeded_hamiltonian(n, omega=omega)
            shift = abs(expectation(h, states.w_p(n, 2)) - 2 * omega)
            pts.append((n, shift))
        fit = loglog_fit([p[0] for p in pts], [p[1] for p in pts])
        assert fit.exponent == pytest.approx(-1.0, abs=0.15)

    def test_hermitian_required(self):
        with pytest.raises(ValueError):
            expectation(canonical.p_nonherm(6, 0), states.w_state(6))

    def test_variance_additivity(self):
        # exact-eigenstate part drops out of the variance entirely
        n = 10
        rng = np.random.default_rng(9)
        h_rest = canonical.random_type1(n, rng)
        h_eig = 1.7 * canonical.n_tot(n) - 0.4 * canonical.h_imhop(n) \
            + identity(n, 0.9)
        psi = states.w_p(n, 2)
        assert variance(h_eig + h_rest, psi) == pytest.approx(
            variance(h_rest, psi), abs=1e-10)

    def test_disjoint_support_products_kill_w2(self):
        n = 10
        w2 = states.w_p(n, 2)
        pats = canonical.table2_patterns()
        hx = canonical._translates(n, [pats[0]], [0])
        for pat in pats:
            hy = canonical._translates(n, [pat], [5])   # disjoint window
            assert np.linalg.norm(apply(hy, apply(hx, w2))) < 1e-13


class TestLogLogFit:
    def test_non_positive_abscissae_ignored(self, capfd):
        want = loglog_fit([1, 2, 4], [2, 4, 8])
        assert loglog_fit([0, 1, 2, 4], [1, 2, 4, 8]) == want
        assert loglog_fit([1, -1, 2, 4], [2, 5, 4, 8]) == want
        with pytest.raises(ValueError, match="two positive points"):
            loglog_fit([0, -1, 2], [1, 2, 4])
        assert capfd.readouterr() == ("", "")


class TestLifetime:
    """The Heisenberg lifetime 1/(2 sqrt(variance)) grows as N^(-b/2) when the
    variance scales as N^b: its log-log slope is -1/2 the variance's."""

    def test_wq_lifetime_grows_linearly(self):
        pts = []
        for n in (8, 10, 12, 14):
            h = seeded_hamiltonian(n)
            pts.append((n, variance(h, states.w_q(n, 1))))
        fit = loglog_fit([p[0] for p in pts[1:]], [p[1] for p in pts[1:]])
        assert -fit.exponent / 2 == pytest.approx(1.0, abs=0.25)

    def test_w2_lifetime_grows_as_sqrt(self):
        pts = []
        for n in (8, 10, 12, 14):
            h = seeded_hamiltonian(n)
            pts.append((n, variance(h, states.w_p(n, 2))))
        fit = loglog_fit([p[0] for p in pts[1:]], [p[1] for p in pts[1:]])
        assert -fit.exponent / 2 == pytest.approx(0.5, abs=0.15)


class TestScans:
    def test_imhop_variance_identically_zero(self):
        scan = variance_scan_q(canonical.h_imhop(12), 12, [0, 1, 2])
        assert all(v < 1e-13 for _, _, v in scan.points)

    def test_q_zero_exact(self):
        h = seeded_hamiltonian(12)
        scan = variance_scan_q(h, 12, [0, 1])
        assert scan.points[0][2] < 1e-12

    def test_quadratic_scaling_via_n_sweep(self):
        # q = 2 pi / N with N = 8..14; smallest N excluded from the fit
        pts = []
        for n in (8, 10, 12, 14):
            h = seeded_hamiltonian(n)
            pts.append((2 * np.pi / n, variance(h, states.w_q(n, 1))))
        pts = sorted(pts)[:-1]
        fit = loglog_fit([p[0] for p in pts], [p[1] for p in pts])
        assert fit.exponent == pytest.approx(2.0, abs=0.1)

    def test_fixed_n_scan_monotone_quadraticish(self):
        # at N=12 the accessible q are O(1) and lattice corrections pull the
        # window exponent below 2; the bound still caps growth at quadratic
        h = canonical.h_rehop(12) + seeded_hamiltonian(12, omega=0.0, t=0.0)
        scan = variance_scan_q(h, 12, [1, 2, 3, 4])
        assert scan.fit is not None
        assert 1.4 < scan.fit.exponent < 2.2
        qs = [p[0] for p in scan.points]
        vs = [p[2] for p in scan.points]
        ratios = [vs[i] / qs[i] ** 2 for i in range(len(qs))]
        assert max(ratios) < 2.5 * min(ratios)

    def test_w2_variance_scan(self):
        scan = variance_scan_n(lambda n: seeded_hamiltonian(n), 2,
                               [8, 10, 12, 14])
        assert scan.fit.exponent == pytest.approx(-1.0, abs=0.2)

    def test_w2_exact_for_symmetric_part(self):
        def builder(n):
            return 0.9 * canonical.n_tot(n) + 0.4 * canonical.h_imhop(n)
        scan = variance_scan_n(builder, 2, [8, 10, 12])
        assert all(v < 1e-12 for _, _, v in scan.points)
        assert scan.fit is None

    def test_vacuum_zero_variance(self):
        scan = variance_scan_n(lambda n: seeded_hamiltonian(n), 0, [8, 10])
        assert all(v < 1e-12 for _, _, v in scan.points)

    def test_q_scan_checks_hermiticity_once(self, monkeypatch):
        calls, hermitian = [], opspace.LocalOperator.hermitian
        monkeypatch.setattr(opspace.LocalOperator, "hermitian",
                            lambda op: calls.append(op) or hermitian(op))
        scan = variance_scan_q(seeded_hamiltonian(10), 10, [1, 2, 3, 4])
        assert len(scan.points) == 4 and len(calls) == 1

    def test_q_scan_checks_eigenstate_before_hermiticity(self):
        # sd@0 is neither Hermitian nor has W as an eigenstate
        with pytest.raises(canonical.ClassificationError):
            variance_scan_q(opspace.string_term(8, 1.0, [(0, "sd")]), 8, [1])
        # p_nonherm annihilates W but is not Hermitian
        with pytest.raises(ValueError, match="Hermitian") as info:
            variance_scan_q(canonical.p_nonherm(8, 2), 8, [1])
        assert not isinstance(info.value, canonical.ClassificationError)

    def test_n_scan_past_matrix_guard(self):
        scan = variance_scan_n(lambda n: seeded_hamiltonian(n), 2, [8, 16])
        assert [p[0] for p in scan.points] == [8, 16]
        with pytest.raises(opspace.CapacityError):
            variance_scan_n(lambda n: seeded_hamiltonian(n), 2, [8, 25])

    def test_requires_w_eigenstate(self):
        with pytest.raises(ValueError):
            variance_scan_q(opspace.string_term(8, 1.0, [(0, "n")]), 8, [1])
