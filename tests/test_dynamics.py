"""Droplet quench engine: kernels, unitarity, quadrature, scaling laws."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from scartypes import dynamics, scars
from scartypes.dynamics import (DropletRun, chop, fq, imhop, integer_g_times,
                                occupations, orbital_amplitudes, rehop, scaling_fit,
                                upsilon_finite, upsilon_series, upsilon_thermo)


@dataclass(frozen=True)
class _Tabulated:
    """A dispersion given as a callable eps(q), with ``speed`` bounding |d eps/dq|:
    the two things the droplet kernels read of a Dispersion."""

    table: object
    speed: float = 1.0

    def eps(self, q):
        return np.asarray(self.table(np.asarray(q, dtype=float)), dtype=float)

    def velocity_scale(self) -> float:
        return self.speed


def _reference_upsilon(run, t, g):
    """The per-time momentum sum that the series path replaced."""
    qs = run.momenta
    kern = dynamics._dirichlet(qs, run.m_size) ** 2
    phases = 1.0 - np.exp(1j * (qs * g - run.dispersion.eps(qs) * t))
    return complex(np.sum(kern * phases) / (run.m_size * run.n_sites))


def _oracle_upsilon_series(run, dt, steps, rate=0.0, shift=0.0):
    """The exponential-grid series that the doubling path replaced: about
    2 sqrt(steps) N exponentials, held as (J, N) and (B, N) arrays at once."""
    qs = run.momenta
    wts = dynamics._dirichlet(qs, run.m_size) ** 2 / (run.m_size * run.n_sites)
    theta = (qs * rate - run.dispersion.eps(qs)) * dt
    b = max(1, math.isqrt(steps))

    def half_and_deficit(phi):                            # e^{i phi/2}, 1 - e^{i phi}
        half = np.exp(0.5j * phi)
        return half, -2j * half.imag * half
    half, deficit = half_and_deficit(qs * shift + np.arange(0, steps + 1, b)[:, None] * theta)
    _, baby = half_and_deficit(np.arange(b)[:, None] * theta)
    ups = (deficit @ wts)[:, None] + (wts * half * half) @ baby.T
    return ups.ravel()[1:steps + 1]


def _early_time(disp, m_size, t):
    """Closed-form small-t limit of Upsilon_0(t, M) for the alpha/beta formula:
    (alpha^2 + beta^2) (wt)^2 / 2M + i alpha wt / M."""
    a, b, wt = disp.alpha, disp.beta, disp.w * t
    return complex((a * a + b * b) * wt ** 2 / (2 * m_size), a * wt / m_size)


def _bec_overlap(run, t, g_shift, p):
    """p-particle droplet overlap (1 - Upsilon_G)^p in the BEC approximation."""
    return complex((1.0 - upsilon_finite(run, t, g_shift)) ** p)


def _leakage(run, t, g_shift):
    """Occupation escaped past |j - center - G| > M/2 (strict), center (M+1)/2."""
    occ = occupations(run, t)
    center = (run.m_size + 1) / 2.0 + g_shift
    n = run.n_sites
    js = np.arange(1, n + 1, dtype=float)
    dist = np.abs((js - center + n / 2.0) % n - n / 2.0)
    return float(occ[dist > run.m_size / 2.0].sum())


def _reference_occupations(run, t):
    """The per-time FFT profile that the batched path replaced."""
    qs = run.momenta
    g = fq(run.m_size, run.n_sites, qs) * np.exp(-1j * run.dispersion.eps(qs) * t)
    amps = np.sqrt(run.n_sites) * np.fft.ifft(g)
    return np.abs(np.roll(amps, -1)) ** 2


class TestMomentumAmplitudes:
    def test_q_zero_limit(self):
        assert fq(51, 201, 0.0) == pytest.approx(np.sqrt(51 / 201))

    def test_normalization(self):
        run = DropletRun(201, 51, imhop())
        total = np.sum(np.abs(fq(51, 201, run.momenta)) ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_full_ring_is_plane_wave(self):
        run = DropletRun(16, 16, rehop())
        vals = np.abs(fq(16, 16, run.momenta))
        assert vals[0] == pytest.approx(1.0)
        assert vals[1:].max() < 1e-12

    def test_one_element_array_keeps_its_shape(self):
        got = fq(51, 201, np.array([0.3]))
        assert got.shape == (1,) and got[0] == fq(51, 201, 0.3)

    def test_empty_array(self):
        assert fq(3, 10, np.array([])).shape == (0,)


class TestOccupations:
    def test_initial_profile(self):
        run = DropletRun(101, 21, imhop())
        occ = occupations(run, 0.0)
        assert np.allclose(occ[:21], 1 / 21)
        assert np.abs(occ[21:]).max() < 1e-14

    @pytest.mark.parametrize("t", [0.0, 3.7, 25.0, 120.0])
    def test_unitarity(self, t):
        run = DropletRun(201, 51, chop(0.5, 0.5))
        assert occupations(run, t).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rehop_no_linear_response(self):
        run = DropletRun(201, 51, rehop())
        rate = (occupations(run, 1e-6) - occupations(run, 0.0)) / 1e-6
        assert np.abs(rate).max() < 1e-6

    def test_imhop_edge_currents(self):
        m = 51
        run = DropletRun(201, m, imhop())
        rate = (occupations(run, 1e-6) - occupations(run, 0.0)) / 1e-6
        assert rate[0] == pytest.approx(-1 / m, rel=1e-4)
        assert rate[m - 1] == pytest.approx(1 / m, rel=1e-4)

    @pytest.mark.parametrize("disp", [rehop(), chop(0.5, 0.5)])
    def test_time_array_rows_match_per_time_calls(self, disp):
        run = DropletRun(201, 51, disp)
        ts = np.linspace(0.0, 40.0, 51)
        rows = occupations(run, ts)
        assert rows.shape == (51, 201)
        for k, t in enumerate(ts):
            assert np.array_equal(rows[k], occupations(run, t))
            assert np.array_equal(rows[k], _reference_occupations(run, t))

    def test_ballistic_center_of_mass(self):
        run = DropletRun(201, 51, imhop())
        js = np.arange(1, 202)
        drift = (occupations(run, 20.0) * js).sum() \
            - (occupations(run, 0.0) * js).sum()
        assert drift == pytest.approx(20.0, abs=1.0)


class TestUpsilon:
    def test_initial_value(self):
        run = DropletRun(100, 30, rehop())
        assert abs(upsilon_finite(run, 0.0, 0)) < 1e-14

    def test_real_space_consistency(self):
        # 1 - Upsilon_0(t) equals <phi_0 | phi(t)> computed in real space
        run = DropletRun(400, 51, chop(0.3, 0.7))
        phi0 = np.zeros(400, dtype=complex)
        phi0[:51] = 1 / np.sqrt(51)
        for t in (2.0, 17.0):
            amps = orbital_amplitudes(run, t)
            overlap = np.vdot(phi0, amps)
            assert abs((1 - upsilon_finite(run, t, 0)) - overlap) < 1e-12

    @pytest.mark.parametrize("disp", [rehop(), imhop(), chop(0.5, 0.5)])
    def test_thermo_matches_large_ring(self, disp):
        m = 40
        run = DropletRun(800, m, disp)
        for t, g in ((4.0, 0), (12.0, 6)):
            finite = upsilon_finite(run, t, g)
            thermo = upsilon_thermo(disp, m, t, g)
            assert abs(finite - thermo) < 1e-6

    def test_dispersion_reductions(self):
        qs = np.linspace(-np.pi, np.pi, 101)
        assert np.allclose(chop(1, 0).eps(qs), rehop().eps(qs))
        assert np.allclose(chop(0, 1).eps(qs), imhop().eps(qs))

    def test_chemical_potential_is_pure_phase(self):
        # a constant dispersion shift multiplies the overlap by e^{-ict}
        m, t, c = 30, 7.0, 0.8
        base = imhop()
        shifted = _Tabulated(lambda q: base.eps(q) + c)
        run0 = DropletRun(300, m, base)
        run1 = DropletRun(300, m, shifted)
        lhs = 1 - upsilon_finite(run1, t, 0)
        rhs = np.exp(-1j * c * t) * (1 - upsilon_finite(run0, t, 0))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("disp", [
        rehop(), imhop(0.7), chop(0.5, 0.5),
        _Tabulated(lambda q: np.sin(q) + 0.3 * (1.0 - np.cos(2 * q)))])
    @pytest.mark.parametrize("shift", ["fixed", "linear"])
    def test_series_matches_per_time_reference(self, disp, shift):
        run = DropletRun(300, 41, disp)
        ts = np.linspace(0.0, 60.0, 31)          # t = 0 included
        gs = 4.0 if shift == "fixed" else 0.5 * ts
        got = upsilon_finite(run, ts, gs)
        want = [_reference_upsilon(run, t, g)
                for t, g in zip(ts, np.broadcast_to(gs, ts.shape))]
        assert got.dtype == complex and np.array_equal(got, want)

    def test_series_list_and_empty_inputs(self):
        run = DropletRun(120, 30, imhop())
        got = upsilon_finite(run, [0.0, 2.5, 9.0], [0, 1, 3])
        want = [_reference_upsilon(run, t, g)
                for t, g in ((0.0, 0), (2.5, 1), (9.0, 3))]
        assert np.array_equal(got, want)
        assert upsilon_finite(run, np.array([]), 0.0).shape == (0,)
        scalar = upsilon_finite(run, 2.5, 1)
        assert type(scalar) is complex and scalar == want[1]

    @pytest.mark.parametrize("bad", [{"w": np.inf}, {"alpha": np.nan},
                                     {"beta": -np.inf}])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            dynamics.Dispersion(**bad)

    def test_quadrature_convergence_error(self, monkeypatch):
        monkeypatch.setattr(dynamics, "THERMO_TOL", 1e-16)
        monkeypatch.setattr(dynamics, "THERMO_MAX_NODES", 512)
        with pytest.raises(dynamics.QuadratureError, match="below 1e-16"):
            upsilon_thermo(imhop(), 30, 5.0, 0)

    def test_kinked_dispersion_refines_until_converged(self, monkeypatch):
        # a kink inside a panel slows Gauss-Legendre to algebraic convergence,
        # so the panel count doubles several times; quad splits at the kinks
        from scipy.integrate import quad
        m, t = 8, 1.0
        disp = _Tabulated(lambda q: np.abs(np.sin(q - 0.3)))
        evaluations, dirichlet = [], dynamics._dirichlet
        monkeypatch.setattr(dynamics, "_dirichlet",
                            lambda q, size: evaluations.append(q.size) or dirichlet(q, size))
        got = upsilon_thermo(disp, m, t, 0)
        monkeypatch.undo()
        assert len(evaluations) > 3
        assert evaluations[1:] == [2 * k for k in evaluations[:-1]]

        def part(q, take):
            val = dirichlet(np.array([q]), m)[0] ** 2 * (1 - np.exp(-1j * disp.eps(q) * t))
            return take(val / (2 * np.pi * m))
        want = [quad(part, -np.pi, np.pi, args=(take,), points=(0.3 - np.pi, 0.3),
                     epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                for take in (np.real, np.imag)]
        assert abs(got - complex(*want)) < 1e-9

    @pytest.mark.parametrize("disp", [rehop(), chop(0.5, 0.5), chop(0.3, 0.8, 1.2)])
    def test_custom_velocity_scale_matches_closed_form(self, disp):
        # the closed form against the largest |d eps/dq| on a 4097-point grid
        qs = np.linspace(-np.pi, np.pi, 4097)
        assert disp.velocity_scale() == pytest.approx(
            np.abs(np.gradient(disp.eps(qs), qs)).max(), rel=1e-6)


def _deficit(phi):
    """1 - e^{i phi} without cancellation at small phi."""
    return -2j * np.sin(phi / 2.0) * np.exp(0.5j * phi)


class TestUpsilonSeries:
    """The baby-step/giant-step grid form against the per-point definition and
    the exponential-grid series it replaced."""

    @pytest.mark.parametrize("disp", [
        rehop(), imhop(0.7), chop(0.5, 0.5),
        _Tabulated(lambda q: np.sin(q) + 0.3 * (1.0 - np.cos(2 * q)))])
    @pytest.mark.parametrize("rate,shift", [(0.0, 0.0), (0.0, 4.0), (0.5, 0.0),
                                            (1.2, 1.5)])
    @pytest.mark.parametrize("dt", [0.9, -0.35])
    def test_matches_upsilon_finite(self, disp, rate, shift, dt):
        run = DropletRun(300, 41, disp)
        for steps in (0, 1, 2, 3, 15, 16, 17, 50):
            ts = dt * np.arange(1, steps + 1)
            got = upsilon_series(run, dt, steps, rate, shift)
            assert got.dtype == complex and got.shape == (steps,)
            want = upsilon_finite(run, ts, shift + rate * ts)
            assert np.abs(got - want).max(initial=0.0) < 1e-12
            _assert_close_to_oracle(got, _oracle_upsilon_series(run, dt, steps, rate, shift))

    def test_small_values_keep_relative_accuracy(self):
        # |Upsilon| falls to 8e-7 here: summing 1 - e^{i phi} as computed loses
        # 3e-12 relative, splitting it as sum w - sum w e^{i phi} loses 3e-10
        run = DropletRun(10000, 2000, rehop())
        dt, steps = 1.0 / 600, 600
        got = upsilon_series(run, dt, steps)
        qs = run.momenta
        wts = dynamics._dirichlet(qs, 2000) ** 2 / (2000 * 10000)
        eps = run.dispersion.eps(qs)
        want = np.array([np.sum(wts * _deficit(-eps * (k * dt)))
                         for k in range(1, steps + 1)])
        assert np.abs(want).min() < 1e-6
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    @pytest.mark.parametrize("disp,rate,shift", [(rehop(), 0.0, 0.0),
                                                 (chop(0.5, 0.5), 0.5, 0.0),
                                                 (chop(0.5, 0.5), 0.0, 7.0)])
    def test_matches_oracle_across_momentum_blocks(self, disp, rate, shift):
        # N = 10^4 spans ten momentum blocks, the last one partial
        run = DropletRun(10000, 2000, disp)
        for dt, steps in ((1.0 / 600, 600), (1.0 / 6, 600), (0.37, 99)):
            _assert_close_to_oracle(upsilon_series(run, dt, steps, rate, shift),
                                    _oracle_upsilon_series(run, dt, steps, rate, shift))

    def test_memory_stays_below_a_steps_by_n_array(self):
        # a (600, 10000) complex array alone is 96 MB, the oracle's (J, N)
        # exponential grid 4 MB; the momentum blocks keep the peak near 3 MB
        assert _series_peak_bytes(10000, 600) < 8 * 2 ** 20

    def test_memory_does_not_grow_with_n(self):
        # at N = 10^5 and 2,500 steps the oracle's (J, N) grid alone is 82 MB
        assert _series_peak_bytes(100000, 2500) < 16 * 2 ** 20


def _series_peak_bytes(n_sites, steps):
    """tracemalloc peak of one chop upsilon_series call with M = N / 5."""
    run = DropletRun(n_sites, n_sites // 5, chop(0.5, 0.5))
    tracemalloc.start()
    try:
        upsilon_series(run, 1.0 / 6, steps, 0.5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_close_to_oracle(got, want):
    """1e-12 absolute; 1e-13 relative where |Upsilon| < 1e-6."""
    assert got.dtype == complex and got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) < 1e-12
    small = np.abs(want) < 1e-6
    assert np.all(np.abs(got - want)[small] < 1e-13 * np.abs(want)[small])


class TestEarlyTime:
    @pytest.mark.parametrize("disp,re_coeff,im_coeff", [
        (rehop(), 0.5, 1.0),
        (imhop(), 0.5, 0.0),
        (chop(0.5, 0.5), 0.25, 0.5),
    ])
    def test_closed_forms(self, disp, re_coeff, im_coeff):
        m, t = 40, 0.01
        assert _early_time(disp, m, t) == pytest.approx(
            complex(re_coeff * t ** 2 / m, im_coeff * t / m))
        got = upsilon_finite(DropletRun(400, m, disp), t, 0)
        assert got.real == pytest.approx(re_coeff * t ** 2 / m, rel=1e-3)
        assert got.imag == pytest.approx(im_coeff * t / m, rel=1e-3, abs=1e-15)

    @pytest.mark.parametrize("disp", [rehop(), imhop(), chop(0.5, 0.5)])
    def test_agrees_with_quadrature(self, disp, monkeypatch):
        m, t = 40, 0.01
        got = _early_time(disp, m, t)
        monkeypatch.setattr(dynamics, "THERMO_TOL", 1e-13)
        ref = upsilon_thermo(disp, m, t, 0)
        assert abs(got - ref) < 1e-3 * abs(ref)


class TestLeakage:
    def test_initially_zero(self):
        run = DropletRun(201, 51, rehop())
        assert _leakage(run, 0.0, 0) < 1e-14

    def test_rehop_diffusive(self):
        run = DropletRun(401, 51, rehop())
        ts = np.geomspace(5, 60, 12)
        series = [(t, _leakage(run, t, 0)) for t in ts]
        fit = scaling_fit(series, (5, 60))
        assert fit.exponent == pytest.approx(0.5, abs=0.1)

    def test_imhop_comoving_subdiffusive(self):
        run = DropletRun(401, 51, imhop())
        ts = integer_g_times(1.0, 5, 120, 16)
        series = [(t, _leakage(run, t, int(round(t)))) for t in ts]
        fit = scaling_fit(series, (5, 120))
        assert fit.exponent == pytest.approx(1 / 3, abs=0.1)


class TestRunContainer:
    def test_size_bounds(self):
        with pytest.raises(ValueError):
            DropletRun(10, 11, imhop())


class TestScalingFit:
    def test_synthetic_power_law(self):
        ts = np.geomspace(1, 50, 12)
        series = [(t, 3.0 * t ** 2) for t in ts]
        fit = scaling_fit(series, (1, 50))
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            scaling_fit([(1.0, 1.0), (2.0, 2.0)], (1, 2))

    def test_one_fit_type(self):
        series = [(t, (3.0 + 1.0j) * t ** 2) for t in np.geomspace(1, 50, 12)]
        fit = scaling_fit(series, (1, 50))
        assert type(fit) is scars.FitResult and fit.prefactor_complex is None
        with_theory = scaling_fit(series, (1, 50), theory_exponent=2.0)
        assert with_theory.exponent == fit.exponent and with_theory.stderr == fit.stderr
        assert with_theory.prefactor_complex == pytest.approx(3.0 + 1.0j, rel=1e-12)

    def test_integer_snapping(self):
        ts = integer_g_times(0.5, 5, 200, 20)
        assert np.allclose(np.round(ts * 0.5), ts * 0.5)

    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0, -1.0])
    def test_snapped_grid_is_np_unique(self, rate):
        # the distinct snapped G values, ascending, as np.unique gives them
        raw = np.geomspace(0.1, 300, 60)
        want = np.unique(np.maximum(1, np.round(raw * rate))) / rate
        assert integer_g_times(rate, 0.1, 300, 60).tobytes() == want.tobytes()


class TestBECOverlap:
    def test_single_particle_reduction(self):
        run = DropletRun(200, 40, imhop())
        t = 9.0
        assert _bec_overlap(run, t, 0, 1) == pytest.approx(
            1 - upsilon_finite(run, t, 0))

    def test_initial_unity(self):
        run = DropletRun(120, 30, rehop())
        assert _bec_overlap(run, 0.0, 0, 2) == pytest.approx(1.0)

    def test_density_regime_rehop_root_t(self):
        # -log|overlap| ~ rho sqrt(wt) at fixed density rho = p/M
        rho, m = 0.1, 60
        p = int(rho * m)
        run = DropletRun(600, m, rehop())
        ts = np.geomspace(5, 80, 12)
        series = [(t, -np.log(abs(_bec_overlap(run, t, 0, p)))) for t in ts]
        fit = scaling_fit(series, (5, 80))
        assert fit.exponent == pytest.approx(0.5, abs=0.1)
        # and the exponential form tracks the exact power of (1 - Upsilon)
        t = 20.0
        ups = upsilon_finite(run, t, 0)
        approx = complex(np.exp(-rho * m * ups))
        exact = _bec_overlap(run, t, 0, p)
        assert abs(abs(approx) - abs(exact)) < 0.05
