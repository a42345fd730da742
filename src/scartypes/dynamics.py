"""Single-particle droplet quench dynamics on the ring.

A W-like droplet of size M inside the vacuum is a k=0 orbital on the first
M sites; under the particle-conserving hopping Hamiltonians it evolves as
a free wavepacket with dispersion eps_q.  Everything here works in
momentum space: occupations via FFT, the droplet-overlap deficit

    Upsilon_G(t,M,N) = (1/MN) sum_q sin^2(qM/2)/sin^2(q/2)
                                 * (1 - e^{i(qG - eps_q t)}),

its thermodynamic-limit integral (composite Gauss-Legendre with the
removable q=0 point evaluated by its limit) and scaling fits.  Sites are
labeled 1..N with the droplet on 1..M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .opspace import _distinct
from .scars import FitResult, loglog_fit

_Q_BLOCK = 1024         # momenta per block of upsilon_series
THERMO_TOL = 1e-9       # agreement of two upsilon_thermo refinements
THERMO_MAX_NODES = 2 ** 21   # quadrature nodes before QuadratureError


class QuadratureError(RuntimeError):
    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class Dispersion:
    """2-pi-periodic dispersion eps(q) = w (alpha (1 - cos q) + beta sin q); eps(0) = 0."""

    w: float = 1.0
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not np.isfinite([self.w, self.alpha, self.beta]).all():
            raise ValueError("dispersion parameters w, alpha, beta must be finite")

    def eps(self, q):
        q = np.asarray(q, dtype=float)
        return self.w * (self.alpha * (1.0 - np.cos(q)) + self.beta * np.sin(q))

    def velocity_scale(self) -> float:
        """Bound on |d eps/dq| used to size quadrature panels."""
        return abs(self.w) * float(np.hypot(self.alpha, self.beta))


def rehop(w: float = 1.0) -> Dispersion:
    return Dispersion(w, 1.0, 0.0)


def imhop(w: float = 1.0) -> Dispersion:
    return Dispersion(w, 0.0, 1.0)


def chop(alpha: float, beta: float, w: float = 1.0) -> Dispersion:
    return Dispersion(w, alpha, beta)


@dataclass(frozen=True)
class DropletRun:
    n_sites: int
    m_size: int
    dispersion: Dispersion

    def __post_init__(self):
        if not 1 <= self.m_size <= self.n_sites:
            raise ValueError("need 1 <= M <= N")

    @property
    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_sites) / self.n_sites


def fq(m_size: int, n_sites: int, q) -> np.ndarray:
    """Momentum amplitudes of the droplet orbital (exact q=0 limit), scalar for scalar q."""
    q = np.asarray(q, dtype=float)
    out = _dirichlet(q, m_size) * np.exp(-1j * q * (m_size + 1) / 2.0)
    return out[()] / np.sqrt(m_size * n_sites)


def _dirichlet(q: np.ndarray, m_size: int) -> np.ndarray:
    """sin(qM/2)/sin(q/2) with the limit M at sin(q/2) -> 0."""
    s = np.sin(q / 2.0)
    small = np.abs(s) < 1e-9
    safe = np.where(small, 1.0, s)
    out = np.sin(q * m_size / 2.0) / safe
    return np.where(small, m_size * np.cos(q * m_size / 2.0) / np.cos(q / 2.0), out)


def orbital_amplitudes(run: DropletRun, t) -> np.ndarray:
    """<j|phi(t)>, sites j = 1..N on the last axis (index j-1), shape t.shape + (N,)."""
    qs = run.momenta
    t = np.asarray(t, dtype=float)[..., None]
    g = fq(run.m_size, run.n_sites, qs) * np.exp(-1j * run.dispersion.eps(qs) * t)
    amps = np.sqrt(run.n_sites) * np.fft.ifft(g, axis=-1)
    return np.roll(amps, -1, axis=-1)       # index 0 <-> site j=1


def occupations(run: DropletRun, t) -> np.ndarray:
    """n_j(t) for j = 1..N: shape (N,) for a scalar t, one row per time for an
    array of times; each row sums to 1 by unitarity."""
    return np.abs(orbital_amplitudes(run, t)) ** 2


def upsilon_finite(run: DropletRun, t, g_shift):
    """Overlap deficit Upsilon_G(t, M, N) as the exact momentum sum, point by point.

    Scalars t, g_shift give a ``complex``; arrays that broadcast together give
    a complex array of that shape, entry for entry equal to the scalar call.
    For a uniform time grid ``upsilon_series`` is the faster form.
    """
    ts, gs = np.broadcast_arrays(t, g_shift)
    qs = run.momenta
    kern = _dirichlet(qs, run.m_size) ** 2
    eps = run.dispersion.eps(qs)
    out = np.empty(ts.shape, dtype=complex)
    for idx in np.ndindex(ts.shape):
        phases = 1.0 - np.exp(1j * (qs * gs[idx] - eps * ts[idx]))
        out[idx] = np.sum(kern * phases) / (run.m_size * run.n_sites)
    return complex(out[()]) if out.ndim == 0 else out


def _deficit(phi):
    """1 - e^{i phi} as -2i sin(phi/2) e^{i phi/2}, and e^{i phi}."""
    half = np.exp(0.5j * phi)
    return -2j * half.imag * half, half * half


def _multiples(deficit, turn, count):
    """Rows k = 0..count-1 of D(k phi) and e^{ik phi} from D(phi) and e^{i phi},
    doubling with D(a + b) = D(a) + e^{ia} D(b) and e^{i(a+b)} = e^{ia} e^{ib}."""
    ds = np.zeros((count,) + deficit.shape, dtype=complex)
    es = np.ones_like(ds)
    filled = 1
    while filled < count:
        n = min(filled, count - filled)
        ds[filled:filled + n] = deficit + turn * ds[:n]
        es[filled:filled + n] = turn * es[:n]
        deficit, turn = deficit + turn * deficit, turn * turn
        filled += n
    return ds, es


def upsilon_series(run: DropletRun, dt: float, steps: int, rate: float = 0.0,
                   shift: float = 0.0) -> np.ndarray:
    """Upsilon at t_k = k dt, k = 1..steps, with G_k = shift + rate t_k; shape (steps,).

    The phase q shift + k theta_q, theta_q = (q rate - eps_q) dt, is linear in k.
    With k = B j + r (B = isqrt(steps)) and D(a + b) = D(a) + e^{ia} D(b) for
    D(phi) = 1 - e^{i phi}, the series is A_j plus one (J x N) @ (N x B) product,
    summed over blocks of _Q_BLOCK momenta, so memory is O(_Q_BLOCK sqrt(steps))
    whatever N.  Per momentum only D(theta), D(B theta) and D(q shift) are
    exponentials, each taken as -2i sin(phi/2) e^{i phi/2}, so small values keep
    full relative accuracy; the rows D(r theta) and D(j B theta) follow by
    doubling, within O(log steps) ulp.
    """
    b = max(1, math.isqrt(steps))
    ups = np.zeros((steps // b + 1, b), dtype=complex)
    for lo in range(0, run.n_sites, _Q_BLOCK):
        qs = 2.0 * np.pi * np.arange(lo, min(lo + _Q_BLOCK, run.n_sites)) / run.n_sites
        wts = _dirichlet(qs, run.m_size) ** 2 / (run.m_size * run.n_sites)
        theta = (qs * rate - run.dispersion.eps(qs)) * dt
        baby, _ = _multiples(*_deficit(theta), b)
        giant, turn = _multiples(*_deficit(b * theta), len(ups))
        start, start_turn = _deficit(qs * shift)
        ups += ((start + start_turn * giant) @ wts)[:, None] \
            + (start_turn * turn * wts) @ baby.T
    return ups.ravel()[1:steps + 1]


def upsilon_thermo(dispersion: Dispersion, m_size: int, t: float,
                   g_shift: float) -> complex:
    """Thermodynamic-limit integral of the overlap deficit.

    Composite 16-point Gauss-Legendre on [-pi, pi]; the panel count scales
    with the total phase variation t * max|eps'| + |G| + M and is doubled
    until two refinements agree to THERMO_TOL; past THERMO_MAX_NODES nodes
    it raises QuadratureError.
    """
    variation = (abs(t) * dispersion.velocity_scale() + abs(g_shift)
                 + m_size + 16.0)
    panels = max(16, int(variation / 2.0))
    nodes16, weights16 = np.polynomial.legendre.leggauss(16)

    def evaluate(n_panels: int) -> complex:
        edges = np.linspace(-np.pi, np.pi, n_panels + 1)
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        qs = (mid[:, None] + half[:, None] * nodes16[None, :]).ravel()
        wts = (half[:, None] * weights16[None, :]).ravel()
        kern = _dirichlet(qs, m_size) ** 2
        integrand = kern * (1.0 - np.exp(1j * (qs * g_shift - dispersion.eps(qs) * t)))
        return complex(np.sum(wts * integrand) / (2.0 * np.pi * m_size))

    prev = evaluate(panels)
    while True:
        panels *= 2
        if panels * 16 > THERMO_MAX_NODES:
            raise QuadratureError(
                f"quadrature not converged below {THERMO_TOL:g}", abs(prev))
        cur = evaluate(panels)
        if abs(cur - prev) <= THERMO_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur


def scaling_fit(series, window, theory_exponent: float | None = None) -> FitResult:
    """Power-law fit of |upsilon(t)| over the time window.

    ``series`` holds (t, upsilon) pairs; the fit is unweighted least
    squares on log|upsilon| vs log t.  When ``theory_exponent`` is given,
    the complex prefactor mean(upsilon / t^theory) is reported as well.
    """
    lo, hi = window
    pts = [(t, u) for t, u in series if lo <= t <= hi and abs(u) > 0]
    if len(pts) < 6:
        raise ValueError(f"need >= 6 points in window, have {len(pts)}")
    ts = np.array([p[0] for p in pts])
    us = np.array([p[1] for p in pts])
    fit = loglog_fit(ts, np.abs(us))
    if theory_exponent is None:
        return fit
    return replace(fit, prefactor_complex=complex(np.mean(us / ts ** theory_exponent)))


def integer_g_times(schedule_rate: float, t_lo: float, t_hi: float,
                    max_points: int = 40) -> np.ndarray:
    """Log-spaced times snapped so that G(t) = rate * t is an integer.

    With rate 0 the grid is just log-spaced.
    """
    raw = np.geomspace(t_lo, t_hi, max_points)
    if schedule_rate == 0.0:
        return raw
    return _distinct(np.maximum(1, np.round(raw * schedule_rate))) / schedule_rate
