"""Asymptotic-scar diagnostics: energy expectations, variances and scalings.

Boosted W states pick up an energy variance O(q^2) under any parent
Hamiltonian of the W state, and the p-particle Dicke states a variance
O(1/N); the Heisenberg bound 1/(2*sqrt(variance)) then gives lifetimes
growing as N and sqrt(N) respectively.  The scans here measure those
exponents by exact computation and log-log fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import canonical, opspace, states
from .opspace import LocalOperator

VARIANCE_FLOOR = -1e-12


@dataclass(frozen=True)
class FitResult:
    exponent: float
    prefactor: float
    stderr: float


@dataclass(frozen=True)
class VarianceScan:
    points: tuple          # (control, expectation, variance)
    fit: FitResult | None


def expectation(h: LocalOperator, psi: np.ndarray) -> float:
    if not h.hermitian():
        raise ValueError("expectation requires a Hermitian operator")
    return float(np.vdot(psi, opspace.apply(h, psi)).real)


def variance(h: LocalOperator, psi: np.ndarray) -> float:
    """<H^2> - <H>^2 via two applications; clipped at the numerical floor."""
    if not h.hermitian():
        raise ValueError("variance requires a Hermitian operator")
    hpsi = opspace.apply(h, psi)
    e = np.vdot(psi, hpsi).real
    var = float(np.vdot(hpsi, hpsi).real - e * e)
    if var < VARIANCE_FLOOR:
        raise ValueError(f"variance {var:.3e} below numerical floor")
    return max(var, 0.0)


def lifetime_bound(var: float) -> float:
    """Heisenberg lifetime 1/(2 sqrt(var)) with hbar = 1; inf at zero."""
    if var < VARIANCE_FLOOR:
        raise ValueError(f"negative variance {var:.3e}")
    if var <= 0.0:
        return np.inf
    return 1.0 / (2.0 * np.sqrt(var))


def loglog_fit(xs, ys) -> FitResult:
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    keep = ys > 0
    lx, ly = np.log(xs[keep]), np.log(ys[keep])
    if lx.size < 2:
        raise ValueError("need at least two positive points for a fit")
    coeffs, res, *_ = np.polyfit(lx, ly, 1, full=True)
    slope, intercept = coeffs
    if lx.size > 2 and res.size:
        stderr = float(np.sqrt(res[0] / (lx.size - 2) / np.sum((lx - lx.mean()) ** 2)))
    else:
        stderr = 0.0
    return FitResult(float(slope), float(np.exp(intercept)), stderr)


def variance_scan_q(h: LocalOperator, n_sites: int, m_list,
                    drop_largest: bool = True) -> VarianceScan:
    """Variance of the boosted W states versus q = 2 pi m / N.

    The largest-q point is excluded from the fit by default (lattice
    effects dominate it).  W must be an exact eigenstate of h.
    """
    canonical.require_eigenstate(h, states.w_state(h.n_sites))
    points = []
    for m in m_list:
        q = 2.0 * np.pi * (m % n_sites) / n_sites
        wq = states.w_q(n_sites, m)
        points.append((q, expectation(h, wq), variance(h, wq)))
    fit = _fit_points(points, drop_largest=drop_largest)
    return VarianceScan(tuple(points), fit)


def variance_scan_n(h_builder, p: int, n_list,
                    drop_smallest: bool = True) -> VarianceScan:
    """Variance of W^p versus chain length for one Hamiltonian family.

    ``h_builder(N)`` must emit the same local pattern at each N; the
    smallest N is excluded from the fit by default.
    """
    points = []
    for n_sites in n_list:
        if n_sites > opspace.MATRIX_MAX_SITES:
            raise opspace.CapacityError(f"N={n_sites} over dense capacity")
        h = h_builder(n_sites)
        wp = states.w_p(n_sites, p)
        points.append((n_sites, expectation(h, wp), variance(h, wp)))
    fit = _fit_points(points, drop_smallest=drop_smallest)
    return VarianceScan(tuple(points), fit)


def _fit_points(points, drop_largest=False, drop_smallest=False):
    pts = sorted(points)
    if drop_largest and len(pts) > 2:
        pts = pts[:-1]
    if drop_smallest and len(pts) > 2:
        pts = pts[1:]
    xs = [p[0] for p in pts if p[0] > 0 and p[2] > 0]
    ys = [p[2] for p in pts if p[0] > 0 and p[2] > 0]
    if len(xs) < 2:
        return None
    return loglog_fit(xs, ys)
