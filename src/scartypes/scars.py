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
    prefactor_complex: complex | None = None    # dynamics.scaling_fit's, on request


@dataclass(frozen=True)
class VarianceScan:
    points: tuple          # (control, expectation, variance)
    fit: FitResult | None


def _moments(h: LocalOperator, psis) -> list:
    """(<H>, <H^2> - <H>^2) for each state, after one Hermiticity check, each
    from one application: the variance is the squared eigenstate defect
    ||(H - <H>) psi||^2.  ``psis`` may be a generator; it is read after the check."""
    if not h.hermitian():
        raise ValueError("energy moments require a Hermitian operator")
    return [(energy.real, defect ** 2)
            for energy, defect in (opspace.eigen_defect(h, psi) for psi in psis)]


def expectation(h: LocalOperator, psi: np.ndarray) -> float:
    return _moments(h, [psi])[0][0]


def variance(h: LocalOperator, psi: np.ndarray) -> float:
    """<H^2> - <H>^2 = ||(H - <H>) psi||^2, never negative."""
    return _moments(h, [psi])[0][1]


def loglog_fit(xs, ys) -> FitResult:
    """Least-squares line through (log x, log y) over the points with x, y > 0."""
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    keep = (xs > 0) & (ys > 0)
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


def variance_scan_q(h: LocalOperator, n_sites: int, m_list) -> VarianceScan:
    """Variance of the boosted W states versus q = 2 pi m / N.

    The largest-q point is excluded from the fit (lattice effects dominate
    it).  W must be an exact eigenstate of h, and h Hermitian (checked once).
    """
    canonical.require_eigenstate(h, states.w_state(h.n_sites))
    moments = _moments(h, (states.w_q(n_sites, m) for m in m_list))
    points = [(2.0 * np.pi * (m % n_sites) / n_sites, *mom)
              for m, mom in zip(m_list, moments)]
    fit = _fit_points(points, slice(None, -1))
    return VarianceScan(tuple(points), fit)


def variance_scan_n(h_builder, p: int, n_list) -> VarianceScan:
    """Variance of W^p versus chain length for one Hamiltonian family.

    ``h_builder(N)`` must emit the same local pattern at each N; the
    smallest N is excluded from the fit.  Only the 24-site state guard bounds N.
    """
    points = []
    for n_sites in n_list:
        h = h_builder(n_sites)
        points.append((n_sites, *_moments(h, [states.w_p(n_sites, p)])[0]))
    fit = _fit_points(points, slice(1, None))
    return VarianceScan(tuple(points), fit)


def _fit_points(points, keep: slice):
    """Log-log fit of variance on control; of more than two points only the
    sorted points in ``keep`` enter.  Variances within the numerical floor
    of zero (exact eigenstates) carry no exponent and are left out."""
    pts = sorted(points)
    if len(pts) > 2:
        pts = pts[keep]
    pts = [p for p in pts if p[2] > -VARIANCE_FLOOR]
    if len(pts) < 2:
        return None
    return loglog_fit([p[0] for p in pts], [p[2] for p in pts])
