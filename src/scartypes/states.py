"""Constructors and Schmidt splits for vacuum, W, boosted and Dicke states.

Amplitude arrays are indexed over the 2^N computational basis with site 0
as the least-significant bit (shared convention across the package).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .opspace import CapacityError, Region


def _popcounts(n_sites: int) -> np.ndarray:
    idx = np.arange(1 << n_sites, dtype=np.int64)
    counts = np.zeros(idx.shape, dtype=np.int64)
    for j in range(n_sites):
        counts += (idx >> j) & 1
    return counts


def _zeros(n_sites: int) -> np.ndarray:
    """Zero 2^N amplitude vector; CapacityError above 24 sites (256 MiB)."""
    if n_sites > 24:
        raise CapacityError(f"N={n_sites} exceeds the dense-state guard of 24 sites")
    return np.zeros(1 << n_sites, dtype=complex)


def vacuum(n_sites: int) -> np.ndarray:
    psi = _zeros(n_sites)
    psi[0] = 1.0
    return psi


def w_state(n_sites: int) -> np.ndarray:
    return w_p(n_sites, 1)


def w_p(n_sites: int, p: int) -> np.ndarray:
    """Uniform superposition over all p-particle configurations."""
    if not 0 <= p <= n_sites:
        raise ValueError(f"p={p} outside 0..{n_sites}")
    psi = _zeros(n_sites)
    mask = _popcounts(n_sites) == p
    psi[mask] = 1.0 / np.sqrt(comb(n_sites, p))
    return psi


def w_q(n_sites: int, m: int) -> np.ndarray:
    """Momentum-boosted W state with q = 2*pi*m/N and phases e^{-iqj}."""
    q = 2.0 * np.pi * (m % n_sites) / n_sites
    psi = _zeros(n_sites)
    for j in range(n_sites):
        psi[1 << j] = np.exp(-1j * q * j) / np.sqrt(n_sites)
    return psi


def droplet(n_sites: int, m_size: int, p: int) -> np.ndarray:
    """W^p on sites 0..M-1 tensored with vacuum on the rest."""
    if not 1 <= m_size <= n_sites:
        raise ValueError(f"droplet size {m_size} outside 1..{n_sites}")
    if not 0 <= p <= m_size:
        raise ValueError(f"p={p} outside 0..{m_size}")
    psi = _zeros(n_sites)
    inner = w_p(m_size, p)
    psi[: 1 << m_size] = inner
    return psi


def translate(psi: np.ndarray, shift: int, n_sites: int) -> np.ndarray:
    """Cyclic site translation j -> j + shift of a state, or of each row of a stack."""
    s = shift % n_sites
    if s == 0:
        return psi.copy()
    idx = np.arange(1 << n_sites, dtype=np.int64)
    # configuration i moves to i rotated left by s: gather from the right rotation
    return np.take(psi, ((idx >> s) | (idx << (n_sites - s))) & ((1 << n_sites) - 1), axis=-1)


@dataclass(frozen=True)
class SchmidtSplit:
    """Exact Schmidt data of a W^p state across a contiguous cut.

    coefficients holds (weight, l, p - l): weight on |W^l>_X (x) |W^{p-l}>_Xc.
    """

    region: Region
    p: int
    coefficients: tuple

    def weights(self) -> np.ndarray:
        return np.array([w for w, _, _ in self.coefficients])


def schmidt_w_family(n_sites: int, p: int, region: Region) -> SchmidtSplit:
    """Schmidt decomposition of W^p over region X vs complement.

    Weights are sqrt(C(|X|,l) C(N-|X|,p-l) / C(N,p)); the l sum is truncated
    exactly when |X| < p or |X^c| < p rather than assuming |X| >= p.
    """
    if region.n_sites != n_sites:
        raise ValueError("region defined for a different chain")
    size, csize = region.length, n_sites - region.length
    coeffs = []
    for l in range(max(0, p - csize), min(p, size) + 1):
        w = np.sqrt(comb(size, l) * comb(csize, p - l) / comb(n_sites, p))
        if w > 0:
            coeffs.append((float(w), l, p - l))
    return SchmidtSplit(region, p, tuple(coeffs))


def dense_schmidt_values(psi: np.ndarray, region: Region) -> np.ndarray:
    """Singular values of the reshaped amplitude matrix (brute-force oracle)."""
    if psi.shape != (1 << region.n_sites,):
        raise ValueError("state/region mismatch")
    moved = translate(psi, -region.left, region.n_sites)     # region -> sites 0..|X|-1
    return np.linalg.svd(moved.reshape(-1, 1 << region.length), compute_uv=False)
