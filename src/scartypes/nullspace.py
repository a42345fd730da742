"""Correlation-matrix null spaces and type II/III equivalence-class counts.

Given an orthogonal Hermitian operator basis {V_mu} and states {psi_n},

    C^H_munu = sum_n [ Re<V_mu psi_n, V_nu psi_n> - <V_mu>_n <V_nu>_n ],
    C^G_munu = sum_n [ <V_mu psi_n, V_nu psi_n> - <V_mu>_n <V_nu>_n ],

are positive semidefinite; real null vectors of C^H are the Hermitian
operators with every psi_n as an eigenstate, complex null vectors of C^G
the general ones.  Class counts follow from dimensions of unions of these
null spaces:

    N_III = dim(ZH_glo u ZG_loc) - dim ZG_loc
    N_II  = dim(ZH_glo u ZH_loc) - dim(ZH_glo u ZG_loc) + dim ZG_loc - dim ZH_loc

with all dimensions real (a complex space counts twice), computed from
singular values of stacked orthonormal bases.

The operator basis is generalized Pauli strings: unlike the boson-string
basis they are mutually Hilbert-Schmidt orthogonal, which the correlation
construction requires.  The identity string is excluded throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import opspace
from .opspace import LocalOperator

NULL_TOL = 1e-10      # eigenvalue cutoff relative to the largest
RANK_TOL = 1e-10      # singular-value cutoff for union dimensions
PSD_TOL = -1e-10
GLOBAL_SCAN_MAX_SITES = 12


@dataclass(frozen=True)
class OperatorBasis:
    """Ordered basis of single strings V_mu, one canonical (start, ops) key each."""

    keys: tuple
    n_sites: int

    def __len__(self):
        return len(self.keys)


@dataclass(frozen=True)
class CorrelationMatrix:
    entries: np.ndarray
    kind: str              # "H" or "G"
    basis: OperatorBasis
    states: tuple          # the state vectors summed over

    def check_psd(self, tol: float = PSD_TOL) -> float:
        """Smallest eigenvalue; raises if materially negative."""
        low = float(np.linalg.eigvalsh(self.entries)[0])
        scale = max(float(np.abs(self.entries).max()), 1.0)
        if low < tol * scale:
            raise ValueError(f"correlation matrix not PSD: min eig {low:.3e}")
        return low


@dataclass(frozen=True)
class SubspaceReport:
    basis: np.ndarray      # rows are orthonormal coefficient vectors
    dim: int
    tolerance: float
    gap: float             # smallest eigenvalue above the accepted null space


def _pauli_patterns_upto(max_len: int):
    """Pauli code tuples with non-identity ends, window length 1..max_len."""
    ends = opspace.PAULI_CODES[1:]
    pats = []
    for length in range(1, max_len + 1):
        for mid in product(opspace.PAULI_CODES, repeat=max(length - 2, 0)):
            for a in ends:
                if length == 1:
                    pats.append((a,))
                    continue
                for b in ends:
                    pats.append((a,) + mid + (b,))
    return pats


def pauli_string_basis(n_sites: int, max_range: int) -> OperatorBasis:
    """All Pauli strings of window length <= max_range anywhere on the ring."""
    keys = []
    seen = set()
    for pat in _pauli_patterns_upto(max_range):
        for j in range(n_sites):
            key = opspace._canonical_key(n_sites, j, pat)
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return OperatorBasis(tuple(keys), n_sites)


def window_basis(n_sites: int, start: int, width: int) -> OperatorBasis:
    """All non-identity Pauli strings supported inside one window."""
    keys = []
    for pat in _pauli_patterns_upto(width):
        for off in range(width - len(pat) + 1):
            keys.append(opspace._canonical_key(n_sites, start + off, pat))
    return OperatorBasis(tuple(keys), n_sites)


def build_correlation(basis: OperatorBasis, states_list, kind: str,
                      degenerate: bool = False) -> CorrelationMatrix:
    """Summed correlation matrix over the given states.

    With ``degenerate`` the per-state expectation vectors are recentred on
    their mean and the rank-one couplings added, so null vectors are
    operators with one *common* eigenvalue across all states (a constraint
    absent from the plain per-state sum).
    """
    if kind not in ("H", "G"):
        raise ValueError("kind must be 'H' or 'G'")
    if kind == "H" and any(c != opspace._DAGGER[c] for _, ops in basis.keys for c in ops):
        raise ValueError("kind H requires a Hermitian basis")
    gram = np.zeros((len(basis), len(basis)), dtype=complex)
    expect = []
    for psi in states_list:
        if psi.shape != (1 << basis.n_sites,):
            raise opspace.DimensionError(f"state has shape {psi.shape} for N={basis.n_sites}")
        # rows V_mu |psi>, every key decoded in one pass
        acts = np.zeros((len(basis), psi.size), dtype=complex)
        masks = opspace._string_masks(basis.n_sites, ((key, 1.0) for key in basis.keys))
        for row, (src, flip, vals) in zip(acts, masks):
            row[src ^ flip] = vals * psi[src]
        e = acts @ psi.conj()
        gram += acts.conj() @ acts.T - np.outer(e.conj(), e)
        expect.append(e)
    if degenerate:
        mean = np.mean(expect, axis=0)
        for e in expect:
            d = e - mean
            gram += np.outer(d.conj(), d)
    if kind == "H":
        entries = gram.real.copy()
    else:
        entries = gram
    return CorrelationMatrix(entries, kind, basis, tuple(states_list))


def null_space(corr: CorrelationMatrix, tol: float = NULL_TOL) -> SubspaceReport:
    """Eigenvectors with eigenvalue <= tol * max eigenvalue.

    Also reports the spectral gap just above the accepted null space so the
    robustness of the cut is visible to callers.
    """
    corr.check_psd()
    vals, vecs = np.linalg.eigh(corr.entries)
    top = max(float(vals[-1]), 1e-300)
    keep = vals <= tol * top
    dim = int(np.sum(keep))
    above = float(vals[dim]) if dim < len(vals) else np.inf
    basis_rows = vecs[:, keep].T
    if corr.kind == "H":
        basis_rows = basis_rows.real.astype(complex)
    return SubspaceReport(basis_rows, dim, tol, above)


# -- real-span arithmetic ------------------------------------------------------

def _realify(rows: np.ndarray, complex_span: bool) -> np.ndarray:
    """Map coefficient vectors into R^{2M}; complex spans contribute v and iv."""
    if rows.size == 0:
        return np.zeros((0, 0))
    re, im = rows.real, rows.imag
    blocks = [np.hstack([re, im])]
    if complex_span:
        blocks.append(np.hstack([-im, re]))
    return np.vstack(blocks)


def real_rank(rows: np.ndarray, tol: float = RANK_TOL) -> int:
    if rows.size == 0:
        return 0
    svals = np.linalg.svd(rows, compute_uv=False)
    if svals.size == 0 or svals[0] == 0:
        return 0
    return int(np.sum(svals > tol * svals[0]))


def _embed(rows: np.ndarray, keys, index: dict, width: int) -> np.ndarray:
    out = np.zeros((rows.shape[0], width), dtype=complex)
    cols = [index[k] for k in keys]
    out[:, cols] = rows
    return out


@dataclass(frozen=True)
class ClassCount:
    n_ii: int
    n_iii: int
    dims: dict
    tolerance: float


def count_type_classes(n_sites: int, r_glo: int, r_loc: int, states_list,
                       degenerate: bool = False, tol: float = NULL_TOL) -> ClassCount:
    """Equivalence-class counts N_II, N_III at global range R, local range R'.

    ZH_glo is the Hermitian null space over all Pauli strings of range <= R
    (extensive-local combinations included automatically); ZH_loc / ZG_loc
    are unions over the N windows [j, j+R'-1] of per-window null spaces.
    All dimensions are real dimensions in the shared realified coefficient
    space.
    """
    if r_glo < 1:
        raise ValueError(f"range R = {r_glo} must be at least 1")
    if r_loc < r_glo:
        raise ValueError("R' >= R required")
    if n_sites > GLOBAL_SCAN_MAX_SITES:
        raise opspace.CapacityError(
            f"N={n_sites} exceeds global-scan guard {GLOBAL_SCAN_MAX_SITES}")
    if n_sites < 2 * r_loc:
        raise ValueError("need N >= 2 R' for unambiguous windows")

    full = pauli_string_basis(n_sites, max(r_glo, r_loc))
    index = {k: i for i, k in enumerate(full.keys)}
    width = len(full.keys)

    glo = pauli_string_basis(n_sites, r_glo)
    zh_glo = null_space(build_correlation(glo, states_list, "H", degenerate), tol)
    zh_glo_rows = _embed(zh_glo.basis, glo.keys, index, width)

    zh_loc_rows, zg_loc_rows = [], []
    for j in range(n_sites):
        win = window_basis(n_sites, j, r_loc)
        zh = null_space(build_correlation(win, states_list, "H", degenerate), tol)
        zg = null_space(build_correlation(win, states_list, "G", degenerate), tol)
        zh_loc_rows.append(_embed(zh.basis, win.keys, index, width))
        zg_loc_rows.append(_embed(zg.basis, win.keys, index, width))
    zh_loc = np.vstack(zh_loc_rows)
    zg_loc = np.vstack(zg_loc_rows)

    r_zh_glo = _realify(zh_glo_rows, complex_span=False)
    r_zh_loc = _realify(zh_loc, complex_span=False)
    r_zg_loc = _realify(zg_loc, complex_span=True)

    d_h_loc = real_rank(r_zh_loc)
    d_g_loc = real_rank(r_zg_loc)
    d_h_glo = real_rank(r_zh_glo)
    u_h = real_rank(np.vstack([r_zh_glo, r_zh_loc]))
    u_g = real_rank(np.vstack([r_zh_glo, r_zg_loc]))

    n_iii = u_g - d_g_loc
    n_ii = u_h - u_g + d_g_loc - d_h_loc
    dims = {
        "ZH_glo": d_h_glo,
        "ZH_loc": d_h_loc,
        "ZG_loc": d_g_loc,
        "union_H": u_h,
        "union_G": u_g,
        "gap_ZH_glo": zh_glo.gap,
    }
    return ClassCount(n_ii, n_iii, dims, tol)


def verify_null_vector(basis: OperatorBasis, coeffs: np.ndarray, states_list) -> float:
    """Residual max_n ||(V - <V>_n)|psi_n>|| for the recombined operator.

    The caller applies the threshold.
    """
    op = LocalOperator(basis.n_sites, dict(zip(basis.keys, coeffs)))
    return max((opspace.eigen_defect(op, psi)[1] for psi in states_list), default=0.0)
