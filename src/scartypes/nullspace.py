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

with all dimensions real (a complex space counts twice).  For translation
eigenstates window j's null space is window 0's translated by j, so only
window 0 is solved and one span routine sums ranks over the N momentum
sectors; for other states it takes all N windows' null spaces as one block.

The operator basis is generalized Pauli strings: unlike the boson-string
basis they are mutually Hilbert-Schmidt orthogonal, which the correlation
construction requires.  The identity string is excluded throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import opspace, states
from .opspace import LocalOperator

NULL_TOL = 1e-10      # eigenvalue cutoff relative to the largest
RANK_TOL = 1e-10      # singular-value cutoff for union dimensions
PSD_TOL = -1e-10
TRANSLATION_TOL = 1e-12   # ||T psi - lambda psi|| / ||psi|| for the sector path
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


# -- span arithmetic -------------------------------------------------------------

def real_rank(rows: np.ndarray, tol: float = RANK_TOL, scale: float | None = None) -> int:
    """Number of singular values above tol * scale (default: the largest one)."""
    svals = np.linalg.svd(rows, compute_uv=False)
    scale = (svals[0] if svals.size else 0.0) if scale is None else scale
    return int(np.sum(svals > tol * scale))


def _translation_eigenstates(states_list, n_sites: int) -> bool:
    """Whether ||T psi - lambda psi|| <= TRANSLATION_TOL ||psi|| for every state."""
    def defect(psi):
        moved = states.translate(psi, 1, n_sites)
        lam = np.vdot(psi, moved) / np.vdot(psi, psi)
        return np.linalg.norm(moved - lam * psi) / np.linalg.norm(psi)
    return all(psi.shape == (1 << n_sites,) and defect(psi) <= TRANSLATION_TOL
               for psi in states_list)


def _span_dims(blocks, partner) -> dict:
    """Real dimensions of ZH_glo, ZH_loc, ZG_loc and their unions, summed over blocks.

    ``blocks`` yields generator rows (glo, h_loc, g_loc) per momentum sector;
    sector k's conjugate is sector ``partner[k]``.  ZH rows are images of
    real vectors, so a ZH span's real dimension is its complex rank; ZG_loc
    counts twice.  A union adds the rank of the ZH_glo rows projected off
    the local span.  Off ZG_loc the residual is a real span: residual rows
    r_k and partner rows r_p add rank [r_k, conj r_p] real dimensions (the
    rank of [Re r_k, Im r_k] when p = k).  Residuals are coordinates along
    the right singular vectors beyond the cut, which is RANK_TOL times the
    largest singular value of the spans involved, over all blocks.
    """
    svals, coords = [], []
    for glo, *local in blocks:
        svals.append([np.linalg.svd(glo, compute_uv=False)])
        coords.append([])
        for rows in local:
            # all right singular vectors; a full U only when it is the smaller
            _, s, vh = np.linalg.svd(rows, full_matrices=len(rows) < rows.shape[1])
            svals[-1].append(s)
            coords[-1].append(glo @ vh.conj().T)
    top = [max((s[i][0] for s in svals if s[i].size), default=0.0) for i in range(3)]
    ranks = [[int(np.sum(s > RANK_TOL * t)) for s, t in zip(sv, top)] for sv in svals]

    dims = dict.fromkeys(("ZH_glo", "ZH_loc", "ZG_loc", "union_H", "union_G"), 0)
    for (off_h, off_g), (r_glo, r_h, r_g), p in zip(coords, ranks, partner):
        off_p = coords[p][1][:, ranks[p][2]:].conj()
        dims["ZH_glo"] += r_glo
        dims["ZH_loc"] += r_h
        dims["ZG_loc"] += 2 * r_g
        dims["union_H"] += r_h + real_rank(off_h[:, r_h:], scale=max(top[0], top[1]))
        dims["union_G"] += 2 * r_g + real_rank(np.hstack([off_g[:, r_g:], off_p]),
                                               scale=max(top[0], top[2]))
    return dims


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
    are spanned by the null spaces of the N windows [j, j+R'-1], in momentum
    sectors or window by window (see the module docstring).  ``dims`` holds
    the real dimensions, the null-space gap of ZH_glo and the smallest
    window gaps of ZH_loc and ZG_loc.
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

    # pauli_string_basis lists each pattern at shifts 0..N-1 in a row: column
    # i is pattern i // N at shift i % N, and translation acts on the shift
    index = {k: i for i, k in enumerate(pauli_string_basis(n_sites, r_loc).keys)}
    width = len(index)
    sectors = n_sites if _translation_eigenstates(states_list, n_sites) else 1

    glo = pauli_string_basis(n_sites, r_glo)
    zh_glo = null_space(build_correlation(glo, states_list, "H", degenerate), tol)
    windows = [window_basis(n_sites, j, r_loc) for j in range(n_sites if sectors == 1 else 1)]
    zh = [null_space(build_correlation(w, states_list, "H", degenerate), tol) for w in windows]
    zg = [null_space(build_correlation(w, states_list, "G", degenerate), tol) for w in windows]

    def shifted(parts, span):
        """Stacked rows as (row, pattern, shift) arrays over shifts 0..span-1."""
        parts = list(parts)
        out = np.zeros((sum(rep.dim for rep, _ in parts), width // sectors, span), dtype=complex)
        top = 0
        for rep, basis in parts:
            pos = np.array([index[k] for k in basis.keys])
            out[top:top + rep.dim, pos // sectors, pos % sectors] = rep.basis
            top += rep.dim
        return out

    # normalized, ZH_glo's orthonormal rows keep sector singular values 1; a
    # window's sector rows have the singular values of all N translates stacked
    glo_rows = shifted([(zh_glo, glo)], sectors) / np.sqrt(sectors)
    span = min(r_loc, sectors)       # window 0's strings start at shifts 0..R'-1
    h_rows, g_rows = shifted(zip(zh, windows), span), shifted(zip(zg, windows), span)
    phases = np.exp(-2j * np.pi / sectors * np.outer(np.arange(sectors), np.arange(sectors)))
    dims = _span_dims(((glo_rows @ ph, h_rows @ ph[:span], g_rows @ ph[:span]) for ph in phases),
                      [-k % sectors for k in range(sectors)])

    n_iii = dims["union_G"] - dims["ZG_loc"]
    n_ii = dims["union_H"] - dims["union_G"] + dims["ZG_loc"] - dims["ZH_loc"]
    dims.update(gap_ZH_glo=zh_glo.gap, gap_ZH_loc=min(r.gap for r in zh),
                gap_ZG_loc=min(r.gap for r in zg))
    return ClassCount(n_ii, n_iii, dims, tol)


def verify_null_vector(basis: OperatorBasis, coeffs: np.ndarray, states_list) -> float:
    """Residual max_n ||(V - <V>_n)|psi_n>|| for the recombined operator.

    The caller applies the threshold.
    """
    op = LocalOperator(basis.n_sites, dict(zip(basis.keys, coeffs)))
    return max((opspace.eigen_defect(op, psi)[1] for psi in states_list), default=0.0)
