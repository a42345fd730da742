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

with all dimensions real (a complex space counts twice).  ZH_loc and ZG_loc,
the spans of the N windows' null spaces, are found through their
complements: v is orthogonal to a span exactly when each window restriction
v|_j = R_j c_j lies in the window correlation's range R_j (the eigenvectors
above the null cut), and a string shared by windows takes one value: a
small system K c = 0.  Window j's null space is window 0's translated by j
for translation eigenstates, so K links a pattern's copies in window 0 with
Bloch phases, one K per momentum sector; other states link N windows' copies.

The operator basis is generalized Pauli strings: unlike the boson-string
basis they are mutually Hilbert-Schmidt orthogonal, which the correlation
construction requires.  The identity string is excluded throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
        return _require_psd(np.linalg.eigvalsh(self.entries)[0], self.entries, tol)


def _require_psd(low, entries: np.ndarray, tol: float = PSD_TOL) -> float:
    """``low``, the smallest eigenvalue of ``entries``; raises if materially negative."""
    if low < tol * max(float(np.abs(entries).max()), 1.0):
        raise ValueError(f"correlation matrix not PSD: min eig {low:.3e}")
    return float(low)


@dataclass(frozen=True)
class SubspaceReport:
    basis: np.ndarray      # rows are orthonormal coefficient vectors
    dim: int
    tolerance: float
    gap: float             # smallest eigenvalue above the accepted null space
    range: np.ndarray      # columns: the eigenvectors above the cut


def _pauli_patterns_upto(max_len: int):
    """Pauli code tuples with non-identity ends, window length 1..max_len."""
    ends = opspace.PAULI_CODES[1:]
    pats = [(a,) for a in ends]
    for length in range(2, max_len + 1):
        for mid in product(opspace.PAULI_CODES, repeat=length - 2):
            pats += [(a,) + mid + (b,) for a in ends for b in ends]
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
    entries = gram.real.copy() if kind == "H" else gram
    return CorrelationMatrix(entries, kind, basis, tuple(states_list))


def null_space(corr: CorrelationMatrix, tol: float = NULL_TOL) -> SubspaceReport:
    """Eigenvectors with eigenvalue <= tol * max eigenvalue, and the range.

    Raises ValueError as ``check_psd`` does.  Also reports the spectral gap
    just above the accepted null space so the robustness of the cut is
    visible to callers.
    """
    vals, vecs = np.linalg.eigh(corr.entries)
    _require_psd(vals[0], corr.entries)
    top = max(float(vals[-1]), 1e-300)
    keep = vals <= tol * top
    dim = int(np.sum(keep))
    above = float(vals[dim]) if dim < len(vals) else np.inf
    return SubspaceReport(vecs[:, keep].T.astype(complex), dim, tol, above, vecs[:, ~keep])


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


def _complement_dims(glo, h_ranges, g_ranges, pos, sectors: int):
    """Real dimensions of ZH_glo, ZH_loc, ZG_loc and their unions, and K's margins.

    ``glo`` holds ZH_glo's orthonormal rows over the full basis (index i:
    column i // sectors, shift i % sectors), ``pos`` the full index of each
    row of the windows' stacked ranges X.  K_k equates each later copy of a
    column, phased by e^{-2 pi i k shift / sectors}, with its first copy,
    which gives the complement's coordinates.  ZH_glo's sector rows r_k on
    it add rank [r_k, conj r_{-k}] real dimensions to a union.  X's columns
    are orthonormal, so K's cut RANK_TOL is absolute; a margin is the
    smallest kept over the largest cut singular value in any sector, None
    when one side of the cut is empty.
    """
    columns, shifts = pos // sectors, pos % sectors
    first = np.unique(columns, return_index=True)[1]
    later = np.setdiff1d(np.arange(len(pos)), first)
    phases = np.exp(-2j * np.pi / sectors * np.outer(np.arange(sectors), np.arange(sectors)))
    glo = glo.reshape(len(glo), -1, sectors) @ phases.T / np.sqrt(sectors)

    def project(ranges):
        """The local span's complex dimension, the real dimension ZH_glo adds, K's margin."""
        left = np.cumsum([0] + [r.shape[1] for r in ranges])
        stack = np.zeros((len(pos), left[-1]), dtype=complex)
        for j, r in enumerate(ranges):          # block diagonal; windows are equal in size
            stack[j * len(r):(j + 1) * len(r), left[j]:left[j + 1]] = r
        coords, kept, cut = [], [], []
        for k, ph in enumerate(phases[:, shifts]):
            rows = ph[:, None] * stack
            k_mat = rows[later] - rows[first[columns[later]]]
            # all right singular vectors; a full U only when it is the smaller
            _, svals, vh = np.linalg.svd(k_mat, full_matrices=len(k_mat) < k_mat.shape[1])
            rank = int(np.sum(svals > RANK_TOL))
            kept.append(svals[:rank])
            cut.append(svals[rank:])
            basis = np.linalg.qr(rows[first] @ vh[rank:].conj().T)[0]
            coords.append(glo[:, :, k] @ basis.conj())
        local = sum(len(first) - off.shape[1] for off in coords)
        added = sum(real_rank(np.hstack([off, coords[-k].conj()]), scale=1.0)
                    for k, off in enumerate(coords))
        kept, cut = np.concatenate(kept), np.concatenate(cut)
        with np.errstate(divide="ignore"):
            return local, added, float(kept.min() / cut.max()) if kept.size and cut.size else None

    (h_loc, h_add, margin_h), (g_loc, g_add, margin_g) = project(h_ranges), project(g_ranges)
    dims = {"ZH_glo": len(glo), "ZH_loc": h_loc, "ZG_loc": 2 * g_loc,
            "union_H": h_loc + h_add, "union_G": 2 * g_loc + g_add}
    return dims, {"margin_ZH_loc": margin_h, "margin_ZG_loc": margin_g}


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
    are spanned by the null spaces of the N windows [j, j+R'-1] (see the
    module docstring).  ``dims`` holds the real dimensions, the null-space
    gap of ZH_glo, the smallest window gaps of ZH_loc and ZG_loc, and the
    margins of the complements' cuts.
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

    # pauli_string_basis lists each pattern at shifts 0..N-1 in a row: index
    # i is pattern i // N at shift i % N, and translation acts on the shift
    index = {k: i for i, k in enumerate(pauli_string_basis(n_sites, r_loc).keys)}
    sectors = n_sites if _translation_eigenstates(states_list, n_sites) else 1

    glo = pauli_string_basis(n_sites, r_glo)
    zh_glo = null_space(build_correlation(glo, states_list, "H", degenerate), tol)
    windows = [window_basis(n_sites, j, r_loc) for j in range(n_sites if sectors == 1 else 1)]
    zh, zg = [], []
    for w in windows:
        corr = build_correlation(w, states_list, "G", degenerate)
        zg.append(null_space(corr, tol))
        # C^H = Re C^G, the gram build_correlation(kind="H") computes again
        zh.append(null_space(replace(corr, entries=corr.entries.real.copy(), kind="H"), tol))

    glo_rows = np.zeros((zh_glo.dim, len(index)), dtype=complex)
    glo_rows[:, [index[k] for k in glo.keys]] = zh_glo.basis
    pos = np.array([index[k] for w in windows for k in w.keys])
    dims, margins = _complement_dims(
        glo_rows, [r.range for r in zh], [r.range for r in zg], pos, sectors)

    n_iii = dims["union_G"] - dims["ZG_loc"]
    n_ii = dims["union_H"] - dims["union_G"] + dims["ZG_loc"] - dims["ZH_loc"]
    dims.update(gap_ZH_glo=zh_glo.gap, gap_ZH_loc=min(r.gap for r in zh),
                gap_ZG_loc=min(r.gap for r in zg), **margins)
    return ClassCount(n_ii, n_iii, dims, tol)


def verify_null_vector(basis: OperatorBasis, coeffs: np.ndarray, states_list) -> float:
    """Residual max_n ||(V - <V>_n)|psi_n>|| for the recombined operator.

    The caller applies the threshold.
    """
    op = LocalOperator(basis.n_sites, dict(zip(basis.keys, coeffs)))
    return max((opspace.eigen_defect(op, psi)[1] for psi in states_list), default=0.0)
