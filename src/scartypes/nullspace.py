"""Correlation-matrix null spaces and type II/III equivalence-class counts.

Given an orthogonal Hermitian operator basis {V_mu} and unit states {psi_n},

    C^H_munu = sum_n [ Re<V_mu psi_n, V_nu psi_n> - <V_mu>_n <V_nu>_n ],
    C^G_munu = sum_n [ <V_mu psi_n, V_nu psi_n> - <V_mu>_n <V_nu>_n ],

are positive semidefinite; real null vectors of C^H are the Hermitian
operators with every psi_n as an eigenstate, complex null vectors of C^G
the general ones.  Class counts follow from dimensions of unions of these
null spaces:

    N_III = dim(ZH_glo u ZG_loc) - dim ZG_loc
    N_II  = dim(ZH_glo u ZH_loc) - dim(ZH_glo u ZG_loc) + dim ZG_loc - dim ZH_loc

with all dimensions real (a complex space counts twice).  Correlations are
Gram matrices of a small factor F (C^G = F^dagger F, C^H that of [Re F; Im F]):
F = (1 - u u^dagger) M over a window, M_{(i,k),nu} = s_k <i|V_nu|a_k> for the
split psi = sum_k s_k |a_k>|b_k> and u = (s_k <i|a_k>), chi 2^w rows per state;
window ranges and gaps come from its thin SVD.  Over the whole ring F keeps
only the basis rows psi and its images V_nu psi reach.  Over translation
orbits of translation eigenstates C^G is an orbit gram, lambda^{-d}
<F_p|T^d F_p'> at shift d.  ZH_loc and ZG_loc, the spans of the N windows'
null spaces, are found through their complements: v is orthogonal to a span
exactly when each window restriction v|_j = R_j c_j lies in the window's
range R_j, and a string shared by windows takes one value: a small system
K c = 0.  Window
j's null space is window 0's translated by j for translation eigenstates, so
K links a pattern's copies in window 0 with Bloch phases, one K per momentum
sector; other states link N windows' copies.

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
# Schmidt values <= SCHMIDT_TOL are dropped: that moves C's eigenvalues by <= 4^(w+1)
# 1e-24, far below the NULL_TOL cut (>= 6.7e-11, since tr C >= 4^w - 2^w per state)
SCHMIDT_TOL = 1e-12
GLOBAL_SCAN_MAX_SITES = 12


@dataclass(frozen=True)
class OperatorBasis:
    """Ordered basis of single strings V_mu, one canonical (start, ops) key each."""

    keys: tuple
    n_sites: int

    def __len__(self):
        return len(self.keys)


@dataclass(frozen=True)
class SubspaceReport:
    basis: np.ndarray      # rows are orthonormal coefficient vectors
    dim: int
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
        for key in opspace._placed_keys(n_sites, pat, range(n_sites)):
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return OperatorBasis(tuple(keys), n_sites)


def window_basis(n_sites: int, start: int, width: int) -> OperatorBasis:
    """All non-identity Pauli strings supported inside one window."""
    keys = []
    for pat in _pauli_patterns_upto(width):
        keys += opspace._placed_keys(n_sites, pat, range(start, start + width - len(pat) + 1))
    return OperatorBasis(tuple(keys), n_sites)


def build_correlation(basis: OperatorBasis, states_list, kind: str,
                      degenerate: bool = False) -> np.ndarray:
    """Summed correlation matrix over the given unit states (else ValueError):
    the Gram array, real for kind H, complex for kind G.

    C^G = F^dagger F for ``_factor``'s F with each state whole (chi = 1).  When
    the basis lists whole translation orbits, each pattern at shifts 0..N-1
    in a row (as pauli_string_basis does), and the states are translation
    eigenstates, ``_orbit_gram`` needs only the pattern representatives.
    ``degenerate`` recentres the expectation vectors on their mean and adds the
    rank-one couplings, so null vectors share one eigenvalue across the states.
    """
    if kind not in ("H", "G"):
        raise ValueError("kind must be 'H' or 'G'")
    if kind == "H" and any(c != opspace._DAGGER[c] for _, ops in basis.keys for c in ops):
        raise ValueError("kind H requires a Hermitian basis")
    n = basis.n_sites
    if not len(states_list):
        raise ValueError("at least one state is required")
    for psi in states_list:
        if psi.shape != (1 << n,):
            raise opspace.DimensionError(f"state has shape {psi.shape} for N={n}")
        opspace._require_unit(psi)
    orbits = _translation_eigenstates(states_list, n) and basis.keys == tuple(
        key for s, ops in basis.keys[::n] for key in opspace._placed_keys(n, ops, range(s, s + n)))
    keys = basis.keys[::n] if orbits else basis.keys
    rows, blocks, pairs = [], [], []
    for psi in states_list:
        src = np.flatnonzero(psi)
        chunks = list(opspace._string_pairs(n, ((key, 1.0) for key in keys), src))
        reached = np.sort(np.concatenate([src, *(tgt for _, _, tgt, _ in chunks)]))
        reached = reached[np.diff(reached, prepend=-1) > 0]     # np.unique loads numpy.ma
        rows.append(reached)
        blocks.append(psi[reached, None])
        pairs.append([(t, np.searchsorted(reached, kept), np.searchsorted(reached, tgt), vals)
                      for t, kept, tgt, vals in chunks])
    parts = _factor(len(keys), blocks, pairs, degenerate)
    gram = _orbit_gram(parts, rows, states_list, n) if orbits else \
        sum(p.conj().T @ p for p in parts)
    return gram.real.copy() if kind == "H" else gram


def _factor(count: int, blocks, pairs, degenerate: bool) -> list:
    """Row blocks of F (C^G = F^dagger F, a column per decoded string): per state
    (1 - u u^dagger) M from its B[i, k] = s_k <i|a_k>, u = vec B; then rows e_n - mean.
    ``pairs[n]`` holds _string_pairs chunks over the rows of blocks[n]."""
    parts, expect = [], []
    for block, chunks in zip(blocks, pairs):
        acts = np.zeros((count,) + block.shape, dtype=complex)
        for t, src, tgt, vals in chunks:
            acts[t, tgt] = vals[:, None] * block[src]
        part, u = acts.reshape(count, -1).T, block.ravel()
        expect.append(u.conj() @ part)
        part -= np.outer(u, expect[-1])
        parts.append(part)
    if degenerate:
        parts.append(np.array(expect) - np.mean(expect, axis=0))
    return parts


def _orbit_gram(parts, rows, states_list, n: int) -> np.ndarray:
    """C^G over whole orbits: sum_n lambda_n^{-d} <F_p|T^d F_p'>, d = s' - s, + degenerate rows.

    Each state's F holds only its ``rows`` (sorted basis indices); at shift d
    row r of F_p' meets row r rotated left by d of F_p, when F_p holds it.
    """
    g, shifts, full = 0, np.arange(n), (1 << n) - 1
    for psi, reached, block in zip(states_list, rows, parts):
        lam = np.vdot(psi, states.translate(psi, 1, n))
        terms = []
        for d in shifts:
            moved = ((reached << d) | (reached >> (n - d))) & full
            pos = np.minimum(np.searchsorted(reached, moved), len(reached) - 1)
            hit = reached[pos] == moved
            terms.append(block[pos[hit]].conj().T @ block[hit] / lam ** d)
        g = g + np.stack(terms, -1)
    for extra in parts[len(states_list):]:
        g = g + (extra.conj().T @ extra)[..., None]
    diff = (shifts[None, :] - shifts[:, None]) % n
    return g[:, :, diff].transpose(0, 2, 1, 3).reshape(g.shape[0] * n, -1)


def _window_factors(window: OperatorBasis, width: int, states_list, degenerate, starts):
    """F of window [j, j + width) for each j in ``starts``: window 0's strings,
    decoded once, on the Schmidt splits of the states translated by -j."""
    pairs = list(opspace._string_pairs(width, ((key, 1.0) for key in window.keys)))
    for j in starts:
        blocks = []
        for psi in states_list:
            moved = states.translate(psi, -j, window.n_sites).reshape(-1, 1 << width)
            _, svals, vh = np.linalg.svd(moved, full_matrices=False)
            blocks.append(vh[svals > SCHMIDT_TOL].T * svals[svals > SCHMIDT_TOL])
        yield np.vstack(_factor(len(window), blocks, [pairs] * len(blocks), degenerate))


def _range(factor: np.ndarray):
    """Range (columns) and gap of F^dagger F, cut as null_space cuts, from a thin SVD of F."""
    _, svals, vh = np.linalg.svd(factor, full_matrices=False)
    keep = svals ** 2 > NULL_TOL * max(float(svals[0]) ** 2, 1e-300)
    return vh[keep].conj().T, float(svals[keep][-1] ** 2) if keep.any() else np.inf


def null_space(corr: np.ndarray) -> SubspaceReport:
    """Eigenvectors with eigenvalue <= NULL_TOL * max eigenvalue, and the range.

    Raises ValueError when the smallest eigenvalue is below PSD_TOL x max
    |entry|.  Also reports the spectral gap just above the accepted null
    space so the robustness of the cut is visible to callers.
    """
    vals, vecs = np.linalg.eigh(corr)
    if vals[0] < PSD_TOL * max(float(np.abs(corr).max()), 1.0):
        raise ValueError(f"correlation matrix not PSD: min eig {vals[0]:.3e}")
    top = max(float(vals[-1]), 1e-300)
    keep = vals <= NULL_TOL * top
    dim = int(np.sum(keep))
    above = float(vals[dim]) if dim < len(vals) else np.inf
    return SubspaceReport(vecs[:, keep].T.astype(complex), dim, above, vecs[:, ~keep])


# -- span arithmetic -------------------------------------------------------------

def real_rank(rows: np.ndarray, scale: float | None = None) -> int:
    """Number of singular values above RANK_TOL * scale (default: the largest one)."""
    svals = np.linalg.svd(rows, compute_uv=False)
    scale = (svals[0] if svals.size else 0.0) if scale is None else scale
    return int(np.sum(svals > RANK_TOL * scale))


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
    column i // sectors, shift i % sectors); they are real, as ZH_glo is
    Hermitian.  ``pos`` is the full index of each row of the windows' stacked
    ranges X, block diagonal over equal windows; H's ranges are real.  K_k
    equates each later copy of a column, phased by e^{-2 pi i k shift /
    sectors}, with its first copy.  Its null space N_k gives the complement's
    basis B_k = (phased first rows of X) N_k, orthonormalised by the Cholesky
    factor of B_k's Gram N_k^dagger (first rows' Gram) N_k, whose eigenvalues
    lie in [1/copies, 1].  ZH_glo's sector rows r_k on it add rank
    [r_k, conj r_{-k}] real dimensions to a union.  For H, sector -k is
    sector k conjugated, so only k <= sectors / 2 are solved, and K is real
    where the phases are +-1.  X's columns are orthonormal, so K's cut
    RANK_TOL is absolute; a margin is the smallest kept singular value in any
    sector over RANK_TOL, None when nothing is kept.
    """
    columns, shifts = pos // sectors, pos % sectors
    first = np.unique(columns, return_index=True)[1]
    later = np.delete(np.arange(len(pos)), first)   # not np.setdiff1d: it loads numpy.ma
    partner = first[columns[later]]                 # each later copy's first copy
    phases = np.exp(-2j * np.pi / sectors * np.outer(np.arange(sectors), np.arange(sectors)))
    glo = glo.real.reshape(len(glo), -1, sectors)
    held = np.flatnonzero(glo.any(axis=(0, 2)))     # the columns ZH_glo's rows hold
    glo = glo[:, held] @ phases.T / np.sqrt(sectors)

    def project(ranges, real: bool):
        """The local span's complex dimension, the real dimension ZH_glo adds, K's margin."""
        size, left = len(ranges[0]), np.cumsum([0] + [r.shape[1] for r in ranges])
        ranges = [r.real for r in ranges] if real else ranges

        def rows(idx):
            """Rows ``idx`` of X."""
            out = np.zeros((len(idx), left[-1]), dtype=ranges[0].dtype)
            window, row = np.divmod(idx, size)
            for j, r in enumerate(ranges):
                out[window == j, left[j]:left[j + 1]] = r[row[window == j]]
            return out

        copies, partners, firsts = rows(later), rows(partner), rows(first[held]).conj()
        gram = np.zeros((left[-1],) * 2, dtype=copies.dtype)  # of all first rows: block diagonal
        window, row = np.divmod(first, size)
        for j, r in enumerate(ranges):
            cols, block = slice(left[j], left[j + 1]), r[row[window == j]]
            gram[cols, cols] = block.conj().T @ block
        solved = range(sectors // 2 + 1 if real else sectors)
        coords, kept = {}, []
        for k in solved:
            ph, glo_k = phases[k, shifts], glo[:, :, k]
            if 2 * k % sectors == 0:                # phases +-1
                ph, glo_k = ph.real, glo_k.real
            k_mat = ph[later, None] * copies
            k_mat -= ph[partner, None] * partners
            # all right singular vectors; a full U only when it is the smaller
            _, svals, vh = np.linalg.svd(k_mat, full_matrices=len(k_mat) < k_mat.shape[1])
            rank = int(np.sum(svals > RANK_TOL))
            kept.append(svals[:rank])
            null = vh[rank:]                        # N_k^dagger
            off = (glo_k * ph[first[held]].conj()) @ firsts @ null.T
            if len(null):
                chol = np.linalg.cholesky(null @ gram @ null.conj().T)
                off = np.linalg.solve(chol, off.T).T
            coords[k] = off
            if real:
                coords[-k % sectors] = off.conj()
        twins = [2 if real and 2 * k % sectors else 1 for k in solved]
        local = sum(t * (len(first) - coords[k].shape[1]) for t, k in zip(twins, solved))
        added = sum(t * real_rank(np.hstack([coords[k], coords[-k % sectors].conj()]), scale=1.0)
                    for t, k in zip(twins, solved))
        kept = np.concatenate(kept)
        return local, added, float(kept.min() / RANK_TOL) if kept.size else None

    h_loc, h_add, margin_h = project(h_ranges, True)
    g_loc, g_add, margin_g = project(g_ranges, False)
    dims = {"ZH_glo": len(glo), "ZH_loc": h_loc, "ZG_loc": 2 * g_loc,
            "union_H": h_loc + h_add, "union_G": 2 * g_loc + g_add}
    return dims, {"margin_ZH_loc": margin_h, "margin_ZG_loc": margin_g}


@dataclass(frozen=True)
class ClassCount:
    n_ii: int
    n_iii: int
    dims: dict


def count_type_classes(n_sites: int, r_glo: int, r_loc: int, states_list,
                       degenerate: bool = False) -> ClassCount:
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
    # i is pattern i // N at shift i % N, and translation acts on the shift.
    # Patterns come shortest first and N >= 2R' leaves no two keys equal, so
    # the range-R basis is a prefix of the range-R' one.
    keys = pauli_string_basis(n_sites, r_loc).keys
    index = {k: i for i, k in enumerate(keys)}
    sectors = n_sites if _translation_eigenstates(states_list, n_sites) else 1

    glo = OperatorBasis(keys[:n_sites * len(_pauli_patterns_upto(r_glo))], n_sites)
    zh_glo = null_space(build_correlation(glo, states_list, "H", degenerate))
    window, starts = window_basis(n_sites, 0, r_loc), range(n_sites if sectors == 1 else 1)
    zh, zg = [], []
    for factor in _window_factors(window, r_loc, states_list, degenerate, starts):
        zg.append(_range(factor))
        zh.append(_range(np.vstack([factor.real, factor.imag])))    # C^H = Re C^G

    glo_rows = np.zeros((zh_glo.dim, len(index)))
    glo_rows[:, [index[k] for k in glo.keys]] = zh_glo.basis.real
    pos = np.array([index[(s + j) % n_sites, ops] for j in starts for s, ops in window.keys])
    dims, margins = _complement_dims(
        glo_rows, [r for r, _ in zh], [r for r, _ in zg], pos, sectors)

    n_iii = dims["union_G"] - dims["ZG_loc"]
    n_ii = dims["union_H"] - dims["union_G"] + dims["ZG_loc"] - dims["ZH_loc"]
    dims.update(gap_ZH_glo=zh_glo.gap, gap_ZH_loc=min(g for _, g in zh),
                gap_ZG_loc=min(g for _, g in zg), **margins)
    return ClassCount(n_ii, n_iii, dims)


def verify_null_vector(basis: OperatorBasis, coeffs: np.ndarray, states_list) -> float:
    """Residual max_n ||(V - <V>_n)|psi_n>|| for the recombined operator.

    The caller applies the threshold.
    """
    op = LocalOperator(basis.n_sites, dict(zip(basis.keys, coeffs)))
    return max((opspace.eigen_defect(op, psi)[1] for psi in states_list), default=0.0)
