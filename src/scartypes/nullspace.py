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
only the basis rows psi and its images V_nu psi reach.  ZH_glo takes one
stacked eigh of the momentum blocks sum_d Re g_d e^{2 pi i k d / N}, k <= N/2,
of C^G's shift terms g_d: for translation eigenstates over whole orbits the
orbit gram g_d = lambda^{-d} <F_p|T^d F_p'>, P x P at each shift d; for other
states C^G itself, one shift and one sector.  ZH_loc and ZG_loc,
the spans of the N windows' null spaces, are found through their complements:
v is orthogonal to a span exactly when each window restriction v|_j = R_j c_j
lies in the window's range R_j, and a string shared by windows takes one
value: a small system K c = 0.  Window j's null space is window 0's translated
by j for translation eigenstates, so K links a pattern's copies in window 0
with Bloch phases, one K per momentum sector, and else N windows' copies.

Real states: let psi_n = e^{i phi_n} r_n, r_n real, and y_mu the number of y
codes in string mu.  V~_mu = (-i)^{y_mu} V_mu is real, so in the V~ basis (c~
= i^y c) C^G = F~^T F~ with F~ = F diag((-i)^y) real: F's even-y columns are
real and its odd-y ones imaginary, and C^H = Re C^G couples no even-y string
to an odd-y one.  When every state is real to rounding over the phase of its
largest amplitude, a count (a) cuts the windows' G ranges and solves K in real
arithmetic, (b) solves the G sectors k <= N/2 only, as for H, since K~_{-k} =
conj K~_k, though ZH_glo's rows obey V~_{-k} = (-1)^y conj V~_k, and (c)
splits ZH_loc's window ranges and K into even-y and odd-y blocks.

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


def build_correlation(basis: OperatorBasis, states_list, kind: str) -> np.ndarray:
    """Summed correlation matrix over the given unit states (else ValueError):
    the Gram array, real for kind H, complex for kind G, C^G = F^dagger F for
    ``_factor``'s F with each state whole (chi = 1)."""
    if kind not in ("H", "G"):
        raise ValueError("kind must be 'H' or 'G'")
    if kind == "H" and any(c != opspace._DAGGER[c] for _, ops in basis.keys for c in ops):
        raise ValueError("kind H requires a Hermitian basis")
    states = [opspace._support(psi, 1 << basis.n_sites) for psi in states_list]
    gram = _gram(basis, states, False, None)[..., 0]
    return gram.real.copy() if kind == "H" else gram


def _gram(basis: OperatorBasis, states, degenerate: bool, lams) -> np.ndarray:
    """C^G's shift terms g[p, p', d] over unit support-form states: given their translation
    eigenvalues ``lams``, over whole orbits, each pattern at shifts 0..N-1 in a
    row (as pauli_string_basis lists them), one d per shift; else g[:, :, 0] = C^G.
    ``degenerate`` recentres the expectation vectors on their mean and adds the
    rank-one couplings, so null vectors share one eigenvalue across the states."""
    n = basis.n_sites
    if not len(states):
        raise ValueError("at least one state is required")
    for _, amps in states:
        opspace._require_unit(amps)
    keys = basis.keys if lams is None else basis.keys[::n]
    rows, blocks, pairs = [], [], []
    table = opspace._string_table(n, ((key, 1.0) for key in keys))
    for src, amps in states:
        chunks = list(opspace._string_pairs(n, table, src))
        reached = opspace._distinct(np.concatenate([src, *(tgt for _, _, tgt, _ in chunks)]))
        at = np.searchsorted(reached, src)
        rows.append(reached)
        blocks.append(np.zeros((len(reached), 1), dtype=amps.dtype))
        blocks[-1][at, 0] = amps
        pairs.append([(t, at[k], np.searchsorted(reached, tgt), vals)
                      for t, k, tgt, vals in chunks])
    parts = _factor(len(keys), blocks, pairs, degenerate)
    if lams is None:
        return sum(p.conj().T @ p for p in parts)[..., None]
    return _orbit_gram(parts, rows, lams, n)


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


def _orbit_gram(parts, rows, lams, n: int) -> np.ndarray:
    """C^G's shift terms g[p, p', d] = sum_n lambda_n^{-d} <F_p|T^d F_p'> + degenerate rows.

    Each state's F holds only its ``rows`` (sorted basis indices); at shift d
    row r of F_p' meets row r rotated left by d of F_p, when F_p holds it.
    """
    g = 0
    for lam, reached, block in zip(lams, rows, parts):
        terms = []
        for d in range(n):
            moved = opspace._rotated(reached, d, n)
            pos = np.minimum(np.searchsorted(reached, moved), len(reached) - 1)
            hit = reached[pos] == moved
            terms.append(block[pos[hit]].conj().T @ block[hit] / lam ** d)
        g = g + np.stack(terms, -1)
    for extra in parts[len(lams):]:
        g = g + (extra.conj().T @ extra)[..., None]
    return g


def _window_factors(window: OperatorBasis, width: int, states, degenerate, starts):
    """F of window [j, j + width) for each j in ``starts``: window 0's strings,
    decoded once, on the support-form states' Schmidt splits, each the SVD of
    the state's opspace._window_block, transposed, with site j least significant."""
    table = opspace._string_table(width, ((key, 1.0) for key in window.keys))
    pairs = list(opspace._string_pairs(width, table, np.arange(1 << width)))
    for j in starts:
        sites = [(j + k) % window.n_sites for k in reversed(range(width))]
        blocks = []
        for state in states:
            _, svals, vh = np.linalg.svd(opspace._window_block(state, sites, 2)[1].T,
                                         full_matrices=False)
            blocks.append(vh[svals > SCHMIDT_TOL].T * svals[svals > SCHMIDT_TOL])
        yield np.vstack(_factor(len(window), blocks, [pairs] * len(blocks), degenerate))


def _range(*factors):
    """Range (columns) of each F^dagger F and their gap, from thin SVDs of the F, cut
    as null_space cuts the block-diagonal matrix of them all."""
    svds = [np.linalg.svd(f, full_matrices=False)[1:] for f in factors]
    cut = NULL_TOL * max(max(float(s[0]) ** 2 for s, _ in svds), 1e-300)
    kept = [(s[s ** 2 > cut], vh[s ** 2 > cut].conj().T) for s, vh in svds]
    gap = min((float(s[-1] ** 2) for s, _ in kept if s.size), default=np.inf)
    return *(r for _, r in kept), gap


def null_space(corr: np.ndarray) -> SubspaceReport:
    """Eigenvectors with eigenvalue <= NULL_TOL * max eigenvalue.

    Raises ValueError when the smallest eigenvalue is below PSD_TOL x max
    |entry|.  Also reports the spectral gap just above the accepted null
    space so the robustness of the cut is visible to callers.
    """
    vecs, keep, above = _null_eigh(corr, corr)
    return SubspaceReport(vecs[:, keep].T.astype(complex), int(keep.sum()), above)


def _null_eigh(blocks: np.ndarray, corr: np.ndarray):
    """eigh of C (``corr``) or of a stack of its ``blocks``, cut over all as null_space cuts."""
    vals, vecs = np.linalg.eigh(blocks)
    if vals.min() < PSD_TOL * max(float(np.abs(corr).max()), 1.0):
        raise ValueError(f"correlation matrix not PSD: min eig {vals.min():.3e}")
    keep = vals <= NULL_TOL * max(float(vals.max()), 1e-300)
    return vecs, keep, float(vals[~keep].min()) if not keep.all() else np.inf


def _sector_null_spaces(g: np.ndarray):
    """C^H's null rows V_k, k <= N/2, and gap from its real shift terms g[p, p', d]: its
    eigenvectors are u e^{2 pi i k s / N} / sqrt N for u an eigenvector of the P x P
    block C_k = sum_d g_d e^{2 pi i k d / N}; C_{-k} = conj C_k; C_0, C_{N/2} are real."""
    n, half = g.shape[-1], np.arange(g.shape[-1] // 2 + 1)
    phases = np.exp(2j * np.pi / n * np.outer(np.arange(n), half))
    phases.imag[:, 2 * half % n == 0] = 0.0             # +-1: real blocks, real V_k
    phases = phases.real if n <= 2 else phases          # every column +-1: a real eigh
    vecs, keep, above = _null_eigh(np.moveaxis(g @ phases, -1, 0), g)
    return [v[:, k].T for v, k in zip(vecs, keep)], above


# -- span arithmetic -------------------------------------------------------------

def real_rank(rows: np.ndarray, scale: float | None = None) -> int:
    """Number of singular values above RANK_TOL * scale (default: the largest one)."""
    svals = np.linalg.svd(rows, compute_uv=False)
    scale = (svals[0] if svals.size else 0.0) if scale is None else scale
    return int(np.sum(svals > RANK_TOL * scale))


def _translation_eigenstates(states, n_sites: int):
    """Each support-form state's lambda = <psi|T psi> / <psi|psi> when ||T psi -
    lambda psi|| <= TRANSLATION_TOL ||psi|| for every state, else None; T psi
    (psi's amplitudes at its indices rotated by one site) meets psi on their union."""
    lams = []
    for idx, amps in states:
        if not amps.any():
            return None
        moved = opspace._rotated(idx, 1, n_sites)
        psi, shifted = opspace._merged([(idx, amps), (moved, amps)])[1].T
        lams.append(np.vdot(psi, shifted) / np.vdot(amps, amps))
        if np.linalg.norm(shifted - lams[-1] * psi) > TRANSLATION_TOL * np.linalg.norm(amps):
            return None
    return lams


def _real_states(states):
    """The support-form states over the phase of each one's largest amplitude,
    with real amplitude arrays, when every one is real there to rounding; else None."""
    turned = [a * np.exp(-1j * np.angle(a[np.argmax(np.abs(a))])) for _, a in states]
    # e^{i phi} r holds r_j e^{i phi} to a rounding in each part, and the unit phase and
    # the product add a few: |Im| <= ~4 eps |psi_j|, so 8 eps max|psi| bounds rounding
    if any(np.abs(t.imag).max() > 8 * np.finfo(float).eps * np.abs(t).max() for t in turned):
        return None
    return [(idx, t.real) for (idx, _), t in zip(states, turned)]


def _complement_dims(glo, h_ranges, g_ranges, pos, sectors: int, ys=None):
    """Real dimensions of ZH_glo, ZH_loc, ZG_loc and their unions, and K's margins.

    ``glo`` holds ZH_glo's orthonormal rows V_k, k <= sectors / 2, over its
    columns, X's first ones (full index i: column i // sectors, shift i %
    sectors); V_{-k} = conj V_k, and V_k is real where the phases are +-1.
    ``pos`` is the full index of each row of the windows' stacked ranges X,
    block diagonal over equal windows; H's ranges are real.  Given ``ys``, the
    y counts of X's rows, the states are real: each H range is a pair of
    blocks over the window's even-y and odd-y rows, and G's are real in the V~
    basis, c~ = t c with t = i^y (see the module docstring).  K_k equates each
    later copy of a column, phased by e^{-2 pi i k shift / sectors}, with its
    first copy.  Its null space N_k gives the complement's basis B_k = (phased
    first rows of X) N_k, orthonormalised by the Cholesky factor of B_k's Gram
    N_k^dagger (first rows' Gram) N_k, whose eigenvalues lie in [1/copies, 1].
    V_k on it adds rank [V_k, conj V_{-k}] real dimensions to a union.  Where
    X is real, K_{-k} = conj K_k, so only k <= sectors / 2 are solved: conj
    V~_{-k} on B_{-k} = conj B_k is conj(t) V_k on B_k.  K is real where the
    phases are +-1.  X's columns are orthonormal, so K's cut RANK_TOL is
    absolute; a margin is the smallest kept singular value in any block and
    sector over RANK_TOL, None when nothing is kept.
    """
    phases = np.exp(-2j * np.pi / sectors * np.outer(np.arange(sectors), np.arange(sectors)))

    def block(ranges, at, phased: bool):
        """K's row sets over X's rows ``at``, their first rows' Gram, ZH_glo's columns."""
        size, left = len(ranges[0]), np.cumsum([0] + [r.shape[1] for r in ranges])
        columns, shifts = np.divmod(pos[at], sectors)
        first = np.unique(columns, return_index=True)[1]
        later = np.delete(np.arange(len(columns)), first)   # not np.setdiff1d: it loads numpy.ma
        partner = first[np.searchsorted(columns[first], columns[later])]    # the first copy
        held = first[:np.searchsorted(columns[first], glo[0].shape[1])]     # ZH_glo's columns

        def rows(idx):
            """Rows ``idx`` of X."""
            out = np.zeros((len(idx), left[-1]), dtype=ranges[0].dtype)
            window, row = np.divmod(idx, size)
            for j, r in enumerate(ranges):
                out[window == j, left[j]:left[j + 1]] = r[row[window == j]]
            return out

        gram = np.zeros((left[-1],) * 2, dtype=ranges[0].dtype)  # of all first rows
        window, row = np.divmod(first, size)
        for j, r in enumerate(ranges):
            cols, part = slice(left[j], left[j + 1]), r[row[window == j]]
            gram[cols, cols] = part.conj().T @ part
        tw = np.array([1, 1j, -1, -1j])[ys[at][held] % 4] if phased else 1.0    # V~: t = i^y
        ph = phases[:, shifts]                          # every sector's, gathered once
        return (ph[:, later, None], ph[:, partner, None], ph[:, held].conj(), columns[held],
                rows(later), rows(partner), rows(held).conj(), gram,
                [tw, np.conj(tw)] if phased else [tw], len(first))

    def project(parts, real: bool, phased=False):
        """The local span's complex dimension, the real dimension ZH_glo adds, K's margin."""
        blocks = [block([r.real for r in ranges] if real else ranges, at, phased)
                  for ranges, at in parts]
        solved = range(sectors // 2 + 1 if real else sectors)
        twins = [2 if real and 2 * k % sectors else 1 for k in solved]
        coords, pairs, kept, local = {}, [], [], 0
        for k, twin in zip(solved, twins):
            glo_k, offs = glo[k] if k < len(glo) else glo[sectors - k].conj(), []
            for at_later, at_partner, at_held, cols, copies, partners, firsts, gram, tws, count \
                    in blocks:
                ph_later, ph_partner, ph_held, glo_b = [
                    a.real if 2 * k % sectors == 0 else a           # phases +-1
                    for a in (at_later[k], at_partner[k], at_held[k], glo_k[:, cols])]
                k_mat = ph_later * copies
                k_mat -= ph_partner * partners
                # all right singular vectors; a full U only when it is the smaller
                _, svals, vh = np.linalg.svd(k_mat, full_matrices=len(k_mat) < k_mat.shape[1])
                rank = int(np.sum(svals > RANK_TOL))
                kept.append(svals[:rank])
                null = vh[rank:]                    # N_k^dagger
                off = np.vstack([glo_b * ph_held * t for t in tws]) @ firsts @ null.T
                if len(null):
                    chol = np.linalg.cholesky(null @ gram @ null.conj().T)
                    off = np.linalg.solve(chol, off.T).T
                offs.append(off.reshape(len(tws), len(glo_b), off.shape[1]))
                local += twin * (count - len(null))
            coords[k] = np.hstack([off[0] for off in offs])
            if real:                                # conj V_{-k} on B_{-k}, from B_k
                pairs.append(np.hstack([coords[k]] + [off[-1] for off in offs]))
        if not real:
            pairs = [np.hstack([coords[k], coords[-k % sectors].conj()]) for k in solved]
        added = sum(t * real_rank(p, scale=1.0) for t, p in zip(twins, pairs))
        kept = np.concatenate(kept)
        return local, added, float(kept.min() / RANK_TOL) if kept.size else None

    h_loc, h_add, margin_h = project([(h_ranges, slice(None))] if ys is None else [
        (list(r), ys % 2 == odd) for odd, r in enumerate(zip(*h_ranges))], True)
    g_loc, g_add, margin_g = project([(g_ranges, slice(None))], ys is not None, ys is not None)
    dims = {"ZH_glo": sum(len(glo[min(k, sectors - k)]) for k in range(sectors)), "ZH_loc": h_loc,
            "ZG_loc": 2 * g_loc, "union_H": h_loc + h_add, "union_G": 2 * g_loc + g_add}
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
    (extensive-local combinations included), solved by momentum block, one
    block unless the states are translation eigenstates; ZH_loc / ZG_loc are
    spanned by the null spaces of the N windows [j, j+R'-1] (see the module
    docstring; real states take real arithmetic).  ``dims`` holds the real
    dimensions, the null-space gap of ZH_glo, the smallest window gaps of
    ZH_loc and ZG_loc, and the margins of the complements' cuts.
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
    # string (s, ops) of range <= R' has index p N + s, p the index of ops.
    states = [opspace._support(psi, 1 << n_sites) for psi in states_list]
    lams = _translation_eigenstates(states, n_sites)
    g = _gram(pauli_string_basis(n_sites, r_glo), states, degenerate, lams)
    zh_glo, gap = _sector_null_spaces(g.real)
    sectors = g.shape[-1]                           # N momentum sectors, or one
    window, starts = window_basis(n_sites, 0, r_loc), range(n_sites if sectors == 1 else 1)
    real = _real_states(states)
    ys = np.array([ops.count("y") for _, ops in window.keys])
    zh, zg = [], []
    for factor in _window_factors(window, r_loc, real or states, degenerate, starts):
        if real is None:
            zh.append(_range(np.vstack([factor.real, factor.imag])))    # C^H = Re C^G
        else:       # F's even-y columns are real, its odd-y ones imaginary: F (-i)^y is real
            zh.append(_range(factor.real[:, ys % 2 == 0], factor.imag[:, ys % 2 == 1]))
            factor = (factor * np.array([1, -1j, -1, 1j])[ys % 4]).real
        zg.append(_range(factor))

    pattern = {ops: p for p, ops in enumerate(_pauli_patterns_upto(r_loc))}
    pos = np.array([pattern[ops] * n_sites + (s + j) % n_sites
                    for j in starts for s, ops in window.keys])
    dims, margins = _complement_dims(zh_glo, [r[0] if real is None else r[:-1] for r in zh],
                                     [r[0] for r in zg], pos, sectors,
                                     None if real is None else np.tile(ys, len(starts)))

    n_iii = dims["union_G"] - dims["ZG_loc"]
    n_ii = dims["union_H"] - dims["union_G"] + dims["ZG_loc"] - dims["ZH_loc"]
    dims.update(gap_ZH_glo=gap, gap_ZH_loc=min(r[-1] for r in zh),
                gap_ZG_loc=min(r[-1] for r in zg), **margins)
    return ClassCount(n_ii, n_iii, dims)


def verify_null_vector(basis: OperatorBasis, coeffs: np.ndarray, states_list) -> float:
    """Residual max_n ||(V - <V>_n)|psi_n>|| for the recombined operator.

    The caller applies the threshold.
    """
    op = LocalOperator(basis.n_sites, dict(zip(basis.keys, coeffs)))
    return max((opspace.eigen_defect(op, psi)[1] for psi in states_list), default=0.0)
