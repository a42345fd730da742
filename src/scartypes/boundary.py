"""Truncation / boundary-action tests and the type I/II/III verdict.

A truncated parent Hamiltonian acting on its eigenstates either reduces to
an action of operators pinned at the two ends of the patch (plus per-state
constants) or it does not; when it does, Hermitian-feasibility of the
boundary operators separates type I from type II.  The solver minimizes

    sum_n || (H_Lam - A_l - B_r - f_n) |psi_n> ||^2

over window operators A_l, B_r (traceless; the identity is gauge shared
with f_n) and scalars f_n, optionally restricting A_l, B_r to Hermitian.
The window basis is the site products of {1, traceless Hermitian}: for
qubits the window's Pauli strings, whose coefficients the fit returns.

Every residual is reported relative to the fitted action, max_n ||H_Lam
psi_n|| (_scale, floored at the targets' rounding level over ACCEPT; in
equivalence_test, over both inputs' truncations), so it does not shrink as
the patch grows; the zero fit is always feasible, so the fit of one
Hamiltonian reads at most sqrt(#states).  The accept/reject dead zone is
fixed at 1e-8 / 1e-3: the impossibility proofs are exact statements,
finite-size numerics needs the buffer.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import canonical, nullspace, opspace
from .opspace import LocalOperator, Region

ACCEPT = 1e-8
REJECT = 1e-3

# qubit one-site basis: the identity, then _traceless_hermitian_basis(2) = (z, x, y)
_SITE_CODES = ("id", "z", "x", "y")


@dataclass(frozen=True)
class BoundarySolve:
    left_op: LocalOperator | None
    right_op: LocalOperator | None
    constants: tuple
    residual: float          # max_n ||r_n|| / max_n ||H_Lam psi_n||, in [0, sqrt(#states)]
    left_window: tuple
    right_window: tuple


@dataclass(frozen=True)
class TypeLabel:
    value: str               # "I", "II", "III" or "indeterminate"
    evidence: tuple          # rows: (R_max, lam_length, res_general, res_hermitian)
    notes: tuple = ()
    anchors_solved: tuple = ()   # sweep anchors whose patches were solved


def _scale(targets, hs=()) -> float:
    """The residual scale of a fit: max_n ||H_Lam psi_n|| over the targets
    (any array whose last axis runs over amplitudes), floored at 1e-300.

    It is also floored at eps sum |c| / ACCEPT over the string coefficients
    of the Hamiltonians ``hs`` whose truncations the targets are: eps sum |c|
    bounds a target's rounding, so an action that vanishes only up to
    rounding reads below ACCEPT, not O(1).
    """
    rounding = np.finfo(float).eps * sum(abs(c) for h in hs for c in h.terms.values())
    return max(float(np.linalg.norm(targets, axis=-1).max()), rounding / ACCEPT, 1e-300)


# -- generic least-squares solver ----------------------------------------------

def _traceless_hermitian_basis(dim: int) -> np.ndarray:
    """(dim^2 - 1, dim, dim) Hermitian traceless basis of u(dim) minus the identity ray."""
    unit = np.eye(dim * dim, dtype=complex).reshape(dim, dim, dim, dim)  # unit[i, j] = |i><j|
    mats = [unit[i, i] - unit[i + 1, i + 1] for i in range(dim - 1)]
    for i, j in zip(*np.triu_indices(dim, 1)):
        mats += [unit[i, j] + unit[j, i], 1j * (unit[j, i] - unit[i, j])]
    return np.array(mats, dtype=complex).reshape(-1, dim, dim)


@functools.lru_cache(maxsize=8)
def _window_basis(local_dim: int, width: int) -> np.ndarray:
    """(d^(2w) - 1, d^w, d^w) site products of {1, traceless Hermitian}.

    Products run in itertools.product order over the sites, so a matrix's
    row index is big-endian over the window, its first site most
    significant; the all-identity product is left out (the identity is the
    gauge of the per-state constants).  For qubits the products are the
    window's Pauli strings over _SITE_CODES.
    Built once per (d, w) and shared by every caller, so it is read-only.
    """
    site = np.concatenate([np.eye(local_dim, dtype=complex)[None],
                           _traceless_hermitian_basis(local_dim)])
    mats = np.ones((1, 1, 1), dtype=complex)
    for _ in range(width):      # Kronecker products of every pair, stack-wise
        mats = np.einsum("aij,bkl->abikjl", mats, site).reshape(
            len(mats) * len(site), mats.shape[1] * local_dim, -1)
    mats = mats[1:]
    mats.flags.writeable = False
    return mats


def _window_images(psi, src, basis, sites, local_dim: int):
    """One window's design columns on psi's support: (rows, images).

    psi's nonzero indices ``src`` are grouped by their rest (the index with
    the window digits set to zero); a (d^w, #rest) block of amplitudes, row
    index big-endian over ``sites`` (first listed site most significant, as
    in _window_basis), times the basis stack gives images (len(basis), d^w,
    #rest), landing on rows (d^w, #rest) = rest + window offset.  Indices
    are little-endian in base d.
    """
    place = local_dim ** np.array(sites, dtype=np.int64)      # d^j of each window site
    big = local_dim ** np.arange(len(sites) - 1, -1, -1)      # first listed site most significant
    digits = src[:, None] // place % local_dim
    rest, col = np.unique(src - digits @ place, return_inverse=True)
    block = np.zeros((local_dim ** len(sites), len(rest)), dtype=psi.dtype)
    block[digits @ big, col] = psi[src]
    offsets = np.arange(len(block))[:, None] // big % local_dim @ place
    return rest + offsets[:, None], basis @ block


def _design(psis, n_sites, local_dim, left_sites, right_sites):
    """Design matrix of the boundary fit on the rows it reaches: (rows, mat).

    Columns: the window basis acting on the left window, then on the right
    window, then one identity-gauge column per state.  Row k d^N + i is
    amplitude i of the columns' images of psis[k]; ``rows`` lists, ascending,
    the rows where some column is nonzero, and ``mat`` holds those rows.  The
    images are built from each state's support (_window_images), so the
    cost follows the rest configurations a state holds, not d^N.  A window
    site that repeats or lies outside 0..N-1, a site in both windows and a
    state not of length d^N raise ValueError.
    """
    windows = tuple(left_sites), tuple(right_sites)
    for name, sites in zip(("left", "right"), windows):
        if len(set(sites)) < len(sites) or not all(0 <= j < n_sites for j in sites):
            raise ValueError(f"{name} window {sites}: sites must be distinct "
                             f"and within 0..{n_sites - 1}")
    if shared := set(windows[0]) & set(windows[1]):
        raise ValueError(f"windows {windows[0]} and {windows[1]} share sites {sorted(shared)}")
    dim = local_dim ** n_sites
    bases = [_window_basis(local_dim, len(sites)) for sites in windows]
    n_basis = len(bases[0]) + len(bases[1])
    rows, blocks = [], []
    for k, psi in enumerate(psis):
        if psi.shape != (dim,):
            raise opspace.DimensionError(f"state has shape {psi.shape}, expected {(dim,)}")
        src = np.flatnonzero(psi)
        images = [_window_images(psi, src, basis, sites, local_dim)
                  for basis, sites in zip(bases, windows)]
        reached = np.sort(np.concatenate([src] + [r.ravel() for r, _ in images]))
        reached = reached[np.diff(reached, prepend=-1) > 0]     # np.unique loads numpy.ma
        block = np.zeros((n_basis + len(psis), len(reached)), dtype=complex)
        col = 0
        for r, image in images:
            block[col:col + len(image), np.searchsorted(reached, r.ravel())] = \
                image.reshape(len(image), r.size)
            col += len(image)
        block[n_basis + k, np.searchsorted(reached, src)] = psi[src]
        keep = block.any(axis=0)
        rows.append(k * dim + reached[keep])
        blocks.append(block.compress(keep, axis=1))
    # column-major like the full (rows, columns) matrix, so mat @ sol sums
    # each row in the same order whatever rows are kept
    return np.concatenate(rows), np.concatenate(blocks, axis=1).T


def _lstsq(design, rhs, hermitian: bool):
    """Least squares of a _design (rows, mat) against the full-length ``rhs``;
    returns (sol, residual over every row).

    ``rhs`` is one right-hand side or several as columns.  With
    ``hermitian`` the solution is real (the system is split into real and
    imaginary rows); the residual is complex either way.  Only the reached
    rows are solved, in their global order: every other row of the design
    matrix is exactly zero, so dropping it leaves mat^H mat and the
    minimum-norm solution as they are, and its residual is -rhs.  The rank
    cut is numpy's default for the full system of len(rhs) rows.
    """
    rows, mat = design
    rcond = np.finfo(float).eps * max(len(rhs) * (1 + hermitian), mat.shape[1])
    a, b = mat, rhs[rows]
    if hermitian:
        a, b = (np.concatenate([x.real, x.imag]) for x in (a, b))
    sol = np.linalg.lstsq(a, b, rcond=rcond)[0].astype(complex)
    resid = np.negative(rhs, dtype=complex)
    resid[rows] += mat @ sol
    return sol, resid


def _fit(design, targets, hermitian: bool, n_left: int):
    """Boundary fit of the targets on a _design; returns (a, b, f, r_abs).

    ``a`` and ``b`` are the window operators' coefficients over the window
    basis (the first ``n_left`` columns, then the right window's), complex
    (unconstrained) or real (Hermitian); ``f`` holds the per-state
    constants and ``r_abs`` is the worst per-state residual norm.
    """
    sol, resid = _lstsq(design, np.concatenate(targets), hermitian)
    a, b, f = np.split(sol, [n_left, len(sol) - len(targets)])
    r_abs = float(np.linalg.norm(resid.reshape(len(targets), -1), axis=1).max())
    return a, b, tuple(complex(c) for c in f), r_abs


def solve_boundary_dense(targets, psis, n_sites, local_dim,
                         left_sites, right_sites, hermitian: bool):
    """Least-squares boundary fit on dense vectors; returns (a, b, f, r_abs).

    ``targets[n]`` is the truncated-Hamiltonian action on ``psis[n]``.  The
    window operators are expanded over _window_basis with complex
    (unconstrained) or real (Hermitian) coefficients ``a`` and ``b``;
    per-state scalars ``f`` absorb the identity gauge.  The design matrix is
    built on the rows the states reach (_design), so a window site that
    repeats, lies outside 0..N-1 or is in both windows raises ValueError.
    """
    design = _design(psis, n_sites, local_dim, left_sites, right_sites)
    return _fit(design, targets, hermitian, local_dim ** (2 * len(left_sites)) - 1)


def _window_operator(coeffs, sites, n_sites: int) -> LocalOperator:
    """Qubit window operator from its coefficients over _window_basis(2, w)."""
    codes = itertools.product(_SITE_CODES, repeat=len(sites))
    next(codes)                      # the identity string is not in the basis
    return LocalOperator(n_sites, {(sites[0], c): v for c, v in zip(codes, coeffs)})


def _patch_floor(r_max: int, op_range: int) -> int:
    """The patch rule: R_max >= 1 (ValueError otherwise) and at least max(2 R_max + 2,
    2 range + 1) sites, so the two R_max windows are disjoint and truncation is defined."""
    if r_max < 1:
        raise ValueError(f"boundary window R_max = {r_max} must be at least 1")
    return max(2 * r_max + 2, 2 * op_range + 1)


def _require(r_max: int, hs, states_list) -> None:
    """The checks every public entry point makes first, in this order: R_max
    >= 1 (ValueError), every state an eigenstate of every h
    (ClassificationError), every h Hermitian (ValueError)."""
    _patch_floor(r_max, 0)
    for psi in states_list:
        for h in hs:
            canonical.require_eigenstate(h, psi)
    if not all(h.hermitian() for h in hs):
        raise ValueError("truncation tests are defined for Hermitian Hamiltonians")


def _patch(hs, states_list, lam: Region, r_max: int):
    """One patch of the Hamiltonians hs: checks the patch rule (ValueError).

    Returns (_design, (left_sites, right_sites), actions), with the targets
    [opspace.apply(truncation, psi) for psi in states_list] of each
    Hamiltonian's truncation in ``actions``.
    """
    floor = _patch_floor(r_max, max(h.declared_range for h in hs))
    if lam.length < floor:
        raise ValueError(f"patch length {lam.length} < {floor} sites at R_max = {r_max}: "
                         f"windows overlap or terms do not fit")
    sites = lam.sites()
    windows = tuple(sites[:r_max]), tuple(sites[-r_max:])
    design = _design(states_list, hs[0].n_sites, 2, *windows)
    return design, windows, [[opspace.apply(op, psi) for psi in states_list]
                             for op in (opspace.truncate(h, lam) for h in hs)]


def boundary_solve(h: LocalOperator, states_list, lam: Region, r_max: int,
                   hermitian: bool = False) -> BoundarySolve:
    """Boundary fit for a truncated qubit Hamiltonian; A_l, B_r are Pauli strings."""
    _require(r_max, (h,), states_list)
    design, (left_sites, right_sites), [targets] = _patch((h,), states_list, lam, r_max)
    a, b, f, r_abs = _fit(design, targets, hermitian, 4 ** r_max - 1)
    return BoundarySolve(
        left_op=_window_operator(a, left_sites, h.n_sites),
        right_op=_window_operator(b, right_sites, h.n_sites),
        constants=f,
        residual=r_abs / _scale(targets, (h,)),
        left_window=left_sites,
        right_window=right_sites)


def action_equivalent(op_a: LocalOperator, op_b: LocalOperator, states_list) -> bool:
    """Equality of two boundary operators up to the solver gauge.

    Boundary operators are unique only up to window operators acting as
    scalars on every target state, so equality is tested on the action: the
    difference must act as a per-state constant, within ACCEPT on each unit state.
    """
    diff = op_a - op_b
    return not any(opspace.eigen_defect(diff, psi)[1] > ACCEPT for psi in states_list)


def default_sweep(n_sites: int, r_max: int, anchors=(0,), op_range: int = 0):
    """Patch lengths from _patch_floor's to N - 2 per anchor; ValueError when none."""
    lams = []
    min_len = _patch_floor(r_max, op_range)
    if min_len > n_sites - 2:
        raise ValueError(
            f"no patch to sweep at N={n_sites}, R_max={r_max}: patches need at "
            f"least {min_len} sites and at most N - 2 = {n_sites - 2}")
    for anchor in anchors:
        for length in range(min_len, n_sites - 1):
            lams.append(Region(anchor, (anchor + length - 1) % n_sites, n_sites))
    return lams


def _left_independent(h, states_list, r_max: int, short, grown) -> bool:
    """Gauge-free check of the left/right-independence clause.

    Growing the patch by one site on the right must change the action only
    by right-localized operators: the truncation difference is fitted with
    an empty left window.  ``short`` and ``grown`` are the (patch, targets)
    of two anchor-0 patches of classify's sweep, the second one site longer;
    the residual is scaled by _scale of the targets' difference.
    """
    (_, short_targets), (lam, targets) = short, grown
    targets = [g - s for g, s in zip(targets, short_targets)]
    *_, r_abs = solve_boundary_dense(targets, states_list, h.n_sites, 2,
                                     (), tuple(lam.sites()[-(r_max + 1):]), hermitian=False)
    return r_abs / _scale(targets, (h,)) < ACCEPT


def classify(h: LocalOperator, states_list, r_max: int = 2) -> TypeLabel:
    """Type I/II/III verdict from the boundary-action sweep.

    I: Hermitian fit accepted on every patch.  II: general fit accepted
    everywhere but the Hermitian fit rejected somewhere.  III: the general
    fit itself rejected somewhere.  Residuals inside the dead zone yield an
    explicit indeterminate outcome.  Each row's residuals are scaled by
    that patch's max_n ||H_Lam psi_n|| (_scale).  The left/right-independence
    clause is cross-checked by comparing the left operator across right-edge
    positions at fixed anchor.  After _require's checks, an empty sweep
    raises ValueError.

    Anchors 0 and N//3 are swept, evidence rows in that order.  When h
    equals its one-site translate term for term and every state is a
    translation eigenstate, the anchor-N//3 fits are the anchor-0 fits up
    to a unitary per state, which leaves residual norms as they are: only
    anchor 0 is solved, its rows repeated (``anchors_solved``).
    """
    _require(r_max, (h,), states_list)
    n_sites = h.n_sites
    shifted = LocalOperator(n_sites, {(s + 1, ops): c for (s, ops), c in h.terms.items()})
    invariant = shifted.terms == h.terms and \
        nullspace._translation_eigenstates(states_list, n_sites)
    solved = (0,) if invariant else (0, n_sites // 3)
    # the independence clause's anchor-0 patches: ``length`` and length + 1 sites, if swept
    length = max(2 * r_max + 3, 2 * h.declared_range + 1)
    evidence, clause = [], {}
    for lam in default_sweep(n_sites, r_max, anchors=solved, op_range=h.declared_range):
        design, _, [targets] = _patch((h,), states_list, lam, r_max)
        if lam.left == 0 and lam.length in (length, length + 1):
            clause[lam.length] = lam, targets
        scale = _scale(targets, (h,))
        evidence.append((r_max, lam.length, *(_fit(design, targets, hermitian, 4 ** r_max - 1)[3]
                                              / scale for hermitian in (False, True))))
    evidence *= 2 // len(solved)
    notes = ()
    if all(row[2] < ACCEPT for row in evidence) and len(clause) == 2 and \
            not _left_independent(h, states_list, r_max, clause[length], clause[length + 1]):
        notes = (f"left operator varies with right edge at R_max={r_max}",)
    gen, her = [row[2] for row in evidence], [row[3] for row in evidence]
    all_g_ok, all_h_ok = all(r < ACCEPT for r in gen), all(r < ACCEPT for r in her)
    dead_zone = any(not (r < ACCEPT or r > REJECT) for r in gen + her)
    if all_g_ok and all_h_ok:
        value = "I"
    elif all_g_ok and any(r > REJECT for r in her) and not dead_zone:
        value = "II"
    elif any(r > REJECT for r in gen):
        value = "III"
    else:
        value = "indeterminate"
    return TypeLabel(value, tuple(evidence), notes, solved)


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: str             # "same-class", "different" or "indeterminate"
    alpha: float | None
    beta: float | None
    residual: float


def equivalence_test(h_a: LocalOperator, h_b: LocalOperator, states_list,
                     lam: Region | None = None) -> EquivalenceResult:
    """Find alpha, beta with (alpha H^A - beta H^B) Hermitian-feasible at R_max = 2.

    Both inputs are assumed to have been classified type II already.  With
    alpha = cos theta and beta = sin theta the Hermitian fit is linear in
    its target, so state n leaves the residual cos theta a_n - sin theta b_n:
    a_n and b_n are the residuals of one Hermitian fit with the truncated
    actions of H^A and H^B as two right-hand sides.  Its squared norm is
    the sinusoid A_n + B_n cos 2theta + C_n sin 2theta, so the worst
    state's residual is smallest at one sinusoid's minimum or at a crossing
    of two; the angle is the best of that finite candidate set, reported
    in [0, pi).
    Residuals are measured against the largest ||H_Lam psi_n|| of the two
    truncations; the default patch is the sweep's second-longest at anchor
    0.  After _require's checks, a patch breaking the rule raises ValueError.
    """
    r_max = 2
    _require(r_max, (h_a, h_b), states_list)
    n_states = len(states_list)
    if lam is None:
        lam = default_sweep(h_a.n_sites, r_max, op_range=max(
            h_a.declared_range, h_b.declared_range))[-2:][0]
    design, _, actions = _patch((h_a, h_b), states_list, lam, r_max)
    acts = np.array(actions)
    scale = _scale(acts, (h_a, h_b))
    _, resid = _lstsq(design, acts.reshape(2, -1).T, hermitian=True)
    ab = resid.reshape(n_states, -1, 2)          # (state, amplitude, a/b)
    gram = (ab.conj().transpose(0, 2, 1) @ ab).real
    # ||r_n||^2 = A_n + Re(z_n e^{-2i theta}) with z_n = B_n + i C_n: least at
    # 2 theta = arg(-z_n); states m, n cross where |dz| cos(arg dz - 2 theta) = A_n - A_m
    big_a = (gram[:, 0, 0] + gram[:, 1, 1]) / 2
    z = (gram[:, 0, 0] - gram[:, 1, 1]) / 2 - 1j * gram[:, 0, 1]
    m, n = np.triu_indices(n_states, 1)
    dz = z[m] - z[n]
    ratio = np.divide(big_a[n] - big_a[m], abs(dz), out=np.zeros(m.size), where=abs(dz) > 0)
    spread = np.arccos(np.clip(ratio, -1.0, 1.0))
    two_theta = np.concatenate([np.angle(-z), np.angle(dz) + spread,
                                np.angle(dz) - spread])
    thetas = np.mod(two_theta / 2, np.pi)
    vals = np.linalg.norm(ab @ np.stack([np.cos(thetas), -np.sin(thetas)]),
                          axis=1).max(axis=0) / scale
    best = int(np.argmin(vals))
    best_theta, best_val = thetas[best], float(vals[best])
    if best_val < ACCEPT:
        return EquivalenceResult("same-class", float(np.cos(best_theta)),
                                 float(np.sin(best_theta)), best_val)
    if best_val > REJECT:
        return EquivalenceResult("different", None, None, best_val)
    return EquivalenceResult("indeterminate", None, None, best_val)
