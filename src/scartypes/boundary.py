"""Truncation / boundary-action tests and the type I/II/III verdict.

A truncated parent Hamiltonian acting on its eigenstates either reduces to
an action of operators pinned at the two ends of the patch (plus per-state
constants) or it does not; when it does, Hermitian-feasibility of the
boundary operators separates type I from type II.  The solver minimizes

    sum_n || (H_Lam - A_l - B_r - f_n) |psi_n> ||^2

over window operators A_l, B_r (traceless; the identity is gauge shared
with f_n) and scalars f_n, optionally restricting A_l, B_r to Hermitian.

Residuals are reported relative to the spectral norm of H_Lam with the
accept/reject dead zone fixed at 1e-8 / 1e-3: the impossibility proofs are
exact statements, finite-size numerics needs the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from . import canonical, opspace
from .opspace import LocalOperator, Region

ACCEPT = 1e-8
REJECT = 1e-3


@dataclass(frozen=True)
class BoundarySolve:
    left_op: LocalOperator | None
    right_op: LocalOperator | None
    constants: tuple
    residual: float          # max_n ||r_n|| / ||H_Lam||
    residual_abs: float
    scale: float             # spectral norm of the truncated Hamiltonian
    hermitian_constrained: bool
    lam: Region
    left_window: tuple
    right_window: tuple

    @property
    def accepted(self) -> bool:
        return self.residual < ACCEPT

    @property
    def rejected(self) -> bool:
        return self.residual > REJECT


@dataclass(frozen=True)
class TypeLabel:
    value: str               # "I", "II", "III" or "indeterminate"
    evidence: tuple          # rows: (R_max, lam_length, res_general, res_hermitian)
    notes: tuple = ()


def spectral_norm(op: LocalOperator) -> float:
    """Largest |eigenvalue| of a Hermitian operator via Lanczos on its CSR matrix."""
    dim = 1 << op.n_sites
    if not op.terms:
        return 0.0
    if dim <= 256:
        return float(np.abs(np.linalg.eigvalsh(opspace.to_matrix(op))).max())
    mat = opspace.to_sparse(op)
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    try:
        low = eigsh(mat, k=1, which="SA", v0=v0, tol=1e-9,
                    return_eigenvectors=False)
        high = eigsh(mat, k=1, which="LA", v0=v0, tol=1e-9,
                     return_eigenvectors=False)
        return float(max(abs(low[0]), abs(high[0])))
    except (ArpackError, ArpackNoConvergence):
        return op.coeff_norm()


# -- generic dense solver ------------------------------------------------------

def _site_axes_apply(mat: np.ndarray, psi: np.ndarray, sites, local_dim: int,
                     n_sites: int) -> np.ndarray:
    """Apply a d^w x d^w matrix on the given sites of a dense qudit state.

    The state index is little-endian, index = sum_j s_j d^j, so site j is
    tensor axis n_sites-1-j after reshape; the matrix row index runs
    big-endian over ``sites`` (first listed site most significant).
    """
    w = len(sites)
    tens = psi.reshape((local_dim,) * n_sites)
    axes = [n_sites - 1 - j for j in sites]
    rest = [a for a in range(n_sites) if a not in axes]
    perm = axes + rest
    moved = np.transpose(tens, perm).reshape(local_dim ** w, -1)
    out = (mat @ moved).reshape([local_dim] * w + [local_dim] * (n_sites - w))
    inv = np.argsort(perm)
    return np.transpose(out, inv).reshape(-1)


def _traceless_hermitian_basis(dim: int):
    """Hermitian traceless matrix basis of u(dim) minus the identity ray."""
    mats = []
    for i in range(dim - 1):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i], m[i + 1, i + 1] = 1.0, -1.0
        mats.append(m)
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            mats.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j], m[j, i] = -1j, 1j
            mats.append(m)
    return mats


def solve_boundary_dense(targets, psis, n_sites, local_dim,
                         left_sites, right_sites, hermitian: bool):
    """Least-squares boundary fit on dense vectors; returns (A, B, f, r_abs).

    ``targets[n]`` is the truncated-Hamiltonian action on ``psis[n]``.  The
    window operators are expanded over the traceless Hermitian basis with
    complex (unconstrained) or real (Hermitian) coefficients; per-state
    scalars absorb the identity gauge.
    """
    basis = _traceless_hermitian_basis(local_dim ** len(left_sites))
    basis_r = (basis if len(right_sites) == len(left_sites)
               else _traceless_hermitian_basis(local_dim ** len(right_sites)))
    n_states = len(psis)
    dim = psis[0].size
    cols = []
    for m in basis:
        col = np.concatenate([_site_axes_apply(m, psi, left_sites, local_dim, n_sites)
                              for psi in psis])
        cols.append(col)
    for m in basis_r:
        col = np.concatenate([_site_axes_apply(m, psi, right_sites, local_dim, n_sites)
                              for psi in psis])
        cols.append(col)
    for n in range(n_states):
        col = np.zeros(n_states * dim, dtype=complex)
        col[n * dim:(n + 1) * dim] = psis[n]
        cols.append(col)
    mat = np.array(cols).T
    rhs = np.concatenate(targets)
    if hermitian:
        real_mat = np.vstack([mat.real, mat.imag])
        real_rhs = np.concatenate([rhs.real, rhs.imag])
        sol, *_ = np.linalg.lstsq(real_mat, real_rhs, rcond=None)
        sol = sol.astype(complex)
    else:
        sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    resid_vec = mat @ sol - rhs
    per_state = [float(np.linalg.norm(resid_vec[n * dim:(n + 1) * dim]))
                 for n in range(n_states)]
    nl, nr = len(basis), len(basis_r)
    a_mat = sum(c * m for c, m in zip(sol[:nl], basis))
    b_mat = sum(c * m for c, m in zip(sol[nl:nl + nr], basis_r))
    f = tuple(complex(c) for c in sol[nl + nr:])
    return a_mat, b_mat, f, max(per_state)


# boson-code coefficients (rows: id, sd, s, n) of the site matrix units
# |r><c| (columns: 2r + c): |0><0| = id - n, |0><1| = s, |1><0| = sd, |1><1| = n
_UNIT_TO_BOSON = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                           [0, 1, 0, 0], [-1, 0, 0, 1]], dtype=complex)


def _window_operator(mat: np.ndarray, sites, n_sites: int) -> LocalOperator:
    """Dense 2^w window matrix back to a LocalOperator on the given sites.

    The dense index is big-endian over ``sites`` (first site most
    significant), matching _site_axes_apply.  Each site's (row, column) bit
    pair is projected onto the boson codes by one tensor contraction.
    """
    w = len(sites)
    coeffs = np.asarray(mat, dtype=complex).reshape((2,) * (2 * w))
    coeffs = coeffs.transpose([a for k in range(w) for a in (k, w + k)])
    coeffs = coeffs.reshape((4,) * w)
    for k in range(w):
        coeffs = np.moveaxis(np.tensordot(_UNIT_TO_BOSON, coeffs, axes=([1], [k])), 0, k)
    strings = [
        opspace.string_term(n_sites, coeffs[codes],
                            [(sites[k], opspace.BOSON_CODES[c])
                             for k, c in enumerate(codes) if c])
        for codes in zip(*np.nonzero(np.abs(coeffs) > opspace.COEFF_TOL))]
    return opspace.op_sum(n_sites, strings)


def _require_window(r_max: int) -> None:
    if r_max < 1:
        raise ValueError(f"boundary window R_max = {r_max} must be at least 1")


def boundary_solve(h: LocalOperator, states_list, lam: Region, r_max: int,
                   hermitian: bool = False, basis: str = "boson") -> BoundarySolve:
    """Boundary fit for a truncated qubit Hamiltonian on its target states."""
    _require_window(r_max)
    if lam.length < 2 * r_max + 2:
        raise ValueError(
            f"patch length {lam.length} < 2 R_max + 2 = {2 * r_max + 2}: windows overlap")
    if not h.hermitian():
        raise ValueError("truncation tests are defined for Hermitian Hamiltonians")
    h_lam = opspace.truncate(h, lam, basis=basis)
    targets = [opspace.apply(h_lam, psi) for psi in states_list]
    sites = lam.sites()
    left_sites = tuple(sites[:r_max])
    right_sites = tuple(sites[-r_max:])
    a_mat, b_mat, f, r_abs = solve_boundary_dense(
        targets, states_list, h.n_sites, 2, left_sites, right_sites, hermitian)
    scale = max(spectral_norm(h_lam), 1e-300)
    return BoundarySolve(
        left_op=_window_operator(a_mat, left_sites, h.n_sites),
        right_op=_window_operator(b_mat, right_sites, h.n_sites),
        constants=f,
        residual=r_abs / scale,
        residual_abs=r_abs,
        scale=scale,
        hermitian_constrained=hermitian,
        lam=lam,
        left_window=left_sites,
        right_window=right_sites)


def action_equivalent(op_a: LocalOperator, op_b: LocalOperator, states_list,
                      tol: float = 1e-8) -> bool:
    """Equality of two boundary operators up to the solver gauge.

    Boundary operators are unique only up to window operators acting as
    scalars on every target state, so equality is tested on the action: the
    difference must act as a per-state constant.
    """
    diff = op_a - op_b
    for psi in states_list:
        out = opspace.apply(diff, psi)
        c = complex(np.vdot(psi, out))
        if np.linalg.norm(out - c * psi) > tol:
            return False
    return True


def default_sweep(n_sites: int, r_max: int, anchors=(0,), op_range: int = 0):
    """Patch lengths from max(2 R_max + 2, 2*range + 1) to N - 2 per anchor."""
    lams = []
    min_len = max(2 * r_max + 2, 2 * op_range + 1)
    for anchor in anchors:
        for length in range(min_len, n_sites - 1):
            lams.append(Region(anchor, (anchor + length - 1) % n_sites, n_sites))
    return lams


def _left_independent(h, states_list, r_max, basis, tol=ACCEPT) -> bool:
    """Gauge-free check of the left/right-independence clause.

    Growing the patch by one site on the right must change the action only
    by right-localized operators: the truncation difference is fitted with
    an empty left window.
    """
    n_sites = h.n_sites
    min_len = max(2 * r_max + 3, 2 * h.declared_range + 1)
    short = Region(0, min_len - 1, n_sites)
    grown = Region(0, min_len, n_sites)
    if grown.length > n_sites - 2:
        return True
    diff = opspace.truncate(h, grown, basis) - opspace.truncate(h, short, basis)
    targets = [opspace.apply(diff, psi) for psi in states_list]
    right_sites = tuple(grown.sites()[-(r_max + 1):])
    *_, r_abs = solve_boundary_dense(targets, states_list, n_sites, 2,
                                     (), right_sites, hermitian=False)
    scale = max(spectral_norm(diff), 1e-300)
    return r_abs / scale < tol


def classify(h: LocalOperator, states_list, r_max_list=(2,), lam_sweep=None,
             basis: str = "boson") -> TypeLabel:
    """Type I/II/III verdict from the boundary-action sweep.

    I: Hermitian fit accepted on every patch.  II: general fit accepted
    everywhere but the Hermitian fit rejected somewhere.  III: the general
    fit itself rejected somewhere.  Residuals inside the dead zone yield an
    explicit indeterminate outcome.  The left/right-independence clause is
    cross-checked by comparing the left operator across right-edge
    positions at fixed anchor.  Every target state must be an eigenstate
    of h (ClassificationError otherwise).
    """
    for r_max in r_max_list:
        _require_window(r_max)
    for psi in states_list:
        canonical.require_eigenstate(h, psi)
    notes = []
    evidence = []
    all_h_ok, all_g_ok = True, True
    any_h_reject, any_g_reject = False, False
    dead_zone = False
    for r_max in r_max_list:
        sweep = lam_sweep or default_sweep(h.n_sites, r_max,
                                           anchors=(0, h.n_sites // 3),
                                           op_range=h.declared_range)
        for lam in sweep:
            gen = boundary_solve(h, states_list, lam, r_max, hermitian=False,
                                 basis=basis)
            her = boundary_solve(h, states_list, lam, r_max, hermitian=True,
                                 basis=basis)
            evidence.append((r_max, lam.length, gen.residual, her.residual))
            all_g_ok &= gen.accepted
            all_h_ok &= her.accepted
            any_g_reject |= gen.rejected
            any_h_reject |= her.rejected
            if (not gen.accepted and not gen.rejected) or \
               (not her.accepted and not her.rejected):
                dead_zone = True
        if all_g_ok and not _left_independent(h, states_list, r_max, basis):
            notes.append(f"left operator varies with right edge at R_max={r_max}")
    if all_g_ok and all_h_ok:
        value = "I"
    elif all_g_ok and any_h_reject and not dead_zone:
        value = "II"
    elif any_g_reject:
        value = "III"
    else:
        value = "indeterminate"
    return TypeLabel(value, tuple(evidence), tuple(notes))


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: str             # "same-class", "different" or "indeterminate"
    alpha: float | None
    beta: float | None
    residual: float


def equivalence_test(h_a: LocalOperator, h_b: LocalOperator, states_list,
                     lam: Region | None = None, r_max: int = 2,
                     basis: str = "boson") -> EquivalenceResult:
    """Search for alpha, beta with (alpha H^A - beta H^B) Hermitian-feasible.

    Both inputs are assumed to have been classified type II already.  The
    normalized combination is scanned on a coarse angle grid and the best
    candidates refined by golden-section; residuals are measured against
    the larger of the two truncated action norms.  Every target state must
    be an eigenstate of both inputs (ClassificationError otherwise).
    """
    _require_window(r_max)
    for psi in states_list:
        canonical.require_eigenstate(h_a, psi)
        canonical.require_eigenstate(h_b, psi)
    n_sites = h_a.n_sites
    if lam is None:
        floor = max(2 * r_max + 2,
                    2 * max(h_a.declared_range, h_b.declared_range) + 1)
        length = min(n_sites - 2, max(floor, n_sites - 3))
        lam = Region(0, length - 1, n_sites)
    ha_lam = opspace.truncate(h_a, lam, basis=basis)
    hb_lam = opspace.truncate(h_b, lam, basis=basis)
    acts_a = [opspace.apply(ha_lam, psi) for psi in states_list]
    acts_b = [opspace.apply(hb_lam, psi) for psi in states_list]
    scale = max(max(np.linalg.norm(v) for v in acts_a),
                max(np.linalg.norm(v) for v in acts_b), 1e-300)
    sites = lam.sites()
    left_sites, right_sites = tuple(sites[:r_max]), tuple(sites[-r_max:])

    def residual(theta: float) -> float:
        targets = [np.cos(theta) * a - np.sin(theta) * b
                   for a, b in zip(acts_a, acts_b)]
        *_, r_abs = solve_boundary_dense(targets, states_list, n_sites, 2,
                                         left_sites, right_sites, hermitian=True)
        return r_abs / scale

    thetas = np.linspace(0.0, np.pi, 257)[:-1]
    vals = np.array([residual(t) for t in thetas])
    order = np.argsort(vals)
    best_theta, best_val = thetas[order[0]], vals[order[0]]
    for idx in order[:3]:
        lo, hi = thetas[idx] - np.pi / 256, thetas[idx] + np.pi / 256
        gr = (np.sqrt(5.0) - 1) / 2
        a, b = lo, hi
        c, d = b - gr * (b - a), a + gr * (b - a)
        fc, fd = residual(c), residual(d)
        for _ in range(80):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = residual(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = residual(d)
        theta = (a + b) / 2
        val = residual(theta)
        if val < best_val:
            best_theta, best_val = theta, val
    if best_val < ACCEPT:
        return EquivalenceResult("same-class", float(np.cos(best_theta)),
                                 float(np.sin(best_theta)), best_val)
    if best_val > REJECT:
        return EquivalenceResult("different", None, None, best_val)
    return EquivalenceResult("indeterminate", None, None, best_val)
