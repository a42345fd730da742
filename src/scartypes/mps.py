"""Injective MPS machinery: transfer spectra, push-through, boundary action.

For a translation-invariant MPS tensor A^s and an on-site symmetry
U^theta = e^{i theta L} leaving the state invariant, the push-through
relation sum_s' U_{ss'} A^{s'} = V A^s V^dag defines a bond unitary V;
truncating the symmetry to a patch then acts as physical operators W on
R_inj boundary sites.  The symmetry generator sum_j L_j is itself a parent
Hamiltonian of the state, never type III here, and provably type II when
the transfer matrix E = sum_s A^s (x) (A^s)* is full-rank and V is not a
pure phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boundary as boundary_mod
from .nullspace import real_rank

PUSH_TOL = 1e-10
DENSE_MAX_DIM = 70000
INJECTIVITY_MAX_BLOCK = 6               # longest block injectivity_length tries
THETA_SAMPLES = (0.3, 0.7, 1.1)         # symmetry angles the push-through is tested at


class NotSymmetricError(ValueError):
    """The MPS is not invariant under the requested symmetry."""


@dataclass(frozen=True)
class MPSTensor:
    data: np.ndarray          # (physical s, bond alpha, bond beta)

    def __post_init__(self):
        if self.data.ndim != 3 or self.data.shape[1] != self.data.shape[2]:
            raise ValueError("tensor must be (d, D, D)")

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def bond(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class NotInjective:
    max_block: int


def builtin_aklt() -> MPSTensor:
    """A^+- = +-sqrt(2/3) sigma^+-, A^0 = -(1/sqrt 3) sigma^z; basis (+,0,-)."""
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    data = np.stack([np.sqrt(2.0 / 3.0) * sp,
                     -sz / np.sqrt(3.0),
                     -np.sqrt(2.0 / 3.0) * sm])
    return MPSTensor(data)


def builtin_ssh() -> MPSTensor:
    """Dimerized singlet chain; two qubits (alpha, beta) per site, d = 4.

    Physical index s = 2*s_alpha + s_beta with up = 0, down = 1.
    """
    data = np.zeros((4, 2, 2), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    data[0, 1, 0] = -s      # |up up>
    data[1, 1, 1] = -s      # |up down>
    data[2, 0, 0] = s       # |down up>
    data[3, 0, 1] = s       # |down down>
    return MPSTensor(data)


def spin1_matrix(axis: str) -> np.ndarray:
    """Spin-1 generators in the (+, 0, -) basis."""
    r = 1.0 / np.sqrt(2.0)
    sx = np.array([[0, r, 0], [r, 0, r], [0, r, 0]], dtype=complex)
    sy = np.array([[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]],
                  dtype=complex)
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return {"x": sx, "y": sy, "z": sz}[axis]


def ssh_sz_matrix() -> np.ndarray:
    """sigma^z_alpha + sigma^z_beta on the 4-dimensional doubled site."""
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)
    return np.kron(sz, eye) + np.kron(eye, sz)


def transfer_matrix(a: MPSTensor) -> np.ndarray:
    """E = sum_s A^s (x) (A^s)*, spectrum sorted by |eigenvalue| descending."""
    return sum(np.kron(a.data[s], a.data[s].conj()) for s in range(a.d))


def transfer_spectrum(a: MPSTensor) -> np.ndarray:
    vals = np.linalg.eigvals(transfer_matrix(a))
    return vals[np.argsort(-np.abs(vals))]


def is_full_rank(a: MPSTensor) -> bool:
    return real_rank(transfer_matrix(a)) == a.bond ** 2


def _blocked(a: MPSTensor, k: int) -> np.ndarray:
    """(d^k, D, D) stack of k-site products A^{s_1} ... A^{s_k}."""
    out = a.data
    for _ in range(k - 1):
        out = np.einsum("iab,jbc->ijac", out, a.data).reshape(
            -1, a.bond, a.bond)
    return out


def injectivity_length(a: MPSTensor):
    """Smallest k <= INJECTIVITY_MAX_BLOCK whose blocked tensors span all D x D
    matrices, else NotInjective."""
    target = a.bond ** 2
    for k in range(1, INJECTIVITY_MAX_BLOCK + 1):
        if real_rank(_blocked(a, k).reshape(-1, target)) >= target:
            return k
    return NotInjective(INJECTIVITY_MAX_BLOCK)


def _symmetry_unitary(generator, theta: float) -> np.ndarray:
    """U = e^{i theta L} from the eigendecomposition of the Hermitian generator L.

    Raises ValueError when L is not Hermitian.
    """
    gen = np.asarray(generator, dtype=complex)
    scale = max(np.abs(gen).max(initial=0.0), 1.0)
    if np.abs(gen - gen.conj().T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("symmetry generator must be Hermitian")
    vals, vecs = np.linalg.eigh(gen)
    return (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T


def push_through_check(a: MPSTensor, generator: np.ndarray, theta: float):
    """Solve for the bond unitary V(theta); returns (V or None, residual).

    V is the dominant eigenvector of the symmetry-twisted transfer map
    M -> sum_s (U A)^s M (A^s)^dag, unitarized and gauge-fixed to
    det V real positive, which leaves a D-th root of unity (D the bond
    dimension): the root taken puts arg tr V in [-pi/D, pi/D), so
    Re tr V > 0 for D = 2, an argument within 2 pi PUSH_TOL / D of pi/D
    counting as -pi/D.  When |tr V| <= PUSH_TOL the first entry of V in
    row-major order above PUSH_TOL stands in for tr V.  The residual is
    the worst Frobenius defect of the push-through relation; when it
    exceeds the tolerance the state is not symmetric and V is withheld.
    """
    u = _symmetry_unitary(generator, theta)
    ua = np.einsum("st,tab->sab", u, a.data)
    d, dim = a.d, a.bond
    f_mat = sum(np.kron(ua[s], a.data[s].conj()) for s in range(d))
    vals, vecs = np.linalg.eig(f_mat)
    lead = np.argmax(np.abs(vals))
    m = vecs[:, lead].reshape(dim, dim)
    # unitarize: if push-through holds, m is proportional to a unitary
    gram = m @ m.conj().T
    scale = np.sqrt(np.trace(gram).real / dim)
    v = m / scale
    det = np.linalg.det(v)
    v = v * np.exp(-1j * np.angle(det) / dim)
    ref = np.trace(v) if abs(np.trace(v)) > PUSH_TOL else v[np.abs(v) > PUSH_TOL][0]
    turns = np.floor(dim * np.angle(ref) / (2 * np.pi) + 0.5 + PUSH_TOL)
    v = v * np.exp(-2j * np.pi * turns / dim)
    residual = max(
        float(np.linalg.norm(ua[s] - v @ a.data[s] @ v.conj().T))
        for s in range(d))
    if residual > PUSH_TOL:
        return None, residual
    return v, residual


def boundary_operators(a: MPSTensor, v: np.ndarray, r_inj: int):
    """Physical window operators (W_left, W_right) realizing the V insertion.

    With F the R_inj-site blocks A^{(s)} as a d^R_inj x D^2 matrix and T the
    twisted target (V A^{(s)} left, A^{(s)} V^dag right), W = T pinv(F) +
    (1 - F pinv(F)) solves W F = T and is the identity off range(F).  Returns
    W_left, W_right and the worst ||W F - T||; R_inj < 1 or cond(W) > 1e8 raise
    ValueError.
    """
    boundary_mod._patch_floor(r_inj, 0)
    blocks = _blocked(a, r_inj)
    flat = blocks.reshape(blocks.shape[0], -1)
    pinv = np.linalg.pinv(flat)
    off_range = np.eye(len(flat)) - flat @ pinv
    out, res = [], 0.0
    for name, target in (("left", np.einsum("ab,sbc->sac", v, blocks)),
                         ("right", np.einsum("sab,bc->sac", blocks, v.conj().T))):
        target = target.reshape(flat.shape)
        w = target @ pinv + off_range
        if np.linalg.cond(w) > 1e8:
            raise ValueError(f"{name} boundary operator not invertible")
        res = max(res, float(np.linalg.norm(w @ flat - target)))
        out.append(w)
    return out[0], out[1], res


def to_dense(a: MPSTensor, n_sites: int) -> np.ndarray:
    """Normalized dense state sum Tr[A^{s_1}..A^{s_N}] |s_1..s_N>; ValueError
    when every amplitude vanishes.

    Amplitudes are indexed little-endian, by sum_j s_j d^j over sites j in
    0..N-1, as in the dense boundary solver.
    """
    if a.d ** n_sites > DENSE_MAX_DIM:
        raise ValueError("dense chain too large")
    # Tr(L R) for the products L over the first floor(N/2) sites and R over
    # the rest: one (d^(N/2), D^2) @ (D^2, d^(N - N/2)) matmul
    half = n_sites // 2
    left = _blocked(a, half) if half else np.eye(a.bond)[None]
    right = _blocked(a, n_sites - half).transpose(0, 2, 1)
    amps = left.reshape(len(left), -1) @ right.reshape(len(right), -1).T
    # both blocked indices are big-endian in site order (site 0 most
    # significant), so amps is too; convert to the package little-endian convention
    tens = amps.reshape((a.d,) * n_sites)
    amps = np.transpose(tens, list(range(n_sites - 1, -1, -1))).reshape(-1)
    norm = np.linalg.norm(amps)
    if not norm > 0:
        raise ValueError(f"every amplitude of the {n_sites}-site chain vanishes")
    return amps / norm


def _site_apply(mat: np.ndarray, psi: np.ndarray, site: int, local_dim: int,
                n_sites: int) -> np.ndarray:
    """A d^w x d^w matrix on sites j..j+w-1 (j = ``site``) of a little-endian
    d^N state, its row index big-endian over them, site j most significant:
    a matmul on the (d^(N-j-w), d^w, d^j) view, whose middle axis runs
    little-endian over the window, so the matrix's row and column digits are
    reversed, not psi transposed."""
    dim = len(mat)
    width = round(np.log(dim) / np.log(local_dim))
    rev = [*range(width)][::-1]
    mat = mat.reshape((local_dim,) * 2 * width).transpose(rev + [width + k for k in rev])
    view = psi.reshape(local_dim ** (n_sites - site - width), dim, local_dim ** site)
    return (mat.reshape(dim, dim) @ view).reshape(psi.shape)


def truncated_symmetry_action(a: MPSTensor, generator, theta, lam_sites,
                              psi: np.ndarray, n_sites: int) -> np.ndarray:
    """U^theta restricted to the patch, applied to the dense state."""
    u = _symmetry_unitary(generator, theta)
    out = psi
    for j in lam_sites:
        out = _site_apply(u, out, j, a.d, n_sites)
    return out


def verify_boundary_action(a: MPSTensor, generator, theta, n_sites: int,
                           r_inj: int) -> float:
    """||U^theta_Lam |psi> - W_l W_r |psi>|| on a dense PBC chain, patch 1..N-2,
    whose R_inj windows must not overlap (ValueError)."""
    if 2 * r_inj > n_sites - 2:
        raise ValueError(f"R_inj = {r_inj} windows overlap on the {n_sites - 2}-site patch")
    v, res = push_through_check(a, generator, theta)
    if v is None:
        raise NotSymmetricError(f"push-through residual {res:.3e}")
    w_left, w_right, _ = boundary_operators(a, v, r_inj)
    psi = to_dense(a, n_sites)
    lam = list(range(1, n_sites - 1))          # patch [1 .. N-2], PBC intact
    target = truncated_symmetry_action(a, generator, theta, lam, psi, n_sites)
    got = _site_apply(w_left, psi, lam[0], a.d, n_sites)
    got = _site_apply(w_right, got, lam[-r_inj], a.d, n_sites)
    return float(np.linalg.norm(target - got))


def _boundary_generator_hermitian_feasible(a: MPSTensor, generator,
                                           n_sites: int, r_inj: int) -> bool:
    """Hermitian-feasibility of the truncated generator on a dense chain, the
    residual scaled by ||target|| as in every boundary verdict."""
    gen = np.asarray(generator, dtype=complex)
    psi = to_dense(a, n_sites)
    lam = list(range(1, n_sites - 1))
    target = np.zeros(psi.shape, dtype=complex)
    for j in lam:
        target += _site_apply(gen, psi, j, a.d, n_sites)
    *_, r_abs = boundary_mod.solve_boundary_dense(
        [target], [psi], n_sites, a.d,
        tuple(lam[:r_inj]), tuple(lam[-r_inj:]), hermitian=True)
    return r_abs / boundary_mod._scale([target]) < boundary_mod.ACCEPT


def classify_symmetry_generator(a: MPSTensor, generator,
                                dense_sizes=(6, 8)) -> boundary_mod.TypeLabel:
    """Type of the symmetry generator sum_j L_j as a parent Hamiltonian.

    Never III (injective MPS always admit a boundary action).  Full-rank
    transfer matrix with a non-phase V, sampled at the angles THETA_SAMPLES,
    certifies II; a locally symmetric tensor or a Hermitian-feasible dense
    boundary action gives I; the remaining corner stays indeterminate, its
    note naming the failed type-II clause.
    A failed push-through raises NotSymmetricError for an injective tensor; a
    non-injective one may be symmetric all the same, and is indeterminate.
    The dense certificate skips sizes in ``dense_sizes`` above DENSE_MAX_DIM
    and patches 1..N-2 below the patch rule's 2 R_inj + 2 sites, which the
    two R_inj windows would cover; with no size left it is indeterminate.
    """
    evidence = []
    notes = []
    nontrivial = []
    for theta in THETA_SAMPLES:
        v, res = push_through_check(a, generator, theta)
        if v is None:
            if isinstance(injectivity_length(a), NotInjective):
                return boundary_mod.TypeLabel("indeterminate", tuple(evidence),
                                              ("tensor not injective up to bound",))
            raise NotSymmetricError(
                f"state not symmetric at theta={theta}: residual {res:.3e}")
        phase_like = abs(abs(np.trace(v)) / a.bond - 1.0) < 1e-8
        nontrivial.append(not phase_like)
        evidence.append((theta, res, not phase_like))
    if not any(nontrivial):
        notes.append("tensor locally symmetric: V is a pure phase")
        return boundary_mod.TypeLabel("I", tuple(evidence), tuple(notes))
    if all(nontrivial) and is_full_rank(a):
        notes.append("transfer matrix full-rank, V nontrivial")
        return boundary_mod.TypeLabel("II", tuple(evidence), tuple(notes))
    r_inj = injectivity_length(a)
    if isinstance(r_inj, NotInjective):
        return boundary_mod.TypeLabel("indeterminate", tuple(evidence),
                                      ("tensor not injective up to bound",))
    feasible = []
    floor = boundary_mod._patch_floor(r_inj, 1)
    for n_sites in dense_sizes:
        if a.d ** n_sites > DENSE_MAX_DIM or n_sites - 2 < floor:
            continue
        feasible.append(_boundary_generator_hermitian_feasible(
            a, generator, n_sites, r_inj))
    if feasible and all(feasible):
        notes.append("Hermitian boundary action found on dense chains")
        return boundary_mod.TypeLabel("I", tuple(evidence), tuple(notes))
    failed = "a sampled V is a pure phase" if not all(nontrivial) \
        else "rank-deficient transfer matrix"
    notes.append(f"{failed}, no Hermitian certificate")
    return boundary_mod.TypeLabel("indeterminate", tuple(evidence), tuple(notes))
