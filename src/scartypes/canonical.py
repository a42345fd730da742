"""Canonical decomposition of W-parent Hamiltonians and the builtin library.

Any extensive-local Hermitian H with the W state as an eigenstate splits as

    H = Omega*1 + omega*N_tot + t*H_ImHop + sum_X h_X,

where every h_X is a strictly local Hermitian annihilator of both the W
state and the vacuum.  ``decompose`` extracts (Omega, omega, t) by cleaning
up the one-particle hopping matrix with the P^Re / P^Im generator sweeps,
longest hops first, and groups everything else into the h_X list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import opspace, states
from .opspace import LocalOperator, hs_norm, identity, op_sum, string_term

EIGENSTATE_TOL = 1e-10
RESIDUAL_TOL = 1e-10


class ClassificationError(ValueError):
    """Raised when a target state is not an eigenstate; carries the defect norm."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


def require_eigenstate(op: LocalOperator, psi: np.ndarray,
                       tol: float = EIGENSTATE_TOL) -> complex:
    """Energy <psi|op|psi> of a normalized eigenstate.

    Raises ClassificationError when ||(op - E)|psi>|| exceeds
    tol * max(coeff_norm, 1).
    """
    hpsi = opspace.apply(op, psi)
    energy = complex(np.vdot(psi, hpsi))
    defect = float(np.linalg.norm(hpsi - energy * psi))
    if defect > tol * max(op.coeff_norm(), 1.0):
        raise ClassificationError(
            f"target state is not an eigenstate: ||(H - E)|psi>|| = {defect:.3e}",
            defect)
    return energy


# -- builtin Hamiltonians ----------------------------------------------------

def _strings(n_sites: int, strings) -> LocalOperator:
    """Sum of string_term(n_sites, coeff, site_ops) over (coeff, site_ops)."""
    return op_sum(n_sites, [string_term(n_sites, c, f) for c, f in strings])


def n_tot(n_sites: int) -> LocalOperator:
    return _strings(n_sites, ((1.0, [(j, "n")]) for j in range(n_sites)))


def h_imhop(n_sites: int) -> LocalOperator:
    """(i/2) sum_j (sd_j s_{j+1} - sd_{j+1} s_j) on the periodic ring."""
    return _strings(n_sites, (
        s for j in range(n_sites)
        for s in ((0.5j, [(j, "sd"), (j + 1, "s")]),
                  (-0.5j, [(j + 1, "sd"), (j, "s")]))))


def h_rehop(n_sites: int) -> LocalOperator:
    """(1/2) sum_j (n_j + n_{j+1} - sd_j s_{j+1} - sd_{j+1} s_j)."""
    return _strings(n_sites, (
        s for j in range(n_sites)
        for s in ((0.5, [(j, "n")]), (0.5, [(j + 1, "n")]),
                  (-0.5, [(j, "sd"), (j + 1, "s")]),
                  (-0.5, [(j + 1, "sd"), (j, "s")]))))


def h_imhop2(n_sites: int) -> LocalOperator:
    """(i/2) sum_j (|110><011| - |011><110|) on consecutive site triples."""
    return _strings(n_sites, (
        s for j in range(n_sites)
        for s in ((0.5j, [(j, "sd"), (j + 1, "n"), (j + 2, "s")]),
                  (-0.5j, [(j, "s"), (j + 1, "n"), (j + 2, "sd")]))))


def h_imhop_p(n_sites: int, p: int) -> LocalOperator:
    """i sum_j (|1..10><01..1| - H.c.) on p+1 sites; annihilates every W^m."""
    if p < 1:
        raise ValueError("p >= 1 required")

    def hops(j):
        mid = [(j + k, "n") for k in range(1, p)]
        return ((1j, [(j, "sd")] + mid + [(j + p, "s")]),
                (-1j, [(j, "s")] + mid + [(j + p, "sd")]))

    return _strings(n_sites, (s for j in range(n_sites) for s in hops(j)))


def h_dmi(n_sites: int, axis: str = "z") -> LocalOperator:
    """sum_j (S_j x S_{j+1}) . axis with S = sigma/2.

    Under the package spin convention (|0> <-> sigma^z=+1) the z-axis DMI
    equals -H_ImHop; the sign is orientation convention, the eigenstate
    structure is identical.
    """
    pairs = {"z": ("x", "y"), "x": ("y", "z"), "y": ("z", "x")}
    if axis not in pairs:
        raise ValueError(f"axis must be one of x,y,z, got {axis!r}")
    a, b = pairs[axis]
    return _strings(n_sites, (
        s for j in range(n_sites)
        for s in ((0.25, [(j, a), (j + 1, b)]), (-0.25, [(j, b), (j + 1, a)]))))


def h_heis(n_sites: int) -> LocalOperator:
    """sum_j (1/4 - S_j.S_{j+1}): nearest-neighbor singlet projectors."""
    return h_rehop(n_sites) + _strings(
        n_sites, ((-1.0, [(j, "n"), (j + 1, "n")]) for j in range(n_sites)))


def p_re(n_sites: int, j: int, alpha: int) -> LocalOperator:
    """sd_j s_{j+a} + sd_{j+a} s_j - n_j - n_{j+a}; annihilates W and vacuum."""
    if alpha < 1:
        raise ValueError("alpha >= 1 required")
    return _strings(n_sites, ((1.0, [(j, "sd"), (j + alpha, "s")]),
                              (1.0, [(j + alpha, "sd"), (j, "s")]),
                              (-1.0, [(j, "n")]), (-1.0, [(j + alpha, "n")])))


def p_im(n_sites: int, j: int, alpha: int) -> LocalOperator:
    """i sd_j s_{j+a} - i (chain of nearest-neighbor hops) + H.c., a >= 2."""
    if alpha < 2:
        raise ValueError("alpha >= 2 required")
    op = _strings(n_sites, [(1j, [(j, "sd"), (j + alpha, "s")])]
                  + [(-1j, [(j + k - 1, "sd"), (j + k, "s")])
                     for k in range(1, alpha + 1)])
    return op + op.dagger()


def p_nonherm(n_sites: int, j: int) -> LocalOperator:
    """(i/2)(sd_j s_{j+1} - sd_{j+1} s_j - n_j + n_{j+1}); kills W, not W under dagger."""
    return _strings(n_sites, ((0.5j, [(j, "sd"), (j + 1, "s")]),
                              (-0.5j, [(j + 1, "sd"), (j, "s")]),
                              (-0.5j, [(j, "n")]), (0.5j, [(j + 1, "n")])))


_BUILTINS = {
    "n_tot": lambda n, **kw: n_tot(n),
    "h_imhop": lambda n, **kw: h_imhop(n),
    "h_rehop": lambda n, **kw: h_rehop(n),
    "h_imhop2": lambda n, **kw: h_imhop2(n),
    "h_imhop_p": lambda n, **kw: h_imhop_p(n, kw.get("p", 2)),
    "h_dmi": lambda n, **kw: h_dmi(n, kw.get("axis", "z")),
    "h_heis": lambda n, **kw: h_heis(n),
    "p_re": lambda n, **kw: p_re(n, kw.get("j", 0), kw.get("alpha", 1)),
    "p_im": lambda n, **kw: p_im(n, kw.get("j", 0), kw.get("alpha", 2)),
    "p_nonherm": lambda n, **kw: p_nonherm(n, kw.get("j", 0)),
}


def builtin(name: str, n_sites: int, **kwargs) -> LocalOperator:
    """Named PBC operators as printed in the source material."""
    key = name.strip().lower()
    if key not in _BUILTINS:
        raise KeyError(f"unknown builtin {name!r}; have {sorted(_BUILTINS)}")
    return _BUILTINS[key](n_sites, **kwargs)


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


# -- Table I/II verification --------------------------------------------------

@dataclass(frozen=True)
class TableCondition:
    nm_class: str
    satisfied: bool
    violating_terms: tuple


@dataclass(frozen=True)
class TableReport:
    conditions: tuple
    lam: complex | None

    @property
    def satisfied(self) -> bool:
        return all(c.satisfied for c in self.conditions)


def _string_nm(start, ops):
    n = sum(1 for c in ops if c in ("sd", "n"))
    m = sum(1 for c in ops if c in ("s", "n"))
    return n, m


def _creation_sites(n_sites, start, ops):
    return tuple(sorted((start + k) % n_sites
                        for k, c in enumerate(ops) if c in ("sd", "n")))


def _annihilation_sites(n_sites, start, ops):
    return tuple(sorted((start + k) % n_sites
                        for k, c in enumerate(ops) if c in ("s", "n")))


def verify_table(g: LocalOperator, tol: float = 1e-12) -> TableReport:
    """Check the coefficient conditions for G|W> = lambda |W> class by class.

    Classes over (n = #creation, m = #annihilation) in the boson string
    basis: (n>=1, m=0) all zero; (n=0, m=1) and (n>=2, m=1) zero row sums;
    (n=1, m=1) all row sums equal a common lambda; (m>=2) unconstrained.
    The identity component shifts lambda and is reported inside it.
    """
    op = opspace.to_boson_basis(g)
    scale = max((abs(v) for v in op.terms.values()), default=1.0)
    pure_creation = []
    row_sums_21: dict = {}
    row_sum_01 = 0.0 + 0.0j
    terms_01 = []
    hop_rows = np.zeros(op.n_sites, dtype=complex)
    for (start, ops), coeff in op.terms.items():
        if not ops:
            continue
        n, m = _string_nm(start, ops)
        if n >= 1 and m == 0:
            pure_creation.append(((start, ops), coeff))
        elif n == 0 and m == 1:
            row_sum_01 += coeff
            terms_01.append(((start, ops), coeff))
        elif n >= 2 and m == 1:
            key = _creation_sites(op.n_sites, start, ops)
            row_sums_21.setdefault(key, []).append(((start, ops), coeff))
        elif n == 1 and m == 1:
            j = _creation_sites(op.n_sites, start, ops)[0]
            hop_rows[j] += coeff
    conditions = []
    conditions.append(TableCondition(
        "n>=1,m=0", not pure_creation, tuple(pure_creation)))
    bad01 = terms_01 if abs(row_sum_01) > tol * scale else []
    conditions.append(TableCondition("n=0,m=1", not bad01, tuple(bad01)))
    bad21 = []
    for key, entries in row_sums_21.items():
        if abs(sum(c for _, c in entries)) > tol * scale:
            bad21.extend(entries)
    conditions.append(TableCondition("n>=2,m=1", not bad21, tuple(bad21)))
    # sites with no hopping string contribute a zero row sum, so all N rows vote
    lam = complex(np.mean(hop_rows))
    bad11 = [(j, complex(hop_rows[j])) for j in range(op.n_sites)
             if abs(hop_rows[j] - lam) > tol * max(scale, 1.0)]
    if bad11:
        lam = None
    conditions.append(TableCondition("n=1,m=1", not bad11, tuple(bad11)))
    conditions.append(TableCondition("n>=0,m>=2", True, ()))
    if lam is not None:
        lam = lam + op.identity_coefficient()
    return TableReport(tuple(conditions), lam)


# -- Theorem-1 decomposition ---------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    omega_id: complex
    omega_n: complex
    t_im: float
    annihilators: tuple
    residual_norm: float

    def reconstruct(self, n_sites: int) -> LocalOperator:
        ops = [identity(n_sites, self.omega_id), n_tot(n_sites)]
        coeffs = [1.0, self.omega_n]
        if self.t_im:
            ops.append(h_imhop(n_sites))
            coeffs.append(self.t_im)
        ops.extend(self.annihilators)
        coeffs.extend([1.0] * len(self.annihilators))
        return op_sum(n_sites, ops, coeffs)


def _hopping_matrix(op: LocalOperator):
    """Coefficient matrix c[j,k] of the (n=1, m=1) strings sd_j s_k."""
    c = np.zeros((op.n_sites, op.n_sites), dtype=complex)
    for (start, ops), coeff in op.terms.items():
        if not ops:
            continue
        n, m = _string_nm(start, ops)
        if (n, m) != (1, 1):
            continue
        j = _creation_sites(op.n_sites, start, ops)[0]
        k = _annihilation_sites(op.n_sites, start, ops)[0]
        c[j, k] += coeff
    return c


def _hop_distance(n_sites, j, k):
    """Signed ring distance from j to k, minimal window version."""
    fwd = (k - j) % n_sites
    return fwd if fwd <= n_sites - fwd else fwd - n_sites


def decompose(h: LocalOperator, tol: float = EIGENSTATE_TOL) -> CanonicalForm:
    """Theorem-1 canonical form of a Hermitian W-parent Hamiltonian.

    The symmetric part of the hopping matrix is swept with P^Re generators
    (longest range first, leaving omega on the diagonal) and the
    antisymmetric part with P^Im generators (leaving the uniform
    nearest-neighbor imaginary hop t); all other string classes pair with
    their conjugates into the Hermitian annihilators h_X.
    """
    if not h.hermitian():
        raise ClassificationError("decompose requires a Hermitian operator")
    require_eigenstate(h, states.w_state(h.n_sites), tol)
    op = opspace.to_boson_basis(h)
    n_sites = op.n_sites
    omega_id = op.identity_coefficient()
    annihilators = []

    c = _hopping_matrix(op)
    sym = c.real.copy()
    asym = c.imag.copy()
    max_alpha = 0
    for j in range(n_sites):
        for k in range(n_sites):
            if (j != k and (abs(sym[j, k]) > opspace.COEFF_TOL
                            or abs(asym[j, k]) > opspace.COEFF_TOL)):
                max_alpha = max(max_alpha, abs(_hop_distance(n_sites, j, k)))

    for alpha in range(max_alpha, 0, -1):
        for j in range(n_sites):
            k = (j + alpha) % n_sites
            coef = sym[j, k]
            if abs(coef) > opspace.COEFF_TOL:
                annihilators.append(coef * p_re(n_sites, j, alpha))
                sym[j, k] -= coef
                sym[k, j] -= coef
                sym[j, j] += coef
                sym[k, k] += coef
    omega_n = float(np.mean(np.diag(sym)))

    for alpha in range(max_alpha, 1, -1):
        for j in range(n_sites):
            k = (j + alpha) % n_sites
            coef = asym[j, k]
            if abs(coef) > opspace.COEFF_TOL:
                annihilators.append(coef * p_im(n_sites, j, alpha))
                asym[j, k] -= coef
                asym[k, j] += coef
                for step in range(1, alpha + 1):
                    a, b = (j + step - 1) % n_sites, (j + step) % n_sites
                    asym[a, b] += coef
                    asym[b, a] -= coef
    nn = np.array([asym[j, (j + 1) % n_sites] for j in range(n_sites)])
    t_im = float(2.0 * np.mean(nn))

    # remaining classes: (n>=2, m=1) strings only annihilate in zero-row-sum
    # bundles per creation set (with their conjugates), everything with
    # n, m >= 2 pairs off with its conjugate string by string
    done = set()
    groups_21: dict = {}
    for (start, ops), coeff in op.terms.items():
        if not ops or (start, ops) in done:
            continue
        n, m = _string_nm(start, ops)
        if (n, m) == (1, 1) or m == 0 or n == 0:
            continue  # hopping handled above; pure creation/annihilation vanish
        dkey = (start, _dagger_pattern(ops))
        if n >= 2 and m == 1:
            done.add((start, ops))
            done.add(dkey)
            key = _creation_sites(n_sites, start, ops)
            groups_21.setdefault(key, {})[(start, ops)] = coeff
        elif n == 1 and m >= 2:
            continue  # conjugate of a (n>=2, m=1) string; bundled there
        else:
            done.add((start, ops))
            if dkey == (start, ops):
                annihilators.append(LocalOperator(n_sites, {(start, ops): coeff}))
            else:
                done.add(dkey)
                partner = op.terms.get(dkey, 0.0)
                annihilators.append(LocalOperator(
                    n_sites, {(start, ops): coeff, dkey: partner}))
    for terms in groups_21.values():
        bundle = LocalOperator(n_sites, terms)
        annihilators.append(bundle + bundle.dagger())

    form = CanonicalForm(omega_id, omega_n, t_im, tuple(annihilators), 0.0)
    residual = hs_norm(op - form.reconstruct(n_sites))
    return CanonicalForm(omega_id, omega_n, t_im, tuple(annihilators), residual)


def decompose_general(g: LocalOperator, tol: float = EIGENSTATE_TOL) -> CanonicalForm:
    """Non-Hermitian variant: G = Omega*1 + omega*N_tot + sum_X g_X, no t term.

    Hopping rows are absorbed row by row (each row with its common sum
    omega removed is a strictly local annihilator), and the (n=0, m=1)
    class is rewritten over the range-2 differences s_k - s_{k+1}.
    """
    require_eigenstate(g, states.w_state(g.n_sites), tol)
    op = opspace.to_boson_basis(g)
    n_sites = op.n_sites
    omega_id = op.identity_coefficient()
    annihilators = []

    c = _hopping_matrix(op)
    row_sums = c.sum(axis=1)
    omega_n = complex(np.mean(row_sums))
    for j in range(n_sites):
        row = _strings(n_sites, [
            (c[j, k], [(j, "n")] if k == j else [(j, "sd"), (k, "s")])
            for k in range(n_sites) if abs(c[j, k]) > opspace.COEFF_TOL]
            + [(-omega_n, [(j, "n")])])
        if len(row):
            annihilators.append(row)

    single = np.zeros(n_sites, dtype=complex)
    for (start, ops), coeff in op.terms.items():
        if not ops:
            continue
        n, m = _string_nm(start, ops)
        if (n, m) == (0, 1):
            single[_annihilation_sites(n_sites, start, ops)[0]] += coeff
    if np.abs(single).max() > opspace.COEFF_TOL:
        partial = np.cumsum(single)
        annihilators.append(_strings(n_sites, (
            s for k in range(n_sites) if abs(partial[k]) > opspace.COEFF_TOL
            for s in ((partial[k], [(k, "s")]), (-partial[k], [(k + 1, "s")])))))

    # (n>=2, m=1) strings bundle into zero-row-sum groups per creation set
    groups_21: dict = {}
    for (start, ops), coeff in op.terms.items():
        if not ops:
            continue
        n, m = _string_nm(start, ops)
        if m >= 2:
            annihilators.append(LocalOperator(n_sites, {(start, ops): coeff}))
        elif m == 1 and n >= 2:
            key = _creation_sites(n_sites, start, ops)
            groups_21.setdefault(key, {})[(start, ops)] = coeff
    annihilators.extend(LocalOperator(n_sites, terms) for terms in groups_21.values())

    form = CanonicalForm(omega_id, omega_n, 0.0, tuple(annihilators), 0.0)
    residual = hs_norm(op - form.reconstruct(n_sites))
    return CanonicalForm(omega_id, omega_n, 0.0, tuple(annihilators), residual)


# -- Table-II generator catalog and random type-I ensembles --------------------

def table2_patterns(max_range: int = 3):
    """Anchored generator patterns for strictly local Hermitian annihilators.

    Returns a list of coefficient dicts {offset-pattern: coeff} over boson
    codes, each defining one Hermitian h_X anchored at site 0 with window at
    most ``max_range``.  Covers the (n=m=1) P^Re/P^Im rows, the zero-row-sum
    (n>=2, m=1) + H.c. row, and the unconstrained (n>=2, m>=2) + H.c. row.
    """
    pats = []

    def add(entries):
        pats.append(tuple(sorted(entries.items())))

    for alpha in range(1, max_range):
        add({(0, ("sd",) + ("id",) * (alpha - 1) + ("s",)): 1.0,
             (0, ("s",) + ("id",) * (alpha - 1) + ("sd",)): 1.0,
             (0, ("n",)): -1.0, (alpha, ("n",)): -1.0})
    for alpha in range(2, max_range):
        entries = {(0, ("sd",) + ("id",) * (alpha - 1) + ("s",)): 1j,
                   (0, ("s",) + ("id",) * (alpha - 1) + ("sd",)): -1j}
        for k in range(alpha):
            entries[(k, ("sd", "s"))] = entries.get((k, ("sd", "s")), 0.0) - 1j
            entries[(k, ("s", "sd"))] = entries.get((k, ("s", "sd")), 0.0) + 1j
        add(entries)

    def pattern_of(creation, annihilation, window):
        ops = []
        for j in range(window):
            in_c, in_a = j in creation, j in annihilation
            ops.append("n" if in_c and in_a else "sd" if in_c else "s" if in_a else "id")
        return tuple(ops)

    for window in range(2, max_range + 1):
        sites = list(range(window))
        # zero-row-sum (n>=2, m=1) bundles s_C^dag (s_k1 - s_k2) + H.c.
        for nc in range(2, window + 1):
            for creation in combinations(sites, nc):
                for k1, k2 in combinations(sites, 2):
                    p1 = pattern_of(creation, {k1}, window)
                    p2 = pattern_of(creation, {k2}, window)
                    if p1[0] == "id" and p2[0] == "id":
                        continue  # appears anchored at a later window
                    if p1[-1] == "id" and p2[-1] == "id":
                        continue  # appears in a smaller window
                    entries: dict = {}
                    for pat, sgn in ((p1, 1.0), (p2, -1.0)):
                        entries[(0, pat)] = entries.get((0, pat), 0.0) + sgn
                        dag = _dagger_pattern(pat)
                        entries[(0, dag)] = entries.get((0, dag), 0.0) + sgn
                    add(entries)
        # unconstrained (n>=2, m>=2) strings + H.c.
        for nc in range(2, window + 1):
            for creation in combinations(sites, nc):
                for na in range(2, window + 1):
                    for annihilation in combinations(sites, na):
                        p = pattern_of(creation, set(annihilation), window)
                        if p[0] == "id" or p[-1] == "id":
                            continue
                        d = _dagger_pattern(p)
                        if d < p:
                            continue  # one member per conjugate pair
                        if p == d:
                            add({(0, p): 1.0})
                        else:
                            add({(0, p): 1.0, (0, d): 1.0})
                            add({(0, p): 1j, (0, d): -1j})
    return pats


def _dagger_pattern(ops):
    return tuple(opspace._DAGGER[c] for c in ops)


def instantiate_pattern(n_sites: int, pattern, site: int) -> LocalOperator:
    terms = {}
    for (offset, ops), coeff in pattern:
        key = ((site + offset) % n_sites, ops)
        terms[key] = terms.get(key, 0.0) + coeff
    return LocalOperator(n_sites, terms)


def random_type1(n_sites: int, rng: np.random.Generator,
                 max_range: int = 3, translation_invariant: bool = True) -> LocalOperator:
    """Random sum of Table-II annihilators, coefficients uniform in [-1, 1].

    With ``translation_invariant`` the same coefficient multiplies every
    translate of a pattern, so the construction defines one Hamiltonian
    family across chain lengths.
    """
    pats = table2_patterns(max_range)
    if translation_invariant:
        coeffs = np.repeat(rng.uniform(-1.0, 1.0, size=len(pats)), n_sites)
    else:
        coeffs = rng.uniform(-1.0, 1.0, size=len(pats) * n_sites)
    return op_sum(n_sites, [instantiate_pattern(n_sites, pat, j)
                            for pat in pats for j in range(n_sites)], coeffs)
