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
from functools import cache
from itertools import combinations

import numpy as np

from . import opspace, states
from .opspace import LocalOperator, hs_norm, identity, op_sum

EIGENSTATE_TOL = 1e-10
TABLE2_RANGE = 3            # largest window of the Table-II generator catalog


class ClassificationError(ValueError):
    """Raised when a target state is not an eigenstate; carries the defect norm."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


def require_eigenstate(op: LocalOperator, psi: np.ndarray) -> complex:
    """Energy <psi|op|psi> of a unit eigenstate.

    Raises ValueError when psi is not a unit state and ClassificationError
    when ||(op - E)|psi>|| exceeds EIGENSTATE_TOL * max(coeff_norm, 1).
    """
    energy, defect = opspace.eigen_defect(op, psi)
    if defect > EIGENSTATE_TOL * max(op.coeff_norm(), 1.0):
        raise ClassificationError(
            f"target state is not an eigenstate: ||(H - E)|psi>|| = {defect:.3e}",
            defect)
    return energy


# -- operator families as anchored patterns ------------------------------------
#
# A pattern is a tuple of ((offset, ops), coeff) entries anchored at site 0;
# its window is the largest offset + len(ops).

def _dagger_pattern(ops):
    return tuple(map(opspace._DAGGER.__getitem__, ops))


def _hop(alpha: int) -> tuple:
    """Codes of sd_0 s_alpha over the window [0, alpha]."""
    return ("sd",) + ("id",) * (alpha - 1) + ("s",)


def _pattern(entries: dict) -> tuple:
    return tuple(sorted(entries.items()))


@cache      # the decompose sweeps place one pattern per range at many sites
def _p_re_pattern(alpha: int) -> tuple:
    """sd_0 s_a + sd_a s_0 - n_0 - n_a."""
    return _pattern({(0, _hop(alpha)): 1.0, (0, _dagger_pattern(_hop(alpha))): 1.0,
                     (0, ("n",)): -1.0, (alpha, ("n",)): -1.0})


@cache
def _p_im_pattern(alpha: int) -> tuple:
    """i sd_0 s_a - i (chain of nearest-neighbor hops) + H.c."""
    entries = {(0, _hop(alpha)): 1j, (0, _dagger_pattern(_hop(alpha))): -1j}
    for k in range(alpha):
        entries[(k, ("sd", "s"))] = -1j
        entries[(k, ("s", "sd"))] = 1j
    return _pattern(entries)


def _imhop_p_pattern(p: int) -> tuple:
    """i (|1..10><01..1| - H.c.) on p+1 sites."""
    mid = ("n",) * (p - 1)
    return (((0, ("sd",) + mid + ("s",)), 1j), ((0, ("s",) + mid + ("sd",)), -1j))


def _translates(n_sites: int, patterns, sites, coeffs=None) -> LocalOperator:
    """sum_{p, j} coeffs[p, j] * (pattern p anchored at site j), pattern-major.

    Sums each term under ((j + offset) mod N, ops), a canonical key when ops is
    shift stable: if every code tuple is, that is the one pass, else the
    constructor merges the keys.  Raises ValueError when a pattern's window
    exceeds the ring.
    """
    sites = list(sites)
    scalars = iter([1.0] * (len(patterns) * len(sites)) if coeffs is None else coeffs)
    terms: dict = {}
    for pattern in patterns:
        width = max((off + len(ops) for (off, ops), _ in pattern), default=0)
        if width > n_sites:
            raise ValueError(f"pattern window {width} exceeds the ring N = {n_sites}")
        for site, c in zip(sites, scalars):
            for (offset, ops), v in pattern:
                key = ((site + offset) % n_sites, ops)
                terms[key] = terms.get(key, 0.0) + c * v
    if all(opspace._shift_stable(n_sites, ops) for pattern in patterns for (_, ops), _ in pattern):
        return LocalOperator._trusted(n_sites, {k: 0.0 + complex(v) for k, v in terms.items()})
    return LocalOperator(n_sites, terms)


def _placed(n_sites: int, pattern, site: int, coef) -> LocalOperator:
    """``coef * _translates(n_sites, [pattern], [site])`` to the bit, in one pass."""
    scalar, terms = complex(coef), {}
    for (offset, ops), v in pattern:
        key = opspace._canonical_key(n_sites, site + offset, ops)
        terms[key] = terms.get(key, 0.0) + complex(v)
    return LocalOperator._trusted(n_sites, {k: v * scalar for k, v in terms.items()})


# -- builtin Hamiltonians ----------------------------------------------------

def n_tot(n_sites: int) -> LocalOperator:
    return _translates(n_sites, [(((0, ("n",)), 1.0),)], range(n_sites))


def h_imhop(n_sites: int) -> LocalOperator:
    """(i/2) sum_j (sd_j s_{j+1} - sd_{j+1} s_j) on the periodic ring."""
    return _translates(n_sites, [(((0, ("sd", "s")), 0.5j), ((0, ("s", "sd")), -0.5j))],
                       range(n_sites))


_REHOP = (((0, ("n",)), 0.5), ((1, ("n",)), 0.5),
          ((0, ("sd", "s")), -0.5), ((0, ("s", "sd")), -0.5))


def h_rehop(n_sites: int) -> LocalOperator:
    """(1/2) sum_j (n_j + n_{j+1} - sd_j s_{j+1} - sd_{j+1} s_j)."""
    return _translates(n_sites, [_REHOP], range(n_sites))


def h_imhop2(n_sites: int) -> LocalOperator:
    """(i/2) sum_j (|110><011| - |011><110|) on consecutive site triples."""
    return 0.5 * _translates(n_sites, [_imhop_p_pattern(2)], range(n_sites))


def h_imhop_p(n_sites: int, p: int) -> LocalOperator:
    """i sum_j (|1..10><01..1| - H.c.) on p+1 sites; annihilates every W^m."""
    if p < 1:
        raise ValueError("p >= 1 required")
    return _translates(n_sites, [_imhop_p_pattern(p)], range(n_sites))


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
    return _translates(n_sites, [(((0, (a, b)), 0.25), ((0, (b, a)), -0.25))],
                       range(n_sites))


def h_heis(n_sites: int) -> LocalOperator:
    """sum_j (1/4 - S_j.S_{j+1}): nearest-neighbor singlet projectors."""
    return _translates(n_sites, [_REHOP + (((0, ("n", "n")), -1.0),)], range(n_sites))


def p_re(n_sites: int, j: int, alpha: int) -> LocalOperator:
    """sd_j s_{j+a} + sd_{j+a} s_j - n_j - n_{j+a}; annihilates W and vacuum."""
    if alpha < 1:
        raise ValueError("alpha >= 1 required")
    return _translates(n_sites, [_p_re_pattern(alpha)], [j])


def p_im(n_sites: int, j: int, alpha: int) -> LocalOperator:
    """i sd_j s_{j+a} - i (chain of nearest-neighbor hops) + H.c., a >= 2."""
    if alpha < 2:
        raise ValueError("alpha >= 2 required")
    return _translates(n_sites, [_p_im_pattern(alpha)], [j])


def p_nonherm(n_sites: int, j: int) -> LocalOperator:
    """(i/2)(sd_j s_{j+1} - sd_{j+1} s_j - n_j + n_{j+1}); kills W, not W under dagger."""
    return _translates(n_sites, [(((0, ("sd", "s")), 0.5j), ((0, ("s", "sd")), -0.5j),
                                  ((0, ("n",)), -0.5j), ((1, ("n",)), 0.5j))], [j])


# named PBC operators as printed in the source material: each name's
# constructor and {keyword: default}, built by name through the CLI grammar
BUILTINS = {
    "n_tot": (n_tot, {}),
    "h_imhop": (h_imhop, {}),
    "h_rehop": (h_rehop, {}),
    "h_imhop2": (h_imhop2, {}),
    "h_imhop_p": (h_imhop_p, {"p": 2}),
    "h_dmi": (h_dmi, {"axis": "z"}),
    "h_heis": (h_heis, {}),
    "p_re": (p_re, {"j": 0, "alpha": 1}),
    "p_im": (p_im, {"j": 0, "alpha": 2}),
    "p_nonherm": (p_nonherm, {"j": 0}),
}


# -- Table-I string classes ---------------------------------------------------

def _table_classes(op: LocalOperator):
    """Sort the boson strings of ``op`` by (n creation, m annihilation) sites.

    One pass returns (single, hop, bundles, lone, pairs):
      single    {key: coeff} of the (0, 1) strings, s_k keyed (k, ("s",));
      hop       the (1, 1) matrix c[j, k] of sd_j s_k, n_j on the diagonal;
      bundles   {creation-site bitmask: {key: coeff}} of the (n>=2, m=1) strings;
      lone      {key: coeff} of the (n<=1, m>=2) strings;
      pairs     {smaller of key and conjugate key: {key: coeff}} of the
                (n>=2, m>=2) strings, in order of first appearance.
    The identity string and the (n>=1, m=0) strings are in none of them.
    """
    n_sites = op.n_sites
    single, bundles, lone, pairs = {}, {}, {}, {}
    hop = [[0j] * n_sites for _ in range(n_sites)]      # numpy's sums, cheaper per item
    shapes = {}     # code tuple: creation, annihilation offsets, daggered codes, creation mask
    for key, coeff in op.terms.items():
        start, ops = key
        shape = shapes.get(ops)
        if shape is None:
            cre = [k for k, c in enumerate(ops) if c in ("sd", "n")]
            shape = shapes[ops] = (cre, [k for k, c in enumerate(ops) if c in ("s", "n")],
                                   _dagger_pattern(ops), sum(1 << k for k in cre))
        cre, ann, dag, mask = shape
        if not ann:
            continue
        if len(ann) == 1:
            if not cre:
                single[key] = coeff
            elif len(cre) == 1:
                hop[(start + cre[0]) % n_sites][(start + ann[0]) % n_sites] += coeff
            else:
                bundles.setdefault(opspace._rotated(mask, start, n_sites), {})[key] = coeff
        elif len(cre) < 2:
            lone[key] = coeff
        else:
            pairs.setdefault(min(key, (start, dag)), {})[key] = coeff
    return single, np.array(hop), bundles, lone, pairs


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


def decompose(h: LocalOperator) -> CanonicalForm:
    """Theorem-1 canonical form of a Hermitian W-parent Hamiltonian.

    The symmetric part of the hopping matrix is swept with P^Re generators
    (longest range first, leaving omega on the diagonal) and the
    antisymmetric part with P^Im generators (leaving the uniform
    nearest-neighbor imaginary hop t); all other string classes pair with
    their conjugates into the Hermitian annihilators h_X.  W must be an
    eigenstate (ClassificationError), then h Hermitian (ValueError).
    """
    require_eigenstate(h, states.w_state(h.n_sites))
    if not h.hermitian():
        raise ValueError("decompose requires a Hermitian operator")
    op = opspace.to_boson_basis(h)
    n_sites = op.n_sites
    omega_id = op.identity_coefficient()
    annihilators = []

    _, c, bundles, _, pairs = _table_classes(op)
    # the longest ring distance |k - j| over the hops present
    hops = (np.abs(c.real) > opspace.COEFF_TOL) | (np.abs(c.imag) > opspace.COEFF_TOL)
    max_alpha = max((min((k - j) % n_sites, (j - k) % n_sites)
                     for j, k in zip(*np.nonzero(hops))), default=0)
    sym, asym = c.real.tolist(), c.imag.tolist()     # numpy's sums, cheaper per item

    for alpha in range(max_alpha, 0, -1):
        for j in range(n_sites):
            k = (j + alpha) % n_sites
            coef = sym[j][k]
            if abs(coef) > opspace.COEFF_TOL:
                annihilators.append(_placed(n_sites, _p_re_pattern(alpha), j, coef))
                sym[j][k] -= coef
                sym[k][j] -= coef
                sym[j][j] += coef
                sym[k][k] += coef
    omega_n = float(np.mean(np.diag(sym)))

    for alpha in range(max_alpha, 1, -1):
        for j in range(n_sites):
            k = (j + alpha) % n_sites
            coef = asym[j][k]
            if abs(coef) > opspace.COEFF_TOL:
                annihilators.append(_placed(n_sites, _p_im_pattern(alpha), j, coef))
                asym[j][k] -= coef
                asym[k][j] += coef
                for step in range(1, alpha + 1):
                    a, b = (j + step - 1) % n_sites, (j + step) % n_sites
                    asym[a][b] += coef
                    asym[b][a] -= coef
    nn = np.array([asym[j][(j + 1) % n_sites] for j in range(n_sites)])
    t_im = float(2.0 * np.mean(nn))

    # strings with n, m >= 2 pair off with their conjugates; (n>=2, m=1)
    # strings only annihilate in zero-row-sum bundles per creation set, with
    # their (1, m>=2) conjugates.  Pure creation/annihilation strings vanish.
    # the groups' keys are op's, so canonical, and a bundle's daggered keys are
    # new ones; 0.0 + v keeps the constructor's sum, which turns a -0.0 part into 0.0
    annihilators.extend(LocalOperator._trusted(n_sites, {k: 0.0 + v for k, v in terms.items()})
                        for terms in pairs.values())
    daggered: dict = {}
    for terms in bundles.values():
        both = {k: 0.0 + v for k, v in terms.items()}
        for (start, ops), v in terms.items():
            codes = daggered.get(ops) or daggered.setdefault(ops, _dagger_pattern(ops))
            both[(start, codes)] = 0.0 + v.conjugate()
        annihilators.append(LocalOperator._trusted(n_sites, both))

    form = CanonicalForm(omega_id, omega_n, t_im, tuple(annihilators), 0.0)
    residual = hs_norm(op - form.reconstruct(n_sites))
    return CanonicalForm(omega_id, omega_n, t_im, tuple(annihilators), residual)


def decompose_general(g: LocalOperator) -> CanonicalForm:
    """Non-Hermitian variant: G = Omega*1 + omega*N_tot + sum_X g_X, no t term.

    Hopping rows are absorbed row by row (each row with its common sum
    omega removed is a strictly local annihilator), and the (n=0, m=1)
    class is rewritten over the range-2 differences s_k - s_{k+1}.
    """
    require_eigenstate(g, states.w_state(g.n_sites))
    op = opspace.to_boson_basis(g)
    n_sites = op.n_sites
    omega_id = op.identity_coefficient()
    annihilators = []

    single, c, bundles, lone, pairs = _table_classes(op)
    row_sums = c.sum(axis=1)
    omega_n = complex(np.mean(row_sums))
    for j in range(n_sites):
        terms = {(j, ("n",) if k == j else _hop((k - j) % n_sites)): c[j, k]
                 for k in range(n_sites) if abs(c[j, k]) > opspace.COEFF_TOL}
        terms[(j, ("n",))] = terms.get((j, ("n",)), 0.0) - omega_n
        row = LocalOperator(n_sites, terms)
        if len(row):
            annihilators.append(row)

    if single:
        amps = np.zeros(n_sites, dtype=complex)
        amps[[k for k, _ in single]] = list(single.values())
        partial = np.cumsum(amps)
        keep = [k for k in range(n_sites) if abs(partial[k]) > opspace.COEFF_TOL]
        annihilators.append(_translates(
            n_sites, [(((0, ("s",)), 1.0), ((1, ("s",)), -1.0))], keep, partial[keep]))

    # every m >= 2 string alone; (n>=2, m=1) strings in zero-row-sum bundles
    # per creation set
    many = [*lone.items(), *(term for terms in pairs.values() for term in terms.items())]
    annihilators.extend(LocalOperator(n_sites, {key: coeff}) for key, coeff in many)
    annihilators.extend(LocalOperator(n_sites, terms) for terms in bundles.values())

    form = CanonicalForm(omega_id, omega_n, 0.0, tuple(annihilators), 0.0)
    residual = hs_norm(op - form.reconstruct(n_sites))
    return CanonicalForm(omega_id, omega_n, 0.0, tuple(annihilators), residual)


# -- Table-II generator catalog and random type-I ensembles --------------------

_TABLE2 = ()        # table2_patterns' catalog, built on its first call


def table2_patterns() -> tuple:
    """Anchored generator patterns for strictly local Hermitian annihilators.

    Returns a tuple of patterns (sorted tuples of ((offset, ops), coeff)
    entries over boson codes), each defining one Hermitian h_X anchored at
    site 0 with window at most TABLE2_RANGE.  Covers the (n=m=1) P^Re/P^Im rows, the zero-row-sum
    (n>=2, m=1) + H.c. row, and the unconstrained (n>=2, m>=2) + H.c. row.
    The catalog is built once per process, on the first call.
    """
    global _TABLE2
    if _TABLE2:
        return _TABLE2
    pats = [_p_re_pattern(alpha) for alpha in range(1, TABLE2_RANGE)]
    pats += [_p_im_pattern(alpha) for alpha in range(2, TABLE2_RANGE)]

    def add(entries):
        pats.append(_pattern(entries))

    def pattern_of(creation, annihilation, window):
        return tuple(("id", "s", "sd", "n")[2 * (j in creation) + (j in annihilation)]
                     for j in range(window))

    for window in range(2, TABLE2_RANGE + 1):
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
    _TABLE2 = tuple(pats)
    return _TABLE2


def random_type1(n_sites: int, rng: np.random.Generator,
                 translation_invariant: bool = True) -> LocalOperator:
    """Random sum of the range-3 Table-II annihilators, coefficients uniform in [-1, 1].

    With ``translation_invariant`` the same coefficient multiplies every
    translate of a pattern, so the construction defines one Hamiltonian
    family across chain lengths.
    """
    pats = table2_patterns()
    if n_sites >= 2 * TABLE2_RANGE:
        # all windows shift stable: id-ended tuples go on their canonical windows; each is in
        # one entry, placed after every pattern using that window, so no sum changes
        pats = [tuple((opspace._canonical_key(n_sites, *key) if "id" in (key[1][0], key[1][-1])
                       else key, v) for key, v in pat) for pat in pats]
    if translation_invariant:
        coeffs = np.repeat(rng.uniform(-1.0, 1.0, size=len(pats)), n_sites)
    else:
        coeffs = rng.uniform(-1.0, 1.0, size=len(pats) * n_sites)
    return _translates(n_sites, pats, range(n_sites), coeffs.tolist())
