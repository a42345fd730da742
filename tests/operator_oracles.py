"""Dense, coefficient-wise and two-pass references for operator tests.

Neither the package nor its command line reads these: they are the tests'
oracles for operator algebra, state application and the boundary solves.
"""

import numpy as np

from scartypes.canonical import table2_patterns
from scartypes.opspace import (CANCEL_TOL, COEFF_TOL, _DAGGER, CapacityError, LocalOperator,
                               _canonical_key, to_boson_basis)

MATRIX_MAX_SITES = 14      # dense 2^N guard


def operators_equal(a: LocalOperator, b: LocalOperator, tol: float = 1e-12) -> bool:
    """Equality as operators, comparing coefficients in the boson basis."""
    diff = to_boson_basis(a) - to_boson_basis(b)
    return all(abs(c) <= tol for c in diff.terms.values())


def to_matrix(op: LocalOperator) -> np.ndarray:
    """Dense 2^N x 2^N matrix filled from flip_diagonals; guarded against blowup."""
    if op.n_sites > MATRIX_MAX_SITES:
        raise CapacityError(f"N={op.n_sites} exceeds dense guard {MATRIX_MAX_SITES}")
    dim = 1 << op.n_sites
    mat = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for flip, diag in flip_diagonals(op).items():
        mat[idx ^ flip, idx] = diag
    return mat


def flip_diagonals(op: LocalOperator) -> dict:
    """The matrix as {flip mask: diagonal}: entry (i ^ flip, i) is diagonal[i].

    Strings sharing a flip mask fill the same entries, so they are summed,
    in term order, on one dense diagonal of length 2^N per flip mask.
    """
    diagonals: dict = {}
    for src, flip, vals in string_masks(op.n_sites, op.terms.items()):
        if flip not in diagonals:
            diagonals[flip] = np.zeros(1 << op.n_sites, dtype=complex)
        diagonals[flip][src] += vals
    return diagonals


def site_axes_apply(mat: np.ndarray, psi: np.ndarray, sites, local_dim: int,
                    n_sites: int) -> np.ndarray:
    """Apply a d^w x d^w matrix, or a (k, d^w, d^w) stack, on the given sites.

    The state index is little-endian, index = sum_j s_j d^j, so site j is
    tensor axis n_sites-1-j after reshape; the matrix row index runs
    big-endian over ``sites`` (first listed site most significant).  A
    stack returns one (k, d^N) row per matrix.  Transposes psi so the sites
    lead: the general form of the package's contiguous-window matmul.
    """
    mat = np.asarray(mat)
    lead = mat.shape[:-2]
    tens = psi.reshape((local_dim,) * n_sites)
    axes = [n_sites - 1 - j for j in sites]
    rest = [a for a in range(n_sites) if a not in axes]
    perm = axes + rest
    moved = np.transpose(tens, perm).reshape(local_dim ** len(sites), -1)
    out = (mat @ moved).reshape(lead + (local_dim,) * n_sites)
    inv = [*range(len(lead)), *(len(lead) + np.argsort(perm))]
    return np.transpose(out, inv).reshape(lead + (psi.size,))


def string_masks(n_sites: int, terms):
    """Decode every ((start, ops), coeff) string into its action on basis indices,
    one string at a time: the per-string loop the package's vectorized decoder
    replaced.

    Yields one (src, flip, vals) per string, in order: the string keeps the
    basis indices ``src`` of the 2^N (site j = bit j), maps each to
    ``src ^ flip`` and multiplies it by ``vals`` (a scalar, or one
    sign-carrying amplitude per index).
    """
    idx_all = np.arange(1 << n_sites)
    for (start, ops), coeff in terms:
        sel_mask = sel_bits = flip_mask = sign_mask = 0
        amp = coeff
        for k, code in enumerate(ops):
            b = 1 << ((start + k) % n_sites)
            if code == "sd":
                sel_mask |= b
                flip_mask |= b
            elif code == "s":
                sel_mask |= b
                sel_bits |= b
                flip_mask |= b
            elif code == "n":
                sel_mask |= b
                sel_bits |= b
            elif code == "x":
                flip_mask |= b
            elif code == "y":
                flip_mask |= b
                sign_mask |= b
                amp = amp * 1j
            elif code == "z":
                sign_mask |= b
        src = idx_all
        if sel_mask:
            src = src[(src & sel_mask) == sel_bits]
        yield src, flip_mask, amp * parity_sign(src, sign_mask) if sign_mask else amp


def parity_sign(idx: np.ndarray, mask: int) -> np.ndarray:
    """(-1)^(number of set bits of idx & mask), one bit at a time."""
    par = np.zeros(idx.shape, dtype=np.int64)
    m = mask
    while m:
        j = (m & -m).bit_length() - 1
        par ^= (idx >> j) & 1
        m &= m - 1
    return 1 - 2 * par


# -- per-term forms of the per-code-tuple operator paths --------------------------

def construct_terms(n_sites: int, terms) -> dict:
    """The constructor's canonical terms with one _canonical_key call per string:
    the loop that resolving each distinct code tuple once replaced."""
    canon: dict = {}
    for (start, ops), coeff in terms.items():
        key = _canonical_key(n_sites, start, tuple(ops))
        canon[key] = canon.get(key, 0.0) + complex(coeff)
    return {k: v for k, v in canon.items() if abs(v) > COEFF_TOL}


def dagger_terms(op: LocalOperator) -> dict:
    """op.dagger()'s terms, each string's codes daggered on their own."""
    return {(start, tuple(_DAGGER[c] for c in ops)): coeff.conjugate()
            for (start, ops), coeff in op.terms.items()}


def table_classes(op: LocalOperator):
    """canonical._table_classes with every string's sites and classes worked
    out on their own."""
    n_sites = op.n_sites
    single, bundles, lone, pairs = {}, {}, {}, {}
    hop = np.zeros((n_sites, n_sites), dtype=complex)
    for key, coeff in op.terms.items():
        start, ops = key
        sites = [((start + k) % n_sites, c) for k, c in enumerate(ops)]
        cre = tuple(sorted(j for j, c in sites if c in ("sd", "n")))
        ann = tuple(sorted(j for j, c in sites if c in ("s", "n")))
        if not ann:
            continue
        if len(ann) == 1:
            if not cre:
                single[key] = coeff
            elif len(cre) == 1:
                hop[cre[0], ann[0]] += coeff
            else:
                bundles.setdefault(sum(1 << j for j in cre), {})[key] = coeff
        elif len(cre) < 2:
            lone[key] = coeff
        else:
            dag = tuple(_DAGGER[c] for c in ops)
            pairs.setdefault(min(key, (start, dag)), {})[key] = coeff
    return single, hop, bundles, lone, pairs


# -- two-pass forms of the one-pass operator builders -----------------------------

def translates_two_pass(n_sites: int, patterns, sites, coeffs=None) -> LocalOperator:
    """canonical._translates as a raw dict of placed keys handed to the
    constructor, which merges each raw key's sum into its canonical key."""
    placements = [(pattern, j) for pattern in patterns for j in sites]
    scalars = [1.0] * len(placements) if coeffs is None else list(coeffs)
    terms: dict = {}
    for (pattern, site), c in zip(placements, scalars):
        for (offset, ops), v in pattern:
            key = ((site + offset) % n_sites, ops)
            terms[key] = terms.get(key, 0.0) + c * v
    return LocalOperator(n_sites, terms)


def random_type1_two_pass(n_sites: int, rng, translation_invariant: bool = True):
    """canonical.random_type1 placing the catalog as it is, in two passes."""
    pats = table2_patterns()
    if translation_invariant:
        coeffs = np.repeat(rng.uniform(-1.0, 1.0, size=len(pats)), n_sites)
    else:
        coeffs = rng.uniform(-1.0, 1.0, size=len(pats) * n_sites)
    return translates_two_pass(n_sites, pats, range(n_sites), coeffs.tolist())


def placed_two_pass(n_sites: int, pattern, site: int, coef) -> LocalOperator:
    """A decompose sweep generator: coef times the pattern placed in two passes."""
    return coef * translates_two_pass(n_sites, [pattern], [site])


def hermitian_two_pass(op: LocalOperator) -> bool:
    """LocalOperator.hermitian through the operator op - op^dagger."""
    diff = op - op.dagger()
    bound = CANCEL_TOL * max([1.0, *map(abs, op.terms.values())])
    return all(abs(v) <= bound for v in diff.terms.values()) or \
        all(abs(v) <= bound for v in to_boson_basis(diff).terms.values())
